"""Exact multivariate polynomial arithmetic over Q with even Z-gradings.

Representation
--------------
A variable is a ``GradedVar`` (name, even degree >= 2).  A ``Mono`` is a
tuple of ``(GradedVar, exponent)`` pairs sorted by name, exponents
positive, and () is 1.  A ``Poly`` keys each monomial by one packed int
(Monagan and Pearce, CASC 2007; Bachmann and Schoenemann, ISSAC 1998): a
process-wide registry gives each variable an index on first use, and the
key holds 16-bit fields, field 0 the weighted degree and field i + 1 the
exponent of variable i, each with its top bit a guard.  A product of
monomials is the sum of their keys.  A degree, and so an exponent, above
``_FIELD`` = 32767 raises OverflowError; no key wraps.  ``Poly({Mono: c})``
and ``coefficient`` pack their input, ``Poly.terms`` is a view converted
back on each access, and a pickled ``Poly`` carries ``Mono`` terms, as keys
mean nothing in another process.  Coefficients are exact: an ``int`` when
integral, a ``Fraction`` only when its denominator exceeds 1; a ``float``
raises TypeError.

A quotient ring by a homogeneous ideal answers normal forms, dimensions,
standard monomials and dimension series from one homogeneous Groebner
basis, built by Buchberger's algorithm on exponent tuples with exact
coefficients.  The term order is the ring's: weighted degree, then
reverse lexicographic with the ring's first variable the smallest, so a
ring that lists boundary variables first rewrites internal variables in
terms of boundary ones.  A quotient has the Hilbert series of its
leading-monomial ideal (Cox, Little and O'Shea, *Ideals, Varieties, and
Algorithms*, ch. 9 section 3), and the Bayer-Stillman recursion turns the
leads into the numerator N(q) of N(q) / prod_v (1 - q^deg v).  The basis
is complete once no S-pair waits at or below the top degree that series
gives.  A ring completes its basis once, on its first question, or
refuses every question with CutoffExceeded when a pending degree passes
its cutoff first; a complete ring answers in every degree.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping, Sequence

from .qseries import QLaurent, _expand

__all__ = [
    "GradedVar",
    "Mono",
    "Poly",
    "QuotientRing",
    "DegreeMismatch",
    "CutoffExceeded",
    "divided_difference",
    "divided_difference_values",
]


class DegreeMismatch(ValueError):
    """A substitution image is inhomogeneous or has the wrong degree."""


class CutoffExceeded(RuntimeError):
    """A ring's Groebner basis does not complete within the ring's cutoff,
    or an answer's degree lies past the cutoff its caller gave."""


@dataclass(frozen=True, order=True)
class GradedVar:
    """A polynomial variable carrying a positive even Z-grading.

    The hash is the one the dataclass would generate, computed once.  A
    string hash differs between processes, so pickling rebuilds the
    variable rather than restoring that hash.
    """

    name: str
    degree: int

    def __post_init__(self) -> None:
        if self.degree < 2 or self.degree % 2 != 0:
            raise ValueError(f"variable degree must be even and >= 2: {self!r}")
        object.__setattr__(self, "_hash", hash((self.name, self.degree)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return GradedVar, (self.name, self.degree)


# Monomial: ((var, exp), ...) sorted by var name, exps > 0.  () is 1.
Mono = tuple[tuple[GradedVar, int], ...]


def _coeff(c: object) -> int | Fraction:
    """The canonical form of a coefficient: an int when it is integral, a
    Fraction only when its denominator exceeds 1.  Any other type, a float
    included, raises TypeError, so no inexact value enters a Poly."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient must be an int or a Fraction, not {type(c).__name__}")


def _inverse(c: int | Fraction) -> int | Fraction:
    """The exact inverse 1/c of a nonzero coefficient, in canonical form."""
    return _coeff(Fraction(1, c))


def _check_cutoff(cutoff: int | None) -> None:
    """A negative cutoff truncates every series to nothing: ValueError."""
    if cutoff is not None and cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")


# -- packed monomial keys ------------------------------------------------------

_BITS = 16  # bits per field
_FIELD = (1 << (_BITS - 1)) - 1  # the largest degree; a field's top bit is a guard
_degree = _FIELD.__and__  # the degree of a key
_VARS: list[GradedVar] = []  # registered variables: index i holds field i + 1
_UNITS: dict[GradedVar, int] = {}  # variable -> its own key
_CONFLICTS: list[tuple[int, int, str]] = []  # field masks of two variables of one name


def _unit(v: GradedVar) -> int:
    """The key of v, registering v in the next field on first use."""
    u = _UNITS.get(v)
    if u is None:
        shift = _BITS * (len(_VARS) + 1)
        _CONFLICTS.extend((_FIELD << _BITS * (i + 1), _FIELD << shift, v.name)
                          for i, w in enumerate(_VARS) if w.name == v.name)
        _VARS.append(v)
        u = _UNITS[v] = (1 << shift) + v.degree
    return u


def _check_gradings(keys: Iterable[int]) -> None:
    """ValueError when a key holds two variables of one name."""
    for a, b, name in _CONFLICTS:
        if any(k & a and k & b for k in keys):
            raise ValueError(f"conflicting gradings for variable {name}")


def _pack(m: Mono) -> int:
    """The key of a Mono, registering its variables."""
    if any(e < 0 for _, e in m):
        raise ValueError(f"negative exponent in {m}")
    if sum(v.degree * e for v, e in m) > _FIELD:
        raise OverflowError(f"degree of {m} exceeds the packed limit {_FIELD}")
    k = sum(e * _unit(v) for v, e in m)
    if _CONFLICTS:
        _check_gradings((k,))
    return k


def _unpack(k: int) -> Mono:
    """The Mono of a key: its (variable, exponent) pairs in name order.
    Each step takes the highest nonzero field, so zero fields cost nothing."""
    pairs = []
    while k > _FIELD:
        i = (k.bit_length() - 1) // _BITS
        e = k >> _BITS * i
        pairs.append((_VARS[i - 1], e))
        k -= e << _BITS * i
    return tuple(sorted(pairs, key=lambda p: p[0].name))


def pure_power(p: Poly, v: GradedVar) -> tuple[int, int | Fraction] | None:
    """(k, c) when p = c*v^k + rest, with k the top exponent of v in p and
    no monomial of rest divisible by v^k; None otherwise.  As k is the top
    exponent, v^k divides a monomial exactly when its exponent of v is k."""
    k = p.max_exponent(v)
    u = _UNITS[v]
    s, pure = u.bit_length() - 1, k * u
    c = p._terms.get(pure) if k else 0
    if not c or any(m != pure and (m >> s) & _FIELD == k for m in p._terms):
        return None
    return k, c


def _power_vars(p: Poly) -> list[GradedVar]:
    """The variables of the terms c*v^e of p, the only ones ``pure_power``
    can find: keys with one exponent field set."""
    out = []
    for k in p._terms:
        f = k >> _BITS
        i = (f.bit_length() - 1) // _BITS
        if f and f == (f >> _BITS * i) << _BITS * i:
            out.append(_VARS[i])
    return out


def _outside(vs: Iterable[GradedVar]) -> int:
    """The mask of the exponent fields of a key but those of vs."""
    return ~sum((_FIELD << (_unit(v).bit_length() - 1) for v in vs), _FIELD)


def _part(p: Poly, mask: int) -> Poly:
    """The terms of p whose keys meet mask."""
    return _from_clean({m: c for m, c in p._terms.items() if m & mask})


def _by_monomial(p: Poly, mask: int) -> list[tuple[Poly, Poly]]:
    """p = sum of m * c_m as (m, c_m) pairs in the order of p's terms, m a
    monic monomial in the fields of mask and c_m free of them."""
    groups: dict[int, dict[int, int | Fraction]] = {}
    for k, c in p._terms.items():
        fields = k & mask
        m = fields + sum(v.degree * e for v, e in _unpack(fields))
        groups.setdefault(m, {})[k - m] = c
    return [(_from_clean({m: 1}), _from_clean(t)) for m, t in groups.items()]


def _lead_quotient(t: Poly, s: Poly) -> Poly | None:
    """The term q with q * lead(s) = lead(t), leads the largest keys; None
    when a field of lead(s) exceeds lead(t)'s, as a guard bit shows."""
    if not t or not s:
        return None
    mt, ms = max(t._terms), max(s._terms)
    guards = int("8000" * (mt.bit_length() // _BITS + 1), 16)
    if ms > mt or ((mt | guards) - ms) & guards != guards:
        return None
    return _from_clean({mt - ms: _coeff(Fraction(t._terms[mt]) / s._terms[ms])})


def mono_key(m: Mono) -> tuple:
    """Graded lexicographic sort key: total degree, then name-wise exponents.
    It orders printed terms and ``QuotientRing.monomials``; it is not a
    monomial order, and no normal form depends on it."""
    return (sum(v.degree * e for v, e in m), tuple((v.name, e) for v, e in m))


class Poly:
    """Immutable exact polynomial.  Supports +, -, *, ** and scalar mixing."""

    __slots__ = ("_terms", "_hash", "_deg")  # _deg: see _homogeneous_degree

    def __init__(self, terms: Mapping[Mono, int | Fraction] | None = None):
        sums: dict[int, int | Fraction] = {}
        for m, c in (terms or {}).items():
            k = _pack(m)
            sums[k] = sums.get(k, 0) + _coeff(c)
        self._terms: dict[int, int | Fraction] = _canonical(sums)
        self._hash: int | None = None

    def __reduce__(self):
        # keys are indices into this process's registry: carry Mono terms
        return Poly, (self.terms,)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _POLY_ZERO

    @staticmethod
    def const(c: int | Fraction) -> "Poly":
        c = _coeff(c)
        return _from_clean({0: c}) if c else _POLY_ZERO

    @staticmethod
    def variable(v: GradedVar) -> "Poly":
        return _from_clean({_unit(v): 1})

    # -- inspection ----------------------------------------------------

    @property
    def terms(self) -> dict[Mono, int | Fraction]:
        """The terms with ``Mono`` keys, converted on each access."""
        return {_unpack(m): c for m, c in self._terms.items()}

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, m: Mono) -> int | Fraction:
        return self._terms.get(_pack(m), 0)

    def variables(self) -> frozenset[GradedVar]:
        return frozenset(v for v, _ in _unpack(reduce(int.__or__, self._terms, 0)))

    def is_homogeneous(self) -> bool:
        return not self._terms or self._homogeneous_degree() >= 0

    def homogeneous_degree(self) -> int:
        """Degree of a nonzero homogeneous polynomial; raises otherwise."""
        d = self._homogeneous_degree() if self._terms else -1
        if d < 0:
            raise DegreeMismatch(f"not nonzero-homogeneous: {self}")
        return d

    def _homogeneous_degree(self) -> int:
        """The degree of this nonzero polynomial when homogeneous, else -1;
        kept, as every presentation that holds a row checks it again."""
        try:
            return self._deg
        except AttributeError:
            degs = set(map(_degree, self._terms))
            self._deg = degs.pop() if len(degs) == 1 else -1
            return self._deg

    def homogeneous_components(self) -> dict[int, "Poly"]:
        parts: dict[int, dict[int, int | Fraction]] = {}
        for m, c in self._terms.items():
            parts.setdefault(_degree(m), {})[m] = c
        return {d: _from_clean(t) for d, t in sorted(parts.items())}

    def max_exponent(self, v: GradedVar) -> int:
        s = _unit(v).bit_length() - 1
        return max(((m >> s) & _FIELD for m in self._terms), default=0)

    # -- arithmetic ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __neg__(self) -> "Poly":
        return _from_clean({m: -c for m, c in self._terms.items()})

    def __add__(self, other: "Poly | int | Fraction") -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._terms, other._terms
        if len(a) < len(b):  # copy the larger operand, add the smaller into it
            a, b = b, a
        out = dict(a)
        get = out.get
        for m, c in b.items():
            out[m] = get(m, 0) + c
        return _from_clean(_canonical(out))

    __radd__ = __add__

    def __sub__(self, other: "Poly | int | Fraction") -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: "Poly | int | Fraction") -> "Poly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other: "Poly | int | Fraction") -> "Poly":
        if type(other) is not Poly:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            c = _coeff(other)
            return _from_clean({m: _coeff(k * c) for m, k in self._terms.items() if c})
        # keep the outer loop on the smaller operand
        a, b = self._terms, other._terms
        if len(a) > len(b):
            a, b = b, a
        if not a:
            return _POLY_ZERO
        # the fields of valid keys never carry into their neighbours, and no
        # exponent exceeds the degree, so only the degree field can overflow
        if max(map(_degree, a)) + max(map(_degree, b)) > _FIELD:
            raise OverflowError(f"product degree exceeds the packed limit {_FIELD}")
        if len(a) == 1:
            # a monomial times a polynomial: the keys stay distinct
            [(m1, c1)] = a.items()
            out = {m1 + m2: c1 * c2 for m2, c2 in b.items()}
        else:
            out = {}
            get = out.get
            b_items = b.items()
            for m1, c1 in a.items():
                for m2, c2 in b_items:
                    m = m1 + m2
                    out[m] = get(m, 0) + c1 * c2
        if _CONFLICTS:
            _check_gradings(out)
        return _from_clean(_canonical(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return _POLY_ONE if result is None else result

    # -- substitution and calculus --------------------------------------

    def substitute(self, sigma: Mapping[GradedVar, "Poly"]) -> "Poly":
        """Simultaneous substitution.  Each image must be 0 or homogeneous
        of the replaced variable's degree (DegreeMismatch naming the
        variable otherwise).  A polynomial that no substituted variable
        occurs in comes back as itself."""
        for v, img in sigma.items():
            degrees = set(map(_degree, img._terms))
            if len(degrees) > 1:
                raise DegreeMismatch(f"image of {v.name} is inhomogeneous")
            if degrees and degrees != {v.degree}:
                raise DegreeMismatch(
                    f"image of {v.name} (degree {v.degree}) has degree {degrees.pop()}"
                )
        # A key is its kept part plus its substituted part.  The image of
        # each distinct substituted part is built once, from cached
        # per-variable powers, then shifted by the kept part into ``out``.
        subs = [(_unit(v), img) for v, img in sigma.items()]
        mask = sum(_FIELD << (u.bit_length() - 1) for u, _ in subs)
        if not any(m & mask for m in self._terms):
            return self
        powers: dict[tuple[int, int], Poly] = {}
        # substituted part -> (its key with its degree, its image)
        images: dict[int, tuple[int, dict[int, int | Fraction]]] = {0: (0, {0: 1})}
        out: dict[int, int | Fraction] = {}
        get = out.get
        for m, c in self._terms.items():
            part = m & mask
            got = images.get(part)
            if got is None:
                full, prod = 0, None
                for u, img in subs:
                    e = (part >> (u.bit_length() - 1)) & _FIELD
                    if e:
                        full += e * u
                        power = powers.get((u, e))
                        if power is None:
                            power = powers[(u, e)] = img**e
                        prod = power if prod is None else prod * power
                got = images[part] = (full, prod._terms)
            full, image = got
            kept = m - full
            for mi, ci in image.items():
                mi += kept
                out[mi] = get(mi, 0) + c * ci
        if _CONFLICTS:
            _check_gradings(out)
        return _from_clean(_canonical(out))

    def evaluate(self, point: Mapping[GradedVar, int | Fraction]) -> Fraction:
        """Evaluate at a rational point; every variable must be assigned.
        The value is a Fraction, also for a constant polynomial."""
        total = Fraction(0)
        for m, c in self._terms.items():
            val = c
            for v, e in _unpack(m):
                val *= Fraction(point[v]) ** e
            total += val
        return total

    def differentiate(self, v: GradedVar) -> "Poly":
        u = _unit(v)
        s = u.bit_length() - 1
        out: dict[int, int | Fraction] = {}
        for m, c in self._terms.items():
            e = (m >> s) & _FIELD
            if e:
                out[m - u] = _coeff(c * e)
        return _from_clean(out)

    def coefficients_in(self, v: GradedVar) -> dict[int, "Poly"]:
        """Write self as sum_k c_k * v^k; returns {k: c_k} with c_k free of v."""
        u = _unit(v)
        s = u.bit_length() - 1
        buckets: dict[int, dict[int, int | Fraction]] = {}
        for m, c in self._terms.items():
            k = (m >> s) & _FIELD
            buckets.setdefault(k, {})[m - k * u] = c
        return {k: _from_clean(t) for k, t in sorted(buckets.items())}

    # -- rendering -------------------------------------------------------

    def render(self) -> str:
        """Deterministic human-readable form, graded-lex term order."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        terms = self.terms
        for m in sorted(terms, key=mono_key):
            c = terms[m]
            body = "*".join(
                v.name if e == 1 else f"{v.name}^{e}" for v, e in m
            )
            mag = abs(c)
            if not body:
                frag = str(mag)
            elif mag == 1:
                frag = body
            else:
                frag = f"{mag}*{body}"
            if not parts:
                parts.append(frag if c > 0 else f"-{frag}")
            else:
                parts.append(f"+ {frag}" if c > 0 else f"- {frag}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Poly({self.render()})"


def _coerce(x: "Poly | int | Fraction") -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    return NotImplemented  # type: ignore[return-value]


def _from_clean(terms: dict[int, int | Fraction]) -> Poly:
    """A Poly over terms already canonical (see ``_coeff``), no zeros."""
    p = Poly.__new__(Poly)
    p._terms = terms
    p._hash = None
    return p


def _canonical(sums: dict[int, int | Fraction]) -> dict[int, int | Fraction]:
    """Sums of canonical coefficients made canonical terms: zero sums
    dropped, integral Fractions made ints."""
    if Fraction in set(map(type, sums.values())):
        return {m: _coeff(c) for m, c in sums.items() if c}
    if 0 in sums.values():
        return {m: c for m, c in sums.items() if c}
    return sums


def _sum(polys: Iterable[Poly]) -> Poly:
    """The sum of polys, accumulated in one dict."""
    out: dict[int, int | Fraction] = {}
    get = out.get
    for p in polys:
        for m, c in p._terms.items():
            out[m] = get(m, 0) + c
    return _from_clean(_canonical(out))


# A plan is a homogeneous polynomial over a list of template variables,
# kept apart from the registry: its degree (0 for zero, which has no
# terms), and for each term its coefficient and the (template index,
# exponent) pairs of its variables.  Applied onto targets, given by their
# ``_fields``, it is the polynomial with template variable i replaced by
# target i.
_Plan = tuple[int, tuple[tuple[int | Fraction, tuple[tuple[int, int], ...]], ...]]


def _fields(vs: Iterable[GradedVar]) -> tuple[int, ...]:
    """The exponent field of each variable's key: its key less its degree."""
    return tuple(_unit(v) - v.degree for v in vs)


def _to_plan(p: Poly, tvars: Sequence[GradedVar]) -> _Plan:
    """p as a plan over tvars, which must hold every variable of p."""
    index = {v: i for i, v in enumerate(tvars)}
    terms = tuple(
        (c, tuple((index[v], e) for v, e in _unpack(m))) for m, c in p._terms.items()
    )
    return (p.homogeneous_degree() if p else 0), terms


def _apply_plan(plan: _Plan, fields: Sequence[int]) -> Poly:
    """The plan on the targets whose fields are given: each key is the
    degree plus e * field for each (index, e) pair.  Keys that meet, as
    when two targets are one variable, are summed.  The result keeps the
    plan's degree, so checking it again costs a lookup."""
    deg, terms = plan
    out: dict[int, int | Fraction] = {}
    get = out.get
    for c, pairs in terms:
        k = deg
        for i, e in pairs:
            k += e * fields[i]
        out[k] = get(k, 0) + c
    if len(out) < len(terms):
        # only keys that met can sum to zero or to an integral Fraction
        out = _canonical(out)
    if _CONFLICTS:
        _check_gradings(out)
    p = _from_clean(out)
    if out:
        p._deg = deg
    return p


_POLY_ZERO = Poly()
_POLY_ONE = Poly.const(1)


def divided_difference(f: Poly, x: GradedVar, y: GradedVar) -> Poly:
    """(f - f[x -> y]) / (x - y), exact.

    Requires deg x = deg y.  Computed termwise through the identity
    (x^k - y^k)/(x - y) = sum_{p+q=k-1} x^p y^q, so no division occurs.
    """
    if x.degree != y.degree:
        raise DegreeMismatch(f"deg {x.name} != deg {y.name}")
    return divided_difference_values(f, x, Poly.variable(x), Poly.variable(y))


def divided_difference_values(f: Poly, z: GradedVar, a: Poly, b: Poly) -> Poly:
    """(f[z -> a] - f[z -> b]) / (a - b) for homogeneous a, b of deg z.

    Exact by construction: writing f = sum_k c_k z^k, the result is
    sum_k c_k * h_(k-1)(a, b), with h_m = sum_{p+q=m} a^p b^q built by
    h_m = a * h_(m-1) + b^m.  Returns 0 when f is free of z.
    """
    for img in (a, b):
        if img and img.homogeneous_degree() != z.degree:
            raise DegreeMismatch("slot image degree mismatch")
    coeffs = f.coefficients_in(z)
    out = geom = _POLY_ZERO
    b_pow = _POLY_ONE
    for k in range(1, max(coeffs, default=0) + 1):
        geom = geom * a + b_pow
        if k in coeffs:
            out = out + coeffs[k] * geom
        b_pow = b_pow * b
    return out


# ---------------------------------------------------------------------------
# Quotient rings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientRing:
    """Q[vars] / <homogeneous ideal_gens>, reduced by a Groebner basis.

    The order of ``vars`` is the term order: weighted degree, then reverse
    lexicographic with ``vars[0]`` the smallest variable (see ``_Basis``).
    An empty ``ideal_gens`` is the free polynomial ring.  ``cutoff`` bounds
    the work, not the answers: the Groebner basis must complete without an
    S-pair or generator past that degree, or every question to the ring
    raises CutoffExceeded; a complete basis answers in every degree.
    """

    vars: tuple[GradedVar, ...]
    ideal_gens: tuple[Poly, ...] = ()
    cutoff: int = 512
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self) -> None:
        names = [v.name for v in self.vars]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in ring")
        known = set(self.vars)
        for g in self.ideal_gens:
            if not g:
                raise ValueError("zero ideal generator")
            if not g.is_homogeneous():
                raise ValueError(f"inhomogeneous ideal generator: {g.render()}")
            if not g.variables() <= known:
                raise ValueError("ideal generator uses a variable not in the ring")

    def __reduce__(self):
        # the cached basis holds packed keys of this process: leave it out
        return QuotientRing, (self.vars, self.ideal_gens, self.cutoff)

    # -- construction helpers -------------------------------------------

    def with_generator(self, g: Poly) -> "QuotientRing":
        return QuotientRing(self.vars, self.ideal_gens + (g,), self.cutoff)

    # -- monomial bases ---------------------------------------------------

    def monomials(self, d: int) -> tuple[Mono, ...]:
        """All monomials of total degree d, graded-lex ordered."""
        return tuple(sorted(map(_unpack, self._basis().keys(d, ())), key=mono_key))

    # -- the Groebner basis kernel -------------------------------------------

    def _basis(self) -> "_Basis":
        """The ring's complete Groebner basis, built on first use;
        CutoffExceeded, on every call, when it does not complete within the
        ring's cutoff.  A refusal is kept as its message, so it is decided
        once too."""
        basis = self._cache.get("basis")
        if basis is None:
            try:
                basis = _Basis(self)
            except CutoffExceeded as exc:
                basis = str(exc)
            self._cache["basis"] = basis
        if isinstance(basis, str):
            raise CutoffExceeded(basis)
        return basis

    def normal_form(self, p: Poly) -> Poly:
        """Canonical representative of p modulo the ideal: its remainder on
        division by the complete Groebner basis, in every degree.

        A monomial with a variable outside the ring passes through
        unchanged, and p itself comes back when no lead divides a term.
        """
        if not p or not self.ideal_gens:
            return p
        basis = self._basis()
        out: dict[int, int | Fraction] = {}
        inside: dict[Exps, int | Fraction] = {}
        for m, c in p._terms.items():
            e = basis.exps(m)
            if e is None:
                out[m] = c
            else:
                inside[e] = c
        # a term no lead divides stays as it is, and a divided one leaves
        rem = basis._reduce(dict(inside))
        if rem == inside:
            return p
        for e, c in rem.items():
            out[basis.mono(e)] = _coeff(c)
        return _from_clean(out)

    def dimension(self, d: int) -> int:
        """dim_Q of the degree-d piece of the quotient."""
        return len(self._basis().standard(d)) if d >= 0 else 0

    def standard_monomials(self, d: int) -> tuple[Mono, ...]:
        """The degree-d monomials that no lead of the Groebner basis
        divides, graded-lex ordered: a basis of the degree-d piece."""
        return tuple(sorted(map(_unpack, self._basis().standard(d)), key=mono_key))

    def dimension_series(self, cutoff: int):
        """Sum_d dim_Q(degree-d piece) q^d for 0 <= d <= cutoff: the
        ``hilbert_series`` expanded to the cutoff, or to the top degree of
        a finite quotient when that is lower.  A negative cutoff raises
        ValueError."""
        _check_cutoff(cutoff)
        basis = self._basis()
        return _expand(basis.numerator(), basis.weights, min(cutoff, basis.top_degree()))

    def hilbert_series(self) -> tuple[QLaurent, tuple[int, ...]]:
        """(N, weights) with sum_d dim_Q(degree-d piece) q^d equal to
        N(q) / prod_w (1 - q^w) in every degree, N the Hilbert numerator of
        the complete basis's leads."""
        basis = self._basis()
        return basis.numerator(), basis.weights

    def render(self) -> str:
        vs = ", ".join(f"{v.name}({v.degree})" for v in self.vars)
        if not self.ideal_gens:
            return f"Q[{vs}]"
        gs = "; ".join(g.render() for g in self.ideal_gens)
        return f"Q[{vs}] / <{gs}>"


# ---------------------------------------------------------------------------
# Positional pivot rows: exact ranks for ``analysis.homology``
# ---------------------------------------------------------------------------


def insert_pivot_row(
    row: dict[int, int | Fraction], pivots: dict[int, dict[int, int | Fraction]]
) -> None:
    """Reduce a positional row (consumed) against the pivots in one
    ascending pass: a pivot's tail holds only positions above it, so no
    step fills a position already passed.  A nonzero remainder becomes the
    pivot at its least position, scaled to 1, stored as its tail with
    canonical coefficients."""
    for p in sorted(pivots):
        c = row.pop(p, None)
        if c is None:
            continue
        for q, t in pivots[p].items():
            s = row.get(q, 0) - c * t
            if s:
                row[q] = s
            else:
                row.pop(q, None)
    if not row:
        return
    piv = min(row)
    inv = _inverse(row.pop(piv))
    pivots[piv] = {q: _coeff(c * inv) for q, c in row.items()}


# ---------------------------------------------------------------------------
# Groebner basis leads and the Hilbert numerator
# ---------------------------------------------------------------------------

# A monomial as its exponents over a ring's variables, in ring order.
Exps = tuple[int, ...]


class _Basis:
    """The homogeneous Groebner basis of a ring's ideal, complete once built.

    The term order is the ring's: weighted degree, then reverse
    lexicographic with ``vars[0]`` the smallest variable.  Of two monomials
    of one degree, the one with the smaller exponent in the first variable
    where they differ is larger, so the larger monomial has the smaller
    exponent tuple.  (``mono_key`` is not a monomial order: y ranks above
    x, yet x*x ranks above x*y.)

    Elements are monic: a lead and a tail {exps: coeff}.  Generators and
    S-pairs wait in one heap by degree, and construction reduces them one
    pending degree at a time against the basis, adding each nonzero
    remainder.  Every pair a new element makes has a higher degree than
    the element, because its lead is divisible by no earlier lead; for the
    same reason the leads stay minimal.  Pairs with coprime leads are never
    queued (Buchberger's first criterion).  The basis is complete once
    nothing waits at or below the exact ``top_degree`` of the quotient by
    the leads; a pending degree past the ring's cutoff before then raises
    CutoffExceeded.  ``standard(d)`` lists the degree-d standard monomials
    as packed keys.
    """

    __slots__ = (
        "weights", "leads", "tails", "_units", "_shifts", "_foreign", "_todo", "_seq",
        "_numerator", "_standard",
    )

    def __init__(self, ring: QuotientRing):
        self.weights = tuple(v.degree for v in ring.vars)
        self.leads: list[Exps] = []
        self.tails: list[dict[Exps, int | Fraction]] = []
        self._units = tuple(map(_unit, ring.vars))
        self._shifts = tuple(u.bit_length() - 1 for u in self._units)
        # every bit of a key outside the degree and the ring's fields
        self._foreign = ~sum(_FIELD << s for s in self._shifts) & ~_FIELD
        self._todo: list[tuple[int, int, object]] = []
        self._seq = 0
        self._numerator: QLaurent | None = None
        self._standard: dict[int, list[int]] = {}
        for g in ring.ideal_gens:
            terms = {self.exps(m): c for m, c in g._terms.items()}
            self._push(g.homogeneous_degree(), terms)
        # a waiting item above the top degree reduces to zero: every
        # monomial there is divisible by a lead
        todo = self._todo
        while todo and todo[0][0] <= self.top_degree():
            d = todo[0][0]
            if d > ring.cutoff:
                raise CutoffExceeded(f"Groebner basis not complete by ring cutoff {ring.cutoff}")
            while todo and todo[0][0] == d:
                item = heapq.heappop(todo)[2]
                rem = self._reduce(self._s_poly(*item) if isinstance(item, tuple) else item)
                if rem:
                    self._add(rem)

    def exps(self, m: int) -> Exps | None:
        """The exponent tuple of a packed key, or None when it has a
        variable outside the ring; ``mono`` is the inverse."""
        if m & self._foreign:
            return None
        return tuple([(m >> s) & _FIELD for s in self._shifts])

    def mono(self, e: Exps) -> int:
        return sum(map(int.__mul__, e, self._units))

    def keys(self, d: int, leads: Sequence[Exps]) -> list[int]:
        """The keys of the degree-d monomials that no one of leads divides.
        Variables take their exponents in ring order, and a prefix that a
        lead divides is cut, as every completion of it is divisible too."""
        out: list[int] = []
        acc = [0] * len(self.weights)

        def walk(i: int, left: int) -> None:
            if any(all(map(int.__ge__, acc, lead)) for lead in leads):
                return
            if i == len(acc):
                if not left:
                    out.append(self.mono(acc))
                return
            w = self.weights[i]
            for e in range(left // w, -1, -1):
                acc[i] = e
                walk(i + 1, left - e * w)
            acc[i] = 0

        walk(0, d)
        return out

    def standard(self, d: int) -> list[int]:
        """``keys`` of the degree-d standard monomials, kept."""
        got = self._standard.get(d)
        if got is None:
            got = self._standard[d] = self.keys(d, self.leads)
        return got

    def _push(self, degree: int, item: object) -> None:
        # the sequence number breaks degree ties, so items never compare
        heapq.heappush(self._todo, (degree, self._seq, item))
        self._seq += 1

    def numerator(self) -> QLaurent:
        """The Hilbert numerator of the leads, kept until a lead is added."""
        if self._numerator is None:
            self._numerator = _hilbert_numerator(self.leads, self.weights)
        return self._numerator

    def top_degree(self) -> int | float:
        """The top degree of the quotient by the leads, exactly: when the
        leads hold a pure power of every variable that quotient is finite,
        its series N(q) / prod_w (1 - q^w) is a polynomial of degree
        deg N - sum_w w, and the zero ring (N = 0) gives -1.  Infinite
        otherwise.  Once the basis is complete this is the ring's top."""
        pure: set[int] = set()
        for m in self.leads:
            support = [i for i, e in enumerate(m) if e]
            if len(support) < 2:
                pure.update(support or range(len(m)))
        if len(pure) < len(self.weights):
            return float("inf")
        numerator = self.numerator()
        return numerator.max_exp() - sum(self.weights) if numerator else -1

    def _add(self, p: dict[Exps, int | Fraction]) -> None:
        lead = min(p)
        inv = _inverse(p.pop(lead))
        k = len(self.leads)
        for i, other in enumerate(self.leads):
            if any(a and b for a, b in zip(lead, other)):
                lcm = tuple(map(max, lead, other))
                self._push(_exps_degree(lcm, self.weights), (i, k))
        self.leads.append(lead)
        self.tails.append({m: _coeff(c * inv) for m, c in p.items()})
        self._numerator = None

    def _s_poly(self, i: int, j: int) -> dict[Exps, int | Fraction]:
        """lcm/lead_i * g_i - lcm/lead_j * g_j; the leads cancel."""
        li, lj = self.leads[i], self.leads[j]
        lcm = tuple(map(max, li, lj))
        out: dict[Exps, int | Fraction] = {}
        for lead, tail, sign in ((li, self.tails[i], 1), (lj, self.tails[j], -1)):
            shift = [a - b for a, b in zip(lcm, lead)]
            for m, c in tail.items():
                m = tuple(map(int.__add__, m, shift))
                out[m] = out.get(m, 0) + sign * c
        return {m: c for m, c in out.items() if c}

    def _reduce(self, p: dict[Exps, int | Fraction]) -> dict[Exps, int | Fraction]:
        """The remainder of p (consumed) on division by the basis: every
        term left is divisible by no lead.  Exponent tuples pop least first,
        which within one degree is the largest monomial first.  A step adds
        only tuples larger than the one it removes, so a popped tuple never
        returns, and p may mix degrees."""
        heap = list(p)
        heapq.heapify(heap)
        rem: dict[Exps, int | Fraction] = {}
        basis = tuple(zip(self.leads, self.tails))
        while heap:
            m = heapq.heappop(heap)
            c = p.pop(m, None)
            if c is None:
                continue  # cancelled, or a second heap entry
            for lead, tail in basis:
                if all(map(int.__ge__, m, lead)):
                    shift = tuple(map(int.__sub__, m, lead))
                    for t, tc in tail.items():
                        mt = tuple(map(int.__add__, shift, t))
                        s = p.get(mt)
                        if s is None:
                            p[mt] = -c * tc
                            heapq.heappush(heap, mt)
                        else:
                            s -= c * tc
                            if s:
                                p[mt] = s
                            else:
                                del p[mt]
                    break
            else:
                rem[m] = c
        return rem


def _exps_degree(m: Exps, weights: Sequence[int]) -> int:
    return sum(map(int.__mul__, m, weights))


def _hilbert_numerator(gens: Sequence[Exps], weights: Sequence[int]) -> QLaurent:
    """N(q) with Hilbert series N(q) / prod_i (1 - q^weights[i]) for the
    quotient by the monomial ideal J = <gens>.

    Bayer-Stillman recursion on a pure power p = x_i^e, with x_i the
    variable in the most minimal generators and e its least positive
    exponent there: N(J) = N(J + <p>) + q^deg p * N(J : p).  J + <p> drops
    every generator containing x_i for p, and J : p lowers each exponent of
    x_i by e, so both are smaller; pairwise coprime generators end it with
    N = prod_g (1 - q^deg g).
    """
    gens = sorted(set(gens))
    gens = [g for g in gens if not any(h != g and all(map(int.__le__, h, g)) for h in gens)]
    counts = [sum(1 for g in gens if g[i]) for i in range(len(weights))]
    if max(counts, default=0) <= 1:
        out = QLaurent.one()
        for g in gens:
            out = out - out.shift(_exps_degree(g, weights))
        return out
    i = counts.index(max(counts))
    e = min(g[i] for g in gens if g[i])
    p = tuple(e if k == i else 0 for k in range(len(weights)))
    colon = [g[:i] + (max(g[i] - e, 0),) + g[i + 1:] for g in gens]
    return _hilbert_numerator([g for g in gens if not g[i]] + [p], weights) + (
        _hilbert_numerator(colon, weights).shift(e * weights[i])
    )
