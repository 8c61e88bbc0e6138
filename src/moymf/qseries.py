"""Integer Laurent polynomials in one variable q, plus quantum combinatorics.

Everything downstream that counts graded dimensions or states a decomposition
multiplicity lands in this module's ``QLaurent`` type: a finite map from
integer exponents to integer coefficients.  Truncated power series (Poincare
series of infinite-dimensional rings) are represented by the same type
together with an explicit cutoff chosen by the caller.

The quantum binomials here are the *balanced* ones, symmetric under
q -> 1/q: qbinomial(n, i) has lowest term q^(-i(n-i)) and value C(n, i)
at q = 1.  ``qbinomial`` is the one evaluation of the Gaussian product:
the quantum integers ([m] = [m 1]), ``p_coeff`` and ``jacobi_series``
read its values.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

__all__ = [
    "QLaurent",
    "qbinomial",
    "quantum_integer",
    "p_coeff",
    "jacobi_series",
    "poincare_regular_quotient",
    "poly_factor",
    "cor_square_sides",
]


class QLaurent:
    """Finite Z-linear combination of integer powers of q.  The public
    constructor validates: an exponent or coefficient that is not an ``int``
    raises TypeError.  Results built from QLaurents go through ``_of``."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self._c: dict[int, int] = {}
        if coeffs:
            for k, v in coeffs.items():
                if not (isinstance(k, int) and isinstance(v, int)):
                    raise TypeError(f"QLaurent needs int exponents and coefficients: {k!r}: {v!r}")
                if v:
                    self._c[int(k)] = int(v)

    @staticmethod
    def _of(c: dict[int, int]) -> "QLaurent":
        """The series on c, int exponents to nonzero ints, taken as it is."""
        r = QLaurent.__new__(QLaurent)
        r._c = c
        return r

    @staticmethod
    def zero() -> "QLaurent":
        return QLaurent._of({})

    @staticmethod
    def one() -> "QLaurent":
        return QLaurent._of({0: 1})

    @staticmethod
    def q_power(k: int, coeff: int = 1) -> "QLaurent":
        return QLaurent({k: coeff})

    @property
    def coeffs(self) -> Mapping[int, int]:
        """A read-only view: ``qbinomial`` hands out its cached values."""
        return MappingProxyType(self._c)

    def coeff(self, k: int) -> int:
        return self._c.get(k, 0)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero series has no exponents")
        return min(self._c)

    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero series has no exponents")
        return max(self._c)

    def __neg__(self) -> "QLaurent":
        return QLaurent._of({k: -v for k, v in self._c.items()})

    def __add__(self, other: "QLaurent") -> "QLaurent":
        if not isinstance(other, QLaurent):
            return NotImplemented
        out = dict(self._c)
        for k, v in other._c.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                del out[k]
        return QLaurent._of(out)

    def __sub__(self, other: "QLaurent") -> "QLaurent":
        if not isinstance(other, QLaurent):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "QLaurent | int") -> "QLaurent":
        if isinstance(other, int):
            return QLaurent({k: v * other for k, v in self._c.items()})
        if not isinstance(other, QLaurent):
            return NotImplemented
        out: dict[int, int] = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2
                s = out.get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    del out[k]
        return QLaurent._of(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "QLaurent":
        """Multiply by q^k."""
        if not isinstance(k, int):
            raise TypeError(f"QLaurent needs an int shift: {k!r}")
        return QLaurent._of({e + k: v for e, v in self._c.items()})

    def _times_one_minus(self, d: int) -> "QLaurent":
        """self * (1 - q^d), d an int, in one pass."""
        out = dict(self._c)
        for e, v in self._c.items():
            s = out.pop(e + d, 0) - v
            if s:
                out[e + d] = s
        return QLaurent._of(out)

    def truncate(self, hi: int) -> "QLaurent":
        """Drop terms with exponent > hi (series work at a cutoff)."""
        return QLaurent._of({k: v for k, v in self._c.items() if k <= hi})

    def reverse(self) -> "QLaurent":
        """q -> 1/q."""
        return QLaurent._of({-k: v for k, v in self._c.items()})

    def at_one(self) -> int:
        """Evaluation at q = 1 (sum of coefficients)."""
        return sum(self._c.values())

    def render(self) -> str:
        """Canonical ascending form: e.g. ``q^-3 + 2*q^-1 + 2*q + q^3``."""
        if not self._c:
            return "0"
        parts: list[str] = []
        for k in sorted(self._c):
            v = self._c[k]
            mag = abs(v)
            if k == 0:
                frag = str(mag)
            else:
                body = "q" if k == 1 else f"q^{k}"
                frag = body if mag == 1 else f"{mag}*{body}"
            if not parts:
                parts.append(frag if v > 0 else f"-{frag}")
            else:
                parts.append(f"+ {frag}" if v > 0 else f"- {frag}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"QLaurent({self.render()})"


def poly_factor(exponents: Iterable[int]) -> QLaurent:
    """Sum of q^e over the given exponents (with multiplicity)."""
    out: dict[int, int] = {}
    for e in exponents:
        out[e] = out.get(e, 0) + 1
    return QLaurent(out)


def _expand(num: QLaurent, weights: Iterable[int], hi: int) -> QLaurent:
    """The rational series num / prod_w (1 - q^w), weights positive,
    expanded through exponent hi."""
    lo = num.min_exp() if num else 0
    coeffs = [0] * max(hi - lo + 1, 0)
    for e, c in num.coeffs.items():
        if e <= hi:
            coeffs[e - lo] += c
    for w in weights:
        for k in range(w, len(coeffs)):
            coeffs[k] += coeffs[k - w]
    return QLaurent._of({lo + k: c for k, c in enumerate(coeffs) if c})


def quantum_integer(m: int) -> QLaurent:
    """[m] = q^(1-m) + q^(3-m) + ... + q^(m-1), read as ``qbinomial(m, 1)``;
    zero for m <= 0."""
    return qbinomial(m, 1)


@lru_cache(maxsize=None)
def qbinomial(n: int, i: int) -> QLaurent:
    """Balanced quantum binomial; zero when i < 0 or i > n or n < 0.

    The product [n i] = q^(-i(n-i)) prod_(k=1..i) (1 - q^(2(n-i+k))) /
    (1 - q^(2k)), taken in t = q^2 on a dense list of integer coefficients,
    one factor of each at a time.  After k factors the list is the
    Gaussian binomial [n-i+k k] in t, a polynomial, so each division is
    exact.  Only the answer is cached."""
    if i < 0 or n < 0 or i > n:
        return QLaurent.zero()
    i = min(i, n - i)
    c = [1]
    for k in range(1, i + 1):
        m = n - i + k
        c += [0] * m
        for e in range(len(c) - 1, m - 1, -1):  # times 1 - t^m
            c[e] -= c[e - m]
        for e in range(k, len(c)):  # over 1 - t^k
            c[e] += c[e - k]
        if any(c[-k:]):
            raise ArithmeticError(f"inexact division in [{n} {i}]")
        del c[-k:]
    lo = -i * (n - i)
    return QLaurent._of({lo + 2 * e: v for e, v in enumerate(c)})


def p_coeff(j: int, n1: int, n2: int) -> int:
    """Number of partitions of j inside an n2 x (n1 - n2) box.

    Read off as a coefficient of the balanced binomial, whose exponent
    ladder is -n2*(n1 - n2) + 2*j for j = 0, 1, ...
    """
    if j < 0:
        return 0
    return qbinomial(n1, n2).coeff(-n2 * (n1 - n2) + 2 * j)


def jacobi_series(n: int, r: int) -> QLaurent:
    """prod_{k<=n}(1-q^2k) / [prod_{k<=r}(1-q^2k) * prod_{k<=n-r}(1-q^2k)]:
    the Gaussian binomial in q^2, that is ``qbinomial(n, r)`` recentred to
    start at q^0.  Raises ValueError unless 0 <= r <= n."""
    if r < 0 or r > n:
        raise ValueError("need 0 <= r <= n")
    return qbinomial(n, r).shift(r * (n - r))


def poincare_regular_quotient(
    var_degrees: Iterable[int], gen_degrees: Iterable[int], cutoff: int
) -> QLaurent:
    """Poincare series of Q[vars]/<regular sequence>, truncated at cutoff.

    prod_g (1 - q^deg(g)) / prod_v (1 - q^deg(v)); exactness of that formula
    is precisely the regularity of the sequence.  A variable degree below 1
    or a negative generator degree raises ValueError.
    """
    var_degrees = list(var_degrees)
    if min(var_degrees, default=1) < 1:
        raise ValueError("geometric step must be positive")
    num = QLaurent.one()
    for d in gen_degrees:
        if d < 0:
            raise ValueError(f"generator degree must be >= 0, got {d}")
        num = num._times_one_minus(d)
    return _expand(num, var_degrees, cutoff)


def cor_square_sides(j1: int, j2: int) -> tuple[QLaurent, QLaurent]:
    """Both sides of the square-count identity
    [j1-1]*[j1-1 ch j2-1] - [j2-1]*[j1 ch j2] = [j1-1 ch j2],
    for callers that want to compare or display them."""
    lhs = quantum_integer(j1 - 1) * qbinomial(j1 - 1, j2 - 1) - quantum_integer(
        j2 - 1
    ) * qbinomial(j1, j2)
    rhs = qbinomial(j1 - 1, j2)
    return lhs, rhs
