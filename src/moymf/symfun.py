"""Alphabets of elementary-symmetric variables and their divided differences.

An ``Alphabet`` of color i under label k stands for i virtual roots
t_1,...,t_i; only their elementary symmetric values are materialized, as
variables x_{j,k} of degree 2j (rendered ``x{j}_{k}``).  The central
polynomial is the degree-(2n+2) power sum of the roots, rewritten in the
x-variables through Newton's identities.

Three families of divided differences populate Koszul rows downstream:

* ``L_poly``: one alphabet varying against another, slot by slot;
* ``Lambda_poly``: a merged alphabet varying against the product of two;
* ``V_poly``: the same data with the roles of the slots reversed.

Their defining property, exercised heavily by the tests, is telescoping:
summing row-polynomial times slot-difference over all slots reproduces the
difference of boundary power sums exactly.

The rows of a line piece or a vertex depend on their alphabets only
through their variables, so each shape, that is (family, colors, level),
is compiled once on template alphabets and kept as a plan (``_plan``):
for every slot j the a-entry, the divided difference above, and the
b-entry, the slot difference it telescopes against, each with its degree
and, per term, its coefficient and the template variables it holds.  The
varying alphabet takes the anonymous slots x1..xi of ``generic_slots``,
the others two private template alphabets.  A call applies the plan onto
its own alphabets' variables, packing each key straight from their
fields (``poly_core._apply_plan``), with no polynomial arithmetic; this
is exact for any alphabets, also two that share variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .poly_core import (
    GradedVar,
    Poly,
    _apply_plan,
    _fields,
    _Plan,
    _to_plan,
    divided_difference_values,
)

__all__ = [
    "Alphabet",
    "ColorMismatch",
    "IndexOutOfRange",
    "generic_slots",
    "power_sum_F",
    "power_sum_in",
    "product_term",
    "L_poly",
    "Lambda_poly",
    "V_poly",
]


class ColorMismatch(ValueError):
    """Vertex alphabets whose colors do not add up."""


class IndexOutOfRange(IndexError):
    """Slot index outside 1..color."""


@dataclass(frozen=True, order=True)
class Alphabet:
    """i graded variables x_{1,k}..x_{i,k} with deg x_{j,k} = 2j, and
    their polynomials and packed-key fields, built once as attributes that
    are not fields: only the color and the label are compared, hashed,
    printed and pickled.  ``diagram`` shares one alphabet per (color,
    label) across the process, so these are built once there too."""

    color: int
    label: str

    def __post_init__(self) -> None:
        if self.color < 1:
            raise ValueError(f"alphabet color must be >= 1: {self!r}")
        if not self.label or any(c.isspace() for c in self.label):
            raise ValueError(f"alphabet label must be nonempty, no spaces: {self!r}")
        vs = tuple(GradedVar(f"x{j}_{self.label}", 2 * j) for j in range(1, self.color + 1))
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "_polys", {v: Poly.variable(v) for v in vs})
        object.__setattr__(self, "_fields", _fields(vs))

    def __reduce__(self):
        return Alphabet, (self.color, self.label)

    def var(self, j: int) -> GradedVar:
        if not 1 <= j <= self.color:
            raise IndexOutOfRange(f"slot {j} outside 1..{self.color}")
        return self.vars[j - 1]

    def poly(self, j: int) -> Poly:
        return self._polys[self.var(j)]


@lru_cache(maxsize=None)
def generic_slots(i: int) -> tuple[GradedVar, ...]:
    """Anonymous slot variables x1..xi with deg(xj) = 2j."""
    return tuple(GradedVar(f"x{j}", 2 * j) for j in range(1, i + 1))


@lru_cache(maxsize=None)
def power_sum_F(i: int, n: int) -> Poly:
    """Power sum t_1^(n+1) + ... + t_i^(n+1) in elementary symmetric slots.

    Newton's identities with e_j = 0 for j > i:
    p_m = e_1 p_(m-1) - e_2 p_(m-2) + ... + (-1)^(m-1) m e_m.
    Homogeneous of degree 2n+2 in the slot variables.
    """
    if i < 1 or n < 1:
        raise ValueError("need color >= 1 and level >= 1")
    slots = generic_slots(i)
    e = [Poly.zero()] * (n + 2)
    e[0] = Poly.const(1)
    for j in range(1, min(i, n + 1) + 1):
        e[j] = Poly.variable(slots[j - 1])
    p: list[Poly] = [Poly.zero()] * (n + 2)
    for m in range(1, n + 2):
        acc = Poly.zero()
        for l in range(1, m):
            term = e[l] * p[m - l]
            acc = acc + (term if l % 2 == 1 else -term)
        tail = m * e[m]
        acc = acc + (tail if m % 2 == 1 else -tail)
        p[m] = acc
    return p[n + 1]


def power_sum_in(a: Alphabet, n: int) -> Poly:
    """power_sum_F evaluated on an alphabet's own variables."""
    f = power_sum_F(a.color, n)
    sigma = {s: a.poly(j + 1) for j, s in enumerate(generic_slots(a.color))}
    return f.substitute(sigma)


def product_term(j: int, a: Alphabet, b: Alphabet) -> Poly:
    """Degree-2j term of (1 + x_{1,a} + ...)(1 + x_{1,b} + ...) minus 1.

    Equals sum over a'+b'=j of x_{a',a} x_{b',b} with x_0 = 1 and indices
    past an alphabet's color contributing 0.
    """
    if not 1 <= j <= a.color + b.color:
        raise IndexOutOfRange(f"product term {j} outside 1..{a.color + b.color}")
    acc = Poly.zero()
    for ja in range(0, j + 1):
        jb = j - ja
        if ja > a.color or jb > b.color:
            continue
        fa = Poly.const(1) if ja == 0 else a.poly(ja)
        fb = Poly.const(1) if jb == 0 else b.poly(jb)
        acc = acc + fa * fb
    return acc


def _mixed_divided_difference(
    i: int,
    n: int,
    j: int,
    below: list[Poly],
    varying_hi: Poly,
    varying_lo: Poly,
    above: list[Poly],
) -> Poly:
    """[F(below, hi, above) - F(below, lo, above)] / (hi - lo) in slot j.

    ``below`` fills slots 1..j-1, ``above`` fills slots j+1..i.  Exact by
    construction (geometric-sum expansion), even when hi = lo.
    """
    slots = generic_slots(i)
    f = power_sum_F(i, n)
    sigma: dict[GradedVar, Poly] = {}
    for m, img in enumerate(below, start=1):
        sigma[slots[m - 1]] = img
    for m, img in enumerate(above, start=j + 1):
        sigma[slots[m - 1]] = img
    g = f.substitute(sigma)
    return divided_difference_values(g, slots[j - 1], varying_hi, varying_lo)


# labels of the two template alphabets besides the anonymous slots
_TEMPLATE_LABELS = ("tmpl.a", "tmpl.b")


@lru_cache(maxsize=None)
def _plan(family: str, colors: tuple[int, ...], n: int) -> tuple[tuple[_Plan, _Plan], ...]:
    """Every slot's (a-entry, b-entry) of one shape, each a plan over the
    template variables: the slots x1..xi of the varying alphabet, then
    those of the template alphabets.

    ``L``: colors (i,), src the slots and dst template alphabet 0; b is
    x_j(src) - x_j(dst).  ``Lambda`` and ``V``: colors (color a, color b),
    c the slots and a, b template alphabets 0 and 1; b is x_j(c) -
    product_term_j(a, b) for ``Lambda`` and its negative for ``V``.
    """
    i = sum(colors)
    slots = [Poly.variable(s) for s in generic_slots(i)]
    alpha = [Alphabet(k, label) for k, label in zip(colors, _TEMPLATE_LABELS)]
    tvars = generic_slots(i) + tuple(v for t in alpha for v in t.vars)
    # what slot m of the varying alphabet meets: dst's x_m, or product term m
    if family == "L":
        other = [alpha[0].poly(m) for m in range(1, i + 1)]
    else:
        other = [product_term(m, *alpha) for m in range(1, i + 1)]
    plans = []
    for j in range(1, i + 1):
        if family == "V":
            below, hi, lo, above = slots[: j - 1], other[j - 1], slots[j - 1], other[j:]
        else:
            below, hi, lo, above = other[: j - 1], slots[j - 1], other[j - 1], slots[j:]
        row = _mixed_divided_difference(i, n, j, below, hi, lo, above)
        plans.append((_to_plan(row, tvars), _to_plan(hi - lo, tvars)))
    return tuple(plans)


def _rows(family: str, n: int, *alphabets: Alphabet) -> list[tuple[Poly, Poly]]:
    """Every (a, b) row of one line piece or vertex, slot by slot, from its
    shape's plan: ``L`` takes (src, dst), ``Lambda`` and ``V`` (c, a, b)."""
    colors = tuple(a.color for a in (alphabets[:1] if family == "L" else alphabets[1:]))
    fields = sum((a._fields for a in alphabets), ())
    return [
        (_apply_plan(pa, fields), _apply_plan(pb, fields)) for pa, pb in _plan(family, colors, n)
    ]


def L_poly(j: int, i: int, n: int, src: Alphabet, dst: Alphabet) -> Poly:
    """Line row polynomial: slot j of F_i varying src against dst.

    Slots below j carry dst variables, slots above j carry src variables.
    Telescoping: sum_j L_j * (x_{j,src} - x_{j,dst}) = F(src) - F(dst).
    """
    if src.color != i or dst.color != i:
        raise ColorMismatch(f"line needs both alphabets of color {i}")
    if not 1 <= j <= i:
        raise IndexOutOfRange(f"slot {j} outside 1..{i}")
    return _apply_plan(_plan("L", (i,), n)[j - 1][0], src._fields + dst._fields)


def _check_vertex(a: Alphabet, b: Alphabet, c: Alphabet, j: int) -> None:
    if c.color != a.color + b.color:
        raise ColorMismatch(
            f"vertex colors {a.color}+{b.color} != {c.color} ({c.label})"
        )
    if not 1 <= j <= c.color:
        raise IndexOutOfRange(f"slot {j} outside 1..{c.color}")


def Lambda_poly(j: int, a: Alphabet, b: Alphabet, c: Alphabet, n: int) -> Poly:
    """Merge row polynomial: slot j varying x_{j,c} against product term j.

    Slots below j carry product terms of (a, b), slots above j carry c
    variables.  Telescoping against factors (x_{j,c} - product_term_j)
    yields F(c) - F(a) - F(b).
    """
    _check_vertex(a, b, c, j)
    plan = _plan("Lambda", (a.color, b.color), n)[j - 1][0]
    return _apply_plan(plan, c._fields + a._fields + b._fields)


def V_poly(j: int, a: Alphabet, b: Alphabet, c: Alphabet, n: int) -> Poly:
    """Split row polynomial: the slot roles of Lambda_poly reversed.

    Slots below j carry c variables, slots above j carry product terms.
    Telescoping against factors (product_term_j - x_{j,c}) yields
    F(a) + F(b) - F(c).
    """
    _check_vertex(a, b, c, j)
    plan = _plan("V", (a.color, b.color), n)[j - 1][0]
    return _apply_plan(plan, c._fields + a._fields + b._fields)
