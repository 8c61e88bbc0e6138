"""Two-periodic graded matrix factorizations and the Koszul presentation.

A ``MatrixFactorization`` is (M0, M1, d0, d1) over a (possibly quotient)
graded ring, with d1*d0 = d0*d1 = potential * Id.  A ``KoszulMF`` is the
compact row form: a list of pairs (a_m; b_m) whose expansion is the tensor
product of the rank-1 factorizations (base, base{(deg b_m - deg a_m)/2},
a_m, b_m), together with a global grading shift and a Z/2 translation bit.

Factorizations are built and transformed only as rows: ``join`` is the
tensor product, ``translated`` and ``grade_shifted`` the two shifts, and a
row-free presentation the tensor unit.  ``koszul_expand`` writes the
explicit matrices down in closed form, one generator per row subset.

Matrices are sparse maps (row, col) -> Poly; Koszul differentials have only
O(rows) entries per line, so products stay cheap even at rank 2^r.  The
``potential_degree`` is tracked explicitly rather than inferred from the
potential: closed-diagram objects have potential 0 but their differentials
still carry a definite homogeneous map degree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .poly_core import GradedVar, Poly, QuotientRing, _check_cutoff, _sum
from .qseries import QLaurent, _expand, poly_factor

__all__ = [
    "SparseMat",
    "GradedFreeModule",
    "MatrixFactorization",
    "KoszulMF",
    "IncompatibleBases",
    "InhomogeneousRow",
    "merge_bases",
    "koszul_expand",
    "validate",
]


class IncompatibleBases(ValueError):
    """Shared variable names with different degrees, or unmergeable rings."""


class InhomogeneousRow(ValueError):
    """A Koszul row entry is inhomogeneous or degree-inconsistent."""


# ---------------------------------------------------------------------------
# Sparse matrices over Poly
# ---------------------------------------------------------------------------


class SparseMat:
    """Immutable sparse matrix of polynomials; zero entries are absent."""

    __slots__ = ("nrows", "ncols", "_e")

    def __init__(
        self, nrows: int, ncols: int, entries: Mapping[tuple[int, int], Poly] | None = None
    ):
        self.nrows = nrows
        self.ncols = ncols
        clean: dict[tuple[int, int], Poly] = {}
        if entries:
            for (i, j), p in entries.items():
                if not 0 <= i < nrows or not 0 <= j < ncols:
                    raise IndexError(f"entry ({i},{j}) outside {nrows}x{ncols}")
                if p:
                    clean[(i, j)] = p
        self._e = clean

    @property
    def entries(self) -> Mapping[tuple[int, int], Poly]:
        return self._e

    def entry(self, i: int, j: int) -> Poly:
        return self._e.get((i, j), Poly.zero())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparseMat):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._e == other._e
        )

    def mul(self, other: "SparseMat", base: QuotientRing | None = None) -> "SparseMat":
        """Matrix product; entries reduced in ``base`` when given."""
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        by_row: dict[int, list[tuple[int, Poly]]] = {}
        for (k, j), p in other._e.items():
            by_row.setdefault(k, []).append((j, p))
        acc: dict[tuple[int, int], Poly] = {}
        for (i, k), p in self._e.items():
            for j, q in by_row.get(k, ()):
                key = (i, j)
                acc[key] = acc.get(key, Poly.zero()) + p * q
        if base is not None:
            acc = {k: base.normal_form(p) for k, p in acc.items()}
        return SparseMat(self.nrows, other.ncols, acc)


# ---------------------------------------------------------------------------
# Modules and matrix factorizations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedFreeModule:
    """Free module with one generator per entry of generator_shifts; the
    j-th generator sits in internal degree generator_shifts[j]."""

    base: QuotientRing
    generator_shifts: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.generator_shifts)


@dataclass(frozen=True)
class MatrixFactorization:
    """(m0, m1, d0: m0->m1, d1: m1->m0) with d1 d0 = d0 d1 = potential*Id."""

    m0: GradedFreeModule
    m1: GradedFreeModule
    d0: SparseMat
    d1: SparseMat
    potential: Poly
    potential_degree: int

    def __post_init__(self) -> None:
        if self.m0.base is not self.m1.base and self.m0.base != self.m1.base:
            raise IncompatibleBases("m0 and m1 over different bases")
        if self.d0.nrows != self.m1.rank or self.d0.ncols != self.m0.rank:
            raise ValueError("d0 shape does not match module ranks")
        if self.d1.nrows != self.m0.rank or self.d1.ncols != self.m1.rank:
            raise ValueError("d1 shape does not match module ranks")
        if self.potential_degree % 2 != 0:
            raise ValueError("potential degree must be even")

    @property
    def base(self) -> QuotientRing:
        return self.m0.base

    @property
    def map_degree(self) -> int:
        return self.potential_degree // 2

    def graded_series(self, cutoff: int) -> tuple[QLaurent, QLaurent]:
        """(even, odd) graded dimensions through degree cutoff: each
        module's generator degrees times the base's Hilbert series.  A
        negative cutoff raises ValueError."""
        _check_cutoff(cutoff)
        num, weights = self.base.hilbert_series()
        even, odd = (poly_factor(m.generator_shifts) * num for m in (self.m0, self.m1))
        return _expand(even, weights, cutoff), _expand(odd, weights, cutoff)

    def as_dict(self) -> dict:
        return {
            "base": self.base.render(),
            "rank0": self.m0.rank,
            "rank1": self.m1.rank,
            "shifts0": list(self.m0.generator_shifts),
            "shifts1": list(self.m1.generator_shifts),
            "d0": {f"{i},{j}": p.render() for (i, j), p in sorted(self.d0.entries.items())},
            "d1": {f"{i},{j}": p.render() for (i, j), p in sorted(self.d1.entries.items())},
            "potential": self.potential.render(),
            "potential_degree": self.potential_degree,
        }


def merge_bases(b1: QuotientRing, b2: QuotientRing) -> QuotientRing:
    """Union of variables and ideal generators; shared names must agree.
    b1's variables come first in b1's order, then b2's new ones in theirs.
    Equal rings merge to b1 itself, so its Groebner basis is shared."""
    if b1 == b2:
        return b1
    by_name: dict[str, GradedVar] = {v.name: v for v in b1.vars}
    for v in b2.vars:
        old = by_name.get(v.name)
        if old is not None and old.degree != v.degree:
            raise IncompatibleBases(
                f"variable {v.name} has degrees {old.degree} and {v.degree}"
            )
    vars_ = b1.vars + tuple(v for v in b2.vars if v.name not in by_name)
    gens: list[Poly] = list(b1.ideal_gens)
    for g in b2.ideal_gens:
        if g not in gens:
            gens.append(g)
    return QuotientRing(vars_, tuple(gens))


def validate(x: MatrixFactorization) -> list[str]:
    """Check the defining identities; returns violations, never raises.

    Checks: d1 d0 = potential*Id, d0 d1 = potential*Id (entries compared
    modulo the base ideal); homogeneity of every entry at map degree;
    homogeneity of the potential itself.
    """
    out: list[str] = []
    base = x.base
    w = base.normal_form(x.potential)
    if x.potential and not x.potential.is_homogeneous():
        out.append("potential is inhomogeneous")
    elif w and w.homogeneous_degree() != x.potential_degree:
        out.append(
            f"potential degree {w.homogeneous_degree()} != declared {x.potential_degree}"
        )

    for name, prod, rank in (
        ("d1*d0", x.d1.mul(x.d0, base), x.m0.rank),
        ("d0*d1", x.d0.mul(x.d1, base), x.m1.rank),
    ):
        seen = set()
        for (i, j), p in prod.entries.items():
            seen.add((i, j))
            want = w if i == j else Poly.zero()
            if base.normal_form(p - want):
                out.append(f"{name}[{i},{j}] = {p.render()}, expected {want.render()}")
        if w:
            for i in range(rank):
                if (i, i) not in seen:
                    out.append(f"{name}[{i},{i}] = 0, expected {w.render()}")

    delta = x.map_degree
    for name, mat, src, dst in (
        ("d0", x.d0, x.m0, x.m1),
        ("d1", x.d1, x.m1, x.m0),
    ):
        for (i, j), p in mat.entries.items():
            if not p.is_homogeneous():
                out.append(f"{name}[{i},{j}] inhomogeneous: {p.render()}")
                continue
            want = delta + src.generator_shifts[j] - dst.generator_shifts[i]
            if p.homogeneous_degree() != want:
                out.append(
                    f"{name}[{i},{j}] degree {p.homogeneous_degree()}, expected {want}"
                )
    return out


# ---------------------------------------------------------------------------
# Koszul presentation
# ---------------------------------------------------------------------------


class Row(tuple):
    """A Koszul row (a, b), a tuple in every way, that keeps its
    ``product`` a * b, once computed, for as long as it lives."""

    @property
    def product(self) -> Poly:
        if "product" not in self.__dict__:
            self.__dict__["product"] = self[0] * self[1]
        return self.__dict__["product"]

    def __reduce__(self):
        # a copy keeps nothing: it recomputes its product
        return Row, (tuple(self),)


@dataclass(frozen=True)
class KoszulMF:
    """Row presentation K(a; b) with global shifts applied after expansion.

    Each row is a ``Row``; one given is kept as that very object, so an
    instance built by ``with_rows``, ``replace`` or ``join`` reuses the
    products of the rows it shares.  The potential is computed once per
    instance, on the first ``potential()`` call.  A builder that has proved
    the potential may attach it as ``_proved_potential`` (``compile_diagram``
    attaches the diagram's ``boundary_potential``), for ``_known_potential``
    to read.  None of these is a field, so
    equality, hashing, ``repr`` and ``as_dict`` do not see them.  Every
    construction checks each row's degrees against the potential degree;
    each ``Poly`` keeps its own degree, so a carried row's check is a
    lookup.
    """

    base: QuotientRing
    rows: tuple[tuple[Poly, Poly], ...]
    global_grading_shift: int
    z2_shift: int
    potential_degree: int

    def __post_init__(self) -> None:
        if self.z2_shift not in (0, 1):
            raise ValueError("z2_shift must be 0 or 1")
        rows = tuple(r if type(r) is Row else Row(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        pot_deg = self.potential_degree
        if pot_deg < 0 or pot_deg % 2:
            raise ValueError(f"bad potential degree {pot_deg}")
        for m, (a, b) in enumerate(rows):
            # a nonzero side's degree, -1 when inhomogeneous; kept by the Poly
            da = a._homogeneous_degree() if a else None
            db = b._homogeneous_degree() if b else None
            for side, d in (("a", da), ("b", db)):
                if d is not None and d < 0:
                    raise InhomogeneousRow(f"row {m} side {side} inhomogeneous")
            if da is None and db is None:
                raise InhomogeneousRow(f"row {m} is (0; 0): degrees undefined")
            if da is not None and db is not None and da + db != pot_deg:
                raise InhomogeneousRow(
                    f"row {m} has potential degree {da + db}, expected {pot_deg}"
                )

    # -- degrees ---------------------------------------------------------

    def row_degrees(self, m: int) -> tuple[int, int]:
        """(deg a_m, deg b_m), inferring the degree of a zero side."""
        a, b = self.rows[m]
        if a and b:
            return a.homogeneous_degree(), b.homogeneous_degree()
        if a:
            da = a.homogeneous_degree()
            return da, self.potential_degree - da
        db = b.homogeneous_degree()
        return self.potential_degree - db, db

    def row_shift(self, m: int) -> int:
        """(deg b_m - deg a_m)/2, an integer: the two degrees sum to the
        even potential degree."""
        da, db = self.row_degrees(m)
        return (db - da) // 2

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def potential(self) -> Poly:
        """Sum of a_m * b_m over the rows, in normal form in the base, on
        every instance, a compiled one included: a proved potential never
        stands in for it.

        Kept on the instance after the first call.  Each row keeps its
        product (see ``Row``); the sum and its normal form are taken per instance.
        """
        pot = self.__dict__.get("_potential")
        if pot is None:
            pot = self.base.normal_form(_sum(row.product for row in self.rows))
            object.__setattr__(self, "_potential", pot)
        return pot

    def _known_potential(self) -> Poly:
        """The potential without multiplying a row when it is known: the row
        sum once ``potential`` has taken it, else the attached
        ``_proved_potential`` (a compiled diagram's boundary potential),
        else the row sum, taken now."""
        known = self.__dict__
        pot = known.get("_potential", known.get("_proved_potential"))
        return self.potential() if pot is None else pot

    # -- functors ----------------------------------------------------------

    def grade_shifted(self, n: int) -> "KoszulMF":
        return self.regraded(n, 0)

    def translated(self, k: int = 1) -> "KoszulMF":
        return self.regraded(0, k)

    def regraded(
        self,
        n: int,
        k: int,
        rows: Sequence[tuple[Poly, Poly]] | None = None,
        base: QuotientRing | None = None,
    ) -> "KoszulMF":
        """Grading shifted by n and parity by k, with new rows and a new
        base when given, in one instance: the one statement of both shift
        rules."""
        return replace(
            self,
            base=self.base if base is None else base,
            rows=self.rows if rows is None else tuple(rows),
            global_grading_shift=self.global_grading_shift + n,
            z2_shift=(self.z2_shift + k) % 2,
        )

    def with_rows(
        self, rows: Sequence[tuple[Poly, Poly]], base: QuotientRing | None = None
    ) -> "KoszulMF":
        """The same presentation with new rows, and a new base when given;
        a row passed on as the same ``Row`` object keeps its product."""
        return self.regraded(0, 0, rows, base)

    def join(self, other: "KoszulMF") -> "KoszulMF":
        """Tensor product in row form: concatenate rows, add shifts."""
        if self.potential_degree != other.potential_degree:
            raise ValueError("potential degrees differ in join")
        return KoszulMF(
            merge_bases(self.base, other.base),
            self.rows + other.rows,
            self.global_grading_shift + other.global_grading_shift,
            (self.z2_shift + other.z2_shift) % 2,
            self.potential_degree,
        )

    # -- series and expansion ---------------------------------------------

    def _generators(self) -> tuple[QLaurent, QLaurent]:
        """(even, odd) generator degrees of the expansion as polynomials in q:
        row subset S has parity |S| and the sum of its row shifts as degree."""
        even, odd = QLaurent.one(), QLaurent.zero()
        for m in range(self.row_count):
            h = QLaurent.q_power(self.row_shift(m))
            even, odd = even + odd * h, odd + even * h
        if self.z2_shift:
            even, odd = odd, even
        g = self.global_grading_shift
        return even.shift(g), odd.shift(g)

    def _series(self) -> tuple[QLaurent, QLaurent, tuple[int, ...]]:
        """(even, odd, weights): the exact series of the expansion, the
        generator degrees times the base's Hilbert numerator, each over
        prod_w (1 - q^w)."""
        num, weights = self.base.hilbert_series()
        even, odd = self._generators()
        return even * num, odd * num, weights

    def graded_series(self, cutoff: int) -> tuple[QLaurent, QLaurent]:
        """(even, odd) graded dimensions through degree cutoff, without
        expanding matrices.  A negative cutoff raises ValueError."""
        _check_cutoff(cutoff)
        even, odd, weights = self._series()
        return _expand(even, weights, cutoff), _expand(odd, weights, cutoff)

    def expand(self) -> MatrixFactorization:
        return koszul_expand(self)

    def as_dict(self) -> dict:
        return {
            "base": self.base.render(),
            "rows": [{"a": a.render(), "b": b.render()} for a, b in self.rows],
            "grading_shift": self.global_grading_shift,
            "z2_shift": self.z2_shift,
            "potential": self.potential().render(),
            "potential_degree": self.potential_degree,
        }


def koszul_expand(k: KoszulMF) -> MatrixFactorization:
    """Expand the row presentation to explicit matrices, in closed form.

    A generator is a row subset S, held as a bitmask.  It lies in m0 when
    |S| + z2_shift is even, else in m1, at position S >> 1 there; its
    degree is the global shift plus row_shift(m) summed over m in S.  Row
    m maps S without m to S + m by a_m and S with m to S - m by b_m, with
    sign (-1)^(rows of S below m, plus z2_shift).  Rank is 2^(r-1) per
    Z/2 component for r >= 1 rows.
    """
    z = k.z2_shift
    degrees = [k.global_grading_shift]
    for m in range(k.row_count):
        h = k.row_shift(m)
        degrees += [d + h for d in degrees]
    parity = [(s.bit_count() + z) % 2 for s in range(len(degrees))]
    m0, m1 = (
        GradedFreeModule(k.base, tuple(d for d, p in zip(degrees, parity) if p == side))
        for side in (0, 1)
    )
    entries: tuple[dict[tuple[int, int], Poly], ...] = ({}, {})
    for m, (a, b) in enumerate(k.rows):
        bit = 1 << m
        signed = ((a, -a), (b, -b))
        for s, p in enumerate(parity):
            entry = signed[s >> m & 1][((s & (bit - 1)).bit_count() + z) % 2]
            if entry:
                entries[p][((s ^ bit) >> 1, s >> 1)] = entry
    return MatrixFactorization(
        m0,
        m1,
        SparseMat(m1.rank, m0.rank, entries[0]),
        SparseMat(m0.rank, m1.rank, entries[1]),
        k.potential(),
        k.potential_degree,
    )
