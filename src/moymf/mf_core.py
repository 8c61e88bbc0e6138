"""Two-periodic graded matrix factorizations and the Koszul presentation.

A ``MatrixFactorization`` is (M0, M1, d0, d1) over a (possibly quotient)
graded ring, with d1*d0 = d0*d1 = potential * Id.  A ``KoszulMF`` is the
compact row form: a list of pairs (a_m; b_m) whose expansion is the tensor
product of the rank-1 factorizations (base, base{(deg b_m - deg a_m)/2},
a_m, b_m), together with a global grading shift and a Z/2 translation bit.

Matrices are sparse maps (row, col) -> Poly; Koszul differentials have only
O(rows) entries per line, so products stay cheap even at rank 2^r.  The
``potential_degree`` is tracked explicitly rather than inferred from the
potential: closed-diagram objects have potential 0 but their differentials
still carry a definite homogeneous map degree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Mapping, Sequence

from .poly_core import GradedVar, Poly, QuotientRing, _check_cutoff, _sum
from .qseries import QLaurent, poly_factor

__all__ = [
    "SparseMat",
    "GradedFreeModule",
    "MatrixFactorization",
    "KoszulMF",
    "IncompatibleBases",
    "InhomogeneousRow",
    "merge_bases",
    "koszul_expand",
    "tensor",
    "translate",
    "grade_shift",
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

    def __neg__(self) -> "SparseMat":
        return SparseMat(self.nrows, self.ncols, {k: -p for k, p in self._e.items()})

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

    def shifted(self, n: int) -> "GradedFreeModule":
        return GradedFreeModule(self.base, tuple(s + n for s in self.generator_shifts))


def _free_series(
    base: QuotientRing, shifts: Sequence[QLaurent], cutoff: int
) -> tuple[QLaurent, ...]:
    """Graded dimensions through degree cutoff of free modules over base,
    one per generator-shift polynomial.  The base series is computed once,
    through the degree the lowest generator of any module needs.  A
    negative cutoff raises ValueError."""
    _check_cutoff(cutoff)
    low = min((s.min_exp() for s in shifts if s), default=0)
    series = base.dimension_series(max(cutoff - low, 0))
    return tuple((s * series).truncate(cutoff) for s in shifts)


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
        shifts = (self.m0.generator_shifts, self.m1.generator_shifts)
        return _free_series(self.base, tuple(map(poly_factor, shifts)), cutoff)

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
    return QuotientRing(vars_, tuple(gens), max(b1.cutoff, b2.cutoff))


def tensor(x: MatrixFactorization, y: MatrixFactorization) -> MatrixFactorization:
    """Tensor product over the shared-variable subring.

    New even part (M0 N0) + (M1 N1), odd part (M1 N0) + (M0 N1);
    d0 = [[dx0 (x) 1, -1 (x) dy1], [1 (x) dy0, dx1 (x) 1]],
    d1 = [[dx1 (x) 1,  1 (x) dy1], [-1 (x) dy0, dx0 (x) 1]].
    Potentials add.
    """
    if x.potential_degree != y.potential_degree:
        raise ValueError(
            f"potential degrees differ: {x.potential_degree} vs {y.potential_degree}"
        )
    base = merge_bases(x.base, y.base)

    def module(xm: GradedFreeModule, ym: GradedFreeModule) -> tuple[int, ...]:
        return tuple(s + t for s in xm.generator_shifts for t in ym.generator_shifts)

    s00 = module(x.m0, y.m0)
    s11 = module(x.m1, y.m1)
    s10 = module(x.m1, y.m0)
    s01 = module(x.m0, y.m1)
    m0 = GradedFreeModule(base, s00 + s11)
    m1 = GradedFreeModule(base, s10 + s01)

    r_y0, r_y1 = y.m0.rank, y.m1.rank

    def place(
        acc: dict[tuple[int, int], Poly],
        mat: SparseMat,
        on_left: bool,
        rank_pair: int,
        row_off: int,
        col_off: int,
        sign: int,
    ) -> None:
        # on_left: mat acts on the x factor, identity on y (rank_pair = y-rank)
        # else: identity on x (rank_pair = x-rank), mat acts on the y factor
        for (i, j), p in mat.entries.items():
            q = p if sign > 0 else -p
            if on_left:
                for k in range(rank_pair):
                    acc[(row_off + i * rank_pair + k, col_off + j * rank_pair + k)] = q
            else:
                for k in range(rank_pair):
                    acc[(row_off + k * mat.nrows + i, col_off + k * mat.ncols + j)] = q

    d0e: dict[tuple[int, int], Poly] = {}
    place(d0e, x.d0, True, r_y0, 0, 0, +1)                    # M0N0 -> M1N0
    place(d0e, y.d1, False, x.m1.rank, 0, len(s00), -1)       # M1N1 -> M1N0
    place(d0e, y.d0, False, x.m0.rank, len(s10), 0, +1)       # M0N0 -> M0N1
    place(d0e, x.d1, True, r_y1, len(s10), len(s00), +1)      # M1N1 -> M0N1
    d0 = SparseMat(m1.rank, m0.rank, d0e)

    d1e: dict[tuple[int, int], Poly] = {}
    place(d1e, x.d1, True, r_y0, 0, 0, +1)                    # M1N0 -> M0N0
    place(d1e, y.d1, False, x.m0.rank, 0, len(s10), +1)       # M0N1 -> M0N0
    place(d1e, y.d0, False, x.m1.rank, len(s00), 0, -1)       # M1N0 -> M1N1
    place(d1e, x.d0, True, r_y1, len(s00), len(s10), +1)      # M0N1 -> M1N1
    d1 = SparseMat(m0.rank, m1.rank, d1e)

    return MatrixFactorization(
        m0, m1, d0, d1, x.potential + y.potential, x.potential_degree
    )


def translate(x: MatrixFactorization) -> MatrixFactorization:
    """Z/2 translation: (M1, M0, -d1, -d0).  Applying twice is the identity."""
    return MatrixFactorization(
        x.m1, x.m0, -x.d1, -x.d0, x.potential, x.potential_degree
    )


def grade_shift(x: MatrixFactorization, n: int) -> MatrixFactorization:
    """Offset every generator degree by n; differentials untouched."""
    if n == 0:
        return x
    return MatrixFactorization(
        x.m0.shifted(n), x.m1.shifted(n), x.d0, x.d1, x.potential, x.potential_degree
    )


def unit_object(base: QuotientRing, potential_degree: int) -> MatrixFactorization:
    """(base -> 0 -> base): the tensor unit, potential 0."""
    return MatrixFactorization(
        GradedFreeModule(base, (0,)),
        GradedFreeModule(base, ()),
        SparseMat(0, 1),
        SparseMat(1, 0),
        Poly.zero(),
        potential_degree,
    )


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
    """A Koszul row (a, b), a tuple in every way, that keeps its ``product``
    a * b and what ``memo`` computes for as long as it lives."""

    @cached_property
    def product(self) -> Poly:
        return self[0] * self[1]

    def memo(self, key: object, compute):
        """compute(), once per key; the key names every other input."""
        kept = self.__dict__.setdefault("memos", {})
        if key not in kept:
            kept[key] = compute()
        return kept[key]

    def __reduce__(self):
        # a copy keeps nothing: memo keys may hold this process's field masks
        return Row, (tuple(self),)


@dataclass(frozen=True)
class KoszulMF:
    """Row presentation K(a; b) with global shifts applied after expansion.

    Each row is a ``Row``; one given is kept as that very object, so an
    instance built by ``with_rows``, ``replace`` or ``join`` reuses what
    the rows it shares have kept.  The potential is computed once per
    instance, on the first ``potential()`` call.  Neither is a field, so
    equality, hashing, ``repr`` and ``as_dict`` do not see them.
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
        da, db = self.row_degrees(m)
        if (db - da) % 2:
            raise InhomogeneousRow(f"row {m} has odd degree gap")
        return (db - da) // 2

    @property
    def row_count(self) -> int:
        return len(self.rows)

    def potential(self) -> Poly:
        """Sum of a_m * b_m over the rows, in normal form in the base.

        Kept on the instance after the first call.  Each row's product is
        computed once (see ``Row``); the sum and its normal form are not.
        """
        pot = self.__dict__.get("_potential")
        if pot is None:
            pot = self.base.normal_form(_sum(row.product for row in self.rows))
            object.__setattr__(self, "_potential", pot)
        return pot

    # -- functors ----------------------------------------------------------

    def grade_shifted(self, n: int) -> "KoszulMF":
        return replace(self, global_grading_shift=self.global_grading_shift + n)

    def translated(self, k: int = 1) -> "KoszulMF":
        return replace(self, z2_shift=(self.z2_shift + k) % 2)

    def with_rows(
        self, rows: Sequence[tuple[Poly, Poly]], base: QuotientRing | None = None
    ) -> "KoszulMF":
        """The same presentation with new rows, and a new base when given;
        a ``Row`` passed on keeps its product."""
        return replace(self, rows=tuple(rows), base=self.base if base is None else base)

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

    def graded_series(self, cutoff: int) -> tuple[QLaurent, QLaurent]:
        """(even, odd) graded dimension series without expanding matrices."""
        return _free_series(self.base, self._generators(), cutoff)

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
    """Expand the row presentation to explicit block matrices.

    Rank is 2^(r-1) per Z/2 component for r >= 1 rows.  The second module
    of each rank-1 factor is shifted by (deg b_m - deg a_m)/2; the fold over
    tensor accumulates those shifts on subset generators.
    """
    mf = unit_object(k.base, k.potential_degree)
    for m, row in enumerate(k.rows):
        h = k.row_shift(m)
        piece = MatrixFactorization(
            GradedFreeModule(k.base, (0,)),
            GradedFreeModule(k.base, (h,)),
            SparseMat(1, 1, {(0, 0): row[0]}),
            SparseMat(1, 1, {(0, 0): row[1]}),
            k.base.normal_form(row.product),
            k.potential_degree,
        )
        mf = tensor(mf, piece)
    for _ in range(k.z2_shift):
        mf = translate(mf)
    return grade_shift(mf, k.global_grading_shift)
