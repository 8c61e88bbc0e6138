"""Matrix factorization layer: Koszul row presentations, expansion,
tensor products as row joins, shifts, and the defining-identity validator."""

from __future__ import annotations

import dataclasses
import itertools
import pickle
import random

import pytest

import corpus
from moymf import (
    GradedFreeModule,
    GradedVar,
    KoszulMF,
    MatrixFactorization,
    Poly,
    QLaurent,
    QuotientRing,
    SparseMat,
    compile_diagram,
    koszul_expand,
    merge_bases,
    parse,
)
from moymf.mf_core import IncompatibleBases, InhomogeneousRow, validate

X = GradedVar("x", 2)
Y = GradedVar("y", 2)
CUTOFF = 14


def _simple_koszul() -> KoszulMF:
    x, y = Poly.variable(X), Poly.variable(Y)
    base = QuotientRing((X, Y))
    return KoszulMF(base, ((x, x * y * y), (y, x * x * y)), 0, 0, 8)


class TestKoszulConstruction:
    def test_row_shift_is_always_integral(self) -> None:
        rng = random.Random(5)
        for _ in range(20):
            k = corpus.random_koszul(rng)
            for row in range(k.row_count):
                assert isinstance(k.row_shift(row), int)

    def test_inhomogeneous_row_rejected(self) -> None:
        x, y = Poly.variable(X), Poly.variable(Y)
        base = QuotientRing((X, Y))
        with pytest.raises(InhomogeneousRow):
            KoszulMF(base, ((x + x * y, x),), 0, 0, 8)

    def test_wrong_row_degree_rejected(self) -> None:
        x = Poly.variable(X)
        base = QuotientRing((X, Y))
        with pytest.raises(InhomogeneousRow):
            KoszulMF(base, ((x, x),), 0, 0, 8)  # degrees sum to 4, not 8

    def test_zero_zero_row_rejected(self) -> None:
        base = QuotientRing((X, Y))
        with pytest.raises(InhomogeneousRow):
            KoszulMF(base, ((Poly.zero(), Poly.zero()),), 0, 0, 8)

    def test_rows_are_checked_at_every_construction(self, monkeypatch) -> None:
        k = _simple_koszul()
        calls = []
        degree = Poly._homogeneous_degree
        monkeypatch.setattr(
            Poly, "_homogeneous_degree", lambda p: calls.append(1) or degree(p)
        )
        # rows carried into another instance are those very objects, and
        # both sides of each are checked again
        assert KoszulMF(k.base, k.rows[::-1], 0, 0, 8).rows[0] is k.rows[1]
        assert len(calls) == 4
        # so are the rows of a copy
        KoszulMF(k.base, pickle.loads(pickle.dumps(k.rows)), 0, 0, 8)
        assert len(calls) == 8
        # rows that passed at one degree are refused at another
        with pytest.raises(InhomogeneousRow, match="row 0 has potential degree 8, expected 10"):
            KoszulMF(k.base, k.rows, 0, 0, 10)

    def test_a_zero_a_side_takes_its_degree_from_the_potential(self) -> None:
        # (0; y) at potential degree 8: deg a is 8 - 2, and the row shift
        # (2 - 6)/2 places the odd generator at -2
        y = Poly.variable(Y)
        k = KoszulMF(QuotientRing((X, Y)), ((Poly.zero(), y),), 0, 0, 8)
        assert k.row_degrees(0) == (6, 2)
        assert k.row_shift(0) == -2
        mf = koszul_expand(k)
        assert mf.m1.generator_shifts == (-2,)
        assert validate(mf) == []

    @pytest.mark.parametrize(
        "z2, degree, message",
        [(2, 8, "z2_shift must be 0 or 1"), (0, 7, "bad potential degree 7"),
         (0, -2, "bad potential degree -2")],
    )
    def test_bad_shifts_are_refused(self, z2: int, degree: int, message: str) -> None:
        with pytest.raises(ValueError, match=message):
            KoszulMF(QuotientRing((X, Y)), (), 0, z2, degree)

    def test_potential_is_row_product_sum(self) -> None:
        k = _simple_koszul()
        x, y = Poly.variable(X), Poly.variable(Y)
        assert k.potential() == x * x * y * y + x * x * y * y


def _row_sum(k: KoszulMF) -> Poly:
    """The potential summed afresh from the rows, in normal form."""
    total = Poly.zero()
    for a, b in k.rows:
        total = total + a * b
    return k.base.normal_form(total)


class TestPotentialMemo:
    """A presentation sums its potential once, from the products its rows
    keep; none of it is visible or copied."""

    def test_derived_objects_compute_their_own(self) -> None:
        rng = random.Random(11)
        moved = 0
        for _ in range(12):
            k, other = corpus.random_koszul(rng), corpus.random_koszul(rng)
            pot = k.potential()  # stored on k before anything is derived
            other.potential()
            (a, b), *rest = k.rows
            ring = QuotientRing(k.base.vars, (Poly.variable(X) ** 3,))
            derived = (
                k.with_rows(rest or [(a, b * 2)]),
                k.with_rows(k.rows, ring),
                dataclasses.replace(k, rows=((a * 3, b), *rest)),
                k.join(other),
            )
            for d in derived:
                assert d.potential() == _row_sum(d)
                moved += d.potential() != pot
        # the derived potentials differ, so an inherited value would show
        assert moved >= 30

    def test_with_rows_reuses_products_of_the_same_tuples_only(self, monkeypatch) -> None:
        k = _simple_koszul()
        (a, b), second = k.rows
        assert KoszulMF(k.base, k.rows, 0, 0, 8).rows[1] is second
        assert KoszulMF(k.base, [[a, b], list(second)], 0, 0, 8) == k
        k.potential()
        products = []
        mul = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append(1) or mul(p, q))
        # an equal tuple that is another object is multiplied afresh
        first = k.with_rows(k.rows)
        second_copy = k.with_rows([(a, b), (second[0], second[1])])
        counts = []
        for d in (first, second_copy):
            d.potential()
            counts.append(len(products))
        # a row passed on keeps the product its first potential computed
        third = second_copy.with_rows([(b, a), second_copy.rows[1]])
        third.potential()
        counts.append(len(products))
        derived = (first, second_copy, third)
        monkeypatch.undo()
        assert counts == [0, 2, 3]
        assert all(d.potential() == _row_sum(d) for d in derived)

    def test_memo_is_invisible(self) -> None:
        k, fresh = _simple_koszul(), _simple_koszul()
        before = (repr(k), hash(k))
        assert k.potential() == _row_sum(k)
        assert (repr(k), hash(k)) == before
        assert k == fresh and hash(k) == hash(fresh)
        assert k.as_dict() == fresh.as_dict()
        assert k.potential() is k.potential()
        # a copy keeps the potential's value, and its rows keep nothing
        loaded = pickle.loads(pickle.dumps(k))
        assert loaded == k and all(vars(row) == {} for row in loaded.rows)
        assert loaded.potential() == k.potential()


class TestExpansion:
    def test_expanded_object_validates(self) -> None:
        assert validate(koszul_expand(_simple_koszul())) == []

    def test_series_agree_between_presentations(self) -> None:
        # two independent code paths: row-shift bookkeeping versus the
        # expanded module's generator shifts
        rng = random.Random(17)
        for _ in range(10):
            k = corpus.random_koszul(rng)
            assert k.graded_series(CUTOFF) == koszul_expand(k).graded_series(CUTOFF)

    def test_series_expand_the_generators_times_the_base_series(self) -> None:
        # the graded rank of K(a; b) over R is its generator polynomial
        # times the Hilbert series of R: in degree d, the sum over the
        # generators q^e of dim R_(d - e)
        rng = random.Random(29)
        for _ in range(8):
            k = corpus.random_koszul(rng)
            if rng.random() < 0.5:
                k = k.with_rows(k.rows, QuotientRing(k.base.vars, (Poly.variable(X) ** 3,)))
            k = dataclasses.replace(
                k, global_grading_shift=rng.randint(-6, 6), z2_shift=rng.randint(0, 1)
            )
            gens = [QLaurent.zero(), QLaurent.zero()]
            for subset in itertools.product((0, 1), repeat=k.row_count):
                e = k.global_grading_shift + sum(
                    k.row_shift(m) for m in range(k.row_count) if subset[m]
                )
                gens[(sum(subset) + k.z2_shift) % 2] += QLaurent.q_power(e)
            low = min(g.min_exp() for g in gens if g)
            mf = koszul_expand(k)
            for cutoff in range(31):
                want = tuple(
                    QLaurent({
                        d: sum(c * k.base.dimension(d - e) for e, c in g.coeffs.items())
                        for d in range(low, cutoff + 1)
                    })
                    for g in gens
                )
                assert k.graded_series(cutoff) == want
                assert mf.graded_series(cutoff) == want

    def test_negative_cutoff_rejected(self) -> None:
        # every series truncated below degree 0 is empty, so two of them
        # would always agree
        k = _simple_koszul()
        for series in (k.graded_series, koszul_expand(k).graded_series, k.base.dimension_series):
            with pytest.raises(ValueError, match="cutoff must be >= 0, got -4"):
                series(-4)
        assert k.graded_series(0) == (QLaurent.one(), QLaurent.zero())

    def test_expansion_keeps_the_base(self) -> None:
        # every generator module is built over k.base itself, so the
        # expansion shares the base ring, and with it its Groebner basis
        k = compile_diagram(parse("level n 3\nedge e1 color 2 from boundary:p to boundary:q\n"))
        assert k.row_count == 2
        assert koszul_expand(k).base is k.base

    def test_expand_ranks(self) -> None:
        m = koszul_expand(_simple_koszul())
        assert m.m0.rank == 2 and m.m1.rank == 2

    def test_two_rows_expand_to_the_textbook_matrices(self) -> None:
        # K(a0, a1; b0, b1) has even generators 1, e0e1 and odd e0, e1:
        # d0 = [[a0, -b1], [a1, b0]] and d1 = [[b0, b1], [-a1, a0]]
        x, y = Poly.variable(X), Poly.variable(Y)
        (a0, b0), (a1, b1) = rows = ((x, x * y * y), (y * y, x * y))
        k = KoszulMF(QuotientRing((X, Y)), rows, 5, 0, 8)
        m = koszul_expand(k)
        h0, h1 = k.row_shift(0), k.row_shift(1)
        assert m.m0.generator_shifts == (5, 5 + h0 + h1)
        assert m.m1.generator_shifts == (5 + h0, 5 + h1)
        assert m.d0 == SparseMat(2, 2, {(0, 0): a0, (0, 1): -b1, (1, 0): a1, (1, 1): b0})
        assert m.d1 == SparseMat(2, 2, {(0, 0): b0, (0, 1): b1, (1, 0): -a1, (1, 1): a0})
        assert m.potential == a0 * b0 + a1 * b1 and m.potential_degree == 8

    def test_an_entry_is_its_polynomial_or_zero(self) -> None:
        mat = SparseMat(2, 2, {(0, 1): Poly.variable(X)})
        assert mat.entry(0, 1) == Poly.variable(X) and mat.entry(1, 0) == Poly.zero()

    def test_corrupted_differential_is_caught(self) -> None:
        m = koszul_expand(_simple_koszul())
        entries = dict(m.d0.entries)
        (i, j), p = next(iter(entries.items()))
        entries[(i, j)] = p + Poly.variable(X) * Poly.variable(Y) ** (
            (p.homogeneous_degree() - 2) // 2
        ) if p.homogeneous_degree() >= 4 else p + Poly.variable(X)
        bad = dataclasses.replace(m, d0=SparseMat(m.d0.nrows, m.d0.ncols, entries))
        assert validate(bad) != []


class TestTensor:
    """The tensor product is ``join`` on rows, read through the expansion."""

    def test_potentials_add(self) -> None:
        rng = random.Random(23)
        for _ in range(10):
            a = corpus.random_koszul(rng)
            b = corpus.random_koszul(rng)
            t = koszul_expand(a.join(b))
            assert t.base.normal_form(
                t.potential - (koszul_expand(a).potential + koszul_expand(b).potential)
            ) == Poly.zero()

    def test_commutative_at_graded_rank(self) -> None:
        rng = random.Random(29)
        for _ in range(12):
            a = corpus.random_koszul(rng)
            b = corpus.random_koszul(rng)
            assert koszul_expand(a.join(b)).graded_series(CUTOFF) == koszul_expand(
                b.join(a)
            ).graded_series(CUTOFF)

    def test_associative_at_graded_rank(self) -> None:
        rng = random.Random(31)
        for _ in range(8):
            a = corpus.random_koszul(rng)
            b = corpus.random_koszul(rng)
            c = corpus.random_koszul(rng)
            left = koszul_expand(a.join(b).join(c))
            right = koszul_expand(a.join(b.join(c)))
            assert left.graded_series(CUTOFF) == right.graded_series(CUTOFF)

    def test_tensor_results_validate(self) -> None:
        rng = random.Random(37)
        for _ in range(6):
            a = corpus.random_koszul(rng).regraded(rng.randint(-3, 3), rng.randint(0, 1))
            b = corpus.random_koszul(rng).regraded(rng.randint(-3, 3), rng.randint(0, 1))
            assert validate(koszul_expand(a.join(b))) == []

    def test_potential_degrees_must_agree(self) -> None:
        k = _simple_koszul()
        other = KoszulMF(k.base, (), 0, 0, 6)
        with pytest.raises(ValueError, match="potential degrees differ in join"):
            k.join(other)

    def test_unit_object_is_neutral(self) -> None:
        k = _simple_koszul()
        u = KoszulMF(k.base, (), 0, 0, k.potential_degree)
        # the unit expands to base -> 0 -> base, potential 0
        unit = koszul_expand(u)
        assert (unit.m0.generator_shifts, unit.m1.generator_shifts) == ((0,), ())
        assert unit.potential == Poly.zero() and validate(unit) == []
        for t in (koszul_expand(k.join(u)), koszul_expand(u.join(k))):
            assert t == koszul_expand(k)
            assert validate(t) == []


class TestShifts:
    def test_translation_squares_to_identity(self) -> None:
        rng = random.Random(41)
        for _ in range(10):
            k = corpus.random_koszul(rng)
            assert k.translated(1).translated(1) == k
            m = koszul_expand(k)
            # one translation expands to (M1, M0, -d1, -d0)
            t = koszul_expand(k.translated(1))
            assert (t.m0, t.m1) == (m.m1, m.m0)
            assert t.d0.entries == {ij: -p for ij, p in m.d1.entries.items()}
            assert t.d1.entries == {ij: -p for ij, p in m.d0.entries.items()}
            assert koszul_expand(k.translated(1).translated(1)).graded_series(
                CUTOFF
            ) == m.graded_series(CUTOFF)

    def test_grading_shifts_compose_additively(self) -> None:
        rng = random.Random(43)
        for _ in range(10):
            k = corpus.random_koszul(rng)
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            assert k.grade_shifted(s).grade_shifted(t) == k.grade_shifted(s + t)
            m = koszul_expand(k)
            assert koszul_expand(k.grade_shifted(s).grade_shifted(t)) == koszul_expand(
                k.grade_shifted(s + t)
            )
            # a grading shift offsets every generator and leaves the
            # differentials as they are
            shifted = koszul_expand(k.grade_shifted(s))
            for mod, old in ((shifted.m0, m.m0), (shifted.m1, m.m1)):
                assert mod.generator_shifts == tuple(e + s for e in old.generator_shifts)
            assert (shifted.d0, shifted.d1) == (m.d0, m.d1)

    def test_translation_swaps_series(self) -> None:
        k = _simple_koszul()
        e, o = k.graded_series(CUTOFF)
        et, ot = k.translated(1).graded_series(CUTOFF)
        assert (et, ot) == (o, e)

    def test_grade_shift_multiplies_series(self) -> None:
        k = _simple_koszul()
        e, o = k.graded_series(CUTOFF)
        es, os_ = k.grade_shifted(2).graded_series(CUTOFF + 2)
        assert es.truncate(CUTOFF) == e.shift(2).truncate(CUTOFF)
        assert os_.truncate(CUTOFF) == o.shift(2).truncate(CUTOFF)


class TestMergeBases:
    def test_shared_names_must_agree_in_degree(self) -> None:
        b1 = QuotientRing((GradedVar("x", 2),))
        b2 = QuotientRing((GradedVar("x", 4),))
        with pytest.raises(IncompatibleBases):
            merge_bases(b1, b2)

    def test_equal_rings_merge_to_the_first(self) -> None:
        b1 = QuotientRing((X, Y), (Poly.variable(X) ** 2,))
        b2 = QuotientRing((X, Y), (Poly.variable(X) ** 2,))
        assert merge_bases(b1, b2) is b1
        assert merge_bases(b1, b1) is b1

    def test_union_semantics(self) -> None:
        b1 = QuotientRing((X,), (Poly.variable(X) ** 2,))
        b2 = QuotientRing((Y,), (Poly.variable(Y) ** 3,))
        merged = merge_bases(b1, b2)
        assert set(merged.vars) == {X, Y}
        assert len(merged.ideal_gens) == 2


class TestSerialization:
    def test_as_dict_shape_and_determinism(self) -> None:
        m = koszul_expand(_simple_koszul())
        d1 = m.as_dict()
        d2 = koszul_expand(_simple_koszul()).as_dict()
        assert d1 == d2
        assert set(d1) == {
            "base", "rank0", "rank1", "shifts0", "shifts1",
            "d0", "d1", "potential", "potential_degree",
        }
        for key, entry in d1["d0"].items():
            i, j = key.split(",")
            assert i.isdigit() and j.isdigit()
            assert isinstance(entry, str)


def _one_by_one(d0=None, d1=None, potential=None, degree=8, shift1=2, base1=None):
    """K(x; x^3) over Q[x] written out as a 1x1 factorization of x^4,
    with any part replaced."""
    x = Poly.variable(X)
    base = QuotientRing((X,))
    return MatrixFactorization(
        GradedFreeModule(base, (0,)),
        GradedFreeModule(base if base1 is None else base1, (shift1,)),
        d0 if d0 is not None else SparseMat(1, 1, {(0, 0): x}),
        d1 if d1 is not None else SparseMat(1, 1, {(0, 0): x**3}),
        x**4 if potential is None else potential,
        degree,
    )


class TestRefusals:
    """Every shape and parity refusal of the matrix layer, and every
    violation ``validate`` reports, on hand-broken factorizations."""

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: SparseMat(2, 2, {(2, 0): Poly.variable(X)}), IndexError,
             "entry (2,0) outside 2x2"),
            (lambda: SparseMat(2, 3).mul(SparseMat(2, 3)), ValueError,
             "shape mismatch in matrix product"),
            (lambda: _one_by_one(base1=QuotientRing((X, Y))), IncompatibleBases,
             "m0 and m1 over different bases"),
            (lambda: _one_by_one(d0=SparseMat(2, 1)), ValueError,
             "d0 shape does not match module ranks"),
            (lambda: _one_by_one(d1=SparseMat(1, 2)), ValueError,
             "d1 shape does not match module ranks"),
            (lambda: _one_by_one(degree=7), ValueError, "potential degree must be even"),
        ],
        ids=["entry outside", "product shapes", "bases", "d0 shape", "d1 shape", "parity"],
    )
    def test_a_bad_shape_is_refused(self, build, error, message) -> None:
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error and str(info.value) == message

    def test_validate_reports_each_kind_of_violation(self) -> None:
        x = Poly.variable(X)
        assert validate(_one_by_one()) == []
        cases = [
            (_one_by_one(potential=x**4 + x), [
                "potential is inhomogeneous",
                "d1*d0[0,0] = x^4, expected x + x^4",
                "d0*d1[0,0] = x^4, expected x + x^4",
            ]),
            (_one_by_one(degree=6), [
                "potential degree 8 != declared 6",
                "d0[0,0] degree 2, expected 1",
                "d1[0,0] degree 6, expected 5",
            ]),
            (_one_by_one(d0=SparseMat(1, 1)), [
                "d1*d0[0,0] = 0, expected x^4",
                "d0*d1[0,0] = 0, expected x^4",
            ]),
            (_one_by_one(d0=SparseMat(1, 1, {(0, 0): x + x**2})), [
                "d1*d0[0,0] = x^4 + x^5, expected x^4",
                "d0*d1[0,0] = x^4 + x^5, expected x^4",
                "d0[0,0] inhomogeneous: x + x^2",
            ]),
            (_one_by_one(shift1=0), [
                "d0[0,0] degree 2, expected 4",
                "d1[0,0] degree 6, expected 4",
            ]),
        ]
        for broken, want in cases:
            assert validate(broken) == want
