"""Laurent series arithmetic and the q-combinatorics built on it."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from moymf import (
    QLaurent,
    jacobi_series,
    p_coeff,
    poincare_regular_quotient,
    qbinomial,
    quantum_integer,
)
from moymf.qseries import _expand, cor_square_sides


@st.composite
def laurents(draw) -> QLaurent:
    coeffs = draw(
        st.dictionaries(st.integers(-6, 6), st.integers(-4, 4), max_size=5)
    )
    return QLaurent(coeffs)


class TestQLaurent:
    @given(laurents(), laurents(), laurents())
    def test_ring_axioms(self, a: QLaurent, b: QLaurent, c: QLaurent) -> None:
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + QLaurent.zero() == a
        assert a * QLaurent.one() == a

    @given(laurents(), st.integers(-5, 5), st.integers(-5, 5))
    def test_shift_group_law(self, a: QLaurent, m: int, k: int) -> None:
        assert a.shift(m).shift(k) == a.shift(m + k)
        assert a.shift(m) == a * QLaurent.q_power(m)

    @given(laurents())
    def test_reverse_is_an_involution(self, a: QLaurent) -> None:
        assert a.reverse().reverse() == a
        assert a.reverse().at_one() == a.at_one()

    @given(laurents(), st.integers(-8, 8))
    def test_truncate_keeps_low_exponents(self, a: QLaurent, hi: int) -> None:
        t = a.truncate(hi)
        assert all(e <= hi for e in t.coeffs)
        assert all(t.coeff(e) == a.coeff(e) for e in range(-10, hi + 1))

    def test_render_fixed_forms(self) -> None:
        assert QLaurent({-3: 1, -1: 2, 1: 2, 3: 1}).render() == (
            "q^-3 + 2*q^-1 + 2*q + q^3"
        )
        assert QLaurent.zero().render() == "0"
        assert QLaurent({0: 7}).render() == "7"
        assert QLaurent({2: -1, 0: 1}).render() == "1 - q^2"
        assert repr(QLaurent({2: -1, 0: 1})) == "QLaurent(1 - q^2)"

    def test_equal_series_hash_alike(self) -> None:
        series = {QLaurent({1: 2, -1: 1}), QLaurent({-1: 1, 1: 2}), QLaurent.zero()}
        assert len(series) == 2 and QLaurent({}) in series

    @pytest.mark.parametrize("coeffs", [
        {0: 1.5}, {0.5: 2}, {1: "3"}, {0: Fraction(1, 2)}, {0: Fraction(2)},
    ])
    def test_inexact_exponents_and_coefficients_raise(self, coeffs) -> None:
        with pytest.raises(TypeError, match="int exponents and coefficients"):
            QLaurent(coeffs)

    def test_q_power_takes_an_int_coefficient_only(self) -> None:
        with pytest.raises(TypeError):
            QLaurent.q_power(2, 2.7)
        assert QLaurent.q_power(2, 3) == QLaurent({2: 3})

    @given(laurents(), st.integers(-8, 8))
    def test_times_one_minus_is_x_minus_its_shift(self, x: QLaurent, d: int) -> None:
        assert x._times_one_minus(d) == x - x.shift(d)

    @given(laurents(), laurents(), st.integers(-8, 8))
    def test_unvalidated_results_are_what_validation_builds(
        self, x: QLaurent, y: QLaurent, d: int
    ) -> None:
        # every result that skips the public constructor's checks
        results = [
            QLaurent.zero(), QLaurent.one(), -x, x + y, x - y, x * y, x.shift(d),
            x._times_one_minus(d), x.truncate(d), x.reverse(),
            _expand(x, [2, 4], d),
        ]
        for r in results:
            terms = dict(r.coeffs)
            assert all(type(k) is int and type(v) is int and v for k, v in terms.items())
            assert r == QLaurent(terms)

    def test_a_shift_takes_an_int_only(self) -> None:
        with pytest.raises(TypeError, match="int shift"):
            QLaurent.one().shift(0.5)

    def test_extremes_fail_on_zero(self) -> None:
        with pytest.raises(ValueError):
            QLaurent.zero().min_exp()
        with pytest.raises(ValueError):
            QLaurent.zero().max_exp()


class TestQBinomial:
    def test_against_product_formula(self) -> None:
        for n in range(9):
            for i in range(n + 1):
                got = dict(qbinomial(n, i).coeffs)
                assert got == oracles.qbinom_product(n, i), (n, i)

    def test_frozen_tables(self) -> None:
        assert dict(qbinomial(4, 2).coeffs) == {-4: 1, -2: 1, 0: 2, 2: 1, 4: 1}
        assert dict(qbinomial(5, 2).coeffs) == {
            -6: 1, -4: 1, -2: 2, 0: 2, 2: 2, 4: 1, 6: 1,
        }

    def test_symmetry(self) -> None:
        for n in range(13):
            for i in range(n + 1):
                assert qbinomial(n, i) == qbinomial(n, n - i), (n, i)

    def test_counts_at_one(self) -> None:
        for n in range(9):
            for i in range(n + 1):
                assert qbinomial(n, i).at_one() == oracles.binomial(n, i)

    def test_palindromic(self) -> None:
        for n in range(9):
            for i in range(n + 1):
                assert qbinomial(n, i).reverse() == qbinomial(n, i)

    def test_against_pascal_s_rule(self) -> None:
        # an oracle independent of the product formula qbinomial divides by
        for n, row in enumerate(oracles.qbinom_pascal_rows(40)):
            for i, want in enumerate(row):
                assert dict(qbinomial(n, i).coeffs) == want, (n, i)

    def test_only_the_answer_is_cached(self) -> None:
        before = qbinomial.cache_info()
        q = qbinomial(200, 100)
        after = qbinomial.cache_info()
        assert after.currsize == before.currsize + 1
        assert after.misses == before.misses + 1
        assert q.at_one() == oracles.binomial(200, 100)

    def test_far_past_the_recursion_limit(self) -> None:
        # a product formula: no call recurses
        q = qbinomial(600, 2)
        assert q.reverse() == q and q.at_one() == oracles.binomial(600, 2)

    @given(st.integers(1, 7), st.integers(0, 7), st.integers(1, 5))
    def test_random_point_evaluation(self, n: int, i: int, qnum: int) -> None:
        if i > n:
            return
        q = Fraction(qnum, qnum + 1)
        got = oracles.eval_laurent(dict(qbinomial(n, i).coeffs), q)
        want = oracles.eval_laurent(oracles.qbinom_product(n, i), q)
        assert got == want


class TestQuantumInteger:
    def test_a_cached_value_cannot_be_changed_through_its_coefficients(self) -> None:
        with pytest.raises(TypeError):
            quantum_integer(3).coeffs[99] = 1
        assert qbinomial(3, 1) == quantum_integer(3) == QLaurent({-2: 1, 0: 1, 2: 1})

    def test_telescoping(self) -> None:
        # (q - q^-1) * [m] = q^m - q^-m
        step = QLaurent({1: 1, -1: -1})
        for m in range(1, 10):
            lhs = step * quantum_integer(m)
            assert lhs == QLaurent({m: 1, -m: -1}), m

    def test_matches_binomial_column(self) -> None:
        # the oracle's [m 1] is zero for m <= 0
        for m in range(-3, 21):
            assert quantum_integer(m) == QLaurent(oracles.qbinom_product(m, 1)), m


class TestJacobiSeries:
    def test_recentering_gives_binomial(self) -> None:
        # the series starts at q^0; the balanced form is centred r(n-r) lower
        for n in range(13):
            for r in range(n + 1):
                want = QLaurent(oracles.qbinom_product(n, r)).shift(r * (n - r))
                assert jacobi_series(n, r) == want, (n, r)

    def test_rejects_bad_arguments(self) -> None:
        with pytest.raises(ValueError):
            jacobi_series(3, 4)
        with pytest.raises(ValueError):
            jacobi_series(3, -1)


class TestPCoeff:
    def test_counts_partitions_in_a_box(self) -> None:
        for n1 in range(1, 7):
            for n2 in range(n1 + 1):
                for j in range(n2 * (n1 - n2) + 2):
                    assert p_coeff(j, n1, n2) == oracles.partitions_in_box(
                        j, n2, n1 - n2
                    ), (j, n1, n2)

    def test_negative_index_is_zero(self) -> None:
        assert p_coeff(-1, 4, 2) == 0


class TestCorSquareIdentity:
    def test_full_range(self) -> None:
        for j1 in range(2, 9):
            for j2 in range(1, j1):
                lhs, rhs = cor_square_sides(j1, j2)
                assert lhs == rhs, (j1, j2)


class TestRegularQuotientSeries:
    def test_free_ring_column(self) -> None:
        got = poincare_regular_quotient([2], [], 12)
        assert dict(got.coeffs) == {d: 1 for d in range(0, 13, 2)}

    def test_two_alphabets_cancel_to_one(self) -> None:
        # two rank-2 alphabets cut by degree 2 and 4 generators leave a
        # single rank-2 alphabet's worth of series
        got = poincare_regular_quotient([2, 4, 2, 4], [2, 4], 20)
        want = poincare_regular_quotient([2, 4], [], 20)
        assert got == want


class TestRefusals:
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: poincare_regular_quotient([2, 0], [], 4), ValueError,
             "geometric step must be positive"),
            (lambda: poincare_regular_quotient([2], [-2], 4), ValueError,
             "generator degree must be >= 0, got -2"),
        ],
        ids=["step 0", "negative generator"],
    )
    def test_a_bad_operand_is_refused(self, build, error, message) -> None:
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error and str(info.value) == message
