"""Symmetric function layer: power sums in elementary symmetric slots and
the row polynomials whose telescoping sums reproduce potentials."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

import oracles
from moymf import (
    Alphabet,
    ColorMismatch,
    L_poly,
    Lambda_poly,
    Poly,
    V_poly,
    power_sum_F,
    power_sum_in,
    product_term,
)
from moymf import symfun
from moymf.symfun import _mixed_divided_difference, generic_slots


class TestAlphabet:
    def test_variable_degrees_and_names(self) -> None:
        a = Alphabet(3, "a")
        for j in range(1, 4):
            v = a.var(j)
            assert v.degree == 2 * j
            assert v.name == f"x{j}_a"

    def test_slot_out_of_range(self) -> None:
        a = Alphabet(2, "a")
        with pytest.raises(IndexError):
            a.var(3)
        with pytest.raises(IndexError):
            a.var(0)
        with pytest.raises(IndexError):
            a.poly(3)

    def test_variables_are_built_once_and_stay_invisible(self) -> None:
        a = Alphabet(3, "a")
        assert a.var(2) is a.var(2) is a.vars[1]
        assert a.poly(2) is a.poly(2) and a.poly(2) == Poly.variable(a.var(2))
        assert repr(a) == "Alphabet(color=3, label='a')"
        assert a == Alphabet(3, "a") and hash(a) == hash(Alphabet(3, "a"))
        assert sorted([Alphabet(3, "b"), a, Alphabet(2, "z")]) == [
            Alphabet(2, "z"), a, Alphabet(3, "b")
        ]
        for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert twin == a and twin.vars == a.vars and twin.poly(3) == a.poly(3)


class TestPowerSum:
    def test_matches_power_sums_of_roots(self) -> None:
        # freeze ten random points per (i, n) through the oracle side:
        # e_j(roots) plugged into the slot variables must return p_{n+1}
        rng = random.Random(20260816)
        for i in range(1, 4):
            for n in range(max(i, 2), 5):
                f = power_sum_F(i, n)
                slots = generic_slots(i)
                for _ in range(10):
                    roots = [
                        Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                        for _ in range(i)
                    ]
                    point = dict(zip(slots, oracles.elementary_symmetric(roots)))
                    assert f.evaluate(point) == oracles.power_sum(roots, n + 1)

    def test_homogeneous_of_potential_degree(self) -> None:
        for i in range(1, 5):
            for n in range(i, 6):
                assert power_sum_F(i, n).homogeneous_degree() == 2 * n + 2
                assert (
                    power_sum_in(Alphabet(i, "t"), n).homogeneous_degree()
                    == 2 * n + 2
                )

    def test_frozen_rank_one(self) -> None:
        # single slot: p_{n+1} = e_1^{n+1}
        a = Alphabet(1, "a")
        assert power_sum_in(a, 3) == a.poly(1) ** 4

    def test_rejects_bad_arguments(self) -> None:
        with pytest.raises(ValueError):
            power_sum_F(0, 3)
        with pytest.raises(ValueError):
            power_sum_F(2, 0)


class TestProductTerm:
    def test_frozen_example(self) -> None:
        a, b = Alphabet(1, "a"), Alphabet(2, "b")
        assert product_term(1, a, b) == a.poly(1) + b.poly(1)
        assert product_term(2, a, b) == a.poly(1) * b.poly(1) + b.poly(2)
        assert product_term(3, a, b) == a.poly(1) * b.poly(2)

    def test_homogeneous(self) -> None:
        a, b = Alphabet(2, "a"), Alphabet(2, "b")
        for j in range(1, 5):
            assert product_term(j, a, b).homogeneous_degree() == 2 * j

    def test_out_of_range(self) -> None:
        a, b = Alphabet(1, "a"), Alphabet(1, "b")
        with pytest.raises(IndexError):
            product_term(3, a, b)


class TestTelescoping:
    def test_line_rows_reproduce_potential_difference(self) -> None:
        for i in range(1, 5):
            for n in range(i, 6):
                src, dst = Alphabet(i, "s"), Alphabet(i, "d")
                total = Poly.zero()
                for j in range(1, i + 1):
                    total = total + L_poly(j, i, n, src, dst) * (
                        src.poly(j) - dst.poly(j)
                    )
                assert total == power_sum_in(src, n) - power_sum_in(dst, n), (i, n)

    def test_merge_rows_reproduce_potential_difference(self) -> None:
        for i1 in range(1, 4):
            for i2 in range(1, 4):
                i3 = i1 + i2
                for n in range(i3, 6):
                    a, b, c = Alphabet(i1, "a"), Alphabet(i2, "b"), Alphabet(i3, "c")
                    total = Poly.zero()
                    for j in range(1, i3 + 1):
                        total = total + Lambda_poly(j, a, b, c, n) * (
                            c.poly(j) - product_term(j, a, b)
                        )
                    want = (
                        power_sum_in(c, n)
                        - power_sum_in(a, n)
                        - power_sum_in(b, n)
                    )
                    assert total == want, (i1, i2, n)

    def test_split_rows_reproduce_potential_difference(self) -> None:
        for i1 in range(1, 4):
            for i2 in range(1, 4):
                i3 = i1 + i2
                for n in range(i3, 6):
                    a, b, c = Alphabet(i1, "a"), Alphabet(i2, "b"), Alphabet(i3, "c")
                    total = Poly.zero()
                    for j in range(1, i3 + 1):
                        total = total + V_poly(j, a, b, c, n) * (
                            product_term(j, a, b) - c.poly(j)
                        )
                    want = (
                        power_sum_in(a, n)
                        + power_sum_in(b, n)
                        - power_sum_in(c, n)
                    )
                    assert total == want, (i1, i2, n)

    def test_row_degrees(self) -> None:
        src, dst = Alphabet(2, "s"), Alphabet(2, "d")
        a, b, c = Alphabet(1, "a"), Alphabet(1, "b"), Alphabet(2, "c")
        n = 4
        for j in (1, 2):
            assert L_poly(j, 2, n, src, dst).homogeneous_degree() == 2 * n + 2 - 2 * j
            assert Lambda_poly(j, a, b, c, n).homogeneous_degree() == 2 * n + 2 - 2 * j
            assert V_poly(j, a, b, c, n).homogeneous_degree() == 2 * n + 2 - 2 * j


def _direct(family: str, j: int, n: int, alphabets: tuple[Alphabet, ...]) -> Poly:
    """A row polynomial by the divided difference on its own alphabets,
    with no template: ``L`` takes (src, dst), the others (c, a, b)."""
    if family == "L":
        src, dst = alphabets
        i = src.color
        below = [dst.poly(m) for m in range(1, j)]
        above = [src.poly(m) for m in range(j + 1, i + 1)]
        return _mixed_divided_difference(i, n, j, below, src.poly(j), dst.poly(j), above)
    c, a, b = alphabets
    i = c.color
    products = [product_term(m, a, b) for m in range(1, i + 1)]
    slots = [c.poly(m) for m in range(1, i + 1)]
    if family == "Lambda":
        below, hi, lo, above = products[: j - 1], slots[j - 1], products[j - 1], slots[j:]
    else:
        below, hi, lo, above = slots[: j - 1], products[j - 1], slots[j - 1], products[j:]
    return _mixed_divided_difference(i, n, j, below, hi, lo, above)


class TestTemplates:
    """Rows renamed from one template per shape against the direct
    divided differences, on alphabets that share labels with the
    templates, swap them, or share one label between two alphabets."""

    def test_every_shape_through_level_six_matches_the_direct_rows(self) -> None:
        ta, tb = symfun._TEMPLATE_LABELS
        line_labels = [("s", "d"), ("s", "s"), (ta, "d"), (tb, ta), (ta, ta)]
        vertex_labels = [("c", "a", "b"), ("c", ta, tb), ("c", tb, ta), (ta, ta, tb)]
        checked = 0
        for n in range(1, 7):
            for i in range(1, n + 1):
                for src, dst in line_labels:
                    pair = (Alphabet(i, src), Alphabet(i, dst))
                    for j in range(1, i + 1):
                        want = _direct("L", j, n, pair)
                        assert L_poly(j, i, n, *pair) == want, (j, i, n, src, dst)
                        checked += 1
                for ia in range(1, i):
                    for lc, la, lb in vertex_labels:
                        c, a, b = Alphabet(i, lc), Alphabet(ia, la), Alphabet(i - ia, lb)
                        for j in range(1, i + 1):
                            shape = (j, ia, i - ia, n, lc, la, lb)
                            merge = _direct("Lambda", j, n, (c, a, b))
                            assert Lambda_poly(j, a, b, c, n) == merge, shape
                            assert V_poly(j, a, b, c, n) == _direct("V", j, n, (c, a, b)), shape
                            checked += 2
        assert checked == 5 * 56 + 4 * 2 * 140

    def test_a_shape_is_built_once(self) -> None:
        symfun._template.cache_clear()
        a, b, c = Alphabet(1, "a"), Alphabet(2, "b"), Alphabet(3, "c")
        other = Alphabet(1, "z"), Alphabet(2, "y"), Alphabet(3, "x")
        rows = [Lambda_poly(j, *abc, 4) for abc in ((a, b, c), other) for j in (1, 2, 3)]
        info = symfun._template.cache_info()
        assert (info.misses, info.hits) == (3, 3)
        assert rows[:3] != rows[3:]


class TestColorChecks:
    def test_line_color_mismatch(self) -> None:
        with pytest.raises(ColorMismatch):
            L_poly(1, 2, 4, Alphabet(1, "s"), Alphabet(2, "d"))

    def test_vertex_color_mismatch(self) -> None:
        a, b, c = Alphabet(1, "a"), Alphabet(1, "b"), Alphabet(3, "c")
        with pytest.raises(ColorMismatch):
            Lambda_poly(1, a, b, c, 4)
        with pytest.raises(ColorMismatch):
            V_poly(1, a, b, c, 4)

    def test_slot_bounds(self) -> None:
        a, b, c = Alphabet(1, "a"), Alphabet(1, "b"), Alphabet(2, "c")
        with pytest.raises(IndexError):
            Lambda_poly(3, a, b, c, 4)
        with pytest.raises(IndexError):
            L_poly(0, 2, 4, Alphabet(2, "s"), Alphabet(2, "d"))
