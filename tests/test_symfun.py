"""Symmetric function layer: power sums in elementary symmetric slots and
the row polynomials whose telescoping sums reproduce potentials."""

from __future__ import annotations

import copy
import pickle
import random
from fractions import Fraction

import pytest

import corpus
import oracles
from moymf import (
    Alphabet,
    ColorMismatch,
    L_poly,
    Lambda_poly,
    Poly,
    V_poly,
    divided_difference_values,
    power_sum_F,
    power_sum_in,
    product_term,
)
from moymf import compile_diagram, parse, render, symfun
from moymf.symfun import generic_slots


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

    @pytest.mark.parametrize(
        "color, label, message",
        [
            (0, "a", "alphabet color must be >= 1: Alphabet(color=0, label='a')"),
            (2, "a b",
             "alphabet label must be nonempty, no spaces: Alphabet(color=2, label='a b')"),
        ],
        ids=["color 0", "label with a space"],
    )
    def test_a_bad_alphabet_is_refused(self, color: int, label: str, message: str) -> None:
        with pytest.raises(ValueError) as info:
            Alphabet(color, label)
        assert type(info.value) is ValueError and str(info.value) == message

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
            assert twin._fields == a._fields


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

    def test_the_plan_agrees_with_substitution(self) -> None:
        # colors above n + 1 included, where the top slots have no term;
        # labels plain, a template's, and one starting with a digit
        checked = 0
        for label in ("a", symfun._TEMPLATE_LABELS[0], "1_b"):
            for i in range(1, 9):
                for n in range(1, 11):
                    a = Alphabet(i, label)
                    f = power_sum_in(a, n)
                    assert f == oracles.power_sum_substituted(a, n), (label, i, n)
                    assert f.homogeneous_degree() == 2 * n + 2
                    checked += 1
        assert checked == 3 * 8 * 10

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
                f = oracles.power_sum_substituted
                assert total == f(src, n) - f(dst, n), (i, n)

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
                    f = oracles.power_sum_substituted
                    want = f(c, n) - f(a, n) - f(b, n)
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
                    f = oracles.power_sum_substituted
                    want = f(a, n) + f(b, n) - f(c, n)
                    assert total == want, (i1, i2, n)

    def test_row_degrees(self) -> None:
        src, dst = Alphabet(2, "s"), Alphabet(2, "d")
        a, b, c = Alphabet(1, "a"), Alphabet(1, "b"), Alphabet(2, "c")
        n = 4
        for j in (1, 2):
            assert L_poly(j, 2, n, src, dst).homogeneous_degree() == 2 * n + 2 - 2 * j
            assert Lambda_poly(j, a, b, c, n).homogeneous_degree() == 2 * n + 2 - 2 * j
            assert V_poly(j, a, b, c, n).homogeneous_degree() == 2 * n + 2 - 2 * j


def _all_at_once(
    i: int, n: int, j: int, below: list[Poly], hi: Poly, lo: Poly, above: list[Poly]
) -> Poly:
    """[F(below, hi, above) - F(below, lo, above)] / (hi - lo) in slot j,
    every other slot of F_i substituted at once: ``below`` fills slots
    1..j-1 and ``above`` slots j+1..i."""
    slots = generic_slots(i)
    sigma = dict(zip(slots, below)) | dict(zip(slots[j:], above))
    return divided_difference_values(power_sum_F(i, n).substitute(sigma), slots[j - 1], hi, lo)


def _direct(family: str, j: int, n: int, alphabets: tuple[Alphabet, ...]) -> Poly:
    """A row polynomial by the divided difference on its own alphabets,
    with no template and no sweep: ``L`` takes (src, dst), the others
    (c, a, b)."""
    if family == "L":
        src, dst = alphabets
        i = src.color
        below = [dst.poly(m) for m in range(1, j)]
        above = [src.poly(m) for m in range(j + 1, i + 1)]
        return _all_at_once(i, n, j, below, src.poly(j), dst.poly(j), above)
    c, a, b = alphabets
    i = c.color
    products = [product_term(m, a, b) for m in range(1, i + 1)]
    slots = [c.poly(m) for m in range(1, i + 1)]
    if family == "Lambda":
        below, hi, lo, above = products[: j - 1], slots[j - 1], products[j - 1], slots[j:]
    else:
        below, hi, lo, above = slots[: j - 1], products[j - 1], slots[j - 1], products[j:]
    return _all_at_once(i, n, j, below, hi, lo, above)


def _check_every_shape(n: int, line_labels, vertex_labels) -> int:
    """Every row of every shape at level n, applied from its plan on each
    label set, against ``_direct``; returns the number of rows checked."""
    checked = 0
    for i in range(1, n + 1):
        for src, dst in line_labels:
            pair = (Alphabet(i, src), Alphabet(i, dst))
            for j in range(1, i + 1):
                assert L_poly(j, i, n, *pair) == _direct("L", j, n, pair), (j, i, n, src, dst)
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
    return checked


class TestTemplates:
    """Rows applied from one plan per shape, built on template alphabets,
    against the direct divided differences, on alphabets that share labels
    with the templates, swap them, or share one label between two
    alphabets."""

    def test_every_shape_through_level_six_matches_the_direct_rows(self) -> None:
        ta, tb = symfun._TEMPLATE_LABELS
        line_labels = [("s", "d"), ("s", "s"), (ta, "d"), (tb, ta), (ta, ta)]
        vertex_labels = [("c", "a", "b"), ("c", ta, tb), ("c", tb, ta), (ta, ta, tb)]
        checked = sum(_check_every_shape(n, line_labels, vertex_labels) for n in range(1, 7))
        assert checked == 5 * 56 + 4 * 2 * 140

    def test_every_shape_at_levels_seven_and_eight_matches_the_direct_rows(self) -> None:
        # the levels where the sweep saves most, on one label set
        checked = sum(_check_every_shape(n, [("s", "d")], [("c", "a", "b")]) for n in (7, 8))
        assert checked == (28 + 36) + 2 * (112 + 168)

    def test_swapping_the_thin_alphabets_keeps_every_vertex_row(self) -> None:
        # P_m(a, b) is symmetric, so the (a, b) and (b, a) plans of a
        # shape give one row on the same alphabets
        for n in range(1, 9):
            for i in range(2, n + 1):
                for ia in range(1, i):
                    c, a, b = Alphabet(i, "c"), Alphabet(ia, "a"), Alphabet(i - ia, "b")
                    for j in range(1, i + 1):
                        shape = (j, ia, i - ia, n)
                        assert Lambda_poly(j, a, b, c, n) == Lambda_poly(j, b, a, c, n), shape
                        assert V_poly(j, a, b, c, n) == V_poly(j, b, a, c, n), shape

    def test_a_shape_is_built_once(self) -> None:
        # one plan holds every slot of a shape, for any alphabets
        symfun._plan.cache_clear()
        a, b, c = Alphabet(1, "a"), Alphabet(2, "b"), Alphabet(3, "c")
        other = Alphabet(1, "z"), Alphabet(2, "y"), Alphabet(3, "x")
        rows = [Lambda_poly(j, *abc, 4) for abc in ((a, b, c), other) for j in (1, 2, 3)]
        info = symfun._plan.cache_info()
        assert (info.misses, info.hits) == (1, 5)
        assert rows[:3] != rows[3:]

    def test_a_vertex_takes_its_smaller_color_first(self) -> None:
        # the rows of (a, b), a > b, come from the (b, a) plan with the thin
        # alphabets swapped; Lambda_poly and V_poly index the (a, b) plan
        for n in range(1, 7):
            for i in range(3, 6):
                for ia in range(i // 2 + 1, i):
                    c, a, b = Alphabet(i, "c"), Alphabet(ia, "a"), Alphabet(i - ia, "b")
                    for family, poly, sign in (("Lambda", Lambda_poly, 1), ("V", V_poly, -1)):
                        want = [
                            (poly(j, a, b, c, n), sign * (c.poly(j) - product_term(j, a, b)))
                            for j in range(1, i + 1)
                        ]
                        assert symfun._rows(family, n, c, a, b) == want, (family, ia, i - ia, n)

    def test_mirrored_vertices_share_one_plan(self) -> None:
        d = parse(
            "level n 4\n"
            "edge a1 color 3 from boundary:p to v1\n"
            "edge b1 color 1 from boundary:q to v1\n"
            "edge c1 color 4 from v1 to boundary:r\n"
            "edge a2 color 1 from boundary:s to v2\n"
            "edge b2 color 3 from boundary:t to v2\n"
            "edge c2 color 4 from v2 to boundary:u\n"
            "vertex v1 merge in a1 b1 out c1\n"
            "vertex v2 merge in a2 b2 out c2\n"
        )
        symfun._plan.cache_clear()
        k = compile_diagram(d)
        assert symfun._plan.cache_info().currsize == 1
        assert list(k.rows) == _direct_rows(d)

    def test_a_plan_holds_one_pair_per_slot_and_nothing_else(self) -> None:
        # the potential is no part of a plan: boundary_potential builds it
        for n in (1, 4):
            for family, colors in _shapes(n):
                plans = symfun._plan(family, colors, n)
                assert len(plans) == sum(colors), (family, colors, n)
                for pair in plans:
                    assert len(pair) == 2 and all(len(plan) == 2 for plan in pair)

    def test_a_shape_of_i_slots_substitutes_i_minus_one_times(self, monkeypatch) -> None:
        # the sweep moves a slot only when another row follows
        calls = []
        substitute = Poly.substitute
        monkeypatch.setattr(
            Poly, "substitute", lambda p, sigma: calls.append(sigma) or substitute(p, sigma)
        )
        for n in range(1, 7):
            for family, colors in _shapes(n):
                calls.clear()
                plans = symfun._plan.__wrapped__(family, colors, n)
                assert len(calls) == len(plans) - 1 == sum(colors) - 1, (family, colors, n)

    def test_every_compiled_row_equals_its_direct_construction(self) -> None:
        """Both entries of every row ``compile_diagram`` builds from plans,
        against the divided difference and the slot difference built by
        Poly arithmetic on the row's own alphabets."""
        rng = random.Random(2024)
        seen = {"L": 0, "L one label": 0, "Lambda": 0, "V": 0}
        for _ in range(50):
            d = parse(corpus.random_diagram_source(rng, closed=rng.random() < 0.5))
            for e in d.edges:
                if e.tail[0] == e.head[0] == "boundary":
                    seen["L one label" if e.head[1] == e.tail[1] else "L"] += 1
            for v in d.vertices:
                seen["Lambda" if v.kind == "merge" else "V"] += 1
            assert list(compile_diagram(d).rows) == _direct_rows(d), render(d)
        assert min(seen.values()) >= 5, seen

    def test_row_polynomials_take_colors_above_the_level(self) -> None:
        # color-3 alphabets at level 1: slot j = 3 > n + 1 of F_i has no
        # term, and its row polynomials are still the divided differences
        src, dst, a, b = Alphabet(3, "p"), Alphabet(3, "q"), Alphabet(1, "a"), Alphabet(2, "b")
        for j in (1, 2, 3):
            assert L_poly(j, 3, 1, src, dst) == _direct("L", j, 1, (src, dst))
            assert Lambda_poly(j, a, b, src, 1) == _direct("Lambda", j, 1, (src, a, b))
            assert V_poly(j, a, b, src, 1) == _direct("V", j, 1, (src, a, b))


def _check_telescopes(n: int, shapes, line_labels, vertex_labels) -> int:
    """The sum of each shape's applied rows, each row multiplied out,
    against the piece's boundary power sums by substitution, on each label
    set; returns the number of pieces checked."""
    checked = 0
    for family, colors in shapes:
        if family == "L":
            sets = [(Alphabet(colors[0], s), Alphabet(colors[0], d)) for s, d in line_labels]
        else:
            sets = [
                (Alphabet(sum(colors), lc), Alphabet(colors[0], la), Alphabet(colors[1], lb))
                for lc, la, lb in vertex_labels
            ]
        for alphabets in sets:
            summed = Poly.zero()
            for a, b in symfun._rows(family, n, *alphabets):
                summed = summed + a * b
            f = [oracles.power_sum_substituted(alpha, n) for alpha in alphabets]
            ends = f[0] - sum(f[1:], Poly.zero())
            assert summed == (-ends if family == "V" else ends), (family, colors, n)
            checked += 1
    return checked


def _shapes(n: int) -> list[tuple[str, tuple[int, ...]]]:
    """Every (family, colors) of level n with colors summing to at most n."""
    out = [("L", (i,)) for i in range(1, n + 1)]
    for i in range(2, n + 1):
        out += [(f, (ia, i - ia)) for ia in range(1, i) for f in ("Lambda", "V")]
    return out


class TestTelescopePlans:
    """The rows a shape's plan gives sum to the two ends of its telescope,
    the piece's boundary power sums, exactly, on any alphabets, also ones
    sharing labels."""

    def test_every_shape_through_level_six_sums_to_its_plan(self) -> None:
        ta, tb = symfun._TEMPLATE_LABELS
        line_labels = [("s", "d"), ("s", "s"), (ta, "d"), (tb, ta)]
        vertex_labels = [("c", "a", "b"), ("c", tb, ta), (ta, ta, tb), ("c", "a", "a")]
        checked = sum(
            _check_telescopes(n, _shapes(n), line_labels, vertex_labels) for n in range(1, 7)
        )
        assert checked == 4 * 21 + 4 * 2 * 35

    def test_a_sample_at_levels_seven_and_eight_sums_to_its_plan(self) -> None:
        rng = random.Random(78)
        checked = 0
        for n in (7, 8):
            shapes = rng.sample(_shapes(n), 6)
            checked += _check_telescopes(n, shapes, [("s", "d")], [("c", "a", "b")])
        assert checked == 12


def _direct_rows(d) -> list[tuple[Poly, Poly]]:
    """Every row of the diagram in ``compile_diagram``'s order, each entry
    built on the row's own alphabets: the divided difference by ``_direct``
    and the slot difference by Poly arithmetic."""
    n, rows = d.level, []
    for e in d.edges:
        if e.tail[0] == e.head[0] == "boundary":
            hd, tl = Alphabet(e.color, e.head[1]), Alphabet(e.color, e.tail[1])
            rows += [
                (_direct("L", j, n, (hd, tl)), hd.poly(j) - tl.poly(j))
                for j in range(1, e.color + 1)
            ]
    for v in d.vertices:
        family, sign = ("Lambda", 1) if v.kind == "merge" else ("V", -1)
        edges = [d.edge_alphabet(d.edge(eid)) for eid in v.ins + v.outs]
        a, b, c = edges if v.kind == "merge" else edges[1:] + edges[:1]
        rows += [
            (_direct(family, j, n, (c, a, b)), sign * (c.poly(j) - product_term(j, a, b)))
            for j in range(1, c.color + 1)
        ]
    return rows


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
