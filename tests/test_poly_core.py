"""Polynomial and quotient ring layer: ring axioms, divided differences,
Groebner normal forms, and graded dimension series against brute
monomial counting."""

from __future__ import annotations

import copy
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
import oracles
from moymf import (
    CutoffExceeded,
    DegreeMismatch,
    GradedVar,
    Poly,
    QLaurent,
    QuotientRing,
    divided_difference,
    divided_difference_values,
    poincare_regular_quotient,
)
from moymf import poly_core
from moymf.poly_core import (
    _apply_plan,
    _fields,
    _pack,
    _to_plan,
    insert_pivot_row,
    pure_power,
)
from moymf.qseries import _expand

X = GradedVar("x", 2)
Y = GradedVar("y", 2)
Z = GradedVar("z", 4)
VARS = (X, Y, Z)


def _mono(exps: tuple[int, int, int], c: int | Fraction) -> Poly:
    term = Poly.const(c)
    for v, e in zip(VARS, exps):
        term = term * Poly.variable(v) ** e
    return term


@st.composite
def polys(draw) -> Poly:
    p = Poly.zero()
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, 2)) for _ in VARS)
        p = p + _mono(exps, draw(st.integers(-3, 3)))
    return p


@st.composite
def points(draw) -> dict:
    return {v: Fraction(draw(st.integers(-5, 5))) for v in VARS}


class TestPolyArithmetic:
    @given(polys(), polys(), polys())
    def test_ring_axioms(self, p: Poly, q: Poly, r: Poly) -> None:
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + Poly.zero() == p
        assert p * Poly.const(1) == p

    @given(polys(), polys(), points())
    def test_evaluate_is_a_homomorphism(self, p: Poly, q: Poly, pt: dict) -> None:
        assert (p + q).evaluate(pt) == p.evaluate(pt) + q.evaluate(pt)
        assert (p * q).evaluate(pt) == p.evaluate(pt) * q.evaluate(pt)

    @given(polys(), polys())
    def test_product_degree_adds(self, p: Poly, q: Poly) -> None:
        # restrict to the homogeneous pieces the invariant quantifies over
        for dp, hp in p.homogeneous_components().items():
            for dq, hq in q.homogeneous_components().items():
                prod = hp * hq
                if prod:
                    assert prod.homogeneous_degree() == dp + dq

    @given(polys(), polys())
    def test_differentiate_product_rule(self, p: Poly, q: Poly) -> None:
        lhs = (p * q).differentiate(X)
        rhs = p.differentiate(X) * q + p * q.differentiate(X)
        assert lhs == rhs

    def test_variable_degree_constraints(self) -> None:
        with pytest.raises(ValueError):
            GradedVar("w", 1)
        with pytest.raises(ValueError):
            GradedVar("w", 0)
        with pytest.raises(ValueError):
            GradedVar("w", -2)


@st.composite
def substitutions(draw) -> dict:
    """Homogeneous images for one to three of VARS, substituted at once.
    An image may mention kept and substituted variables, and may be 0."""
    chosen = draw(st.lists(st.sampled_from(VARS), min_size=1, max_size=3, unique=True))
    sigma = {}
    for v in chosen:
        if v.degree == 2:
            basis = [(1, 0, 0), (0, 1, 0)]
        else:
            basis = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)]
        img = Poly.zero()
        for exps in basis:
            img = img + _mono(exps, draw(st.integers(-2, 2)))
        sigma[v] = img
    return sigma


def _assert_canonical(p: Poly) -> None:
    for m in p.terms:
        names = [v.name for v, _ in m]
        assert names == sorted(set(names)), m
        assert all(e > 0 for _, e in m), m


class TestMonomialKernel:
    """Merged monomial products and per-part substitution."""

    @given(polys(), substitutions(), points())
    def test_substitute_agrees_with_evaluation(
        self, p: Poly, sigma: dict, pt: dict
    ) -> None:
        moved = {**pt, **{v: img.evaluate(pt) for v, img in sigma.items()}}
        assert p.substitute(sigma).evaluate(pt) == p.evaluate(moved)

    def test_substitute_cases(self) -> None:
        x, y, z = (Poly.variable(v) for v in VARS)
        p = x * x * y + 3 * z * y + x * y * z - 2
        # a zero image kills every term it touches
        assert p.substitute({X: Poly.zero()}) == 3 * z * y - 2
        # an image in a kept variable merges with that variable's exponent
        assert p.substitute({X: 2 * y}) == 4 * y**3 + 3 * z * y + 2 * y * y * z - 2
        # simultaneous: x and y swap rather than both becoming one variable
        assert p.substitute({X: y, Y: x}) == y * y * x + 3 * z * x + y * x * z - 2
        # several substituted parts, one of them repeated across terms
        q = x * z + y * z + x * x * z
        assert q.substitute({X: y, Z: x * y}) == 2 * x * y * y + x * y**3
        # a rename onto a variable already present merges, and may cancel
        assert (x * y - y * y + z).substitute({X: y}) == z
        # no substituted variable occurs: the very same polynomial
        r = y * z
        for sigma in ({}, {X: 3 * y}, {X: y}, {X: Poly.zero()}):
            assert r.substitute(sigma) is r

    def test_bad_images_name_their_variable(self) -> None:
        x, y, z = (Poly.variable(v) for v in VARS)
        with pytest.raises(DegreeMismatch, match=r"^image of y is inhomogeneous$"):
            x.substitute({X: y, Y: x + z})
        with pytest.raises(DegreeMismatch, match=r"^image of z \(degree 4\) has degree 2$"):
            z.substitute({Z: 2 * x})

    def test_plans_apply_onto_other_variables(self) -> None:
        """A plan applied onto the fields of other variables renames its
        template variables all at once."""
        x, y, z = (Poly.variable(v) for v in VARS)
        p = x * x * y + 3 * x * y * y - 2 * z * x
        plan = _to_plan(p, VARS)
        assert plan[0] == 6 and len(plan[1]) == 3
        # onto the template itself, and onto a swap of x and y
        assert _apply_plan(plan, _fields(VARS)) == p
        swapped = _apply_plan(plan, _fields((Y, X, Z)))
        assert swapped == p.substitute({X: y, Y: x})
        assert swapped.homogeneous_degree() == 6 and Poly(swapped.terms) == swapped
        # two targets one variable: the keys that meet are summed, and cancel
        q = x * y - y * y + z
        merged = _apply_plan(_to_plan(q, VARS), _fields((Y, Y, Z)))
        assert merged == z == q.substitute({X: y})
        assert not _apply_plan(_to_plan(x - y, VARS), _fields((Y, Y, Z)))
        # a plan holds a nonzero homogeneous polynomial
        with pytest.raises(DegreeMismatch):
            _to_plan(x + z, VARS)

    def test_conflicting_gradings_raise(self) -> None:
        x2 = Poly({((GradedVar("x", 2), 1),): 1})
        x4 = Poly({((GradedVar("x", 4), 1),): 1})
        with pytest.raises(ValueError, match="conflicting gradings"):
            x2 * x4
        # the image of z (degree 4) brings in an x of degree 4 beside x
        with pytest.raises(ValueError, match="conflicting gradings"):
            (Poly.variable(X) * Poly.variable(Z)).substitute({Z: x4})
        # a plan applied onto x and another x, of degree 4
        plan = _to_plan(Poly.variable(X) * Poly.variable(Z), (X, Z))
        with pytest.raises(ValueError, match="conflicting gradings"):
            _apply_plan(plan, _fields((X, GradedVar("x", 4))))

    def test_pure_power(self) -> None:
        v, w = Poly.variable(X), Poly.variable(Y)
        # v^2 also divides v^2*w, so v^2 is no pure power of the sum
        assert pure_power(3 * v**2 + v**2 * w, X) is None
        assert pure_power(2 * v**3 + v * w, X) == (3, 2)
        assert pure_power(w**2 + 5, X) is None

    @given(polys(), polys(), substitutions())
    def test_monomials_stay_canonical(self, p: Poly, q: Poly, sigma: dict) -> None:
        _assert_canonical(p * q)
        _assert_canonical(p.substitute(sigma))


@st.composite
def rational_polys(draw) -> Poly:
    """Like polys(), with coefficients n/d for d = 1..3, so integral and
    non-integral coefficients mix and sums can turn integral."""
    p = Poly.zero()
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, 2)) for _ in VARS)
        p = p + _mono(exps, Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 3))))
    return p


def _assert_canonical_coefficients(p: Poly) -> None:
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


class TestCoefficients:
    """A coefficient is an int when integral and a Fraction otherwise."""

    # Q[x, y] modulo generators whose leading coefficients are not units,
    # so normal forms divide
    RING = QuotientRing(
        (X, Y),
        (
            _mono((2, 0, 0), 2) + _mono((0, 2, 0), 3),
            _mono((1, 1, 0), 3) + _mono((0, 2, 0), 1),
        ),
    )

    @given(rational_polys(), rational_polys(), substitutions(), st.integers(0, 3))
    def test_every_operation_keeps_coefficients_canonical(
        self, p: Poly, q: Poly, sigma: dict, n: int
    ) -> None:
        halved = {v: img * Fraction(1, 2) for v, img in sigma.items()}
        flat = p.substitute({Z: Poly.const(0)})
        for r in (
            p + q, p - q, -p, p * q, p**n, p * Fraction(3, 2), 2 * p,
            p.substitute(halved), p.differentiate(X), self.RING.normal_form(flat),
        ):
            _assert_canonical_coefficients(r)

    def test_integral_fractions_become_ints(self) -> None:
        assert type(Poly.const(Fraction(6, 3)).coefficient(())) is int
        p = _mono((1, 0, 0), Fraction(1, 2))
        assert type((p + p).coefficient(((X, 1),))) is int
        assert type((p * 2).coefficient(((X, 1),))) is int
        assert type((p * p * 4).coefficient(((X, 2),))) is int

    def test_floats_are_refused(self) -> None:
        p = Poly.variable(X)
        with pytest.raises(TypeError):
            Poly({((X, 1),): 0.5})
        with pytest.raises(TypeError):
            Poly.const(0.5)
        with pytest.raises(TypeError):
            p * 0.5
        with pytest.raises(TypeError):
            0.5 * p

    def test_int_and_fraction_forms_agree(self) -> None:
        # one value, one rendering and one hash, whichever type stores it
        three = Poly.const(3)
        raw = Poly.__new__(Poly)
        raw._terms, raw._hash = {_pack(()): Fraction(3)}, None
        assert three == raw and hash(three) == hash(raw)
        assert three.render() == raw.render() == "3"

    def test_evaluate_returns_a_fraction(self) -> None:
        assert type(Poly.const(3).evaluate({})) is Fraction
        assert type(Poly.zero().evaluate({})) is Fraction
        assert type(Poly.variable(X).evaluate({X: 2})) is Fraction

    def test_pivot_row_is_divided_exactly(self) -> None:
        pivots: dict = {}
        insert_pivot_row({0: 3, 1: 1, 2: 6}, pivots)
        assert pivots == {0: {1: Fraction(1, 3), 2: 2}}
        assert type(pivots[0][2]) is int


class TestDividedDifference:
    @given(polys())
    def test_exactness(self, f: Poly) -> None:
        # dd(f,x,y)*(x - y) + f[x -> y] = f, the defining identity
        dd = divided_difference(f, X, Y)
        sub = f.substitute({X: Poly.variable(Y)})
        recovered = dd * (Poly.variable(X) - Poly.variable(Y)) + sub
        assert recovered == f

    @given(
        polys(),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
        st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    )
    def test_value_form_exactness(self, f: Poly, ca: tuple, cb: tuple) -> None:
        # slot images must stay homogeneous of the slot degree
        a = _mono((1, 0, 0), ca[0]) + _mono((0, 1, 0), ca[1])
        b = _mono((1, 0, 0), cb[0]) + _mono((0, 1, 0), cb[1])
        dd = divided_difference_values(f, X, a, b)
        diff = f.substitute({X: a}) - f.substitute({X: b})
        assert dd * (a - b) == diff

    def test_symmetric_input_has_zero_difference(self) -> None:
        f = _mono((1, 1, 0), 1) + _mono((2, 0, 0), 1) + _mono((0, 2, 0), 1)
        assert divided_difference(f, X, Y) * (
            Poly.variable(X) - Poly.variable(Y)
        ) + f.substitute({X: Poly.variable(Y)}) == f


class TestQuotientRing:
    def setup_method(self) -> None:
        gens = (_mono((2, 0, 0), 1) + _mono((0, 2, 0), 1), _mono((1, 1, 0), 1))
        self.ring = QuotientRing((X, Y), gens)

    @given(polys())
    def test_normal_form_is_a_projection(self, p: Poly) -> None:
        p = p.substitute({Z: Poly.const(0)})  # stay inside Q[x, y]
        nf = self.ring.normal_form
        assert nf(nf(p)) == nf(p)

    @given(polys(), polys())
    def test_normal_form_respects_addition(self, p: Poly, q: Poly) -> None:
        p = p.substitute({Z: Poly.const(0)})
        q = q.substitute({Z: Poly.const(0)})
        nf = self.ring.normal_form
        assert nf(p + q) == nf(nf(p) + nf(q))
        assert nf(p * q) == nf(nf(p) * nf(q))

    def test_dimension_series_frozen_instance(self) -> None:
        # dims of Q[x,y]/<x^2+y^2, x*y> counted by brute monomial algebra
        series = self.ring.dimension_series(10)
        assert dict(series.coeffs) == {0: 1, 2: 2, 4: 1}

    def test_dimension_series_frozen_mixed_weights(self) -> None:
        # Q[x(2), z(4)] / <x*z - x^3>
        ring = QuotientRing((X, Z), (_mono((1, 0, 1), 1) - _mono((3, 0, 0), 1),))
        series = ring.dimension_series(12)
        assert dict(series.coeffs) == {0: 1, 2: 1, 4: 2, 6: 1, 8: 2, 10: 1, 12: 2}

    def test_dimension_series_frozen_three_vars(self) -> None:
        # Q[x(2), y(2), z(4)] / <x^2 - z, y^3>
        ring = QuotientRing(
            (X, Y, Z),
            (_mono((2, 0, 0), 1) - _mono((0, 0, 1), 1), _mono((0, 3, 0), 1)),
        )
        series = ring.dimension_series(12)
        assert dict(series.coeffs) == {
            0: 1, 2: 2, 4: 3, 6: 3, 8: 3, 10: 3, 12: 3,
        }

    def test_dimension_series_against_monomial_counting(self) -> None:
        # three random monomial-power ideals, always regular sequences
        rng = random.Random(2026)
        sx, sy, sz = sympy.symbols("x y z")
        for _ in range(3):
            ex, ey = rng.randint(1, 3), rng.randint(1, 3)
            gens = (_mono((ex, 0, 0), 1), _mono((0, ey, 0), 1))
            ring = QuotientRing((X, Y), gens)
            got = ring.dimension_series(14)
            want = oracles.weighted_quotient_dims(
                [2, 2], [sx**ex, sy**ey], [sx, sy], 14
            )
            for d in range(15):
                assert got.coeff(d) == want[d], (ex, ey, d)

    def test_regular_sequence_series_matches_prediction(self) -> None:
        # P(R/<seq>) = P(R) * prod(1 - q^{d_i}) for a regular sequence
        ring = QuotientRing(
            (X, Y, Z), (_mono((2, 0, 0), 1) + _mono((0, 0, 1), 3),)
        )
        got = ring.dimension_series(16)
        want = poincare_regular_quotient([2, 2, 4], [4], 16)
        assert got == want

    def test_two_alphabet_difference_ideal(self) -> None:
        # two rank-2 alphabets glued by their difference ideal: the series
        # drops by (1-q^2)(1-q^4) exactly
        x2, y2 = GradedVar("x2", 4), GradedVar("y2", 4)
        x1, y1 = GradedVar("x1", 2), GradedVar("y1", 2)
        gens = (
            Poly.variable(x1) - Poly.variable(y1),
            Poly.variable(x2) - Poly.variable(y2),
        )
        ring = QuotientRing((x1, x2, y1, y2), gens)
        got = ring.dimension_series(16)
        want = poincare_regular_quotient([2, 4, 2, 4], [2, 4], 16)
        assert got == want

    def test_construction_rejections(self) -> None:
        with pytest.raises(ValueError):
            QuotientRing((X, GradedVar("x", 2)))  # duplicate names
        with pytest.raises(ValueError):
            QuotientRing((X,), (Poly.zero(),))
        with pytest.raises(ValueError):
            QuotientRing((X,), (Poly.variable(X) + Poly.const(1),))
        with pytest.raises(ValueError):
            QuotientRing((X,), (Poly.variable(Y),))

    def test_cutoff_enforced(self) -> None:
        # the cutoff bounds the basis's work: the pair of x^2*y and x*y^2
        # waits at degree 8, past the cutoff of 6, so the basis cannot
        # complete and the ring refuses every question, in every degree
        x, y = Poly.variable(X), Poly.variable(Y)
        gens = (x**2 * y, x * y**2)
        questions = [
            *(lambda r, d=d: r.normal_form(x**d) for d in (1, 2, 5, 10)),
            *(lambda r, d=d: r.dimension(d) for d in (0, 2, 6, 7)),
            *(lambda r, d=d: r.dimension_series(d) for d in (0, 4, 6, 7, 30)),
            lambda r: r.standard_monomials(2),
            lambda r: r.hilbert_series(),
        ]
        for ask in questions:
            ring = QuotientRing((X, Y, GradedVar("w", 2)), gens, cutoff=6)
            for _ in range(2):  # on first use, and after a refused call
                with pytest.raises(CutoffExceeded):
                    ask(ring)
        ring = QuotientRing((X, Y, GradedVar("w", 2)), gens, cutoff=6)
        for ask in questions * 2:  # after refusals of other questions
            with pytest.raises(CutoffExceeded):
                ask(ring)

    def test_a_refusal_is_decided_once(self, monkeypatch) -> None:
        x, y = Poly.variable(X), Poly.variable(Y)
        ring = QuotientRing((X, Y, GradedVar("w", 2)), (x**2 * y, x * y**2), cutoff=6)
        built = []
        init = poly_core._Basis.__init__
        monkeypatch.setattr(
            poly_core._Basis, "__init__", lambda b, r: built.append(r) or init(b, r)
        )
        refusals = []
        for _ in range(10):
            with pytest.raises(CutoffExceeded) as refused:
                ring.dimension(2)
            refusals.append(refused.value)
        assert len(built) == 1
        assert len({id(e) for e in refusals}) == 10
        assert {str(e) for e in refusals} == {"Groebner basis not complete by ring cutoff 6"}
        # a copy leaves the refusal behind, and refuses again on its own
        copied = pickle.loads(pickle.dumps(ring))
        assert copied == ring and copied._cache == {}
        with pytest.raises(CutoffExceeded):
            copied.dimension(2)
        assert len(built) == 2

    def test_a_complete_ring_answers_above_its_cutoff(self) -> None:
        x = Poly.variable(X)
        ring = QuotientRing((X,), (x**2,), cutoff=6)
        assert ring.normal_form(x**10) == Poly.zero()
        assert ring.normal_form(x) == x
        assert ring.dimension(10) == 0
        assert dict(ring.dimension_series(20).coeffs) == {0: 1, 2: 1}
        # a free ring is complete at once, whatever its cutoff
        free = QuotientRing((X, Y), cutoff=2)
        assert free.dimension(8) == 5
        assert free.normal_form(x**7) == x**7


def _sym(p: Poly, syms: dict) -> sympy.Expr:
    out = sympy.Integer(0)
    for m, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in m:
            term *= syms[v] ** e
        out += term
    return out


class TestGroebnerSeries:
    """The dimension series from the leads of a Groebner basis, against
    sympy ranks and the ring's count of standard monomials."""

    def test_random_ideals_against_both_oracles(self) -> None:
        rng = random.Random(2028)
        syms = dict(zip(VARS, sympy.symbols("x y z")))
        weights = [v.degree for v in VARS]
        x, y, z = (Poly.variable(v) for v in VARS)
        ideals = [
            (x**2 + 3 * z, y**3 - 2 * y * z),  # a monic tower in x and y
            (z**2 + x**2 * y**2 - x * y * z,),  # one generator, monic in z
        ]
        for _ in range(10):
            gens = []
            for _ in range(rng.randint(1, 3)):
                monos = oracles.weighted_monomials(weights, rng.choice((4, 6, 8)))
                g = Poly.zero()
                for exps in rng.sample(monos, min(len(monos), rng.randint(1, 4))):
                    g = g + _mono(exps, rng.choice((-3, -1, Fraction(1, 2), 1, 2)))
                gens.append(g)
            ideals.append(tuple(gens))
        for gens in ideals:
            ring = QuotientRing(VARS, gens)
            want = oracles.weighted_quotient_dims(
                weights, [_sym(g, syms) for g in gens], list(syms.values()), 16
            )
            series = ring.dimension_series(16)
            assert [series.coeff(d) for d in range(17)] == [want[d] for d in range(17)]
            assert [ring.dimension(d) for d in range(17)] == [want[d] for d in range(17)]

    def test_counter_bubble_ring_is_two_free_variables(self) -> None:
        # the reduced counter_bubble (1,2,3) base: x2 and x1_i are both
        # eliminated, which leaves Q[x1_bin, x1_bout]
        bin_, bout = GradedVar("x1_bin", 2), GradedVar("x1_bout", 2)
        x1, x2 = GradedVar("x1_i.zl", 2), GradedVar("x2_i.zl", 4)
        pb, po, p1, p2 = (Poly.variable(v) for v in (bin_, bout, x1, x2))
        half = Fraction(1, 2)
        g = -3 * half * pb * p1 - pb**2 + half * po * p1 - p1**2 + p2
        ring = QuotientRing((bin_, bout, x1, x2), (g, pb + p1))
        assert ring.cutoff == 512
        series = ring.dimension_series(200)
        assert dict(series.coeffs) == {2 * k: k + 1 for k in range(101)}

    def test_unit_ideal_is_the_zero_ring(self) -> None:
        # a constant generator leaves nothing, with or without variables
        for vars_ in ((), (X, Z)):
            ring = QuotientRing(vars_, (Poly.const(2),))
            assert not ring.dimension_series(12)
            assert ring.dimension_series(600) == QLaurent.zero()

    def test_incomplete_basis_refuses_a_cap_past_the_ring_cutoff(self) -> None:
        # the pair of x^2*y and x*y^2 has degree 8, past the ring's cutoff
        # of 6, so the basis cannot complete and every cap is refused; at
        # cutoff 8 that pair reduces to zero and the series is exact
        x, y = Poly.variable(X), Poly.variable(Y)
        ring = QuotientRing((X, Y, GradedVar("w", 2)), (x**2 * y, x * y**2), cutoff=6)
        for cap in (6, 7):
            with pytest.raises(CutoffExceeded):
                ring.dimension_series(cap)
        sx, sy, sw = sympy.symbols("x y w")
        want = oracles.weighted_quotient_dims(
            [2, 2, 2], [sx**2 * sy, sx * sy**2], [sx, sy, sw], 12
        )
        ring = QuotientRing(ring.vars, ring.ideal_gens, cutoff=8)
        assert dict(ring.dimension_series(12).coeffs) == {d: n for d, n in want.items() if n}
        # one generator is a complete basis: any cap is exact
        single = QuotientRing(ring.vars, (x**2 * y,), cutoff=6)
        assert single.dimension_series(30) == poincare_regular_quotient([2, 2, 2], [6], 30)
        # x^3 and y^3 leave no standard monomial past degree 8, so the
        # pairs of x^2*y^2 (degree 10) cannot add a lead and are not needed
        finite = QuotientRing((X, Y), (x**3, y**3, x**2 * y**2), cutoff=8)
        assert dict(finite.dimension_series(20).coeffs) == {0: 1, 2: 2, 4: 3, 6: 2}
        # leads x*y, y^3 and x^4: the sum of (a_i - 1) deg x_i over the pure
        # powers is 10, and the pair of x*y and x^4 waits at degree 10, past
        # the cutoff, but the quotient stops at degree 6
        finite = QuotientRing((X, Y), (x**3 - y**3, x * y), cutoff=8)
        num, weights = finite.hilbert_series()
        assert dict(_expand(num, weights, 40).coeffs) == {0: 1, 2: 2, 4: 2, 6: 1}

    def test_top_degree_against_the_oracle(self) -> None:
        # Artinian: pure powers of x, y and z plus random generators, which
        # push the top below the pure-power estimate.  Not Artinian: every
        # generator is a multiple of x, so no power of y is in the ideal.
        rng = random.Random(2031)
        syms = {v: sympy.Symbol(v.name) for v in VARS}
        weights = [v.degree for v in VARS]
        for trial in range(12):
            artinian = trial < 8
            gens = []
            for _ in range(rng.randint(1, 3)):
                monos = oracles.weighted_monomials(weights, rng.choice((4, 6)))
                g = Poly.zero()
                for exps in rng.sample(monos, min(len(monos), rng.randint(1, 3))):
                    g = g + _mono(exps, rng.choice((-2, -1, Fraction(1, 2), 1, 3)))
                gens.append(g if artinian else g * Poly.variable(X))
            if artinian:
                powers = (rng.randint(2, 3), rng.randint(2, 3), rng.randint(1, 2))
                gens += [_mono(tuple(e if k == i else 0 for k in range(3)), 1)
                         for i, e in enumerate(powers)]
            ring = QuotientRing(VARS, tuple(g for g in gens if g))
            top = ring._basis().top_degree()
            if not artinian:
                assert top == float("inf"), gens
                continue
            want = oracles.weighted_quotient_dims(
                weights, [_sym(g, syms) for g in ring.ideal_gens], list(syms.values()), 14
            )
            assert top == max(d for d, n in want.items() if n), gens


class TestGroebnerNormalForms:
    """Normal forms and standard monomials against sympy's grevlex Groebner
    basis.  Every variable has degree 2, so the ring's weighted degree is
    twice sympy's total degree; sympy ranks its first generator largest,
    the ring ranks vars[0] smallest, so sympy gets the variables reversed.
    The ring order (w, u, v) is not name order, so names cannot decide."""

    VARS = (GradedVar("w", 2), GradedVar("u", 2), GradedVar("v", 2))

    def test_random_ideals_against_sympy(self) -> None:
        rng = random.Random(2029)
        syms = {v: sympy.Symbol(v.name) for v in self.VARS}
        gens_sym = [syms[v] for v in reversed(self.VARS)]
        free = QuotientRing(self.VARS)

        def random_poly(degrees: tuple[int, ...], terms: int) -> Poly:
            p = Poly.zero()
            for d in degrees:
                for m in rng.sample(free.monomials(d), min(terms, len(free.monomials(d)))):
                    p = p + Poly({m: rng.choice((-3, -1, Fraction(1, 2), 1, 2))})
            return p

        checked = 0
        for _ in range(12):
            gens = tuple(
                random_poly((rng.choice((4, 6)),), rng.randint(1, 4))
                for _ in range(rng.randint(1, 3))
            )
            gens = tuple(g for g in gens if g)
            ring = QuotientRing(self.VARS, gens)
            basis = sympy.groebner([_sym(g, syms) for g in gens], *gens_sym, order="grevlex")
            for _ in range(4):
                f = random_poly((4, 6, 8), 3)
                _, want = sympy.reduced(_sym(f, syms), list(basis.exprs), *gens_sym, order="grevlex")
                nf = ring.normal_form(f)
                assert sympy.expand(_sym(nf, syms) - want) == 0, (gens, f)
                # no lead divides a term of a normal form: it comes back as itself
                assert ring.normal_form(nf) is nf
            leads = [sympy.Poly(g, *gens_sym).monoms(order="grevlex")[0] for g in basis.exprs]
            for d in range(0, 11, 2):
                want_std = {
                    m for m in free.monomials(d)
                    if not any(
                        all(a >= b for a, b in zip(self._exps(m), lead)) for lead in leads
                    )
                }
                assert set(ring.standard_monomials(d)) == want_std, (gens, d)
                assert ring.dimension(d) == len(want_std)
                checked += 1
        assert checked == 72

    def _exps(self, m) -> tuple[int, ...]:
        got = dict(m)
        return tuple(got.get(v, 0) for v in reversed(self.VARS))


class TestMacaulayKernel:
    """Dimensions, normal forms and the dimension series, against sympy
    ranks of the Macaulay matrix."""

    def test_random_ideals_against_macaulay_rank(self) -> None:
        rng = random.Random(2027)
        syms = list(sympy.symbols("x y z"))
        weights = [v.degree for v in VARS]
        checked = 0
        while checked < 6:
            gens, gens_sym = [], []
            for _ in range(rng.randint(2, 3)):
                monos = oracles.weighted_monomials(weights, rng.choice((4, 6)))
                g, g_sym = Poly.zero(), sympy.Integer(0)
                for exps in rng.sample(monos, min(len(monos), rng.randint(2, 3))):
                    c = rng.choice((-3, -2, -1, 1, 2, 3))
                    g = g + _mono(exps, c)
                    g_sym += c * sympy.Mul(*(s**e for s, e in zip(syms, exps)))
                gens.append(g)
                gens_sym.append(g_sym)
            ring = QuotientRing(VARS, tuple(gens))
            checked += 1
            want = oracles.weighted_quotient_dims(weights, gens_sym, syms, 16)
            assert [ring.dimension(d) for d in range(17)] == [
                want[d] for d in range(17)
            ], gens_sym
            series = ring.dimension_series(16)
            assert dict(series.coeffs) == {d: n for d, n in want.items() if n}
            for g in gens:
                for exps in ((0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 1, 0)):
                    assert not ring.normal_form(_mono(exps, 1) * g)

    def test_pivot_ranks_against_sympy(self) -> None:
        # the rank kernel of ``homology``: random sparse Fraction rows, some
        # of them combinations of earlier rows so that reductions cancel
        rng = random.Random(2033)
        for _ in range(40):
            width = rng.randint(1, 9)
            rows: list[list[Fraction]] = []
            for _ in range(rng.randint(1, 10)):
                if len(rows) > 1 and rng.random() < 0.3:
                    a, b = rng.sample(rows, 2)
                    c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                    rows.append([p + c * q for p, q in zip(a, b)])
                else:
                    rows.append([
                        Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                        if rng.random() < 0.35 else Fraction(0)
                        for _ in range(width)
                    ])
            pivots: dict = {}
            for row in rows:
                insert_pivot_row({k: c for k, c in enumerate(row) if c}, pivots)
            want = sympy.Matrix(
                [[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows]
            ).rank()
            assert len(pivots) == want, rows
            assert all(q > p for p, tail in pivots.items() for q in tail)

    def test_zero_run_shorter_than_vmax_does_not_stop(self) -> None:
        # Q[x(2), y(6)] / <x^2, x*y> is zero in degrees 3, 4 and 5, but y
        # lives in degree 6, so the series goes on past that zero run
        x, y = GradedVar("x", 2), GradedVar("y", 6)
        px, py = Poly.variable(x), Poly.variable(y)
        ring = QuotientRing((x, y), (px**2, px * py))
        sx, sy = sympy.symbols("x y")
        want = oracles.weighted_quotient_dims([2, 6], [sx**2, sx * sy], [sx, sy], 24)
        assert want[3] == want[4] == want[5] == 0
        series = ring.dimension_series(24)
        assert dict(series.coeffs) == {d: n for d, n in want.items() if n}
        assert dict(series.coeffs) == {0: 1, 2: 1, 6: 1, 12: 1, 18: 1, 24: 1}

    def test_artinian_series_stops_below_the_cap(self) -> None:
        # Jacobi ring of x^6 + x^2 y^2 + y^3 with x(2), y(4): top degree 12.
        # The ring refuses degrees past 24, so the series at cap 144 can
        # only succeed because the Groebner basis is complete by then.
        x, y = GradedVar("x", 2), GradedVar("y", 4)
        px, py = Poly.variable(x), Poly.variable(y)
        w = px**6 + px**2 * py**2 + py**3
        ring = QuotientRing(
            (x, y), (w.differentiate(x), w.differentiate(y)), cutoff=24
        )
        sx, sy = sympy.symbols("x y")
        sw = sx**6 + sx**2 * sy**2 + sy**3
        want = oracles.weighted_quotient_dims(
            [2, 4], [sympy.diff(sw, sx), sympy.diff(sw, sy)], [sx, sy], 24
        )
        small = ring.dimension_series(24)
        assert dict(small.coeffs) == {d: n for d, n in want.items() if n}
        assert small.max_exp() == 12 and small.at_one() == 10
        assert ring.dimension_series(144) == small

    def test_normal_form_passes_foreign_variables_through(self) -> None:
        # w is not a variable of the ring: terms mentioning it are returned
        # as they are, the rest is reduced
        w = Poly.variable(GradedVar("w", 2))
        gens = (_mono((2, 0, 0), 1) + _mono((0, 2, 0), 1), _mono((1, 1, 0), 1))
        ring = QuotientRing((X, Y), gens)
        inside = _mono((0, 2, 0), 2) + _mono((1, 1, 0), 3) + _mono((1, 0, 0), 1)
        foreign = w * _mono((1, 1, 0), 1) + w**2 - w
        got = ring.normal_form(inside + foreign)
        assert got == ring.normal_form(inside) + foreign
        assert ring.normal_form(inside) == _mono((2, 0, 0), -2) + _mono((1, 0, 0), 1)


# Packed only after a run of fillers, so their exponents sit in high fields
# of the key, far above those of X, Y and Z.
LATE = (GradedVar("late_u", 2), GradedVar("late_w", 4))
SYMS = {v: sympy.Symbol(v.name) for v in VARS + LATE}


def _mixed_vars() -> tuple[GradedVar, ...]:
    for i in range(120):
        Poly.variable(GradedVar(f"filler{i}", 2))
    return (X, Z) + LATE


@st.composite
def mixed_polys(draw) -> Poly:
    p = Poly.zero()
    for _ in range(draw(st.integers(0, 4))):
        term = Poly.const(Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3))))
        for v in _mixed_vars():
            term = term * Poly.variable(v) ** draw(st.integers(0, 3))
        p = p + term
    return p


@st.composite
def mixed_substitutions(draw) -> dict:
    """Homogeneous images, of each replaced variable's degree, over the
    mixed variables, for one to three of them at once."""
    vs = _mixed_vars()
    sigma = {}
    for v in draw(st.lists(st.sampled_from(vs), min_size=1, max_size=3, unique=True)):
        img = Poly.zero()
        for m in QuotientRing(vs).monomials(v.degree):
            img = img + Poly({m: draw(st.integers(-2, 2))})
        sigma[v] = img
    return sigma


@st.composite
def mixed_renamings(draw) -> dict:
    """Variable images of the replaced variable's degree, among the mixed
    variables: onto a variable that stays, into a cycle, or a swap."""
    vs = _mixed_vars()
    sigma = {}
    for v in draw(st.lists(st.sampled_from(vs), min_size=1, max_size=3, unique=True)):
        sigma[v] = Poly.variable(draw(st.sampled_from([w for w in vs if w.degree == v.degree])))
    return sigma


# Run in a fresh interpreter: register the variables of the samples in
# another order, load the pickled samples, and compare them with samples
# rebuilt there.
_CHILD = """
import pickle, sys
import corpus
from moymf import GradedVar, Poly, poly_core
names, keys, blob = pickle.loads(sys.stdin.buffer.read())
for i in range(7):
    Poly.variable(GradedVar(f"filler{i}", 2))
for name, degree in names:
    Poly.variable(GradedVar(name, degree))
assert any(poly_core._unit(GradedVar(*nd)) != keys[nd] for nd in names)
poly, ring, mf = pickle.loads(blob)
rebuilt = corpus.pickle_samples()
assert (poly, ring, mf) == rebuilt
assert hash(poly) == hash(rebuilt[0])
assert ring.normal_form(poly) == rebuilt[1].normal_form(rebuilt[0])
assert ring.dimension_series(12) == rebuilt[1].dimension_series(12)
assert mf.potential() == rebuilt[2].potential()
print("ok")
"""


class TestKeyHelpers:
    """The key-level reads the reduction calculus makes of row entries."""

    def test_lead_quotient_divides_field_by_field(self) -> None:
        x, y, z = (Poly.variable(v) for v in VARS)
        lead = poly_core._lead_quotient
        assert lead(6 * x * x * y * z, 2 * x * z) == 3 * x * y
        assert lead((x + y) * 3 * x * z, x + y) == 3 * x * z
        assert lead(x * z * z, y) is None
        assert lead(x, z * z) is None
        assert lead(x * y, y * y) is None
        assert lead(Poly.zero(), x) is None and lead(x, Poly.zero()) is None

    def test_by_monomial_groups_terms_by_their_part_in_the_mask(self) -> None:
        x, y, z = (Poly.variable(v) for v in VARS)
        p = x * y * z + 2 * x * x * z + y * z + x * x + 5 * z * z
        groups = dict(poly_core._by_monomial(p, poly_core._outside([X, Y])))
        assert groups == {z: x * y + 2 * x * x + y, Poly.const(1): x * x, z * z: Poly.const(5)}

    def test_power_vars_hold_every_pure_power(self) -> None:
        x, y, z = (Poly.variable(v) for v in VARS)
        assert set(poly_core._power_vars(x * x + x * y + 3 * z)) == {X, Z}
        assert poly_core._power_vars(x * y + Poly.const(2)) == []
        for p in (x**3 + x * y * y + z * y, y * y + x * y, z * z + z * x * x):
            found = poly_core._power_vars(p)
            assert all(pure_power(p, v) is None or v in found for v in VARS)

    def test_homogeneous_degree_is_kept_and_still_refuses(self) -> None:
        x, z = Poly.variable(X), Poly.variable(Z)
        p = x * x + z
        assert p.is_homogeneous() and p.homogeneous_degree() == 4 == p.homogeneous_degree()
        q = x + z
        assert not q.is_homogeneous() and not q.is_homogeneous()
        with pytest.raises(DegreeMismatch):
            q.homogeneous_degree()
        assert Poly.zero().is_homogeneous()
        with pytest.raises(DegreeMismatch):
            Poly.zero().homogeneous_degree()
        assert pickle.loads(pickle.dumps(p)).homogeneous_degree() == 4


class TestPackedKeys:
    """Monomials packed into one int: overflow, copies across processes,
    and arithmetic against sympy."""

    def test_overflow_raises_and_never_wraps(self) -> None:
        x, z = Poly.variable(X), Poly.variable(Z)
        top = x**16383  # degree 32766: the largest even degree a key holds
        assert top.terms == {((X, 16383),): 1}
        assert (x**8000 * x**8383).terms == {((X, 16383),): 1}
        with pytest.raises(OverflowError):
            x**16384
        with pytest.raises(OverflowError):
            top * x
        with pytest.raises(OverflowError):
            top * (x + 1)
        with pytest.raises(OverflowError):
            z**4096 * z**4096
        with pytest.raises(OverflowError):
            Poly({((X, 16384),): 1})
        with pytest.raises(ValueError):
            Poly({((X, -1),): 1})

    def test_pickle_loads_in_a_process_that_packs_in_another_order(self) -> None:
        samples = corpus.pickle_samples()
        poly, ring, mf = samples
        found = poly.variables() | set(ring.vars) | set(mf.base.vars)
        names = sorted(((v.name, v.degree) for v in found), reverse=True)
        keys = {(v.name, v.degree): poly_core._unit(v) for v in found}
        root = Path(__file__).resolve().parent
        env = dict(
            os.environ,
            PYTHONHASHSEED="random",
            PYTHONPATH=os.pathsep.join([str(root.parent / "src"), str(root)]),
        )
        child = subprocess.run(
            [sys.executable, "-c", _CHILD],
            input=pickle.dumps((names, keys, pickle.dumps(samples))),
            capture_output=True,
            env=env,
            timeout=120,
        )
        assert child.returncode == 0, child.stderr.decode()
        assert child.stdout.decode().strip() == "ok"

    def test_deepcopy_round_trips(self) -> None:
        samples = corpus.pickle_samples()
        poly, ring, mf = copied = copy.deepcopy(samples)
        assert copied == samples
        assert ring.normal_form(poly) == samples[1].normal_form(samples[0])
        assert mf.potential() == samples[2].potential()

    @settings(max_examples=40, deadline=None)
    @given(mixed_polys(), mixed_polys(), st.integers(0, 3), mixed_substitutions())
    def test_arithmetic_against_sympy(self, p: Poly, q: Poly, n: int, sigma: dict) -> None:
        assert all(poly_core._unit(v).bit_length() > 120 * 16 for v in LATE)
        sp = _sym(p, SYMS)
        product, power, moved = p * q, p**n, p.substitute(sigma)
        assert sympy.expand(_sym(product, SYMS) - sp * _sym(q, SYMS)) == 0
        assert sympy.expand(_sym(power, SYMS) - sp**n) == 0
        images = {SYMS[v]: _sym(img, SYMS) for v, img in sigma.items()}
        want = sp.subs(images, simultaneous=True)
        assert sympy.expand(_sym(moved, SYMS) - want) == 0
        results = [product, power, moved]
        for v in _mixed_vars():
            sv = SYMS[v]
            derivative = p.differentiate(v)
            assert sympy.expand(_sym(derivative, SYMS) - sympy.diff(sp, sv)) == 0
            parts = p.coefficients_in(v)
            results += [derivative, *parts.values()]
            assert all(c and v not in c.variables() for c in parts.values())
            got = {k: sympy.expand(_sym(c, SYMS)) for k, c in parts.items()}
            flat = sympy.expand(sp)
            degree = sympy.degree(flat, sv) if flat != 0 else -1
            want_parts = {k: flat.coeff(sv, k) for k in range(degree + 1)}
            assert got == {k: c for k, c in want_parts.items() if c != 0}
        # every key, degree field included, is the one its terms pack to
        assert all(Poly(r.terms) == r for r in results)

    @settings(max_examples=40, deadline=None)
    @given(mixed_polys(), mixed_renamings())
    def test_renaming_against_sympy(self, p: Poly, sigma: dict) -> None:
        """Variable-only images, through ``substitute`` and through a plan
        of each homogeneous component applied onto the renamed variables:
        onto a variable present, cycles, swaps."""
        pairs = {v: next(iter(img.variables())) for v, img in sigma.items()}
        images = {SYMS[v]: SYMS[w] for v, w in pairs.items()}
        want = _sym(p, SYMS).subs(images, simultaneous=True)
        vs = _mixed_vars()
        targets = _fields(pairs.get(v, v) for v in vs)
        planned = sum(
            (_apply_plan(_to_plan(c, vs), targets) for c in p.homogeneous_components().values()),
            Poly.zero(),
        )
        for moved in (p.substitute(sigma), planned):
            assert sympy.expand(_sym(moved, SYMS) - want) == 0
            assert Poly(moved.terms) == moved
