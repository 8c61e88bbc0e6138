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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import corpus
import oracles
from moymf import (
    CutoffExceeded,
    DegreeMismatch,
    GradedVar,
    KoszulMF,
    Poly,
    QLaurent,
    QuotientRing,
    divided_difference,
    divided_difference_values,
    poincare_regular_quotient,
)
from moymf import poly_core
from moymf import reduce as reduce_module
from moymf.poly_core import (
    _apply_plan,
    _fields,
    _pack,
    _pure_terms,
    _to_plan,
    insert_pivot_row,
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


def _refusing_ring() -> QuotientRing:
    """Q[x, y, w] / (x^100 y^20, x^20 y^100): the pair of its generators
    waits at degree 400, past the packed limit 255, so the basis cannot
    complete and the ring refuses every question."""
    x, y = Poly.variable(X), Poly.variable(Y)
    return QuotientRing((X, Y, GradedVar("w", 2)), (x**100 * y**20, x**20 * y**100))


def _spy_reduced_degrees(monkeypatch) -> set[int]:
    """The degrees of every key handed to ``_Basis._reduce`` from now on."""
    handed: set[int] = set()
    reduce_ = poly_core._Basis._reduce
    monkeypatch.setattr(
        poly_core._Basis, "_reduce",
        lambda b, p: handed.update(map(poly_core._degree, p)) or reduce_(b, p),
    )
    return handed


@st.composite
def polys(draw) -> Poly:
    p = Poly.zero()
    for _ in range(draw(st.integers(0, 4))):
        exps = tuple(draw(st.integers(0, 2)) for _ in VARS)
        p = p + _mono(exps, draw(st.integers(-3, 3)))
    return p


def _homogeneous(draw, d: int) -> Poly:
    """A sum of monomials of degree d in VARS, coefficients possibly
    rational; its terms may cancel to zero.  Its degree is kept or not, as
    a row check would have left it."""
    p = Poly.zero()
    for exps in [(a, b, (d - 2 * a - 2 * b) // 4) for a in range(5) for b in range(5)]:
        if exps[2] >= 0 and 2 * exps[0] + 2 * exps[1] + 4 * exps[2] == d:
            c = draw(st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 3)]))
            p = p + _mono(exps, c)
    if p and draw(st.booleans()):
        p._homogeneous_degree()
    return p


@st.composite
def factors(draw) -> Poly:
    """A nonzero product factor: homogeneous, a product of two, a product
    whose cross terms cancel, one summed to homogeneous through cancelling
    terms, or inhomogeneous; its degree, or -1, kept or not."""
    kind = draw(st.sampled_from(["homogeneous", "product", "cancelled", "summed", "mixed"]))
    d, e = draw(st.sampled_from([0, 2, 4, 6])), draw(st.sampled_from([2, 4]))
    if kind == "homogeneous":
        p = _homogeneous(draw, d)
    elif kind == "product":
        p = _homogeneous(draw, d) * _homogeneous(draw, e)
    elif kind == "cancelled":
        f, g = _homogeneous(draw, e), _homogeneous(draw, e)
        p = (f + g) * (f - g)
    elif kind == "summed":
        q = _homogeneous(draw, e)
        p = _homogeneous(draw, d) + q * q - q * q
    else:
        p = _homogeneous(draw, d) + _homogeneous(draw, d + e)
    assume(p)
    if draw(st.booleans()):
        p._homogeneous_degree()
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
        assert 3 - p == Poly.const(3) - p and Fraction(1, 2) - p == -(p - Fraction(1, 2))

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

    @given(factors(), factors())
    def test_a_product_keeps_the_degree_a_fresh_scan_finds(self, p: Poly, q: Poly) -> None:
        dp, dq = getattr(p, "_deg", -1), getattr(q, "_deg", -1)
        prod = p * q
        degrees = set(map(poly_core._degree, prod._terms))
        fresh = degrees.pop() if len(degrees) == 1 else -1
        kept = getattr(prod, "_deg", None)
        if dp >= 0 and dq >= 0:
            assert kept == fresh == dp + dq  # born with the summed degree
        assert kept in (None, fresh)
        assert prod._homogeneous_degree() == fresh

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
        x, y, z = (Poly.variable(v) for v in VARS)
        # homogeneous, so x^3 is x's top power and divides no other monomial
        assert _pure_terms(2 * x**3 + x * y * y) == [(X, 3, 2)]
        assert set(_pure_terms(y * y + 5 * z + x * y)) == {(Y, 2, 1), (Z, 1, 5)}
        assert _pure_terms(x * y) == _pure_terms(Poly.zero()) == []
        rows = ((x, 2 * x**3 + x * y * y), (x * x, y * y + 5 * z), (x * x, x * y))
        k = KoszulMF(QuotientRing(VARS), rows, 0, 0, 8)
        cand = reduce_module.exclusion_candidate
        assert (c := cand(k, 0, frozenset())) and (c.var, c.power, c.coeff) == (X, 3, 2)
        assert cand(k, 0, frozenset({X})) is None
        # a substitution comes first, although y's name is smaller
        assert (c := cand(k, 1, frozenset())) and (c.var, c.power, c.coeff) == (Z, 1, 5)
        assert (c := cand(k, 1, frozenset({Z}))) and (c.var, c.power) == (Y, 2)
        assert cand(k, 2, frozenset()) is None

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
        raw._terms = {_pack(()): Fraction(3)}
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


class TestRefusals:
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Poly.variable(X) ** -1, ValueError, "negative power"),
            (lambda: divided_difference(Poly.variable(X), X, Z), DegreeMismatch,
             "deg x != deg z"),
            (lambda: divided_difference_values(
                Poly.variable(X), X, Poly.variable(Z), Poly.variable(X)
            ), DegreeMismatch, "slot image degree mismatch"),
        ],
        ids=["negative power", "divided difference", "divided difference values"],
    )
    def test_a_bad_operand_is_refused(self, build, error, message) -> None:
        with pytest.raises(error) as info:
            build()
        assert type(info.value) is error and str(info.value) == message


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
        with pytest.raises(ValueError, match="^duplicate variable names in ring$"):
            QuotientRing((X, GradedVar("x", 2)))
        with pytest.raises(ValueError, match="^zero ideal generator$"):
            QuotientRing((X,), (Poly.zero(),))
        with pytest.raises(ValueError, match=r"^inhomogeneous ideal generator: 1 \+ x$"):
            QuotientRing((X,), (Poly.variable(X) + Poly.const(1),))
        outside = "^ideal generator uses a variable not in the ring$"
        with pytest.raises(ValueError, match=outside):
            QuotientRing((X,), (Poly.variable(Y),))
        # a variable of a ring variable's name and another degree is another
        # variable, outside the ring
        with pytest.raises(ValueError, match=outside):
            QuotientRing((X, Y), (Poly.variable(GradedVar("x", 4)) + Poly.variable(Y) ** 2,))

    def test_a_third_argument_is_refused(self) -> None:
        # a ring has no bound of its own: a leftover one fails at once
        with pytest.raises(TypeError):
            QuotientRing((X,), (), 512)

    def test_cutoff_enforced(self) -> None:
        # the packed limit bounds the basis's work: the pair of the refusing
        # ring's generators waits at degree 400, so the basis cannot
        # complete and the ring refuses every question, in every degree
        x = Poly.variable(X)
        questions = [
            *(lambda r, d=d: r.normal_form(x**d) for d in (1, 2, 5, 10)),
            *(lambda r, d=d: r.dimension(d) for d in (0, 2, 6, 7)),
            *(lambda r, d=d: r.dimension_series(d) for d in (0, 4, 6, 7, 30)),
            lambda r: r.standard_monomials(2),
            lambda r: r.hilbert_series(),
        ]
        for ask in questions:
            ring = _refusing_ring()
            for _ in range(2):  # on first use, and after a refused call
                with pytest.raises(CutoffExceeded):
                    ask(ring)
        ring = _refusing_ring()
        for ask in questions * 2:  # after refusals of other questions
            with pytest.raises(CutoffExceeded):
                ask(ring)

    def test_a_refusal_is_decided_once(self, monkeypatch) -> None:
        ring = _refusing_ring()
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
        assert {str(e) for e in refusals} == {"S-pair degree 400 exceeds the packed limit 255"}
        # a copy leaves the refusal behind, and refuses again on its own
        copied = pickle.loads(pickle.dumps(ring))
        assert copied == ring and copied._cache == {}
        with pytest.raises(CutoffExceeded):
            copied.dimension(2)
        assert len(built) == 2

    def test_a_complete_ring_answers_above_its_cutoff(self) -> None:
        x = Poly.variable(X)
        ring = QuotientRing((X,), (x**2,))
        assert ring.normal_form(x**10) == Poly.zero()
        assert ring.normal_form(x) == x
        assert ring.dimension(10) == 0
        assert dict(ring.dimension_series(20).coeffs) == {0: 1, 2: 1}
        # a free ring is complete at once
        free = QuotientRing((X, Y))
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
        series = ring.dimension_series(200)
        assert dict(series.coeffs) == {2 * k: k + 1 for k in range(101)}

    def test_unit_ideal_is_the_zero_ring(self) -> None:
        # a constant generator leaves nothing, with or without variables
        for vars_ in ((), (X, Z)):
            ring = QuotientRing(vars_, (Poly.const(2),))
            assert not ring.dimension_series(12)
            assert ring.dimension_series(600) == QLaurent.zero()

    def test_incomplete_basis_refuses_a_cap_past_the_ring_cutoff(self, monkeypatch) -> None:
        # the refusing ring's basis cannot complete, so every cap is
        # refused; the pair of x^2*y and x*y^2 (degree 8) reduces to zero
        # and the series is exact
        handed = _spy_reduced_degrees(monkeypatch)
        ring = _refusing_ring()
        for cap in (6, 7):
            with pytest.raises(CutoffExceeded):
                ring.dimension_series(cap)
        x, y = Poly.variable(X), Poly.variable(Y)
        sx, sy, sw = sympy.symbols("x y w")
        want = oracles.weighted_quotient_dims(
            [2, 2, 2], [sx**2 * sy, sx * sy**2], [sx, sy, sw], 12
        )
        ring = QuotientRing(ring.vars, (x**2 * y, x * y**2))
        assert dict(ring.dimension_series(12).coeffs) == {d: n for d, n in want.items() if n}
        # one generator is a complete basis: any cap is exact
        single = QuotientRing(ring.vars, (x**2 * y,))
        assert single.dimension_series(30) == poincare_regular_quotient([2, 2, 2], [6], 30)
        # x^3 and y^3 leave no standard monomial past degree 8, so the
        # pairs of x^2*y^2 (degree 10) cannot add a lead and are not reduced
        handed.clear()
        finite = QuotientRing((X, Y), (x**3, y**3, x**2 * y**2))
        assert dict(finite.dimension_series(20).coeffs) == {0: 1, 2: 2, 4: 3, 6: 2}
        assert handed == {6, 8}
        # leads x*y, y^3 and x^4: the sum of (a_i - 1) deg x_i over the pure
        # powers is 10, and the pair of x*y and x^4 waits at degree 10, but
        # the quotient stops at degree 6 and the pair is not reduced
        handed.clear()
        finite = QuotientRing((X, Y), (x**3 - y**3, x * y))
        num, weights = finite.hilbert_series()
        assert dict(_expand(num, weights, 40).coeffs) == {0: 1, 2: 2, 4: 2, 6: 1}
        assert handed == {4, 6, 8}

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

    def test_artinian_series_stops_below_the_cap(self, monkeypatch) -> None:
        # Jacobi ring of x^6 + x^2 y^2 + y^3 with x(2), y(4): top degree 12.
        # No degree past 24 is reduced, so the series at cap 144 comes from
        # a Groebner basis complete by then.
        handed = _spy_reduced_degrees(monkeypatch)
        x, y = GradedVar("x", 2), GradedVar("y", 4)
        px, py = Poly.variable(x), Poly.variable(y)
        w = px**6 + px**2 * py**2 + py**3
        ring = QuotientRing((x, y), (w.differentiate(x), w.differentiate(y)))
        sx, sy = sympy.symbols("x y")
        sw = sx**6 + sx**2 * sy**2 + sy**3
        want = oracles.weighted_quotient_dims(
            [2, 4], [sympy.diff(sw, sx), sympy.diff(sw, sy)], [sx, sy], 24
        )
        small = ring.dimension_series(24)
        assert dict(small.coeffs) == {d: n for d, n in want.items() if n}
        assert small.max_exp() == 12 and small.at_one() == 10
        assert ring.dimension_series(144) == small
        assert handed and max(handed) <= 24

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
# foreign to every drawn ring, beside Y
HIGH_V = GradedVar("high_v", 2)
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


def _candidate_tuple(b: Poly, external: frozenset, gen_vars: frozenset) -> tuple | None:
    cand = reduce_module._candidate(b, external, gen_vars)
    return None if cand is None else (cand.var, cand.power, cand.coeff)


def _reference_candidate(b: Poly, external: frozenset, gen_vars: frozenset) -> tuple | None:
    """(variable, power, coefficient) of the exclusion a row with second
    entry b admits, by a search over each variable's top power."""
    terms = [(dict(m), c) for m, c in b.terms.items()]
    best = None
    for v in sorted(b.variables(), key=lambda v: v.name):
        if v in external:
            continue
        k = max(m.get(v, 0) for m, _ in terms)
        pure = [c for m, c in terms if m == {v: k}]
        if not pure or sum(m.get(v, 0) >= k for m, _ in terms) > 1:
            continue  # no term c*v^k, or v^k divides another monomial
        if k > 1 and v in gen_vars:
            continue
        if best is None or (k == 1 and best[1] > 1):
            best = (v, k, pure[0])
    return best


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

    def test_candidates_match_a_pure_power_search(self) -> None:
        """``_candidate`` against a scan of every internal variable of a
        homogeneous b, in name order, on ``Mono`` terms: its top exponent
        k, taken when c*v^k is a term and v^k divides no other monomial,
        and when k = 1 or v is in no generator; a substitution first."""
        rng = random.Random(45)
        # (b, the externals it is drawn against besides random ones)
        samples = [
            (corpus.random_homogeneous(rng, rng.sample((Y, Z), rng.randint(0, 2)) + [X], d), [])
            for d in (2, 4, 4, 6, 6, 8) for _ in range(40)
        ]
        for closed in (True, False):
            for _ in range(15):
                _, d, k = corpus.random_compiled(rng, closed=closed)
                samples += [(b, [d.external_vars()]) for _, b in k.rows if b]
        pinned = GradedVar("za", 4)
        x, z, za = Poly.variable(X), Poly.variable(Z), Poly.variable(pinned)
        # two power-1 internal variables and a power-2 one of a smaller name
        tie = x * x + 2 * za + 3 * z
        assert _candidate_tuple(tie, frozenset(), frozenset()) == (Z, 1, 3)
        assert _candidate_tuple(tie, frozenset({Z}), frozenset({Z})) == (pinned, 1, 2)
        assert _candidate_tuple(tie, frozenset({Z, pinned}), frozenset()) == (X, 2, 1)
        assert _candidate_tuple(tie, frozenset({Z, pinned}), frozenset({X})) is None
        samples.append((tie, []))
        for b, externals in samples:
            vs = sorted(b.variables())
            for external in externals + [rng.sample(vs, rng.randint(0, len(vs))) for _ in range(3)]:
                external = frozenset(external)
                gen_vars = frozenset(rng.sample(vs, rng.randint(0, len(vs))))
                want = _reference_candidate(b, external, gen_vars)
                assert _candidate_tuple(b, external, gen_vars) == want, b.render()

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
        top = x**127  # degree 254: the largest even degree a key holds
        assert top.terms == {((X, 127),): 1}
        assert (x**60 * x**67).terms == {((X, 127),): 1}
        with pytest.raises(OverflowError):
            x**128
        with pytest.raises(OverflowError):
            top * x
        with pytest.raises(OverflowError):
            top * (x + 1)
        with pytest.raises(OverflowError):
            z**32 * z**32
        # factors whose degrees a KoszulMF row check kept: no scan reads them
        y10 = Poly.variable(Y) ** 10
        k = KoszulMF(QuotientRing((X, Y)), ((x**100, y10), (y10, x**100)), 0, 0, 220)
        (a, _), (_, b) = k.rows
        assert (a._deg, b._deg) == (200, 200)
        with pytest.raises(OverflowError):
            a * b
        with pytest.raises(OverflowError):
            Poly({((X, 128),): 1})
        with pytest.raises(ValueError):
            Poly({((X, -1),): 1})
        # a Groebner basis whose S-pair would reach degree 400 forms no key
        # for it: the ring refuses
        y = Poly.variable(Y)
        ring = QuotientRing((X, Y), (x**100 * y**20, x**20 * y**100))
        with pytest.raises(CutoffExceeded, match="S-pair degree 400 exceeds the packed limit 255"):
            ring.dimension(4)
        # a variable of degree above the limit is refused when registered
        with pytest.raises(OverflowError, match="degree of big_v exceeds"):
            Poly.variable(GradedVar("big_v", 256))
        assert GradedVar("big_v", 256) not in poly_core._UNITS
        # the monomials of a degree above the limit are refused, not wrapped
        free = QuotientRing((X,))
        assert free.dimension(254) == 1 and free.standard_monomials(254) == (((X, 127),),)
        for ask in (free.dimension, free.standard_monomials, free.monomials):
            with pytest.raises(OverflowError, match="degree 256 exceeds"):
                ask(256)

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
        assert all(poly_core._unit(v).bit_length() > 120 * poly_core._BITS for v in LATE)
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


@st.composite
def mixed_rings(draw) -> QuotientRing:
    """A ring over some of the mixed variables, the others foreign to it,
    by two or three homogeneous generators of degree 2 to 6, at least two
    of them nonzero, so that S-pairs arise."""
    vs = draw(st.lists(st.sampled_from(_mixed_vars()), min_size=1, max_size=4, unique=True))
    free = QuotientRing(tuple(vs))
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        g = Poly.zero()
        for m in free.monomials(draw(st.sampled_from((2, 4, 6)))):
            g = g + Poly({m: draw(st.sampled_from((0, 0, 1, -2, Fraction(1, 3))))})
        if g:
            gens.append(g)
    assume(len(gens) >= 2)
    return QuotientRing(tuple(vs), tuple(gens))


def _full_normal_form(ring: QuotientRing, p: Poly) -> Poly:
    """normal_form with no lead test first: every term inside the ring
    through ``_Basis._reduce``, the others as they are."""
    basis = ring._basis()
    out = {m: c for m, c in p._terms.items() if m & basis.foreign}
    inside = {m: c for m, c in p._terms.items() if not m & basis.foreign}
    for m, c in basis._reduce(inside).items():
        out[m] = poly_core._coeff(c)
    return poly_core._from_clean(out)


SHUFFLED = tuple(GradedVar(f"shuffled{i}", d) for i, d in enumerate((2, 2, 4, 4, 2, 6)))


def _shuffled_vars() -> tuple[GradedVar, ...]:
    """SHUFFLED, registered in a seeded shuffle of the order they are listed in."""
    for v in random.Random(7).sample(SHUFFLED, len(SHUFFLED)):
        Poly.variable(v)
    return SHUFFLED


@st.composite
def shuffled_plans(draw) -> tuple[Poly, tuple[GradedVar, ...], tuple[GradedVar, ...]]:
    """A homogeneous polynomial over the shuffled variables, or zero; the
    templates, those variables in a drawn order; and targets, each a
    variable of its template's degree, so that two may be one."""
    vs = _shuffled_vars()
    p = Poly.zero()
    for m in QuotientRing(vs).monomials(draw(st.sampled_from([2, 4, 6, 8]))):
        p = p + Poly({m: draw(st.sampled_from([0, 0, 1, -2, Fraction(3, 2)]))})
    tvars = tuple(draw(st.permutations(vs)))
    targets = tuple(draw(st.sampled_from([w for w in vs if w.degree == t.degree])) for t in tvars)
    return p, tvars, targets


class TestStepSetUp:
    """A substitution built once for many polynomials, and the packed-key
    lead test before a normal form, answer as the unshared paths do; a
    basis kept on packed keys is a Groebner basis."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(mixed_polys(), max_size=5), mixed_substitutions())
    def test_one_substitution_equals_a_fresh_one_per_polynomial(
        self, ps: list[Poly], sigma: dict
    ) -> None:
        sub = poly_core._substitution(sigma)
        # the second round reads the images the first one kept
        for p in ps + ps:
            moved = sub(p)
            assert moved == p.substitute(sigma)
            assert Poly(moved.terms) == moved

    def test_a_polynomial_without_substituted_variables_comes_back_as_itself(self) -> None:
        x, y, z = (Poly.variable(v) for v in VARS)
        sub = poly_core._substitution({Z: x * y, X: y})
        for p in (y * y + 3, Poly.zero(), Poly.const(2), y**5):
            assert sub(p) is p
        # simultaneous: the x in the image of z stays
        assert sub(z + x * x) == x * y + y * y

    def test_a_bad_image_raises_when_the_substitution_is_built(self) -> None:
        x, y, z = (Poly.variable(v) for v in VARS)
        with pytest.raises(DegreeMismatch, match=r"^image of z \(degree 4\) has degree 2$"):
            poly_core._substitution({X: y, Z: 2 * x})
        with pytest.raises(DegreeMismatch, match=r"^image of x is inhomogeneous$"):
            poly_core._substitution({X: y + z})

    @settings(max_examples=40, deadline=None)
    @given(mixed_rings(), st.lists(mixed_polys(), min_size=1, max_size=4))
    def test_normal_form_equals_a_full_reduction(self, ring: QuotientRing, ps: list[Poly]) -> None:
        assert all(poly_core._unit(v).bit_length() > 120 * poly_core._BITS for v in LATE)
        for p in ps:
            nf = ring.normal_form(p)
            assert nf == _full_normal_form(ring, p)
            assert ring.normal_form(nf) is nf

    # more examples than elsewhere, so that many S-pairs are checked
    @settings(max_examples=200, deadline=None)
    @given(mixed_rings())
    def test_a_complete_basis_meets_buchbergers_criterion(self, ring: QuotientRing) -> None:
        basis = ring._basis()
        order = basis.order
        leads = list(basis.elements)
        exps = list(map(order, leads))
        for lead, tail in basis.elements.items():
            assert min([lead, *tail], key=order) == lead
        for i, a in enumerate(exps):
            assert not any(j != i and all(map(int.__le__, a, b)) for j, b in enumerate(exps))
        for j, b in enumerate(leads):
            for a in leads[:j]:
                assert basis._reduce(basis._s_poly(a, b)) == {}

    def test_no_lead_dividing_a_term_skips_the_reduction(self, monkeypatch) -> None:
        u, w = (Poly.variable(v) for v in LATE)
        x, z = Poly.variable(X), Poly.variable(Z)
        _mixed_vars()
        ring = QuotientRing((X,) + LATE, (u * u - x * u, w * x))
        ring.normal_form(u)  # builds the basis
        calls = []
        reduce_ = poly_core._Basis._reduce
        monkeypatch.setattr(
            poly_core._Basis, "_reduce", lambda b, p: calls.append(1) or reduce_(b, p)
        )
        # u*x and w are standard; z is foreign to the ring
        p = 3 * u * x + w + x**3 + z * w
        assert ring.normal_form(p) is p
        assert not calls
        assert ring.normal_form(p + u * u) == p + u * x
        assert calls

    def test_a_plan_refuses_a_variable_outside_its_templates(self) -> None:
        x, y, z = (Poly.variable(v) for v in VARS)
        u = Poly.variable(_mixed_vars()[2])
        p = x * y + 2 * z + u * x
        for outside, tvars in ((Y, (X, Z) + LATE), (LATE[0], VARS)):
            with pytest.raises(KeyError) as info:
                _to_plan(p, tvars)
            assert info.value.args == (outside,)
        # in any order of the templates, every exponent is read
        tvars = (LATE[0], Z, Y, X)
        assert _apply_plan(_to_plan(p, tvars), _fields(tvars)) == p

    @settings(max_examples=60, deadline=None)
    @given(shuffled_plans())
    def test_a_plan_reads_every_field_in_any_registration_order(self, drawn) -> None:
        """A plan over templates listed in another order than the registry
        holds them, applied onto the templates and onto targets of which
        some coincide."""
        p, tvars, targets = drawn
        assert [v for v in poly_core._VARS if v in SHUFFLED] != list(SHUFFLED)
        plan = _to_plan(p, tvars)
        assert _apply_plan(plan, _fields(tvars)) == p
        sigma = {t: Poly.variable(v) for t, v in zip(tvars, targets)}
        assert _apply_plan(plan, _fields(targets)) == p.substitute(sigma)


def _top_part(p: Poly, vs) -> Poly:
    """The top-degree part of p with every variable outside vs set to 1,
    or 0."""
    kept = sum(
        (Poly({tuple((v, e) for v, e in m if v in vs): c}) for m, c in p.terms.items()),
        Poly.zero(),
    )
    parts = kept.homogeneous_components()
    return parts[max(parts)] if parts else kept


def _series_verdict(ring: QuotientRing, seq: list[Poly]) -> str:
    """The regularity verdict by Hilbert numerators alone, from a basis of
    the extended ring built from scratch."""
    try:
        if not all(ring.normal_form(p) for p in seq):
            return "unverified"
        predicted = ring.hilbert_series()[0]
        joined = QuotientRing(ring.vars, ring.ideal_gens + tuple(seq))
        fresh = poly_core._Basis(joined)
    except CutoffExceeded:
        return "unverified"
    for p in seq:
        predicted = predicted - predicted.shift(p.homogeneous_degree())
    return "verified" if fresh.numerator() == predicted else "unverified"


def _check_continuation(ring: QuotientRing, seq: list[Poly], probes: list[Poly]) -> None:
    """The ring ``with_generators`` joins seq to answers as one built from
    scratch, refuses when it refuses, and the gate that adopts it gives the
    verdict of the series comparison."""
    joined = ring.with_generators(seq)
    scratch = QuotientRing(ring.vars, joined.ideal_gens)
    bases = []
    for r in (joined, scratch):
        try:
            bases.append(r._basis())
        except CutoffExceeded:
            bases.append(None)
    assert (bases[0] is None) == (bases[1] is None)
    if bases[0] is not None:
        got, fresh = bases
        assert sorted(got.elements) == sorted(fresh.elements)
        assert got.numerator() == fresh.numerator()
        assert got.top_degree() == fresh.top_degree()
        for d in range(0, 9, 2):
            assert sorted(got.standard(d)) == sorted(fresh.standard(d))
        for r in probes:
            assert joined.normal_form(r) == _full_normal_form(scratch, r)
    assert reduce_module._gate(ring, seq)[0] == _series_verdict(ring, seq)


class TestContinuedBasis:
    """Every ring that joins generators continues the complete basis of the
    ring it joins them to; the continued basis is the one built from
    scratch, in everything it answers and in refusing."""

    @settings(max_examples=150, deadline=None)
    @given(mixed_rings(), mixed_polys(), mixed_polys())
    def test_a_continued_basis_answers_as_one_built_from_scratch(
        self, drawn: QuotientRing, p: Poly, q: Poly
    ) -> None:
        full = drawn._basis()
        held = {drawn.vars[i] for m in full.elements for i, e in enumerate(full.order(m)) if e}
        unheld = [v for v in drawn.vars if v not in held]
        ring = QuotientRing(drawn.vars, drawn.ideal_gens)
        # coprime's lead shares no variable with a lead, also once a multiple
        # of a generator added to it is reduced away; shared's most often
        # shares one; multiple * gen is zero in the base
        coprime, shared = _top_part(p, unheld), _top_part(p, drawn.vars)
        multiple, gen = _top_part(q, drawn.vars), drawn.ideal_gens[0]
        if coprime and multiple and (
            multiple.homogeneous_degree() + gen.homogeneous_degree()
            == coprime.homogeneous_degree()
        ):
            coprime = coprime + multiple * gen
        kinds = [g for g in (coprime, shared, multiple * gen) if g.variables()]
        probes = [p, q, p * q, *kinds]
        pairs = [list(pair) for pair in zip(kinds, kinds[1:] + kinds[:1])]
        for seq in [[g] for g in kinds] + pairs:
            _check_continuation(ring, seq, probes)
        if shared.variables():
            # shared is a zero divisor once v * shared is joined, unless v or
            # shared is already zero there
            v = Poly.variable(drawn.vars[0])
            divided = QuotientRing(drawn.vars, drawn.ideal_gens + (v * shared,))
            _check_continuation(divided, [shared], probes)
            _check_continuation(divided, [shared, v], probes)

    @settings(max_examples=60, deadline=None)
    @given(mixed_rings(), mixed_polys(), st.integers(48, 80), st.integers(1, 47))
    def test_a_continued_basis_refuses_as_one_built_from_scratch(
        self, drawn: QuotientRing, p: Poly, a: int, b: int
    ) -> None:
        # y^a*v^b and y^b*v^a have degree 2(a + b) <= 254, and their pair
        # waits at degree 4 * max(a, b): past the packed limit from 64 on,
        # so about half the draws refuse; y and v are foreign to the drawn
        # generators, which share no pair with them
        y, v = Poly.variable(Y), Poly.variable(HIGH_V)
        first, second = y**a * v**b, y**b * v**a
        vs = drawn.vars + (Y, HIGH_V)
        base = QuotientRing(vs, drawn.ideal_gens + (first,))
        kinds = [g for g in (_top_part(p, drawn.vars),) if g.variables()]
        probes = [p, first, second, y * v]
        for seq in ([second], [second, *kinds], [*kinds, second]):
            _check_continuation(base, seq, probes)
        # with both, a base that refuses leaves the joined ring to build its own
        both = QuotientRing(vs, base.ideal_gens + (second,))
        _check_continuation(both, kinds or [y], probes)

    def test_the_gate_continues_the_base_basis_on_each_kind_of_entry(self, monkeypatch) -> None:
        built = []
        init = poly_core._Basis.__init__
        monkeypatch.setattr(
            poly_core._Basis, "__init__", lambda b, r: built.append(r) or init(b, r)
        )
        x, y, z = (Poly.variable(v) for v in VARS)
        # x^100*y^20 joined by x^20*y^100: their pair waits at degree 400
        high, late = x**100 * y**20, x**20 * y**100
        cases = [
            # (ring generators, entries, verdict)
            ((x**3,), [y * y], "verified"),
            ((x**2,), [y * y, z], "verified"),
            # y^3 reduces to x^2*y, whose lead shares y with the lead y^2
            ((y * y - x * x,), [y**3], "verified"),
            ((x * y,), [x * x], "unverified"),  # a zero divisor
            ((x * x,), [x**3], "unverified"),  # zero in the base
            # y^3 is zero once y^2 is joined
            ((x * x,), [y * y, y**3], "unverified"),
            # a ring built from scratch refuses an S-pair past the packed
            # limit, and so does the gate
            ((high,), [late], "unverified"),
        ]
        for gens, seq, verdict in cases:
            ring = QuotientRing(VARS, gens)
            ring._basis()
            built.clear()
            got, joined = reduce_module._gate(ring, seq)
            # the gate's ring continues the base's basis and builds none
            assert not built
            assert got == _series_verdict(ring, seq) == verdict
            if seq != [late]:
                assert sorted(joined._basis().elements) == sorted(
                    poly_core._Basis(QuotientRing(VARS, joined.ideal_gens)).elements
                )
        # the gate's ring past the packed limit refuses, as one built from scratch
        with pytest.raises(CutoffExceeded):
            reduce_module._gate(QuotientRing(VARS, (high,)), [late])[1]._basis()

    def test_a_coprime_lead_gate_queues_no_pair_and_derives_no_numerator(
        self, monkeypatch
    ) -> None:
        built, derived, pairs = [], [], []
        init, push = poly_core._Basis.__init__, poly_core._Basis._push
        numerator = poly_core._hilbert_numerator
        monkeypatch.setattr(
            poly_core._Basis, "__init__", lambda b, r: built.append(r) or init(b, r)
        )
        monkeypatch.setattr(
            poly_core, "_hilbert_numerator", lambda g, w: derived.append(g) or numerator(g, w)
        )

        def spy_push(b, degree: int, item: object) -> None:
            if isinstance(item, tuple):
                pairs.append(item)
            push(b, degree, item)

        monkeypatch.setattr(poly_core._Basis, "_push", spy_push)
        x, y, z = (Poly.variable(v) for v in VARS)
        for gens, seq, queued in (
            ((x**3,), [y * y], False),
            ((x**3,), [y * y, z], False),
            ((y * y - x * x,), [y**3], True),
        ):
            ring = QuotientRing(VARS, gens)
            ring.hilbert_series()
            for spy in (built, derived, pairs):
                spy.clear()
            assert reduce_module._gate(ring, seq)[0] == "verified"
            assert not built
            assert bool(pairs) == bool(derived) == queued

    def test_a_refusing_base_leaves_the_joined_ring_to_build_its_own(self) -> None:
        # the base refuses (see test_cutoff_enforced), while the ring with
        # x^3 and y^3 joined, built from scratch, completes: both reduce
        # the base's generators to zero, and w stays free
        base = _refusing_ring()
        x, y, w = (Poly.variable(v) for v in base.vars)
        answer = {0: 1, 2: 3, 4: 6, 6: 8, 8: 9, 10: 9}
        with pytest.raises(CutoffExceeded):
            base.dimension(2)
        assert dict(base.with_generators((x**3, y**3)).dimension_series(10).coeffs) == answer
        verdict, joined = reduce_module._gate(base, [x**3, y**3])
        assert verdict == "unverified"
        assert dict(joined.dimension_series(10).coeffs) == answer
        # absorption with force adopts that ring, one entry at a time: the
        # pair still waits at degree 400 once w^3 is joined, not once x^3 is
        k = KoszulMF(base, ((w**3, Poly.zero()),), 0, 0, 12)
        k = reduce_module.absorb_zero_row(k, 0, force=True)
        with pytest.raises(CutoffExceeded):
            k.base.dimension(2)
        k = KoszulMF(k.base, ((x**3, Poly.zero()),), 0, 0, 12)
        k = reduce_module.absorb_zero_row(k, 0, force=True)
        assert k.base.ideal_gens == base.ideal_gens + (w**3, x**3)
        assert k.base.dimension_series(10) == poincare_regular_quotient([2, 2, 2], [6, 6], 10)
        # a column replacement with force passes the same gate
        k = KoszulMF(base, ((x**3, Poly.zero()), (y**3, Poly.zero())), 0, 0, 12)
        with pytest.raises(reduce_module.RegularityUnverified):
            reduce_module.replace_second_sequence(k, [Poly.zero()] * 2)
        _, verdict = reduce_module.replace_second_sequence(k, [Poly.zero()] * 2, force=True)
        assert verdict == "unverified"
