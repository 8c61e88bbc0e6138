"""Homology, Euler characteristics, the combinatorial bracket oracle, and
the relation verifiers."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

import corpus
import oracles
from moymf import (
    ConditionUnmet,
    CutoffExceeded,
    GradedVar,
    Irreducible,
    KoszulMF,
    NotClosed,
    Poly,
    QLaurent,
    QuotientRing,
    RELATION_NAMES,
    ReductionSession,
    compile_diagram,
    euler_characteristic,
    euler_of_diagram,
    homology,
    moy_bracket,
    oracle_crosscheck,
    parse,
    qbinomial,
    verify_relation,
)
import moymf.analysis as analysis
from moymf.qseries import _expand, quantum_integer

CIRCLE12 = "level n 2\nedge e1 color 1 from boundary:a to boundary:a\n"
CIRCLE23 = "level n 3\nedge e1 color 2 from boundary:a to boundary:a\n"
LINE = "level n 3\nedge e1 color 2 from boundary:p to boundary:q\n"
THETA = (
    "level n 3\n"
    "edge e2 color 1 from v1 to v2\n"
    "edge e3 color 1 from v1 to v2\n"
    "edge e4 color 2 from v2 to v1\n"
    "vertex v1 split in e4 out e2 e3\n"
    "vertex v2 merge in e2 e3 out e4\n"
)
# four vertices wired so no split feeds a merge in parallel and no output
# returns to its source: outside the rewrite set on purpose
TWISTED = (
    "level n 3\n"
    "edge e1 color 3 from v4 to v1\n"
    "edge s1 color 1 from v1 to v3\n"
    "edge s2 color 2 from v1 to v2\n"
    "edge t1 color 1 from v2 to v3\n"
    "edge t2 color 1 from v2 to v4\n"
    "edge w color 2 from v3 to v4\n"
    "vertex v1 split in e1 out s1 s2\n"
    "vertex v2 split in s2 out t1 t2\n"
    "vertex v3 merge in s1 t1 out w\n"
    "vertex v4 merge in w t2 out e1\n"
)


def _reduced(src: str) -> ReductionSession:
    d = parse(src)
    session = ReductionSession(compile_diagram(d), external=d.external_vars())
    session.reduce_fully()
    return session


class TestHomology:
    def test_small_circle_table(self) -> None:
        # one absorbed row of degree 4 against potential degree 6: the two
        # surviving generators sit at -1 and 1 in the odd parity
        table = homology(_reduced(CIRCLE12).current.expand())
        assert table == {(-1, 1): 1, (1, 1): 1}

    def test_two_colored_circle_table(self) -> None:
        table = homology(_reduced(CIRCLE23).current.expand())
        assert table == {(-2, 0): 1, (0, 0): 1, (2, 0): 1}

    def test_open_diagram_rejected(self) -> None:
        mf = compile_diagram(parse(LINE)).expand()
        with pytest.raises(NotClosed):
            homology(mf)

    def test_zero_ring_has_no_homology(self) -> None:
        # Q[x,y]/(1): the top degree is -1, so every cutoff covers it
        base = QuotientRing((GradedVar("x", 2), GradedVar("y", 2)), (Poly.const(1),))
        mf = KoszulMF(base, (), 0, 0, 4).expand()
        for cutoff in (0, 1, 2, 40, None):
            assert homology(mf, cutoff=cutoff) == {}

    def test_an_infinite_base_is_refused(self) -> None:
        mf = KoszulMF(QuotientRing((GradedVar("x", 2),)), (), 0, 0, 4).expand()
        with pytest.raises(CutoffExceeded, match="base quotient is infinite"):
            homology(mf)

    def test_a_degree_past_the_packed_limit_is_refused(self) -> None:
        # Q[x, y]/(x^100, y^100) has top degree 396, past the packed limit
        # 255: its standard monomials there cannot be keys, so it refuses
        xy = (GradedVar("x", 2), GradedVar("y", 2))
        x, y = map(Poly.variable, xy)
        base = QuotientRing(xy, (x**100, y**100))
        mf = KoszulMF(base, ((x**99, x),), 0, 0, 200).expand()
        with pytest.raises(OverflowError, match="degree 256 exceeds the packed limit 255"):
            homology(mf, cutoff=500)

    def test_empty_differentials_are_not_ranked(self, monkeypatch) -> None:
        # every row absorbed, or none at all: both differentials are empty,
        # so their ranks are 0 without enumerating a degree
        circles = [_reduced(src).current for src in (CIRCLE12, CIRCLE23)]
        assert [k.row_count for k in circles] == [0, 0]
        x = GradedVar("x", 2)
        row_free = KoszulMF(QuotientRing((x,), (Poly.variable(x) ** 3,)), (), 0, 0, 6)

        def refuse(*args):
            raise AssertionError("an empty differential was ranked")

        monkeypatch.setattr(analysis, "_map_rank", refuse)
        assert homology(circles[0].expand()) == {(-1, 1): 1, (1, 1): 1}
        assert homology(circles[1].expand()) == {(-2, 0): 1, (0, 0): 1, (2, 0): 1}
        assert homology(row_free.expand()) == {(0, 0): 1, (2, 0): 1, (4, 0): 1}

    def test_answer_does_not_depend_on_a_settled_basis(self) -> None:
        # the circle's answer q^-1 + q reaches degree 1: cutoff 0 refuses
        # and cutoff 2 answers, whether or not the base's basis was
        # completed first
        k = _reduced(CIRCLE12).current

        def outcome(settle: bool, cutoff: int):
            base = QuotientRing(k.base.vars, k.base.ideal_gens)
            if settle:
                base.hilbert_series()
            try:
                return homology(dataclasses.replace(k, base=base).expand(), cutoff)
            except CutoffExceeded:
                return "refused"

        for cutoff in (0, 2, 3):
            assert outcome(False, cutoff) == outcome(True, cutoff), cutoff
        assert outcome(False, 0) == "refused"
        assert outcome(False, 2) == {(-1, 1): 1, (1, 1): 1}

    def test_order_independence_on_closed_corpus(self) -> None:
        rng = random.Random(83)
        usable = 0
        attempts = 0
        while usable < 10 and attempts < 60:
            attempts += 1
            _, d, k = corpus.random_compiled(rng, closed=True)
            try:
                baseline = homology(_reduce_fully(k, d).current.expand(), cutoff=24)
            except (CutoffExceeded, ConditionUnmet):
                continue  # stalled instances cannot be expanded; skip them
            usable += 1
            for trial in range(2):
                shuffled = corpus.random_order_reduce(
                    k, d.external_vars(), random.Random(1000 * attempts + trial)
                )
                assert homology(shuffled.current.expand(), cutoff=24) == baseline
        assert usable >= 10


def _reduce_fully(k: KoszulMF, d) -> ReductionSession:
    session = ReductionSession(k, external=d.external_vars())
    session.reduce_fully()
    return session


def _to_poly(expr, syms: list, vars_: list) -> Poly:
    expr = sympy.expand(expr)
    if expr == 0:
        return Poly.zero()
    out = Poly.zero()
    for exps, c in sympy.Poly(expr, *syms).terms():
        term = Poly.const(int(c))
        for v, e in zip(vars_, exps):
            term = term * Poly.variable(v) ** e
        out = out + term
    return out


class TestHomologyWithRows:
    """Closed factorizations whose differentials survive: homology must
    rank the maps, not just add up base dimensions.  Each case is a base
    (weights, generators) and Koszul rows with zero potential in the base,
    checked against a sympy rank computation on the full monomial basis."""

    sx, sy, sz = sympy.symbols("x y z")
    CASES = (
        # Q[x]/(x^3), row (x; 0): ker x = <x^2>, coker x = <1>
        ([2], (sx,), [sx**3], [(sx, 0)], 6),
        # Q[x]/(x^3), row (x; x^2): exact in both parities
        ([2], (sx,), [sx**3], [(sx, sx**2)], 6),
        # Q[x,y]/(x^2, y^2), rows (x; x), (y; y)
        ([2, 2], (sx, sy), [sx**2, sy**2], [(sx, sx), (sy, sy)], 4),
        # Q[x,y]/(x^3, y^3), rows (x; y), (y; -x)
        ([2, 2], (sx, sy), [sx**3, sy**3], [(sx, sy), (sy, -sx)], 4),
        # Q[x(2), z(4)]/(x^3, z^2, xz), rows (x^2; x), (z; x)
        ([2, 4], (sx, sz), [sx**3, sz**2, sx * sz], [(sx**2, sx), (sz, sx)], 6),
    )

    def _build(self, case, shift: int = 0, z2: int = 0) -> tuple[KoszulMF, dict]:
        weights, syms, gens, rows, pot_deg = case
        vars_ = [GradedVar(str(s), w) for s, w in zip(syms, weights)]
        base = QuotientRing(
            tuple(vars_), tuple(_to_poly(g, syms, vars_) for g in gens)
        )
        k = KoszulMF(
            base,
            tuple(
                (_to_poly(a, syms, vars_), _to_poly(b, syms, vars_)) for a, b in rows
            ),
            shift,
            z2,
            pot_deg,
        )
        want = oracles.koszul_homology_dims(
            list(weights), list(syms), gens, rows, pot_deg, 24
        )
        return k, want

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_rank_oracle(self, case: int) -> None:
        k, want = self._build(self.CASES[case])
        mf = k.expand()
        assert any(p for p in mf.d0.entries.values())
        assert homology(mf, cutoff=24) == want

    def test_shifts_move_the_table(self) -> None:
        k, want = self._build(self.CASES[3], shift=3, z2=1)
        got = homology(k.expand(), cutoff=24)
        assert got == {(d + 3, 1 - p): h for (d, p), h in want.items()}

    def test_row_left_by_skip_unverified(self) -> None:
        # Q[x(2), y(2)]/(x^3, y^3, xy), row (x; 0): the absorption gate
        # cannot verify x, so reduce_fully keeps the row and homology must
        # rank its differential
        sx, sy = self.sx, self.sy
        k, want = self._build(
            ([2, 2], (sx, sy), [sx**3, sy**3, sx * sy], [(sx, 0)], 4)
        )
        session = ReductionSession(k, external=frozenset())
        got = session.reduce_fully()
        assert got.row_count == 1
        assert homology(got.expand(), cutoff=24) == want
        assert want == {(0, 1): 1, (2, 0): 1, (2, 1): 1, (4, 0): 2, (4, 1): 1}


class TestEuler:
    def test_circle_values(self) -> None:
        for i, n in ((1, 2), (1, 3), (2, 3)):
            src = f"level n {n}\nedge e1 color {i} from boundary:a to boundary:a\n"
            assert euler_of_diagram(parse(src)) == qbinomial(n, i)

    def test_invariant_under_parity_translation(self) -> None:
        k = _reduced(CIRCLE23).current
        e = euler_characteristic(homology(k.expand()))
        assert euler_characteristic(homology(k.translated().expand())) == e

    def test_grading_shift_scales_by_q_power(self) -> None:
        k = _reduced(CIRCLE23).current
        e = euler_characteristic(homology(k.expand()))
        shifted = euler_characteristic(homology(k.grade_shifted(3).expand()))
        assert shifted == QLaurent.q_power(3) * e

    def test_open_diagram_rejected(self) -> None:
        with pytest.raises(NotClosed):
            euler_of_diagram(parse(LINE))

    def test_negative_cutoff_rejected(self) -> None:
        with pytest.raises(ValueError, match="cutoff must be >= 0"):
            euler_of_diagram(parse(CIRCLE23), cutoff=-4)

    def test_cutoff_is_a_cap_not_the_work(self) -> None:
        # circle (3,6): top degree 18, so cutoff 24 already settles it;
        # at cutoff 144 the series costs no more, as the basis is complete
        src = "level n 6\nedge e1 color 3 from boundary:a to boundary:a\n"
        small = euler_of_diagram(parse(src), cutoff=24)
        t0 = time.perf_counter()
        large = euler_of_diagram(parse(src), cutoff=144)
        elapsed = time.perf_counter() - t0
        assert large == small == qbinomial(6, 3)
        assert elapsed < 2.0, f"cutoff 144 took {elapsed:.2f} s"


class TestBracketOracle:
    def test_circle_is_the_balanced_binomial(self) -> None:
        for i, n in ((1, 2), (2, 3), (2, 4), (3, 4)):
            src = f"level n {n}\nedge e1 color {i} from boundary:a to boundary:a\n"
            assert moy_bracket(parse(src)) == qbinomial(n, i)

    def test_theta_value(self) -> None:
        # digon collapse factor [2], then a 2-colored circle at level 3
        expected = qbinomial(2, 1) * qbinomial(3, 2)
        assert moy_bracket(parse(THETA)) == expected
        assert expected.render() == "q^-3 + 2*q^-1 + 2*q + q^3"

    def test_disjoint_pieces_multiply(self) -> None:
        union = (
            "level n 3\n"
            "edge e1 color 1 from boundary:a to boundary:a\n"
            "edge e2 color 2 from boundary:b to boundary:b\n"
        )
        assert moy_bracket(parse(union)) == qbinomial(3, 1) * qbinomial(3, 2)

    def test_open_diagram_rejected(self) -> None:
        with pytest.raises(NotClosed):
            moy_bracket(parse(LINE))

    def test_unrewritable_diagram_raises(self) -> None:
        with pytest.raises(Irreducible):
            moy_bracket(parse(TWISTED))

    def test_values_are_palindromic_on_corpus(self) -> None:
        rng = random.Random(89)
        evaluated = 0
        for _ in range(40):
            src = corpus.random_diagram_source(rng, closed=True)
            try:
                v = moy_bracket(parse(src))
            except Irreducible:
                continue
            evaluated += 1
            assert v.reverse() == v, src
        assert evaluated >= 5


def _relation_tuples_through_level_6() -> list[tuple[str, tuple[int, ...]]]:
    """Every (relation, parameters) pair at levels 1..6."""
    levels = range(1, 7)
    cases = [(name, (i, n)) for name in ("line_contract", "circle_jacobi")
             for n in levels for i in range(1, n + 1)]
    cases += [
        (name, (i1, i2, i3, n)) for name in ("assoc_merge", "assoc_split") for n in levels
        for i1 in range(1, n) for i2 in range(1, n - i1) for i3 in range(1, n - i1 - i2 + 1)
    ]
    cases += [("bubble", (i1, i3 - i1, i3, n))
              for n in levels for i3 in range(2, n + 1) for i1 in range(1, i3)]
    cases += [("counter_bubble", (i1, i2, n))
              for n in levels for i1 in range(1, n) for i2 in range(1, n - i1 + 1)]
    cases += [(name, (j, n)) for name in ("square_j", "square_wide")
              for n in levels for j in range(2, n)]
    cases += [("cor_square", (j1, j2)) for j1 in levels for j2 in levels]
    return cases


# reads (relation, parameters) pairs as JSON on stdin, registers as many
# filler variables as its argument says, and prints the reports as JSON
_FRESH_REPORTS = """
import json, sys
from moymf import GradedVar, Poly, verify_relation
for i in range(int(sys.argv[1])):
    Poly.variable(GradedVar(f"filler{i}", 2))
print(json.dumps([verify_relation(name, params) for name, params in json.load(sys.stdin)]))
"""


_NUMERATORS = st.dictionaries(st.integers(-6, 6), st.integers(-3, 3), max_size=4).map(QLaurent)


class TestVerifyRelation:
    # the keys of every report, in order: part of the public surface; a
    # FAIL adds first_difference and structural_mismatch, and an UNDECIDED
    # first_difference and stalled_variables or unlifted_generators
    REPORT_KEYS = [
        "relation",
        "params",
        "lhs_series",
        "rhs_series",
        "verdict",
        "reduction_log_ref",
        "reduction_log",
    ]

    SMALL = {
        "line_contract": (1, 2),
        "circle_jacobi": (1, 2),
        "assoc_merge": (1, 1, 1, 3),
        "assoc_split": (1, 1, 1, 3),
        "bubble": (1, 1, 2, 3),
        "counter_bubble": (1, 1, 3),
        "square_j": (2, 3),
        "square_wide": (2, 3),
        "cor_square": (2, 1),
    }

    def test_each_relation_passes_at_a_small_instance(self) -> None:
        assert set(self.SMALL) == set(RELATION_NAMES)
        for name in RELATION_NAMES:
            report = verify_relation(name, self.SMALL[name])
            assert report["verdict"] == "PASS", (name, report)
            assert list(report) == self.REPORT_KEYS, name
            assert list(report["lhs_series"]) == list(report["rhs_series"]) == ["z2_0", "z2_1"]
            assert report["relation"] == name
            assert report["reduction_log_ref"] == "inline:reduction_log"

    def test_a_fail_and_a_structural_mismatch_add_their_keys(self, monkeypatch) -> None:
        arity, sides, structural = analysis.RELATIONS["line_contract"]
        monkeypatch.setitem(
            analysis.RELATIONS, "line_contract", (arity, sides, lambda *_: ["rigged"])
        )
        report = verify_relation("line_contract", (1, 2))
        assert list(report) == self.REPORT_KEYS + ["structural_mismatch"]
        # the color-2 line against the color-1 pair differs in series and rows
        monkeypatch.setitem(
            analysis.RELATIONS, "line_contract",
            (arity, lambda i, n: (sides(i, n)[0], sides(i + 1, n)[1]), structural),
        )
        report = verify_relation("line_contract", (1, 2))
        assert report["verdict"] == "FAIL"
        assert list(report) == self.REPORT_KEYS + ["first_difference", "structural_mismatch"]
        assert list(report["first_difference"]) == ["z2", "exponent", "lhs", "rhs"]

    # every tuple through level 9 whose reduced lhs keeps internal variables
    # in a row and whose tables differ: the calculus stalled, so the tables
    # prove nothing either way
    STALLED = [
        ("counter_bubble", (3, 3, 8), ["x1_i.zl", "x2_i.zl"]),
        ("counter_bubble", (3, 2, 9), ["x1_i.zl", "x2_i.zl"]),
        ("counter_bubble", (2, 4, 9), ["x1_i.zl", "x2_i.zl", "x3_i.zl"]),
        ("counter_bubble", (3, 3, 9), ["x1_i.zl", "x2_i.zl", "x3_i.zl"]),
        ("bubble", (2, 2, 4, 9), ["x1_i.e3", "x2_i.e3"]),
    ]

    @pytest.mark.parametrize("name, params, stalled", STALLED)
    def test_a_stalled_side_is_undecided(self, name, params, stalled) -> None:
        report = verify_relation(name, params)
        assert report["verdict"] == "UNDECIDED"
        assert report["stalled_variables"] == stalled
        assert list(report) == self.REPORT_KEYS + ["first_difference", "stalled_variables"]

    def test_a_level_10_counter_bubble_passes_over_a_free_base(self) -> None:
        # the reduced lhs lies over Q[boundary]/(g), g of degree 20 in
        # boundary variables alone; judged with g lifted back into a row,
        # it has the rhs's table
        d = parse(analysis._counter_bubble_src(8, 2, 10))
        [g] = analysis._reduced(d).current.base.ideal_gens
        assert g.variables() <= d.external_vars() and g.homogeneous_degree() == 20
        report = verify_relation("counter_bubble", (8, 2, 10))
        assert report["verdict"] == "PASS" and list(report) == self.REPORT_KEYS

    def test_a_lone_boundary_generator_is_lifted_back_into_a_row(self) -> None:
        # the color-2 line with its first row absorbed forward: one row over
        # Q[boundary]/(b0); the lift gives back (a0; b0) over the free ring
        d = parse(analysis._line_src(2, 4))
        line = compile_diagram(d)
        (a0, b0), row = line.rows
        side = line.with_rows([row], QuotientRing(line.base.vars, (b0,)))
        lifted, left = analysis._lifted(side, d)
        assert left == [] and lifted.base == line.base
        assert lifted.rows == (row, (a0, b0))
        assert lifted._series() == line._series() != side._series()

    @pytest.mark.parametrize("absorbed, verdict", [(1, "PASS"), (2, "UNDECIDED")])
    def test_boundary_generators_left_in_an_open_base_never_fail(
        self, monkeypatch, absorbed: int, verdict: str
    ) -> None:
        # the rhs line of counter_bubble (2, 1, 4) with its first rows
        # absorbed forward into the base: a lone generator is lifted back,
        # and the relation passes; two are left, and the tables, which count
        # a module over a ring that is not free, decide nothing
        reduced = analysis._reduced

        def rigged(d):
            session = reduced(d)
            if len(d.edges) == 1:  # the line
                k = session.current
                gens = tuple(b for _, b in k.rows[:absorbed])
                session.current = k.with_rows(k.rows[absorbed:], QuotientRing(k.base.vars, gens))
            return session

        monkeypatch.setattr(analysis, "_reduced", rigged)
        report = verify_relation("counter_bubble", (2, 1, 4))
        assert report["verdict"] == verdict
        if absorbed == 2:
            (_, b0), (_, b1) = compile_diagram(parse(analysis._line_src(2, 4))).rows
            assert report["unlifted_generators"] == sorted([b0.render(), b1.render()])
            assert list(report) == self.REPORT_KEYS + ["first_difference", "unlifted_generators"]

    def test_a_wrong_weight_on_a_side_that_reduces_fully_fails(self, monkeypatch) -> None:
        arity, sides, structural = analysis.RELATIONS["counter_bubble"]

        def doubled(*params):
            lhs, rhs = sides(*params)
            return lhs, [(src, 2 * weight, swaps) for src, weight, swaps in rhs]

        assert verify_relation("counter_bubble", (1, 2, 5))["verdict"] == "PASS"
        monkeypatch.setitem(analysis.RELATIONS, "counter_bubble", (arity, doubled, structural))
        report = verify_relation("counter_bubble", (1, 2, 5))
        assert report["verdict"] == "FAIL"
        assert list(report) == self.REPORT_KEYS + ["first_difference"]

    def test_no_step_runs_outside_reduce_fully(self, monkeypatch) -> None:
        # every relation side reduces through reduce_fully alone: no
        # verifier drives the calculus step by step
        inside = ReductionSession.reduce_fully.__code__

        def guarded(name):
            step = getattr(ReductionSession, name)

            def run(self, *args, **kwargs):
                frame = sys._getframe(1)
                while frame is not None and frame.f_code is not inside:
                    frame = frame.f_back
                assert frame is not None, f"{name} called outside reduce_fully"
                return step(self, *args, **kwargs)

            return run

        steps = ("row_op", "transpose_row", "exclude_variable", "replace_first_sequence")
        for name in steps:
            monkeypatch.setattr(ReductionSession, name, guarded(name))
        session = ReductionSession(compile_diagram(parse(LINE)))
        with pytest.raises(AssertionError, match="transpose_row called outside"):
            session.transpose_row(0)
        for name in RELATION_NAMES:
            assert verify_relation(name, self.SMALL[name])["verdict"] == "PASS", name

    def test_every_relation_tuple_through_level_6_passes(self) -> None:
        # exclusion and absorption alone left (2,2,4,4), (2,3,5,5),
        # (3,3,6,6) and the other bubbles whose thin colors are both at
        # least 2 with an internal variable; the clearing step closes them.
        # A wrong weight, swap or source in the table fails here.
        cases = _relation_tuples_through_level_6()
        counts = Counter(name for name, _ in cases)
        assert counts == {
            "line_contract": 21, "circle_jacobi": 21, "assoc_merge": 35, "assoc_split": 35,
            "bubble": 35, "counter_bubble": 35, "square_j": 10, "square_wide": 10,
            "cor_square": 36,
        }
        results, logs = hashlib.sha256(), hashlib.sha256()
        for name, params in cases:
            report = verify_relation(name, params)
            assert report["verdict"] == "PASS", (name, params)
            log = report.pop("reduction_log")
            results.update(json.dumps(report, sort_keys=True).encode())
            logs.update(json.dumps(log, sort_keys=True).encode())
        # every report is pinned in two parts: what it answers (verdict,
        # series tables per parity and first difference), which a change to the
        # reduction steps must leave alone, and its reduction log; a change
        # to either updates its digest and says why in CHANGES.md
        assert results.hexdigest()[:16] == "c60c93c9ecbf935a"
        assert logs.hexdigest()[:16] == "6db829af3dfe9ddf"

    def test_clearing_reports_do_not_depend_on_the_variables_registered_before(self) -> None:
        # keys pack each variable at its place in the process-wide
        # registry, so a fault in the key layout may show only when the
        # fields sit elsewhere: the tuples a clearing row op closes are
        # run again in fresh interpreters, with 0 and 150 variables
        # registered first, and must give the very reports given here
        cases, want = [], []
        for name, params in _relation_tuples_through_level_6():
            report = verify_relation(name, params)
            if any(e["op"] == "row_op" for e in report.get("reduction_log", ())):
                cases.append((name, params))
                want.append(report)
        assert len(cases) >= 60 and {name for name, _ in cases} == {
            "bubble", "counter_bubble", "square_j", "square_wide"
        }
        assert all(r["verdict"] == "PASS" for r in want)
        want = json.loads(json.dumps(want))
        root = Path(__file__).resolve().parent
        env = dict(os.environ, PYTHONPATH=str(root.parent / "src"))
        for fillers in (0, 150):
            child = subprocess.run(
                [sys.executable, "-c", _FRESH_REPORTS, str(fillers)],
                input=json.dumps(cases),
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
            )
            assert child.returncode == 0, child.stderr
            assert json.loads(child.stdout) == want, fillers

    @pytest.mark.parametrize("name, kind", [("assoc_merge", "merge"), ("assoc_split", "split")])
    def test_associativity_compares_the_two_trees_of_its_kind(self, name: str, kind: str) -> None:
        # the other kind's trees make a valid relation too, so a verdict
        # cannot tell them apart: pin the diagrams each side names
        lhs, rhs = analysis.RELATIONS[name][1](1, 1, 2, 4)
        for terms, inner in ((lhs, 2), (rhs, 3)):
            [(src, weight, parity)] = terms
            d = parse(src)
            assert weight == QLaurent.one() and parity == 0
            assert [v.kind for v in d.vertices] == [kind, kind]
            assert d.edge("am").color == inner

    OUT_OF_DOMAIN = [
        ("line_contract", (0, 2), "color 0 not in 1..2"),
        ("line_contract", (3, 2), "color 3 not in 1..2"),
        ("line_contract", (1, 200), "level 200 above 126"),
        ("circle_jacobi", (0, 2), "color 0 not in 1..2"),
        ("circle_jacobi", (3, 2), "color 3 not in 1..2"),
        ("assoc_merge", (1, 0, 1, 3), "color 0 not in 1..3"),
        ("assoc_merge", (1, 1, 1, 2), "color 3 not in 1..2"),
        ("assoc_split", (1, 0, 1, 3), "color 0 not in 1..3"),
        ("assoc_split", (1, 1, 1, 2), "color 3 not in 1..2"),
        ("bubble", (0, 1, 1, 2), "color 0 not in 1..2"),
        ("bubble", (2, 2, 4, 3), "color 4 not in 1..3"),
        ("counter_bubble", (0, 1, 3), "color 0 not in 1..3"),
        ("counter_bubble", (2, 2, 3), "color 4 not in 1..3"),
        ("counter_bubble", (1, 1, 127), "level 127 above 126"),
        ("square_j", (0, 3), "color 0 not in 1..3"),
        ("square_j", (4, 3), "color 4 not in 1..3"),
        ("square_wide", (0, 3), "color 0 not in 1..3"),
        ("square_wide", (4, 3), "color 4 not in 1..3"),
        ("cor_square", (3, 0), "j1 and j2 must be at least 1"),
        ("cor_square", (0, 3), "j1 and j2 must be at least 1"),
    ]

    @pytest.mark.parametrize("name, params, message", OUT_OF_DOMAIN)
    def test_a_color_outside_the_level_is_a_value_error(self, name, params, message) -> None:
        # a ValueError that names the relation, never a syntax error in a
        # generated diagram source
        assert {case[0] for case in self.OUT_OF_DOMAIN} == set(RELATION_NAMES)
        with pytest.raises(ValueError, match=message) as info:
            verify_relation(name, params)
        assert str(info.value).startswith(f"relation {name} {list(params)}: ")

    def test_the_verifier_reduces_weighted_terms_in_table_order(self) -> None:
        # square_wide (2, 3): H's weight [0] leaves it unreduced, so the log
        # is the square's 4 (its first run of substitutions is one step); at
        # (2, 4) H's one step follows the square's 4
        square = analysis._reduced(parse(analysis._square_wide_src(2, 3))).log_dicts()
        assert len(square) == 4
        assert verify_relation("square_wide", (2, 3))["reduction_log"] == square
        square = analysis._reduced(parse(analysis._square_wide_src(2, 4))).log_dicts()
        h = analysis._reduced(parse(analysis._h_src(2, 4))).log_dicts()
        assert (len(square), len(h)) == (4, 1)
        assert verify_relation("square_wide", (2, 4))["reduction_log"] == square + h

    def test_bubble_2247_takes_a_b_b_then_an_a_b_row_op(self) -> None:
        # (2,2,4,7): a b-against-b op, then an a-against-b op leave a
        # (0; b) row, which the gate absorbs
        log = verify_relation("bubble", (2, 2, 4, 7))["reduction_log"]
        steps = [(e["op"], e["params"].get("kind")) for e in log if e["op"] != "exclude_variable"]
        assert steps == [("row_op", "first_col"), ("row_op", "second_col"), ("absorb", None)]
        assert log[-1]["params"]["sides"] == ["b"]

    def test_circle_passes_when_its_exact_top_fits_the_cutoff(self) -> None:
        # circle (4,7): the base's top degree is 24, so cutoff 30 suffices
        # for euler; a pure-power bound on the leads and a window of the
        # largest variable degree above the top both ran past 30
        circle = parse(analysis._circle_src(4, 7))
        assert euler_of_diagram(circle, cutoff=30) == qbinomial(7, 4)
        assert verify_relation("circle_jacobi", (4, 7), cutoff=30)["verdict"] == "PASS"

    def test_the_cutoff_bounds_the_rendering_not_a_closed_side(self) -> None:
        # circle (2,3) has top degree 2 and (3,10) 42: both are counted at
        # the ring's own cutoff, and only the series stop at the given one
        report = verify_relation("circle_jacobi", (2, 3), cutoff=1)
        assert report["verdict"] == "PASS"
        assert report["lhs_series"] == report["rhs_series"] == {"z2_0": "q^-2 + 1", "z2_1": "0"}
        assert verify_relation("circle_jacobi", (3, 10))["verdict"] == "PASS"

    @pytest.mark.parametrize("name, params, wrong, parity, verdict", [
        # a color-1 circle's homology [2 1] lies in parity 1, so the unit
        # term stated without its swap puts the same total in parity 0
        ("circle_jacobi", (1, 2), lambda i, n: (
            analysis._single(analysis._circle_src(i, n)), [(None, qbinomial(n, i), 0)]
        ), 0, "FAIL"),
        # square_wide (2, 4) with its H copy left untranslated; the reduced
        # square keeps x1_i.rmid in its a-entries, so the mismatch is
        # undecided rather than a disproof
        ("square_wide", (2, 4), lambda j, n: (
            analysis._single(analysis._square_wide_src(j, n)),
            analysis._single(analysis._antiparallel_src(j, n))
            + [(analysis._h_src(j, n), quantum_integer(n - j - 1), 0)],
        ), 0, "UNDECIDED"),
    ])
    def test_sides_are_judged_per_parity(
        self, monkeypatch, name, params, wrong, parity, verdict
    ) -> None:
        # each relation holds parity by parity: a side whose parity swaps
        # are wrong does not PASS, and first_difference names the parity,
        # though both parities together still agree
        assert verify_relation(name, params)["verdict"] == "PASS"
        arity, _, structural = analysis.RELATIONS[name]
        monkeypatch.setitem(analysis.RELATIONS, name, (arity, wrong, structural))
        judged, judge = [], analysis._judge
        monkeypatch.setattr(
            analysis, "_judge", lambda report, *sides: judged.append(sides) or judge(report, *sides)
        )
        report = verify_relation(name, params)
        assert report["verdict"] == verdict
        assert report["first_difference"]["z2"] == parity
        [(lhs, rhs, _)] = judged

        def total(t):
            return t[0] + t[1], QLaurent.zero(), t[2]

        assert analysis._first_difference(total(lhs), total(rhs)) is None

    def test_negative_cutoff_rejected(self) -> None:
        # every series truncated below degree 0 is empty; from cutoff 0 on
        # the verdict is exact, whatever the cutoff
        with pytest.raises(ValueError, match="cutoff must be >= 0"):
            verify_relation("bubble", (1, 1, 2, 3), cutoff=-4)
        assert verify_relation("bubble", (1, 1, 2, 3), cutoff=0)["verdict"] == "PASS"

    def test_unknown_relation_rejected(self) -> None:
        with pytest.raises(ValueError, match="unknown relation"):
            verify_relation("pentagon", (1, 2))

    def test_wrong_arity_rejected(self) -> None:
        with pytest.raises(ValueError, match="expects 4 parameters"):
            verify_relation("bubble", (1, 1, 3))

    @pytest.mark.parametrize("bad", [1.9, 1.0, "1", True])
    def test_a_parameter_that_is_not_an_int_is_rejected(self, bad) -> None:
        # never rounded or parsed into a color: a report names what was verified
        with pytest.raises(ValueError) as info:
            verify_relation("bubble", (bad, 1, 2, 3))
        assert str(info.value) == f"relation bubble: parameter {bad!r} is not an int"

    def test_square_j_rejects_ladder_color_at_the_level(self) -> None:
        # the join diagram would need a rung of color n + 1
        with pytest.raises(ValueError, match=r"^relation square_j \[2, 2\]: color 3 not in 1\.\.2$"):
            verify_relation("square_j", (2, 2))

    def test_structural_mismatch_fails_matching_series(self, monkeypatch) -> None:
        # the direct line gets other boundary labels: same series, but its
        # rows and potential no longer match the contracted pair
        line_src = analysis._line_src
        monkeypatch.setattr(
            analysis, "_line_src", lambda i, n, *labels: line_src(i, n, "p", "q")
        )
        report = verify_relation("line_contract", (1, 2))
        assert report["lhs_series"] == report["rhs_series"]
        assert report["verdict"] == "FAIL"
        assert "first_difference" not in report
        assert report["structural_mismatch"] == [
            "row 0 differs after normalization",
            "potentials differ",
        ]
        assert list(report) == [
            "relation",
            "params",
            "lhs_series",
            "rhs_series",
            "verdict",
            "reduction_log_ref",
            "reduction_log",
            "structural_mismatch",
        ]

    def test_base_variable_mismatch_fails_matching_series(self, monkeypatch) -> None:
        # the right tree ends at another boundary point: same series, but
        # the reduced trees no longer share a base ring
        tree_src = analysis._merge_tree_src

        def right_ends_elsewhere(*params: int, left: bool) -> str:
            src = tree_src(*params, left=left)
            return src if left else src.replace("boundary:d", "boundary:z")

        monkeypatch.setattr(analysis, "_merge_tree_src", right_ends_elsewhere)
        report = verify_relation("assoc_merge", (1, 1, 1, 3))
        assert report["lhs_series"] == report["rhs_series"]
        assert report["verdict"] == "FAIL"
        assert "first_difference" not in report
        assert report["structural_mismatch"] == ["base variables differ"]

    # what each structural check finds when the second side differs from
    # the first in exactly one way: check, the change, the entry
    ONE_CHANGE = {
        "row count": (
            analysis._same_rows,
            lambda k: k.with_rows(k.rows + ((Poly.variable(k.base.vars[0]), Poly.zero()),)),
            "row count 2 != 3",
        ),
        "parity": (analysis._same_rows, lambda k: k.translated(), "parity shift differs"),
        "grading shift": (
            analysis._same_rows, lambda k: k.grade_shifted(2), "grading shift 0 != 2"
        ),
        "ideal size": (
            analysis._same_ring,
            # a redundant generator: the same ideal, one more generator
            lambda k: k.with_rows(k.rows, k.base.with_generators((k.base.ideal_gens[0] * 2,))),
            "base ideal sizes differ",
        ),
        "potential": (
            analysis._same_ring,
            lambda k: k.with_rows(((k.rows[0][0] * 2, k.rows[0][1]),) + k.rows[1:]),
            "potentials differ",
        ),
    }

    @pytest.mark.parametrize("change", ONE_CHANGE)
    def test_a_structural_check_names_the_one_change(self, change: str) -> None:
        check, changed, entry = self.ONE_CHANGE[change]
        k = compile_diagram(parse(LINE))
        k = k.with_rows(k.rows, k.base.with_generators((Poly.variable(k.base.vars[0]) ** 4,)))
        assert check(k, k) == []
        assert check(k, changed(k)) == [entry]

    def test_bubble_colors_must_sum(self) -> None:
        with pytest.raises(ValueError, match="summing"):
            verify_relation("bubble", (1, 2, 4, 4))

    def test_exact_tables_differ_past_the_cutoff(self) -> None:
        # 1/(1 - q^2) against (1 - q^2)(1 - q^42)/(1 - q^2)^2: equal through
        # degree 40, so both render alike, yet the exact comparison fails
        q = QLaurent.q_power
        one = QLaurent.one()
        lhs = (one, q(1), (2,))
        rhs = ((one - q(2)) * (one - q(42)), q(1) - q(3), (2, 2))
        report = analysis._judge(
            {"lhs_series": analysis._render_table(lhs, 40),
             "rhs_series": analysis._render_table(rhs, 40)},
            lhs, rhs,
        )
        assert report["lhs_series"] == report["rhs_series"]
        assert report["verdict"] == "FAIL"
        assert report["first_difference"] == {
            "z2": 0, "exponent": 42, "lhs": 1, "rhs": 0
        }
        assert analysis._first_difference(lhs, (one, q(1), (2,))) is None

    @given(st.sampled_from([(), (2,), (2, 4)]), _NUMERATORS, _NUMERATORS, _NUMERATORS, _NUMERATORS)
    def test_tables_over_one_denominator_subtract_as_the_weighted_sum_does(
        self, weights, even, odd, even2, odd2
    ) -> None:
        def by_weighted_sum(lhs, rhs):  # the route over the least common denominator
            delta = analysis._weighted_sum([(lhs, QLaurent.one()), (rhs, -QLaurent.one())])
            for k in (0, 1):
                if delta[k]:
                    e = delta[k].min_exp()
                    a, b = (_expand(t[k], t[2], e).coeff(e) for t in (lhs, rhs))
                    return {"z2": k, "exponent": e, "lhs": a, "rhs": b}
            return None

        lhs = (even, odd, weights)
        for rhs in (lhs, (even, odd2, weights), (even2, odd2, weights)):
            assert analysis._first_difference(lhs, rhs) == by_weighted_sum(lhs, rhs)
        assert analysis._first_difference(lhs, lhs) is None

    def test_failure_reports_the_first_difference(self, monkeypatch) -> None:
        # rig the closed form so the engine side no longer matches
        monkeypatch.setattr(
            analysis, "qbinomial", lambda n, i: QLaurent.one()
        )
        report = verify_relation("circle_jacobi", (1, 2))
        assert report["verdict"] == "FAIL"
        diff = report["first_difference"]
        assert set(diff) == {"z2", "exponent", "lhs", "rhs"}


class TestOracleCrosscheck:
    def test_theta_agrees(self) -> None:
        report = oracle_crosscheck(parse(THETA))
        assert report["verdict"] == "PASS"
        assert report["engine_euler"] == report["oracle_value"]

    def test_theta_through_a_glued_label_agrees(self) -> None:
        # the color-2 edge runs v2 -> boundary:m -> v1, so the oracle's arc
        # graph steps through the glued label
        glued = (
            "level n 3\n"
            "edge e2 color 1 from v1 to v2\n"
            "edge e3 color 1 from v1 to v2\n"
            "edge e4 color 2 from v2 to boundary:m\n"
            "edge e5 color 2 from boundary:m to v1\n"
            "vertex v1 split in e5 out e2 e3\n"
            "vertex v2 merge in e2 e3 out e4\n"
        )
        report = oracle_crosscheck(parse(glued))
        assert report["verdict"] == "PASS"
        assert report["engine_euler"] == report["oracle_value"] == "q^-3 + 2*q^-1 + 2*q + q^3"

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_closed_chain_of_three_bubbles_agrees(self, n: int) -> None:
        # with a row holding internal variables left, homology has no
        # finite top degree; the clearing step lets absorption finish
        chain = parse(corpus.bubble_chain(n))
        report = oracle_crosscheck(chain, cutoff=60)
        assert report["verdict"] == "PASS", report
        assert any(e["op"] == "row_op" for e in analysis._reduced(chain).log_dicts())

    def test_disjoint_circles_agree(self) -> None:
        union = (
            "level n 2\n"
            "edge e1 color 1 from boundary:a to boundary:a\n"
            "edge e2 color 1 from boundary:b to boundary:b\n"
        )
        report = oracle_crosscheck(parse(union))
        assert report["verdict"] == "PASS"

    def test_negative_cutoff_rejected(self) -> None:
        with pytest.raises(ValueError, match="cutoff must be >= 0"):
            oracle_crosscheck(parse(THETA), cutoff=-1)
