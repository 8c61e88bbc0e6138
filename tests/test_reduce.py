"""Reduction calculus: row operations, variable exclusion, absorption,
regularity gating, gluing, and the potential-preservation contract."""

from __future__ import annotations

import hashlib
import inspect
import json
import random
from fractions import Fraction
from typing import Sequence

import pytest

import corpus
from moymf import (
    Alphabet,
    ColorMismatch,
    ConditionUnmet,
    DegreeMismatch,
    GradedVar,
    KoszulMF,
    LogEntry,
    Poly,
    PotentialMismatch,
    QuotientRing,
    ReductionSession,
    RegularityUnverified,
    ZeroScalar,
    absorb_zero_row,
    boundary_potential,
    compile_diagram,
    exclude_variable,
    exclusion_candidate,
    glue,
    oracle_crosscheck,
    parse,
    regularity_heuristic,
    replace_first_sequence,
    replace_second_sequence,
    row_op,
    scalar_twist,
    transpose_row,
)
from moymf import diagram, mf_core, poly_core, symfun
from moymf import reduce as reduce_module
from moymf.poly_core import mono_key
from moymf.analysis import (
    _bubble_src,
    _circle_src,
    _counter_bubble_src,
    _euler,
    _line_src,
    _square_wide_src,
)

X = GradedVar("x", 2)
Y = GradedVar("y", 2)
Z = GradedVar("z", 2)
PX, PY, PZ = Poly.variable(X), Poly.variable(Y), Poly.variable(Z)


def _two_rows() -> KoszulMF:
    base = QuotientRing((X, Y))
    return KoszulMF(base, ((PX * PX, PY * PY), (PX**3, PY)), 0, 0, 8)


class TestRowOps:
    def test_row_op_first_col_is_invertible(self) -> None:
        k = _two_rows()
        forward = row_op(k, 0, 1, PX, "first_col")
        assert forward != k
        assert row_op(forward, 0, 1, -PX, "first_col") == k

    def test_row_op_second_col_is_invertible(self) -> None:
        k = _two_rows()
        forward = row_op(k, 0, 1, PX, "second_col")
        assert row_op(forward, 0, 1, -PX, "second_col") == k

    def test_row_ops_preserve_potential(self) -> None:
        k = _two_rows()
        for kind in ("first_col", "second_col"):
            assert row_op(k, 0, 1, PX, kind).potential() == k.potential()

    def test_scalar_twist_is_invertible_and_neutral(self) -> None:
        k = _two_rows()
        twisted = scalar_twist(k, 0, 3)
        assert twisted.potential() == k.potential()
        assert scalar_twist(twisted, 0, Fraction(1, 3)) == k

    def test_scalar_twist_divides_exactly(self) -> None:
        a, b = scalar_twist(_two_rows(), 0, 3).rows[0]
        assert a == PX * PX * 3 and type(a.coefficient(((X, 2),))) is int
        assert b.coefficient(((Y, 2),)) == Fraction(1, 3)
        with pytest.raises(TypeError):
            scalar_twist(_two_rows(), 0, 0.5)

    def test_scalar_twist_rejects_zero(self) -> None:
        with pytest.raises(ZeroScalar):
            scalar_twist(_two_rows(), 0, 0)

    def test_transpose_row_bookkeeping(self) -> None:
        k = _two_rows()
        t = transpose_row(k, 1)
        # swap is compensated: parity flips, grading moves by the row shift
        assert t.rows[1] == (PY, PX**3)
        assert t.z2_shift == 1
        assert t.global_grading_shift == k.row_shift(1)
        assert t.potential() == k.potential()
        assert t.graded_series(12) == k.graded_series(12)
        assert transpose_row(t, 1) == k


class TestExclusion:
    def test_linear_variable_substitutes_and_leaves(self) -> None:
        base = QuotientRing((X, Y))
        rows = ((PX**3, PY - PX), (PX**3, PX - PY))
        k = KoszulMF(base, rows, 0, 0, 8)
        session = ReductionSession(k, external=frozenset({X}))
        cand = exclusion_candidate(k, 0, frozenset({X}))
        assert cand is not None and cand.var == Y and cand.power == 1
        session.exclude_variable(0)
        assert session.current.row_count == 1
        assert session.current.rows[0] == (PX**3, Poly.zero())
        assert Y not in session.current.base.vars
        assert session.log[-1].params == {"rows": [0], "variables": ["y"], "powers": [1]}
        # the leftover zero-sided row absorbs into the ideal
        assert session.absorb_zero_rows() == 1
        assert session.current.row_count == 0
        assert session.current.base.ideal_gens == (PX**3,)

    def test_power_variable_joins_the_ideal(self) -> None:
        base = QuotientRing((X, Y))
        k = KoszulMF(base, ((PX * PX, PY * PY), (-PX * PX, PY * PY)), 0, 0, 8)
        session = ReductionSession(k, external=frozenset({X}))
        session.exclude_variable(0)
        assert session.current.row_count == 1
        assert Y in session.current.base.vars
        assert len(session.current.base.ideal_gens) == 1
        assert session.current.base.normal_form(PY * PY) == Poly.zero()
        assert session.log[-1].params["powers"] == [2]

    def test_substitution_divides_by_the_coefficient(self) -> None:
        # 3y - x = 0 gives y -> x/3, so the other row's a-side x^2*y
        # becomes x^3/3
        base = QuotientRing((X, Y))
        k = KoszulMF(base, ((PX**3, 3 * PY - PX), (-(PX * PX * PY), 3 * PX)), 0, 0, 8)
        session = ReductionSession(k, external=frozenset({X}))
        session.exclude_variable(0)
        assert session.current.rows == ((PX**3 * Fraction(-1, 3), 3 * PX),)

    def test_power_exclusion_divides_by_the_coefficient(self) -> None:
        # the b-side 2y^2 + xy joins the ideal as y^2 + xy/2
        base = QuotientRing((X, Y))
        b0 = 2 * PY * PY + PX * PY
        k = KoszulMF(base, ((PX * PX, b0), (-(PX * PX), b0 + PX * PX)), 0, 0, 8)
        session = ReductionSession(k, external=frozenset({X}))
        session.exclude_variable(0)
        (gen,) = session.current.base.ideal_gens
        assert gen == PY * PY + PX * PY * Fraction(1, 2)
        assert gen.coefficient(((X, 1), (Y, 1))) == Fraction(1, 2)
        assert type(gen.coefficient(((Y, 2),))) is int
        assert session.current.rows == ((-(PX * PX), PX * PX),)

    def test_internal_potential_blocks_exclusion(self) -> None:
        base = QuotientRing((X, Y))
        k = KoszulMF(base, ((PX**3, PY - PX),), 0, 0, 8)
        session = ReductionSession(k, external=frozenset({X}))
        with pytest.raises(ConditionUnmet, match="potential"):
            session.exclude_variable(0)

    def test_power_exclusion_requires_fresh_variable(self) -> None:
        # quotient-generator exclusion needs a variable the current ideal
        # does not already constrain
        base = QuotientRing((X, Y), (PY * PY + PX * PX,))
        k = KoszulMF(base, ((PX * PX, PY * PY), (-PX * PX, PY * PY)), 0, 0, 8)
        session = ReductionSession(k, external=frozenset({X}))
        with pytest.raises(ConditionUnmet):
            session.exclude_variable(0)

    def test_a_power_of_a_generator_variable_is_no_candidate(self) -> None:
        # y^3 is a free monomial over Q[x,y], not over Q[x,y]/(y^2 - x^2),
        # and y^2 is not one over Q[x,y]/(y^3)
        for power, gen in ((3, PY * PY - PX * PX), (2, PY**3)):
            row = ((Poly.zero(), PY**power),)
            free = KoszulMF(QuotientRing((X, Y)), row, 0, 0, 8)
            cand = exclusion_candidate(free, 0, frozenset({X}))
            assert (cand.var, cand.power) == (Y, power)
            k = KoszulMF(QuotientRing((X, Y), (gen,)), row, 0, 0, 8)
            assert exclusion_candidate(k, 0, frozenset({X})) is None
            with pytest.raises(ConditionUnmet, match="row 0: no admissible pure power"):
                exclude_variable(k, 0, {X})

    def test_external_variables_are_protected(self) -> None:
        base = QuotientRing((X, Y))
        k = KoszulMF(base, ((PX**3, PY - PX),), 0, 0, 8)
        assert exclusion_candidate(k, 0, frozenset({X, Y})) is None
        session = ReductionSession(k, external=frozenset({X, Y}))
        with pytest.raises(ConditionUnmet, match="no admissible pure power"):
            session.exclude_variable(0)

    def test_collapsed_row_is_refused(self) -> None:
        # y -> x sends the second row to (0; 0)
        base = QuotientRing((X, Y))
        d = PY - PX
        k = KoszulMF(base, ((-d * PX**2, d), (d, d * PX**2)), 0, 0, 8)
        with pytest.raises(ConditionUnmet, match=r"collapsed to \(0; 0\)"):
            exclude_variable(k, 0, {X})

    def test_greedy_prefers_substitution_rows(self) -> None:
        base = QuotientRing((X, Y, Z))
        rows = (
            (PX * PX, PY * PY),
            (PX**3, PZ - PX),
            (-(PX * PX), PY * PY),
            (-(PX**3), PZ),
        )
        k = KoszulMF(base, rows, 0, 0, 8)
        session = ReductionSession(k, external=frozenset({X}))
        assert session.exclude_all() == 2
        first, second = session.log[0], session.log[1]
        assert first.op == "exclude_variable"
        # power-1 rows beat lower-index ones
        assert first.params == {"rows": [1], "variables": ["z"], "powers": [1]}
        assert second.params["powers"] == [2]

    # A color-2 strand split and merged twice (item open/3.1.4.3 of the
    # benchmark's open_reduce corpus).  The second exclusion adjoins
    # -x1_e0i*y + y^2 + x2_e0i with y = x1_i.e2 internal.  Under name order
    # x2_e0i led it, normal forms rewrote that boundary variable in terms
    # of y, and the next exclusion refused: the potential seemed to involve
    # y.  The compiled ring lists boundary variables first, so y^2 leads.
    DOUBLE_DIGON = (
        "level n 3\n"
        "edge e0 color 2 from boundary:e0i to v0\n"
        "edge e1 color 1 from v0 to v1\n"
        "edge e2 color 1 from v0 to v1\n"
        "edge e3 color 2 from v1 to v2\n"
        "edge e4 color 1 from v2 to v3\n"
        "edge e5 color 1 from v2 to v3\n"
        "edge e6 color 2 from v3 to boundary:e6o\n"
        "vertex v0 split in e0 out e1 e2\n"
        "vertex v1 merge in e1 e2 out e3\n"
        "vertex v2 split in e3 out e4 e5\n"
        "vertex v3 merge in e4 e5 out e6\n"
    )

    def test_internal_variables_lead_so_exclusion_completes(self) -> None:
        d = parse(self.DOUBLE_DIGON)
        session = ReductionSession(compile_diagram(d), external=d.external_vars())
        session.exclude_all()
        k = session.current
        potential = k.potential()
        assert potential.variables() <= d.external_vars()
        assert not k.base.normal_form(potential - boundary_potential(d))


def _presented(k: KoszulMF) -> tuple:
    return k.rows, k.base.render(), k.global_grading_shift, k.z2_shift, k.potential()


class TestExclusionRuns:
    """exclude_all takes each maximal run of substitutions as one step.  Its
    oracle is the public single-row exclude_variable, replayed from the
    logged rows: each step must take the logged variable, and the last
    must give the presentation the run adopted."""

    @staticmethod
    def _runs(monkeypatch, sessions: list[ReductionSession]) -> list[tuple]:
        """(external, presentation before, params, after) of every
        exclusion step the sessions take in reduce_fully."""
        runs, step = [], ReductionSession._step

        def kept(self, op, params, new):
            if op == "exclude_variable":
                runs.append((self.external, self.current, params, new))
            step(self, op, params, new)

        monkeypatch.setattr(ReductionSession, "_step", kept)
        for session in sessions:
            session.reduce_fully()
        for external, k, params, new in runs:
            for row, var in zip(params["rows"], params["variables"]):
                assert exclusion_candidate(k, row, external).var.name == var
                k = exclude_variable(k, row, external)
            assert _presented(k) == _presented(new)
            if params["powers"][0] == 1:
                # the run ends where a fresh scan offers no substitution,
                # or where the potential leaves the external variables
                assert params["powers"] == [1] * len(params["rows"])
                cands = [exclusion_candidate(k, m, external) for m in range(k.row_count)]
                assert not any(c and c.power == 1 for c in cands) or (
                    not k.potential().variables() <= external
                )
        return runs

    def test_random_corpus_runs_equal_single_steps(self, monkeypatch) -> None:
        rng = random.Random(43)
        sessions, wide = [], {"max_rows": 24, "max_pairs": 4, "max_level": 6, "max_color": 4}
        for closed in [False] * 32 + [True] * 12:
            _, d, k = corpus.random_compiled(rng, closed=closed, **({} if closed else wide))
            sessions.append(ReductionSession(k, external=d.external_vars()))
        runs = self._runs(monkeypatch, sessions)
        assert sum(len(params["rows"]) > 1 for *_, params, _ in runs) >= 10

    # a quotient exclusion, a row op and a transpose leave a run over the
    # generator the quotient exclusion joined
    OVER_A_GENERATOR = (
        "level n 2\n"
        "edge e0 color 2 from boundary:e0i to v0\n"
        "edge e1 color 1 from boundary:e1i to v1\n"
        "edge e2 color 1 from v0 to v3\n"
        "edge e3 color 1 from v0 to v1\n"
        "edge e4 color 2 from v1 to v2\n"
        "edge e5 color 1 from v2 to v3\n"
        "edge e6 color 1 from v2 to boundary:e6o\n"
        "edge e7 color 2 from v3 to boundary:e7o\n"
        "vertex v0 split in e0 out e2 e3\n"
        "vertex v1 merge in e3 e1 out e4\n"
        "vertex v2 split in e4 out e5 e6\n"
        "vertex v3 merge in e2 e5 out e7\n"
    )

    def test_chain_and_generator_runs_equal_single_steps(self, monkeypatch) -> None:
        sessions = [_session_of(corpus.bubble_chain(n)) for n in (2, 3, 4)]
        runs = self._runs(monkeypatch, sessions + [_session_of(self.OVER_A_GENERATOR)])
        assert any(k.base.ideal_gens and params["powers"] == [1] for _, k, params, _ in runs)

    def test_a_run_over_generators_reads_each_ring_s_normal_forms(self, monkeypatch) -> None:
        # y -> x turns the ideal (v - y) into (v - x), so v + w has normal
        # form x + w there and the run substitutes w, not v
        V, W = GradedVar("v", 2), GradedVar("w", 2)
        PV, PW = Poly.variable(V), Poly.variable(W)
        base = QuotientRing((X, V, W, Y), (PV - PY,))
        rows = ((PX**3, PY - PX), (-(PX**3), PV + PW), (PX**3, PW))
        session = ReductionSession(KoszulMF(base, rows, 0, 0, 8), external=frozenset({X}))
        (run,) = self._runs(monkeypatch, [session])
        assert run[2] == {"rows": [0, 0], "variables": ["y", "w"], "powers": [1, 1]}
        assert session.current.rows == ((PX**3, -PX),)
        assert session.current.base.ideal_gens == (PV - PX,)

    def test_a_run_ends_where_the_potential_leaves_the_external_variables(self) -> None:
        # i ranks below e, so y -> e turns the ideal (y - i) into (e - i),
        # led by e: there the potential -2e^2 has normal form -2i^2, so the
        # run stops after y although u - i offers a substitution, and the
        # next exclusion refuses that potential, as a single step would
        E, I, U = (GradedVar(name, 2) for name in ("e", "i", "u"))
        PE, PI, PU = (Poly.variable(v) for v in (E, I, U))
        base = QuotientRing((I, E, Y, U), (PY - PI,))
        rows = ((PE, PY - PE), (PE, PU - PE), (PY + PU, -PE))
        k = KoszulMF(base, rows, 0, 0, 4)
        assert k.potential() == -2 * PE**2
        session = ReductionSession(k, external=frozenset({E}))
        with pytest.raises(ConditionUnmet, match=r"potential involves internal variable\(s\) i$"):
            session.exclude_all()
        assert [e.params for e in session.log] == [
            {"rows": [0], "variables": ["y"], "powers": [1]}
        ]
        assert _presented(session.current) == _presented(exclude_variable(k, 0, {E}))
        assert session.current.potential() == -2 * PI**2

    def test_a_collapse_in_a_run_refuses_the_whole_run(self) -> None:
        # y -> x, then w -> x sends (w - y; (w - y)*x^2) to (0; 0); a row
        # that collapses stays collapsed, so the run checks once, at its end
        W = GradedVar("w", 2)
        d = Poly.variable(W) - PY
        rows = ((PX**3, PY - PX), (-d * PX**2, d), (d, d * PX**2), (-(PX**3), PY - PX))
        k = KoszulMF(QuotientRing((X, Y, W)), rows, 0, 0, 8)
        session = ReductionSession(k, external=frozenset({X}))
        with pytest.raises(ConditionUnmet, match=r"\(0; 0\) after excluding y, w;"):
            session.exclude_all()
        assert session.current is k and not session.log


class TestAbsorption:
    def test_regular_zero_row_is_absorbed(self) -> None:
        base = QuotientRing((X, Y))
        k = KoszulMF(base, ((PX * PX, Poly.zero()),), 0, 0, 8)
        session = ReductionSession(k)
        assert session.absorb_zero_rows() == 1
        assert session.current.row_count == 0
        assert session.current.base.ideal_gens == (PX * PX,)
        entry = session.log[-1]
        assert entry.op == "absorb"
        assert entry.params["sides"] == ["a"]

    def test_absorbed_generator_is_the_rows_entry(self) -> None:
        base = QuotientRing((X, Y))
        k = KoszulMF(base, ((3 * PX * PX, Poly.zero()),), 0, 0, 8)
        (gen,) = absorb_zero_row(k, 0).base.ideal_gens
        assert gen == 3 * PX * PX and type(gen.coefficient(((X, 2),))) is int

    def test_absorption_adopts_the_gate_ring(self, monkeypatch) -> None:
        # absorption keeps the ring the gate decided on, so neither the
        # rebased row nor a later series builds another basis, and the gate
        # continues the base's basis rather than building one: over (x^3),
        # where the lead y^2 shares no variable with x^3, and over
        # (y^2 - x^2), where the lead x^2*y of y^3's normal form shares y
        # with the lead y^2
        built, decided = [], []
        init, gate = poly_core._Basis.__init__, reduce_module._gate
        monkeypatch.setattr(
            poly_core._Basis, "__init__", lambda b, ring: built.append(ring) or init(b, ring)
        )
        monkeypatch.setattr(
            reduce_module, "_gate", lambda b, seq: decided.append(gate(b, seq)) or decided[-1]
        )
        for base, entry, joined in (
            (QuotientRing((X, Y), (PX**3,)), PY * PY, "Q[x(2), y(2)] / <x^3; 3*y^2>"),
            (
                QuotientRing((X, Y), (PY * PY - PX * PX,)), PY**3,
                "Q[x(2), y(2)] / <-x^2 + y^2; 3*y^3>",
            ),
        ):
            base.hilbert_series()
            built.clear()
            decided.clear()
            k = KoszulMF(base, ((3 * entry, Poly.zero()), (PX, PY**5)), 0, 0, 12)
            new = absorb_zero_row(k, 0)
            new.base.hilbert_series()
            assert [ring for _, ring in decided] == [new.base]
            assert decided[0][0] == "verified"
            assert not built
            assert new.base.render() == base.with_generators((3 * entry,)).render() == joined
            assert new.rows == ((PX, Poly.zero()),)

    def test_zero_divisor_is_flagged(self) -> None:
        base = QuotientRing((X, Y), (PX * PY,))
        k = KoszulMF(base, ((PX * PX, Poly.zero()),), 0, 0, 8)
        with pytest.raises(RegularityUnverified):
            absorb_zero_row(k, 0)
        session = ReductionSession(k)
        assert session.absorb_zero_rows() == 0
        assert session.current.rows == k.rows
        [entry] = session.log_dicts()
        assert entry == {
            "op": "skip",
            "params": {
                "rows": [0], "sides": ["a"], "generators": ["x^2"], "regularity": "unverified",
            },
            "potential_check": "unchanged",
        }

    def test_a_session_takes_no_log_and_absorption_no_option(self) -> None:
        k = KoszulMF(QuotientRing((X, Y)), ((PX * PX, Poly.zero()),), 0, 0, 8)
        with pytest.raises(TypeError):
            ReductionSession(k, log=[])
        assert list(inspect.signature(ReductionSession.absorb_zero_rows).parameters) == ["self"]

    def test_force_overrides_the_gate(self) -> None:
        base = QuotientRing((X, Y), (PX * PY,))
        k = KoszulMF(base, ((PX * PX, Poly.zero()),), 0, 0, 8)
        session = ReductionSession(k, force=True)
        assert session.absorb_zero_rows() == 1
        assert session.current.row_count == 0

    def test_the_log_records_the_gate_verdict(self) -> None:
        k = KoszulMF(QuotientRing((X, Y)), ((PX * PX, Poly.zero()),), 0, 0, 8)
        session = ReductionSession(k)
        assert session.absorb_zero_rows() == 1
        assert session.log[-1].params["regularity"] == "verified"
        # x^2 is a zero divisor over Q[x,y]/(xy): forced, and logged so
        base = QuotientRing((X, Y), (PX * PY,))
        k = KoszulMF(base, ((PX * PX, Poly.zero()),), 0, 0, 8)
        session = ReductionSession(k, force=True)
        assert session.absorb_zero_rows() == 1
        [entry] = session.log_dicts()
        assert entry["op"] == "absorb"
        assert entry["params"]["regularity"] == "unverified"

    def test_collapsed_row_is_refused(self) -> None:
        # absorbing x kills both entries of (x; x^3)
        base = QuotientRing((X,))
        k = KoszulMF(base, ((PX, Poly.zero()), (PX, PX**3)), 0, 0, 8)
        with pytest.raises(ConditionUnmet, match=r"collapsed to \(0; 0\)"):
            absorb_zero_row(k, 0)

    def test_an_a_side_row_absorbs_as_its_transpose(self, monkeypatch) -> None:
        # (a; 0) is (0; a) after a parity flip and a grading shift, so
        # absorbing either gives the same presentation
        seen = []
        step = ReductionSession._step
        monkeypatch.setattr(
            ReductionSession, "_step", lambda s, op, p, new: step(s, op, p, new) or seen.append(new)
        )
        # runs of substitutions adopt fewer presentations than single
        # steps did, so 48 diagrams give the 20 cases 24 used to
        rng = random.Random(71)
        for _ in range(48):
            _, d, k = corpus.random_compiled(rng, closed=rng.random() < 0.5)
            ReductionSession(k, external=d.external_vars()).reduce_fully()

        def absorbed(k: KoszulMF, m: int) -> tuple:
            try:
                new = absorb_zero_row(k, m, force=True)
            except ConditionUnmet as exc:
                return (str(exc),)
            return new.rows, new.base.render(), new.global_grading_shift, new.z2_shift

        checked = 0
        for k in seen:
            for m, (a, b) in enumerate(k.rows):
                if a and not b:
                    assert absorbed(k, m) == absorbed(transpose_row(k, m), m)
                    checked += 1
        assert checked >= 20


def _theta_src(n: int) -> str:
    """Two color-1 edges split off a color-2 edge and merge back."""
    return (
        f"level n {n}\n"
        "edge e2 color 1 from v1 to v2\n"
        "edge e3 color 1 from v1 to v2\n"
        "edge e4 color 2 from v2 to v1\n"
        "vertex v1 split in e4 out e2 e3\n"
        "vertex v2 merge in e2 e3 out e4\n"
    )


def _closed_sources() -> list[str]:
    """The theta family at levels 3..6, 24 corpus closures and every
    circle through level 6."""
    rng = random.Random(83)
    sources = [_theta_src(n) for n in range(3, 7)]
    sources += [corpus.random_compiled(rng)[0] for _ in range(24)]
    sources += [_circle_src(i, n) for n in range(1, 7) for i in range(1, n + 1)]
    return sources


class TestSequenceAbsorption:
    """A session absorbs its zero-sided rows as one gated sequence, and
    falls back to the first row alone when the gate refuses it."""

    @staticmethod
    def _zero_rows(k: KoszulMF) -> list[int]:
        return [m for m, (a, b) in enumerate(k.rows) if not a or not b]

    def test_one_sequence_equals_row_by_row(self) -> None:
        sequences = 0
        for src in _closed_sources():
            session = _session_of(src)
            session.exclude_all()
            one = session.current
            while zero := self._zero_rows(one):
                one = absorb_zero_row(one, zero[0])
            start = len(session.log)
            session.absorb_zero_rows()
            seq = session.current
            steps = session.log[start:]
            assert [e.params["regularity"] for e in steps] == ["verified"] * len(steps), src
            sequences += sum(len(e.params["rows"]) > 1 for e in steps)
            assert seq.base.hilbert_series() == one.base.hilbert_series(), src
            assert seq.rows == one.rows, src
            assert (seq.global_grading_shift, seq.z2_shift) == (
                one.global_grading_shift, one.z2_shift
            ), src
            assert _euler(seq, None) == _euler(one, None), src
        assert sequences >= 10

    @pytest.mark.parametrize("n", range(3, 7))
    def test_a_closed_theta_absorbs_in_one_step(self, n: int) -> None:
        session = _session_of(_theta_src(n))
        session.reduce_fully()
        ops = [e.op for e in session.log]
        at = ops.index("absorb")
        assert set(ops[:at]) == {"exclude_variable"} and ops[at:] == ["absorb"]
        params = session.log[-1].params
        assert len(params["rows"]) == len(params["sides"]) == len(params["generators"]) > 1
        assert session.current.row_count == 0

    def test_the_log_names_each_generator_as_the_base_holds_it(self) -> None:
        # 2x^2 + xy joins the base as the row holds it
        k = KoszulMF(QuotientRing((X, Y)), ((Poly.zero(), 2 * PX * PX + PX * PY),), 0, 0, 8)
        session = ReductionSession(k)
        assert session.absorb_zero_rows() == 1
        (gen,) = session.current.base.ideal_gens
        assert session.log[-1].params["generators"] == [gen.render()] == ["x*y + 2*x^2"]
        assert gen == 2 * PX * PX + PX * PY

    @staticmethod
    def _two_zero_rows(force: bool = False) -> ReductionSession:
        # x^2, x*y is not a regular sequence in Q[x,y]; x*y is then a zero
        # divisor over Q[x,y]/(x^2)
        rows = ((Poly.zero(), PX * PX), (Poly.zero(), PX * PY))
        return ReductionSession(KoszulMF(QuotientRing((X, Y)), rows, 0, 0, 8), force=force)

    def test_a_refused_sequence_falls_back_to_its_first_row(self) -> None:
        session = self._two_zero_rows()
        assert session.absorb_zero_rows() == 1
        entry, skip = session.log
        assert (entry.op, entry.params["rows"], entry.params["regularity"]) == (
            "absorb", [0], "verified"
        )
        # x*y, now row 0, is a zero divisor over Q[x,y]/(x^2): it is left
        assert (skip.op, skip.params["rows"], skip.params["regularity"]) == (
            "skip", [0], "unverified"
        )
        assert skip.potential_check == "unchanged"
        assert session.current.rows == ((Poly.zero(), PX * PY),)
        assert session.current.base.ideal_gens == (PX * PX,)
        with pytest.raises(RegularityUnverified):
            absorb_zero_row(session.current, 0)

    def test_force_absorbs_a_refused_sequence_row_by_row(self) -> None:
        session = self._two_zero_rows(force=True)
        assert session.absorb_zero_rows() == 2
        assert [(e.params["rows"], e.params["regularity"]) for e in session.log] == [
            ([0], "verified"), ([0], "unverified")
        ]
        assert session.current.row_count == 0


def _lead_one(p: Poly) -> Poly:
    """p scaled so that its ``mono_key``-largest term has coefficient 1,
    as absorbed entries once joined the base."""
    return p * (1 / Fraction(p.coefficient(max(p.terms, key=mono_key))))


def _joined_answers(base: QuotientRing, seq: Sequence[Poly], polys: Sequence[Poly]) -> tuple:
    """What base + (seq) answers: the gate's verdict, the basis elements,
    the Hilbert numerator and the normal forms of polys; "refused" for a
    basis the packed limit stops."""
    verdict, joined = reduce_module._gate(base, seq)
    try:
        elements = joined._basis().elements
    except poly_core.CutoffExceeded:
        return verdict, "refused"
    return verdict, elements, joined.hilbert_series()[0], [joined.normal_form(p) for p in polys]


class TestUnscaledGenerators:
    """An entry joins the base as its row holds it.  An ideal does not
    change when its generators are rescaled, so scaling each entry first,
    as by its ``mono_key`` lead, changes no answer of the joined ring."""

    @staticmethod
    def _corpus_gates(monkeypatch) -> list[tuple[QuotientRing, tuple[Poly, ...]]]:
        gates, gate = [], reduce_module._gate
        monkeypatch.setattr(
            reduce_module, "_gate", lambda b, seq: gates.append((b, tuple(seq))) or gate(b, seq)
        )
        rng = random.Random(59)
        sources = _closed_sources()[::3] + [corpus.bubble_chain(4), _bubble_src(2, 2, 4, 4)]
        sources += [corpus.random_compiled(rng, closed=False)[0] for _ in range(8)]
        for src in sources:
            _session_of(src).reduce_fully()
        monkeypatch.undo()
        return gates

    HAND_BUILT = (
        (
            QuotientRing((X, Y, Z)),
            (2 * PX * PX + 3 * PY * PZ, Fraction(-2, 3) * PX * PY + 5 * PZ * PZ),
        ),
        (QuotientRing((X, Y), (PY * PY - PX * PX,)), (Fraction(7, 2) * PY**3 - PX * PX * PY,)),
        (QuotientRing((Z, X, Y), (PX**3,)), (4 * PY * PY + PX * PZ, -3 * PZ**3 + PX * PY * PZ)),
    )
    REFUSED = (
        (QuotientRing((X, Y)), (3 * PX * PX, -2 * PX * PY)),  # x*y divides zero mod (x^2)
        (QuotientRing((X, Y), (PX * PX,)), (Fraction(1, 3) * PX * PY,)),
        (QuotientRing((X, Y), (PX**100 * PY**20,)), (-5 * PX**20 * PY**100,)),  # packed limit
    )

    def test_a_lead_one_scaling_changes_no_answer(self, monkeypatch) -> None:
        rng = random.Random(61)
        gates = self._corpus_gates(monkeypatch)
        assert len(gates) >= 20
        # each corpus entry divides zero once its multiple by a variable of
        # the ring is joined, so the gate refuses it there
        divided = [
            (QuotientRing(base.vars, base.ideal_gens + (seq[0] * Poly.variable(base.vars[-1]),)),
             seq[:1])
            for base, seq in gates[::2]
        ]
        refused = 0
        for base, seq in gates + divided + list(self.HAND_BUILT + self.REFUSED):
            polys = [
                corpus.random_homogeneous(rng, list(base.vars), d, allow_zero=True)
                for d in (4, 6, 8)
            ]
            scaled = [_lead_one(p) for p in seq]
            raw = _joined_answers(base, seq, polys)
            assert raw == _joined_answers(base, scaled, polys), (base.render(), seq)
            refused += raw[0] == "unverified"
        assert refused == len(divided) + len(self.REFUSED)
        assert any(
            _lead_one(p) != p for _, seq in gates for p in seq
        ), "no corpus entry had a lead other than one"


def _line_of(color: int, tail: str, head: str) -> KoszulMF:
    return compile_diagram(parse(_line_src(color, 3, tail=tail, head=head)))


# name -> (the refused call, its exception, what the message says)
REFUSALS = {
    "row_op on one row": (
        lambda: row_op(_two_rows(), 0, 0, PX, "first_col"), ValueError, "two distinct rows",
    ),
    "row_op inhomogeneous lambda": (
        lambda: row_op(_two_rows(), 0, 1, PX + PX * PY, "first_col"),
        DegreeMismatch, "lambda must be homogeneous",
    ),
    "first_col lambda degree": (
        lambda: row_op(_two_rows(), 0, 1, PX * PY, "first_col"),
        DegreeMismatch, "first_col lambda degree 4, need 2",
    ),
    "second_col lambda degree": (
        lambda: row_op(_two_rows(), 0, 1, PX * PY, "second_col"),
        DegreeMismatch, "second_col lambda degree 4, need 2",
    ),
    "row_op unknown kind": (
        lambda: row_op(_two_rows(), 0, 1, PX, "third_col"), ValueError, "unknown row_op kind",
    ),
    "absorb a row with no zero side": (
        lambda: absorb_zero_row(_two_rows(), 0), ConditionUnmet, "row 0 has no zero side",
    ),
    "glue a variable outside the base": (
        lambda: glue(
            _line_of(1, "p", "q"), _line_of(1, "r", "s"), [(Alphabet(1, "q"), Alphabet(1, "t"))]
        ),
        ValueError, "is not in the base ring",
    ),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_the_calculus_refuses(name: str) -> None:
    call, exc, message = REFUSALS[name]
    with pytest.raises(exc, match=message):
        call()


class TestRegularityHeuristic:
    def test_product_expansion_sequence_verifies(self) -> None:
        # homogeneous pieces of (1 + x1 + x2)(1 + y1) - 1: a known regular
        # sequence in three variables
        x1, x2, y1 = GradedVar("x1", 2), GradedVar("x2", 4), GradedVar("y1", 2)
        ring = QuotientRing((x1, x2, y1))
        p1, p2, p3 = (Poly.variable(v) for v in (x1, x2, y1))
        seq = [p1 + p3, p2 + p1 * p3, p2 * p3]
        assert regularity_heuristic(ring, seq) == "verified"

    def test_non_regular_sequence_is_unverified(self) -> None:
        ring = QuotientRing((X, Y))
        assert regularity_heuristic(ring, [PX * PX, PX * PY]) == "unverified"

    def test_zero_entry_is_unverified(self) -> None:
        ring = QuotientRing((X, Y))
        assert regularity_heuristic(ring, [PX, Poly.zero()]) == "unverified"

    # x^10*y = 0 makes y a zero divisor, yet the series of the quotient by
    # y agrees with the one a regular y forces through degree 20, so a
    # comparison that stops below degree 22 calls y regular
    @pytest.mark.parametrize(
        "gen, entry",
        [(PX**10 * PY, PY), (PX * PX, PX * PY)],
        ids=["y mod x^10*y", "x*y mod x^2"],
    )
    def test_zero_divisor_is_unverified_and_not_absorbed(
        self, gen: Poly, entry: Poly
    ) -> None:
        ring = QuotientRing((X, Y), (gen,))
        assert regularity_heuristic(ring, [entry]) == "unverified"
        k = KoszulMF(ring, ((Poly.zero(), entry),), 0, 0, 8)
        with pytest.raises(RegularityUnverified):
            absorb_zero_row(k, 0)

    def test_a_base_that_cannot_complete_is_unverified(self) -> None:
        # the pair of x^100*y^20 and x^20*y^100 waits at degree 400, past
        # the packed limit 255, so not even the entry's normal form is known
        w = GradedVar("w", 2)
        pw = Poly.variable(w)
        base = QuotientRing((X, Y, w), (PX**100 * PY**20, PX**20 * PY**100))
        assert regularity_heuristic(base, [pw]) == "unverified"
        k = KoszulMF(base, ((pw, Poly.zero()),), 0, 0, 8)
        with pytest.raises(RegularityUnverified):
            absorb_zero_row(k, 0)
        session = ReductionSession(k)
        assert session.absorb_zero_rows() == 0
        assert session.current.rows == k.rows
        assert [(e.op, e.params["regularity"]) for e in session.log] == [("skip", "unverified")]

    def test_an_entry_whose_pair_passes_the_packed_limit_is_unverified(
        self, monkeypatch
    ) -> None:
        # the base's one generator is a complete basis; joining x^20*y^100
        # queues their pair at degree 400, which no key holds, so the
        # joined ring refuses, once, and the gate says "unverified"
        base = QuotientRing((X, Y), (PX**100 * PY**20,))
        entry = PX**20 * PY**100
        base._basis()
        completed = []
        complete = poly_core._Basis._complete
        monkeypatch.setattr(
            poly_core._Basis, "_complete", lambda b: completed.append(b) or complete(b)
        )
        verdict, joined = reduce_module._gate(base, [entry])
        assert verdict == "unverified" and len(completed) == 1
        for _ in range(3):
            with pytest.raises(poly_core.CutoffExceeded, match="S-pair degree 400"):
                joined.dimension(2)
        assert len(completed) == 1
        assert regularity_heuristic(base, [entry]) == "unverified"
        k = KoszulMF(base, ((entry, Poly.zero()),), 0, 0, 240)
        with pytest.raises(RegularityUnverified):
            absorb_zero_row(k, 0)
        session = ReductionSession(k)
        assert session.absorb_zero_rows() == 0
        assert session.current.rows == k.rows
        assert [(e.op, e.params["regularity"]) for e in session.log] == [("skip", "unverified")]
        assert session.reduce_fully() == k

    def test_sequence_is_decided_in_every_degree(self) -> None:
        # y is regular on Q[x,y]/(x^10), but x is then a zero divisor on
        # Q[x]/(x^10); the two series first differ in degree 20
        ring = QuotientRing((X, Y), (PX**10,))
        assert regularity_heuristic(ring, [PY]) == "verified"
        assert regularity_heuristic(ring, [PY, PX]) == "unverified"


class TestReplacementGates:
    def _regular_k(self) -> KoszulMF:
        base = QuotientRing((X, Y))
        return KoszulMF(base, ((PX * PX, PY * PY), (PY**3, PX)), 0, 0, 8)

    def test_degree_mismatch_rejected(self) -> None:
        session = ReductionSession(self._regular_k())
        with pytest.raises(DegreeMismatch):
            session.replace_second_sequence([PY, PX])  # row 0 needs degree 4

    def test_potential_change_rejected(self) -> None:
        session = ReductionSession(self._regular_k())
        with pytest.raises(PotentialMismatch):
            session.replace_second_sequence([PY * PY + PX * PX, PX])

    def test_verified_replacement_is_logged(self) -> None:
        session = ReductionSession(self._regular_k())
        session.replace_second_sequence([PY * PY, PX])
        entry = session.log[-1]
        assert entry.op == "replace_second_sequence"
        assert entry.params["regularity"] == "verified"
        assert entry.potential_check == "ok"

    def test_unverified_fixed_column_raises_without_force(self) -> None:
        # here the kept a-column (x^2, x^3) is not a regular sequence
        session = ReductionSession(_two_rows())
        with pytest.raises(RegularityUnverified):
            session.replace_second_sequence([PY * PY, PY])
        forced = ReductionSession(_two_rows(), force=True)
        forced.replace_second_sequence([PY * PY, PY])
        assert forced.log[-1].params["regularity"] == "unverified"

    def test_an_a_column_swap_keeps_the_potential_and_is_logged(self) -> None:
        # (2x^2, y^3 - x*y^2) against the kept regular b-column (y^2, x)
        k = self._regular_k()
        target = [2 * PX * PX, PY**3 - PX * PY * PY]
        new, verdict = replace_first_sequence(k, target)
        assert verdict == "verified"
        assert new.rows == tuple(zip(target, (PY * PY, PX)))
        assert new.potential() == k.potential()
        session = ReductionSession(k)
        session.replace_first_sequence(target)
        [entry] = session.log_dicts()
        assert entry == {
            "op": "replace_first_sequence",
            "params": {
                "targets": ["2*x^2", "-x*y^2 + y^3"], "rows": None, "regularity": "verified",
            },
            "potential_check": "ok",
        }

    def test_an_a_column_swap_over_an_unverified_b_column(self) -> None:
        # the kept b-column (y^2, y) of _two_rows is not a regular sequence
        target = [PX * PX + PX * PY, PX**3 - PX * PY * PY]
        with pytest.raises(RegularityUnverified):
            ReductionSession(_two_rows()).replace_first_sequence(target)
        forced = ReductionSession(_two_rows(), force=True)
        forced.replace_first_sequence(target)
        assert forced.log[-1].params["regularity"] == "unverified"
        assert forced.current.potential() == _two_rows().potential()

    def test_an_a_column_that_changes_the_potential_is_refused(self) -> None:
        with pytest.raises(PotentialMismatch, match="target a-column"):
            replace_first_sequence(self._regular_k(), [2 * PX * PX, PY**3])

    @pytest.mark.parametrize("target, rows", [([PY * PY], None), ([PY * PY, PX], [0])])
    def test_a_target_of_the_wrong_length_is_refused(self, target, rows) -> None:
        with pytest.raises(ValueError, match="length must match the row subset"):
            replace_second_sequence(self._regular_k(), target, rows=rows)


class TestSessionMoves:
    def test_a_scalar_twist_logs_its_row_and_scalar(self) -> None:
        session = ReductionSession(_two_rows())
        session.scalar_twist(0, Fraction(1, 3))
        assert session.current == scalar_twist(_two_rows(), 0, Fraction(1, 3))
        assert session.log_dicts() == [
            {"op": "scalar_twist", "params": {"row": 0, "c": "1/3"}, "potential_check": "ok"}
        ]

    def test_a_row_op_logs_its_rows_lambda_and_kind(self) -> None:
        session = ReductionSession(_two_rows())
        session.row_op(0, 1, PX, "first_col")
        assert session.current == row_op(_two_rows(), 0, 1, PX, "first_col")
        assert session.log_dicts() == [
            {
                "op": "row_op",
                "params": {"i": 0, "j": 1, "lambda": "x", "kind": "first_col"},
                "potential_check": "ok",
            }
        ]


class TestGlue:
    def _line(self, label_in: str, label_out: str) -> KoszulMF:
        return compile_diagram(
            parse(_line_src(1, 3, tail=label_in, head=label_out))
        )

    def test_glue_is_associative_up_to_row_order(self) -> None:
        x = self._line("p", "m1")
        y = self._line("m1b", "m2")
        z = self._line("m2b", "s")
        pair_xy = [(Alphabet(1, "m1"), Alphabet(1, "m1b"))]
        pair_yz = [(Alphabet(1, "m2"), Alphabet(1, "m2b"))]
        left = glue(glue(x, y, pair_xy), z, pair_yz)
        right = glue(x, glue(y, z, pair_yz), pair_xy)

        def row_multiset(k: KoszulMF) -> list[tuple[str, str]]:
            return sorted((a.render(), b.render()) for a, b in k.rows)

        assert row_multiset(left) == row_multiset(right)
        assert set(left.base.vars) == set(right.base.vars)
        assert left.potential() == right.potential()

    def test_empty_pairing_is_disjoint_union(self) -> None:
        x = self._line("p", "q")
        y = self._line("r", "s")
        joined = glue(x, y, [])
        assert joined.row_count == x.row_count + y.row_count
        assert joined.potential() == x.potential() + y.potential()

    def test_color_mismatch_rejected(self) -> None:
        x = self._line("p", "q")
        y = compile_diagram(parse(_line_src(2, 3, tail="r", head="s")))
        with pytest.raises(ColorMismatch):
            glue(x, y, [(Alphabet(1, "q"), Alphabet(2, "r"))])

    @staticmethod
    def _digon(tag: str, tail: str, head: str) -> str:
        return (
            "level n 3\n"
            f"edge {tag}0 color 2 from boundary:{tail} to {tag}v0\n"
            f"edge {tag}1 color 1 from {tag}v0 to {tag}v1\n"
            f"edge {tag}2 color 1 from {tag}v0 to {tag}v1\n"
            f"edge {tag}3 color 2 from {tag}v1 to boundary:{head}\n"
            f"vertex {tag}v0 split in {tag}0 out {tag}1 {tag}2\n"
            f"vertex {tag}v1 merge in {tag}1 {tag}2 out {tag}3\n"
        )

    def test_glued_session_keeps_boundary_first_order_and_excludes(self) -> None:
        # two digons p -> m and mb -> s glued at m: each side keeps its
        # boundary-first order, so every internal variable can be excluded
        # and the potential is that of one line p -> s
        x = compile_diagram(parse(self._digon("a", "p", "m")))
        y = compile_diagram(parse(self._digon("b", "mb", "s")))
        glued = glue(x, y, [(Alphabet(2, "m"), Alphabet(2, "mb"))])
        dropped = set(Alphabet(2, "mb").vars)
        assert glued.base.vars == x.base.vars + tuple(
            v for v in y.base.vars if v not in dropped
        )
        line = parse("level n 3\nedge e color 2 from boundary:p to boundary:s\n")
        session = ReductionSession(glued, external=line.external_vars())
        session.exclude_all()
        k = session.current
        assert k.potential().variables() <= line.external_vars()
        assert not k.base.normal_form(k.potential() - boundary_potential(line))

    def test_collapsed_row_is_refused(self) -> None:
        # identifying b with a sends the first row to (0; 0)
        alpha, beta = Alphabet(1, "a"), Alphabet(1, "b")
        pa, pb = alpha.poly(1), beta.poly(1)
        base = QuotientRing((alpha.var(1), beta.var(1)))
        rows = ((pa - pb, (pa - pb) * pa**2), (pa**3, pa - pb))
        k = KoszulMF(base, rows, 0, 0, 8)
        with pytest.raises(ConditionUnmet, match=r"collapsed to \(0; 0\)"):
            glue(k, k, [(alpha, beta)])


def _fresh_potential(k: KoszulMF) -> Poly:
    """The potential summed afresh from the rows, in normal form."""
    fresh = Poly.zero()
    for a, b in k.rows:
        fresh = fresh + a * b
    return k.base.normal_form(fresh)


class TestPotentialMemo:
    def test_exclusion_results_compute_their_own(self) -> None:
        rng = random.Random(29)
        steps = 0
        for _ in range(6):
            _, d, k = corpus.random_compiled(rng, closed=False)
            external = d.external_vars()
            while True:
                rows = [m for m in range(k.row_count) if exclusion_candidate(k, m, external)]
                if not rows:
                    break
                k.potential()  # stored on the parent before the step
                try:
                    k = exclude_variable(k, rows[0], external)
                except ConditionUnmet:
                    break
                assert k.potential() == _fresh_potential(k)
                steps += 1
        assert steps > 0

    def test_step_compares_stored_potentials(self) -> None:
        k = _two_rows()
        other = k.with_rows(((PX * PX, PY * PY), (PX**3, -PY)))
        session = ReductionSession(k)
        # both values are stored before the step compares them
        assert k.potential() != other.potential()
        with pytest.raises(PotentialMismatch, match="rigged changed the potential"):
            session._step("rigged", {}, other)
        assert session.current is k and not session.log


def _square_session() -> ReductionSession:
    # its first exclusion (x1_i.lmid) keeps 4 of the 7 rows left
    d = parse(_square_wide_src(1, 3))
    return ReductionSession(compile_diagram(d), external=d.external_vars())


def _strand_square_session() -> ReductionSession:
    # a through strand's row survives the square's run of 5 substitutions
    d = parse(_square_wide_src(1, 3) + "edge s color 1 from boundary:si to boundary:so\n")
    return ReductionSession(compile_diagram(d), external=d.external_vars())


class TestRowReuse:
    """A step keeps the rows it does not touch as the same rows, which keep
    their product, so it multiplies only the others, yet still sums every
    row for its check."""

    def test_untouched_rows_reach_the_next_step_as_themselves(self, monkeypatch) -> None:
        session = _square_session()
        old = session.current
        old.potential()
        assert exclusion_candidate(old, 0, session.external)
        new = exclude_variable(old, 0, session.external)
        kept = [r for r in new.rows if any(r is o for o in old.rows)]
        assert len(kept) == 4 and new.row_count == 7
        products = []
        mul = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append(1) or mul(p, q))
        pot = new.potential()
        monkeypatch.undo()
        assert len(products) == new.row_count - len(kept)
        assert pot == _fresh_potential(new)

    def test_a_transpose_multiplies_only_the_swapped_row(self, monkeypatch) -> None:
        k = _two_rows()
        k.potential()
        new = transpose_row(k, 0)
        products = []
        mul = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append(1) or mul(p, q))
        pot = new.potential()
        monkeypatch.undo()
        assert len(products) == 1 and new.rows[1] is k.rows[1]
        assert pot == k.potential()

    def test_an_absorption_multiplies_only_the_rows_it_changed(self, monkeypatch) -> None:
        session = _session_of(corpus.bubble_chain(2))
        session.exclude_all()
        k = session.current
        zero = [m for m, (a, b) in enumerate(k.rows) if not a or not b]
        k.potential()
        absorbed = absorb_zero_row(k, zero[0])
        joined = k.join(k)
        assert sum(any(r is o for o in k.rows) for r in absorbed.rows) == 2
        products = []
        mul = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append(1) or mul(p, q))
        pots = [d.potential() for d in (absorbed, joined)]
        monkeypatch.undo()
        assert not products
        assert pots == [_fresh_potential(d) for d in (absorbed, joined)]

    def test_a_run_sums_once_and_multiplies_only_the_rows_it_changed(self, monkeypatch) -> None:
        session = _strand_square_session()
        old = session.current
        old.potential()
        sums, products = [], []
        mul, total = Poly.__mul__, mf_core._sum

        def summed(polys):
            # the products a sum takes are those the rows had not kept
            with monkeypatch.context() as patch:
                patch.setattr(Poly, "__mul__", lambda p, q: products.append(1) or mul(p, q))
                sums.append(1)
                return total(polys)

        monkeypatch.setattr(mf_core, "_sum", summed)
        assert session.exclude_all() == 5 and len(session.log) == 1
        new = session.current
        kept = [r for r in new.rows if any(r is o for o in old.rows)]
        assert len(sums) == 1 and len(kept) == 1
        assert len(products) == new.row_count - len(kept) == 3

    @pytest.mark.parametrize("kept", [True, False])
    def test_a_corrupted_row_fails_the_check(self, monkeypatch, kept: bool) -> None:
        session = _strand_square_session()
        rebased = reduce_module._rebased_rows
        hit = []

        def corrupt(given, new_base, sigma, context):
            given = list(given)
            rows = list(rebased(given, new_base, sigma, context))
            for m, (a, b) in enumerate(rows):
                same = any(rows[m] is r for r in given)
                if not hit and same == kept and new_base.normal_form(a * b):
                    rows[m] = (2 * a, b)
                    hit.append(m)
            return tuple(rows)

        monkeypatch.setattr(reduce_module, "_rebased_rows", corrupt)
        with pytest.raises(PotentialMismatch, match="exclude_variable changed the potential"):
            session.exclude_all()
        assert hit and not session.log


class TestProvedPotential:
    """``compile_diagram`` keeps the potential its rows telescope to, apart
    from ``potential()``, which still sums the rows; a session's first step
    compares against the kept one and multiplies no compiled row for it."""

    def test_a_compiled_potential_is_its_row_sum(self, monkeypatch) -> None:
        rng = random.Random(42)
        sources = [_square_wide_src(1, 3), corpus.bubble_chain(2)]
        sources += [corpus.random_diagram_source(rng, closed=m % 2 == 0) for m in range(20)]
        mul = Poly.__mul__
        for src in sources:
            d = parse(src)
            k = compile_diagram(d)
            products = []
            monkeypatch.setattr(Poly, "__mul__", lambda p, q: products.append(1) or mul(p, q))
            pot = k.potential()
            monkeypatch.undo()
            assert len(products) == k.row_count, src
            assert pot == _fresh_potential(k) == k._proved_potential, src
            assert pot == boundary_potential(d), src

    def test_the_first_step_multiplies_only_the_new_rows(self, monkeypatch) -> None:
        session = _strand_square_session()
        old = session.current
        sums, products = [], []
        mul, total = Poly.__mul__, mf_core._sum

        def summed(polys):
            with monkeypatch.context() as patch:
                patch.setattr(Poly, "__mul__", lambda p, q: products.append(1) or mul(p, q))
                sums.append(1)
                return total(polys)

        monkeypatch.setattr(mf_core, "_sum", summed)
        assert session.exclude_all() == 5 and len(session.log) == 1
        new = session.current
        # one sum, over the 4 new rows, the through strand's among them;
        # none of the 9 compiled rows was multiplied before it
        assert len(sums) == 1 and len(products) == new.row_count == 4
        assert old.row_count == 9 and "_potential" not in old.__dict__
        dropped = [r for r in old.rows if all(r is not q for q in new.rows)]
        assert len(dropped) == 8 and not any("product" in r.__dict__ for r in dropped)

    def test_a_doubled_compiled_row_fails_the_first_step(self, monkeypatch) -> None:
        # the through strand's row survives the run, so doubling its
        # a-entry moves the row sum off the potential the compiler proved
        rows_of = symfun._rows

        def doubled(family, n, *alphabets):
            rows = rows_of(family, n, *alphabets)
            if family == "L":
                rows[0] = (2 * rows[0][0], rows[0][1])
            return rows

        monkeypatch.setattr(diagram, "_rows", doubled)
        session = _strand_square_session()
        monkeypatch.undo()
        k = session.current
        assert _fresh_potential(k) != k._proved_potential
        with pytest.raises(PotentialMismatch, match="exclude_variable changed the potential"):
            session.exclude_all()
        assert not session.log and session.current is k


def _session_of(src: str) -> ReductionSession:
    d = parse(src)
    return ReductionSession(compile_diagram(d), external=d.external_vars())


class TestLazyParams:
    """A session renders the polynomials of its step params on the first
    read of its log, so a caller that drops the log renders none."""

    def test_a_crosscheck_renders_no_polynomial(self, monkeypatch) -> None:
        rendered = []
        render = Poly.render
        monkeypatch.setattr(Poly, "render", lambda p: rendered.append(p) or render(p))
        for src in _closed_sources():
            assert oracle_crosscheck(parse(src))["verdict"] == "PASS", src
        assert rendered == []

    def test_a_read_log_is_what_rendering_on_the_spot_gave(self) -> None:
        digest = hashlib.sha256()
        for src in _closed_sources():
            session = _session_of(src)
            session.reduce_fully()
            digest.update(json.dumps(session.log_dicts()).encode())
        assert digest.hexdigest()[:16] == "edf8dc73c547d16f"

    def test_pending_params_hold_no_presentation_and_render_once(self) -> None:
        def held(x):
            if isinstance(x, dict):
                x = list(x.values())
            return [y for v in x for y in held(v)] if isinstance(x, (list, tuple)) else [x]

        session = _session_of(_theta_src(4))
        session.reduce_fully()
        chain = _session_of(corpus.bubble_chain(4))
        chain.reduce_fully()
        log = session.log + chain.log
        pending = [e for e in log if callable(e._params)]
        assert {e.op for e in pending} == {"absorb", "row_op"}
        for e in pending:
            cells = held([c.cell_contents for c in e._params.__closure__])
            assert not any(isinstance(x, (KoszulMF, QuotientRing)) for x in cells), e.op
        first = [e.params for e in log]
        assert all(e.params is p for e, p in zip(log, first))

    def test_a_log_entry_takes_a_dict_or_a_function_of_none(self) -> None:
        params = {"i": 0, "j": 1, "lambda": "x", "kind": "first_col"}
        eager = LogEntry("row_op", dict(params), "ok")
        lazy = LogEntry("row_op", lambda: dict(params), "ok")
        assert eager.params == params and lazy == eager
        assert lazy.as_dict() == {"op": "row_op", "params": params, "potential_check": "ok"}
        assert repr(lazy) == f"LogEntry('row_op', {params!r}, 'ok')"


class TestCandidatePicks:
    """exclude_all picks what a fresh scan would pick, at every step of a
    run, and each session reads its own external variables."""

    def test_picks_match_a_fresh_scan(self, monkeypatch) -> None:
        step = ReductionSession._step
        picks = []

        def checked(self, op, params, new):
            k, steps = self.current, []
            if op == "exclude_variable":
                steps = zip(params["rows"], params["variables"], params["powers"])
            for row, var, power in steps:
                fresh = [
                    (m, c) for m in range(k.row_count)
                    if (c := exclusion_candidate(k, m, self.external)) is not None
                ]
                at, want = min(fresh, key=lambda mc: (mc[1].power > 1, mc[0]))
                assert (row, var, power) == (at, want.var.name, want.power)
                picks.append(var)
                k = exclude_variable(k, row, self.external)
            step(self, op, params, new)

        monkeypatch.setattr(ReductionSession, "_step", checked)
        rng = random.Random(37)
        for _ in range(12):
            _, d, k = corpus.random_compiled(rng, closed=False, max_rows=24, max_pairs=4)
            ReductionSession(k, external=d.external_vars()).exclude_all()
        # the chain's absorptions add generators yet keep rows they leave alone
        for n in (2, 3):
            _session_of(corpus.bubble_chain(n)).reduce_fully()
        assert len(picks) > 20

    @pytest.mark.parametrize("boundary_first", [True, False])
    def test_sessions_with_other_externals_share_no_candidate(self, boundary_first: bool) -> None:
        d = parse(_square_wide_src(2, 4))
        k = compile_diagram(d)
        runs = [(d.external_vars(), 8), (frozenset(k.base.vars), 0)]
        for external, removed in runs if boundary_first else runs[::-1]:
            assert ReductionSession(k, external=external).exclude_all() == removed


class TestClearing:
    """reduce_fully's last resort once exclusion and absorption stall: row
    ops that cancel internal parts, and transpositions."""

    @staticmethod
    def _steps(session: ReductionSession) -> list[tuple[str, dict]]:
        return [(e.op, e.params) for e in session.log if e.op != "exclude_variable"]

    def test_b_against_b_leaves_a_zero_side_to_absorb(self) -> None:
        session = _session_of(_bubble_src(2, 2, 4, 4))
        session.reduce_fully()
        (op, params), (absorb, _) = self._steps(session)
        assert (op, params["lambda"], params["kind"], absorb) == ("row_op", "-1", "first_col", "absorb")
        for a, b in session.current.rows:
            assert a.variables() | b.variables() <= session.external

    def test_an_internal_monomial_against_an_internal_free_b(self) -> None:
        # b_1 = x1_i.zl * b_0 once the middle alphabet is excluded
        session = _session_of(_counter_bubble_src(1, 1, 3))
        session.reduce_fully()
        (op, params), (absorb, absorbed) = self._steps(session)
        assert op == "row_op" and params == {
            "i": 1, "j": 0, "lambda": "x1_i.zl", "kind": "first_col",
        }
        assert absorb == "absorb" and absorbed["sides"] == ["a"]

    def test_a_transpose_hands_its_row_to_exclusion(self) -> None:
        session = _session_of(_square_wide_src(2, 3))
        session.reduce_fully()
        ops = [e.op for e in session.log]
        at = ops.index("transpose_row")
        assert ops[at + 1] == "exclude_variable"
        assert session.log[at + 1].params["rows"][0] == session.log[at].params["row"]

    def test_an_internal_potential_stops_clearing_before_a_transpose(self) -> None:
        # y^2 is a pure power exclusion would admit, but the potential
        # x^2*y^2 holds the internal y, so exclusion would refuse the row
        k = KoszulMF(QuotientRing((X, Y)), ((PY * PY, PX * PX),), 0, 0, 8)
        session = ReductionSession(k, external=frozenset({X}))
        assert session.reduce_fully() == k and not session.log

    def test_external_rows_need_no_step(self) -> None:
        session = _session_of(_line_src(2, 4))
        assert session.reduce_fully().row_count == 2 and not session.log


class TestSessionContract:
    def test_every_step_preserves_the_potential(self) -> None:
        rng = random.Random(61)
        total_steps = 0
        for _ in range(8):
            src, d, k = corpus.random_compiled(rng, closed=rng.random() < 0.5)
            session = ReductionSession(k, external=d.external_vars())
            session.reduce_fully()
            total_steps += len(session.log)
            assert all(e.potential_check == "ok" for e in session.log)
            final = session.current
            residue = final.base.normal_form(
                final.potential() - boundary_potential(d)
            )
            assert residue == Poly.zero(), src
        assert total_steps > 0

    def test_log_serialization_shape(self) -> None:
        rng = random.Random(67)
        _, d, k = corpus.random_compiled(rng, closed=True)
        session = ReductionSession(k, external=d.external_vars())
        session.reduce_fully()
        assert session.log
        for entry in session.log_dicts():
            assert set(entry) == {"op", "params", "potential_check"}
