"""Acceptance checks for the whole engine.

One test per criterion; each is timed against its budget and prints a
single verdict line (visible with -s or -v).
"""

from __future__ import annotations

import dataclasses
import math
import random
import time

import corpus
from moymf import (
    ConditionUnmet,
    CutoffExceeded,
    KoszulMF,
    Poly,
    QLaurent,
    QuotientRing,
    ReductionSession,
    RegularityUnverified,
    SparseMat,
    absorb_zero_row,
    compile_diagram,
    euler_characteristic,
    homology,
    jacobi_series,
    koszul_expand,
    p_coeff,
    parse,
    power_sum_F,
    qbinomial,
    regularity_heuristic,
    verify_relation,
)
from moymf.mf_core import validate
from moymf.poly_core import GradedVar
from moymf.symfun import generic_slots

THETA = (
    "level n 3\n"
    "edge e2 color 1 from v1 to v2\n"
    "edge e3 color 1 from v1 to v2\n"
    "edge e4 color 2 from v2 to v1\n"
    "vertex v1 split in e4 out e2 e3\n"
    "vertex v2 merge in e2 e3 out e4\n"
)


def _finish(num: int, label: str, t0: float, limit: float) -> None:
    dt = time.perf_counter() - t0
    assert dt < limit, f"criterion {num} took {dt:.1f}s, over the {limit}s budget"
    print(f"criterion {num:2d} ({label}): PASS in {dt:.2f}s (limit {limit:g}s)")


def test_criterion_01_circle_euler_is_the_binomial() -> None:
    t0 = time.perf_counter()
    from moymf import euler_of_diagram

    for n in range(1, 6):
        for i in range(1, n + 1):
            src = f"level n {n}\nedge e1 color {i} from boundary:a to boundary:a\n"
            got = euler_of_diagram(parse(src), cutoff=28)
            assert got == qbinomial(n, i), (i, n, got.render())
    _finish(1, "circle Euler values, i <= n <= 5", t0, 10.0)


def test_criterion_02_jacobi_quotient_series() -> None:
    t0 = time.perf_counter()
    for r in (1, 2):
        for n in range(r, 6):
            slots = generic_slots(r)
            f = power_sum_F(r, n)
            ring = QuotientRing(
                slots, tuple(f.differentiate(v) for v in slots)
            )
            dims = ring.dimension_series(20)
            assert dims == jacobi_series(n, r), (r, n)
            assert dims.at_one() == math.comb(n, r), (r, n)
    _finish(2, "partial-derivative quotient series", t0, 30.0)


def test_criterion_03_line_contraction() -> None:
    t0 = time.perf_counter()
    for i in (1, 2):
        for n in range(i, 5):
            report = verify_relation("line_contract", (i, n))
            assert report["verdict"] == "PASS", (i, n, report)
    _finish(3, "glued line contracts to a line", t0, 10.0)


def test_criterion_04_bubble_decomposition() -> None:
    t0 = time.perf_counter()
    cases = (
        (1, 1, 2, 3), (1, 1, 2, 4), (1, 2, 3, 4), (2, 1, 3, 4),
        (2, 2, 4, 4), (2, 3, 5, 5), (2, 2, 4, 7),
    )
    for params in cases:
        report = verify_relation("bubble", params)
        assert report["verdict"] == "PASS", (params, report)
    # the grading ladder of the decomposition sums to the balanced binomial
    for i1, _i2, i3, _n in cases:
        total = QLaurent.zero()
        for j in range(i1 * (i3 - i1) + 1):
            total = total + QLaurent.q_power(
                -i1 * i3 + i1 * i1 + 2 * j
            ) * p_coeff(j, i3, i1)
        assert total == qbinomial(i3, i1), (i1, i3)
    _finish(4, "bubble splits into graded lines", t0, 60.0)


def test_criterion_05_counter_bubble() -> None:
    t0 = time.perf_counter()
    for params in ((1, 1, 3), (1, 1, 4), (2, 1, 4)):
        report = verify_relation("counter_bubble", params)
        assert report["verdict"] == "PASS", (params, report)
    _finish(5, "counter-bubble binomial factor", t0, 60.0)


def test_criterion_05_counter_bubble_over_an_open_base() -> None:
    # (1,2,5) reduces over a base that is not Artinian, so its series has
    # a term in every even degree up to the cutoff
    t0 = time.perf_counter()
    report = verify_relation("counter_bubble", (1, 2, 5), cutoff=30)
    assert report["verdict"] == "PASS", report
    _finish(5, "counter-bubble (1,2,5) at cutoff 30", t0, 2.0)


def test_criterion_06_merge_split_associativity() -> None:
    t0 = time.perf_counter()
    for name in ("assoc_merge", "assoc_split"):
        for n in (3, 4):
            report = verify_relation(name, (1, 1, 1, n))
            assert report["verdict"] == "PASS", (name, n, report)
    _finish(6, "tree associativity both ways", t0, 60.0)


def test_criterion_07_square_relations() -> None:
    t0 = time.perf_counter()
    for name in ("square_j", "square_wide"):
        for n in (3, 4):
            report = verify_relation(name, (2, n))
            assert report["verdict"] == "PASS", (name, n, report)
    _finish(7, "two-rung square decompositions", t0, 120.0)


def test_criterion_08_square_coefficient_identity() -> None:
    t0 = time.perf_counter()
    for j1 in range(2, 9):
        for j2 in range(1, j1):
            report = verify_relation("cor_square", (j1, j2))
            assert report["verdict"] == "PASS", (j1, j2, report)
    _finish(8, "coefficient identity, all j2 < j1 <= 8", t0, 1.0)


def test_criterion_09_property_suites() -> None:
    t0 = time.perf_counter()

    # (a) a 50-diagram random corpus compiles to valid factorizations
    rng = random.Random(20260816)
    compiled = []
    for _ in range(50):
        _src, d, k = corpus.random_compiled(rng, closed=rng.random() < 0.5)
        compiled.append((d, k))
        assert validate(koszul_expand(k)) == [], _src

    # (b) every reduction step preserves the potential
    for d, k in compiled:
        session = ReductionSession(k, external=d.external_vars())
        session.reduce_fully()
        assert all(e.potential_check == "ok" for e in session.log)

    # (c) the tensor product, a join of rows, commutes and associates at
    # graded rank
    cutoff = 12
    for _ in range(20):
        a = corpus.random_koszul(rng)
        b = corpus.random_koszul(rng)
        c = corpus.random_koszul(rng)
        assert (
            koszul_expand(a.join(b)).graded_series(cutoff)
            == koszul_expand(b.join(a)).graded_series(cutoff)
        )
        assert (
            koszul_expand(a.join(b).join(c)).graded_series(cutoff)
            == koszul_expand(a.join(b.join(c))).graded_series(cutoff)
        )

    # (d) translation squares to the identity; grading shifts add
    for _ in range(10):
        k = corpus.random_koszul(rng)
        m = koszul_expand(k)
        assert koszul_expand(k.translated().translated()) == m
        assert koszul_expand(k.grade_shifted(3).grade_shifted(-5)) == koszul_expand(
            k.grade_shifted(-2)
        )
        assert k.translated(1).translated(1) == k
        assert k.grade_shifted(4).grade_shifted(1) == k.grade_shifted(5)

    # (e) Euler characteristic survives randomized exclusion order
    usable = 0
    attempts = 0
    while usable < 10 and attempts < 60:
        attempts += 1
        _src, d, k = corpus.random_compiled(rng, closed=True)
        try:
            session = ReductionSession(k, external=d.external_vars())
            session.reduce_fully()
            base_euler = euler_characteristic(
                homology(session.current.expand(), cutoff=24)
            )
        except (CutoffExceeded, ConditionUnmet):
            continue
        usable += 1
        for trial in range(2):
            shuffled = corpus.random_order_reduce(
                k, d.external_vars(), random.Random(7000 + 10 * attempts + trial)
            )
            got = euler_characteristic(
                homology(shuffled.current.expand(), cutoff=24)
            )
            assert got == base_euler, _src
    assert usable >= 10

    _finish(9, "randomized property suites", t0, 300.0)


def test_criterion_10_defects_are_caught() -> None:
    t0 = time.perf_counter()

    # a corrupted differential entry must be reported
    mf = compile_diagram(parse(THETA)).expand()
    assert validate(mf) == []
    entries = dict(mf.d0.entries)
    key = next(iter(sorted(entries)))
    entries[key] = entries[key] * 2
    broken = dataclasses.replace(
        mf, d0=SparseMat(mf.d0.nrows, mf.d0.ncols, entries)
    )
    assert validate(broken) != []

    # a non-regular sequence must be flagged, not silently absorbed
    x, y = GradedVar("x", 2), GradedVar("y", 2)
    px, py = Poly.variable(x), Poly.variable(y)
    ring = QuotientRing((x, y))
    assert regularity_heuristic(ring, [px * px, px * py]) == "unverified"
    k = KoszulMF(
        QuotientRing((x, y), (px * py,)), ((px * px, Poly.zero()),), 0, 0, 8
    )
    try:
        absorb_zero_row(k, 0)
    except RegularityUnverified:
        pass
    else:
        raise AssertionError("unverified absorption was not flagged")
    session = ReductionSession(k)
    assert session.absorb_zero_rows() == 0 and session.current.rows == k.rows
    assert [(e.op, e.params["regularity"]) for e in session.log] == [("skip", "unverified")]

    _finish(10, "defect detection", t0, 30.0)
