"""Tests of the benchmark itself (not of the engine).

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The last tests start whole benchmark runs and take a few minutes.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
from moymf import compile_diagram, parse  # noqa: E402

# metrics that are counts, or ratios of counts, and so must repeat exactly
COUNTED = (
    "poly_core.degrees", "poly_core.zero_degree_ratio", "poly_core.macaulay_monomials",
    "poly_core.macaulay_pivots", "poly_core.normal_form_calls", "mf_core.expanded_rank",
    "reduce.gate_calls", "reduce.gate_verified_ratio", "reduce.steps", "reduce.rows_left",
    "reduce.refused", "diagram.rows", "symfun.power_sum_hit_ratio", "trace.spans",
)


def test_shape_rows_match_the_compiler() -> None:
    rng = random.Random(11)
    for closed, shape in ((True, gen.CLOSED_SHAPE), (False, gen.OPEN_SHAPE)):
        for _ in range(100):
            s = gen.random_shape(rng, closed, **shape)
            d = parse(s.source())
            assert d.closed == closed
            assert compile_diagram(d).row_count == s.rows


def test_inputs_follow_the_seed() -> None:
    for make in (gen.closed_items, gen.relation_items, gen.open_items):
        assert make(3) == make(3)
    assert sorted(gen.closed_items(3)) == sorted(gen.closed_items(4))
    assert gen.closed_items(3) != gen.closed_items(4)
    assert sorted(gen.open_items(3)) == sorted(gen.open_items(4))
    assert gen.open_items(3) != gen.open_items(4)
    assert all(s.rows <= gen.CLOSED_MAX_ROWS for s in gen.closed_shapes())
    assert len(gen.relation_items(0)) == len(gen.RELATION_ITEMS)


def test_tail_is_the_highest_percentile_with_ten_samples_above() -> None:
    xs = [float(i) for i in range(1, 49)]
    p, value = workload.tail(xs)
    assert (p, value) == (79, 38.0)
    assert sum(x > value for x in xs) == 10
    assert workload.tail([float(i) for i in range(18)])[0] == 44
    assert workload.tail([1.0] * 5) == (0, 1.0)


def test_self_times_subtract_children() -> None:
    spans = [
        ["a", 0.0, 10.0, -1, "i", None],
        ["b", 1.0, 4.0, 0, "i", None],
        ["c", 2.0, 3.0, 1, "i", None],
        ["b", 5.0, 6.0, 0, "i", None],
    ]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_tracer_records_only_inside_items_and_restores() -> None:
    import moymf

    original = moymf.poly_core.QuotientRing.dimension
    tracer = tracing.Tracer(moymf)
    tracer.install()
    try:
        d = moymf.diagram.parse(gen.theta_source(3))
        tracer.item = "theta"
        moymf.analysis.oracle_crosscheck(d, cutoff=24)
        tracer.item = None
        moymf.analysis.oracle_crosscheck(d, cutoff=24)
    finally:
        tracer.uninstall()
    assert moymf.poly_core.QuotientRing.dimension is original
    assert moymf.analysis.homology.__module__ == "moymf.analysis"
    assert {s[4] for s in tracer.spans} == {"theta"}
    layers = tracing.layer_metrics(tracer.spans)
    assert layers["poly_core.degrees"] > 0
    assert 0 < layers["poly_core.zero_degree_ratio"] < 1
    assert layers["diagram.rows"] == 4


def test_cap_turns_a_runaway_item_into_a_failure() -> None:
    import moymf

    previous = signal.signal(signal.SIGALRM, workload._on_alarm)
    try:
        t0 = time.perf_counter()
        out = workload.run_item(moymf, "open_relations", "counter_bubble/1,2,3",
                                ("counter_bubble", (1, 2, 3)), cap=0.3)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert out.outcome == "cap"
    assert time.perf_counter() - t0 < 5
    assert workload.expected("open_relations", out)


def test_known_defect_is_failed_but_expected() -> None:
    import moymf

    out = workload.run_item(moymf, "open_relations", "bubble/2,2,4,4",
                            ("bubble", (2, 2, 4, 4)))
    assert out.outcome == "FAIL"
    assert workload.expected("open_relations", out)
    assert not workload.expected(
        "open_relations", workload.Outcome("bubble/1,2,3,4", 0.0, 0.0, "FAIL", ""))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHASHSEED")}
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


def test_refuses_to_run_without_the_engine(tmp_path: Path) -> None:
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "open_reduce", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def _result(proc: subprocess.CompletedProcess) -> tuple[dict, str]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digest = next(line for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


@pytest.mark.parametrize("name", ["closed_euler", "open_relations", "open_reduce"])
def test_traced_runs_repeat_counters_and_digests(name: str) -> None:
    args = ("--workload", name, "--seed", "5", "--seconds", "1", "--trace", "1")
    first, d1 = _result(_run(*args))
    second, d2 = _result(_run(*args))
    assert first["correct"] and second["correct"]
    assert d1 == d2 and "disagree" not in d1
    for key in COUNTED:
        assert first["metrics"][key] == second["metrics"][key], key
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_an_unused_seed_runs_cleanly() -> None:
    result, _ = _result(_run("--workload", "open_reduce", "--seed", "987654321",
                             "--seconds", "1", "--trace", "0"))
    assert result["correct"]
    assert set(result["metrics"]) == {e["name"] for e in
                                      json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert result["attempted"] == len(gen.open_items(0))
