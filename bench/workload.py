"""One benchmark run: one workload, in a process of its own.

run.py starts this file with PYTHONHASHSEED fixed and the checkout's
``src`` on the path.  The run sets up several times (import, input
generation, cache warm-up) and keeps the median, then runs passes over the
workload's item list, one item at a time, and checks every answer against
a value the engine did not compute.  Report lines go to stdout first; the
last line is the JSON result.

Reported times are scaled to the reference host speed (see hostspeed.py);
the report lines also give the raw times.

With ``--trace 1`` the run makes one untraced pass and then one traced
pass, and reports the per-layer metrics of the traced pass and the tracing
overhead (traced minus untraced pass time), and writes the spans to
``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

import gen
import tracing
from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("closed_euler", "open_relations", "open_reduce")

# Pass time of each workload on the reference box (2 cores, Python 3.11);
# a run makes round(--seconds / this) passes, at least one, so it measures
# about --seconds there and the same work on any box.
NOMINAL_PASS_S = {"closed_euler": 12.0, "open_relations": 15.0, "open_reduce": 25.0}

CLOSED_CUTOFF = 40
SETUP_TRIALS = 9
# An item running longer than this counts as failed; the slowest item on
# the lists takes about 17 s on the reference box.
ITEM_CAP_S = 60.0
# Failures known when the benchmark was defined.  They stay on the item
# lists and count as failed; they do not make the run incorrect.
KNOWN_DEFECTS = {"bubble/2,2,4,4": "FAIL"}


class ItemCapExceeded(Exception):
    """The per-item cap went off."""


def _on_alarm(signum, frame):
    raise ItemCapExceeded("item ran past its cap")


# -- workload items -----------------------------------------------------------
# Each runner takes the package and the item input and returns what its
# checker needs; each checker returns (outcome, rendered answer).  Only the
# runner is timed.


def _run_closed(m, src):
    return m.analysis.oracle_crosscheck(m.diagram.parse(src), cutoff=CLOSED_CUTOFF)


def _check_closed(m, report):
    answer = f"{report['engine_euler']} | {report['oracle_value']}"
    return ("ok" if report["verdict"] == "PASS" else "FAIL"), answer


def _run_relation(m, item):
    name, params = item
    return m.analysis.verify_relation(name, params)


def _check_relation(m, report):
    answer = json.dumps(
        [report.get("first_difference"), report["lhs_series"], report["rhs_series"],
         report["verdict"]], sort_keys=True
    )
    return ("ok" if report["verdict"] == "PASS" else "FAIL"), answer


def _run_reduce(m, src):
    d = m.diagram.parse(src)
    session = m.reduce.ReductionSession(
        m.diagram.compile_diagram(d), external=d.external_vars()
    )
    session.exclude_all()
    return d, session.current


def _check_reduce(m, result):
    d, k = result
    base = k.base
    potential = k.potential()
    ok = not base.normal_form(potential - m.diagram.boundary_potential(d))
    answer = [base.render(), [(a.render(), b.render()) for a, b in k.rows],
              k.global_grading_shift, k.z2_shift, potential.render()]
    return ("ok" if ok else "FAIL"), json.dumps(answer)


INPUTS = {
    "closed_euler": gen.closed_items,
    "open_relations": gen.relation_items,
    "open_reduce": gen.open_items,
}
RUNNERS = {
    "closed_euler": (_run_closed, _check_closed),
    "open_relations": (_run_relation, _check_relation),
    "open_reduce": (_run_reduce, _check_reduce),
}


# -- set-up -----------------------------------------------------------------


def _warm(m) -> None:
    """Fill the lru_caches of symfun and qseries for every color and level
    the items use."""
    for n in range(1, 7):
        for i in range(1, n + 1):
            m.symfun.power_sum_F(i, n)
    for n in range(13):
        for i in range(n + 1):
            m.qseries.qbinomial(n, i)


def setup(workload: str, seed: int, speed: HostSpeed):
    """Set up SETUP_TRIALS times, each from a fresh import of the engine.
    Returns the median set-up time (scaled and raw), the package and the
    items of the last set-up."""
    trials = []
    for _ in range(SETUP_TRIALS):
        for name in [k for k in sys.modules if k == "moymf" or k.startswith("moymf.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        m = importlib.import_module("moymf")
        items = INPUTS[workload](seed)
        _warm(m)
        trials.append((t0, time.perf_counter() - t0))
    src = (ROOT / "src" / "moymf").resolve()
    if Path(m.__file__).resolve().parent != src:
        raise SystemExit(f"error: imported moymf from {m.__file__}, not from {src}")
    setup_s = statistics.median(speed.scale(t0, dt) for t0, dt in trials)
    return setup_s, statistics.median(speed.net(t0, dt) for t0, dt in trials), m, items


# -- passes -------------------------------------------------------------------


class Outcome:
    __slots__ = ("item", "start", "seconds", "outcome", "answer")

    def __init__(self, item: str, start: float, seconds: float, outcome: str, answer: str):
        self.item, self.start, self.seconds = item, start, seconds
        self.outcome, self.answer = outcome, answer


def run_item(m, workload: str, item_id: str, item, tracer=None, cap: float = ITEM_CAP_S) -> Outcome:
    runner, checker = RUNNERS[workload]
    if tracer is not None:
        tracer.item = item_id
    signal.setitimer(signal.ITIMER_REAL, cap)
    t0 = time.perf_counter()
    try:
        result = runner(m, item)
    except ItemCapExceeded:
        return Outcome(item_id, t0, time.perf_counter() - t0, "cap", "")
    except m.reduce.ConditionUnmet as exc:
        return Outcome(item_id, t0, time.perf_counter() - t0, "refused", str(exc))
    except Exception as exc:  # any other raise is a failed item, reported by type
        return Outcome(item_id, t0, time.perf_counter() - t0,
                       f"raised:{type(exc).__name__}", str(exc))
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if tracer is not None:
            tracer.item = None
    seconds = time.perf_counter() - t0
    outcome, answer = checker(m, result)
    return Outcome(item_id, t0, seconds, outcome, answer)


def run_pass(m, workload: str, items, tracer=None) -> list[Outcome]:
    outs = []
    for item_id, item in items:
        # every item starts from a collected heap, so its time does not
        # depend on the garbage of the item before it
        gc.collect()
        outs.append(run_item(m, workload, item_id, item, tracer))
    return outs


def expected(workload: str, o: Outcome) -> bool:
    """True when the outcome is a pass or a failure that is not a wrong
    answer: a known defect, a refused precondition, or the cap."""
    if o.outcome in ("ok", "cap"):
        return True
    if KNOWN_DEFECTS.get(o.item) == o.outcome:
        return True
    return workload == "open_reduce" and o.outcome == "refused"


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples above it, by the
    nearest-rank rule; (0, min) when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 0, -1):
        value = xs[max(0, math.ceil(p * n / 100) - 1)]
        if sum(1 for x in xs if x > value) >= 10:
            return p, value
    return 0, xs[0]


def pass_time(times: dict[str, list[float]]) -> float:
    """One pass over the item list: each item at its median over the passes."""
    return sum(statistics.median(v) for v in times.values())


def digest(outs: list[Outcome]) -> str:
    h = hashlib.sha256()
    for o in sorted(outs, key=lambda o: o.item):
        h.update(f"{o.item}\t{o.outcome}\t{o.answer}\n".encode())
    return h.hexdigest()[:16]


def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def _traced_pass(m, workload: str, items, seed: int):
    tracer = tracing.Tracer(m)
    before = m.symfun.power_sum_F.cache_info()
    tracer.install()
    try:
        outs = run_pass(m, workload, items, tracer)
    finally:
        tracer.uninstall()
    after = m.symfun.power_sum_F.cache_info()
    layers = tracing.layer_metrics(tracer.spans)
    hits = after.hits - before.hits
    lookups = hits + after.misses - before.misses
    layers["symfun.power_sum_hit_ratio"] = hits / lookups if lookups else 0.0
    out_dir = ROOT / "bench" / "out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{workload}-{seed}.json"
    with open(spans_file, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "item", "note"],
                   "spans": tracer.spans}, fh)
    print(f"{len(tracer.spans)} spans written to {spans_file.relative_to(ROOT)}")
    return outs, layers


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    signal.signal(signal.SIGALRM, _on_alarm)
    speed = HostSpeed()
    speed.start()
    setup_s, setup_raw, m, items = setup(args.workload, args.seed, speed)
    print(f"workload {args.workload} seed {args.seed}: {len(items)} items; "
          f"setup {setup_s:.4f} s (raw {setup_raw:.4f} s), median of {SETUP_TRIALS}")

    passes: list[list[Outcome]] = []
    layers = None
    if args.trace:
        passes.append(run_pass(m, args.workload, items))
        traced, layers = _traced_pass(m, args.workload, items, args.seed)
        passes.append(traced)
    else:
        for _ in range(max(1, round(args.seconds / NOMINAL_PASS_S[args.workload]))):
            passes.append(run_pass(m, args.workload, items))
    speed.stop()

    outs = [o for p in passes for o in p]
    scaled = {id(o): speed.scale(o.start, o.seconds) for o in outs}
    per_item: dict[str, list[float]] = {}
    per_item_raw: dict[str, list[float]] = {}
    for o in outs:
        per_item.setdefault(o.item, []).append(scaled[id(o)])
        per_item_raw.setdefault(o.item, []).append(speed.net(o.start, o.seconds))
    samples = [scaled[id(o)] for o in outs]
    p, tail_s = tail(samples)
    print(f"passes: {len(passes)}; one pass {pass_time(per_item):.3f} s "
          f"(raw {pass_time(per_item_raw):.3f} s); host calibration median "
          f"{speed.median() * 1000:.2f} ms over {len(speed.costs)} samples")
    # the median item, each item at its median over the passes
    p50 = statistics.median(statistics.median(v) for v in per_item.values())
    print(f"item time: p50 {p50:.4f} s, "
          f"p{p} {tail_s:.4f} s over {len(samples)} samples")

    failed = [o for o in outs if o.outcome != "ok"]
    wrong = [o for o in failed if not expected(args.workload, o)]
    answers: dict[str, set] = {}
    for o in outs:
        if o.outcome != "cap":
            answers.setdefault(o.item, set()).add((o.outcome, o.answer))
    # every pass must give every item the same answer
    consistent = all(len(a) == 1 for a in answers.values())
    print(f"fail_ratio {len(failed) / len(outs):.4f} ({len(failed)} of {len(outs)})")
    for item, outcome in sorted({(o.item, o.outcome) for o in failed}):
        o = next(o for o in failed if (o.item, o.outcome) == (item, outcome))
        mark = "" if expected(args.workload, o) else " UNEXPECTED"
        print(f"  failed {item}: {outcome}{mark} {o.answer[:100]}")
    print(f"digest {digest(passes[0])}" + ("" if consistent else " (passes disagree)"))

    if layers is not None:
        untraced = sum(scaled[id(o)] for o in passes[0])
        layers["trace.overhead_s"] = sum(scaled[id(o)] for o in passes[1]) - untraced
        for k, v in sorted(layers.items()):
            print(f"  {k} {v}")
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in layers.items()}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": pass_time(per_item), "unit": "s"},
            "item_p50_s": {"value": p50, "unit": "s"},
            "item_tail_s": {"value": tail_s, "unit": "s"},
            "ok_ratio": {"value": (len(outs) - len(failed)) / len(outs), "unit": "ratio"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not wrong and consistent,
        "attempted": len(outs),
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
