"""The benchmark's tracer still fits the engine: it rebinds engine callables
by name, so a renamed or deleted one breaks ``bench/run.py --trace 1``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import moymf
from moymf import GradedVar, KoszulMF, Poly, QuotientRing

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls() -> None:
    tracing = _load_tracing()
    tracer = tracing.Tracer(moymf)
    tracer.install()
    rebound = list(tracer._saved)
    try:
        assert len(rebound) >= len(tracing.TARGETS)
        x = GradedVar("x", 2)
        ring = QuotientRing((x,), (Poly.variable(x) ** 3,))
        tracer.item = "probe"
        assert ring.dimension(2) == 1
        tracer.item = None
        [span] = tracer.spans
        assert span[0] == "poly_core.dimension" and span[5] == (1, 1)
    finally:
        tracer.uninstall()
    for owner, attr, original in rebound:
        assert getattr(owner, attr) is original, attr


def test_the_tracer_note_finds_ring_monomials() -> None:
    # the dimension span's note counts the degree's monomials
    assert callable(QuotientRing.monomials)
    x = GradedVar("x", 2)
    assert QuotientRing((x,)).monomials(4) == (((x, 2),),)


def test_an_expand_span_notes_the_expanded_rank() -> None:
    # mf_core.expanded_rank sums these notes: 2^r for an r-row presentation
    x, y = GradedVar("x", 2), GradedVar("y", 2)
    px, py = Poly.variable(x), Poly.variable(y)
    rows = ((px, py), (py, px), (px, px))
    tracing = _load_tracing()
    tracer = tracing.Tracer(moymf)
    tracer.install()
    try:
        tracer.item = "probe"
        for r in range(4):
            KoszulMF(QuotientRing((x, y)), rows[:r], 0, r % 2, 4).expand()
        tracer.item = None
    finally:
        tracer.uninstall()
    expands = [span for span in tracer.spans if span[0] == "mf_core.expand"]
    assert [span[5] for span in expands] == [1, 2, 4, 8]
    assert tracing.layer_metrics(tracer.spans)["mf_core.expanded_rank"] == 15
