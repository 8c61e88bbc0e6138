"""The benchmark's tracer still fits the engine: it rebinds engine callables
by name, so a renamed or deleted one breaks ``bench/run.py --trace 1``."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import moymf
from moymf import GradedVar, Poly, QuotientRing

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
