"""The benchmark's tracer still fits the engine: it rebinds engine callables
by name, so a renamed or deleted one breaks ``bench/run.py --trace 1``.
One pass of each benchmark workload still gives the answers it gave, by
digest.  And the package imports no name it does not read, but those the
tracer rebinds, and nothing outside the standard library."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import moymf
from moymf import GradedVar, KoszulMF, Poly, QuotientRing

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"
PACKAGE = Path(moymf.__file__).resolve().parent


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


def test_a_traced_compile_records_one_symfun_span_per_boundary_point() -> None:
    # the proved potential takes one power sum per boundary point, inside
    # the compile span; the rows come from plans, which are not traced
    src = (
        "level n 3\n"
        "edge e1 color 2 from boundary:c to v\n"
        "vertex v split in e1 out e2 e3\n"
        "edge e2 color 1 from v to boundary:a\n"
        "edge e3 color 1 from v to boundary:b\n"
    )
    d = moymf.parse(src)
    tracing = _load_tracing()
    tracer = tracing.Tracer(moymf)
    tracer.install()
    try:
        tracer.item = "probe"
        moymf.diagram.compile_diagram(d)
        tracer.item = None
    finally:
        tracer.uninstall()
    [compile_at] = [m for m, span in enumerate(tracer.spans) if span[0] == "diagram.compile"]
    symfun = [span for span in tracer.spans if span[0] == "symfun"]
    assert len(symfun) == len(d.boundary) == 3
    assert all(span[3] == compile_at for span in symfun)
    assert tracing.layer_metrics(tracer.spans)["symfun.s"] > 0


@pytest.mark.parametrize(
    "name, pinned",
    [
        ("closed_euler", "360f9348b4a01df7"),
        ("open_relations", "aba61ad31dc0e1aa"),
        ("open_reduce", "f43f27e0d3341b14"),
    ],
)
def test_one_pass_of_a_bench_workload_keeps_its_digest(monkeypatch, name, pinned) -> None:
    """The digest ``bench/run.py`` prints, over the outcome and rendered
    answer of every item, from one pass in this process; the digest sorts
    the items, so the seed only orders the pass."""
    monkeypatch.syspath_prepend(str(BENCH))  # workload.py imports its siblings
    workload = importlib.import_module("workload")
    items = workload.INPUTS[name](1)
    previous = signal.signal(signal.SIGALRM, workload._on_alarm)  # the per-item cap
    try:
        outs = [workload.run_item(moymf, name, item_id, item) for item_id, item in items]
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert workload.digest(outs) == pinned


def _unused_imports(path: Path) -> dict[str, int]:
    """The names a module imports but neither reads nor lists in
    ``__all__``, each with the line of its import statement."""
    tree = ast.parse(path.read_text())
    imported, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)  # __all__ entries and string annotations
    return {name: line for name, line in imported.items() if name not in read}


def test_the_package_imports_only_what_it_reads_or_the_tracer_rebinds() -> None:
    # the tracer rebinds a callable in each module that calls it by name;
    # a module that imports one only for that keeps it under a noqa
    rebinds = {
        (user, rest[0]) for _, kind, _, *rest in _load_tracing().TARGETS if kind == "mod"
        for user in rest[1]
    }
    kept = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        unused = _unused_imports(path)
        assert {n for n in unused if (path.stem, n) not in rebinds} == set(), path.name
        for name, line in unused.items():
            assert "# noqa: F401" in lines[line - 1], (path.name, name)
        noqa = {i + 1 for i, text in enumerate(lines) if "# noqa: F401" in text}
        assert noqa == set(unused.values()), path.name
        kept += len(unused)
    assert kept


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """The module-level functions, classes and assignments whose names
    start with one underscore, each with its line."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            names = []
        out.update((n, node.lineno) for n in names if n.startswith("_") and not n.startswith("__"))
    return out


def test_every_private_helper_is_read_in_the_package() -> None:
    # a helper whose last caller is deleted is deleted with it
    defined, read = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined.update(
            ((path.name, name), line) for name, line in _private_definitions(tree).items()
        )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert len(defined) > 100
    assert {key: line for key, line in defined.items() if key[1] not in read} == {}


_NEW_MODULES = """
import json, sys
before = set(sys.modules)
import moymf
moymf.verify_relation("bubble", [1, 1, 2, 3])
moymf.oracle_crosscheck(moymf.parse(
    "level n 3\\n"
    "edge e2 color 1 from v1 to v2\\nedge e3 color 1 from v1 to v2\\n"
    "edge e4 color 2 from v2 to v1\\n"
    "vertex v1 split in e4 out e2 e3\\nvertex v2 merge in e2 e3 out e4\\n"
))
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_the_engine_loads_only_the_standard_library() -> None:
    # a fresh interpreter, so modules the tests loaded do not hide one;
    # one relation check and one crosscheck run the reduction, the
    # homology and the oracle paths
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", _NEW_MODULES], env=env, capture_output=True, text=True, check=True
    )
    loaded = {name.partition(".")[0] for name in json.loads(out.stdout)}
    assert sorted(loaded - set(sys.stdlib_module_names)) == ["moymf"]
