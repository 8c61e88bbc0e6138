"""Spans around the engine's public callables, recorded from outside.

Nothing in the engine changes: a Tracer rebinds public functions in the
modules that call them, and wraps methods on their classes, for as long as
it is installed.  Each call becomes one span
``[name, start, end, parent, item, note]``: ``parent`` is the index of the
enclosing span (-1 at the top), ``item`` the benchmark item being run, and
``note`` what the layer metrics need from the result (a dimension, a
verdict, a rank, or the exception type when the call raised).  Spans stay
in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# (span name, module attribute or class method, where to rebind it)
#   ("mod", module, attr, [modules whose global of that name is rebound])
#   ("cls", module, class, method)
TARGETS = (
    ("diagram.parse", "mod", "diagram", "parse", ("diagram", "analysis")),
    ("diagram.compile", "mod", "diagram", "compile_diagram", ("diagram", "analysis")),
    ("symfun", "mod", "symfun", "Lambda_poly", ("diagram",)),
    ("symfun", "mod", "symfun", "V_poly", ("diagram",)),
    ("symfun", "mod", "symfun", "L_poly", ("diagram", "analysis")),
    ("symfun", "mod", "symfun", "product_term", ("diagram",)),
    ("symfun", "mod", "symfun", "power_sum_in", ("diagram",)),
    ("analysis.verify", "mod", "analysis", "verify_relation", ("analysis",)),
    ("analysis.homology", "mod", "analysis", "homology", ("analysis",)),
    ("analysis.oracle", "mod", "analysis", "moy_bracket", ("analysis",)),
    ("reduce.gate", "mod", "reduce", "regularity_heuristic", ("reduce",)),
    ("reduce.exclude", "cls", "reduce", "ReductionSession", "exclude_all"),
    ("mf_core.potential", "cls", "mf_core", "KoszulMF", "potential"),
    ("mf_core.graded_series", "cls", "mf_core", "KoszulMF", "graded_series"),
    ("mf_core.expand", "cls", "mf_core", "KoszulMF", "expand"),
    ("poly_core.series", "cls", "poly_core", "QuotientRing", "dimension_series"),
    ("poly_core.dimension", "cls", "poly_core", "QuotientRing", "dimension"),
    ("poly_core.normal_form", "cls", "poly_core", "QuotientRing", "normal_form"),
)


def _note(name: str, args: tuple, result):
    """What a span keeps of its call's result."""
    if name == "poly_core.dimension":
        ring, d = args[0], args[1]
        # monomials(d) is cached on the ring by the dimension call itself
        return (result, len(ring.monomials(d)) if d >= 0 else 0)
    if name == "reduce.exclude":
        return (result, args[0].current.row_count)
    if name == "reduce.gate":
        return result
    if name == "diagram.compile":
        return result.row_count
    if name == "mf_core.expand":
        return result.m0.rank + result.m1.rank
    return None


class Tracer:
    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.item: str | None = None  # spans are recorded only inside an item
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[2] = clock()
            span[5] = _note(name, args, result)
            return result

        return traced

    def install(self) -> None:
        mods = {m: getattr(self.package, m) for m in
                ("diagram", "symfun", "analysis", "reduce", "mf_core", "poly_core")}
        wrapped: dict[tuple, object] = {}
        for name, kind, home, *rest in TARGETS:
            if kind == "mod":
                attr, users = rest
                fn = getattr(mods[home], attr)
                key = (home, attr)
                if key not in wrapped:
                    wrapped[key] = self._wrap(name, fn)
                for user in users:
                    self._saved.append((mods[user], attr, getattr(mods[user], attr)))
                    setattr(mods[user], attr, wrapped[key])
            else:
                cls_name, method = rest
                cls = getattr(mods[home], cls_name)
                original = cls.__dict__[method]
                self._saved.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time covered by its children."""
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from its spans.

    ``*_s`` without ``self`` are inclusive times of the outermost span of
    that name (a call nested inside a call of the same name is not counted
    twice); analysis.homology_s and analysis.verify_s are self times.
    """
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    own = self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    names = [s[0] for s in spans]

    def nested_in_same(i: int) -> bool:
        p = spans[i][3]
        while p >= 0:
            if names[p] == names[i]:
                return True
            p = spans[p][3]
        return False

    dim_time = zero_time = 0.0
    degrees = zero = monomials = pivots = 0
    gate_calls = gate_verified = 0
    steps = rows_left = refused = 0
    rows = rank = 0
    for i, (name, start, end, _parent, _item, note) in enumerate(spans):
        calls[name] += 1
        self_s[name] += own[i]
        if not nested_in_same(i):
            inclusive[name] += end - start
        if name == "poly_core.dimension" and isinstance(note, tuple):
            dim, count = note
            degrees += 1
            dim_time += end - start
            monomials += count
            pivots += count - dim
            if dim == 0:
                zero += 1
                zero_time += end - start
        elif name == "reduce.gate":
            gate_calls += 1
            gate_verified += note == "verified"
        elif name == "reduce.exclude":
            if isinstance(note, tuple):
                steps += note[0]
                rows_left += note[1]
            elif note == "ConditionUnmet":
                refused += 1
        elif name == "diagram.compile" and isinstance(note, int):
            rows += note
        elif name == "mf_core.expand" and isinstance(note, int):
            rank += note

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "poly_core.series_s": inclusive["poly_core.series"],
        "poly_core.dimension_s": dim_time,
        "poly_core.degrees": degrees,
        "poly_core.zero_degree_ratio": ratio(zero, degrees),
        "poly_core.zero_degree_time_ratio": ratio(zero_time, dim_time),
        "poly_core.macaulay_monomials": monomials,
        "poly_core.macaulay_pivots": pivots,
        "poly_core.normal_form_s": inclusive["poly_core.normal_form"],
        "poly_core.normal_form_calls": calls["poly_core.normal_form"],
        "mf_core.potential_s": inclusive["mf_core.potential"],
        "mf_core.graded_series_s": inclusive["mf_core.graded_series"],
        "mf_core.expand_s": inclusive["mf_core.expand"],
        "mf_core.expanded_rank": rank,
        "reduce.gate_s": inclusive["reduce.gate"],
        "reduce.gate_calls": gate_calls,
        "reduce.gate_verified_ratio": ratio(gate_verified, gate_calls),
        "reduce.exclude_s": inclusive["reduce.exclude"],
        "reduce.steps": steps,
        "reduce.rows_left": rows_left,
        "reduce.refused": refused,
        "diagram.parse_s": inclusive["diagram.parse"],
        "diagram.compile_s": inclusive["diagram.compile"],
        "diagram.rows": rows,
        "symfun.s": inclusive["symfun"],
        "analysis.homology_s": self_s["analysis.homology"],
        "analysis.verify_s": self_s["analysis.verify"],
        "analysis.oracle_s": inclusive["analysis.oracle"],
        "trace.spans": len(spans),
    }
