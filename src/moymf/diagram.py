"""Colored planar diagrams: data model, DSL parser, compiler to Koszul form.

The DSL is line-oriented UTF-8 with ``#`` comments, one diagram per file.
Its grammar is the table ``_FORMS``, one form a line:

    level n <int>
    edge <id> color <int> from <endpoint> to <endpoint>
    vertex <id> merge in <eid> <eid> out <eid>
    vertex <id> split in <eid> out <eid> <eid>

An ``<int>`` is an optional ``-`` and ASCII digits; an id is ASCII letters,
digits and ``_``.  An endpoint is a vertex id or ``boundary:<label>``.
Every edge color lies in 1..n, the level.
Every edge is oriented tail (from) to head (to); a boundary at the head is
an out-boundary and contributes its power sum positively to the potential.
A refused line reports the column of its first bad token; the checks
across lines report column 1.

A boundary label used exactly once is a true boundary.  A label used exactly
twice, once at a head and once at a tail, glues those two edge ends together
(the label becomes internal); this is how closed diagrams are written, e.g.
a circle is a single edge from boundary:a to boundary:a.

Alphabet assignment is deterministic: a label-touching edge end uses the
label's alphabet; an edge running between two vertices gets the internal
label ``i.<edge id>``.  Edges with both ends on labels are line pieces and
contribute divided-difference rows; a vertex-incident edge carries a single
alphabet along its whole length, so the identification the gluing rule
demands happens by construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache

from .poly_core import _FIELD, GradedVar, Poly, QuotientRing, _sum
from .symfun import Alphabet, _rows, power_sum_in
from .symfun import (  # noqa: F401 -- kept for bench/tracing.py, which rebinds them here
    L_poly, Lambda_poly, V_poly, product_term
)
from .mf_core import KoszulMF

__all__ = [
    "Diagram",
    "Edge",
    "Vertex",
    "BoundaryPoint",
    "DiagramSyntaxError",
    "ColorConstraintViolation",
    "parse",
    "render",
    "compile_diagram",
    "boundary_potential",
]

_NAME = re.compile(r"[A-Za-z0-9_]+")


class DiagramSyntaxError(SyntaxError):
    """Malformed DSL input; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ColorConstraintViolation(ValueError):
    """A vertex whose edge colors do not satisfy i1 + i2 = i3.  (A color
    outside 1..n is refused first, with ``DiagramSyntaxError`` at its
    edge's line.)"""

    def __init__(self, vertex: str, message: str):
        super().__init__(f"vertex {vertex}: {message}")
        self.vertex = vertex


@dataclass(frozen=True)
class Edge:
    id: str
    color: int
    tail: tuple[str, str]  # ("vertex", id) or ("boundary", label)
    head: tuple[str, str]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Vertex:
    id: str
    kind: str  # "merge" | "split"
    ins: tuple[str, ...]
    outs: tuple[str, ...]
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BoundaryPoint:
    edge: str
    label: str
    is_out: bool  # head end = out-boundary


@dataclass(frozen=True)
class Diagram:
    level: int
    edges: tuple[Edge, ...]
    vertices: tuple[Vertex, ...]
    boundary: tuple[BoundaryPoint, ...]
    glued_labels: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        # a lookup kept beside the fields, so equality, hashing and repr do
        # not see it: edges by id (the first of a repeated id)
        by_id: dict[str, Edge] = {}
        for e in self.edges:
            by_id.setdefault(e.id, e)
        object.__setattr__(self, "_by_id", by_id)

    def edge(self, eid: str) -> Edge:
        return self._by_id[eid]

    @property
    def closed(self) -> bool:
        return not self.boundary

    # -- alphabets ---------------------------------------------------------

    @staticmethod
    @lru_cache(maxsize=None)
    def _alphabet(color: int, label: str) -> Alphabet:
        """The alphabet of a color and a label, one object per process."""
        return Alphabet(color, label)

    def edge_alphabet(self, e: Edge) -> Alphabet:
        """The single alphabet of a vertex-incident edge."""
        for end in (e.tail, e.head):
            if end[0] == "boundary":
                return self._alphabet(e.color, end[1])
        return self._alphabet(e.color, f"i.{e.id}")

    def boundary_alphabets(self) -> list[tuple[BoundaryPoint, Alphabet]]:
        return [
            (bp, self._alphabet(self.edge(bp.edge).color, bp.label)) for bp in self.boundary
        ]

    def external_vars(self) -> frozenset[GradedVar]:
        """The boundary alphabets' variables, found afresh on each call."""
        return frozenset(v for _, alpha in self.boundary_alphabets() for v in alpha.vars)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# The grammar: one form a line, keyed by the word that names it.  ``parse``
# matches a line's tokens against its form, ``render`` fills the same forms,
# and a line of the wrong length is told the forms of its directive.
_FORMS = {
    "level": "level n <int>",
    "edge": "edge <id> color <int> from <endpoint> to <endpoint>",
    "merge": "vertex <id> merge in <eid> <eid> out <eid>",
    "split": "vertex <id> split in <eid> out <eid> <eid>",
}
# by directive: the position of the word that names a form, the directive's
# first form (all of them have its length), and the forms by that word
_GRAMMAR: dict[str, tuple[int, tuple[str, ...], dict[str, tuple[str, ...]]]] = {}
for _name, _form in _FORMS.items():
    _toks = tuple(_form.split())
    _GRAMMAR.setdefault(_toks[0], (_toks.index(_name), _toks, {}))[2][_name] = _toks


# the largest level whose potential, of degree 2n + 2, a monomial key holds
_MAX_LEVEL = (_FIELD - 2) // 2


class _Refused(Exception):
    """A line's token does not fit its form; args are (message, token index)."""


def _match(toks: list[str], ids: dict[str, set[str]]) -> tuple[tuple[str, ...], list]:
    """The form a line's tokens follow, and the values of its placeholders.
    ``ids`` holds the ids each directive has used on earlier lines."""
    head = toks[0]
    if head not in _GRAMMAR:
        raise _Refused(f"unknown directive {head!r}", 0)
    at, first, forms = _GRAMMAR[head]
    if len(toks) != len(first):
        raise _Refused("expected: " + " or ".join(" ".join(f) for f in forms.values()), 0)
    form = forms.get(toks[at])
    values: list = []
    # a line naming no form is matched up to the naming word, then refused
    wants = form or first[:at]
    for i in range(len(wants)):
        want, tok = wants[i], toks[i]
        if want[0] != "<":
            if tok != want:
                raise _Refused(f"expected {want!r}, got {tok!r}", i)
        elif want == "<int>":
            # an optional '-' and ASCII digits: int() alone takes '1_0', '+3' and '\u0663'
            if not (tok.isascii() and tok.removeprefix("-").isdigit()):
                raise _Refused(f"expected integer, got {tok!r}", i)
            values.append(int(tok))
        elif want == "<endpoint>":
            if tok.startswith("boundary:"):
                label = tok[len("boundary:") :]
                if not _NAME.fullmatch(label):
                    raise _Refused(f"bad boundary label {label!r}", i)
                values.append(("boundary", label))
            elif _NAME.fullmatch(tok):
                values.append(("vertex", tok))
            else:
                raise _Refused(f"bad endpoint {tok!r}", i)
        else:
            if not _NAME.fullmatch(tok):
                raise _Refused(f"bad {'edge' if want == '<eid>' else head} id {tok!r}", i)
            if want == "<id>":
                if tok in ids[head]:
                    raise _Refused(f"duplicate {head} id {tok}", i)
                ids[head].add(tok)
            values.append(tok)
    if form is None:
        raise _Refused(f"unknown {head} kind {toks[at]!r}", at)
    return form, values


def parse(text: str) -> Diagram:
    """Parse and validate one diagram document; each line follows one of
    the forms of ``_FORMS``.  Every edge color lies in 1..n, so at most
    ``_MAX_LEVEL``."""
    level: int | None = None
    edges: list[Edge] = []
    vertices: list[Vertex] = []
    ids: dict[str, set[str]] = {head: set() for head in _GRAMMAR}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        toks = line.split()
        if not toks:
            continue
        try:
            if toks[0] == "level" and level is not None:
                raise _Refused("duplicate level directive", 0)
            form, values = _match(toks, ids)
            if form[0] == "level":
                (level,) = values
                if level < 1:
                    raise _Refused("level must be >= 1", form.index("<int>"))
                if level > _MAX_LEVEL:
                    raise _Refused(
                        f"level must be <= {_MAX_LEVEL}: the potential's degree 2n + 2 "
                        f"exceeds the packed limit {_FIELD}",
                        form.index("<int>"),
                    )
            elif form[0] == "edge":
                eid, color, tail, head = values
                if color < 1:
                    raise _Refused("color must be >= 1", form.index("<int>"))
                edges.append(Edge(eid, color, tail, head, lineno))
            else:  # a vertex's id, its in-slots (two or one by kind), its out-slots
                kind = form[2]
                k = 3 if kind == "merge" else 2
                ins, outs = tuple(values[1:k]), tuple(values[k:])
                vertices.append(Vertex(values[0], kind, ins, outs, lineno))
        except _Refused as refused:
            message, i = refused.args  # only a refused line needs token columns
            col = [m.start() + 1 for m in re.finditer(r"\S+", line)][i]
            raise DiagramSyntaxError(message, lineno, col) from None

    if level is None:
        raise DiagramSyntaxError("missing level directive", 1)
    if not edges:
        raise DiagramSyntaxError("diagram has no edges", 1)

    boundary, glued = _validate(level, edges, vertices)
    return Diagram(level, tuple(edges), tuple(vertices), boundary, glued)


def _validate(
    level: int, edges: list[Edge], vertices: list[Vertex]
) -> tuple[tuple[BoundaryPoint, ...], frozenset[str]]:
    by_id = {e.id: e for e in edges}

    for e in edges:
        if e.color > level:
            raise DiagramSyntaxError(f"edge {e.id} color {e.color} exceeds level {level}", e.line)

    # every edge end at a vertex is one of that vertex's slots (a head an
    # in-slot, a tail an out-slot), and there are as many slots as such ends
    slots: list[tuple[str, str, str]] = []
    for v in vertices:
        for eid in v.ins + v.outs:
            if eid not in by_id:
                raise DiagramSyntaxError(f"vertex {v.id} references unknown edge {eid}", v.line)
        slots += [(v.id, "in", eid) for eid in v.ins] + [(v.id, "out", eid) for eid in v.outs]
    listed = set(slots)
    vertex_ids = {v.id for v in vertices}
    ends: set[tuple[str, str, str]] = set()
    for e in edges:
        for (kind, vid), side, role in ((e.tail, "tail", "out"), (e.head, "head", "in")):
            if kind != "vertex":
                continue
            if vid not in vertex_ids:
                raise DiagramSyntaxError(f"edge {e.id} references unknown vertex {vid}", e.line)
            slot = (vid, role, e.id)
            if slot not in listed:
                raise DiagramSyntaxError(
                    f"edge {e.id} {side} is at vertex {vid} but the vertex "
                    f"does not list it as an {role} edge",
                    e.line,
                )
            ends.add(slot)
    if len(ends) != len(slots):  # a slot that no end fills, or one listed twice
        eid = next(s[2] for i, s in enumerate(slots) if s not in ends or s in slots[:i])
        raise DiagramSyntaxError(
            f"edge {eid} is listed in vertex slots it does not terminate at", by_id[eid].line
        )

    # color conservation at vertices
    for v in vertices:
        if v.kind == "merge":
            i1, i2 = (by_id[e].color for e in v.ins)
            i3 = by_id[v.outs[0]].color
        else:
            i3 = by_id[v.ins[0]].color
            i1, i2 = (by_id[e].color for e in v.outs)
        if i1 + i2 != i3:
            raise ColorConstraintViolation(
                v.id, f"colors {i1} + {i2} != {i3}"
            )

    # boundary labels: once = boundary, twice (head+tail) = glued
    uses: dict[str, list[tuple[Edge, bool]]] = {}
    for e in edges:
        if e.tail[0] == "boundary":
            uses.setdefault(e.tail[1], []).append((e, False))
        if e.head[0] == "boundary":
            uses.setdefault(e.head[1], []).append((e, True))
    boundary: list[BoundaryPoint] = []
    glued: set[str] = set()
    for label in sorted(uses):
        occ = uses[label]
        if len(occ) == 1:
            e, is_out = occ[0]
            boundary.append(BoundaryPoint(e.id, label, is_out))
        elif len(occ) == 2:
            (e1, out1), (e2, out2) = occ
            if out1 == out2:
                raise DiagramSyntaxError(
                    f"glued label {label} must join a head to a tail",
                    e2.line,
                )
            if e1.color != e2.color:
                raise DiagramSyntaxError(
                    f"glued label {label} joins colors {e1.color} and {e2.color}",
                    e2.line,
                )
            glued.add(label)
        else:
            raise DiagramSyntaxError(
                f"boundary label {label} used {len(occ)} times (max 2)",
                occ[2][0].line,
            )
    return tuple(boundary), frozenset(glued)


def render(d: Diagram) -> str:
    """Canonical DSL text in the forms of ``_FORMS``; parse(render(d))
    equals d."""
    out = [_fill("level", d.level)]
    out += [_fill("edge", e.id, e.color, _ep(e.tail), _ep(e.head)) for e in d.edges]
    out += [_fill(v.kind, v.id, *v.ins, *v.outs) for v in d.vertices]
    return "\n".join(out) + "\n"


def _fill(name: str, *values: object) -> str:
    """The form ``name`` with its placeholders replaced by values, in order."""
    it = iter(values)
    return " ".join(str(next(it)) if w[0] == "<" else w for w in _FORMS[name].split())


def _ep(end: tuple[str, str]) -> str:
    return f"boundary:{end[1]}" if end[0] == "boundary" else end[1]


# ---------------------------------------------------------------------------
# Compiler
# ---------------------------------------------------------------------------


def compile_diagram(d: Diagram) -> KoszulMF:
    """Koszul presentation of the diagram.

    Rows, in deterministic order: for each boundary-to-boundary edge, the
    line rows (head slot against tail slot, all slots); then for each vertex,
    the merge rows (slot of out-alphabet against the in-product) or the split
    rows (out-product against the in-alphabet slot), splits contributing
    the grading shift -i1*i2.

    The result carries ``boundary_potential(d)`` as ``_proved_potential``,
    the potential a ``ReductionSession``'s first step is checked against:
    each piece's rows telescope to its boundary power sums, and those of
    the internal edges cancel.  It is not a field, and ``potential()``
    still sums the rows.
    """
    n = d.level
    rows: list[tuple[Poly, Poly]] = []
    shift = 0
    vars_: set[GradedVar] = set()
    alphabets: dict[str, Alphabet] = {}  # of the vertex-incident edges

    for e in d.edges:
        if e.tail[0] == "boundary" and e.head[0] == "boundary":
            # a standalone line piece: head slot against tail slot
            hd, tl = d._alphabet(e.color, e.head[1]), d._alphabet(e.color, e.tail[1])
            vars_.update(hd.vars)
            vars_.update(tl.vars)
            rows += _rows("L", n, hd, tl)
        else:
            alphabets[e.id] = alpha = d.edge_alphabet(e)
            vars_.update(alpha.vars)

    for v in d.vertices:
        if v.kind == "merge":
            a, b, c = (alphabets[eid] for eid in v.ins + v.outs)
            rows += _rows("Lambda", n, c, a, b)
        else:
            c, a, b = (alphabets[eid] for eid in v.ins + v.outs)
            rows += _rows("V", n, c, a, b)
            shift -= a.color * b.color

    # boundary variables first: the ring's term order ranks them lowest, so
    # normal forms rewrite internal variables in terms of boundary ones
    ext = d.external_vars()
    base = QuotientRing(tuple(sorted(vars_, key=lambda v: (v not in ext, v.name))), ())
    k = KoszulMF(
        base,
        tuple(rows),
        global_grading_shift=shift,
        z2_shift=0,
        potential_degree=2 * n + 2,
    )
    # a base with no generators holds every polynomial in normal form
    object.__setattr__(k, "_proved_potential", boundary_potential(d))
    return k


def boundary_potential(d: Diagram) -> Poly:
    """Sum of out-boundary power sums minus in-boundary power sums: what
    the rows of ``compile_diagram(d)`` sum to, zero on a closed d."""
    signed = []
    for bp, alpha in d.boundary_alphabets():
        f = power_sum_in(alpha, d.level)
        signed.append(f if bp.is_out else -f)
    return _sum(signed)
