"""Colored planar diagrams: data model, DSL parser, compiler to Koszul form.

The DSL is line-oriented UTF-8 with ``#`` comments, one diagram per file:

    level n <int>
    edge <id> color <int> from <endpoint> to <endpoint>
    vertex <id> merge in <eid> <eid> out <eid>
    vertex <id> split in <eid> out <eid> <eid>

An endpoint is a vertex id or ``boundary:<label>``.  Every edge is oriented
tail (from) to head (to); a boundary at the head is an out-boundary and
contributes its power sum positively to the potential.

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

from .poly_core import GradedVar, Poly, QuotientRing
from .symfun import Alphabet, _rows, power_sum_in
# unused here, kept because bench/tracing.py rebinds these names in this module
from .symfun import L_poly, Lambda_poly, V_poly, product_term  # noqa: F401
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

_NAME = re.compile(r"^[A-Za-z0-9_]+$")


class DiagramSyntaxError(SyntaxError):
    """Malformed DSL input; carries 1-based line and column."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class ColorConstraintViolation(ValueError):
    """A vertex whose edge colors do not satisfy i1 + i2 = i3.  (A color
    above the level n is refused on its edge first.)"""

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
    allow_high_colors: bool = False

    def __post_init__(self) -> None:
        # lookups kept beside the fields, so equality, hashing and repr do
        # not see them: edges by id (the first of a repeated id), and the
        # external variables once ``external_vars`` has found them
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
        """The boundary alphabets' variables, found once per diagram."""
        vs = self.__dict__.get("_external")
        if vs is None:
            vs = frozenset(v for _, alpha in self.boundary_alphabets() for v in alpha.vars)
            object.__setattr__(self, "_external", vs)
        return vs


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _tokenize(line: str) -> list[tuple[str, int]]:
    toks = []
    col = 1
    for part in line.split():
        start = line.index(part, col - 1) + 1
        toks.append((part, start))
        col = start + len(part)
    return toks


def _int_tok(tok: tuple[str, int], lineno: int) -> int:
    s, col = tok
    try:
        return int(s)
    except ValueError:
        raise DiagramSyntaxError(f"expected integer, got {s!r}", lineno, col) from None


def _name_tok(tok: tuple[str, int], lineno: int, what: str) -> str:
    s, col = tok
    if not _NAME.match(s):
        raise DiagramSyntaxError(f"bad {what} {s!r}", lineno, col)
    return s


def _endpoint_tok(tok: tuple[str, int], lineno: int) -> tuple[str, str]:
    s, col = tok
    if s.startswith("boundary:"):
        label = s[len("boundary:") :]
        if not _NAME.match(label):
            raise DiagramSyntaxError(f"bad boundary label {label!r}", lineno, col)
        return ("boundary", label)
    if not _NAME.match(s):
        raise DiagramSyntaxError(f"bad endpoint {s!r}", lineno, col)
    return ("vertex", s)


def _kw(tok: tuple[str, int], word: str, lineno: int) -> None:
    if tok[0] != word:
        raise DiagramSyntaxError(f"expected {word!r}, got {tok[0]!r}", lineno, tok[1])


def parse(text: str, allow_high_colors: bool = False) -> Diagram:
    """Parse and validate one diagram document."""
    level: int | None = None
    edges: list[Edge] = []
    vertices: list[Vertex] = []
    edge_lines: dict[str, int] = {}
    vertex_lines: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = _tokenize(line)
        head, col0 = toks[0]
        if head == "level":
            if level is not None:
                raise DiagramSyntaxError("duplicate level directive", lineno, col0)
            if len(toks) != 3:
                raise DiagramSyntaxError("expected: level n <int>", lineno, col0)
            _kw(toks[1], "n", lineno)
            level = _int_tok(toks[2], lineno)
            if level < 1:
                raise DiagramSyntaxError("level must be >= 1", lineno, toks[2][1])
        elif head == "edge":
            if len(toks) != 8:
                raise DiagramSyntaxError(
                    "expected: edge <id> color <int> from <endpoint> to <endpoint>",
                    lineno,
                    col0,
                )
            eid = _name_tok(toks[1], lineno, "edge id")
            _kw(toks[2], "color", lineno)
            color = _int_tok(toks[3], lineno)
            _kw(toks[4], "from", lineno)
            tail = _endpoint_tok(toks[5], lineno)
            _kw(toks[6], "to", lineno)
            head_ep = _endpoint_tok(toks[7], lineno)
            if eid in edge_lines:
                raise DiagramSyntaxError(f"duplicate edge id {eid}", lineno, toks[1][1])
            if color < 1:
                raise DiagramSyntaxError("color must be >= 1", lineno, toks[3][1])
            edge_lines[eid] = lineno
            edges.append(Edge(eid, color, tail, head_ep, lineno))
        elif head == "vertex":
            if len(toks) != 8:
                raise DiagramSyntaxError(
                    "expected: vertex <id> merge in <eid> <eid> out <eid> "
                    "or vertex <id> split in <eid> out <eid> <eid>",
                    lineno,
                    col0,
                )
            vid = _name_tok(toks[1], lineno, "vertex id")
            if vid in vertex_lines:
                raise DiagramSyntaxError(
                    f"duplicate vertex id {vid}", lineno, toks[1][1]
                )
            kind = toks[2][0]
            if kind == "merge":
                _kw(toks[3], "in", lineno)
                ins = (
                    _name_tok(toks[4], lineno, "edge id"),
                    _name_tok(toks[5], lineno, "edge id"),
                )
                _kw(toks[6], "out", lineno)
                outs = (_name_tok(toks[7], lineno, "edge id"),)
            elif kind == "split":
                _kw(toks[3], "in", lineno)
                ins = (_name_tok(toks[4], lineno, "edge id"),)
                _kw(toks[5], "out", lineno)
                outs = (
                    _name_tok(toks[6], lineno, "edge id"),
                    _name_tok(toks[7], lineno, "edge id"),
                )
            else:
                raise DiagramSyntaxError(
                    f"unknown vertex kind {kind!r}", lineno, toks[2][1]
                )
            vertex_lines[vid] = lineno
            vertices.append(Vertex(vid, kind, ins, outs, lineno))
        else:
            raise DiagramSyntaxError(f"unknown directive {head!r}", lineno, col0)

    if level is None:
        raise DiagramSyntaxError("missing level directive", 1)
    if not edges:
        raise DiagramSyntaxError("diagram has no edges", 1)

    boundary, glued = _validate(level, edges, vertices, edge_lines, allow_high_colors)
    return Diagram(
        level, tuple(edges), tuple(vertices), boundary, glued, allow_high_colors
    )


def _validate(
    level: int,
    edges: list[Edge],
    vertices: list[Vertex],
    edge_lines: dict[str, int],
    allow_high_colors: bool,
) -> tuple[tuple[BoundaryPoint, ...], frozenset[str]]:
    by_id = {e.id: e for e in edges}
    vertex_by_id = {v.id: v for v in vertices}  # ids are unique: parse checks

    for e in edges:
        if e.color > level and not allow_high_colors:
            raise DiagramSyntaxError(
                f"edge {e.id} color {e.color} exceeds level {level} "
                "(allowed only with the high-colors flag)",
                e.line,
            )

    # vertex slots vs edge endpoints must agree both ways
    slot_refs: dict[str, list[tuple[str, str]]] = {}  # edge id -> (vertex, role)
    for v in vertices:
        for eid in v.ins + v.outs:
            if eid not in by_id:
                raise DiagramSyntaxError(
                    f"vertex {v.id} references unknown edge {eid}", v.line
                )
        for eid in v.ins:
            slot_refs.setdefault(eid, []).append((v.id, "in"))
        for eid in v.outs:
            slot_refs.setdefault(eid, []).append((v.id, "out"))

    for e in edges:
        for end, role in ((e.tail, "tail"), (e.head, "head")):
            if end[0] != "vertex":
                continue
            vid = end[1]
            v = vertex_by_id.get(vid)
            if v is None:
                raise DiagramSyntaxError(
                    f"edge {e.id} references unknown vertex {vid}", e.line
                )
            # head at v <=> e is an in-edge of v; tail at v <=> an out-edge
            expected = v.ins if role == "head" else v.outs
            if e.id not in expected:
                raise DiagramSyntaxError(
                    f"edge {e.id} {role} is at vertex {vid} but the vertex "
                    f"does not list it as an {'in' if role == 'head' else 'out'} edge",
                    e.line,
                )

    for eid, refs in slot_refs.items():
        e = by_id[eid]
        ends_here = sum(
            1
            for end, role in ((e.tail, "out"), (e.head, "in"))
            if end[0] == "vertex" and (end[1], role) in refs
        )
        if ends_here != len(refs):
            raise DiagramSyntaxError(
                f"edge {eid} is listed in vertex slots it does not terminate at",
                edge_lines[eid],
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
    """Canonical DSL text; parse(render(d)) equals d."""
    out = [f"level n {d.level}"]
    for e in d.edges:
        out.append(
            f"edge {e.id} color {e.color} from {_ep(e.tail)} to {_ep(e.head)}"
        )
    for v in d.vertices:
        if v.kind == "merge":
            out.append(f"vertex {v.id} merge in {v.ins[0]} {v.ins[1]} out {v.outs[0]}")
        else:
            out.append(f"vertex {v.id} split in {v.ins[0]} out {v.outs[0]} {v.outs[1]}")
    return "\n".join(out) + "\n"


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
    rows (product against the in... out-alphabet slot), splits contributing
    the grading shift -i1*i2.  Potential equals boundary_potential(d).
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
    return KoszulMF(
        base,
        tuple(rows),
        global_grading_shift=shift,
        z2_shift=0,
        potential_degree=2 * n + 2,
    )


def boundary_potential(d: Diagram) -> Poly:
    """Sum of out-boundary power sums minus in-boundary power sums."""
    total = Poly.zero()
    for bp, alpha in d.boundary_alphabets():
        f = power_sum_in(alpha, d.level)
        total = total + (f if bp.is_out else -f)
    return total
