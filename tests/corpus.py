"""Seeded random inputs for property tests.

Two generators live here: diagram sources in the text format (closed ones
built as a palindromic composition of merge/split moves wrapped into a
trace, so color bookkeeping closes up by construction), and small random
Koszul row presentations over a fixed variable pool.  random_order_reduce
replays the reduction with a seeded exclusion order.
"""

from __future__ import annotations

import random
from fractions import Fraction

from moymf import (
    Diagram,
    GradedVar,
    KoszulMF,
    Poly,
    QuotientRing,
    ReductionSession,
    compile_diagram,
    exclusion_candidate,
    parse,
)


def _weighted_monomials(weights: list[int], d: int) -> list[tuple[int, ...]]:
    if not weights:
        return [()] if d == 0 else []
    out = []
    for e in range(d // weights[0] + 1):
        for rest in _weighted_monomials(weights[1:], d - e * weights[0]):
            out.append((e,) + rest)
    return out


def random_homogeneous(
    rng: random.Random,
    variables: list[GradedVar],
    degree: int,
    allow_zero: bool = False,
) -> Poly:
    """Random homogeneous polynomial of the given (even) degree."""
    monos = _weighted_monomials([v.degree for v in variables], degree)
    if not monos and not allow_zero:
        raise ValueError(f"no monomials of degree {degree} in {variables}")
    while True:
        p = Poly.zero()
        for exps in monos:
            c = rng.choice([-2, -1, 0, 0, 1, 1, 2])
            if c == 0:
                continue
            term = Poly.const(c)
            for v, e in zip(variables, exps):
                term = term * Poly.variable(v) ** e
            p = p + term
        if p or allow_zero:
            return p


def random_koszul(rng: random.Random, potential_degree: int = 8) -> KoszulMF:
    # the degree-2 variable is always present so every even row degree
    # has monomials to draw from
    extras = [GradedVar("y", 2), GradedVar("z", 4)]
    variables = sorted(
        [GradedVar("x", 2)] + rng.sample(extras, rng.randint(0, 2)),
        key=lambda v: v.name,
    )
    base = QuotientRing(tuple(variables))
    rows = []
    for _ in range(rng.randint(1, 3)):
        da = rng.choice([2, 4, 6])
        a = random_homogeneous(rng, variables, da)
        b = random_homogeneous(rng, variables, potential_degree - da)
        rows.append((a, b))
    return KoszulMF(base, tuple(rows), 0, 0, potential_degree)


def pickle_samples() -> tuple[Poly, QuotientRing, KoszulMF]:
    """A Poly, a QuotientRing whose Groebner basis has grown, and a compiled
    KoszulMF whose potential is cached, built alike in every process."""
    _, _, k = random_compiled(random.Random(17), closed=False)
    k.potential()
    x, y = (Poly.variable(v) for v in k.base.vars[:2])
    ring = QuotientRing(k.base.vars[:2], (x**3 - 2 * y**3, x * y * y))
    ring.dimension_series(12)
    poly = k.potential() * Fraction(-3, 4) + x**4 * y - 5
    return poly, ring, k


class _Edge:
    __slots__ = ("color", "from_v", "to_v", "name")

    def __init__(self, color: int):
        self.color = color
        self.from_v: str | None = None
        self.to_v: str | None = None
        self.name: str | None = None


def _forward_moves(
    rng: random.Random, colors: list[int], pairs: int, cmax: int
) -> list[tuple]:
    """Random merge/split moves applicable in sequence to `colors`."""
    state = list(colors)
    moves: list[tuple] = []
    for _ in range(pairs):
        options: list[tuple] = []
        for pos in range(len(state) - 1):
            if state[pos] + state[pos + 1] <= cmax:
                options.append(("merge", pos, state[pos]))
        for pos, c in enumerate(state):
            for left in range(1, c):
                options.append(("split", pos, left))
        if not options:
            break
        move = rng.choice(options)
        moves.append(move)
        kind, pos, extra = move
        if kind == "merge":
            state[pos : pos + 2] = [state[pos] + state[pos + 1]]
        else:
            state[pos : pos + 1] = [extra, state[pos] - extra]
    return moves


def _invert(move: tuple) -> tuple:
    kind, pos, extra = move
    if kind == "merge":
        return ("split", pos, extra)
    return ("merge", pos, extra)


def random_diagram_source(
    rng: random.Random,
    closed: bool = True,
    max_level: int = 4,
    max_color: int = 3,
    max_pairs: int = 2,
) -> str:
    """One random diagram in the text format.

    Closed diagrams apply a move sequence followed by its formal inverse,
    then glue final strands back onto initial ones, so every wrap matches
    colors positionally.  Open diagrams stop after the forward moves and
    leave both frontiers on the boundary.
    """
    n = rng.randint(2, max_level)
    cmax = min(max_color, n)
    k = rng.randint(1, 3)
    colors = [rng.randint(1, cmax) for _ in range(k)]
    moves = _forward_moves(rng, colors, rng.randint(0, max_pairs), cmax)
    if closed:
        moves = moves + [_invert(m) for m in reversed(moves)]

    initial = [_Edge(c) for c in colors]
    tokens = list(initial)
    vertices: list[dict] = []
    for idx, (kind, pos, extra) in enumerate(moves):
        name = f"v{idx}"
        if kind == "merge":
            left, right = tokens[pos], tokens[pos + 1]
            left.to_v = right.to_v = name
            out = _Edge(left.color + right.color)
            out.from_v = name
            vertices.append(
                {"name": name, "kind": "merge", "ins": [left, right], "outs": [out]}
            )
            tokens[pos : pos + 2] = [out]
        else:
            src = tokens[pos]
            src.to_v = name
            ea, eb = _Edge(extra), _Edge(src.color - extra)
            ea.from_v = eb.from_v = name
            vertices.append(
                {"name": name, "kind": "split", "ins": [src], "outs": [ea, eb]}
            )
            tokens[pos : pos + 1] = [ea, eb]

    edges: list[_Edge] = []
    if closed:
        for init_e, fin_e in zip(initial, tokens):
            if fin_e is init_e:
                edges.append(fin_e)  # untouched strand closes into a circle
                continue
            # one wrapped edge replaces the initial stub and the final stub
            fin_e.to_v = init_e.to_v
            for v in vertices:
                v["ins"] = [fin_e if e is init_e else e for e in v["ins"]]
            edges.append(fin_e)
        for v in vertices:
            for e in v["ins"]:
                if e not in edges:
                    edges.append(e)
            for e in v["outs"]:
                if e not in edges:
                    edges.append(e)
    else:
        seen: set[int] = set()
        for e in initial + [e for v in vertices for e in v["outs"]]:
            if id(e) not in seen:
                seen.add(id(e))
                edges.append(e)

    lines = [f"level n {n}"]
    for i, e in enumerate(edges):
        e.name = f"e{i}"
    for e in edges:
        src = e.from_v if e.from_v is not None else f"boundary:{e.name}i"
        dst = e.to_v if e.to_v is not None else f"boundary:{e.name}o"
        if e.from_v is None and e.to_v is None and closed:
            src = dst = f"boundary:{e.name}"  # self-glued free circle
        lines.append(f"edge {e.name} color {e.color} from {src} to {dst}")
    for v in vertices:
        ins = " ".join(e.name for e in v["ins"])
        outs = " ".join(e.name for e in v["outs"])
        lines.append(f"vertex {v['name']} {v['kind']} in {ins} out {outs}")
    return "\n".join(lines) + "\n"


def random_compiled(
    rng: random.Random,
    closed: bool = True,
    max_rows: int = 6,
    **kwargs,
) -> tuple[str, Diagram, KoszulMF]:
    """Random diagram small enough to expand: resamples until the row
    presentation fits under max_rows (expansion cost is 2^rows)."""
    while True:
        src = random_diagram_source(rng, closed=closed, **kwargs)
        d = parse(src)
        k = compile_diagram(d)
        if k.row_count <= max_rows:
            return src, d, k


def random_order_reduce(
    k: KoszulMF, external: frozenset, rng: random.Random
) -> ReductionSession:
    """Exclude admissible rows in a random order, then absorb zero rows
    (skipping unverified ones), until neither applies."""
    session = ReductionSession(k, external=external)
    while True:
        rows = [
            m
            for m in range(session.current.row_count)
            if exclusion_candidate(session.current, m, session.external)
        ]
        if rows:
            session.exclude_variable(rng.choice(rows))
            continue
        if session.absorb_zero_rows() == 0:
            return session


def bubble_chain(n: int) -> str:
    """Three color-1 digons closed into a loop by color-2 edges, at level n:
    exclusion and absorption alone leave a row with internal variables."""
    return (
        f"level n {n}\n"
        "edge e0 color 2 from v5 to v0\n"
        "edge e1 color 1 from v0 to v1\n"
        "edge e2 color 1 from v0 to v1\n"
        "edge e3 color 2 from v1 to v2\n"
        "edge e4 color 1 from v2 to v3\n"
        "edge e5 color 1 from v2 to v3\n"
        "edge e6 color 2 from v3 to v4\n"
        "edge e7 color 1 from v4 to v5\n"
        "edge e8 color 1 from v4 to v5\n"
        "vertex v0 split in e0 out e1 e2\n"
        "vertex v1 merge in e1 e2 out e3\n"
        "vertex v2 split in e3 out e4 e5\n"
        "vertex v3 merge in e4 e5 out e6\n"
        "vertex v4 split in e6 out e7 e8\n"
        "vertex v5 merge in e7 e8 out e0\n"
    )
