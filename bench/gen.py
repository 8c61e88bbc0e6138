"""Seeded inputs for the benchmark workloads.

Everything here is plain text or plain tuples: the engine only ever sees
the diagram sources and relation parameters produced below, and nothing
here imports the engine.

Random diagrams are built as sequences of merge/split moves on a row of
strands.  Closed ones apply the moves, then their inverses in reverse
order, and glue each final strand back onto the initial strand in the same
position, so colors match by construction.  Open ones stop after the
forward moves and leave both ends on the boundary.
"""

from __future__ import annotations

import random

THETA_LEVELS = (3, 4, 5, 6)

# every relation at two sizes; the parameters are those of verify_relation
RELATION_ITEMS = (
    ("line_contract", (2, 4)),
    ("line_contract", (3, 6)),
    ("circle_jacobi", (2, 4)),
    ("circle_jacobi", (3, 5)),
    ("assoc_merge", (1, 1, 1, 3)),
    ("assoc_merge", (1, 2, 1, 5)),
    ("assoc_split", (1, 1, 1, 3)),
    ("assoc_split", (1, 2, 1, 5)),
    ("bubble", (1, 2, 3, 4)),
    ("bubble", (2, 2, 4, 4)),
    ("counter_bubble", (2, 1, 4)),
    ("counter_bubble", (1, 2, 3)),
    ("square_j", (2, 3)),
    ("square_j", (3, 5)),
    ("square_wide", (2, 4)),
    ("square_wide", (3, 5)),
    ("cor_square", (2, 3)),
    ("cor_square", (4, 6)),
)

# Closed closures: the shape the property tests draw from, at most 6 rows.
# The closures come from one fixed design seed; the run seed orders them.
CLOSED_SHAPE = {"max_level": 4, "max_color": 3, "max_pairs": 2}
CLOSED_MAX_ROWS = 6
CLOSED_DESIGN_SEED = 5
CLOSED_COUNT = 12

# open diagrams for the reduce path: 5 levels x 3 strand counts x 5 move
# counts x OPEN_PER_CELL
OPEN_SHAPE = {"max_level": 6, "max_color": 4, "max_pairs": 4}
OPEN_PER_CELL = 5
OPEN_DESIGN_SEED = 5


def theta_source(n: int) -> str:
    """Two color-1 edges split off a color-2 edge and merge back."""
    return (
        f"level n {n}\n"
        "edge e2 color 1 from v1 to v2\n"
        "edge e3 color 1 from v1 to v2\n"
        "edge e4 color 2 from v2 to v1\n"
        "vertex v1 split in e4 out e2 e3\n"
        "vertex v2 merge in e2 e3 out e4\n"
    )


class _Strand:
    __slots__ = ("color", "tail", "head")

    def __init__(self, color: int, tail: int | None = None):
        self.color = color
        self.tail = tail  # index of the vertex the strand leaves, or None
        self.head: int | None = None


class Shape:
    """A diagram before naming: level, strands and vertices.

    ``vertices[i]`` is ``(kind, ins, outs)`` with strands as lists.
    """

    def __init__(self, level: int, strands: list[_Strand], vertices: list, closed: bool):
        self.level = level
        self.strands = strands
        self.vertices = vertices
        self.closed = closed

    @property
    def rows(self) -> int:
        """Rows of the compiled Koszul presentation: the thick color at
        each vertex, plus the color of every boundary-to-boundary edge."""
        thick = sum(
            (outs[0] if kind == "merge" else ins[0]).color
            for kind, ins, outs in self.vertices
        )
        lines = sum(s.color for s in self.strands if s.tail is None and s.head is None)
        return thick + lines

    def source(self) -> str:
        """The diagram in the text format."""
        ename = {id(s): f"e{k}" for k, s in enumerate(self.strands)}
        vname = [f"v{k}" for k in range(len(self.vertices))]
        edges = []
        for s in self.strands:
            e = ename[id(s)]
            if s.tail is None and s.head is None and self.closed:
                tail = head = f"boundary:{e}"
            else:
                tail = vname[s.tail] if s.tail is not None else f"boundary:{e}i"
                head = vname[s.head] if s.head is not None else f"boundary:{e}o"
            edges.append(f"edge {e} color {s.color} from {tail} to {head}")
        vertices = [
            f"vertex {vname[i]} {kind} in {' '.join(ename[id(s)] for s in ins)}"
            f" out {' '.join(ename[id(s)] for s in outs)}"
            for i, (kind, ins, outs) in enumerate(self.vertices)
        ]
        return "\n".join([f"level n {self.level}"] + edges + vertices) + "\n"


def _moves(rng: random.Random, colors: list[int], pairs: int, cmax: int) -> list[tuple]:
    """Up to `pairs` random merge/split moves, each legal after the last."""
    state = list(colors)
    moves: list[tuple] = []
    for _ in range(pairs):
        options = [
            ("merge", pos, state[pos])
            for pos in range(len(state) - 1)
            if state[pos] + state[pos + 1] <= cmax
        ]
        options += [
            ("split", pos, left)
            for pos, c in enumerate(state)
            for left in range(1, c)
        ]
        if not options:
            break
        kind, pos, extra = move = rng.choice(options)
        moves.append(move)
        if kind == "merge":
            state[pos : pos + 2] = [state[pos] + state[pos + 1]]
        else:
            state[pos : pos + 1] = [extra, state[pos] - extra]
    return moves


def _inverse(move: tuple) -> tuple:
    kind, pos, extra = move
    return ("split" if kind == "merge" else "merge", pos, extra)


def random_shape(
    rng: random.Random, closed: bool, max_level: int, max_color: int, max_pairs: int
) -> Shape:
    n = rng.randint(2, max_level)
    cmax = min(max_color, n)
    colors = [rng.randint(1, cmax) for _ in range(rng.randint(1, 3))]
    moves = _moves(rng, colors, rng.randint(0, max_pairs), cmax)
    return _assemble(n, colors, moves, closed)


def _assemble(n: int, colors: list[int], moves: list[tuple], closed: bool) -> Shape:
    if closed:
        moves = moves + [_inverse(m) for m in reversed(moves)]
    initial = [_Strand(c) for c in colors]
    front = list(initial)
    strands = list(initial)
    vertices: list[tuple[str, list[_Strand], list[_Strand]]] = []
    for idx, (kind, pos, extra) in enumerate(moves):
        if kind == "merge":
            ins = front[pos : pos + 2]
            outs = [_Strand(ins[0].color + ins[1].color, idx)]
            front[pos : pos + 2] = outs
        else:
            ins = [front[pos]]
            outs = [_Strand(extra, idx), _Strand(ins[0].color - extra, idx)]
            front[pos : pos + 1] = outs
        for s in ins:
            s.head = idx
        strands += outs
        vertices.append((kind, ins, outs))

    if closed:
        # the final strand in each position takes over the initial one's
        # head; an untouched strand stays a free circle
        for first, last in zip(initial, front):
            if last is first:
                continue
            last.head = first.head
            strands.remove(first)
            for _, ins, _ in vertices:
                ins[:] = [last if s is first else s for s in ins]
    return Shape(n, strands, vertices, closed)


def closed_shapes() -> list[Shape]:
    """The fixed closure corpus: the first CLOSED_COUNT closures of the
    design seed with at most CLOSED_MAX_ROWS rows (expansion cost is
    2^rows)."""
    rng = random.Random(CLOSED_DESIGN_SEED)
    out: list[Shape] = []
    while len(out) < CLOSED_COUNT:
        shape = random_shape(rng, closed=True, **CLOSED_SHAPE)
        if shape.rows <= CLOSED_MAX_ROWS:
            out.append(shape)
    return out


def closed_items(seed: int) -> list[tuple[str, str]]:
    """(item id, source) for closed_euler: the theta family plus the
    closure corpus, in an order drawn from the seed."""
    items = [(f"theta/{n}", theta_source(n)) for n in THETA_LEVELS]
    items += [(f"closure/{i}", s.source()) for i, s in enumerate(closed_shapes())]
    random.Random(seed).shuffle(items)
    return items


def relation_items(seed: int) -> list[tuple[str, tuple[str, tuple[int, ...]]]]:
    """(item id, (relation, params)) in a seeded order."""
    items = [
        (f"{name}/{','.join(map(str, params))}", (name, params))
        for name, params in RELATION_ITEMS
    ]
    random.Random(seed).shuffle(items)
    return items


def open_items(seed: int) -> list[tuple[str, str]]:
    """(item id, source) for open_reduce: OPEN_PER_CELL open diagrams for
    every level, strand count and number of move pairs, drawn once from
    the design seed, in an order drawn from the run seed.

    Fixing how many diagrams fall in each cell keeps a level-6 diagram,
    which costs about ten times a level-2 one, from swinging the pass.
    """
    rng = random.Random(OPEN_DESIGN_SEED)
    items = []
    for n in range(2, OPEN_SHAPE["max_level"] + 1):
        cmax = min(OPEN_SHAPE["max_color"], n)
        for count in (1, 2, 3):
            for pairs in range(OPEN_SHAPE["max_pairs"] + 1):
                for k in range(OPEN_PER_CELL):
                    colors = [rng.randint(1, cmax) for _ in range(count)]
                    moves = _moves(rng, colors, pairs, cmax)
                    src = _assemble(n, colors, moves, closed=False).source()
                    items.append((f"open/{n}.{count}.{pairs}.{k}", src))
    random.Random(seed).shuffle(items)
    return items
