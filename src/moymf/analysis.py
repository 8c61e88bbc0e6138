"""Homology of closed objects, a combinatorial bracket oracle, and checks
of the decomposition relations.

The two pipelines here are deliberately independent: homology plus Euler
characteristic run exact linear algebra over the matrix-factorization data,
while moy_bracket evaluates a closed diagram purely by graph rewriting
(circle, bubble, counter-bubble, disjoint union) with q-binomial weights.
oracle_crosscheck asserts the two agree.  Euler characteristics here are
unsigned: both parity components count positively.  Each relation is one
entry of RELATIONS, two sides of q-weighted diagram terms (some translated
in Z/2), and one verifier reduces the terms and compares the sides parity
by parity.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cache

from .poly_core import (
    CutoffExceeded,
    Poly,
    QuotientRing,
    _Basis,
    _check_cutoff,
    _from_clean,
    _lead_quotient,
    _sum,
    insert_pivot_row,
)
from .qseries import (
    QLaurent, _expand, cor_square_sides, poly_factor, qbinomial, quantum_integer
)
from .mf_core import GradedFreeModule, KoszulMF, MatrixFactorization
from .reduce import ReductionSession
from .symfun import L_poly  # noqa: F401 -- kept for bench/tracing.py, which rebinds it here
from .diagram import _MAX_LEVEL, Diagram, boundary_potential, compile_diagram, parse

__all__ = [
    "NotClosed",
    "Irreducible",
    "DEFAULT_CUTOFF",
    "RELATIONS",
    "RELATION_NAMES",
    "homology",
    "euler_characteristic",
    "euler_of_diagram",
    "moy_bracket",
    "verify_relation",
    "oracle_crosscheck",
]

DEFAULT_CUTOFF = 40


class NotClosed(ValueError):
    """Operation requires potential 0 (a closed diagram)."""


class Irreducible(ValueError):
    """The bracket oracle's rewrite set cannot close this diagram."""


# ---------------------------------------------------------------------------
# Homology and Euler characteristic
# ---------------------------------------------------------------------------


def _degree_basis(basis: _Basis, module: GradedFreeModule, d: int) -> list[tuple[int, int]]:
    """(generator, monomial key) pairs spanning internal degree d."""
    return [(i, m) for i, s in enumerate(module.generator_shifts) for m in basis.standard(d - s)]


def _map_rank(
    mf: MatrixFactorization, mat, src: GradedFreeModule, dst: GradedFreeModule, d: int
) -> int:
    """Rank of a differential restricted to internal degree d of src."""
    base = mf.base
    basis = base._basis()
    index = {key: pos for pos, key in enumerate(_degree_basis(basis, dst, d + mf.map_degree))}
    by_col: dict[int, list[tuple[int, Poly]]] = {}
    for (r, c), p in mat.entries.items():
        by_col.setdefault(c, []).append((r, p))
    pivots: dict[int, dict[int, int | Fraction]] = {}
    for i, m in _degree_basis(basis, src, d):
        vec: dict[int, int | Fraction] = {}
        for r, entry in by_col.get(i, ()):
            img = base.normal_form(entry * _from_clean({m: 1}))
            for m2, coeff in img._terms.items():
                pos = index[(r, m2)]
                vec[pos] = vec.get(pos, 0) + coeff
        insert_pivot_row({k: v for k, v in vec.items() if v}, pivots)
    return len(pivots)


def homology(mf: MatrixFactorization, cutoff: int | None = None) -> dict[tuple[int, int], int]:
    """Dimensions of homology per (grading, parity index).

    Requires potential 0 and a finite-dimensional base.  The cutoff, when
    given, bounds the answer: CutoffExceeded unless the base's Groebner
    basis completes within the packed limit of 255, the quotient is
    finite, and no degree of the returned table lies above the cutoff;
    with no cutoff no degree is bounded.  Every degree reads the standard
    monomials of that one complete basis, and per degree
    dim H = dim ker - dim im from exact ranks of the two differentials.
    A negative cutoff raises ValueError.
    """
    _check_cutoff(cutoff)
    base = mf.base
    if base.normal_form(mf.potential):
        raise NotClosed("homology requires potential 0")
    basis = base._basis()
    top = basis.top_degree()
    if top == float("inf"):
        raise CutoffExceeded("base quotient is infinite")
    series = base.dimension_series(max(top, 0))

    mods = (mf.m0, mf.m1)
    mats = (mf.d0, mf.d1)
    # the base is finite, so these products are exact:
    # dims[k] holds the graded dimension of mods[k] in every degree
    dims = tuple(poly_factor(m.generator_shifts) * series for m in mods)

    @cache
    def rank_at(k: int, d: int) -> int:
        if not mats[k].entries or not dims[k].coeff(d):
            return 0
        return _map_rank(mf, mats[k], mods[k], mods[1 - k], d)

    table: dict[tuple[int, int], int] = {}
    delta = mf.map_degree
    for k in (0, 1):
        for d, dim in sorted(dims[k].coeffs.items()):
            h = dim - rank_at(k, d) - rank_at(1 - k, d - delta)
            if h:
                table[(d, k)] = h
    highest = max((d for d, _ in table), default=0)
    if cutoff is not None and highest > cutoff:
        raise CutoffExceeded(f"homology degree {highest} exceeds the cutoff {cutoff}")
    return table


def euler_characteristic(table: dict[tuple[int, int], int]) -> QLaurent:
    """Unsigned graded count: both parity indices contribute positively."""
    total: dict[int, int] = {}
    for (d, _k), dim in sorted(table.items()):
        total[d] = total.get(d, 0) + dim
    return QLaurent(total)


def euler_of_diagram(d: Diagram, cutoff: int | None = None) -> QLaurent:
    """Euler characteristic of a closed diagram through the engine pipeline.
    The cutoff bounds the degrees of the answer (see ``homology``):
    CutoffExceeded unless the reduced base's basis completes within the
    packed limit, its quotient is finite and no degree of the homology lies
    above the cutoff.  A negative cutoff raises ValueError."""
    _check_cutoff(cutoff)
    if not d.closed:
        raise NotClosed("Euler characteristic requires a closed diagram")
    return _euler(_reduced(d).current, cutoff)


def _reduced(d: Diagram) -> ReductionSession:
    """The session that compiled the diagram and reduced it fully."""
    session = ReductionSession(compile_diagram(d), external=d.external_vars())
    session.reduce_fully()
    return session


def _euler(k: KoszulMF, cutoff: int | None) -> QLaurent:
    return euler_characteristic(homology(k.expand(), cutoff))


# ---------------------------------------------------------------------------
# Combinatorial bracket oracle
# ---------------------------------------------------------------------------


def moy_bracket(d: Diagram) -> QLaurent:
    """Evaluate a closed diagram by graph rewriting, never touching the
    matrix-factorization engine.

    Implemented rewrites: free circle, digon collapse (split feeding a
    merge), backtrack collapse (merge feeding a split through a returning
    edge), and multiplicativity over disjoint pieces.  Anything the set
    cannot finish raises Irreducible rather than guessing.
    """
    if not d.closed:
        raise NotClosed("the bracket oracle takes closed diagrams")
    n = d.level
    loops, arcs, verts = _arc_graph(d)
    value = QLaurent.one()

    def splice(in_id: int, out_id: int) -> None:
        color, tv, _ = arcs[in_id]
        if in_id == out_id:
            del arcs[in_id]
            loops.append(color)
            return
        _, _, hv = arcs[out_id]
        arcs[in_id] = (color, tv, hv)
        del arcs[out_id]
        kind, ins, outs = verts[hv]
        verts[hv] = (
            kind,
            tuple(in_id if a == out_id else a for a in ins),
            outs,
        )

    while verts:
        step = _find_digon(arcs, verts) or _find_backtrack(arcs, verts, n)
        if step is None:
            raise Irreducible(
                f"no rewrite applies; {len(verts)} vertices remain"
            )
        factor, v1, v2, in_id, out_id, dead = step
        value = value * factor
        del verts[v1], verts[v2]
        for a in dead:
            del arcs[a]
        splice(in_id, out_id)

    for color in loops:
        value = value * qbinomial(n, color)
    return value


def _arc_graph(d: Diagram):
    """Collapse glued edge chains into arcs between vertices plus free loops."""
    head_join: dict[str, str] = {}  # edge id -> edge id continuing past a glue
    tails_by_label: dict[str, str] = {}
    for e in d.edges:
        if e.tail[0] == "boundary" and e.tail[1] in d.glued_labels:
            tails_by_label[e.tail[1]] = e.id
    for e in d.edges:
        if e.head[0] == "boundary" and e.head[1] in d.glued_labels:
            head_join[e.id] = tails_by_label[e.head[1]]

    by_id = {e.id: e for e in d.edges}
    arcs: dict[int, tuple[int, str, str]] = {}
    arc_at_start: dict[str, int] = {}
    arc_at_end: dict[str, int] = {}
    visited: set[str] = set()
    next_id = itertools.count()

    for e in d.edges:
        if e.tail[0] != "vertex" or e.id in visited:
            continue
        chain = [e.id]
        cur = e
        while cur.head[0] == "boundary":
            cur = by_id[head_join[cur.id]]
            chain.append(cur.id)
        visited.update(chain)
        aid = next(next_id)
        arcs[aid] = (e.color, e.tail[1], cur.head[1])
        arc_at_start[e.id] = aid
        arc_at_end[cur.id] = aid

    loops: list[int] = []
    for e in d.edges:
        if e.id in visited:
            continue
        cur = e
        while True:
            visited.add(cur.id)
            cur = by_id[head_join[cur.id]]
            if cur.id == e.id:
                break
        loops.append(e.color)

    verts: dict[str, tuple[str, tuple[int, ...], tuple[int, ...]]] = {}
    for v in d.vertices:
        verts[v.id] = (
            v.kind,
            tuple(arc_at_end[eid] for eid in v.ins),
            tuple(arc_at_start[eid] for eid in v.outs),
        )
    return loops, arcs, verts


def _find_digon(arcs, verts):
    """Split whose two outputs run parallel into a merge."""
    for v1, (kind, ins, outs) in verts.items():
        if kind != "split":
            continue
        p, q = outs
        v2 = arcs[p][2]
        if arcs[q][2] != v2:
            continue
        # two arcs ending at v2 make it a merge whose ins are exactly p, q
        i3 = arcs[ins[0]][0]
        i1 = arcs[p][0]
        return qbinomial(i3, i1), v1, v2, ins[0], verts[v2][2][0], (p, q)
    return None


def _find_backtrack(arcs, verts, n: int):
    """Merge feeding a split whose one output returns to the merge."""
    for v1, (kind, ins, outs) in verts.items():
        if kind != "merge":
            continue
        m = outs[0]
        v2 = arcs[m][2]
        kind2, _, outs2 = verts[v2]
        # a vertex's ins are the arcs that end there and its outs the arcs
        # that start there: a split v2 has in m, and a common arc runs v2 -> v1
        common = set(ins) & set(outs2)
        if kind2 != "split" or not common:
            continue
        loop = next(iter(common))
        e_in = ins[0] if ins[1] == loop else ins[1]
        e_out = outs2[0] if outs2[1] == loop else outs2[1]
        i1 = arcs[e_in][0]
        i2 = arcs[loop][0]
        return qbinomial(n - i1, i2), v1, v2, e_in, e_out, (loop, m)
    return None


# ---------------------------------------------------------------------------
# Relation verification
# ---------------------------------------------------------------------------

# A relation side, exactly: even and odd numerators over prod_w (1 - q^w).
Table = tuple[QLaurent, QLaurent, tuple[int, ...]]


def _polynomial_table(p: QLaurent) -> Table:
    return p, QLaurent.zero(), ()


def _homology_table(k: KoszulMF) -> Table:
    """A closed side's homology, split by parity."""
    parts: tuple[dict[int, int], dict[int, int]] = ({}, {})
    for (d, z), dim in homology(k.expand()).items():
        parts[z][d] = dim
    return QLaurent(parts[0]), QLaurent(parts[1]), ()


def _swap(t: Table, times: int) -> Table:
    return (t[1], t[0], t[2]) if times % 2 else t


def _weighted_sum(terms: Sequence[tuple[Table, QLaurent]]) -> Table:
    """Sum of table * factor over the terms, over the least common
    denominator of the tables."""
    common = Counter()
    for t, _ in terms:
        common |= Counter(t[2])
    even = odd = QLaurent.zero()
    for (t0, t1, weights), factor in terms:
        for w in (common - Counter(weights)).elements():
            factor = factor._times_one_minus(w)
        even, odd = even + t0 * factor, odd + t1 * factor
    return even, odd, tuple(sorted(common.elements()))


def _render_table(t: Table, hi: int) -> dict[str, str]:
    """The series of each parity expanded through exponent hi."""
    return {f"z2_{k}": _expand(t[k], t[2], hi).render() for k in (0, 1)}


def _first_difference(lhs: Table, rhs: Table) -> dict | None:
    """The lowest exponent where the exact series differ, parity 0 first,
    or None: over a common denominator prod_w (1 - q^w) the difference of
    the series starts where the difference of the numerators does."""
    delta = _weighted_sum([(lhs, QLaurent.one()), (rhs, -QLaurent.one())])
    for k in (0, 1):
        if delta[k]:
            e = delta[k].min_exp()
            a, b = (_expand(t[k], t[2], e).coeff(e) for t in (lhs, rhs))
            return {"z2": k, "exponent": e, "lhs": a, "rhs": b}
    return None


def _line_src(i: int, n: int, tail: str = "bin", head: str = "bout") -> str:
    return f"level n {n}\nedge e1 color {i} from boundary:{tail} to boundary:{head}\n"


def _circle_src(i: int, n: int) -> str:
    return f"level n {n}\nedge e1 color {i} from boundary:a to boundary:a\n"


def _glued_pair_src(i: int, n: int) -> str:
    return (
        f"level n {n}\n"
        f"edge s1 color {i} from boundary:bin to boundary:mid\n"
        f"edge s2 color {i} from boundary:mid to boundary:bout\n"
    )


def _bubble_src(i1: int, i2: int, i3: int, n: int) -> str:
    return (
        f"level n {n}\n"
        f"edge e1 color {i3} from boundary:bin to v1\n"
        f"vertex v1 split in e1 out e2 e3\n"
        f"edge e2 color {i1} from v1 to v2\n"
        f"edge e3 color {i2} from v1 to v2\n"
        f"vertex v2 merge in e2 e3 out e4\n"
        f"edge e4 color {i3} from v2 to boundary:bout\n"
    )


def _counter_bubble_src(i1: int, i2: int, n: int) -> str:
    i3 = i1 + i2
    return (
        f"level n {n}\n"
        f"edge e1 color {i1} from boundary:bin to v1\n"
        f"edge zl color {i2} from v2 to v1\n"
        f"edge am color {i3} from v1 to v2\n"
        f"vertex v1 merge in e1 zl out am\n"
        f"edge e4 color {i1} from v2 to boundary:bout\n"
        f"vertex v2 split in am out e4 zl\n"
    )


def _merge_tree_src(i1: int, i2: int, i3: int, n: int, left: bool) -> str:
    i4 = i1 + i2 + i3
    if left:
        m = i1 + i2
        return (
            f"level n {n}\n"
            f"edge e1 color {i1} from boundary:a1 to v1\n"
            f"edge e2 color {i2} from boundary:a2 to v1\n"
            f"edge am color {m} from v1 to v2\n"
            f"vertex v1 merge in e1 e2 out am\n"
            f"edge e3 color {i3} from boundary:a3 to v2\n"
            f"edge e4 color {i4} from v2 to boundary:d\n"
            f"vertex v2 merge in am e3 out e4\n"
        )
    m = i2 + i3
    return (
        f"level n {n}\n"
        f"edge e2 color {i2} from boundary:a2 to v1\n"
        f"edge e3 color {i3} from boundary:a3 to v1\n"
        f"edge am color {m} from v1 to v2\n"
        f"vertex v1 merge in e2 e3 out am\n"
        f"edge e1 color {i1} from boundary:a1 to v2\n"
        f"edge e4 color {i4} from v2 to boundary:d\n"
        f"vertex v2 merge in e1 am out e4\n"
    )


def _mirrored(src: str) -> str:
    """The diagram with every edge reversed: each merge becomes a split with
    its ins and outs swapped, and each split a merge.  The vertices come in
    reverse order, and so do their rows."""
    lines, vertices = [], []
    for line in src.splitlines():
        w = line.split()
        if w[0] == "edge":
            line = f"edge {w[1]} color {w[3]} from {w[7]} to {w[5]}"
        elif w[0] == "vertex":
            cut = w.index("out")
            kind = "split" if w[2] == "merge" else "merge"
            ins, outs = " ".join(w[4:cut]), " ".join(w[cut + 1:])
            vertices.insert(0, f"vertex {w[1]} {kind} in {outs} out {ins}")
            continue
        lines.append(line)
    return "\n".join(lines + vertices) + "\n"


def _square_tall_src(j: int, n: int) -> str:
    """Both strands upward; color-1 rungs; left passes through 2, right
    through j-1."""
    return (
        f"level n {n}\n"
        f"edge lb color 1 from boundary:x3 to ml\n"
        f"edge rlo color 1 from sr to ml\n"
        f"edge lmid color 2 from ml to sl\n"
        f"vertex ml merge in lb rlo out lmid\n"
        f"edge lt color 1 from sl to boundary:x1\n"
        f"edge rhi color 1 from sl to mr\n"
        f"vertex sl split in lmid out lt rhi\n"
        f"edge rb color {j} from boundary:x4 to sr\n"
        f"edge rmid color {j - 1} from sr to mr\n"
        f"vertex sr split in rb out rmid rlo\n"
        f"edge rt color {j} from mr to boundary:x2\n"
        f"vertex mr merge in rmid rhi out rt\n"
    )


def _join_src(j: int, n: int) -> str:
    return (
        f"level n {n}\n"
        f"edge e1 color 1 from boundary:x3 to v1\n"
        f"edge e2 color {j} from boundary:x4 to v1\n"
        f"edge am color {j + 1} from v1 to v2\n"
        f"vertex v1 merge in e1 e2 out am\n"
        f"edge e3 color 1 from v2 to boundary:x1\n"
        f"edge e4 color {j} from v2 to boundary:x2\n"
        f"vertex v2 split in am out e3 e4\n"
    )


def _parallel_src(j: int, n: int) -> str:
    return (
        f"level n {n}\n"
        f"edge l1 color 1 from boundary:x3 to boundary:x1\n"
        f"edge l2 color {j} from boundary:x4 to boundary:x2\n"
    )


def _square_wide_src(j: int, n: int) -> str:
    """Left strand downward; color j+1 rungs; mids colored j and 1."""
    return (
        f"level n {n}\n"
        f"edge tl color 1 from boundary:x1 to ul\n"
        f"edge lmid color {j} from ll to ul\n"
        f"edge rhi color {j + 1} from ul to ur\n"
        f"vertex ul merge in tl lmid out rhi\n"
        f"edge rt color {j} from ur to boundary:x2\n"
        f"edge rmid color 1 from ur to lr\n"
        f"vertex ur split in rhi out rt rmid\n"
        f"edge rb color {j} from boundary:x4 to lr\n"
        f"edge rlo color {j + 1} from lr to ll\n"
        f"vertex lr merge in rmid rb out rlo\n"
        f"edge lb color 1 from ll to boundary:x3\n"
        f"vertex ll split in rlo out lmid lb\n"
    )


def _antiparallel_src(j: int, n: int) -> str:
    return (
        f"level n {n}\n"
        f"edge l1 color 1 from boundary:x1 to boundary:x3\n"
        f"edge l2 color {j} from boundary:x4 to boundary:x2\n"
    )


def _h_src(j: int, n: int) -> str:
    return (
        f"level n {n}\n"
        f"edge ht color 1 from boundary:x1 to hm\n"
        f"edge vv color {j - 1} from hs to hm\n"
        f"edge hout color {j} from hm to boundary:x2\n"
        f"vertex hm merge in ht vv out hout\n"
        f"edge hin color {j} from boundary:x4 to hs\n"
        f"edge hb color 1 from hs to boundary:x3\n"
        f"vertex hs split in hin out hb vv\n"
    )


def _judge(report: dict, lhs: Table, rhs: Table, structural: Sequence[str] = ()) -> dict:
    """Set the report's verdict, PASS only when the series agree in every
    degree and nothing structural differs, and append what failed.  A
    "verdict" key already in the report keeps its place."""
    diff = _first_difference(lhs, rhs)
    report["verdict"] = "PASS" if diff is None and not structural else "FAIL"
    if diff is not None:
        report["first_difference"] = diff
    if structural:
        report["structural_mismatch"] = list(structural)
    return report


def _same_rows(got: KoszulMF, direct: KoszulMF) -> list[str]:
    """What differs between the contracted pair and the line: rows (in any
    row order), parity, grading shift and potential."""
    structural: list[str] = []
    if got.row_count != direct.row_count:
        structural.append(f"row count {got.row_count} != {direct.row_count}")
    else:
        nf = got.base.normal_form
        for m, (ga, gb) in enumerate(got.rows):  # in any row order
            if all(nf(ga - da) or nf(gb - db) for da, db in direct.rows):
                structural.append(f"row {m} differs after normalization")
    if got.z2_shift % 2 != direct.z2_shift % 2:
        structural.append("parity shift differs")
    if got.global_grading_shift != direct.global_grading_shift:
        structural.append(
            f"grading shift {got.global_grading_shift} != {direct.global_grading_shift}"
        )
    if got.base.normal_form(got.potential() - direct.potential()):
        structural.append("potentials differ")
    return structural


def _same_ring(left: KoszulMF, right: KoszulMF) -> list[str]:
    """What differs between the two trees' base rings and potentials."""
    structural: list[str] = []
    lb, rb = left.base, right.base
    if set(lb.vars) != set(rb.vars):
        structural.append("base variables differ")
    if len(lb.ideal_gens) != len(rb.ideal_gens):
        structural.append("base ideal sizes differ")
    pot = left.potential() - right.potential()
    if set(lb.vars) == set(rb.vars) and lb.normal_form(pot):
        structural.append("potentials differ")
    return structural


def _single(src: str) -> list[Term]:
    return [(src, QLaurent.one(), 0)]


def _trees(*params: int, mirror: bool = False) -> Sides:
    """The left and right merge trees, each mirrored into a split tree when
    asked."""
    srcs = (_merge_tree_src(*params, left=left) for left in (True, False))
    return tuple(_single(_mirrored(src) if mirror else src) for src in srcs)


def _bubble_sides(i1: int, i2: int, i3: int, n: int) -> Sides:
    if i1 + i2 != i3:
        raise ValueError("bubble needs thin colors summing to the thick one")
    return _single(_bubble_src(i1, i2, i3, n)), [(_line_src(i3, n), qbinomial(i3, i1), 0)]


def _cor_square_sides(j1: int, j2: int) -> Sides:
    # the identity is stated for colors; below 1 some tuples fail, as (3, 0)
    if min(j1, j2) < 1:
        raise ValueError(f"relation cor_square {[j1, j2]}: j1 and j2 must be at least 1")
    return tuple([(None, s, 0)] for s in cor_square_sides(j1, j2))


def _square_j_sides(j: int, n: int) -> Sides:
    rhs = _single(_join_src(j, n)) + [(_parallel_src(j, n), quantum_integer(j - 1), 0)]
    return _single(_square_tall_src(j, n)), rhs


def _square_wide_sides(j: int, n: int) -> Sides:
    rhs = _single(_antiparallel_src(j, n)) + [(_h_src(j, n), quantum_integer(n - j - 1), 1)]
    return _single(_square_wide_src(j, n)), rhs


# name -> (parameter count, sides, structural).  sides(*params) checks
# the parameters and returns the two sides, each the weighted sum of its
# terms: (diagram source, or None for the unit; weight; how many times its
# parity is swapped).  structural, for one-term sides, lists what differs
# between the reduced sides.  The order is the one the CLI lists.
Term = tuple[str | None, QLaurent, int]
Sides = tuple[list[Term], list[Term]]
RELATIONS: dict[str, tuple[int, Callable[..., Sides], Callable | None]] = {
    "line_contract": (
        2, lambda i, n: (_single(_glued_pair_src(i, n)), _single(_line_src(i, n))),
        _same_rows,
    ),
    "circle_jacobi": (
        2, lambda i, n: (_single(_circle_src(i, n)), [(None, qbinomial(n, i), i)]), None,
    ),
    "assoc_merge": (4, _trees, _same_ring),
    "assoc_split": (4, lambda *p: _trees(*p, mirror=True), _same_ring),
    "bubble": (4, _bubble_sides, None),
    "counter_bubble": (
        3, lambda i1, i2, n: (
            _single(_counter_bubble_src(i1, i2, n)),
            [(_line_src(i1, n), qbinomial(n - i1, i2), i2)],
        ),
        None,
    ),
    "square_j": (2, _square_j_sides, None),
    "square_wide": (2, _square_wide_sides, None),
    "cor_square": (2, _cor_square_sides, None),
}


def _lifted(k: KoszulMF, d: Diagram) -> tuple[KoszulMF, list[Poly]]:
    """A reduced open side over a free base, and the base generators in
    boundary variables alone it still keeps.  A lone generator g in them
    comes back as the row (h; g), where w - sum a*b = h*g in the free ring
    for w the boundary potential: K(h; g) tensor the rows is the rows over
    R/(g) (the absorption lemma read backwards, Khovanov-Rozansky 2008,
    section 2).  h is found by lead-term division, and only when it is
    exact."""
    ext = d.external_vars()
    left = [g for g in k.base.ideal_gens if g.variables() <= ext]
    if left and len(k.base.ideal_gens) == 1:
        g, h = left[0], Poly.zero()
        r = boundary_potential(d) - _sum(row.product for row in k.rows)
        while (q := _lead_quotient(r, g)) is not None:
            h, r = h + q, r - q * g
        if not r:
            return k.with_rows(k.rows + ((h, g),), QuotientRing(k.base.vars)), []
    return k, left


def _verify(name: str, params: tuple[int, ...], cutoff: int) -> dict:
    """Reduce every term of nonzero weight, count a closed diagram by its
    homology and an open one by its exact table over a free base (see
    ``_lifted``), each per parity, sum each side and judge.  A verdict
    other than PASS is UNDECIDED when a reduced open term keeps an
    internal variable in a row, or a base generator in boundary variables
    alone: its table counts the ranks of a presentation the calculus did
    not finish, or of a module over a ring that is not free, so a
    difference disproves nothing.  A closed term's homology is the same
    however far it was reduced."""
    _, sides, structural = RELATIONS[name]
    terms = sides(*params)
    n = params[-1]  # every diagram's level
    for src, _, _ in terms[0] + terms[1]:
        if src is not None and n > _MAX_LEVEL:
            raise ValueError(f"relation {name} {list(params)}: level {n} above {_MAX_LEVEL}")
        for color in map(int, re.findall(r"color (-?\d+)", src or "")):
            if not 1 <= color <= n:
                raise ValueError(f"relation {name} {list(params)}: color {color} not in 1..{n}")
    log: list[dict] = []
    tables, reduced, stalled, unlifted = [], ([], []), set(), set()
    for side, kept in zip(terms, reduced):
        summands = []
        for src, weight, swaps in side:
            if not weight:
                continue
            table = _polynomial_table(QLaurent.one())
            if src is not None:
                d = parse(src)
                session = _reduced(d)
                log += session.log_dicts()
                k = session.current
                if d.closed:
                    table = _homology_table(k)
                else:
                    k, left = _lifted(k, d)
                    table, ext = k._series(), d.external_vars()
                    stalled.update(v.name for r in k.rows for p in r for v in p.variables() - ext)
                    unlifted.update(g.render() for g in left)
                kept.append(k)
            summands.append((_swap(table, swaps), weight))
        tables.append(_weighted_sum(summands))
    lhs, rhs = tables
    report = {
        "relation": name,
        "params": list(params),
        "lhs_series": _render_table(lhs, cutoff),
        "rhs_series": _render_table(rhs, cutoff),
        "verdict": None,
        "reduction_log_ref": "inline:reduction_log",
        "reduction_log": log,
    }
    _judge(report, lhs, rhs, structural(*(k[0] for k in reduced)) if structural else ())
    undecided = {"stalled_variables": stalled, "unlifted_generators": unlifted}
    if report["verdict"] != "PASS" and any(undecided.values()):
        report["verdict"] = "UNDECIDED"
        report.update((key, sorted(v)) for key, v in undecided.items() if v)
    return report


RELATION_NAMES = tuple(RELATIONS)


def verify_relation(
    name: str,
    params: Sequence[int],
    cutoff: int | None = None,
) -> dict:
    """Check one decomposition relation at the given colors and level.

    Diagram sides are built, reduced by the calculus, and compared parity
    by parity as exact rational graded series, so PASS holds in every
    degree; ``cor_square`` is a closed-form identity and needs no
    reduction.  The report carries both series expanded through the
    cutoff, which bounds nothing else, a verdict, the reduction log, and
    the lowest differing coefficient when the series differ.  The verdict
    is PASS, FAIL, or UNDECIDED when the sides differ while a reduced open
    term keeps internal variables in its rows, which the report lists as
    ``stalled_variables``, or base generators in boundary variables alone
    that it could not lift back into rows, listed as
    ``unlifted_generators``.  An unknown name, a parameter that is not an
    ``int`` (a ``bool`` included), a parameter count other than the one
    ``RELATIONS`` lists, a parameter outside the relation's domain (a color
    below 1 or above the level among them, a level above 126 for a relation
    of diagrams, and a ``cor_square`` parameter below 1), or a negative
    cutoff raises ValueError.
    """
    if name not in RELATIONS:
        raise ValueError(f"unknown relation {name!r}; choose from {RELATION_NAMES}")
    arity = RELATIONS[name][0]
    params = tuple(params)
    for p in params:
        if type(p) is not int:
            raise ValueError(f"relation {name}: parameter {p!r} is not an int")
    if len(params) != arity:
        raise ValueError(f"relation {name} expects {arity} parameters, got {len(params)}")
    _check_cutoff(cutoff)
    return _verify(name, params, DEFAULT_CUTOFF if cutoff is None else cutoff)


def oracle_crosscheck(d: Diagram, cutoff: int | None = None) -> dict:
    """Compare the engine pipeline against the combinatorial evaluator.

    The engine side compiles, reduces, expands, and takes the unsigned
    Euler characteristic of the homology; the oracle side never touches a
    matrix.  Closed diagrams only.  The cutoff bounds the degrees of the
    engine's answer, as in ``euler_of_diagram``; a negative cutoff raises
    ValueError.
    """
    engine = euler_of_diagram(d, cutoff=cutoff)
    oracle = moy_bracket(d)
    report = {"engine_euler": engine.render(), "oracle_value": oracle.render()}
    return _judge(report, _polynomial_table(engine), _polynomial_table(oracle))
