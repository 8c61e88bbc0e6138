"""Homology of closed objects, a combinatorial bracket oracle, and checks
of the decomposition relations.

The two pipelines here are deliberately independent: homology plus Euler
characteristic run exact linear algebra over the matrix-factorization data,
while moy_bracket evaluates a closed diagram purely by graph rewriting
(circle, bubble, counter-bubble, disjoint union) with q-binomial weights.
oracle_crosscheck asserts the two agree.  Euler characteristics here are
unsigned: both parity components count positively.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import cache, partial

from .poly_core import (
    CutoffExceeded,
    Poly,
    _Basis,
    _check_cutoff,
    _from_clean,
    insert_pivot_row,
)
from .qseries import (
    QLaurent, _expand, cor_square_sides, poly_factor, qbinomial, quantum_integer
)
from .mf_core import GradedFreeModule, KoszulMF, MatrixFactorization
from .reduce import ReductionSession
from .symfun import L_poly  # noqa: F401 -- kept for bench/tracing.py, which rebinds it here
from .diagram import Diagram, compile_diagram, parse

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

    Requires potential 0 and a finite-dimensional base.  The cutoff (at
    most the base's own cutoff, which is also the default) bounds the
    answer: CutoffExceeded unless the base's Groebner basis completes
    within ``QuotientRing.cutoff``, the only bound on the work, and the
    quotient's top degree is at most the cutoff.  Every degree reads the
    standard monomials of that one complete basis, and per degree
    dim H = dim ker - dim im from exact ranks of the two differentials.
    A negative cutoff raises ValueError.
    """
    _check_cutoff(cutoff)
    base = mf.base
    cutoff = base.cutoff if cutoff is None else min(cutoff, base.cutoff)
    if base.normal_form(mf.potential):
        raise NotClosed("homology requires potential 0")
    basis = base._basis()
    top = basis.top_degree()
    if top > cutoff:
        raise CutoffExceeded(f"base quotient's top degree {top} exceeds the cutoff {cutoff}")
    series = _expand(basis.numerator(), basis.weights, top)

    mods = (mf.m0, mf.m1)
    mats = (mf.d0, mf.d1)
    # the base is finite within the cutoff, so these products are exact:
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
    return table


def euler_characteristic(table: dict[tuple[int, int], int]) -> QLaurent:
    """Unsigned graded count: both parity indices contribute positively."""
    total = QLaurent.zero()
    for (d, _k), dim in sorted(table.items()):
        total = total + QLaurent.q_power(d) * dim
    return total


def euler_of_diagram(d: Diagram, cutoff: int | None = None) -> QLaurent:
    """Euler characteristic of a closed diagram through the engine pipeline.
    The cutoff bounds the homology's top degree (see ``homology``):
    CutoffExceeded unless the reduced base's basis is complete by the ring's
    cutoff and its quotient finite with top degree at most the cutoff.  A
    negative cutoff raises ValueError."""
    _check_cutoff(cutoff)
    if not d.closed:
        raise NotClosed("Euler characteristic requires a closed diagram")
    return _euler(_reduced(d).current, cutoff)


def _reduced(d: Diagram | str) -> ReductionSession:
    """The session that compiled the diagram (or its source) and reduced it
    fully."""
    d = parse(d) if isinstance(d, str) else d
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
        if p == q:
            continue
        v2 = arcs[p][2]
        if v2 == v1 or arcs[q][2] != v2:
            continue
        kind2, ins2, outs2 = verts[v2]
        if kind2 != "merge" or set(ins2) != {p, q}:
            continue
        i3 = arcs[ins[0]][0]
        i1 = arcs[p][0]
        return qbinomial(i3, i1), v1, v2, ins[0], outs2[0], (p, q)
    return None


def _find_backtrack(arcs, verts, n: int):
    """Merge feeding a split whose one output returns to the merge."""
    for v1, (kind, ins, outs) in verts.items():
        if kind != "merge":
            continue
        m = outs[0]
        v2 = arcs[m][2]
        if v2 == v1:
            continue
        kind2, ins2, outs2 = verts[v2]
        if kind2 != "split" or ins2 != (m,):
            continue
        loop = None
        for a in set(ins) & set(outs2):
            if arcs[a][1] == v2 and arcs[a][2] == v1:
                loop = a
                break
        if loop is None:
            continue
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


def _exact_table(k: KoszulMF) -> Table:
    """k's exact series: generator degrees times the base's Hilbert series."""
    num, weights = k.base.hilbert_series()
    even, odd = k._generators()
    return even * num, odd * num, weights


def _polynomial_table(p: QLaurent) -> Table:
    return p, QLaurent.zero(), ()


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
            factor = factor - factor.shift(w)
        even, odd = even + t0 * factor, odd + t1 * factor
    return even, odd, tuple(sorted(common.elements()))


def _render_table(t: Table, hi: int, signed: bool = True) -> dict[str, str]:
    """The series expanded through exponent hi, per parity or in total."""
    if signed:
        return {f"z2_{k}": _expand(t[k], t[2], hi).render() for k in (0, 1)}
    return {"total": _expand(t[0] + t[1], t[2], hi).render()}


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


def _split_tree_src(i1: int, i2: int, i3: int, n: int, left: bool) -> str:
    i4 = i1 + i2 + i3
    if left:
        m = i1 + i2
        return (
            f"level n {n}\n"
            f"edge e4 color {i4} from boundary:d to v1\n"
            f"vertex v1 split in e4 out am e3\n"
            f"edge am color {m} from v1 to v2\n"
            f"edge e3 color {i3} from v1 to boundary:a3\n"
            f"vertex v2 split in am out e1 e2\n"
            f"edge e1 color {i1} from v2 to boundary:a1\n"
            f"edge e2 color {i2} from v2 to boundary:a2\n"
        )
    m = i2 + i3
    return (
        f"level n {n}\n"
        f"edge e4 color {i4} from boundary:d to v1\n"
        f"vertex v1 split in e4 out e1 am\n"
        f"edge e1 color {i1} from v1 to boundary:a1\n"
        f"edge am color {m} from v1 to v2\n"
        f"vertex v2 split in am out e2 e3\n"
        f"edge e2 color {i2} from v2 to boundary:a2\n"
        f"edge e3 color {i3} from v2 to boundary:a3\n"
    )


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


def _diagram_table(src: str) -> Table:
    return _exact_table(compile_diagram(parse(src)))


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


def _verify_series_pair(
    relation: str,
    params: tuple[int, ...],
    lhs: Table,
    rhs: Table,
    cutoff: int,
    log: list[dict],
    signed: bool = True,
    structural: Sequence[str] = (),
) -> dict:
    """Compare two exact tables in every degree and render both through
    the cutoff; unsigned comparisons use the total over both parities.
    Structural findings fail the report whatever the tables say."""
    report = {
        "relation": relation,
        "params": list(params),
        "lhs_series": _render_table(lhs, cutoff, signed),
        "rhs_series": _render_table(rhs, cutoff, signed),
        "verdict": None,
        "reduction_log_ref": "inline:reduction_log",
        "reduction_log": log,
    }
    if not signed:
        lhs, rhs = ((t[0] + t[1], QLaurent.zero(), t[2]) for t in (lhs, rhs))
    return _judge(report, lhs, rhs, structural)


def _verify_cor_square(j1: int, j2: int, cutoff: int) -> dict:
    """Closed-form identity: both sides are polynomials."""
    lhs, rhs = cor_square_sides(j1, j2)
    return _verify_series_pair(
        "cor_square", (j1, j2), _polynomial_table(lhs), _polynomial_table(rhs),
        cutoff, [], signed=False,
    )


def _verify_circle(i: int, n: int, cutoff: int) -> dict:
    session = _reduced(_circle_src(i, n))
    return _verify_series_pair(
        "circle_jacobi", (i, n), _polynomial_table(_euler(session.current, cutoff)),
        _polynomial_table(qbinomial(n, i)), cutoff, session.log_dicts(), signed=False,
    )


def _verify_line_contract(i: int, n: int, cutoff: int) -> dict:
    session = _reduced(_glued_pair_src(i, n))
    direct = compile_diagram(parse(_line_src(i, n)))
    got = session.current
    log = session.log_dicts()
    structural: list[str] = []
    if got.row_count != direct.row_count:
        structural.append(
            f"row count {got.row_count} != {direct.row_count}"
        )
    else:
        nf = got.base.normal_form
        for m, (ga, gb) in enumerate(got.rows):  # in any row order
            if all(nf(ga - da) or nf(gb - db) for da, db in direct.rows):
                structural.append(f"row {m} differs after normalization")
    if got.z2_shift % 2 != direct.z2_shift % 2:
        structural.append("parity shift differs")
    if got.global_grading_shift != direct.global_grading_shift:
        structural.append(
            f"grading shift {got.global_grading_shift}"
            f" != {direct.global_grading_shift}"
        )
    if got.base.normal_form(got.potential() - direct.potential()):
        structural.append("potentials differ")
    return _verify_series_pair(
        "line_contract", (i, n), _exact_table(got), _exact_table(direct), cutoff,
        log, structural=structural,
    )


def _verify_bubble(i1: int, i2: int, i3: int, n: int, cutoff: int) -> dict:
    if i1 + i2 != i3:
        raise ValueError("bubble needs thin colors summing to the thick one")
    session = _reduced(_bubble_src(i1, i2, i3, n))
    lhs = _exact_table(session.current)
    line = _diagram_table(_line_src(i3, n))
    # bubble = [i3 i1] * line
    rhs = _weighted_sum([(line, qbinomial(i3, i1))])
    return _verify_series_pair(
        "bubble", (i1, i2, i3, n), lhs, rhs, cutoff, session.log_dicts()
    )


def _verify_counter_bubble(i1: int, i2: int, n: int, cutoff: int) -> dict:
    i3 = i1 + i2
    if i3 > n:
        raise ValueError("loop color pushed past the level")
    session = _reduced(_counter_bubble_src(i1, i2, n))
    lhs = _exact_table(session.current)
    line = _diagram_table(_line_src(i1, n))
    # counter_bubble = [n-i1 i2] * line, translated i2 times
    rhs = _weighted_sum([(_swap(line, i2), qbinomial(n - i1, i2))])
    return _verify_series_pair(
        "counter_bubble", (i1, i2, n), lhs, rhs, cutoff, session.log_dicts()
    )


def _verify_assoc(
    relation: str, i1: int, i2: int, i3: int, n: int, cutoff: int
) -> dict:
    builder = _merge_tree_src if relation == "assoc_merge" else _split_tree_src
    left = _reduced(builder(i1, i2, i3, n, left=True))
    right = _reduced(builder(i1, i2, i3, n, left=False))
    log = left.log_dicts() + right.log_dicts()
    structural: list[str] = []
    lb, rb = left.current.base, right.current.base
    if set(lb.vars) != set(rb.vars):
        structural.append("base variables differ")
    if len(lb.ideal_gens) != len(rb.ideal_gens):
        structural.append("base ideal sizes differ")
    pot = left.current.potential() - right.current.potential()
    if set(lb.vars) == set(rb.vars) and lb.normal_form(pot):
        structural.append("potentials differ")
    lhs = _exact_table(left.current)
    rhs = _exact_table(right.current)
    return _verify_series_pair(
        relation, (i1, i2, i3, n), lhs, rhs, cutoff, log, structural=structural
    )


def _check_ladder_color(j: int, n: int) -> None:
    # j = 1 would need a zero-colored strand inside a comparison diagram,
    # and j = n a rung of color n + 1
    if not 2 <= j <= n - 1:
        raise ValueError("ladder color must lie between 2 and level-1")


def _verify_square_tall(j: int, n: int, cutoff: int) -> dict:
    _check_ladder_color(j, n)
    session = _reduced(_square_tall_src(j, n))
    lhs = _exact_table(session.current)
    join = _reduced(_join_src(j, n))
    # square_j = join + [j-1] * parallel
    rhs = _weighted_sum([
        (_exact_table(join.current), QLaurent.one()),
        (_diagram_table(_parallel_src(j, n)), quantum_integer(j - 1)),
    ])
    log = session.log_dicts() + join.log_dicts()
    return _verify_series_pair("square_j", (j, n), lhs, rhs, cutoff, log)


def _verify_square_wide(j: int, n: int, cutoff: int) -> dict:
    _check_ladder_color(j, n)
    session = _reduced(_square_wide_src(j, n))
    lhs = _exact_table(session.current)
    log = session.log_dicts()
    # square_wide = antiparallel + [n-j-1] * H; the split variant flips the
    # parity of each H copy
    terms = [(_diagram_table(_antiparallel_src(j, n)), QLaurent.one())]
    split = list(terms)
    if n - j > 1:
        h = _reduced(_h_src(j, n))
        log += h.log_dicts()
        ht = _exact_table(h.current)
        copies = quantum_integer(n - j - 1)
        terms.append((ht, copies))
        split.append((_swap(ht, 1), copies))
    rhs_split = _weighted_sum(split)
    # parity bookkeeping for the summands is an open question here, so the
    # verdict rests on total series only; the per-parity comparison is
    # still computed and recorded below
    report = _verify_series_pair(
        "square_wide", (j, n), lhs, _weighted_sum(terms), cutoff, log, signed=False
    )
    if _first_difference(lhs, rhs_split) is None:
        parity = "direct"
    elif _first_difference(lhs, _swap(rhs_split, 1)) is None:
        parity = "flipped"
    else:
        parity = "neither"
    report["parity_note"] = {
        "lhs": _render_table(lhs, cutoff),
        "rhs_flipped_summands": _render_table(rhs_split, cutoff),
        "parity_match": parity,
    }
    return report


# name -> (parameter count, runner); a runner takes the parameters, then the
# cutoff, and returns the report.  The order is the one the CLI lists.
RELATIONS: dict[str, tuple[int, Callable[..., dict]]] = {
    "line_contract": (2, _verify_line_contract),
    "circle_jacobi": (2, _verify_circle),
    "assoc_merge": (4, partial(_verify_assoc, "assoc_merge")),
    "assoc_split": (4, partial(_verify_assoc, "assoc_split")),
    "bubble": (4, _verify_bubble),
    "counter_bubble": (3, _verify_counter_bubble),
    "square_j": (2, _verify_square_tall),
    "square_wide": (2, _verify_square_wide),
    "cor_square": (2, _verify_cor_square),
}

RELATION_NAMES = tuple(RELATIONS)


def verify_relation(
    name: str,
    params: Sequence[int],
    cutoff: int | None = None,
) -> dict:
    """Check one decomposition relation at the given colors and level.

    Diagram sides are built, reduced by the calculus, and compared as exact
    rational graded series, so PASS holds in every degree; ``cor_square`` is
    a closed-form identity and needs no reduction.  The report carries both
    series expanded through the cutoff, a PASS/FAIL verdict, the reduction
    log, and the lowest differing coefficient on failure.  An unknown name,
    a parameter count other than the one ``RELATIONS`` lists, or a negative
    cutoff raises ValueError.
    """
    if name not in RELATIONS:
        raise ValueError(f"unknown relation {name!r}; choose from {RELATION_NAMES}")
    arity, runner = RELATIONS[name]
    params = tuple(int(p) for p in params)
    if len(params) != arity:
        raise ValueError(
            f"relation {name} expects {arity} parameters, got {len(params)}"
        )
    _check_cutoff(cutoff)
    return runner(*params, DEFAULT_CUTOFF if cutoff is None else cutoff)


def oracle_crosscheck(d: Diagram, cutoff: int | None = None) -> dict:
    """Compare the engine pipeline against the combinatorial evaluator.

    The engine side compiles, reduces, expands, and takes the unsigned
    Euler characteristic of the homology; the oracle side never touches a
    matrix.  Closed diagrams only.  The cutoff bounds the top degree of
    the engine's homology, as in ``euler_of_diagram``; a negative cutoff
    raises ValueError.
    """
    engine = euler_of_diagram(d, cutoff=cutoff)
    oracle = moy_bracket(d)
    report = {"engine_euler": engine.render(), "oracle_value": oracle.render()}
    return _judge(report, _polynomial_table(engine), _polynomial_table(oracle))
