"""Independent oracles for the test suite.

Everything here is computed with sympy or bare combinatorics, on purpose
avoiding the package's own algebra, so that agreement between the two is
evidence rather than a tautology.  Tests freeze values produced by these
functions; the package is never consulted to produce an expected value.
The one exception is ``power_sum_substituted``, which evaluates a power sum
by ``Poly.substitute``, a path the package's plans never take.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy

from moymf import Alphabet, Poly, power_sum_F
from moymf.symfun import generic_slots


def qbinom_product(n: int, i: int) -> dict[int, int]:
    """Balanced q-binomial via the product formula, as {exponent: coeff}.

    [n choose i] = prod_{k=1..i} (q^{n-i+k} - q^{-(n-i+k)}) / (q^k - q^{-k})
    """
    if i < 0 or i > n:
        return {}
    q = sympy.symbols("q")
    expr = sympy.Integer(1)
    for k in range(1, i + 1):
        expr *= (q ** (n - i + k) - q ** (-(n - i + k))) / (q**k - q ** (-k))
    # clear the balanced shift so sympy can treat it as an honest polynomial
    shift = i * (n - i)
    poly = sympy.Poly(sympy.expand(sympy.cancel(expr * q**shift)), q)
    out: dict[int, int] = {}
    for (e,), c in poly.terms():
        out[e - shift] = int(c)
    return out


def qbinom_pascal_rows(n_max: int):
    """Balanced q-binomials by Pascal's rule, as {exponent: coeff}: yields
    row m = [[m 0], ..., [m m]] for m = 0..n_max, each built from the row
    before by [m j] = q^(j-m) [m-1 j-1] + q^j [m-1 j]."""
    row = [{0: 1}]
    yield row
    for m in range(1, n_max + 1):
        nxt = []
        for j in range(m + 1):
            out: dict[int, int] = {}
            if j >= 1:
                for e, c in row[j - 1].items():
                    out[e + j - m] = out.get(e + j - m, 0) + c
            if j < m:
                for e, c in row[j].items():
                    out[e + j] = out.get(e + j, 0) + c
            nxt.append({e: c for e, c in out.items() if c})
        row = nxt
        yield row


def partitions_in_box(j: int, rows: int, cols: int) -> int:
    """Count partitions of j with at most `rows` parts, each at most `cols`."""
    if j < 0:
        return 0
    count = 0
    for parts in itertools.product(range(cols + 1), repeat=rows):
        if sum(parts) == j and all(a >= b for a, b in zip(parts, parts[1:])):
            count += 1
    return count


def weighted_monomials(weights: list[int], d: int) -> list[tuple[int, ...]]:
    """Exponent vectors with sum(e_k * weights[k]) == d, in a fixed order."""
    if not weights:
        return [()] if d == 0 else []
    out = []
    w = weights[0]
    for e in range(d // w + 1):
        for rest in weighted_monomials(weights[1:], d - e * w):
            out.append((e,) + rest)
    return out


def weighted_quotient_dims(
    weights: list[int],
    gens: list[sympy.Expr],
    syms: list[sympy.Symbol],
    cutoff: int,
) -> dict[int, int]:
    """Graded dimensions of Q[x]/<gens> by brute monomial linear algebra.

    weights[k] is the grading of syms[k]; each generator must be
    homogeneous for those weights.  For each total degree d <= cutoff, the
    span of {m * g} with m a monomial is row-reduced over the full
    monomial basis of degree d and the dimension is basis minus rank.
    """
    gen_polys = [sympy.Poly(sympy.expand(g), *syms) for g in gens]
    gen_degrees = []
    for gp in gen_polys:
        degs = {sum(e * w for e, w in zip(mono, weights)) for mono in gp.monoms()}
        if len(degs) != 1:
            raise ValueError(f"generator not weighted-homogeneous: {gp}")
        gen_degrees.append(degs.pop())
    dims: dict[int, int] = {}
    for d in range(cutoff + 1):
        basis = weighted_monomials(weights, d)
        if not basis:
            dims[d] = 0
            continue
        index = {mono: k for k, mono in enumerate(basis)}
        rows = []
        for gp, gd in zip(gen_polys, gen_degrees):
            for m in weighted_monomials(weights, d - gd):
                row = [0] * len(basis)
                for mono, coeff in gp.terms():
                    together = tuple(a + b for a, b in zip(mono, m))
                    row[index[together]] = coeff
                rows.append(row)
        rank = sympy.Matrix(rows).rank() if rows else 0
        dims[d] = len(basis) - rank
    return dims


def elementary_symmetric(roots: list[Fraction]) -> list[Fraction]:
    """[e_1, ..., e_r] of the given root multiset."""
    out = []
    for j in range(1, len(roots) + 1):
        total = Fraction(0)
        for combo in itertools.combinations(roots, j):
            term = Fraction(1)
            for x in combo:
                term *= x
            total += term
        out.append(total)
    return out


def power_sum(roots: list[Fraction], k: int) -> Fraction:
    """p_k of the given root multiset."""
    return sum((Fraction(x) ** k for x in roots), Fraction(0))


def power_sum_substituted(a: Alphabet, n: int) -> Poly:
    """power_sum_F(i, n) with each slot xj replaced by the alphabet's jth
    variable, by simultaneous substitution."""
    sigma = {s: a.poly(j) for j, s in enumerate(generic_slots(a.color), 1)}
    return power_sum_F(a.color, n).substitute(sigma)


def eval_laurent(coeffs: dict[int, int], q: Fraction) -> Fraction:
    """Evaluate a {exponent: coefficient} Laurent polynomial at q."""
    return sum((Fraction(c) * q**e for e, c in coeffs.items()), Fraction(0))


def binomial(n: int, k: int) -> int:
    import math

    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def koszul_homology_dims(
    weights: list[int],
    syms: list[sympy.Symbol],
    gens: list[sympy.Expr],
    rows: list[tuple[sympy.Expr, sympy.Expr]],
    potential_degree: int,
    cutoff: int,
) -> dict[tuple[int, int], int]:
    """Homology dimensions {(degree, parity): dim} of the Koszul factorization
    with the given rows over Q[syms]/<gens>, by sympy ranks, in the degrees
    from the lowest generator degree through cutoff.

    The complex is built from scratch: generators are the subsets S of the
    rows, of parity |S| mod 2 and degree sum over S of (deg b - deg a)/2,
    and d(e_S) = sum_m (-1)^{#(S below m)} (b_m e_{S-m} if m in S else
    a_m e_{S+m}).  Nothing is reduced to normal form: the rank of d between
    quotients in one degree is rank(images of all monomials + target ideal)
    minus rank(target ideal), over the full monomial basis.
    """

    def terms(expr) -> dict[tuple[int, ...], sympy.Rational]:
        expr = sympy.expand(expr)
        if expr == 0:
            return {}
        return dict(sympy.Poly(expr, *syms).terms())

    def degree(t: dict) -> int:
        degs = {sum(e * w for e, w in zip(mono, weights)) for mono in t}
        if len(degs) != 1:
            raise ValueError("row entry not weighted-homogeneous")
        return degs.pop()

    def times(mono, t: dict) -> dict:
        return {tuple(a + b for a, b in zip(mono, m)): c for m, c in t.items()}

    def rank(vectors: list[dict]) -> int:
        index: dict = {}
        for v in vectors:
            for key in v:
                index.setdefault(key, len(index))
        if not vectors or not index:
            return 0
        mat = sympy.zeros(len(vectors), len(index))
        for i, v in enumerate(vectors):
            for key, c in v.items():
                mat[i, index[key]] = c
        return mat.rank()

    gen_terms = [(terms(g), degree(terms(g))) for g in gens]
    row_terms = [(terms(a), terms(b)) for a, b in rows]
    shifts = []
    for ta, tb in row_terms:
        da = degree(ta) if ta else potential_degree - degree(tb)
        shifts.append((potential_degree - 2 * da) // 2)
    subsets = [
        frozenset(c)
        for k in range(len(rows) + 1)
        for c in itertools.combinations(range(len(rows)), k)
    ]
    shift = {s: sum(shifts[m] for m in s) for s in subsets}
    delta = potential_degree // 2

    def ideal(s: frozenset, e: int) -> list[dict]:
        return [
            {(s, m): c for m, c in times(mono, gt).items()}
            for gt, gd in gen_terms
            for mono in weighted_monomials(weights, e - gd)
        ]

    def quotient_dim(e: int) -> int:
        return len(weighted_monomials(weights, e)) - rank(ideal(frozenset(), e))

    def image(s: frozenset, mono) -> dict:
        vec: dict = {}
        for m, (ta, tb) in enumerate(row_terms):
            sign = -1 if sum(1 for j in s if j < m) % 2 else 1
            target, side = (s - {m}, tb) if m in s else (s | {m}, ta)
            for mm, c in times(mono, side).items():
                vec[(target, mm)] = vec.get((target, mm), 0) + sign * c
        return {k: c for k, c in vec.items() if c}

    def map_rank(k: int, d: int) -> int:
        src = [s for s in subsets if len(s) % 2 == k]
        dst = [s for s in subsets if len(s) % 2 != k]
        images = [
            image(s, mono)
            for s in src
            for mono in weighted_monomials(weights, d - shift[s])
        ]
        target = [v for t in dst for v in ideal(t, d + delta - shift[t])]
        return rank(images + target) - rank(target)

    table: dict[tuple[int, int], int] = {}
    for d in range(min(shift.values()), cutoff + 1):
        for k in (0, 1):
            dim = sum(quotient_dim(d - shift[s]) for s in subsets if len(s) % 2 == k)
            if not dim:
                continue
            h = dim - map_rank(k, d) - map_rank(1 - k, d - delta)
            if h:
                table[(d, k)] = h
    return table
