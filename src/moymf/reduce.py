"""Reduction calculus for Koszul row presentations.

Every operation here consumes and produces ``KoszulMF`` values and preserves
the potential exactly; the ``ReductionSession`` wrapper re-checks that after
each step and keeps an ordered log of (operation, parameters, check result).

The workhorse is variable exclusion: a row whose second entry is
c*y^e + p, with y internal, c a nonzero rational, and no monomial of p
divisible by y^e, can be dropped at the price of passing to the quotient by
that entry.  Two sound cases are distinguished:

* e = 1: a genuine change of variables; y is substituted away everywhere
  (rows, ideal generators) and leaves the ring.
* e >= 2: the entry joins the base ideal.  This is valid only while y is
  untouched by the existing ideal generators; once y is constrained, a
  further power of y is no longer a free monomial and the splitting argument
  behind the exclusion breaks, so the gate refuses (ConditionUnmet).

Excluding variables one after another is one composed change of
variables, so a session takes each maximal run of e = 1 exclusions as one
step, which moves every row once and is potential-checked once.

Rows with one zero side appear in closed diagrams, and in open ones once
a row op clears one side of a row.  They are not exclusions but
absorptions: (0; b) contributes the quotient by b on the spot, and (a; 0)
is absorbed as (0; a) after a transposition.  A session gates all its
zero-sided rows as one sequence and, when the gate verifies it regular
over the current base, absorbs them in one ``absorb`` step; otherwise it
takes the first row alone, through the same gate.  Every absorbed entry
is gated (a quotient exclusion's entry is regular by its form: monic in a
variable no generator holds), and every presentation the session adopts
is potential-checked by a sum over its rows.  Each is compared against the
row sum of the presentation before it, except the first from a compiled
diagram, whose rows were never summed: it is compared against the
diagram's boundary potential, which ``compile_diagram`` attaches and the
compiled rows sum to by telescoping.

When exclusion and absorption both stall, ``ReductionSession.reduce_fully``
clears internal variables from rows by row ops and transpositions
(Khovanov-Rozansky 2008, section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .poly_core import (
    CutoffExceeded,
    DegreeMismatch,
    GradedVar,
    Poly,
    QuotientRing,
    _by_monomial,
    _coeff,
    _from_clean,
    _inverse,
    _lead_quotient,
    _outside,
    _part,
    _pure_terms,
    _substitution,
    _unit,
)
from .mf_core import KoszulMF
from .symfun import Alphabet, ColorMismatch

__all__ = [
    "ZeroScalar",
    "PotentialMismatch",
    "RegularityUnverified",
    "ConditionUnmet",
    "scalar_twist",
    "row_op",
    "transpose_row",
    "replace_second_sequence",
    "replace_first_sequence",
    "exclude_variable",
    "exclusion_candidate",
    "absorb_zero_row",
    "glue",
    "regularity_heuristic",
    "LogEntry",
    "ReductionSession",
]


class ZeroScalar(ValueError):
    """Scalar twist by zero."""


class PotentialMismatch(ValueError):
    """A replacement column does not reproduce the potential."""


class RegularityUnverified(RuntimeError):
    """The regularity gate, the exact Hilbert-series comparison of
    ``regularity_heuristic``, did not verify a sequence, and no override
    was given: the sequence is not regular, or a Gröbner basis did not
    complete within the packed limit of 255."""


class ConditionUnmet(ValueError):
    """An exclusion or absorption precondition failed; message says which."""


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def scalar_twist(k: KoszulMF, row: int, c: int | Fraction) -> KoszulMF:
    """Row becomes (c*a; b/c); the product, hence the potential, is fixed."""
    if not c:
        raise ZeroScalar("scalar twist requires a nonzero rational")
    a, b = k.rows[row]
    rows = list(k.rows)
    rows[row] = (a * c, b * _inverse(c))
    return k.with_rows(rows)


def row_op(k: KoszulMF, i: int, j: int, lam: Poly, kind: str) -> KoszulMF:
    """Potential-preserving elementary transformation on rows i and j.

    kind="first_col":  a_j += lam*a_i and b_i -= lam*b_j
                       (deg lam = deg a_j - deg a_i).
    kind="second_col": a_i -= lam*b_j and a_j += lam*b_i
                       (deg lam = deg a_i - deg b_j).
    """
    if i == j:
        raise ValueError("row_op needs two distinct rows")
    if lam and not lam.is_homogeneous():
        raise DegreeMismatch("lambda must be homogeneous")
    ai, bi = k.rows[i]
    aj, bj = k.rows[j]
    dai, dbi = k.row_degrees(i)
    daj, dbj = k.row_degrees(j)
    rows = list(k.rows)
    if kind == "first_col":
        if lam and lam.homogeneous_degree() != daj - dai:
            raise DegreeMismatch(
                f"first_col lambda degree {lam.homogeneous_degree()}, "
                f"need {daj - dai}"
            )
        rows[i] = (ai, bi - lam * bj)
        rows[j] = (aj + lam * ai, bj)
    elif kind == "second_col":
        if lam and lam.homogeneous_degree() != dai - dbj:
            raise DegreeMismatch(
                f"second_col lambda degree {lam.homogeneous_degree()}, "
                f"need {dai - dbj}"
            )
        rows[i] = (ai - lam * bj, bi)
        rows[j] = (aj + lam * bi, bj)
    else:
        raise ValueError(f"unknown row_op kind: {kind!r}")
    return k.with_rows(rows)


def transpose_row(k: KoszulMF, row: int) -> KoszulMF:
    """Swap the two entries of one row.

    A rank-1 factor (a; b) agrees with (b; a) after a parity flip and a
    grading shift by (deg b - deg a)/2, so the swap is compensated globally;
    the underlying graded module and the potential are both unchanged.
    """
    a, b = k.rows[row]
    rows = list(k.rows)
    rows[row] = (b, a)
    return k.regraded(k.row_shift(row), 1, rows)


def regularity_heuristic(base: QuotientRing, seq: Sequence[Poly]) -> str:
    """"verified" iff seq is a regular sequence in base, in all degrees.

    Homogeneous f_i of degrees d_i > 0 are regular exactly when the quotient
    by them has prod_i (1 - q^d_i) times the Hilbert series of base
    (Bruns-Herzog, *Cohen-Macaulay Rings*, 4.1); both share one
    denominator, so their numerators decide.  "unverified" for an entry
    zero in base, or a basis refused at the packed limit.  The basis of
    the quotient continues that of base (``QuotientRing.with_generators``):
    an entry whose lead shares no variable with any lead queues no S-pair
    (Buchberger's first criterion) and carries the numerator across, so
    its check costs no Buchberger run and no numerator recursion."""
    return _gate(base, seq)[0]


def _gate(base: QuotientRing, seq: Sequence[Poly]) -> tuple[str, QuotientRing]:
    """The ``regularity_heuristic`` verdict and the ring base + (seq) it
    decides on, from ``base.with_generators(seq)``.  The numerator of base
    is asked before that ring is built, so that its basis carries it."""
    try:
        regular = all(base.normal_form(p) for p in seq)
        if regular:
            predicted, _ = base.hilbert_series()
    except CutoffExceeded:
        regular = False
    joined = base.with_generators(seq)
    if regular:
        for p in seq:
            predicted = predicted._times_one_minus(p.homogeneous_degree())
        try:
            regular = joined.hilbert_series()[0] == predicted
        except CutoffExceeded:
            regular = False
    return ("verified" if regular else "unverified"), joined


def _replace_column(
    k: KoszulMF,
    col: str,
    target: Sequence[Poly],
    rows: Sequence[int] | None,
    force: bool,
) -> tuple[KoszulMF, str]:
    idx = list(range(k.row_count)) if rows is None else list(rows)
    if len(target) != len(idx):
        raise ValueError("replacement column length must match the row subset")
    for m, p in zip(idx, target):
        da, db = k.row_degrees(m)
        want = db if col == "b" else da
        if p and (not p.is_homogeneous() or p.homogeneous_degree() != want):
            raise DegreeMismatch(f"replacement entry for row {m} must have degree {want}")
    new_rows = list(k.rows)
    for m, p in zip(idx, target):
        a, b = new_rows[m]
        new_rows[m] = (a, p) if col == "b" else (p, b)
    new = k.with_rows(new_rows)
    if new.potential() != k.potential():
        raise PotentialMismatch(f"target {col}-column changes the potential")
    fixed = [
        (k.rows[m][0] if col == "b" else k.rows[m][1]) for m in idx
    ]
    verdict = regularity_heuristic(k.base, fixed)
    if verdict != "verified" and not force:
        raise RegularityUnverified(
            f"the fixed column on rows {idx} is not verified regular; "
            "pass force to proceed"
        )
    return new, verdict


def replace_second_sequence(
    k: KoszulMF,
    target_b: Sequence[Poly],
    force: bool = False,
    rows: Sequence[int] | None = None,
) -> tuple[KoszulMF, str]:
    """Swap the b-column (on all rows, or a subset), keeping the a-column
    and the potential.  Sound when the kept a-entries form a regular
    sequence; the heuristic must say "verified" unless force is set.
    Returns (result, regularity verdict)."""
    return _replace_column(k, "b", target_b, rows, force)


def replace_first_sequence(
    k: KoszulMF,
    target_a: Sequence[Poly],
    force: bool = False,
    rows: Sequence[int] | None = None,
) -> tuple[KoszulMF, str]:
    """Mirror image of replace_second_sequence: swap a-entries when the
    kept b-entries are verified regular."""
    return _replace_column(k, "a", target_a, rows, force)


# ---------------------------------------------------------------------------
# Variable exclusion
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Candidate:
    var: GradedVar
    power: int
    coeff: int | Fraction


def exclusion_candidate(
    k: KoszulMF, row: int, external: frozenset[GradedVar]
) -> _Candidate | None:
    """Best admissible (variable, power) for excluding this row, or None."""
    return _candidate(k.rows[row][1], external, _generator_vars(k.base))


def _generator_vars(base: QuotientRing) -> frozenset[GradedVar]:
    """The variables of the base's ideal generators."""
    return frozenset(v for g in base.ideal_gens for v in g.variables())


def _candidate(
    b: Poly, external: frozenset[GradedVar], gen_vars: frozenset[GradedVar]
) -> _Candidate | None:
    """``exclusion_candidate`` for b, a homogeneous row's second entry: each
    pure term c*y^e of b holds y's top power, which divides no other term."""
    best = None
    for y, e, c in _pure_terms(b):
        # for e > 1 a constrained y^e is no longer a free monomial; prefer
        # substitutions, then the lexicographically smallest variable
        if y not in external and (e == 1 or y not in gen_vars):
            if best is None or (e > 1, y.name) < (best.power > 1, best.var.name):
                best = _Candidate(y, e, c)
    return best


def _substituted_ring(
    base: QuotientRing, sub: Callable[[Poly], Poly], keep: tuple[GradedVar, ...]
) -> QuotientRing:
    gens = map(sub, base.ideal_gens)
    return QuotientRing(keep, tuple(g for g in gens if g))


def _rebased_rows(
    kept: Iterable[tuple[Poly, Poly]],
    new_base: QuotientRing,
    sub: Callable[[Poly], Poly] | None,
    context: str,
) -> tuple[tuple[Poly, Poly], ...]:
    """The rows kept, each moved by ``sub`` (a ``_substitution``, built
    once per step) when given and reduced in ``new_base``; a row whose
    entries both come back as themselves stays the same row.  A row that
    collapses to (0; 0) has no degrees: ConditionUnmet, with ``context``
    naming the step."""
    rows = []
    for row in kept:
        a, b = row
        if sub:
            a, b = sub(a), sub(b)
        a, b = new_base.normal_form(a), new_base.normal_form(b)
        if not a and not b:
            raise ConditionUnmet(f"row collapsed to (0; 0) {context}")
        rows.append(row if a is row[0] and b is row[1] else (a, b))
    return tuple(rows)


def exclude_variable(
    k: KoszulMF, row: int, external: Iterable[GradedVar] = ()
) -> KoszulMF:
    """Drop a row by quotienting the base by its second entry.

    Preconditions (ConditionUnmet otherwise): the potential only involves
    external variables; the entry decomposes as c*y^e + p with y internal,
    no monomial of p divisible by y^e, and (for e >= 2) y absent from the
    current ideal generators.
    """
    external = frozenset(external)
    return _excluded(k, row, external, exclusion_candidate(k, row, external), False)[0]


def _pick(
    rows: Sequence[tuple], external: frozenset[GradedVar], gen_vars: frozenset[GradedVar]
) -> tuple[int, _Candidate] | None:
    """The row greedy exclusion takes next and its candidate: the first
    substitution, else the first quotient exclusion."""
    best = None
    for m, (_, b) in enumerate(rows):
        cand = _candidate(b, external, gen_vars)
        if cand and (best is None or (cand.power == 1 and best[1].power > 1)):
            best = (m, cand)
            if cand.power == 1:  # no later row comes first
                break
    return best


def _excluded(
    k: KoszulMF, row: int, external: frozenset[GradedVar], cand: _Candidate | None, run: bool
) -> tuple[KoszulMF, list[tuple[int, _Candidate]]]:
    """exclude_variable with the row's candidate already chosen, and with
    run each substitution greedy exclusion takes next: the result and each
    step's (row index then, candidate).  The picks read the b-entries
    alone, in normal form in each ring the run passes, until a quotient
    exclusion or a potential with an internal variable comes next.  The
    substitutions, composed, then move every row once; each maps the old
    ideal into the new, so the normal forms are those of single steps.
    The precondition reads k's potential as ``KoszulMF._known_potential``
    gives it, so a compiled presentation multiplies no row for it."""
    pot = k._known_potential()
    bad = [v.name for v in pot.variables() if v not in external]
    if bad:
        raise ConditionUnmet(
            f"potential involves internal variable(s) {', '.join(sorted(bad))}"
        )
    if cand is None:
        raise ConditionUnmet(
            f"row {row}: no admissible pure power of an internal variable "
            f"in {k.rows[row][1].render()}"
        )
    base, rows, taken, tau = k.base, list(k.rows), [], {}
    while cand.power == 1:
        y, c, b = cand.var, cand.coeff, rows.pop(row)[1]
        taken.append((row, cand))
        s, u = -_inverse(c), _unit(y)  # b = c*y + rest, and y = s * rest modulo b
        img = _from_clean({m: _coeff(d * s) for m, d in b._terms.items() if m != u})
        sub = _substitution({y: img})
        base = _substituted_ring(base, sub, tuple(v for v in base.vars if v != y))
        tau = {v: sub(p) for v, p in tau.items()} | {y: img}
        if not run:
            break
        for m, r in enumerate(rows):
            if (nb := base.normal_form(sub(r[1]))) is not r[1]:
                rows[m] = (r[0], nb)  # a moves once, after the run
        gen_vars = _generator_vars(base)
        best = _pick(rows, external, gen_vars)
        if not best or best[1].power > 1:
            break
        if base.ideal_gens and not (pot := base.normal_form(pot)).variables() <= external:
            break  # the next exclusion refuses this potential
        row, cand = best
    if not taken:
        taken, sub = [(row, cand)], None
        base = base.with_generators((rows.pop(row)[1] * _inverse(cand.coeff),))
    elif len(taken) > 1:
        sub = _substitution(tau)
    names = ", ".join(c.var.name for _, c in taken)
    context = f"after excluding {names}; the remaining data is not a regular presentation"
    return k.with_rows(_rebased_rows(rows, base, sub, context), base), taken


def absorb_zero_row(k: KoszulMF, row: int, force: bool = False) -> KoszulMF:
    """Collapse one zero-sided row to the quotient by its other entry.

    A row (0; b) contributes nothing to the potential; when b is regular
    over the current base, the factor it spans is homotopy equivalent to
    the quotient module, so the row can be absorbed into the base ring
    with no change of parity or grading.  A row (a; 0) is absorbed as
    (0; a) after ``transpose_row``, which flips the parity and shifts the
    grading by potential_degree/2 - deg a.  The entry joins the base as
    the row holds it; the Groebner basis makes its own elements monic.
    """
    new = _absorbed(k, [row], force)[0]
    if new is None:
        raise RegularityUnverified(
            f"rows [{row}]: entries not verified as a regular sequence; "
            "pass force to absorb anyway"
        )
    return new


def _absorbed(
    k: KoszulMF, rows: Sequence[int], force: bool
) -> tuple[KoszulMF | None, str, tuple[Poly, ...]]:
    """The zero-sided ``rows`` absorbed at once, the gate's verdict on
    their entries and the generators joined, as the new base holds them.
    When the gate does not verify them and force is not given, no
    presentation is built and the first item is None.

    The entries, as the rows hold them, are gated as one sequence in the
    order given; a regular sequence gives the quotient that absorbing them
    one at a time gives.  Each (a; 0) row contributes its row shift and one
    parity flip, as ``transpose_row`` would, to a single ``regraded``
    instance over the gate's ring; the other rows are rebased once."""
    gens, shift, flips = [], 0, 0
    for m in rows:
        a, b = k.rows[m]
        if a and b:
            raise ConditionUnmet(f"row {m} has no zero side")
        if a:
            shift, flips, b = shift + k.row_shift(m), flips + 1, a
        gens.append(b)
    verdict, new_base = _gate(k.base, gens)
    if verdict != "verified" and not force:
        return None, verdict, tuple(gens)
    rest = (r for m, r in enumerate(k.rows) if m not in rows)
    kept = _rebased_rows(rest, new_base, None, f"while absorbing rows {list(rows)}")
    return k.regraded(shift, flips, kept, new_base), verdict, tuple(gens)


# ---------------------------------------------------------------------------
# Gluing
# ---------------------------------------------------------------------------


def glue(
    x: KoszulMF, y: KoszulMF, pairs: Sequence[tuple[Alphabet, Alphabet]]
) -> KoszulMF:
    """Identify alphabet pairs (keep, replace) across the join of x and y.

    y may be x itself for self-gluing.  An empty pair list is the plain
    disjoint union (tensor product).
    """
    joined = x if y is x else x.join(y)
    sigma: dict[GradedVar, Poly] = {}
    for keep, repl in pairs:
        if keep.color != repl.color:
            raise ColorMismatch(
                f"glue pairs need equal colors: {keep.color} vs {repl.color}"
            )
        for j in range(1, keep.color + 1):
            sigma[repl.var(j)] = keep.poly(j)
    if not sigma:
        return joined
    for v in sigma:
        if v not in joined.base.vars:
            raise ValueError(f"glued variable {v.name} is not in the base ring")
    # any kept variable the join lacks goes last, so each side keeps its order
    kept_vars = tuple(v for v in joined.base.vars if v not in sigma)
    kept_vars += tuple(
        dict.fromkeys(v for keep, _ in pairs for v in keep.vars if v not in kept_vars)
    )
    sub = _substitution(sigma)
    new_base = _substituted_ring(joined.base, sub, kept_vars)
    rows = _rebased_rows(joined.rows, new_base, sub, "while gluing")
    return joined.with_rows(rows, new_base)


# ---------------------------------------------------------------------------
# Sessions: ordered, potential-checked, logged reductions
# ---------------------------------------------------------------------------


def _clearing(target: Poly, b: Poly, part: Poly, groups: list | None, mask: int) -> Poly | None:
    """lambda clearing target, the part of a row side in the fields of
    mask, against a b-entry b whose part there is part.  Lead quotient:
    target = q*part for a term q free of the fields, and lambda = q.
    Monomial group, when b is free of the fields and target's b-side
    ``groups`` are given: the first group m*c with c = s*b (m a monomial
    in the fields, s rational), and lambda = s*m."""
    if part:
        q = len(target) == len(part) and _lead_quotient(target, part)
        return q if q and not _part(q, mask) and target == q * part else None
    for m, c in groups or ():
        q = len(c) == len(b) and _lead_quotient(c, b)
        if q and not q.variables() and c == q * b:
            return q * m
    return None


def _rendering(params: dict, key: str) -> Callable[[], dict]:
    """Step params whose entry at key, a Poly or a sequence of them, is
    rendered when the log entry is first read."""
    v = params[key]
    return lambda: {**params, key: v.render() if isinstance(v, Poly) else [p.render() for p in v]}


class LogEntry:
    """One session step.  ``params`` may be given as a function of no
    arguments, run on the first read of ``params`` or ``as_dict()``; a
    session defers its renders that way, so a dropped log renders nothing."""

    __slots__ = ("op", "_params", "potential_check")

    def __init__(self, op: str, params: dict | Callable[[], dict], potential_check: str):
        self.op, self._params, self.potential_check = op, params, potential_check

    @property
    def params(self) -> dict:
        if callable(self._params):
            self._params = self._params()
        return self._params

    def as_dict(self) -> dict:
        return {"op": self.op, "params": self.params, "potential_check": self.potential_check}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LogEntry) and self.as_dict() == other.as_dict()

    def __repr__(self) -> str:
        return f"LogEntry({self.op!r}, {self.params!r}, {self.potential_check!r})"


@dataclass
class ReductionSession:
    """Mutable working copy plus the reduction log.

    ``external`` lists the boundary variables exclusion must preserve;
    with ``force``, a step whose entries the regularity gate does not
    verify is taken anyway, and its log entry says "unverified".  Without
    it, such a step raises, except an absorption: its row stays and the
    log gets a ``skip`` entry.  ``log`` starts empty.

    Steps read the potential of ``current`` as ``KoszulMF._known_potential``
    gives it: the row sum the step before took, or, before any step on a
    compiled presentation, the boundary potential ``compile_diagram``
    attached.
    """

    current: KoszulMF
    external: frozenset[GradedVar] = frozenset()
    force: bool = False
    log: list[LogEntry] = field(default_factory=list, init=False)

    def _step(self, op: str, params: dict | Callable[[], dict], new: KoszulMF) -> None:
        """Adopt new once its row sum equals the potential of current (see
        the class docstring); only the new potential is summed here."""
        old_pot = self.current._known_potential()
        if new.base.normal_form(new.potential() - old_pot):
            raise PotentialMismatch(f"{op} changed the potential")
        self.log.append(LogEntry(op, params, "ok"))
        self.current = new

    def scalar_twist(self, row: int, c: int | Fraction) -> None:
        self._step("scalar_twist", {"row": row, "c": str(c)}, scalar_twist(self.current, row, c))

    def row_op(self, i: int, j: int, lam: Poly, kind: str) -> None:
        params = _rendering({"i": i, "j": j, "lambda": lam, "kind": kind}, "lambda")
        self._step("row_op", params, row_op(self.current, i, j, lam, kind))

    def transpose_row(self, row: int) -> None:
        self._step(
            "transpose_row",
            {"row": row, "shift": self.current.row_shift(row)},
            transpose_row(self.current, row),
        )

    def replace_second_sequence(
        self, target_b: Sequence[Poly], rows: Sequence[int] | None = None
    ) -> None:
        self._replace("replace_second_sequence", "b", target_b, rows)

    def replace_first_sequence(
        self, target_a: Sequence[Poly], rows: Sequence[int] | None = None
    ) -> None:
        self._replace("replace_first_sequence", "a", target_a, rows)

    def _replace(
        self, op: str, col: str, target: Sequence[Poly], rows: Sequence[int] | None
    ) -> None:
        new, verdict = _replace_column(self.current, col, target, rows, self.force)
        params = {"targets": list(target), "rows": rows, "regularity": verdict}
        self._step(op, _rendering(params, "targets"), new)

    def exclude_variable(self, row: int) -> None:
        self._exclude(row, exclusion_candidate(self.current, row, self.external))

    def _exclude(self, row: int, cand: _Candidate | None, run: bool = False) -> int:
        new, taken = _excluded(self.current, row, self.external, cand, run)
        params = {
            "rows": [m for m, _ in taken],
            "variables": [c.var.name for _, c in taken],
            "powers": [c.power for _, c in taken],
        }
        self._step("exclude_variable", params, new)
        return len(taken)

    def exclude_all(self) -> int:
        """Greedy exclusion: substitutions first, then quotient exclusions,
        ties by row index, each maximal run of substitutions one step.
        Returns the number of rows removed."""
        removed = 0
        while best := _pick(self.current.rows, self.external, _generator_vars(self.current.base)):
            removed += self._exclude(*best, run=True)
        return removed

    def absorb_zero_rows(self) -> int:
        """Absorb every zero-sided row whose entry passes the regularity
        gate; returns the number of rows absorbed.

        The zero-sided rows not yet skipped are gated as one sequence, in
        row order; when it is verified, one ``absorb`` step takes them all.
        Otherwise, or when there is one such row, the first is absorbed
        alone, forced when the session is: a sequence is never forced.  A
        row the gate refuses stays where it is, and the session logs a
        ``skip`` entry, potential check "unchanged", with the params its
        ``absorb`` would have had."""
        absorbed = 0
        skipped: set[int] = set()
        while True:
            k = self.current
            rows = [m for m, (a, b) in enumerate(k.rows) if (not a or not b) and m not in skipped]
            if not rows:
                return absorbed
            new = None
            if len(rows) > 1:
                new, verdict, gens = _absorbed(k, rows, False)
            if new is None:
                rows = rows[:1]
                new, verdict, gens = _absorbed(k, rows, self.force)
            sides = ["a" if k.rows[m][0] else "b" for m in rows]
            params = _rendering(
                {"rows": rows, "sides": sides, "generators": gens, "regularity": verdict},
                "generators",
            )
            if new is None:
                self.log.append(LogEntry("skip", params, "unchanged"))
                skipped.add(rows[0])
                continue
            self._step("absorb", params, new)
            absorbed += len(rows)
            skipped = set()

    def reduce_fully(self) -> KoszulMF:
        """Exclusions to a fixed point, then regular zero-sided absorptions,
        then, if no row was absorbed, one clearing step, until none
        applies.  Exclusions and absorptions over an unchanged
        presentation would find nothing new, so a refused row is gated
        again only after a step.  Exclusion and absorption drop a row, a
        clearing row op lowers a well-founded measure and a clearing
        transpose is followed by an exclusion, so the loop ends."""
        while True:
            self.exclude_all()
            if self.absorb_zero_rows() == 0 and not self._clear_internal():
                return self.current

    def _clear_internal(self) -> bool:
        """The first row op, in row order, that lowers (row sides holding an
        internal variable, internal terms) and clears b_i, then a_i, against
        a b_j as ``_clearing`` says; else a transpose of a row whose a-entry
        has a pure power exclusion admits.  False when neither applies."""
        k, mask = self.current, _outside(self.external)

        def weight(parts: Sequence[Poly]) -> tuple[int, int]:
            return sum(map(bool, parts)), sum(map(len, parts))

        # each row's part per side in the fields of mask, and b's by monomial
        sides = [tuple(_part(p, mask) for p in row) for row in k.rows]
        parts = [(s, _by_monomial(s[1], mask)) for s in sides]
        if not any(any(sides) for sides, _ in parts):
            return False  # no row holds an internal variable
        for i, (sides, groups) in enumerate(parts):
            for t, kind in ((1, "first_col"), (0, "second_col")):  # b_i, a_i -= lam*b_j
                for j, row in enumerate(k.rows):
                    lam = sides[t] and j != i and _clearing(
                        sides[t], row[1], parts[j][0][1], groups if t else None, mask
                    )
                    if lam:
                        new = row_op(k, i, j, lam, kind)
                        after = [_part(p, mask) for m in (i, j) for p in new.rows[m]]
                        if weight(after) < weight(sides + parts[j][0]):
                            params = {"i": i, "j": j, "lambda": lam, "kind": kind}
                            self._step("row_op", _rendering(params, "lambda"), new)
                            return True
        if not k._known_potential().variables() <= self.external:
            return False  # exclusion would refuse the transposed row
        gen_vars = _generator_vars(k.base)
        for m, row in enumerate(k.rows):
            if any(parts[m][0]) and all(row) and _candidate(row[0], self.external, gen_vars):
                self.transpose_row(m)
                return True
        return False

    def log_dicts(self) -> list[dict]:
        return [e.as_dict() for e in self.log]
