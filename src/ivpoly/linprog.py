"""Exact linear programming over the rationals.

Two independent engines:

* a two-phase simplex with Bland's rule on a sparse tableau of primitive
  integer rows (each a dict from column to nonzero ``int``, no floating
  point), maximizing c.x subject to A x = b, x >= 0;
* Fourier-Motzkin elimination for feasibility of A x = b, x >= 0, used
  as a cross-check oracle on the simplex verdicts.  It removes the
  equalities by Gaussian substitution on primitive integer rows, then
  eliminates on sparse primitive integer rows: sorted ``(variable,
  coefficient)`` pairs and a constant, over variables that are all >= 0;
  the signs are never stored as rows.  Each elimination round first
  sweeps out every variable that has one sign in all rows; a round that
  eliminates a variable with one positive row also eliminates every other
  such variable on rows disjoint from those already claimed.  The two
  engines share no helper but ``_sparse``; each has its own integer row
  arithmetic.

Both take each row of A as a mapping from column to entry, zeros left out,
and the column count n.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

#: a row of A, or a linear form: column -> entry, zeros left out
InputRow = Mapping[int, Fraction]
#: a row of A as column -> nonzero Fraction
SparseRow = dict[int, Fraction]
#: a tableau row: column -> nonzero int, the right-hand side under _RHS, primitive
TableauRow = dict[int, int]
#: reserved key of the right-hand side; original columns are 0..n-1
_RHS = -1
_ZERO = Fraction(0)


def _sparse(row: InputRow) -> SparseRow:
    """A row of A as column -> nonzero Fraction."""
    return {j: v if type(v) is Fraction else Fraction(v) for j, v in row.items() if v}


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    solution: tuple[Fraction, ...] | None


def _over_gcd(row: TableauRow) -> TableauRow:
    """row divided by the gcd of its entries."""
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def _int_scaled(row: SparseRow, sign: int = 1) -> tuple[TableauRow, int]:
    """sign * row times the lcm d of its denominators, and d."""
    d = lcm(*(v.denominator for v in row.values()))
    k = sign * d
    return {j: v.numerator * (k // v.denominator) for j, v in row.items()}, d


def _combine_rows(row: TableauRow, c: int, prow: TableauRow) -> TableauRow:
    """The primitive positive multiple of prow[c] * row - row[c] * prow, for
    prow[c] > 0; row itself may be updated and returned."""
    g = gcd(prow[c], row[c])
    a, f = prow[c] // g, row[c] // g
    if a != 1:
        row = {j: a * v for j, v in row.items()}
    for j, w in prow.items():
        v = row.get(j, 0) - f * w
        if v:
            row[j] = v
        else:
            del row[j]
    return _over_gcd(row)


def _pivot(tab: list[TableauRow], basis: list[int], r: int, c: int) -> None:
    """Make column c basic in row r, negated if need be; only rows with a nonzero in c change."""
    prow = tab[r]
    if prow[c] < 0:
        prow = tab[r] = {j: -v for j, v in prow.items()}
    for i, row in enumerate(tab):
        if c in row and i != r:
            tab[i] = _combine_rows(row, c, prow)
    basis[r] = c


def _bland_min(tab: list[TableauRow], basis: list[int]) -> str:
    """Minimize the objective in the last tableau row; Bland's anti-cycling rule.

    Only original columns are stored, so any column may enter.  Each ``int``
    row is a positive multiple of its ``Fraction`` row, which keeps the signs
    of the reduced costs and the ratios rhs / entry (cross-multiplied).  The
    columns of negative cost are kept as a set: a pivot scales the cost row
    by a positive factor and subtracts a multiple of the pivot row, so only
    the pivot row's columns can change sign.
    """
    m = len(tab) - 1
    negative = {j for j, v in tab[m].items() if v < 0}
    negative.discard(_RHS)
    while negative:
        enter = min(negative)
        best = None
        for i in range(m):
            a = tab[i].get(enter, 0)
            if a > 0:
                rhs = tab[i].get(_RHS, 0)
                if best is None or (rhs * best_a, basis[i]) < (best_rhs * a, basis[best]):
                    best, best_rhs, best_a = i, rhs, a
        if best is None:
            return "unbounded"
        _pivot(tab, basis, best, enter)
        cost = tab[m]
        for j in tab[best]:
            if cost.get(j, 0) < 0:
                negative.add(j)
            else:
                negative.discard(j)
        negative.discard(_RHS)
    return "optimal"


def simplex_solve(
    a_eq: Sequence[InputRow],
    b_eq: Sequence[Fraction],
    n: int,
    objective: InputRow | None = None,
) -> LPResult:
    """Maximize objective . x subject to a_eq x = b_eq, x >= 0 over n columns.

    Without an objective, phase 1 alone finds a feasible point.  Row i
    starts with the artificial n + i basic.  Artificial columns are never
    stored: they may not re-enter, and no choice reads them.
    """
    m = len(a_eq)
    # rows[i] = (r, d): row i of the Fraction tableau, signed so that b_i >= 0, is r / d
    rows = [_int_scaled(_sparse({**row, _RHS: b}), -1 if b < 0 else 1)
            for row, b in zip(a_eq, b_eq)]
    # phase 1 cost row, the sum of artificials through their basis: minus the sum of the
    # Fraction rows times the lcm of the d, taken before the rows are made primitive
    total = lcm(*(d for _, d in rows))
    cost: TableauRow = {}
    for row, d in rows:
        f = total // d
        for j, v in row.items():
            cost[j] = cost.get(j, 0) - f * v
    tab = [_over_gcd(row) for row, _ in rows]
    tab.append(_over_gcd({j: v for j, v in cost.items() if v}))
    basis = [n + i for i in range(m)]
    _bland_min(tab, basis)
    if tab[m].get(_RHS, 0) < 0:
        return LPResult("infeasible", None, None)
    # drive leftover artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            enter = min((j for j in tab[i] if j != _RHS), default=None)
            if enter is not None:
                _pivot(tab, basis, i, enter)

    if objective is None:
        return LPResult("optimal", Fraction(0), _extract(tab, basis, n))

    # phase 2 on the original columns: minimize -objective, expressed through the basis
    obj = _over_gcd(_int_scaled(_sparse(objective), -1)[0])
    for i, col in enumerate(basis):
        if col in obj:
            obj = _combine_rows(obj, col, tab[i])
    tab[m] = obj
    if _bland_min(tab, basis) == "unbounded":
        return LPResult("unbounded", None, None)
    sol = _extract(tab, basis, n)
    value = sum((Fraction(c) * sol[j] for j, c in objective.items()), Fraction(0))
    return LPResult("optimal", value, sol)


def _extract(tab: list[TableauRow], basis: list[int], n: int) -> tuple[Fraction, ...]:
    sol = [_ZERO] * n
    for i, col in enumerate(basis):
        if col < n:
            sol[col] = Fraction(tab[i].get(_RHS, 0), tab[i][col])
    return tuple(sol)


def simplex_feasible(
    a_eq: Sequence[InputRow], b_eq: Sequence[Fraction], n: int
) -> tuple[Fraction, ...] | None:
    """A nonnegative solution of a_eq x = b_eq over n columns, or None."""
    res = simplex_solve(a_eq, b_eq, n)
    return res.solution if res.status == "optimal" else None


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination

#: the nonzero coefficients of a row as (variable, coefficient), sorted by variable
Terms = tuple[tuple[int, int], ...]
#: the inequality sum coefficient * x_variable <= constant, primitive
IntRow = tuple[Terms, int]


def _primitive(terms: Terms, const: int) -> IntRow:
    """Divide a row by the gcd of its entries (primitive representative)."""
    g = gcd(*(a for _, a in terms), const)
    if g > 1:
        terms = tuple((v, a // g) for v, a in terms)
        const //= g
    return terms, const


def _prune(rows: list[IntRow]) -> list[IntRow] | None:
    """Keep the tightest constant per direction, the variables all >= 0.

    A row with coefficients all < 0 and constant >= 0, which x >= 0 implies,
    is dropped; None if a row with coefficients all > 0 has constant < 0.
    Both rules cover the empty row 0 <= constant.
    """
    best: dict[Terms, int] = {}
    for terms, const in rows:
        if const < 0:
            if all(a > 0 for _, a in terms):
                return None
        elif all(a < 0 for _, a in terms):
            continue
        prev = best.get(terms)
        if prev is None or const < prev:
            best[terms] = const
    return list(best.items())


def _combine(pos: IntRow, a: int, neg: IntRow, b: int) -> IntRow:
    """b * pos + a * neg, for a > 0 and -b < 0 the two rows' coefficients of
    the variable being eliminated, which cancels."""
    acc = {v: b * x for v, x in pos[0]}
    for v, y in neg[0]:
        acc[v] = acc.get(v, 0) + a * y
    terms = tuple(sorted((v, w) for v, w in acc.items() if w))
    return _primitive(terms, b * pos[1] + a * neg[1])


def _eliminate(rows: list[IntRow]) -> bool:
    """Fourier-Motzkin on sparse primitive integer rows, the variables all >= 0.

    The signs are never stored as rows.  Eliminating v keeps the rows
    without v, each positive-negative combination, and each row with a
    positive coefficient of v with that term deleted (its combination with
    v >= 0).  One pass per round lists each variable's positive and negative
    rows.  A round first sweeps the variables of one sign, the two cases of
    elimination that make no combination (Schrijver 1986, §12.2): it drops
    every row holding a variable whose coefficients are all negative and
    deletes every variable whose coefficients are all positive.  Otherwise
    it eliminates the variable that makes the fewest rows, the least
    (pos * (neg + 1), pos + neg, v).  If that variable has one positive row,
    the round also eliminates, in the same order, every other variable with
    one positive row whose rows are disjoint from the rows already claimed.
    Such a batch is safe: an elimination with one positive row turns its
    1 + k rows into k + 1, so the system never grows; and eliminations on
    disjoint rows commute, since the rows one makes hold no other batch
    variable.  The batch thus yields the rows of one-at-a-time elimination
    without the prunes in between, and those only drop rows that x >= 0
    implies and keep the tightest constant per direction, so the verdict is
    the same.  Each round prunes once.  Feasible iff no row is left.
    """
    rows = _prune(rows)
    while rows:
        # variable -> [(row index, |coefficient|)] of its positive and its negative rows
        pos: dict[int, list[tuple[int, int]]] = {}
        neg: dict[int, list[tuple[int, int]]] = {}
        for i, (terms, _) in enumerate(rows):
            for v, a in terms:
                if a > 0:
                    pos.setdefault(v, []).append((i, a))
                else:
                    neg.setdefault(v, []).append((i, -a))
        only_neg = neg.keys() - pos.keys()
        only_pos = pos.keys() - neg.keys()
        if only_neg or only_pos:
            swept = []
            for terms, const in rows:
                if only_neg.isdisjoint(v for v, _ in terms):
                    kept = tuple(t for t in terms if t[0] not in only_pos)
                    swept.append((terms, const) if len(kept) == len(terms) else _primitive(kept, const))
            rows = _prune(swept)
            continue

        def key(v: int) -> tuple[int, int, int]:
            return len(pos[v]) * (len(neg[v]) + 1), len(pos[v]) + len(neg[v]), v

        var = min(pos, key=key)
        batch = sorted((v for v in pos if len(pos[v]) == 1), key=key) if len(pos[var]) == 1 else [var]
        claimed: set[int] = set()
        new_rows = []
        for v in batch:
            touched = {i for i, _ in pos[v] + neg[v]}
            if not claimed.isdisjoint(touched):
                continue
            claimed |= touched
            for p, a in pos[v]:
                prow = rows[p]
                for q, b in neg[v]:
                    new_rows.append(_combine(prow, a, rows[q], b))
                new_rows.append(_primitive(tuple(t for t in prow[0] if t[0] != v), prow[1]))
        rows = _prune([row for i, row in enumerate(rows) if i not in claimed] + new_rows)
    return rows is not None


#: an equality row during substitution: column -> nonzero int
EqRow = dict[int, int]


def _reduced(row: EqRow, const: int) -> tuple[EqRow, int]:
    """The row and its right side divided by the gcd of all their entries."""
    g = gcd(*row.values(), const)
    if g > 1:
        return {j: v // g for j, v in row.items()}, const // g
    return row, const


def _eq_scaled(row: SparseRow) -> tuple[EqRow, int]:
    """A row of A with its right side under _RHS, as the primitive positive
    integer multiple of the row and its right side."""
    d = lcm(*(v.denominator for v in row.values()))
    ints = {j: v.numerator * (d // v.denominator) for j, v in row.items()}
    const = ints.pop(_RHS, 0)
    return _reduced(ints, const)


def _substitute(mat: list[EqRow], rhs: list[int], r: int, c: int) -> None:
    """Eliminate column c from every row but r, on primitive integer rows.

    Row r is negated if need be, so that its entry p in c is positive.  Each
    other row with an entry f in c becomes the primitive positive multiple
    of p * row - f * (row r), which has the nonzero pattern of its Fraction
    counterpart.
    """
    prow = mat[r]
    if prow[c] < 0:
        prow = mat[r] = {j: -v for j, v in prow.items()}
        rhs[r] = -rhs[r]
    p = prow[c]
    for i, row in enumerate(mat):
        f = row.get(c)
        if f is None or i == r:
            continue
        g = gcd(p, f)
        a, f = p // g, f // g
        if a != 1:
            row = {j: a * v for j, v in row.items()}
        for j, w in prow.items():
            v = row.get(j, 0) - f * w
            if v:
                row[j] = v
            else:
                del row[j]
        mat[i], rhs[i] = _reduced(row, a * rhs[i] - f * rhs[r])


def fm_feasible_eq(a_eq: Sequence[InputRow], b_eq: Sequence[Fraction], n: int) -> bool:
    """Feasibility of {A x = b, x >= 0} over n columns, decided by Fourier-Motzkin.

    The equalities are first removed by exact Gaussian substitution on
    sparse primitive integer rows (each pivot variable is expressed through
    the nonbasic ones), which preserves the solution set and leaves one
    inequality per pivot, its variable's nonnegativity, over the nonbasic
    variables; their own nonnegativity stays implicit in the elimination.
    """
    mat: list[EqRow] = []
    rhs: list[int] = []
    for row, b in zip(a_eq, b_eq):
        entries, const = _eq_scaled(_sparse({**row, _RHS: b}))
        mat.append(entries)
        rhs.append(const)
    pivots: list[tuple[int, int]] = []
    # a free (not yet pivoted) row has nonzeros only in free columns
    free_rows = set(range(len(rhs)))
    while free_rows:
        # Markowitz-style pivot: minimize fill to keep substitutions sparse
        col_nnz = Counter(c for i in free_rows for c in mat[i])
        best = None
        for i in free_rows:
            row_nnz = len(mat[i])
            for c in mat[i]:
                key = ((row_nnz - 1) * (col_nnz[c] - 1), c, i)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        _, c, r = best
        _substitute(mat, rhs, r, c)
        pivots.append((r, c))
        free_rows.discard(r)
    if any(rhs[i] for i in free_rows):
        return False  # 0 = nonzero: inconsistent equalities
    basic = {c for _, c in pivots}
    position = {c: p for p, c in enumerate(c for c in range(n) if c not in basic)}
    # x_col = (rhs - sum coeffs * z) / (its positive entry) >= 0; z >= 0 stays implicit
    rows = [
        _primitive(tuple(sorted((position[j], v) for j, v in mat[r].items() if j != c)), rhs[r])
        for r, c in pivots
    ]
    return _eliminate(rows)
