"""Exact linear programming over the rationals.

Two independent engines:

* a two-phase simplex with Bland's rule on a sparse tableau (each row a
  dict from column to nonzero ``Fraction``, no floating point), solving
  max/min c.x subject to A x = b, x >= 0;
* Fourier-Motzkin elimination for feasibility of inequality systems,
  used as a cross-check oracle on the simplex verdicts.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

Row = tuple[Fraction, ...]
#: a tableau row: column -> nonzero entry, the right-hand side under _RHS
SparseRow = dict[int, Fraction]
#: reserved key of the right-hand side; original columns are 0..n-1
_RHS = -1
_ZERO = Fraction(0)


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None
    solution: tuple[Fraction, ...] | None


def _subtract(row: SparseRow, f: Fraction, prow: SparseRow) -> None:
    """row -= f * prow at prow's nonzero columns, dropping entries that cancel."""
    for j, w in prow.items():
        v = row.get(j)
        if v is None:
            row[j] = -f * w
        else:
            v -= f * w
            if v:
                row[j] = v
            else:
                del row[j]


def _pivot(tab: list[SparseRow], basis: list[int], r: int, c: int) -> None:
    """Make column c basic in row r; only rows with a nonzero in column c change."""
    prow = tab[r]
    piv = prow[c]
    if piv != 1:
        prow = tab[r] = {j: v / piv for j, v in prow.items()}
    for i, row in enumerate(tab):
        f = row.get(c)
        if f is not None and i != r:
            _subtract(row, f, prow)
    basis[r] = c


def _bland_min(tab: list[SparseRow], basis: list[int]) -> str:
    """Minimize the objective in the last tableau row; Bland's anti-cycling rule.

    Only original columns are stored, so any column may enter.  Every entry
    is a ``Fraction``, whose numerator carries its sign.
    """
    m = len(tab) - 1
    while True:
        enter = min(
            (j for j, v in tab[m].items() if v.numerator < 0 and j != _RHS), default=None
        )
        if enter is None:
            return "optimal"
        best = None
        for i in range(m):
            a = tab[i].get(enter)
            if a is not None and a.numerator > 0:
                key = (tab[i].get(_RHS, _ZERO) / a, basis[i])
                if best is None or key < best[0]:
                    best = (key, i)
        if best is None:
            return "unbounded"
        _pivot(tab, basis, best[1], enter)


def simplex_solve(
    a_eq: Sequence[Sequence[Fraction]],
    b_eq: Sequence[Fraction],
    objective: Sequence[Fraction] | None = None,
    maximize: bool = True,
) -> LPResult:
    """Solve max (or min) objective . x subject to a_eq x = b_eq, x >= 0.

    Row i starts with the artificial n + i basic.  Artificial columns are
    never stored: they may not re-enter, and no choice reads them.
    """
    m = len(a_eq)
    n = len(a_eq[0]) if m else (len(objective) if objective else 0)
    tab: list[SparseRow] = []
    for row, b in zip(a_eq, b_eq):
        sign = -1 if b < 0 else 1
        entries = {j: sign * Fraction(v) for j, v in enumerate(row) if v}
        if b:
            entries[_RHS] = sign * Fraction(b)
        tab.append(entries)

    # phase 1 cost row: sum of artificials, expressed through the artificial basis
    cost: SparseRow = {}
    for row in tab:
        for j, v in row.items():
            cost[j] = cost.get(j, _ZERO) - v
    tab.append({j: v for j, v in cost.items() if v})
    basis = [n + i for i in range(m)]
    _bland_min(tab, basis)
    if tab[m].get(_RHS, _ZERO) < 0:
        return LPResult("infeasible", None, None)
    # drive leftover artificials out of the basis where possible
    for i in range(m):
        if basis[i] >= n:
            enter = min((j for j in tab[i] if j != _RHS), default=None)
            if enter is not None:
                _pivot(tab, basis, i, enter)

    if objective is None:
        return LPResult("optimal", Fraction(0), _extract(tab, basis, n))

    # phase 2 on the original columns
    sign = -1 if maximize else 1
    obj: SparseRow = {j: sign * Fraction(c) for j, c in enumerate(objective) if c}
    # express the objective through the current basis
    for i, col in enumerate(basis):
        f = obj.get(col)
        if f is not None:
            _subtract(obj, f, tab[i])
    tab[m] = obj
    if _bland_min(tab, basis) == "unbounded":
        return LPResult("unbounded", None, None)
    sol = _extract(tab, basis, n)
    value = sum((Fraction(c) * x for c, x in zip(objective, sol)), Fraction(0))
    return LPResult("optimal", value, sol)


def _extract(tab: list[SparseRow], basis: list[int], n: int) -> tuple[Fraction, ...]:
    sol = [_ZERO] * n
    for i, col in enumerate(basis):
        if col < n:
            sol[col] = tab[i].get(_RHS, _ZERO)
    return tuple(sol)


def simplex_feasible(
    a_eq: Sequence[Sequence[Fraction]], b_eq: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """A nonnegative solution of a_eq x = b_eq, or None."""
    res = simplex_solve(a_eq, b_eq, objective=None)
    return res.solution if res.status == "optimal" else None


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination

IntRow = tuple[tuple[int, ...], int]


def _norm_int_row(coeffs: tuple[int, ...], const: int) -> IntRow:
    """Divide a row by the gcd of its entries (primitive representative)."""
    g = gcd(*(abs(v) for v in coeffs), abs(const))
    if g > 1:
        coeffs = tuple(v // g for v in coeffs)
        const //= g
    return coeffs, const


def _to_int_row(coeffs: Sequence[Fraction], const: Fraction) -> IntRow:
    denom = lcm(*(c.denominator for c in coeffs), const.denominator)
    return _norm_int_row(
        tuple(int(c * denom) for c in coeffs), int(const * denom)
    )


def _prune(rows: list[IntRow]) -> list[IntRow] | None:
    """Deduplicate, keep the tightest constant per direction, detect falsehood."""
    best: dict[tuple[int, ...], int] = {}
    for coeffs, const in rows:
        if not any(coeffs):
            if const < 0:
                return None
            continue
        prev = best.get(coeffs)
        if prev is None or const < prev:
            best[coeffs] = const
    return list(best.items())


def fm_feasible(ineqs: list[tuple[Sequence[Fraction], Fraction]], nvars: int) -> bool:
    """Feasibility of { x : sum coeffs.x <= const } by variable elimination.

    Variables are unrestricted; encode x_i >= 0 as an explicit row.  Each
    round eliminates the variable minimizing the positive*negative row
    product; rows are kept as primitive integer vectors and pruned to curb
    growth.
    """
    rows = [
        _to_int_row(tuple(Fraction(c) for c in coeffs), Fraction(const))
        for coeffs, const in ineqs
    ]
    pruned = _prune(rows)
    if pruned is None:
        return False
    rows = pruned
    remaining = set(range(nvars))
    while remaining:
        counts = {}
        for var in remaining:
            pos = sum(1 for c, _ in rows if c[var] > 0)
            neg = sum(1 for c, _ in rows if c[var] < 0)
            counts[var] = (pos * neg, pos + neg)
        var = min(remaining, key=lambda v: (counts[v], v))
        pos_rows = [r for r in rows if r[0][var] > 0]
        neg_rows = [r for r in rows if r[0][var] < 0]
        new_rows = [r for r in rows if r[0][var] == 0]
        for pc, pconst in pos_rows:
            a = pc[var]
            for nc, nconst in neg_rows:
                b = -nc[var]
                coeffs = tuple(b * x + a * y for x, y in zip(pc, nc))
                new_rows.append(_norm_int_row(coeffs, b * pconst + a * nconst))
        pruned = _prune(new_rows)
        if pruned is None:
            return False
        rows = pruned
        remaining.discard(var)
    return True


def eq_system_to_ineqs(
    a_eq: Sequence[Sequence[Fraction]], b_eq: Sequence[Fraction]
) -> tuple[list[tuple[Row, Fraction]], int]:
    """Encode {A x = b, x >= 0} as a pure inequality system for fm_feasible."""
    n = len(a_eq[0]) if a_eq else 0
    ineqs: list[tuple[Row, Fraction]] = []
    for row, c in zip(a_eq, b_eq):
        r = tuple(Fraction(v) for v in row)
        ineqs.append((r, Fraction(c)))
        ineqs.append((tuple(-v for v in r), -Fraction(c)))
    for i in range(n):
        unit = tuple(Fraction(-int(i == j)) for j in range(n))
        ineqs.append((unit, Fraction(0)))
    return ineqs, n


def fm_feasible_eq(
    a_eq: Sequence[Sequence[Fraction]], b_eq: Sequence[Fraction]
) -> bool:
    """Feasibility of {A x = b, x >= 0} decided by Fourier-Motzkin.

    The equalities are first removed by exact Gaussian substitution (each
    pivot variable is expressed through the nonbasic ones), which preserves
    the solution set and leaves a pure inequality system -- the
    nonnegativity of every variable -- for the elimination proper.
    """
    m = len(a_eq)
    n = len(a_eq[0]) if m else 0
    mat = [
        [Fraction(v) for v in row] + [Fraction(c)] for row, c in zip(a_eq, b_eq)
    ]
    pivots: list[tuple[int, int]] = []
    free_rows = set(range(m))
    free_cols = set(range(n))
    while free_rows and free_cols:
        # Markowitz-style pivot: minimize fill to keep substitutions sparse
        best = None
        for i in free_rows:
            row_nnz = sum(1 for c in free_cols if mat[i][c] != 0)
            if row_nnz == 0:
                continue
            for c in free_cols:
                if mat[i][c] != 0:
                    col_nnz = sum(1 for k in free_rows if mat[k][c] != 0)
                    key = ((row_nnz - 1) * (col_nnz - 1), c, i)
                    if best is None or key < best[0]:
                        best = (key, i, c)
        if best is None:
            break
        _, r, c = best
        piv = mat[r][c]
        mat[r] = [v / piv for v in mat[r]]
        for i in range(m):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivots.append((r, c))
        free_rows.discard(r)
        free_cols.discard(c)
    for i in free_rows:
        if mat[i][-1] != 0:
            return False  # 0 = nonzero: inconsistent equalities
    basic = {c for _, c in pivots}
    nonbasic = [c for c in range(n) if c not in basic]
    k = len(nonbasic)
    ineqs: list[tuple[Row, Fraction]] = []
    for row, col in pivots:
        # x_col = rhs - sum coeffs * z >= 0
        coeffs = tuple(mat[row][j] for j in nonbasic)
        ineqs.append((coeffs, mat[row][-1]))
    for i in range(k):
        unit = tuple(Fraction(-int(i == j)) for j in range(k))
        ineqs.append((unit, Fraction(0)))
    return fm_feasible(ineqs, k)
