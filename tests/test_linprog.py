import random
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction as F
from itertools import combinations
from math import gcd

from hypothesis import given, settings, strategies as st

from ivpoly import linprog
from ivpoly.linprog import fm_feasible_eq, simplex_feasible, simplex_solve


def _solve_square_exact(mat, rhs):
    """Unique exact solution of a (possibly overdetermined) system, or None."""
    m = len(mat)
    k = len(mat[0]) if m else 0
    rows = [[F(v) for v in row] + [F(c)] for row, c in zip(mat, rhs)]
    pivots = []
    r = 0
    for col in range(k):
        pr = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if pr is None:
            return None  # rank-deficient: not a unique vertex
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][col]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append((r, col))
        r += 1
    for i in range(r, m):
        if rows[i][-1] != 0:
            return None  # inconsistent
    sol = [F(0)] * k
    for row, col in pivots:
        sol[col] = rows[row][-1]
    return sol


def brute_lp_max(a, b, c):
    """Maximum of c.x over {A x = b, x >= 0} by basic-solution enumeration."""
    m, n = len(a), len(a[0])
    best = None
    for k in range(0, min(m, n) + 1):
        for cols in combinations(range(n), k):
            mat = [[a[i][j] for j in cols] for i in range(m)]
            sol = _solve_square_exact(mat, b)
            if sol is None or any(x < 0 for x in sol):
                continue
            value = sum(c[j] * x for j, x in zip(cols, sol))
            if best is None or value > best:
                best = value
    return best


def _negative_costs(tab):
    return [j for j, v in tab[-1].items() if v < 0 and j != linprog._RHS]


@contextmanager
def _checked_pivots():
    """Check the tableau after every simplex pivot: each row holds only ``int``
    entries and is primitive, and each basic column is a unit column with a
    positive entry in its row.  Each pivot of Bland's rule enters the least
    column of negative cost, and the rule stops as optimal only when no cost
    is negative.  Yields the (row, column) pivots taken."""
    pivot, bland = linprog._pivot, linprog._bland_min
    taken = []
    in_bland = []

    def spy(tab, basis, r, c):
        if in_bland:
            assert c == min(_negative_costs(tab))
        pivot(tab, basis, r, c)
        taken.append((r, c))
        assert tab[r][c] > 0
        for row in tab:
            assert all(type(v) is int for v in row.values()) and gcd(*row.values()) in (0, 1)
        for i, col in enumerate(basis):
            if col in tab[i]:
                assert tab[i][col] > 0 and all(col not in row for row in tab[:i] + tab[i + 1:])

    def bland_spy(tab, basis):
        in_bland.append(True)
        try:
            status = bland(tab, basis)
        finally:
            in_bland.pop()
        assert status == "unbounded" or not _negative_costs(tab)
        return status

    linprog._pivot, linprog._bland_min = spy, bland_spy
    try:
        yield taken
    finally:
        linprog._pivot, linprog._bland_min = pivot, bland


@contextmanager
def _checked_substitutions():
    """Check the equality rows after every Fourier-Motzkin substitution pivot:
    each row and its right side hold only ``int`` entries and are primitive,
    and each row pivoted so far has a positive entry in its column and is the
    only row with a nonzero there.  Yields the (row, column) pivots taken."""
    substitute = linprog._substitute
    taken = []

    def spy(mat, rhs, r, c):
        substitute(mat, rhs, r, c)
        taken.append((r, c))
        for row, const in zip(mat, rhs):
            assert all(type(v) is int for v in row.values()) and type(const) is int
            assert gcd(*row.values(), const) in (0, 1)
        for i, col in taken:
            assert mat[i][col] > 0 and all(col not in row for row in mat[:i] + mat[i + 1:])

    linprog._substitute = spy
    try:
        yield taken
    finally:
        linprog._substitute = substitute


def _assert_exact(res):
    """A float cannot pass: Fraction(1, 2) == 0.5, but the type tells them apart."""
    if res.status == "optimal":
        assert type(res.value) is F and all(type(x) is F for x in res.solution)
    else:
        assert res.value is None and res.solution is None


def _row(dense):
    """A dense row or objective as column -> entry, zeros left out."""
    return {j: v for j, v in enumerate(dense) if v}


def _as_mappings(a):
    return [_row(row) for row in a]


def test_feasible_square_system():
    sol = simplex_feasible([{0: 1, 1: 1}, {0: 1, 1: -1}], [3, 1], 2)
    assert sol == (F(2), F(1))


def test_infeasible_negative_rhs():
    assert simplex_feasible([{0: 1, 1: 1}], [-1], 2) is None


def test_optimization_directions():
    res = simplex_solve([{0: 1, 1: 1}], [4], 2, {0: 1, 1: 2})
    assert res.status == "optimal" and res.value == 8
    # the minimum of c.x is minus the maximum of -c.x
    res = simplex_solve([{0: 1, 1: 1}], [4], 2, {0: -1, 1: -2})
    assert res.status == "optimal" and -res.value == 4


def test_unbounded():
    res = simplex_solve([{0: 1, 1: -1}], [0], 2, {0: 1})
    assert res.status == "unbounded"


def test_degenerate_redundant_rows():
    sol = simplex_feasible([{0: 1, 1: 1}, {0: 2, 1: 2}], [2, 4], 2)
    assert sol is not None and sum(sol) == 2


def test_exact_fractions_survive():
    res = simplex_solve([{0: F(1, 3), 1: F(1, 7)}], [F(1)], 2, {0: F(1)})
    assert res.status == "optimal" and res.value == 3


def test_fm_eq_gaussian_path():
    assert fm_feasible_eq([{0: 1, 1: 1}, {0: 1, 1: -1}], [3, 1], 2)
    assert not fm_feasible_eq([{0: 1, 1: 1}], [-1], 2)
    assert not fm_feasible_eq([{0: 1, 1: 1}, {0: 1, 1: 1}], [2, 3], 2)  # inconsistent equalities
    assert fm_feasible_eq([{0: 1, 1: 1}, {0: 2, 1: 2}], [2, 4], 2)  # consistent redundancy


@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_simplex_and_fm_agree_on_random_systems(m, n, data):
    a = [
        [F(data.draw(st.integers(-4, 4))) for _ in range(n)]
        for _ in range(m)
    ]
    b = [F(data.draw(st.integers(-6, 6))) for _ in range(m)]
    rows = _as_mappings(a)
    with _checked_pivots():
        res = simplex_solve(rows, b, n)
    _assert_exact(res)
    simplex_verdict = res.status == "optimal"
    with _checked_substitutions():
        assert fm_feasible_eq(rows, b, n) == simplex_verdict


@given(st.integers(1, 3), st.integers(1, 5), st.data())
@settings(max_examples=100, deadline=None)
def test_simplex_optimum_matches_vertex_enumeration(m, n, data):
    a = [
        [F(data.draw(st.integers(-3, 3))) for _ in range(n)]
        for _ in range(m)
    ]
    b = [F(data.draw(st.integers(-4, 4))) for _ in range(m)]
    c = [F(data.draw(st.integers(-3, 3))) for _ in range(n)]
    with _checked_pivots():
        res = simplex_solve(_as_mappings(a), b, n, _row(c))
    _assert_exact(res)
    if res.status != "optimal":
        return  # infeasibility is cross-checked elsewhere; unboundedness has no vertex max
    assert res.value == brute_lp_max(a, b, c)


@given(st.integers(1, 3), st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_simplex_solution_satisfies_system(m, n, data):
    a = [
        [F(data.draw(st.integers(-4, 4))) for _ in range(n)]
        for _ in range(m)
    ]
    b = [F(data.draw(st.integers(-6, 6))) for _ in range(m)]
    with _checked_pivots():
        sol = simplex_feasible(_as_mappings(a), b, n)
    if sol is None:
        return
    assert all(type(x) is F and x >= 0 for x in sol)
    for row, rhs in zip(a, b):
        assert sum(c * x for c, x in zip(row, sol)) == rhs


def _satisfies(a, b, sol):
    return all(x >= 0 for x in sol) and all(
        sum(c * x for c, x in zip(row, sol)) == rhs for row, rhs in zip(a, b)
    )


def test_beale_cycling_example_terminates_at_the_optimum(pivots):
    # Beale (1955): the textbook rule cycles here; Bland's rule must not.
    # Columns: slacks s1..s3, then x4..x7.
    a = [
        [1, 0, 0, F(1, 4), -8, -1, 9],
        [0, 1, 0, F(1, 2), -12, F(-1, 2), 3],
        [0, 0, 1, 0, 0, 1, 0],
    ]
    b = [0, 0, 1]
    c = [0, 0, 0, F(-3, 4), 20, F(-1, 2), 6]
    # minimize c.x as the maximum of -c.x
    res = simplex_solve(_as_mappings(a), b, 7, _row([-v for v in c]))
    assert pivots == [(0, 0), (1, 1), (2, 2), (0, 3), (1, 4), (0, 5), (1, 0), (2, 1), (2, 3)]
    assert res.status == "optimal" and -res.value == F(-5, 4)
    assert _satisfies(a, b, res.solution)
    assert res.value == brute_lp_max(a, b, [-v for v in c])


def test_redundant_rows_keep_an_artificial_basic(monkeypatch):
    # rows 2 and 3 are multiples of row 1: after phase 1 their artificials
    # have no nonzero original column, so the drive-out cannot move them
    bases = []
    extract = linprog._extract

    def spy(tab, basis, n, *rest):
        bases.append((list(basis), n))
        return extract(tab, basis, n, *rest)

    monkeypatch.setattr(linprog, "_extract", spy)
    a = [[1, 1, 0], [2, 2, 0], [0, 0, 0], [3, 3, 1]]
    b = [2, 4, 0, 7]
    res = simplex_solve(_as_mappings(a), b, 3, {0: 1, 1: 2, 2: 1})
    assert res.status == "optimal" and res.value == 5
    assert res.solution == (F(0), F(2), F(1))
    assert _satisfies(a, b, res.solution)
    basis, n = bases[-1]
    assert sum(col >= n for col in basis) == 2
    sol = simplex_feasible(_as_mappings(a), b, 3)
    assert sol is not None and _satisfies(a, b, sol)


def test_unbounded_after_a_nontrivial_phase_one():
    a = [{0: 1, 1: -1}, {2: 1}]
    b = [1, 2]
    assert simplex_solve(a, b, 3, {1: 1}).status == "unbounded"
    assert simplex_solve(a, b, 3, {0: 1}).status == "unbounded"
    res = simplex_solve(a, b, 3, {1: -1})
    assert res.status == "optimal" and res.value == 0
    assert res.solution == (F(1), F(0), F(2))


def test_non_integer_entries_in_matrix_and_rhs():
    a = [[F(1, 3), F(2, 5), 0, F(-1, 2)], [0, F(3, 7), F(-5, 11), F(1, 6)]]
    b = [F(7, 6), F(-9, 14)]
    sol = simplex_feasible(_as_mappings(a), b, 4)
    assert sol is not None and _satisfies(a, b, sol) and fm_feasible_eq(_as_mappings(a), b, 4)
    c = [F(-1, 2), F(2, 3), F(-3, 4), F(-1, 5)]
    res = simplex_solve(_as_mappings(a), b, 4, _row(c))
    assert res.status == "optimal" and _satisfies(a, b, res.solution)
    assert res.value == brute_lp_max(a, b, c) == sum(x * y for x, y in zip(c, res.solution))
    assert res.value.denominator > 1
    # with row 2 nonnegative, its negative right side cannot be met
    a[1] = [0, F(3, 7), F(5, 11), F(1, 6)]
    rows = _as_mappings(a)
    assert simplex_solve(rows, b, 4, _row(c)).status == "infeasible"
    assert not fm_feasible_eq(rows, b, 4)


def _sparse_entries():
    """About three entries in four are zero; the rest are small fractions."""
    nonzero = st.builds(F, st.integers(-5, 5), st.integers(1, 3))
    return st.one_of(st.just(F(0)), st.just(F(0)), st.just(F(0)), nonzero)


@given(st.integers(1, 8), st.integers(1, 12), st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_systems_agree_with_fourier_motzkin(m, n, data):
    a = [[data.draw(_sparse_entries()) for _ in range(n)] for _ in range(m)]
    b = [data.draw(_sparse_entries()) for _ in range(m)]
    rows = _as_mappings(a)
    objective = _row([data.draw(_sparse_entries()) for _ in range(n)])
    with _checked_pivots():
        res = simplex_solve(rows, b, n, objective)
    _assert_exact(res)
    sol = simplex_feasible(rows, b, n)
    with _checked_substitutions():
        assert (sol is not None) == fm_feasible_eq(rows, b, n) == (res.status != "infeasible")
    if sol is not None:
        assert _satisfies(a, b, sol)


def test_twenty_five_digit_denominators():
    # a bounded polytope: row 0 has only positive entries; b = A x0 for a
    # nonnegative x0, so the system is feasible and the LP has a vertex optimum
    rng = random.Random(25)

    def big():
        return F(rng.randint(-10**24, 10**24), rng.randint(10**24, 10**25))

    n = 5
    a = [[abs(big()) + F(1, 10**24 + 7) for _ in range(n)], [big() for _ in range(n)],
         [big() if j % 2 else F(0) for j in range(n)]]
    x0 = [abs(big()) for _ in range(n)]
    b = [sum(v * x for v, x in zip(row, x0)) for row in a]
    c = [big() for _ in range(n)]
    assert max(v.denominator for row in a for v in row) > 10**24
    rows = _as_mappings(a)
    with _checked_pivots() as taken:
        res = simplex_solve(rows, b, n, _row(c))
    assert taken
    _assert_exact(res)
    assert res.status == "optimal" and _satisfies(a, b, res.solution)
    assert res.value == brute_lp_max(a, b, c) == sum(x * y for x, y in zip(c, res.solution))
    assert fm_feasible_eq(rows, b, n)
    # the positive row cannot sum to a negative right side
    b[0] = -b[0]
    with _checked_pivots():
        res = simplex_solve(rows, b, n, _row(c))
    assert res == linprog.LPResult("infeasible", None, None)
    assert not fm_feasible_eq(rows, b, n)


def test_mapping_rows_need_a_column_count():
    # a column no row mentions still gets a value, and an empty row is 0 = b
    assert simplex_feasible([{1: 1}], [1], 2) == (F(0), F(1))
    assert fm_feasible_eq([{1: 1}, {}], [1, 0], 2)
    assert not fm_feasible_eq([{1: 1}, {}], [1, 1], 2)


def test_fm_rows_stay_sparse_and_primitive(monkeypatch):
    seen = []
    prune = linprog._prune

    def spy(rows):
        seen.extend(rows)
        return prune(rows)

    monkeypatch.setattr(linprog, "_prune", spy)
    rows = [{0: F(2), 1: F(1), 2: F(4), 3: F(0)}, {1: F(-1, 3), 3: F(1)}]
    assert fm_feasible_eq(rows, [F(6), F(0)], 4)
    # x0 = 3 - 2 x2 - 3/2 x3 and x1 = 3 x3; x2 and x3 become the variables 0 and 1
    assert seen[:2] == [(((0, 4), (1, 3)), 6), (((1, -1),), 0)]
    for terms, const in seen:
        assert all(a for _, a in terms) and [v for v, _ in terms] == sorted(v for v, _ in terms)


def test_fm_eq_keeps_signs_implicit():
    # x0 = x1 - 1 leaves -x1 <= -1, which x1 = 1 meets
    assert fm_feasible_eq([{0: 1, 1: -1}], [-1], 2)
    # x2 = -1 leaves the empty row 0 <= -1; x0 + x1 = 1 alone is feasible
    assert not fm_feasible_eq([{0: 1, 1: 1}, {2: 1}], [1, -1], 3)
    # x0 = x2 - x1 - 1 leaves x1 - x2 <= -1, met by x2 large
    assert fm_feasible_eq([{0: 1, 1: 1, 2: -1}], [-1], 3)


def test_fm_prune_and_split_rules():
    # all coefficients <= 0 with constant >= 0: implied by x >= 0, dropped
    assert linprog._prune([(((0, -1), (1, -2)), 0), ((), 3)]) == []
    # all coefficients >= 0 with constant < 0: false on x >= 0
    assert linprog._prune([(((0, 1), (1, 2)), -1)]) is None
    assert linprog._prune([((), -1)]) is None
    # mixed signs: the tightest constant per direction is kept
    assert linprog._prune([(((0, 1), (1, -1)), 2), (((0, 1), (1, -1)), -1)]) == [(((0, 1), (1, -1)), -1)]
    # x1 - x2 <= -1 and x2 <= 0: only x1's row with x1 deleted, -x2 <= -1, meets x2 <= 0
    assert not linprog._eliminate([(((1, 1), (2, -1)), -1), (((2, 1),), 0)])
    assert linprog._eliminate([(((1, 1), (2, -1)), -1), (((2, 1),), 1)])


def test_the_one_sign_sweep_drops_and_deletes_in_one_prune(monkeypatch):
    seen = []
    prune = linprog._prune

    def spy(rows):
        seen.append(list(rows))
        return prune(rows)

    monkeypatch.setattr(linprog, "_prune", spy)
    # x0 has only a negative coefficient and x1 only positive ones: the sweep drops
    # the row of x0 and deletes x1, leaving -2 x2 <= -6 (made primitive) and x2 <= 4
    rows = [(((0, -1), (2, 1)), 1), (((1, 2), (2, -2)), -6), (((1, 1), (2, 1)), 4)]
    assert linprog._eliminate(rows)
    assert seen[1] == [(((2, -1),), -3), (((2, 1),), 4)]
    assert len(seen) == 3
    assert not linprog._eliminate([(((1, 2), (2, -2)), -6), (((1, 1), (2, 1)), 2)])


def _signed_block(data, m, n):
    """An m x n system whose first k columns each hold entries of one sign, the
    sign drawn per column; the other entries are sparse small fractions."""
    k = data.draw(st.integers(1, n))
    signs = [data.draw(st.sampled_from((-1, 1))) for _ in range(k)]
    a = [[s * abs(data.draw(_sparse_entries())) for s in signs]
         + [data.draw(_sparse_entries()) for _ in range(n - k)] for _ in range(m)]
    return a, [data.draw(_sparse_entries()) for _ in range(m)]


@given(st.integers(1, 7), st.integers(1, 10), st.data())
@settings(max_examples=150, deadline=None)
def test_one_sign_columns_agree_with_the_simplex(m, n, data):
    a, b = _signed_block(data, m, n)
    rows = _as_mappings(a)
    with _checked_pivots():
        sol = simplex_feasible(rows, b, n)
    with _checked_substitutions():
        assert fm_feasible_eq(rows, b, n) == (sol is not None)


@given(st.integers(1, 7), st.integers(1, 10), st.data())
@settings(max_examples=150, deadline=None)
def test_one_sign_inequalities_agree_with_the_simplex(m, n, data):
    # the rows a x <= b over x >= 0 straight into the elimination; the simplex
    # decides a x + s = b over x, s >= 0, with one slack column per row
    a, b = _signed_block(data, m, n)
    ints = [_row([int(v * 6) for v in row]) for row in a]
    consts = [int(c * 6) for c in b]
    fm_rows = [linprog._primitive(tuple(sorted(row.items())), c) for row, c in zip(ints, consts)]
    slack = [{**row, n + i: 1} for i, row in enumerate(ints)]
    assert linprog._eliminate(fm_rows) == (simplex_feasible(slack, consts, n + m) is not None)


def _one_per_round(rows):
    """Fourier-Motzkin that eliminates one variable per round, the least
    (pos * (neg + 1), pos + neg, v) over all variables, one-sign ones included
    (they make no combination); the oracle of the batched rounds."""
    rows = linprog._prune(rows)
    while rows:
        pos, neg = Counter(), Counter()
        for terms, _ in rows:
            for v, a in terms:
                (pos if a > 0 else neg)[v] += 1
        var = min(pos.keys() | neg.keys(), key=lambda v: (pos[v] * (neg[v] + 1), pos[v] + neg[v], v))
        out, ups, downs = [], [], []
        for row in rows:
            a = dict(row[0]).get(var, 0)
            if a > 0:
                ups.append((row, a))
            elif a < 0:
                downs.append((row, -a))
            else:
                out.append(row)
        for prow, a in ups:
            out += [linprog._combine(prow, a, nrow, b) for nrow, b in downs]
            out.append(linprog._primitive(tuple(t for t in prow[0] if t[0] != var), prow[1]))
        rows = linprog._prune(out)
    return rows is not None


def test_one_positive_row_variables_on_disjoint_rows_go_in_one_round(monkeypatch):
    # x0 <= 3, x0 >= 1 and 2 x1 <= 5, x1 >= 2: x0 and x1 each have one positive
    # row, on disjoint rows, so the first prune and one round decide; x1 >= 3
    # contradicts 2 x1 <= 5 in the same round; x0 + x1 >= 1 is a row of both,
    # so x1 waits for the next round
    base = [(((0, 1),), 3), (((0, -1),), -1), (((1, 2),), 5), (((1, -1),), -2)]
    cases = [(base, True, 2), (base[:3] + [(((1, -1),), -3)], False, 2),
             (base + [(((0, -1), (1, -1)), -1)], True, 3)]
    assert [_one_per_round(case) for case, _, _ in cases] == [True, False, True]
    calls = []
    prune = linprog._prune

    def spy(rows):
        calls.append(rows)
        return prune(rows)

    monkeypatch.setattr(linprog, "_prune", spy)
    for case, verdict, prunes in cases:
        calls.clear()
        assert linprog._eliminate(case) == verdict
        assert len(calls) == prunes


@st.composite
def _small_inequalities(draw):
    """At most 6 rows a x <= b over at most 6 variables, entries in -3..3."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    a = [[draw(st.integers(-3, 3)) for _ in range(n)] for _ in range(m)]
    return a, [draw(st.integers(-4, 4)) for _ in range(m)], n


@given(_small_inequalities())
@settings(max_examples=300, deadline=None)
def test_batched_rounds_agree_with_one_variable_per_round(system):
    a, b, n = system
    ints = [_row(row) for row in a]
    fm_rows = [linprog._primitive(tuple(sorted(row.items())), c) for row, c in zip(ints, b)]
    verdict = _one_per_round(fm_rows)
    assert linprog._eliminate(fm_rows) == verdict
    # the simplex decides a x + s = b over x, s >= 0, with one slack column per row
    slack = [{**row, n + i: 1} for i, row in enumerate(ints)]
    assert (simplex_feasible(slack, b, n + len(a)) is not None) == verdict
