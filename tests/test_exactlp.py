import random

import pytest
from hypothesis import given, settings, strategies as st

from fillprobe.errors import NodeBudgetError
from fillprobe.exactlp import (
    LinearProgram,
    LPStatus,
    _BoundedSimplex,
    solve_ilp,
    solve_lp,
    solve_minmax,
)
from fillprobe.rationals import Q


def lp(num_vars, rows, rhs, objective):
    return LinearProgram.make(num_vars, rows, rhs, objective)


def test_single_variable_optimal():
    r = solve_lp(lp(1, [{0: 1}], [1], [1]))
    assert r.optimal and r.value == 1 and r.witness == {0: Q(1)}


def test_single_variable_infeasible():
    r = solve_lp(lp(1, [{0: 1}], [-1], [1]))
    assert r.status is LPStatus.INFEASIBLE
    assert r.value is None and r.witness is None


def test_symmetric_vertex_witness():
    r = solve_lp(lp(2, [{0: 1, 1: 1}], [1], [1, 1]))
    assert r.optimal and r.value == 1
    assert r.witness in ({0: Q(1)}, {1: Q(1)})


def test_unbounded():
    r = solve_lp(lp(1, [], [], [-1]))
    assert r.status is LPStatus.UNBOUNDED


def test_degenerate_and_redundant_rows():
    r = solve_lp(lp(1, [{0: 1}, {0: 1}], [1, 1], [1]))
    assert r.optimal and r.value == 1
    r = solve_lp(lp(2, [{0: 1, 1: 1}, {0: 1, 1: -1}], [2, 0], [2, 3]))
    assert r.optimal and r.value == 5


def test_rational_data_exact():
    r = solve_lp(lp(2, [{0: Q(2, 3), 1: Q(1, 7)}], [Q(5, 21)], [1, 1]))
    assert r.optimal
    assert r.value == Q(5, 14)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        lp(1, [{1: 1}], [1], [1])
    with pytest.raises(ValueError):
        lp(2, [{0: 1}], [1], [1])


def test_ilp_no_branching_when_integral():
    problem = lp(1, [{0: 1}], [4], [1])
    relax = solve_lp(problem)
    integral = solve_ilp(problem)
    assert relax.value == integral.value == 4


def test_ilp_parity_infeasible():
    problem = lp(2, [{0: 2, 1: 2}], [3], [1, 1])
    assert solve_lp(problem).value == Q(3, 2)
    assert solve_ilp(problem).status is LPStatus.INFEASIBLE


def test_ilp_gap_instance():
    # LP relaxation 3/2 at x = (0, 3/2); integral optimum 2 at (1, 1)
    problem = lp(2, [{0: 1, 1: 2}], [3], [1, 1])
    relax = solve_lp(problem)
    integral = solve_ilp(problem)
    assert relax.value == Q(3, 2)
    assert integral.optimal and integral.value == 2
    # brute-force oracle over the small integral grid
    best = None
    for x0 in range(4):
        for x1 in range(2):
            if x0 + 2 * x1 == 3:
                best = min(best, x0 + x1) if best is not None else x0 + x1
    assert integral.value == best


def test_ilp_partial_integrality_mask():
    problem = lp(2, [{0: 1, 1: 2}], [3], [1, 1])
    # forcing x1 integral costs: best is (1, 1)
    r = solve_ilp(problem, integrality=[False, True])
    assert r.optimal and r.value == 2
    # x0 is already integral at the relaxation vertex (0, 3/2)
    r = solve_ilp(problem, integrality=[True, False])
    assert r.optimal and r.value == Q(3, 2)


def test_ilp_node_budget():
    # a knapsack-style equality with many fractional relaxations
    rows = [{j: 2 * j + 3 for j in range(8)}]
    rhs = [31]
    problem = lp(8, rows, rhs, [1] * 8)
    with pytest.raises(NodeBudgetError) as exc:
        solve_ilp(problem, node_budget=2)
    assert exc.value.limit == 2
    assert exc.value.lower is not None


def test_ilp_greater_equal_lp():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 2)
        rows = []
        for _ in range(m):
            cols = rng.sample(range(n), rng.randint(1, n))
            rows.append({j: Q(rng.randint(1, 4)) for j in cols})
        x0 = [Q(rng.randint(0, 3)) for _ in range(n)]
        rhs = [sum((a * x0[j] for j, a in row.items()), Q(0)) for row in rows]
        problem = lp(n, rows, rhs, [Q(rng.randint(0, 4)) for _ in range(n)])
        relax = solve_lp(problem)
        assert relax.optimal
        try:
            integral = solve_ilp(problem)
        except NodeBudgetError:
            continue
        if integral.optimal:
            assert integral.value >= relax.value
            if all(v.denominator == 1 for v in relax.witness.values()):
                assert integral.value == relax.value


def test_minmax_single_free_variable():
    r = solve_minmax([{0: 1}], [5], 1)
    assert r.optimal and r.value == 5 and r.witness == {0: Q(5)}


def test_minmax_balanced_split():
    r = solve_minmax([{0: 1, 1: 1}], [2], 2)
    assert r.optimal and r.value == 1
    assert r.witness == {0: Q(1), 1: Q(1)}


def test_minmax_infeasible():
    r = solve_minmax([{}], [1], 1)
    assert r.status is LPStatus.INFEASIBLE


def test_minmax_zero_rhs():
    r = solve_minmax([{0: 1}], [0], 1)
    assert r.optimal and r.value == 0 and r.witness == {}


def test_minmax_nonnegative_mask():
    # with x >= 0 the two-variable difference needs a larger bound
    r_free = solve_minmax([{0: 1, 1: -1}], [2], 2)
    assert r_free.value == 1
    r_nonneg = solve_minmax([{0: 1, 1: -1}], [2], 2, free=[False, False])
    assert r_nonneg.value == 2
    assert all(v >= 0 for v in r_nonneg.witness.values())


def test_minmax_cut_certificates():
    # two rows joined by one column, each fed by its own ground column
    r = solve_minmax([{0: 1, 2: 1}, {0: -1, 1: 1}], [1, 2], 3)
    assert r.optimal and r.value == Q(3, 2)
    assert r.cut == (0, 1)
    # a row no column reaches proves infeasibility on its own
    r = solve_minmax([{0: 1}, {}], [1, Q(1, 3)], 1)
    assert r.status is LPStatus.INFEASIBLE
    assert r.cut == (1,)


def test_minmax_rejects_non_network_columns():
    with pytest.raises(ValueError, match="column 1"):
        solve_minmax([{0: 1, 1: 2}], [1], 2)
    with pytest.raises(ValueError, match="column 0"):
        solve_minmax([{0: 1}, {0: 1}], [1, 1], 1)
    with pytest.raises(ValueError, match="column 3"):
        solve_minmax([{0: -1, 3: -1}, {3: Q(-1)}], [1, 1], 4)
    with pytest.raises(ValueError, match="column 5 out of range"):
        solve_minmax([{5: 1}], [1], 2)


def test_minmax_long_path_needs_no_recursion():
    # ground -> row 0 -> row 1 -> ... -> row n-1: every augmenting path
    # is longer than the default recursion limit
    n = 3000
    rows = [{i: 1, i + 1: -1} for i in range(n)]
    rows[-1] = {n - 1: 1}
    rhs = [0] * (n - 1) + [Q(2, 3)]
    r = solve_minmax(rows, rhs, n, free=[False] * n)
    assert r.optimal and r.value == Q(2, 3)
    assert r.witness == {j: Q(2, 3) for j in range(n)}
    assert n - 1 in r.cut


def _homogenized_minmax(rows, rhs, num_vars, free):
    """The general simplex formulation of min-max: maximize s with
    A z = s b and z in the unit box, x = z/s and t = 1/s.  Returns the
    status and t."""
    col_of, ncols = [], 0
    for j in range(num_vars):
        col_of.append((ncols, ncols + 1) if free[j] else (ncols, None))
        ncols += 2 if free[j] else 1
    s_col = ncols
    ncols += 1
    sim_rows = []
    for i, row in enumerate(rows):
        out = {}
        for j, a in row.items():
            pos, neg = col_of[j]
            out[pos] = Q(a)
            if neg is not None:
                out[neg] = -Q(a)
        if rhs[i]:
            out[s_col] = -Q(rhs[i])
        sim_rows.append({j: v for j, v in out.items() if v})
    objective = [Q(0)] * ncols
    objective[s_col] = Q(-1)
    upper = [Q(1)] * ncols
    upper[s_col] = None
    simplex = _BoundedSimplex(sim_rows, [Q(0)] * len(rows), objective,
                              [Q(0)] * ncols, upper)
    status, _, obj = simplex.solve()
    assert status is LPStatus.OPTIMAL
    if obj == 0:
        return LPStatus.INFEASIBLE, None
    return LPStatus.OPTIMAL, -1 / obj


@st.composite
def network_systems(draw):
    m = draw(st.integers(min_value=0, max_value=4))
    n = draw(st.integers(min_value=0, max_value=8))
    rows = [dict() for _ in range(m)]
    ends = st.one_of(st.none(), st.integers(min_value=0, max_value=m - 1)) \
        if m else st.none()
    for j in range(n):
        head, tail = draw(ends), draw(ends)
        if head is not None:
            rows[head][j] = 1
        if tail is not None and tail != head:
            rows[tail][j] = -1
    rhs = [Q(draw(st.integers(min_value=-3, max_value=3)),
             draw(st.integers(min_value=1, max_value=3))) for _ in range(m)]
    free = [draw(st.booleans()) for _ in range(n)]
    return rows, rhs, n, free


@given(network_systems())
@settings(max_examples=200, deadline=None)
def test_minmax_matches_homogenized_simplex(system):
    rows, rhs, n, free = system
    result = solve_minmax(rows, rhs, n, free)
    if all(v == 0 for v in rhs):
        assert result.optimal and result.value == 0
        return
    status, t = _homogenized_minmax(rows, rhs, n, free)
    assert result.status is status
    assert result.value == t


def test_determinism_same_witness():
    problem = lp(3, [{0: 1, 1: 1, 2: 1}], [2], [1, 1, 1])
    first = solve_lp(problem)
    second = solve_lp(problem)
    assert first.value == second.value
    assert first.witness == second.witness
    i1 = solve_ilp(problem)
    i2 = solve_ilp(problem)
    assert i1.witness == i2.witness


def _random_feasible_lp(rng):
    n = rng.randint(1, 6)
    m = rng.randint(1, 4)
    rows = []
    for _ in range(m):
        cols = rng.sample(range(n), rng.randint(1, n))
        rows.append({j: Q(rng.randint(-5, 5)) for j in cols})
    x0 = [Q(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
    rhs = [sum((a * x0[j] for j, a in row.items()), Q(0)) for row in rows]
    objective = [Q(rng.randint(0, 6)) for _ in range(n)]
    return LinearProgram.make(n, rows, rhs, objective)


def test_homogeneity_fifty_instances():
    rng = random.Random(0)
    lam = Q(3, 2)
    for _ in range(50):
        problem = _random_feasible_lp(rng)
        base = solve_lp(problem)
        assert base.optimal
        scaled = LinearProgram.make(
            problem.num_vars, problem.rows,
            [lam * v for v in problem.rhs], problem.objective)
        scaled_result = solve_lp(scaled)
        assert scaled_result.optimal
        assert scaled_result.value == lam * base.value


@given(st.integers(min_value=-6, max_value=6),
       st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=40)
def test_homogeneity_hypothesis(num, den, scale_den):
    problem = lp(3, [{0: 2, 1: 3, 2: -1}, {1: 1, 2: 1}],
                 [Q(num, den), Q(3, scale_den)], [1, 2, 1])
    base = solve_lp(problem)
    lam = Q(5, 7)
    scaled = LinearProgram.make(3, problem.rows,
                                [lam * v for v in problem.rhs],
                                problem.objective)
    other = solve_lp(scaled)
    assert base.status == other.status
    if base.optimal:
        assert other.value == lam * base.value


def test_json_export_roundtrip_fields():
    problem = lp(2, [{0: Q(1, 3)}], [Q(2)], [Q(1), Q(0)])
    import json
    data = json.loads(problem.to_json())
    assert data["num_vars"] == 2
    assert data["constraints"] == [[0, 0, "1/3"]]
    assert data["rhs"] == ["2/1"]


def test_optimum_matches_basic_solution_enumeration():
    """Independent oracle: enumerate every candidate basic solution with
    exact linear algebra and take the best feasible one.

    With a nonnegative objective the LP is bounded below, so the simplex
    optimum must equal the enumeration optimum whenever one exists.
    """
    import itertools
    import sympy

    rng = random.Random(42)
    solved = 0
    for trial in range(60):
        n = rng.randint(1, 5)
        m = rng.randint(1, 3)
        rows = [{j: Q(rng.randint(-3, 3)) for j in
                 rng.sample(range(n), rng.randint(1, n))} for _ in range(m)]
        if trial % 2 == 0:
            # guaranteed-feasible right-hand side
            x0 = [Q(rng.randint(0, 3)) for _ in range(n)]
            rhs = [sum((a * x0[j] for j, a in row.items()), Q(0)) for row in rows]
        else:
            rhs = [Q(rng.randint(-4, 4)) for _ in range(m)]
        c = [Q(rng.randint(0, 5)) for _ in range(n)]
        problem = lp(n, rows, rhs, c)
        result = solve_lp(problem)

        A = sympy.zeros(m, n)
        for i, row in enumerate(rows):
            for j, a in row.items():
                A[i, j] = sympy.Rational(a.numerator, a.denominator)
        b = sympy.Matrix([sympy.Rational(v.numerator, v.denominator) for v in rhs])
        best = None
        for size in range(0, min(m, n) + 1):
            for cols in itertools.combinations(range(n), size):
                sub = A[:, list(cols)] if cols else sympy.zeros(m, 0)
                try:
                    sol, params = sub.gauss_jordan_solve(b)
                except ValueError:
                    continue
                if params.free_symbols:
                    continue
                if any(v < 0 for v in sol):
                    continue
                value = sum((sympy.Rational(c[j].numerator, c[j].denominator) * sol[k]
                             for k, j in enumerate(cols)), sympy.Integer(0))
                if best is None or value < best:
                    best = value
        if best is None:
            assert result.status is LPStatus.INFEASIBLE
        else:
            assert result.optimal
            assert sympy.Rational(result.value.numerator,
                                  result.value.denominator) == best
            solved += 1
    assert solved >= 25

