import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from fillprobe.errors import NodeBudgetError
from fillprobe.exactlp import (
    LinearProgram,
    LPStatus,
    SolverError,
    _Simplex,
    _solve_node,
    solve_ilp,
    solve_lp,
    solve_minmax,
)
from fillprobe.rationals import Q, RationalType


def lp(num_vars, rows, rhs, objective):
    return LinearProgram(num_vars, rows, rhs, objective)


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


def test_ilp_node_budget():
    # a knapsack-style equality with many fractional relaxations
    rows = [{j: 2 * j + 3 for j in range(8)}]
    rhs = [31]
    problem = lp(8, rows, rhs, [1] * 8)
    with pytest.raises(NodeBudgetError) as exc:
        solve_ilp(problem, node_budget=2)
    assert exc.value.limit == 2
    assert exc.value.lower is not None
    assert exc.value.witness is None
    # once an incumbent exists, the error carries it as a dict
    with pytest.raises(NodeBudgetError) as exc:
        solve_ilp(problem, node_budget=40)
    assert exc.value.upper == 3
    assert exc.value.witness == {2: Q(2), 7: Q(1)}


def test_objective_mismatch_is_caught_by_both_solvers(monkeypatch):
    """The tableau's objective is checked against c.x of its point, on
    the rational and the integral result alike."""
    solve = _Simplex.solve

    def off_by_one(self):
        status, values, obj = solve(self)
        return status, values, None if obj is None else obj + 1

    monkeypatch.setattr(_Simplex, "solve", off_by_one)
    problem = lp(2, [{0: 1, 1: 2}], [3], [1, 1])
    with pytest.raises(SolverError, match="objective mismatch"):
        solve_lp(problem)
    with pytest.raises(SolverError, match="objective mismatch"):
        solve_ilp(problem)


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
    r = solve_minmax(rows, rhs, n)
    assert r.optimal and r.value == Q(2, 3)
    assert r.witness == {j: Q(2, 3) for j in range(n)}
    assert n - 1 in r.cut


def _homogenized_minmax(rows, rhs, num_vars):
    """The general simplex formulation of min-max: maximize s with
    A z = s b and z in the unit box, x = z/s and t = 1/s; each z_j is
    split as z_j+ - z_j-, with z_j+ in column 2j and z_j- in 2j + 1.
    Returns the status and t."""
    s_col = 2 * num_vars
    ncols = s_col + 1
    sim_rows = []
    for i, row in enumerate(rows):
        out = {}
        for j, a in row.items():
            out[2 * j] = Q(a)
            out[2 * j + 1] = -Q(a)
        if rhs[i]:
            out[s_col] = -Q(rhs[i])
        sim_rows.append({j: v for j, v in out.items() if v})
    objective = [Q(0)] * ncols
    objective[s_col] = Q(-1)
    upper = [Q(1)] * ncols
    upper[s_col] = None
    # the unit box needs upper bounds, which only the reference has
    simplex = _FractionSimplex(sim_rows, [Q(0)] * len(rows), objective,
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
    return rows, rhs, n


@given(network_systems())
@settings(max_examples=200, deadline=None)
def test_minmax_matches_homogenized_simplex(system):
    rows, rhs, n = system
    result = solve_minmax(rows, rhs, n)
    if all(v == 0 for v in rhs):
        assert result.optimal and result.value == 0
        return
    status, t = _homogenized_minmax(rows, rhs, n)
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
    return LinearProgram(n, rows, rhs, objective)


def test_homogeneity_fifty_instances():
    rng = random.Random(0)
    lam = Q(3, 2)
    for _ in range(50):
        problem = _random_feasible_lp(rng)
        base = solve_lp(problem)
        assert base.optimal
        scaled = LinearProgram(
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
    scaled = LinearProgram(3, problem.rows,
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


# -- the integer tableau against the rational one it replaced -------------

AT_LOWER = 0
AT_UPPER = 1
BASIC = 2


class _FractionSimplex:
    """The rational-tableau simplex, kept as the reference: every tableau
    entry is a ``Q``, and variables carry native lower/upper bounds (bound
    flips instead of extra rows), which ``_Simplex`` no longer has.  At
    zero lower bounds and no upper bounds its pivots follow Bland's rule
    exactly as in ``_Simplex``."""

    def __init__(self, rows, rhs, objective, lower, upper):
        self.m = len(rows)
        self.n = len(objective)
        self.rows = [{j: Q(v) for j, v in row.items()} for row in rows]
        self.rhs = [Q(v) for v in rhs]
        self.c = [Q(v) for v in objective]
        self.lower = [Q(v) for v in lower]
        self.upper = [None if u is None else Q(u) for u in upper]
        for j in range(self.n):
            if self.upper[j] is not None and self.upper[j] < self.lower[j]:
                raise ValueError("empty variable bound interval")
        self.pivots = 0

    # -- tableau helpers -------------------------------------------------

    def _basic_values(self):
        """Current basic variable values from the rhs column and the
        nonbasic variables sitting at nonzero bounds."""
        T, beta = self.T, []
        shift = [(j, self._nb_value(j)) for j in self.nonbasic_nonzero()]
        last = self.ncols
        for i in range(self.m):
            v = T[i][last]
            row = T[i]
            for j, val in shift:
                t = row[j]
                if t:
                    v -= t * val
            beta.append(v)
        return beta

    def _nb_value(self, j):
        return self.lower[j] if self.status[j] == AT_LOWER else self.upper[j]

    def nonbasic_nonzero(self):
        out = []
        for j in range(self.ncols):
            s = self.status[j]
            if s == BASIC:
                continue
            if (self.lower[j] if s == AT_LOWER else self.upper[j]) != 0:
                out.append(j)
        return out

    # -- main entry ------------------------------------------------------

    def solve(self):
        zero = Q(0)
        m, n = self.m, self.n
        # initial nonbasic point: every structural variable at its lower bound
        self.status = [AT_LOWER] * n
        residual = list(self.rhs)
        for j in range(n):
            lj = self.lower[j]
            if lj:
                for i in range(m):
                    a = self.rows[i].get(j)
                    if a:
                        residual[i] -= a * lj
        signs = [1 if residual[i] >= 0 else -1 for i in range(m)]

        # columns: structural 0..n-1, artificial n..n+m-1, rhs at index ncols
        self.ncols = n + m
        T = []
        for i in range(m):
            row = [zero] * (self.ncols + 1)
            s = signs[i]
            for j, a in self.rows[i].items():
                row[j] = a if s > 0 else -a
            row[n + i] = Q(1)
            row[self.ncols] = self.rhs[i] if s > 0 else -self.rhs[i]
            T.append(row)
        self.T = T
        self.basis = [n + i for i in range(m)]
        self.lower.extend([zero] * m)
        self.upper.extend([None] * m)
        self.status.extend([BASIC] * m)
        self.banned = set()

        # phase 1: drive sum of artificials to zero
        D = [zero] * self.ncols
        for j in range(n):
            tot = zero
            for i in range(m):
                t = T[i][j]
                if t:
                    tot += t
            D[j] = -tot
        outcome = self._iterate(D, phase=1)
        if outcome == "unbounded":
            raise AssertionError("phase 1 reported an unbounded objective")
        infeas = zero
        beta = self._basic_values()
        for i in range(m):
            if self.basis[i] >= n:
                infeas += beta[i]
        if infeas > 0:
            return LPStatus.INFEASIBLE, None, None
        self._expel_artificials()

        # phase 2 on the real objective
        D = [zero] * self.ncols
        cB = {i: self.c[self.basis[i]] for i in range(self.m)
              if self.basis[i] < n and self.c[self.basis[i]]}
        for j in range(self.ncols):
            if self.status[j] == BASIC or j in self.banned:
                continue
            red = self.c[j] if j < n else zero
            for i, cost in cB.items():
                t = self.T[i][j]
                if t:
                    red -= cost * t
            D[j] = red
        outcome = self._iterate(D, phase=2)
        if outcome == "unbounded":
            return LPStatus.UNBOUNDED, None, None

        values = [zero] * n
        beta = self._basic_values()
        for i in range(self.m):
            if self.basis[i] < n:
                values[self.basis[i]] = beta[i]
        for j in range(n):
            if self.status[j] != BASIC:
                values[j] = self._nb_value(j)
        obj = zero
        for j in range(n):
            if values[j] and self.c[j]:
                obj += self.c[j] * values[j]
        return LPStatus.OPTIMAL, values, obj

    def _expel_artificials(self):
        """Pivot zero-valued artificials out of the basis; drop rows that
        turn out redundant.  Artificials never re-enter."""
        n = self.n
        drop = []
        for i in range(self.m):
            if self.basis[i] < n:
                continue
            row = self.T[i]
            pivot_col = None
            for j in range(n):
                if self.status[j] != BASIC and row[j] and j not in self.banned \
                        and self.lower[j] != self.upper[j]:
                    pivot_col = j
                    break
            if pivot_col is None:
                drop.append(i)
            else:
                self._pivot(i, pivot_col, degenerate_entry=True)
        for i in reversed(drop):
            k = self.basis[i]
            self.status[k] = AT_LOWER
            self.banned.add(k)
            del self.T[i]
            del self.basis[i]
            self.m -= 1
        for j in range(n, self.ncols):
            self.banned.add(j)

    def _pivot(self, r, j, degenerate_entry=False):
        """Row operations making column j basic in row r."""
        T = self.T
        row_r = T[r]
        piv = row_r[j]
        if not piv:
            raise AssertionError("zero pivot")
        if piv != 1:
            inv = 1 / piv
            T[r] = row_r = [v * inv if v else v for v in row_r]
        nz = [l for l, v in enumerate(row_r) if v]
        for i in range(self.m):
            if i == r:
                continue
            f = T[i][j]
            if f:
                row_i = T[i]
                for l in nz:
                    row_i[l] -= f * row_r[l]
        old = self.basis[r]
        self.basis[r] = j
        self.status[j] = BASIC
        if degenerate_entry:
            self.status[old] = AT_LOWER
        return old

    def _iterate(self, D, phase):
        """Pivot until no improving nonbasic candidate remains; the
        entering variable is the first improving one (Bland)."""
        zero = Q(0)
        n_total = self.ncols
        while True:
            for j in range(n_total):
                if self.status[j] == BASIC or j in self.banned:
                    continue
                if self.lower[j] == self.upper[j]:
                    continue
                d = D[j]
                if self.status[j] == AT_LOWER and d < 0:
                    sg = 1
                    break
                if self.status[j] == AT_UPPER and d > 0:
                    sg = -1
                    break
            else:
                return "optimal"

            beta = self._basic_values()
            # own-gap candidate: flip to the opposite bound
            limit = None
            leaving_row = None
            if self.upper[j] is not None:
                limit = self.upper[j] - self.lower[j]
            col_rows = [(i, self.T[i][j]) for i in range(self.m) if self.T[i][j]]
            for i, t in col_rows:
                k = self.basis[i]
                st = sg * t
                if st > 0:
                    cand = (beta[i] - self.lower[k]) / st
                    hits = AT_LOWER
                else:
                    if self.upper[k] is None:
                        continue
                    cand = (self.upper[k] - beta[i]) / (-st)
                    hits = AT_UPPER
                # ties: prefer a basis change over a flip, then the
                # smallest leaving variable index (Bland)
                if limit is None or cand < limit or (
                        cand == limit and (leaving_row is None
                                           or k < self.basis[leaving_row])):
                    limit = cand
                    leaving_row = i
                    leaving_to = hits
            if limit is None:
                return "unbounded"

            self.pivots += 1
            if leaving_row is None:
                # bound flip: no basis change
                self.status[j] = AT_UPPER if self.status[j] == AT_LOWER else AT_LOWER
                continue
            old = self.basis[leaving_row]
            self._pivot(leaving_row, j)
            self.status[old] = leaving_to
            if phase == 1 and old >= self.n:
                self.banned.add(old)
            # update the reduced-cost row
            f = D[j]
            if f:
                row_r = self.T[leaving_row]
                for l in range(n_total):
                    if row_r[l]:
                        D[l] -= f * row_r[l]
                D[j] = zero


_COEFFS = st.one_of(st.integers(min_value=-4, max_value=4),
                    st.builds(Q, st.integers(min_value=-5, max_value=5),
                              st.integers(min_value=1, max_value=4)))


@st.composite
def bounded_lps(draw):
    """Small bounded LPs: non-unit and fractional coefficients, fractional
    rhs, redundant rows, lower bounds and finite upper bounds (integral,
    as branch and bound sets them, or fractional), objectives that can
    be unbounded below, and a rhs that is either drawn (often
    infeasible) or the image of a point within the bounds."""
    n = draw(st.integers(min_value=1, max_value=6))
    m = draw(st.integers(min_value=0, max_value=4))
    lower, upper, point = [], [], []
    for _ in range(n):
        lo = Q(draw(st.sampled_from([0, 0, 0, 1, 2, Q(1, 2)])))
        gap = draw(st.sampled_from([None, None, 0, 1, 2, 3, Q(5, 3)]))
        lower.append(lo)
        upper.append(None if gap is None else lo + gap)
        point.append(lo + draw(st.sampled_from([0, 1, Q(1, 3)])) * (
            1 if gap is None else gap))
    feasible = draw(st.booleans())
    rows, rhs = [], []
    for _ in range(m):
        cols = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                             min_size=1, max_size=n, unique=True))
        rows.append({j: Q(draw(_COEFFS)) for j in cols})
        rhs.append(sum((a * point[j] for j, a in rows[-1].items()), Q(0))
                   if feasible else Q(draw(_COEFFS)))
    if rows and draw(st.booleans()):
        # a redundant row: a multiple of an earlier one
        k = draw(st.integers(min_value=0, max_value=len(rows) - 1))
        lam = Q(draw(st.sampled_from([1, -2, 3])), draw(st.sampled_from([1, 2])))
        rows.append({j: lam * a for j, a in rows[k].items()})
        rhs.append(lam * rhs[k])
    objective = [Q(draw(_COEFFS)) for _ in range(n)]
    return rows, rhs, objective, lower, upper


@given(bounded_lps())
@settings(max_examples=400, deadline=None)
def test_integer_tableau_matches_fraction_tableau(problem):
    rows, rhs, objective, _, _ = problem
    n = len(objective)
    new = _Simplex(rows, rhs, objective)
    ref = _FractionSimplex(rows, rhs, objective, [0] * n, [None] * n)
    status, values, obj = new.solve()
    assert (status, values, obj) == ref.solve()
    assert new.pivots == ref.pivots
    if status is LPStatus.OPTIMAL:
        assert all(type(v) is RationalType for v in values)
        assert type(obj) is RationalType


@given(bounded_lps())
@settings(max_examples=200, deadline=None)
def test_bound_rows_match_native_bounds(problem):
    """A bound added as a row with its own slack column, as branch and
    bound adds it, gives the optimum of the reference's native bound."""
    rows, rhs, objective, lower, upper = problem
    bounds = [(j, -1, lo) for j, lo in enumerate(lower) if lo] + \
        [(j, 1, up) for j, up in enumerate(upper) if up is not None]
    problem = lp(len(objective), rows, rhs, objective)
    status, values, obj, _ = _solve_node(problem, bounds)
    ref_status, _, ref_obj = _FractionSimplex(rows, rhs, objective,
                                              lower, upper).solve()
    assert (status, obj) == (ref_status, ref_obj)
    if status is LPStatus.OPTIMAL:
        assert len(values) == len(objective)
        for v, lo, up in zip(values, lower, upper):
            assert lo <= v and (up is None or v <= up)


# -- branch and bound by rows against branching on native bounds --------

def _reference_branch_and_bound(problem, node_budget):
    """The branch and bound that ``solve_ilp`` replaced: each node holds
    lower/upper bound tuples and the reference tableau solves it with
    native bounds.  Returns status and value, or raises NodeBudgetError.
    """
    n = problem.num_vars
    stack = [(tuple([Q(0)] * n), tuple([None] * n))]
    incumbent_value, found, nodes = None, False, 0
    while stack:
        lower, upper = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise NodeBudgetError("reference budget", limit=node_budget, lower=None)
        if any(up is not None and up < lo for lo, up in zip(lower, upper)):
            continue
        status, values, obj = _FractionSimplex(
            list(problem.rows), list(problem.rhs), list(problem.objective),
            list(lower), list(upper)).solve()
        if status is LPStatus.UNBOUNDED:
            if nodes == 1:
                return LPStatus.UNBOUNDED, None
            break
        if status is not LPStatus.OPTIMAL:
            continue
        if incumbent_value is not None and obj >= incumbent_value:
            continue
        frac_var, frac_dist = None, Q(0)
        for j in range(n):
            v = values[j]
            if v.denominator == 1:
                continue
            f = v - math.floor(v)
            dist = min(f, 1 - f)
            if dist > frac_dist:
                frac_var, frac_dist = j, dist
        if frac_var is None:
            incumbent_value, found = obj, True
            continue
        fl = Q(math.floor(values[frac_var]))
        up_branch = tuple(max(lower[j], fl + 1) if j == frac_var else lower[j]
                          for j in range(n))
        new_upper = list(upper)
        cur = new_upper[frac_var]
        new_upper[frac_var] = fl if cur is None else min(cur, fl)
        stack.append((up_branch, upper))
        stack.append((lower, tuple(new_upper)))
    if not found:
        return LPStatus.INFEASIBLE, None
    return LPStatus.OPTIMAL, incumbent_value


_GAP = ([{0: Q(1), 1: Q(2)}], [Q(3)], [Q(1), Q(1)], [Q(0)] * 2, [None] * 2)
_KNAPSACK = ([{j: Q(2 * j + 3) for j in range(8)}], [Q(31)], [Q(1)] * 8,
             [Q(0)] * 8, [None] * 8)
# integral points only at x5 = 2, x1 = x3 = 0, x0 = 4 x4 - 2; the branch
# x5 <= 1, x3 <= 0 has none but walks up (4, 0, 0, 0, 1, 0) without end
_FREE_DIRECTION = (
    [{0: Q(-1), 1: Q(-1), 3: Q(1), 4: Q(4), 5: Q(-4, 3)}, {0: Q(0)},
     {0: Q(0)}, {1: Q(1), 3: Q(1), 5: Q(3)}],
    [Q(-2, 3), Q(0), Q(0), Q(6)], [Q(0)] * 6, [Q(0)] * 6, [None] * 6)


@given(bounded_lps())
@example(_GAP)
@example(_KNAPSACK)
@example(_FREE_DIRECTION)
@settings(max_examples=100, deadline=None)
def test_ilp_matches_reference_branch_and_bound(problem):
    """Status and value equal the native-bound search's; witnesses may
    differ between tied optima, and so may the trees.

    About a third of drawn programs branch at all.  About one in ten (an
    integer-infeasible program with free directions can branch forever)
    exhausts the reference's budget and is not compared; ``solve_ilp``
    gets five times that budget, so a search that stops closing its
    branches fails here instead of being skipped.  Pinned: the gap
    instance (3 nodes), the knapsack of ``test_ilp_node_budget`` (141
    nodes on both sides) and a program whose depth-first search would
    follow a free direction forever (the reference's tree ends, and
    ``solve_ilp`` ends after its deep nodes have waited)."""
    rows, rhs, objective, _, _ = problem
    problem = lp(len(objective), rows, rhs, [abs(c) for c in objective])
    try:
        expected = _reference_branch_and_bound(problem, node_budget=200)
    except NodeBudgetError:
        return
    result = solve_ilp(problem, node_budget=1000)
    assert (result.status, result.value) == expected
    if result.optimal:
        assert all(v.denominator == 1 for v in result.witness.values())
        assert sum((problem.objective[j] * v
                    for j, v in result.witness.items()), Q(0)) == result.value


@given(bounded_lps())
@settings(max_examples=100, deadline=None)
def test_solver_results_are_rationals(problem):
    rows, rhs, objective, _, _ = problem
    problem = lp(len(objective), rows, rhs, [abs(c) for c in objective])
    results = [solve_lp(problem)]
    try:
        results.append(solve_ilp(problem, node_budget=50))
    except NodeBudgetError:
        pass
    for result in results:
        if result.optimal:
            assert type(result.value) is RationalType
            assert all(type(v) is RationalType for v in result.witness.values())


@st.composite
def integer_lps(draw):
    """Small programs whose coefficients, rhs and costs are all ints."""
    n = draw(st.integers(min_value=1, max_value=5))
    small = st.integers(min_value=-4, max_value=4)
    rows = [{j: draw(small) for j in draw(st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=1, max_size=n, unique=True))}
            for _ in range(draw(st.integers(min_value=0, max_value=4)))]
    rhs = [draw(small) for _ in rows]
    objective = [draw(st.integers(min_value=0, max_value=4)) for _ in range(n)]
    return n, rows, rhs, objective


def _result_fields(solve, problem):
    try:
        r = solve(problem)
    except NodeBudgetError:
        return "budget"
    return r.status, r.value, r.witness, r.pivots


@given(integer_lps())
@settings(max_examples=150, deadline=None)
def test_int_coefficients_stay_ints_and_solve_like_rationals(problem):
    n, rows, rhs, objective = problem
    ints = lp(n, rows, rhs, objective)
    rationals = lp(n, [{j: Q(v) for j, v in row.items()} for row in rows],
                   [Q(v) for v in rhs], [Q(v) for v in objective])
    assert all(type(v) is int for row in ints.rows for v in row.values())
    assert all(type(v) is int for v in (*ints.rhs, *ints.objective))
    assert ints.to_json() == rationals.to_json()
    for solve in (solve_lp, lambda problem: solve_ilp(problem, node_budget=50)):
        fields = _result_fields(solve, ints)
        assert fields == _result_fields(solve, rationals)
        if fields != "budget" and fields[0] is LPStatus.OPTIMAL:
            _, value, witness, _ = fields
            assert type(value) is RationalType
            assert all(type(v) is RationalType for v in witness.values())


@given(bounded_lps())
@example(_GAP)
@example(_KNAPSACK)
@settings(max_examples=100, deadline=None)
def test_ilp_from_given_root_skips_only_the_root_solve(problem):
    rows, rhs, objective, _, _ = problem
    problem = lp(len(objective), rows, rhs, [abs(c) for c in objective])
    root = solve_lp(problem)
    if not root.optimal:
        return
    try:
        fresh = solve_ilp(problem, node_budget=200)
    except NodeBudgetError:
        return
    given_root = solve_ilp(problem, node_budget=200, root=root)
    assert (given_root.status, given_root.value, given_root.witness) == \
        (fresh.status, fresh.value, fresh.witness)
    assert given_root.pivots == fresh.pivots - root.pivots


# -- filling-shaped programs: degenerate, with +-1 column pairs -----------

def _filling_programs():
    """The whole filling LP, over every cell, of every circuit of the Z2
    k8, S2 k8 and Z3 k5 hyperbolicity probes, at the circuit's reach r0
    and at r0 + 1, as the probe escalates them.  Unlike the drawn programs above these
    are wide (up to 56 x 112 and 52 x 120) and highly degenerate, and column 2c + 1
    is exactly -(column 2c)."""
    from fillprobe.catalog import load
    from fillprobe.complexes import enumerate_circuits, get_complex
    from fillprobe.filling import _filling_program
    from fillprobe.probes import _circuit_reach

    programs = []
    for name, k_max in (("Z2", 8), ("S2", 8), ("Z3", 5)):
        presentation, rws = load(name)
        ball = get_complex(presentation, rws, k_max // 2).ball
        for circuit in enumerate_circuits(ball, k_max):
            r0 = max(_circuit_reach(ball, circuit), 1)
            for radius in (r0, r0 + 1):
                complex_ = get_complex(presentation, rws, radius)
                program = _filling_program(
                    circuit.chain, complex_, range(complex_.num_cells))
                if program is not None:
                    programs.append(program)
    return programs


def test_integer_tableau_matches_fraction_tableau_on_filling_programs():
    programs = _filling_programs()
    assert len(programs) == 184
    assert max(len(p.rows) * p.num_vars for p in programs) == 56 * 112
    for p in programs:
        new = _Simplex(list(p.rows), list(p.rhs), list(p.objective))
        ref = _FractionSimplex(list(p.rows), list(p.rhs), list(p.objective),
                               [0] * p.num_vars, [None] * p.num_vars)
        assert new.solve() == ref.solve()
        assert new.pivots == ref.pivots
