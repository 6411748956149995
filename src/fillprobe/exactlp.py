"""Exact rational linear and integer programming.

The core is a dense-tableau two-phase simplex over exact rationals for
the standard form min c.x subject to A x = b, x >= 0.  The tableau is
fraction-free: each row is a list of Python ints over one positive int
denominator, eliminated by integer cross-multiplication (Edmonds 1967,
Bareiss 1968) and reduced by its gcd, so no rational object is built per
entry; values leave as rationals.  One pivot routine updates the
constraint rows and both reduced-cost rows, phase 1's and the real
objective's.  Pivoting follows Bland's rule (first improving column,
smallest leaving index on ties) for its termination guarantee.  Integer
programs are solved by depth-first branch and bound that adds each
branch bound as a row with its own slack column (Land and Doig 1960), so
every node is again a standard-form program, solved exactly.

The objective is read off the tableau, not recomputed from the point.
Every Optimal result, rational or integral, is verified against its
instance before being returned: exact residuals, signs, integrality
where asked for, and c.x equal to the tableau's objective.

The min-max problem of the amenability probe (least t with A x = b and
|x_j| <= t, A a network matrix) is not solved by the simplex: by Gale's
supply-demand theorem its optimum is the largest demand-to-capacity
ratio of a cut, found exactly by Dinkelbach iteration over integer
Dinic max-flows.  Its results carry two certificates, checked before
being returned: the flow (an upper bound) and a cut of the same ratio
(a lower bound), or a cut no column crosses (infeasibility).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum

from .errors import FillprobeError, NodeBudgetError
from .rationals import Q, is_integral, qstr

DEFAULT_NODE_BUDGET = 100_000
# branch-and-bound depth beyond which a node waits (see solve_ilp)
_DIVE_DEPTH = 64


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class SolverError(FillprobeError):
    """Internal inconsistency; indicates a bug, not bad input."""


def _exact(v):
    return v if isinstance(v, int) else Q(v)


@dataclass(frozen=True)
class LinearProgram:
    """min c.x  subject to  A x = b,  x >= 0 (componentwise).

    ``rows`` holds A sparsely: one {column: coefficient} dict per row.
    Coefficients, rhs and costs are kept as ints where they are ints and
    as rationals (``Q``) otherwise; the solvers take either, and their
    values, objectives and witnesses are rationals.
    """

    num_vars: int
    rows: tuple
    rhs: tuple
    objective: tuple

    def __post_init__(self):
        if len(self.rows) != len(self.rhs):
            raise ValueError("row/rhs length mismatch")
        if len(self.objective) != self.num_vars:
            raise ValueError("objective length must equal num_vars")
        for row in self.rows:
            for j in row:
                if not 0 <= j < self.num_vars:
                    raise ValueError(f"column {j} out of range")
        object.__setattr__(
            self, "rows",
            tuple({j: _exact(v) for j, v in r.items()} for r in self.rows))
        object.__setattr__(self, "rhs", tuple(_exact(v) for v in self.rhs))
        object.__setattr__(self, "objective", tuple(_exact(v) for v in self.objective))

    def to_json(self) -> str:
        coords = []
        for i, row in enumerate(self.rows):
            for j, v in sorted(row.items()):
                coords.append([i, j, qstr(v)])
        return json.dumps({
            "num_vars": self.num_vars,
            "constraints": coords,
            "rhs": [qstr(v) for v in self.rhs],
            "objective": [qstr(v) for v in self.objective],
        }, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class LPResult:
    status: LPStatus
    value: object = None
    witness: dict = None
    pivots: int = 0
    cut: tuple = None           # solve_minmax's lower-bound certificate

    @property
    def optimal(self) -> bool:
        return self.status is LPStatus.OPTIMAL


def _int_row(values):
    """The rationals ``values`` as ints over their least common
    denominator, and that denominator."""
    den = math.lcm(*(int(v.denominator) for v in values))
    return [int(v.numerator) * (den // int(v.denominator)) for v in values], den


def _combine(row, den, a, b, prow, nz):
    """The row (row * a - b * prow) / (den * a), as (ints, denominator).

    ``a`` is positive and ``nz`` lists the columns where ``prow`` is
    nonzero.  With a = 1 only those columns change, in place; otherwise
    the row is reduced by the gcd of its entries and denominator."""
    if a == 1:
        for l in nz:
            row[l] -= b * prow[l]
        return row, den
    row = [x * a - b * y for x, y in zip(row, prow)]
    den *= a
    g = math.gcd(den, *row)
    if g > 1:
        row = [x // g for x in row]
        den //= g
    return row, den


class _Simplex:
    """min c.x  s.t.  A x = b,  x >= 0.

    The tableau is fraction-free: row i is a list of Python ints
    ``T[i]`` over one positive int ``den[i]``, so each entry keeps
    exactly the rational value T[i][l] / den[i] that a rational tableau
    would hold, and every pivot choice is the same.  A pivot divides its
    row by the pivot element and removes the gcd, then eliminates the
    other rows by integer cross-multiplication; where the pivot row's
    denominator divides the eliminated entry (always, when it is 1) only
    the pivot row's nonzero columns change.  Both phases' reduced-cost
    rows are held the same way after the constraint rows, and the one
    pivot routine updates them too; a row's rhs entry is minus its
    objective.

    Only the structural columns 0..n-1 and the rhs (index n) are
    stored.  Phase 1 starts at the basis of one artificial per row (row
    i's basic variable is n + i); an artificial that leaves never
    re-enters, so its column is never read.  A basic column is a unit
    column with reduced cost exactly 0, so the pivot rules need no
    basic set.  Row i's basic variable has the value T[i][n] / den[i];
    every nonbasic variable is 0.  Values leave as rationals (``Q``).
    """

    def __init__(self, rows, rhs, objective):
        """Coefficients, rhs and costs are ints or rationals."""
        self.m = len(rows)
        self.n = len(objective)
        self.rows = rows
        self.rhs = rhs
        self.c = objective
        self.pivots = 0

    def solve(self):
        """Status, the values of x (a list) and the objective c.x."""
        m, n = self.m, self.n
        self.T, self.den = [], []
        for i in range(m):
            cols = list(self.rows[i])
            nums, d = _int_row([self.rows[i][j] for j in cols] + [self.rhs[i]])
            # each artificial starts at |b_i|
            s = 1 if nums[-1] >= 0 else -1
            row = [0] * (n + 1)
            for j, a in zip(cols, nums):
                row[j] = s * a
            row[n] = s * nums[-1]
            self.T.append(row)
            self.den.append(d)
        self.basis = [n + i for i in range(m)]

        # phase 1's row, last, charges each artificial 1, so it is
        # -sum_i T[i]; the real objective's row starts as c, because the
        # artificials cost nothing in it
        dD = math.lcm(*self.den)
        D = [0] * (n + 1)
        for i in range(m):
            f = dD // self.den[i]
            row = self.T[i]
            for j in self.rows[i]:
                D[j] -= f * row[j]
            D[n] -= f * row[n]
        C, dC = _int_row([*self.c, 0])
        self.T += [C, D]
        self.den += [dC, dD]

        # phase 1: drive the sum of the artificials to zero
        infeas = self._iterate()
        if infeas is None:
            raise SolverError("phase 1 reported an unbounded objective")
        if infeas > 0:
            return LPStatus.INFEASIBLE, None, None
        self._expel_artificials()
        self.T.pop()
        self.den.pop()

        # phase 2 on the real objective's row, carried through phase 1
        obj = self._iterate()
        if obj is None:
            return LPStatus.UNBOUNDED, None, None

        values = [Q(0)] * n
        for i in range(self.m):
            values[self.basis[i]] = Q(self.T[i][n], self.den[i])
        return LPStatus.OPTIMAL, values, obj

    def _expel_artificials(self):
        """Pivot zero-valued artificials out of the basis; drop rows that
        turn out redundant."""
        n = self.n
        drop = []
        for i in range(self.m):
            if self.basis[i] < n:
                continue
            row = self.T[i]
            pivot_col = next((j for j in range(n) if row[j]), None)
            if pivot_col is None:
                drop.append(i)
            else:
                self._pivot(i, pivot_col)
        for i in reversed(drop):
            del self.T[i]
            del self.den[i]
            del self.basis[i]
            self.m -= 1

    def _pivot(self, r, j):
        """Row operations making column j basic in row r, on every row
        held: the constraint rows and the reduced-cost rows after them."""
        T, den = self.T, self.den
        row_r = T[r]
        piv = row_r[j]
        if not piv:
            raise SolverError("zero pivot")
        if piv != den[r]:
            # the row over its pivot element: ints row_r over piv
            if piv < 0:
                row_r = [-v for v in row_r]
                piv = -piv
            g = math.gcd(*row_r)
            if g > 1:
                row_r = [v // g for v in row_r]
                piv //= g
            T[r], den[r] = row_r, piv
        nz = [l for l, v in enumerate(row_r) if v]
        for i in range(len(T)):
            f = T[i][j]
            if f and i != r:
                g = math.gcd(piv, f)
                T[i], den[i] = _combine(T[i], den[i], piv // g, f // g, row_r, nz)
        self.basis[r] = j

    def _iterate(self):
        """Pivot until no column has a negative reduced cost in the last
        row held; the entering column is the first one that does
        (Bland).  Returns the objective, minus that row's rhs entry, or
        None when it is unbounded below."""
        T, den, basis, n = self.T, self.den, self.basis, self.n
        while True:
            D = T[-1]
            for j in range(n):
                if D[j] < 0:
                    break
            else:
                return Q(-D[n], den[-1])

            # ratio test: the least T[i][n] / T[i][j] over rows with
            # T[i][j] > 0, ties to the smallest leaving index (Bland)
            leaving_row = None
            for i in range(self.m):
                t = T[i][j]
                if t <= 0:
                    continue
                num = T[i][n]
                if leaving_row is not None:
                    lhs, rhs = num * best_t, best_num * t
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leaving_row]):
                        continue
                best_num, best_t, leaving_row = num, t, i
            if leaving_row is None:
                return None

            self.pivots += 1
            self._pivot(leaving_row, j)


def _verify_equalities(rows, rhs, values):
    for i, row in enumerate(rows):
        acc = Q(0)
        for j, a in row.items():
            v = values[j]
            if v:
                acc += a * v
        if acc != rhs[i]:
            raise SolverError(f"witness violates constraint {i}")


def _verified(lp: LinearProgram, values, obj, pivots, *,
              integral: bool = False) -> LPResult:
    """The Optimal result with ``values`` (a list) as its witness, once
    they are checked against ``lp``: every row, x >= 0, integrality when
    asked for, and c.x equal to ``obj``, the solver's objective."""
    _verify_equalities(lp.rows, lp.rhs, values)
    for v in values:
        if v < 0:
            raise SolverError("witness violates nonnegativity")
        if integral and not is_integral(v):
            raise SolverError("integral witness has a fractional entry")
    if sum((cj * v for cj, v in zip(lp.objective, values) if cj and v), Q(0)) != obj:
        raise SolverError("objective mismatch")
    witness = {j: v for j, v in enumerate(values) if v}
    return LPResult(LPStatus.OPTIMAL, obj, witness, pivots)


def solve_lp(lp: LinearProgram) -> LPResult:
    """Exact optimum of a standard-form LP at a basic feasible solution."""
    simplex = _Simplex(list(lp.rows), list(lp.rhs), list(lp.objective))
    status, values, obj = simplex.solve()
    if status is not LPStatus.OPTIMAL:
        return LPResult(status, pivots=simplex.pivots)
    return _verified(lp, values, obj, simplex.pivots)


def _solve_node(lp: LinearProgram, bounds):
    """``lp`` under branch bounds (j, sign, v), each one row with its own
    slack column s: x_j + s = v for sign 1 (x_j <= v), x_j - s = v for
    sign -1 (x_j >= v).  Returns status, the original variables' values,
    objective and pivots."""
    n = lp.num_vars
    rows, rhs = list(lp.rows), list(lp.rhs)
    for k, (j, sign, v) in enumerate(bounds):
        rows.append({j: 1, n + k: sign})
        rhs.append(v)
    simplex = _Simplex(rows, rhs, [*lp.objective, *[0] * len(bounds)])
    status, values, obj = simplex.solve()
    if values is not None:
        values = values[:n]
    return status, values, obj, simplex.pivots


def _branch(bounds, j, sign, v):
    """``bounds`` with x_j's bound on side ``sign`` set to v (a branch
    only ever tightens it, so the old row is dropped)."""
    return tuple(b for b in bounds if b[:2] != (j, sign)) + ((j, sign, v),)


def solve_ilp(lp: LinearProgram, *,
              node_budget: int = DEFAULT_NODE_BUDGET,
              root: LPResult | None = None) -> LPResult:
    """Integral optimum by branch and bound over exact LP relaxations.

    Every variable is integral.  The search is depth first; a node is a
    tuple of branch bounds, each added to the program as a row (Land and
    Doig 1960; see ``_solve_node``).  Branching picks the most-fractional
    variable and explores the floor branch first.  Exhausting the node
    budget raises NodeBudgetError carrying the best lower/upper bounds
    known.

    Where the relaxation has a free direction, an integer-infeasible
    branch can go on forever, each child a little further along the
    direction.  So a child deeper than ``_DIVE_DEPTH`` waits until every
    shallower node is done; then the limit doubles and the waiting nodes
    go on, depth first again.  Every node of finite depth is thus reached
    in time, the branch leading to any integral point among them.  A
    search that stays within the limit is plain depth first.

    ``root`` is an optimal result of ``lp``'s relaxation, when the caller
    has one: ``solve_lp(lp)``'s, or the rational filling norm's optimum
    lifted to ``lp``'s columns.  Any optimal point of ``lp`` serves,
    basic or not.  The root node then takes it instead of solving ``lp``
    again, and ``pivots`` counts only the pivots of the other nodes.
    """
    stack = [((), None, 0)]
    deep = []
    depth_limit = _DIVE_DEPTH
    incumbent_value = None
    incumbent = None
    nodes = 0
    total_pivots = 0

    while stack or deep:
        if not stack:
            stack, deep = deep, []
            depth_limit *= 2
        bounds, parent_bound, depth = stack.pop()
        nodes += 1
        if nodes > node_budget:
            open_bounds = [pb for (_, pb, _) in stack + deep if pb is not None]
            if parent_bound is not None:
                open_bounds.append(parent_bound)
            lower_bound = min(open_bounds) if open_bounds else incumbent_value
            raise NodeBudgetError(
                f"branch-and-bound exceeded {node_budget} nodes",
                limit=node_budget, lower=lower_bound,
                upper=incumbent_value,
                witness=incumbent)
        if root is not None and not bounds:
            status, obj = root.status, root.value
            values = [root.witness.get(j, Q(0)) for j in range(lp.num_vars)]
        else:
            status, values, obj, pivots = _solve_node(lp, bounds)
            total_pivots += pivots
        if status is LPStatus.UNBOUNDED:
            # only the root can be: every node's polytope lies inside the root's
            return LPResult(LPStatus.UNBOUNDED, pivots=total_pivots)
        if status is not LPStatus.OPTIMAL:
            continue
        if incumbent_value is not None and obj >= incumbent_value:
            continue
        frac_var, frac_dist = None, Q(0)
        for j, v in enumerate(values):
            if is_integral(v):
                continue
            f = v - math.floor(v)
            dist = min(f, 1 - f)
            if dist > frac_dist:
                frac_var, frac_dist = j, dist
        if frac_var is None:
            incumbent_value = obj
            incumbent = {j: v for j, v in enumerate(values) if v}
            continue
        fl = math.floor(values[frac_var])
        children = deep if depth >= depth_limit else stack
        children.append((_branch(bounds, frac_var, -1, fl + 1), obj, depth + 1))
        children.append((_branch(bounds, frac_var, 1, fl), obj, depth + 1))

    if incumbent is None:
        return LPResult(LPStatus.INFEASIBLE, pivots=total_pivots)
    values = [incumbent.get(j, Q(0)) for j in range(lp.num_vars)]
    return _verified(lp, values, incumbent_value, total_pivots, integral=True)


def _network_ends(rows, num_vars):
    """(head, tail) node of every column: the row holding its +1 and the
    row holding its -1, or the ground node len(rows) where the column has
    no such entry.

    Raises ValueError naming the first column that is not a network
    column (a coefficient other than 0, +1, -1, or two entries of one
    sign)."""
    ground = len(rows)
    head = [ground] * num_vars
    tail = [ground] * num_vars
    for i, row in enumerate(rows):
        for j, a in row.items():
            if not 0 <= j < num_vars:
                raise ValueError(f"column {j} out of range")
            if not a:
                continue
            ends = head if a == 1 else tail if a == -1 else None
            if ends is None or ends[j] != ground:
                raise ValueError(
                    f"column {j} is not a network column: it needs at most "
                    f"one +1 and one -1 entry (row {i} has {qstr(a)})")
            ends[j] = i
    return head, tail


def _scaled_demands(rhs):
    """Integer demands L*b_i, L the lcm of the rhs denominators, plus the
    ground node's demand -sum(L*b_i) last; and L."""
    demands, scale = _int_row(rhs)
    demands.append(-sum(demands))
    return demands, scale


def _max_flow(adj, to, cap, source, sink):
    """Dinic's algorithm on integer capacities, augmenting ``cap`` in
    place.  Arc ``e ^ 1`` is the reverse of arc ``e``.  The search for
    augmenting paths is iterative, so path length is not limited by the
    recursion limit.  Returns the flow value and the set of nodes still
    reachable from the source in the residual network."""
    n = len(adj)
    total = 0
    while True:
        level = [-1] * n
        level[source] = 0
        queue = [source]
        for v in queue:
            for e in adj[v]:
                w = to[e]
                if cap[e] and level[w] < 0:
                    level[w] = level[v] + 1
                    queue.append(w)
        if level[sink] < 0:
            return total, set(queue)
        pos = [0] * n
        path = []
        v = source
        while True:
            if v == sink:
                f = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= f
                    cap[e ^ 1] += f
                total += f
                # resume from the tail of the first saturated arc
                k = next(k for k, e in enumerate(path) if not cap[e])
                del path[k:]
                v = to[path[-1]] if path else source
                continue
            arcs = adj[v]
            i = pos[v]
            nxt = level[v] + 1
            while i < len(arcs) and not (cap[arcs[i]] and level[to[arcs[i]]] == nxt):
                i += 1
            pos[v] = i
            if i < len(arcs):
                path.append(arcs[i])
                v = to[arcs[i]]
            elif v == source:
                break
            else:
                level[v] = -1
                v = to[path.pop() ^ 1]
                pos[v] += 1


def _verify_cut(rows, rhs, num_vars, cut, t):
    """Check a lower-bound certificate in integers, from the rows alone.

    For any feasible x the net amount sum_{i in S} b_i entering the node
    set S (index len(rows) is the ground node) passes through the columns
    with one end in S, each at most t.  So an optimal t must equal
    demand(S) / crossing(S), and ``t is None`` (infeasible) needs positive
    demand with no crossing column."""
    inside = set(cut)
    head, tail = _network_ends(rows, num_vars)
    crossing = sum(1 for j in range(num_vars)
                   if (head[j] in inside) != (tail[j] in inside))
    demands, scale = _scaled_demands(rhs)
    demand = sum(demands[i] for i in inside)
    if t is None:
        ok = crossing == 0 and demand > 0
    else:
        ok = crossing > 0 and demand * int(t.denominator) == \
            int(t.numerator) * scale * crossing
    if not ok:
        raise SolverError("min-max cut certificate does not match its value")


def solve_minmax(rows, rhs, num_vars: int) -> LPResult:
    """min t  such that  A x = b  and |x_j| <= t for every variable.

    A must be a network matrix: each column holds at most one +1 and at
    most one -1 (zero entries are ignored), else ValueError.  Column j
    is then an arc carrying x_j from its -1 row to its +1 row; a column
    with a single entry is attached to a ground node that absorbs the
    balance -sum(b).

    By Gale's supply-demand theorem the optimum is the largest ratio
    b(S) / c(S) over node sets S with b(S) > 0, where c(S) counts the
    columns with one end in S; a set with c(S) = 0 makes the system
    infeasible.  On the amenability probe's incidence rows this is the
    largest Folner ratio |S| / |dS|, the bounded-flow/Folner duality
    of Block-Weinberger.  The optimum is found by Dinkelbach iteration
    on t = p/q, starting at 0: each round is one Dinic max-flow with
    integer capacities, q times the scaled demand on each node's source
    or sink arc and p on each column arc, both ways.  A flow short of
    the total demand yields a min cut whose ratio is the next t; a
    saturating flow proves the current t feasible.

    An Optimal result carries the primal witness x = flow / (q L), L the
    lcm of the rhs denominators, and in ``cut`` the node set of the last
    short round, a lower-bound certificate with ratio exactly t (None when
    b = 0 and t = 0).  An Infeasible result's ``cut`` is a set with
    positive demand and no crossing column.  Both are verified before
    being returned.
    """
    if len(rows) != len(rhs):
        raise ValueError("row/rhs length mismatch")
    rows = [dict(r) for r in rows]
    rhs = [Q(v) for v in rhs]
    head, tail = _network_ends(rows, num_vars)
    if all(v == 0 for v in rhs):
        return LPResult(LPStatus.OPTIMAL, Q(0), {})

    m = len(rows)
    demands, scale = _scaled_demands(rhs)
    total_demand = sum(d for d in demands if d > 0)
    source, sink = m + 1, m + 2
    # arc 2k runs tail -> head of the k-th nonempty column, 2k+1 back
    columns = [(j, tail[j], head[j]) for j in range(num_vars) if head[j] != tail[j]]
    adj = [[] for _ in range(m + 3)]
    to = []
    for _, u, v in columns:
        adj[u].append(len(to))
        to.append(v)
        adj[v].append(len(to))
        to.append(u)
    for v, d in enumerate(demands):
        if d:
            a, b = (v, sink) if d > 0 else (source, v)
            adj[a].append(len(to))
            to.append(b)
            adj[b].append(len(to))
            to.append(a)

    p, q, cut = 0, 1, None
    while True:
        cap = [p] * (2 * len(columns))
        for d in demands:
            if d:
                cap += (q * abs(d), 0)
        flow, reached = _max_flow(adj, to, cap, source, sink)
        if flow == q * total_demand:
            break
        cut = tuple(v for v in range(m + 1) if v not in reached)
        demand = sum(demands[v] for v in cut)
        crossing = sum(1 for _, u, v in columns
                       if (u in reached) != (v in reached))
        if crossing == 0:
            _verify_cut(rows, rhs, num_vars, cut, None)
            return LPResult(LPStatus.INFEASIBLE, cut=cut)
        g = math.gcd(demand, crossing)
        p, q = demand // g, crossing // g

    t = Q(p, q * scale)
    witness = {}
    for k, (j, _, _) in enumerate(columns):
        f = p - cap[2 * k]
        if f:
            witness[j] = Q(f, q * scale)
    xvals = [witness.get(j, Q(0)) for j in range(num_vars)]
    _verify_equalities(rows, rhs, xvals)
    if any(abs(v) > t for v in xvals):
        raise SolverError("min-max witness violates its bound")
    _verify_cut(rows, rhs, num_vars, cut, t)
    return LPResult(LPStatus.OPTIMAL, t, witness, cut=cut)
