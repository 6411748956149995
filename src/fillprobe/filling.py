"""Filling norms of 1-boundaries in a truncated complex.

The rational norm is the linear program

    min sum(a+ + a-)   s.t.   d2 (a+ - a-) = b,   a+, a- >= 0,

whose optimum at a basic solution is automatically rational; the
integral norm solves the same program with integrality imposed.  The
rational norm first substitutes along a maximal collapse order: each
collapsed cell takes the same value in every filling.  The simplex then
solves the program over the core, the cells left over, for what remains
of b; a complete collapse (every Z2 and S2 ball checked, Z3 through
radius 2) leaves no core and calls no simplex.  The integral norm's
branch and bound runs on the whole program.  Values computed in a ball
are exact for the truncated complex and upper bounds for the full
complex; certificates carry that distinction explicitly and never
claim global exactness.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .complexes import DEFAULT_VERTEX_CAP, Chain, TwoComplex, get_complex
from .errors import NotABoundaryError, NotACycleError
from .exactlp import (DEFAULT_NODE_BUDGET, LinearProgram, LPResult, LPStatus, solve_ilp,
                      solve_lp)
from .presentation import GroupPresentation
from .rationals import Q, is_integral, qstr
from .rewriting import RewritingSystem

RING_Q = "Q"
RING_Z = "Z"

STATUS_UPPER_BOUND = "upper-bound"
STATUS_EXACT_WITHIN_BALL = "exact-within-ball"


@dataclass(frozen=True)
class FillingCertificate:
    """An exact filling with its norm value and provenance.

    ``status`` records soundness: values are exact for the truncated
    complex at ``radius`` and upper bounds for the untruncated one.
    ``stabilized`` marks agreement across two consecutive radii.
    """

    value: object
    witness: Chain
    ring: str
    radius: int
    status: str = STATUS_UPPER_BOUND
    stabilized: bool = False

    def to_dict(self) -> dict:
        return {
            "value": qstr(self.value),
            "ring": self.ring,
            "radius": self.radius,
            "status": self.status,
            "stabilized": self.stabilized,
            "witness": {str(cell): qstr(c)
                        for cell, c in sorted(self.witness.entries.items())},
            "witness_l1": qstr(self.witness.l1()),
        }


def _require_cycle(b: Chain, complex_: TwoComplex):
    if b.dimension != 1:
        raise NotACycleError("expected a 1-chain")
    if b.entries and max(b.entries) >= complex_.ball.num_edges:
        raise NotACycleError("chain indexes edges outside this complex")
    if not complex_.apply_d1(b).is_zero():
        raise NotACycleError("chain is not a cycle (nonzero boundary)")


def _cotree_edges(ball, row_edges):
    """The edges of ``row_edges`` (sorted) outside the spanning forest T
    that union-find picks: the first edge to join two components goes
    into T, so a self-loop never does."""
    parent: dict = {}       # roots have no entry

    def find(v):
        root = v
        while root in parent:
            root = parent[root]
        while v != root:
            parent[v], v = root, parent[v]
        return root

    cotree = []
    for e in row_edges:
        s, _, t = ball.edge(e)
        rs, rt = find(s), find(t)
        if rs == rt:
            cotree.append(e)
        else:
            parent[rs] = rt
    return cotree


def _covered_edges(b: Chain, complex_: TwoComplex, cells) -> set | None:
    """The edges that some cell of ``cells`` covers, or None when an edge
    of b is not among them (then those cells do not fill b)."""
    covered = set().union(*(complex_.d2[ci] for ci in cells))
    return None if any(e not in covered for e in b.entries) else covered


def _no_filling(b: Chain, complex_: TwoComplex, ring: str) -> NotABoundaryError:
    if _covered_edges(b, complex_, range(complex_.num_cells)) is None:
        return NotABoundaryError("no filling within this ball (uncovered edge)")
    return NotABoundaryError("no integral filling within this ball" if ring == RING_Z
                             else "no filling within this ball")


def _filling_program(b: Chain, complex_: TwoComplex, cells):
    """The LP over the columns a+, a- of each cell of ``cells`` (2k and
    2k + 1 for the k-th) and the rows of active edges, or None when some
    edge of the cycle b is covered by none of those cells (immediately
    infeasible).

    The active edges are those some cell of ``cells`` covers; rows are
    kept only for the cotree, the active edges outside a spanning forest
    T of the graph they span.  T's rows are implied: if a meets the
    cotree rows, the residual d2 a - b is zero off T, and it is a cycle
    because d1 d2 = 0 and b is a cycle; a forest carries no nonzero
    cycle, so the residual is 0.  The feasible set and the optimum are
    those of the program with every active row."""
    covered = _covered_edges(b, complex_, cells)
    if covered is None:
        return None
    cotree = _cotree_edges(complex_.ball, sorted(covered))
    row_of = {e: i for i, e in enumerate(cotree)}
    rows = [dict() for _ in row_of]
    for k, ci in enumerate(cells):
        for e, inc in complex_.d2[ci].items():
            i = row_of.get(e)
            if i is not None:
                rows[i].update({2 * k: inc, 2 * k + 1: -inc})
    rhs = [b.entries.get(e, 0) for e in cotree]
    return LinearProgram(2 * len(cells), rows, rhs, [1] * (2 * len(cells)))


def _witness_chain(witness: dict, cells) -> Chain:
    """The 2-chain of an LP point over the columns of ``cells``."""
    entries: dict = {}
    for j, v in witness.items():
        k, part = divmod(j, 2)
        entries[cells[k]] = entries.get(cells[k], Q(0)) + (v if part == 0 else -v)
    return Chain(2, entries)


def _certificate(b: Chain, complex_: TwoComplex, ring: str, value, witness: Chain,
                 status: str = STATUS_UPPER_BOUND,
                 stabilized: bool = False) -> FillingCertificate:
    # d2 c = b over ints: both sides times the lcm m of their denominators
    m = lcm(*(c.denominator for c in (*witness.entries.values(), *b.entries.values())))
    residual = {e: -c.numerator * (m // c.denominator) for e, c in b.entries.items()}
    for ci, c in witness.entries.items():
        k = c.numerator * (m // c.denominator)
        for e, inc in complex_.d2[ci].items():
            residual[e] = residual.get(e, 0) + k * inc
    if any(residual.values()):
        raise AssertionError("filling witness does not bound b")
    if witness.l1() != value:
        raise AssertionError("filling witness norm does not match value")
    if ring == RING_Z and not witness.is_integral():
        raise AssertionError("integral certificate has fractional witness")
    return FillingCertificate(value, witness, ring, complex_.ball.radius,
                              status, stabilized)


def _substitute(b: Chain, complex_: TwoComplex):
    """The value c that every filling of b takes on the collapsed cells
    (a pair's edge meets no later cell and no core cell, so its residual
    is final when its cell is reached), and the cycle b - d2 c."""
    residual, c = dict(b.entries), {}
    for ci, e in complex_.collapses():
        if residual.get(e):
            col = complex_.d2[ci]
            c[ci] = x = residual[e] / col[e]
            for f, inc in col.items():
                residual[f] = residual.get(f, 0) - x * inc
    return c, Chain(1, residual)


def filling_norm_q(b: Chain, complex_: TwoComplex) -> FillingCertificate:
    """Minimal l1 mass of a rational filling within the ball.

    Raises NotABoundaryError when b has no filling within the ball; that
    never certifies that b fails to bound in the full complex.
    """
    _require_cycle(b, complex_)
    c, residual = _substitute(b, complex_)
    if not residual.is_zero():
        collapsed = {ci for ci, _ in complex_.collapses()}
        core = [ci for ci in range(complex_.num_cells) if ci not in collapsed]
        lp = _filling_program(residual, complex_, core)
        result = solve_lp(lp) if lp is not None else None
        if result is None or result.status is LPStatus.INFEASIBLE:
            raise _no_filling(b, complex_, RING_Q)
        c.update(_witness_chain(result.witness, core).entries)
    witness = Chain(2, c)
    if len(complex_.collapses()) < complex_.num_cells:
        # the whole program's optimum, as a+ = max(c, 0), a- = max(-c, 0)
        point = {2 * ci + (v < 0): abs(v) for ci, v in witness.entries.items()}
        complex_.relaxations[frozenset(b.entries.items())] = LPResult(
            LPStatus.OPTIMAL, witness.l1(), point)
    return _certificate(b, complex_, RING_Q, witness.l1(), witness)


def filling_norm_z(b: Chain, complex_: TwoComplex, *,
                   node_budget: int = DEFAULT_NODE_BUDGET) -> FillingCertificate:
    """Minimal l1 mass of an integral filling within the ball (ILP)."""
    _require_cycle(b, complex_)
    if not b.is_integral():
        raise NotACycleError("integral norm needs an integral boundary")
    if b.is_zero():
        return _certificate(b, complex_, RING_Z, Q(0), Chain(2, {}))
    cells = range(complex_.num_cells)
    lp = _filling_program(b, complex_, cells)
    if lp is None:
        raise _no_filling(b, complex_, RING_Z)
    # the rational optimum that filling_norm_q kept where the ball has a
    # core, or else the simplex's, is branch and bound's root node;
    # where it is integral, it is the answer
    result = complex_.relaxations.get(frozenset(b.entries.items())) or solve_lp(lp)
    fractional = result.optimal and not all(is_integral(v) for v in result.witness.values())
    if fractional and any(not is_integral(result.witness.get(2 * ci + part, 0))
                          for ci, _ in complex_.collapses() for part in (0, 1)):
        # a collapsed cell takes the same value in every filling, and
        # this one is fractional: branch and bound could not close it
        raise _no_filling(b, complex_, RING_Z)
    if node_budget < 1 or fractional:
        result = solve_ilp(lp, node_budget=node_budget, root=result)
    if result.status is LPStatus.INFEASIBLE:
        raise _no_filling(b, complex_, RING_Z)
    witness = _witness_chain(result.witness, cells)
    return _certificate(b, complex_, RING_Z, result.value, witness)


def norm_with_escalation(b: Chain, presentation: GroupPresentation,
                         rws: RewritingSystem, r_start: int, r_max: int, *,
                         ring: str = RING_Q,
                         vertex_cap: int = DEFAULT_VERTEX_CAP,
                         node_budget: int = DEFAULT_NODE_BUDGET,
                         cache_dir: str | None = None,
                         bound=None) -> FillingCertificate:
    """Compute the norm at growing radii, stopping once the value repeats
    at two consecutive radii.

    The repeat is reported via ``stabilized`` and the certificate status
    becomes exact-within-ball; no claim about the untruncated complex is
    ever made.  The chain must have been built at a radius <= r_start
    (edge indices are stable under ball growth).

    With ``bound`` given, the program at ``r_max`` is not solved when
    the value at the radius before it is at most ``bound``; that
    certificate is returned, unstabilized.  The optimum at one radius
    stays feasible at the next, so the skipped value would not have
    exceeded ``bound`` either.  The ball at ``r_max`` is still fetched,
    so a cap it trips raises as it would without ``bound``.  No earlier
    radius is skipped, because whether the loop goes past radius r
    depends on the value at r.
    """
    if r_start > r_max:
        raise ValueError("r_start must not exceed r_max")
    previous = None
    last_error = None
    for radius in range(r_start, r_max + 1):
        complex_ = get_complex(presentation, rws, radius,
                               vertex_cap=vertex_cap, cache_dir=cache_dir)
        if radius == r_max and bound is not None and previous is not None \
                and previous.value <= bound:
            return previous
        if b.entries and max(b.entries) >= complex_.ball.num_edges:
            # the loop is not contained in this ball (edge indices are
            # stable, so out-of-range indices mean exactly that)
            last_error = NotABoundaryError(
                f"boundary support leaves the radius-{radius} ball")
            continue
        try:
            if ring == RING_Z:
                cert = filling_norm_z(b, complex_, node_budget=node_budget)
            else:
                cert = filling_norm_q(b, complex_)
        except NotABoundaryError as exc:
            last_error = exc
            previous = None
            continue
        if previous is not None and previous.value == cert.value:
            return FillingCertificate(cert.value, cert.witness, cert.ring,
                                      cert.radius, STATUS_EXACT_WITHIN_BALL,
                                      stabilized=True)
        previous = cert
    if previous is not None:
        return previous
    raise last_error if last_error is not None else NotABoundaryError(
        "no filling within the allowed radii")
