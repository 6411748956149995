"""Acceptance suite: one test per criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Oracles here are independent routes: a hand-rolled
integer-lattice complex checked with sympy's exact linear algebra,
literal bounded enumeration where feasible, and closed-form flow/cut
optima on the regular tree.
"""

import itertools
import json
import random

import pytest
import sympy

from fillprobe.cochains import (
    EquivariantCochain,
    PlainCochain,
    coboundary,
    group_table,
    is_equivariant,
    phi,
    psi,
)
from fillprobe.complexes import Chain, d1_composed_with_d2_is_zero, get_complex, word_to_edge_chain
from fillprobe.complexes import _MEMO as _COMPLEX_MEMO
from fillprobe.exactlp import LinearProgram, solve_lp
from fillprobe.filling import filling_norm_q, filling_norm_z
from fillprobe.probes import estimate_fv, probe_amenability, probe_hyperbolicity
from fillprobe.rationals import Q


def report(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS  {message}")


# --------------------------------------------------------------------------
# independent integer-lattice model (oracle side, no package machinery)

class LatticeModel:
    """Unit-square complex on the l1 ball of Z^2, in plain coordinates."""

    def __init__(self, radius):
        self.radius = radius
        self.vertices = [(x, y)
                         for x in range(-radius, radius + 1)
                         for y in range(-radius, radius + 1)
                         if abs(x) + abs(y) <= radius]
        vset = set(self.vertices)
        self.edges = []
        self.edge_index = {}
        for v in self.vertices:
            for d in ((1, 0), (0, 1)):
                w = (v[0] + d[0], v[1] + d[1])
                if w in vset:
                    self.edge_index[(v, d)] = len(self.edges)
                    self.edges.append((v, d))
        self.cells = []
        for (x, y) in self.vertices:
            corners = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
            if all(abs(cx) + abs(cy) <= radius for cx, cy in corners):
                self.cells.append((x, y))

    def cell_boundary(self, cell):
        x, y = cell
        return {
            self.edge_index[((x, y), (1, 0))]: 1,
            self.edge_index[((x + 1, y), (0, 1))]: 1,
            self.edge_index[((x, y + 1), (1, 0))]: -1,
            self.edge_index[((x, y), (0, 1))]: -1,
        }

    def d2_matrix(self):
        m = sympy.zeros(len(self.edges), len(self.cells))
        for ci, cell in enumerate(self.cells):
            for e, coeff in self.cell_boundary(cell).items():
                m[e, ci] = coeff
        return m

    def loop_chain(self, moves):
        """Signed edge vector of a closed lattice walk from the origin."""
        coeffs = {}
        pos = (0, 0)
        for dx, dy in moves:
            if (dx, dy) in ((1, 0), (0, 1)):
                e = self.edge_index[(pos, (dx, dy))]
                coeffs[e] = coeffs.get(e, 0) + 1
            else:
                nxt = (pos[0] + dx, pos[1] + dy)
                e = self.edge_index[(nxt, (-dx, -dy))]
                coeffs[e] = coeffs.get(e, 0) - 1
            pos = (pos[0] + dx, pos[1] + dy)
        assert pos == (0, 0), "walk must close"
        return coeffs

    def unique_filling(self, chain):
        """Exact solve of d2 x = b; asserts injectivity of d2."""
        d2 = self.d2_matrix()
        assert d2.rank() == len(self.cells)
        b = sympy.zeros(len(self.edges), 1)
        for e, c in chain.items():
            b[e, 0] = c
        sol, params = d2.gauss_jordan_solve(b)
        assert not params.free_symbols
        return [sympy.Rational(v) for v in sol]


def square_loop_moves(n):
    return ([(1, 0)] * n + [(0, 1)] * n + [(-1, 0)] * n + [(0, -1)] * n)


# --------------------------------------------------------------------------
# shared instances for criteria 1-3

@pytest.fixture(scope="module")
def grid_norms(z2):
    presentation, rws = z2
    results = {}
    for n in (1, 2, 3):
        complex_ = get_complex(presentation, rws, 2 * n)
        word = presentation.word(f"a^{n} b^{n} a^-{n} b^-{n}")
        loop = word_to_edge_chain(complex_.ball, word)
        results[n] = (
            complex_, loop,
            filling_norm_q(loop, complex_),
            filling_norm_z(loop, complex_),
        )
    return results


@pytest.fixture(scope="module")
def random_boundaries(z2, surface):
    """20 seeded fillable integral boundaries: 10 grid, 10 surface."""
    instances = []
    rng = random.Random(2024)
    for presentation, rws, radius in ((*z2, 4), (*surface, 4)):
        complex_ = get_complex(presentation, rws, radius)
        made = 0
        while made < 10:
            support = rng.sample(range(complex_.num_cells),
                                 min(3, complex_.num_cells))
            coeffs = {c: Q(rng.randint(-2, 2)) for c in support}
            b = complex_.apply_d2(Chain(2, coeffs))
            if b.is_zero():
                continue
            instances.append((complex_, b))
            made += 1
    return instances


def test_criterion_1_grid_isoperimetry(grid_norms):
    for n, (complex_, loop, cq, cz) in sorted(grid_norms.items()):
        assert cq.value == n * n, f"Q-norm of the {n}x{n} loop"

        model = LatticeModel(2 * n)
        oracle_chain = model.loop_chain(square_loop_moves(n))
        if n == 1:
            # literal brute force: coefficients bounded by 1 over the
            # small complex
            best = None
            ncells = len(model.cells)
            d2 = model.d2_matrix()
            for combo in itertools.product((-1, 0, 1), repeat=ncells):
                x = sympy.Matrix(combo)
                image = d2 * x
                if all(image[e] == oracle_chain.get(e, 0)
                       for e in range(len(model.edges))):
                    mass = sum(abs(v) for v in combo)
                    best = mass if best is None else min(best, mass)
            assert best == 1
        solution = model.unique_filling(oracle_chain)
        mass = sum(abs(v) for v in solution)
        assert mass == n * n
        assert all(abs(v) <= n * n for v in solution)
        assert all(v.q == 1 for v in solution)
    report(1, "grid loops fill at exactly n^2 for n in {1, 2, 3}, "
              "confirmed by the independent lattice solve")


def test_criterion_2_scaling_law(random_boundaries):
    scalars = (Q(2), Q(-3), Q(5, 7))
    assert len(random_boundaries) == 20
    for complex_, b in random_boundaries:
        base = filling_norm_q(b, complex_)
        for r in scalars:
            scaled = filling_norm_q(b.scaled(r), complex_)
            assert scaled.value == abs(r) * base.value
    report(2, "|r| homogeneity exact on 20 seeded boundaries "
              "(grid and surface) for r in {2, -3, 5/7}")


def test_criterion_3_ring_inequality(grid_norms, random_boundaries):
    for n, (complex_, loop, cq, cz) in sorted(grid_norms.items()):
        assert cz.value >= cq.value
        assert cz.value == cq.value == n * n
    for complex_, b in random_boundaries:
        cq = filling_norm_q(b, complex_)
        cz = filling_norm_z(b, complex_)
        assert cz.value >= cq.value
    report(3, "integral norm dominates the rational norm on all "
              "criterion 1-2 instances; equality on the grid loops")


def test_criterion_4_probe_classification(f2, z2, surface):
    rep_f2 = probe_hyperbolicity(*f2, k_max=8, seed=0, presentation_id="F2")
    assert rep_f2.verdict == "consistent-with-hyperbolic"
    rep_s2 = probe_hyperbolicity(*surface, k_max=8, seed=0, presentation_id="S2")
    assert rep_s2.verdict == "consistent-with-hyperbolic"
    rep_z2 = probe_hyperbolicity(*z2, k_max=8, seed=0, presentation_id="Z2")
    assert rep_z2.verdict == "non-hyperbolic-evidence"
    assert rep_z2.witness_word is not None
    assert rep_z2.witness_ratio() > Q(1, 4)
    again = probe_hyperbolicity(*z2, k_max=8, seed=0, presentation_id="Z2")
    assert json.dumps(rep_z2.to_dict(), sort_keys=True) == \
        json.dumps(again.to_dict(), sort_keys=True)
    report(4, "F2 and the surface group read hyperbolic, the grid does "
              "not, with witness ratio 1/2 > 1/4 at k = 8, "
              "deterministically under seed 0")


def _oracle_lattice_circuits(radius, max_len):
    """All simple lattice cycles through the origin, by direct search."""
    model = LatticeModel(radius)
    vset = set(model.vertices)
    cycles = []
    seen = set()

    def dfs(pos, path, moves):
        for d in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            nxt = (pos[0] + d[0], pos[1] + d[1])
            if nxt not in vset:
                continue
            dist = abs(nxt[0]) + abs(nxt[1])
            if len(moves) + 1 + dist > max_len:
                continue
            if nxt == (0, 0):
                if len(moves) + 1 >= 3:
                    chain = model.loop_chain(moves + [d])
                    key = tuple(sorted(chain.items()))
                    neg = tuple(sorted((e, -c) for e, c in chain.items()))
                    if key not in seen and neg not in seen:
                        seen.add(key)
                        cycles.append(chain)
                continue
            if nxt in path:
                continue
            path.add(nxt)
            dfs(nxt, path, moves + [d])
            path.remove(nxt)

    dfs((0, 0), {(0, 0)}, [])
    return model, cycles


def test_criterion_5_fv_table_exactness(z2):
    presentation, rws = z2
    estimate = estimate_fv(presentation, rws, 8, presentation_id="Z2")
    assert estimate.table[4].value == 1
    assert estimate.table[8].value == 4

    model, cycles = _oracle_lattice_circuits(4, 8)
    best = {k: 0 for k in range(3, 9)}
    for chain in cycles:
        mass = sum(abs(c) for c in chain.values())
        solution = model.unique_filling(chain)
        value = sum(abs(v) for v in solution)
        for k in best:
            if mass <= k:
                best[k] = max(best[k], value)
    assert len(cycles) == 72
    for k in range(3, 9):
        assert estimate.table[k].value == best[k], f"FV({k})"
    report(5, "exhaustive FV(4) = 1 and FV(8) = 4 on the grid, matching "
              "the independent cycle enumeration and lattice solve")


def test_criterion_6_amenability(f2, z2, z3):
    probe_f2 = probe_amenability(*f2, radii=[2, 3, 4, 5, 6, 7], presentation_id="F2")
    for radius in (2, 3, 4, 5, 6, 7):
        row = probe_f2.table[radius]
        # flow/cut optimum on the 4-regular tree: 1/2 - 3^(1-R)/4
        assert row.value == Q(1, 2) - Q(1, 4 * 3 ** (radius - 1))
        assert row.value <= Q(1, 2)
    assert probe_f2.verdict == "BoundedFlow"

    probe_z2 = probe_amenability(*z2, radii=[2, 3, 4, 5, 6], presentation_id="Z2")
    values = [probe_z2.table[r].value for r in (2, 3, 4, 5, 6)]
    assert all(a < b for a, b in zip(values, values[1:]))
    for radius, value in zip((2, 3, 4, 5, 6), values):
        interior = 2 * (radius - 1) ** 2 + 2 * (radius - 1) + 1
        crossing = 8 * radius - 4
        assert value >= Q(interior, crossing)
    assert values[3] == Q(37, 28)
    assert probe_z2.verdict == "GrowingFlow"

    probe_z3 = probe_amenability(*z3, radii=[2, 3], presentation_id="Z3")
    assert [probe_z3.table[r].value for r in (2, 3)] == [Q(7, 30), Q(19, 54)]
    report(6, "tree flow stays below 1/2 (BoundedFlow); grid flow grows "
              "strictly with the cut bound (GrowingFlow)")


def _equivariant_basis(G, degree):
    """Indicator-style equivariant cochains spanning the space."""
    reps = sorted({G.act(G.inverse[cell[0]], cell) for cell in G.cells(degree)})
    for rep in reps:
        for g0 in range(G.order):
            values = {}
            for cell in G.cells(degree):
                h = cell[0]
                this_rep = G.act(G.inverse[h], cell)
                values[cell] = {
                    g: ((Q(1),) if this_rep == rep and G.mult[G.inverse[h]][g] == g0
                        else (Q(0),))
                    for g in range(G.order)}
            yield EquivariantCochain(G, degree, 1, values)


def _plain_basis(G, degree):
    zero, one = (Q(0),), (Q(1),)
    for marked in G.cells(degree):
        yield PlainCochain.build(G, degree, 1,
                                 lambda cell, m=marked: one if cell == m else zero)


def test_criterion_7_cochain_maps():
    checked = 0
    for name in ("Z2", "Z3"):
        G = group_table(name)
        for degree in (0, 1, 2):
            for theta in _plain_basis(G, degree):
                assert phi(psi(theta)).values == theta.values
                if degree <= 1:
                    assert psi(coboundary(theta)) == coboundary(psi(theta))
                checked += 1
            for f in _equivariant_basis(G, degree):
                assert is_equivariant(f)
                assert psi(phi(f)) == f
                if degree <= 1:
                    assert phi(coboundary(f)).values == coboundary(phi(f)).values
                checked += 1
    G = group_table("S3")
    rng = random.Random(7)
    for degree in (0, 1, 2):
        for _ in range(3):
            theta = PlainCochain.build(
                G, degree, 2,
                lambda cell: tuple(Q(rng.randint(-9, 9), rng.randint(1, 5))
                                   for _ in range(2)))
            assert phi(psi(theta)).values == theta.values
            assert is_equivariant(psi(theta))
            if degree <= 1:
                assert psi(coboundary(theta)) == coboundary(psi(theta))
            checked += 1
    report(7, f"evaluation/spreading maps are mutually inverse chain maps "
              f"({checked} exhaustive and randomized cases, zero failures)")


def test_criterion_8_solver_soundness(monkeypatch):
    import fillprobe.exactlp as exactlp

    calls = {"n": 0}
    original = exactlp._verify_equalities

    def counting(rows, rhs, values):
        calls["n"] += 1
        return original(rows, rhs, values)

    monkeypatch.setattr(exactlp, "_verify_equalities", counting)

    rng = random.Random(0)
    lam = Q(3, 2)
    for _ in range(50):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        rows = []
        for _ in range(m):
            cols = rng.sample(range(n), rng.randint(1, n))
            rows.append({j: Q(rng.randint(-5, 5)) for j in cols})
        x0 = [Q(rng.randint(0, 4), rng.randint(1, 3)) for _ in range(n)]
        rhs = [sum((a * x0[j] for j, a in row.items()), Q(0)) for row in rows]
        problem = LinearProgram(n, rows, rhs,
                                [Q(rng.randint(0, 6)) for _ in range(n)])
        base = solve_lp(problem)
        assert base.optimal
        scaled = LinearProgram(n, rows, [lam * v for v in rhs],
                               problem.objective)
        scaled_result = solve_lp(scaled)
        assert scaled_result.optimal
        assert scaled_result.value == lam * base.value
    assert calls["n"] >= 100
    report(8, "every optimal solve passed exact witness verification; "
              "rhs scaling by 3/2 preserved optima on 50 random programs")


def test_criterion_9_chain_complex_sanity(f2, z2, surface):
    for radius in range(6):
        ball = get_complex(*f2, radius).ball
        assert ball.num_vertices == 1 + sum(4 * 3 ** (k - 1)
                                            for k in range(1, radius + 1))
        ball = get_complex(*z2, radius).ball
        assert ball.num_vertices == 2 * radius * radius + 2 * radius + 1
    checked = 0
    for complex_ in list(_COMPLEX_MEMO.values()):
        assert d1_composed_with_d2_is_zero(complex_)
        checked += 1
    assert checked >= 10
    report(9, f"d1 . d2 = 0 exactly on all {checked} complexes built by the "
              "suite; ball counts match both closed forms through R = 5")
