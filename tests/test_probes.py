import pytest

from fillprobe import filling
from fillprobe.catalog import load
from fillprobe.complexes import enumerate_circuits, get_complex
from fillprobe.errors import ResourceLimitError
from fillprobe.filling import norm_with_escalation
from fillprobe.presentation import word_to_text
from fillprobe.probes import (
    ESCALATION_MARGIN,
    EXHAUSTIVE,
    SAMPLE_WALKS,
    SAMPLED,
    FVEstimate,
    FVRow,
    ProbeConfig,
    _circuit_reach,
    _sampled_circuits,
    estimate_fv,
    fit_growth,
    probe_amenability,
    probe_hyperbolicity,
)
from fillprobe.rationals import Q


def test_estimate_fv_f2_all_zero(f2):
    presentation, rws = f2
    est = estimate_fv(presentation, rws, 6)
    assert all(row.value == 0 for row in est.table.values())
    assert not est.capped


def test_estimate_fv_z2_exhaustive(z2):
    presentation, rws = z2
    est = estimate_fv(presentation, rws, 8)
    values = {k: row.value for k, row in est.table.items()}
    assert values == {3: 0, 4: 1, 5: 1, 6: 2, 7: 2, 8: 4}
    # monotone in k
    ordered = [values[k] for k in sorted(values)]
    assert all(a <= b for a, b in zip(ordered, ordered[1:]))
    # witnesses satisfy their mass bound
    for k, row in est.table.items():
        if row.witness_l1 is not None:
            assert row.witness_l1 <= k


def test_estimate_fv_surface(surface):
    presentation, rws = surface
    est = estimate_fv(presentation, rws, 8)
    assert est.table[8].value == 1
    assert all(est.table[k].value == 0 for k in range(3, 8))


def test_estimate_fv_rejects_bad_modes(z2):
    presentation, rws = z2
    with pytest.raises(ValueError):
        estimate_fv(presentation, rws, 2)
    with pytest.raises(ValueError):
        estimate_fv(presentation, rws, 14, EXHAUSTIVE)
    with pytest.raises(ValueError):
        estimate_fv(presentation, rws, 8, "other")


def test_estimate_fv_sampled_mode_subset_of_truth(z2):
    presentation, rws = z2
    est = estimate_fv(presentation, rws, 6, SAMPLED, seed=0)
    exhaustive = estimate_fv(presentation, rws, 6, EXHAUSTIVE)
    for k, row in est.table.items():
        assert row.value <= exhaustive.table[k].value
    # determinism under a fixed seed
    again = estimate_fv(presentation, rws, 6, SAMPLED, seed=0)
    assert {k: r.value for k, r in est.table.items()} == \
        {k: r.value for k, r in again.table.items()}


def test_fit_growth_exact_linear():
    fit = fit_growth(FVEstimate.from_table({4: 1, 8: 2, 12: 3}))
    assert fit.growth_class == "Linear"
    assert fit.K == Q(1, 4)


def test_fit_growth_quadratic():
    fit = fit_growth(FVEstimate.from_table({4: 1, 8: 4, 12: 9}))
    assert fit.growth_class == "Quadratic"


def test_fit_growth_all_zero():
    fit = fit_growth(FVEstimate.from_table({4: 0, 8: 0, 12: 0}))
    assert fit.growth_class == "Linear" and fit.K == 0


def test_fit_growth_superquadratic():
    fit = fit_growth(FVEstimate.from_table({4: 8, 8: 64, 12: 216}))
    assert fit.growth_class == "Superquadratic"


def test_fit_growth_exact_proportional_recovers_K():
    K = Q(7, 3)
    table = {k: K * k for k in (3, 5, 8, 11)}
    fit = fit_growth(FVEstimate.from_table(table))
    assert fit.growth_class == "Linear"
    assert fit.K == K


def test_fit_growth_single_jump_is_linear():
    fit = fit_growth(FVEstimate.from_table({3: 0, 4: 0, 8: 1}))
    assert fit.growth_class == "Linear"


def test_fit_growth_empty_table_rejected():
    with pytest.raises(ValueError):
        fit_growth(FVEstimate("x", 0, EXHAUSTIVE, {}))


def test_probe_hyperbolicity_f2(f2):
    presentation, rws = f2
    report = probe_hyperbolicity(presentation, rws, k_max=6)
    assert report.verdict == "consistent-with-hyperbolic"
    assert report.fit.K == 0


def test_probe_hyperbolicity_z2(z2):
    presentation, rws = z2
    report = probe_hyperbolicity(presentation, rws, k_max=8)
    assert report.verdict == "non-hyperbolic-evidence"
    assert report.witness_ratio() > Q(1, 4)
    assert report.witness_l1 == 8
    data = report.to_dict()
    assert data["verdict"] == "non-hyperbolic-evidence"
    assert data["witness"]["ratio"] == "1/2"
    assert data["max_cell_boundary_mass"] == 4


def test_probe_hyperbolicity_surface(surface):
    presentation, rws = surface
    report = probe_hyperbolicity(presentation, rws, k_max=8)
    assert report.verdict == "consistent-with-hyperbolic"
    assert report.fit.K == Q(1, 8)
    assert report.max_cell_boundary_mass == 8


def test_probe_deterministic(z2):
    presentation, rws = z2
    a = probe_hyperbolicity(presentation, rws, k_max=8, seed=0)
    b = probe_hyperbolicity(presentation, rws, k_max=8, seed=0)
    assert a.to_dict() == b.to_dict()


def test_amenability_f2_exact_values(f2):
    presentation, rws = f2
    probe = probe_amenability(presentation, rws, [2, 3, 4, 5, 6, 7])
    # optimum on the 4-regular tree: 1/2 - 1/(4*3^(R-1)) by flow vs cut
    expected = {radius: Q(1, 2) - Q(1, 4 * 3 ** (radius - 1))
                for radius in (2, 3, 4, 5, 6, 7)}
    assert expected[6] == Q(485, 972) and expected[7] == Q(1457, 2916)
    for radius, row in probe.table.items():
        assert row.status == "optimal"
        assert row.value == expected[radius]
        assert row.value <= Q(1, 2)
    assert probe.verdict == "BoundedFlow"


def test_amenability_z2_growing(z2):
    presentation, rws = z2
    probe = probe_amenability(presentation, rws, [2, 3, 4, 5, 6])
    values = [probe.table[r].value for r in sorted(probe.table)]
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[:4] == [Q(5, 12), Q(3, 4), Q(21, 20), Q(37, 28)]
    assert probe.verdict == "GrowingFlow"


def _largest_folner_ratio(ball, radius):
    """max |S| / |dS| over nonempty sets S of interior vertices, dS the
    non-loop edges with exactly one end in S; None if some S has dS empty."""
    interior = [v for v in range(ball.num_vertices) if ball.depth[v] < radius]
    best = Q(0)
    for mask in range(1, 2 ** len(interior)):
        inside = {v for k, v in enumerate(interior) if mask >> k & 1}
        crossing = sum(1 for s, _, t in map(ball.edge, range(ball.num_edges))
                       if (s in inside) != (t in inside))
        if crossing == 0:
            return None
        best = max(best, Q(len(inside), crossing))
    return best


@pytest.mark.parametrize("name", ["F2", "Z2", "Z3", "S2"])
def test_amenability_matches_brute_force_folner_ratio(name):
    from fillprobe.catalog import load
    from fillprobe.complexes import get_complex
    presentation, rws = load(name)
    probe = probe_amenability(presentation, rws, [1, 2])
    for radius in (1, 2):
        ball = get_complex(presentation, rws, radius).ball
        assert probe.table[radius].value == _largest_folner_ratio(ball, radius)


def test_amenability_single_radius_inconclusive(z2):
    presentation, rws = z2
    probe = probe_amenability(presentation, rws, [1])
    assert probe.verdict == "Inconclusive"


def test_amenability_finite_group_infeasible():
    # in a finite group the whole Cayley graph is eventually interior and
    # total demand cannot escape
    from fillprobe.presentation import parse_presentation
    from fillprobe.rewriting import knuth_bendix_bounded
    p = parse_presentation("a | a^2")
    rws = knuth_bendix_bounded(p)
    probe = probe_amenability(p, rws, [2, 3])
    assert probe.verdict == "Inconclusive"
    assert any(row.status == "infeasible" for row in probe.table.values())


def test_amenability_rejects_bad_radii(z2):
    presentation, rws = z2
    with pytest.raises(ValueError):
        probe_amenability(presentation, rws, [0, 2])
    with pytest.raises(ValueError):
        probe_amenability(presentation, rws, [])


def test_fv_entries_never_grow_with_radius_headroom(z2):
    presentation, rws = z2
    ball = get_complex(presentation, rws, 3).ball
    for circuit in enumerate_circuits(ball, 6):
        r0 = max(_circuit_reach(ball, circuit), 1)
        snug = norm_with_escalation(circuit.chain, presentation, rws, r0, r0 + 1)
        roomy = norm_with_escalation(circuit.chain, presentation, rws, r0, r0 + 3)
        assert roomy.value <= snug.value


def _unpruned_fv(presentation, rws, k_max, mode, seed, cfg, margin):
    """``estimate_fv``'s table and ``capped`` as computed before circuits
    got a bound: every circuit escalates through all of its radii, up to
    ``margin`` past its reach."""
    ball = get_complex(presentation, rws, k_max // 2, vertex_cap=cfg.vertex_cap).ball
    if mode == EXHAUSTIVE:
        circuits = enumerate_circuits(ball, k_max, walk_cap=cfg.walk_cap)
    else:
        circuits = _sampled_circuits(ball, k_max, seed, SAMPLE_WALKS)
    capped, certs = False, []
    for circuit in circuits:
        r0 = max(_circuit_reach(ball, circuit), 1)
        try:
            certs.append(norm_with_escalation(
                circuit.chain, presentation, rws, r0, r0 + margin,
                vertex_cap=cfg.vertex_cap, node_budget=cfg.node_budget))
        except ResourceLimitError:
            capped = True
            certs.append(None)
    masses = [c.chain.l1() for c in circuits]
    table = {}
    for k in range(3, k_max + 1):
        best = None
        for i in range(len(circuits)):
            if masses[i] > k or certs[i] is None:
                continue
            if best is None or certs[i].value > certs[best].value:
                best = i
        if best is None:
            table[k] = FVRow(Q(0), None, None, None)
        else:
            cert = certs[best]
            table[k] = FVRow(cert.value,
                             word_to_text(circuits[best].letters, presentation.generators),
                             masses[best], cert.radius, cert.stabilized)
    return table, capped


def _count_norm_q_solves(monkeypatch):
    """Record every rational filling program solved, whether by the
    simplex or along a collapse order."""
    calls, solve = [], filling.filling_norm_q

    def counting(b, complex_):
        calls.append(b)
        return solve(b, complex_)

    monkeypatch.setattr(filling, "filling_norm_q", counting)
    return calls


FV_CASES = [("Z2", 8, EXHAUSTIVE, 0), ("S2", 8, EXHAUSTIVE, 0), ("Z3", 5, EXHAUSTIVE, 0)] + \
    [("Z2", 10, SAMPLED, seed) for seed in range(6)]


# the probe escalates each circuit ESCALATION_MARGIN radii past its reach
@pytest.mark.parametrize("margin", [ESCALATION_MARGIN])
@pytest.mark.parametrize("name,k_max,mode,seed", FV_CASES)
def test_estimate_fv_matches_unpruned_loop(name, k_max, mode, seed, margin, monkeypatch):
    presentation, rws = load(name)
    cfg = ProbeConfig()
    calls = _count_norm_q_solves(monkeypatch)
    est = estimate_fv(presentation, rws, k_max, mode, seed=seed, config=cfg)
    pruned = len(calls)
    table, capped = _unpruned_fv(presentation, rws, k_max, mode, seed, cfg, margin)
    assert est.table == table
    assert est.capped == capped
    # a circuit whose first value is at most its bound skips its second program
    assert pruned < len(calls) - pruned


@pytest.mark.parametrize("margin,capped_radius,capped,verdict", [
    # every radius-5 circuit is at most its bound, so only their
    # skipped r0 + 1 = 6 ball trips the cap
    (ESCALATION_MARGIN, 6, True, "inconclusive"),
])
def test_skipped_radius_still_sets_capped(margin, capped_radius, capped, verdict):
    presentation, rws = load("Z2")
    cap = get_complex(presentation, rws, capped_radius).ball.num_vertices - 1
    cfg = ProbeConfig(vertex_cap=cap)
    report = probe_hyperbolicity(presentation, rws, k_max=10, mode=SAMPLED,
                                 seed=0, config=cfg)
    assert (report.estimate.capped, report.verdict) == (capped, verdict)
    table, reference_capped = _unpruned_fv(presentation, rws, 10, SAMPLED, 0, cfg, margin)
    assert reference_capped == capped
    assert report.estimate.table == table

def test_amenability_propagates_solver_errors(z2, monkeypatch):
    # only cap hits become "capped" rows; any other package error is a bug
    # and must surface instead of reading as a capped radius
    from fillprobe import probes
    from fillprobe.exactlp import SolverError

    def broken(*args, **kwargs):
        raise SolverError("simulated inconsistency")

    monkeypatch.setattr(probes, "solve_minmax", broken)
    presentation, rws = z2
    with pytest.raises(SolverError):
        probe_amenability(presentation, rws, [2])
