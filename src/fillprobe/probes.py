"""Desk-scale probes: growth of the filling function and bounded-flow
amenability evidence.

Verdicts are finite-scale evidence, never proofs.  The hyperbolicity
probe tabulates the largest rational filling norm among circuits of
bounded mass and classifies the growth trend; the amenability probe
asks, per radius, how small the largest edge coefficient of a 1-chain
can be when it must deposit one unit at every interior vertex, and
classifies the trend of that optimum.  Boundary-layer vertices are free
sources.  The optimum equals the largest Folner ratio |S| / |dS| over
sets S of interior vertices (bounded-flow/Folner duality), and is
computed exactly as a max-flow/min-cut problem by ``solve_minmax``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .complexes import (
    DEFAULT_VERTEX_CAP,
    DEFAULT_WALK_CAP,
    Circuit,
    add_circuit,
    enumerate_circuits,
    get_complex,
)
from .errors import ResourceLimitError
from .exactlp import DEFAULT_NODE_BUDGET, LPStatus, solve_minmax
from .filling import norm_with_escalation
from .presentation import GroupPresentation, word_to_text
from .rationals import Q, qstr
from .rewriting import RewritingSystem

EXHAUSTIVE = "exhaustive"
SAMPLED = "sampled"
EXHAUSTIVE_K_CAP = 12

VERDICT_HYPERBOLIC = "consistent-with-hyperbolic"
VERDICT_NONHYPERBOLIC = "non-hyperbolic-evidence"
VERDICT_INCONCLUSIVE = "inconclusive"

FLOW_BOUNDED = "BoundedFlow"
FLOW_GROWING = "GrowingFlow"
FLOW_INCONCLUSIVE = "Inconclusive"

GROWTH_LINEAR = "Linear"
GROWTH_QUADRATIC = "Quadratic"
GROWTH_SUPERQUADRATIC = "Superquadratic"

# Trend-test configuration, echoed in reports.
RATIO_DRIFT_TOLERANCE = Q(1, 10)
FLOW_DECAY_RATIO = Q(1, 2)
FLOW_GROWTH_RATIO = Q(3, 4)

# Radii past a circuit's reach that its escalation may use, and the
# number of seeded walks of sampled mode.
ESCALATION_MARGIN = 1
SAMPLE_WALKS = 500


@dataclass
class ProbeConfig:
    """Caps and knobs shared by the probe operations."""

    vertex_cap: int = DEFAULT_VERTEX_CAP
    walk_cap: int = DEFAULT_WALK_CAP
    node_budget: int = DEFAULT_NODE_BUDGET
    cache_dir: str | None = None


@dataclass(frozen=True)
class FVRow:
    value: object
    witness_word: str | None
    witness_l1: object | None
    radius: int | None
    stabilized: bool = False

    def to_dict(self) -> dict:
        return {
            "value": qstr(self.value),
            "witness": self.witness_word,
            "witness_l1": None if self.witness_l1 is None else qstr(self.witness_l1),
            "radius": self.radius,
            "stabilized": self.stabilized,
        }


@dataclass
class FVEstimate:
    """Max rational filling norm over sampled boundaries, per mass bound."""

    presentation_id: str
    k_max: int
    mode: str
    table: dict = field(default_factory=dict)   # k -> FVRow
    capped: bool = False
    seed: int | None = None

    @classmethod
    def from_table(cls, values: dict, presentation_id: str = "synthetic") -> "FVEstimate":
        table = {k: FVRow(Q(v), None, None, None) for k, v in values.items()}
        return cls(presentation_id, max(values) if values else 0, EXHAUSTIVE, table)

    def to_dict(self) -> dict:
        return {
            "presentation": self.presentation_id,
            "k_max": self.k_max,
            "mode": self.mode,
            "capped": self.capped,
            "seed": self.seed,
            "table": {str(k): row.to_dict() for k, row in sorted(self.table.items())},
        }


@dataclass(frozen=True)
class GrowthFit:
    growth_class: str
    K: object
    residual: object

    def to_dict(self) -> dict:
        return {"class": self.growth_class, "K": qstr(self.K),
                "residual": qstr(self.residual),
                "ratio_drift_tolerance": qstr(RATIO_DRIFT_TOLERANCE)}


def _circuit_reach(ball, circuit: Circuit) -> int:
    # edges are ordered by layer, so the last edge is in the deepest one
    return ball.layer(max(circuit.chain.entries))


def _sampled_circuits(ball, k_max: int, seed: int, budget: int):
    """Seeded closed random walks with immediate-backtrack suppression,
    deduplicated like the exhaustive enumeration."""
    rng = random.Random(seed)
    adj = ball.adjacency()
    found = {}
    for _ in range(budget):
        v = 0
        prev_edge = None
        steps = []
        for _ in range(k_max):
            options = [(e, s, w) for (e, s, w) in adj[v] if e != prev_edge]
            if not options:
                break
            e, s, w = options[rng.randrange(len(options))]
            steps.append((e, s))
            prev_edge = e
            v = w
            if v == 0 and len(steps) >= 3:
                break
        if v == 0 and len(steps) >= 3:
            add_circuit(found, ball, steps)
    return sorted(found.values(), key=lambda c: (c.length, c.letters))


def estimate_fv(presentation: GroupPresentation, rws: RewritingSystem,
                k_max: int, mode: str = EXHAUSTIVE, *,
                seed: int = 0,
                config: ProbeConfig | None = None,
                presentation_id: str = "") -> FVEstimate:
    """Tabulate, for each k <= k_max, the largest rational filling norm
    among enumerated (or sampled) circuits of l1 mass at most k.

    Row k is the first circuit, in ``(length, letters)`` order, whose
    value exceeds every earlier one of mass at most k.  A circuit's
    escalation skips its last radius once its value is at most
    ``bound``, the largest value so far among earlier circuits of no
    larger mass.  That changes no row: values never grow with the
    radius, so the circuit's final value could not beat the bound; and
    the value it stops at never raises a later bound, as it is at most
    an earlier value in it.  The skipped ball is still fetched, so
    ``capped`` is exact.
    """
    if k_max < 3:
        raise ValueError("k_max must be at least 3")
    if mode == EXHAUSTIVE and k_max > EXHAUSTIVE_K_CAP:
        raise ValueError(
            f"exhaustive mode is capped at k <= {EXHAUSTIVE_K_CAP}; use sampled mode")
    if mode not in (EXHAUSTIVE, SAMPLED):
        raise ValueError(f"unknown mode {mode!r}")
    cfg = config or ProbeConfig()
    est = FVEstimate(presentation_id or "inline", k_max, mode, seed=seed)

    enum_radius = k_max // 2
    complex_ = get_complex(presentation, rws, enum_radius,
                           vertex_cap=cfg.vertex_cap, cache_dir=cfg.cache_dir)
    ball = complex_.ball
    if mode == EXHAUSTIVE:
        circuits = enumerate_circuits(ball, k_max, walk_cap=cfg.walk_cap)
    else:
        circuits = _sampled_circuits(ball, k_max, seed, SAMPLE_WALKS)

    masses = [c.chain.l1() for c in circuits]
    certs = []
    best_of_mass = {}       # mass -> largest value so far at that mass
    for circuit, mass in zip(circuits, masses):
        r0 = max(_circuit_reach(ball, circuit), 1)
        bound = max((v for m, v in best_of_mass.items() if m <= mass), default=None)
        try:
            cert = norm_with_escalation(
                circuit.chain, presentation, rws, r0, r0 + ESCALATION_MARGIN,
                vertex_cap=cfg.vertex_cap, node_budget=cfg.node_budget,
                cache_dir=cfg.cache_dir, bound=bound)
        except ResourceLimitError:
            est.capped = True
            certs.append(None)
            continue
        certs.append(cert)
        if mass not in best_of_mass or cert.value > best_of_mass[mass]:
            best_of_mass[mass] = cert.value

    for k in range(3, k_max + 1):
        best = None
        for i, circuit in enumerate(circuits):
            if masses[i] > k or certs[i] is None:
                continue
            if best is None or certs[i].value > certs[best].value:
                best = i
        if best is None:
            est.table[k] = FVRow(Q(0), None, None, None)
        else:
            cert = certs[best]
            est.table[k] = FVRow(cert.value,
                                 word_to_text(circuits[best].letters,
                                              presentation.generators),
                                 masses[best], cert.radius, cert.stabilized)
    return est


def _drift(seq):
    """(max - min) / max over a sequence of nonnegative rationals."""
    hi, lo = max(seq), min(seq)
    if hi == 0:
        return Q(0)
    return (hi - lo) / hi


def _non_increasing(seq) -> bool:
    return all(a >= b for a, b in zip(seq, seq[1:]))


def _non_decreasing(seq) -> bool:
    return all(a <= b for a, b in zip(seq, seq[1:]))


def fit_growth(estimate: FVEstimate) -> GrowthFit:
    """Classify the FV table trend as Linear, Quadratic or Superquadratic.

    The least K with value <= K*k over the whole table is always
    reported.  Classification looks at value/k and value/k^2 over the
    top half of the rows with nonzero value: flat or falling value/k is
    linear; rising value/k with rising value/k^2 is superquadratic;
    anything else in between is quadratic.  Ties break toward the lower
    class.
    """
    if not estimate.table:
        raise ValueError("empty FV table")
    rows = sorted((k, row.value) for k, row in estimate.table.items())
    K = Q(0)
    for k, v in rows:
        K = max(K, Q(v) / k)
    positive = [(k, Q(v)) for k, v in rows if v > 0]
    if not positive:
        return GrowthFit(GROWTH_LINEAR, Q(0), Q(0))
    top = positive[-min(len(positive), max(2, (len(positive) + 1) // 2)):]
    s1 = [v / k for k, v in top]
    s2 = [v / (k * k) for k, v in top]
    if len(top) == 1 or _drift(s1) <= RATIO_DRIFT_TOLERANCE or _non_increasing(s1):
        return GrowthFit(GROWTH_LINEAR, K, _drift(s1))
    if _non_decreasing(s2) and _drift(s2) > RATIO_DRIFT_TOLERANCE:
        return GrowthFit(GROWTH_SUPERQUADRATIC, K, _drift(s2))
    return GrowthFit(GROWTH_QUADRATIC, K, _drift(s2))


@dataclass
class HyperbolicityReport:
    verdict: str
    fit: GrowthFit | None
    estimate: FVEstimate
    witness_word: str | None
    witness_l1: object | None
    witness_value: object | None
    max_cell_boundary_mass: int

    def witness_ratio(self):
        if self.witness_value is None or not self.witness_l1:
            return None
        return self.witness_value / self.witness_l1

    def to_dict(self) -> dict:
        ratio = self.witness_ratio()
        return {
            "verdict": self.verdict,
            "note": "finite-scale evidence only, not a proof",
            "fit": None if self.fit is None else self.fit.to_dict(),
            "fv": self.estimate.to_dict(),
            "witness": {
                "word": self.witness_word,
                "l1": None if self.witness_l1 is None else qstr(self.witness_l1),
                "value": None if self.witness_value is None else qstr(self.witness_value),
                "ratio": None if ratio is None else qstr(ratio),
            },
            "max_cell_boundary_mass": self.max_cell_boundary_mass,
        }


def probe_hyperbolicity(presentation: GroupPresentation, rws: RewritingSystem, *,
                        k_max: int = 8, mode: str = EXHAUSTIVE, seed: int = 0,
                        config: ProbeConfig | None = None,
                        presentation_id: str = "") -> HyperbolicityReport:
    """Estimate the filling-function growth and report a verdict."""
    cfg = config or ProbeConfig()
    try:
        estimate = estimate_fv(presentation, rws, k_max, mode, seed=seed,
                               config=cfg, presentation_id=presentation_id)
    except ResourceLimitError:
        empty = FVEstimate(presentation_id or "inline", k_max, mode, capped=True)
        return HyperbolicityReport(VERDICT_INCONCLUSIVE, None, empty,
                                   None, None, None,
                                   presentation.max_relator_length())
    fit = fit_growth(estimate)
    if estimate.capped:
        verdict = VERDICT_INCONCLUSIVE
    elif fit.growth_class == GROWTH_LINEAR:
        verdict = VERDICT_HYPERBOLIC
    else:
        verdict = VERDICT_NONHYPERBOLIC
    top_row = estimate.table.get(k_max)
    witness_word = witness_l1 = witness_value = None
    if top_row is not None and top_row.witness_word is not None:
        witness_word = top_row.witness_word
        witness_l1 = top_row.witness_l1
        witness_value = top_row.value
    return HyperbolicityReport(verdict, fit, estimate, witness_word,
                               witness_l1, witness_value,
                               presentation.max_relator_length())


@dataclass(frozen=True)
class AmenabilityRow:
    value: object | None
    status: str                 # "optimal" | "infeasible" | "capped"
    num_interior: int
    num_edges: int
    witness_support: int = 0

    def to_dict(self) -> dict:
        return {
            "t": None if self.value is None else qstr(self.value),
            "status": self.status,
            "interior_vertices": self.num_interior,
            "edges": self.num_edges,
            "witness_support": self.witness_support,
        }


@dataclass
class AmenabilityProbe:
    presentation_id: str
    radii: tuple
    table: dict = field(default_factory=dict)   # R -> AmenabilityRow
    verdict: str = FLOW_INCONCLUSIVE

    def to_dict(self) -> dict:
        return {
            "presentation": self.presentation_id,
            "radii": list(self.radii),
            "verdict": self.verdict,
            "decay_ratio": qstr(FLOW_DECAY_RATIO),
            "growth_ratio": qstr(FLOW_GROWTH_RATIO),
            "table": {str(r): row.to_dict() for r, row in sorted(self.table.items())},
        }


def _flow_verdict(values) -> str:
    """Trend of the per-radius optima.

    Non-increasing tails, or increments decaying by at least the decay
    ratio, read as bounded flow; steadily growing increments read as
    growing flow.  Everything else is inconclusive.
    """
    n = len(values)
    if n < 2:
        return FLOW_INCONCLUSIVE
    window = values[-max(3, (n + 1) // 2 + 1):] if n >= 3 else values
    if _non_increasing(window):
        return FLOW_BOUNDED
    deltas = [b - a for a, b in zip(window, window[1:])]
    if len(deltas) < 2:
        return FLOW_INCONCLUSIVE
    if any(d <= 0 for d in deltas):
        return FLOW_INCONCLUSIVE
    ratios = [deltas[i + 1] / deltas[i] for i in range(len(deltas) - 1)]
    if all(r <= FLOW_DECAY_RATIO for r in ratios):
        return FLOW_BOUNDED
    if all(r >= FLOW_GROWTH_RATIO for r in ratios):
        return FLOW_GROWING
    return FLOW_INCONCLUSIVE


def probe_amenability(presentation: GroupPresentation, rws: RewritingSystem,
                      radii, *, config: ProbeConfig | None = None,
                      presentation_id: str = "") -> AmenabilityProbe:
    """Per radius, minimize the sup-norm of a 1-chain depositing one unit
    at every interior vertex; classify the trend of the optima.  A radius
    whose ball exceeds a cap gives a "capped" row."""
    cfg = config or ProbeConfig()
    radii = tuple(sorted(set(int(r) for r in radii)))
    if not radii or radii[0] < 1:
        raise ValueError("radii must be positive integers")
    probe = AmenabilityProbe(presentation_id or "inline", radii)

    def solve_radius(radius: int):
        complex_ = get_complex(presentation, rws, radius,
                               vertex_cap=cfg.vertex_cap, cache_dir=cfg.cache_dir)
        ball = complex_.ball
        interior = [v for v in range(ball.num_vertices) if ball.depth[v] < radius]
        row_of = {v: i for i, v in enumerate(interior)}
        # s != t puts the edge's two entries in distinct rows: none cancels
        rows = [{} for _ in interior]
        for e in range(ball.num_edges):
            s, _, t = ball.edge(e)
            if s == t:
                continue
            i = row_of.get(t)
            if i is not None:
                rows[i][e] = 1
            i = row_of.get(s)
            if i is not None:
                rows[i][e] = -1
        result = solve_minmax(rows, [1] * len(interior), ball.num_edges)
        if result.status is LPStatus.OPTIMAL:
            return AmenabilityRow(result.value, "optimal", len(interior),
                                  ball.num_edges, len(result.witness))
        return AmenabilityRow(None, "infeasible", len(interior), ball.num_edges)

    for radius in radii:
        try:
            probe.table[radius] = solve_radius(radius)
        except ResourceLimitError:
            probe.table[radius] = AmenabilityRow(None, "capped", 0, 0)

    ordered = [probe.table[r] for r in radii]
    if all(row.status == "optimal" for row in ordered):
        probe.verdict = _flow_verdict([row.value for row in ordered])
    else:
        probe.verdict = FLOW_INCONCLUSIVE
    return probe
