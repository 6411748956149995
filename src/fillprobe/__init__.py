"""Exact rational filling norms on truncated Cayley 2-complexes.

Library layout mirrors the pipeline: parse a presentation, complete a
rewriting system, build a truncated complex, solve exact LPs/ILPs for
filling norms, and aggregate those into growth and flow probes.  A
finite-group cochain laboratory lives alongside.
"""

from .catalog import CATALOG, catalog_names, load as load_catalog
from .cochains import (
    EquivariantCochain,
    FiniteGroupTable,
    PlainCochain,
    coboundary,
    eval_at_identity,
    group_table,
    is_equivariant,
    phi,
    psi,
    spread,
)
from .complexes import (
    CayleyBall,
    Chain,
    Circuit,
    TwoComplex,
    attach_cells,
    build_ball,
    complex_from_json,
    complex_to_json,
    d1_composed_with_d2_is_zero,
    enumerate_circuits,
    get_complex,
    word_to_edge_chain,
)
from .errors import (
    FillprobeError,
    IncompleteSystemError,
    NodeBudgetError,
    NotABoundaryError,
    NotACycleError,
    PresentationSyntaxError,
    ResourceLimitError,
)
from .exactlp import (
    LinearProgram,
    LPResult,
    LPStatus,
    solve_ilp,
    solve_lp,
    solve_minmax,
)
from .filling import (
    FillingCertificate,
    filling_norm_q,
    filling_norm_z,
    norm_with_escalation,
)
from .presentation import (
    GroupPresentation,
    Word,
    cyclically_reduce,
    free_reduce,
    inverse_word,
    parse_presentation,
    parse_word,
    shortlex_key,
    word_to_text,
)
from .probes import (
    AmenabilityProbe,
    FVEstimate,
    GrowthFit,
    HyperbolicityReport,
    ProbeConfig,
    estimate_fv,
    fit_growth,
    probe_amenability,
    probe_hyperbolicity,
)
from .rationals import Q, is_integral, parse_q, qstr
from .rewriting import (
    RewriteStatus,
    RewritingSystem,
    check_local_confluence,
    knuth_bendix_bounded,
    normal_form,
    system_from_rules,
)

__version__ = "0.1.0"
