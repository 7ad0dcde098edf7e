"""khbm: moment inequalities for random sign sums on normed spaces,
and the Banach-Mazur distance bounds they imply.

The package computes the functional I_p(v, f) = (E ||sum f(x_i) v_i||^p)^(1/p)
exactly, by an independent subset expansion, and by seeded Monte Carlo;
checks the two-sided moment bounds with explicit constants; verifies a
sharp subset power-mean inequality; searches for violations of Hanner
type/cotype sign-sum inequalities; and assembles lower/upper bound
sandwiches for Banach-Mazur distances between l^p balls.
"""

from .banach_mazur import (
    BMBoundReport,
    LowerBound,
    TransformBound,
    corollary1_lower,
    hadamard_matrix,
    known_distance,
    prop4_lower,
    sandwich_report,
    theorem2_cotype_lower,
    theorem2_general_lower,
    upper_bound_via_transform,
)
from .combinatorics import Lemma1Report, SubsetRatioInput, lemma1_bounds, subset_power_ratio, verify_lemma1
from .constants import KhinchineConstants, khinchine_constants, lower_constant, upper_constant
from .distributions import (
    SymmetricAtoms,
    envelope_upper,
    f_norms,
    l2_lower_constant,
    parse_atoms,
    rademacher,
    superlevel_reduction,
    theorem1_lower_constant,
    theorem1_upper_constant,
)
from .functional import (
    BoundCheck,
    EnumerationBudgetError,
    IpResult,
    VectorTuple,
    check_argument_norm_axioms,
    check_barycenter_reduction,
    check_level_monotonicity,
    check_value_norm_axioms,
    default_budget,
    ipf_exact,
    ipf_monte_carlo,
    ipf_two_valued_exact,
    verify_theorem1,
)
from .hanner import FalsificationResult, HannerReport, HlawkaReport, falsify_hanner, hanner_gap, hlawka_check
from .norms import (
    ComparisonConstants,
    LpNorm,
    NormSpec,
    PolytopeGauge,
    describe_norm,
    dual_norm_spec,
    estimate_comparison,
    lp_comparison,
    norm_eval,
    norm_eval_many,
    parse_norm_spec,
)

__version__ = "0.1.0"
