"""Explainable clustering of mixture models with axis-aligned and kernel trees."""

from .adversarial import (
    AdversarialInstance,
    b3_canonical_tree,
    enumerate_valid_trees,
    gen_b3,
    gen_thm2,
    gen_thm4,
    thm4_canonical_tree,
)
from .baseline import CenteredDataset, build_imm, empirical_price
from .errors import FormatError, IncompatibilityError, MMDTError, ValidationError
from .evaluate import (
    EvalReport,
    beta_estimate,
    exact_error_rate_gaussian,
    exact_eval_discrete,
    mc_eval,
    thm1_bound,
    thm3_bound,
    thm4_floor,
    with_bounds,
)
from .kernel import (
    KernelSpec,
    KernelStats,
    KernelTree,
    build_kernel_mmdt,
    kernel_price,
    kernel_stats,
    mmd,
    thm5_bound,
    xi,
)
from .mixture import (
    Component,
    LabeledDataset,
    MixtureModel,
    empirical_moments,
    enr,
    fit_gmm,
    sample,
    snr,
)
from .tree import (
    AxisCut,
    AxisTree,
    BuildOptions,
    build_mmdt,
    chebyshev_objective,
    exact_discrete_objective,
    gaussian_objective,
    minimize_threshold,
    predict,
    select_axis,
)

__version__ = "0.1.0"
