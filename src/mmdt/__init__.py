"""Explainable clustering of mixture models with axis-aligned and kernel trees."""

from .adversarial import AdversarialInstance, gen_b3, gen_thm2, gen_thm4
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
)
from .mixture import (
    Component,
    LabeledDataset,
    MixtureModel,
    empirical_moments,
    enr,
    fit_gmm,
    sample,
)
from .tree import (
    AxisCut,
    AxisTree,
    build_mmdt,
    minimize_threshold,
    objective_value,
    predict,
    select_axis,
)

__version__ = "0.1.0"
