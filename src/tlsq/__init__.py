"""Randomized row subsampling for tensor least squares under the t-product."""

from types import ModuleType as _ModuleType

from .errors import (
    DegenerateDistribution,
    DimensionMismatch,
    FileFormatError,
    ImaginaryResidue,
    RankDeficient,
    SketchRankDeficient,
    TlsqError,
    ZeroProbabilityRow,
)
from .tensor import (
    ThinTSVD,
    as_tensor,
    bcirc,
    bcirc_product,
    f_diag,
    fold,
    fro_norm,
    from_fourier,
    identity,
    read_tensor,
    t_pinv,
    t_product,
    t_transpose,
    thin_t_svd,
    unfold,
    write_tensor,
)
from .sampling import (
    SamplingDistribution,
    SamplingPlan,
    coherence,
    draw_plan,
    leverage_probs,
    optimal_probs,
    shrinked_leverage_probs,
    uniform_probs,
)
from .solver import (
    TlsProblem,
    TlsSolution,
    objective,
    solve_ols,
    solve_subsampled,
    tau_lower_bound,
)
from .stats import (
    VarianceReport,
    conditional_variance,
    ols_variance,
    sandwich_middle_trace,
    trace_t,
    unconditional_variance,
    variance_report,
)
from .experiments import (
    ExperimentConfig,
    MetricsRow,
    compute_metrics,
    gen_design,
    gen_response,
    read_report,
    run_experiment,
    run_mls_comparison,
    write_report,
)

__all__ = [
    name for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
__version__ = "0.1.0"
