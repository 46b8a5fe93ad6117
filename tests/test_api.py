"""The public API: the names `tlsq` exports."""

import tlsq

PUBLIC_NAMES = (
    "DegenerateDistribution", "DimensionMismatch", "ExperimentConfig", "FileFormatError",
    "ImaginaryResidue", "MetricsRow", "RankDeficient", "SamplingDistribution", "SamplingPlan",
    "SketchRankDeficient", "ThinTSVD", "TlsProblem", "TlsSolution", "TlsqError",
    "VarianceReport", "ZeroProbabilityRow", "as_tensor", "bcirc", "bcirc_product", "coherence",
    "compute_metrics", "conditional_variance", "draw_plan", "extremal_singular_values",
    "f_diag", "fold", "fourier_singular_values", "fro_norm", "from_fourier", "gen_design",
    "gen_response", "identity", "leverage_probs", "objective", "ols_variance", "optimal_probs",
    "read_report", "read_tensor", "run_experiment", "run_mls_comparison",
    "sandwich_middle_trace", "shrinked_leverage_probs", "solve_ols", "solve_subsampled",
    "t_pinv", "t_product", "t_transpose", "tau_lower_bound", "thin_t_svd", "trace_t",
    "tubal_rank", "unconditional_variance", "unfold", "uniform_probs", "variance_report",
    "write_report", "write_tensor",
)


def test_all_is_pinned():
    """Any change to the exported names is a deliberate edit here; submodules are not exported."""
    assert len(PUBLIC_NAMES) == 57
    assert sorted(tlsq.__all__) == sorted(PUBLIC_NAMES)
