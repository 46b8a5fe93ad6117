"""The public API: the names `tlsq` exports."""

import pathlib
import re

import tlsq

PUBLIC_NAMES = (
    "DegenerateDistribution", "DimensionMismatch", "ExperimentConfig", "FileFormatError",
    "ImaginaryResidue", "MetricsRow", "RankDeficient", "SamplingDistribution", "SamplingPlan",
    "SketchRankDeficient", "ThinTSVD", "TlsProblem", "TlsSolution", "TlsqError",
    "VarianceReport", "ZeroProbabilityRow", "as_tensor", "bcirc", "bcirc_product", "coherence",
    "compute_metrics", "conditional_variance", "draw_plan",
    "f_diag", "fold", "fro_norm", "from_fourier", "gen_design",
    "gen_response", "identity", "leverage_probs", "objective", "ols_variance", "optimal_probs",
    "read_report", "read_tensor", "run_experiment", "run_mls_comparison",
    "sandwich_middle_trace", "shrinked_leverage_probs", "solve_ols", "solve_subsampled",
    "t_pinv", "t_product", "t_transpose", "tau_lower_bound", "thin_t_svd", "trace_t",
    "unconditional_variance", "unfold", "uniform_probs", "variance_report",
    "write_report", "write_tensor",
)


def test_all_is_pinned():
    """Any change to the exported names is a deliberate edit here; submodules are not exported."""
    assert len(PUBLIC_NAMES) == 54
    assert sorted(tlsq.__all__) == sorted(PUBLIC_NAMES)


def test_readme_states_the_name_count():
    """README's count of the public names is the length of the pinned list."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    stated = re.findall(r"The public API is the (\d+) names", " ".join(readme.split()))
    assert stated == [str(len(PUBLIC_NAMES))]
