"""rdlab: growth, convolution, and operator-norm measurements on finitely
generated groups, organized around the quantitative content of the rapid
decay property."""

__version__ = "0.1.0"

from .algebra import (
    AlgebraElement,
    adjoint,
    char_ball,
    char_sphere,
    convolve,
    linear_combine,
    norm,
    point_mass,
    pointwise_geq,
    scale,
)
from .errors import (
    BudgetExceededError,
    CoverageError,
    HomomorphismError,
    IndexRadiusError,
    RdlabError,
    SpecMismatchError,
)
from .groups import (
    DEFAULT_BUDGET,
    DirectProduct,
    DiscreteHeisenberg,
    Embedding,
    FiniteCyclic,
    FreeAbelian,
    FreeGroup,
    GroupSpec,
    LengthIndex,
    ball_sizes,
    embed,
    enumerate_balls,
    holding_balls,
    parse_descriptor,
    sphere_sizes,
)
from .norms import (
    NormEstimate,
    RadialElement,
    free_radial,
    op_norm_l1_bracket,
    op_norm_positive_amenable,
    op_norm_power_iteration,
    op_norm_trace_power,
    radial_ball,
    radial_convolve,
    radial_from_algebra,
    radial_sphere,
    radial_to_algebra,
)
from .rd import (
    BallSeries,
    ExponentFit,
    RatioEntry,
    RatioSeries,
    RdReport,
    ball_product_sweep,
    ball_series_l2_bounds,
    build_ball_series,
    build_report,
    delocalize_constant,
    doubling_ratios,
    fit_exponent,
    fit_loglog,
    harmonic_sphere_sum,
    norm_bracket,
    ratio_series,
    rd_constant_series,
    standard_embedding,
    standard_embeddings,
    verify_ball_product_bound,
    verify_doubling,
    verify_heredity,
    verify_series_product_bound,
    witness_element,
)
