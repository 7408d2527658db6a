"""Power and sample-size calculations for the slope test in simple linear
regression with a random normal predictor, plus the correlation-route
contrast."""

from .distmath import (
    NonConvergenceError,
    fixed_design_power,
    noncentral_t_cdf,
    normal_cdf,
    normal_quantile,
    t_cdf,
    t_quantile,
)
from .stochastics import SimPlan, StreamKey
from .exactnull import (
    ModelParams,
    beta1hat_density,
    beta1hat_moments,
    expected_t2,
    scaled_t_transform,
    t2_null_draws,
)
from .critvals import (
    CriticalValueCache,
    CriticalValueEstimate,
    cached_critical_value,
    critical_value_mc,
    critical_value_normal,
    table1,
)
from .powersim import (
    PowerEstimate,
    SampleSizeResult,
    SearchFailureError,
    find_sample_size_slope,
    power_table,
    simulate_power_slope,
)
from .corroute import (
    ContrastRow,
    contrast_table,
    corr_power_approx,
    corr_power_mc,
    find_sample_size_corr,
    lambda_to_rho,
    rho_to_lambda,
)

__version__ = "0.1.0"
