"""lmsmlab: simulation and wavelet-based inference for heavy-tailed
multifractional processes.

The pipeline: symmetric alpha-stable noise on a grid (``stable``,
``process``), sample paths of the motion with time-varying Hurst regularity
(``process``), wavelet coefficient pyramids (``coeffs``, ``wavelet``),
scale-wise estimators of min H, local H and the stability index
(``estimators``), numerical certification of the underlying kernel bounds
(``bounds``), and reproducible batch experiments (``harness``, ``cli``).
"""

__version__ = "0.1.0"

from .stable import StableLaw, sample_sas, moment_constant, tail_coefficient
from .wavelet import (
    WaveletSpec,
    PhiKernel,
    default_wavelet,
    validate_wavelet,
)
from .process import (
    HurstFunction,
    MeshFieldInterpolant,
    NoiseGrid,
    SamplePath,
    TruncationError,
    constant_hurst,
    linear_hurst,
    sine_hurst,
    make_noise_grid,
    eval_field,
    simulate_lmsm,
    simulate_coeff_direct,
)
from .coeffs import (
    CoeffPyramid,
    local_window,
    index_set,
    build_pyramid,
    max_coeff,
)
from .estimators import (
    EstimateRecord,
    empirical_mean,
    estimate_hmin,
    corrected_hmin,
    estimate_alpha,
)
from .bounds import (
    BoundReport,
    rq_integral,
    phi1_integral,
    phi2_integral,
    lambda_exponent,
    covariance_mc_check,
    scale_param_check,
    approx_error_check,
)
from .harness import ExperimentConfig, ConvergenceTable, run_experiment, run_verification
