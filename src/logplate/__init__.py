"""logplate: spectral simulator and decay-rate verification harness for the
Cauchy problem of a plate-type wave equation with logarithmic dispersion and
inverse-log damping.

On the Fourier side every radial mode obeys

    (1 + L) u'' + u' + L (1 + L) u = 0,    L = log(1 + r^2),

and the package evaluates the exact mode solutions (`modes`), the
coefficients of the late-time heat-like and oscillatory profiles
(`profiles`), radial-quadrature L^2 norms of the solution, the profiles and
their differences (`quadrature`, whose `node_values` is the one place where
mode values and profiles are combined), and log-log decay-rate fits that
reproduce the known decay classification (diffusion-like / wave-like /
both) at desk scale (`rates`).  Everything is deterministic: identical
inputs give bit-identical output.
"""

from .symbols import (
    R_UNIT,
    FreqPoint,
    Thresholds,
    CharRoots,
    char_roots,
    compute_thresholds,
    log_weight,
    mult_weight,
)
from .modes import ModeState, EnergyDensity, energy_density, mode_solve, pointwise_bound_check
from .oracle import IntegratorConfig, StepBudgetError, integrate_mode
from .profiles import ProfileKind
from .quadrature import (
    NORM_KINDS,
    ZONES,
    NormSeries,
    QuadSpec,
    default_time_grid,
    norm_series,
    norm_value,
    radial_integral,
    ref_integral_Ip,
    ref_integral_Jp,
    surface_area,
)
from .data import RadialSpectrum, parse_pair, parse_profile, y_norm
from .rates import BandReport, DecayRegime, RateFit, RegimeReport, classify, fit_rate, two_sided_band

__version__ = "0.1.0"
