"""Power-law rate fitting and the (n, l) decay-regime classifier.

Rate fits are ordinary least squares on (log t, log value); a series of
squared norms therefore carries twice the exponent of the norm itself, and
callers state which convention they pass.  The classifier encodes the
branch tables of the decay-rate classification; inputs outside the covered
branches are labelled, never extrapolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "RateFit",
    "window_times",
    "fit_rate",
    "BandReport",
    "two_sided_band",
    "DecayRegime",
    "RegimeReport",
    "classify",
]

# Equality tolerance for the critical regularity l = n/2 - 1.
_L_EQ_TOL = 1e-12
# Fewest samples a fit or band window may hold.
_MIN_SAMPLES = 5


@dataclass(frozen=True)
class RateFit:
    """Least-squares exponent of value ~ t^slope over the fitted window.

    residual is the worst relative deviation of the data from the fitted
    line.
    """

    slope: float
    residual: float


def window_times(ts, window, label: str) -> tuple[float, ...]:
    """The times of ts inside the closed window, in order; ValueError
    naming the `label` window when fewer than five lie inside.

    Needs only the time grid, so a caller integrates exactly the times a fit
    or band over `window` reads, and rejects a short window before any
    quadrature.
    """
    t_lo, t_hi = float(window[0]), float(window[1])
    inside = tuple(t for t in ts if t_lo <= t <= t_hi)
    if len(inside) < _MIN_SAMPLES:
        raise ValueError(f"need at least {_MIN_SAMPLES} samples inside the {label} window")
    return inside


def _window_samples(series, window, label: str):
    """Arrays of the in-window times and their (positive) values."""
    ts = window_times(series.ts, window, label)
    vals = np.array([v for t, v in zip(series.ts, series.values) if t in ts])
    if np.any(vals <= 0.0):
        raise ValueError(f"{label} window contains non-positive values")
    return np.array(ts), vals


def fit_rate(series, window) -> RateFit:
    """Fit value ~ C t^slope on the samples inside the window."""
    ts, vals = _window_samples(series, window, "fit")
    lt = np.log(ts)
    lv = np.log(vals)
    lt_c = lt - lt.mean()
    slope = float(np.dot(lt_c, lv - lv.mean()) / np.dot(lt_c, lt_c))
    intercept = float(lv.mean() - slope * lt.mean())
    fit = np.exp(intercept + slope * lt)
    residual = float(np.max(np.abs(vals / fit - 1.0)))
    return RateFit(slope, residual)


@dataclass(frozen=True)
class BandReport:
    """Two-sided check: value * t^{-exponent} must stay inside a flat band.

    drift is True when the compensated local slopes keep one sign with a
    nonnegligible mean, i.e. the series systematically creeps instead of
    hovering around a constant.
    """

    lo: float
    hi: float
    ratio: float
    drift: bool
    passed: bool


def two_sided_band(
    series,
    exponent: float,
    window=None,
    ratio_cap: float = 9.0,
    drift_tol: float = 0.1,
) -> BandReport:
    """Compensate the series by t^{-exponent} and test it for a flat band.

    The defaults are for squared norms, as NormSeries holds (`exponent` twice
    the norm's): a norm band of ratio 3 and drift 0.05 squares to 9 and 0.1.
    """
    if window is None:
        window = (series.ts[0], series.ts[-1])
    t_arr, vals = _window_samples(series, window, "band")
    comp = vals * t_arr ** (-exponent)
    lo = float(comp.min())
    hi = float(comp.max())
    ratio = hi / lo
    local = np.diff(np.log(comp)) / np.diff(np.log(t_arr))
    one_signed = bool(np.all(local > 0.0) or np.all(local < 0.0))
    drift = one_signed and abs(float(local.mean())) > drift_tol
    return BandReport(lo, hi, ratio, drift, ratio <= ratio_cap and not drift)


class DecayRegime(Enum):
    DIFFUSION_LIKE = "diffusion-like"
    WAVE_LIKE = "wave-like"
    BOTH = "both"
    UNCOVERED = "uncovered-by-theory"


@dataclass(frozen=True)
class RegimeReport:
    """Classification of (dimension, regularity) with theoretical exponents.

    profile is the token of the regime's profile: "phi1" (heat-like),
    "phi2" (oscillatory) or "phi" (their sum); u - profile is the norm kind
    f"u-{profile}".  Exponents are in the norm convention (not squared).
    diff_exponent bounds ||u - profile||; sol_exponent_upper bounds ||u||;
    two_sided marks when a matching lower bound for ||u|| is available
    provided the data masses do not cancel.
    """

    n: int
    l: float
    regime: DecayRegime
    profile: str | None
    diff_exponent: float | None
    sol_exponent_upper: float | None
    two_sided: bool


def classify(n: int, l: float) -> RegimeReport:
    """Classify (n, l) against the decay-rate branch tables.

    Covered branches: diffusion-like needs l >= 1 and l > n/2 - 1 (profile:
    the heat-like term, exponent -min((n+2)/4, (l+1)/2)); wave-like needs
    n >= 5 and 1 <= l < n/2 - 1 (oscillatory profile, exponent
    -min(n/4, (l+3)/2)); the boundary l = n/2 - 1 with n >= 4 uses the sum
    of both profiles at exponent -(n+2)/4.  Anything else is labelled
    uncovered rather than extrapolated; l = math.inf stands for every l.
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not l >= 0.0:
        raise ValueError("regularity must be nonnegative")
    lstar = n / 2.0 - 1.0

    regime = DecayRegime.UNCOVERED
    profile = None
    diff_exponent = None
    if l >= 1.0:
        if abs(l - lstar) <= _L_EQ_TOL and n >= 4:
            regime = DecayRegime.BOTH
            profile = "phi"
            diff_exponent = -(n + 2.0) / 4.0
        elif l > lstar:
            regime = DecayRegime.DIFFUSION_LIKE
            profile = "phi1"
            diff_exponent = -min((n + 2.0) / 4.0, (l + 1.0) / 2.0)
        elif l < lstar and n >= 5:
            regime = DecayRegime.WAVE_LIKE
            profile = "phi2"
            diff_exponent = -min(n / 4.0, (l + 3.0) / 2.0)

    sol_exponent_upper = None
    two_sided = False
    if l >= 1.0:
        if n <= 3:
            sol_exponent_upper = -n / 4.0
            two_sided = True
        elif l <= lstar + _L_EQ_TOL:
            sol_exponent_upper = -(l + 1.0) / 2.0
        else:
            sol_exponent_upper = -n / 4.0
            two_sided = True
    return RegimeReport(int(n), float(l), regime, profile, diff_exponent,
                        sol_exponent_upper, two_sided)
