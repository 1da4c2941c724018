"""Coefficient functions of the late-time profiles of the mode family.

Two model profiles capture the asymptotics of the exact mode solution:

* a mass-driven heat-like term  (P0 + P1) e^{-t L (1+L)}  that dominates at
  low frequency, and
* a damped oscillatory term
  e^{-t/(2L)} [ sin(sqrt(L) t)/sqrt(L) u1 + cos(sqrt(L) t) u0 ]
  that dominates at high frequency,

with their sum as the combined profile.  The oscillatory profile extends
continuously by 0 to L -> 0 for t > 0 (the damping factor e^{-t/(2L)}
underflows to zero there, which is exactly the continuous limit).

This module gives the profiles' coefficients over arrays of log-weights;
`quadrature.node_values` multiplies them with the data values and
assembles every profile and every difference u - profile from them.
"""

from __future__ import annotations

import numpy as np

__all__ = ["phi1_coeff", "phi2_envelope", "phi2_coeffs"]

# Below lam * t^2 = 1e-12 the sin(sqrt(lam) t)/sqrt(lam) series avoids 0/0.
_SINC_CUT = 1e-12


def phi1_coeff(lam, t, log_scale=0.0):
    """e^{log_scale - t L (1+L)} for scalar or array lam and t; a log_scale
    folds a factor into the exponent, where it cannot overflow."""
    lam = np.asarray(lam, dtype=float)
    out = np.exp(log_scale - t * lam * (1.0 + lam))
    return float(out) if out.ndim == 0 else out


def phi2_envelope(lam: np.ndarray, t) -> np.ndarray:
    """e^{-t/(2L)}, the oscillatory profile's damping, t a float or aligned
    with L; it underflows to 0 at L = 0 for t > 0 and equals 1 at t = 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(t == 0.0, 1.0, np.exp(-t / (2.0 * lam)))


def phi2_coeffs(lam, t):
    """(envelope, sin-coefficient, cos-coefficient) arrays of the oscillatory
    profile over an array of log-weights, t a float or aligned with them.

    phi2 = env * (s2 * u1 + c2 * u0) with env = e^{-t/(2L)},
    s2 = sin(sqrt(L) t)/sqrt(L), c2 = cos(sqrt(L) t).  At L = 0 the envelope
    underflows to 0 for t > 0 and equals 1 at t = 0.
    """
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    env = phi2_envelope(lam_arr, t)
    sq = np.sqrt(lam_arr)
    st = sq * t
    z = lam_arr * t * t
    small = z < _SINC_CUT
    with np.errstate(invalid="ignore", divide="ignore"):
        s2 = np.where(small, t * (1.0 - z / 6.0 + z * z / 120.0),
                      np.sin(st) / np.where(small, 1.0, sq))
    return env, s2, np.cos(st)
