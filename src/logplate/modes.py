"""Closed-form evaluation of a single Fourier mode and its energy functionals.

The mode ODE (1+L) u'' + u' + L(1+L) u = 0 has roots -a +/- c with
a = 1/(2(1+L)) and c^2 = a^2 - L of either sign.  Instead of switching
between the textbook two-exponential, cosh/sinh and cos/sin formulas (the
first of which divides by the root gap and degenerates where the roots
collide), everything is written through

    C(t) = cosh(c t),     S(t) = sinh(c t)/c,

which are entire functions of c^2.  The solution with data (u0, u1) is

    u(t)  = e^{-a t} [ C(t) u0 + S(t) (u1 + a u0) ]
    u'(t) = e^{-a t} [ -L S(t) u0 + (C(t) - a S(t)) u1 ]

and an even power series in c^2 t^2 takes over near the root collision.
For real c the damped products e^{-a t} C(t), e^{-a t} S(t) are formed from
e^{(c-a)t} and expm1(-2 c t) so that nothing overflows at large t even
though cosh(c t) would.

One further branch is unavoidable: once e^{-2ct} drops below machine
epsilon the unified form assembles u as a difference of two slow-scale
terms, which destroys data aligned with the fast root (at r = 0 the datum
(1, -1) gives u(t) = e^{-t}, but 0.5 + 0.5 e^{-t} - 0.5 (1 - e^{-t}) rounds
to exactly 0 in doubles for t > 36).  For well-separated real roots
(2 c t > 17) the solution is therefore evaluated through the explicit
two-exponential eigen-decomposition, which is exact for eigen-aligned data
and has no cancellation there; the unified form keeps the neighbourhood of
the root collision, where the eigen-decomposition is the unstable one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .symbols import FreqPoint, Thresholds, mult_weight

__all__ = [
    "collision_gap",
    "oscillating_coeffs",
    "propagator_coeffs",
    "ModeState",
    "mode_solve",
    "EnergyDensity",
    "energy_density",
    "BoundCheck",
    "pointwise_bound_check",
]

# Below this value of |c^2| t^2 the power series for cosh(ct) and sinh(ct)/c
# is exact to double precision with four terms.
_SERIES_CUT = 1e-6


def collision_gap(lam):
    """(a, a^2 - L): the damping rate a = 1/(2(1+L)) and the discriminant
    whose sign separates real roots -a +/- sqrt(a^2 - L) (positive) from
    oscillating ones (negative)."""
    a = 0.5 / (1.0 + lam)
    return a, a * a - lam


def oscillating_coeffs(a, csq, t: float):
    """(e^{-at}, b) of oscillating modes, roots -a +/- i b with
    b = sqrt(L - a^2), from `collision_gap`'s (a, csq) with csq < 0."""
    return np.exp(-a * t), np.sqrt(-csq)


def propagator_coeffs(lam, t: float):
    """Damped propagator pieces (e^{-at} C(t), e^{-at} S(t), a) at time t.

    `lam` may be a scalar or ndarray; `t` is a nonnegative scalar shared by
    all entries.  Stable across the root-collision boundary and free of
    cosh overflow for arbitrarily large t.
    """
    lam_arr = np.asarray(lam, dtype=float)
    scalar = lam_arr.ndim == 0
    lam_arr = np.atleast_1d(lam_arr)
    t = float(t)

    a, csq = collision_gap(lam_arr)
    z = csq * (t * t)

    if not scalar and (z <= -_SERIES_CUT).all():
        # every node oscillates (the whole high zone): the osc branch below
        # on the full array, without the masked gather and scatter
        damp, b = oscillating_coeffs(a, csq, t)
        bt = b * t
        return damp * np.cos(bt), damp * np.sin(bt) / b, a

    ec = np.empty_like(lam_arr)
    es = np.empty_like(lam_arr)

    small = np.abs(z) < _SERIES_CUT
    real = (csq > 0.0) & ~small
    osc = (csq < 0.0) & ~small

    if small.any():
        zs = z[small]
        cosh_ser = 1.0 + zs * (0.5 + zs * (1.0 / 24.0 + zs / 720.0))
        sinhc_ser = t * (1.0 + zs * (1.0 / 6.0 + zs * (1.0 / 120.0 + zs / 5040.0)))
        damp = np.exp(-a[small] * t)
        ec[small] = damp * cosh_ser
        es[small] = damp * sinhc_ser
    if real.any():
        cc = np.sqrt(csq[real])
        slow = np.exp((cc - a[real]) * t)  # e^{lambda_plus t} <= 1
        ec[real] = 0.5 * slow * (1.0 + np.exp(-2.0 * cc * t))
        es[real] = slow * (-np.expm1(-2.0 * cc * t)) / (2.0 * cc)
    if osc.any():
        damp, b = oscillating_coeffs(a[osc], csq[osc], t)
        ec[osc] = damp * np.cos(b * t)
        es[osc] = damp * np.sin(b * t) / b

    if scalar:
        return float(ec[0]), float(es[0]), float(a[0])
    return ec, es, a


@dataclass(frozen=True)
class ModeState:
    """Value and velocity of one Fourier mode at time t."""

    u: complex
    v: complex
    t: float


# Root-separation threshold for the eigen-decomposition path: for
# 2 c t > 17 the unified form could lose up to e^{17} * eps ~ 5e-9 of
# relative accuracy on fast-aligned data, while the eigenform is safe.
_EIGEN_CUT = 17.0


def mode_solve(p: FreqPoint, u0: complex, u1: complex, t: float) -> ModeState:
    """Exact mode solution with data (u0, u1) at a finite time t >= 0."""
    if not (0.0 <= t < math.inf):
        raise ValueError("time must be finite and nonnegative")
    lam = p.lam
    one = 1.0 + lam
    a = 0.5 / one
    csq = a * a - lam
    if csq > 0.0:
        c = np.sqrt(csq)
        if 2.0 * c * t > _EIGEN_CUT:
            # sqrt(disc) = 2 (1+L) c; the product form keeps lambda_plus
            # cancellation-free for small L, and lambda_minus + 1 is formed
            # the same way so that amp_p = (lm u0 - u1)/den survives data
            # nearly aligned with the fast root.
            lp = -2.0 * lam * one / (1.0 + 2.0 * one * c)
            lm = -1.0 / one - lp
            lm1 = lam / one - lp  # lambda_minus + 1, no cancellation
            den = lm - lp
            amp_p = (lm1 * u0 - (u0 + u1)) / den
            amp_m = u0 - amp_p
            ep = np.exp(lp * t)
            em = np.exp(lm * t)
            u = amp_p * ep + amp_m * em
            v = amp_p * lp * ep + amp_m * lm * em
            return ModeState(complex(u), complex(v), float(t))
    ec, es, a = propagator_coeffs(lam, t)
    u = ec * u0 + es * (u1 + a * u0)
    v = -lam * es * u0 + (ec - a * es) * u1
    return ModeState(complex(u), complex(v), float(t))


@dataclass(frozen=True)
class EnergyDensity:
    """Per-mode energy functionals.

    e0     : base energy ((1+L)|v|^2 + L(1+L)|u|^2)/2, nonincreasing in t
    e_mod  : multiplier-modified energy, sandwiched in [e0/2, 3 e0]
    f_mod  : dissipation functional paired with e_mod
    r_mult : multiplier remainder w (1+L) |v|^2
    """

    e0: float
    e_mod: float
    f_mod: float
    r_mult: float


def energy_density(p: FreqPoint, s: ModeState, w: float) -> EnergyDensity:
    lam = p.lam
    one = 1.0 + lam
    u2 = abs(s.u) ** 2
    v2 = abs(s.v) ** 2
    cross = (s.v * s.u.conjugate()).real
    e0 = 0.5 * (one * v2 + lam * one * u2)
    e_mod = e0 + w * one * cross + 0.5 * w * u2
    f_mod = v2 + w * lam * one * u2
    r_mult = w * one * v2
    return EnergyDensity(e0, e_mod, f_mod, r_mult)


@dataclass(frozen=True)
class BoundCheck:
    """Result of the factor-6 pointwise decay bound at one (r, t).

    Margins are (rhs - lhs) for the energy form and, when the frequency is
    nonzero, for the amplitude form; the amplitude margin is None at r = 0
    where that form is not defined.
    """

    passed: bool
    energy_margin: float
    amplitude_margin: float | None


def pointwise_bound_check(
    p: FreqPoint, u0: complex, u1: complex, t: float, th: Thresholds
) -> BoundCheck:
    """Check E-form and |u|^2-form of the exponential decay bound at (r, t).

    Both sides carry the weight e^{-w t / 2} with the multiplier weight w;
    the factor 6 makes the bound strict at t = 0 and it stays valid for all
    t > 0.
    """
    if t <= 0.0:
        raise ValueError("the pointwise bound applies for t > 0")
    lam = p.lam
    one = 1.0 + lam
    w = mult_weight(p, th)
    s = mode_solve(p, u0, u1, t)
    decay = np.exp(-0.5 * w * t)

    lhs_e = one * abs(s.v) ** 2 + lam * one * abs(s.u) ** 2
    rhs_e = 6.0 * decay * (one * abs(u1) ** 2 + lam * one * abs(u0) ** 2)
    energy_margin = rhs_e - lhs_e
    passed = lhs_e <= rhs_e

    amplitude_margin = None
    if p.r > 0.0:
        lhs_a = abs(s.u) ** 2
        rhs_a = 6.0 * decay * (abs(u1) ** 2 / lam + abs(u0) ** 2)
        amplitude_margin = float(rhs_a - lhs_a)
        passed = passed and lhs_a <= rhs_a
    return BoundCheck(bool(passed), float(energy_margin), amplitude_margin)
