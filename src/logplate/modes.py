"""Closed-form evaluation of a single Fourier mode and its energy functionals.

The mode ODE (1+L) u'' + u' + L(1+L) u = 0 has roots -a +/- c, a = 1/(2(1+L))
and c^2 = a^2 - L of either sign, both from `symbols.collision_gap`.  One
kernel serves `mode_solve` and `pointwise_bound_check` (a float L, `_point`)
and the quadrature (arrays, `propagator_coeffs`); with z = c^2 t^2 each node
takes one of four branches, each written once:

* series, |z| < 1e-6 (the root collision r ~ delta, or t ~ 0), and
  oscillating, z < 0 (r > delta): u(t) = e^{-at} [C u0 + S (u1 + a u0)]
  with C = cosh(ct) and S = sinh(ct)/c, entire in c^2, summed as even
  series in z, resp. C = cos(bt), S = sin(bt)/b, b^2 = -c^2;
* unified real, 0 < z <= 8.5^2: the same form, built from e^{lambda_+ t} and
  expm1(-2ct) so that cosh(ct) never overflows;
* eigen, z > 8.5^2, i.e. 2ct > 17 (every low-zone node once t >~ 34): the
  two-exponential eigen-decomposition.  There the unified form is a
  difference of two slow-scale terms that destroys data aligned with the
  fast root (at r = 0 the datum (1, -1) gives u = e^{-t}, which it rounds
  to 0 for t > 36); near the root collision the eigen form is the unstable one.

The eigen branch takes its roots from `symbols.real_roots`, the ones check 02
tests, which forms the slow root -a + c as -L/(a + c): the difference
cancels at small L, where c ~ a - L, and its rounding noise times t swamps
||u - phi1|| of check 07's data near t ~ 1e6.  The unified branch keeps
e^{(c-a)t}: at small L it runs only for t <= 17, where the noise is < 1e-14.
"""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .symbols import FreqPoint, Thresholds, collision_gap, mult_weight, real_roots

__all__ = [
    "oscillating_coeffs",
    "propagator_coeffs",
    "ModeState",
    "mode_solve",
    "EnergyDensity",
    "energy_density",
    "BoundCheck",
    "pointwise_bound_check",
]

# Branch cuts in z = c^2 t^2: below 1e-6 four series terms are exact in
# doubles; beyond 8.5^2 (2ct > 17) the unified form could lose e^{17} eps
# ~ 5e-9 of relative accuracy on fast-aligned data.
_SERIES_CUT = 1e-6
_EIGEN_CUT = 8.5**2


def oscillating_coeffs(a, csq, t, xp=np):
    """(e^{-at}, b) of oscillating modes, roots -a +/- i b with
    b = sqrt(L - a^2), from `collision_gap`'s (a, csq) with csq < 0; `xp`
    supplies exp and sqrt (`np` for arrays, `_FLOAT` for a float)."""
    return xp.exp(a * -t), xp.sqrt(-csq)


# The branches take floats or arrays alike, with the elementwise functions as
# an argument: arrays get `np`, a float gets `_FLOAT`, which calls the same
# numpy function (bound as a default argument, one lookup fewer a call) and
# returns a Python float at once; sqrt is math.sqrt, which rounds correctly
# as np.sqrt does.  So a float evaluates bit-for-bit as an array entry does
# (math.exp differs from np.exp in the last bit on some arguments), and its
# arithmetic stays in Python floats and complexes: numpy-scalar times complex
# costs about 0.7 us an operation, and Python float and complex arithmetic
# round as float64 and complex128 do.  Complex data are divided by a real
# reciprocal, rounded alike by both.  Up to the sign of a zero: see
# `_zero_parts_settled`.
#
# The float path, `_point`, serves `mode_solve` and `pointwise_bound_check`
# and remembers its last point: `_last` holds (lam, t, u0, u1, (u, v)), and a
# call whose four arguments are those very objects (`is`) returns (u, v)
# without evaluating, as `pointwise_bound_check` right after `mode_solve` on
# the same point does.  The entry keeps its arguments alive, so an identity
# match means identical bits; data equal in value but not in the sign of a
# zero are other objects and are evaluated anew.  The float path takes
# scalars, which are immutable.  The entry is replaced by one assignment, so
# a thread reads either the old entry or the new one whole.
_FLOAT = SimpleNamespace(
    exp=lambda x, f=np.exp: float(f(x)),
    cos=lambda x, f=np.cos: float(f(x)),
    sin=lambda x, f=np.sin: float(f(x)),
    expm1=lambda x, f=np.expm1: float(f(x)),
    sqrt=math.sqrt,
)
_last = (None, None, None, None, None)


def _zero_parts_settled(u, v, u0, u1) -> bool:
    """Whether each zero part of a float's results u, v has numpy's sign of zero.

    A real times a complex rounds alike in Python and numpy except where a
    part of the product underflows: numpy's complex loop may fuse the
    multiply-add and keep the product's own sign of zero, while Python adds
    0 times the other part and can flip it.  A sign of zero reaches only a
    zero part of the result, and the kernel's coefficients are real, so the
    real parts come from the data's real parts alone (and the imaginary from
    the imaginary): a zero part is settled when those data parts are zero.
    """
    real, imag = u0.real or u1.real, u0.imag or u1.imag
    return bool((u.real and v.real or not real) and (u.imag and v.imag or not imag))


def _series(a, z, t, xp):
    damp = xp.exp(a * -t)
    cosh = 1.0 + z * (0.5 + z * (1.0 / 24.0 + z / 720.0))
    return damp * cosh, damp * (t * (1.0 + z * (1.0 / 6.0 + z * (1.0 / 120.0 + z / 5040.0))))


def _oscillating(a, csq, t, xp):
    damp, b = oscillating_coeffs(a, csq, t, xp)
    bt = b * t
    return damp * xp.cos(bt), damp * xp.sin(bt) / b


def _real(a, c, t, xp):
    slow = xp.exp((c - a) * t)
    fast = -2.0 * c * t
    return 0.5 * slow * (1.0 + xp.exp(fast)), slow * (-xp.expm1(fast)) / (2.0 * c)


def _eigen(lam, a, c, t, u0, u1, velocity, xp):
    # lambda_minus + 1 = 2aL - lambda_plus keeps amp_p on fast-aligned data
    lp, lm = real_roots(lam, a, c)
    amp_p = ((2.0 * a * lam - lp) * u0 - (u0 + u1)) * (-0.5 / c)
    amp_m = u0 - amp_p
    ep = xp.exp(lp * t)
    em = xp.exp(lm * t)
    u = amp_p * ep + amp_m * em
    return (u, amp_p * lp * ep + amp_m * lm * em) if velocity else u


def _assemble(lam, a, ec, es, u0, u1, velocity):
    """Value (and velocity) from the damped pieces e^{-at} C, e^{-at} S."""
    u = ec * u0 + es * (u1 + a * u0)
    return (u, -lam * es * u0 + (ec - a * es) * u1) if velocity else u


def _point(lam, t, u0, u1):
    """(u(t), u'(t)) at one float log-weight, from `_last` when its key holds
    these very objects."""
    global _last
    last = _last
    if last[0] is lam and last[1] is t and last[2] is u0 and last[3] is u1:
        return last[4]
    tf = t if type(t) is float else float(t)  # a numpy t^2 warns where it overflows
    a, csq = collision_gap(lam)
    z = csq * (tf * tf)
    if z > _EIGEN_CUT:
        out = _eigen(lam, a, math.sqrt(csq), tf, u0, u1, True, _FLOAT)
    else:
        if abs(z) < _SERIES_CUT:
            ec, es = _series(a, z, tf, _FLOAT)
        elif z < 0.0:
            ec, es = _oscillating(a, csq, tf, _FLOAT)
        else:
            ec, es = _real(a, math.sqrt(csq), tf, _FLOAT)
        out = _assemble(lam, a, ec, es, u0, u1, True)
    u, v = out
    if not (u.real and u.imag and v.real and v.imag or _zero_parts_settled(u, v, u0, u1)):
        with np.errstate(over="ignore"):  # c^2 t^2 reads -inf, as a float's does
            u, v = propagator_coeffs(np.array([lam]), tf, np.array([u0]), np.array([u1]), True)
        out = u.item(), v.item()
    _last = (lam, t, u0, u1, out)
    return out


def propagator_coeffs(lam, t, u0, u1, velocity: bool = False):
    """Mode value u(t) with data (u0, u1), or with `velocity` (u(t), u'(t)),
    at log-weights `lam`, an ndarray with u0, u1 of its shape and t >= 0 a
    float or one more such array; z = c^2 t^2 picks the branch.
    """
    a, csq = collision_gap(lam)
    tt = t * t  # before broadcasting: a Python float t squares to inf with no overflow warning
    t = np.broadcast_to(t, lam.shape)
    z = csq * tt
    osc = z <= -_SERIES_CUT
    eig = z > _EIGEN_CUT
    small = np.abs(z) < _SERIES_CUT
    real = (z >= _SERIES_CUT) & ~eig
    ec, es = np.zeros_like(lam), np.zeros_like(lam)
    if small.any():
        ec[small], es[small] = _series(a[small], z[small], t[small], np)
    if real.any():
        ec[real], es[real] = _real(a[real], np.sqrt(csq[real]), t[real], np)
    if osc.any():
        ec[osc], es[osc] = _oscillating(a[osc], csq[osc], t[osc], np)
    out = _assemble(lam, a, ec, es, u0, u1, velocity)
    if eig.any():
        # the data are gathered for the eigen nodes alone
        part = _eigen(lam[eig], a[eig], np.sqrt(csq[eig]), t[eig], u0[eig], u1[eig], velocity, np)
        for whole, piece in zip(out, part) if velocity else ((out, part),):
            whole[eig] = piece
    return out


# The results are built by tuple.__new__: a NamedTuple's own __new__ is a
# Python function, a fixed cost on every point.
class ModeState(NamedTuple):
    """Value and velocity of one Fourier mode at time t."""

    u: complex
    v: complex
    t: float


def mode_solve(p: FreqPoint, u0: complex, u1: complex, t: float) -> ModeState:
    """Exact mode solution with data (u0, u1) at a finite time t >= 0."""
    if not (0.0 <= t < math.inf):
        raise ValueError("time must be finite and nonnegative")
    u, v = _point(p.lam, t, u0, u1)
    return tuple.__new__(ModeState, (complex(u), complex(v), float(t)))


class EnergyDensity(NamedTuple):
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
    return tuple.__new__(EnergyDensity, (e0, e_mod, f_mod, r_mult))


class BoundCheck(NamedTuple):
    """Result of the factor-6 pointwise decay bound at one (r, t).

    Margins are (rhs - lhs) for the energy form and, when L > 0, for the
    amplitude form; the amplitude margin is None where L = 0 (at r = 0, and
    where r^2 underflows, r below about 1.5e-162), since that form divides
    by L.
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
    if not 0.0 < t < math.inf:
        raise ValueError("the pointwise bound applies for finite t > 0")
    lam = p.lam
    one = 1.0 + lam
    w = mult_weight(p, th)
    u, v = _point(lam, t, u0, u1)
    u2 = abs(u) ** 2
    d0, d1 = abs(u0) ** 2, abs(u1) ** 2
    decay = _FLOAT.exp(-0.5 * w * t)

    lhs_e = one * abs(v) ** 2 + lam * one * u2
    rhs_e = 6.0 * decay * (one * d1 + lam * one * d0)
    energy_margin = rhs_e - lhs_e
    passed = lhs_e <= rhs_e

    amplitude_margin = None
    if lam > 0.0:
        rhs_a = 6.0 * decay * (d1 / lam + d0)
        amplitude_margin = float(rhs_a - u2)
        passed = passed and u2 <= rhs_a
    return tuple.__new__(BoundCheck, (bool(passed), float(energy_margin), amplitude_margin))
