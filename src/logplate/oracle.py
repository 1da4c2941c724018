"""Independent adaptive integration of the mode ODE, for cross-validating
the closed-form evaluator.

A hand-rolled Dormand-Prince 5(4) embedded pair with a standard step-size
controller.  The system is non-stiff (the spectral radius grows only like
sqrt(log r)), so an explicit pair is the right tool; keeping the integrator
self-contained gives exact control over the step budget and makes runs
bit-reproducible.  The complex mode is integrated as two real pairs
(Re u, Im u) and (Re v, Im v); the error norm is taken over those four
components against a scale proportional to the current state norm, so the
controller stays relative even when the solution has decayed by hundreds of
orders of magnitude.

One integration serves any number of output times: `integrate_mode_at`
clips each step so it lands on every requested time, and a single
MAX_STEPS budget covers the whole run; `integrate_mode` is its one-time
case.  The mode ODE y' = Ay is linear and autonomous, so the pair's step is
exactly y <- R(hA) y with R its stability polynomial, and its error
estimate is a polynomial in hA too.  A step forms the powers (hA)^k y,
k = 1..7, each one application of the right-hand side (seven a step, one
for each of the pair's stages), and combines them; the oracle uses only
that right-hand side, not the roots or branches of the closed form it
checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .modes import ModeState
from .symbols import FreqPoint

__all__ = [
    "IntegratorConfig",
    "StepBudgetError",
    "MAX_STEPS",
    "integrate_mode",
    "integrate_mode_at",
    "scaled_error",
]

#: Accepted plus rejected steps one integration may take, over all its
#: output times.
MAX_STEPS = 1_000_000


class StepBudgetError(RuntimeError):
    """Raised when the step budget runs out before the last output time.

    Signals a misconfigured run (tolerance or budget), never silently
    degraded accuracy.
    """


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-6):
            raise ValueError("rel_tol must lie in (0, 1e-6]")


# For the linear autonomous system y' = Ay every stage of an explicit
# Runge-Kutta method is a polynomial in hA applied to y (Hairer, Norsett &
# Wanner, Solving ODEs I, sec. IV.2), so Dormand-Prince 5(4)'s step is
# y <- R(hA) y with R(z) = sum _STEP[k] z^k, and its embedded error estimate
# (fifth- minus fourth-order weights, the last stage taken at the new state)
# is sum _ERR[j] (hA)^(5+j) y.  Both are exact in rationals from the tableau.
_STEP = (1.0, 1.0, 1.0 / 2.0, 1.0 / 6.0, 1.0 / 24.0, 1.0 / 120.0, 1.0 / 600.0)
_ERR = (-97.0 / 120000.0, 13.0 / 40000.0, -1.0 / 24000.0)


def integrate_mode(
    p: FreqPoint,
    u0: complex,
    u1: complex,
    t_end: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> ModeState:
    """The state at t_end alone; see `integrate_mode_at`."""
    return integrate_mode_at(p, u0, u1, (t_end,), cfg)[0]


def integrate_mode_at(
    p: FreqPoint,
    u0: complex,
    u1: complex,
    times: tuple[float, ...],
    cfg: IntegratorConfig = IntegratorConfig(),
) -> tuple[ModeState, ...]:
    """Integrate (u, v)' = (v, -(v + L(1+L) u)/(1+L)) from 0 through `times`.

    `times` must be finite, nonnegative and nondecreasing; they are checked
    before the first step.  Steps are clipped to land on each output time,
    and one MAX_STEPS budget covers the whole run.  Returns one ModeState
    per output time (the data itself at t = 0); measure their errors with
    `scaled_error`.
    """
    prev = 0.0
    for t_out in times:
        if not (prev <= t_out < math.inf):
            raise ValueError(
                "output times must be finite, nonnegative and nondecreasing"
            )
        prev = t_out
    u = complex(u0)
    v = complex(u1)
    lam = p.lam
    inv = 1.0 / (1.0 + lam)
    stiff = lam * (1.0 + lam)
    rel_tol = cfg.rel_tol
    sqrt = math.sqrt

    _, _, r2, r3, r4, r5, r6 = _STEP
    e5, e6, e7 = _ERR
    # the norm of the current state is reused from the last accepted step
    norm = sqrt(u.real * u.real + u.imag * u.imag + v.real * v.real + v.imag * v.imag)
    t = 0.0
    # Conservative first step; the controller adapts within a few steps.
    first = next((t_out for t_out in times if t_out > 0.0), 0.0)
    h = min(first, 0.1 / (1.0 + sqrt(lam)))
    attempts = 0  # accepted plus rejected steps
    err_prev = 1e-4  # memory of the PI step controller
    out = []

    for t_out in times:
        while t < t_out:
            if attempts >= MAX_STEPS:
                raise StepBudgetError(
                    f"step budget {MAX_STEPS} exhausted at t={t:.6g} of {times[-1]:.6g}"
                )
            attempts += 1
            if h > t_out - t:
                h = t_out - t
            # (hA)^k y = (h w_{k-1}, w_k) with w_0 = v: each w_k is one
            # application of the right-hand side, -(v + L(1+L) u)/(1+L), to
            # the previous power, with the factor -h/(1+L) folded in.
            c = -h * inv
            g = h * stiff
            w1 = (v + stiff * u) * c
            w2 = (w1 + g * v) * c
            w3 = (w2 + g * w1) * c
            w4 = (w3 + g * w2) * c
            w5 = (w4 + g * w3) * c
            w6 = (w5 + g * w4) * c
            w7 = (w6 + g * w5) * c
            u_new = u + h * (v + r2 * w1 + r3 * w2 + r4 * w3 + r5 * w4 + r6 * w5)
            v_new = v + w1 + r2 * w2 + r3 * w3 + r4 * w4 + r5 * w5 + r6 * w6
            err_u = h * (e5 * w4 + e6 * w5 + e7 * w6)
            err_v = e5 * w5 + e6 * w6 + e7 * w7
            norm_new = sqrt(
                u_new.real * u_new.real + u_new.imag * u_new.imag
                + v_new.real * v_new.real + v_new.imag * v_new.imag
            )
            scale = rel_tol * (norm if norm >= norm_new else norm_new)
            if scale == 0.0:
                err_norm = 0.0
            else:
                err_norm = sqrt(
                    err_u.real * err_u.real + err_u.imag * err_u.imag
                    + err_v.real * err_v.real + err_v.imag * err_v.imag
                ) / scale
            if err_norm <= 1.0:
                t += h
                u, v, norm = u_new, v_new, norm_new
                # PI controller (proportional-integral): damps step-size
                # oscillation and cuts the accumulated phase error of long
                # oscillatory integrations by a small constant factor.
                if err_norm == 0.0:
                    factor = 5.0
                else:
                    factor = min(
                        5.0,
                        max(0.2, 0.85 * err_norm**-0.14 * err_prev**0.08),
                    )
                err_prev = max(err_norm, 1e-10)
            else:
                factor = max(0.2, 0.85 * err_norm**-0.2)
            h *= factor
        out.append(ModeState(u, v, t_out))
    return tuple(out)


def scaled_error(state: ModeState, num: ModeState, u0: complex, u1: complex) -> float:
    """Distance of `num` from `state`, scaled by the larger of the norms of
    `state` and of the initial data (u0, u1); 0 when both norms are 0.

    Scaling by the current state alone is unattainable in doubles: once the
    state has decayed by many orders, the eps-level roundoff that any
    forward integration injects early dominates the tiny amplitude left.
    """
    scale = max(math.hypot(abs(state.u), abs(state.v)), math.hypot(abs(u0), abs(u1)))
    diff = math.hypot(abs(state.u - num.u), abs(state.v - num.v))
    return diff / scale if scale else 0.0
