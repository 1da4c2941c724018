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
case.  The step is written out stage by stage with the tableau as named
constants.  Each product h*a_ij is formed once per step and applied as
(h*a_ij)*k_j, summed left to right, so the values are those of the
generic stage loop bit for bit.
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


# Dormand-Prince 5(4) tableau as named constants, so each step is written
# out stage by stage; c_i is implicit, the system being autonomous.  The
# fifth-order solution is propagated (its last stage is evaluated at the new
# state: first same as last) and the embedded fourth-order difference, with
# weights _E*, provides the local error estimate.
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = (
    19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
)
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0
)
_A71, _A73, _A74, _A75, _A76 = (  # a72 = 0
    35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
)
_E1, _E3, _E4, _E5, _E6, _E7 = (  # e2 = 0
    71.0 / 57600.0, -71.0 / 16695.0, 71.0 / 1920.0, -17253.0 / 339200.0,
    22.0 / 525.0, -1.0 / 40.0,
)


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

    # The first stage's slopes are (v, kv1): reused from the last stage of
    # the previous accepted step, as is the norm of the current state.
    kv1 = -(v + stiff * u) * inv
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
            # Stage i's state is u + sum_j (h a_ij) k_j, summed left to right;
            # its u-slope is its own v, and its v-slope is -(v + L(1+L) u)/(1+L).
            a = h * _A21
            u2 = u + a * v
            v2 = v + a * kv1
            kv2 = -(v2 + stiff * u2) * inv
            a1 = h * _A31
            a2 = h * _A32
            u3 = u + a1 * v + a2 * v2
            v3 = v + a1 * kv1 + a2 * kv2
            kv3 = -(v3 + stiff * u3) * inv
            a1 = h * _A41
            a2 = h * _A42
            a3 = h * _A43
            u4 = u + a1 * v + a2 * v2 + a3 * v3
            v4 = v + a1 * kv1 + a2 * kv2 + a3 * kv3
            kv4 = -(v4 + stiff * u4) * inv
            a1 = h * _A51
            a2 = h * _A52
            a3 = h * _A53
            a4 = h * _A54
            u5 = u + a1 * v + a2 * v2 + a3 * v3 + a4 * v4
            v5 = v + a1 * kv1 + a2 * kv2 + a3 * kv3 + a4 * kv4
            kv5 = -(v5 + stiff * u5) * inv
            a1 = h * _A61
            a2 = h * _A62
            a3 = h * _A63
            a4 = h * _A64
            a5 = h * _A65
            u6 = u + a1 * v + a2 * v2 + a3 * v3 + a4 * v4 + a5 * v5
            v6 = v + a1 * kv1 + a2 * kv2 + a3 * kv3 + a4 * kv4 + a5 * kv5
            kv6 = -(v6 + stiff * u6) * inv
            a1 = h * _A71
            a3 = h * _A73
            a4 = h * _A74
            a5 = h * _A75
            a6 = h * _A76
            # the last stage's state is the fifth-order solution
            u7 = u + a1 * v + a3 * v3 + a4 * v4 + a5 * v5 + a6 * v6
            v7 = v + a1 * kv1 + a3 * kv3 + a4 * kv4 + a5 * kv5 + a6 * kv6
            kv7 = -(v7 + stiff * u7) * inv
            err_u = (
                _E1 * v + _E3 * v3 + _E4 * v4 + _E5 * v5 + _E6 * v6 + _E7 * v7
            ) * h
            err_v = (
                _E1 * kv1 + _E3 * kv3 + _E4 * kv4 + _E5 * kv5 + _E6 * kv6 + _E7 * kv7
            ) * h
            norm7 = sqrt(
                u7.real * u7.real + u7.imag * u7.imag
                + v7.real * v7.real + v7.imag * v7.imag
            )
            scale = rel_tol * (norm if norm >= norm7 else norm7)
            if scale == 0.0:
                err_norm = 0.0
            else:
                err_norm = sqrt(
                    err_u.real * err_u.real + err_u.imag * err_u.imag
                    + err_v.real * err_v.real + err_v.imag * err_v.imag
                ) / scale
            if err_norm <= 1.0:
                t += h
                u, v, kv1, norm = u7, v7, kv7, norm7
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
