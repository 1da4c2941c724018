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
    "scaled_error",
]

#: Accepted plus rejected steps one integration may take.
MAX_STEPS = 1_000_000


class StepBudgetError(RuntimeError):
    """Raised when the step budget runs out before reaching t_end.

    Signals a misconfigured run (tolerance or budget), never silently
    degraded accuracy.
    """


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-10

    def __post_init__(self) -> None:
        if not (0.0 < self.rel_tol <= 1e-6):
            raise ValueError("rel_tol must lie in (0, 1e-6]")


# Dormand-Prince 5(4) tableau; the fifth-order solution is propagated and
# the embedded fourth-order difference provides the local error estimate.
_C = (0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0, -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0),
)
_ERR = (
    71.0 / 57600.0,
    0.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


def _state_norm(u: complex, v: complex) -> float:
    return math.sqrt(
        u.real * u.real + u.imag * u.imag + v.real * v.real + v.imag * v.imag
    )


def integrate_mode(
    p: FreqPoint,
    u0: complex,
    u1: complex,
    t_end: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> ModeState:
    """Integrate (u, v)' = (v, -(v + L(1+L) u)/(1+L)) from 0 to t_end.

    Returns the ModeState at t_end; measure its error with `scaled_error`.
    """
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    u = complex(u0)
    v = complex(u1)
    if t_end == 0.0:
        return ModeState(u, v, 0.0)

    lam = p.lam
    inv = 1.0 / (1.0 + lam)
    stiff = lam * (1.0 + lam)

    def rhs(uu: complex, vv: complex) -> tuple[complex, complex]:
        return vv, -(vv + stiff * uu) * inv

    t = 0.0
    ku = [0j] * 7
    kv = [0j] * 7
    ku[0], kv[0] = rhs(u, v)
    # Conservative first step; the controller adapts within a few steps.
    h = min(t_end, 0.1 / (1.0 + math.sqrt(lam)))
    attempts = 0  # accepted plus rejected steps
    err_prev = 1e-4  # memory of the PI step controller

    while t < t_end:
        if attempts >= MAX_STEPS:
            raise StepBudgetError(
                f"step budget {MAX_STEPS} exhausted at t={t:.6g} of {t_end:.6g}"
            )
        attempts += 1
        h = min(h, t_end - t)
        for i in range(1, 7):
            au = u
            av = v
            for j, aij in enumerate(_A[i]):
                if aij != 0.0:
                    au += h * aij * ku[j]
                    av += h * aij * kv[j]
            ku[i], kv[i] = rhs(au, av)
        # stage 7 state equals the fifth-order solution (FSAL)
        u_new = au
        v_new = av
        err_u = 0j
        err_v = 0j
        for j in range(7):
            ej = _ERR[j]
            if ej != 0.0:
                err_u += ej * ku[j]
                err_v += ej * kv[j]
        err_u *= h
        err_v *= h
        scale = cfg.rel_tol * max(
            _state_norm(u, v), _state_norm(u_new, v_new)
        )
        if scale == 0.0:
            err_norm = 0.0
        else:
            err_norm = _state_norm(err_u, err_v) / scale
        if err_norm <= 1.0:
            t += h
            u, v = u_new, v_new
            ku[0], kv[0] = ku[6], kv[6]
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

    return ModeState(u, v, t_end)


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
