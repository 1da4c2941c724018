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
estimate is a polynomial in hA too.  A is a real 2x2 matrix, so by
Cayley-Hamilton A^k = alpha_k I + beta_k A, with alpha_0 = 1, beta_0 = 0,
alpha_{k+1} = -det(A) beta_k and beta_{k+1} = alpha_k + tr(A) beta_k, where
tr A = -1/(1+L) and det A = L.  The step is therefore
y <- P(h) y + Q(h) Ay and the estimate E_P(h) y + E_Q(h) Ay, with four
real polynomials in h formed once a run: a step applies the right-hand
side once and evaluates them by Horner, on the state as four real lanes.
The oracle uses only the ODE's coefficients, not the roots or branches of
the closed form it checks.
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
    lam = p.lam
    inv = 1.0 / (1.0 + lam)
    stiff = lam * (1.0 + lam)
    # (alpha_k, beta_k) of A^k = alpha_k I + beta_k A, k = 0..7; the
    # coefficients of P and Q weight them by _STEP, those of E_P and E_Q
    # by _ERR
    ab = [(1.0, 0.0)]
    for _ in range(7):
        ab.append((-lam * ab[-1][1], ab[-1][0] - ab[-1][1] * inv))
    _, _, p2, p3, p4, p5, p6 = (r * alpha for r, (alpha, _) in zip(_STEP, ab))
    _, _, q2, q3, q4, q5, q6 = (r * beta for r, (_, beta) in zip(_STEP, ab))
    ep5, ep6, ep7 = (e * alpha for e, (alpha, _) in zip(_ERR, ab[5:]))
    eq5, eq6, eq7 = (e * beta for e, (_, beta) in zip(_ERR, ab[5:]))
    rel_tol = cfg.rel_tol
    sqrt = math.sqrt

    # the state as four real lanes (Re u, Im u, Re v, Im v)
    ur, ui, vr, vi = complex(u0).real, complex(u0).imag, complex(u1).real, complex(u1).imag
    # the norm of the current state is reused from the last accepted step
    norm = sqrt(ur * ur + ui * ui + vr * vr + vi * vi)
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
            # Ay = (v, w), one application of the right-hand side; P(0) = 1,
            # Q(h) = h + O(h^2)
            wr = -(vr + stiff * ur) * inv
            wi = -(vi + stiff * ui) * inv
            hh = h * h
            pp = 1.0 + hh * (p2 + h * (p3 + h * (p4 + h * (p5 + h * p6))))
            qq = h * (1.0 + h * (q2 + h * (q3 + h * (q4 + h * (q5 + h * q6)))))
            ur_new = pp * ur + qq * vr
            ui_new = pp * ui + qq * vi
            vr_new = pp * vr + qq * wr
            vi_new = pp * vi + qq * wi
            norm_new = sqrt(ur_new * ur_new + ui_new * ui_new + vr_new * vr_new + vi_new * vi_new)
            scale = rel_tol * (norm if norm >= norm_new else norm_new)
            if scale == 0.0:
                err_norm = 0.0
            else:
                h5 = hh * hh * h
                ep = h5 * (ep5 + h * (ep6 + h * ep7))
                eq = h5 * (eq5 + h * (eq6 + h * eq7))
                eur = ep * ur + eq * vr
                eui = ep * ui + eq * vi
                evr = ep * vr + eq * wr
                evi = ep * vi + eq * wi
                err_norm = sqrt(eur * eur + eui * eui + evr * evr + evi * evi) / scale
            if err_norm <= 1.0:
                t += h
                ur, ui, vr, vi, norm = ur_new, ui_new, vr_new, vi_new, norm_new
                # PI controller (proportional-integral): damps step-size
                # oscillation and cuts the accumulated phase error of long
                # oscillatory integrations by a small constant factor.
                # Clamped to [0.2, 5] by comparisons, cheaper than calls to
                # min and max.
                if err_norm == 0.0:
                    factor = 5.0
                else:
                    factor = 0.85 * err_norm**-0.14 * err_prev**0.08
                    factor = (factor if factor < 5.0 else 5.0) if factor > 0.2 else 0.2
                err_prev = err_norm if err_norm > 1e-10 else 1e-10
            else:
                # a NaN err_norm lands here too and takes the factor 0.2
                factor = 0.85 * err_norm**-0.2
                factor = factor if factor > 0.2 else 0.2
            h *= factor
        out.append(ModeState(complex(ur, ui), complex(vr, vi), t_out))
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
