"""Deterministic adaptive radial quadrature for all L^2-type quantities.

Design notes
------------
* Panels are integrated with a Gauss-Kronrod 7-15 rule; |K15 - G7| is the
  panel error estimate.  Refinement splits every panel whose estimate
  exceeds its share of the global tolerance, so the process is independent
  of evaluation order.  The final value accumulates panel results sorted by
  position with math.fsum (exactly rounded), making output bit-reproducible
  for a fixed spec.
* Every zone is integrated in y = sqrt(L), L = log(1 + r^2): r overflows a
  double once L > 709 while the regularity-limited tails live out to
  log-weights of order t, so y is the only representable variable there,
  and one variable serves the whole line.  The radial measure w_n r^{n-1} dr
  is folded into the data values in log space (`_scaled_data_y`), which
  also cancels the growth of the measure against the decay of the data
  exactly; every zone integrates the same v^2 (`_squared_value`).
* The line is split at the regime thresholds into four zones: low
  [0, y(eta)], low-middle [y(eta), y(delta)], high-middle [y(delta), 1]
  and high [1, inf), with y(r) = sqrt(log(1 + r^2)) and y(r_unit) = 1.  The
  whole-space value is the sum of the four.
* Oscillatory integrands (any kind containing the oscillatory profile, or
  the mode value above the root-collision threshold) start from panels of
  exactly osc_guard half-periods of the fastest phase (`_phase_steps`);
  15 Kronrod nodes per period resolve the phase to ~1e-8 relative, so
  refinement rounds are rare.  The rule serves the bounded zones at every
  t and the high zone at early times only.
* In the high zone every oscillating kind is written as
  v = m + P cos(bt) + Q sin(bt) with slow P, Q and the mass term m, so v^2
  is the smooth m^2 + (P^2 + Q^2)/2 plus four terms in cos/sin of bt and
  2bt.  The smooth part is integrated with no phase steps and the fast terms
  are estimated by the integration-by-parts bound, whose variation term is
  sampled (`_split_tail`).  The estimate falls like t^-1.5 relative to the
  norm: where it is within tol it joins the error estimate, and at the
  early times, where it is not, the phase-stepped integral of v^2 runs
  instead.  Both paths share one piece loop, `_high_zone`.
* The middle zones decay exponentially, so a whole-space value (zone
  "all") integrates the low and high zones first and replaces lowmid or
  highmid by 0 wherever an a-priori bound B_z(t) <= tol |low + high|; B_z
  joins the error estimate (`_middle_bounds`).  With k the number of the
  terms mode, heat-like and oscillatory profile in the kind, |v|^2 <=
  k sum |term|^2.  The mode is e^{-at} [C w0 + S (w1 + a w0)] with the
  measure-folded data w0, w1: real roots give |C| = |cosh(ct)| <= e^{ct}
  and |S| = |sinh(ct)/c| <= t e^{ct}, oscillating ones |C| <= 1 and
  |S| <= t, and a <= 1/2, so |mode|^2 <= 2 (1+t)^2 e^{-kappa_u t}
  (w0^2 + w1^2), kappa_u the least 2(a - c) = 2L/(a + c) over the zone (at
  L_lo on lowmid) resp. 2a (1/2 at L_hi = 1 on highmid).  The oscillatory
  profile has |sin(sqrt(L) t)/sqrt(L)| <= t and damping e^{-t/(2L)}, so
  |phi2|^2 <= 2 (1+t)^2 e^{-t/L_hi} (w0^2 + w1^2); the heat-like profile is
  m0 e^{-t L(1+L)} with m0 its t = 0 mass term, so |phi1|^2 <=
  e^{-2t L_lo(1+L_lo)} m0^2.  Integrated over the zone:
    B_z = k [2 (1+t)^2 (e^{-kappa_u t} [mode] + e^{-t/L_hi} [wave]) D_z
             + e^{-2t L_lo(1+L_lo)} M_z [phi1]],
  D_z = int_z (w0^2 + w1^2) dy and M_z = int_z m0^2 dy.  Explicit zone
  requests always integrate.
* Every unbounded integral (the high zone, the reference tail, and the data
  module's log-weighted and weighted-L1 norms) goes through one
  tail-doubling loop, `tail_integral`: it doubles the extent until the
  increment is negligible and, for the high zone, the envelope peak (at
  log-weight ~ t) has been passed.
* The integrand is evaluated in batches of at most CHUNK nodes, sized so
  that every temporary array of one batch stays in the L2 cache.  Panel
  sums are taken row by row, so values never depend on the batch size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .modes import oscillating_coeffs, propagator_coeffs
from .profiles import phi1_coeff, phi2_coeffs, phi2_envelope
from .symbols import collision_gap, compute_thresholds

__all__ = [
    "THRESHOLDS",
    "ZONES",
    "NORM_KINDS",
    "QuadratureError",
    "PanelBudgetError",
    "NonFiniteIntegrandError",
    "QuadSpec",
    "MAX_PANELS",
    "MAX_SEGMENTS",
    "TAIL_START",
    "CHUNK",
    "REF_TOL",
    "surface_area",
    "radial_integral",
    "tail_integral",
    "log_flat_measure",
    "node_values",
    "ref_integral_Ip",
    "ref_integral_Jp",
    "middle_zone_integral",
    "NormSeries",
    "norm_value",
    "norm_series",
    "default_time_grid",
]

#: Regime thresholds shared by every quadrature consumer.
THRESHOLDS = compute_thresholds()

ZONES = ("low", "lowmid", "highmid", "high")

NORM_KINDS = ("u", "phi1", "phi2", "u-phi1", "u-phi2", "u-phi")

# Ends y = sqrt(L) of the bounded zones: the thresholds eta and delta, and
# r_unit, where y = 1.
_Y_ETA, _Y_DELTA = (math.sqrt(math.log1p(r * r)) for r in (THRESHOLDS.eta, THRESHOLDS.delta))
_Y_ZONES = {"low": (0.0, _Y_ETA), "lowmid": (_Y_ETA, _Y_DELTA), "highmid": (_Y_DELTA, 1.0)}

# Kinds whose integrand carries the sqrt(L) t phase of the oscillatory
# profile (everywhere), resp. the b(r) t phase of the mode value (above the
# root-collision threshold delta).
_WAVE_KINDS = frozenset({"phi2", "u-phi2", "u-phi"})
_MODE_KINDS = frozenset({"u", "u-phi1", "u-phi2", "u-phi"})
_PHI1_KINDS = frozenset({"phi1", "u-phi1", "u-phi"})

# The middle zones, and the slowest decay over each (module notes) of the
# squared mode, 2(a - Re c): at the lowmid start, where the roots are real,
# and at the highmid end, where they oscillate; of the squared oscillatory
# profile, 1/L at the end; and of the squared heat-like profile, 2L(1 + L)
# at the start.
_MIDDLE = ("lowmid", "highmid")
_MIDDLE_LO, _MIDDLE_HI = np.array([_Y_ZONES[z] for z in _MIDDLE]).T
_A_SLOW, _CSQ_SLOW = collision_gap(np.array([_MIDDLE_LO[0], _MIDDLE_HI[1]]) ** 2)
_MODE_RATES = 2.0 * (_A_SLOW - np.sqrt(np.maximum(_CSQ_SLOW, 0.0)))
_WAVE_RATES = 1.0 / _MIDDLE_HI**2
_HEAT_RATES = 2.0 * _MIDDLE_LO**2 * (1.0 + _MIDDLE_LO**2)

#: Panel budget of one adaptive integral; the high-zone tail segments share one.
MAX_PANELS = 6_000_000
#: Segments a tail-doubling loop may take before it gives up.
MAX_SEGMENTS = 200
#: Starting value of s = 1 + log-weight for the tails integrated in y.
TAIL_START = 2.0
#: Maximum integrand evaluations per vectorised call, sized so that each
#: float64 temporary of one call (128 KB) stays in the L2 cache.  Panel
#: sums are taken row by row, so no value depends on the batch size.
CHUNK = 1 << 14
#: Tolerance of the fixed-accuracy integrals: the reference integrals and
#: the weighted-L1 norm of zero-mass data.
REF_TOL = 1e-12
# Four ulps of every panel's value join its |K15 - G7| in the reported error
# (not in the refinement test): the two rules can agree to the last bit.
_ROUNDING = 4.0 * float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    pass


class PanelBudgetError(QuadratureError):
    """Panel budget exhausted: the requested (t, tolerance) pair is too
    expensive for the configured guards."""


class NonFiniteIntegrandError(QuadratureError):
    pass


# --------------------------------------------------------------------------
# Gauss-Kronrod 7-15 rule on [-1, 1].  Gauss nodes are the odd-indexed
# Kronrod nodes.
_XGK_HALF = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_WGK_HALF = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG_HALF = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_NODES = np.array([-x for x in _XGK_HALF[:-1]] + [0.0] + [x for x in reversed(_XGK_HALF[:-1])])
_WK = np.array(list(_WGK_HALF[:-1]) + [_WGK_HALF[-1]] + list(reversed(_WGK_HALF[:-1])))
_WG = np.array(list(_WG_HALF[:-1]) + [_WG_HALF[-1]] + list(reversed(_WG_HALF[:-1])))
# Gauss weights sit at the odd Kronrod node indices 1, 3, ..., 13.
assert _NODES.size == 15 and _WG.size == 7


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature configuration of a norm integral.

    osc_guard is the maximum number of half-periods of the fastest phase
    present per initial panel: panels end where that phase crosses a
    multiple of osc_guard * pi (one period of a squared factor per pi).
    """

    n: int
    tol: float = 1e-6
    osc_guard: float = 1.0

    def __post_init__(self) -> None:
        surface_area(self.n)  # rejects n < 1 and an n whose Gamma(n/2) overflows
        if not (1e-12 <= self.tol <= 1e-3):
            raise ValueError("tol must lie in [1e-12, 1e-3]")
        if not 0.0 < self.osc_guard < math.inf:
            raise ValueError("osc_guard must be positive and finite")


def surface_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    try:
        return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:
        raise ValueError(f"dimension {n} is too large: Gamma(n/2) overflows a double") from None


def _gk_eval(f, lo: np.ndarray, hi: np.ndarray):
    """Vectorised GK15 on a batch of panels -> (values, error estimates)."""
    m = lo.size
    vals = np.empty(m)
    errs = np.empty(m)
    rows = max(1, CHUNK // 15)
    for start in range(0, m, rows):
        sl = slice(start, min(m, start + rows))
        a = lo[sl]
        b = hi[sl]
        half = 0.5 * (b - a)
        x = (0.5 * (a + b))[:, None] + half[:, None] * _NODES[None, :]
        y = f(x.reshape(-1)).reshape(x.shape)
        if not np.all(np.isfinite(y)):
            raise NonFiniteIntegrandError("integrand returned a non-finite sample")
        k = (y * _WK).sum(axis=1) * half
        g = (y[:, 1::2] * _WG).sum(axis=1) * half
        vals[sl] = k
        errs[sl] = np.abs(k - g)
    return vals, errs


def _adaptive(f, bounds: np.ndarray, tol: float, max_panels: int):
    """Adaptive refinement starting from the given panel boundaries.

    Returns (value, error estimate, panels used).
    """
    lo = bounds[:-1]
    hi = bounds[1:]
    if lo.size == 0:
        return 0.0, 0.0, 0
    if lo.size > max_panels:
        raise PanelBudgetError(
            f"initial subdivision needs {lo.size} panels, budget is {max_panels}"
        )
    vals, errs = _gk_eval(f, lo, hi)
    for _ in range(200):
        total = float(np.sum(vals))
        err = float(np.sum(errs))
        if err <= tol * abs(total) + 1e-300:
            break
        thresh = tol * abs(total) / (2.0 * lo.size)
        mask = errs > thresh
        if not mask.any():
            mask = errs >= errs.max()
        mlo = lo[mask]
        mhi = hi[mask]
        if lo.size + mlo.size > max_panels:
            raise PanelBudgetError(
                "panel budget exhausted; t is too large for the requested tolerance"
            )
        mid = 0.5 * (mlo + mhi)
        clo = np.concatenate([mlo, mid])
        chi = np.concatenate([mid, mhi])
        cvals, cerrs = _gk_eval(f, clo, chi)
        keep = ~mask
        lo = np.concatenate([lo[keep], clo])
        hi = np.concatenate([hi[keep], chi])
        vals = np.concatenate([vals[keep], cvals])
        errs = np.concatenate([errs[keep], cerrs])
    else:
        raise PanelBudgetError("adaptive refinement did not reach the tolerance")
    order = np.argsort(lo, kind="stable")
    value = math.fsum(vals[order].tolist())
    err = math.fsum((errs + _ROUNDING * np.abs(vals))[order].tolist())
    return value, err, int(lo.size)


def _build_bounds(lo: float, hi: float, breakpoints=(), ladder: int = 0) -> np.ndarray:
    """Panel boundaries on [lo, hi]: its ends and the breakpoints inside it.

    `ladder` > 0 adds a geometric 2^-k ladder anchored at `lo`, used to
    pre-resolve integrands that concentrate at the left endpoint.
    """
    inner = np.asarray(breakpoints, dtype=float)
    pts = np.sort(np.concatenate((
        [lo, hi],
        inner[(inner > lo) & (inner < hi)],
        lo + (hi - lo) * 2.0 ** -np.arange(1, ladder + 1),
    )))
    return pts[np.concatenate(([True], pts[1:] != pts[:-1]))]


def radial_integral(f, lo: float, hi: float, tol: float, ladder: int = 0):
    """Adaptive integral of f over [lo, hi] to tolerance tol -> (value, error estimate)."""
    if hi < lo:
        raise ValueError("empty integration range")
    bounds = _build_bounds(lo, hi, ladder=ladder)
    value, err, _ = _adaptive(f, bounds, tol, MAX_PANELS)
    return value, err


def tail_integral(
    segment, lo: float, hi: float, tol: float, baseline: float = 0.0, stop_from: float = -math.inf
):
    """Sum segment(lo, hi), segment(hi, 2 hi), ... until the increments stop.

    `segment(a, b)` integrates one piece and returns (value, err).  The loop
    stops after a piece that starts at or beyond `stop_from`, is no larger
    than the piece before it and is at most tol * (|baseline| + |total|),
    where `baseline` is the part of the integral the caller holds apart.
    Returns (total, err, converged); converged is False when MAX_SEGMENTS
    pieces did not meet the test, and the caller decides what that means.
    On convergence err includes a bound on the tail never integrated: the
    geometric remainder |last| rho/(1-rho) of pieces that keep shrinking by
    the last ratio rho = last/previous, and at least |last|.
    """
    total = 0.0
    err = 0.0
    prev = math.inf
    for _ in range(MAX_SEGMENTS):
        seg, segerr = segment(lo, hi)
        total += seg
        err += segerr
        if (
            lo >= stop_from
            and seg <= prev
            and seg <= tol * (abs(baseline) + abs(total)) + 1e-300
        ):
            # A ratio of 1 or more bounds nothing, so the remainder is infinite.
            rho = abs(seg / prev) if prev else 0.0
            rest = abs(seg) * max(1.0, rho / (1.0 - rho)) if rho < 1.0 else math.inf
            return total, err + rest, True
        prev = seg
        lo, hi = hi, 2.0 * hi
    return total, err, False


# --------------------------------------------------------------------------
# Reference integrals


def _ref_integrand(p_exp: float, t: float):
    """r -> (1+r^2)^{-t} r^p, the integrand of the reference integrals."""

    def f(r):
        with np.errstate(divide="ignore"):
            return (1.0 + r * r) ** (-t) * r ** p_exp

    return f


def ref_integral_Ip(p_exp: float, t: float) -> float:
    """int_0^1 (1+r^2)^{-t} r^p dr for p > -1, t >= 0."""
    if p_exp <= -1.0:
        raise ValueError("exponent must exceed -1")
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    value, _ = radial_integral(_ref_integrand(p_exp, t), 0.0, 1.0, REF_TOL, ladder=16)
    return value


def ref_integral_Jp(p_exp: float, t: float) -> float:
    """int_1^inf (1+r^2)^{-t} r^p dr for t > max(1, (p+1)/2)."""
    if t <= max(1.0, 0.5 * (p_exp + 1.0)):
        raise ValueError("t too small for a convergent tail")
    f = _ref_integrand(p_exp, t)
    total, _, converged = tail_integral(
        lambda lo, hi: radial_integral(f, lo, hi, REF_TOL), 1.0, 2.0, REF_TOL
    )
    if not converged:
        raise QuadratureError("tail did not converge")
    return total


def middle_zone_integral(p_exp: float, t: float, lo: float, hi: float = 1.0) -> float:
    """int_lo^hi (1+r^2)^{-t} r^p dr, the exponentially small middle band."""
    value, _ = radial_integral(_ref_integrand(p_exp, t), lo, hi, REF_TOL)
    return value


# --------------------------------------------------------------------------
# Norm-series machinery


def _mode_rate_inverse(b: np.ndarray) -> np.ndarray:
    """L with b(L) = sqrt(L - a^2) = b >= 0: Newton steps on the increasing,
    concave L - 1/(4(1+L)^2) - b^2 from L = b^2, where it is negative, so
    every step rises towards the root; five reach it to a few ulps."""
    lam = b * b
    for _ in range(5):
        a = 0.5 / (1.0 + lam)
        lam = lam - (lam - a * a - b * b) / (1.0 + 4.0 * a**3)
    return lam


def _phase_steps(kind: str, zone: str, t: float, osc_guard: float, lo: float, hi: float):
    """Points y = sqrt(L) in (lo, hi) where the fastest phase of the kind's
    integrand crosses a multiple of osc_guard * pi: the mode's bt above
    delta for the kinds containing the mode, as db/dL = (1 + 4a^3)/(2b) >
    1/(2 sqrt(L)) there, else the oscillatory profile's sqrt(L) t.  Both
    phases are inverted exactly.
    """
    ends = np.array([lo, hi]) ** 2
    if t > 0.0 and kind in _MODE_KINDS and zone in ("highmid", "high"):
        rates, inverse = np.sqrt(np.maximum(-collision_gap(ends)[1], 0.0)), _mode_rate_inverse
    elif t > 0.0 and kind in _WAVE_KINDS:
        rates, inverse = np.sqrt(ends), np.square
    else:
        return np.empty(0)
    step = osc_guard * math.pi / t
    k_lo, k_hi = math.floor(rates[0] / step) + 1, math.ceil(rates[1] / step)
    if k_hi - k_lo > MAX_PANELS:
        raise PanelBudgetError(f"{k_hi - k_lo} phase steps exceed the panel budget")
    return np.sqrt(inverse(np.arange(k_lo, k_hi) * step))


def log_flat_measure(y: np.ndarray, n: int) -> np.ndarray:
    """log of w_n (1 - e^{-L})^{(n-2)/2} y: the radial measure in y = sqrt(L)
    after its exponential growth e^{L n / 2} has been moved into the data
    values (see RadialProfile.log_flat_from_lam).  Everything left is O(log),
    so the folded integrand carries no large cancelling exponents."""
    lam = y * y
    return (
        math.log(surface_area(n))
        + 0.5 * (n - 2) * np.log(-np.expm1(-lam))
        + np.log(y)
    )


def node_values(kind: str, lam: np.ndarray, t: float, v0, v1, mass) -> np.ndarray:
    """Value of the selected quantity (one of NORM_KINDS) at log-weights lam.

    v0, v1 are the data values and `mass` the heat-like profile's mass term
    mass_sum * phi1_coeff(lam, t) (None for kinds without phi1), all three
    measure-folded as `_scaled_data_y` returns them.  The split high-zone
    tail assembles the same value in phase form instead (`_phase_terms`).
    """
    if kind == "phi1":
        return mass
    if kind == "phi2":
        env, s2, c2 = phi2_coeffs(lam, t)
        return env * (s2 * v1 + c2 * v0)
    val = propagator_coeffs(lam, t, v0, v1)
    if kind in _PHI1_KINDS:
        val = val - mass
    if kind in _WAVE_KINDS:
        env, s2, c2 = phi2_coeffs(lam, t)
        val = val - env * (s2 * v1 + c2 * v0)
    return val


def _scaled_data_y(d, kind: str, t: float, n: int, y: np.ndarray):
    """Measure-folded data values and mass term at y = sqrt(L).

    Returns (w0, w1, wial) where w_j = u_j(r) * sqrt(w_n r^{n-1} dr/dy) and
    wial is the heat-like profile's mass term mass_sum * phi1_coeff(L, t)
    times the same root (None for kinds without phi1, which never read it),
    so that node_values of them, squared, is the integrand in y of every
    zone.  Everything is assembled in log space through the flat
    representation, so the cancellation between measure growth and data
    decay is analytic and survives arbitrarily large log-weights.
    """
    lam = y * y
    lw = 0.5 * log_flat_measure(y, n)
    w0 = d.u0.sign * np.exp(d.u0.log_flat_from_lam(lam) + lw)
    w1 = d.u1.sign * np.exp(d.u1.log_flat_from_lam(lam) + lw)
    ms = d.mass_sum
    if kind not in _PHI1_KINDS:
        wial = None
    elif ms == 0.0:
        wial = np.zeros_like(y)
    else:
        wial = math.copysign(1.0, ms) * phi1_coeff(lam, t, math.log(abs(ms)) + 0.25 * n * lam + lw)
    return w0, w1, wial


def _squared_value(d, kind: str, t: float, n: int):
    """The integrand of every zone: y -> v^2 with v the measure-folded value
    of the kind, so that int v^2 dy is the zone's squared norm."""

    def f(y):
        v = node_values(kind, y * y, t, *_scaled_data_y(d, kind, t, n, y))
        return v * v

    return f


def _phase_terms(kind: str, y: np.ndarray, t: float, w0, w1, wial):
    """High-zone value in phase form v = m + P cos(bt) + Q sin(bt) at y, from
    the measure-folded data (w0, w1, wial) of `_scaled_data_y`.

    Returns (m, P, Q, db/dy).  The mode's phase bt is taken out of P and Q;
    the oscillatory profile's phase yt = bt + (y - b)t is folded into them
    through its slow part (y - b)t = a^2 t / (y + b), which is small wherever
    the profile's damping e^{-t/(2L)} is not.  m is the measure-folded mass
    term, None for kinds without phi1.  The overall sign of v is immaterial,
    as only v^2 is integrated.
    """
    a, csq = collision_gap(y * y)
    damp, b = oscillating_coeffs(a, csq, t)
    p = q = 0.0
    if kind in _MODE_KINDS:
        p = damp * w0
        q = damp * (w1 + a * w0) / b
    if kind in _WAVE_KINDS:
        env = phi2_envelope(y * y, t)
        slow = a * a * t / (y + b)
        cs = np.cos(slow)
        sn = np.sin(slow)
        w1y = w1 / y
        p = p - env * (w1y * sn + w0 * cs)
        q = q - env * (w1y * cs - w0 * sn)
    m = None if wial is None else -wial
    # b^2 = L - a^2 with da/dy = -4 a^2 y, so db/dy = y (1 + 4 a^3) / b >= 1
    return m, p, q, y * (1.0 + 4.0 * a**3) / b


def _fast_over_rate(m, p, q, db, t: float) -> np.ndarray:
    """Rows g / phi' of the fast terms of v^2 = m^2 + (P^2 + Q^2)/2
    + (P^2 - Q^2)/2 cos 2bt + PQ sin 2bt + 2mP cos bt + 2mQ sin bt:
    each amplitude g over the rate phi' of its phase."""
    rate = t * db
    rows = [(p * p - q * q) / (4.0 * rate), p * q / (2.0 * rate)]
    if m is not None:
        rows += [2.0 * m * p / rate, 2.0 * m * q / rate]
    return np.array(rows)


def _high_zone(d, kind: str, t: float, spec: QuadSpec, baseline: float, f, osc_guard, probe=None):
    """tail_integral of f over the high zone in y, s = 1 + y^2 doubling from
    TAIL_START -> (total, err, converged).

    With `osc_guard` (None for none) panels end at `_phase_steps`.  Every
    piece is probed on 33 points y, which `probe(y, scaled)` sees with their
    folded data when given; pieces where every folded term underflows there
    are skipped.  All pieces share the panel budget.
    """
    n = spec.n
    panels_left = MAX_PANELS

    def segment(s_lo, s_hi):
        nonlocal panels_left
        y_lo = math.sqrt(s_lo - 1.0)
        y_hi = math.sqrt(s_hi - 1.0)
        y = np.linspace(y_lo, y_hi, 33)
        scaled = _scaled_data_y(d, kind, t, n, y)
        if probe is not None:
            probe(y, scaled)
        # skip segments where every folded term underflows to zero
        w0, w1, wial = scaled
        env = np.abs(w0) + np.abs(w1)
        if wial is not None:
            env = env + np.abs(wial)
        if float(np.max(env)) == 0.0:
            return 0.0, 0.0
        steps = () if osc_guard is None else _phase_steps(kind, "high", t, osc_guard, y_lo, y_hi)
        seg, segerr, used = _adaptive(f, _build_bounds(y_lo, y_hi, steps), spec.tol, panels_left)
        panels_left -= used
        return seg, segerr

    peak_s = max(t, 2.0 * TAIL_START) if t > 0.0 else TAIL_START
    return tail_integral(
        segment, TAIL_START, 2.0 * TAIL_START, spec.tol, baseline, stop_from=peak_s
    )


def _split_tail(d, kind: str, t: float, spec: QuadSpec, baseline: float):
    """High-zone integral of the smooth part m^2 + (P^2 + Q^2)/2 of v^2 and
    an estimate of the fast terms -> (value, err, phase), or None when the
    estimate exceeds the tolerance.

    Each fast term obeys |int g cos(phi)| <= |g/phi'| at both ends + the total
    variation of g/phi' (one integration by parts; Iserles & Norsett 2005).
    The variation is sampled on the 33-point probe of every piece and on
    the Kronrod nodes of the smooth integral, which follow the peak of the
    damped data, so `phase` estimates that bound rather than proving it: a
    sampled variation can only under-read the true one.  On the inputs of
    checks 08-10 and on Gaussian data it reads within 0.3% of a sampling
    that also resolves the folded phase.  Beyond the last piece g/phi' is
    taken to fall monotonically to 0, which counts |g/phi'| at the last end
    twice.  The smooth part needs no phase steps, so its panels do not
    follow the oscillation.
    """
    n = spec.n
    ys, hs = [], []  # every sample of g/phi': points and rows

    def sample(y, scaled):
        terms = _phase_terms(kind, y, t, *scaled)
        ys.append(y)
        hs.append(_fast_over_rate(*terms, t))
        return terms

    def f(y):
        m, p, q, _ = sample(y, _scaled_data_y(d, kind, t, n, y))
        smooth = 0.5 * (p * p + q * q)
        return smooth if m is None else smooth + m * m

    total, err, converged = _high_zone(d, kind, t, spec, baseline, f, None, sample)
    if not converged:
        return None
    h = np.concatenate(hs, axis=1)[:, np.argsort(np.concatenate(ys), kind="stable")]
    ends = np.abs(h[:, 0]) + 2.0 * np.abs(h[:, -1])
    phase = float(ends.sum() + np.abs(np.diff(h, axis=1)).sum())
    if phase > spec.tol * (abs(baseline) + abs(total)):
        return None
    return total, err, phase


def _tail_value(d, kind: str, t: float, spec: QuadSpec, baseline: float, f):
    """High-zone integral of f = `_squared_value` with s = 1 + log-weight
    doubling.

    Oscillating kinds first try `_split_tail`.  Where its phase estimate is
    too large (the early times) every oscillation is resolved instead, on
    panels of osc_guard half-periods (`_phase_steps`).
    """
    if t > 0.0 and (kind in _WAVE_KINDS or kind in _MODE_KINDS):
        split = _split_tail(d, kind, t, spec, baseline)
        if split is not None:
            total, err, phase = split
            return total, err + phase
    total, err, converged = _high_zone(d, kind, t, spec, baseline, f, spec.osc_guard)
    if not converged:
        raise QuadratureError("high-frequency tail did not converge")
    return total, err


def _middle_bounds(d, kind: str, t: float, n: int) -> np.ndarray:
    """A-priori bounds B_z(t) >= int_z v^2 dy of lowmid and highmid (module
    notes).  D_z and M_z do not depend on t; each is one GK15 panel per zone,
    taken as its value plus |K15 - G7|."""
    mode, wave, heat = kind in _MODE_KINDS, kind in _WAVE_KINDS, kind in _PHI1_KINDS

    def upper(square):
        def f(y):
            return square(*_scaled_data_y(d, "phi1", 0.0, n, y))

        vals, errs = _gk_eval(f, _MIDDLE_LO, _MIDDLE_HI)
        return vals + errs

    bound = np.zeros(2)
    if mode or wave:
        decay = mode * np.exp(-_MODE_RATES * t) + wave * np.exp(-_WAVE_RATES * t)
        bound += 2.0 * (1.0 + t) ** 2 * decay * upper(lambda w0, w1, m0: w0 * w0 + w1 * w1)
    if heat:
        bound += np.exp(-_HEAT_RATES * t) * upper(lambda w0, w1, m0: m0 * m0)
    return (mode + wave + heat) * bound


@dataclass(frozen=True)
class NormSeries:
    """Sampled squared-norm values of one integrand kind over a time grid.

    Values are Fourier-side integrals int |.|^2 dxi (no 2 pi normalisation),
    i.e. squared L^2 norms; rate fits on them must be halved to speak about
    the norm itself.
    """

    kind: str
    zone: str
    n: int
    ts: tuple[float, ...]
    values: tuple[float, ...]
    errs: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(b <= a for a, b in zip(self.ts, self.ts[1:])):
            raise ValueError("time grid must be strictly increasing")
        if any(v < 0.0 for v in self.values):
            raise ValueError("squared norms must be nonnegative")


def norm_value(
    d, kind: str, n: int, t: float, spec: QuadSpec | None = None, zone: str = "all"
) -> tuple[float, float]:
    """Squared norm of the selected quantity at one time -> (value, err)."""
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown integrand kind {kind!r}")
    if zone != "all" and zone not in ZONES:
        raise ValueError(f"unknown zone {zone!r}")
    if not 0.0 <= t < math.inf:
        raise ValueError("t must be finite and nonnegative")
    if t == 0.0 and kind in _PHI1_KINDS and d.mass_sum != 0.0:
        raise ValueError(
            f"{kind!r} at t=0 contains phi1 = the mass {d.mass_sum:g} at every "
            "frequency, whose norm is infinite; use t > 0"
        )
    spec = spec or QuadSpec(n=n)
    if spec.n != n:
        raise ValueError("spec dimension does not match the requested dimension")
    for profile in (d.u0, d.u1):
        if profile.n != n:
            raise ValueError("data profile dimension does not match the run")
    f = _squared_value(d, kind, t, n)

    def integrate(z: str, baseline: float = 0.0) -> tuple[float, float]:
        if z == "high":
            return _tail_value(d, kind, t, spec, baseline, f)
        lo, hi = _Y_ZONES[z]
        steps = _phase_steps(kind, z, t, spec.osc_guard, lo, hi)
        bounds = _build_bounds(lo, hi, steps, 16 if z == "low" else 0)
        val, er, _ = _adaptive(f, bounds, spec.tol, MAX_PANELS)
        return val, er

    try:
        if zone != "all":
            return integrate(zone)
        low = integrate("low")
        parts = [low, integrate("high", low[0])]
        rest = abs(math.fsum(v for v, _ in parts))
        for z, bound in zip(_MIDDLE, _middle_bounds(d, kind, t, n).tolist()):
            parts.append((0.0, bound) if bound <= spec.tol * rest else integrate(z))
    except QuadratureError as exc:
        raise type(exc)(f"{exc} (t={t:g}, tol={spec.tol:g}, osc_guard={spec.osc_guard:g})") from exc
    return math.fsum(v for v, _ in parts), math.fsum(e for _, e in parts)


def norm_series(
    d, kind: str, n: int, t_grid, spec: QuadSpec | None = None, zone: str = "all"
) -> NormSeries:
    """Squared-norm series of the selected quantity over the time grid."""
    spec = spec or QuadSpec(n=n)
    ts = tuple(float(t) for t in t_grid)
    values = []
    errs = []
    for t in ts:
        v, e = norm_value(d, kind, n, t, spec, zone)
        values.append(v)
        errs.append(e)
    return NormSeries(kind, zone, n, ts, tuple(values), tuple(errs))


def default_time_grid(k_max: int = 20, t0: float = 10.0) -> tuple[float, ...]:
    """Geometric grid t_k = t0 * 2^{k/2}; the default ends near 1e4, the
    window the checks' fits and bands read."""
    if k_max / 2.0 + math.log2(t0) >= 1024.0:
        raise ValueError(f"the last time t0 * 2^({k_max}/2) of the grid overflows a double")
    return tuple(t0 * 2.0 ** (k / 2.0) for k in range(k_max + 1))
