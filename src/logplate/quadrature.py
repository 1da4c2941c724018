"""Deterministic adaptive radial quadrature for all L^2-type quantities.

Design notes
------------
* Panels are integrated with a Gauss-Kronrod 7-15 rule; |K15 - G7| is the
  panel error estimate.  Refinement splits every panel whose estimate
  exceeds its share of the global tolerance, so the process is independent
  of evaluation order.  The final value accumulates panel results sorted by
  position with math.fsum (exactly rounded), making output bit-reproducible
  for a fixed spec.
* The radial line is split at the regime thresholds into four zones:
  low [0, eta], low-middle [eta, delta], high-middle [delta, r_unit] and
  high [r_unit, inf).  The whole-space value is the sum of the four.
* The high zone is integrated in y = sqrt(log(1 + r^2)); r overflows a
  double once log(1+r^2) > 709 while the regularity-limited tails live out
  to log-weights of order t, so the substituted variable is the only
  representable one.  The radial measure w_n r^{n-1} dr is folded into the
  data values in log space, which also cancels the growth of the measure
  against the decay of the data exactly.
* Oscillatory integrands (any kind containing the oscillatory profile, or
  the mode value above the root-collision threshold) get an a-priori panel
  width cap of osc_guard local half-periods, sized from the local phase
  rate; 15 Kronrod nodes per period resolve the phase to ~1e-8 relative,
  so refinement rounds are rare.
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

from .modes import propagator_coeffs
from .profiles import phi1_coeff, phi2_coeffs
from .symbols import compute_thresholds, discriminant

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

# Kinds whose integrand carries the sqrt(L) t phase of the oscillatory
# profile (everywhere), resp. the b(r) t phase of the mode value (above the
# root-collision threshold delta).
_WAVE_KINDS = frozenset({"phi2", "u-phi2", "u-phi"})
_MODE_KINDS = frozenset({"u", "u-phi1", "u-phi2", "u-phi"})
_PHI1_KINDS = frozenset({"phi1", "u-phi1", "u-phi"})

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

    osc_guard is the maximum panel width measured in local oscillation
    periods of the fastest phase present (period pi / (t * max|d phase/dr|)
    for squared trigonometric factors); 1.0 means one period per panel.
    """

    n: int
    tol: float = 1e-6
    osc_guard: float = 1.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        if not (1e-12 <= self.tol <= 1e-3):
            raise ValueError("tol must lie in [1e-12, 1e-3]")
        if self.osc_guard <= 0.0:
            raise ValueError("osc_guard must be positive")


def surface_area(n: int) -> float:
    """Surface area of the unit sphere in R^n: 2 pi^{n/2} / Gamma(n/2)."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


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
    err = math.fsum(errs[order].tolist())
    return value, err, int(lo.size)


def _build_bounds(
    lo: float,
    hi: float,
    breakpoints=(),
    max_width: float | None = None,
    ladder: int = 0,
) -> np.ndarray:
    """Panel boundaries on [lo, hi] honouring breakpoints and a width cap.

    `ladder` > 0 inserts a geometric 2^-k ladder anchored at `lo`, used to
    pre-resolve integrands that concentrate at the left endpoint.
    """
    pts = {float(lo), float(hi)}
    for pnt in breakpoints:
        if lo < pnt < hi:
            pts.add(float(pnt))
    if ladder > 0:
        span = hi - lo
        for k in range(1, ladder + 1):
            pts.add(lo + span * 2.0 ** (-k))
    ordered = np.array(sorted(pts))
    if max_width is None or max_width <= 0.0:
        return ordered
    segs = []
    for i in range(ordered.size - 1):
        gap = ordered[i + 1] - ordered[i]
        pieces = max(1, int(math.ceil(gap / max_width)))
        segs.append(np.linspace(ordered[i], ordered[i + 1], pieces + 1)[:-1])
    segs.append(ordered[-1:])
    return np.concatenate(segs)


def radial_integral(
    f,
    lo: float,
    hi: float,
    tol: float,
    breakpoints=(),
    ladder: int = 0,
):
    """Adaptive integral of f over [lo, hi] to tolerance tol -> (value, error estimate)."""
    if hi < lo:
        raise ValueError("empty integration range")
    bounds = _build_bounds(lo, hi, breakpoints, ladder=ladder)
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

# Dense monotone table of the oscillation rate b(r) on [delta, r_unit],
# quadratically clustered at delta where b has a square-root singularity.
_BB_R = THRESHOLDS.delta + (THRESHOLDS.r_unit - THRESHOLDS.delta) * np.linspace(
    0.0, 1.0, 4097
) ** 2
_BB_LAM = np.log1p(_BB_R * _BB_R)
_BB_B = np.sqrt(np.maximum(-discriminant(_BB_LAM), 0.0)) / (2.0 * (1.0 + _BB_LAM))


def _mode_phase_breakpoints(delta_b: float) -> np.ndarray:
    targets = np.arange(delta_b, float(_BB_B[-1]), delta_b)
    return np.interp(targets, _BB_B, _BB_R)


def log_flat_measure(y: np.ndarray, n: int) -> np.ndarray:
    """log of w_n (1 - e^{-L})^{(n-2)/2} y: the radial measure in y = sqrt(L)
    after its exponential growth e^{L n / 2} has been moved into the data
    values (see RadialProfile.log_flat_from_lam).  Everything left is O(log),
    so the folded integrand carries no large cancelling exponents."""
    lam = y * y
    return (
        math.log(surface_area(n))
        + 0.5 * (n - 2) * np.log1p(-np.exp(-lam))
        + np.log(y)
    )


def node_values(kind: str, lam: np.ndarray, t: float, v0, v1, mass) -> np.ndarray:
    """Value of the selected quantity (one of NORM_KINDS) at log-weights lam.

    v0, v1 are the data values and `mass` the heat-like profile term, i.e.
    mass_sum * phi1_coeff(lam, t) (None for kinds without phi1): plain
    values in the r-zones, measure-folded ones in the high zone, where the
    assembly is the same.  This is the one place where the mode value and
    the profiles are combined.
    """
    if kind == "phi1":
        return mass
    if kind == "phi2":
        env, s2, c2 = phi2_coeffs(lam, t)
        return env * (s2 * v1 + c2 * v0)
    ec, es, a = propagator_coeffs(lam, t)
    val = ec * v0 + es * (v1 + a * v0)
    if kind in _PHI1_KINDS:
        val = val - mass
    if kind in _WAVE_KINDS:
        env, s2, c2 = phi2_coeffs(lam, t)
        val = val - env * (s2 * v1 + c2 * v0)
    return val


def _scaled_data_y(d, kind: str, t: float, n: int, y: np.ndarray):
    """Measure-folded data values and mass term on the high zone.

    Returns (w0, w1, wial) where w_j = u_j(r) * sqrt(measure) and wial is the
    signed, damped, measure-folded mass coefficient of the heat-like profile
    (None for kinds without phi1, which never read it).
    Everything is assembled in log space through the flat representation, so
    the cancellation between measure growth and data decay is analytic and
    survives arbitrarily large log-weights.
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
        # exponent = log|ms| - t L (1+L) + n L / 4 + lw, grouped so the two
        # L-sized terms merge into one well-conditioned product
        wial = math.copysign(1.0, ms) * np.exp(
            math.log(abs(ms)) + lam * (0.25 * n - t * (1.0 + lam)) + lw
        )
    return w0, w1, wial


def _r_zone_bounds(kind: str, zone: str, t: float, spec: QuadSpec) -> np.ndarray:
    th = THRESHOLDS
    lo, hi = {
        "low": (0.0, th.eta),
        "lowmid": (th.eta, th.delta),
        "highmid": (th.delta, th.r_unit),
    }[zone]
    breakpoints: tuple | np.ndarray = ()
    width = None
    ladder = 16 if zone == "low" else 0
    if t > 0.0:
        guard = spec.osc_guard * math.pi / t
        if kind in _WAVE_KINDS:
            # |d sqrt(L)/dr| <= 1 below delta and <= 0.90 on [delta, r_unit]
            width = guard if zone in ("low", "lowmid") else guard / 0.90
        if zone == "highmid" and kind in _MODE_KINDS:
            breakpoints = _mode_phase_breakpoints(guard)
    return _build_bounds(lo, hi, breakpoints, width, ladder)


def _tail_value(d, kind: str, t: float, spec: QuadSpec, baseline: float):
    """High-zone integral in y with s = 1 + log-weight doubling."""
    n = spec.n

    def f(y):
        v = node_values(kind, y * y, t, *_scaled_data_y(d, kind, t, n, y))
        return v * v

    oscillatory = t > 0.0 and (kind in _WAVE_KINDS or kind in _MODE_KINDS)
    # phase rates in y: d(y t)/dy = t and d(b t)/dy <= 1.15 t on the high zone
    cap = spec.osc_guard * math.pi / (1.15 * t) if oscillatory else None
    peak_s = max(t, 2.0 * TAIL_START) if t > 0.0 else TAIL_START
    panels_left = MAX_PANELS

    def segment(s_lo, s_hi):
        nonlocal panels_left
        y_lo = math.sqrt(s_lo - 1.0)
        y_hi = math.sqrt(s_hi - 1.0)
        # skip segments where every folded term underflows to zero
        w0, w1, wial = _scaled_data_y(d, kind, t, n, np.linspace(y_lo, y_hi, 33))
        env = np.abs(w0) + np.abs(w1)
        if wial is not None:
            env = env + np.abs(wial)
        if float(np.max(env)) == 0.0:
            return 0.0, 0.0
        bounds = _build_bounds(y_lo, y_hi, max_width=cap)
        seg, segerr, used = _adaptive(f, bounds, spec.tol, panels_left)
        panels_left -= used
        return seg, segerr

    total, err, converged = tail_integral(
        segment, TAIL_START, 2.0 * TAIL_START, spec.tol, baseline, stop_from=peak_s
    )
    if not converged:
        raise QuadratureError("high-frequency tail did not converge")
    return total, err


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
    if t < 0.0:
        raise ValueError("t must be nonnegative")
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
    area = surface_area(n)

    def f(r):
        lam = np.log1p(r * r)
        mass = d.mass_sum * phi1_coeff(lam, t) if kind in _PHI1_KINDS else None
        v = node_values(kind, lam, t, d.u0.value(r), d.u1.value(r), mass)
        return v * v * area * r ** (n - 1)

    zones = ZONES if zone == "all" else (zone,)
    parts: list[float] = []
    errs: list[float] = []
    try:
        for z in zones:
            if z == "high":
                val, er = _tail_value(d, kind, t, spec, baseline=math.fsum(parts))
            else:
                val, er, _ = _adaptive(f, _r_zone_bounds(kind, z, t, spec), spec.tol, MAX_PANELS)
            parts.append(val)
            errs.append(er)
    except QuadratureError as exc:
        raise type(exc)(f"{exc} (t={t:g}, tol={spec.tol:g}, osc_guard={spec.osc_guard:g})") from exc
    return math.fsum(parts), math.fsum(errs)


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
    """Geometric grid t_k = t0 * 2^{k/2}; the default caps t near 1e4, the
    largest time the oscillation guards make affordable."""
    return tuple(t0 * 2.0 ** (k / 2.0) for k in range(k_max + 1))
