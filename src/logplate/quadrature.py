"""Deterministic adaptive radial quadrature for all L^2-type quantities.

Design notes
------------
* Panels are integrated with a Gauss-Kronrod 7-15 rule; |K15 - G7| is the
  panel error estimate.  Refinement splits every panel whose estimate
  exceeds its share of the global tolerance, so the process is independent
  of evaluation order.  The final value accumulates panel results sorted by
  position with math.fsum (exactly rounded), making output bit-reproducible
  for a fixed spec.
* One `_adaptive` call refines several intervals in shared rounds: a round
  evaluates the panels every unconverged interval splits in one batch,
  while each interval keeps its own panels, test, threshold, round limit
  and sum, so no value depends on the intervals it shares rounds with.
  Per-call overhead, not nodes, dominates the small batches of the tail
  pieces, so the high zone integrates its pieces a run at a time.
* Every zone is integrated in y = sqrt(L), L = log(1 + r^2): r overflows a
  double once L > 709 while the regularity-limited tails live out to
  log-weights of order t, so y is the only representable variable there,
  and one variable serves the whole line.  The radial measure w_n r^{n-1} dr
  is folded into the data values in log space (`_scaled_data_y`), which
  also cancels the growth of the measure against the decay of the data
  exactly; every zone integrates the same v^2 (`_squared_value`).
* The line is split at the regime thresholds into four zones: low
  [0, y(eta)], low-middle [y(eta), y(delta)], high-middle [y(delta), 1]
  and high [1, inf), with y(r) = sqrt(log(1 + r^2)) and y(r_unit) = 1.
  The mode is analytic in c^2 across the root collision (the kernel's
  series branch), so v^2 on [0, 1] is one smooth integrand: a whole-space
  value (zone "all") integrates [0, 1] once, to tol of its own value, and
  adds the high zone.  An explicit zone request integrates that zone alone.
* The bounded integrals are refined adaptively from their ends (and a 2^-k
  ladder from y = 0).  There the oscillatory profile is damped by
  e^{-t/(2L)} (e^{-3.49t} on the low zone), and the mode oscillates only on
  highmid, turning at most 0.15 t periods while its square decays like
  e^{-t/2}: refinement resolves the few periods that are not negligible.
  Only the high-zone pieces whose variation misses the budget start
  from panels of exactly osc_guard half-periods of the fastest phase
  (`_phase_steps`); 15 Kronrod nodes per period resolve the phase to ~1e-8
  relative, so refinement rounds are rare.
* In the high zone every oscillating kind is written as
  v = m + P cos(bt) + Q sin(bt) with slow P, Q and the mass term m, so v^2
  is the smooth m^2 + (P^2 + Q^2)/2 plus four terms in cos/sin of bt and
  2bt.  One piece loop (`_tail_value`) integrates the smooth part of a run
  of tail pieces in one `_adaptive` call.  By parts, each fast term is exact
  boundary terms plus a remainder within a sampled variation.  Pieces whose
  variations fit within tol of the norm, smallest first, add their boundary
  terms; the rest are integrated again as v^2 on phase-stepped panels.
* Every unbounded integral (the high zone, the reference tail, and the data
  module's log-weighted norm) goes through one
  tail-doubling loop, `tail_integral`: it doubles the extent until the
  increment is negligible and, for the high zone, the envelope peak (at
  log-weight ~ t) has been passed.  The pieces up to the first one past
  the peak are integrated as one run, since none of them can stop the
  loop; after that, one piece at a time.
* The integrand is evaluated in batches of at most CHUNK nodes, sized so
  that every temporary array of one batch stays in the L2 cache.  Panel
  sums are taken row by row, so values never depend on the batch size.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .modes import oscillating_coeffs, propagator_coeffs
from .profiles import phi1_coeff, phi2_coeffs, phi2_envelope
from .symbols import collision_gap, compute_thresholds, log_weight

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
_Y_ETA, _Y_DELTA = (math.sqrt(log_weight(r)) for r in (THRESHOLDS.eta, THRESHOLDS.delta))
_Y_ZONES = {"low": (0.0, _Y_ETA), "lowmid": (_Y_ETA, _Y_DELTA), "highmid": (_Y_DELTA, 1.0)}

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
#: Points of the probe of each high-zone tail piece.
_PROBE = 33
#: Tolerance of the fixed-accuracy reference integrals.
REF_TOL = 1e-12
# Four ulps of every panel's value join its |K15 - G7| in the reported error
# (not in the refinement test): the two rules can agree to the last bit.
_ROUNDING = 4.0 * float(np.finfo(float).eps)


class QuadratureError(RuntimeError):
    pass


class PanelBudgetError(QuadratureError):
    """Panel budget exhausted: the requested (t, tolerance) pair is too
    expensive."""


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

    osc_guard is the number of half-periods of the fastest phase per
    initial panel of a phase-stepped high-zone piece: its panels end where
    that phase crosses a multiple of osc_guard * pi (one period of a squared
    factor per pi).  The CLI and the checks use the default; the field is
    kept because the benchmark's workloads construct QuadSpec(osc_guard=2.0).
    """

    n: int
    tol: float = 1e-6
    osc_guard: float = 2.0

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


def _adaptive(f, intervals, tol: float, max_panels: int):
    """Adaptive refinement of f on each of several intervals, each starting
    from its own array of panel boundaries.

    Every interval refines as it would alone: its own refinement test and
    threshold over its own panels, at most 200 rounds, and its value summed
    in position order.  A round evaluates the panels that every unconverged
    interval splits in one `_gk_eval` call.  The intervals share the panel
    budget, checked before every evaluation.
    Returns [(value, error estimate, panels used)], one per interval.
    """
    lo = [b[:-1] for b in intervals]
    hi = [b[1:] for b in intervals]
    used = sum(x.size for x in lo)
    if used == 0:
        return [(0.0, 0.0, 0)] * len(intervals)
    if used > max_panels:
        raise PanelBudgetError(f"initial subdivision needs {used} panels, budget is {max_panels}")
    vals, errs = _gk_runs(f, lo, hi)
    refining = [i for i, x in enumerate(lo) if x.size]
    for _ in range(200):
        split = []  # (interval, mask, left and right ends of the panels it splits)
        for i in refining:
            total = float(np.sum(vals[i]))
            if float(np.sum(errs[i])) <= tol * abs(total) + 1e-300:
                continue
            mask = errs[i] > tol * abs(total) / (2.0 * lo[i].size)
            if not mask.any():
                mask = errs[i] >= errs[i].max()
            split.append((i, mask, lo[i][mask], hi[i][mask]))
        if not split:
            break
        used += sum(mlo.size for _, _, mlo, _ in split)
        if used > max_panels:
            raise PanelBudgetError(
                "panel budget exhausted; t is too large for the requested tolerance"
            )
        clo, chi = [], []
        for _, _, mlo, mhi in split:
            mid = 0.5 * (mlo + mhi)
            clo.append(np.concatenate([mlo, mid]))
            chi.append(np.concatenate([mid, mhi]))
        cvals, cerrs = _gk_runs(f, clo, chi)
        for (i, mask, _, _), a, b, v, e in zip(split, clo, chi, cvals, cerrs):
            keep = ~mask
            lo[i] = np.concatenate([lo[i][keep], a])
            hi[i] = np.concatenate([hi[i][keep], b])
            vals[i] = np.concatenate([vals[i][keep], v])
            errs[i] = np.concatenate([errs[i][keep], e])
        refining = [i for i, _, _, _ in split]
    else:
        raise PanelBudgetError("adaptive refinement did not reach the tolerance")
    out = []
    for x, v, e in zip(lo, vals, errs):
        order = np.argsort(x, kind="stable")
        value = math.fsum(v[order].tolist())
        err = math.fsum((e + _ROUNDING * np.abs(v))[order].tolist())
        out.append((value, err, int(x.size)))
    return out


def _gk_runs(f, lo: list, hi: list):
    """`_gk_eval` of several panel lists in one call -> (values, error
    estimates), each split back into one array per list."""
    vals, errs = _gk_eval(f, np.concatenate(lo), np.concatenate(hi))
    cuts = [0, *itertools.accumulate(x.size for x in lo)]
    runs = list(zip(cuts, cuts[1:]))
    return [vals[a:b] for a, b in runs], [errs[a:b] for a, b in runs]


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
    value, err, _ = _adaptive(f, [_build_bounds(lo, hi, ladder=ladder)], tol, MAX_PANELS)[0]
    return value, err


def tail_integral(
    segments, lo: float, hi: float, tol: float, baseline: float = 0.0, stop_from: float = -math.inf
):
    """Sum the pieces [lo, hi], [hi, 2 hi], ... until the increments stop.

    `segments(ends)` integrates the run of consecutive pieces between the
    points of `ends` and returns one (value, err) per piece.  The loop stops
    after a piece that starts at or beyond `stop_from`, is no larger than
    the piece before it and is at most tol * (|baseline| + |total|), where
    `baseline` is the part of the integral the caller holds apart.  No
    piece before the first one that starts at or beyond `stop_from` can
    stop the loop, so the first run is all of them up to that one; every
    later run is one piece, and no piece past the stop is integrated.
    Returns (total, err, converged); converged is False when MAX_SEGMENTS
    pieces did not meet the test, and the caller decides what that means.
    On convergence err includes a bound on the tail never integrated: the
    geometric remainder |last| rho/(1-rho) of pieces that keep shrinking by
    the last ratio rho = last/previous, and at least |last|.
    """
    total = 0.0
    err = 0.0
    prev = math.inf
    ends = [lo, hi]
    while ends[-2] < stop_from and len(ends) <= MAX_SEGMENTS:
        ends.append(2.0 * ends[-1])
    done = 0
    while done < MAX_SEGMENTS:
        for start, (seg, segerr) in zip(ends, segments(ends)):
            total += seg
            err += segerr
            if (
                start >= stop_from
                and seg <= prev
                and seg <= tol * (abs(baseline) + abs(total)) + 1e-300
            ):
                # A ratio of 1 or more bounds nothing, so the remainder is infinite.
                rho = abs(seg / prev) if prev else 0.0
                rest = abs(seg) * max(1.0, rho / (1.0 - rho)) if rho < 1.0 else math.inf
                return total, err + rest, True
            prev = seg
        done += len(ends) - 1
        ends = [ends[-1], 2.0 * ends[-1]]
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
        lambda ends: [radial_integral(f, a, b, REF_TOL) for a, b in zip(ends, ends[1:])],
        1.0, 2.0, REF_TOL,
    )
    if not converged:
        raise QuadratureError("tail did not converge")
    return total


def middle_zone_integral(p_exp: float, t: float, lo: float) -> float:
    """int_lo^1 (1+r^2)^{-t} r^p dr, the exponentially small middle band."""
    value, _ = radial_integral(_ref_integrand(p_exp, t), lo, 1.0, REF_TOL)
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


def _phase_steps(kind: str, t: float, osc_guard: float, lo, hi, budget: int):
    """For each high-zone interval (lo[i], hi[i]): the points y = sqrt(L)
    inside it where the fastest phase of the kind's integrand (t > 0, a kind
    with a phase) crosses a multiple of osc_guard * pi: the mode's bt for
    the kinds containing the mode, as db/dL = (1 + 4a^3)/(2b) > 1/(2 sqrt(L)),
    else the oscillatory profile's sqrt(L) t.  Both phases are inverted
    exactly.  Steps of all intervals beyond `budget` panels together raise
    PanelBudgetError before any is built.
    """
    ends = np.array([lo, hi]) ** 2
    if kind in _MODE_KINDS:
        rates, inverse = np.sqrt(-collision_gap(ends)[1]), _mode_rate_inverse
    else:
        rates, inverse = np.sqrt(ends), np.square
    step = osc_guard * math.pi / t
    k_lo, k_hi = np.floor(rates[0] / step) + 1.0, np.ceil(rates[1] / step)
    steps = float(np.sum(np.maximum(k_hi - k_lo, 0.0)))
    if steps > budget:
        raise PanelBudgetError(f"{steps:.0f} phase steps exceed the {budget} panels left")
    return [np.sqrt(inverse(np.arange(int(a), int(b)) * step)) for a, b in zip(k_lo, k_hi)]


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


def _tail_value(d, kind: str, t: float, spec: QuadSpec, baseline: float, f):
    """High-zone integral of f = `_squared_value`: `tail_integral` over pieces
    in y, s = 1 + y^2 doubling from TAIL_START -> (value, err).

    `tail_integral` hands over runs of consecutive pieces.  The pieces of a
    run are probed in one call, on 33 points y each; pieces where every
    folded term underflows there are skipped, and the others are integrated
    in one `_adaptive` call.  Kinds without a phase, and t = 0, integrate f
    itself.  Oscillating kinds integrate each piece's smooth part
    m^2 + (P^2 + Q^2)/2 of v^2 with no phase steps.  A fast term
    g cos(phi) = h phi' cos(phi), h = g/phi', integrates by parts to
    [h sin(phi)] - int h' sin(phi), and g sin(phi) likewise (Iserles &
    Norsett 2005).  The boundary terms take h at the probe's ends; the
    remainder is at most the variation of h, sampled on the probe and on
    the Kronrod nodes of the smooth integral (which follow the peak of the
    damped data), the samples of a run assigned to its pieces by position.
    Once the tail has converged, the variations join the error, smallest
    first, while their sum stays within tol * (|baseline| + |total|), and
    those pieces add their boundary terms.  Every other piece is integrated
    again in place of its smooth value, on panels of osc_guard half-periods
    (`_phase_steps`, checked against the panels left before any is built),
    all in one `_adaptive` call.
    """
    n = spec.n
    split = t > 0.0 and (kind in _WAVE_KINDS or kind in _MODE_KINDS)
    panels_left = MAX_PANELS
    pieces = []  # [y_lo, y_hi, value, err, variation, boundary terms] of every non-empty piece

    def integrate(g, bounds):
        nonlocal panels_left
        out = _adaptive(g, bounds, spec.tol, panels_left)
        panels_left -= sum(used for _, _, used in out)
        return out

    def segments(ends):
        ys = [math.sqrt(s - 1.0) for s in ends]
        probe = np.linspace(ys[:-1], ys[1:], _PROBE, axis=1)  # one row per piece
        scaled = _scaled_data_y(d, kind, t, n, probe.ravel())
        live = np.zeros(probe.shape[0], dtype=bool)
        for w in scaled:
            if w is not None:
                live |= w.reshape(probe.shape).any(axis=1)
        out = [(0.0, 0.0)] * live.size
        if not live.any():
            return out
        idx = np.flatnonzero(live)
        bounds = [_build_bounds(ys[i], ys[i + 1]) for i in idx]
        if not split:
            for i, (value, err, _) in zip(idx, integrate(f, bounds)):
                pieces.append([ys[i], ys[i + 1], value, err, 0.0, 0.0])
                out[i] = value, err
            return out
        samples = []  # (points, rows of g/phi') of every evaluation, the probe first

        def smooth(y, scaled):
            m, p, q, db = _phase_terms(kind, y, t, *scaled)
            samples.append((y, _fast_over_rate(m, p, q, db, t)))
            part = 0.5 * (p * p + q * q)
            return part if m is None else part + m * m

        keep = np.repeat(live, _PROBE)
        smooth(probe.ravel()[keep], [None if w is None else w[keep] for w in scaled])
        results = integrate(lambda y: smooth(y, _scaled_data_y(d, kind, t, n, y)), bounds)
        at = np.concatenate([y for y, _ in samples])
        order = np.argsort(at, kind="stable")
        at = at[order]
        h_all = np.concatenate([h for _, h in samples], axis=1)[:, order]
        h_ends = samples[0][1].reshape(-1, idx.size, _PROBE)[:, :, [0, -1]]  # of each probe
        # boundary terms [h sin(phi)], [-h cos(phi)] of the rows, phi = 2bt, 2bt, bt, bt
        bt = t * np.sqrt(-collision_gap(probe[idx][:, [0, -1]] ** 2)[1])
        rows = np.arange(len(h_ends))[:, None, None]
        phi = np.where(rows < 2, 2.0 * bt, bt)
        terms = h_ends * np.where(rows % 2, -np.cos(phi), np.sin(phi))
        edges = (terms[:, :, 1] - terms[:, :, 0]).sum(axis=0)
        for j, (i, (value, err, _)) in enumerate(zip(idx, results)):
            # the piece's probe ends and, by position, every sample between them
            inner = h_all[:, np.searchsorted(at, ys[i], "right"):np.searchsorted(at, ys[i + 1])]
            h = np.concatenate([h_ends[:, j, :1], inner, h_ends[:, j, 1:]], axis=1)
            variation = float(np.abs(np.diff(h, axis=1)).sum())
            pieces.append([ys[i], ys[i + 1], value, err, variation, float(edges[j])])
            out[i] = value, err
        return out

    peak_s = max(t, 2.0 * TAIL_START) if t > 0.0 else TAIL_START
    total, err, converged = tail_integral(
        segments, TAIL_START, 2.0 * TAIL_START, spec.tol, baseline, stop_from=peak_s
    )
    if not converged:
        raise QuadratureError("high-frequency tail did not converge")
    budget = spec.tol * (abs(baseline) + abs(total))
    phase = 0.0
    stepped = []
    for piece in sorted(pieces, key=lambda p: p[4]):
        if phase + piece[4] <= budget:
            phase += piece[4]
            piece[2] += piece[5]
        else:
            stepped.append(piece)
    if stepped:
        y_lo, y_hi = [p[0] for p in stepped], [p[1] for p in stepped]
        steps = _phase_steps(kind, t, spec.osc_guard, y_lo, y_hi, panels_left)
        bounds = [_build_bounds(*ends) for ends in zip(y_lo, y_hi, steps)]
        for piece, (value, step_err, _) in zip(stepped, integrate(f, bounds)):
            piece[2] = value
            err += step_err - piece[3]
    total = 0.0
    for piece in pieces:  # in position order, as tail_integral summed them
        total += piece[2]
    return total, err + phase


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
    try:
        if zone == "high":
            return _tail_value(d, kind, t, spec, 0.0, f)
        if zone != "all":
            return radial_integral(f, *_Y_ZONES[zone], spec.tol, ladder=16 if zone == "low" else 0)
        head = radial_integral(f, 0.0, 1.0, spec.tol, ladder=16)
        tail = _tail_value(d, kind, t, spec, head[0], f)
    except QuadratureError as exc:
        raise type(exc)(f"{exc} (t={t:g}, tol={spec.tol:g})") from exc
    return head[0] + tail[0], head[1] + tail[1]


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
