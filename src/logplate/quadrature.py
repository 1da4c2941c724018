"""Deterministic adaptive radial quadrature for all L^2-type quantities.

Design notes
------------
* Panels are integrated with a Gauss-Kronrod 7-15 rule; |K15 - G7| is the
  panel error estimate.  Refinement splits every panel whose estimate
  exceeds its share of the global tolerance, so the process is independent
  of evaluation order.  The final value sums the panel results with
  math.fsum, exactly rounded in any order, so output is bit-reproducible.
* One `_adaptive` call refines several intervals in shared rounds over one
  panel table, each round in whole-array steps and one batch of
  evaluations, while each interval keeps its own panels, test, threshold,
  round limit, sum and t, and each owner (a time) its own budget and
  errors: no value depends on the intervals it shares rounds with.  A
  series integrates all its times in the same calls; node functions take t
  as a float or aligned with y.
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
* In the high zone every oscillating kind is written as
  v = m + P cos(bt) + Q sin(bt) with slow P, Q and the mass term m, so v^2
  is the smooth m^2 + (P^2 + Q^2)/2 plus four fast terms in cos/sin of bt
  and 2bt, the real parts of F2 e^{2ibt} and F1 e^{ibt}.  One piece loop
  (`_tail_values`) integrates the smooth part of a run of tail pieces in one
  `_adaptive` call and the fast terms in another, by Levin collocation in y
  (`_levin`, Levin 1982): p' + i phi' p = F on 17 Chebyshev-Lobatto points
  of a panel gives the integral as [p e^{i phi}] between its ends, at a cost
  that does not depend on t (b' >= 1: no stationary point).  A panel's
  estimate is the larger of the change from the nested 9-point collocation
  and the unresolved Chebyshev tail of F times its width; panels that miss
  their piece's share of the tolerance are halved, at most 8 times.  A
  piece over which bt turns by less than pi integrates v^2 itself.
* Every unbounded integral (the high zone, the reference tail, and the data
  module's log-weighted norm) goes through one tail-doubling loop,
  `tail_integral`: it doubles the extent until the increment is negligible
  and, for the high zone, the envelope peak (at log-weight ~ t) has been
  passed.  The loops of a series' times run in lockstep.
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
#: Chebyshev-Lobatto points of the Levin collocation of a high-zone tail
#: piece; every other one gives its nested estimate.
_LEVIN = 17
#: Halvings a Levin piece may take before its time fails.
_HALVINGS = 8
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


def _lobatto(k: int):
    """Chebyshev-Lobatto points x_j = cos(pi j/(k-1)), from 1 down to -1, the
    differentiation matrix of their interpolant (Trefethen, Spectral Methods
    in MATLAB, 2000, `cheb`) and the rows that take its last two Chebyshev
    coefficients from its values: c_m = 2/(k-1) sum_j'' f_j cos(pi j m/(k-1)),
    the end terms halved and c_{k-1} halved once more, where
    cos(pi j (k-1)/(k-1)) = (-1)^j and cos(pi j (k-2)/(k-1)) = (-1)^j x_j."""
    j = np.arange(k)
    x = np.sin(0.5 * math.pi * (k - 1 - 2.0 * j) / (k - 1))  # the middle point is 0
    c = np.where((j == 0) | (j == k - 1), 2.0, 1.0) * (-1.0) ** j
    dmat = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(k))
    return x, dmat - np.diag(dmat.sum(axis=1)), np.array([2.0 * x, np.ones(k)]) / (c * (k - 1))


_CHEB_X, _CHEB_D, _CHEB_TAIL = _lobatto(_LEVIN)
_NESTED_D = _lobatto(_LEVIN // 2 + 1)[1]  # on the points _CHEB_X[::2]


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature configuration of a norm integral.

    osc_guard is accepted and validated, but the quadrature no longer reads
    it: it sized the phase-stepped panels of the high-zone tail, which Levin
    collocation replaced.  It stays only because the benchmark's workloads
    construct QuadSpec(osc_guard=2.0); ROADMAP item 1 deletes it.
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


def _gk_eval(f, lo: np.ndarray, hi: np.ndarray, t):
    """Vectorised GK15 on a batch of panels -> (values, error estimates);
    f(x, t) evaluates the nodes x, 15 per panel, at t (a float or one time
    per panel, repeated to the nodes), and a non-finite sample makes its
    panel's value non-finite."""
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
        y = f(x.reshape(-1), np.repeat(t[sl], 15) if isinstance(t, np.ndarray) else t)
        y = y.reshape(x.shape)
        if not np.isfinite(y).all():
            y = np.where(np.isfinite(y), y, np.nan)  # NaN, unlike inf, sums without warnings
        k = (y * _WK).sum(axis=1) * half
        g = (y[:, 1::2] * _WG).sum(axis=1) * half
        vals[sl] = k
        errs[sl] = np.abs(k - g)
    return vals, errs


def _adaptive(f, lo, hi, sizes, ts, owners, tol: float, budget, failed: dict, rule=None,
              goal=0.0, rounds: int = 200):
    """Adaptive refinement of f(y, t) on intervals: interval i starts from
    the next sizes[i] panels (lo, hi) and refines at t = ts[i] as it would
    alone, with its own test, threshold and at most `rounds` rounds of
    splitting.  Panels are integrated by `rule(f, lo, hi, t)` -> (values,
    error estimates), GK15 unless given; an interval stops once its errors
    sum to at most tol * |its value| + goal[i] (goal a float or one per
    interval).

    The open intervals' panels form one table, each interval's in the order
    its test sums read (kept, left halves, right halves); a round tests,
    splits and regroups it in whole-array steps and evaluates the new panels
    in one `rule` call.  The intervals of owners[i] (an index) share the
    panels budget[owner], checked before every evaluation and reduced by
    the panels they end with.  An owner fails on an exhausted budget, a
    non-finite sample or the round limit: `failed` maps it to its error, and
    every owner at or after the earliest failed one is dropped.  Returns
    [(value, error estimate, panels)] per interval, (0.0, 0.0, 0) if dropped.
    """
    cut = min(failed, default=math.inf)

    def fail(who, error):
        nonlocal cut
        if who.size and who.min() < cut:
            cut = int(who.min())
            failed[cut] = error(cut)

    # counts and sort keys are exact floats: integer ufunc loops would add code pages to RSS
    owner, t_of = np.asarray(owners, dtype=np.intp), np.asarray(ts, dtype=float)
    goal = np.zeros(owner.size) + goal
    idx = np.repeat(np.arange(owner.size), sizes)  # the interval of each panel in the table
    limit, used = np.asarray(budget), np.zeros(len(budget))
    val, err, mask = np.empty(idx.size), np.empty(idx.size), np.ones(idx.size, dtype=bool)
    done = [(idx[:0], lo[:0], lo[:0])]  # (interval, value, error) of the stopped intervals' panels
    for rnd in range(rounds + 2):  # the last round only tests
        ids = (count := np.bincount(idx, minlength=owner.size)).nonzero()[0]  # in the table
        n, starts = count[ids], idx.searchsorted(ids)  # each interval's panels and first one
        go = np.ones(ids.size, dtype=bool)
        if rnd:
            runs = list(zip(starts.tolist(), [*starts[1:].tolist(), idx.size]))
            total = np.array([np.add.reduce(val[a:b]) for a, b in runs])
            size = tol * np.abs(total) + goal[ids]
            esum = np.array([np.add.reduce(err[a:b]) for a, b in runs])
            go = ~(esum <= size + 1e-300)  # a NaN sum goes on, to the non-finite check
            bad = go & ~np.isfinite(total)
            fail(owner[ids[bad]],
                 lambda o: NonFiniteIntegrandError("integrand returned a non-finite sample"))
            go &= ~bad
            # the panels that split (round 0 takes all): an interval that goes on has a
            # finite error sum above `size`, so its largest panel error exceeds this
            mask = (err > (size / (2.0 * n)).repeat(n)) & go.repeat(n)
            if rnd > rounds:  # the round limit: every interval that goes on fails
                fail(owner[ids[go]],
                     lambda o: PanelBudgetError("adaptive refinement did not reach the tolerance"))
            if rnd > rounds or not mask.any():  # every interval stops
                done.append((idx, val, err))
                break
        used += np.bincount(owner[idx[mask]], minlength=used.size)
        fail((used > limit).nonzero()[0], lambda o: PanelBudgetError(
            f"initial subdivision needs {used[o]:.0f} panels, budget is {budget[o]}" if not rnd
            else "panel budget exhausted; t is too large for the requested tolerance"))
        stay = ((owner[ids] < cut) & go).repeat(n)  # the others stop
        if rnd:  # regroup each interval's panels: kept, left halves, right halves
            done.append((idx[~stay], val[~stay], err[~stay]))
            keep, mask = stay & ~mask, stay & mask
            a, b, new = lo[mask], hi[mask], idx[mask] + 0.5
            mid = 0.5 * (a + b)
            key = np.concatenate([idx[keep], new, new])
            order = key.argsort(kind="stable")
            lo, hi, val, err = (np.concatenate(x)[order] for x in (
                [lo[keep], a, mid], [hi[keep], mid, b], [val[keep], a, b], [err[keep], a, b]))
            idx = key[order].astype(np.intp)
            mask = key[order] > idx
        elif not stay.all():  # round 0: drop the failed owners' panels
            lo, hi, idx, mask, val, err = (x[stay] for x in (lo, hi, idx, mask, val, err))
        if not idx.size:
            break
        t = t_of[idx[mask]]  # one float t if the new panels share it: the kernels take it faster
        t = ts[idx[mask][0]] if (t == t[0]).all() else t
        val[mask], err[mask] = (rule or _gk_eval)(f, lo[mask], hi[mask], t)
    idx, val, err = (np.concatenate(x) for x in zip(*done))
    order = idx.argsort(kind="stable")
    v, e = val[order].tolist(), (err + _ROUNDING * np.abs(val))[order].tolist()
    ends = list(itertools.accumulate(np.bincount(idx, minlength=owner.size).tolist(), initial=0))
    out = []
    for o, a, b in zip(owner.tolist(), ends, ends[1:]):
        out.append((math.fsum(v[a:b]), math.fsum(e[a:b]), b - a) if o < cut else (0.0, 0.0, 0))
        budget[o] -= out[-1][2]
    return out


def _build_bounds(lo: float, hi: float, ladder: int = 0) -> np.ndarray:
    """Panel boundaries on [lo, hi]: its ends and, for `ladder` > 0, a
    geometric 2^-k ladder anchored at `lo`, used to pre-resolve integrands
    that concentrate at the left endpoint.
    """
    pts = np.sort(np.concatenate(([lo, hi], lo + (hi - lo) * 2.0 ** -np.arange(1, ladder + 1))))
    return pts[np.concatenate(([True], pts[1:] != pts[:-1]))]


def radial_integral(f, lo: float, hi: float, tol: float, ladder: int = 0):
    """Adaptive integral of f over [lo, hi] to tolerance tol -> (value, error estimate)."""
    if hi < lo:
        raise ValueError("empty integration range")
    failed, b = {}, _build_bounds(lo, hi, ladder=ladder)
    ((value, err, _),) = _adaptive(lambda y, t: f(y), b[:-1], b[1:], [b.size - 1], [0.0], [0], tol,
                                   [MAX_PANELS], failed)
    if failed:
        raise failed[0]
    return value, err


def tail_integral(segments, lo: float, hi: float, tol: float, baselines=(0.0,), stops=(-math.inf,)):
    """Sum the pieces [lo, hi], [hi, 2 hi], ... until the increments stop, in
    one loop per entry of `baselines`, all loops in lockstep.

    `segments(runs)` takes {loop: ends}, the run of consecutive pieces
    between the points `ends` of every open loop, and returns {loop: one
    (value, err) per piece}.  A loop stops after a piece that starts at or
    beyond its entry of `stops`, is no larger than the piece before it and
    is at most tol * (|baseline| + |total|), where `baseline` is the part of
    the integral the caller holds apart.  No piece before the first one that
    starts at or beyond the stop can stop the loop, so the first run is all
    of them up to that one; every later run is one piece, and no piece past
    the stop is integrated.  Returns one (total, err, converged) per loop;
    converged is False when MAX_SEGMENTS pieces did not meet the test, and
    the caller decides what that means.  On convergence err includes a
    bound on the tail never integrated: the geometric remainder
    |last| rho/(1-rho) of pieces that keep shrinking by the last ratio
    rho = last/previous, and at least |last|.
    """
    out = [None] * len(baselines)
    state = [[0.0, 0.0, math.inf, 0] for _ in baselines]  # total, err, previous piece, pieces
    runs = {}
    for k, stop in enumerate(stops):
        runs[k] = [lo, hi]
        while runs[k][-2] < stop and len(runs[k]) <= MAX_SEGMENTS:
            runs[k].append(2.0 * runs[k][-1])
    while runs:
        later = {}
        for k, found in segments(runs).items():
            ends = runs[k]
            total, err, prev, count = state[k]
            for start, (seg, segerr) in zip(ends, found):
                total += seg
                err += segerr
                if (
                    start >= stops[k]
                    and seg <= prev
                    and seg <= tol * (abs(baselines[k]) + abs(total)) + 1e-300
                ):
                    # A ratio of 1 or more bounds nothing, so the remainder is infinite.
                    rho = abs(seg / prev) if prev else 0.0
                    rest = abs(seg) * max(1.0, rho / (1.0 - rho)) if rho < 1.0 else math.inf
                    out[k] = total, err + rest, True
                    break
                prev = seg
            else:
                count += len(ends) - 1
                state[k] = [total, err, prev, count]
                if count < MAX_SEGMENTS:
                    later[k] = [ends[-1], 2.0 * ends[-1]]
                else:
                    out[k] = total, err, False
        runs = later
    return out


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
    ((total, _, converged),) = tail_integral(
        lambda runs: {0: [radial_integral(f, *ab, REF_TOL) for ab in itertools.pairwise(runs[0])]},
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


def node_values(kind: str, lam: np.ndarray, t, v0, v1, mass) -> np.ndarray:
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


def _scaled_data_y(d, kind: str, t, n: int, y: np.ndarray):
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


def _squared_value(d, kind: str, n: int):
    """The integrand of every zone: (y, t) -> v^2 with v the measure-folded
    value of the kind, so that int v^2 dy is the zone's squared norm."""

    def f(y, t):
        v = node_values(kind, y * y, t, *_scaled_data_y(d, kind, t, n, y))
        return v * v

    return f


def _phase_terms(kind: str, y: np.ndarray, t, w0, w1, wial):
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


def _levin(f, lo: np.ndarray, hi: np.ndarray, t):
    """Levin collocation (Levin, Math. Comp. 1982) on a batch of panels ->
    (values, error estimates) of int Re sum_k F_k e^{i phi_k}.  f(y, t) gives
    rows F_k, phi_k' and phi_k at the nodes y, _LEVIN Chebyshev-Lobatto points
    per panel from its right end to its left, at t as in `_gk_eval`.

    p' + i phi' p = F collocated on the nodes makes (p e^{i phi})' = F e^{i phi},
    so the integral is [p e^{i phi}] between the panel's ends, at a cost that
    does not depend on how far phi turns (phi' > 0: no stationary point).  A
    panel's estimate is the larger of the change from the collocation on
    every other node and the width times the unresolved Chebyshev tail of F,
    its last two coefficients.  The systems of a batch are solved in one
    `np.linalg.solve` per point set, each on its own, so no row depends on
    the others.
    """
    half = 0.5 * (hi - lo)
    y = (lo + half)[:, None] + half[:, None] * _CHEB_X
    y[:, 0], y[:, -1] = hi, lo
    rows = f(y.ravel(), np.repeat(t, _LEVIN) if isinstance(t, np.ndarray) else t)
    amp, rate, phase = (x.reshape(-1, _LEVIN) for x in rows)  # row (k, panel)
    width = np.tile(2.0 * half, rows[0].size // y.size)
    values = []
    for step, dmat in ((1, _CHEB_D), (2, _NESTED_D)):
        system = dmat * (2.0 / width)[:, None, None] + 0j
        diag = np.arange(dmat.shape[0])
        system[:, diag, diag] += 1j * rate[:, ::step]
        p = np.linalg.solve(system, amp[:, ::step, None])[:, :, 0]
        ends = p[:, [0, -1]] * np.exp(1j * phase[:, [0, -1]])  # p e^{i phi} at hi and lo
        values.append((ends[:, 0] - ends[:, 1]).real)
    tail = width * np.abs((amp[:, None, :] * _CHEB_TAIL).sum(axis=2)).sum(axis=1)
    err = np.maximum(np.abs(values[0] - values[1]), tail)
    return values[0].reshape(-1, lo.size).sum(axis=0), err.reshape(-1, lo.size).sum(axis=0)


def _tail_values(d, kind: str, ts, spec: QuadSpec, baselines, failed: dict):
    """High-zone integrals of v^2 at the times `ts` -> [(value, err)] of the
    times before the earliest failed one (`failed` and budgets as in
    `_adaptive`): one `tail_integral` loop per time, the loops in lockstep,
    over pieces in y, s = 1 + y^2 doubling from TAIL_START.

    The pieces of a round, a run of every open loop, are probed in one call,
    on 33 points y each; pieces where every folded term underflows there are
    skipped.  Kinds without a phase, t = 0 and pieces over which the mode's
    phase bt turns by less than pi integrate v^2 itself, in one `_adaptive`
    call.  The other pieces integrate the smooth part m^2 + (P^2 + Q^2)/2 of
    v^2 in a second call, and its four fast terms, Re[F e^{2ibt}] with
    F = (P^2 - Q^2)/2 - iPQ and Re[2m(P - iQ) e^{ibt}], by Levin collocation
    (`_levin`) in a third, on panels halved at most _HALVINGS times.  The
    piece that starts at s takes its fast terms to within
    tol * (|smooth part| + (|baseline| + M) TAIL_START / (2s)), with M the
    sum of |value| (of the smooth part, for these pieces) over its time's
    pieces up to this run's last: the second shares halve from piece to
    piece, so all of them sum to about tol * (|baseline| + 2 |total|), and a
    piece that carries no mass is not held to its own relative tol.
    """
    n = spec.n
    f = _squared_value(d, kind, n)
    phased = kind in _WAVE_KINDS or kind in _MODE_KINDS
    panels_left = [MAX_PANELS] * len(ts)
    mass = np.abs(np.asarray(baselines, dtype=float))  # |baseline| + M of each time

    def smooth(y, t):
        m, p, q, _ = _phase_terms(kind, y, t, *_scaled_data_y(d, kind, t, n, y))
        part = 0.5 * (p * p + q * q)
        return part if m is None else part + m * m

    def fast(y, t):  # rows F, phi' and phi of the fast terms, as `_levin` takes them
        m, p, q, db = _phase_terms(kind, y, t, *_scaled_data_y(d, kind, t, n, y))
        bt = t * np.sqrt(-collision_gap(y * y)[1])
        amps = [(2.0, 0.5 * (p * p - q * q) - 1j * (p * q))]
        if m is not None:
            amps.append((1.0, 2.0 * m * (p - 1j * q)))
        return tuple(np.concatenate(x) for x in zip(*((g, k * t * db, k * bt) for k, g in amps)))

    def segments(runs):
        owner = np.array([k for k, ends in runs.items() for _ in ends[1:]])  # of each piece
        s_lo = np.array([s for ends in runs.values() for s in ends[:-1]])
        lo = np.sqrt(s_lo - 1.0)
        hi = np.sqrt(np.array([s for ends in runs.values() for s in ends[1:]]) - 1.0)
        t = np.asarray(ts)[owner]
        probe = np.linspace(lo, hi, _PROBE, axis=1)  # one row per piece
        live = np.zeros(len(owner), dtype=bool)
        for w in _scaled_data_y(d, kind, np.repeat(t, _PROBE), n, probe.ravel()):
            if w is not None:
                live |= w.reshape(probe.shape).any(axis=1)
        turn = t * (np.sqrt(-collision_gap(hi * hi)[1]) - np.sqrt(-collision_gap(lo * lo)[1]))
        levin = live & phased & (turn >= math.pi)
        found = np.zeros((2, len(owner)))  # value, err

        def integrate(g, ids, tol, **kw):  # adds (value, err) of the pieces ids
            if ids.size:
                res = _adaptive(g, lo[ids], hi[ids], np.ones_like(ids), t[ids], owner[ids], tol,
                                panels_left, failed, **kw)
                found[:, ids] += np.array(res)[:, :2].T

        integrate(f, np.flatnonzero(live & ~levin), spec.tol)
        integrate(smooth, ids := np.flatnonzero(levin), spec.tol)
        np.add.at(mass, owner, np.abs(found[0]))
        integrate(fast, ids, 0.0, rule=_levin, rounds=_HALVINGS, goal=spec.tol * (
            np.abs(found[0, ids]) + mass[owner[ids]] * TAIL_START / (2.0 * s_lo[ids])))
        out = {k: [] for k in runs}  # a failed time's pieces are never used
        for k, row in zip(owner.tolist(), found.T.tolist()):
            out[k].append((row[0], row[1]))
        return out

    stops = [max(t, 2.0 * TAIL_START) if t > 0.0 else TAIL_START for t in ts]
    out = []
    for k, (total, err, converged) in enumerate(
            tail_integral(segments, TAIL_START, 2.0 * TAIL_START, spec.tol, baselines, stops)):
        if k >= min(failed, default=math.inf):
            break
        if not converged:
            failed[k] = QuadratureError("high-frequency tail did not converge")
            break
        out.append((total, err))
    return out


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


def _norm_pairs(d, kind: str, n: int, ts, spec: QuadSpec, zone: str) -> list:
    """(value, err) of the squared norm at every time of `ts`, the request
    checked before any integration.  The times are integrated together,
    each on its own panels within its own budgets, so each gets the result
    it has alone; the error of the earliest failing time is raised."""
    if kind not in NORM_KINDS:
        raise ValueError(f"unknown integrand kind {kind!r}")
    if zone != "all" and zone not in ZONES:
        raise ValueError(f"unknown zone {zone!r}")
    for t in ts:
        if not 0.0 <= t < math.inf:
            raise ValueError("t must be finite and nonnegative")
        if t == 0.0 and kind in _PHI1_KINDS and d.mass_sum != 0.0:
            raise ValueError(
                f"{kind!r} at t=0 contains phi1 = the mass {d.mass_sum:g} at every "
                "frequency, whose norm is infinite; use t > 0"
            )
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("time grid must be strictly increasing")
    if spec.n != n:
        raise ValueError("spec dimension does not match the requested dimension")
    for profile in (d.u0, d.u1):
        if profile.n != n:
            raise ValueError("data profile dimension does not match the run")
    failed = {}
    out = [(0.0, 0.0)] * len(ts)  # the bounded part: none of the high zone
    if zone != "high":
        ends = _Y_ZONES.get(zone, (0.0, 1.0))
        bounds = _build_bounds(*ends, ladder=16 if zone in ("all", "low") else 0)
        k = len(ts)
        out = _adaptive(_squared_value(d, kind, n), np.tile(bounds[:-1], k), np.tile(bounds[1:], k),
                        [bounds.size - 1] * k, ts, range(k), spec.tol, [MAX_PANELS] * k, failed)
    if zone in ("all", "high"):
        tails = _tail_values(d, kind, ts, spec, [h[0] for h in out], failed)
        out = [(h[0] + tail[0], h[1] + tail[1]) for h, tail in zip(out, tails)]
    if failed:
        k = min(failed)
        raise type(failed[k])(f"{failed[k]} (t={ts[k]:g}, tol={spec.tol:g})") from failed[k]
    return [pair[:2] for pair in out]


def norm_value(
    d, kind: str, n: int, t: float, spec: QuadSpec | None = None, zone: str = "all"
) -> tuple[float, float]:
    """Squared norm of the selected quantity at one time -> (value, err)."""
    return _norm_pairs(d, kind, n, (t,), spec or QuadSpec(n=n), zone)[0]


def norm_series(
    d, kind: str, n: int, t_grid, spec: QuadSpec | None = None, zone: str = "all"
) -> NormSeries:
    """Squared-norm series of the selected quantity over the time grid; each
    time's (value, err) is the one `norm_value` gives it."""
    ts = tuple(float(t) for t in t_grid)
    pairs = _norm_pairs(d, kind, n, ts, spec or QuadSpec(n=n), zone)
    return NormSeries(kind, zone, n, ts, tuple(v for v, _ in pairs), tuple(e for _, e in pairs))


def default_time_grid(k_max: int = 20, t0: float = 10.0) -> tuple[float, ...]:
    """Geometric grid t_k = t0 * 2^{k/2}; the default ends near 1e4, the
    window the checks' fits and bands read."""
    if k_max / 2.0 + math.log2(t0) >= 1024.0:
        raise ValueError(f"the last time t0 * 2^({k_max}/2) of the grid overflows a double")
    return tuple(t0 * 2.0 ** (k / 2.0) for k in range(k_max + 1))
