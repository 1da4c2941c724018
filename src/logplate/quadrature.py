"""Deterministic adaptive radial quadrature for all L^2-type quantities.

Design notes
------------
* Panels are integrated with a Gauss-Kronrod 7-15 rule; |K15 - G7| is the
  panel error estimate.  Refinement splits every panel whose estimate
  exceeds its share of the global tolerance, so the process is independent
  of evaluation order.  The final value sums the panel results with
  math.fsum, exactly rounded in any order, so output is bit-reproducible.
* One `_adaptive` call refines several intervals in shared rounds over one
  panel table in position order, each round in whole-array steps and one
  batch of evaluations of the new halves, while each interval keeps its own
  panels, test, threshold, round limit, sum and t, and each owner (a time)
  its own budget and errors: no value depends on the intervals it shares
  rounds with.  A series integrates all its times in the same calls; node
  functions take t as a float or aligned with y.
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
  ladder from y = 0), each an owner of its own in one `_rows` call.  There
  the oscillatory profile is damped by e^{-t/(2L)} (e^{-3.49t} on the low
  zone), and the mode oscillates only on highmid, turning at most 0.15 t
  periods while its square decays like e^{-t/2}: refinement resolves the few
  periods that are not negligible.
* In the high zone every oscillating kind is written as
  v = m + P cos(bt) + Q sin(bt) with slow P, Q and the mass term m, so v^2
  is the smooth m^2 + (P^2 + Q^2)/2 plus four fast terms in cos/sin of bt
  and 2bt, the real parts of F2 e^{2ibt} and F1 e^{ibt}.  One piece loop
  (`_tail_values`) integrates the smooth part of a run of tail pieces in one
  `_adaptive` call and the fast terms in another, in the phase variable
  theta = b(y) (b' >= 1: no stationary point), where F e^{ikbt} dy reads
  (F/b') e^{ikt theta} d theta at the constant rate kt.  There Levin
  collocation (Levin 1982) on 17 Chebyshev-Lobatto points is
  Filon-Clenshaw-Curtis quadrature (`_levin`): sum_j mu_j(w) F_j/b'_j with
  closed-form weights of w = kt times the half-width, so no system is solved
  and the cost does not depend on t.  The weights are the endpoint series of
  integration by parts from w = 16 on and a 48-point Gauss-Legendre product
  below it, where the series loses digits.  A panel's estimate is the
  larger of the change from the nested 9-point rule and the unresolved
  Chebyshev tail of F/b' times its width; panels that miss their piece's
  share of the tolerance are halved, at most 8 times.  A piece over which
  bt turns by less than pi integrates v^2 itself.  Every piece goes to
  GK15, empty or not: an empty one settles in one panel with error 0, and
  only pieces with a nonzero smooth part go on to Levin, as the fast terms
  vanish wherever the smooth part does.
* The high zone goes through the one tail-doubling loop, `tail_integral`:
  it doubles the extent until the increment is negligible and the envelope
  peak (at log-weight ~ t) and the data's core peak (`s_peak`) are passed;
  the loops of a series' times run in lockstep.  `y_norm` integrates to a
  fixed end, 1 + L = 1024, and `ref_integral_Jp` in x = 1/(1+r^2) instead.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

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
    "FIRST_NODE",
    "T_MAX",
    "CHUNK",
    "REF_TOL",
    "surface_area",
    "tail_integral",
    "log_flat_measure",
    "YNormResult",
    "y_norm",
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
MAX_PANELS = 100_000
#: Segments a tail-doubling loop may take before it gives up.
MAX_SEGMENTS = 200
#: Starting value of s = 1 + log-weight for the tails integrated in y.
TAIL_START = 2.0
#: Maximum integrand evaluations per vectorised call, sized so that each
#: float64 temporary of one call (128 KB) stays in the L2 cache.  Panel
#: sums are taken row by row, so no value depends on the batch size.
CHUNK = 1 << 14
#: Chebyshev-Lobatto points of the Levin rule of a high-zone tail piece;
#: every other one gives its nested estimate.
_LEVIN = 17
#: Where the Levin weights turn from the Gauss-Legendre product to the
#: endpoint series (`_weights`); the two differ by 2e-15 there.
_OMEGA = 16.0
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

#: y0 ~ 6.5e-8, the first GK15 node of [0, 2^-16], the ladder's first panel
#: on y in [0, 1]; data.ALPHA_MIN = y0^2.  T_MAX = 1/y0^2, the largest t of a
#: zone holding r = 0, keeps the mass e^{-2tL} at e^{-2} or more at y0.
FIRST_NODE = 2.0**-17 * (1.0 - _XGK_HALF[0])
T_MAX = 1.0 / FIRST_NODE**2


def _gauss_legendre(n: int):
    """The positive Gauss-Legendre points of an even n and their weights:
    Newton on P_n from x = cos(pi (i + 3/4)/(n + 1/2)), with P_n and P_n'
    from the three-term recurrence (no LAPACK call, whose pages stay resident)."""
    x = np.cos(math.pi * np.arange(0.75, n // 2) / (n + 0.5))
    for _ in range(4):  # the last step's P_n' is that of the converged x
        p, q = np.ones(x.size), x
        for k in range(2, n + 1):
            p, q = q, ((2 * k - 1) * x * q - (k - 1) * p) / k
        gap = (1.0 - x) * (1.0 + x)  # 1 - x^2 to a few ulps near x = 1
        dq = n * (p - x * q) / gap
        x = x - q / dq
    return x, 2.0 / (gap * dq * dq)


_GL_X, _GL_W = _gauss_legendre(48)


def _filon(k: int):
    """The Filon-Clenshaw-Curtis rules on the k Chebyshev-Lobatto points
    x_j = cos(pi j/(k-1)), from 1 down to -1, and on every other one, with
    weights mu_j(w) = int_{-1}^{1} l_j(x) e^{iwx} dx, l_j the Lagrange basis
    of their points -> (x, tail, tables, mirror).  tail takes the last two
    Chebyshev coefficients of the k-point interpolant from its values,
    c_m = 2/(k-1) sum_j'' f_j cos(pi j m/(k-1)), the end terms halved and
    c_{k-1} halved once more.  tables, for `_weights`, hold the two rules'
    columns side by side: w_q (l_j(x_q) +- l_j(-x_q)) at the positive
    Gauss-Legendre points x_q, and (-1)^e l_j^(d)(1) at d = 2e and
    d = 2e + 1, from T_m^(d)(1) = prod_{i<d} (m^2 - i^2)/(2i + 1), which
    vanishes for d > m.  l_j(-x) = l_{mirror[j]}(x)."""
    d = np.arange(k - 1.0)[:, None]
    sign = (-1.0) ** np.arange(k // 2 + 1.0)[:, None]
    tables = []
    for size in (k, k // 2 + 1):
        j = np.arange(float(size))
        coef = np.cos(math.pi / (size - 1) * j[:, None] * j) * (2.0 / (size - 1))
        coef[[0, -1]] *= 0.5
        coef[:, [0, -1]] *= 0.5
        at = (np.cos(j * np.arccos(_GL_X)[:, None])[:, :, None] * coef).sum(axis=1)  # l_j(x_q)
        steps = np.cumprod(np.vstack([np.ones(size), (j * j - d * d) / (2.0 * d + 1.0)]), axis=0)
        ends = (steps[:, :, None] * coef).sum(axis=1)  # l_j^(d)(1) at [d, j]
        tables.append((_GL_W[:, None] * (at + at[:, ::-1]), _GL_W[:, None] * (at - at[:, ::-1]),
                       ends[::2] * sign[:(k + 1) // 2], ends[1::2] * sign[:k // 2]))
        if size == k:
            x, tail = np.sin(0.5 * math.pi * (k - 1 - 2.0 * j) / (k - 1)), coef[-2:]  # x[k//2] = 0
    mirror = np.concatenate([np.arange(k)[::-1], np.arange(k, k + k // 2 + 1)[::-1]])
    return x, tail, [np.hstack(parts) for parts in zip(*tables)], mirror


_CHEB_X, _CHEB_TAIL, _TABLES, _MIRROR = _filon(_LEVIN)


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature configuration of a norm integral.

    tol is relative to the squared norm v as a whole.  The bounded integral
    stops once its panel errors sum to at most tol times its value B.  Each
    high-zone tail piece stops at tol times its own value plus its share of
    the norm, tol (|B| + M) TAIL_START / (2s) for the piece that starts at
    s = 1 + y^2, with M the sum of |value| over its time's pieces so far (see
    `_tail_values`).  The shares halve from piece to piece, so they sum to
    less than tol (|B| + M), and each piece spends its share at most twice,
    once by its GK15 part and once by its Levin fast terms.  By construction
    err_est can therefore reach a few times tol * v; measured on every series
    the checks read, it stays at or below tol * v (worst 0.987 of it).

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

    All panels form one table in position order, each interval's in a row.
    A round sums each interval's values and errors with one `reduceat`,
    tests, halves the panels that split in place and evaluates the halves
    in one `rule` call.  An interval that stops keeps its panels, which no
    longer change, so it tests as stopped in every later round and is never
    evaluated again.  The intervals of owners[i] (an index) share the
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

    # `used` counts panels in exact floats: integer ufunc loops would add code pages to RSS
    owner, t_of = np.asarray(owners, dtype=np.intp), np.asarray(ts, dtype=float)
    goal = np.zeros(owner.size) + goal
    idx = np.repeat(np.arange(owner.size), sizes)  # the interval of each panel in the table
    ids = np.flatnonzero(sizes)  # the intervals with panels: reduceat takes no empty run
    limit, used = np.asarray(budget), np.zeros(len(budget))
    # zeros, as the panels of an owner dropped in round 0 are summed but never evaluated
    val, err, new = np.zeros(idx.size), np.zeros(idx.size), np.ones(idx.size, dtype=bool)
    for rnd in range(rounds + 2):  # the last round only tests
        n = np.bincount(idx)[ids]  # each interval's panels
        go = owner[ids] < cut
        if rnd:
            starts = idx.searchsorted(ids)
            total = np.add.reduceat(val, starts)
            size = tol * np.abs(total) + goal[ids]
            go &= ~(np.add.reduceat(err, starts) <= size + 1e-300)  # a NaN sum goes on
            bad = go & ~np.isfinite(total)
            fail(owner[ids[bad]],
                 lambda o: NonFiniteIntegrandError("integrand returned a non-finite sample"))
            go &= ~bad
            # the panels that split: an interval that goes on has a finite error sum
            # above `size`, so its largest panel error exceeds this
            new = (err > (size / (2.0 * n)).repeat(n)) & go.repeat(n)
            if rnd > rounds:  # the round limit: every interval that goes on fails
                fail(owner[ids[go]],
                     lambda o: PanelBudgetError("adaptive refinement did not reach the tolerance"))
            if rnd > rounds or not new.any():  # every interval stops
                break
        used += np.bincount(owner[idx[new]], minlength=used.size)
        fail((used > limit).nonzero()[0], lambda o: PanelBudgetError(
            f"initial subdivision needs {used[o]:.0f} panels, budget is {budget[o]}" if not rnd
            else "panel budget exhausted; t is too large for the requested tolerance"))
        new &= (owner[ids] < cut).repeat(n)  # a failed owner's panels are not evaluated
        if not new.any():
            break
        if rnd:  # each split panel becomes its two halves, in place
            mid, rep = 0.5 * (lo[new] + hi[new]), np.where(new, 2, 1)
            lo, hi, idx, val, err, new = (x.repeat(rep) for x in (lo, hi, idx, val, err, new))
            halves = new.nonzero()[0]  # each split panel's left and right half, in a row
            hi[halves[::2]] = lo[halves[1::2]] = mid
        t = t_of[idx[new]]  # one float t if the new panels share it: the kernels take it faster
        t = ts[idx[new][0]] if (t == t[0]).all() else t
        val[new], err[new] = (rule or _gk_eval)(f, lo[new], hi[new], t)
    v, e = val.tolist(), (err + _ROUNDING * np.abs(val)).tolist()
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


def _rows(f, rows, ts, tol: float, failed: dict | None = None) -> list:
    """`_adaptive` of f(y, t) on `rows`, each the panel ends of one interval
    at ts[i] and an owner of its own with its own MAX_PANELS budget, so that
    each row gets the result it has alone -> [(value, err, panels)] per row.
    Failures go to `failed` as in `_adaptive` when it is given; else the
    earliest is raised."""
    found = {} if failed is None else failed
    out = _adaptive(f, np.concatenate([[], *(b[:-1] for b in rows)]),
                    np.concatenate([[], *(b[1:] for b in rows)]), [len(b) - 1 for b in rows], ts,
                    range(len(rows)), tol, [MAX_PANELS] * len(rows), found)
    if failed is None and found:
        raise found[min(found)]
    return out


def tail_integral(segments, tol: float, baselines, stops):
    """Sum the pieces [s, 2s], s doubling from TAIL_START, until the increments
    stop, in one loop per entry of `baselines`, all loops in lockstep.

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
        runs[k] = [TAIL_START, 2.0 * TAIL_START]
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


def _ref_integrand(p_exp: float):
    """(r, t) -> (1+r^2)^{-t} r^p, the integrand of the reference integrals
    in r, t a float or one per node; p stays one float, since numpy rounds
    r ** 2.0 as a square and a power with an exponent per node as pow."""

    def f(r, t):
        with np.errstate(divide="ignore"):
            return (1.0 + r * r) ** (-t) * r ** p_exp

    return f


def ref_integral_Ip(p_exp: float, ts) -> list[float]:
    """int_0^1 (1+r^2)^{-t} r^p dr for p > -1 at each t >= 0 of `ts`."""
    if not (all(map(math.isfinite, (p_exp, *ts))) and p_exp > -1.0 and min(ts, default=0.0) >= 0.0):
        raise ValueError("p must be finite and exceed -1, and each t finite and nonnegative")
    rows = [_build_bounds(0.0, 1.0, ladder=16)] * len(ts)
    found = _rows(_ref_integrand(p_exp), rows, ts, REF_TOL)
    return [value for value, _, _ in found]


def ref_integral_Jp(p_exp: float, ts) -> list[float]:
    """int_1^inf (1+r^2)^{-t} r^p dr at each t > max(1, (p+1)/2) of `ts`: in
    x = 1/(1+r^2) the incomplete beta integral
    1/2 int_0^{1/2} x^{t-(p+3)/2} (1-x)^{(p-1)/2} dx (DLMF 8.17.1), every
    time a row of one `_rows` call."""
    if not (all(map(math.isfinite, (p_exp, *ts)))
            and min(ts, default=math.inf) > max(1.0, 0.5 * (p_exp + 1.0))):
        raise ValueError("p and t must be finite, and t > max(1, (p+1)/2) for a convergent tail")

    def f(x, t):
        return 0.5 * x ** (t - 0.5 * (p_exp + 3.0)) * (1.0 - x) ** (0.5 * (p_exp - 1.0))

    found = _rows(f, [_build_bounds(0.0, 0.5, ladder=16)] * len(ts), ts, REF_TOL)
    return [value for value, _, _ in found]


def middle_zone_integral(p_exp: float, ts, lo: float) -> list[float]:
    """int_lo^1 (1+r^2)^{-t} r^p dr at each t of `ts`, the exponentially
    small middle band, for 0 <= lo < 1."""
    if not (all(map(math.isfinite, (p_exp, *ts))) and 0.0 <= lo < 1.0):
        raise ValueError("p and t must be finite, and lo in [0, 1)")
    found = _rows(_ref_integrand(p_exp), [_build_bounds(lo, 1.0)] * len(ts), ts, REF_TOL)
    return [value for value, _, _ in found]


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


@dataclass(frozen=True)
class YNormResult:
    """Log-weighted squared norm; `diverged` (value inf) is a flag, not an error."""

    value: float
    err_est: float
    diverged: bool


# Doublings of 1 + L from TAIL_START to y_norm's end X = 1024.  A Gaussian core
# holds nothing beyond: its log-flat value reads -inf past L = log(DBL_MAX) ~
# 709.78, and e^L/(4 alpha) > 4.5e7 there for alpha <= 1e300.  A power tail's
# rest is a closed form, as (1 - e^{-L})^{(n-2)/2} rounds to 1 past 1 + L = 64.
_DOUBLINGS = 9


def y_norm(d, s: float, n: int | None = None) -> YNormResult:
    """w_n int_0^inf (1 + L)^s |u(r)|^2 r^{n-1} dr of the profile d, with
    divergence flagged.

    The integral is taken in y = sqrt(L) with the measure folded into the
    data in log space: the head over y in [0, 1] and the pieces of 1 + L
    doubling from TAIL_START to X = 1024, in one `_rows` call.  The law
    decides finiteness: with a power tail the norm is finite exactly for
    s < l + beta, and the rest beyond X is (w_n c^2 / 2) X^{s-q+1} / (q-s-1).
    """
    if s < 0.0:
        raise ValueError("regularity order must be nonnegative")
    n = n if n is not None else d.n
    if n != d.n:
        raise ValueError("profile dimension does not match the request")
    if d.q < math.inf and s >= d.l + d.beta:
        return YNormResult(math.inf, 0.0, True)

    def f(y, t):
        lam = y * y
        return np.exp(s * np.log1p(lam) + 2.0 * d.log_flat_from_lam(lam) + log_flat_measure(y, n))

    ends = np.sqrt(TAIL_START * 2.0 ** np.arange(_DOUBLINGS + 1) - 1.0)
    rows = [_build_bounds(0.0, 1.0, ladder=16), *itertools.pairwise(ends)]
    found = [row[:2] for row in _rows(f, rows, [0.0] * len(rows), 1e-8)]
    if d.q < math.inf:
        gap = d.l + d.beta - s  # q - s - 1, positive wherever the norm is finite
        exponent = 2.0 * d.log_c - gap * math.log(TAIL_START * 2.0**_DOUBLINGS)
        rest = 0.5 * surface_area(n) * math.exp(exponent) / gap
        # its rounding: ulps of each factor, of exp's argument and of gap
        ulps = 4.0 + abs(exponent) + (d.q + s + 1.0) / gap
        found.append((rest, rest * np.finfo(float).eps * ulps))
    value, err = (math.fsum(x) for x in zip(*found))
    return YNormResult(value, err, False)


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
    if kind not in _WAVE_KINDS:  # the mode alone
        p, q = damp * w0, damp * (w1 + a * w0) / b
    else:
        slow = a * a * t / (y + b)
        sn, w1y = np.sin(slow), w1 / y
        if kind not in _MODE_KINDS:  # phi2 alone
            env, cs = phi2_envelope(y * y, t), np.cos(slow)
            p, q = -env * (w1y * sn + w0 * cs), -env * (w1y * cs - w0 * sn)
        else:
            # u - phi2 without cancellation: env - damp = damp expm1(-ta/L), as
            # 1/(2L) - a = a/L; 1 - cos(slow) = 2 sin^2(slow/2); 1/b - 1/y = a^2/((y+b) b y)
            gap = damp * np.expm1(-t * a / (y * y))
            env = damp + gap
            e = 2.0 * env * np.sin(0.5 * slow) ** 2 - gap
            da, esn = damp * a, env * sn
            p = w0 * e - w1y * esn
            q = w1 * (da * a / ((y + b) * b * y) + e / y) + w0 * (da / b + esn)
    m = None if wial is None else -wial
    # b^2 = L - a^2 with da/dy = -4 a^2 y, so db/dy = y (1 + 4 a^3) / b >= 1
    return m, p, q, y * (1.0 + 4.0 * a**3) / b


def _y_at(theta: np.ndarray) -> np.ndarray:
    """y >= 1 with b(y) = theta, b = sqrt(L - a^2) the mode's phase rate:
    Newton on L - a(L)^2 = theta^2, a = 1/(2(1 + L)), whose derivative
    1 + 4a^3 lies in [1, 1.07] there, from L = theta^2 + a(theta^2)^2."""
    lam = theta * theta
    lam = lam + (0.5 / (1.0 + lam)) ** 2
    for _ in range(3):
        a, csq = collision_gap(lam)
        lam = lam - (-csq - theta * theta) / (1.0 + 4.0 * a**3)
    return np.sqrt(lam)


def _weights(w: np.ndarray) -> np.ndarray:
    """The weights mu_j(w) of the `_filon` rules at each w > 0 of a batch, row
    by row, the k-point rule's columns first.  Below _OMEGA the
    Gauss-Legendre product sum_q w_q l_j(x_q) e^{iwx_q}, exact to rounding
    there; from it on the endpoint series of repeated integration by parts,
    (e^{iw} A_j - e^{-iw} conj(A_{mirror[j]}))/(iw) with
    A_j = sum_d (i/w)^d l_j^(d)(1), whose terms grow like (k^2/w)^d before
    they fall: below the cut it loses digits (5e-6 at w = 3)."""
    even, odd, near, far = _TABLES
    mu = np.empty((w.size, _MIRROR.size), dtype=complex)
    low = w < _OMEGA
    if low.any():
        x = w[low, None, None] * _GL_X[:, None]
        mu[low] = (np.cos(x) * even).sum(axis=1) + 1j * (np.sin(x) * odd).sum(axis=1)
    if not low.all():
        r = 1.0 / w[~low, None]
        powers = (r * r) ** np.arange(float(near.shape[0]))
        powers = powers[:, :, None]
        at = (powers * near).sum(axis=1) + 1j * r * (powers[:, :-1] * far).sum(axis=1)
        turn = np.exp(1j / r)
        mu[~low] = (turn * at - at[:, _MIRROR].conj() / turn) * (-1j * r)
    return mu


def _levin(f, lo: np.ndarray, hi: np.ndarray, t):
    """Levin's rule at a constant rate on a batch of panels in theta ->
    (values, error estimates) of int Re sum_k F_k(theta) e^{i kappa_k theta}.
    f(theta, t) gives rows F_k and kappa_k at the nodes theta, _LEVIN
    Chebyshev-Lobatto points per panel from its right end to its left, at t as
    in `_gk_eval`; kappa_k is constant along a row.

    Levin collocation (Math. Comp. 1982) at a constant rate on Chebyshev
    points is Filon-Clenshaw-Curtis quadrature of the interpolant of F
    (Dominguez, Graham & Smyshlyaev, IMA J. Numer. Anal. 2011): the integral
    is h Re[e^{i kappa mid} sum_j mu_j(kappa h) F_j] with h the half-width, at
    a cost that does not depend on how far the phase turns.  A panel's
    estimate is the larger of the change from the rule on every other node
    and the width times the unresolved Chebyshev tail of F, its last two
    coefficients.  Every step is elementwise or a sum along a row, so no row
    depends on the others.
    """
    half = 0.5 * (hi - lo)
    theta = (lo + half)[:, None] + half[:, None] * _CHEB_X
    theta[:, 0], theta[:, -1] = hi, lo
    amp, kappa = (x.reshape(-1, _LEVIN) for x in f(theta.ravel(), np.repeat(t, _LEVIN)
                                                    if isinstance(t, np.ndarray) else t))
    copies = amp.shape[0] // lo.size  # row (k, panel)
    mid, half, kappa = np.tile(lo + half, copies), np.tile(half, copies), kappa[:, 0]
    turn = half * np.exp(1j * kappa * mid)
    mu = _weights(kappa * half)
    values = [(turn * (mu[:, cols] * amp[:, ::step]).sum(axis=1)).real
              for step, cols in ((1, slice(_LEVIN)), (2, slice(_LEVIN, None)))]
    tail = 2.0 * half * np.abs((amp[:, None, :] * _CHEB_TAIL).sum(axis=2)).sum(axis=1)
    err = np.maximum(np.abs(values[0] - values[1]), tail)
    return values[0].reshape(-1, lo.size).sum(axis=0), err.reshape(-1, lo.size).sum(axis=0)


def _tail_values(d, kind: str, ts, spec: QuadSpec, baselines, failed: dict):
    """High-zone integrals of v^2 at the times `ts` -> [(value, err)] of the
    times before the earliest failed one (`failed` and budgets as in
    `_adaptive`): one `tail_integral` loop per time, the loops in lockstep,
    over pieces in y, s = 1 + y^2 doubling from TAIL_START, each past max(t, 4)
    (2 at t = 0) and the data's core peak `s_peak`, before which they may underflow.

    Every piece of a round, a run of every open loop, is integrated by GK15:
    kinds without a phase, t = 0 and pieces over which the mode's phase bt
    turns by less than pi integrate v^2 itself, in one `_adaptive` call, and
    the other pieces the smooth part m^2 + (P^2 + Q^2)/2 of v^2, in a second.
    A piece whose data underflow settles there in one panel, value and error
    0.  The pieces of the second call whose smooth part is nonzero integrate
    its four fast terms, Re[F e^{2ibt}] with F = (P^2 - Q^2)/2 - iPQ and
    Re[2m(P - iQ) e^{ibt}], by the Levin rule (`_levin`) in a third: in
    theta = b(y), handed the pieces' ends b(y_lo), b(y_hi), they read
    Re[(F/b') e^{ik t theta}] at the constant rate kt, with y(theta) from
    `_y_at`, on panels halved at most _HALVINGS times; |F| = (P^2 + Q^2)/2
    and |2m(P - iQ)| vanish wherever the smooth part does, so the others
    have none.

    Every piece stops at tol of its own value plus its share of the norm:
    the piece that starts at s takes its GK15 part to within
    tol * (|its value| + (|baseline| + M) TAIL_START / (2s)), with M the sum
    of |value| (of the smooth part, for split pieces) over its time's pieces
    before this run, and its fast terms to within
    tol * (|smooth part| + (|baseline| + M) TAIL_START / (2s)), with M over
    the time's other pieces up to this run's last, so that no piece counts
    its own mass twice.  The shares halve from piece to piece, so each of
    the two sums to less than tol * (|baseline| + M) with M over all the
    time's pieces, and a piece that carries no mass is not held to its own
    relative tol.  With no baseline
    (an explicit high zone) the GK15 pieces of a time's first run have no
    share.
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

    def fast(theta, t):  # rows F / b' and kappa of the fast terms in theta, as `_levin` takes them
        y = _y_at(theta)
        m, p, q, db = _phase_terms(kind, y, t, *_scaled_data_y(d, kind, t, n, y))
        amps = [(2.0, 0.5 * (p * p - q * q) - 1j * (p * q))]
        if m is not None:
            amps.append((1.0, 2.0 * m * (p - 1j * q)))
        return tuple(np.concatenate(x) for x in zip(*((g / db, np.broadcast_to(k * t, y.shape))
                                                       for k, g in amps)))

    def segments(runs):
        owner = np.array([k for k, ends in runs.items() for _ in ends[1:]])  # of each piece
        s_lo = np.array([s for ends in runs.values() for s in ends[:-1]])
        lo = np.sqrt(s_lo - 1.0)
        hi = np.sqrt(np.array([s for ends in runs.values() for s in ends[1:]]) - 1.0)
        t = np.asarray(ts)[owner]
        theta = [np.sqrt(-collision_gap(y * y)[1]) for y in (lo, hi)]  # the ends in theta = b(y)
        split = phased & (t * (theta[1] - theta[0]) >= math.pi)
        found = np.zeros((2, len(owner)))  # value, err
        part = TAIL_START / (2.0 * s_lo)  # of |baseline| + M, halving from piece to piece

        def integrate(g, ids, tol, goal, ends=(lo, hi), **kw):  # adds (value, err) of pieces ids
            if ids.size:
                res = _adaptive(g, ends[0][ids], ends[1][ids], np.ones_like(ids), t[ids],
                                owner[ids], tol, panels_left, failed, goal=goal[ids], **kw)
                found[:, ids] += np.array(res)[:, :2].T

        share = spec.tol * mass[owner] * part  # of the GK15 pieces: M before this run
        integrate(f, np.flatnonzero(~split), spec.tol, share)
        integrate(smooth, np.flatnonzero(split), spec.tol, share)
        own = np.abs(found[0])
        np.add.at(mass, owner, own)
        ids = np.flatnonzero(split & (found[0] != 0.0))  # fast terms vanish with the smooth part
        integrate(fast, ids, 0.0, spec.tol * (own + (mass[owner] - own) * part), theta,
                  rule=_levin, rounds=_HALVINGS)
        out = {k: [] for k in runs}  # a failed time's pieces are never used
        for k, row in zip(owner.tolist(), found.T.tolist()):
            out[k].append((row[0], row[1]))
        return out

    peak = max(d.u0.s_peak, d.u1.s_peak)  # a wide core's pieces may underflow before it
    stops = [max(peak, max(t, 2.0 * TAIL_START) if t > 0.0 else TAIL_START) for t in ts]
    out = []
    for k, (total, err, converged) in enumerate(
            tail_integral(segments, spec.tol, baselines, stops)):
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
    the norm itself.  `data`, the pair integrated (None if built by hand), is not compared.
    """

    kind: str
    zone: str
    n: int
    ts: tuple[float, ...]
    values: tuple[float, ...]
    errs: tuple[float, ...]
    data: object = field(default=None, compare=False, repr=False)

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
        if t > T_MAX and zone in ("all", "low"):
            raise ValueError(f"t={t:g} exceeds T_MAX = {T_MAX:.4g}: the mass is left of all nodes")
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
        out = _rows(_squared_value(d, kind, n), [bounds] * len(ts), ts, spec.tol, failed)
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
    return NormSeries(kind, zone, n, ts, tuple(v for v, _ in pairs), tuple(e for _, e in pairs), d)


def default_time_grid(k_max: int = 20, t0: float = 10.0) -> tuple[float, ...]:
    """Geometric grid t_k = t0 * 2^{k/2}; the default ends near 1e4, the
    window the checks' fits and bands read."""
    if k_max / 2.0 + math.log2(t0) >= 1024.0:
        raise ValueError(f"the last time t0 * 2^({k_max}/2) of the grid overflows a double")
    return tuple(t0 * 2.0 ** (k / 2.0) for k in range(k_max + 1))
