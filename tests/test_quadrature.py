import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from logplate import data as data_mod
from logplate import modes, symbols, verify
from logplate import quadrature as quad

GAUSS2 = data_mod.parse_pair("gaussian:alpha=1", "gaussian:alpha=1", 2)
# the data of checks 09 and 10, whose norms live mostly in the high-zone tail
LOG_TAIL8 = data_mod.parse_pair("gaussian:alpha=1", "log_tail:m=1,beta=0.2", 8)


def test_surface_areas():
    assert quad.surface_area(1) == pytest.approx(2.0, rel=1e-15)
    assert quad.surface_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert quad.surface_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    with pytest.raises(ValueError):
        quad.surface_area(0)


def test_log_flat_measure_matches_a_decimal_evaluation():
    # the low zone reaches L ~ 1e-12, where 1 - e^{-L} keeps its digits only
    # when formed as -expm1(-L)
    ys = (1e-6, 1e-3, 0.1, 1.0, 10.0)
    for n in (1, 3, 8):
        got = quad.log_flat_measure(np.array(ys), n)
        for y, value in zip(ys, got):
            with decimal.localcontext() as ctx:
                ctx.prec = 40
                yd = decimal.Decimal(y)
                want = float(
                    decimal.Decimal(math.log(quad.surface_area(n)))
                    + decimal.Decimal(n - 2) / 2 * (1 - (-yd * yd).exp()).ln()
                    + yd.ln()
                )
            assert abs(value - want) <= 1e-14 * abs(want), (n, y)


def _integral(f, lo, hi, tol, ladder=0):
    """(value, err) of f(r) over [lo, hi], one row of `quad._rows`."""
    ((value, err, _),) = quad._rows(lambda r, t: f(r), [quad._build_bounds(lo, hi, ladder)], [0.0],
                                    tol)
    return value, err


def test_basic_integrals():
    v, e = _integral(lambda r: r, 0.0, 1.0, quad.REF_TOL)
    assert v == pytest.approx(0.5, abs=1e-14)
    v, _ = _integral(lambda r: (1.0 + r * r) ** -2.0 * r, 0.0, 1.0, quad.REF_TOL)
    assert v == pytest.approx(0.25, abs=1e-14)
    v, _ = _integral(lambda r: np.exp(-r * r), 0.0, 40.0, quad.REF_TOL)
    assert v == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)


def _adaptive(f, intervals, tol, budget, failed):
    """`quad._adaptive` on [(boundary array, t, owner)], one per interval."""
    bounds, ts, owners = zip(*intervals)
    return quad._adaptive(f, np.concatenate([b[:-1] for b in bounds]),
                          np.concatenate([b[1:] for b in bounds]), [b.size - 1 for b in bounds],
                          ts, owners, tol, budget, failed)


def _boundaries(lo, hi, sizes):
    """The boundary array of each interval of an `_adaptive` call."""
    ends = np.cumsum([0, *sizes]).tolist()
    return [np.append(lo[a:b], hi[b - 1:b]) for a, b in zip(ends, ends[1:])]


# integrands of the batched refinement: smooth, peaked at x = 0 (the left
# end of the intervals that start there) and oscillating
INTEGRANDS = {
    "smooth": lambda c: lambda x: np.exp(c * x),
    "peaked": lambda c: lambda x: 1.0 / np.sqrt(x + 10.0 ** -(3.0 + abs(c))),
    "oscillating": lambda c: lambda x: 1.5 + np.cos(40.0 * c * x),
}
_bounds = st.lists(
    st.floats(0.0, 4.0), min_size=2, max_size=5, unique=True
).map(sorted).filter(lambda b: b[-1] - b[0] > 1e-3).map(np.array)
# an interval of no panels, as `_build_bounds(a, a)` gives it
_point = st.floats(0.0, 4.0).map(lambda a: quad._build_bounds(a, a))
# [1, 2, 3] with a pole at 1.25, the centre node of the left half of its
# first panel: a round-0 sample is finite, the first split's is not
_POISONED = np.array([1.0, 2.0, 3.0])
# x^-0.99 on [0, 1]: the panel at 0 holds a quarter of the value after 200 halvings
_STUCK = np.array([0.0, 1.0])


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(sorted(INTEGRANDS)),
    c=st.floats(-3.0, 3.0),
    intervals=st.lists(_bounds | _point, min_size=1, max_size=40),
    tol=st.sampled_from([1e-3, 1e-6, 1e-10]),
    short=st.integers(0, 41),
    poisoned=st.none() | st.integers(0, 40),
    stuck=st.none() | st.integers(0, 41),
)
@example("smooth", 1.0, [np.array([0.0, 1.0])] * 3, 1e-6, 4, 1, 3)
# nodes near 1e-315 beside the stuck interval: x^-0.99 overflows there
@example("oscillating", 0.0, [np.array([0.0, 2.2250738585e-313, 1.0])], 1e-3, 0, None, 0)
def test_batched_refinement_is_each_interval_alone(
    shape, c, intervals, tol, short, poisoned, stuck
):
    # every interval of one `_adaptive` call refines as it would alone at its
    # own t, bit for bit, and a round evaluates all open intervals in one
    # GK15 call; the intervals of an owner share its panel budget, checked
    # before each evaluation, and an owner that exhausts it is dropped with
    # every later owner, while the earlier ones keep their results
    g = INTEGRANDS[shape](c)
    t_poisoned = t_stuck = -1.0

    def f(x, t):
        out = g(x) + t * x
        with np.errstate(divide="ignore"):
            if np.any(t == t_poisoned):
                out = np.where(t == t_poisoned, out + 1e6 / (x - 1.25), out)
            on = np.broadcast_to(t == t_stuck, x.shape)
            if on.any():  # only the stuck interval's nodes, which stay normal
                out[on] = x[on] ** -0.99
        return out

    gk_eval = quad._gk_eval
    calls = []

    def counting(f, lo, hi, t):
        calls.append(lo.size)
        return gk_eval(f, lo, hi, t)

    def alone(intervals):
        """(result, error, panels of each GK15 call) of each interval integrated alone."""
        out = []
        for t, bounds in enumerate(intervals):
            calls.clear()
            failed = {}
            res = _adaptive(f, [(bounds, t, 0)], tol, [quad.MAX_PANELS], failed)[0]
            out.append((res, failed.get(0), list(calls)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "_gk_eval", counting)
        each = alone(intervals)
        panels = [res[2] for res, _, _ in each]
        rounds = max(len(c) for _, _, c in each)
        calls.clear()
        shared = [(bounds, t, 0) for t, bounds in enumerate(intervals)]
        assert _adaptive(f, shared, tol, [sum(panels)], {}) == [res for res, _, _ in each]
        assert len(calls) == rounds
        # a stopped interval's panels are never evaluated again
        assert sum(calls) == sum(sum(c) for _, _, c in each)
        calls.clear()
        failed = {}
        dropped = [(0.0, 0.0, 0)] * len(intervals)
        assert _adaptive(f, shared, tol, [sum(panels) - 1], failed) == dropped
        assert list(failed) == [0] and isinstance(failed[0], quad.PanelBudgetError)
        assert len(calls) == max(rounds - 1, 0)

        # one owner per interval, with the poisoned and the stuck interval
        # among them: the owner `short` has one panel too few, and the first
        # owner that fails alone or runs short drops every later owner
        for at, extra in sorted([(at, b) for at, b in ((poisoned, _POISONED), (stuck, _STUCK))
                                 if at is not None], key=lambda p: p[0]):
            intervals = intervals[:at] + [extra] + intervals[at:]
        t_poisoned = next((t for t, b in enumerate(intervals) if b is _POISONED), -1.0)
        t_stuck = next((t for t, b in enumerate(intervals) if b is _STUCK), -1.0)
        each = alone(intervals)
        short %= len(intervals)
        fails = [j for j, (_, error, _) in enumerate(each) if error is not None or j == short]
        cut = fails[0]
        budget = [quad.MAX_PANELS if error else res[2] - (j == short)
                  for j, (res, error, _) in enumerate(each)]
        failed = {}
        owned = [(bounds, t, t) for t, bounds in enumerate(intervals)]
        out = _adaptive(f, owned, tol, budget, failed)
        assert out == [res for res, _, _ in each[:cut]] + [(0.0, 0.0, 0)] * (len(intervals) - cut)
        assert min(failed) == cut
        error = each[cut][1] or quad.PanelBudgetError("")
        assert type(failed[cut]) is type(error) and str(error) in str(failed[cut])
        assert budget[:cut] == [0] * cut
    if poisoned is not None:
        assert isinstance(each[t_poisoned][1], quad.NonFiniteIntegrandError)
    if stuck is not None:
        assert "did not reach" in str(each[t_stuck][1])


# Integrands of only correctly rounded operations, refined on [0, 1, 2.5, 4]
# at the largest tolerance before the panel count falls, and the
# (value, err, panels) `_adaptive` gave them when each interval summed its
# panels in position order with `np.add.reduceat` (recorded as float.hex).
# The test sums then decide at the last bit: summing the panels in another
# order, or with another reduction, moves them.
GOLDEN = (
    ("runge", "0x1.5c1b4f940f9a6p-45", "0x1.2d49756780043p-1", "0x1.36cc975678004p-47", 21),
    ("bump", "0x1.945749229d0a2p-39", "0x1.894ab6057cdcdp+6", "0x1.f20d956c0af9cp-37", 27),
    ("kink", "0x1.9122d8c113afap-37", "0x1.f243c888e4740p+2", "0x1.7b194cc4388e5p-36", 34),
    ("kink", "0x1.7a900b8ae9757p-30", "0x1.f243c8867d242p+2", "0x1.a738959ea4887p-28", 21),
)
GOLDEN_INTEGRANDS = {
    "runge": lambda x: 1.0 / (1.0 + 25.0 * (x - 2.0) * (x - 2.0)),
    "bump": lambda x: 1.0 / (1e-3 + (x - 1.7) * (x - 1.7)),
    "kink": lambda x: np.sqrt(np.abs(x - 2.2)) + 1.0,
}


@pytest.mark.parametrize("name,tol,value,err,panels", GOLDEN)
def test_refinement_matches_its_recorded_triples(name, tol, value, err, panels):
    g = GOLDEN_INTEGRANDS[name]
    bounds = np.array([0.0, 1.0, 2.5, 4.0])
    ((v, e, used),) = _adaptive(lambda x, t: g(x), [(bounds, 0.0, 0)], float.fromhex(tol),
                                [quad.MAX_PANELS], {})
    assert (v.hex(), e.hex(), used) == (value, err, panels)


def test_tail_error_covers_slowly_shrinking_remainder():
    # exact pieces of int_2^inf x^{-1.2} dx shrink by 2^{-0.2} ~ 0.87 per
    # doubling, so |last piece| alone misses most of what is left
    def segments(runs):
        return {k: [(5.0 * (a**-0.2 - b**-0.2), 0.0) for a, b in zip(ends, ends[1:])]
                for k, ends in runs.items()}

    assert quad.TAIL_START == 2.0
    ((total, err, converged),) = quad.tail_integral(segments, 1e-3, (0.0,), (-math.inf,))
    assert converged
    remainder = 5.0 * 2.0**-0.2 - total  # the whole integral less the pieces
    assert err >= remainder * (1.0 - 1e-12)
    assert err == pytest.approx(remainder, rel=1e-9)


def test_y_norm_remainder_near_regularity_boundary_is_in_the_value(monkeypatch):
    # s = 1 with tail weight q = m + 1 + beta = 2.2: the pieces shrink by
    # only 0.87 per doubling, and the closed-form remainder (about 4.25
    # beyond 1 + L = 64) is part of the value, not of err_est: 67,241,048.555
    # +- 4.247 became 67,241,052.802 +- 2.5e-4, which a run taking 2^16
    # times further before the closed form confirms
    prof = data_mod.LogTailProfile(1.0, 0.2, 8)
    res = data_mod.y_norm(prof, 1.0)
    assert not res.diverged
    assert res.err_est < 1e-3
    monkeypatch.setattr(quad, "_DOUBLINGS", 25)
    far = data_mod.y_norm(prof, 1.0)
    assert abs(res.value - far.value) <= res.err_est + far.err_est
    assert res.value - 67_241_048.555 == pytest.approx(4.247, abs=0.01)


@pytest.mark.parametrize("family", ["gaussian", "zero_mass"])
@pytest.mark.parametrize("alpha", [1.0, data_mod.ALPHA_MAX])
@pytest.mark.parametrize("n", [1, 2, 8])
@pytest.mark.parametrize("s", [0.0, 2.0])
def test_y_norm_of_a_gaussian_core_holds_nothing_beyond_its_end(monkeypatch, family, alpha, n, s):
    # past 1 + L = 1024 a core's log-flat value reads -inf (expm1 overflows
    # from L ~ 709.78, and e^L/(4 alpha) underflows the data before that):
    # three more doublings add exact zeros, and the result keeps its bits
    prof = data_mod.parse_profile(f"{family}:alpha={alpha!r}", n)
    res = quad.y_norm(prof, s)
    monkeypatch.setattr(quad, "_DOUBLINGS", 12)
    far = quad.y_norm(prof, s)
    assert (far.value.hex(), far.err_est.hex()) == (res.value.hex(), res.err_est.hex())
    assert 0.0 < res.value < math.inf and not res.diverged


def _adaptive_calls(monkeypatch):
    """Record the initial panels of each interval of every `_adaptive` call,
    one list per call, and fail any tail-doubling loop."""
    calls = []
    adaptive = quad._adaptive

    def counted(*args, **kwargs):
        calls.append(args[3])  # the panels of each interval
        return adaptive(*args, **kwargs)

    def no_loop(*args, **kwargs):
        raise AssertionError("a tail-doubling loop ran")

    monkeypatch.setattr(quad, "_adaptive", counted)
    monkeypatch.setattr(quad, "tail_integral", no_loop)
    return calls


def test_y_norm_integrates_in_one_adaptive_call(monkeypatch):
    calls = _adaptive_calls(monkeypatch)
    for sel in ("gaussian:alpha=1", "zero_mass:alpha=1", "log_tail:m=1,beta=0.2"):
        calls.clear()
        quad.y_norm(data_mod.parse_profile(sel, 2), 0.5)
        # the head's ladder on [0, 1] and one panel for each of the 9 pieces
        assert calls == [[17] + [1] * quad._DOUBLINGS], sel


def test_ref_integral_Jp_integrates_in_one_adaptive_call(monkeypatch):
    # every time is one row, the 2^-k ladder on x in [0, 1/2]
    calls = _adaptive_calls(monkeypatch)
    for p, ts in ((1.0, (2.0, 5.0, 10.0, 30.0)), (0.0, (1.5,)), (2.0, (20.0, 60.0))):
        calls.clear()
        quad.ref_integral_Jp(p, ts)
        assert calls == [[17] * len(ts)], (p, ts)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("alpha", [1.0, 1e12, data_mod.ALPHA_MAX])
def test_y_norm_of_a_gaussian_reads_its_closed_form(n, alpha):
    # w_n int (pi/alpha)^n e^{-r^2/(2 alpha)} r^{n-1} dr = pi^{3n/2} 2^{n/2} alpha^{-n/2}
    res = quad.y_norm(data_mod.GaussianProfile(alpha, 1.0, n), 0.0)
    exact = math.pi ** (1.5 * n) * 2.0 ** (n / 2.0) * alpha ** (-n / 2.0)
    assert abs(res.value - exact) <= res.err_est


def test_zone_additivity():
    # the one integral over [0, 1] plus the high zone, and the four zones
    # integrated alone, agree within their combined error estimates
    for d, n, tol in ((GAUSS2, 2, 1e-8), (LOG_TAIL8, 8, 1e-4)):
        spec = quad.QuadSpec(n=n, tol=tol)
        for kind in quad.NORM_KINDS:
            for t in (10.0, 160.0, 2560.0):
                total, err = quad.norm_value(d, kind, n, t, spec)
                parts = [quad.norm_value(d, kind, n, t, spec, zone=z) for z in quad.ZONES]
                gap = abs(total - math.fsum(v for v, _ in parts))
                assert gap <= err + math.fsum(e for _, e in parts), (n, kind, t)


def test_determinism_bit_identical():
    spec = quad.QuadSpec(n=2, tol=1e-6)
    a = quad.norm_value(GAUSS2, "u-phi1", 2, 320.0, spec)
    b = quad.norm_value(GAUSS2, "u-phi1", 2, 320.0, spec)
    assert a == b  # exact float equality, both value and error estimate


def test_tolerance_halving_within_error_estimate():
    # err_est covers the change to a tighter tolerance: half of it for the
    # Gaussian pair, tol/100 for the data of checks 09 (u-phi2) and 10 (u),
    # whose err_est must include the high-zone tail beyond the last piece
    # and, at t = 905, the phase bound of the split tail
    cases = [(GAUSS2, "u", 2, 50.0, 1e-6, 5e-7)] + [
        (LOG_TAIL8, kind, 8, t, 1e-4, 1e-6)
        for kind in ("u-phi2", "u")
        for t in (10.0, 40.0, 160.0)
    ] + [(LOG_TAIL8, "u", 8, 905.0, 1e-4, 1e-6)]
    for d, kind, n, t, tol, ref_tol in cases:
        v, e = quad.norm_value(d, kind, n, t, quad.QuadSpec(n=n, tol=tol))
        ref, _ = quad.norm_value(d, kind, n, t, quad.QuadSpec(n=n, tol=ref_tol))
        assert abs(v - ref) <= max(e, 1e-15 * abs(v)), (kind, t)


def test_zero_data_series_is_zero():
    d = data_mod.RadialSpectrum(
        data_mod.GaussianProfile(1.0, 0.0, 2), data_mod.GaussianProfile(1.0, 0.0, 2)
    )
    series = quad.norm_series(d, "u", 2, (1.0, 10.0, 100.0))
    assert series.values == (0.0, 0.0, 0.0)


def test_heat_profile_norm_matches_laplace_anchor():
    spec = quad.QuadSpec(n=2, tol=1e-6)
    val, _ = quad.norm_value(GAUSS2, "phi1", 2, 1e4, spec)
    anchor = GAUSS2.mass_sum**2 * (math.pi / 2.0) * 1e-4
    assert val == pytest.approx(anchor, rel=0.05)


def test_norm_series_validation():
    with pytest.raises(ValueError):
        quad.norm_value(GAUSS2, "nope", 2, 1.0)
    with pytest.raises(ValueError):
        quad.norm_value(GAUSS2, "u", 2, 1.0, zone="nowhere")
    with pytest.raises(ValueError):
        quad.norm_value(GAUSS2, "u", 3, 1.0)  # dimension mismatch
    with pytest.raises(ValueError):
        quad.QuadSpec(n=2, tol=1e-2)
    with pytest.raises(ValueError):
        quad.QuadSpec(n=0)
    for guard in (math.nan, math.inf):
        with pytest.raises(ValueError):
            quad.QuadSpec(n=2, osc_guard=guard)


def _no_quadrature(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("quadrature ran before the input was rejected")

    monkeypatch.setattr(quad, "_gk_eval", fail)


def test_norm_value_rejects_negative_time(monkeypatch):
    _no_quadrature(monkeypatch)
    for kind in quad.NORM_KINDS:
        for t in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                quad.norm_value(GAUSS2, kind, 2, t)


def test_reference_integrals_reject_non_finite_input_before_integrating(monkeypatch):
    _no_quadrature(monkeypatch)
    calls = (quad.ref_integral_Ip, quad.ref_integral_Jp,
             lambda p, ts: quad.middle_zone_integral(p, ts, 0.5))
    for ref in calls:
        for p, ts in ((math.nan, (5.0,)), (math.inf, (5.0,)), (1.0, (5.0, math.nan)),
                      (1.0, (math.inf,)), (1.0, (5.0, -math.inf))):
            with pytest.raises(ValueError, match="finite"):
                ref(p, ts)
    for lo in (-0.5, 1.0, 2.0, math.nan, math.inf):
        with pytest.raises(ValueError, match=r"lo in \[0, 1\)"):
            quad.middle_zone_integral(1.0, (5.0,), lo)
    with pytest.raises(ValueError, match="convergent tail"):
        quad.ref_integral_Jp(1.0, (2.0, 1.0))


def test_reference_integrals_over_times_are_each_time_alone():
    # every time is an interval (and, in the tail, every piece an owner) of
    # its own: check 05's times of one (function, p, lo) and t = 50, taken in
    # one call, give the one-time calls' values to the bit, in any order
    merged = {}
    for name, p, ts, *lo in (rec for recs in verify.REF_CALLS.values() for rec in recs):
        key = (name, p, *lo)
        merged[key] = merged.get(key, (50.0,)) + ts
    for (name, p, *lo), ts in merged.items():
        ref = getattr(quad, name)
        alone = [v for t in ts for v in ref(p, (t,), *lo)]
        assert ref(p, ts, *lo) == alone
        assert ref(p, ts[::-1], *lo) == alone[::-1]


def _j1(t):
    return 2.0 ** (1.0 - t) / (2.0 * (t - 1.0))


def _j3(t):
    return 0.5 * (2.0 ** (2.0 - t) / (t - 2.0) - 2.0 ** (1.0 - t) / (t - 1.0))


# (p, t, J_p(t), relative tolerance): the closed forms at p = 1 and 3 and
# 30-digit values of (1/2) B_{1/2}(t - (p+1)/2, (p+1)/2) (mpmath), to 1e-14;
# at (0, 1.01) and (3, 2.5) the integrand x^{t-(p+3)/2} is singular at x = 0,
# and they are held to REF_TOL
J_REFERENCE = (
    *((1.0, t, _j1(t), 1e-14) for t in (2.0, 5.0, 10.0, 30.0)),
    *((3.0, t, _j3(t), 1e-14) for t in (5.0, 30.0)),
    (0.0, 1.5, 0.292893218813452475599155637895, 1e-14),
    (2.0, 20.0, 5.28415489810855280492684281742e-8, 1e-14),
    (0.0, 60.0, 1.44598598726042534303600030327e-20, 1e-14),
    (0.0, 1.01, 0.765748490928777056506139669029, quad.REF_TOL),
    (3.0, 2.5, _j3(2.5), quad.REF_TOL),
)


@pytest.mark.parametrize("p,t,exact,rel", J_REFERENCE)
def test_ref_integral_Jp_reads_its_references(p, t, exact, rel):
    (value,) = quad.ref_integral_Jp(p, (t,))
    assert abs(value - exact) <= rel * exact


def test_norm_value_rejects_phi1_at_time_zero(monkeypatch):
    # phi1 at t = 0 is the mass at every frequency: its norm is infinite
    zero = data_mod.parse_pair("zero_mass:alpha=1", "zero_mass:alpha=1", 2)
    spec = quad.QuadSpec(n=2, tol=1e-6)
    without_mass = quad.norm_value(zero, "u", 2, 0.0, spec)
    assert quad.norm_value(zero, "u-phi1", 2, 0.0, spec) == without_mass
    _no_quadrature(monkeypatch)
    for kind in ("phi1", "u-phi1", "u-phi"):
        with pytest.raises(ValueError, match="t=0"):
            quad.norm_value(GAUSS2, kind, 2, 0.0)


def test_guarded_series_bit_identical_across_runs_and_batch_sizes(monkeypatch):
    # check-10 data on a short grid: the high-zone segments span several
    # CHUNK-sized batches, and no byte may depend on where a batch ends
    spec = quad.QuadSpec(n=8, tol=1e-4)
    grid = (20.0, 160.0, 1280.0)
    first = repr(quad.norm_series(LOG_TAIL8, "u", 8, grid, spec))
    assert repr(quad.norm_series(LOG_TAIL8, "u", 8, grid, spec)) == first
    monkeypatch.setattr(quad, "CHUNK", 1 << 21)
    assert repr(quad.norm_series(LOG_TAIL8, "u", 8, grid, spec)) == first


def test_panel_budget_guard(monkeypatch):
    # check 10's data at t = 160: its tail ends with 13 GK15 and 13 Levin
    # panels, each Levin panel one panel of the time's budget, so a budget
    # of 25 panels, enough for the GK15 panels alone, raises
    spec = quad.QuadSpec(n=8, tol=1e-4)
    assert _tail_panels(monkeypatch, LOG_TAIL8, "u", 160.0, spec) == (13, 13)
    monkeypatch.setattr(quad, "MAX_PANELS", 26)
    quad.norm_value(LOG_TAIL8, "u", 8, 160.0, spec)
    monkeypatch.setattr(quad, "MAX_PANELS", 25)
    with pytest.raises(quad.PanelBudgetError):
        quad.norm_value(LOG_TAIL8, "u", 8, 160.0, spec)


def _tail_panels(monkeypatch, d, kind, t, spec):
    """(GK15, Levin) panels that the high-zone intervals of one time end with."""
    adaptive = quad._adaptive
    panels = [0, 0]

    def counting(f, lo, hi, *args, **kwargs):
        out = adaptive(f, lo, hi, *args, **kwargs)
        if lo.size and (lo[0] >= 1.0 or "rule" in kwargs):  # Levin's ends are in theta = b(y)
            panels["rule" in kwargs] += sum(used for _, _, used in out)
        return out

    with monkeypatch.context() as mp:
        mp.setattr(quad, "_adaptive", counting)
        quad.norm_value(d, kind, spec.n, t, spec)
    return tuple(panels)


@pytest.mark.parametrize("t", (6.4e5, 1e4 * 2.0**6.5))
def test_check07_low_zone_integrates_at_late_times(t):
    # check 07's data: unless the slow root is formed without cancellation at
    # small L, this zone runs out of panels.  t^3 ||u - phi1||^2 tends to
    # check 07's closed-form constant K = 25.19259, with a gap of about 7/t.
    spec = quad.QuadSpec(n=2, tol=1e-6)
    value, _ = quad.norm_value(GAUSS2, "u-phi1", 2, t, spec, zone="low")
    assert abs(t**3 * value / 25.19259 - 1.0) <= 1e-4


def test_non_finite_integrand_detected():
    def f(r, t):
        with np.errstate(divide="ignore"):
            return 1.0 / (r - 0.5)

    rows = [np.array([1.0, 2.0]), np.array([0.0, 1.0]), np.array([2.0, 3.0])]
    with pytest.raises(quad.NonFiniteIntegrandError):
        quad._rows(f, rows, [0.0] * 3, quad.REF_TOL)
    # handed a dict, _rows records the failure instead: the row before the
    # failed one keeps its value, and every row from it on is dropped
    failed = {}
    found = quad._rows(f, rows, [0.0] * 3, quad.REF_TOL, failed)
    assert list(failed) == [1] and isinstance(failed[1], quad.NonFiniteIntegrandError)
    assert found[0][0] == pytest.approx(math.log(3.0), rel=1e-12)
    assert found[1:] == [(0.0, 0.0, 0)] * 2


def test_time_grid_shape():
    grid = quad.default_time_grid()
    assert grid[0] == 10.0
    assert len(grid) == 21
    assert grid[-1] == pytest.approx(10.0 * 2.0**10)
    ratios = np.diff(np.log(np.array(grid)))
    assert np.allclose(ratios, 0.5 * math.log(2.0))


def test_solution_norm_below_integrated_pointwise_bound():
    # Integrating the factor-6 pointwise decay bound over all frequencies
    # dominates ||u||^2; near r = 0 the 1/L weight is removed analytically
    # via r^2/L -> 1 (integrable for n >= 3).
    n = 3
    d = data_mod.parse_pair("gaussian:alpha=1", "gaussian:alpha=1", n)
    th = quad.THRESHOLDS
    area = quad.surface_area(n)

    def rhs_integrand(t):
        def f(r):
            lam = np.log1p(r * r)
            w = np.where(
                r <= th.delta0,
                0.5 * lam * (1.0 + lam),
                0.5 / (1.0 + lam),
            )
            decay = np.exp(-0.5 * w * t)
            u0v = d.u0.value(r)
            u1v = d.u1.value(r)
            # |u1|^2 / L * r^{n-1} = (r^2/L) |u1|^2 r^{n-3}
            r2_over_lam = np.where(r < 1e-6, 1.0 + 0.5 * r * r, r * r / np.where(lam > 0, lam, 1.0))
            inv_weight = r2_over_lam * u1v * u1v * r ** (n - 3)
            return 6.0 * decay * (inv_weight + u0v * u0v * r ** (n - 1)) * area

        return f

    for t in (1.0, 10.0, 50.0):
        lhs, _ = quad.norm_value(d, "u", n, t, quad.QuadSpec(n=n, tol=1e-8))
        rhs, _ = _integral(rhs_integrand(t), 0.0, 40.0, 1e-9, ladder=16)
        assert lhs <= rhs


def test_series_csv_convention_fields():
    series = quad.norm_series(GAUSS2, "u", 2, (10.0, 20.0), quad.QuadSpec(n=2, tol=1e-6))
    assert series.kind == "u" and series.zone == "all" and series.n == 2
    assert series.ts == (10.0, 20.0)
    assert all(v > 0.0 for v in series.values)
    assert all(e >= 0.0 for e in series.errs)


@pytest.mark.parametrize("kind", ["u", "u-phi1", "phi2", "u-phi2", "u-phi"])
def test_phase_form_reassembles_the_high_zone_value(kind):
    # m + P cos(bt) + Q sin(bt) is v up to its sign, also near y = 1 where
    # the folded slow phase (y - b)t of the oscillatory profile is large;
    # the returned rate is db/dy
    y = np.linspace(1.0, 4.0, 61)
    for t in (2.0, 30.0):
        scaled = quad._scaled_data_y(LOG_TAIL8, kind, t, 8, y)
        v = quad.node_values(kind, y * y, t, *scaled)
        m, p, q, db = quad._phase_terms(kind, y, t, *scaled)
        _, b = modes.oscillating_coeffs(*symbols.collision_gap(y * y), t)
        m = 0.0 if m is None else m
        form = m + p * np.cos(b * t) + q * np.sin(b * t)
        scale = np.abs(m) + np.abs(p) + np.abs(q)
        assert np.all(np.abs(np.abs(form) - np.abs(v)) <= 1e-12 * scale), t
        h = 1e-6
        _, b_hi = modes.oscillating_coeffs(*symbols.collision_gap((y + h) ** 2), t)
        _, b_lo = modes.oscillating_coeffs(*symbols.collision_gap((y - h) ** 2), t)
        assert np.allclose(db, (b_hi - b_lo) / (2.0 * h), rtol=1e-8)
        assert np.all(db >= 1.0)


def _mode_phase(y, t):
    """The mode's phase bt, the fastest phase of every oscillating kind in
    the high zone (the oscillatory profile's yt turns no faster)."""
    return t * np.sqrt(-symbols.collision_gap(y * y)[1])


def _stepped_piece(f, lo, hi, t, tol, phased=True):
    """(value, err) of v^2 on [lo, hi] from equal panels that span at most
    2 pi of the fastest phase each, with no phase form and no Levin
    rule: a reference independent of the tail's fast-term path."""
    y = np.linspace(lo, hi, 4097)
    if not f(y, t).any():  # underflowed data
        return 0.0, 0.0
    count = 1
    if phased:
        rate = (np.diff(_mode_phase(y, t)) / np.diff(y)).max()
        count = math.ceil(rate * (hi - lo) / (2.0 * math.pi))
    ((value, err, _),) = _adaptive(f, [(np.linspace(lo, hi, count + 1), t, 0)], tol,
                                   [quad.MAX_PANELS], {})
    return value, err


def _stepped_reference(d, kind, n, t, tol, zone="all"):
    """The norm at t (zone "all" or "high") with [0, 1] refined from its
    ends and ladder and every high-zone piece stepped, all at tol, the tail
    doubling as `tail_integral` doubles it -> (value, err)."""
    f = quad._squared_value(d, kind, n)
    head = (0.0, 0.0)
    if zone == "all":
        bounds = quad._build_bounds(0.0, 1.0, ladder=16)
        head = _adaptive(f, [(bounds, t, 0)], tol, [quad.MAX_PANELS], {})[0][:2]

    def segments(runs):
        ends = np.sqrt(np.array(runs[0]) - 1.0).tolist()
        return {0: [_stepped_piece(f, a, b, t, tol, kind != "phi1") for a, b in zip(ends, ends[1:])]}

    ((tail, err, converged),) = quad.tail_integral(segments, tol, (head[0],),
                                                   (max(t, 2.0 * quad.TAIL_START),))
    assert converged
    return head[0] + tail, head[1] + err


@pytest.mark.parametrize(
    "sel0,sel1,n,kind,tol",
    dict.fromkeys(r[:5] for cid in verify.CHECK_IDS for r in verify.requests(cid)),
)
def test_error_estimate_bounds_a_stepped_reference(sel0, sel1, n, kind, tol):
    # the data and kinds of the series checks: err_est covers the distance
    # to the value with every tail piece stepped, at tol / 100
    d = data_mod.parse_pair(sel0, sel1, n)
    for t in (10.0, 40.0, 160.0, 640.0, 2560.0):
        v, e = quad.norm_value(d, kind, n, t, quad.QuadSpec(n=n, tol=tol))
        ref, _ = _stepped_reference(d, kind, n, t, tol / 100.0)
        assert abs(v - ref) <= e, (kind, n, t)


@pytest.mark.parametrize(
    "sel0,sel1,n,kind,tol,times,zone",
    [(*r[:6], *(r[6:] or ["all"])) for cid in verify.CHECK_IDS for r in verify.requests(cid)],
)
def test_error_estimate_stays_within_tol_of_the_value(sel0, sel1, n, kind, tol, times, zone):
    # the measured contract of tol on every series a check reads: err_est is
    # at most tol * value at every time (the worst reads 0.987 of it, check
    # 07, and 0.804, check 06's phi2), though by construction the tail's
    # shares could let it reach a few times that
    d, ts = data_mod.parse_pair(sel0, sel1, n), (times,) if isinstance(times, float) else times
    s = quad.norm_series(d, kind, n, ts, quad.QuadSpec(n=n, tol=tol), zone)
    assert all(e <= tol * v for v, e in zip(s.values, s.errs)), (kind, n, zone)


def _gaussian_high_zone_misses():
    """Times of the default grid where the explicit high zone of Gaussian
    n = 2 data, `u` at tol 1e-6, lies farther than its err_est from the
    stepped reference at tol 1e-9 (log-tail data would run the references
    out of panels past t = 2,560; Gaussian data underflow before that)."""
    series = quad.norm_series(GAUSS2, "u", 2, quad.default_time_grid(), quad.QuadSpec(n=2),
                              zone="high")
    misses = []
    for t, v, e in zip(series.ts, series.values, series.errs):
        ref, _ = _stepped_reference(GAUSS2, "u", 2, t, 1e-9, zone="high")
        if abs(v - ref) > e:
            misses.append(t)
    return misses


def test_gaussian_high_zone_error_estimate_bounds_a_tighter_reference():
    assert _gaussian_high_zone_misses() == []


def test_error_estimate_needs_the_coefficient_tail(monkeypatch):
    # the nested 9-point rule alone agrees with the 17-point one on
    # pieces where neither resolves F (Gaussian data fall off
    # super-exponentially): without the Chebyshev tail of F the estimate
    # under-reads, by 10.5 times at t = 1,810
    monkeypatch.setattr(quad, "_CHEB_TAIL", np.zeros_like(quad._CHEB_TAIL))
    assert _gaussian_high_zone_misses()


def test_filon_rules_are_exact_on_polynomials():
    # the weights of the 17 and the nested 9 points integrate every
    # polynomial they interpolate times e^{iwx}, below and above the cut
    # between the Gauss-Legendre product and the endpoint series, and the
    # fixed transform reads the last two Chebyshev coefficients of a series
    x = quad._CHEB_X
    nodes, weights = np.polynomial.legendre.leggauss(400)  # exact for these w to rounding
    w = np.array([1e-3, 0.5, 3.0, 15.0, 16.0, 40.0, 100.0])
    for points, cols in ((x, slice(17)), (x[::2], slice(17, None))):
        p = np.polynomial.Chebyshev(np.linspace(1.0, -1.0, points.size))
        exact = (weights * p(nodes) * np.exp(1j * w[:, None] * nodes)).sum(axis=1)
        got = (quad._weights(w)[:, cols] * p(points)).sum(axis=1)
        assert np.all(np.abs(got - exact) <= 1e-14 * np.abs(p(points)).sum()), np.abs(got - exact)
    for coef in ([0.0] * 15 + [1.0, 2.0], [3.0, -1.0, 0.5] + [0.0] * 14, np.arange(17.0)):
        values = np.polynomial.chebyshev.chebval(x, coef)
        assert np.allclose(quad._CHEB_TAIL @ values, coef[15:], rtol=0.0, atol=1e-12)


def test_filon_weight_branches_agree_at_the_cut(monkeypatch):
    # just below the cut the weights are the Gauss-Legendre product, from
    # it on the endpoint series: on either side, and with either branch at
    # the cut itself, sum_j mu_j F_j agrees within 1e-14 sum |F_j|
    rng = np.random.default_rng(7)
    cut = quad._OMEGA
    below, above = quad._weights(np.array([np.nextafter(cut, 0.0), cut]))
    monkeypatch.setattr(quad, "_OMEGA", math.inf)
    (product,) = quad._weights(np.array([cut]))
    for cols in (slice(17), slice(17, None)):
        amp = rng.standard_normal((50, above[cols].size, 2)) @ np.array([1.0, 1j])
        bound = 1e-14 * np.abs(amp).sum(axis=1)
        for mu in (below, product):
            assert np.all(np.abs(((mu[cols] - above[cols]) * amp).sum(axis=1)) <= bound)


def test_phase_variable_round_trips():
    # theta = b(y) -> y -> b(y) within 2 ulps of theta for y in [1, 1e3],
    # the high-zone tail pieces of every time up to 1e6
    lo, hi = (float(np.sqrt(-symbols.collision_gap(y * y)[1])) for y in (1.0, 1e3))
    theta = np.linspace(lo, hi, 200_001)
    y = quad._y_at(theta)
    back = np.sqrt(-symbols.collision_gap(y * y)[1])
    assert np.all(np.abs(back - theta) <= 2.0 * np.spacing(theta))
    assert np.all(y >= 1.0 - 1e-15)


def test_levin_integrates_a_closed_form_at_any_frequency():
    # Re int_1^2 c e^{(1 + iw) y} dy on one panel each, w from 1e-2 to 1e5,
    # on both sides of the cut between the weights' two branches: the cost
    # and the accuracy do not depend on how far the phase turns
    w = np.geomspace(1e-2, 1e5, 22)
    c = 0.7 - 0.4j

    def rows(y, t):
        return c * np.exp(y), np.repeat(w, quad._LEVIN)

    value, err = quad._levin(rows, np.ones(w.size), np.full(w.size, 2.0), 0.0)
    exact = (c * (np.exp((1 + 1j * w) * 2.0) - np.exp(1 + 1j * w)) / (1 + 1j * w)).real
    assert np.all(np.abs(value - exact) <= err)
    assert np.all(err <= 1e-10 * np.abs(c) * math.e ** 2)


def _one_piece(monkeypatch, s_lo):
    """Make the tail the one piece [s_lo, 2 s_lo] in s."""

    def one_piece(segments, *args, **kwargs):
        ((value, err),) = segments({0: [s_lo, 2.0 * s_lo]})[0]
        return [(value, err, True)]

    monkeypatch.setattr(quad, "tail_integral", one_piece)


@pytest.mark.parametrize("kind,n", [("u-phi", 4), ("u-phi2", 8), ("u", 8)])
def test_levin_piece_agrees_with_the_stepped_piece(monkeypatch, kind, n):
    # piece by piece, the smooth part plus the Levin fast terms lies within
    # err_est and the reference's error of the piece stepped at tol / 100,
    # on the data of checks 08, 09 and 10 (u-phi has the mass rows F1)
    d = data_mod.parse_pair("gaussian:alpha=1", "log_tail:m=1,beta=0.2", n)
    spec = quad.QuadSpec(n=n, tol=1e-4)
    f = quad._squared_value(d, kind, n)
    for t in (10.0, 160.0, 2560.0):
        for s_lo in (2.0, 16.0, 256.0, 4096.0):
            _one_piece(monkeypatch, s_lo)
            v, e = _tail(d, kind, t, spec, 0.0)
            monkeypatch.undo()
            ref, ref_err = _stepped_piece(f, math.sqrt(s_lo - 1.0), math.sqrt(2.0 * s_lo - 1.0), t,
                                          spec.tol / 100.0)
            assert abs(v - ref) <= e + ref_err, (kind, t, s_lo)


def _tail(d, kind, t, spec, baseline):
    """The high-zone (value, err) of one time, tail_integral's baseline
    standing for the rest of the norm."""
    return quad._tail_values(d, kind, (t,), spec, (baseline,), {})[0]


def _tail_calls(monkeypatch):
    """Record (integrand, bounds, (value, err, panels)) of every high-zone
    interval `_adaptive` integrates; the tail's integrands are named "f"
    (v^2 itself), "smooth" and "fast" (its Levin rows)."""
    adaptive = quad._adaptive
    calls = []

    def spy(f, lo, hi, sizes, *args, **kwargs):
        out = adaptive(f, lo, hi, sizes, *args, **kwargs)
        for b, res in zip(_boundaries(lo, hi, sizes), out):
            if f.__name__ == "fast":  # its ends are in theta = b(y): map them to the piece's
                b = [piece for name, piece, _ in calls if name == "smooth"
                     and _mode_phase(np.array(piece), 1.0).tolist() == [b[0], b[-1]]][0]
            if b[0] >= 1.0:
                calls.append((f.__name__, (b[0], b[-1]), res))
        return out

    monkeypatch.setattr(quad, "_adaptive", spy)
    return calls


@pytest.mark.parametrize("kind", ["u-phi1", "phi2"])
def test_piece_with_less_than_pi_of_phase_takes_the_plain_path(monkeypatch, kind):
    # a piece over which bt turns by less than pi is integrated once, as
    # v^2; every other piece once for its smooth part, and once by the
    # Levin rule if that part is nonzero.  At t = 1 every piece is plain,
    # at t = 4 the first turns by 3.0 and at t = 5 by 3.8 radians, and at
    # t = 40 the far pieces of the Gaussian data have underflowed
    spec = quad.QuadSpec(n=2, tol=1e-6)
    paths = set()
    for t in (1.0, 4.0, 5.0, 40.0):
        calls = _tail_calls(monkeypatch)
        quad.norm_value(GAUSS2, kind, 2, t, spec)
        monkeypatch.undo()
        pieces = {ends for _, ends, _ in calls}
        assert pieces, t
        for lo, hi in pieces:
            mine = {name: res[0] for name, ends, res in calls if ends == (lo, hi)}
            turn = float(np.diff(_mode_phase(np.array([lo, hi]), t))[0])
            if turn < math.pi:
                assert list(mine) == ["f"], (t, lo)
            else:
                assert list(mine) == (["smooth", "fast"] if mine["smooth"] else ["smooth"]), (t, lo)
            paths.add(tuple(mine))
    assert paths == {("f",), ("smooth",), ("smooth", "fast")}


@pytest.mark.parametrize("d,kind,n,times,empties", [
    (GAUSS2, "u", 2, (10.0, 160.0), True),
    (data_mod.parse_pair("gaussian:alpha=1", "log_tail:m=1,beta=0.2", 4), "u-phi", 4,
     (10.0, 2560.0), False),
    (LOG_TAIL8, "u", 8, (160.0, 5120.0), True),
])
def test_every_tail_piece_is_integrated_once_by_gk15(monkeypatch, d, kind, n, times, empties):
    # the doubling pieces s in [2^k, 2^{k+1}] from s = 2 to where the loop
    # stops, at or past max(t, 4), are integrated by GK15, each once; an
    # empty piece settles in one panel with value and error 0, and a piece
    # whose smooth part is 0 takes no Levin interval.  The far pieces of the
    # Gaussian data underflow; check 10's data do not vanish on its first
    # pieces at t = 5120, but e^{-at} and e^{-t/(2L)} do
    spec = quad.QuadSpec(n=n, tol=1e-4)
    calls = _tail_calls(monkeypatch)
    empty = zero_smooth = 0
    for t in times:
        calls.clear()
        quad.norm_value(d, kind, n, t, spec)
        gk15 = [(ends, res) for name, ends, res in calls if name != "fast"]
        ends = [e for e, _ in gk15]
        assert sorted(ends) == ends and len(set(ends)) == len(ends), t
        s = [2.0 ** k for k in range(1, len(ends) + 2)]
        assert ends == [(math.sqrt(a - 1.0), math.sqrt(b - 1.0)) for a, b in zip(s, s[1:])], t
        assert s[-2] >= max(t, 4.0), t
        for e, (value, err, panels) in gk15:
            if value == 0.0:
                assert (err, panels) == (0.0, 1), (t, e)
                empty += 1
        levin = {e for name, e, _ in calls if name == "fast"}
        smooth = {e: res[0] for name, e, res in calls if name == "smooth"}
        assert levin == {e for e, value in smooth.items() if value != 0.0}, t
        zero_smooth += sum(value == 0.0 for value in smooth.values())
    assert (empty > 0, zero_smooth > 0) == (empties, empties)


def _levin_rows(theta, t):
    """Rows F and kappa of a test integrand in theta = y^2: a peak of width
    1/t at y = 1.5 that needs halvings, under the phase t theta, with
    dy = dtheta / (2y)."""
    y = np.sqrt(theta)
    amp = (1.0 + 0.5j) * np.exp(-(t * (y - 1.5)) ** 2) + np.exp(-y)
    return amp / (2.0 * y), t + 0.0 * theta


def test_levin_values_do_not_depend_on_their_batch():
    # pieces at several times, some halved, refined in one `_adaptive` call
    # give each piece's result alone, bit for bit
    lo = np.array([1.0, 1.0, 2.0, 1.2, 1.0, 3.0]) ** 2
    hi = np.array([2.0, 2.0, 3.0, 1.9, 4.0, 3.5]) ** 2
    ts = [20.0, 200.0, 20.0, 5.0, 50.0, 2.0]
    goal = np.array([1e-6, 1e-9, 1e-12, 1e-8, 1e-10, 1e-12])

    def levin(sl):
        count, failed = lo[sl].size, {}
        out = quad._adaptive(_levin_rows, lo[sl], hi[sl], [1] * count, ts[sl], range(count), 0.0,
                             [quad.MAX_PANELS] * count, failed, rule=quad._levin, goal=goal[sl],
                             rounds=quad._HALVINGS)
        assert not failed
        return out

    batched = levin(slice(None))
    assert batched == [levin(slice(i, i + 1))[0] for i in range(lo.size)]
    assert max(used for _, _, used in batched) > 1


def test_levin_halving_cap_raises_a_typed_error(monkeypatch):
    # check 10's data at t = 10 needs halvings; without any the time fails
    # with a QuadratureError naming t and tol, as the CLI reports it
    monkeypatch.setattr(quad, "_HALVINGS", 0)
    with pytest.raises(quad.QuadratureError, match=r"did not reach .*\(t=10, tol=0.0001\)"):
        quad.norm_value(LOG_TAIL8, "u", 8, 10.0, quad.QuadSpec(n=8, tol=1e-4))


def test_tail_cost_does_not_grow_with_t(monkeypatch):
    # check 10's data at tol 1e-6 on the 21-time default grid: 784 GK15
    # panels, far below the 100,000 that phase steps, whose count grows like
    # t, could not reach; the Levin panels per Levin piece do not grow from
    # t = 160 to 2,560
    rows = _gk15_rows(monkeypatch)
    spec = quad.QuadSpec(n=8, tol=1e-6)
    quad.norm_series(LOG_TAIL8, "u", 8, quad.default_time_grid(), spec)
    assert sum(rows) == 784 < 100_000
    calls = _tail_calls(monkeypatch)
    levin = quad._levin
    solved = []

    def counting(f, lo, hi, t):
        solved.append(lo.size)
        return levin(f, lo, hi, t)

    monkeypatch.setattr(quad, "_levin", counting)
    per_piece = []
    for t in (160.0, 2560.0):
        calls.clear()
        solved.clear()
        quad.norm_value(LOG_TAIL8, "u", 8, t, spec)
        pieces = sum(name == "fast" for name, _, _ in calls)
        per_piece.append(sum(solved) / pieces)
    assert per_piece[1] <= per_piece[0]


def test_initial_panels_are_the_ends_the_ladder_and_whole_pieces(monkeypatch):
    # the only bounded integral of a whole-space value is [0, 1], started
    # from its ends and the 2^-k ladder alone; every high-zone piece starts
    # as one panel, its own ends, for each of its integrals
    bounds = []

    def record(f, lo, hi, sizes, *args, **kwargs):
        bounds.extend(_boundaries(lo, hi, sizes))
        return [(0.0, 0.0, 0)] * len(sizes)

    monkeypatch.setattr(quad, "_adaptive", record)
    head = np.sort(np.concatenate(([0.0, 1.0], 2.0 ** -np.arange(1, 17))))
    spec = quad.QuadSpec(n=8, tol=1e-4)
    for kind in quad.NORM_KINDS:
        for t in (10.0, 160.0, 7240.8):
            bounds.clear()
            quad.norm_value(LOG_TAIL8, kind, 8, t, spec)
            bounded = [b for b in bounds if b[0] < 1.0]
            assert len(bounded) == 1 and np.array_equal(bounded[0], head), (kind, t)
            assert len(bounds) > 1 and all(b.size == 2 for b in bounds if b[0] >= 1.0), (kind, t)


def test_error_estimate_has_a_rounding_floor():
    # check 12's lowmid zone at t = 10: K15 and G7 agree to about the last
    # bit, so |K15 - G7| alone reads 3.4e-16 of the value, and a change of
    # the integrand at the rounding level would leave the reported error
    spec = quad.QuadSpec(n=2, tol=1e-8)
    value, err = quad.norm_value(GAUSS2, "u", 2, 10.0, spec, zone="lowmid")
    assert err >= 4.0 * np.finfo(float).eps * value > 0.0


def _series_panels(monkeypatch, run, *args):
    """(GK15, Levin) panels that the intervals integrated by `run(*args)` end
    with."""
    adaptive = quad._adaptive
    panels = [0, 0]

    def counting(*args, **kwargs):
        out = adaptive(*args, **kwargs)
        panels["rule" in kwargs] += sum(used for _, _, used in out)
        return out

    monkeypatch.setattr(quad, "_adaptive", counting)
    run(*args)
    return tuple(panels)


def test_check10_series_panel_count(monkeypatch):
    # the tail integrates each piece's smooth part by GK15 and, where that
    # part is nonzero, its fast terms by the Levin rule: check 10's series
    # ends with 426 GK15 and 201 Levin panels
    assert _series_panels(monkeypatch, verify.run_check, "10-solution-norm-sharpness") == (426, 201)


def test_high_zone_series_panel_count(monkeypatch):
    # an explicit high zone has no baseline, so the pieces of each time's
    # first run stop at tol of their own value: check 07's series, zone high,
    # takes 10 GK15 calls of 417 panels and ends with 275 GK15 and 85 Levin
    # panels
    ((sel0, sel1, n, kind, tol, times),) = verify.requests("07-diffusion-profile-rate")
    d, spec = data_mod.parse_pair(sel0, sel1, n), quad.QuadSpec(n=n, tol=tol)
    rows = _gk15_rows(monkeypatch)
    panels = _series_panels(monkeypatch, quad.norm_series, d, kind, n, times, spec, "high")
    assert (len(rows), sum(rows), *panels) == (10, 417, 275, 85)


def _gk15_rows(monkeypatch):
    """Record the panels of every `_gk_eval` call, one entry per call."""
    gk_eval = quad._gk_eval
    rows = []

    def counting(f, lo, hi, t):
        rows.append(lo.size)
        return gk_eval(f, lo, hi, t)

    monkeypatch.setattr(quad, "_gk_eval", counting)
    return rows


def _gk15_per_norm(monkeypatch, check_id):
    """(GK15 calls, panels) of each norm the check integrates, in order."""
    rows = _gk15_rows(monkeypatch)
    counts = []
    for name in ("norm_value", "norm_series"):

        def counted(*args, run=getattr(quad, name)):
            start = len(rows)
            out = run(*args)
            counts.append((len(rows) - start, sum(rows[start:])))
            return out

        monkeypatch.setattr(quad, name, counted)
    verify.run_check(check_id)
    return counts


def test_check10_series_gk15_calls(monkeypatch):
    # each round of refinement evaluates the open panels of all pieces of
    # every time's run in one call: check 10's window series takes 8 calls
    # (143 when its times were integrated one after another), and its 426
    # GK15 panels show that no piece is integrated beyond the one that stops
    # the tail
    assert _gk15_per_norm(monkeypatch, "10-solution-norm-sharpness") == [(8, 426)]


def test_check07_series_gk15_panel_count(monkeypatch):
    # every GK15 panel of check 07's window series, counted where panels are
    # evaluated: [0, 1] is one integral refined to tol of its own value, and
    # each empty tail piece takes one panel
    ((_, panels),) = _gk15_per_norm(monkeypatch, "07-diffusion-profile-rate")
    assert panels == 396


def test_check11_series_gk15_calls(monkeypatch):
    # check 11's three window series (Gaussian n = 2 and 3, zero-mass n = 2):
    # the tail carries no mass next to [0, 1], so each piece stops at its
    # share of the norm in the round that first evaluates it
    assert _gk15_per_norm(monkeypatch, "11-optimal-two-sided") == [(2, 354), (2, 354), (2, 354)]


def test_check06_phi2_series_gk15_calls(monkeypatch):
    # the tail integrates only smooth parts and plain pieces by GK15: 18
    # calls and 628 panels
    assert _gk15_per_norm(monkeypatch, "06-profile-norm-anchors")[-1] == (18, 628)


def test_check09_late_series_panel_count(monkeypatch):
    # check 09's kind on 14 times from 1e4 to 9.05e5: the low zone adapts to
    # a wave profile damped by e^{-t/(2L)} instead of stepping through its
    # phase sqrt(L) t, and the series ends with 483 GK15 panels, and 168
    # Levin panels of the tail's fast terms
    grid, spec = quad.default_time_grid(13, 1e4), quad.QuadSpec(n=8, tol=1e-4)
    gk15, levin = _series_panels(monkeypatch, quad.norm_series, LOG_TAIL8, "u-phi2", 8, grid, spec)
    assert (gk15, levin) == (483, 168) and gk15 < 1_000


_PAIRS = {
    "gaussian": ("gaussian:alpha=1", "gaussian:alpha=1"),
    "zero_mass": ("zero_mass:alpha=1", "zero_mass:alpha=1"),
    "log_tail": ("gaussian:alpha=1", "log_tail:m=1,beta=0.2"),
}


@settings(max_examples=40, deadline=None)
@given(
    pair=st.sampled_from(sorted(_PAIRS)),
    kind=st.sampled_from(quad.NORM_KINDS),
    zone=st.sampled_from(("all",) + quad.ZONES),
    n=st.sampled_from([2, 4, 8]),
    tol=st.sampled_from([1e-4, 1e-6]),
    grid=st.lists(st.sampled_from(quad.default_time_grid()), min_size=1, max_size=5, unique=True),
    from_zero=st.booleans(),
)
@example("gaussian", "u-phi1", "all", 2, 1e-4, [10.0, 40.0, 160.0, 640.0], False)
@example("log_tail", "u-phi", "all", 8, 1e-4, [10.0, 40.0, 160.0, 640.0], False)
@example("log_tail", "u", "all", 8, 1e-4, [20.0, 160.0, 1280.0, 10240.0], True)
def test_series_is_each_time_alone(pair, kind, zone, n, tol, grid, from_zero):
    # a series integrates all its times in shared rounds; each time refines
    # on its own panels with its own budgets, so the series is its times
    # integrated one at a time, bit for bit in values and errs.  A grid may
    # start at t = 0 where the kind's norm is finite there.  Log-tail data at
    # tol 1e-6 keep to t <= 640: later times take about a second each.
    d = data_mod.parse_pair(*_PAIRS[pair], n)
    ts = sorted(t for t in grid if tol > 1e-6 or pair != "log_tail" or t <= 640.0) or [10.0]
    if from_zero and (kind not in ("phi1", "u-phi1", "u-phi") or d.mass_sum == 0.0):
        ts = [0.0] + ts
    spec = quad.QuadSpec(n=n, tol=tol)
    series = quad.norm_series(d, kind, n, ts, spec, zone)
    alone = [quad.norm_value(d, kind, n, t, spec, zone) for t in ts]
    assert list(zip(series.values, series.errs)) == alone


def _poison(monkeypatch, bad_t):
    """The mode kernel returns NaN at every node of time bad_t."""
    kernel = quad.propagator_coeffs

    def poisoned(lam, t, *args, **kwargs):
        out = kernel(lam, t, *args, **kwargs)
        return np.where(np.broadcast_to(t, lam.shape) == bad_t, np.nan, out)

    monkeypatch.setattr(quad, "propagator_coeffs", poisoned)


@pytest.mark.parametrize("failure", ["panels", "segments", "non-finite", "panels, later head"])
def test_series_raises_the_error_of_its_earliest_failing_time(monkeypatch, failure):
    # check 10's data: t = 160 is the earliest time that fails alone, by
    # tail panels beyond its budget (it needs 27, t = 10 needs 19), a tail
    # that does not converge or a non-finite sample; with a later time whose
    # head fails first, the series still raises t = 160's error, with
    # norm_value's message
    if failure.startswith("panels"):
        monkeypatch.setattr(quad, "MAX_PANELS", 24)
    if failure == "segments":
        monkeypatch.setattr(quad, "MAX_SEGMENTS", 8)
    if failure != "panels":
        _poison(monkeypatch, 160.0 if failure == "non-finite" else 2560.0)
    spec = quad.QuadSpec(n=8, tol=1e-4)
    grid = (10.0, 160.0, 640.0, 2560.0)
    errors = []
    for t in grid:
        try:
            quad.norm_value(LOG_TAIL8, "u", 8, t, spec)
        except quad.QuadratureError as exc:
            errors.append(exc)
    first = errors[0]
    assert "(t=160, tol=0.0001)" in str(first)
    with pytest.raises(type(first)) as raised:
        quad.norm_series(LOG_TAIL8, "u", 8, grid, spec)
    assert type(raised.value) is type(first) and str(raised.value) == str(first)


def test_norm_series_rejects_a_bad_request_before_any_integration(monkeypatch):
    # every time, the grid's order, the kind, the zone and the dimensions
    # are checked before the first GK15 panel is evaluated
    _no_quadrature(monkeypatch)
    grid = (10.0, 160.0)
    bad = [
        (LOG_TAIL8, "u", 8, (10240.0, 5120.0, 10.0), None, "all", "strictly increasing"),
        (LOG_TAIL8, "u", 8, (10.0, 20.0, 20.0), None, "all", "strictly increasing"),
        (LOG_TAIL8, "u", 8, (10.0, 20.0, math.nan), None, "all", "nonnegative"),
        (LOG_TAIL8, "u", 8, (10.0, math.inf), None, "all", "nonnegative"),
        (LOG_TAIL8, "u", 8, (-1.0, 10.0), None, "high", "nonnegative"),
        (GAUSS2, "u-phi", 2, (0.0, 10.0), None, "all", "t=0"),
        (LOG_TAIL8, "nope", 8, grid, None, "all", "kind"),
        (LOG_TAIL8, "u", 8, grid, None, "nowhere", "zone"),
        (LOG_TAIL8, "u", 8, grid, quad.QuadSpec(n=2), "all", "spec dimension"),
        (LOG_TAIL8, "u", 2, grid, None, "all", "profile dimension"),
    ]
    for d, kind, n, ts, spec, zone, match in bad:
        with pytest.raises(ValueError, match=match):
            quad.norm_series(d, kind, n, ts, spec, zone)


@pytest.mark.parametrize("u1,n,kind", [
    ("log_tail:m=1,beta=0.2", 4, "u-phi"),
    ("log_tail:m=1,beta=0.2", 8, "u-phi"),
    ("log_tail:m=0,beta=0.5", 2, "u-phi"),
    ("log_tail:m=0,beta=0.5", 4, "u-phi"),
    ("log_tail:m=0,beta=0.5", 8, "u-phi"),
    ("log_tail:m=1,beta=0.2", 8, "u-phi2"),
    ("log_tail:m=0,beta=0.5", 8, "u-phi2"),
])
def test_mode_minus_phi2_reaches_tol_1e12_in_the_tail(u1, n, kind):
    # the high zone's P and Q of u - phi2 are formed without cancellation
    # (`_phase_terms`); these requests exhausted the panel budget when they
    # were differences of nearly equal terms, and now agree with tol 1e-10
    d = data_mod.parse_pair("gaussian:alpha=1", u1, n)
    v, e = quad.norm_value(d, kind, n, 1e4, quad.QuadSpec(n=n, tol=1e-12))
    w, f = quad.norm_value(d, kind, n, 1e4, quad.QuadSpec(n=n, tol=1e-10))
    assert abs(v - w) <= e + f


@pytest.mark.parametrize("n", [1, 2, 3])
def test_largest_accepted_t_reads_the_laplace_anchor(monkeypatch, n):
    # at t = T_MAX the mass at L ~ 1/t still reaches the first node: the
    # norm is M^2 (pi/(2t))^{n/2} to 1e-3; beyond it the request is refused
    # before any integration, where it used to read 0 with err_est 0
    d = data_mod.parse_pair("gaussian:alpha=1", "gaussian:alpha=1", n)
    v, _ = quad.norm_value(d, "u", n, quad.T_MAX, quad.QuadSpec(n=n))
    anchor = d.mass_sum**2 * (math.pi / (2.0 * quad.T_MAX)) ** (n / 2.0)
    assert abs(v / anchor - 1.0) <= 1e-3

    def fail(*args, **kwargs):
        raise AssertionError("quadrature ran before t was refused")

    monkeypatch.setattr(quad, "_gk_eval", fail)
    for zone in ("all", "low"):
        with pytest.raises(ValueError, match="T_MAX"):
            quad.norm_value(d, "u", n, quad.T_MAX * (1.0 + 1e-15), zone=zone)
