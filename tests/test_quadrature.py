import decimal
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from logplate import data as data_mod
from logplate import modes, rates, symbols, verify
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


def test_basic_integrals():
    v, e = quad.radial_integral(lambda r: r, 0.0, 1.0, quad.REF_TOL)
    assert v == pytest.approx(0.5, abs=1e-14)
    v, _ = quad.radial_integral(lambda r: (1.0 + r * r) ** -2.0 * r, 0.0, 1.0, quad.REF_TOL)
    assert v == pytest.approx(0.25, abs=1e-14)
    v, _ = quad.radial_integral(lambda r: np.exp(-r * r), 0.0, 40.0, quad.REF_TOL)
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
            if np.any(t == t_stuck):
                out = np.where(t == t_stuck, x ** -0.99, out)
        return out

    gk_eval = quad._gk_eval
    calls = []

    def counting(f, lo, hi, t):
        calls.append(lo.size)
        return gk_eval(f, lo, hi, t)

    def alone(intervals):
        """(result, error, GK15 calls) of each interval integrated alone."""
        out = []
        for t, bounds in enumerate(intervals):
            calls.clear()
            failed = {}
            res = _adaptive(f, [(bounds, t, 0)], tol, [quad.MAX_PANELS], failed)[0]
            out.append((res, failed.get(0), len(calls)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "_gk_eval", counting)
        each = alone(intervals)
        panels = [res[2] for res, _, _ in each]
        rounds = max(n for _, _, n in each)
        calls.clear()
        shared = [(bounds, t, 0) for t, bounds in enumerate(intervals)]
        assert _adaptive(f, shared, tol, [sum(panels)], {}) == [res for res, _, _ in each]
        assert len(calls) == rounds
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
# at a tolerance one ulp from where the panel count changes, and the
# (value, err, panels) `_adaptive` gave them when each interval summed its
# panels kept, left halves, right halves (recorded as float.hex).  The test
# sums then decide at the last bit: regrouping the panels moves them.
GOLDEN = (
    ("runge", "0x1.e26ed23357239p-34", "0x1.2d49756780043p-1", "0x1.4cf5b92eacf00p-40", 14),
    ("bump", "0x1.6a35d8d917affp-37", "0x1.894ab6057cdcdp+6", "0x1.e4fd2ab6057cep-36", 25),
    ("kink", "0x1.718e8e0ac0757p-27", "0x1.f243c8759eff9p+2", "0x1.95b131aaff90fp-25", 18),
    ("kink", "0x1.5884a4341d20bp-30", "0x1.f243c8867d241p+2", "0x1.967af49ea4887p-28", 22),
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


def test_head_integral_closed_forms():
    for t in (2.0, 5.0, 10.0, 30.0):
        exact = (1.0 - 2.0 ** (1.0 - t)) / (2.0 * (t - 1.0))
        assert abs(quad.ref_integral_Ip(1.0, t) - exact) < 1e-12


def test_head_integral_laplace_limit():
    for p_exp in (0.0, 1.0, 2.0, 3.0):
        scaled = quad.ref_integral_Ip(p_exp, 1e4) * 1e4 ** (0.5 * (p_exp + 1.0))
        assert scaled == pytest.approx(math.gamma(0.5 * (p_exp + 1.0)) / 2.0, rel=0.02)


def test_tail_integral_closed_form_and_band():
    for t in (5.0, 10.0, 30.0):
        exact = 2.0 ** (1.0 - t) / (2.0 * (t - 1.0))
        assert abs(quad.ref_integral_Jp(1.0, t) - exact) < 1e-12
    for p_exp in (0.0, 2.0):
        for t in (20.0, 30.0, 60.0):
            scaled = t * 2.0**t * quad.ref_integral_Jp(p_exp, t)
            assert 0.3 <= scaled <= 3.0
    with pytest.raises(ValueError):
        quad.ref_integral_Jp(1.0, 1.0)


def test_tail_error_covers_slowly_shrinking_remainder():
    # exact pieces of int_1^inf x^{-1.2} dx shrink by 2^{-0.2} ~ 0.87 per
    # doubling, so |last piece| alone misses most of what is left
    def segments(runs):
        return {k: [(5.0 * (a**-0.2 - b**-0.2), 0.0) for a, b in zip(ends, ends[1:])]
                for k, ends in runs.items()}

    ((total, err, converged),) = quad.tail_integral(segments, 1.0, 2.0, 1e-3)
    assert converged
    remainder = 5.0 - total  # 5 = the whole integral
    assert err >= remainder * (1.0 - 1e-12)
    assert err == pytest.approx(remainder, rel=1e-9)


def test_y_norm_error_covers_tail_near_regularity_boundary():
    # s = 1 with tail weight q = m + 1 + beta = 2.2: the pieces shrink by
    # 0.87 per doubling and the closed-form remainder beyond the last
    # extent is 4.25
    res = data_mod.y_norm(data_mod.LogTailProfile(1.0, 0.2, 8), 1.0)
    assert not res.diverged
    assert res.err_est >= 4.0


def test_middle_zone_bound_with_fitted_constant():
    eta = quad.THRESHOLDS.eta
    for p_exp in (0.0, 1.0):
        c_fit = quad.middle_zone_integral(p_exp, 10.0, eta) * (1.0 + eta * eta) ** 10.0
        for t in (10.0, 20.0, 50.0, 100.0):
            val = quad.middle_zone_integral(p_exp, t, eta)
            assert val <= c_fit * (1.0 + eta * eta) ** (-t) * (1.0 + 1e-12)


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
    # check 10's data at t = 160: its tail ends with 14 GK15 and 13 Levin
    # panels, each Levin panel one panel of the time's budget, so a budget
    # of 26 panels, enough for the GK15 panels alone, raises
    spec = quad.QuadSpec(n=8, tol=1e-4)
    assert _tail_panels(monkeypatch, LOG_TAIL8, "u", 160.0, spec) == (14, 13)
    monkeypatch.setattr(quad, "MAX_PANELS", 27)
    quad.norm_value(LOG_TAIL8, "u", 8, 160.0, spec)
    monkeypatch.setattr(quad, "MAX_PANELS", 26)
    with pytest.raises(quad.PanelBudgetError):
        quad.norm_value(LOG_TAIL8, "u", 8, 160.0, spec)


def _tail_panels(monkeypatch, d, kind, t, spec):
    """(GK15, Levin) panels that the high-zone intervals of one time end with."""
    adaptive = quad._adaptive
    panels = [0, 0]

    def counting(f, lo, hi, *args, **kwargs):
        out = adaptive(f, lo, hi, *args, **kwargs)
        if lo.size and lo[0] >= 1.0:
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
    def f(r):
        with np.errstate(divide="ignore"):
            return 1.0 / (r - 0.5)

    with pytest.raises(quad.NonFiniteIntegrandError):
        quad.radial_integral(f, 0.0, 1.0, quad.REF_TOL)


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
        rhs, _ = quad.radial_integral(rhs_integrand(t), 0.0, 40.0, 1e-9, ladder=16)
        assert lhs <= rhs


def test_series_csv_convention_fields():
    series = quad.norm_series(GAUSS2, "u", 2, (10.0, 20.0), quad.QuadSpec(n=2, tol=1e-6))
    assert series.kind == "u" and series.zone == "all" and series.n == 2
    assert series.ts == (10.0, 20.0)
    assert all(v > 0.0 for v in series.values)
    assert all(e >= 0.0 for e in series.errs)


# the data of checks 06 to 11: (u0, u1, n, kind, tol)
CHECK_CASES = [
    *(("gaussian:alpha=1", "gaussian:alpha=1", n, "phi1", 1e-6) for n in (1, 2, 3)),
    ("gaussian:alpha=1", "gaussian:alpha=1", 2, "phi2", 1e-6),
    ("gaussian:alpha=1", "gaussian:alpha=1", 2, "u-phi1", 1e-6),
    ("gaussian:alpha=1", "log_tail:m=1,beta=0.2", 4, "u-phi", 1e-4),
    ("gaussian:alpha=1", "log_tail:m=1,beta=0.2", 8, "u-phi2", 1e-4),
    ("gaussian:alpha=1", "log_tail:m=1,beta=0.2", 8, "u", 1e-4),
    *(("gaussian:alpha=1", "gaussian:alpha=1", n, "u", 1e-6) for n in (2, 3)),
    ("zero_mass:alpha=1", "zero_mass:alpha=1", 2, "u", 1e-6),
]


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
    collocation: a reference independent of the tail's fast-term path."""
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

    start = quad.TAIL_START
    ((tail, err, converged),) = quad.tail_integral(segments, start, 2.0 * start, tol, (head[0],),
                                                   (max(t, 2.0 * start),))
    assert converged
    return head[0] + tail, head[1] + err


@pytest.mark.parametrize("sel0,sel1,n,kind,tol", CHECK_CASES)
def test_error_estimate_bounds_a_stepped_reference(sel0, sel1, n, kind, tol):
    # the data and kinds of checks 06 to 11: err_est covers the distance to
    # the value with every tail piece stepped, at tol / 100
    d = data_mod.parse_pair(sel0, sel1, n)
    for t in (10.0, 40.0, 160.0, 640.0, 2560.0):
        v, e = quad.norm_value(d, kind, n, t, quad.QuadSpec(n=n, tol=tol))
        ref, _ = _stepped_reference(d, kind, n, t, tol / 100.0)
        assert abs(v - ref) <= e, (kind, n, t)


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
    # the nested 9-point collocation alone agrees with the 17-point one on
    # pieces where neither resolves F (Gaussian data fall off
    # super-exponentially): without the Chebyshev tail of F the estimate
    # under-reads, by 11 times at t = 1,810
    monkeypatch.setattr(quad, "_CHEB_TAIL", np.zeros_like(quad._CHEB_TAIL))
    assert _gaussian_high_zone_misses()


def test_lobatto_rules_are_exact_on_polynomials():
    # the differentiation matrices of the 17 and the nested 9 points
    # differentiate polynomials they interpolate exactly, and the fixed
    # transform reads the last two Chebyshev coefficients of a series
    x = quad._CHEB_X
    for points, dmat in ((x, quad._CHEB_D), (x[::2], quad._NESTED_D)):
        coef = np.linspace(1.0, -1.0, points.size)
        p = np.polynomial.Chebyshev(coef)
        assert np.allclose(dmat @ p(points), p.deriv()(points), rtol=0.0, atol=1e-11)
    for coef in ([0.0] * 15 + [1.0, 2.0], [3.0, -1.0, 0.5] + [0.0] * 14, np.arange(17.0)):
        values = np.polynomial.chebyshev.chebval(x, coef)
        assert np.allclose(quad._CHEB_TAIL @ values, coef[15:], rtol=0.0, atol=1e-12)


def test_levin_integrates_a_closed_form_at_any_frequency():
    # Re int_1^2 c e^{(1 + iw) y} dy on one panel each, w from 3 to 3e4: the
    # cost and the accuracy do not depend on how far the phase turns
    w = np.array([3.0, 30.0, 300.0, 3e3, 3e4])
    c = 0.7 - 0.4j

    def rows(y, t):
        k = np.repeat(w, quad._LEVIN)
        return c * np.exp(y), k + 0.0 * y, k * y

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
    """Record (rule, bounds) of every high-zone interval `_adaptive` integrates."""
    adaptive = quad._adaptive
    calls = []

    def spy(f, lo, hi, sizes, *args, **kwargs):
        calls.extend((kwargs.get("rule"), (b[0], b[-1])) for b in _boundaries(lo, hi, sizes)
                     if b[0] >= 1.0)
        return adaptive(f, lo, hi, sizes, *args, **kwargs)

    monkeypatch.setattr(quad, "_adaptive", spy)
    return calls


@pytest.mark.parametrize("kind", ["u-phi1", "phi2"])
def test_piece_with_less_than_pi_of_phase_takes_the_plain_path(monkeypatch, kind):
    # a piece over which bt turns by less than pi is integrated once, as
    # v^2; every other live piece once for its smooth part and once by Levin
    # collocation.  At t = 1 every piece is plain, at t = 4 the first turns
    # by 3.0 and at t = 5 by 3.8 radians.
    spec = quad.QuadSpec(n=2, tol=1e-6)
    paths = set()
    for t in (1.0, 4.0, 5.0, 40.0):
        calls = _tail_calls(monkeypatch)
        quad.norm_value(GAUSS2, kind, 2, t, spec)
        monkeypatch.undo()
        pieces = {ends for _, ends in calls}
        assert pieces, t
        for lo, hi in pieces:
            levin = sorted(rule is quad._levin for rule, ends in calls if ends == (lo, hi))
            turn = float(np.diff(_mode_phase(np.array([lo, hi]), t))[0])
            assert levin == ([False] if turn < math.pi else [False, True]), (t, lo)
            paths.add(turn < math.pi)
    assert paths == {True, False}


@pytest.mark.parametrize("kind,n", [("u-phi", 4), ("u", 8)])
def test_each_tail_piece_is_probed_once(monkeypatch, kind, n):
    # a piece is probed once, 33 points in the one call per run of pieces
    # made outside the GK15 and Levin rules, and every piece integrated was
    # probed
    d = data_mod.parse_pair("gaussian:alpha=1", "log_tail:m=1,beta=0.2", n)
    spec = quad.QuadSpec(n=n, tol=1e-4)
    scaled_data = quad._scaled_data_y
    probes = []
    evaluating = []

    def spy(d, kind, t, n, y):
        if not evaluating:
            probes.extend(zip(y[::33].tolist(), y[32::33].tolist()))
        return scaled_data(d, kind, t, n, y)

    def inside(rule):
        def wrapped(*args):
            evaluating.append(True)
            try:
                return rule(*args)
            finally:
                evaluating.pop()

        return wrapped

    monkeypatch.setattr(quad, "_scaled_data_y", spy)
    monkeypatch.setattr(quad, "_gk_eval", inside(quad._gk_eval))
    monkeypatch.setattr(quad, "_levin", inside(quad._levin))
    calls = _tail_calls(monkeypatch)
    for t in (10.0, 160.0, 2560.0):
        probes.clear()
        calls.clear()
        quad.norm_value(d, kind, n, t, spec)
        assert len(probes) == len(set(probes)), t
        assert {ends for _, ends in calls} <= set(probes), t
        assert any(rule is not None for rule, _ in calls), t


def _levin_rows(y, t):
    """Rows F, phi' and phi of a test integrand: a peak of width 1/t at
    y = 1.5 that needs halvings, under the phase t y^2."""
    amp = (1.0 + 0.5j) * np.exp(-(t * (y - 1.5)) ** 2) + np.exp(-y)
    return amp, 2.0 * t * y, t * y * y


def test_levin_values_do_not_depend_on_their_batch():
    # pieces at several times, some halved, refined in one `_adaptive` call
    # give each piece's result alone, bit for bit
    lo = np.array([1.0, 1.0, 2.0, 1.2, 1.0, 3.0])
    hi = np.array([2.0, 2.0, 3.0, 1.9, 4.0, 3.5])
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
    # check 10's data at tol 1e-6 on the 21-time default grid: 1,082 GK15
    # panels, far below the 100,000 that phase steps, whose count grows like
    # t, could not reach; the Levin panels per Levin piece do not grow from
    # t = 160 to 2,560
    rows = _gk15_rows(monkeypatch)
    spec = quad.QuadSpec(n=8, tol=1e-6)
    quad.norm_series(LOG_TAIL8, "u", 8, quad.default_time_grid(), spec)
    assert sum(rows) == 1_082 < 100_000
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
        pieces = sum(rule is counting for rule, _ in calls)
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


def _series_panels(monkeypatch, kind, grid):
    """(GK15, Levin) panels that the intervals of the series of checks 09 and
    10's data and the kind on the grid end with."""
    adaptive = quad._adaptive
    panels = [0, 0]

    def counting(*args, **kwargs):
        out = adaptive(*args, **kwargs)
        panels["rule" in kwargs] += sum(used for _, _, used in out)
        return out

    monkeypatch.setattr(quad, "_adaptive", counting)
    quad.norm_series(LOG_TAIL8, kind, 8, grid, quad.QuadSpec(n=8, tol=1e-4))
    return tuple(panels)


def test_check10_series_panel_count(monkeypatch):
    # the tail integrates each piece's smooth part by GK15 and its fast terms
    # by Levin collocation: check 10's series ends with 517 GK15 and 205
    # Levin panels
    assert _series_panels(monkeypatch, "u", verify._FIT_TIMES) == (517, 205)


def _gk15_rows(monkeypatch):
    """Record the panels of every `_gk_eval` call, one entry per call."""
    gk_eval = quad._gk_eval
    rows = []

    def counting(f, lo, hi, t):
        rows.append(lo.size)
        return gk_eval(f, lo, hi, t)

    monkeypatch.setattr(quad, "_gk_eval", counting)
    return rows


def test_check10_series_gk15_calls(monkeypatch):
    # each round of refinement evaluates the open panels of all pieces of
    # every time's run in one call: check 10's window series takes 13 calls
    # (143 when its times were integrated one after another), and its 608
    # GK15 panels show that no piece is integrated beyond the one that stops
    # the tail
    rows = _gk15_rows(monkeypatch)
    quad.norm_series(LOG_TAIL8, "u", 8, verify._FIT_TIMES, quad.QuadSpec(n=8, tol=1e-4))
    assert (len(rows), sum(rows)) == (13, 608)


def test_check07_series_gk15_panel_count(monkeypatch):
    # every GK15 panel of check 07's window series, counted where panels are
    # evaluated: [0, 1] is one integral refined to tol of its own value
    rows = _gk15_rows(monkeypatch)
    kind = f"u-{rates.classify(2, verify._L_DATA).profile}"
    verify._series("gaussian:alpha=1", "gaussian:alpha=1", 2, kind, 1e-6)
    assert sum(rows) == 586


def test_check11_series_gk15_calls(monkeypatch):
    # check 11's three window series (Gaussian n = 2 and 3, zero-mass n = 2):
    # the tail carries no mass, so bookkeeping, not panels, dominates them
    rows = _gk15_rows(monkeypatch)
    counts = []
    for sel, n in (("gaussian:alpha=1", 2), ("gaussian:alpha=1", 3), ("zero_mass:alpha=1", 2)):
        start = len(rows)
        verify._series(sel, sel, n, "u", 1e-6)
        counts.append((len(rows) - start, sum(rows[start:])))
    assert counts == [(11, 544), (11, 548), (11, 552)]
    assert (len(rows), sum(rows)) == (33, 1_644)


def test_check06_phi2_series_gk15_calls(monkeypatch):
    # the tail integrates only smooth parts and plain pieces by GK15: 18
    # calls and 624 panels
    rows = _gk15_rows(monkeypatch)
    verify._series("gaussian:alpha=1", "gaussian:alpha=1", 2, "phi2", 1e-6)
    assert (len(rows), sum(rows)) == (18, 624)


def test_check09_late_series_panel_count(monkeypatch):
    # check 09's kind on 14 times from 1e4 to 9.05e5: the low zone adapts to
    # a wave profile damped by e^{-t/(2L)} instead of stepping through its
    # phase sqrt(L) t, and the series ends with 651 GK15 panels, and 245
    # Levin panels of the tail's fast terms
    gk15, levin = _series_panels(monkeypatch, "u-phi2", quad.default_time_grid(13, 1e4))
    assert (gk15, levin) == (651, 245) and gk15 < 1_000


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
