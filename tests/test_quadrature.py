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

    def counting(f, lo, hi):
        calls.append(lo.size)
        return gk_eval(f, lo, hi)

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
    # check 10's data at t = 160: the tail pieces whose phase estimate misses
    # the budget are stepped on more panels than 50
    monkeypatch.setattr(quad, "MAX_PANELS", 50)
    spec = quad.QuadSpec(n=8, tol=1e-4)
    with pytest.raises(quad.PanelBudgetError):
        quad.norm_value(LOG_TAIL8, "u", 8, 160.0, spec)


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


# the inputs of checks 08, 09 and 10: (kind, n, times where every tail
# piece's phase estimate fits the budget, so every piece is split)
SPLIT_CASES = [("u-phi", 4, (3620.0,)), ("u-phi2", 8, (3620.0,)), ("u", 8, (2560.0,))]
# a sample of g/phi' far beyond any budget, finite so that no inf - inf arises
HUGE = 1e300


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


def _rows(value):
    """Stand-in for `_fast_over_rate`: the samples of g/phi' of each call read
    `value` and `-value` in turn, so every piece's sampled variation is at
    least 2 |value| unless value is 0."""
    return lambda m, p, q, db, t: np.where(np.arange(db.size) % 2, -value, value)[None, :]


def _guarded_only(monkeypatch):
    # every piece's variation misses the budget, so every piece is stepped
    monkeypatch.setattr(quad, "_fast_over_rate", _rows(HUGE))


def _norm(d, kind, n, t, spec, rows):
    """norm_value with the samples of g/phi' reading `rows` and `-rows` in
    turn: 0.0 splits every piece and adds no boundary terms, HUGE steps
    every piece."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quad, "_fast_over_rate", _rows(rows))
        return quad.norm_value(d, kind, n, t, spec)


def _boundary_terms(d, kind, n, t, y):
    """Sum over the fast terms g cos(phi) + ... of v^2 of the boundary terms
    [h sin(phi)] or [-h cos(phi)], h = g/phi', that one integration by parts
    leaves at the points y."""
    scaled = quad._scaled_data_y(d, kind, t, n, y)
    h = quad._fast_over_rate(*quad._phase_terms(kind, y, t, *scaled), t)
    _, b = modes.oscillating_coeffs(*symbols.collision_gap(y * y), t)
    trig = (np.sin(2.0 * b * t), -np.cos(2.0 * b * t), np.sin(b * t), -np.cos(b * t))
    return sum(row * g for row, g in zip(h, trig))


def _tail(d, kind, t, spec, baseline):
    """The high-zone (value, err) of one time, tail_integral's baseline
    standing for the rest of the norm."""
    return quad._tail_values(d, kind, (t,), spec, (baseline,), {})[0]


def _high_calls(monkeypatch):
    """Record (bounds, value) of every high-zone interval `_adaptive` integrates."""
    adaptive = quad._adaptive
    calls = []

    def spy(f, lo, hi, sizes, *args):
        out = adaptive(f, lo, hi, sizes, *args)
        calls.extend((b, res[0]) for b, res in zip(_boundaries(lo, hi, sizes), out) if b[0] >= 1.0)
        return out

    monkeypatch.setattr(quad, "_adaptive", spy)
    return calls


def _split_and_stepped(calls):
    """Ends of the pieces integrated once (split) and twice (stepped)."""
    ends = [(b[0], b[-1]) for b, _ in calls]
    stepped = {e for e in ends if ends.count(e) > 1}
    return set(ends) - stepped, stepped


@pytest.mark.parametrize("kind,n,times", SPLIT_CASES)
def test_split_tail_within_its_phase_bound_of_the_guarded_value(monkeypatch, kind, n, times):
    # where every piece is split the value is the smooth integral plus the
    # boundary terms of the fast terms, which cancel between adjacent pieces
    # up to rounding and leave those at the tail's two ends; the sampled
    # variations are what err_est adds to it, and they bound the distance to
    # the stepped value
    d = data_mod.parse_pair("gaussian:alpha=1", "log_tail:m=1,beta=0.2", n)
    spec = quad.QuadSpec(n=n, tol=1e-4)
    for t in times:
        calls = _high_calls(monkeypatch)
        v, e = quad.norm_value(d, kind, n, t, spec)
        monkeypatch.undo()
        assert not _split_and_stepped(calls)[1], (kind, t)
        smooth, smooth_err = _norm(d, kind, n, t, spec, rows=0.0)
        guarded, _ = _norm(d, kind, n, t, spec, rows=HUGE)
        ends = np.array([1.0, max(b[-1] for b, _ in calls)])
        first, last = _boundary_terms(d, kind, n, t, ends)
        assert v != smooth and abs(v - smooth - (last - first)) <= 1e-14 * v, (kind, t)
        assert abs(v - guarded) <= e - smooth_err <= e, (kind, t)


@pytest.mark.parametrize("kind,n", [case[:2] for case in SPLIT_CASES])
def test_early_time_keeps_the_guarded_value_bit_for_bit(monkeypatch, kind, n):
    # at t = 160 the phase estimates of some pieces miss the budget; each of
    # them takes the value the stepped-only tail gives it, bit for bit
    d = data_mod.parse_pair("gaussian:alpha=1", "log_tail:m=1,beta=0.2", n)
    spec = quad.QuadSpec(n=n, tol=1e-4)
    calls = _high_calls(monkeypatch)
    quad.norm_value(d, kind, n, 160.0, spec)
    stepped = {(b[0], b[-1]): v for b, v in calls if b.size > 2}
    calls.clear()
    _guarded_only(monkeypatch)
    quad.norm_value(d, kind, n, 160.0, spec)
    guarded = {(b[0], b[-1]): v for b, v in calls if b.size > 2}
    assert stepped and len(stepped) < len(guarded)
    assert all(guarded[ends] == v for ends, v in stepped.items())


@pytest.mark.parametrize("kind", ["u", "phi2"])
def test_split_tail_variation_matches_a_dense_sampling(monkeypatch, kind):
    # on Gaussian data g/phi' peaks between the 33 probe points of a piece
    # (33 points alone read 11% low at t = 1810); the Kronrod nodes of the
    # smooth integral resolve the peak.  A baseline of 1 admits every piece.
    spec = quad.QuadSpec(n=2, tol=1e-4)
    phase_terms = quad._phase_terms
    for t in (905.0, 1810.0):
        samples = []
        calls = _high_calls(monkeypatch)  # the pieces, each integrated once

        def spy(kind, y, t, *scaled):
            samples.append(y)
            return phase_terms(kind, y, t, *scaled)

        monkeypatch.setattr(quad, "_phase_terms", spy)
        _, e = _tail(GAUSS2, kind, t, spec, 1.0)
        monkeypatch.undo()
        monkeypatch.setattr(quad, "_fast_over_rate", _rows(0.0))
        _, smooth_err = _tail(GAUSS2, kind, t, spec, 1.0)
        monkeypatch.undo()
        assert not _split_and_stepped(calls)[1]
        # the variation of each piece, on 4,097 more points of it
        ref = 0.0
        sampled = np.concatenate(samples)
        for lo, hi in ((b[0], b[-1]) for b, _ in calls):
            ys = sampled[(lo <= sampled) & (sampled <= hi)]
            y = np.sort(np.concatenate([np.linspace(lo, hi, 4097), ys]))
            scaled = quad._scaled_data_y(GAUSS2, kind, t, 2, y)
            h = quad._fast_over_rate(*quad._phase_terms(kind, y, t, *scaled), t)
            ref += np.abs(np.diff(h)).sum()
        assert 0.99 * ref <= e - smooth_err <= ref * (1.0 + 1e-12), (kind, t)


def test_check10_pieces_split_and_stepped_at_t160(monkeypatch):
    # at t = 160 the budget admits the phase estimates of some pieces and
    # not of others; the value lies within err_est of the stepped value
    spec = quad.QuadSpec(n=8, tol=1e-4)
    calls = _high_calls(monkeypatch)
    v, e = quad.norm_value(LOG_TAIL8, "u", 8, 160.0, spec)
    split, stepped = _split_and_stepped(calls)
    assert split and stepped
    monkeypatch.undo()
    guarded, _ = _norm(LOG_TAIL8, "u", 8, 160.0, spec, rows=HUGE)
    assert abs(v - guarded) <= e


@pytest.mark.parametrize("kind,n", [("u-phi", 4), ("u", 8)])
def test_each_tail_piece_is_probed_once_and_integrated_at_most_twice(monkeypatch, kind, n):
    # a piece is probed once (33 points, in the one call per run of pieces
    # made outside `_gk_eval`); it is integrated once, or, when its phase
    # estimate misses the budget, once smooth and once stepped
    d = data_mod.parse_pair("gaussian:alpha=1", "log_tail:m=1,beta=0.2", n)
    spec = quad.QuadSpec(n=n, tol=1e-4)
    scaled_data = quad._scaled_data_y
    gk_eval = quad._gk_eval
    probes = []
    evaluating = []

    def spy(d, kind, t, n, y):
        if not evaluating:
            probes.extend(zip(y[::33], y[32::33]))
        return scaled_data(d, kind, t, n, y)

    def gk_spy(f, lo, hi):
        evaluating.append(True)
        try:
            return gk_eval(f, lo, hi)
        finally:
            evaluating.pop()

    monkeypatch.setattr(quad, "_scaled_data_y", spy)
    monkeypatch.setattr(quad, "_gk_eval", gk_spy)
    calls = _high_calls(monkeypatch)
    for t in (10.0, 160.0, 2560.0):
        probes.clear()
        calls.clear()
        quad.norm_value(d, kind, n, t, spec)
        assert len(probes) == len(set(probes)), t
        split, stepped = _split_and_stepped(calls)
        assert split | stepped <= set(probes), t
        assert len(calls) == len(split) + 2 * len(stepped), t
        for b, _ in calls:
            if (b[0], b[-1]) in split:
                assert b.size == 2, t


@pytest.mark.parametrize("kind,n", [("u-phi", 4), ("u-phi2", 8), ("u", 8)])
def test_error_estimate_bounds_a_stepped_reference(kind, n):
    # the data of checks 08, 09 and 10: err_est covers the distance to the
    # stepped-only value at tol / 100
    d = data_mod.parse_pair("gaussian:alpha=1", "log_tail:m=1,beta=0.2", n)
    for t in (40.0, 160.0, 640.0, 2560.0):
        v, e = quad.norm_value(d, kind, n, t, quad.QuadSpec(n=n, tol=1e-4))
        ref, _ = _norm(d, kind, n, t, quad.QuadSpec(n=n, tol=1e-6), rows=HUGE)
        assert abs(v - ref) <= e, (kind, t)


@pytest.mark.parametrize("kind", ["u-phi1", "u-phi"])
def test_split_tail_adds_the_boundary_terms_of_every_row(monkeypatch, kind):
    # at t = 2 the mass term is not yet damped in the high zone, so all four
    # fast terms leave boundary terms of order 1 at y = 1; an infinite
    # baseline splits every piece, and the value differs from the smooth one
    # by the terms at the tail's ends
    t = 2.0
    spec = quad.QuadSpec(n=2, tol=1e-4)
    calls = _high_calls(monkeypatch)
    v, _ = _tail(GAUSS2, kind, t, spec, math.inf)
    monkeypatch.undo()
    monkeypatch.setattr(quad, "_fast_over_rate", _rows(0.0))
    smooth, _ = _tail(GAUSS2, kind, t, spec, math.inf)
    monkeypatch.undo()
    ends = np.array([1.0, max(b[-1] for b, _ in calls)])
    first, last = _boundary_terms(GAUSS2, kind, 2, t, ends)
    assert abs(v - smooth - (last - first)) <= 1e-14 * v < abs(last - first)


@pytest.mark.parametrize("kind,n", [case[:2] for case in SPLIT_CASES])
def test_unstepped_piece_within_its_variation_of_the_stepped_piece(monkeypatch, kind, n):
    # a piece left unstepped adds the boundary terms of its fast terms to its
    # smooth part, and err_est adds the sampled variation of g/phi'; piece by
    # piece, that value lies within the variation and both integrals' errors
    # of the piece integrated on phase steps at tol / 100.  The smooth part
    # alone does not, on some piece of each kind: the boundary terms count.
    d = data_mod.parse_pair("gaussian:alpha=1", "log_tail:m=1,beta=0.2", n)
    spec = quad.QuadSpec(n=n, tol=1e-4)
    missed = []
    for t in (160.0, 640.0):
        calls = _high_calls(monkeypatch)
        quad.norm_value(d, kind, n, t, spec)
        monkeypatch.undo()
        f = quad._squared_value(d, kind, n)
        for lo, hi in sorted({(b[0], b[-1]) for b, _ in calls}):
            s_lo = round(1.0 + lo * lo)

            def one_piece(segments, *args, **kwargs):
                ((value, err),) = segments({0: [s_lo, 2 * s_lo]})[0]
                return [(value, err, True)]

            # the tail is this piece alone, left unstepped by an infinite baseline
            monkeypatch.setattr(quad, "tail_integral", one_piece)
            v, e = _tail(d, kind, t, spec, math.inf)
            monkeypatch.setattr(quad, "_fast_over_rate", _rows(0.0))
            smooth, _ = _tail(d, kind, t, spec, math.inf)
            monkeypatch.undo()
            steps = quad._phase_steps(kind, t, spec.osc_guard, [lo], [hi], quad.MAX_PANELS)[0]
            bounds = [(quad._build_bounds(lo, hi, steps), t, 0)]
            ((ref, ref_err, _),) = _adaptive(f, bounds, spec.tol / 100.0, [quad.MAX_PANELS], {})
            assert abs(v - ref) <= e + ref_err, (kind, t, lo)
            missed.append(abs(smooth - ref) > e + ref_err)
    assert any(missed), kind


# the kinds whose integrand carries the mode's phase bt above delta, and
# those that carry the oscillatory profile's phase sqrt(L) t
MODE_KINDS = ("u", "u-phi1", "u-phi2", "u-phi")
WAVE_KINDS = ("phi2", "u-phi2", "u-phi")


def _fastest_phase(kind, lam, t):
    """The fastest phase of the kind's integrand in the high zone."""
    if kind in MODE_KINDS:
        return t * np.sqrt(-symbols.collision_gap(lam)[1])
    if kind in WAVE_KINDS:
        return t * np.sqrt(lam)
    return None


@pytest.mark.parametrize("kind", quad.NORM_KINDS)
def test_initial_panels_end_at_steps_of_the_fastest_phase(monkeypatch, kind):
    # the only bounded integral of a whole-space value is [0, 1], started
    # from its ends and the 2^-k ladder alone; every initial panel of a
    # stepped high-zone piece spans at most osc_guard * pi of the fastest
    # phase, and a panel between two phase steps spans exactly that
    calls = {}  # the last integration of every piece: a stepped one replaces the smooth

    def record(f, lo, hi, sizes, *args):
        for bounds in _boundaries(lo, hi, sizes):
            calls[bounds[0], bounds[-1]] = bounds
        return [(0.0, 0.0, 0)] * len(sizes)

    monkeypatch.setattr(quad, "_adaptive", record)
    _guarded_only(monkeypatch)
    head = np.sort(np.concatenate(([0.0, 1.0], 2.0 ** -np.arange(1, 17))))
    spec = quad.QuadSpec(n=8, tol=1e-4)
    step = spec.osc_guard * math.pi
    for t in (10.0, 160.0, 7240.8):
        calls.clear()
        quad.norm_value(LOG_TAIL8, kind, 8, t, spec)
        bounded = [x for x in calls.values() if x[0] < 1.0]
        assert len(bounded) == 1 and np.array_equal(bounded[0], head), (kind, t)
        assert len(calls) > 1, (kind, t)
        for x in calls.values():
            if x[0] < 1.0:
                continue
            phase = _fastest_phase(kind, x * x, t)
            if phase is None:
                assert x.size == 2, (kind, t)
                continue
            assert x.size > 2, (kind, t)
            assert np.all(np.diff(phase) <= step * (1.0 + 1e-9)), (kind, t)
            between = np.diff(phase[1:-1])
            assert np.all(np.abs(between - step) <= 1e-9 * step), (kind, t)


def test_phase_steps_beyond_the_budget_raise_before_any_allocation():
    # a tiny osc_guard or a huge t asks for more steps than memory holds;
    # the steps of several intervals count together
    assert quad._phase_steps("u", 300.0, 1.0, [1.0], [2.0], 100)[0].size == 98
    with pytest.raises(quad.PanelBudgetError):
        quad._phase_steps("u", 1000.0, 1.0, [1.0], [2.0], 100)
    with pytest.raises(quad.PanelBudgetError):
        quad._phase_steps("u", 300.0, 1.0, [1.0, 1.0], [2.0, 2.0], 100)


def test_stepped_pieces_share_the_panels_left(monkeypatch):
    # check 10's data at t = 160: the smooth tail takes 14 of 200 panels and
    # the four stepped pieces need 43 to 120 steps, each within the 186
    # panels left, 308 together; the budget error comes before any stepped
    # panel is evaluated
    monkeypatch.setattr(quad, "MAX_PANELS", 200)
    gk_eval = quad._gk_eval
    phase_steps = quad._phase_steps
    evaluated = []
    asked = []

    def counting(f, lo, hi):
        evaluated.append(lo.size)
        return gk_eval(f, lo, hi)

    def steps(kind, t, osc_guard, lo, hi, budget):
        asked.append(len(evaluated))
        assert budget == 186 and len(lo) == 4
        for a, b in zip(lo, hi):
            assert phase_steps(kind, t, osc_guard, [a], [b], budget)[0].size < budget
        return phase_steps(kind, t, osc_guard, lo, hi, budget)

    monkeypatch.setattr(quad, "_gk_eval", counting)
    monkeypatch.setattr(quad, "_phase_steps", steps)
    with pytest.raises(quad.PanelBudgetError, match="phase steps"):
        quad.norm_value(LOG_TAIL8, "u", 8, 160.0, quad.QuadSpec(n=8, tol=1e-4))
    assert asked == [len(evaluated)]


def test_mode_rate_inverse_meets_the_collision_gap():
    # the phase steps of the mode invert b = sqrt(L - a^2) from b = 0 (the
    # root collision) to far out in the high zone
    b = np.concatenate(([0.0], np.logspace(-8, 4, 241)))
    lam = quad._mode_rate_inverse(b)
    _, csq = symbols.collision_gap(lam)
    assert np.all(np.abs(-csq - b * b) <= 4.0 * np.finfo(float).eps * lam)


def test_error_estimate_has_a_rounding_floor():
    # check 12's lowmid zone at t = 10: K15 and G7 agree to about the last
    # bit, so |K15 - G7| alone reads 3.4e-16 of the value, and a change of
    # the integrand at the rounding level would leave the reported error
    spec = quad.QuadSpec(n=2, tol=1e-8)
    value, err = quad.norm_value(GAUSS2, "u", 2, 10.0, spec, zone="lowmid")
    assert err >= 4.0 * np.finfo(float).eps * value > 0.0


def _series_panels(monkeypatch, kind, grid):
    """Panels of the series of checks 09 and 10's data and the kind on the grid."""
    adaptive = quad._adaptive
    panels = []

    def counting(*args):
        out = adaptive(*args)
        panels.extend(used for _, _, used in out)
        return out

    monkeypatch.setattr(quad, "_adaptive", counting)
    quad.norm_series(LOG_TAIL8, kind, 8, grid, quad.QuadSpec(n=8, tol=1e-4))
    return sum(panels)


def test_check10_series_panel_count(monkeypatch):
    # the tail adds the boundary terms of the fast terms and steps only the
    # pieces whose sampled variation misses the budget, and their initial
    # panels end at steps of the mode's phase: check 10's series takes 3,285
    # panels (15,104 when each piece's fast terms were only bounded)
    assert _series_panels(monkeypatch, "u", verify._FIT_TIMES) == 3_285


def _gk15_rows(monkeypatch):
    """Record the panels of every `_gk_eval` call, one entry per call."""
    gk_eval = quad._gk_eval
    rows = []

    def counting(f, lo, hi):
        rows.append(lo.size)
        return gk_eval(f, lo, hi)

    monkeypatch.setattr(quad, "_gk_eval", counting)
    return rows


def test_check10_series_gk15_calls(monkeypatch):
    # each round of refinement evaluates the open panels of all pieces of
    # every time's run in one call: check 10's window series takes 14 calls
    # (143 when its times were integrated one after another), and its 3,376
    # GK15 panels show that no piece is integrated beyond the one that stops
    # the tail
    rows = _gk15_rows(monkeypatch)
    quad.norm_series(LOG_TAIL8, "u", 8, verify._FIT_TIMES, quad.QuadSpec(n=8, tol=1e-4))
    assert (len(rows), sum(rows)) == (14, 3_376)


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
    rows = _gk15_rows(monkeypatch)
    verify._series("gaussian:alpha=1", "gaussian:alpha=1", 2, "phi2", 1e-6)
    assert (len(rows), sum(rows)) == (20, 2_467)


def test_check09_late_series_panel_count(monkeypatch):
    # check 09's kind on 14 times from 1e4 to 9.05e5: the low zone adapts to
    # a wave profile damped by e^{-t/(2L)} instead of stepping through its
    # phase sqrt(L) t, and the series takes 651 panels
    panels = _series_panels(monkeypatch, "u-phi2", quad.default_time_grid(13, 1e4))
    assert panels == 651 < 1_000


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
    # phase steps beyond its panels left, a tail that does not converge or a
    # non-finite sample; with a later time whose head fails first, the
    # series still raises t = 160's error, with norm_value's message
    if failure.startswith("panels"):
        monkeypatch.setattr(quad, "MAX_PANELS", 200)
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
