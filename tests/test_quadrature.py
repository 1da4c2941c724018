import decimal
import math

import numpy as np
import pytest

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


def test_basic_integrals():
    v, e = quad.radial_integral(lambda r: r, 0.0, 1.0, quad.REF_TOL)
    assert v == pytest.approx(0.5, abs=1e-14)
    v, _ = quad.radial_integral(lambda r: (1.0 + r * r) ** -2.0 * r, 0.0, 1.0, quad.REF_TOL)
    assert v == pytest.approx(0.25, abs=1e-14)
    v, _ = quad.radial_integral(lambda r: np.exp(-r * r), 0.0, 40.0, quad.REF_TOL)
    assert v == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)


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
    def segment(a, b):
        return 5.0 * (a**-0.2 - b**-0.2), 0.0

    total, err, converged = quad.tail_integral(segment, 1.0, 2.0, 1e-3)
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
    spec = quad.QuadSpec(n=2, tol=1e-8)
    total, err = quad.norm_value(GAUSS2, "u", 2, 10.0, spec)
    parts = [quad.norm_value(GAUSS2, "u", 2, 10.0, spec, zone=z)[0] for z in quad.ZONES]
    assert abs(total - math.fsum(parts)) <= 2.0 * max(err, 1e-15 * total)


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
    cases = [(GAUSS2, "u", 2, 50.0, 1e-6, 5e-7, 1.0)] + [
        (LOG_TAIL8, kind, 8, t, 1e-4, 1e-6, 2.0)
        for kind in ("u-phi2", "u")
        for t in (10.0, 40.0, 160.0)
    ] + [(LOG_TAIL8, "u", 8, 905.0, 1e-4, 1e-6, 2.0)]
    for d, kind, n, t, tol, ref_tol, guard in cases:
        v, e = quad.norm_value(d, kind, n, t, quad.QuadSpec(n=n, tol=tol, osc_guard=guard))
        ref, _ = quad.norm_value(d, kind, n, t, quad.QuadSpec(n=n, tol=ref_tol, osc_guard=guard))
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
    spec = quad.QuadSpec(n=8, tol=1e-4, osc_guard=2.0)
    grid = (20.0, 160.0, 1280.0)
    first = repr(quad.norm_series(LOG_TAIL8, "u", 8, grid, spec))
    assert repr(quad.norm_series(LOG_TAIL8, "u", 8, grid, spec)) == first
    monkeypatch.setattr(quad, "CHUNK", 1 << 21)
    assert repr(quad.norm_series(LOG_TAIL8, "u", 8, grid, spec)) == first


def test_panel_budget_guard(monkeypatch):
    monkeypatch.setattr(quad, "MAX_PANELS", 50)
    spec = quad.QuadSpec(n=2, tol=1e-6)
    with pytest.raises(quad.PanelBudgetError):
        quad.norm_value(GAUSS2, "u-phi2", 2, 5000.0, spec)


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


# the inputs of checks 08, 09 and 10: (kind, n, two times where the phase
# bound is within tol, so the split value is returned)
SPLIT_CASES = [("u-phi", 4, (1810.0, 2560.0)), ("u-phi2", 8, (1810.0, 2560.0)), ("u", 8, (905.0, 1280.0))]


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


def _guarded_only(monkeypatch):
    monkeypatch.setattr(quad, "_split_tail", lambda *args: None)


@pytest.mark.parametrize("kind,n,times", SPLIT_CASES)
def test_split_tail_within_its_phase_bound_of_the_guarded_value(monkeypatch, kind, n, times):
    d = data_mod.parse_pair("gaussian:alpha=1", "log_tail:m=1,beta=0.2", n)
    spec = quad.QuadSpec(n=n, tol=1e-4, osc_guard=2.0)
    split_tail = quad._split_tail
    bounds = []

    def spy(*args):
        out = split_tail(*args)
        bounds.append(None if out is None else out[2])
        return out

    monkeypatch.setattr(quad, "_split_tail", spy)
    split = [quad.norm_value(d, kind, n, t, spec) for t in times]
    assert None not in bounds and len(bounds) == len(times)
    _guarded_only(monkeypatch)
    for t, (v, e), bound in zip(times, split, bounds):
        guarded, _ = quad.norm_value(d, kind, n, t, spec)
        assert abs(v - guarded) <= bound <= e, (kind, t)


@pytest.mark.parametrize("kind,n", [case[:2] for case in SPLIT_CASES])
def test_early_time_keeps_the_guarded_value_bit_for_bit(monkeypatch, kind, n):
    # at t = 160 the phase bound exceeds tol, so the guarded path runs
    d = data_mod.parse_pair("gaussian:alpha=1", "log_tail:m=1,beta=0.2", n)
    spec = quad.QuadSpec(n=n, tol=1e-4, osc_guard=2.0)
    value = quad.norm_value(d, kind, n, 160.0, spec)
    _guarded_only(monkeypatch)
    assert quad.norm_value(d, kind, n, 160.0, spec) == value


@pytest.mark.parametrize("kind", ["u", "phi2"])
def test_split_tail_variation_matches_a_dense_sampling(monkeypatch, kind):
    # on Gaussian data g/phi' peaks between the 33 probe points of a piece
    # (33 points alone read 11% low at t = 1810); the Kronrod nodes of the
    # smooth integral resolve the peak
    spec = quad.QuadSpec(n=2, tol=1e-4)
    phases = []
    for t in (905.0, 1810.0):
        phases.append(quad._split_tail(GAUSS2, kind, t, spec, 1.0)[2])
    high_zone = quad._high_zone

    def dense(d, kind, t, spec, *rest):
        *head, probe = rest

        def resampled(y, _):
            y = np.linspace(y[0], y[-1], 4097)
            probe(y, quad._scaled_data_y(d, kind, t, spec.n, y))

        return high_zone(d, kind, t, spec, *head, resampled)

    monkeypatch.setattr(quad, "_high_zone", dense)
    for t, phase in zip((905.0, 1810.0), phases):
        ref = quad._split_tail(GAUSS2, kind, t, spec, 1.0)[2]
        assert 0.99 * ref <= phase <= ref, (kind, t)


# the kinds whose integrand carries the mode's phase bt above delta, and
# those that carry the oscillatory profile's phase sqrt(L) t
MODE_KINDS = ("u", "u-phi1", "u-phi2", "u-phi")
WAVE_KINDS = ("phi2", "u-phi2", "u-phi")


def _fastest_phase(kind, zone, lam, t):
    if kind in MODE_KINDS and zone in ("highmid", "high"):
        return t * np.sqrt(np.maximum(-symbols.collision_gap(lam)[1], 0.0))
    if kind in WAVE_KINDS:
        return t * np.sqrt(lam)
    return None


@pytest.mark.parametrize("kind", quad.NORM_KINDS)
def test_initial_panels_end_at_steps_of_the_fastest_phase(monkeypatch, kind):
    # every initial panel spans at most osc_guard * pi of the fastest phase,
    # and a panel between two phase steps spans exactly that
    calls = []

    def record(f, bounds, tol, max_panels):
        calls.append(bounds)
        return 0.0, 0.0, 0

    monkeypatch.setattr(quad, "_adaptive", record)
    _guarded_only(monkeypatch)
    th = quad.THRESHOLDS
    y_eta, y_delta = (math.sqrt(math.log1p(r * r)) for r in (th.eta, th.delta))
    ladder = y_eta * 2.0 ** -np.arange(1, 17)
    # each call integrates one zone, named by its first bound
    starts = {0.0: "low", y_eta: "lowmid", y_delta: "highmid"}
    for t in (10.0, 160.0, 7240.8):
        for guard in (1.0, 2.0):
            calls.clear()
            quad.norm_value(LOG_TAIL8, kind, 8, t, quad.QuadSpec(n=8, tol=1e-4, osc_guard=guard))
            assert len(calls) > 3
            step = guard * math.pi
            for x in calls:
                zone = starts.get(x[0], "high")
                lam = x * x
                steps = ~np.isin(x[1:-1], ladder)  # the bounds that are phase steps
                phase = _fastest_phase(kind, zone, lam, t)
                if phase is None:
                    assert not steps.any(), (kind, zone)
                    continue
                assert np.all(np.diff(phase) <= step * (1.0 + 1e-9)), (kind, zone, t)
                between = np.diff(phase[1:-1][steps])
                assert np.all(np.abs(between - step) <= 1e-9 * step), (kind, zone, t)


def test_phase_steps_beyond_the_budget_raise_before_any_allocation(monkeypatch):
    # a tiny osc_guard or a huge t asks for more steps than memory holds
    monkeypatch.setattr(quad, "MAX_PANELS", 100)
    y_delta = math.sqrt(math.log1p(quad.THRESHOLDS.delta**2))
    assert quad._phase_steps("u", "highmid", 300.0, 1.0, y_delta, 1.0).size == 92
    with pytest.raises(quad.PanelBudgetError):
        quad._phase_steps("u", "highmid", 1000.0, 1.0, y_delta, 1.0)


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


def test_check10_series_panel_count(monkeypatch):
    # the split tail integrates only the smooth part at t >= 905, the
    # initial panels end at steps of the mode's phase, and the middle zones
    # are skipped where their bound is negligible: check 10's series takes
    # 66,123 panels
    adaptive = quad._adaptive
    panels = []

    def counting(*args):
        out = adaptive(*args)
        panels.append(out[2])
        return out

    monkeypatch.setattr(quad, "_adaptive", counting)
    spec = quad.QuadSpec(n=8, tol=1e-4, osc_guard=2.0)
    quad.norm_series(LOG_TAIL8, "u", 8, verify._FIT_TIMES, spec)
    assert sum(panels) == 66_123


# the data of checks 06, 07 and 11 (n = 2), of 11's zero-mass series, and
# of checks 09 and 10 (n = 8)
ZERO2 = data_mod.parse_pair("zero_mass:alpha=1", "zero_mass:alpha=1", 2)
BOUND_DATA = [(GAUSS2, 2), (ZERO2, 2), (LOG_TAIL8, 8)]


@pytest.mark.parametrize("kind", quad.NORM_KINDS)
def test_middle_zone_bound_covers_the_integrated_zone(kind):
    for d, n in BOUND_DATA:
        spec = quad.QuadSpec(n=n, tol=1e-10)
        for t in (10.0, 40.0, 160.0, 640.0, 2560.0):
            bounds = quad._middle_bounds(d, kind, t, n)
            for zone, bound in zip(("lowmid", "highmid"), bounds):
                value, _ = quad.norm_value(d, kind, n, t, spec, zone=zone)
                assert value <= bound, (kind, n, t, zone)


@pytest.mark.parametrize(
    "d,kind,n,t,tol",
    [(GAUSS2, "u-phi1", 2, 1e3, 1e-6), (ZERO2, "u", 2, 640.0, 1e-6),
     (LOG_TAIL8, "u", 8, 1280.0, 1e-4), (LOG_TAIL8, "u-phi2", 8, 160.0, 1e-4)],
)
def test_skipped_middle_zones_leave_low_plus_high_and_join_the_error(d, kind, n, t, tol):
    spec = quad.QuadSpec(n=n, tol=tol, osc_guard=2.0)
    low, low_err = quad.norm_value(d, kind, n, t, spec, zone="low")
    f = quad._squared_value(d, kind, t, n)
    high, high_err = quad._tail_value(d, kind, t, spec, low, f)
    bounds = quad._middle_bounds(d, kind, t, n)
    assert np.all(bounds <= tol * abs(low + high))  # both zones are skipped
    value, err = quad.norm_value(d, kind, n, t, spec)
    assert value == math.fsum([low, high])
    assert err == math.fsum([low_err, high_err, *bounds.tolist()])


def test_series_is_the_per_time_norm_value_bit_for_bit():
    # the benchmark's tracer counts a series' panels inside its norm_value
    # calls; the grid spans times with and without skipped middle zones
    grid = (10.0, 40.0, 160.0, 640.0)
    for d, kind, n in ((GAUSS2, "u-phi1", 2), (LOG_TAIL8, "u-phi", 8)):
        spec = quad.QuadSpec(n=n, tol=1e-4, osc_guard=2.0)
        series = quad.norm_series(d, kind, n, grid, spec)
        pairs = [quad.norm_value(d, kind, n, t, spec) for t in grid]
        assert list(zip(series.values, series.errs)) == pairs
