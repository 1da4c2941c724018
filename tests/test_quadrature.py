import math

import numpy as np
import pytest

from logplate import data as data_mod
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
    cases = [(GAUSS2, "u", 2, 50.0, 1e-6, 5e-7, 1.0)] + [
        (LOG_TAIL8, kind, 8, t, 1e-4, 1e-6, 2.0)
        for kind in ("u-phi2", "u")
        for t in (10.0, 40.0, 160.0)
    ]
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


def _no_quadrature(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("quadrature ran before the input was rejected")

    monkeypatch.setattr(quad, "_gk_eval", fail)


def test_norm_value_rejects_negative_time(monkeypatch):
    _no_quadrature(monkeypatch)
    for kind in quad.NORM_KINDS:
        with pytest.raises(ValueError, match="nonnegative"):
            quad.norm_value(GAUSS2, kind, 2, -1.0)


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
    import logplate.symbols as symbols

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
