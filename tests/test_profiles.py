import math

import numpy as np
import pytest

from logplate import data as data_mod
from logplate import modes, profiles, quadrature, symbols

TH = symbols.compute_thresholds()
GAUSS2 = data_mod.parse_pair("gaussian:alpha=1", "gaussian:alpha=1", 2)
ZERO2 = data_mod.parse_pair("zero_mass:alpha=1", "zero_mass:alpha=1", 2)


def _values(kind, d, r, t):
    """The r-space reference: quadrature.node_values at radii r with the
    plain data values `value(r)` and the plain mass term
    mass_sum * phi1_coeff, with no measure folded in."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    lam = np.log1p(r * r)
    mass = d.mass_sum * profiles.phi1_coeff(lam, t)
    return quadrature.node_values(kind, lam, t, d.u0.value(r), d.u1.value(r), mass)


def _at(kind, d, r, t):
    return float(_values(kind, d, r, t)[0])


def test_phi1_at_time_zero():
    assert _at("phi1", GAUSS2, 0.37, 0.0) == pytest.approx(GAUSS2.mass_sum)


def test_phi1_vanishes_for_zero_mass_data():
    for t in (0.0, 1.0, 100.0):
        assert np.all(_values("phi1", ZERO2, [0.0, 0.5, 2.0], t) == 0.0)


def test_phi1_exponent_value():
    got = _at("phi1", GAUSS2, 1.0, 2.0)
    expo = 2.0 * math.log(2.0) * (1.0 + math.log(2.0))
    assert expo == pytest.approx(2.3472003889562933, abs=1e-15)
    assert got == pytest.approx(2.0 * math.pi * math.exp(-expo), rel=1e-14)


def test_phi1_pointwise_bound():
    rs = np.array([0.1, 0.7, 2.0, 20.0])
    for t in (0.5, 5.0, 50.0):
        val = np.abs(_values("phi1", GAUSS2, rs, t))
        assert np.all(val <= abs(GAUSS2.mass_sum) * (1.0 + rs * rs) ** (-t) * (1 + 1e-12))


def test_phi2_at_time_zero_returns_initial_value():
    rs = np.array([0.0, 0.3, 1.0, 4.0])
    got = _values("phi2", GAUSS2, rs, 0.0)
    assert got == pytest.approx(GAUSS2.u0.value(rs))


def test_phi2_unit_log_weight_quarter_period():
    # L = 1, u0 = 0, u1 = 1: phi2(pi/2) = e^{-pi/4} sin(pi/2)
    d = data_mod.RadialSpectrum(
        data_mod.GaussianProfile(1.0, 0.0, 2), data_mod.GaussianProfile(1.0, 1.0, 2)
    )
    u1v = d.u1.value(symbols.R_UNIT)
    got = _at("phi2", d, symbols.R_UNIT, math.pi / 2.0)
    assert got == pytest.approx(math.exp(-math.pi / 4.0) * u1v, rel=1e-12)


def test_phi2_underflows_to_zero_near_zero_frequency():
    assert _at("phi2", GAUSS2, 1e-8, 1.0) == 0.0
    assert _at("phi2", GAUSS2, 0.0, 3.0) == 0.0


def test_phi2_envelope_bounds():
    rs = np.array([0.2, 0.9, symbols.R_UNIT, 5.0])
    lam = np.log1p(rs * rs)
    u0v = np.abs(GAUSS2.u0.value(rs))
    u1v = np.abs(GAUSS2.u1.value(rs))
    for t in (0.5, 4.0, 30.0):
        val = np.abs(_values("phi2", GAUSS2, rs, t))
        env = np.exp(-t / (2.0 * lam))
        low = lam <= 1.0
        assert np.all(val[low] <= (env * (t * u1v + u0v) * (1 + 1e-12))[low])
        assert np.all(val <= u1v / np.sqrt(lam) + u0v + 1e-12)


def test_profile_diff_at_time_zero():
    got = _at("u-phi", GAUSS2, 0.6, 0.0)
    assert got == pytest.approx(-GAUSS2.mass_sum, rel=1e-14)


def test_profile_diff_zero_data():
    d = data_mod.RadialSpectrum(
        data_mod.GaussianProfile(1.0, 0.0, 2), data_mod.GaussianProfile(1.0, 0.0, 2)
    )
    for profile in ("phi1", "phi2", "phi"):
        assert _at(f"u-{profile}", d, 0.4, 3.0) == 0.0


def test_profile_diff_additivity():
    rs = [0.1, 0.8, 2.0]
    for t in (0.0, 1.5, 12.0):
        d_sum = _values("u-phi", GAUSS2, rs, t)
        d_one = _values("u-phi1", GAUSS2, rs, t)
        d_two = _values("u-phi2", GAUSS2, rs, t)
        p_one = _values("phi1", GAUSS2, rs, t)
        p_two = _values("phi2", GAUSS2, rs, t)
        assert d_sum == pytest.approx(d_one - p_two, abs=1e-13)
        assert d_sum == pytest.approx(d_two - p_one, abs=1e-13)


def test_diff_below_decay_envelope_plus_profile():
    # |u - phi1| <= |u| + |phi1|, with |u| controlled by the pointwise
    # factor-6 decay bound
    p = symbols.FreqPoint.from_radius(0.2)
    t = 100.0
    w = symbols.mult_weight(p, TH)
    u0v = GAUSS2.u0.value(p.r)
    u1v = GAUSS2.u1.value(p.r)
    amp_bound = math.sqrt(
        6.0 * math.exp(-0.5 * w * t) * (u1v**2 / p.lam + u0v**2)
    )
    got = abs(_at("u-phi1", GAUSS2, p.r, t))
    assert got <= amp_bound + abs(_at("phi1", GAUSS2, p.r, t))


def test_phi1_difference_matches_low_frequency_working():
    # Near r = 0 the slow root is -L(1+L) - L^2 + O(L^3) and the slow-mode
    # amplitude is M + c1 L + O(L^2), so on the diffusive scale t = z/L
    # u - phi1 = e^{-tL(1+L)} (c1 L - M t L^2) (1 + O(L)): no first-moment
    # term, hence the -(n+4)/4 rate of check 07.  z stays away from the
    # sign change at z = c1/M.  Evaluated through node_values, the path
    # check 07 integrates.
    d = GAUSS2
    mass = d.mass_sum
    c1 = (d.u0.mass + 3.0 * d.u1.mass
          - d.u0.mass / (4.0 * d.u0.alpha) - d.u1.mass / (4.0 * d.u1.alpha))
    for lam in (1e-3, 1e-2):
        r = math.sqrt(math.expm1(lam))
        lam_r = math.log1p(r * r)
        for z in (0.5, 1.0, 3.0, 5.0):
            t = z / lam
            got = _at("u-phi1", d, r, t)
            want = profiles.phi1_coeff(lam_r, t) * (c1 * lam_r - mass * t * lam_r**2)
            assert abs(got / want - 1.0) <= 8.0 * lam


def test_profile_value_dispatch():
    # every kind is the mode value, a profile, or the mode value minus the
    # profiles, in the order norm_value squares them
    rs = np.array([0.2, 0.9, 3.0])
    lam = np.log1p(rs * rs)
    t = 2.5
    u0v = GAUSS2.u0.value(rs)
    u1v = GAUSS2.u1.value(rs)
    u = _values("u", GAUSS2, rs, t)
    phi1 = _values("phi1", GAUSS2, rs, t)
    phi2 = _values("phi2", GAUSS2, rs, t)
    for i, r in enumerate(rs):
        p = symbols.FreqPoint.from_radius(r)
        assert u[i] == pytest.approx(modes.mode_solve(p, u0v[i], u1v[i], t).u.real, rel=1e-12)
    assert np.all(phi1 == GAUSS2.mass_sum * np.exp(-t * lam * (1.0 + lam)))
    sq = np.sqrt(lam)
    want2 = np.exp(-t / (2.0 * lam)) * (np.sin(sq * t) / sq * u1v + np.cos(sq * t) * u0v)
    assert phi2 == pytest.approx(want2, rel=1e-12)
    assert np.all(_values("u-phi1", GAUSS2, rs, t) == u - phi1)
    assert np.all(_values("u-phi2", GAUSS2, rs, t) == u - phi2)
    assert np.all(_values("u-phi", GAUSS2, rs, t) == u - phi1 - phi2)


def test_phi2_coeffs_without_small_node_matches_mixed_call():
    lam = np.linspace(1.0, 40.0, 101)
    t = 300.0
    plain = profiles.phi2_coeffs(lam, t)
    # lam t^2 = 9e-16 puts one node on the series branch of s2
    mixed = profiles.phi2_coeffs(np.append(lam, 1e-20), t)
    for part, whole in zip(plain, mixed):
        assert part.tobytes() == whole[:-1].tobytes()


@pytest.mark.parametrize("kind", quadrature.NORM_KINDS)
def test_y_integrand_is_the_r_space_integrand_times_dr_dy(kind):
    # norm_value integrates every zone in y = sqrt(L), r^2 = e^{y^2} - 1, with
    # the radial measure folded into the data: its integrand is the squared
    # r-space value times r^{n-1} |S^{n-1}| dr/dy, dr/dy = y e^{y^2} / r
    pairs = (("gaussian:alpha=1",) * 2, ("zero_mass:alpha=1",) * 2,
             ("gaussian:alpha=1", "log_tail:m=1,beta=0.2"))
    for n in (1, 2, 3, 8):
        area = quadrature.surface_area(n)
        for pair in pairs:
            d = data_mod.parse_pair(*pair, n)
            f = quadrature._squared_value(d, kind, n)
            for t in (10.0, 1e3):
                for zone, (lo, hi) in quadrature._Y_ZONES.items():
                    y = lo + (hi - lo) * np.array([0.1, 0.5, 0.9])
                    r = np.sqrt(np.expm1(y * y))
                    ref = _values(kind, d, r, t) ** 2 * r ** (n - 1) * area * y * np.exp(y * y) / r
                    assert np.all(np.abs(f(y, t) - ref) <= 1e-10 * ref), (pair, n, t, zone)
