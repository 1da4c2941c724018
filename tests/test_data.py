import math

import numpy as np
import pytest

from logplate import data as data_mod
from logplate import quadrature as quad
from logplate import symbols


def test_gaussian_values():
    g = data_mod.GaussianProfile(1.0, 1.0, 2)
    assert g.value(0.0) == pytest.approx(math.pi, rel=1e-15)
    assert g.value(2.0) == pytest.approx(math.pi * math.exp(-1.0), rel=1e-14)
    assert g.mass == pytest.approx(math.pi)


def test_zero_mass_values():
    z = data_mod.ZeroMassProfile(1.0, 2)
    assert z.value(0.0) == 0.0
    assert z.mass == 0.0
    assert z.value(2.0) == pytest.approx(4.0 * math.exp(-1.0), rel=1e-14)
    rs = np.linspace(1e-6, 1.0, 300)
    assert np.all(np.abs(z.value(rs)) <= rs)


def test_log_tail_continuity_and_mass():
    lt = data_mod.LogTailProfile(1.0, 0.2, 8)
    below = lt.value(symbols.R_UNIT * (1.0 - 1e-9))
    above = lt.value(symbols.R_UNIT * (1.0 + 1e-9))
    assert below == pytest.approx(above, rel=1e-6)
    assert lt.mass == pytest.approx(math.pi**4)


def test_log_tail_regularity_boundary():
    # Beyond r_unit the squared flat value is (1+L)^{-(m+1+beta)}, so the
    # order-s integrand (1+L)^s |u|^2 dxi ~ (1+L)^{s-m-1-beta} dL is
    # integrable exactly for s < m + beta = 1.2.
    lt = data_mod.LogTailProfile(1.0, 0.2, 8)
    lam = np.array([1.0, 10.0, 1e3, 1e6, 1e12])
    slopes = np.diff(2.0 * lt.log_flat_from_lam(lam)) / np.diff(np.log1p(lam))
    assert slopes == pytest.approx(-(1.0 + 1.0 + 0.2), rel=1e-12)


def _value_via_flat(prof, lam):
    """sign * exp(log_flat_from_lam(L) - n L / 4): the plain value from the
    flat form the high zone integrates."""
    return prof.sign * np.exp(prof.log_flat_from_lam(lam) - 0.25 * prof.n * lam)


def test_log_flat_from_lam_matches_value():
    for prof in (
        data_mod.GaussianProfile(1.0, 1.0, 2),
        data_mod.ZeroMassProfile(1.0, 3),
        data_mod.LogTailProfile(1.0, 0.2, 8),
    ):
        for r in (0.3, 1.0, 2.0, 5.0):
            lam = symbols.log_weight(r)
            assert float(_value_via_flat(prof, lam)) == pytest.approx(prof.value(r), rel=1e-10)


def test_log_value_handles_extreme_log_weights():
    for prof in (
        data_mod.GaussianProfile(1.0, 1.0, 2),
        data_mod.ZeroMassProfile(1.0, 3),
        data_mod.LogTailProfile(1.0, 0.2, 8),
    ):
        grid = np.array([0.0, 1.0, 700.0, 720.0, 1e6, 1e300])
        assert not np.any(np.isnan(prof.log_flat_from_lam(grid)))


def test_flat_log_value_consistency():
    # the flat form is |value| (1+r^2)^{n/4}, also at large log-weights
    for prof in (
        data_mod.GaussianProfile(1.0, 1.0, 2),
        data_mod.ZeroMassProfile(1.0, 3),
        data_mod.LogTailProfile(1.0, 0.2, 8),
    ):
        lam = np.array([0.5, 1.0, 3.0, 20.0, 200.0])
        r = np.sqrt(np.expm1(lam))
        assert np.allclose(_value_via_flat(prof, lam), prof.value(r), rtol=1e-10, atol=0.0)


def test_values_where_the_radius_squared_overflows():
    # r^2 overflows a double for r >= 1.34e154, which raised an overflow
    # warning and read nan for zero_mass; at n = 8 every family is 0 there
    for sel in ("gaussian:alpha=1", "zero_mass:alpha=1", "log_tail:m=1,beta=0.2"):
        prof = data_mod.parse_profile(sel, 8)
        assert prof.value(1e200) == 0.0, sel
        assert prof.value(np.array([0.0, 1.0, 1e200]))[2] == 0.0, sel
    # at n = 1 the log_tail tail c (1+r^2)^{-1/4} (1+L)^{-q/2} is still about
    # 1e-103, on the log-weight 2 log r
    prof = data_mod.LogTailProfile(1.0, 0.2, 1)
    lam = symbols.log_weight(1e200)
    assert prof.value(1e200) == pytest.approx(float(_value_via_flat(prof, lam)), rel=1e-12)
    assert prof.value(1e200) > 0.0


def test_one_law_serves_every_family():
    # the families only set the law's parameters; its sign of zero holds where
    # r^2 overflows (a negative Gaussian reads -0.0 there, as its core does)
    for cls in (data_mod.GaussianProfile, data_mod.ZeroMassProfile, data_mod.LogTailProfile):
        assert cls.value is data_mod.RadialProfile.value
        assert cls.log_flat_from_lam is data_mod.RadialProfile.log_flat_from_lam
    neg = data_mod.GaussianProfile(1.0, -2.0, 8)
    assert math.copysign(1.0, neg.value(1e200)) == math.copysign(1.0, neg.value(1e3)) == -1.0
    assert neg.sign == -1.0 and neg.mass == neg.peak < 0.0
    assert data_mod.GaussianProfile(1.0, 0.0, 2).log_flat_from_lam(np.array([0.5, 800.0])).tolist() \
        == [-math.inf, -math.inf]


def test_log_tail_all_tail_call_matches_mixed_call():
    prof = data_mod.LogTailProfile(1.0, 0.2, 8)
    # every node in the tail (L >= 1), as in the whole high zone
    lam = np.linspace(1.0, 5000.0, 77)
    tail_only = prof.log_flat_from_lam(lam)
    # one core node sends the same nodes through both branches
    mixed = prof.log_flat_from_lam(np.append(lam, 0.5))
    assert tail_only.tobytes() == mixed[:-1].tobytes()


def test_y_norm_gaussian_analytic():
    # n = 1, order 0: w_1 Int pi e^{-r^2/2} dr = 2 pi sqrt(pi/2)
    g = data_mod.GaussianProfile(1.0, 1.0, 1)
    res = data_mod.y_norm(g, 0.0)
    assert not res.diverged
    assert res.value == pytest.approx(2.0 * math.pi * math.sqrt(math.pi / 2.0), rel=1e-8)


def test_y_norm_zero_data():
    g = data_mod.GaussianProfile(1.0, 0.0, 2)
    res = data_mod.y_norm(g, 3.0)
    assert res.value == 0.0 and not res.diverged


def test_y_norm_monotone_in_order():
    g = data_mod.GaussianProfile(1.0, 1.0, 2)
    values = [data_mod.y_norm(g, s).value for s in (0.0, 1.0, 2.0, 5.0)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_y_norm_divergence_flag_at_regularity_boundary():
    lt = data_mod.LogTailProfile(1.0, 0.2, 8)
    fine = data_mod.y_norm(lt, 1.0)
    assert not fine.diverged and fine.value > 0.0
    coarse = data_mod.y_norm(lt, 2.0)
    assert coarse.diverged and coarse.value == math.inf
    # one ulp below m + beta, where q - s - 1 rounds to 0 here, still finite
    ulp = data_mod.y_norm(data_mod.LogTailProfile(1.0, 0.1876037480450734, 8),
                          math.nextafter(1.1876037480450734, 0.0))
    assert not ulp.diverged and 0.0 < ulp.value < math.inf


@pytest.mark.parametrize("m,beta", [(1.0, 0.2), (0.0, 0.5), (2.0, 0.5)])
@pytest.mark.parametrize("n", [1, 2, 8])
def test_y_norm_finite_exactly_below_m_plus_beta(monkeypatch, m, beta, n):
    # the law decides: finite at s = m + beta - 0.01, where the pieces shrink
    # by only 2^-0.01 a doubling (a doubling budget flagged 1.1 < 1.2 as
    # diverged), and infinite at exactly m + beta, which q - 1 = 1.2000000000000002
    # computed in floats would let through for (1, 0.2); the finite values
    # agree within err with a run taking 2^16 times further before the
    # closed form
    prof = data_mod.LogTailProfile(m, beta, n)
    s = m + beta - 0.01
    res = data_mod.y_norm(prof, s)
    assert not res.diverged and 0.0 < res.value < math.inf
    edge = data_mod.y_norm(prof, m + beta)
    assert edge.diverged and edge.value == math.inf
    monkeypatch.setattr(quad, "_DOUBLINGS", 25)
    far = data_mod.y_norm(prof, s)
    assert abs(res.value - far.value) <= res.err_est + far.err_est


def test_parse_profile_grammar():
    g = data_mod.parse_profile("gaussian:alpha=1", 2)
    assert isinstance(g, data_mod.GaussianProfile) and g.alpha == 1.0
    g2 = data_mod.parse_profile("gaussian:alpha=0.5,amplitude=2", 2)
    assert g2.amplitude == 2.0
    lt = data_mod.parse_profile("log_tail:m=1,beta=0.2", 8)
    assert isinstance(lt, data_mod.LogTailProfile)
    with pytest.raises(ValueError):
        data_mod.parse_profile("unknown:alpha=1", 2)
    with pytest.raises(ValueError):
        data_mod.parse_profile("gaussian:width=1", 2)  # unknown key
    with pytest.raises(ValueError):
        data_mod.parse_profile("gaussian", 2)  # missing alpha
    with pytest.raises(ValueError):
        data_mod.parse_profile("log_tail:m=1,beta=nope", 8)
    with pytest.raises(ValueError, match="key 'alpha' repeated"):
        data_mod.parse_profile("gaussian:alpha=1,alpha=5", 2)  # not read as alpha = 5


@pytest.mark.parametrize(
    "selector, key",
    [
        ("gaussian:alpha=nan", "alpha"),
        ("gaussian:alpha=inf", "alpha"),
        ("gaussian:alpha=1,amplitude=nan", "amplitude"),
        ("gaussian:alpha=1,amplitude=-inf", "amplitude"),
        ("zero_mass:alpha=inf", "alpha"),
        ("log_tail:m=nan,beta=0.2", "m"),
        ("log_tail:m=1,beta=inf", "beta"),
    ],
)
def test_parse_profile_rejects_non_finite_values(selector, key):
    # float() accepts "nan" and "inf"; the parser names the key instead of
    # building a profile whose integrals overflow or read zero
    with pytest.raises(ValueError, match=f"'{key}' must be finite"):
        data_mod.parse_profile(selector, 2)


def test_pair_dimension_checked():
    with pytest.raises(ValueError):
        data_mod.RadialSpectrum(data_mod.GaussianProfile(1.0, 1.0, 2), data_mod.GaussianProfile(1.0, 1.0, 3))
    d = data_mod.parse_pair("gaussian:alpha=1", "zero_mass:alpha=1", 2)
    assert d.mass_sum == pytest.approx(math.pi)


def test_each_family_states_its_tail_exponent():
    # log_tail's q is m + 1 + beta; Gaussian and zero-mass data have no power
    # tail (q = inf); a pair has min(q0 - 1, q1), as u0 counts one order less
    # in the energy pairing
    qs = {sel: data_mod.parse_profile(sel, 2).q
          for sel in ("gaussian:alpha=1", "zero_mass:alpha=1", "log_tail:m=1.5,beta=0.2")}
    assert list(qs.values()) == [math.inf, math.inf, 1.5 + 1.0 + 0.2]
    for sel0 in qs:
        for sel1 in qs:
            assert data_mod.parse_pair(sel0, sel1, 2).q == min(qs[sel0] - 1.0, qs[sel1])


def test_each_family_states_its_regularity():
    # log_tail's l is its m; Gaussian and zero-mass data have every l; a
    # pair has min(l0 - 1, l1), the energy pairing D(L^{(l+1)/2}) x D(L^{l/2})
    ls = {sel: data_mod.parse_profile(sel, 2).l
          for sel in ("gaussian:alpha=1", "zero_mass:alpha=1", "log_tail:m=1.5,beta=0.2")}
    assert list(ls.values()) == [math.inf, math.inf, 1.5]
    for sel0 in ls:
        for sel1 in ls:
            assert data_mod.parse_pair(sel0, sel1, 2).l == min(ls[sel0] - 1.0, ls[sel1])


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        data_mod.GaussianProfile(-1.0, 1.0, 2)
    with pytest.raises(ValueError):
        data_mod.ZeroMassProfile(0.0, 2)
    with pytest.raises(ValueError):
        data_mod.LogTailProfile(1.0, 0.0, 2)
    with pytest.raises(ValueError):
        data_mod.LogTailProfile(-1.0, 0.5, 2)
    with pytest.raises(ValueError):
        data_mod.y_norm(data_mod.GaussianProfile(1.0, 1.0, 2), -1.0)


@pytest.mark.parametrize("family", ["gaussian", "zero_mass"])
@pytest.mark.parametrize("n", [1, 2, 3, 8])
def test_data_at_the_alpha_floor_read_their_closed_form_norm(family, n):
    # the floor is y0^2, y0 the first GK15 node of the 2^-16 ladder's first
    # panel, where y_norm and the solution at t = 0 are within err_est of the
    # closed form (at alpha = 1e-18 every node underflowed: 0, err_est 0)
    lo, hi = quad._build_bounds(0.0, 1.0, ladder=16)[:2]
    y0 = 0.5 * (lo + hi) + 0.5 * (hi - lo) * quad._NODES[0]
    alpha = data_mod.ALPHA_MIN
    assert alpha == quad.FIRST_NODE**2 == pytest.approx(y0 * y0, rel=1e-12)
    d = data_mod.parse_pair(f"{family}:alpha={alpha!r}", f"{family}:alpha={alpha!r}", n)
    k = n / 2.0 if family == "gaussian" else (n + 4) / 2.0
    peak = d.u0.peak if family == "gaussian" else 1.0
    exact = peak**2 * quad.surface_area(n) * math.gamma(k) * (2.0 * alpha) ** k / 2.0
    res = data_mod.y_norm(d.u0, 0.0)
    value, err = quad.norm_value(d, "u", n, 0.0, quad.QuadSpec(n=n, tol=1e-6))
    assert abs(res.value - exact) <= res.err_est and abs(value - exact) <= err


def _simpson(f, lo, hi, m):
    """Composite Simpson rule of f(y) on m (even) equal panels of [lo, hi]."""
    y = np.linspace(lo, hi, m + 1)
    v = f(y)
    return (hi - lo) / (3.0 * m) * (v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-1:2].sum())


@pytest.mark.parametrize("family", ["gaussian", "zero_mass"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_data_at_the_alpha_ceiling_read_their_references(monkeypatch, family, n):
    # at ALPHA_MAX y_norm reads the closed form, and the t = 10 norm the plain
    # Simpson sum of its integrand over y in [1, 32], where the core's peak
    # sits (the rest holds less than 1e-7 of err_est); the next double up is
    # refused before any integration
    sel = f"{family}:alpha={data_mod.ALPHA_MAX!r}"
    d = data_mod.parse_pair(sel, "gaussian:alpha=1,amplitude=0", n)
    k = n / 2.0 if family == "gaussian" else (n + 4) / 2.0
    exact = d.u0.amp**2 * quad.surface_area(n) * math.gamma(k) * (2.0 * data_mod.ALPHA_MAX) ** k / 2
    res = data_mod.y_norm(d.u0, 0.0)
    assert abs(res.value - exact) <= res.err_est
    value, err = quad.norm_value(d, "u", n, 10.0)
    f = quad._squared_value(d, "u", n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ref = _simpson(lambda y: f(y, 10.0), 1.0, 32.0, 20_000)
    assert abs(value - ref) <= err
    monkeypatch.setattr(quad, "_gk_eval", None)  # any integration would fail
    above = f"{family}:alpha={math.nextafter(data_mod.ALPHA_MAX, math.inf)!r}"
    with pytest.raises(ValueError) as info:
        data_mod.parse_profile(above, n)
    assert str(info.value).startswith(f"data {above!r}: alpha must lie in [ALPHA_MIN, ALPHA_MAX]")


@pytest.mark.parametrize("sel,n", [("gaussian:alpha=1e25", 20), ("zero_mass:alpha=1e25", 18)])
@pytest.mark.parametrize("first", [True, False])
def test_high_zone_runs_past_a_wide_core_peak(sel, n, first):
    # a core this wide peaks in |u| (1+r^2)^{n/4} near s = 1 + L = 61.6, and
    # at n = 20 the Gaussian's squared values underflow before it: the tail
    # loop stopped on those empty pieces and read 0.  Its stop now reaches
    # the data's s_peak, and the t = 10 norm reads the Simpson sum of its
    # integrand over y in [1, 32] (zero-mass data at n = 18, the largest n
    # their amplitude bound admits at alpha = 1e25)
    zero = "gaussian:alpha=1,amplitude=0"
    d = data_mod.parse_pair(*((sel, zero) if first else (zero, sel)), n)
    assert 61.0 < max(d.u0.s_peak, d.u1.s_peak) < 62.0
    value, err = quad.norm_value(d, "u", n, 10.0)
    f = quad._squared_value(d, "u", n)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        ref = _simpson(lambda y: f(y, 10.0), 1.0, 32.0, 20_000)
    assert 0.0 < ref and abs(value - ref) <= err


@pytest.mark.parametrize("n", [1, 2, 8])
def test_amplitude_bound_keeps_the_squared_values_finite(n):
    # the largest Gaussian amplitude the law accepts at alpha = 1 reaches a
    # peak |u| (1+r^2)^{n/4} within rounding of PEAK_MAX, and every norm of
    # it is finite without a warning; one percent more is refused, as is a
    # zero-mass core that the dimension makes too tall
    peak = math.pi ** (n / 2.0) * max(1.0, n) ** (n / 4.0)  # at unit amplitude
    top = data_mod.PEAK_MAX / peak * (1.0 - 1e-12)
    sel = f"gaussian:alpha=1,amplitude={top!r}"
    d = data_mod.parse_pair(sel, sel, n)
    assert 0.0 < data_mod.y_norm(d.u0, 0.0).value < math.inf
    for kind in quad.NORM_KINDS:
        value, err = quad.norm_value(d, kind, n, 10.0)
        assert 0.0 < value < math.inf and err < math.inf, kind
    with pytest.raises(ValueError, match="may exceed PEAK_MAX"):
        data_mod.parse_profile(f"gaussian:alpha=1,amplitude={1.01 * top!r}", n)
    assert data_mod.parse_profile(f"gaussian:alpha=1,amplitude={-top!r}", n).sign == -1.0
    with pytest.raises(ValueError, match="may exceed PEAK_MAX"):
        data_mod.parse_profile(f"gaussian:alpha=1,amplitude={-1.01 * top!r}", n)
    data_mod.parse_profile(f"zero_mass:alpha={data_mod.ALPHA_MAX!r}", 18)
    with pytest.raises(ValueError, match="may exceed PEAK_MAX"):
        data_mod.parse_profile(f"zero_mass:alpha={data_mod.ALPHA_MAX!r}", 19)
