import math

import numpy as np
import pytest

from logplate import data as data_mod
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
    assert coarse.diverged


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
