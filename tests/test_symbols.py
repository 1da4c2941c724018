import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from logplate import symbols

TH = symbols.compute_thresholds()

# Frozen from an independent root bracketing (Brent) run to 1e-16 residual;
# the bisection here stops at 1e-12 residual, hence the 5e-13 slack.
BRENT_DELTA0 = 0.7700154920073377
BRENT_DELTA = 0.4436224243774064
BRENT_ETA = 0.39269373705906063


def test_log_weight_examples():
    assert symbols.log_weight(0.0) == 0.0
    assert symbols.log_weight(math.sqrt(math.e - 1.0)) == pytest.approx(1.0, abs=1e-15)
    assert symbols.log_weight(1.0) == pytest.approx(math.log(2.0), abs=1e-15)


def test_log_weight_small_r_accuracy():
    # log1p keeps full precision where naive log(1 + r^2) loses all of it
    r = 1e-8
    assert symbols.log_weight(r) == pytest.approx(r * r, rel=1e-12)
    assert symbols.log_weight(r) > 0.0
    lam4 = symbols.log_weight(1e-4)
    assert lam4 == pytest.approx(1e-8 - 0.5e-16, rel=1e-10)
    assert 0.0 < lam4 < 1e-8


def test_log_weight_rejects_negative():
    with pytest.raises(ValueError):
        symbols.log_weight(-0.5)
    with pytest.raises(ValueError):
        symbols.log_weight(np.array([0.1, -0.1]))


def test_log_weight_of_a_scalar_is_the_array_entry_bit_for_bit():
    # a float, int or numpy scalar skips the 0-d array but not np.log1p
    rng = np.random.default_rng(11)
    radii = np.concatenate(
        ([0.0, 5e-324, 1e-160, 1.0, 1e200, 1.7e308], 10.0 ** rng.uniform(-200, 150, 2000))
    )
    whole = symbols.log_weight(radii)
    for r, lam in zip(radii.tolist(), whole.tolist()):
        assert symbols.log_weight(r) == lam and symbols.log_weight(np.float64(r)) == lam
    assert symbols.log_weight(3) == symbols.log_weight(np.array([3.0]))[0]
    with pytest.raises(ValueError):
        symbols.log_weight(np.float64(-0.5))


def test_freqpoint_consistency():
    p = symbols.FreqPoint.from_radius(2.5)
    assert p.lam == symbols.log_weight(2.5)


def test_thresholds_match_independent_solver():
    assert TH.delta0 == pytest.approx(BRENT_DELTA0, abs=5e-13)
    assert TH.delta == pytest.approx(BRENT_DELTA, abs=5e-13)
    assert TH.eta == pytest.approx(BRENT_ETA, abs=5e-13)


def test_thresholds_residuals_and_ordering():
    res = TH.residuals()
    assert all(abs(v) < 1e-12 for v in res.values())
    assert 0.0 < TH.eta < TH.delta < TH.delta0 < TH.r_unit


def test_log_weight_where_the_square_overflows():
    # finite r >= 1.34e154: r^2 is inf, and L = 2 log r
    radii = np.array([1.3407807929942596e154, 1e200, 1.7e308])
    assert symbols.log_weight(radii).tolist() == pytest.approx(
        (2.0 * np.log(radii)).tolist(), rel=1e-15
    )
    assert symbols.log_weight(np.inf) == np.inf


def test_char_roots_at_zero():
    roots = symbols.char_roots(symbols.FreqPoint.from_radius(0.0))
    assert roots.lambda_plus == 0.0
    assert roots.lambda_minus == -1.0


def test_char_roots_at_unit_log_weight():
    roots = symbols.char_roots(symbols.FreqPoint.from_radius(symbols.R_UNIT))
    assert roots.lambda_plus == pytest.approx(complex(-0.25, math.sqrt(15.0) / 4.0), abs=1e-14)
    assert roots.lambda_minus == roots.lambda_plus.conjugate()


def test_char_roots_degenerate_at_delta():
    # the roots collide at delta: their gap 2 sqrt(a^2 - L) is twice the
    # root of a rounding residual, 1.05e-8
    p = symbols.FreqPoint.from_radius(TH.delta)
    roots = symbols.char_roots(p)
    assert abs(roots.lambda_plus - roots.lambda_minus) < 1e-7
    assert roots.lambda_plus.real == pytest.approx(-0.5 / (1.0 + p.lam), rel=1e-7)


def test_regime_split_at_delta():
    below = symbols.char_roots(symbols.FreqPoint.from_radius(TH.delta * (1 - 1e-6)))
    above = symbols.char_roots(symbols.FreqPoint.from_radius(TH.delta * (1 + 1e-6)))
    assert below.lambda_plus.imag == below.lambda_minus.imag == 0.0
    assert below.lambda_plus.real > below.lambda_minus.real
    assert above.lambda_plus.imag > 0.0 and above.lambda_minus == above.lambda_plus.conjugate()


@given(st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
def test_root_identities(r):
    p = symbols.FreqPoint.from_radius(r)
    roots = symbols.char_roots(p)
    lam = p.lam
    assert abs(roots.lambda_plus + roots.lambda_minus + 1.0 / (1.0 + lam)) < 1e-12
    assert abs(roots.lambda_plus * roots.lambda_minus - lam) < 1e-12
    for root in (roots.lambda_plus, roots.lambda_minus):
        assert abs((1.0 + lam) * root**2 + root + lam * (1.0 + lam)) < 1e-12


def test_explicit_root_bounds():
    kd = 1.0 + math.log(1.0 + TH.delta**2)
    for r in np.linspace(0.0, TH.delta, 200):
        p = symbols.FreqPoint.from_radius(float(r))
        roots = symbols.char_roots(p)
        lp = roots.lambda_plus.real
        lm = roots.lambda_minus.real
        assert -2.0 * kd * p.lam - 1e-12 <= lp <= -p.lam + 1e-12
        assert -1.0 - 1e-12 <= lm <= -1.0 / (2.0 * kd) + 1e-12
        assert -1.0 - 1e-12 <= lp + lm <= -1.0 / kd + 1e-12
    for r in np.linspace(0.0, TH.eta, 200):
        roots = symbols.char_roots(symbols.FreqPoint.from_radius(float(r)))
        gap = (roots.lambda_plus - roots.lambda_minus).real
        assert 1.0 / (2.0 * kd) - 1e-12 <= gap <= 1.0 + 1e-12


def test_mult_weight_examples():
    assert symbols.mult_weight(symbols.FreqPoint.from_radius(0.0), TH) == 0.0
    w1 = symbols.mult_weight(symbols.FreqPoint.from_radius(1.0), TH)
    assert w1 == pytest.approx(0.5 / (1.0 + math.log(2.0)), abs=1e-15)


def test_mult_weight_is_min_of_three():
    for r in np.linspace(1e-3, 5.0, 400):
        p = symbols.FreqPoint.from_radius(float(r))
        w = symbols.mult_weight(p, TH)
        lam = p.lam
        three = min(
            0.5 * lam * (1.0 + lam),
            0.5 / (1.0 + lam),
            0.5 * math.sqrt(lam),
        )
        assert w == pytest.approx(three, rel=1e-12)
        assert w >= 0.0


def test_mult_weight_continuous_at_crossover():
    p = symbols.FreqPoint.from_radius(TH.delta0)
    lam = p.lam
    lo = 0.5 * lam * (1.0 + lam)
    hi = 0.5 / (1.0 + lam)
    assert abs(lo - hi) < 1e-10


def test_sinhc_exponential_bound():
    # sinh(x)/x <= e^x with constant exactly 1
    x = np.geomspace(1e-8, 30.0, 500)
    assert np.all(np.sinh(x) / x <= np.exp(x))


def test_oscillation_ratio_band_above_unit_radius():
    # The mode phase rate b = sqrt(L - a^2) on the high zone, in
    # y = sqrt(L): b/y lies in [sqrt(15/16), 1), and d b/dy peaks at ~1.097
    # at y = 1 and tends to 1 as y grows: the mode's phase bt is faster than
    # the oscillatory profile's yt there, by at most 10%.
    y = np.linspace(1.0, 60.0, 200_001)
    b = np.sqrt(-symbols.collision_gap(y * y)[1])
    ratio = b / y
    assert np.all(ratio >= math.sqrt(15.0 / 16.0) * (1.0 - 1e-15))
    assert np.all(ratio < 1.0)
    slope = np.diff(b) / np.diff(y)
    assert np.all(slope <= 1.15)
    assert slope.max() == pytest.approx(1.097, abs=1e-3)
