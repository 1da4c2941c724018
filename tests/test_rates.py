import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from logplate import cli, quadrature, rates, verify
from logplate.quadrature import NormSeries


def _series(ts, values, kind="u", zone="all", n=2):
    return NormSeries(kind, zone, n, tuple(ts), tuple(values), tuple(0.0 for _ in ts))


TS = tuple(10.0 * 2.0 ** (k / 2.0) for k in range(16))


def test_exact_power_law():
    s = _series(TS, [t**-1.5 for t in TS])
    fit = rates.fit_rate(s, (TS[0], TS[-1]))
    assert fit.slope == pytest.approx(-1.5, abs=1e-12)
    assert fit.residual < 1e-12


def test_perturbed_power_law():
    ts = [t for t in TS if 100.0 <= t <= 10_000.0]
    s = _series(ts, [t**-2.0 * (1.0 + 1.0 / t) for t in ts])
    fit = rates.fit_rate(s, (100.0, 10_000.0))
    assert -2.01 <= fit.slope <= -1.99


@given(st.floats(min_value=1e-6, max_value=1e6))
def test_fit_invariant_under_positive_scaling(scale):
    base = _series(TS, [t**-1.2 * (1.0 + 0.1 * math.sin(math.log(t))) for t in TS])
    scaled = _series(TS, [scale * v for v in base.values])
    f0 = rates.fit_rate(base, (TS[0], TS[-1]))
    f1 = rates.fit_rate(scaled, (TS[0], TS[-1]))
    assert f1.slope == pytest.approx(f0.slope, abs=1e-9)
    assert f1.residual == pytest.approx(f0.residual, abs=1e-9)


def test_fit_window_requirements():
    s = _series(TS, [t**-1.0 for t in TS])
    with pytest.raises(ValueError):
        rates.fit_rate(s, (TS[0], TS[2]))  # too few samples
    bad = _series(TS[:6], [1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        rates.fit_rate(bad, (TS[0], TS[5]))  # non-positive value


def test_band_exact_power_law():
    s = _series(TS, [3.0 * t**-0.5 for t in TS])
    band = rates.two_sided_band(s, -0.5)
    assert band.ratio == pytest.approx(1.0, abs=1e-12)
    assert band.passed and not band.drift


def test_band_detects_drift():
    s = _series(TS, [t**-0.8 for t in TS])
    band = rates.two_sided_band(s, -0.5, ratio_cap=1e9)
    assert band.drift and not band.passed


def test_band_ratio_cap():
    values = [t**-0.5 * (2.0 if i % 2 else 1.0) for i, t in enumerate(TS)]
    band = rates.two_sided_band(_series(TS, values), -0.5, ratio_cap=1.5)
    assert not band.passed and band.ratio == pytest.approx(2.0, rel=1e-12)


def test_classify_reference_cases():
    r31 = rates.classify(3, 1.0)
    assert r31.regime is rates.DecayRegime.DIFFUSION_LIKE
    assert r31.profile == "phi1"
    assert r31.diff_exponent == pytest.approx(-1.0)

    r81 = rates.classify(8, 1.0)
    assert r81.regime is rates.DecayRegime.WAVE_LIKE
    assert r81.profile == "phi2"
    assert r81.diff_exponent == pytest.approx(-2.0)

    r41 = rates.classify(4, 1.0)
    assert r41.regime is rates.DecayRegime.BOTH
    assert r41.profile == "phi"
    assert r41.diff_exponent == pytest.approx(-1.5)


def test_classify_exponent_is_min_of_branches():
    assert rates.classify(2, 1.0).diff_exponent == pytest.approx(-1.0)  # (n+2)/4
    assert rates.classify(3, 1.2).diff_exponent == pytest.approx(-1.1)  # (l+1)/2
    assert rates.classify(3, 1.5).diff_exponent == pytest.approx(-1.25)  # seam: equal branches
    assert rates.classify(10, 1.0).diff_exponent == pytest.approx(-2.0)  # (l+3)/2
    assert rates.classify(12, 4.0).diff_exponent == pytest.approx(-3.0)  # n/4


def test_classify_covers_and_labels():
    for n in range(1, 13):
        for l in (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0):
            rep = rates.classify(n, l)
            lstar = n / 2.0 - 1.0
            if abs(l - lstar) < 1e-12:
                expect = rates.DecayRegime.BOTH if n >= 4 else rates.DecayRegime.DIFFUSION_LIKE
                # l = lstar with n < 4 never happens for l >= 1
                assert rep.regime is expect
            elif l > lstar:
                assert rep.regime is rates.DecayRegime.DIFFUSION_LIKE
            elif n >= 5:
                assert rep.regime is rates.DecayRegime.WAVE_LIKE
            else:
                assert rep.regime is rates.DecayRegime.UNCOVERED


def test_classify_uncovered_inputs():
    rep = rates.classify(4, 0.5)
    assert rep.regime is rates.DecayRegime.UNCOVERED
    assert rep.profile is None and rep.diff_exponent is None
    assert rep.sol_exponent_upper is None
    with pytest.raises(ValueError):
        rates.classify(0, 1.0)
    with pytest.raises(ValueError):
        rates.classify(3, -1.0)
    with pytest.raises(ValueError):
        rates.classify(3, math.nan)


def test_classify_data_with_every_l():
    # Gaussian and zero-mass data have l = inf: at n <= 2, and in all but
    # diff_exponent at n = 3, what l = 1 gives (the checks' pairs sit at
    # n = 2 and 3); beyond, the diffusion-like branch at -(n+2)/4
    for n in (1, 2, 3):
        every, one = rates.classify(n, math.inf), rates.classify(n, 1.0)
        assert every.l == math.inf
        assert dataclasses.replace(every, l=1.0, diff_exponent=one.diff_exponent) == one
        assert every.diff_exponent == (one.diff_exponent if n < 3 else -1.25)
    for n in (4, 8):
        rep = rates.classify(n, math.inf)
        assert (rep.regime, rep.profile) == (rates.DecayRegime.DIFFUSION_LIKE, "phi1")
        assert rep.diff_exponent == -(n + 2) / 4.0
        assert rep.sol_exponent_upper == -n / 4.0 and rep.two_sided


def test_solution_norm_exponents():
    assert rates.classify(2, 1.0).sol_exponent_upper == pytest.approx(-0.5)
    assert rates.classify(2, 1.0).two_sided
    r84 = rates.classify(8, 4.0)  # l > n/2 - 1
    assert r84.sol_exponent_upper == pytest.approx(-2.0) and r84.two_sided
    r81 = rates.classify(8, 1.0)  # regularity-limited branch, lower bound open
    assert r81.sol_exponent_upper == pytest.approx(-1.0) and not r81.two_sided
    r43 = rates.classify(4, 1.0)  # boundary l = n/2 - 1 belongs to the upper branch
    assert r43.sol_exponent_upper == pytest.approx(-1.0) and not r43.two_sided


def test_norm_series_input_validation():
    with pytest.raises(ValueError):
        _series((10.0, 5.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        _series((1.0, 2.0), (1.0, -1.0))


def test_consumers_integrate_only_window_times(monkeypatch, capsys):
    # the times at which any interval is integrated, in order
    seen = []
    adaptive = quadrature._adaptive

    def record(f, lo, hi, sizes, ts, *args, **kwargs):
        seen.extend(sorted({float(t) for t in ts} - set(seen)))
        return adaptive(f, lo, hi, sizes, ts, *args, **kwargs)

    monkeypatch.setattr(quadrature, "_adaptive", record)
    assert verify.run_check("07-diffusion-profile-rate").passed
    lo, hi = verify.FIT_WINDOW
    assert seen == [t for t in quadrature.default_time_grid() if lo <= t <= hi]
    assert len(seen) == 13

    seen.clear()
    assert cli.main([
        "rates", "--n", "2", "--data-u0", "gaussian:alpha=1",
        "--data-u1", "gaussian:alpha=1", "--t-count", "12",
    ]) == 0
    assert seen and min(seen) >= 10.0 * 10.0  # the first decade of t0 = 10 is never read
