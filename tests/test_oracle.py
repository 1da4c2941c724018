import math

import pytest

from logplate import modes, oracle, symbols


def test_zero_frequency_analytic():
    p = symbols.FreqPoint.from_radius(0.0)
    state = oracle.integrate_mode(p, 0.0, 1.0, 2.0)
    assert state.u.real == pytest.approx(1.0 - math.exp(-2.0), rel=1e-10)
    assert state.v.real == pytest.approx(math.exp(-2.0), rel=1e-10)


def test_zero_time_identity():
    p = symbols.FreqPoint.from_radius(2.0)
    state = oracle.integrate_mode(p, 1.0 + 2.0j, -3.0j, 0.0)
    assert state.u == 1.0 + 2.0j and state.v == -3.0j


def test_cross_validates_closed_form():
    p = symbols.FreqPoint.from_radius(3.0)
    cfg = oracle.IntegratorConfig(rel_tol=1e-10)
    exact = modes.mode_solve(p, 1.0, 1.0, 20.0)
    num = oracle.integrate_mode(p, 1.0, 1.0, 20.0, cfg)
    scale = math.hypot(abs(exact.u), abs(exact.v))
    assert math.hypot(abs(exact.u - num.u), abs(exact.v - num.v)) / scale < 1e-8


def test_scaled_error():
    p = symbols.FreqPoint.from_radius(3.0)
    state = modes.mode_solve(p, 1.0, 1.0, 20.0)
    assert oracle.scaled_error(state, state, 1.0, 1.0) == 0.0
    a = modes.ModeState(3.0 + 0j, 0j, 1.0)
    b = modes.ModeState(3.0 + 1j, 2j, 1.0)
    # distance sqrt(1 + 4), scale max(|a| = 3, |(u0, u1)| = 5)
    assert oracle.scaled_error(a, b, 3.0, 4.0) == pytest.approx(math.sqrt(5.0) / 5.0, rel=1e-15)
    assert oracle.scaled_error(modes.ModeState(0j, 0j, 1.0), b, 0.0, 0.0) == 0.0


def test_tolerance_convergence():
    # the error against the closed form shrinks with rel_tol and stays below it
    p = symbols.FreqPoint.from_radius(1.5)
    exact = modes.mode_solve(p, 1.0, -0.5, 30.0)
    tols = (1e-6, 1e-8, 1e-10)
    errs = [
        oracle.scaled_error(
            exact,
            oracle.integrate_mode(p, 1.0, -0.5, 30.0, oracle.IntegratorConfig(rel_tol=tol)),
            1.0,
            -0.5,
        )
        for tol in tols
    ]
    assert errs[0] > errs[1] > errs[2]
    assert all(err < tol for err, tol in zip(errs, tols))


def test_energy_monotone_along_samples():
    p = symbols.FreqPoint.from_radius(0.8)
    prev = math.inf
    for t in [0.5 * k for k in range(1, 40)]:
        state = oracle.integrate_mode(p, 1.0, 1.0, t)
        e0 = modes.energy_density(p, state, 0.0).e0
        assert e0 <= prev + 1e-12
        prev = e0


def test_step_budget_is_a_distinct_failure(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_STEPS", 10_000)
    p = symbols.FreqPoint.from_radius(100.0)
    cfg = oracle.IntegratorConfig(rel_tol=1e-10)
    with pytest.raises(oracle.StepBudgetError, match="step budget 10000 exhausted"):
        oracle.integrate_mode(p, 1.0, 0.0, 1e5, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        oracle.IntegratorConfig(rel_tol=1e-3)  # looser than the contract allows
    with pytest.raises(ValueError):
        oracle.IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        oracle.integrate_mode(symbols.FreqPoint.from_radius(1.0), 1.0, 0.0, -2.0)


def test_complex_data_round_trip():
    p = symbols.FreqPoint.from_radius(0.9)
    u0, u1 = 1.0 - 2.0j, 0.5j
    exact = modes.mode_solve(p, u0, u1, 12.0)
    num = oracle.integrate_mode(p, u0, u1, 12.0, oracle.IntegratorConfig(rel_tol=1e-10))
    scale = math.hypot(abs(exact.u), abs(exact.v))
    assert math.hypot(abs(exact.u - num.u), abs(exact.v - num.v)) / scale < 1e-8
