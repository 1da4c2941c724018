import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from logplate import modes, oracle, symbols

TH = symbols.compute_thresholds()

R_SAMPLES = (0.0, 1e-4, 0.2, TH.eta, TH.delta * (1 - 1e-8), TH.delta * (1 + 1e-8),
             0.7, 1.0, symbols.R_UNIT, 3.0)
DATA = ((1.0, 0.0), (0.0, 1.0), (1.0, -1.0), (0.5 + 0.25j, -0.75 + 1.0j))


def test_initial_condition():
    for r in R_SAMPLES:
        p = symbols.FreqPoint.from_radius(r)
        for u0, u1 in DATA:
            s = modes.mode_solve(p, u0, u1, 0.0)
            assert s.u == u0 and s.v == u1


def test_zero_frequency_analytic():
    # at r = 0 the equation degenerates to u'' + u' = 0
    p = symbols.FreqPoint.from_radius(0.0)
    for t in (0.1, 2.0, 40.0):
        s = modes.mode_solve(p, 2.0, 3.0, t)
        assert s.u == pytest.approx(2.0 + 3.0 * (1.0 - math.exp(-t)), rel=1e-14)
        assert s.v == pytest.approx(3.0 * math.exp(-t), rel=1e-14)


def test_fast_aligned_data_is_exact():
    # data along the fast root at r = 0: u(t) = e^{-t} survives even when
    # e^{-t} is far below the resolution of the naive cosh/sinh assembly
    p = symbols.FreqPoint.from_radius(0.0)
    for t in (50.0, 100.0, 500.0):
        s = modes.mode_solve(p, 1.0, -1.0, t)
        assert s.u.real == pytest.approx(math.exp(-t), rel=1e-13)
        assert s.v.real == pytest.approx(-math.exp(-t), rel=1e-13)


def test_matches_oracle_at_unit_radius():
    p = symbols.FreqPoint.from_radius(1.0)
    exact = modes.mode_solve(p, 1.0, 0.0, 5.0)
    num = oracle.integrate_mode(p, 1.0, 0.0, 5.0, oracle.IntegratorConfig(rel_tol=1e-10))
    rel = abs(exact.u - num.u) / abs(num.u)
    assert rel < 1e-8


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        modes.mode_solve(symbols.FreqPoint.from_radius(1.0), 1.0, 0.0, -1.0)


def test_ode_residual_by_finite_differences():
    h = 1e-4
    for r in R_SAMPLES:
        p = symbols.FreqPoint.from_radius(r)
        lam = p.lam
        for t in (0.5, 3.0, 17.0):
            um = modes.mode_solve(p, 1.0, -0.5, t - h).u
            s = modes.mode_solve(p, 1.0, -0.5, t)
            up = modes.mode_solve(p, 1.0, -0.5, t + h).u
            utt = (up - 2.0 * s.u + um) / (h * h)
            res = abs((1.0 + lam) * utt + s.v + lam * (1.0 + lam) * s.u)
            assert res < 1e-5 * (1.0 + abs(s.u))


def test_energy_density_example():
    p = symbols.FreqPoint.from_radius(1.0)
    dens = modes.energy_density(p, modes.ModeState(1.0 + 0j, 0j, 0.0), 0.0)
    assert dens.e0 == pytest.approx(math.log(2.0) * (1.0 + math.log(2.0)) / 2.0, rel=1e-14)
    zero = modes.energy_density(p, modes.ModeState(0j, 0j, 0.0), 0.3)
    assert (zero.e0, zero.e_mod, zero.f_mod, zero.r_mult) == (0.0, 0.0, 0.0, 0.0)


def _density(p, w, u0, u1, t):
    return modes.energy_density(p, modes.mode_solve(p, u0, u1, t), w)


def test_energy_identities_and_inequalities():
    h = 1e-4
    for r in (0.0, 0.2, TH.eta, 0.7, 1.0, 2.0):
        p = symbols.FreqPoint.from_radius(r)
        w = symbols.mult_weight(p, TH)
        for u0, u1 in ((1.0, 0.0), (1.0, 1.0)):
            for t in (0.5, 3.0, 20.0):
                lo = _density(p, w, u0, u1, t - h)
                hi = _density(p, w, u0, u1, t + h)
                mid = _density(p, w, u0, u1, t)
                v = modes.mode_solve(p, u0, u1, t).v
                assert abs((hi.e0 - lo.e0) / (2 * h) + abs(v) ** 2) < 1e-6
                de = (hi.e_mod - lo.e_mod) / (2 * h)
                assert abs(de + mid.f_mod - mid.r_mult) < 1e-6
                assert de + 0.5 * w * mid.e_mod <= 1e-8
                assert 0.5 * mid.e0 - 1e-12 <= mid.e_mod <= 3.0 * mid.e0 + 1e-12


def test_base_energy_nonincreasing():
    for r in (0.1, 0.5, 1.0, 5.0):
        p = symbols.FreqPoint.from_radius(r)
        ts = np.linspace(0.0, 30.0, 200)
        e0 = [modes.energy_density(p, modes.mode_solve(p, 1.0, 1.0, t), 0.0).e0 for t in ts]
        assert np.all(np.diff(e0) <= 1e-12)


def test_regime_continuity_across_collision():
    # The solution is analytic in r straight through the root collision, but
    # it is not constant: across the 1e-8 straddle its sinh-type factor
    # genuinely varies by ~ 8.5e-9 t^2 (the change of c^2 t^2 over the
    # straddle), which passes 1e-6 near t ~ 15.  The branch check therefore
    # uses the literal 1e-6 bound at short times and the analytic variation
    # scale at t = 100.
    for t in (1.0, 10.0, 100.0):
        lo = modes.mode_solve(symbols.FreqPoint.from_radius(TH.delta * (1 - 1e-8)), 1.0, 1.0, t)
        hi = modes.mode_solve(symbols.FreqPoint.from_radius(TH.delta * (1 + 1e-8)), 1.0, 1.0, t)
        tol = max(1e-6, 5e-9 * t * t)
        assert abs(lo.u - hi.u) < tol * max(abs(lo.u), 1e-30)
        assert abs(lo.v - hi.v) < tol * max(abs(lo.v), 1e-30)


def test_collision_straddle_difference_shrinks_linearly():
    # halving the straddle halves the difference: no branch discontinuity
    def gap(eps, t=50.0):
        lo = modes.mode_solve(symbols.FreqPoint.from_radius(TH.delta * (1 - eps)), 1.0, 1.0, t)
        hi = modes.mode_solve(symbols.FreqPoint.from_radius(TH.delta * (1 + eps)), 1.0, 1.0, t)
        return abs(lo.u - hi.u) / abs(lo.u)

    g8, g9 = gap(1e-8), gap(0.5e-8)
    assert 0.3 < g9 / g8 < 0.7


def test_no_overflow_at_large_time():
    # cosh(ct) alone would overflow near t ~ 1500 here
    p = symbols.FreqPoint.from_radius(0.2)
    s = modes.mode_solve(p, 1.0, 0.0, 1e4)
    assert math.isfinite(s.u.real) and math.isfinite(s.v.real)
    # the state follows the slow root: u ~ amp * e^{lambda_plus t}
    roots = symbols.char_roots(p)
    lp, lm = roots.lambda_plus.real, roots.lambda_minus.real
    amp = lm / (lm - lp)
    assert s.u.real == pytest.approx(amp * math.exp(lp * 1e4), rel=1e-9)


def test_finite_at_the_log_weight_of_an_overflowing_square():
    # r = 1e200: r^2 overflows, L = 2 log r = 921.03 is finite, and so is the mode
    p = symbols.FreqPoint.from_radius(1e200)
    assert p.lam == pytest.approx(921.0340371976183, rel=1e-15)
    s = modes.mode_solve(p, 1.0, 0.0, 1.0)
    assert math.isfinite(abs(s.u)) and math.isfinite(abs(s.v))
    assert modes.pointwise_bound_check(p, 1.0, 0.0, 1.0, TH).passed


def test_pointwise_bound_check():
    assert modes.pointwise_bound_check(
        symbols.FreqPoint.from_radius(0.3), 1.0, 0.0, 10.0, TH
    ).passed
    assert modes.pointwise_bound_check(
        symbols.FreqPoint.from_radius(2.0), 0.0, 1.0, 50.0, TH
    ).passed
    # factor 6 at t -> 0+: wide margin by construction
    res = modes.pointwise_bound_check(symbols.FreqPoint.from_radius(0.5), 1.0, 1.0, 1e-9, TH)
    assert res.passed and res.energy_margin > 0.0
    # the amplitude form does not exist at r = 0
    at_zero = modes.pointwise_bound_check(symbols.FreqPoint.from_radius(0.0), 1.0, 1.0, 1.0, TH)
    assert at_zero.amplitude_margin is None
    with pytest.raises(ValueError):
        modes.pointwise_bound_check(symbols.FreqPoint.from_radius(0.5), 1.0, 1.0, 0.0, TH)


_finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


@given(_finite, _finite, _finite, _finite)
def test_mode_solver_is_linear(a0, b0, a1, b1):
    # superposition across both evaluation branches (unified and eigen)
    u0, u1 = complex(a0, b0), complex(a1, b1)
    for r, t in ((0.05, 40.0), (0.9, 7.0)):
        p = symbols.FreqPoint.from_radius(r)
        base = modes.mode_solve(p, 1.0, -1.0, t)
        extra = modes.mode_solve(p, u0, u1, t)
        both = modes.mode_solve(p, 1.0 + u0, -1.0 + u1, t)
        scale = abs(both.u) + abs(both.v) + 1.0
        assert abs(both.u - (base.u + extra.u)) <= 1e-12 * scale
        assert abs(both.v - (base.v + extra.v)) <= 1e-12 * scale


def test_propagator_coeffs_vectorized_matches_scalar():
    # the array kernel against mode_solve's scalar dispatch, exactly: every
    # branch (series at the collision straddle, unified real, eigen at small
    # r and late t, oscillating) and r = 1e-6 with fast-aligned data (1, -1)
    radii = R_SAMPLES + (1e-6,)
    lam = symbols.log_weight(np.array(radii))
    for t in (7.0, 40.0, 1e4):
        for u0, u1 in DATA:
            u0, u1 = complex(u0), complex(u1)
            u, v = modes.propagator_coeffs(
                lam, t, np.full(lam.shape, u0), np.full(lam.shape, u1), velocity=True
            )
            for i, r in enumerate(radii):
                s = modes.mode_solve(symbols.FreqPoint.from_radius(r), u0, u1, t)
                assert u[i] == s.u and v[i] == s.v


@settings(deadline=None)
@given(
    st.one_of(
        st.floats(min_value=-6.0, max_value=3.0).map(lambda e: 10.0**e),
        st.floats(min_value=-1e-9, max_value=1e-9).map(lambda d: TH.delta * (1.0 + d)),
    ),
    st.one_of(st.floats(min_value=0.0, max_value=300.0), st.floats(0.0, 1e-4)),
    st.complex_numbers(max_magnitude=10.0),
    st.complex_numbers(max_magnitude=10.0),
)
@example(TH.delta * (1.0 + 1e-10), 2.0, 1.0 + 2.0j, -0.5j)  # series, at the collision
@example(3.0, 1e-5, 1.0 + 2.0j, -0.5j)  # series, at t ~ 0
@example(2.0, 150.0, 1.0 + 2.0j, -0.5j)  # oscillating
@example(0.3, 2.0, 1.0 + 2.0j, -0.5j)  # unified real
@example(1e-3, 250.0, 1.0 + 2.0j, -1.0 - 2.0j)  # eigen
@example(1.0, 263.0, 2.2250738585e-313j, 0j)  # a product underflows to a signed zero
def test_mode_solve_is_the_array_kernel_entry_bit_for_bit(r, t, u0, u1):
    # mode_solve's float dispatch runs in Python float and complex arithmetic,
    # which must round as numpy's float64 and complex128 do on an array entry,
    # down to the sign of a zero part
    s = modes.mode_solve(symbols.FreqPoint.from_radius(r), u0, u1, t)
    lam = np.array([symbols.log_weight(r)])
    u, v = modes.propagator_coeffs(lam, t, np.array([u0]), np.array([u1]), velocity=True)
    assert np.array([s.u, s.v]).tobytes() == np.array([u[0], v[0]]).tobytes()


def test_propagator_all_oscillatory_call_matches_mixed_call():
    # c^2 < 0 at every node, as in the whole high zone
    lam = np.linspace(1.0, 40.0, 101)
    t = 300.0
    v0, v1 = np.cos(lam), np.sin(3.0 * lam) - 0.5
    fast = modes.propagator_coeffs(lam, t, v0, v1, velocity=True)
    # one real-root node sends the same nodes through the masked branches
    mixed = modes.propagator_coeffs(
        np.append(lam, 1e-4), t, np.append(v0, 1.0), np.append(v1, -1.0), velocity=True
    )
    for part, whole in zip(fast, mixed):
        assert part.tobytes() == whole[:-1].tobytes()
    # the quadrature's call, without the velocity, gives the same values
    assert modes.propagator_coeffs(lam, t, v0, v1).tobytes() == fast[0].tobytes()


@settings(max_examples=25, deadline=None)
@given(
    st.one_of(
        st.floats(min_value=-6.0, max_value=1.0).map(lambda e: 10.0**e),
        st.sampled_from((TH.delta * (1 - 1e-8), TH.delta * (1 + 1e-8))),
    ),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0),
    st.one_of(
        st.sampled_from(("fast-aligned", "minus")),
        st.complex_numbers(max_magnitude=10.0),
    ),
)
def test_kernel_matches_the_oracle(r, u0, u1):
    # u1 = lambda_minus u0 is data on the fast root alone, u1 = -u0 the
    # nearly fast-aligned datum of check 03.  One oracle run to t = 100 takes
    # up to 0.1 s (r = 10) and its steps grow like t, so the property stops
    # at t = 100: runs to t = 1e4 would cost seconds per example in tier-1.
    p = symbols.FreqPoint.from_radius(r)
    if u1 == "fast-aligned":
        u1 = symbols.char_roots(p).lambda_minus * u0
    elif u1 == "minus":
        u1 = -u0
    cfg = oracle.IntegratorConfig(rel_tol=1e-10)
    for num in oracle.integrate_mode_at(p, u0, u1, (1.0, 10.0, 100.0), cfg):
        exact = modes.mode_solve(p, u0, u1, num.t)
        assert oracle.scaled_error(exact, num, u0, u1) < 1e-8
