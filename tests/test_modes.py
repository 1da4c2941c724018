import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from logplate import modes, oracle, profiles, symbols

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


@pytest.mark.parametrize("t", [1e154, 1e200, np.float64(1e200)], ids=["1e154", "1e200", "np1e200"])
@pytest.mark.parametrize("u0,u1", [(1.0, 0.5), (1.0 + 2.0j, 1e150)])
@pytest.mark.parametrize("r", R_SAMPLES + (1e3,))
def test_no_overflow_warning_where_the_time_squared_overflows(r, u0, u1, t):
    # t^2 overflows beyond t ~ 1.3e154, and c^2 t^2 where c^2 < -1.8 at
    # t = 1e154: every part underflows (but u0 + u1 at r = 0), and the array
    # kernel the float path falls back to reads c^2 t^2 as -inf, with no
    # numpy overflow warning; a numpy float t gives the Python float's results
    p = symbols.FreqPoint.from_radius(r)
    s = modes.mode_solve(p, u0, u1, t)
    assert (abs(s.u), abs(s.v)) == (abs(u0 + u1) if r == 0.0 else 0.0, 0.0)
    assert s == modes.mode_solve(p, u0, u1, float(t))
    assert [type(x) for x in s] == [complex, complex, float]
    assert modes.pointwise_bound_check(p, u0, u1, t, TH).passed


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
    for t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            modes.pointwise_bound_check(symbols.FreqPoint.from_radius(0.5), 1.0, 1.0, t, TH)


def test_amplitude_form_needs_a_positive_log_weight():
    # below r ~ 1.5e-162, r^2 underflows and L = 0 as at r = 0; just above,
    # L is subnormal and 1/L overflows, so the margin reads inf
    tiny = symbols.FreqPoint.from_radius(1e-170)
    assert tiny.lam == 0.0
    res = modes.pointwise_bound_check(tiny, 1.0, 1.0j, 1.0, TH)
    assert res.passed and res.amplitude_margin is None
    sub = symbols.FreqPoint.from_radius(1e-160)
    assert 0.0 < sub.lam < 2.2250738585072014e-308
    res = modes.pointwise_bound_check(sub, 1.0, 1.0j, 1.0, TH)
    assert res.passed and res.amplitude_margin == math.inf


def test_pointwise_results_are_frozen_tuples_with_their_fields():
    p = symbols.FreqPoint.from_radius(0.5)
    state = modes.mode_solve(p, 1.0, 1.0j, 2.0)
    dens = modes.energy_density(p, state, 0.1)
    bound = modes.pointwise_bound_check(p, 1.0, 1.0j, 2.0, TH)
    assert state._fields == ("u", "v", "t")
    assert dens._fields == ("e0", "e_mod", "f_mod", "r_mult")
    assert bound._fields == ("passed", "energy_margin", "amplitude_margin")
    for obj, name in ((state, "u"), (dens, "e0"), (bound, "passed")):
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))


def test_float_path_results_have_exact_python_types():
    # the results are built from the kernel's values with no conversion
    # beyond those that keep numpy scalars out: an np.float64 t makes the
    # kernel compute in numpy scalars; real data give the margins of
    # complex(x, 0) data, as |x| is hypot(x, 0)
    for r in R_SAMPLES:
        p = symbols.FreqPoint.from_radius(r)
        w = symbols.mult_weight(p, TH)
        for u0, u1 in DATA:
            for t in (1e-9, 2.0, 50.0, np.float64(2.0), np.float64(50.0)):
                state = modes.mode_solve(p, u0, u1, t)
                dens = modes.energy_density(p, state, w)
                bound = modes.pointwise_bound_check(p, u0, u1, t, TH)
                assert [type(x) for x in state] == [complex, complex, float]
                assert [type(x) for x in dens] == [float] * 4
                assert [type(x) for x in bound[:2]] == [bool, float]
                assert type(bound.amplitude_margin) is (float if r > 0.0 else type(None))
                as_complex = modes.pointwise_bound_check(p, complex(u0), complex(u1), t, TH)
                assert bound == as_complex


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
    lam = np.array([symbols.log_weight(r) for r in radii])
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
@example(TH.delta * (1.0 + 1e-10), 2.0, 2.0, 3.0)  # real data: series
@example(2.0, 150.0, 2.0, 3.0)  # real data: oscillating
@example(0.3, 2.0, 2.0, -1.0)  # real data: unified real
@example(0.0, 40.0, 2.0, 3.0)  # real data: eigen
def test_mode_solve_is_the_array_kernel_entry_bit_for_bit(r, t, u0, u1):
    # mode_solve's float dispatch runs in Python float and complex arithmetic,
    # which must round as numpy's float64 and complex128 do on an array entry,
    # down to the sign of a zero part
    p = symbols.FreqPoint.from_radius(r)
    s = modes.mode_solve(p, u0, u1, t)
    lam = np.array([symbols.log_weight(r)])
    u, v = modes.propagator_coeffs(lam, t, np.array([u0]), np.array([u1]), velocity=True)
    assert (np.array([s.u, s.v], dtype=complex).tobytes()
            == np.array([u[0], v[0]], dtype=complex).tobytes())
    if t > 0.0:
        # the bound's margins alike whether the kernel's last point is this
        # one (right after mode_solve on the same objects) or another
        held = modes.pointwise_bound_check(p, u0, u1, t, TH)
        modes.mode_solve(symbols.FreqPoint.from_radius(r + 1.0), u0, u1, t)
        assert repr(held) == repr(modes.pointwise_bound_check(p, u0, u1, t, TH))


def _fresh(x):
    # an equal object with the same bits that is not `x` itself
    y = pickle.loads(pickle.dumps(x))
    assert y is not x
    return y


def test_the_kernel_remembers_one_point_by_the_identity_of_its_arguments(monkeypatch):
    calls = []
    gap = modes.collision_gap
    monkeypatch.setattr(modes, "collision_gap", lambda lam: calls.append(lam) or gap(lam))
    p = symbols.FreqPoint.from_radius(0.5)
    u0, u1, t = _fresh(1.0 + 0.5j), _fresh(-0.25 + 1.0j), _fresh(3.0)
    state = modes.mode_solve(p, u0, u1, t)
    modes.energy_density(p, state, symbols.mult_weight(p, TH))
    bound = modes.pointwise_bound_check(p, u0, u1, t, TH)
    assert len(calls) == 1
    # the same values as other objects, one argument at a time: evaluated anew
    for k in range(4):
        lam_k, t_k, u0_k, u1_k = (
            _fresh(x) if i == k else x for i, x in enumerate((p.lam, t, u0, u1))
        )
        modes.mode_solve(p, u0, u1, t)
        calls.clear()
        again = modes.pointwise_bound_check(symbols.FreqPoint(p.r, lam_k), u0_k, u1_k, t_k, TH)
        assert len(calls) == 1 and repr(again) == repr(bound)
    # zero data, then zero data with negative zero parts, at a point where
    # they give different bits: equal in value, so only identity tells them apart
    p, t = symbols.FreqPoint.from_radius(2.0), 150.0
    lam = np.array([p.lam])
    results = []
    for z in (0j, complex(-0.0, -0.0)):
        s = modes.mode_solve(p, z, z, t)
        u, v = modes.propagator_coeffs(lam, t, np.array([z]), np.array([z]), velocity=True)
        assert np.array([s.u, s.v]).tobytes() == np.array([u[0], v[0]]).tobytes()
        results.append(np.array([s.u, s.v]).tobytes())
    assert results[0] != results[1]


@pytest.mark.parametrize("zone", ["all", "high"])
def test_kernel_with_a_time_per_node_is_each_time_alone(zone):
    # a series integrates all its times in one call, each node at its own t:
    # every node gets the bytes of a call at its own time alone.  "all" mixes
    # the four branches of the mode and the series of phi2's sinc, with
    # t = 0 on some nodes; "high" has t > 0 on the all-oscillating high zone
    rng = np.random.default_rng(23)
    if zone == "all":
        radii = np.concatenate((R_SAMPLES, 10.0 ** rng.uniform(-6.0, 1.0, 200)))
        lam = np.array([symbols.log_weight(r) for r in radii])
        times = (0.0, 1e-5, 2.0, 40.0, 300.0)
    else:
        lam = rng.uniform(1.0, 40.0, 200)
        times = (0.5, 10.0, 1810.0, 1e4)
    t = rng.choice(times, lam.size)
    v0 = rng.standard_normal(lam.size) + 1j * rng.standard_normal(lam.size)
    v1 = rng.standard_normal(lam.size)
    together = (*modes.propagator_coeffs(lam, t, v0, v1, velocity=True),
                modes.propagator_coeffs(lam, t, v0, v1), *profiles.phi2_coeffs(lam, t),
                profiles.phi2_envelope(lam, t))
    for time in times:
        at = t == time
        alone = (*modes.propagator_coeffs(lam[at], time, v0[at], v1[at], velocity=True),
                 modes.propagator_coeffs(lam[at], time, v0[at], v1[at]),
                 *profiles.phi2_coeffs(lam[at], time), profiles.phi2_envelope(lam[at], time))
        assert at.any()
        for whole, part in zip(together, alone):
            assert whole[at].tobytes() == part.tobytes(), time


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
