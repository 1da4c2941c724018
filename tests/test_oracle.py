import math
from fractions import Fraction

import pytest

from logplate import modes, oracle, quadrature, symbols, verify


def test_zero_frequency_analytic():
    p = symbols.FreqPoint.from_radius(0.0)
    state = oracle.integrate_mode(p, 0.0, 1.0, 2.0)
    assert state.u.real == pytest.approx(1.0 - math.exp(-2.0), rel=1e-10)
    assert state.v.real == pytest.approx(math.exp(-2.0), rel=1e-10)


def test_zero_time_identity():
    p = symbols.FreqPoint.from_radius(2.0)
    state = oracle.integrate_mode(p, 1.0 + 2.0j, -3.0j, 0.0)
    assert state.u == 1.0 + 2.0j and state.v == -3.0j
    # leading zeros return the data and leave the first step to the first
    # positive time, so that output is the one-time run's, bit for bit
    at_zero, again, later = oracle.integrate_mode_at(p, 1.0 + 2.0j, -3.0j, (0.0, 0.0, 1.5))
    assert (at_zero.u, at_zero.v, again.u, again.v) == (1.0 + 2.0j, -3.0j, 1.0 + 2.0j, -3.0j)
    alone = oracle.integrate_mode(p, 1.0 + 2.0j, -3.0j, 1.5)
    assert repr((later.u, later.v, later.t)) == repr((alone.u, alone.v, alone.t))


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
    # one budget covers all output times: about 6,300 steps reach t = 50
    # and as many again reach 100, so the run fails although each leg fits
    oracle.integrate_mode(p, 1.0, 0.0, 50.0, cfg)
    with pytest.raises(oracle.StepBudgetError, match="exhausted at t=.* of 100$"):
        oracle.integrate_mode_at(p, 1.0, 0.0, (50.0, 100.0), cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        oracle.IntegratorConfig(rel_tol=1e-3)  # looser than the contract allows
    with pytest.raises(ValueError):
        oracle.IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        oracle.integrate_mode(symbols.FreqPoint.from_radius(1.0), 1.0, 0.0, -2.0)
    with pytest.raises(ValueError):
        oracle.integrate_mode(symbols.FreqPoint.from_radius(1.0), 1.0, 0.0, math.nan)


@pytest.mark.parametrize(
    "times",
    [(2.0, 1.0), (-1.0, 1.0), (0.0, -1e-300), (math.nan,), (1.0, math.nan),
     (math.inf,), (1.0, math.inf)],
)
def test_output_times_are_checked_before_the_first_step(monkeypatch, times):
    # with no step allowed, only the validation can raise ValueError
    monkeypatch.setattr(oracle, "MAX_STEPS", 0)
    p = symbols.FreqPoint.from_radius(1.0)
    with pytest.raises(oracle.StepBudgetError):
        oracle.integrate_mode_at(p, 1.0, 0.0, (1.0,))
    with pytest.raises(ValueError, match="finite, nonnegative and nondecreasing"):
        oracle.integrate_mode_at(p, 1.0, 0.0, times)


_TH = quadrature.THRESHOLDS


@pytest.mark.parametrize(
    "r", [0.0, _TH.eta, _TH.delta * (1.0 - 1e-8), _TH.delta * (1.0 + 1e-8), 1e3]
)
def test_output_times_match_the_closed_form_on_fast_aligned_data(r):
    # u1 = -u0 lies along the fast root below delta, where the state decays
    # by orders; hence the scaled error of check 03
    p = symbols.FreqPoint.from_radius(r)
    times = (0.0, 0.1, 1.0, 10.0, 10.0, 50.0, 100.0)
    nums = oracle.integrate_mode_at(p, 1.0, -1.0, times, oracle.IntegratorConfig(rel_tol=1e-10))
    assert tuple(num.t for num in nums) == times
    for num in nums:
        exact = modes.mode_solve(p, 1.0, -1.0, num.t)
        assert oracle.scaled_error(exact, num, 1.0, -1.0) < 1e-8


# (r, L, u0, u1, t, rel_tol) -> repr of (u, v) as the step y <- P(h) y + Q(h) Ay
# gives them (R(hA) = P(h) I + Q(h) A by Cayley-Hamilton); any change of the
# step's arithmetic moves these bits.  L = log(1 + r^2) is recorded as well:
# np.log1p rounds it differently on some CPU targets (L(0.8) in the last bit).
_RECORDED = [
    ((0.0, "0x0.0p+0", 0.0, 1.0, 2.0, 1e-10),
     ("(0.864664716762332+0j)", "(0.13533528323766778+0j)")),
    ((3.0, "0x1.26bb1bbb55516p+1", 1.0, 1.0, 20.0, 1e-10),
     ("(-0.017965771506866075+0j)", "(0.09055782566101593+0j)")),
    ((1.5, "0x1.2dbc55768deb3p+0", 1.0, -0.5, 30.0, 1e-6),
     ("(0.0008292173825454063+0j)", "(-0.0008837070031273115+0j)")),
    ((0.9, "0x1.2fc889489d0a9p-1", 1.0 - 2.0j, 0.5j, 12.0, 1e-10),
     ("(-0.004236175666835307+0.022168678208905584j)",
      "(-0.01625279683355152+0.021791449779130286j)")),
    ((0.8, "0x1.fa91a6d08f8d3p-2", 1.0, 1.0, 7.5, 1e-10),
     ("(-0.18089517940708397+0j)", "(0.10289720235078244+0j)")),
    ((1e3, "0x1.ba18abb1dedc8p+3", 1.0, -1.0, 3.0, 1e-8),
     ("(0.37140840814296694+0j)", "(3.17164617890535+0j)")),
]


@pytest.mark.parametrize("case,recorded", _RECORDED)
def test_one_time_results_keep_their_recorded_bits(case, recorded):
    r, lam, u0, u1, t, tol = case
    cfg = oracle.IntegratorConfig(rel_tol=tol)
    num = oracle.integrate_mode(symbols.FreqPoint(r, float.fromhex(lam)), u0, u1, t, cfg)
    assert (repr(num.u), repr(num.v)) == recorded


def test_complex_data_round_trip():
    p = symbols.FreqPoint.from_radius(0.9)
    u0, u1 = 1.0 - 2.0j, 0.5j
    exact = modes.mode_solve(p, u0, u1, 12.0)
    num = oracle.integrate_mode(p, u0, u1, 12.0, oracle.IntegratorConfig(rel_tol=1e-10))
    scale = math.hypot(abs(exact.u), abs(exact.v))
    assert math.hypot(abs(exact.u - num.u), abs(exact.v - num.v)) / scale < 1e-8


@pytest.mark.parametrize("r", [0.0, _TH.delta * (1.0 - 1e-8), _TH.delta * (1.0 + 1e-8), 1.0])
def test_one_complex_run_gives_every_real_data_pair(r):
    # the mode ODE is linear with real coefficients, so the run with data
    # (1, i) holds X1 = Re u and X2 = Im u, and data (u0, u1) evolves to
    # u0 X1 + u1 X2: check 03's combination against a run per data pair
    p = symbols.FreqPoint.from_radius(r)
    times = (0.1, 1.0, 10.0, 50.0, 100.0)
    cfg = oracle.IntegratorConfig(rel_tol=1e-10)
    basis = oracle.integrate_mode_at(p, 1.0, 1j, times, cfg)
    for u0, u1 in ((1.0, 0.0), (0.0, 1.0), (1.0, -1.0)):
        for b, num in zip(basis, oracle.integrate_mode_at(p, u0, u1, times, cfg)):
            combo = modes.ModeState(
                u0 * b.u.real + u1 * b.u.imag, u0 * b.v.real + u1 * b.v.imag, b.t
            )
            assert oracle.scaled_error(num, combo, u0, u1) < 1e-10


# Dormand & Prince (1980): the rows a_ij of the tableau, the fifth-order
# weights (the last row: the seventh stage is taken at the new state) and
# the embedded fourth-order weights.
_DP5_A = tuple(
    tuple(Fraction(a) for a in row)
    for row in (
        (),
        ("1/5",),
        ("3/40", "9/40"),
        ("44/45", "-56/15", "32/9"),
        ("19372/6561", "-25360/2187", "64448/6561", "-212/729"),
        ("9017/3168", "-355/33", "46732/5247", "49/176", "-5103/18656"),
        ("35/384", "0", "500/1113", "125/192", "-2187/6784", "11/84"),
    )
)
_DP5_B = _DP5_A[6] + (Fraction(0),)
_DP5_BHAT = tuple(
    Fraction(b)
    for b in ("5179/57600", "0", "7571/16695", "393/640", "-92097/339200", "187/2100", "1/40")
)


def _dp5_polynomials():
    """Coefficients in z of R(z) and of the error polynomial E(z): applied to
    y' = Ay with z = hA, stage i's state is P_i(z) y and h k_i = z P_i(z) y,
    so one step is R(z) y = (1 + sum b_i z P_i) y and the estimate is
    sum (b_i - bhat_i) z P_i(z) y."""

    def axpy(a, x, y):  # a x + y on coefficient lists
        n = max(len(x), len(y))
        x, y = x + [Fraction(0)] * (n - len(x)), y + [Fraction(0)] * (n - len(y))
        return [a * xi + yi for xi, yi in zip(x, y)]

    hk = []
    for row in _DP5_A:
        state = [Fraction(1)]
        for a, k in zip(row, hk):
            state = axpy(a, k, state)
        hk.append([Fraction(0)] + state)  # times z
    step, err = [Fraction(1)], []
    for b, bhat, k in zip(_DP5_B, _DP5_BHAT, hk):
        step, err = axpy(b, k, step), axpy(b - bhat, k, err)
    return step, err


def test_step_and_error_polynomials_are_those_of_the_tableau():
    step, err = _dp5_polynomials()
    assert step[7:] == [0] and err[:5] == [0] * 5
    assert [float(c) for c in step[:7]] == list(oracle._STEP)
    assert [float(c) for c in err[5:]] == list(oracle._ERR)


def _stage_loop(p, u0, u1, times, rel_tol):
    """Reference: the generic DP5 stage loop over the tableau above, with the
    oracle's first step, PI controller and clipping; returns the states at
    `times` and the number of accepted plus rejected steps."""
    a_rows = [[float(a) for a in row] for row in _DP5_A]
    b = [float(x) for x in _DP5_B]
    e = [float(x - y) for x, y in zip(_DP5_B, _DP5_BHAT)]
    lam = p.lam

    def f(u, v):
        return v, -(v + lam * (1.0 + lam) * u) / (1.0 + lam)

    def norm(u, v):
        return math.hypot(abs(u), abs(v))

    u, v = complex(u0), complex(u1)
    t, attempts, err_prev, out = 0.0, 0, 1e-4, []
    h = min(next((s for s in times if s > 0.0), 0.0), 0.1 / (1.0 + math.sqrt(lam)))
    for t_out in times:
        while t < t_out:
            attempts += 1
            h = min(h, t_out - t)
            ku, kv = [], []  # the stages' slopes of u and v
            for row in a_rows:
                k_u, k_v = f(u + h * sum([a * k for a, k in zip(row, ku)]),
                             v + h * sum([a * k for a, k in zip(row, kv)]))
                ku.append(k_u)
                kv.append(k_v)
            un = u + h * sum([bi * k for bi, k in zip(b, ku)])
            vn = v + h * sum([bi * k for bi, k in zip(b, kv)])
            err = norm(h * sum([ei * k for ei, k in zip(e, ku)]),
                       h * sum([ei * k for ei, k in zip(e, kv)]))
            scale = rel_tol * max(norm(u, v), norm(un, vn))
            err_norm = err / scale if scale else 0.0
            if err_norm <= 1.0:
                t, u, v = t + h, un, vn
                factor = 5.0 if err_norm == 0.0 else min(
                    5.0, max(0.2, 0.85 * err_norm**-0.14 * err_prev**0.08)
                )
                err_prev = max(err_norm, 1e-10)
            else:
                factor = max(0.2, 0.85 * err_norm**-0.2)
            h *= factor
        out.append(modes.ModeState(u, v, t_out))
    return out, attempts


@pytest.mark.parametrize("r", verify.R_GRID)
def test_step_is_the_stage_loop_of_the_tableau(monkeypatch, r):
    # same states within rounding, and the same accepted and rejected steps:
    # the run fits a budget of the reference's count and not one step less;
    # over check 03's radii, data and times, so the whole check takes the
    # stage loop's steps
    p = symbols.FreqPoint.from_radius(r)
    times = verify.ORACLE_TIMES
    ref, attempts = _stage_loop(p, 1.0, 1j, times, 1e-10)
    monkeypatch.setattr(oracle, "MAX_STEPS", attempts)
    nums = oracle.integrate_mode_at(p, 1.0, 1j, times)
    for want, num in zip(ref, nums):
        assert oracle.scaled_error(want, num, 1.0, 1j) < 1e-11
    monkeypatch.setattr(oracle, "MAX_STEPS", attempts - 1)
    with pytest.raises(oracle.StepBudgetError):
        oracle.integrate_mode_at(p, 1.0, 1j, times)
