"""The acceptance suite: thirteen numbered checks gating the whole build.

Each check is pure given its inputs and produces one result record.  It is
a judge and the norms it reads (`requests`); `run_check` integrates them,
as no two checks share one, at only the times the judge reads, such as the
fit-window grid times that `rates.window_times` picks.
Check 13 re-executes checks 01, 02 and 10 and compares their canonical
serialisation (all fields except the wall-time) byte for byte.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass

from . import data as data_mod
from . import modes, oracle, quadrature, rates, symbols

__all__ = [
    "CheckResult",
    "CHECK_IDS",
    "FIT_WINDOW",
    "R_GRID",
    "ORACLE_TIMES",
    "ORACLE_REL_TOL",
    "REF_CALLS",
    "requests",
    "run_check",
    "canonical_line",
    "render_line",
]

FIT_WINDOW = (100.0, 10_000.0)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail"
    observed: str
    expected: str
    tolerance: str
    seconds: float

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def canonical_line(res: CheckResult) -> str:
    """JSON line without the (non-reproducible) timing field."""
    fields = asdict(res)
    del fields["seconds"]
    return json.dumps(fields, sort_keys=True)


def render_line(res: CheckResult) -> str:
    """Full JSON line including the measured wall time."""
    return json.dumps({**asdict(res), "seconds": round(res.seconds, 3)}, sort_keys=True)


# --------------------------------------------------------------------------
# shared fixtures

_TH = quadrature.THRESHOLDS

# Radial sample grid exercising every regime, including both sides of the
# root collision, and the output times and tolerance of check 03's integrator runs.
R_GRID = (
    0.0,
    1e-4,
    _TH.eta / 2.0,
    _TH.eta,
    0.5 * (_TH.eta + _TH.delta),
    _TH.delta * (1.0 - 1e-8),
    _TH.delta * (1.0 + 1e-8),
    0.7,
    1.0,
    _TH.r_unit,
    3.0,
    10.0,
    1e3,
)
ORACLE_TIMES = (0.1, 1.0, 10.0, 50.0, 100.0)
ORACLE_REL_TOL = 1e-10

_DATA_PAIRS = ((1.0 + 0j, 0.0 + 0j), (0.0 + 0j, 1.0 + 0j), (1.0 + 0j, -1.0 + 0j))

# Times of the exponentially small middle-zone bounds (checks 05 and 12).
_ZONE_TIMES = quadrature.default_time_grid(6) + (100.0,)

# Check 05's reference-integral calls by section, each (function name, p,
# times[, lo]); the judge looks each name up on `quadrature` as it runs, so
# that a wrapper set there after import (a tracer's) sees the call.
_IP, _JP, _MID = (f.__name__ for f in (quadrature.ref_integral_Ip, quadrature.ref_integral_Jp,
                                       quadrature.middle_zone_integral))
_CLOSED, _BAND = (2.0, 5.0, 10.0, 30.0), (20.0, 30.0, 40.0, 50.0, 60.0)
REF_CALLS = {
    "closed_form": ((_IP, 1.0, _CLOSED), (_JP, 1.0, _CLOSED)),
    "laplace": tuple((_IP, p, (1e4,)) for p in (0.0, 1.0, 2.0, 3.0)),
    "tail_band": tuple((_JP, p, _BAND) for p in (0.0, 1.0, 2.0)),
    "middle_band": tuple((_MID, p, (10.0, *_ZONE_TIMES), _TH.eta) for p in (0.0, 1.0, 2.0)),
}

# The series checks' data; judges read it from their series (`NormSeries.data`).
# Checks 07-11 take the paper's exponents, and checks 07-09 the profile they
# subtract, from rates.classify(n, l) at the data's l: a wrong classifier fails them.
_GAUSS, _LOG_TAIL, _ZERO = "gaussian:alpha=1", "log_tail:m=1,beta=0.2", "zero_mass:alpha=1"


# The default-grid times inside FIT_WINDOW, the only ones a fit or band reads.
_FIT_TIMES = rates.window_times(quadrature.default_time_grid(), FIT_WINDOW, "fit")


def _integrate(sel0: str, sel1: str, n: int, kind: str, tol: float, times, zone: str = "all"):
    """The norm of one request as a series: a float time is one `norm_value`."""
    d = data_mod.parse_pair(sel0, sel1, n)
    spec = quadrature.QuadSpec(n=n, tol=tol)
    if isinstance(times, float):
        value, err = quadrature.norm_value(d, kind, n, times, spec, zone)
        return quadrature.NormSeries(kind, zone, n, (times,), (value,), (err,), d)
    return quadrature.norm_series(d, kind, n, times, spec, zone)


def _positive_window(series: quadrature.NormSeries):
    """Sub-window of the series' times where it is positive.

    Squared norms of the oscillatory profile underflow to exactly zero for
    Gaussian data at large t (the decay is superpolynomial); a log-log fit
    is only defined on the positive part.
    """
    ts = [t for t, v in zip(series.ts, series.values) if v > 0.0]
    if not ts:
        raise ValueError("no positive samples in window")
    return ts[0], ts[-1]


# --------------------------------------------------------------------------
# checks


def _check_thresholds() -> tuple[bool, str, str, str]:
    th = symbols.compute_thresholds()
    res = th.residuals()
    worst = max(abs(v) for v in res.values())
    ordered = 0.0 < th.eta < th.delta < th.delta0 < th.r_unit
    ok = worst < 1e-12 and ordered
    return (
        ok,
        f"max_residual={worst:.3e},ordered={ordered}",
        "defining-equation residuals < 1e-12 and eta < delta < delta0 < r_unit",
        "1e-12",
    )


def _check_root_algebra() -> tuple[bool, str, str, str]:
    tol = 1e-12
    kd = 1.0 + math.log(1.0 + _TH.delta**2)
    worst = 0.0
    bounds_ok = True
    for r in R_GRID:
        p = symbols.FreqPoint.from_radius(r)
        roots = symbols.char_roots(p)
        lam = p.lam
        lp_, lm_ = roots.lambda_plus, roots.lambda_minus
        worst = max(worst, abs(lp_ + lm_ + 1.0 / (1.0 + lam)))
        worst = max(worst, abs(lp_ * lm_ - lam))
        for lam_root in (lp_, lm_):
            worst = max(
                worst,
                abs((1.0 + lam) * lam_root**2 + lam_root + lam * (1.0 + lam)),
            )
        if r <= _TH.delta:
            lp = lp_.real
            lm = lm_.real
            bounds_ok &= -2.0 * kd * lam - tol <= lp <= -lam + tol
            bounds_ok &= -1.0 - tol <= lm <= -1.0 / (2.0 * kd) + tol
            bounds_ok &= -1.0 - tol <= lp + lm <= -1.0 / kd + tol
        if r <= _TH.eta:
            gap = (lp_ - lm_).real
            bounds_ok &= 1.0 / (2.0 * kd) - tol <= gap <= 1.0 + tol
    ok = worst < tol and bounds_ok
    return (
        ok,
        f"max_residual={worst:.3e},root_bounds_ok={bool(bounds_ok)}",
        "Vieta and substitution residuals < 1e-12; explicit root bounds hold",
        "1e-12",
    )


def _check_oracle() -> tuple[bool, str, str, str]:
    # The grid contains fast-root-aligned data whose state decays by eight
    # orders (kappa * eps > 1e-8), hence the scale of oracle.scaled_error.
    # The mode ODE is linear with real coefficients, so the run with data
    # (1, i) carries both real fundamental solutions, X1 = Re u (data (1, 0))
    # and X2 = Im u (data (0, 1)); the state of data (u0, u1) is
    # u0 X1 + u1 X2.  One integration per radius serves every data pair.
    cfg = oracle.IntegratorConfig(rel_tol=ORACLE_REL_TOL)
    worst = 0.0
    for r in R_GRID:
        p = symbols.FreqPoint.from_radius(r)
        basis = oracle.integrate_mode_at(p, 1.0, 1j, ORACLE_TIMES, cfg)
        for u0, u1 in _DATA_PAIRS:
            for b in basis:
                num = modes.ModeState(
                    u0 * b.u.real + u1 * b.u.imag, u0 * b.v.real + u1 * b.v.imag, b.t
                )
                exact = modes.mode_solve(p, u0, u1, b.t)
                worst = max(worst, oracle.scaled_error(exact, num, u0, u1))
    ok = worst < 1e-8
    return (
        ok,
        f"max_rel_err={worst:.3e}",
        "closed form matches the adaptive integrator at rel_tol 1e-10",
        "1e-8",
    )


def _check_energy() -> tuple[bool, str, str, str]:
    h = 1e-4
    worst_diss = 0.0
    worst_mod = 0.0
    worst_decay = -math.inf
    sandwich_ok = True
    bound_ok = True

    def dens(p, w, u0, u1, t):
        return modes.energy_density(p, modes.mode_solve(p, u0, u1, t), w)

    for r in R_GRID:
        p = symbols.FreqPoint.from_radius(r)
        w = symbols.mult_weight(p, _TH)
        for u0, u1 in _DATA_PAIRS:
            for t in (0.5, 2.0, 10.0, 100.0):
                st = modes.mode_solve(p, u0, u1, t)
                bound_ok &= modes.pointwise_bound_check(p, u0, u1, t, _TH).passed
                mid = modes.energy_density(p, st, w)
                sandwich_ok &= 0.5 * mid.e0 - 1e-12 <= mid.e_mod <= 3.0 * mid.e0 + 1e-12
                if r > 3.0:  # the stencil error would exceed the tolerance
                    continue
                lo = dens(p, w, u0, u1, t - h)
                hi = dens(p, w, u0, u1, t + h)
                de0 = (hi.e0 - lo.e0) / (2.0 * h)
                worst_diss = max(worst_diss, abs(de0 + abs(st.v) ** 2))
                de = (hi.e_mod - lo.e_mod) / (2.0 * h)
                worst_mod = max(worst_mod, abs(de + mid.f_mod - mid.r_mult))
                worst_decay = max(worst_decay, de + 0.5 * w * mid.e_mod)
    ok = worst_diss < 1e-6 and worst_mod < 1e-6 and worst_decay <= 1e-8 and sandwich_ok and bound_ok
    return (
        ok,
        (
            f"d_dissipation={worst_diss:.2e},d_modified={worst_mod:.2e},"
            f"decay_ineq={worst_decay:.2e},sandwich={bool(sandwich_ok)},factor6={bool(bound_ok)}"
        ),
        "energy identities within 1e-6; decay inequality <= 1e-8; sandwich and factor-6 hold",
        "1e-6 (identities), 1e-8 (inequality)",
    )


def _check_integrals() -> tuple[bool, str, str, str]:
    got = {sec: [(rec, getattr(quadrature, rec[0])(*rec[1:])) for rec in recs]
           for sec, recs in REF_CALLS.items()}
    ok = True
    notes = []
    # closed forms for p = 1
    worst_closed = 0.0
    ((_, _, closed), heads), (_, tails) = got["closed_form"]
    for t, i1, j1 in zip(closed, heads, tails):
        i1_exact = (1.0 - 2.0 ** (1.0 - t)) / (2.0 * (t - 1.0))
        worst_closed = max(worst_closed, abs(i1 - i1_exact))
        j1_exact = 2.0 ** (1.0 - t) / (2.0 * (t - 1.0))
        worst_closed = max(worst_closed, abs(j1 - j1_exact))
    ok &= worst_closed < 1e-12
    notes.append(f"closed_form={worst_closed:.2e}")
    # Laplace limit of the head integral
    worst_lap = 0.0
    for (_, p_exp, (t,)), (head,) in got["laplace"]:
        val = head * t ** (0.5 * (p_exp + 1.0))
        limit = math.gamma(0.5 * (p_exp + 1.0)) / 2.0
        worst_lap = max(worst_lap, abs(val / limit - 1.0))
    ok &= worst_lap < 0.02
    notes.append(f"laplace_rel={worst_lap:.2e}")
    # tail band
    band_lo, band_hi = math.inf, -math.inf
    for (_, _, band), tails in got["tail_band"]:
        for t, tail in zip(band, tails):
            scaled = t * 2.0**t * tail
            band_lo = min(band_lo, scaled)
            band_hi = max(band_hi, scaled)
    ok &= 0.3 <= band_lo and band_hi <= 3.0
    notes.append(f"tail_band=[{band_lo:.3f},{band_hi:.3f}]")
    # exponentially small middle band with a constant fitted at its first time
    mid_ok = True
    for (_, _, (t_fit, *ts), eta), (fit, *vals) in got["middle_band"]:
        c_fit = fit * (1.0 + eta**2) ** t_fit
        for t, val in zip(ts, vals):
            mid_ok &= val <= c_fit * (1.0 + eta**2) ** (-t) * (1.0 + 1e-12)
    ok &= mid_ok
    notes.append(f"middle_band_ok={bool(mid_ok)}")
    return (
        bool(ok),
        ",".join(notes),
        "closed forms to 1e-12; Laplace limit to 2%; tail band in [0.3,3]; fitted middle bound holds",
        "see expected",
    )


def _check_profile_anchors(*norms) -> tuple[bool, str, str, str]:
    *heat, s_phi2 = norms
    ok = True
    notes = []
    worst = 0.0
    for s in heat:
        n, t = s.n, s.ts[0]
        anchor = s.data.mass_sum**2 * (math.pi / 2.0) ** (n / 2.0)
        worst = max(worst, abs(s.values[0] * t ** (n / 2.0) / anchor - 1.0))
    ok &= worst < 0.05
    notes.append(f"heat_anchor_rel={worst:.2e}")
    # oscillatory-profile norm for smooth data: superpolynomial decay, so the
    # fit runs on the positive sub-window (values underflow beyond t ~ 3e3)
    fit = rates.fit_rate(s_phi2, _positive_window(s_phi2))
    ok &= fit.slope <= -2.9
    notes.append(f"wave_norm_sq_slope={fit.slope:.2f}")
    return (
        bool(ok),
        ",".join(notes),
        "t^{n/2}||heat profile||^2 within 5% of mass^2 (pi/2)^{n/2}; wave-profile slope <= -2.9",
        "5e-2 / slope cap -2.9",
    )


def _gaussian_diffusion_constant(d: data_mod.RadialSpectrum, n: int) -> float:
    """Closed-form limit of t^{(n+4)/2} ||u - phi1||^2 for Gaussian data.

    With u_j = M_j e^{-r^2/(4 alpha_j)} and M = M_0 + M_1, the slow root is
    -L(1+L) - L^2 + O(L^3) and the slow-mode amplitude is M + c1 L + O(L^2),
    c1 = M_0 + 3 M_1 - M_0/(4 alpha_0) - M_1/(4 alpha_1).  Hence
    u - phi1 ~ e^{-t L(1+L)} (c1 L - M t L^2), and integrating its square
    with L ~ r^2 gives (|S^{n-1}|/2) sum_k a_k Gamma(n/2+k) / 2^{n/2+k} with
    (a_2, a_3, a_4) = (c1^2, -2 c1 M, M^2), formed as sum_k a_k pi^{n/2}
    (n/2)_k / 2^{n/2+k}, without the code under test.  Radial data has no
    first-moment term, so nothing decays at the slower generic rate -(n+2)/4.
    """
    u0, u1 = d.u0, d.u1
    mass = u0.mass + u1.mass
    c1 = u0.mass + 3.0 * u1.mass - u0.mass / (4.0 * u0.alpha) - u1.mass / (4.0 * u1.alpha)
    coeffs = {2: c1 * c1, 3: -2.0 * c1 * mass, 4: mass * mass}
    return math.pi ** (n / 2.0) * sum(a * math.prod(n / 2.0 + j for j in range(k))
                                      / 2.0 ** (n / 2.0 + k) for k, a in coeffs.items())


def _check_diffusion_rate(s: quadrature.NormSeries) -> tuple[bool, str, str, str]:
    n = s.n
    report = rates.classify(n, s.data.l)
    fit = rates.fit_rate(s, FIT_WINDOW)
    slope = fit.slope / 2.0
    theory = -(n + 4) / 4.0
    bound = report.diff_exponent
    limit = _gaussian_diffusion_constant(s.data, n)
    t_last, v_last = s.ts[-1], s.values[-1]
    ratio = t_last ** ((n + 4) / 2.0) * v_last / limit
    ok = abs(slope - theory) <= 0.1 and slope <= bound + 0.1 and abs(ratio - 1.0) <= 1e-2
    return (
        ok,
        f"norm_slope={slope:.4f},residual={fit.residual:.2e},t={t_last:.1f},ratio_to_K={ratio:.5f}",
        (
            f"||u - heat profile|| slope within 0.1 of -(n+4)/4 = {theory:g} and <= -(n+2)/4 + 0.1"
            f" = {bound + 0.1:g} (paper bound); t^{{(n+4)/2}}||u - heat profile||^2 at the last"
            f" window sample within 1% of closed-form K = {limit:.4f}, for n=2 Gaussian data"
        ),
        "+-0.1 (slope), +0.1 (bound), 1e-2 (K)",
    )


# Name and exponent formula of each profile, keyed by its token, as the
# expected line of checks 08 and 09 states them; phi1 is listed so that a
# classifier naming it there fails the check instead of raising.
_PROFILE_TEXT = {
    "phi1": ("heat profile", "-min((n+2)/4, (l+1)/2)"),
    "phi2": ("wave profile", "-n/4"),
    "phi": ("combined profile", "-(n+2)/4"),
}


def _profile_rate(s: quadrature.NormSeries) -> tuple[bool, str, str, str]:
    """Checks 08 (n = 4, both) and 09 (n = 8, wave-like): ||u - profile||
    of the classifier's profile decays no slower than its exponent + 0.1."""
    report = rates.classify(s.n, s.data.l)
    slope = rates.fit_rate(s, FIT_WINDOW).slope / 2.0
    theory = report.diff_exponent
    name, formula = _PROFILE_TEXT[report.profile]
    return (
        slope <= theory + 0.1,
        f"norm_slope={slope:.4f}",
        f"||u - {name}|| slope <= {theory + 0.1:g} (theory {formula} = {theory:g})"
        f" for n={s.n}, l={s.data.l:g}",
        "+0.1",
    )


def _check_solution_sharpness(s: quadrature.NormSeries) -> tuple[bool, str, str, str]:
    slope = rates.fit_rate(s, FIT_WINDOW).slope / 2.0
    upper = rates.classify(s.n, s.data.l).sol_exponent_upper
    sharp = -s.data.q / 2.0  # -(l+1+beta)/2 of the data's power tail
    return (
        abs(slope - sharp) <= 0.1 and slope <= upper + 0.1,
        f"norm_slope={slope:.4f}",
        f"||u|| slope within 0.1 of -(l+1+beta)/2 = {sharp:g} and below the theory bound"
        f" {upper:g} + 0.1",
        "+-0.1",
    )


def _check_two_sided(*norms) -> tuple[bool, str, str, str]:
    *gaussian, s0 = norms
    ok = True
    notes = []
    for s in gaussian:
        theory = rates.classify(s.n, s.data.l)
        # squared series: twice the norm exponent, compared in the band's
        # squared-series defaults (ratio cap 9 = 3^2)
        band = rates.two_sided_band(s, 2.0 * theory.sol_exponent_upper, FIT_WINDOW)
        ok &= theory.two_sided and band.passed
        notes.append(f"n{s.n}_norm_ratio={math.sqrt(band.ratio):.3f},drift={band.drift}")
    # without mass phi1 vanishes, so u itself decays like u - phi1
    cap = rates.classify(s0.n, s0.data.l).diff_exponent + 0.1
    slope = rates.fit_rate(s0, FIT_WINDOW).slope / 2.0
    ok &= slope <= cap
    notes.append(f"zero_mass_slope={slope:.4f}")
    return (
        bool(ok),
        ",".join(notes),
        f"t^{{n/4}}||u|| band ratio <= 3 without drift (n=2,3); zero-mass slope <= {cap:g}",
        f"ratio cap 3 / slope cap {cap:g}",
    )


def _check_zone_exponential(*zones) -> tuple[bool, str, str, str]:
    d = zones[0].data
    norms = data_mod.y_norm(d.u0, 0.0).value + data_mod.y_norm(d.u1, 0.0).value
    ok = True
    notes = []
    for s, rate in zip(zones, (0.5 / (1.0 + math.log(1.0 + _TH.delta**2)), 0.5)):
        ts, vals = s.ts, s.values
        c_fit = max(0.0, (vals[0] * math.exp(rate * ts[0]) / norms - 1.0) / ts[0] ** 2)
        zone_ok = all(
            v <= (1.0 + c_fit * t * t) * math.exp(-rate * t) * norms * (1.0 + 1e-9)
            for t, v in zip(ts, vals)
        )
        ok &= zone_ok
        notes.append(f"{s.zone}_ok={zone_ok},C={c_fit:.3e}")
    return (
        bool(ok),
        ",".join(notes),
        "zone norms bounded by (1 + C t^2) e^{-rate t} (data norms), C fitted at t=10, t in [10,100]",
        "fitted-constant bound",
    )


def _check_determinism() -> tuple[bool, str, str, str]:
    def snapshot() -> str:
        lines = []
        for cid in ("01-thresholds", "02-root-algebra", "10-solution-norm-sharpness"):
            lines.append(canonical_line(run_check(cid)))
        return "\n".join(lines)

    first = snapshot()
    second = snapshot()
    ok = first == second
    return (
        ok,
        "byte-identical" if ok else "outputs differ",
        "repeated runs serialise identically (timing excluded)",
        "exact",
    )


# Each check's judge, then the norms it takes as NormSeries; `requests` names
# kind None when the check runs.
_CHECKS = {
    "01-thresholds": (_check_thresholds,),
    "02-root-algebra": (_check_root_algebra,),
    "03-oracle-equivalence": (_check_oracle,),
    "04-energy-identities": (_check_energy,),
    "05-integral-asymptotics": (_check_integrals,),
    "06-profile-norm-anchors": (
        _check_profile_anchors,
        *((_GAUSS, _GAUSS, n, "phi1", 1e-6, 1e4) for n in (1, 2, 3)),
        (_GAUSS, _GAUSS, 2, "phi2", 1e-6, _FIT_TIMES),
    ),
    "07-diffusion-profile-rate":
        (_check_diffusion_rate, (_GAUSS, _GAUSS, 2, None, 1e-6, _FIT_TIMES)),
    "08-combined-profile-rate": (_profile_rate, (_GAUSS, _LOG_TAIL, 4, None, 1e-4, _FIT_TIMES)),
    "09-wave-profile-rate": (_profile_rate, (_GAUSS, _LOG_TAIL, 8, None, 1e-4, _FIT_TIMES)),
    "10-solution-norm-sharpness":
        (_check_solution_sharpness, (_GAUSS, _LOG_TAIL, 8, "u", 1e-4, _FIT_TIMES)),
    "11-optimal-two-sided": (
        _check_two_sided,
        *((_GAUSS, _GAUSS, n, "u", 1e-6, _FIT_TIMES) for n in (2, 3)),
        (_ZERO, _ZERO, 2, "u", 1e-6, _FIT_TIMES),
    ),
    "12-zone-exponential": (
        _check_zone_exponential,
        *((_GAUSS, _GAUSS, 2, "u", 1e-8, _ZONE_TIMES, zone) for zone in ("lowmid", "highmid")),
    ),
    "13-determinism": (_check_determinism,),
}


CHECK_IDS = tuple(_CHECKS)


def requests(check_id: str) -> tuple[tuple, ...]:
    """The norms check `check_id` reads, in the order its judge takes them:
    (sel0, sel1, n, kind, tol, times[, zone]); a float `times` is one
    `norm_value` call, and a kind the table leaves None is u-{profile} of
    rates.classify(n, l) at the data's l, looked up at each call."""
    return tuple(
        (sel0, sel1, n,
         kind or f"u-{rates.classify(n, data_mod.parse_pair(sel0, sel1, n).l).profile}", *rest)
        for sel0, sel1, n, kind, *rest in _CHECKS[check_id][1:]
    )


def run_check(check_id: str) -> CheckResult:
    if check_id not in _CHECKS:
        raise KeyError(f"unknown check {check_id!r}")
    start = time.perf_counter()
    norms = [_integrate(*request) for request in requests(check_id)]
    ok, observed, expected, tolerance = _CHECKS[check_id][0](*norms)
    elapsed = time.perf_counter() - start
    return CheckResult(check_id, "pass" if ok else "fail", observed, expected, tolerance, elapsed)
