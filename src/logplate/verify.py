"""The acceptance suite: thirteen numbered checks gating the whole build.

Each check is pure given its inputs and produces one result record; a
check that needs a norm series computes it, as no two checks share one, and
integrates only the times its judge reads: the grid times inside the fit
window, as `rates.window_times` picks them.
Check 13 re-executes the sub-second checks and compares their canonical
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
    "run_check",
    "run_all",
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
# root collision.
_R_GRID = (
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

_DATA_PAIRS = ((1.0 + 0j, 0.0 + 0j), (0.0 + 0j, 1.0 + 0j), (1.0 + 0j, -1.0 + 0j))

# Times of the exponentially small middle-zone bounds (checks 05 and 12).
_ZONE_TIMES = quadrature.default_time_grid(6) + (100.0,)

# Regularity index of the checks' data (log_tail m = 1; Gaussian data has
# every l).  Checks 07-11 take the paper's exponents from
# rates.classify(n, _L_DATA), so a wrong classifier fails them.
_L_DATA = 1.0


# The default-grid times inside FIT_WINDOW, the only ones a fit or band reads.
_FIT_TIMES = rates.window_times(quadrature.default_time_grid(), FIT_WINDOW, "fit")


def _series(sel0: str, sel1: str, n: int, kind: str, tol: float, guard: float = 1.0):
    """Norm series of the data pair (sel0, sel1) on the fit-window times."""
    spec = quadrature.QuadSpec(n=n, tol=tol, osc_guard=guard)
    return quadrature.norm_series(data_mod.parse_pair(sel0, sel1, n), kind, n, _FIT_TIMES, spec)


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
    for r in _R_GRID:
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
    cfg = oracle.IntegratorConfig(rel_tol=1e-10)
    worst = 0.0
    for r in _R_GRID:
        p = symbols.FreqPoint.from_radius(r)
        basis = oracle.integrate_mode_at(p, 1.0, 1j, (0.1, 1.0, 10.0, 50.0, 100.0), cfg)
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
    fd_r = [r for r in _R_GRID if r <= 3.0]  # keeps the stencil error below tolerance
    fd_t = (0.5, 2.0, 10.0, 100.0)
    worst_diss = 0.0
    worst_mod = 0.0
    worst_decay = -math.inf
    sandwich_ok = True
    bound_ok = True

    def dens(p, w, u0, u1, t):
        return modes.energy_density(p, modes.mode_solve(p, u0, u1, t), w)

    for r in fd_r:
        p = symbols.FreqPoint.from_radius(r)
        w = symbols.mult_weight(p, _TH)
        for u0, u1 in _DATA_PAIRS:
            for t in fd_t:
                lo = dens(p, w, u0, u1, t - h)
                hi = dens(p, w, u0, u1, t + h)
                mid = dens(p, w, u0, u1, t)
                st = modes.mode_solve(p, u0, u1, t)
                de0 = (hi.e0 - lo.e0) / (2.0 * h)
                worst_diss = max(worst_diss, abs(de0 + abs(st.v) ** 2))
                de = (hi.e_mod - lo.e_mod) / (2.0 * h)
                worst_mod = max(worst_mod, abs(de + mid.f_mod - mid.r_mult))
                worst_decay = max(worst_decay, de + 0.5 * w * mid.e_mod)
    for r in _R_GRID:
        p = symbols.FreqPoint.from_radius(r)
        w = symbols.mult_weight(p, _TH)
        for u0, u1 in _DATA_PAIRS:
            for t in (0.5, 2.0, 10.0, 100.0):
                mid = dens(p, w, u0, u1, t)
                sandwich_ok &= 0.5 * mid.e0 - 1e-12 <= mid.e_mod <= 3.0 * mid.e0 + 1e-12
                bound_ok &= modes.pointwise_bound_check(p, u0, u1, t, _TH).passed
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
    ok = True
    notes = []
    # closed forms for p = 1
    worst_closed = 0.0
    for t in (2.0, 5.0, 10.0, 30.0):
        i1 = quadrature.ref_integral_Ip(1.0, t)
        i1_exact = (1.0 - 2.0 ** (1.0 - t)) / (2.0 * (t - 1.0))
        worst_closed = max(worst_closed, abs(i1 - i1_exact))
        j1 = quadrature.ref_integral_Jp(1.0, t)
        j1_exact = 2.0 ** (1.0 - t) / (2.0 * (t - 1.0))
        worst_closed = max(worst_closed, abs(j1 - j1_exact))
    ok &= worst_closed < 1e-12
    notes.append(f"closed_form={worst_closed:.2e}")
    # Laplace limit of the head integral
    worst_lap = 0.0
    for p_exp in (0.0, 1.0, 2.0, 3.0):
        val = quadrature.ref_integral_Ip(p_exp, 1e4) * 1e4 ** (0.5 * (p_exp + 1.0))
        limit = math.gamma(0.5 * (p_exp + 1.0)) / 2.0
        worst_lap = max(worst_lap, abs(val / limit - 1.0))
    ok &= worst_lap < 0.02
    notes.append(f"laplace_rel={worst_lap:.2e}")
    # tail band
    band_lo, band_hi = math.inf, -math.inf
    for p_exp in (0.0, 1.0, 2.0):
        for t in (20.0, 30.0, 40.0, 50.0, 60.0):
            scaled = t * 2.0**t * quadrature.ref_integral_Jp(p_exp, t)
            band_lo = min(band_lo, scaled)
            band_hi = max(band_hi, scaled)
    ok &= 0.3 <= band_lo and band_hi <= 3.0
    notes.append(f"tail_band=[{band_lo:.3f},{band_hi:.3f}]")
    # exponentially small middle band with a constant fitted at t=10
    mid_ok = True
    eta = _TH.eta
    for p_exp in (0.0, 1.0, 2.0):
        c_fit = quadrature.middle_zone_integral(p_exp, 10.0, eta) * (1.0 + eta**2) ** 10.0
        for t in _ZONE_TIMES:
            val = quadrature.middle_zone_integral(p_exp, t, eta)
            mid_ok &= val <= c_fit * (1.0 + eta**2) ** (-t) * (1.0 + 1e-12)
    ok &= mid_ok
    notes.append(f"middle_band_ok={bool(mid_ok)}")
    return (
        bool(ok),
        ",".join(notes),
        "closed forms to 1e-12; Laplace limit to 2%; tail band in [0.3,3]; fitted middle bound holds",
        "see expected",
    )


def _check_profile_anchors() -> tuple[bool, str, str, str]:
    ok = True
    notes = []
    worst = 0.0
    for n in (1, 2, 3):
        d = data_mod.parse_pair("gaussian:alpha=1", "gaussian:alpha=1", n)
        spec = quadrature.QuadSpec(n=n, tol=1e-6)
        val, _ = quadrature.norm_value(d, "phi1", n, 1e4, spec)
        anchor = d.mass_sum**2 * (math.pi / 2.0) ** (n / 2.0)
        rel = abs(val * 1e4 ** (n / 2.0) / anchor - 1.0)
        worst = max(worst, rel)
    ok &= worst < 0.05
    notes.append(f"heat_anchor_rel={worst:.2e}")
    # oscillatory-profile norm for smooth data: superpolynomial decay, so the
    # fit runs on the positive sub-window (values underflow beyond t ~ 3e3)
    s_phi2 = _series("gaussian:alpha=1", "gaussian:alpha=1", 2, "phi2", 1e-6)
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
    (a_2, a_3, a_4) = (c1^2, -2 c1 M, M^2).  Radial data has no first-moment
    term, so nothing decays at the slower generic rate -(n+2)/4.
    """
    u0, u1 = d.u0, d.u1
    mass = u0.mass + u1.mass
    c1 = u0.mass + 3.0 * u1.mass - u0.mass / (4.0 * u0.alpha) - u1.mass / (4.0 * u1.alpha)
    coeffs = {2: c1 * c1, 3: -2.0 * c1 * mass, 4: mass * mass}
    return 0.5 * quadrature.surface_area(n) * sum(
        a * math.gamma(n / 2.0 + k) / 2.0 ** (n / 2.0 + k) for k, a in coeffs.items()
    )


def _check_diffusion_rate() -> tuple[bool, str, str, str]:
    n = 2
    sel = "gaussian:alpha=1"
    s = _series(sel, sel, n, "u-phi1", 1e-6)
    fit = rates.fit_rate(s, FIT_WINDOW)
    slope = fit.slope / 2.0
    theory = -(n + 4) / 4.0
    bound = rates.classify(n, _L_DATA).diff_exponent
    limit = _gaussian_diffusion_constant(data_mod.parse_pair(sel, sel, n), n)
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


def _check_combined_rate() -> tuple[bool, str, str, str]:
    s = _series("gaussian:alpha=1", "log_tail:m=1,beta=0.2", 4, "u-phi", 1e-4, guard=2.0)
    slope = rates.fit_rate(s, FIT_WINDOW).slope / 2.0
    theory = rates.classify(4, _L_DATA).diff_exponent
    return (
        slope <= theory + 0.1,
        f"norm_slope={slope:.4f}",
        f"||u - combined profile|| slope <= {theory + 0.1:g} (theory -(n+2)/4 = {theory:g})"
        " for n=4, l=1",
        "+0.1",
    )


def _check_wave_rate() -> tuple[bool, str, str, str]:
    s = _series("gaussian:alpha=1", "log_tail:m=1,beta=0.2", 8, "u-phi2", 1e-4, guard=2.0)
    slope = rates.fit_rate(s, FIT_WINDOW).slope / 2.0
    theory = rates.classify(8, _L_DATA).diff_exponent
    return (
        slope <= theory + 0.1,
        f"norm_slope={slope:.4f}",
        f"||u - wave profile|| slope <= {theory + 0.1:g} (theory -n/4 = {theory:g}) for n=8, l=1",
        "+0.1",
    )


def _check_solution_sharpness() -> tuple[bool, str, str, str]:
    s = _series("gaussian:alpha=1", "log_tail:m=1,beta=0.2", 8, "u", 1e-4, guard=2.0)
    slope = rates.fit_rate(s, FIT_WINDOW).slope / 2.0
    upper = rates.classify(8, _L_DATA).sol_exponent_upper
    return (
        (-1.2 <= slope <= -1.0) and slope <= upper + 0.1,
        f"norm_slope={slope:.4f}",
        "||u|| slope within 0.1 of -(l+1+beta)/2 = -1.1 and below the theory bound"
        f" {upper:g} + 0.1",
        "+-0.1",
    )


def _check_two_sided() -> tuple[bool, str, str, str]:
    ok = True
    notes = []
    for n in (2, 3):
        theory = rates.classify(n, _L_DATA)
        s = _series("gaussian:alpha=1", "gaussian:alpha=1", n, "u", 1e-6)
        # squared series: twice the norm exponent, compared in the band's
        # squared-series defaults (ratio cap 9 = 3^2)
        band = rates.two_sided_band(s, 2.0 * theory.sol_exponent_upper, FIT_WINDOW)
        ok &= theory.two_sided and band.passed
        notes.append(f"n{n}_norm_ratio={math.sqrt(band.ratio):.3f},drift={band.drift}")
    # without mass phi1 vanishes, so u itself decays like u - phi1
    cap = rates.classify(2, _L_DATA).diff_exponent + 0.1
    s0 = _series("zero_mass:alpha=1", "zero_mass:alpha=1", 2, "u", 1e-6)
    slope = rates.fit_rate(s0, FIT_WINDOW).slope / 2.0
    ok &= slope <= cap
    notes.append(f"zero_mass_slope={slope:.4f}")
    return (
        bool(ok),
        ",".join(notes),
        f"t^{{n/4}}||u|| band ratio <= 3 without drift (n=2,3); zero-mass slope <= {cap:g}",
        f"ratio cap 3 / slope cap {cap:g}",
    )


def _check_zone_exponential() -> tuple[bool, str, str, str]:
    n = 2
    d = data_mod.parse_pair("gaussian:alpha=1", "gaussian:alpha=1", n)
    spec = quadrature.QuadSpec(n=n, tol=1e-8)
    norms = (
        data_mod.y_norm(d.u0, 0.0, n).value + data_mod.y_norm(d.u1, 0.0, n).value
    )
    ts = _ZONE_TIMES
    ok = True
    notes = []
    for zone, rate in (
        ("lowmid", 0.5 / (1.0 + math.log(1.0 + _TH.delta**2))),
        ("highmid", 0.5),
    ):
        vals = [quadrature.norm_value(d, "u", n, t, spec, zone=zone)[0] for t in ts]
        c_fit = max(0.0, (vals[0] * math.exp(rate * ts[0]) / norms - 1.0) / ts[0] ** 2)
        zone_ok = all(
            v <= (1.0 + c_fit * t * t) * math.exp(-rate * t) * norms * (1.0 + 1e-9)
            for t, v in zip(ts, vals)
        )
        ok &= zone_ok
        notes.append(f"{zone}_ok={zone_ok},C={c_fit:.3e}")
    return (
        bool(ok),
        ",".join(notes),
        "zone norms bounded by (1 + C t^2) e^{-rate t} (data norms), C fitted at t=10, t in [10,100]",
        "fitted-constant bound",
    )


def _check_determinism() -> tuple[bool, str, str, str]:
    def snapshot() -> str:
        lines = []
        for cid in ("01-thresholds", "02-root-algebra"):
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


_CHECKS = {
    "01-thresholds": _check_thresholds,
    "02-root-algebra": _check_root_algebra,
    "03-oracle-equivalence": _check_oracle,
    "04-energy-identities": _check_energy,
    "05-integral-asymptotics": _check_integrals,
    "06-profile-norm-anchors": _check_profile_anchors,
    "07-diffusion-profile-rate": _check_diffusion_rate,
    "08-combined-profile-rate": _check_combined_rate,
    "09-wave-profile-rate": _check_wave_rate,
    "10-solution-norm-sharpness": _check_solution_sharpness,
    "11-optimal-two-sided": _check_two_sided,
    "12-zone-exponential": _check_zone_exponential,
    "13-determinism": _check_determinism,
}


CHECK_IDS = tuple(_CHECKS)


def run_check(check_id: str) -> CheckResult:
    if check_id not in _CHECKS:
        raise KeyError(f"unknown check {check_id!r}")
    start = time.perf_counter()
    ok, observed, expected, tolerance = _CHECKS[check_id]()
    elapsed = time.perf_counter() - start
    return CheckResult(check_id, "pass" if ok else "fail", observed, expected, tolerance, elapsed)


def run_all(check_ids=CHECK_IDS) -> list[CheckResult]:
    return [run_check(cid) for cid in check_ids]
