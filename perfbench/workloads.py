"""The benchmark's workloads: inputs from a seed, one pass, and its checks.

Each workload mirrors checks of `logplate verify` through the public API of
`logplate`, in one process and one thread, as a closed loop: every call is
issued after the previous one returned.

An operation is one value or verdict that the program returns and the
benchmark checks: one point of a norm series, one single norm value, one
`y_norm` value, one check verdict, one point of the pointwise sweep, or one
oracle spot check.  An operation fails when the call raises, when a squared
norm is not finite or is negative, when it leaves the combined error
estimate of the reference value recorded from the seed commit
(|v - v_ref| > err + err_ref), or when a verdict differs from the recorded
status.  Check 07 is recorded as `fail`, as `logplate verify` reports it.

Seeds: `guarded-tail` and `smooth-series` take variant `seed % VARIANTS`.
Variant 0 is exactly the checks' inputs; the others shift the time-grid
origin t0 and the data shape parameters by a few per cent, inside ranges
whose verdicts `make_refs.py` records (they equal the checks' statuses).
`pointwise` runs checks 01-05 on their own fixed inputs and draws its
sweep of scalar mode points from the seed itself.
"""

from __future__ import annotations

import cmath
import math
import random
from collections.abc import Callable
from dataclasses import dataclass

from logplate import data, modes, oracle, quadrature, rates, symbols, verify

VARIANTS = 16
FIT_WINDOW = verify.FIT_WINDOW
_TH = quadrature.THRESHOLDS


class Outputs:
    """Values and verdicts of one pass, keyed for comparison with refs."""

    def __init__(self) -> None:
        self.values: dict[str, list[list[float]]] = {}
        self.verdicts: dict[str, str] = {}
        self.errors: dict[str, str] = {}
        self.points = 0  # pointwise sweep points checked
        self.bad_points: list[str] = []

    def series(self, key: str, s) -> None:
        self.values[key] = [[v, e] for v, e in zip(s.values, s.errs)]

    def value(self, key: str, v: float, e: float) -> None:
        self.values[key] = [[v, e]]

    def verdict(self, cid: str, ok: bool) -> None:
        self.verdicts[cid] = "pass" if ok else "fail"

    def error(self, cid: str, exc: Exception) -> None:
        self.verdicts[cid] = "error"
        self.errors[cid] = f"{type(exc).__name__}: {exc}"


def judge(out: Outputs, ref: dict) -> tuple[int, int, list[str]]:
    """Check one pass against the recorded references.

    Returns (operations attempted, operations failed, problem lines).
    """
    attempted = failed = 0
    problems = [f"{cid}: {msg}" for cid, msg in out.errors.items()]
    for key, ref_vals in ref["values"].items():
        got = out.values.get(key, [])
        for i in range(max(len(ref_vals), len(got))):
            attempted += 1
            if i >= len(got) or i >= len(ref_vals):
                failed += 1
                problems.append(f"{key}[{i}]: missing or unexpected value")
                continue
            v, e = got[i]
            rv, re_ = ref_vals[i]
            ok = math.isfinite(v) and math.isfinite(e) and v >= 0.0 and abs(v - rv) <= e + re_
            if not ok:
                failed += 1
                problems.append(f"{key}[{i}]: {v!r} +- {e!r} vs reference {rv!r} +- {re_!r}")
    for cid, status in ref["verdicts"].items():
        attempted += 1
        if out.verdicts.get(cid) != status:
            failed += 1
            problems.append(f"{cid}: verdict {out.verdicts.get(cid)} != recorded {status}")
    attempted += out.points
    failed += len(out.bad_points)
    problems.extend(out.bad_points)
    return attempted, failed, problems


def _mirror(tracer, out: Outputs, cid: str, body) -> None:
    """Run one mirrored check; an exception fails the check, not the run."""
    with tracer.span("verify", cid):
        try:
            out.verdict(cid, body())
        except Exception as exc:  # the benchmark must go on and report it
            out.error(cid, exc)


def _rng_for(workload: str, seed: int) -> random.Random | None:
    variant = seed % VARIANTS
    return None if variant == 0 else random.Random(f"{workload}/{variant}")


# ---------------------------------------------------------------------------
# guarded-tail: checks 08, 09, 10


@dataclass(frozen=True)
class GuardedInputs:
    grid: tuple[float, ...]
    pairs: dict  # n -> RadialSpectrum


# (check id, kind, n, verdict on the fitted norm slope)
_GUARDED = (
    ("08-combined-profile-rate", "u-phi", 4, lambda s: s <= -1.4),
    ("09-wave-profile-rate", "u-phi2", 8, lambda s: s <= -1.9),
    ("10-solution-norm-sharpness", "u", 8, lambda s: -1.2 <= s <= -1.0 and s <= -0.9),
)


def guarded_params(seed: int) -> dict:
    rng = _rng_for("guarded-tail", seed)
    if rng is None:
        return {"t0": 10.0, "alpha": 1.0, "beta": 0.2}
    return {
        "t0": 10.0 * (1.0 + 0.005 * rng.random()),
        "alpha": 1.0 + 0.03 * (2.0 * rng.random() - 1.0),
        "beta": 0.2 + 0.01 * (2.0 * rng.random() - 1.0),
    }


def guarded_build(seed: int) -> GuardedInputs:
    p = guarded_params(seed)
    sel0 = f"gaussian:alpha={p['alpha']!r}"
    sel1 = f"log_tail:m=1,beta={p['beta']!r}"
    pairs = {n: data.parse_pair(sel0, sel1, n) for n in (4, 8)}
    return GuardedInputs(quadrature.default_time_grid(t0=p["t0"]), pairs)


def guarded_pass(inp: GuardedInputs, tracer) -> Outputs:
    out = Outputs()
    for cid, kind, n, rule in _GUARDED:

        def body(cid=cid, kind=kind, n=n, rule=rule):
            spec = quadrature.QuadSpec(n=n, tol=1e-4, osc_guard=2.0)
            s = quadrature.norm_series(inp.pairs[n], kind, n, inp.grid, spec)
            out.series(cid, s)
            return rule(rates.fit_rate(s, FIT_WINDOW).slope / 2.0)

        _mirror(tracer, out, cid, body)
    return out


# ---------------------------------------------------------------------------
# smooth-series: checks 06, 07, 11, 12


@dataclass(frozen=True)
class SmoothInputs:
    grid: tuple[float, ...]
    zone_ts: tuple[float, ...]
    gauss: dict  # n -> RadialSpectrum
    zero: object


def smooth_params(seed: int) -> dict:
    rng = _rng_for("smooth-series", seed)
    if rng is None:
        return {"t0": 10.0, "alpha0": 1.0, "alpha1": 1.0, "alpha_zero": 1.0}
    return {
        "t0": 10.0 * (1.0 + 0.01 * rng.random()),
        "alpha0": 1.0 + 0.05 * (2.0 * rng.random() - 1.0),
        "alpha1": 1.0 + 0.05 * (2.0 * rng.random() - 1.0),
        "alpha_zero": 1.0 + 0.05 * (2.0 * rng.random() - 1.0),
    }


def smooth_build(seed: int) -> SmoothInputs:
    p = smooth_params(seed)
    sel0 = f"gaussian:alpha={p['alpha0']!r}"
    sel1 = f"gaussian:alpha={p['alpha1']!r}"
    selz = f"zero_mass:alpha={p['alpha_zero']!r}"
    t0 = p["t0"]
    return SmoothInputs(
        grid=quadrature.default_time_grid(t0=t0),
        zone_ts=tuple(t0 * 2.0 ** (k / 2.0) for k in range(7)) + (10.0 * t0,),
        gauss={n: data.parse_pair(sel0, sel1, n) for n in (1, 2, 3)},
        zero=data.parse_pair(selz, selz, 2),
    )


def _positive_window(series, window=FIT_WINDOW):
    """Sub-window where the squared norm is positive (smooth data underflows)."""
    ts = [t for t, v in zip(series.ts, series.values) if window[0] <= t <= window[1] and v > 0.0]
    return ts[0], ts[-1]


def smooth_pass(inp: SmoothInputs, tracer) -> Outputs:
    out = Outputs()

    def spec(n, tol=1e-6):
        return quadrature.QuadSpec(n=n, tol=tol)

    def series(key, d, kind, n):
        s = quadrature.norm_series(d, kind, n, inp.grid, spec(n))
        out.series(key, s)
        return s

    def anchors():
        worst = 0.0
        for n in (1, 2, 3):
            d = inp.gauss[n]
            v, e = quadrature.norm_value(d, "phi1", n, 1e4, spec(n))
            out.value(f"06/phi1/n{n}", v, e)
            anchor = d.mass_sum**2 * (math.pi / 2.0) ** (n / 2.0)
            worst = max(worst, abs(v * 1e4 ** (n / 2.0) / anchor - 1.0))
        s = series("06/phi2", inp.gauss[2], "phi2", 2)
        return worst < 0.05 and rates.fit_rate(s, _positive_window(s)).slope <= -2.9

    def diffusion():
        s = series("07/u-phi1", inp.gauss[2], "u-phi1", 2)
        return -1.1 <= rates.fit_rate(s, FIT_WINDOW).slope / 2.0 <= -0.9

    def two_sided():
        ok = True
        for n in (2, 3):
            s = series(f"11/u/n{n}", inp.gauss[n], "u", n)
            band = rates.two_sided_band(s, -n / 2.0, FIT_WINDOW, ratio_cap=9.0, drift_tol=0.1)
            ok &= band.passed
        s0 = series("11/zero-mass", inp.zero, "u", 2)
        return ok and rates.fit_rate(s0, FIT_WINDOW).slope / 2.0 <= -0.9

    def zones():
        d = inp.gauss[2]
        norms = 0.0
        for name, prof in (("u0", d.u0), ("u1", d.u1)):
            yn = data.y_norm(prof, 0.0, 2)
            out.value(f"12/y_norm/{name}", yn.value, yn.err_est)
            norms += yn.value
        ts = inp.zone_ts
        ok = True
        for zone, rate in (
            ("lowmid", 0.5 / (1.0 + math.log(1.0 + _TH.delta**2))),
            ("highmid", 0.5),
        ):
            pairs = [quadrature.norm_value(d, "u", 2, t, spec(2, 1e-8), zone=zone) for t in ts]
            out.values[f"12/{zone}"] = [[v, e] for v, e in pairs]
            vals = [v for v, _ in pairs]
            c_fit = max(0.0, (vals[0] * math.exp(rate * ts[0]) / norms - 1.0) / ts[0] ** 2)
            ok &= all(
                v <= (1.0 + c_fit * t * t) * math.exp(-rate * t) * norms * (1.0 + 1e-9)
                for t, v in zip(ts, vals)
            )
        return ok

    _mirror(tracer, out, "06-profile-norm-anchors", anchors)
    _mirror(tracer, out, "07-diffusion-profile-rate", diffusion)
    _mirror(tracer, out, "11-optimal-two-sided", two_sided)
    _mirror(tracer, out, "12-zone-exponential", zones)
    return out


# ---------------------------------------------------------------------------
# pointwise: checks 01-05 plus a seeded sweep of scalar mode points

POINTWISE_CHECKS = (
    "01-thresholds",
    "02-root-algebra",
    "03-oracle-equivalence",
    "04-energy-identities",
    "05-integral-asymptotics",
)
SWEEP_POINTS = 48_000
SWEEP_CHUNK = 4_000  # one span (and timing checkpoint) per chunk
SPOT_CHECKS = 32
# check 03's integrator setting and tolerance on the scaled state error
_ORACLE_CFG = oracle.IntegratorConfig(rel_tol=1e-10)
_ORACLE_TOL = 1e-8


@dataclass(frozen=True)
class SweepPoint:
    p: symbols.FreqPoint
    w: float  # multiplier weight
    u0: complex
    u1: complex
    t: float


@dataclass(frozen=True)
class PointwiseInputs:
    points: tuple[SweepPoint, ...]
    spot: tuple[int, ...]  # indices of sweep points re-checked by the oracle


def pointwise_build(seed: int) -> PointwiseInputs:
    """Points spanning the spectrum, both sides of the root collision delta,
    and separated real roots with 2ct > 17 (the eigen-decomposition branch);
    a quarter of the data is aligned with the fast root."""
    rng = random.Random(f"pointwise/{seed}")
    pts = []
    for i in range(SWEEP_POINTS):
        branch = i % 3
        if branch == 0:
            r = 10.0 ** rng.uniform(-6.0, 3.0)
            t = 10.0 ** rng.uniform(-1.0, 2.5)
        elif branch == 1:
            r = _TH.delta * (1.0 + rng.uniform(-0.05, 0.05))
            t = 10.0 ** rng.uniform(-1.0, 2.5)
        else:
            # the root gap 2c is at least 1/2 below eta, so t > 34 gives 2ct > 17
            r = 10.0 ** rng.uniform(-6.0, math.log10(_TH.eta))
            t = rng.uniform(40.0, 300.0)
        p = symbols.FreqPoint.from_radius(r)
        u0 = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        if rng.random() < 0.25:
            u1 = symbols.char_roots(p).lambda_minus * u0
        else:
            u1 = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        pts.append(SweepPoint(p, symbols.mult_weight(p, _TH), u0, u1, t))
    cheap = [i for i, q in enumerate(pts) if q.t <= 50.0]
    return PointwiseInputs(tuple(pts), tuple(sorted(rng.sample(cheap, SPOT_CHECKS))))


def pointwise_pass(inp: PointwiseInputs, tracer) -> Outputs:
    out = Outputs()
    for cid in POINTWISE_CHECKS:
        _mirror(tracer, out, cid, lambda cid=cid: verify.run_check(cid).passed)
    for lo in range(0, len(inp.points), SWEEP_CHUNK):
        with tracer.span("verify", "sweep"):
            for i in range(lo, min(lo + SWEEP_CHUNK, len(inp.points))):
                q = inp.points[i]
                state = modes.mode_solve(q.p, q.u0, q.u1, q.t)
                dens = modes.energy_density(q.p, state, q.w)
                bound = modes.pointwise_bound_check(q.p, q.u0, q.u1, q.t, _TH)
                # checked in place: keeping 10^5 result objects alive until
                # the end of the pass would add collector work to the timing
                if not (
                    cmath.isfinite(state.u)
                    and cmath.isfinite(state.v)
                    and 0.5 * dens.e0 - 1e-12 <= dens.e_mod <= 3.0 * dens.e0 + 1e-12
                    and bound.passed
                ):
                    out.bad_points.append(f"sweep point {i}")
    out.points = len(inp.points)
    return out


def pointwise_spot_checks(inp: PointwiseInputs) -> list[tuple[bool, str]]:
    """Closed form against the adaptive integrator on a seeded subset of the
    sweep, with check 03's setting and scaled-error tolerance."""
    checks = []
    for i in inp.spot:
        q = inp.points[i]
        exact = modes.mode_solve(q.p, q.u0, q.u1, q.t)
        num = oracle.integrate_mode(q.p, q.u0, q.u1, q.t, _ORACLE_CFG)
        scale = max(math.hypot(abs(exact.u), abs(exact.v)), math.hypot(abs(q.u0), abs(q.u1)))
        err = math.hypot(abs(exact.u - num.u), abs(exact.v - num.v)) / scale
        checks.append((err < _ORACLE_TOL, f"oracle@{i}"))
    return checks


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], object]
    run_pass: Callable[[object, object], Outputs]
    check_ids: tuple[str, ...]
    seeded_refs: bool  # references recorded per variant (else one set)


WORKLOADS = {
    "guarded-tail": Workload(
        "guarded-tail", guarded_build, guarded_pass, tuple(c for c, *_ in _GUARDED), True
    ),
    "smooth-series": Workload(
        "smooth-series",
        smooth_build,
        smooth_pass,
        (
            "06-profile-norm-anchors",
            "07-diffusion-profile-rate",
            "11-optimal-two-sided",
            "12-zone-exponential",
        ),
        True,
    ),
    "pointwise": Workload("pointwise", pointwise_build, pointwise_pass, POINTWISE_CHECKS, False),
}

ALL_CHECK_IDS = tuple(cid for w in WORKLOADS.values() for cid in w.check_ids)


def refs_key(workload: Workload, seed: int) -> str:
    return str(seed % VARIANTS) if workload.seeded_refs else "all"
