"""Acceptance gate: every numbered check at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one JSON line per
check, or `logplate verify` for the same through the CLI.  Each check runs
once and computes its own norm series, and its canonical line must equal
the one in verify_canonical.jsonl (written by `logplate verify --out`).

Check 07: Gaussian data has no first-moment term at low frequency, so
||u - phi1|| decays at -(n+4)/4, one half faster than the paper's generic
bound -(n+2)/4.  The check fits the slope within 0.1 of -(n+4)/4, keeps it
below the bound, and pins t^{(n+4)/2}||u - phi1||^2 to 1% of its
closed-form limit K computed from the masses and alphas.
"""

import dataclasses
import json
from collections import Counter
from pathlib import Path

import pytest

from logplate import data, modes, oracle, quadrature, rates, symbols, verify

CANONICAL = {
    json.loads(line)["check_id"]: line
    for line in (Path(__file__).parent / "verify_canonical.jsonl").read_text().splitlines()
}


def test_check_ids_are_numbered_01_to_13_in_order():
    assert [cid[:3] for cid in verify.CHECK_IDS] == [f"{k:02d}-" for k in range(1, 14)]


def _gate(check_id: str):
    def gate() -> None:
        result = verify.run_check(check_id)
        print(verify.render_line(result))
        assert result.passed, f"{check_id}: observed {result.observed}, expected {result.expected}"
        assert verify.canonical_line(result) == CANONICAL[check_id]

    return gate


# One gate per check, named after its ID (test_01_thresholds, ...), so that
# every check in verify.CHECK_IDS is gated and none can be left out.
for _cid in verify.CHECK_IDS:
    globals()["test_" + _cid.replace("-", "_")] = _gate(_cid)


def test_check_03_integrates_each_radius_once(monkeypatch):
    # 13 radii, each one run with data (1, i) stopping at all five output
    # times, whose real and imaginary parts serve every data pair; the
    # stand-in returns the closed form, so no step is taken
    runs = []

    def counted(p, u0, u1, times, cfg):
        runs.append((u0, u1, tuple(times)))
        return tuple(modes.mode_solve(p, u0, u1, t) for t in times)

    monkeypatch.setattr(oracle, "integrate_mode_at", counted)
    assert verify.run_check("03-oracle-equivalence").passed
    assert runs == [(1.0, 1j, verify.ORACLE_TIMES)] * 13


def _record(monkeypatch, module, names) -> list:
    """Each call of the functions `names` on `module`, as (name, *args)."""
    calls = []
    for name in names:

        def record(*args, name=name, run=getattr(module, name)):
            calls.append((name, *args))
            return run(*args)

        monkeypatch.setattr(module, name, record)
    return calls


def test_check_04_evaluates_each_point_once(monkeypatch):
    # one mode_solve and energy_density per (r, data, t), 13 radii x 3 data x
    # 4 times, and two stencil points more at each of the 11 radii r <= 3
    calls = _record(monkeypatch, modes, ("mode_solve", "energy_density", "pointwise_bound_check"))
    assert verify.run_check("04-energy-identities").passed
    assert Counter(name for name, *_ in calls) == {
        "mode_solve": 420, "energy_density": 420, "pointwise_bound_check": 156}


def test_check_05_looks_its_table_up_on_quadrature_as_it_runs(monkeypatch):
    # so a wrapper set on quadrature after import, as a tracer sets one, sees each call
    calls = _record(monkeypatch, quadrature,
                    ("ref_integral_Ip", "ref_integral_Jp", "middle_zone_integral"))
    assert verify.run_check("05-integral-asymptotics").passed
    assert calls == [rec for recs in verify.REF_CALLS.values() for rec in recs]


def test_every_check_integrates_the_norms_it_requests_in_order(monkeypatch):
    # stand-ins record every norm_value and norm_series call, so a judge that
    # integrates around verify.requests fails; check 13 runs check 10 twice
    calls = []

    def norm_value(d, kind, n, t, spec, zone):
        calls.append((d.u0.name, d.u1.name, n, spec.n, kind, spec.tol, t, zone))
        return 1.0, 0.0

    def norm_series(d, kind, n, ts, spec, zone):
        norm_value(d, kind, n, ts, spec, zone)
        return quadrature.NormSeries(kind, zone, n, ts, (1.0,) * len(ts), (0.0,) * len(ts), d)

    monkeypatch.setattr(quadrature, "norm_value", norm_value)
    monkeypatch.setattr(quadrature, "norm_series", norm_series)
    for check_id in verify.CHECK_IDS:
        calls.clear()
        verify.run_check(check_id)
        ids = ("10-solution-norm-sharpness",) * 2 if check_id == "13-determinism" else (check_id,)
        assert calls == [
            (data.parse_profile(s0, n).name, data.parse_profile(s1, n).name, n, n, kind, tol, times,
             *(zone or ["all"]))
            for cid in ids for s0, s1, n, kind, tol, times, *zone in verify.requests(cid)
        ], check_id


@pytest.mark.parametrize("check_id,u0,u1,seen", [
    ("06-profile-norm-anchors", "gaussian:alpha=2", "gaussian:alpha=2", "heat_anchor_rel=9.37e-05,"),
    ("10-solution-norm-sharpness", "gaussian:alpha=1", "log_tail:m=1,beta=0.6", "= -1.3 and"),
])
def test_judges_read_the_data_their_rows_name(monkeypatch, check_id, u0, u1, seen):
    # check 06's heat-profile anchor is the mass of the data integrated (here
    # 2^{n/2} times that of its own gaussian:alpha=1), and check 10's band
    # -q/2 +- 0.1 is the log-tail datum's (q = 2.6 here, slope -1.3023)
    judge, *rows = verify._CHECKS[check_id]
    rows = [(u0, u1, *rest) for _, _, *rest in rows]
    monkeypatch.setitem(verify._CHECKS, check_id, (judge, *rows))
    res = verify.run_check(check_id)
    assert res.passed, res.observed
    assert seen in res.observed + res.expected


def test_render_line_is_canonical_line_plus_seconds():
    res = verify.CheckResult("01-x", "pass", "obs", "exp", "tol", 1.23456)
    assert json.loads(verify.render_line(res)) == {
        **json.loads(verify.canonical_line(res)),
        "seconds": 1.235,
    }


def test_checks_take_their_exponents_from_the_classifier(monkeypatch):
    classify = rates.classify

    def lowered(n, l):
        report = classify(n, l)
        return dataclasses.replace(
            report,
            diff_exponent=report.diff_exponent - 1.0,
            sol_exponent_upper=report.sol_exponent_upper - 1.0,
        )

    monkeypatch.setattr(rates, "classify", lowered)
    for check_id in ("07-diffusion-profile-rate", "11-optimal-two-sided"):
        assert not verify.run_check(check_id).passed, check_id


def test_checks_take_their_profile_from_the_classifier(monkeypatch):
    # a classifier naming the wrong profile fails checks 07-09.  A classifier
    # that names the sum "phi" where phi1 or phi2 is due is not caught: on
    # these data the other profile is negligible, and checks 07 and 09 read
    # the same slopes (-1.5064 and -2.0972) from either kind
    classify = rates.classify
    wrong = {"phi1": "phi2", "phi2": "phi1", "phi": "phi1"}

    def swapped(n, l):
        report = classify(n, l)
        return dataclasses.replace(report, profile=wrong[report.profile])

    monkeypatch.setattr(rates, "classify", swapped)
    for check_id in ("07-diffusion-profile-rate", "08-combined-profile-rate",
                     "09-wave-profile-rate"):
        assert verify.run_check(check_id).status == "fail", check_id


def test_check_02_reads_the_roots_the_mode_kernel_uses(monkeypatch):
    # the eigen branch of the kernel evaluates symbols.real_roots itself, so
    # a slow root off by a relative 1e-10 there fails the root algebra
    assert modes.real_roots is symbols.real_roots
    real_roots = symbols.real_roots

    def skewed(lam, a, c):
        lp, lm = real_roots(lam, a, c)
        return lp * (1.0 + 1e-10), lm

    monkeypatch.setattr(symbols, "real_roots", skewed)
    assert verify.run_check("02-root-algebra").status == "fail"


def test_check_07_forms_its_constant_without_the_code_under_test(monkeypatch):
    # K is sum a_k pi^{n/2} (n/2)_k / 2^{n/2+k}: a quadrature whose sphere
    # area is 1.5% too large reads ratio_to_K = 1.016 and fails, where a K
    # formed with that same area passed it
    area = quadrature.surface_area
    monkeypatch.setattr(quadrature, "surface_area", lambda n: 1.015 * area(n))
    res = verify.run_check("07-diffusion-profile-rate")
    assert not res.passed and "ratio_to_K=1.01" in res.observed
