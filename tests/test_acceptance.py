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
from pathlib import Path

from logplate import modes, oracle, rates, symbols, verify

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
    assert runs == [(1.0, 1j, (0.1, 1.0, 10.0, 50.0, 100.0))] * 13


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
