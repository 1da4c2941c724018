"""scripts/compare_values.py restates the series inputs of checks 06-11 in
CASES, check 03's oracle runs in oracle_radii and ORACLE_TIMES, and check
05's reference integrals in ref_calls; every series those checks integrate
must be one of its cases, and its oracle runs and reference integrals must
be those of checks 03 and 05."""

import importlib.util
from pathlib import Path

from logplate import data, oracle, quadrature, verify

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_values.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("compare_values", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_values_cases_cover_checks_06_to_11(monkeypatch):
    cases = {
        (data.parse_profile(u0, n).name, data.parse_profile(u1, n).name, n, kind, tol)
        for u0, u1, n, kind, tol in _load_script().CASES
    }
    seen = set()

    def record(d, kind, n, spec):
        seen.add((d.u0.name, d.u1.name, n, kind, spec.tol))

    def norm_value(d, kind, n, t, spec=None, zone="all"):
        record(d, kind, n, spec)
        return 1.0, 0.0

    def norm_series(d, kind, n, t_grid, spec=None, zone="all"):
        record(d, kind, n, spec)
        ts = tuple(t_grid)
        return quadrature.NormSeries(kind, zone, n, ts, (1.0,) * len(ts), (0.0,) * len(ts))

    monkeypatch.setattr(quadrature, "norm_value", norm_value)
    monkeypatch.setattr(quadrature, "norm_series", norm_series)
    for check_id in verify.CHECK_IDS[5:11]:
        verify.run_check(check_id)
    assert seen and seen <= cases


def test_panels_note_names_both_sides_only_where_they_differ():
    note = _load_script().panels_note
    assert note([14, 3376, 0], [14, 3376, 0]) == ""
    assert note([14, 3376, 0], [15, 3390, 0]) == (
        "; panels differ: 14/3376 + 0 Levin → 15/3390 + 0 Levin"
    )
    # Levin panels alone differing still show
    assert note([13, 608, 205], [13, 608, 207]) == (
        "; panels differ: 13/608 + 205 Levin → 13/608 + 207 Levin"
    )


def test_oracle_radii_and_times_are_those_of_check_03(monkeypatch):
    script = _load_script()
    seen = []
    run = oracle.integrate_mode_at

    def record(p, u0, u1, times, cfg):
        seen.append((p.r, u0, u1, times, cfg.rel_tol))
        return run(p, u0, u1, times, cfg)

    monkeypatch.setattr(oracle, "integrate_mode_at", record)
    verify.run_check("03-oracle-equivalence")
    radii = script.oracle_radii(quadrature.THRESHOLDS)
    assert seen == [(r, 1.0, 1j, script.ORACLE_TIMES, 1e-10) for r in radii]


def test_ref_calls_are_those_of_check_05(monkeypatch):
    calls = _load_script().ref_calls(quadrature.THRESHOLDS.eta)
    seen = set()
    for name in ("ref_integral_Ip", "ref_integral_Jp", "middle_zone_integral"):

        def record(*args, name=name, run=getattr(quadrature, name)):
            seen.add((name, *args))
            return run(*args)

        monkeypatch.setattr(quadrature, name, record)
    verify.run_check("05-integral-asymptotics")
    assert seen == set(calls)


def test_ref_line_reads_identical_and_fails_above_ref_tol():
    line = _load_script().ref_line
    assert line([1.0, 2.0], [1.0, 2.0], 1e-12) == ("identical", True)
    assert line([1.0, 2.0], [1.0, 2.0 + 2.0**-51], 1e-12) == (f"max rel diff {2.0**-52:.3g}", True)
    assert line([1.0, 2.0], [1.0, 2.0 + 1e-11], 1e-12)[1] is False


def test_oracle_line_reads_identical_and_fails_above_its_limit():
    line = _load_script().oracle_line
    state = [(1.0).hex(), (0.0).hex(), (-0.5).hex(), (2.0).hex()]
    assert line([state], [state]) == ("identical", True)
    # scaled by max(|(u, v)|, |(1, i)|) = sqrt(1 + 0.25 + 4) = 2.291...
    moved = [(1.0 + 2.0**-40).hex(), *state[1:]]
    assert line([state], [moved]) == (f"max scaled diff {2.0**-40 / 5.25**0.5:.3g}", True)
    far = [(1.0 + 1e-9).hex(), *state[1:]]
    assert line([state], [far])[1] is False


def test_identical_means_every_value_and_error_estimate():
    verdict = _load_script().verdict
    old = [[1.0, 1e-7], [2.0, 2e-7]]
    assert verdict(old, [[1.0, 1e-7], [2.0, 2e-7]]) == ("identical", True)
    assert verdict(old, [[1.0, 1e-7], [2.0, 3e-7]]) == ("values identical", True)
    assert verdict(old, [[1.0, 1e-7], [2.0 + 1e-7, 2e-7]]) == ("within err: 0.25", True)
