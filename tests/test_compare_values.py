"""scripts/compare_values.py restates the series inputs of checks 06-11 in
CASES; every series those checks integrate must be one of its cases."""

import importlib.util
from pathlib import Path

from logplate import data, quadrature, verify

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
    assert note([14, 3376], [14, 3376]) == ""
    assert note([14, 3376], [15, 3390]) == "; panels differ: 14/3376 → 15/3390"


def test_identical_means_every_value_and_error_estimate():
    verdict = _load_script().verdict
    old = [[1.0, 1e-7], [2.0, 2e-7]]
    assert verdict(old, [[1.0, 1e-7], [2.0, 2e-7]]) == ("identical", True)
    assert verdict(old, [[1.0, 1e-7], [2.0, 3e-7]]) == ("values identical", True)
    assert verdict(old, [[1.0, 1e-7], [2.0 + 1e-7, 2e-7]]) == ("within err: 0.25", True)
