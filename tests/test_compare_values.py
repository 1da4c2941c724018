"""scripts/compare_values.py takes the norms and oracle runs it compares from
`verify`, but restates check 05's reference integrals in ref_calls: they
must be those of check 05."""

import importlib.util
from pathlib import Path

from logplate import quadrature, verify

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_values.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("compare_values", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_totals_line_sums_every_row_of_both_sides():
    totals = _load_script().totals_line
    old = {"a": [13, 608, 201], "b": [2, 354, 0]}
    new = {"a": [8, 426, 201], "b": [2, 354, 0]}
    assert totals(old, new) == "panels over 2 rows: 15/962 + 201 Levin → 10/780 + 201 Levin"
    assert totals({}, {}) == "panels over 0 rows: 0/0 + 0 Levin → 0/0 + 0 Levin"


def test_ref_calls_are_those_of_check_05(monkeypatch):
    calls = _load_script().ref_calls(quadrature.THRESHOLDS.eta)
    seen = set()
    for name in ("ref_integral_Ip", "ref_integral_Jp", "middle_zone_integral"):

        def record(p, ts, *lo, name=name, run=getattr(quadrature, name)):
            seen.update((name, p, t, *lo) for t in ts)
            return run(p, ts, *lo)

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
