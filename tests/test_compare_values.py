"""scripts/compare_values.py: its report lines, and its exit code for a tree
it cannot compare.  The set it compares is NEW_SRC's `verify` tables."""

import importlib.util
import subprocess
import sys
from pathlib import Path

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


def test_ref_line_reads_identical_and_fails_above_ref_tol():
    script = _load_script()
    line = script.ref_line
    calls = script.ref_calls([["ref_integral_Jp", 1.0, [2.0, 5.0]],
                              ["middle_zone_integral", 0.0, [10.0], 0.25]])
    assert calls == ["ref_integral_Jp(p=1, t=2)", "ref_integral_Jp(p=1, t=5)",
                     "middle_zone_integral(p=0, t=10, lo=0.25)"]
    old = [1.0, 2.0, 3.0]
    assert line(old, [1.0, 2.0, 3.0], 1e-12, calls) == ("identical", True)
    # the line names the call of the largest relative difference
    assert line(old, [1.0 + 2.0**-52, 2.0 + 2.0**-50, 3.0], 1e-12, calls) == (
        f"max rel diff {2.0**-51:.3g} at ref_integral_Jp(p=1, t=5)", True)
    assert line(old, [1.0, 2.0 + 2.0**-51, 3.0 + 4e-11], 1e-12, calls) == (
        f"max rel diff {4e-11 / 3.0:.3g} at middle_zone_integral(p=0, t=10, lo=0.25)", False)


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


def test_a_tree_without_logplate_is_an_error_not_a_failed_comparison(tmp_path):
    # exit 1 means a value moved; a tree that cannot integrate the set exits
    # 2 with one error line naming it, before the other tree is run
    proc = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path), str(tmp_path)],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(f"error: {tmp_path} ") and proc.stderr.count("\n") == 1
