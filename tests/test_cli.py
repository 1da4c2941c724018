import json
import math
import warnings

import pytest

from logplate import cli, quadrature


def _run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_thresholds_csv(capsys):
    code, out = _run(capsys, "thresholds")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "name,value,residual"
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert set(rows) == {"eta", "delta", "delta0", "r_unit"}
    assert all(abs(float(row[2])) < 1e-12 for row in rows.values())


def test_mode_row_with_oracle(capsys):
    code, out = _run(capsys, "mode", "--r", "1", "--t", "5", "--u0", "1", "--u1", "0", "--oracle")
    assert code == 0
    header, row = out.strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["oracle_rel_err"]) < 1e-8
    assert float(cols["ode_residual"]) < 1e-5
    assert float(cols["e0"]) >= 0.0


def test_mode_row_where_the_radius_squared_overflows(capsys):
    # r^2 overflows a double at r = 1e200; the log-weight 2 log r does not
    code, out = _run(capsys, "mode", "--r", "1e200", "--t", "1")
    assert code == 0
    header, row = out.strip().splitlines()
    assert all(math.isfinite(float(x)) for x in row.split(","))


def test_mode_ode_residual_is_relative_to_the_terms(capsys):
    # the three terms of the ODE grow like the log-weight squared; an
    # absolute residual read 0.31 (t = 1) and 0.61 (t = 100) here
    for t in ("1", "100"):
        code, out = _run(capsys, "mode", "--r", "1e200", "--t", t)
        assert code == 0
        header, row = out.strip().splitlines()
        assert float(dict(zip(header.split(","), row.split(",")))["ode_residual"]) < 1e-5


def test_mode_ode_residual_stays_at_rounding_level_at_late_times(capsys):
    # a second difference of u divides u's rounding, which grows like the
    # phase b t, by h^2: it read 1.4e-5 here
    code, out = _run(capsys, "mode", "--r", "1e3", "--t", "1e4")
    assert code == 0
    header, row = out.strip().splitlines()
    assert float(dict(zip(header.split(","), row.split(",")))["ode_residual"]) < 1e-7


def test_solve_csv_schema(capsys):
    code, out = _run(
        capsys,
        "solve", "--n", "1", "--data-u0", "gaussian:alpha=1", "--data-u1", "gaussian:alpha=1",
        "--t-count", "3", "--tol", "1e-6",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,value,err_est,n,kind,zone"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert float(first[0]) == 10.0 and first[4] == "u" and first[5] == "all"
    assert float(first[1]) > 0.0


def test_profile_diff_zone_restricted(capsys):
    code, out = _run(
        capsys,
        "profile-diff", "--n", "2", "--data-u0", "gaussian:alpha=1",
        "--data-u1", "gaussian:alpha=1", "--profile", "phi1",
        "--t-count", "3", "--zone", "low",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].endswith(",u-phi1,low")


def test_byte_identical_reruns(capsys):
    for args in (
        ("solve", "--n", "2", "--data-u0", "gaussian:alpha=1", "--data-u1", "zero_mass:alpha=1",
         "--t-count", "4"),
        ("rates", "--n", "4", "--l", "1", "--data-u0", "gaussian:alpha=1",
         "--data-u1", "gaussian:alpha=1", "--t-count", "12"),
    ):
        _, out1 = _run(capsys, *args)
        _, out2 = _run(capsys, *args)
        assert out1 == out2


def test_rates_json_report(capsys):
    code, out = _run(
        capsys,
        "rates", "--n", "4", "--l", "1", "--data-u0", "gaussian:alpha=1",
        "--data-u1", "gaussian:alpha=1", "--t-count", "13", "--tol", "1e-6",
    )
    report = json.loads(out)
    assert report["regime"] == "both"
    assert report["profile"] == "phi"
    assert report["theory_exponent"] == pytest.approx(-1.5)
    assert report["fitted_slope"] <= -1.4
    assert report["pass"] is True
    assert code == 0


def test_rates_uncovered_input(capsys):
    code, out = _run(
        capsys,
        "rates", "--n", "4", "--l", "0.5", "--data-u0", "gaussian:alpha=1",
        "--data-u1", "gaussian:alpha=1", "--t-count", "8",
    )
    report = json.loads(out)
    assert report["regime"] == "uncovered-by-theory"
    assert report["theory_exponent"] is None and report["pass"] is None
    assert code == 0


def test_rates_short_window_rejected_before_quadrature(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("quadrature ran before the fit window was rejected")

    monkeypatch.setattr(quadrature, "_gk_eval", fail)
    code = cli.main([
        "rates", "--n", "4", "--l", "1", "--data-u0", "gaussian:alpha=1",
        "--data-u1", "gaussian:alpha=1", "--t-count", "2",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: need at least 5 samples inside the fit window\n"


def test_verify_subset_and_canonical_out(tmp_path, capsys):
    out_file = tmp_path / "verify.jsonl"
    code, out = _run(capsys, "verify", "--checks", "01-thresholds", "--out", str(out_file))
    assert code == 0
    line = json.loads(out.strip().splitlines()[0])
    assert line["check_id"] == "01-thresholds" and line["status"] == "pass"
    assert "seconds" in line
    canon1 = out_file.read_text()
    assert "seconds" not in canon1
    _run(capsys, "verify", "--checks", "01-thresholds", "--out", str(out_file))
    assert out_file.read_text() == canon1


def test_usage_errors():
    assert cli.main(["solve", "--n", "2"]) == 2  # missing required data flags
    assert cli.main(["nonsense"]) == 2


def test_bad_time_grid(capsys):
    base = ["solve", "--n", "2", "--data-u0", "gaussian:alpha=1", "--data-u1", "gaussian:alpha=1"]
    for flags, name in (
        (["--t0", "0"], "--t0"), (["--t0", "nan"], "--t0"), (["--t0", "inf"], "--t0"),
        (["--t-count", "0"], "--t-count"),
    ):
        code = cli.main(base + flags)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {name}")


@pytest.mark.parametrize(
    "argv",
    [
        "solve --n 2 --data-u0 gaussian:alpha=1 --t-count 3000",  # the grid's last time
        "solve --n 400 --data-u0 gaussian:alpha=1",  # Gamma(n/2) of the sphere's area
        "solve --n 200 --data-u0 gaussian:alpha=0.001",  # the peak (pi/alpha)^(n/2)
        "rates --n 2 --data-u0 gaussian:alpha=1 --l nan",
        # a non-finite selector value
        "solve --n 2 --data-u0 gaussian:alpha=nan",
        "solve --n 2 --data-u0 gaussian:alpha=inf",
        "solve --n 2 --data-u0 gaussian:alpha=1,amplitude=nan",
        "solve --n 2 --data-u0 gaussian:alpha=1,amplitude=inf",
        "solve --n 2 --data-u0 gaussian:alpha=1,amplitude=-inf",
        "solve --n 2 --data-u0 log_tail:m=nan,beta=0.2",
        "solve --n 2 --data-u0 gaussian:alpha=1,alpha=5",  # a repeated key
    ],
)
def test_overflowing_or_non_finite_input_is_rejected_before_any_work(monkeypatch, capsys, argv):
    def fail(*args, **kwargs):
        raise AssertionError("quadrature ran before the input was rejected")

    monkeypatch.setattr(quadrature, "_gk_eval", fail)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(argv.split() + ["--data-u1", "gaussian:alpha=1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "flags",
    ["--t=nan", "--t=inf", "--t=inf --oracle", "--t=-1 --oracle", "--u0=nan",
     "--u1=inf --oracle", "--u0=1+nanj", "--r=nan"],
)
def test_mode_rejects_non_finite_input(monkeypatch, capsys, flags):
    from logplate import oracle

    monkeypatch.setattr(oracle, "MAX_STEPS", 0)  # a single step would exit 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a later flag overrides the same flag given before it
        code = cli.main(["mode", "--r=1", "--t=5", "--u0=1", "--u1=0"] + flags.split())
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "finite" in lines[0]


def test_bad_data_selector(capsys):
    code = cli.main(
        ["solve", "--n", "2", "--data-u0", "gaussian:bad=1", "--data-u1", "gaussian:alpha=1",
         "--t-count", "3"]
    )
    assert code == 2


@pytest.mark.parametrize("command", ["thresholds", "verify"])
@pytest.mark.parametrize("where", ["missing/x.csv", "."])
def test_unwritable_out_is_an_input_error_before_any_work(monkeypatch, tmp_path, capsys,
                                                         command, where):
    from logplate import verify

    def fail(*args, **kwargs):
        raise AssertionError("the checks ran before --out was rejected")

    monkeypatch.setattr(verify, "run_all", fail)
    code = cli.main([command, "--out", str(tmp_path / where)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: --out")


def test_out_write_error_is_an_input_error(tmp_path):
    with pytest.raises(ValueError, match="cannot write --out"):
        cli._emit(["x"], str(tmp_path / "missing" / "x.csv"))


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "series.csv"
    code, _ = _run(
        capsys,
        "solve", "--n", "1", "--data-u0", "gaussian:alpha=1", "--data-u1", "gaussian:alpha=1",
        "--t-count", "3", "--out", str(target),
    )
    assert code == 0
    assert target.read_text().startswith("t,value,err_est,n,kind,zone")


def test_panel_budget_exit_code(monkeypatch, capsys):
    from logplate import quadrature

    # check 10's data at t = 160: its tail takes 27 panels, GK15 and Levin
    monkeypatch.setattr(quadrature, "MAX_PANELS", 26)
    code = cli.main(
        ["solve", "--n", "8", "--data-u0", "gaussian:alpha=1",
         "--data-u1", "log_tail:m=1,beta=0.2", "--t0", "160", "--t-count", "1"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert all(key in lines[0] for key in ("t=160", "--tol"))


def test_levin_halving_cap_exit_code(monkeypatch, capsys):
    from logplate import quadrature

    # check 10's data at t = 10 needs halvings of its Levin panels; with
    # none allowed the time fails as an input too expensive, without a
    # traceback
    monkeypatch.setattr(quadrature, "_HALVINGS", 0)
    code = cli.main(
        ["solve", "--n", "8", "--data-u0", "gaussian:alpha=1",
         "--data-u1", "log_tail:m=1,beta=0.2", "--t0", "10", "--t-count", "1"]
    )
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "t=10" in lines[0]


def test_step_budget_exit_code(monkeypatch, capsys):
    from logplate import oracle

    def exhausted(*args, **kwargs):
        raise oracle.StepBudgetError("step budget 10000 exhausted at t=1 of 5")

    monkeypatch.setattr(oracle, "integrate_mode", exhausted)
    code = cli.main(["mode", "--r", "1", "--t", "5", "--oracle"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: step budget")
    assert captured.err.endswith("; use a smaller --t\n")
