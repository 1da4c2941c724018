"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest -q perfbench

The check-10 count test runs the n=8 log_tail series once (about 20 s).
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from logplate import data, quadrature  # noqa: E402

REFS = json.loads((HERE / "refs.json").read_text())
COUNTS = (
    "modes.kernel_nodes",
    "modes.mode_solve_calls",
    "data.nodes",
    "profiles.nodes",
    "quadrature.panels",
    "quadrature.panels_high",
    "quadrature.panels_r",
    "quadrature.probe_nodes",
    "oracle.calls",
)


def traced_pass(wl, inputs):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = wl.run_pass(inputs, tracer)
    finally:
        tracer.uninstall()
    return out, tracing.layer_metrics(tracer.spans, workloads.ALL_CHECK_IDS)


def test_check10_series_counts_match_the_seed_figures():
    tracer = tracing.Tracer()
    d = data.parse_pair("gaussian:alpha=1", "log_tail:m=1,beta=0.2", 8)
    spec = quadrature.QuadSpec(n=8, tol=1e-4, osc_guard=2.0)
    tracer.install()
    try:
        quadrature.norm_series(d, "u", 8, quadrature.default_time_grid(), spec)
    finally:
        tracer.uninstall()
    m = tracing.layer_metrics(tracer.spans, ())
    assert m["quadrature.panels_high"] == 5_061_625
    assert m["quadrature.panels_r"] == 5_811
    assert m["quadrature.panels"] == 5_067_436
    assert m["modes.kernel_nodes"] == 76_011_540  # one kernel node per evaluation


@pytest.mark.parametrize("name", ["smooth-series", "pointwise"])
def test_traced_counts_repeat_and_outputs_match_untraced(name):
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(0)
    plain = wl.run_pass(inputs, tracing.NullTracer())
    first, m1 = traced_pass(wl, inputs)
    second, m2 = traced_pass(wl, inputs)
    assert {k: m1[k] for k in COUNTS} == {k: m2[k] for k in COUNTS}
    for out in (first, second):
        assert out.verdicts == plain.verdicts
        assert out.values == plain.values


def test_tracer_restores_every_binding():
    from logplate import modes, oracle, rates

    before = (quadrature.norm_value, quadrature.propagator_coeffs, modes.mode_solve,
              oracle.integrate_mode, rates.fit_rate, data.GaussianProfile.value)
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    after = (quadrature.norm_value, quadrature.propagator_coeffs, modes.mode_solve,
             oracle.integrate_mode, rates.fit_rate, data.GaussianProfile.value)
    assert before == after


def test_self_time_subtracts_children_and_bookkeeping():
    spans = [
        ["quadrature", "norm_value", 0.0, 10.0, -1, 0.0, None],
        ["kernel", "propagator_coeffs", 1.0, 4.0, 0, 0.5, None],
        ["data", "value", 5.0, 6.0, 0, 0.0, None],
    ]
    assert tracing.self_times(spans) == [5.5, 3.0, 1.0]


def test_judge_flags_values_outside_the_error_estimate_and_changed_verdicts():
    wl = workloads.WORKLOADS["smooth-series"]
    ref = REFS[wl.name]["0"]
    out = wl.run_pass(wl.build(0), tracing.NullTracer())
    attempted, failed, _ = workloads.judge(out, ref)
    assert failed == 0 and attempted > 100

    v, e = out.values["11/u/n2"][3]
    rv, re_ = ref["values"]["11/u/n2"][3]
    out.values["11/u/n2"][3] = [rv + 2.0 * (e + re_) + 1e-300, e]
    out.verdicts["07-diffusion-profile-rate"] = "pass"
    out.values["06/phi2"][0] = [math.nan, 0.0]
    _, failed, problems = workloads.judge(out, ref)
    assert failed == 3, problems


def test_seed_zero_is_the_checks_inputs():
    g = workloads.guarded_build(0)
    assert g.grid == quadrature.default_time_grid()
    assert g.pairs[8].u1.beta == 0.2 and g.pairs[8].u0.alpha == 1.0
    s = workloads.smooth_build(0)
    assert s.grid == quadrature.default_time_grid()
    assert s.zone_ts == tuple(10.0 * 2.0 ** (k / 2.0) for k in range(7)) + (100.0,)
    assert workloads.guarded_build(workloads.VARIANTS).grid == g.grid
    assert workloads.guarded_build(3).grid != g.grid


def test_every_variant_has_references():
    for name, wl in workloads.WORKLOADS.items():
        seeds = range(workloads.VARIANTS) if wl.seeded_refs else (0,)
        for seed in seeds:
            assert workloads.refs_key(wl, seed) in REFS[name]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pointwise", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
