"""Benchmark of logplate, end to end and layer by layer.

    python3 perfbench/run.py --workload guarded-tail --seed 0 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the program from
`src/`.  Passes of the chosen workload are repeated in one process and one
thread, each call issued after the previous returned, until `--seconds`
have elapsed (at least one pass).  Every output is checked against the
references in `refs.json` (see `workloads.py` for what an operation and a
failure are).  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones:
  run_s        median wall seconds of one pass, scaled to a reference
               machine speed by the calibration loop of `clock.py`
  setup_s      median over fresh processes of importing logplate and
               building the inputs, scaled the same way
  peak_rss_mb  peak resident set size of the measuring process

With `--trace 1` the same passes run untraced, then again with wrappers on
logplate's bindings (`tracing.py`), and the metrics are per layer, taken as
medians over the traced passes (unscaled); `trace.overhead_s` is the traced
minus the untraced median wall time of a pass.  The spans of the first traced pass are written
to `perfbench/out/`.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# one thread: keep any BLAS pool numpy may start to a single worker
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs.json"
OUT_DIR = HERE / "out"
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 60


def _import_program():
    """Put the checkout's `src/` first on the path and import from it."""
    if not (SRC / "logplate" / "__init__.py").is_file():
        raise SystemExit(f"error: no logplate sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import logplate

    if Path(logplate.__file__).resolve().parent != SRC / "logplate":
        raise SystemExit(f"error: logplate imported from {logplate.__file__}, not {SRC}")
    import workloads

    return workloads


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _setup_seconds(args) -> float:
    """Median over fresh processes of import plus input construction,
    scaled to the reference machine speed like the pass times."""
    import clock

    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "1", "--setup-probe",
    ]
    cal = clock.calibrate()
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    cal = 0.5 * (cal + clock.calibrate())
    return statistics.median(samples) * clock.CAL_REF_S / cal


def _loop(run_one, seconds, judge, tally):
    """Run passes for `seconds` (at least one), judging each pass's outputs
    outside its timed region.  `run_one` returns (outputs, raw seconds,
    scaled seconds); returns the lists of both times and the first outputs."""
    raw, scaled = [], []
    first = None
    start = time.perf_counter()
    while True:
        out, raw_s, scaled_s = run_one()
        raw.append(raw_s)
        scaled.append(scaled_s)
        attempted, failed, problems = judge(out)
        tally[0] += attempted
        tally[1] += failed
        for line in problems[:5]:
            print(f"check failed: {line}", file=sys.stderr)
        if first is None:
            first = out
        if time.perf_counter() - start >= seconds:
            return raw, scaled, first


def main(argv=None) -> int:
    args = _parse_args(argv)
    workloads = _import_program()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed)
    if args.setup_probe:
        print(repr(time.perf_counter() - _T_START))
        return 0

    refs = json.loads(REFS.read_text())
    ref = refs[wl.name].get(workloads.refs_key(wl, args.seed))
    if ref is None:
        print(f"error: no references for {wl.name} seed {args.seed}", file=sys.stderr)
        return 2
    setup_s = _setup_seconds(args) if not args.trace else None
    # inputs live for the whole run: keep the collector from rescanning them
    gc.collect()
    gc.freeze()

    import clock
    import tracing

    tally = [0, 0]

    def judge(out):
        return workloads.judge(out, ref)

    timer = clock.Clock()

    def clocked_pass():
        raw0, scaled0 = timer.raw_s, timer.scaled_s
        out = wl.run_pass(inputs, timer)
        timer.checkpoint(force=True)
        return out, timer.raw_s - raw0, timer.scaled_s - scaled0

    timer.install()
    try:
        raw, scaled, plain = _loop(clocked_pass, args.seconds, judge, tally)
    finally:
        timer.uninstall()
    if wl.name == "pointwise":
        for ok, label in workloads.pointwise_spot_checks(inputs):
            tally[0] += 1
            tally[1] += not ok
            if not ok:
                print(f"check failed: {label}", file=sys.stderr)
    print(f"{wl.name} seed {args.seed}: {len(raw)} passes, wall "
          f"{[round(t, 3) for t in raw]} s, scaled {[round(t, 3) for t in scaled]} s",
          file=sys.stderr)

    if args.trace:
        tracer = tracing.Tracer()
        per_pass = []
        first_spans = []

        def traced_pass():
            t0 = time.perf_counter()
            out = wl.run_pass(inputs, tracer)
            elapsed = time.perf_counter() - t0
            per_pass.append(tracing.layer_metrics(tracer.spans, workloads.ALL_CHECK_IDS))
            if not first_spans:
                first_spans.extend(tracer.spans)
            tracer.reset()
            return out, elapsed, elapsed

        tracer.install()
        try:
            traced_raw, _, traced = _loop(traced_pass, args.seconds, judge, tally)
        finally:
            tracer.uninstall()
        # tracing must not change a single output
        tally[0] += 1
        if (traced.values, traced.verdicts) != (plain.values, plain.verdicts):
            tally[1] += 1
            print("check failed: traced outputs differ from untraced ones", file=sys.stderr)
        metrics = {
            name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]
        }
        metrics["trace.overhead_s"] = statistics.median(traced_raw) - statistics.median(raw)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.json"
        spans_file.write_text(json.dumps(tracing.spans_as_records(first_spans)))
        units = _per_layer_units()
    else:
        metrics = {
            "run_s": statistics.median(scaled),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

    result = {
        "correct": tally[1] == 0,
        "attempted": tally[0],
        "failed": tally[1],
        "metrics": {
            k: {"value": int(v) if units[k] == "count" else v, "unit": units[k]}
            for k, v in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def _per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
