"""Alternating parent/change runs of the benchmark, written as one BENCH JSON.

    python3 scripts/bench_pairs.py --parent <rev> --out BENCH_<k>.json \
        --what "one line on the change"

The change is a copy of this checkout as it stands on disk (tracked and
untracked files, not ignored ones); the parent is a `git archive` of <rev>.
Both trees are unpacked side by side in one temporary directory, so neither
side runs from a directory the other does not share.  Both sides run
the same command, `python3 perfbench/run.py --workload <w> --seed <s>
--seconds <S> --trace 0`, from the root of their own tree, one process at a
time, for every workload and the run length S that BENCHMARK.json names.
Seeds 0-9 of a workload are its ten pairs: even seeds run the parent first,
odd seeds the change.  Each per-layer number is the median of three
`--trace 1` runs per side at seed 0, one second long, the side that runs
first alternating between the three.  The output has the schema of
BENCH_5.json: `end_to_end` (per workload: summary and pairs) and
`per_layer` (per workload: parent, change, unit).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
END_TO_END = ("run_s", "setup_s", "peak_rss_mb")
PAIRS = 10
TRACE_SECONDS = 1.0
TRACE_RUNS = 3


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark run in `tree`; returns the JSON of its last output line."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _archive(rev: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _snapshot(dest: Path) -> None:
    """Copy the checkout's tracked and untracked, not ignored, files; a
    tracked file deleted on disk is left out, as a commit of it would."""
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, capture_output=True, check=True,
    ).stdout
    names = b"".join(
        name + b"\0" for name in listed.split(b"\0") if name and (ROOT / name.decode()).exists()
    )
    archive = subprocess.run(
        ["tar", "-c", "--null", "-T", "-"], cwd=ROOT, input=names, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _summary(pairs: list[dict], metric: str) -> dict:
    parent = [p["parent"][metric] for p in pairs]
    change = [p["change"][metric] for p in pairs]
    q = statistics.quantiles(parent, n=4)
    pm = statistics.median(parent)
    cm = statistics.median(change)
    return {
        "parent_median": round(pm, 4),
        "change_median": round(cm, 4),
        "change_over_parent": round(cm / pm, 4) if pm else None,
        "parent_iqr": round(q[2] - q[0], 4),
        "pairs_change_lower": sum(c < p for p, c in zip(parent, change)),
        "pairs": len(pairs),
    }


def _per_layer(trees: dict[str, Path], workload: str) -> dict:
    """Median of TRACE_RUNS traced runs per side for every per-layer metric
    of the change (None where the parent does not report it)."""
    runs = {"parent": [], "change": []}
    for k in range(TRACE_RUNS):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            runs[side].append(_run(trees[side], workload, 0, TRACE_SECONDS, 1)["metrics"])

    def median(side: str, name: str):
        values = [m[name]["value"] for m in runs[side] if m.get(name, {}).get("value") is not None]
        return statistics.median(values) if values else None

    return {
        name: {"parent": median("parent", name), "change": median("change", name),
               "unit": metric["unit"]}
        for name, metric in runs["change"][0].items()
    }


def _hardware() -> str:
    import numpy

    model = "unknown CPU"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    cores = len(os.sched_getaffinity(0))
    return (
        f"{cores}-core {model}, Python {platform.python_version()}, "
        f"NumPy {numpy.__version__}, one thread"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--what", required=True, help="one line naming the change")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = float(bench["run_seconds"])
    workloads = [w["name"] for w in bench["workloads"]]
    parent_rev = subprocess.run(
        ["git", "rev-parse", "--short", args.parent], cwd=ROOT, capture_output=True,
        text=True, check=True,
    ).stdout.strip()

    out = {
        "what": args.what,
        "parent": parent_rev,
        "hardware": _hardware(),
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds "
        f"{seconds:g} --trace <0|1>, run from the root of each checkout",
        "method": "alternating parent/change pairs per seed (even seeds run the parent "
        "first, odd seeds the change first); run_s and setup_s are the benchmark's "
        "calibration-scaled medians, peak_rss_mb the measuring process's peak; "
        f"per-layer numbers are the median of {TRACE_RUNS} --trace 1 runs per side at "
        f"seed 0 with --seconds {TRACE_SECONDS:g} (unscaled), the side that runs first "
        "alternating",
        "end_to_end": {},
        "per_layer": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        for tree in trees.values():
            tree.mkdir()
        _archive(args.parent, trees["parent"])
        _snapshot(trees["change"])
        for workload in workloads:
            pairs = []
            for seed in range(PAIRS):
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                res = {side: _run(trees[side], workload, seed, seconds, 0) for side in order}
                pairs.append({
                    "seed": seed,
                    "first": order[0],
                    **{
                        side: {m: round(res[side]["metrics"][m]["value"], 4) for m in END_TO_END}
                        for side in ("parent", "change")
                    },
                    "failed": [res["parent"]["failed"], res["change"]["failed"]],
                    "attempted": [res["parent"]["attempted"], res["change"]["attempted"]],
                })
                print(workload, json.dumps(pairs[-1]), file=sys.stderr, flush=True)
            out["end_to_end"][workload] = {
                "summary": {m: _summary(pairs, m) for m in END_TO_END},
                "pairs": pairs,
            }
            out["per_layer"][workload] = _per_layer(trees, workload)
    args.out.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
