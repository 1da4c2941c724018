"""Record the benchmark's reference outputs from the current program.

    python3 perfbench/make_refs.py [--workload NAME ...]

For every seed variant of `guarded-tail` and `smooth-series` this runs one
untraced pass and stores each squared norm with its error estimate and each
verdict in `perfbench/refs.json`; `pointwise` stores the verdicts of checks
01-05.  The variant-0 verdicts must equal the statuses `logplate verify`
reports for the same checks, since variant 0 uses the checks' own inputs.
Regenerate only at a commit whose outputs are trusted: the references are
what later commits are checked against.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from logplate import verify  # noqa: E402


def record(wl, seed: int) -> dict:
    out = wl.run_pass(wl.build(seed), tracing.NullTracer())
    if out.errors:
        raise RuntimeError(f"{wl.name} seed {seed}: {out.errors}")
    return {"values": out.values, "verdicts": out.verdicts}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    names = ap.parse_args().workload or list(workloads.WORKLOADS)
    path = HERE / "refs.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    for name in names:
        wl = workloads.WORKLOADS[name]
        seeds = range(workloads.VARIANTS) if wl.seeded_refs else (0,)
        entry = {workloads.refs_key(wl, s): record(wl, s) for s in seeds}
        first = entry[workloads.refs_key(wl, 0)]["verdicts"]
        for cid in wl.check_ids:
            status = verify.run_check(cid).status
            if first[cid] != status:
                raise RuntimeError(f"{cid}: mirrored verdict {first[cid]} != verify {status}")
        for key, ref in entry.items():
            print(f"{name} {key}: {ref['verdicts']}", file=sys.stderr)
        refs[name] = entry
        path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
