"""Rerun `logplate verify --out` and tier-1 on every numpy dispatch target.

    python3 scripts/dispatch_matrix.py [PYTEST_ARGS...]

numpy picks its SIMD code paths at run time, from the targets it reports in
`numpy._core._multiarray_umath.__cpu_dispatch__` (on x86-64, for example,
X86_V3 = AVX2, X86_V4 and the AVX512_* targets).  The script runs two child
processes on the default target (the best one this CPU offers), then on each
offered target below it with every target above it switched off through
`NPY_DISABLE_CPU_FEATURES`, and last on the baseline with every dispatch
target off.  The variable is set in the children's environment only.  Each
child runs from the root of the checkout with `PYTHONPATH=src`:

* `python -m logplate verify --out FILE`, whose canonical lines are compared
  byte for byte with the default target's and with
  `tests/verify_canonical.jsonl`;
* `python -m pytest -q -rA tests [PYTEST_ARGS...]`, whose per-test outcomes
  are compared with the default target's.

One line per target says `same as default` or names what differs: the verify
lines (and whether they still match the canonical file) and each test whose
outcome changed.  The script exits 0 when every target matches the default
and the default matches the canonical file, and 1 otherwise.  It is not part
of tier-1: one target takes about as long as one tier-1 run plus one verify.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from numpy._core import _multiarray_umath as umath

ROOT = Path(__file__).resolve().parent.parent
CANONICAL = ROOT / "tests" / "verify_canonical.jsonl"
OUTCOMES = ("PASSED", "FAILED", "ERROR", "SKIPPED", "XFAIL", "XPASS")


def _env(disabled: list[str]) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = "src" + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "src"
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = " ".join(disabled)
    return env


def _verify_lines(env: dict, folder: Path) -> bytes:
    out = folder / "verify.jsonl"
    subprocess.run([sys.executable, "-m", "logplate", "verify", "--out", str(out)], cwd=ROOT,
                   env=env, capture_output=True)
    return out.read_bytes() if out.exists() else b""


def _test_outcomes(env: dict, extra: list[str]) -> dict[str, str]:
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider", "tests", *extra],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    found = {}
    for line in proc.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in OUTCOMES and rest:
            found[rest.split(" - ")[0]] = word
    return found


def _diff(base: tuple, run: tuple) -> list[str]:
    (base_lines, base_tests), (lines, tests) = base, run
    notes = []
    if lines != base_lines:
        notes.append("verify --out differs" + ("" if lines == CANONICAL.read_bytes()
                                               else " (and from the canonical file)"))
    for test in sorted(set(base_tests) | set(tests)):
        if base_tests.get(test) != tests.get(test):
            notes.append(f"{test}: {base_tests.get(test, 'absent')} -> {tests.get(test, 'absent')}")
    return notes


def main(argv: list[str]) -> int:
    order = list(umath.__cpu_dispatch__)  # lowest target first
    offered = [t for t in order if umath.__cpu_features__.get(t)]
    # each offered target below the best one, with every target above it off
    runs = [("default", [])] + [(t, order[order.index(t) + 1:]) for t in reversed(offered[:-1])]
    runs.append(("baseline", order))
    failed = False
    base = None
    with tempfile.TemporaryDirectory() as tmp:
        for name, disabled in runs:
            folder = Path(tmp) / name
            folder.mkdir()
            env = _env(disabled)
            result = (_verify_lines(env, folder), _test_outcomes(env, argv))
            off = f" (off: {' '.join(disabled)})" if disabled else ""
            if base is None:
                base = result
                passed = sum(v == "PASSED" for v in result[1].values())
                canonical = result[0] == CANONICAL.read_bytes()
                failed |= not canonical
                print(f"default: {passed} of {len(result[1])} tests passed; verify --out "
                      + ("matches the canonical file" if canonical else "differs from the canonical file"))
                continue
            notes = _diff(base, result)
            failed |= bool(notes)
            print(f"{name}{off}: " + ("; ".join(notes) if notes else "same as default"))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
