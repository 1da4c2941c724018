"""Compare the norm values of two source trees against their error estimates.

    python3 scripts/compare_values.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a `logplate` package (the `src/`
of two checkouts).  Each is imported in a subprocess of its own, which
integrates the comparison set: each norm that NEW_SRC's `verify.requests`
names for a check, once per (data, n, kind, tol), and the n = 6
`log_tail:m=2,beta=0.5` `u-phi2` point, in the zones all, low, lowmid,
highmid and high at the 21 times of the default grid, as `logplate verify`
runs them, once a time with `norm_value` and once as one `norm_series` (the
rows ending in "series"); and `data.y_norm` of the three data families at
n = 1, 2, 3, 4, 8 and orders s = 0, 0.5, 1, 1.1, 2, 2.4.  OLD_SRC's
subprocess reads the set on stdin.  For every (data, kind, zone) and every y_norm (family, n) one line says

    identical                       every value and err_est is the same double
    values identical                every value is the same double, some err_est is not
    within err: X                   X = max |v - v'| / (err + err') <= 1
    outside err: max rel dv=Y       some |v - v'| exceeds err + err'

followed by `err'/err <= Z`, the largest ratio of the new error estimate to
the old (a change that only loosens err_est would otherwise read `within
err`; 0/0 counts as 1), `diverged flag changed` where a y_norm
divergence flag differs, and `panels differ: C/P + L Levin → C'/P' + L' Levin`
where the row's GK15 calls C and panels P (counted at `quadrature._gk_eval`)
or its Levin panels L (counted at `quadrature._levin`) differ.

A last line compares the scalar mode kernel bit for bit: `modes.mode_solve`'s
(u, v), `modes.energy_density`'s four fields at the multiplier weight and
`modes.pointwise_bound_check`'s verdict and margins at 3,000 seeded points,
750 in each branch of the kernel (series, oscillating, unified real, eigen),
a quarter of them with the nearly fast-aligned data u1 = -u0.  It reads
`identical` or `differs at K of 3000 points`.

An oracle line compares `oracle.integrate_mode_at` as check 03 runs it: data
(1, i) over check 03's radii, times and rel_tol, NEW_SRC's `verify.R_GRID`,
`verify.ORACLE_TIMES` and `verify.ORACLE_REL_TOL`.  It reads `identical`
when every output is the same double, else `max scaled diff X`, the largest
distance of two outputs scaled as `oracle.scaled_error` scales it.

A reference-integral line compares check 05's calls of
`quadrature.ref_integral_Ip`, `ref_integral_Jp` and `middle_zone_integral`,
the records of NEW_SRC's `verify.REF_CALLS`, each one call with its whole
tuple of times, as check 05 makes it (so OLD_SRC's functions must take a
tuple of times).  It reads `identical` when every value is the same double,
else `max rel diff X at CALL`, the largest |v - v'| / |v| and the one-time
call that gives it, such as `ref_integral_Jp(p=1, t=2)`.

A last line sums the GK15 calls, GK15 panels and Levin panels of every row
above, `panels over N rows: C/P + L Levin → C'/P' + L' Levin`.

The script exits 0 when every comparison holds.  It exits 1 when any
value, of a zone or of y_norm, lies outside err + err', a divergence flag
changed, a scalar mode point differs, the oracle's scaled difference
exceeds 1e-10, or a reference integral's relative difference exceeds the
new tree's `quadrature.REF_TOL`; a panel count that differs is reported,
not failed.  It exits 2 on a usage error, or with one `error:` line when a
tree cannot integrate the set: it holds no `logplate`, or lacks a name the
set uses.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

GAUSS = "gaussian:alpha=1"
LOG_TAIL = "log_tail:m=1,beta=0.2"
ZERO = "zero_mass:alpha=1"
# (u0, u1, n, kind, tol) of the one norm compared that no check reads
EXTRA = (GAUSS, "log_tail:m=2,beta=0.5", 6, "u-phi2", 1e-4)
ZONES = ("all", "low", "lowmid", "highmid", "high")
Y_NORM_DATA = (GAUSS, ZERO, LOG_TAIL)
Y_NORM_DIMS = (1, 2, 3, 4, 8)
Y_NORM_ORDERS = (0.0, 0.5, 1.0, 1.1, 2.0, 2.4)
SCALAR_POINTS = 3000
ORACLE_LIMIT = 1e-10
# GK15 calls/panels + Levin panels, old → new
PANELS = "{}/{} + {} Levin → {}/{} + {} Levin"


def scalar_points(delta: float, eta: float) -> list[tuple[float, complex, complex, float]]:
    """(r, u0, u1, t) of the scalar comparison, seeded, one branch in turn:
    series (the root collision r ~ delta, or t <= 1e-4), oscillating
    (r > delta), unified real (r < delta, 2ct <= 17) and eigen (r < eta,
    t > 34, so 2ct > 17)."""
    rng = random.Random("compare_values/scalar")
    pts = []
    for i in range(SCALAR_POINTS):
        branch = i % 4
        if branch == 0 and i % 8 == 0:
            r, t = delta * (1.0 + rng.uniform(-1e-9, 1e-9)), 10.0 ** rng.uniform(-2.0, 1.0)
        elif branch == 0:
            r, t = 10.0 ** rng.uniform(-6.0, 3.0), 10.0 ** rng.uniform(-9.0, -4.0)
        elif branch == 1:
            r, t = delta * 10.0 ** rng.uniform(1e-6, 3.0), 10.0 ** rng.uniform(-1.0, 2.5)
        elif branch == 2:
            r, t = delta * (1.0 - 10.0 ** rng.uniform(-3.0, 0.0)), 10.0 ** rng.uniform(-1.0, 1.0)
        else:
            r, t = 10.0 ** rng.uniform(-6.0, math.log10(eta)), rng.uniform(40.0, 300.0)
        u0 = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        u1 = -u0 if rng.random() < 0.25 else complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        pts.append((r, u0, u1, t))
    return pts


def _bits(*xs) -> list:
    """Exact text of floats, complexes and None: hex digits keep every bit."""
    out = []
    for x in xs:
        if isinstance(x, complex):
            out += [x.real.hex(), x.imag.hex()]
        else:
            out.append(None if x is None else float(x).hex())
    return out


def _key(case, zone: str) -> str:
    u0, u1, n, kind, tol = case
    return f"n={n} {u0} {u1} {kind} tol={tol:g} zone={zone}"


def emit(given: str) -> None:
    """Integrate the comparison set `given` as JSON, or else the one this
    tree's checks name, with the importable logplate; print both as JSON."""
    import logplate
    from logplate import data, modes, oracle, quadrature, symbols

    if given.strip():
        todo = json.loads(given)
    else:  # this tree's checks name the set
        from logplate import verify

        norms = [r[:5] for cid in verify.CHECK_IDS for r in verify.requests(cid)]
        todo = {"cases": [*dict.fromkeys([*norms, EXTRA])], "radii": verify.R_GRID,
                "oracle_times": verify.ORACLE_TIMES, "oracle_rel_tol": verify.ORACLE_REL_TOL,
                "ref_records": [rec for recs in verify.REF_CALLS.values() for rec in recs]}
    out = {
        "package": logplate.__file__, "set": todo, "values": {}, "diverged": {}, "scalar": [],
        "oracle": [], "panels": {}, "ref": [], "ref_tol": quadrature.REF_TOL,
    }
    gk_eval, levin = quadrature._gk_eval, quadrature._levin
    counts = [0, 0, 0]  # GK15 calls, GK15 panels and Levin panels so far

    def counting(f, lo, hi, t):
        counts[0] += 1
        counts[1] += lo.size
        return gk_eval(f, lo, hi, t)

    def counting_levin(f, lo, hi, t):
        counts[2] += lo.size
        return levin(f, lo, hi, t)

    def count(key, start):
        out["panels"][key] = [now - then for now, then in zip(counts, start)]

    quadrature._gk_eval = counting
    quadrature._levin = counting_levin
    th = symbols.compute_thresholds()
    for r, u0, u1, t in scalar_points(th.delta, th.eta):
        p = symbols.FreqPoint.from_radius(r)
        s = modes.mode_solve(p, u0, u1, t)
        d = modes.energy_density(p, s, symbols.mult_weight(p, th))
        b = modes.pointwise_bound_check(p, u0, u1, t, th)
        out["scalar"].append([*_bits(s.u, s.v, *d, b.energy_margin, b.amplitude_margin), b.passed])
    cfg = oracle.IntegratorConfig(rel_tol=todo["oracle_rel_tol"])
    for r in todo["radii"]:
        p = symbols.FreqPoint.from_radius(r)
        for s in oracle.integrate_mode_at(p, 1.0, 1j, tuple(todo["oracle_times"]), cfg):
            out["oracle"].append(_bits(s.u, s.v))
    for name, p, ts, *lo in todo["ref_records"]:
        out["ref"] += getattr(quadrature, name)(p, tuple(ts), *lo)
    for case in todo["cases"]:
        u0, u1, n, kind, tol = case
        d = data.parse_pair(u0, u1, n)
        spec = quadrature.QuadSpec(n=n, tol=tol)
        for zone in ZONES:
            start = list(counts)
            row = []
            for t in quadrature.default_time_grid():
                try:
                    row.append(list(quadrature.norm_value(d, kind, n, t, spec, zone)))
                except quadrature.QuadratureError as exc:
                    row.append(f"{type(exc).__name__}: {exc}")
            out["values"][_key(case, zone)] = row
            count(_key(case, zone), start)
            start = list(counts)
            try:
                s = quadrature.norm_series(d, kind, n, quadrature.default_time_grid(), spec, zone)
                row = [list(pair) for pair in zip(s.values, s.errs)]
            except quadrature.QuadratureError as exc:
                row = [f"{type(exc).__name__}: {exc}"] * len(row)
            out["values"][_key(case, zone) + " series"] = row
            count(_key(case, zone) + " series", start)
    for sel in Y_NORM_DATA:
        for n in Y_NORM_DIMS:
            key = f"y_norm n={n} {sel} s={','.join(f'{s:g}' for s in Y_NORM_ORDERS)}"
            start = list(counts)
            res = [data.y_norm(data.parse_profile(sel, n), s) for s in Y_NORM_ORDERS]
            out["values"][key] = [[r.value, r.err_est] for r in res]
            out["diverged"][key] = [r.diverged for r in res]
            count(key, start)
    print(json.dumps(out))


def _values(src: str, given: str) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, __file__, "--emit"], env=env, input=given,
                          capture_output=True, text=True)
    if proc.returncode:  # a broken tree is no failed comparison: exit 2, not 1
        last = (proc.stderr.strip().splitlines() or ["no message"])[-1]
        print(f"error: {src} could not integrate the set: {last}", file=sys.stderr)
        raise SystemExit(2)
    out = json.loads(proc.stdout)
    if not Path(out["package"]).resolve().is_relative_to(Path(src).resolve()):
        print(f"error: {src} did not provide logplate ({out['package']} was imported)",
              file=sys.stderr)
        raise SystemExit(2)
    return out


def err_ratio(old: list, new: list) -> float:
    """Largest err'/err over the rows where both sides hold (value, err)."""
    errs = [(a[1], b[1]) for a, b in zip(old, new) if not (isinstance(a, str) or isinstance(b, str))]
    return max((f / e if e > 0.0 else math.inf if f > 0.0 else 1.0 for e, f in errs), default=1.0)


def verdict(old: list, new: list) -> tuple[str, bool]:
    """(line, within): the comparison of one row of (value, err) pairs."""
    if any(isinstance(a, str) or isinstance(b, str) for a, b in zip(old, new)):
        same = all(isinstance(a, str) and isinstance(b, str) for a, b in zip(old, new))
        return ("both raise" if same else "outside err: one side raises"), same
    if all(a[0] == b[0] for a, b in zip(old, new)):
        return ("identical" if all(a[1] == b[1] for a, b in zip(old, new))
                else "values identical"), True
    ratio = rel = 0.0
    for (v, e), (w, f) in zip(old, new):
        dv = abs(v - w)
        if dv > 0.0:
            ratio = max(ratio, dv / (e + f) if e + f > 0.0 else float("inf"))
            rel = max(rel, dv / abs(v) if v else float("inf"))
    if ratio <= 1.0:
        return f"within err: {ratio:.3g}", True
    return f"outside err: max rel dv={rel:.3g}", False


def panels_note(old, new) -> str:
    """`; panels differ: C/P + L Levin → C'/P' + L' Levin` when the GK15 calls
    and panels or the Levin panels of a row differ."""
    if old == new:
        return ""
    return "; panels differ: " + PANELS.format(*old, *new)


def totals_line(old: dict, new: dict) -> str:
    """The GK15 calls and panels and the Levin panels of all rows, old → new."""
    sums = [sum(row[i] for row in side.values()) for side in (old, new) for i in range(3)]
    return f"panels over {len(old)} rows: " + PANELS.format(*sums)


def oracle_line(old: list, new: list) -> tuple[str, bool]:
    """(line, within): the oracle outputs of two trees, each (u, v) in `_bits`."""
    if old == new:
        return "identical", True
    worst = 0.0
    for a, b in zip(old, new):
        a, b = [float.fromhex(x) for x in a], [float.fromhex(x) for x in b]
        diff = math.hypot(*(x - y for x, y in zip(a, b)))
        # the scale of oracle.scaled_error: the larger of |(u, v)| and |(1, i)|
        worst = max(worst, diff / max(math.hypot(*a), math.sqrt(2.0)))
    return f"max scaled diff {worst:.3g}", worst <= ORACLE_LIMIT


def ref_calls(records: list) -> list[str]:
    """The one-time call of each reference value, in the order `emit` lists
    them, from the records (name, p, times[, lo])."""
    return [f"{name}(p={p:g}, t={t:g}{''.join(f', lo={x:g}' for x in lo)})"
            for name, p, ts, *lo in records for t in ts]


def ref_line(old: list, new: list, limit: float, calls: list[str]) -> tuple[str, bool]:
    """(line, within): the reference integrals of two trees, each value
    named by its entry of `calls`."""
    if old == new:
        return "identical", True
    worst, at = max(((abs(v - w) / abs(v) if v else math.inf, call)
                     for v, w, call in zip(old, new, calls) if v != w), key=lambda pair: pair[0])
    return f"max rel diff {worst:.3g} at {at}", worst <= limit


def main(argv: list[str]) -> int:
    if argv == ["--emit"]:
        emit(sys.stdin.read())
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    new = _values(argv[1], "")
    old = _values(argv[0], json.dumps(new["set"]))
    failed = False
    for key in old["values"]:
        line, within = verdict(old["values"][key], new["values"][key])
        line += f"; err'/err <= {err_ratio(old['values'][key], new['values'][key]):.3g}"
        line += panels_note(old["panels"][key], new["panels"][key])
        failed |= not within
        if old["diverged"].get(key) != new["diverged"].get(key):
            line += "; diverged flag changed"
            failed = True
        print(f"{key}: {line}")
    differ = sum(a != b for a, b in zip(old["scalar"], new["scalar"]))
    print(f"scalar modes, {SCALAR_POINTS} points: ", end="")
    print(f"differs at {differ} of {SCALAR_POINTS} points" if differ else "identical")
    line, within = oracle_line(old["oracle"], new["oracle"])
    print(f"oracle, {len(old['oracle'])} outputs of check 03's runs: {line}")
    failed |= not within
    line, within = ref_line(old["ref"], new["ref"], new["ref_tol"],
                            ref_calls(new["set"]["ref_records"]))
    print(f"reference integrals, {len(old['ref'])} of check 05's inputs: {line}")
    print(totals_line(old["panels"], new["panels"]))
    return 1 if failed or differ or not within else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
