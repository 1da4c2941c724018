"""Compare the norm values of two source trees against their error estimates.

    python3 scripts/compare_values.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding a `logplate` package (the `src/`
of two checkouts).  Each is imported in a subprocess of its own, which
integrates the comparison set: the data and kinds of checks 06-11 and the
n = 6 `log_tail:m=2,beta=0.5` `u-phi2` point, in the zones all, low,
lowmid, highmid and high, at the 21 times of the default grid, each at its
check's tolerance and the other `QuadSpec` defaults, as `logplate verify`
runs them, once a time with `norm_value` and once as one `norm_series`
(the rows ending in "series"); and the log-weighted norm `data.y_norm` of the three data
families at n = 1, 2, 3, 4, 8 and orders s = 0, 0.5, 1, 1.1, 2, 2.4.  For every (data, kind, zone)
and every y_norm (family, n) one line says

    identical                       every value and err_est is the same double
    values identical                every value is the same double, some err_est is not
    within err: X                   X = max |v - v'| / (err + err') <= 1
    outside err: max rel dv=Y       some |v - v'| exceeds err + err'

followed by `err'/err <= Z`, the largest ratio of the new error estimate to
the old (a change that only loosens err_est would otherwise read `within
err`; 0/0 counts as 1), `diverged flag changed` where a y_norm
divergence flag differs, and `panels differ: C/P → C'/P'` where the row's
GK15 calls C and panels P (counted at `quadrature._gk_eval`) differ.

A last line compares the scalar mode kernel bit for bit: `modes.mode_solve`'s
(u, v) and `modes.pointwise_bound_check`'s verdict and margins at 3,000
seeded points, 750 in each branch of the kernel (series, oscillating,
unified real, eigen), a quarter of them with the nearly fast-aligned data
u1 = -u0.  It reads `identical` or `differs at K of 3000 points`.

The script exits 1 when any value, of a zone or of y_norm, lies outside
err + err', a divergence flag changed, or a scalar mode point differs; a
panel count that differs is reported, not failed.
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
# (u0, u1, n, kind, tol) of every series the comparison integrates
CASES = (
    *((GAUSS, GAUSS, n, "phi1", 1e-6) for n in (1, 2, 3)),  # check 06
    (GAUSS, GAUSS, 2, "phi2", 1e-6),  # check 06
    (GAUSS, GAUSS, 2, "u-phi1", 1e-6),  # check 07
    (GAUSS, LOG_TAIL, 4, "u-phi", 1e-4),  # check 08
    (GAUSS, LOG_TAIL, 8, "u-phi2", 1e-4),  # check 09
    (GAUSS, LOG_TAIL, 8, "u", 1e-4),  # check 10
    (GAUSS, GAUSS, 2, "u", 1e-6),  # check 11
    (GAUSS, GAUSS, 3, "u", 1e-6),  # check 11
    (ZERO, ZERO, 2, "u", 1e-6),  # check 11
    (GAUSS, "log_tail:m=2,beta=0.5", 6, "u-phi2", 1e-4),
)
ZONES = ("all", "low", "lowmid", "highmid", "high")
Y_NORM_DATA = (GAUSS, ZERO, LOG_TAIL)
Y_NORM_DIMS = (1, 2, 3, 4, 8)
Y_NORM_ORDERS = (0.0, 0.5, 1.0, 1.1, 2.0, 2.4)
SCALAR_POINTS = 3000


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


def emit() -> None:
    """Integrate the comparison set with the importable logplate; print JSON."""
    import logplate
    from logplate import data, modes, quadrature, symbols

    out = {"package": logplate.__file__, "values": {}, "diverged": {}, "scalar": [], "gk15": {}}
    gk_eval = quadrature._gk_eval
    counts = [0, 0]  # GK15 calls and panels so far

    def counting(f, lo, hi, *t):  # the time argument is newer than some trees compared
        counts[0] += 1
        counts[1] += lo.size
        return gk_eval(f, lo, hi, *t)

    def count(key, start):
        out["gk15"][key] = [counts[0] - start[0], counts[1] - start[1]]

    quadrature._gk_eval = counting
    th = symbols.compute_thresholds()
    for r, u0, u1, t in scalar_points(th.delta, th.eta):
        p = symbols.FreqPoint.from_radius(r)
        s = modes.mode_solve(p, u0, u1, t)
        b = modes.pointwise_bound_check(p, u0, u1, t, th)
        out["scalar"].append([*_bits(s.u, s.v, b.energy_margin, b.amplitude_margin), b.passed])
    for case in CASES:
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


def _values(src: str) -> dict:
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, __file__, "--emit"], env=env, capture_output=True, text=True, check=True
    )
    out = json.loads(proc.stdout)
    if not Path(out["package"]).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"error: {src} did not provide logplate ({out['package']} was imported)")
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
    """`; panels differ: C/P → C'/P'` when the GK15 (calls, panels) of a row differ."""
    if old == new:
        return ""
    return f"; panels differ: {old[0]}/{old[1]} → {new[0]}/{new[1]}"


def main(argv: list[str]) -> int:
    if argv == ["--emit"]:
        emit()
        return 0
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    old, new = (_values(src) for src in argv)
    failed = False
    for key in old["values"]:
        line, within = verdict(old["values"][key], new["values"][key])
        line += f"; err'/err <= {err_ratio(old['values'][key], new['values'][key]):.3g}"
        line += panels_note(old["gk15"][key], new["gk15"][key])
        failed |= not within
        if old["diverged"].get(key) != new["diverged"].get(key):
            line += "; diverged flag changed"
            failed = True
        print(f"{key}: {line}")
    differ = sum(a != b for a, b in zip(old["scalar"], new["scalar"]))
    print(f"scalar modes, {SCALAR_POINTS} points: ", end="")
    print(f"differs at {differ} of {SCALAR_POINTS} points" if differ else "identical")
    return 1 if failed or differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
