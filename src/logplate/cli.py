"""Command-line interface.

Subcommands
-----------
thresholds    print the regime thresholds and their defining residuals
mode          evaluate one Fourier mode (optionally cross-checked against
              the adaptive integrator) as a single CSV row
solve         squared-norm series of the solution, CSV
profile-diff  squared-norm series of solution minus a profile, CSV
rates         regime classification plus fitted exponents, JSON
verify        run the acceptance suite, one JSON line per check

All floats are printed with 17 significant digits so values round-trip
exactly; repeated invocations with identical flags produce byte-identical
output.  The artifact is fully deterministic (there is no seed anywhere).
The `seconds` field of `verify` lines is wall time and is the one field
excluded from the determinism guarantee; `--out` files omit it.

Exit codes: 0 success, 1 a rates or verify check failed, 2 usage or input
error (an --out path that cannot be written is found before any work), 3 a
quadrature or integrator budget ran out (one `error:` line that names the
settings to change).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

from . import data as data_mod
from . import modes, oracle, quadrature, rates, symbols, verify

_F = "{:.17g}"


def _fmt(x: float) -> str:
    return _F.format(float(x))


def _check_out(out_path: str | None) -> None:
    """Reject an --out path that cannot be written, before any work."""
    if not out_path:
        return
    if os.path.isdir(out_path):
        raise ValueError(f"--out {out_path!r} is a directory")
    folder = os.path.dirname(out_path) or "."
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise ValueError(f"--out directory {folder!r} does not exist or is not writable")


def _emit(lines: list[str], out_path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _add_data_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, required=True, help="spatial dimension (>= 1)")
    sub.add_argument(
        "--data-u0",
        required=True,
        metavar="SELECTOR",
        help="initial value profile, e.g. gaussian:alpha=1, zero_mass:alpha=1, "
        "log_tail:m=1,beta=0.2 (gaussian also accepts amplitude=...)",
    )
    sub.add_argument(
        "--data-u1", required=True, metavar="SELECTOR", help="initial velocity profile"
    )


def _add_grid_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--t0", type=float, default=10.0, help="first grid time (default 10)")
    sub.add_argument(
        "--t-count",
        type=int,
        default=21,
        help="number of grid times t_k = t0 * 2^(k/2) (default 21, reaching ~1e4)",
    )
    sub.add_argument(
        "--tol",
        type=float,
        default=1e-4,
        help="quadrature tolerance (default 1e-4: slope fits tolerate far "
        "coarser values than pointwise checks; a tighter tolerance costs more "
        "panels, but the Levin panels of the high-zone tail do not grow with t)",
    )
    sub.add_argument("--out", default=None, help="write output to this file instead of stdout")


def _add_zone_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--zone", default="all", choices=("all",) + quadrature.ZONES,
                     help="restrict the radial integral to one frequency zone")


def _grid(args) -> tuple[float, ...]:
    if not 0.0 < args.t0 < math.inf:
        raise ValueError("--t0 must be positive and finite")
    if args.t_count < 1:
        raise ValueError("--t-count must be at least 1")
    return quadrature.default_time_grid(k_max=args.t_count - 1, t0=args.t0)


def _series_csv(series: quadrature.NormSeries) -> list[str]:
    lines = ["t,value,err_est,n,kind,zone"]
    for t, v, e in zip(series.ts, series.values, series.errs):
        lines.append(
            f"{_fmt(t)},{_fmt(v)},{_fmt(e)},{series.n},{series.kind},{series.zone}"
        )
    return lines


def _cmd_thresholds(args) -> int:
    th = symbols.compute_thresholds()
    res = th.residuals()
    lines = ["name,value,residual"]
    for name in ("eta", "delta", "delta0", "r_unit"):
        lines.append(f"{name},{_fmt(getattr(th, name))},{_fmt(res[name])}")
    _emit(lines, args.out)
    return 0


def _cmd_mode(args) -> int:
    if not (0.0 <= args.r < math.inf):
        raise ValueError("--r must be finite and nonnegative")
    p = symbols.FreqPoint.from_radius(args.r)
    th = quadrature.THRESHOLDS
    u0 = complex(args.u0)
    u1 = complex(args.u1)
    if not (cmath.isfinite(u0) and cmath.isfinite(u1)):
        raise ValueError("--u0 and --u1 must be finite")
    state = modes.mode_solve(p, u0, u1, args.t)
    w = symbols.mult_weight(p, th)
    try:
        dens = modes.energy_density(p, state, w)
        if not (math.isfinite(dens.e0) and math.isfinite(dens.e_mod)):
            raise OverflowError
    except OverflowError:
        raise ValueError("--u0 and --u1 must be small enough that the mode's energy is finite") from None
    header = ["r", "t", "u_re", "u_im", "ut_re", "ut_im", "e0", "e_mod", "ode_residual"]
    lam = p.lam
    # nan where nothing can be read: t too small for the stencil, or terms
    # so small (r below about 1e-156) that the stencil's own subnormal
    # rounding exceeds 1e-6 of them
    residual = float("nan")
    if args.t >= 2e-4:
        # u'' as the central difference of the closed-form velocity: a second
        # difference of u would divide u's rounding, which grows with the
        # phase, by h^2
        h = 1e-5
        vm = modes.mode_solve(p, u0, u1, args.t - h).v
        vp = modes.mode_solve(p, u0, u1, args.t + h).v
        terms = ((1.0 + lam) * (vp - vm) / (2.0 * h), state.v, lam * (1.0 + lam) * state.u)
        # relative to the sizes of the three terms, which grow with lam
        scale = sum(abs(x) for x in terms)
        if scale == 0.0:
            residual = 0.0
        elif math.ulp(0.0) / (2.0 * h) <= 1e-6 * scale:
            residual = abs(sum(terms)) / scale
    row = [
        _fmt(p.r),
        _fmt(state.t),
        _fmt(state.u.real),
        _fmt(state.u.imag),
        _fmt(state.v.real),
        _fmt(state.v.imag),
        _fmt(dens.e0),
        _fmt(dens.e_mod),
        _fmt(residual),
    ]
    if args.oracle:
        num = oracle.integrate_mode(p, u0, u1, args.t)
        rel = oracle.scaled_error(state, num, u0, u1)
        header += ["oracle_u_re", "oracle_u_im", "oracle_rel_err"]
        row += [_fmt(num.u.real), _fmt(num.u.imag), _fmt(rel)]
    _emit([",".join(header), ",".join(row)], args.out)
    return 0


def _make_series(args, kind: str) -> quadrature.NormSeries:
    d = data_mod.parse_pair(args.data_u0, args.data_u1, args.n)
    spec = quadrature.QuadSpec(n=args.n, tol=args.tol)
    return quadrature.norm_series(d, kind, args.n, _grid(args), spec, zone=args.zone)


def _cmd_solve(args) -> int:
    _emit(_series_csv(_make_series(args, "u")), args.out)
    return 0


def _cmd_profile_diff(args) -> int:
    _emit(_series_csv(_make_series(args, f"u-{args.profile}")), args.out)
    return 0


def _cmd_rates(args) -> int:
    d = data_mod.parse_pair(args.data_u0, args.data_u1, args.n)
    report = rates.classify(args.n, d.l)
    spec = quadrature.QuadSpec(n=args.n, tol=args.tol)
    grid = _grid(args)
    window = (10.0 * grid[0], grid[-1])  # drop the first decade
    banded = report.two_sided and d.mass_sum != 0.0
    # integrate only the times the fit and band read; a window too short
    # to fit is rejected here, before any series is integrated
    if report.profile is not None or banded:
        times = rates.window_times(grid, window, "fit" if report.profile is not None else "band")
    out: dict = {
        "n": args.n,
        "l": d.l if d.l < math.inf else None,  # JSON has no infinity
        "data": {"u0": d.u0.name, "u1": d.u1.name},
        "regime": report.regime.value,
        "profile": report.profile,
        "theory_exponent": report.diff_exponent,
        "fitted_slope": None,
        "residual": None,
        "band": None,
        "pass": None,
    }
    ok = None
    if report.profile is not None:
        series = quadrature.norm_series(d, f"u-{report.profile}", args.n, times, spec)
        fit = rates.fit_rate(series, window)
        out["fitted_slope"] = fit.slope / 2.0  # norm convention, like theory_exponent
        out["residual"] = fit.residual
        ok = fit.slope / 2.0 <= report.diff_exponent + 0.1
    if banded:
        series_u = quadrature.norm_series(d, "u", args.n, times, spec)
        band = rates.two_sided_band(series_u, 2.0 * report.sol_exponent_upper, window)
        out["band"] = {
            "min": band.lo,
            "max": band.hi,
            "ratio": math.sqrt(band.ratio),  # norm convention
        }
        ok = (ok if ok is not None else True) and band.passed
    out["pass"] = ok
    _emit([json.dumps(out, sort_keys=True)], args.out)
    if ok is None:
        return 0
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    ids = verify.CHECK_IDS if not args.checks else tuple(args.checks)
    unknown = [c for c in ids if c not in verify.CHECK_IDS]
    if unknown:
        raise ValueError(f"unknown check {unknown[0]}; known: {', '.join(verify.CHECK_IDS)}")
    results = [verify.run_check(cid) for cid in ids]
    for res in results:
        sys.stdout.write(verify.render_line(res) + "\n")
        sys.stdout.flush()
    if args.out:
        _emit([verify.canonical_line(res) for res in results], args.out)
    return 0 if all(r.passed for r in results) else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="logplate",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("thresholds", help="regime thresholds and residuals (CSV)")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_thresholds)

    s = sub.add_parser("mode", help="single-mode state, energies and relative residual (CSV row)")
    s.add_argument("--r", type=float, required=True, help="radial frequency (>= 0)")
    s.add_argument("--t", type=float, required=True, help="time (>= 0)")
    lit = "complex literal, default %(default)s; a negative one is written --%(dest)s=-1j)"
    s.add_argument("--u0", default="1", help="initial value (" + lit)
    s.add_argument("--u1", default="0", help="initial velocity (" + lit)
    s.add_argument("--oracle", action="store_true", help="cross-check with the adaptive integrator")
    s.add_argument("--out", default=None)
    s.set_defaults(fn=_cmd_mode)

    s = sub.add_parser(
        "solve",
        help="CSV series of ||u||^2 over the time grid",
        description="Columns: t, value (squared Fourier-side L2 norm), err_est "
        "(quadrature error estimate), n, kind, zone.",
    )
    _add_data_flags(s)
    _add_grid_flags(s)
    _add_zone_flag(s)
    s.set_defaults(fn=_cmd_solve)

    s = sub.add_parser(
        "profile-diff",
        help="CSV series of ||u - profile||^2",
        description="Columns: t, value (squared Fourier-side L2 norm of the "
        "difference), err_est, n, kind, zone.",
    )
    _add_data_flags(s)
    s.add_argument(
        "--profile",
        required=True,
        choices=("phi1", "phi2", "phi"),
        help="profile to subtract: heat-like (phi1), oscillatory (phi2) or their sum (phi)",
    )
    _add_grid_flags(s)
    _add_zone_flag(s)
    s.set_defaults(fn=_cmd_profile_diff)

    s = sub.add_parser(
        "rates",
        help="regime classification and fitted exponents (JSON)",
        description="Fields: n, l (the data's regularity, which picks the regime; null for "
        "every l), data, regime, profile, theory_exponent and fitted_slope (both for the norm "
        "itself, i.e. half the squared-series slope), residual (worst relative misfit), band "
        "{min,max,ratio} of the compensated solution norm when a two-sided bound applies, pass.",
    )
    _add_data_flags(s)
    _add_grid_flags(s)
    s.set_defaults(fn=_cmd_rates)

    s = sub.add_parser(
        "verify",
        help="run the acceptance suite (JSON lines; exit 0 iff all pass)",
        description="One JSON line per check with fields check_id, status "
        "(pass|fail), observed, expected, tolerance, seconds (wall time; "
        "omitted from --out files so they are byte-comparable).",
    )
    s.add_argument(
        "--checks",
        nargs="*",
        metavar="CHECK_ID",
        help="subset of checks to run (default: all); see logplate.verify.CHECK_IDS",
    )
    s.add_argument("--out", default=None, help="also write canonical lines (no timing) to a file")
    s.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        _check_out(args.out)
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except quadrature.QuadratureError as exc:
        sys.stderr.write(f"error: {exc}; use a smaller t or a larger --tol\n")
        return 3
    except oracle.StepBudgetError as exc:
        sys.stderr.write(f"error: {exc}; use a smaller --t\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
