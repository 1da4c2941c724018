"""Outside-in layer tracing for the logplate benchmark.

The tracer replaces the bindings that callers inside `logplate` actually
look up (for example `quadrature.propagator_coeffs`, which the quadrature
module resolves through its own globals) with thin wrappers that record a
span per call: layer, name, start, end, parent and a few counts.  Nothing in
the program changes; `uninstall` puts every original binding back.

Spans are kept in memory and turned into per-layer metrics after a pass.  A
span's self time is its duration minus the durations of its child spans and
minus the tracer's own bookkeeping done inside it.

Zones are told apart by each node's log-weight: the high (y-tail) zone is
L >= 1, and since Gauss-Kronrod nodes are interior to their panels no r-zone
node reaches it.  Integrand evaluations inside a `norm_value` call are the
data-layer nodes divided by two (every integrand reads both data profiles);
panels are integrand evaluations / 15.  Data calls whose size is not a
multiple of 15 are the 33-point envelope probes of the tail loop.
"""

from __future__ import annotations

import math
import statistics
from contextlib import contextmanager, nullcontext
from time import perf_counter

import numpy as np

GK_NODES = 15

# span record fields
LAYER, NAME, START, END, PARENT, OVERHEAD, INFO = range(7)


class Tracer:
    """Records spans from wrappers installed on logplate's bindings."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._norm: dict | None = None  # info of the innermost open norm_value
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans
    def _open(self, layer: str, name: str, info: dict | None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, perf_counter(), 0.0, parent, 0.0, info])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def _charge(self, idx: int, since: float) -> None:
        """Book tracer work done after span `idx` closed as its overhead."""
        self.spans[idx][OVERHEAD] += perf_counter() - since

    @contextmanager
    def span(self, layer: str, name: str):
        """A span opened by the benchmark itself around one of its steps."""
        idx = self._open(layer, name, None)
        try:
            yield
        finally:
            self._close(idx)

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._norm = None

    # --------------------------------------------------------------- patching
    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        from logplate import data, modes, oracle, quadrature, rates

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._patch(quadrature, "propagator_coeffs", lambda f: self._call(f, "kernel", True))
        self._patch(quadrature, "phi1_coeff", lambda f: self._call(f, "profiles", True))
        self._patch(quadrature, "phi2_coeffs", lambda f: self._call(f, "profiles", True))
        for cls in (data.GaussianProfile, data.ZeroMassProfile, data.LogTailProfile):
            self._patch(cls, "value", lambda f: self._data_leaf(f, tail=False))
            self._patch(cls, "log_flat_from_lam", lambda f: self._data_leaf(f, tail=True))
        self._patch(quadrature, "norm_value", self._norm_value)
        for name in ("norm_series", "ref_integral_Ip", "ref_integral_Jp", "middle_zone_integral"):
            self._patch(quadrature, name, lambda f: self._call(f, "quadrature"))
        self._patch(data, "y_norm", lambda f: self._call(f, "data"))
        self._patch(oracle, "integrate_mode", lambda f: self._call(f, "oracle"))
        self._patch(modes, "mode_solve", lambda f: self._call(f, "mode_solve"))
        for name in ("fit_rate", "two_sided_band", "classify"):
            self._patch(rates, name, lambda f: self._call(f, "rates"))

    # --------------------------------------------------------------- wrappers
    def _call(self, fn, layer: str, count_nodes: bool = False):
        """Span per call; with `count_nodes` the first argument is an array
        of log-weights whose size is recorded."""
        name = fn.__name__

        def wrapper(*args, **kwargs):
            idx = self._open(layer, name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if count_nodes:
                    self.spans[idx][INFO] = {"nodes": int(np.size(args[0]))}

        return wrapper

    def _data_leaf(self, fn, tail: bool):
        name = fn.__name__

        def wrapper(profile, x):
            idx = self._open("data", name, None)
            try:
                out = fn(profile, x)
            finally:
                self._close(idx)
            since = perf_counter()
            size = int(np.size(x))
            info = {"nodes": size, "tail": tail, "integrand": size % GK_NODES == 0}
            if tail and info["integrand"]:
                info["underflow"] = _tail_underflow(profile.n, np.asarray(x), out)
            norm = self._norm
            if norm is not None:
                if not info["integrand"]:
                    norm["probe"] += size
                elif tail:
                    norm["high"] += size
                else:
                    norm["r"] += size
            self.spans[idx][INFO] = info
            self._charge(idx, since)
            return out

        return wrapper

    def _norm_value(self, fn):
        def wrapper(d, kind, n, t, spec=None, zone="all"):
            info = {"t": float(t), "kind": kind, "n": n, "high": 0, "r": 0, "probe": 0}
            outer = self._norm
            self._norm = info
            idx = self._open("quadrature", "norm_value", info)
            try:
                return fn(d, kind, n, t, spec, zone)
            finally:
                self._close(idx)
                self._norm = outer

        return wrapper


class NullTracer:
    """Stand-in for untraced passes: spans do nothing."""

    def span(self, layer: str, name: str):
        return nullcontext()


def _tail_underflow(n: int, lam: np.ndarray, log_flat: np.ndarray) -> int:
    """Nodes whose measure-folded value exp(log_flat + measure / 2) is 0.

    The measure is the radial measure in y = sqrt(L) with its exponential
    growth moved into the flat data values: w_n (1 - e^{-L})^{(n-2)/2} y.
    """
    from logplate.quadrature import surface_area

    with np.errstate(divide="ignore", under="ignore"):
        half_measure = 0.5 * (
            math.log(surface_area(n))
            + 0.5 * (n - 2) * np.log1p(-np.exp(-lam))
            + 0.5 * np.log(lam)
        )
        folded = np.exp(np.asarray(log_flat) + half_measure)
    return int(np.count_nonzero(folded == 0.0))


# ---------------------------------------------------------------------------
# metrics


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus its children and the tracer's own work."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= (s[END] - s[START]) + s[OVERHEAD]
    return own


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def _slope(points: dict[float, float], t_min: float) -> float:
    """Least-squares slope of log(panels) against log(t) for t >= t_min."""
    pts = [(math.log(t), math.log(p)) for t, p in sorted(points.items()) if t >= t_min and p > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(spans: list[list], check_ids) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    own = self_times(spans)
    acc = {k: 0.0 for k in (
        "kernel_nodes", "kernel_s", "solve_calls", "solve_s", "data_nodes", "data_s",
        "tail_nodes", "tail_zero", "prof_nodes", "prof_s", "panels_high", "panels_r",
        "probe", "quad_s", "oracle_calls", "oracle_s", "rates_s",
    )}
    per_t: dict[float, float] = {}
    t_secs: dict[float, float] = {}
    checks = {cid: 0.0 for cid in check_ids}
    for i, s in enumerate(spans):
        layer, info = s[LAYER], s[INFO]
        if layer == "kernel":
            acc["kernel_nodes"] += info["nodes"]
            acc["kernel_s"] += own[i]
        elif layer == "mode_solve":
            acc["solve_calls"] += 1
            acc["solve_s"] += own[i]
        elif layer == "data":
            acc["data_s"] += own[i]
            if info is not None:
                acc["data_nodes"] += info["nodes"]
                if info["tail"] and info["integrand"]:
                    acc["tail_nodes"] += info["nodes"]
                    acc["tail_zero"] += info["underflow"]
        elif layer == "profiles":
            acc["prof_nodes"] += info["nodes"]
            acc["prof_s"] += own[i]
        elif layer == "quadrature":
            acc["quad_s"] += own[i]
            if s[NAME] == "norm_value":
                high = info["high"] // (2 * GK_NODES)
                r = info["r"] // (2 * GK_NODES)
                acc["panels_high"] += high
                acc["panels_r"] += r
                acc["probe"] += info["probe"] // 2
                parent = s[PARENT]
                if parent >= 0 and spans[parent][NAME] == "norm_series":
                    t = info["t"]
                    per_t[t] = per_t.get(t, 0.0) + high + r
                    t_secs[t] = t_secs.get(t, 0.0) + (s[END] - s[START])
        elif layer == "oracle":
            acc["oracle_calls"] += 1
            acc["oracle_s"] += own[i]
        elif layer == "rates":
            acc["rates_s"] += own[i]
        elif layer == "verify" and s[NAME] in checks:
            checks[s[NAME]] = s[END] - s[START]
    panels = acc["panels_high"] + acc["panels_r"]
    out = {
        "modes.kernel_nodes": acc["kernel_nodes"],
        "modes.kernel_s": acc["kernel_s"],
        "modes.kernel_ns_per_node": _ratio(acc["kernel_s"], acc["kernel_nodes"], 1e9),
        "modes.mode_solve_calls": acc["solve_calls"],
        "modes.mode_solve_us": _ratio(acc["solve_s"], acc["solve_calls"], 1e6),
        "data.nodes": acc["data_nodes"],
        "data.s": acc["data_s"],
        "data.ns_per_node": _ratio(acc["data_s"], acc["data_nodes"], 1e9),
        "data.underflow_share": _ratio(acc["tail_zero"], acc["tail_nodes"]),
        "profiles.nodes": acc["prof_nodes"],
        "profiles.s": acc["prof_s"],
        "quadrature.panels": panels,
        "quadrature.panels_high": acc["panels_high"],
        "quadrature.panels_r": acc["panels_r"],
        "quadrature.probe_nodes": acc["probe"],
        "quadrature.panel_t_slope": _slope(per_t, 40.0),
        "quadrature.last_t_s": t_secs[max(t_secs)] if t_secs else 0.0,
        "quadrature.self_s": acc["quad_s"],
        "quadrature.ns_per_panel": _ratio(acc["quad_s"], panels, 1e9),
        "oracle.calls": acc["oracle_calls"],
        "oracle.s": acc["oracle_s"],
        "oracle.ms_per_call": _ratio(acc["oracle_s"], acc["oracle_calls"], 1e3),
        "rates.s": acc["rates_s"],
    }
    for cid, secs in checks.items():
        out[f"verify.check_s.{cid}"] = secs
    return out


def spans_as_records(spans: list[list]) -> list[dict]:
    """JSON-ready spans: name, start, end and parent index, plus counts."""
    t0 = spans[0][START] if spans else 0.0
    return [
        {
            "layer": s[LAYER],
            "name": s[NAME],
            "start": s[START] - t0,
            "end": s[END] - t0,
            "parent": s[PARENT],
            **({k: v for k, v in s[INFO].items()} if s[INFO] else {}),
        }
        for s in spans
    ]
