"""Pass timing corrected for the drift of a shared machine's speed.

On a small shared host the speed available to one thread drifts by 20% and
more over tens of seconds, for interpreted and for vectorised code alike,
while the ratio between the benchmark's passes and a fixed calibration loop
stays within a few per cent.  A `Clock` therefore cuts each pass into
segments at checkpoints, runs the calibration loop at every checkpoint
(outside the timed segments), and scales each segment's wall time by
CAL_REF_S / (mean calibration time at its two ends).  The result reads in
seconds at the machine speed where the calibration loop takes CAL_REF_S;
the raw wall time is kept alongside it.

Checkpoints fall at pass ends, at the boundaries of the mirrored checks and
of sweep chunks, and after each `quadrature.norm_value` and
`oracle.integrate_mode` call, once at least SPACING_S have passed since the
previous one, so long passes are corrected piecewise.
"""

from __future__ import annotations

import math
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

CAL_REF_S = 0.020
CAL_REPS = 5
SPACING_S = 1.0

_CAL_X = np.linspace(0.0, 3.0, 1 << 17)


def _calibration_loop() -> float:
    """Fixed work mixing interpreted scalar code and vectorised numpy, the
    two kinds of work the passes consist of; returns its wall time."""
    t0 = perf_counter()
    acc = 0j
    for i in range(4000):
        x = 1e-3 * i
        a = 0.5 / (1.0 + x)
        c = math.sqrt(abs(a * a - x)) + 1e-9
        acc += complex(math.exp(-a) * math.cos(c), math.sin(c) / c)
    y = _CAL_X
    for _ in range(4):
        y = np.exp(-y * y) * np.cos(3.0 * y) + np.sqrt(y + 1.0)
    float(acc.real + y.sum())
    return perf_counter() - t0


def calibrate() -> float:
    """Median time of CAL_REPS calibration loops."""
    return statistics.median(_calibration_loop() for _ in range(CAL_REPS))


class Clock:
    """Accumulates raw and speed-corrected time between checkpoints.

    Passed to a workload's pass in place of a tracer: its spans only mark
    checkpoints.
    """

    def __init__(self) -> None:
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._cal = calibrate()
        self._seg_start = perf_counter()
        self._patches: list[tuple[object, str, object]] = []

    def checkpoint(self, force: bool = False) -> None:
        now = perf_counter()
        seg = now - self._seg_start
        if seg < SPACING_S and not force:
            return
        cal = calibrate()
        self.raw_s += seg
        self.scaled_s += seg * CAL_REF_S / (0.5 * (self._cal + cal))
        self._cal = cal
        self._seg_start = perf_counter()

    @contextmanager
    def span(self, layer: str, name: str):
        self.checkpoint()
        try:
            yield
        finally:
            self.checkpoint()

    def install(self) -> None:
        """Add a checkpoint after each call of the long-running entry points
        `quadrature.norm_value` and `oracle.integrate_mode`."""
        from logplate import oracle, quadrature

        for module, name in ((quadrature, "norm_value"), (oracle, "integrate_mode")):
            original = getattr(module, name)
            self._patches.append((module, name, original))
            setattr(module, name, self._checkpointed(original))

    def _checkpointed(self, fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                self.checkpoint()

        return wrapper

    def uninstall(self) -> None:
        while self._patches:
            module, name, original = self._patches.pop()
            setattr(module, name, original)
