"""Catalog of radial Fourier-side initial data.

Profiles are defined directly on the Fourier side as real radial functions
of the frequency r; the physical mass is the value at r = 0.

Three families:

* gaussian    - transform of a Gaussian bump; every log-weighted norm is
                finite, so its regularity l is math.inf ("every l").
* zero_mass   - transform of a Laplacian applied to a Gaussian: same decay,
                but the mass vanishes (the degenerate case of the two-sided
                decay results); l = math.inf.
* log_tail    - Gaussian core matched at r_unit to a tail
                c (1+r^2)^{-n/4} (1+L)^{-(m+1+beta)/2}, built so that the
                log-weighted squared norm of order s is finite exactly for
                s < m + beta; l = m.  The (1+r^2)^{-n/4} factor makes the
                radial measure cancel exactly, leaving a pure power of (1+L).

Each profile also exposes log |u| as a function of the log-weight alone so
that the quadrature and `y_norm`, which integrate in y = sqrt(L) on the
whole line, can fold the radial measure into the data in log space (r
itself overflows once the log-weight exceeds ~709).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import TAIL_START, log_flat_measure, radial_integral, tail_integral

__all__ = [
    "ALPHA_MIN",
    "RadialProfile",
    "GaussianProfile",
    "ZeroMassProfile",
    "LogTailProfile",
    "parse_profile",
    "RadialSpectrum",
    "parse_pair",
    "YNormResult",
    "y_norm",
]


# alpha >= y0^2: y0 ~ 6.5e-8 is the first GK15 node of [0, 2^-16], the first
# panel of the ladder every norm takes on y in [0, 1]; narrower data lie left
# of all its nodes, and below alpha ~ 3e-18 they underflow to a norm of 0.
ALPHA_MIN = (2.0**-17 * (1.0 - 0.991455371120812639206854697526329)) ** 2


class RadialProfile:
    """One radial Fourier-side profile around a Gaussian core amp e^{-r^2/(4 alpha)}.

    Attributes of every family: name, n, alpha, l (the regularity, which
    picks the decay regime), mass, sign (constant sign of the profile).
    """

    name: str
    n: int
    l = math.inf  # every log-weighted norm finite, unless a family sets its l
    mass: float
    sign: float

    def __init__(self, n: int, alpha: float):
        if not alpha >= ALPHA_MIN:
            raise ValueError(f"alpha must be at least ALPHA_MIN = {ALPHA_MIN:.3g}")
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.n, self.alpha = int(n), float(alpha)

    # the core at r^2 = rsq, and its log-flat form at rsq = e^L - 1
    def _core(self, amp, rsq):
        return amp * np.exp(-rsq / (4.0 * self.alpha))

    def _log_flat_core(self, log_amp, lam, rsq):
        return log_amp + 0.25 * self.n * lam - rsq / (4.0 * self.alpha)

    def value(self, r):
        raise NotImplementedError

    def log_flat_from_lam(self, lam):
        """log of |value| (1+r^2)^{n/4} as a function of the log-weight.

        This is the measure-neutralised magnitude: multiplying two of these
        by the flat radial measure w_n (1 - e^{-L})^{(n-2)/2} y dy gives the
        squared-norm integrand in y = sqrt(L) with the exponentially large
        factors cancelled analytically, which keeps the integrand noise at
        eps * log(L) instead of eps * L for arbitrarily large log-weights.
        """
        raise NotImplementedError


class GaussianProfile(RadialProfile):
    def __init__(self, alpha: float, amplitude: float, n: int):
        super().__init__(n, alpha)
        self.amplitude = float(amplitude)
        self.peak = amplitude * (math.pi / alpha) ** (n / 2.0)
        self.mass = self.peak
        self.sign = math.copysign(1.0, amplitude) if amplitude != 0.0 else 0.0
        self.name = f"gaussian:alpha={alpha:g},amplitude={amplitude:g}"

    def value(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):  # r^2 = inf (r >= 1.34e154) gives the limit 0
            out = self._core(self.peak, r * r)
        return float(out) if out.ndim == 0 else out

    def log_flat_from_lam(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.peak == 0.0:
            return np.full_like(lam, -np.inf)
        with np.errstate(over="ignore"):
            rsq = np.expm1(lam)
        # rsq grows like e^L, so the n L / 4 correction never wins
        return self._log_flat_core(math.log(abs(self.peak)), lam, rsq)


class ZeroMassProfile(RadialProfile):
    def __init__(self, alpha: float, n: int):
        super().__init__(n, alpha)
        self.mass = 0.0
        self.sign = 1.0
        self.name = f"zero_mass:alpha={alpha:g}"

    def value(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            rsq = r * r
            # where r^2 overflows, inf * 0 would read nan: the limit is 0
            out = np.where(rsq < np.inf, self._core(rsq, rsq), 0.0)
        return float(out) if out.ndim == 0 else out

    def log_flat_from_lam(self, lam):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rsq = np.expm1(lam)
            out = np.where(
                rsq <= 0.0, -np.inf, self._log_flat_core(np.log(np.maximum(rsq, 1e-300)), lam, rsq)
            )
            out = np.where(np.isinf(rsq), -np.inf, out)
        return out


class LogTailProfile(RadialProfile):
    def __init__(self, m: float, beta: float, n: int):
        if m < 0.0:
            raise ValueError("regularity index must be nonnegative")
        if not (0.0 < beta <= 1.0):
            raise ValueError("sharpness margin must lie in (0, 1]")
        super().__init__(n, 1.0)
        self.m = float(m)
        self.beta = float(beta)
        self.q = m + 1.0 + beta  # tail weight exponent: (1+L)^{-q/2}
        self.l = self.m
        self.core_peak = math.pi ** (n / 2.0)
        self.mass = self.core_peak
        self.sign = 1.0
        self.name = f"log_tail:m={m:g},beta={beta:g}"
        # continuity at r_unit (log-weight 1): core value = c e^{-n/4} 2^{-q/2}
        core_at_unit = math.log(self.core_peak) - (math.e - 1.0) / 4.0
        self.log_c = core_at_unit + n / 4.0 + 0.5 * self.q * math.log(2.0)

    def value(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            rsq = r * r
            # where r^2 overflows the log-weight is 2 log r (symbols.log_weight)
            lam = np.where(rsq < np.inf, np.log1p(rsq), 2.0 * np.log(r))
            core = self._core(self.core_peak, rsq)
        tail = np.exp(self.log_c - 0.25 * self.n * lam - 0.5 * self.q * np.log1p(lam))
        out = np.where(lam < 1.0, core, tail)
        return float(out) if out.ndim == 0 else out

    def log_flat_from_lam(self, lam):
        # the (1+r^2)^{-n/4} tail factor cancels the flattening exactly;
        # this exactness is the whole reason the family carries that factor
        lam = np.asarray(lam, dtype=float)
        tail = self.log_c - 0.5 * self.q * np.log1p(lam)
        if (lam >= 1.0).all():
            # all nodes in the tail (the whole y-zone): skip the core branch,
            # whose expm1 overflows there
            return tail
        with np.errstate(over="ignore"):
            core = self._log_flat_core(math.log(self.core_peak), lam, np.expm1(lam))
        return np.where(lam < 1.0, core, tail)


# selector family -> (profile class, keyword defaults; None = required)
_FAMILIES = {
    "gaussian": (GaussianProfile, {"alpha": None, "amplitude": 1.0}),
    "zero_mass": (ZeroMassProfile, {"alpha": None}),
    "log_tail": (LogTailProfile, {"m": None, "beta": None}),
}


def parse_profile(selector: str, n: int) -> RadialProfile:
    """Build a profile from a selector like "gaussian:alpha=1".

    Grammar: family:key=value[,key=value...].  Unknown families, unknown,
    repeated or missing keys and non-finite values are rejected.
    """
    family, _, args = selector.partition(":")
    family = family.strip()
    if family not in _FAMILIES:
        raise ValueError(f"unknown data family {family!r}")
    ctor, defaults = _FAMILIES[family]
    kwargs = dict(defaults)
    if args.strip():
        given = set()
        for item in args.split(","):
            key, sep, val = item.partition("=")
            key = key.strip()
            if not sep or key not in defaults:
                raise ValueError(f"unknown key {key!r} for data family {family!r}")
            if key in given:
                raise ValueError(f"key {key!r} repeated in data selector {selector!r}")
            given.add(key)
            try:
                kwargs[key] = float(val)
            except ValueError as exc:
                raise ValueError(f"bad value for {key!r}: {val!r}") from exc
            if not math.isfinite(kwargs[key]):
                raise ValueError(f"value for {key!r} must be finite, got {val.strip()!r}")
    missing = [k for k, v in kwargs.items() if v is None]
    if missing:
        raise ValueError(f"data family {family!r} requires {missing}")
    try:
        return ctor(n=n, **kwargs)
    except OverflowError:
        raise ValueError(f"data {selector!r} overflows a double in dimension {n}") from None


@dataclass(frozen=True)
class RadialSpectrum:
    """An initial-data pair given by two radial Fourier profiles."""

    u0: RadialProfile
    u1: RadialProfile

    def __post_init__(self) -> None:
        if self.u0.n != self.u1.n:
            raise ValueError("data pair must share one dimension")

    @property
    def mass_sum(self) -> float:
        return self.u0.mass + self.u1.mass

    @property
    def l(self) -> float:  # the smaller of the two profiles' regularities
        return min(self.u0.l, self.u1.l)


def parse_pair(sel0: str, sel1: str, n: int) -> RadialSpectrum:
    return RadialSpectrum(parse_profile(sel0, n), parse_profile(sel1, n))


@dataclass(frozen=True)
class YNormResult:
    """Log-weighted squared norm; `diverged` is a flag, not an error."""

    value: float
    err_est: float
    diverged: bool


def y_norm(d: RadialProfile, s: float, n: int | None = None) -> YNormResult:
    """w_n int_0^inf (1 + L)^s |u(r)|^2 r^{n-1} dr, with divergence flagged.

    The integral is taken in y = sqrt(L) with the measure folded into the
    data in log space: the head over y in [0, 1], the tail doubling the
    extent of 1 + L until the increment is negligible.  If the doubling
    budget runs out while the increments still move the total, the norm is
    flagged divergent.
    """
    if s < 0.0:
        raise ValueError("regularity order must be nonnegative")
    n = n if n is not None else d.n
    if n != d.n:
        raise ValueError("profile dimension does not match the request")
    tol = 1e-8

    def f(y):
        lam = y * y
        logv = d.log_flat_from_lam(lam)
        return np.exp(s * np.log1p(lam) + 2.0 * logv + log_flat_measure(y, n))

    head, head_err = radial_integral(f, 0.0, 1.0, tol, ladder=16)

    def segments(runs):
        ys = [math.sqrt(s_end - 1.0) for s_end in runs[0]]
        return {0: [radial_integral(f, a, b, tol) for a, b in zip(ys, ys[1:])]}

    ((tail, tail_err, converged),) = tail_integral(
        segments, TAIL_START, 2.0 * TAIL_START, tol, baselines=(head,)
    )
    return YNormResult(head + tail, head_err + tail_err, not converged)
