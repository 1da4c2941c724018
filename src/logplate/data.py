"""Catalog of radial Fourier-side initial data.

Profiles are defined directly on the Fourier side as real radial functions
of the frequency r; the physical mass is the value at r = 0.

Three families:

* gaussian    - transform of a Gaussian bump; every log-weighted norm is
                finite.
* zero_mass   - transform of a Laplacian applied to a Gaussian: same decay,
                but the mass vanishes (the degenerate case of the two-sided
                decay results).
* log_tail    - Gaussian core matched at r_unit to a tail
                c (1+r^2)^{-n/4} (1+L)^{-(m+1+beta)/2}, built so that the
                log-weighted squared norm of order s is finite exactly for
                s < m + beta.  The (1+r^2)^{-n/4} factor makes the radial
                measure cancel exactly, leaving a pure power of (1+L).

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


class RadialProfile:
    """One radial Fourier-side profile.

    Attributes set by every family: name, n, mass, sign (constant sign of
    the profile).
    """

    name: str
    n: int
    mass: float
    sign: float

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name} n={self.n}>"


class GaussianProfile(RadialProfile):
    def __init__(self, alpha: float, amplitude: float, n: int):
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.alpha = float(alpha)
        self.amplitude = float(amplitude)
        self.n = int(n)
        self.peak = amplitude * (math.pi / alpha) ** (n / 2.0)
        self.mass = self.peak
        self.sign = math.copysign(1.0, amplitude) if amplitude != 0.0 else 0.0
        self.name = f"gaussian:alpha={alpha:g},amplitude={amplitude:g}"

    def value(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore"):  # r^2 = inf (r >= 1.34e154) gives the limit 0
            out = self.peak * np.exp(-r * r / (4.0 * self.alpha))
        return float(out) if out.ndim == 0 else out

    def log_flat_from_lam(self, lam):
        lam = np.asarray(lam, dtype=float)
        if self.peak == 0.0:
            return np.full_like(lam, -np.inf)
        with np.errstate(over="ignore"):
            rsq = np.expm1(lam)
        # rsq grows like e^L, so the n L / 4 correction never wins
        return math.log(abs(self.peak)) + 0.25 * self.n * lam - rsq / (4.0 * self.alpha)


class ZeroMassProfile(RadialProfile):
    def __init__(self, alpha: float, n: int):
        if alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.alpha = float(alpha)
        self.n = int(n)
        self.mass = 0.0
        self.sign = 1.0
        self.name = f"zero_mass:alpha={alpha:g}"

    def value(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            rsq = r * r
            # where r^2 overflows, inf * 0 would read nan: the limit is 0
            out = np.where(rsq < np.inf, rsq * np.exp(-rsq / (4.0 * self.alpha)), 0.0)
        return float(out) if out.ndim == 0 else out

    def log_flat_from_lam(self, lam):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rsq = np.expm1(lam)
            out = np.where(
                rsq <= 0.0,
                -np.inf,
                np.log(np.maximum(rsq, 1e-300)) + 0.25 * self.n * lam - rsq / (4.0 * self.alpha),
            )
            out = np.where(np.isinf(rsq), -np.inf, out)
        return out


class LogTailProfile(RadialProfile):
    def __init__(self, m: float, beta: float, n: int):
        if m < 0.0:
            raise ValueError("regularity index must be nonnegative")
        if not (0.0 < beta <= 1.0):
            raise ValueError("sharpness margin must lie in (0, 1]")
        if n < 1:
            raise ValueError("dimension must be at least 1")
        self.m = float(m)
        self.beta = float(beta)
        self.n = int(n)
        self.q = m + 1.0 + beta  # tail weight exponent: (1+L)^{-q/2}
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
            core = self.core_peak * np.exp(-rsq / 4.0)
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
            core = math.log(self.core_peak) + 0.25 * self.n * lam - np.expm1(lam) / 4.0
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
