"""Catalog of radial Fourier-side initial data.

Profiles are defined directly on the Fourier side as real radial functions
of the frequency r; the physical mass is the value at r = 0.

Every family is one law, `RadialProfile`: amp r^{2k} e^{-r^2/(4 alpha)},
k in {0, 1}, and for a finite tail exponent q the power tail
c (1+r^2)^{-n/4} (1+L)^{-q/2} beyond the log-weight L = 1.

* gaussian    - transform of a Gaussian bump: k = 0, amp = its peak; every
                log-weighted norm is finite, l = q = math.inf ("every l").
* zero_mass   - transform of a Laplacian of a Gaussian: k = 1, amp = 1; no
                mass (the degenerate two-sided case); l = q = math.inf.
* log_tail    - k = 0, amp = pi^{n/2}, alpha = 1 to r_unit (L = 1), then the
                tail with q = m + 1 + beta: the log-weighted squared norm of
                order s is finite exactly for s < m + beta; l = m.  The tail's
                (1+r^2)^{-n/4} cancels the radial measure exactly.

Each profile also exposes log |u| as a function of the log-weight alone so
that the quadrature, which integrates every norm and `y_norm` in y = sqrt(L)
on the whole line, can fold the radial measure into the data in log space (r
itself overflows once the log-weight exceeds ~709).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import FIRST_NODE, YNormResult, y_norm

__all__ = [
    "ALPHA_MIN",
    "ALPHA_MAX",
    "PEAK_MAX",
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


# alpha >= y0^2, y0 the quadrature's first node: narrower data lie left of
# all its nodes, and below alpha ~ 3e-18 they underflow to a norm of 0.
ALPHA_MIN = FIRST_NODE**2
# The largest decade at which y_norm and a t = 10 norm of Gaussian and
# zero-mass data read their references within err_est (n = 1, 2, 3, five
# alphas a decade): wider cores peak ever more narrowly in y (README).
ALPHA_MAX = 1e25
# Bound on |u| (1+r^2)^{n/4}: squared, with the measure and the mode's factors, it stays finite.
PEAK_MAX = 1e150


class RadialProfile:
    """One radial Fourier-side profile: amp r^{2k} e^{-r^2/(4 alpha)}, and for
    a finite q = l + 1 + beta the tail c (1+r^2)^{-n/4} (1+L)^{-q/2}, log c =
    log_c, beyond L = 1.  l, the regularity, picks the decay regime.  Its
    ranges, refused before any integration: alpha in [ALPHA_MIN, ALPHA_MAX]
    and |u| (1+r^2)^{n/4} below PEAK_MAX (a tail stays below the core at L = 1).
    """

    name: str
    n: int
    l = math.inf  # every log-weighted norm finite, unless a family sets its l
    q = math.inf  # no power tail, unless a family sets its q (with beta and log_c)

    def __init__(self, n: int, alpha: float, amp: float, k: int = 0):
        if not ALPHA_MIN <= alpha <= ALPHA_MAX:
            raise ValueError(f"alpha must lie in [ALPHA_MIN, ALPHA_MAX] = [{ALPHA_MIN:.3g}, "
                             f"{ALPHA_MAX:.3g}]")
        if n < 1:
            raise ValueError("dimension must be at least 1")
        # |u| (1+r^2)^{n/4} <= |amp| max(1, (1+k) n alpha)^{n/4} (8 alpha/e)^k, x/(4 alpha)
        # (x = r^2) split evenly between x^k and (1+x)^{n/4} when k = 1
        log_peak = (math.log(abs(amp)) if amp else -math.inf) + k * math.log(8.0 * alpha / math.e)
        if log_peak + n / 4.0 * math.log(max(1.0, (1 + k) * n * alpha)) > math.log(PEAK_MAX):
            raise ValueError(f"|u| (1+r^2)^(n/4) may exceed PEAK_MAX = {PEAK_MAX:g} (n = {n})")
        self.n, self.alpha, self.amp, self.k = int(n), float(alpha), float(amp), k

    @property
    def mass(self) -> float:  # the value at r = 0
        return 0.0 if self.k else self.amp

    @property
    def sign(self) -> float:
        return math.copysign(1.0, self.amp) if self.amp else 0.0

    @property
    def s_peak(self) -> float:  # bounds the s = 1 + L where |u| (1+r^2)^{n/4} peaks (README)
        return 1.0 + math.log1p(4.0 * self.alpha * (self.k + self.n / 4.0)) if self.amp else 0.0

    def value(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rsq = r * r
            lead = self.amp * rsq if self.k else self.amp
            # where r^2 overflows the core's limit is 0, which inf * 0 would read nan
            out = np.where(rsq < np.inf, lead * np.exp(-rsq / (4.0 * self.alpha)), self.amp * 0.0)
            if self.q < math.inf:
                # where r^2 overflows the log-weight is 2 log r (symbols.log_weight)
                lam = np.where(rsq < np.inf, np.log1p(rsq), 2.0 * np.log(r))
                tail = np.exp(self.log_c - 0.25 * self.n * lam - 0.5 * self.q * np.log1p(lam))
                out = np.where(lam < 1.0, out, tail)
        return float(out) if out.ndim == 0 else out

    def log_flat_from_lam(self, lam):
        """log of |value| (1+r^2)^{n/4} as a function of the log-weight.

        This is the measure-neutralised magnitude: multiplying two of these
        by the flat radial measure w_n (1 - e^{-L})^{(n-2)/2} y dy gives the
        squared-norm integrand in y = sqrt(L) with the exponentially large
        factors cancelled analytically, which keeps the integrand noise at
        eps * log(L) instead of eps * L for arbitrarily large log-weights.
        """
        lam = np.asarray(lam, dtype=float)
        if self.q < math.inf:
            tail = self.log_c - 0.5 * self.q * np.log1p(lam)
            if (lam >= 1.0).all():  # the whole high zone: the core's expm1 overflows there
                return tail
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            rsq = np.expm1(lam)
            log_amp = math.log(abs(self.amp)) if self.amp else -math.inf
            lead = log_amp + np.log(rsq) if self.k else log_amp
            # rsq grows like e^L, so the n L / 4 correction never wins
            core = lead + 0.25 * self.n * lam - rsq / (4.0 * self.alpha)
            if self.k:  # where r^2 overflows, log r^2 - r^2 reads nan: the limit is -inf
                core = np.where(rsq < np.inf, core, -np.inf)
        return core if self.q == math.inf else np.where(lam < 1.0, core, tail)


class GaussianProfile(RadialProfile):
    def __init__(self, alpha: float, amplitude: float, n: int):
        # the law refuses alpha <= 0 before (pi/alpha)^{n/2} could be formed
        super().__init__(n, alpha, amplitude * (math.pi / alpha) ** (n / 2.0) if alpha > 0 else 0.0)
        self.amplitude, self.peak = float(amplitude), self.amp
        self.name = f"gaussian:alpha={alpha:g},amplitude={amplitude:g}"


class ZeroMassProfile(RadialProfile):
    def __init__(self, alpha: float, n: int):
        super().__init__(n, alpha, 1.0, k=1)
        self.name = f"zero_mass:alpha={alpha:g}"


class LogTailProfile(RadialProfile):
    def __init__(self, m: float, beta: float, n: int):
        if m < 0.0:
            raise ValueError("regularity index must be nonnegative")
        if not (0.0 < beta <= 1.0):
            raise ValueError("sharpness margin must lie in (0, 1]")
        super().__init__(n, 1.0, math.pi ** (n / 2.0))
        self.m = self.l = float(m)
        self.beta = float(beta)
        self.q = m + 1.0 + beta  # tail weight exponent: (1+L)^{-q/2}
        self.name = f"log_tail:m={m:g},beta={beta:g}"
        # continuity at r_unit (log-weight 1): core value = c e^{-n/4} 2^{-q/2}
        self.log_c = (math.log(self.amp) - (math.e - 1.0) / (4.0 * self.alpha) + n / 4.0
                      + 0.5 * self.q * math.log(2.0))


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
    except ValueError as exc:
        raise ValueError(f"data {selector!r}: {exc}") from None


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

    # The pair's regularity and tail exponent in the energy pairing
    # D(L^{(l+1)/2}) x D(L^{l/2}): the mode's u1 term carries a 1/b ~ L^{-1/2}
    # that its u0 term lacks, so a tail in u0 counts one order less (README).
    @property
    def l(self) -> float:
        return min(self.u0.l - 1.0, self.u1.l)

    @property
    def q(self) -> float:
        return min(self.u0.q - 1.0, self.u1.q)


def parse_pair(sel0: str, sel1: str, n: int) -> RadialSpectrum:
    return RadialSpectrum(parse_profile(sel0, n), parse_profile(sel1, n))
