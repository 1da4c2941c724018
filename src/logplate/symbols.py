"""Frequency-symbol primitives for the damped logarithmic-dispersion mode family.

Every radial Fourier mode of the evolution equation treated by this package
satisfies the scalar ODE

    (1 + L) u'' + u' + L (1 + L) u = 0,      L = log(1 + r^2),

where r >= 0 is the radial frequency.  All coefficients depend on r only
through the log-weight L, so this module works with the pair (r, L) and
provides the characteristic roots, the regime thresholds where the root
structure changes, and the piecewise multiplier weight that drives the
pointwise energy decay estimate.  The roots are written once:
`collision_gap` gives a and a^2 - L, `real_roots` the real pair, and the
mode kernel (`modes`), the quadrature and check 02 all take them from here.

Each threshold is in closed form: its defining equation in r is the cubic
L (1 + L)^2 = c in L, with c = 1, 1/4 and 3/16, so r = sqrt(e^L - 1) at
the cubic's one positive root.  Everything here is pure scalar/array
arithmetic in double precision; values are freely shareable across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "R_UNIT",
    "log_weight",
    "FreqPoint",
    "Thresholds",
    "compute_thresholds",
    "collision_gap",
    "real_roots",
    "CharRoots",
    "char_roots",
    "mult_weight",
]

#: Radius where the log-weight equals one: log(1 + r^2) = 1.
R_UNIT = math.sqrt(math.e - 1.0)


def log_weight(r: float) -> float:
    """Log-weight L(r) = log(1 + r^2) of a radius, accurate for small r via
    log1p; negative, infinite and NaN radii are rejected.

    np.log1p, not math.log1p, which differs from it in the last bit on some
    arguments: the pinned outputs are built on these bits.  Where r^2
    overflows (finite r >= 1.34e154) L is 2 log r: log1p(r^-2) is far below
    an ulp of it there.
    """
    r = float(r)
    if not 0.0 <= r < math.inf:
        raise ValueError("radial frequency must be finite and nonnegative")
    rsq = r * r
    return float(np.log1p(rsq) if rsq < math.inf else 2.0 * np.log(r))


class FreqPoint(NamedTuple):
    """A radial frequency r together with its log-weight lam = log(1+r^2).

    Construct through :meth:`from_radius` so the pair stays consistent.
    """

    r: float
    lam: float

    @classmethod
    def from_radius(cls, r: float) -> "FreqPoint":
        return tuple.__new__(cls, (float(r), log_weight(r)))


@dataclass(frozen=True)
class Thresholds:
    """Radial frequencies where the symbol changes character.

    delta0 : root of (1+L) sqrt(L) = 1, the crossover of the multiplier weight
    delta  : root of 4 L (1+L)^2 = 1, where the characteristic roots collide
    eta    : root of 4 L (1+L)^2 = 3/4, below which the root gap stays >= 1/2
    r_unit : sqrt(e - 1), where L = 1

    Satisfies 0 < eta < delta < delta0 < r_unit.
    """

    delta0: float
    delta: float
    eta: float
    r_unit: float

    def residuals(self) -> dict[str, float]:
        """Residuals of each defining equation at the stored root."""
        res = {name: f(getattr(self, name)) for name, (_, f) in _DEFINING.items()}
        return {**res, "r_unit": log_weight(self.r_unit) - 1.0}


def _weight_crossover(r: float) -> float:
    lam = log_weight(r)
    return (1.0 + lam) * math.sqrt(lam) - 1.0


def _disc_defect(r: float) -> float:
    lam = log_weight(r)
    return 4.0 * lam * (1.0 + lam) ** 2 - 1.0


def _gap_defect(r: float) -> float:
    lam = log_weight(r)
    return 4.0 * lam * (1.0 + lam) ** 2 - 0.75


# Each threshold's c in L (1 + L)^2 = c and its defining function in r.
_DEFINING = {
    "delta0": (1.0, _weight_crossover),
    "delta": (0.25, _disc_defect),
    "eta": (0.1875, _gap_defect),
}


def _closed_form(c: float, f) -> float:
    """The double r at the root of f, from the root of L (1 + L)^2 = c.

    Newton in L from L = c falls monotonically to the root, as the cubic is
    convex and increasing for L > 0, so it stops where a step no longer
    lowers L.  Of r = sqrt(e^L - 1) and its two neighbouring doubles, the one
    with the smallest |f| is kept, the lower one on a tie.
    """
    lam, newton = c, lambda x: x - (x * (1.0 + x) ** 2 - c) / ((1.0 + x) * (1.0 + 3.0 * x))
    while newton(lam) < lam:
        lam = newton(lam)
    r = math.sqrt(math.expm1(lam))
    return min((math.nextafter(r, 0.0), r, math.nextafter(r, math.inf)), key=lambda x: abs(f(x)))


def compute_thresholds() -> Thresholds:
    """The regime thresholds, each from its cubic in closed form."""
    return Thresholds(**{k: _closed_form(c, f) for k, (c, f) in _DEFINING.items()}, r_unit=R_UNIT)


def collision_gap(lam):
    """(a, a^2 - L): the damping rate a = 1/(2(1+L)) and the discriminant
    whose sign separates real roots -a +/- sqrt(a^2 - L) (positive) from
    oscillating ones (negative)."""
    a = 0.5 / (1.0 + lam)
    return a, a * a - lam


def real_roots(lam, a, c):
    """(lambda_+, lambda_-) = (-L/(a + c), -a - c) for c = sqrt(a^2 - L) >= 0.

    The slow root -a + c is formed as the product L over the fast root:
    the difference cancels at small L, where c ~ a - L.  Floats or arrays;
    the mode kernel's eigen branch takes its roots from here.
    """
    return -lam / (a + c), -a - c


class CharRoots(NamedTuple):
    """Characteristic roots of (1+L) z^2 + z + L (1+L) = 0 at one frequency:
    `real_roots` where a^2 - L >= 0, else -a +/- i sqrt(L - a^2)."""

    lambda_plus: complex
    lambda_minus: complex


def char_roots(p: FreqPoint) -> CharRoots:
    a, csq = collision_gap(p.lam)
    if csq >= 0.0:
        lp, lm = real_roots(p.lam, a, math.sqrt(csq))
        return CharRoots(complex(lp), complex(lm))
    b = math.sqrt(-csq)
    return CharRoots(complex(-a, b), complex(-a, -b))


def mult_weight(p: FreqPoint, th: Thresholds) -> float:
    """Piecewise multiplier weight driving the pointwise energy decay.

    Equals L(1+L)/2 below delta0 and 1/(2(1+L)) above, which coincides with
    min{L(1+L)/2, 1/(2(1+L)), sqrt(L)/2} everywhere.
    """
    lam = p.lam
    if p.r <= th.delta0:
        return 0.5 * lam * (1.0 + lam)
    return 0.5 / (1.0 + lam)
