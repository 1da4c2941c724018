"""logplate: spectral simulator and decay-rate verification harness for the
Cauchy problem of a plate-type wave equation with logarithmic dispersion and
inverse-log damping.

On the Fourier side every radial mode obeys

    (1 + L) u'' + u' + L (1 + L) u = 0,    L = log(1 + r^2),

and the package evaluates the exact mode solutions (`modes`), the
coefficients of the late-time heat-like and oscillatory profiles
(`profiles`), radial-quadrature L^2 norms of the solution, the profiles and
their differences (`quadrature`, whose `node_values` is the one place where
mode values and profiles are combined), and log-log decay-rate fits that
reproduce the known decay classification (diffusion-like / wave-like /
both) at desk scale (`rates`).  Everything is deterministic: identical
inputs give bit-identical output.
"""

__version__ = "0.1.0"
