"""A deterministic reference for the spatial integrals of `heislab.capacity`.

`polar_spatial_integral` takes the pointwise `cutoffs.spatial_factor` on a product
rule in Koranyi polar coordinates.  It shares nothing with the factored radial rule of
`capacity` (`_variants`, `_bracket`, the Gauss-Jacobi rule) nor with the Beta form of
S_omega, so the two agree only if both are right; `polar_gap` compares them.
"""

import math

import numpy as np

from heislab.capacity import spatial_integral
from heislab.cutoffs import spatial_factor
from heislab.group import GroupPoint

# Gauss-Legendre nodes in ln r and Gauss-Chebyshev nodes in sin(theta).  The rule converges
# slowly in r where |Delta phi2|^(q') has a kink, at the zeros of its radial part.
POLAR_NODES = 256
# Over the cases of the tests, polar_spatial_integral at POLAR_NODES differs from itself at
# 2 POLAR_NODES by at most 2.3e-8 relative, and from spatial_integral by at most 2.1e-8
# (both the logarithmic family's weighted integral at n = 2, R = 1e3).
POLAR_RTOL = 1e-7


def polar_spatial_integral(e, spec, R: float, nodes: int = POLAR_NODES) -> dict:
    """`weighted` and `data` of `capacity.spatial_integral` at R, by name: the integrals of
    phi2^(-1/(q-1)) |Delta phi2|^(q') and of |Delta phi2|^(q') over H^n.

    A point of gauge r at angle theta has |z|^2 = r^2 cos(theta) and tau = r^2 sin(theta),
    and d eta = r^(Q-1) cos^(n-1)(theta) dr dtheta dsigma with sigma on S^(2n-1)
    (Folland-Stein, Hardy Spaces on Homogeneous Groups, 1982, Prop. 1.15).  Both
    integrands depend on z through |z| alone, so z is put on the x_1 axis and sigma
    integrates out as |S^(2n-1)| = 2 pi^n / Gamma(n).  In r the rule is Gauss-Legendre in
    ln r over the support annulus, [R/sqrt(2), R] for the power family and [sqrt(R), R]
    for the logarithmic one; in s = sin(theta) it is Gauss-Chebyshev, whose weight
    1/sqrt(1 - s^2) is dtheta/ds.  The weight phi2^(-1/(q-1)) is formed in logs, as it
    leaves float range at n = 3."""
    n, q, qp = e.n, e.q, e.q_prime
    inner = R / math.sqrt(2.0) if spec.family == "power" else math.sqrt(R)
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * math.log(R / inner)
    r = np.exp(math.log(R) - half * (1.0 - x))
    w_r = half * w * r ** e.Q  # r^(Q-1) dr = r^Q d(ln r)
    s = np.cos((2.0 * np.arange(1, nodes + 1) - 1.0) * math.pi / (2.0 * nodes))
    w_s = math.pi / nodes * (1.0 - s * s) ** (0.5 * (n - 1))
    r, s = r[:, None], s[None, :]
    x1 = np.zeros((r.size * s.size, n))
    x1[:, 0] = (r * np.sqrt(np.sqrt(1.0 - s * s))).ravel()  # |z| = r sqrt(cos(theta))
    v, lap = spatial_factor(spec, R, GroupPoint(x1, np.zeros_like(x1), (r * r * s).ravel()))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_lap = qp * np.log(np.abs(lap))
        log_weight = np.where(v > 0.0, -np.log(v) / (q - 1.0), -math.inf)  # Theta can round below 0
        data = np.where(lap != 0.0, np.exp(log_lap), 0.0)
        weighted = np.where(lap != 0.0, np.exp(log_lap + log_weight), 0.0)
    weights = np.outer(w_r, w_s).ravel() * (2.0 * math.pi**n / math.gamma(n))
    return {"weighted": float(weights @ weighted), "data": float(weights @ data)}


def polar_gap(e, spec, R: float) -> float:
    """Largest relative gap between `spatial_integral` and `polar_spatial_integral` at R,
    over `weighted` and `data`."""
    return max(abs(spatial_integral(e, spec, R, name).value / value - 1.0)
               for name, value in polar_spatial_integral(e, spec, R).items())
