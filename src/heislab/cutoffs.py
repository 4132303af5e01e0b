"""Space-time test functions built from C^2 polynomial cutoffs.

Two families share one descending smoothstep profile

    Theta(s) = 1 - s^3 (10 - 15 s + 6 s^2),   s in [0, 1],

which is 1 left of the transition, 0 right of it, and C^2 across both
breakpoints.  The power family is Phi(z) = Theta(2z - 1)^m, flat on
z <= 1/2 and vanishing for z >= 1; it is evaluated at z = r^2/R^2.  The
logarithmic family keeps Psi(z) = Theta(z) on [0, 1] and is evaluated at
z = ln(r/sqrt(R)) / ln(sqrt(R)), then raised to the power kappa.

Spatial factors are gauge-radial, so their sub-Laplacians come from the
radial identity Delta u = omega (phi'' + (Q-1)/r phi') with exact chain
rules; no finite differences are involved.  All three spatial factors, the
power family, the logarithmic family and the gauge bumps, are profiles of r^2
and take it from `group.gauge_radial`.
The time factor is (1 - t/T)^ell, and products separate:
Delta d_t^k(phi1 phi2) = (d_t^k phi1) Delta phi2.  A product test function therefore hands out its
factors apart: (phi2, Delta phi2), or phi2 alone, once per set of points and
(phi1, phi1', phi1'') as vectors over all time nodes, so a space-time
quadrature costs one spatial evaluation, not one per time node.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError, shown
from .group import GroupPoint, _norm4, compose, gauge_radial, inverse


def _theta(s):
    """Theta(s) = 1 - s^3 (10 - 15 s + 6 s^2) at an array s already clipped to [0, 1]."""
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def smoothstep_complement(s):
    """Descending quintic step: (value, d1, d2) of Theta at the array s.

    The polynomials are evaluated at s clipped to [0, 1]: they give exactly
    1 at 0 and 0 at 1, and both derivatives vanish at either end, so the
    clip extends Theta by its constant values outside the transition.
    """
    s = np.clip(s, 0.0, 1.0)
    return _theta(s), -30.0 * s**2 * (1.0 - s) ** 2, -60.0 * s * (1.0 - s) * (1.0 - 2.0 * s)


def min_power(q: float) -> float:
    """Smallest admissible smoothstep power for exponent q: (q+1)/(3(q-1))."""
    if q <= 1:
        raise ParameterError("q must exceed 1")
    return (q + 1.0) / (3.0 * (q - 1.0))


def default_power(q: float) -> int:
    return int(math.ceil(min_power(q))) + 1


@dataclass(frozen=True)
class CutoffSpec:
    """Parameters of one cutoff family.

    family "power" uses integer smoothstep power m on transition [1/2, 1];
    family "logarithmic" uses real power kappa on transition [0, 1].
    """

    family: str
    m: Optional[int] = None
    kappa: Optional[float] = None

    def __post_init__(self):
        if self.family == "power":
            if self.m is None or self.m < 1:
                raise ParameterError("power family needs integer m >= 1")
        elif self.family == "logarithmic":
            if self.kappa is None or self.kappa <= 2.0:
                raise ParameterError("logarithmic family needs kappa > 2")
        else:
            raise ParameterError(f"unknown cutoff family {self.family!r}")

    @classmethod
    def power(cls, m: int) -> "CutoffSpec":
        return cls("power", m=m)

    @classmethod
    def logarithmic(cls, kappa: float) -> "CutoffSpec":
        return cls("logarithmic", kappa=kappa)


def cutoff_eval(spec: CutoffSpec, z):
    """(value, d1, d2) of the cutoff with respect to its argument z.

    Power family: Phi = Theta(2z-1)^m with the chain-rule factors 2 and 4.
    Logarithmic family: Psi = Theta(z) itself (the kappa power is applied
    where the spatial factor is assembled).
    """
    z = np.asarray(z, dtype=float)
    if spec.family == "power":
        t, t1, t2 = smoothstep_complement(2.0 * z - 1.0)
        m = spec.m
        v = t**m
        d1 = 2.0 * m * t ** (m - 1) * t1
        d2 = 4.0 * (m * (m - 1) * t ** max(m - 2, 0) * t1 * t1 + m * t ** (m - 1) * t2)
        return v, d1, d2
    return smoothstep_complement(z)


def check_integrability(spec: CutoffSpec, q: float) -> None:
    """Guard for the power family: Phi^(-1/(q-1)) |Phi''|^(q/(q-1)) is
    integrable over the transition exactly when m > (q+1)/(3(q-1)).  Raises
    on violation.
    """
    if spec.family != "power":
        raise ParameterError("integrability guard applies to the power family")
    if not spec.m > min_power(q):
        raise ParameterError(
            f"m={spec.m} must exceed (q+1)/(3(q-1))={min_power(q):.6g} for q={q}"
        )


@dataclass(frozen=True)
class TemporalFactor:
    """Time factor (1 - t/T)^ell on [0, T]."""

    T: float
    ell: float

    def __post_init__(self):
        if not self.T > 0:
            raise ParameterError("horizon T must be positive")

    def coefficient(self, k: int) -> float:
        """c_k with d_t^k (1 - t/T)^ell = c_k (1 - t/T)^(ell-k) for k = 0, 1, 2:
        1, -ell/T and ell (ell-1)/T^2."""
        if k not in (0, 1, 2):
            raise ParameterError("order must be 0, 1 or 2")
        ell, T = self.ell, self.T
        try:  # float ** int reports only an errno tuple; float / float overflows to inf
            c = (1.0, -(ell / T))[k] if k < 2 else ell * (ell - 1) / T**2
        except (OverflowError, ZeroDivisionError):
            c = math.inf
        if not math.isfinite(c):
            raise ParameterError(f"{('ell/T', 'ell(ell-1)/T^2')[k - 1]} beyond floating-point range at T = {shown(T)}")
        return c


def temporal_eval(tf: TemporalFactor, t, order: int):
    """Derivative of order 0, 1 or 2 of (1 - t/T)^ell at t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > tf.T):
        raise ParameterError("t outside [0, T]")
    with np.errstate(divide="ignore"):
        return tf.coefficient(order) * (1.0 - t / tf.T) ** (tf.ell - order)


def check_radius(spec: CutoffSpec, R: float) -> None:
    """Raise unless R suits the family: R > 0 for the power family, R > 1
    for the logarithmic family, whose variable z divides by ln(sqrt(R))."""
    if spec.family == "power" and not R > 0:
        raise ParameterError("R must be positive")
    if spec.family == "logarithmic" and not R > 1:
        raise ParameterError("R must exceed 1 for the logarithmic family")


def _log_argument(R: float, r2):  # z = ln(r/sqrt(R)) / ln(sqrt(R)) of the logarithmic family at r^2 = r2
    if np.any(r2 <= 0.0):
        raise ParameterError("logarithmic cutoff is undefined at the origin")
    return (0.5 * np.log(r2) - 0.5 * math.log(R)) / (0.5 * math.log(R))


def spatial_factor(spec: CutoffSpec, R: float, p: GroupPoint):
    """Spatial factor phi2 of either family and its sub-Laplacian Delta phi2, both
    `gauge_radial` fields.

    Power family: phi2 = Phi(r^2/R^2), with rho2 = R^2.  At the origin (r = 0) the
    cutoff is flat, so Delta phi2 = 0 there.

    Logarithmic family: phi2 = P(z) = Psi^kappa(z) with z = (ln(s)/2 - L) / L, a profile
    of s = r^2 with rho2 = 1 and L = ln sqrt(R): f' = P_z / (2Ls) and
    f'' = (P_zz / L - 2 P_z) / (4 L s^2).  It is undefined at the origin.
    """
    check_radius(spec, R)
    if spec.family == "power":
        return gauge_radial(p, R**2, lambda s: cutoff_eval(spec, s))
    k, L = spec.kappa, 0.5 * math.log(R)

    def profile(s):
        psi, d1, d2 = cutoff_eval(spec, _log_argument(R, s))
        pz = k * psi ** (k - 1) * d1
        pzz = k * (k - 1) * psi ** (k - 2) * d1 * d1 + k * psi ** (k - 1) * d2
        return psi**k, pz / (2.0 * L * s), (pzz / L - 2.0 * pz) / (4.0 * L * s) / s

    return gauge_radial(p, 1.0, profile)


class ProductTestFunction:
    """Separable test function phi1(t) phi2(eta) used by the weak-form residuals.

    The two factors are evaluated apart: `spatial` (or `value`, phi2 alone) once
    per set of points, `temporal` once per set of time nodes.
    """

    def __init__(self, time_factor: TemporalFactor, spec: CutoffSpec, R: float):
        check_radius(spec, R)
        R4 = (R * R) * (R * R)  # in Delta phi2, in a bump of radius ~R, and in the box volume 8 R^4
        if not sys.float_info.min <= R4 <= sys.float_info.max / 8.0:
            raise OverflowError(f"R^2 beyond floating-point range at R = {shown(R)}")
        self.time_factor = time_factor
        self.spec = spec
        self.R = float(R)

    @property
    def T(self) -> float:
        return self.time_factor.T

    def spatial(self, p: GroupPoint):
        """(phi2, Delta phi2) at the points p."""
        return spatial_factor(self.spec, self.R, p)

    def value(self, p: GroupPoint):
        """phi2 alone at the points p: the bits of spatial(p)[0], without Delta phi2."""
        spec, r2 = self.spec, _norm4(p)[1]
        if spec.family == "power":
            return _theta(np.clip(2.0 * (r2 / self.R**2) - 1.0, 0.0, 1.0)) ** spec.m
        return _theta(np.clip(_log_argument(self.R, r2), 0.0, 1.0)) ** spec.kappa

    def temporal(self, t):
        """(phi1, phi1', phi1'') at the time node(s) t."""
        return tuple(temporal_eval(self.time_factor, t, k) for k in range(3))

    def support_box(self) -> np.ndarray:
        """Coordinate box (x, y, tau) containing the spatial support (the gauge R-ball)."""
        R = self.R
        return np.asarray([[-R, R], [-R, R], [-R * R, R * R]], dtype=float)


class GaugeBump:
    """C^2 bump supported in a left-translated gauge ball.

    Its value is Theta(|eta o c^{-1}|^2 / rho^2).  `spatial` returns the
    value and its exact sub-Laplacian from one translation and one
    smoothstep evaluation: Delta is invariant under eta -> eta o c^{-1},
    so it equals the radial formula evaluated at the translated point.
    """

    def __init__(self, center: GroupPoint, radius: float = 1.0):
        if not radius > 0:
            raise ParameterError("bump radius must be positive")
        self.center = center
        self.radius = float(radius)

    def spatial(self, p: GroupPoint):
        """(value, Delta value) at the points p, from one shared pass."""
        return gauge_radial(compose(p, inverse(self.center)), self.radius**2, smoothstep_complement)

    def support_box(self) -> np.ndarray:
        """Coordinate box (x, y, tau) containing the support: eta = eta' o c with |z'| < rho
        and |tau'| < rho^2 has z = z' + c_z and tau = tau' + c_tau + 2(x'.c_y - c_x.y')."""
        rho, c = self.radius, self.center.flat()
        half = np.append(np.full(c.size - 1, rho), rho * rho + 2.0 * rho * float(np.linalg.norm(c[:-1])))
        return np.stack([c - half, c + half], axis=1)
