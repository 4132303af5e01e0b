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
rules; no finite differences are involved.  The time factor is
(1 - t/T)^ell, and products separate: Delta d_t^k(phi1 phi2) =
(d_t^k phi1) Delta phi2.  A product test function therefore hands out its
factors apart: (phi2, Delta phi2) once per set of spatial points and
(phi1, phi1', phi1'') as vectors over all time nodes, so a space-time
quadrature costs one spatial evaluation, not one per time node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, ParameterError
from .group import GroupPoint, SmoothField, _norm4, compose, inverse


def smoothstep_complement(s):
    """Descending quintic step: (value, d1, d2) of Theta at s, vectorised.

    The polynomials are evaluated at s clipped to [0, 1]: they give exactly
    1 at 0 and 0 at 1, and both derivatives vanish at either end, so the
    clip extends Theta by its constant values outside the transition.
    """
    s = np.clip(s, 0.0, 1.0)
    v = 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)
    d1 = -30.0 * s**2 * (1.0 - s) ** 2
    d2 = -60.0 * s * (1.0 - s) * (1.0 - 2.0 * s)
    return v, d1, d2


def min_power(q: float) -> float:
    """Smallest admissible smoothstep power for exponent q: (q+1)/(3(q-1))."""
    if q <= 1:
        raise ParameterError("q must exceed 1")
    return (q + 1.0) / (3.0 * (q - 1.0))


def default_power(q: float) -> int:
    return int(math.ceil(min_power(q))) + 1


def min_log_power(q: float) -> float:
    """Constraint floor for the logarithmic family: kappa > 2q/(q-1)."""
    if q <= 1:
        raise ParameterError("q must exceed 1")
    return 2.0 * q / (q - 1.0)


def default_log_power(q: float) -> float:
    return min_log_power(q) + 1.0


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


def temporal_eval(tf: TemporalFactor, t, order: int):
    """Derivative of order 0, 1 or 2 of (1 - t/T)^ell at t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > tf.T):
        raise DomainError("t outside [0, T]")
    s = 1.0 - t / tf.T
    ell = tf.ell
    with np.errstate(divide="ignore"):
        if order == 0:
            return s**ell
        if order == 1:
            return -(ell / tf.T) * s ** (ell - 1)
        if order == 2:
            return (ell * (ell - 1) / tf.T**2) * s ** (ell - 2)
    raise ParameterError("order must be 0, 1 or 2")


def phi_spatial(spec: CutoffSpec, R: float, p: GroupPoint):
    """Spatial factor of the power family and its sub-Laplacian.

    phi2 = Phi(r^2/R^2) and
    Delta phi2 = omega(eta) [ (4 r^2 / R^4) Phi'' + (2 Q / R^2) Phi' ].
    At the origin (r = 0) the cutoff is flat, so Delta phi2 = 0 there.
    """
    if spec.family != "power":
        raise ParameterError("phi_spatial expects a power-family cutoff")
    if not R > 0:
        raise ParameterError("R must be positive")
    sq, r2 = _norm4(p)
    z = r2 / R**2
    v, d1, d2 = cutoff_eval(spec, z)
    Q = p.Q
    radial = (4.0 * r2 / R**4) * d2 + (2.0 * Q / R**2) * d1
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(r2 > 0.0, sq / np.where(r2 > 0.0, r2, 1.0), 0.0)
    return v, w * radial


def psi_spatial(spec: CutoffSpec, R: float, p: GroupPoint):
    """Spatial factor of the logarithmic family and its sub-Laplacian.

    psi2 = Psi^kappa(z) with z = ln(r/sqrt(R)) / ln(sqrt(R)).  The radial
    part of Delta psi2 is the three-term expression

        kappa (kappa-1) Psi^(kappa-2) (Psi')^2 / (r^2 ln^2 sqrt(R))
      + kappa Psi^(kappa-1) Psi''              / (r^2 ln^2 sqrt(R))
      + kappa (Q-2) Psi^(kappa-1) Psi'         / (r^2 ln   sqrt(R)),

    multiplied by the anisotropy weight omega(eta).
    """
    if spec.family != "logarithmic":
        raise ParameterError("psi_spatial expects a logarithmic-family cutoff")
    if not R > 1:
        raise ParameterError("R must exceed 1 for the logarithmic family")
    sq, r2 = _norm4(p)
    if np.any(r2 <= 0.0):
        raise DomainError("logarithmic cutoff is undefined at the origin")
    L = 0.5 * math.log(R)
    z = (0.5 * np.log(r2) - L) / L
    v, d1, d2 = cutoff_eval(spec, z)
    k = spec.kappa
    b1 = k * (k - 1) * v ** (k - 2) * d1 * d1 + k * v ** (k - 1) * d2
    b2 = k * (p.Q - 2) * v ** (k - 1) * d1
    radial = (b1 / L**2 + b2 / L) / r2
    return v**k, (sq / r2) * radial


class ProductTestFunction:
    """Separable test function phi1(t) phi2(eta) used by the weak-form residuals.

    The two factors are evaluated apart: `spatial` once per set of points,
    `temporal` once per set of time nodes.
    """

    def __init__(self, time_factor: TemporalFactor, spec: CutoffSpec, R: float):
        if spec.family == "logarithmic" and not R > 1:
            raise ParameterError("R must exceed 1 for the logarithmic family")
        if spec.family == "power" and not R > 0:
            raise ParameterError("R must be positive")
        self.time_factor = time_factor
        self.spec = spec
        self.R = float(R)

    @property
    def T(self) -> float:
        return self.time_factor.T

    def spatial(self, p: GroupPoint):
        """(phi2, Delta phi2) at the points p."""
        if self.spec.family == "power":
            return phi_spatial(self.spec, self.R, p)
        return psi_spatial(self.spec, self.R, p)

    def temporal(self, t):
        """(phi1, phi1', phi1'') at the time node(s) t."""
        return tuple(temporal_eval(self.time_factor, t, k) for k in range(3))

    def support_box(self, n: int = 1) -> np.ndarray:
        """Coordinate box containing the spatial support (the gauge R-ball)."""
        R = self.R
        box = [[-R, R]] * (2 * n) + [[-R * R, R * R]]
        return np.asarray(box, dtype=float)


class GaugeBump:
    """C^2 bump supported in a left-translated gauge ball.

    value(eta) = A Theta(|eta o c^{-1}|^2 / rho^2).  The sub-Laplacian is
    exact: by translation invariance it equals the radial formula
    evaluated at the translated point.  The .field attribute exposes the
    same bump as a SmoothField with central-difference oracles.
    """

    def __init__(self, center: GroupPoint, radius: float = 1.0, amplitude: float = 1.0,
                 h: float = 1e-4):
        if not radius > 0:
            raise ParameterError("bump radius must be positive")
        self.center = center
        self.radius = float(radius)
        self.amplitude = float(amplitude)
        self.field = SmoothField(self.value, h=h)

    def _relative(self, p: GroupPoint) -> GroupPoint:
        # p o center^{-1}: the translation direction under which Delta is
        # invariant, so the radial identity transfers to the moved bump
        return compose(p, inverse(self.center))

    def value(self, p: GroupPoint):
        rel = self._relative(p)
        _, r2 = _norm4(rel)
        v, _, _ = smoothstep_complement(r2 / self.radius**2)
        return self.amplitude * v

    def lap(self, p: GroupPoint):
        """Exact sub-Laplacian via the radial identity at the translated point."""
        rel = self._relative(p)
        sq, r2 = _norm4(rel)
        rho2 = self.radius**2
        _, t1, t2 = smoothstep_complement(r2 / rho2)
        # phi(r) = A Theta(r^2/rho^2):  phi'' + (Q-1)/r phi'
        #   = A [ 4 r^2/rho^4 Theta'' + 2/rho^2 Theta' + (Q-1) 2/rho^2 Theta' ]
        Q = p.Q
        radial = 4.0 * r2 / rho2**2 * t2 + 2.0 * Q / rho2 * t1
        with np.errstate(invalid="ignore", divide="ignore"):
            w = np.where(r2 > 0.0, sq / np.where(r2 > 0.0, r2, 1.0), 0.0)
        return self.amplitude * w * radial
