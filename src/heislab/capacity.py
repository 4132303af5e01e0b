"""Capacity integrals, their closed-form constants, and blow-up verdicts.

The engine evaluates the building blocks of the nonlinear-capacity
machinery for the two model equations:

  time factors     I_k(T) = int_0^T phi1^(-1/(q-1)) |d_t^k phi1|^(q') dt,
                   which equal C_k T^(1-k q') with explicit constants,
  spatial factor   I4(R)  = int phi2^(-1/(q-1)) |Delta phi2|^(q') d eta,
                   which scales exactly like R^(Q-2q') for the power
                   cutoff, and its logarithmic-family analogue at the
                   critical exponent q = Q/(Q-2),
  a-priori bounds  assembled with the epsilon-Young constant
                   C(q) = (q/4)^(1-q') / q'.

Spatial integrals use the gauge-polar factorisation: the integrand is a
radial function times omega(eta)^(q'), where omega is homogeneous of
degree zero, so the integral splits into a 1-D radial quadrature times a
gauge-sphere constant S_omega(s) = int_{|eta|=1} omega^s dsigma.  The
sphere constant has a closed form from the Koranyi polar decomposition
(Folland-Stein, Hardy Spaces on Homogeneous Groups, 1982), so every
capacity path is deterministic and works for any n >= 1; all R- and
T-dependence sits in the radial and time quadratures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import beta

from .cutoffs import CutoffSpec, check_integrability, cutoff_eval, default_log_power, default_power
from .errors import ParameterError
from .group import GroupPoint
from .mc import MCConfig, MCEstimate, mc_integrate


@dataclass(frozen=True)
class Exponents:
    """Exponent bookkeeping: q, its conjugate q', the time power ell, the
    logarithmic cutoff power kappa, and the homogeneous dimension Q = 2n+2.

    ell defaults to floor((q+1)/(q-1)) + 1 and kappa to 2q/(q-1) + 1, the
    smallest convenient values satisfying the strict constraints.  A quotient
    within 1e-9 (relative) of an integer j counts as j: at q = (j+1)/(j-1)
    its float can be j - 1e-15, whose floor would put ell on the bound j.
    """

    q: float
    n: int = 1
    ell: Optional[float] = None
    kappa: Optional[float] = None

    def __post_init__(self):
        if not self.q > 1:
            raise ParameterError("q must exceed 1")
        if self.n < 1:
            raise ParameterError("n must be a positive integer")
        if self.ell is None:
            ratio = (self.q + 1) / (self.q - 1)
            if abs(ratio - round(ratio)) <= 1e-9 * ratio:
                ratio = round(ratio)
            object.__setattr__(self, "ell", math.floor(ratio) + 1.0)
        if self.kappa is None:
            object.__setattr__(self, "kappa", default_log_power(self.q))
        if not (math.isfinite(self.ell) and math.isfinite(self.kappa)):
            raise ParameterError("ell and kappa must be finite")
        if not self.ell > (self.q + 1) / (self.q - 1):
            raise ParameterError(
                f"ell must exceed (q+1)/(q-1) = {(self.q + 1) / (self.q - 1):.6g}"
            )
        if not self.kappa > 2 * self.q / (self.q - 1):
            raise ParameterError(
                f"kappa must exceed 2q/(q-1) = {2 * self.q / (self.q - 1):.6g}"
            )

    @property
    def q_prime(self) -> float:
        return self.q / (self.q - 1.0)

    @property
    def Q(self) -> int:
        return 2 * self.n + 2

    def is_critical(self) -> bool:
        return abs(self.q - self.Q / (self.Q - 2.0)) <= 1e-12

    def power_spec(self) -> CutoffSpec:
        return CutoffSpec.power(default_power(self.q))

    def log_spec(self) -> CutoffSpec:
        return CutoffSpec.logarithmic(self.kappa)


@dataclass(frozen=True)
class QuadratureEstimate:
    value: float
    abs_error: float
    nodes: int

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.abs_error)):
            raise OverflowError("quadrature value or error beyond floating-point range")


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    max_rel_residual: float
    kind: str


@dataclass(frozen=True)
class CriticalSpatialFactor:
    """Logarithmic-family spatial factor with its two Schwarz-split terms
    (the (ln R)^(-Q)-type and (ln R)^(-Q/2)-type contributions)."""

    total: QuadratureEstimate
    term_sq: QuadratureEstimate
    term_lin: QuadratureEstimate


@dataclass(frozen=True)
class CapacityReport:
    """An a-priori bound with its additive breakdown (sums to the bound)."""

    bound: float
    breakdown: dict
    params: dict


class Verdict(Enum):
    SUBCRITICAL_BLOWUP = "SubcriticalBlowup"
    CRITICAL_BLOWUP = "CriticalBlowup"
    SUPERCRITICAL_NO_CONCLUSION = "SupercriticalNoConclusion"

    @property
    def note(self) -> str:
        if self is Verdict.SUPERCRITICAL_NO_CONCLUSION:
            return "no conclusion from capacity bounds; stationary supersolutions exist"
        return "no nontrivial local weak solution for any horizon"


# ---------------------------------------------------------------------------
# Time integrals
# ---------------------------------------------------------------------------


def _time_exponent(e: Exponents, k: int) -> float:
    """Exponent a of the monomial integrand s^a after substituting s = 1 - t/T."""
    return e.ell - k * e.q_prime


def time_integral(e: Exponents, T: float, k: int) -> QuadratureEstimate:
    """Quadrature value of I_k(T) for k in {0, 1, 2}.

    Substituting s = 1 - t/T turns the integrand into coef^(q') s^a with
    a = ell - k q' > -1, so the endpoint singularity at t = T becomes an
    algebraic weight handled by weighted quadrature (QAWS).
    """
    if k not in (0, 1, 2):
        raise ParameterError("time integral order k must be 0, 1 or 2")
    if not T > 0:
        raise ParameterError("T must be positive")
    a = _time_exponent(e, k)
    if not a > -1.0:
        raise ParameterError(
            f"ell = {e.ell} too small for k = {k}: need ell > {k * e.q_prime - 1:.6g}"
        )
    ell, qp, q = e.ell, e.q_prime, e.q
    coef = (1.0, ell / T, ell * (ell - 1.0) / T**2)[k]
    log_coef = qp * math.log(coef) if coef > 0 else -math.inf
    # s-exponent left over after dividing out the weight s^a; identically
    # zero in exact arithmetic, kept to stay faithful to the integrand
    residual_exp = (ell - k) * qp - ell / (q - 1.0) - a

    def regularised(s):
        if s <= 0.0:
            return math.exp(log_coef)
        return math.exp(log_coef + residual_exp * math.log(s))

    y, err, info = quad(
        regularised, 0.0, 1.0, weight="alg", wvar=(a, 0.0),
        epsabs=0.0, epsrel=1e-11, limit=200, full_output=True,
    )[:3]
    return QuadratureEstimate(T * y, T * err, int(info["neval"]))


def time_integral_constant(e: Exponents, k: int) -> float:
    """Closed-form constant C_k with I_k(T) = C_k T^(1 - k q').

    C_0 = 1/(ell+1),
    C_1 = (q-1) ell^(q') / (ell(q-1) - 1),
    C_2 = (q-1) (ell(ell-1))^(q') / (ell(q-1) - q - 1).
    """
    q, ell, qp = e.q, e.ell, e.q_prime
    if k == 0:
        return 1.0 / (ell + 1.0)
    if k == 1:
        den = ell * (q - 1.0) - 1.0
        if not den > 0:
            raise ParameterError("ell(q-1) - 1 must be positive")
        return (q - 1.0) * ell**qp / den
    if k == 2:
        den = ell * (q - 1.0) - q - 1.0
        if not den > 0:
            raise ParameterError("ell(q-1) - q - 1 must be positive")
        return (q - 1.0) * (ell * (ell - 1.0)) ** qp / den
    raise ParameterError("time integral order k must be 0, 1 or 2")


def time_power(e: Exponents, k: int) -> float:
    """T-exponent of I_k: 1 - k q'."""
    return 1.0 - k * e.q_prime


# ---------------------------------------------------------------------------
# Gauge-sphere constant
# ---------------------------------------------------------------------------


def sphere_weight_constant(n: int, s: float) -> float:
    """S_omega(s) = integral of omega^s over the unit gauge sphere of H^n.

    In Koranyi polar coordinates |z|^2 = r^2 cos(phi), tau = r^2 sin(phi)
    the weight is omega = cos(phi), and integrating out the unit sphere of
    C^n leaves S_omega(s) = (2 pi^n / Gamma(n)) B((s+n)/2, 1/2).
    """
    if n < 1:
        raise ParameterError("n must be a positive integer")
    if s < 0:
        raise ParameterError("weight power s must be nonnegative")
    return 2.0 * math.pi**n / math.gamma(n) * float(beta((s + n) / 2.0, 0.5))


# ---------------------------------------------------------------------------
# Spatial integrals: power family (subcritical machinery)
# ---------------------------------------------------------------------------


def _radial_quad(integrand, lo: float, hi: float) -> QuadratureEstimate:
    y, err, info = quad(
        integrand, lo, hi, epsabs=1e-300, epsrel=1e-11, limit=200, full_output=True
    )[:3]
    return QuadratureEstimate(y, err, int(info["neval"]))


def _combine_sphere(radial: QuadratureEstimate, sphere: float) -> QuadratureEstimate:
    return QuadratureEstimate(sphere * radial.value, sphere * radial.abs_error, radial.nodes)


def _power_radial_quad(e: Exponents, spec: CutoffSpec, R: float, weighted: bool) -> QuadratureEstimate:
    """S_omega(q') times the radial quadrature of
    [Phi^(-1/(q-1))(r^2/R^2)] |(4 r^2/R^4) Phi'' + (2Q/R^2) Phi'|^(q') r^(Q-1)
    over the support annulus R/sqrt(2) <= r <= R, the bracket only when weighted."""
    if not R > 0:
        raise ParameterError("R must be positive")
    if weighted:
        check_integrability(spec, e.q)
    q, qp, Q = e.q, e.q_prime, e.Q

    def integrand(r):
        z = (r / R) ** 2
        v, d1, d2 = cutoff_eval(spec, z)
        v, g = float(v), float((4.0 * z / R**2) * d2 + (2.0 * Q / R**2) * d1)
        if g == 0.0 or (weighted and v <= 0.0):
            return 0.0
        weight = -math.log(v) / (q - 1.0) if weighted else 0.0
        return math.exp(weight + qp * math.log(abs(g)) + (Q - 1) * math.log(r))

    radial = _radial_quad(integrand, R / math.sqrt(2.0), R)
    return _combine_sphere(radial, sphere_weight_constant(e.n, qp))


def spatial_integral_subcritical(e: Exponents, spec: CutoffSpec, R: float) -> QuadratureEstimate:
    """I4(R) = integral of phi2^(-1/(q-1)) |Delta phi2|^(q') by gauge-polar factorisation."""
    return _power_radial_quad(e, spec, R, weighted=True)


def data_term_integral_subcritical(e: Exponents, spec: CutoffSpec, R: float) -> QuadratureEstimate:
    """The initial-data factor: integral of |Delta phi2|^(q') over H^n."""
    return _power_radial_quad(e, spec, R, weighted=False)


def mc_spatial_integral(e: Exponents, spec: CutoffSpec, R: float, mc: MCConfig) -> MCEstimate:
    """Direct 3-D Monte Carlo of I4(R) (cross-check of the factorised value)."""
    if e.n != 1:
        raise ParameterError("direct Monte Carlo is implemented for n = 1")
    from .cutoffs import phi_spatial

    q, qp = e.q, e.q_prime
    bounds = [[-R, R], [-R, R], [-R * R, R * R]]

    def integrand(pts):
        p = GroupPoint.from_flat(pts)
        v, lap = phi_spatial(spec, R, p)
        mask = (lap != 0.0) & (v > 0.0)
        out = np.zeros(pts.shape[0])
        if np.any(mask):
            out[mask] = np.exp(
                -np.log(v[mask]) / (q - 1.0) + qp * np.log(np.abs(lap[mask]))
            )
        return out

    return mc_integrate(integrand, bounds, mc)


# ---------------------------------------------------------------------------
# Spatial integrals: logarithmic family (critical machinery)
# ---------------------------------------------------------------------------


def _require_critical(e: Exponents):
    if not e.is_critical():
        raise ParameterError(
            f"q = {e.q} is not the critical exponent Q/(Q-2) = {e.Q / (e.Q - 2.0)!r}"
        )


def _log_radial_quad(e: Exponents, spec: CutoffSpec, R: float, psi_power: float,
                     with_b: bool, inv_log_power: float) -> QuadratureEstimate:
    """Radial integral of the logarithmic family in the variable
    z = ln(r/sqrt R)/ln(sqrt R), where r = exp(L(1+z)) and L = ln(sqrt R).

    Integrates Psi^psi_power |B1 + L B2|^(q') L^(1-2q') r^(Q-2q') when
    with_b is set, otherwise Psi^psi_power L^(1-inv_log_power*q') r^(Q-2q')
    with the same measure factor r L dz absorbed.
    """
    q, qp, Q, k = e.q, e.q_prime, e.Q, spec.kappa
    L = 0.5 * math.log(R)

    def integrand(z):
        v, d1, d2 = cutoff_eval(spec, z)
        v = float(v)
        if v <= 0.0:
            return 0.0
        if with_b:
            b1 = k * (k - 1) * v ** (k - 2) * d1 * d1 + k * v ** (k - 1) * d2
            b2 = k * (Q - 2) * v ** (k - 1) * d1
            b = b1 + L * b2
            if b == 0.0:
                return 0.0
            amp = qp * math.log(abs(b)) + (1.0 - 2.0 * qp) * math.log(L)
        else:
            amp = (1.0 - inv_log_power * qp) * math.log(L)
        return math.exp(psi_power * math.log(v) + amp + (Q - 2.0 * qp) * L * (1.0 + z))

    return _radial_quad(integrand, 0.0, 1.0)


def _critical_total(e: Exponents, spec: CutoffSpec, R: float) -> QuadratureEstimate:
    """Guards of the critical path, then the full logarithmic-family integral
    of psi2^(-1/(q-1)) |Delta psi2|^(q') with its gauge-sphere constant."""
    _require_critical(e)
    if not R > 1:
        raise ParameterError("R must exceed 1")
    if spec.family != "logarithmic":
        raise ParameterError("critical path expects a logarithmic-family cutoff")
    total = _log_radial_quad(e, spec, R, -spec.kappa / (e.q - 1.0), True, 0.0)
    return _combine_sphere(total, sphere_weight_constant(e.n, e.q_prime))


def spatial_integral_critical(e: Exponents, spec: CutoffSpec, R: float) -> CriticalSpatialFactor:
    """Spatial factor of the logarithmic family at q = Q/(Q-2).

    Returns the full integral of psi2^(-1/(q-1)) |Delta psi2|^(q') and,
    separately, the two Schwarz-split upper-bound terms

      term_sq : Psi^(kappa-2q') (r^2 ln^2 sqrt R)^(-q')  contribution,
      term_lin: Psi^(kappa-q')  (r^2 ln   sqrt R)^(-q')  contribution,

    each integrated over the transition annulus sqrt(R) <= r <= R and
    multiplied by the gauge-sphere constant.
    """
    total = _critical_total(e, spec, R)
    qp, k = e.q_prime, spec.kappa
    sphere = sphere_weight_constant(e.n, qp)
    term_sq = _log_radial_quad(e, spec, R, k - 2.0 * qp, False, 2.0)
    term_lin = _log_radial_quad(e, spec, R, k - qp, False, 1.0)
    return CriticalSpatialFactor(
        total, _combine_sphere(term_sq, sphere), _combine_sphere(term_lin, sphere)
    )


def data_term_integral_critical(e: Exponents, spec: CutoffSpec, R: float) -> QuadratureEstimate:
    """Integral of |Delta psi2|^(q') over H^n (initial-data factor)."""
    _require_critical(e)
    sphere = sphere_weight_constant(e.n, e.q_prime)
    radial = _log_radial_quad(e, spec, R, 0.0, True, 0.0)
    return _combine_sphere(radial, sphere)


def log_envelope(Q: int, R: float) -> float:
    """(ln R)^(-Q) + (ln R)^(-Q/2), the decay envelope of the critical factor."""
    lr = math.log(R)
    return lr ** (-Q) + lr ** (-Q / 2.0)


# ---------------------------------------------------------------------------
# Fits, constants, bounds, verdicts
# ---------------------------------------------------------------------------


def scaling_fit(samples, kind: str) -> ScalingFit:
    """Least-squares power-law fit on log-transformed data.

    kind selects the abscissa transform: "log T" and "log R" use ln(x),
    "log log R" uses ln(ln(x)).  Values must be positive; at least four
    samples are required.
    """
    if kind not in ("log T", "log R", "log log R"):
        raise ParameterError(f"unknown abscissa kind {kind!r}")
    pts = [(float(x), float(v)) for x, v in samples]
    if len(pts) < 4:
        raise ParameterError("scaling fit needs at least 4 samples")
    if any(v <= 0 for _, v in pts):
        raise ParameterError("scaling fit needs positive values")
    xs = np.array([x for x, _ in pts])
    if kind == "log log R":
        if np.any(xs <= 1.0):
            raise ParameterError("log log abscissa needs x > 1")
        X = np.log(np.log(xs))
    else:
        X = np.log(xs)
    if np.all(X == X[0]):
        raise ParameterError("scaling fit needs at least two distinct abscissae")
    Y = np.log(np.array([v for _, v in pts]))
    slope, intercept = np.polyfit(X, Y, 1)
    fitted = np.exp(intercept + slope * X)
    rel = float(np.max(np.abs(fitted / np.exp(Y) - 1.0)))
    return ScalingFit(float(slope), float(intercept), rel, kind)


def young_constant(q: float) -> float:
    """Constant from the epsilon-Young inequality with epsilon = q/4:
    C(q) = (q/4)^(1-q') / q'."""
    if not q > 1:
        raise ParameterError("q must exceed 1")
    qp = q / (q - 1.0)
    return (q / 4.0) ** (1.0 - qp) / qp


def capacity_bound(
    e: Exponents, T: float, R: float, order: int, u0_norm: float, u1_norm: float = 0.0,
    spec: Optional[CutoffSpec] = None,
) -> CapacityReport:
    """A-priori bound for the equation of time order 1 or 2:

    2 C(q) (I_{order+1} + I1) * (spatial factor)
      + 2 ||u1||_q (data factor)^(1/q')           (order 2 only)
      + 2 |d_t^(order-1) phi1(0)| ||u0||_q (data factor)^(1/q'),

    where |d_t phi1(0)| = ell/T.  The subcritical path (power cutoff) scales
    like R^(Q-2q'); at the critical exponent the logarithmic cutoff is used
    instead and the bound decays inside the (ln R) envelope.  For order 2,
    subcritical totals group as const * R^(Q-2q') * (T^(1-2q') + T + 1 + 1/T);
    the grouped time factor is echoed in params.
    """
    if order not in (1, 2):
        raise ParameterError("time order must be 1 or 2")
    if not (0 <= u0_norm < math.inf and 0 <= u1_norm < math.inf):
        raise ParameterError("data norms must be finite and nonnegative")
    cq = young_constant(e.q)
    i1 = time_integral(e, T, 0).value
    i_order = time_integral(e, T, order).value
    critical = e.is_critical()
    if critical:
        spec = spec or e.log_spec()
        spatial = _critical_total(e, spec, R).value
        data = data_term_integral_critical(e, spec, R).value
    else:
        spec = spec or e.power_spec()
        spatial = spatial_integral_subcritical(e, spec, R).value
        data = data_term_integral_subcritical(e, spec, R).value
    data_root = data ** (1.0 / e.q_prime)
    terms = {"term_lap_d" + "t" * order: 2.0 * cq * i_order * spatial,
             "term_lap": 2.0 * cq * i1 * spatial}
    if order == 2:
        terms["term_data_u1"] = 2.0 * u1_norm * data_root
    terms["term_data_u0"] = 2.0 * (1.0 if order == 1 else e.ell / T) * u0_norm * data_root
    bound = 0.0
    for v in terms.values():
        bound += v
    if not math.isfinite(bound):
        raise OverflowError("capacity bound beyond floating-point range")
    params = {"equation": ("parabolic", "hyperbolic")[order - 1], "critical": critical,
              "young_constant": cq, "I1": i1, f"I{order + 1}": i_order,
              "spatial_factor": spatial, "data_factor": data, "u0_norm": u0_norm}
    if order == 2:
        params["u1_norm"] = u1_norm
        t_power = 1.0 - (e.Q if critical else 2.0 * e.q_prime)
        params["t_factor_grouped"] = T ** t_power + T + 1.0 + 1.0 / T
    params.update({"q": e.q, "n": e.n, "ell": e.ell, "kappa": e.kappa, "T": T, "R": R})
    return CapacityReport(bound, terms, params)


def critical_exponent(n: int) -> Fraction:
    """q_c = Q/(Q-2) = (2n+2)/(2n) as an exact rational."""
    if n < 1:
        raise ParameterError("n must be a positive integer")
    return Fraction(2 * n + 2, 2 * n)


def verdict(n: int, q) -> Verdict:
    """Classify q against q_c = Q/(Q-2) with exact rational arithmetic.

    q may be a Fraction, an int, or a float; floats are compared as the
    exact binary rationals they are.
    """
    qf = q if isinstance(q, Fraction) else Fraction(q)
    if not qf > 1:
        raise ParameterError("q must exceed 1")
    qc = critical_exponent(n)
    if qf < qc:
        return Verdict.SUBCRITICAL_BLOWUP
    if qf == qc:
        return Verdict.CRITICAL_BLOWUP
    return Verdict.SUPERCRITICAL_NO_CONCLUSION
