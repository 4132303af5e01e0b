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
capacity path is deterministic and works for any n >= 1.  Bounds take T from
the closed forms C_k T^(1-k q') and R from radial quadratures on plain floats,
each computed once per (exponents, cutoff, R, weight) in a process.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np

from .cutoffs import (
    CutoffSpec,
    TemporalFactor,
    check_integrability,
    check_radius,
    cutoff_eval,
    default_power,
    log_brackets,
    spatial_factor,
)
from .errors import ParameterError
from .group import GroupPoint
from .mc import MCConfig, MCEstimate, mc_integrate_vector


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
            object.__setattr__(self, "kappa", 2.0 * self.q / (self.q - 1.0) + 1.0)
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
        """q is the double nearest q_c = Q/(Q-2), as the CLI parses 2, 3/2 and 4/3."""
        return self.q == float(critical_exponent(self.n))

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


def _quad(integrand, lo: float, hi: float, kind: str, inputs: str, **weight) -> QuadratureEstimate:
    """scipy quad of `integrand` over [lo, hi], with the time integral's algebraic
    `weight` if given; an overflow names the `kind` of quadrature and its `inputs`."""
    from scipy.integrate import quad
    try:
        y, err, info = quad(integrand, lo, hi, epsabs=0.0 if weight else 1e-300, epsrel=1e-11,
                            limit=200, full_output=True, **weight)[:3]
    except OverflowError:  # math.exp reports only "math range error"
        raise OverflowError(f"{kind} integrand beyond floating-point range at {inputs}") from None
    if not (math.isfinite(y) and math.isfinite(err)):
        raise OverflowError(f"{kind} quadrature beyond floating-point range at {inputs}")
    return QuadratureEstimate(y, err, int(info["neval"]))


def time_integral(e: Exponents, T: float, k: int) -> QuadratureEstimate:
    """Quadrature value of I_k(T) for k in {0, 1, 2}, the check of `time_integral_closed`.

    Substituting s = 1 - t/T turns the integrand into coef^(q') s^a with
    a = ell - k q' > -1, so the endpoint singularity at t = T becomes an
    algebraic weight handled by weighted quadrature (QAWS).
    """
    if k not in (0, 1, 2):
        raise ParameterError("time integral order k must be 0, 1 or 2")
    tf = TemporalFactor(T, e.ell)
    a = e.ell - k * e.q_prime
    if not a > -1.0:
        raise ParameterError(
            f"ell = {e.ell} too small for k = {k}: need ell > {k * e.q_prime - 1:.6g}"
        )
    ell, qp, q = e.ell, e.q_prime, e.q
    coef = abs(tf.coefficient(k))
    log_coef = qp * math.log(coef) if coef > 0 else -math.inf
    # s-exponent left over after dividing out the weight s^a; identically
    # zero in exact arithmetic, kept to stay faithful to the integrand
    residual_exp = (ell - k) * qp - ell / (q - 1.0) - a

    def regularised(s):
        if s <= 0.0:
            return math.exp(log_coef)
        return math.exp(log_coef + residual_exp * math.log(s))

    est = _quad(regularised, 0.0, 1.0, "time", f"q = {q}, T = {T:g}, ell = {ell:g}",
                weight="alg", wvar=(a, 0.0))
    return QuadratureEstimate(T * est.value, T * est.abs_error, est.nodes)


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


def time_integral_closed(e: Exponents, T: float, k: int) -> float:
    """I_k(T) = C_k T^(1 - k q'), the time factor of the capacity bounds."""
    try:  # float ** float reports only an errno tuple
        value = time_integral_constant(e, k) * T ** (1.0 - k * e.q_prime)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"time factor I{k + 1} beyond floating-point range at q = {e.q}, T = {T:g}, ell = {e.ell:g}")
    return value


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
    from scipy.special import beta
    return 2.0 * math.pi**n / math.gamma(n) * float(beta((s + n) / 2.0, 0.5))


# ---------------------------------------------------------------------------
# Spatial integrals
# ---------------------------------------------------------------------------


def _combine_sphere(radial: QuadratureEstimate, sphere: float) -> QuadratureEstimate:
    return QuadratureEstimate(sphere * radial.value, sphere * radial.abs_error, radial.nodes)


@functools.lru_cache(maxsize=256)
def _power_radial(e: Exponents, spec: CutoffSpec, R: float, weighted: bool) -> QuadratureEstimate:
    """Radial quadrature of
    [Phi^(-1/(q-1))(r^2/R^2)] |(4 r^2/R^4) Phi'' + (2Q/R^2) Phi'|^(q') r^(Q-1)
    over the support annulus R/sqrt(2) <= r <= R, the bracket only when weighted."""
    if weighted:
        check_integrability(spec, e.q)
    q, qp, Q = e.q, e.q_prime, e.Q
    try:  # float ** int reports only an errno tuple
        R2 = R**2
    except OverflowError:
        R2 = 0.0
    if R2 < 2.0 * Q / sys.float_info.max:  # R^2 underflows, or 2Q/R^2 overflows
        raise OverflowError(f"R^2 beyond floating-point range at R = {R:g}")

    def integrand(r):
        z = (r / R) ** 2
        v, d1, d2 = cutoff_eval(spec, z)
        g = (4.0 * z / R2) * d2 + (2.0 * Q / R2) * d1
        if g == 0.0 or (weighted and v <= 0.0):
            return 0.0
        weight = -math.log(v) / (q - 1.0) if weighted else 0.0
        return math.exp(weight + qp * math.log(abs(g)) + (Q - 1) * math.log(r))

    return _quad(integrand, R / math.sqrt(2.0), R, "radial", f"q = {q}, R = {R:g}")


@functools.lru_cache(maxsize=256)
def _log_radial(e: Exponents, spec: CutoffSpec, R: float, psi_power: float,
                inv_log_power: Optional[float] = None) -> QuadratureEstimate:
    """Radial integral of the logarithmic family in the variable
    z = ln(r/sqrt R)/ln(sqrt R), where r = exp(L(1+z)) and L = ln(sqrt R).

    Integrates Psi^psi_power |B1 + L B2|^(q') L^(1-2q') r^(Q-2q'), or with
    inv_log_power given, Psi^psi_power L^(1-inv_log_power*q') r^(Q-2q'),
    with the same measure factor r L dz absorbed.
    """
    qp, Q = e.q_prime, e.Q
    L = 0.5 * math.log(R)

    def integrand(z):
        v, d1, d2 = cutoff_eval(spec, z)
        if v <= 0.0:
            return 0.0
        if inv_log_power is None:
            b1, b2 = log_brackets(spec, Q, v, d1, d2)
            b = b1 + L * b2
            if b == 0.0:
                return 0.0
            amp = qp * math.log(abs(b)) + (1.0 - 2.0 * qp) * math.log(L)
        else:
            amp = (1.0 - inv_log_power * qp) * math.log(L)
        return math.exp(psi_power * math.log(v) + amp + (Q - 2.0 * qp) * L * (1.0 + z))

    return _quad(integrand, 0.0, 1.0, "radial", f"q = {e.q}, kappa = {spec.kappa:g}, R = {R:g}")


def spatial_integral(e: Exponents, spec: CutoffSpec, R: float, weighted: bool = True) -> QuadratureEstimate:
    """I4(R) = integral of phi2^(-1/(q-1)) |Delta phi2|^(q') over H^n, or with
    weighted=False the initial-data factor, the integral of |Delta phi2|^(q').

    phi2 is the spatial factor of `spec`: the power cutoff for any q, the
    logarithmic cutoff Psi^kappa only at q = Q/(Q-2).  Gauge-polar
    factorisation turns each into a radial quadrature times S_omega(q').
    """
    if spec.family == "logarithmic" and not e.is_critical():
        raise ParameterError(
            f"q = {e.q} is not the critical exponent Q/(Q-2) = {e.Q / (e.Q - 2.0)!r}"
        )
    check_radius(spec, R)
    if spec.family == "power":
        radial = _power_radial(e, spec, R, weighted)
    else:
        psi_power = -spec.kappa / (e.q - 1.0) if weighted else 0.0
        radial = _log_radial(e, spec, R, psi_power)
        if weighted and radial.value == 0.0:  # the reports divide by the critical factor
            raise OverflowError(
                f"critical spatial factor underflows to 0 at kappa = {spec.kappa:g}, R = {R:g}")
    return _combine_sphere(radial, sphere_weight_constant(e.n, e.q_prime))


def mc_spatial_integral(e: Exponents, spec: CutoffSpec, R: float, mc: MCConfig) -> MCEstimate:
    """Direct Monte Carlo of I4(R) over the box [-R, R]^(2n) x [-R^2, R^2]
    holding the gauge R-ball (cross-check of the factorised value)."""
    q, qp = e.q, e.q_prime
    bounds = [[-R, R]] * (2 * e.n) + [[-R * R, R * R]]

    def integrand(pts):
        v, lap = spatial_factor(spec, R, GroupPoint.from_flat(pts))
        mask = (lap != 0.0) & (v > 0.0)
        out = np.zeros(pts.shape[0])
        if np.any(mask):
            out[mask] = np.exp(
                -np.log(v[mask]) / (q - 1.0) + qp * np.log(np.abs(lap[mask]))
            )
        return out

    return mc_integrate_vector(integrand, bounds, mc, 1)[0]


def spatial_integral_critical(e: Exponents, spec: CutoffSpec, R: float) -> CriticalSpatialFactor:
    """Spatial factor of the logarithmic family at q = Q/(Q-2).

    Returns the full integral of psi2^(-1/(q-1)) |Delta psi2|^(q') and,
    separately, the two Schwarz-split upper-bound terms

      term_sq : Psi^(kappa-2q') (r^2 ln^2 sqrt R)^(-q')  contribution,
      term_lin: Psi^(kappa-q')  (r^2 ln   sqrt R)^(-q')  contribution,

    each integrated over the transition annulus sqrt(R) <= r <= R and
    multiplied by the gauge-sphere constant.
    """
    if spec.family != "logarithmic":
        raise ParameterError("critical path expects a logarithmic-family cutoff")
    total = spatial_integral(e, spec, R)
    qp, k = e.q_prime, spec.kappa
    sphere = sphere_weight_constant(e.n, qp)
    term_sq = _log_radial(e, spec, R, k - 2.0 * qp, 2.0)
    term_lin = _log_radial(e, spec, R, k - qp, 1.0)
    return CriticalSpatialFactor(
        total, _combine_sphere(term_sq, sphere), _combine_sphere(term_lin, sphere)
    )


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
    return ScalingFit(float(slope), float(intercept), rel)


def young_constant(q: float) -> float:
    """Constant from the epsilon-Young inequality with epsilon = q/4:
    C(q) = (q/4)^(1-q') / q'."""
    if not q > 1:
        raise ParameterError("q must exceed 1")
    qp = q / (q - 1.0)
    try:
        return (q / 4.0) ** (1.0 - qp) / qp
    except OverflowError:  # float ** float reports only an errno tuple
        raise OverflowError(f"Young constant C(q) beyond floating-point range at q = {q}") from None


def capacity_bound(
    e: Exponents, T: float, R: float, order: int, u0_norm: float, u1_norm: float = 0.0,
) -> CapacityReport:
    """A-priori bound for the equation of time order 1 or 2:

    2 C(q) (I_{order+1} + I1) * (spatial factor)
      + 2 ||u1||_q (data factor)^(1/q')           (order 2 only)
      + 2 |d_t^(order-1) phi1(0)| ||u0||_q (data factor)^(1/q'),

    where |d_t phi1(0)| = ell/T and I_k(T) = C_k T^(1-k q').  With the power cutoff,
    the Young terms scale like R^(Q-2q') and the data terms like R^((Q-2q')/q'), so
    order 2 totals R^(Q-2q') (a T^(1-2q') + b T) + R^((Q-2q')/q') (c + d/T).  At q_c
    the logarithmic cutoff is used and the bound decays inside the (ln R) envelope.
    """
    if order not in (1, 2):
        raise ParameterError("time order must be 1 or 2")
    if not (0 <= u0_norm < math.inf and 0 <= u1_norm < math.inf):
        raise ParameterError("data norms must be finite and nonnegative")
    cq = young_constant(e.q)
    u0_coef = abs(TemporalFactor(T, e.ell).coefficient(order - 1))  # checks T > 0 first
    i1 = time_integral_closed(e, T, 0)
    i_order = time_integral_closed(e, T, order)
    spec = e.log_spec() if e.is_critical() else e.power_spec()
    spatial = spatial_integral(e, spec, R).value
    data = spatial_integral(e, spec, R, weighted=False).value
    data_root = data ** (1.0 / e.q_prime)
    terms = {"term_lap_d" + "t" * order: 2.0 * cq * i_order * spatial,
             "term_lap": 2.0 * cq * i1 * spatial}
    if order == 2:
        terms["term_data_u1"] = 2.0 * u1_norm * data_root
    terms["term_data_u0"] = 2.0 * u0_coef * u0_norm * data_root
    bound = 0.0
    for v in terms.values():
        bound += v
    if not 0.0 < bound < math.inf:  # the reports divide by it: 0 is an underflow
        raise OverflowError(f"capacity bound beyond floating-point range at R = {R:g}")
    return CapacityReport(bound, terms)


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
