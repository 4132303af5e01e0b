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
capacity path is deterministic and works for any n >= 1.

Time factors take no quadrature: after s = 1 - t/T the integrand is
|c_k|^(q') s^a, so `time_integral` is T |c_k|^(q') / (a + 1), the check of
the closed forms C_k T^(1-k q') the bounds use; both are formed in logs.

Every radial integral of either cutoff family has one factored form in
x in [0, 1].  With u = 1 - x the quintic step is Theta = u^3 P, Theta' =
u^2 T1 and Theta'' = u T2 (P = 1 + 3x + 6x^2, T1 = -30x^2, T2 = -60x(1-2x)),
and the integrand is

  Theta^p (u^4 |C|)^(q' w) (1+x)^g e^(hx + k),   C = alpha T1^2 + beta P T2 + gamma u P T1,

w = 1 where it carries the sub-Laplacian's bracket C, a quintic that
vanishes like x at 0.  Only `_variants` knows the family (z = (1+x)/2,
L = ln sqrt R, k holds the constant factors):

  family     x               alpha       beta   gamma   g        h          p
  power m    2r^2/R^2 - 1    16z m(m-1)  16z m  4Qm     (Q-2)/2  0          m - 2q', (m-2) q'
  log kappa  ln(r/sqrt R)/L  kappa - 1   1      L(Q-2)  0        (Q-2q') L  kappa - 2q', (kappa-2) q',
                                                                            kappa - 2q', kappa - q'

One Gauss-Jacobi rule in numpy (Golub-Welsch, Math. Comp. 23, 1969) splits
each integrand at 0, at C's real zeros in (0, 1) and at 1, and takes the
algebraic factor at each end as the weight of that segment's rule.  The
integrand is evaluated in logs, the two rules of each segment give the
value and the error, and segments are bisected until the error is below
1e-13 of the value.  Every radial integral at every R of a grid takes one
pass of the rule (`spatial_integral_grid`), and is kept once per
(exponents, cutoff, R, name) in a process.  No capacity path loads scipy.
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
    cutoff_eval,  # unused here: perfbench test_tiny_run_prints_every_metric_with_its_unit checks this binding
    default_power,
    spatial_factor,
)
from .errors import ParameterError, shown
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

    def bound_spec(self) -> CutoffSpec:
        """The cutoff of the a-priori bounds: logarithmic at q_c, power elsewhere."""
        return self.log_spec() if self.is_critical() else self.power_spec()


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
# The Gauss-Jacobi rule
# ---------------------------------------------------------------------------


# A segment (lo, hi, left, right, v) of integrand v stands for its algebraic factors
# (x - lo)^left (hi - x)^right, which become the weight of its rules, so what the nodes
# sample is smooth.  The rules with RULE_NODES and 2 RULE_NODES nodes run together: the
# second gives the value, their difference the error.  Integrands are evaluated in logs,
# at all nodes of a round in one array call.
RULE_NODES = 12  # 2N = 24 keeps every Golub-Welsch eigh below the size at which BLAS threads
RULE_RTOL = 1e-13
RULE_ROUNDS = 40  # rounds of bisection, at most
RULE_SEGMENTS = 256  # segments per integrand of a pass, on average, at most
_LOG_MAX = math.log(sys.float_info.max)


@functools.lru_cache(maxsize=1024)
def _jacobi_rules(left: float, right: float):
    """Gauss-Jacobi rules with RULE_NODES and 2 RULE_NODES nodes for the weight
    t^left (1-t)^right on [0, 1], by Golub-Welsch, one after the other: the nodes t
    and the log weights with the weight divided out, log(w / (t^left (1-t)^right)).

    The recurrence coefficients are products of bounded ratios, finite for any
    finite exponents.  An infinite or NaN one raises OverflowError, and so do nodes
    that round onto an end or onto each other, as they do for exponents near 1e16."""
    n = 2 * RULE_NODES
    a, b = right, left  # (1 - x)^a (1 + x)^b on [-1, 1], x = 2t - 1
    k = np.arange(1.0, n)
    with np.errstate(all="ignore"):
        s = 2.0 * k + a + b
        diag = np.empty(n)
        diag[0] = (b - a) / (a + b + 2.0)
        diag[1:] = (b - a) / s * ((b + a) / (s + 2.0))
        ratio = np.ones_like(k)  # (k + a + b) / (s - 1), which is 1 at k = 1
        ratio[1:] = (k[1:] + a + b) / (s[1:] - 1.0)
        off = 2.0 * np.sqrt(k / (s + 1.0) * ((k + a) / s) * ((k + b) / s) * ratio)
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise OverflowError("Jacobi recurrence beyond floating-point range")
        x, first = [], []
        for size in (RULE_NODES, n):  # the smaller Jacobi matrix is the leading block of the larger
            jacobi = np.zeros((size, size))
            jacobi.flat[::size + 1] = diag[:size]
            jacobi.flat[size::size + 1] = off[:size - 1]  # eigh reads the lower triangle
            values, vectors = np.linalg.eigh(jacobi)
            if not (-1.0 < values[0] and values[-1] < 1.0 and np.all(np.diff(values) > 0.0)):
                raise OverflowError("Gauss-Jacobi nodes beyond floating-point resolution")
            x.append(values)
            first.append(vectors[0])
        x, first = np.concatenate(x), np.concatenate(first)
        if left == 0.0 or right == 0.0:
            log_mu0 = -math.log1p(left + right)  # B(1, c + 1) = 1/(c + 1)
        else:
            log_mu0 = math.lgamma(left + 1.0) + math.lgamma(right + 1.0) - math.lgamma(left + right + 2.0)
        t = 0.5 * (1.0 + x)  # a node rounded onto an end with a nonzero exponent gives a NaN weight
        log_w = log_mu0 + 2.0 * np.log(np.abs(first))
        if left:
            log_w -= left * np.log(t)
        if right:
            log_w -= right * np.log(0.5 * (1.0 - x))
        return t, log_w


def _rule_nodes(segments, rules):
    """Abscissae and log weights of both `rules` of each of `segments`, one row per
    segment: RULE_NODES coarse nodes, then 2 RULE_NODES fine ones."""
    lo, hi = np.array([seg[:2] for seg in segments]).T
    h = (hi - lo)[:, None]
    return lo[:, None] + h * np.array([t for t, _ in rules]), np.log(h) + np.array([w for _, w in rules])


def _adapt(log_integrand, segments, count: int, limit: float) -> tuple:
    """Integrals of `count` integrands side by side; segment (lo, hi, left, right, v)
    belongs to integrand v, and `log_integrand(x, v)` gets the nodes, one row per
    segment, with each row's integrand index.  Logs are -inf where an integrand
    vanishes.

    Per integrand: while its summed rule differences exceed RULE_RTOL times its
    total, every segment whose difference is above the mean share, and above its
    own rounding, is bisected, and only the halves are evaluated anew.  Returns per
    integrand (value, abs_error, shift, nodes), value and abs_error in units of
    exp(shift), the largest node term met; abs_error adds to the differences the
    rounding of exp at logs of the size met.  An integrand whose exponents or logs
    leave float range (NaN or +inf) gets "quadrature" instead, one with a node term
    above exp(limit) "integrand".  Also returns the finished segments."""
    failed = {}
    shift, nodes = np.full(count, -math.inf), np.zeros(count, dtype=int)
    done, owner = [], np.zeros(0, dtype=int)
    fine = diff = rounding = np.zeros(0)
    pending = list(segments)
    for _ in range(RULE_ROUNDS):
        rules = []
        for seg in pending:
            try:
                rules.append(_jacobi_rules(seg[2], seg[3]))
            except OverflowError:
                failed.setdefault(seg[4], "quadrature")
                rules.append(None)
        if failed:
            rules = [r for seg, r in zip(pending, rules) if seg[4] not in failed]
            pending = [seg for seg in pending if seg[4] not in failed]
            if not pending:
                break
        x, log_w = _rule_nodes(pending, rules)
        rows = np.array([seg[4] for seg in pending])
        nodes += np.bincount(rows, minlength=count) * x.shape[1]
        with np.errstate(all="ignore"):
            log_f = log_integrand(x, rows)
            log_terms = log_f + log_w
            peak = log_terms.max(axis=1)  # NaN if any term is
            bad = ~(peak <= limit)
            if bad.any():
                for j in np.flatnonzero(bad):
                    failed.setdefault(rows[j], "integrand" if peak[j] < math.inf else "quadrature")
                keep = np.array([v not in failed for v in rows])
                pending, rows, peak = [s for s, k in zip(pending, keep) if k], rows[keep], peak[keep]
                log_f, log_terms = log_f[keep], log_terms[keep]
                if not pending:
                    break
            peaks = np.full((count, rows.size), -math.inf)
            peaks[rows, np.arange(rows.size)] = peak
            raised = np.maximum(shift, peaks.max(axis=1))
            scale = np.where(raised > shift, np.exp(shift - raised), 1.0)[owner]
            fine, diff, rounding, shift = fine * scale, diff * scale, rounding * scale, raised
            terms = np.exp(log_terms - np.where(shift > -math.inf, shift, 0.0)[rows, None])  # 0 off the support
            size = 32.0 + np.where(terms > 0.0, np.abs(log_f), 0.0).max(axis=1)
        sums = terms[:, RULE_NODES:].sum(axis=1)
        done += pending
        owner = np.concatenate([owner, rows])
        fine = np.concatenate([fine, sums])
        diff = np.concatenate([diff, np.abs(sums - terms[:, :RULE_NODES].sum(axis=1))])
        rounding = np.concatenate([rounding, sys.float_info.epsilon * size * sums])
        total, error = np.bincount(owner, fine, count), np.bincount(owner, diff, count)
        share = RULE_RTOL * total / np.maximum(np.bincount(owner, minlength=count), 1)
        split = (diff > share[owner]) & (diff > rounding) & (error > RULE_RTOL * total)[owner]
        if failed:
            split &= np.array([v not in failed for v in owner], dtype=bool)
        if not np.any(split) or len(done) >= count * RULE_SEGMENTS:
            break
        pending = [half for (lo, hi, left, right, v) in (done[j] for j in np.flatnonzero(split))
                   for half in ((lo, 0.5 * (lo + hi), left, 0.0, v), (0.5 * (lo + hi), hi, 0.0, right, v))]
        done = [seg for seg, s in zip(done, split) if not s]
        owner, fine, diff, rounding = owner[~split], fine[~split], diff[~split], rounding[~split]
    total, error = np.bincount(owner, fine, count), np.bincount(owner, diff + rounding, count)
    return [failed[v] if v in failed else (float(total[v]), float(error[v]), float(shift[v]), int(nodes[v]))
            for v in range(count)], done


def _estimates(log_integrand, segments, inputs: list) -> list:
    """`_adapt`'s radial integrals as estimates, one per string of `inputs`, or as
    the OverflowError that names the integrand or the quadrature of one beyond float
    range, and its inputs."""
    out = []
    for result, where in zip(_adapt(log_integrand, segments, len(inputs), _LOG_MAX)[0], inputs):
        if isinstance(result, str):
            out.append(OverflowError(f"radial {result} beyond floating-point range at {where}"))
            continue
        value, error, shift, nodes = result
        if value == 0.0:
            out.append(QuadratureEstimate(0.0, 0.0, nodes))
            continue
        log_value, log_error = math.log(value) + shift, (math.log(error) + shift if error > 0.0 else -math.inf)
        if max(log_value, log_error) > _LOG_MAX:
            out.append(OverflowError(f"radial quadrature beyond floating-point range at {where}"))
        else:
            out.append(QuadratureEstimate(math.exp(log_value), math.exp(log_error), nodes))
    return out


# ---------------------------------------------------------------------------
# Time integrals
# ---------------------------------------------------------------------------


def time_integral(e: Exponents, T: float, k: int) -> float:
    """I_k(T) for k in {0, 1, 2} after the substitution s = 1 - t/T, the check of
    `time_integral_closed`.

    The integrand becomes |c_k|^(q') s^a, c_k the coefficient of `TemporalFactor`,
    with a = ell - k q' > -1 taken as the integrand computes it,
    (ell - k) q' - ell/(q - 1), so I_k(T) = T |c_k|^(q') / (a + 1).  It is evaluated
    in logs, ln|c_k| = ln ell + ln(ell - 1) - 2 ln T at k = 2, so a factor beyond
    float range does not refuse a finite value.
    """
    if k not in (0, 1, 2):
        raise ParameterError("time integral order k must be 0, 1 or 2")
    TemporalFactor(T, e.ell)  # checks T > 0
    ell, qp, q = e.ell, e.q_prime, e.q
    a = (ell - k) * qp - ell / (q - 1.0)
    if not (ell - k * qp > -1.0 and not a <= -1.0):
        raise ParameterError(f"ell = {e.ell} too small for k = {k}: need ell > {k * qp - 1:.6g}")
    log_coef = (0.0, math.log(ell), math.log(ell) + math.log(ell - 1.0))[k] - k * math.log(T)
    try:  # math.exp reports only "math range error"
        value = math.exp(math.log(T) + qp * log_coef - math.log1p(a))
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise OverflowError(f"time integrand beyond floating-point range at q = {q}, T = {shown(T)}, "
                            f"ell = {shown(ell)}")
    return value


def _log_time_constant(e: Exponents, k: int) -> float:
    """ln C_k of `time_integral_constant`, each denominator ell(q-1) - d, d = 1 or q + 1,
    as ln ell + ln(q-1) + ln(1 - d/(ell(q-1))): ln(q-1) cancels, and no power of ell is
    formed."""
    q, ell = e.q, e.ell
    if k == 0:
        return -math.log1p(ell)
    if k not in (1, 2):
        raise ParameterError("time integral order k must be 0, 1 or 2")
    d = (1.0, q + 1.0)[k - 1]
    if not ell * (q - 1.0) > d:
        raise ParameterError(("ell(q-1) - 1", "ell(q-1) - q - 1")[k - 1] + " must be positive")
    log_ell = math.log(ell) + (0.0, math.log(ell - 1.0))[k - 1]
    return e.q_prime * log_ell - math.log(ell) - math.log1p(-d / ell / (q - 1.0))


def time_integral_constant(e: Exponents, k: int) -> float:
    """Closed-form constant C_k with I_k(T) = C_k T^(1 - k q').

    C_0 = 1/(ell+1),
    C_1 = (q-1) ell^(q') / (ell(q-1) - 1),
    C_2 = (q-1) (ell(ell-1))^(q') / (ell(q-1) - q - 1).
    """
    try:  # math.exp reports only "math range error"
        return math.exp(_log_time_constant(e, k))
    except OverflowError:
        raise OverflowError(f"time constant C{k + 1} beyond floating-point range at q = {e.q}, "
                            f"ell = {shown(e.ell)}") from None


def time_integral_closed(e: Exponents, T: float, k: int) -> float:
    """I_k(T) = C_k T^(1 - k q'), the time factor of the capacity bounds, as one
    exp(ln C_k + (1 - k q') ln T), finite wherever the product is."""
    try:  # math.exp reports only "math range error"
        return math.exp(_log_time_constant(e, k) + (1.0 - k * e.q_prime) * math.log(T))
    except OverflowError:
        raise OverflowError(f"time factor I{k + 1} beyond floating-point range at q = {e.q}, "
                            f"T = {shown(T)}, ell = {shown(e.ell)}") from None


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
    x = (s + n) / 2.0
    if x < 170.0:  # Gamma(x + 1/2) stays in float range
        ratio = math.gamma(x) / math.gamma(x + 0.5)
    else:
        ratio = math.exp(math.lgamma(x) - math.lgamma(x + 0.5))
    return 2.0 * math.pi**n / math.gamma(n) * ratio * math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# Spatial integrals
# ---------------------------------------------------------------------------


def _combine_sphere(radial: QuadratureEstimate, sphere: float) -> QuadratureEstimate:
    return QuadratureEstimate(sphere * radial.value, sphere * radial.abs_error, radial.nodes)


def _check_radius_squared(Q: int, R: float) -> None:
    """Raise unless R^2 and 2Q/R^2, the scales of the power family's Delta phi2, are floats."""
    try:  # float ** int reports only an errno tuple
        R2 = R**2
    except OverflowError:
        R2 = 0.0
    if R2 < 2.0 * Q / sys.float_info.max:  # R^2 underflows, or 2Q/R^2 overflows
        raise OverflowError(f"R^2 beyond floating-point range at R = {shown(R)}")


def _real_roots(coefficients, lo: float, hi: float) -> list:
    """Sorted real roots in (lo, hi) of the polynomials whose descending coefficients
    are the rows of `coefficients`, from companion-matrix eigenvalues polished by
    Newton steps; one list per row, or None where the companion matrix leaves
    float range."""
    c = np.asarray(coefficients, dtype=float)
    companion = np.zeros((len(c), c.shape[1] - 1, c.shape[1] - 1))
    with np.errstate(all="ignore"):
        companion[:, 0, :] = -c[:, 1:] / c[:, :1]
    companion[:, range(1, c.shape[1] - 1), range(c.shape[1] - 2)] = 1.0
    finite = np.all(np.isfinite(companion), axis=(1, 2))
    companion[~finite] = 0.0
    roots = np.linalg.eigvals(companion)
    row, col = np.nonzero((np.abs(roots.imag) <= 1e-9 * np.maximum(1.0, np.abs(roots.real)))
                          & (roots.real > lo) & (roots.real < hi))
    x = roots.real[row, col]
    with np.errstate(all="ignore"):
        for _ in range(3):
            p, dp = np.zeros_like(x), np.zeros_like(x)
            for k in range(c.shape[1]):
                p, dp = p * x + c[row, k], dp * x + p
            x = np.where(dp != 0.0, x - p / dp, x)
    out = [set() for _ in c]
    for i, root in zip(row, x):
        if lo < root < hi:
            out[i].add(float(root))
    return [sorted(s) if ok else None for s, ok in zip(out, finite)]


def _variants(e: Exponents, spec: CutoffSpec, R: float) -> tuple:
    """The radial integrals the capacity paths take of `spec`'s family at R, in the
    factored form of the module docstring.  Returns (inputs, (alpha, beta, gamma),
    variants): the inputs error messages name, C's coefficients as ascending
    polynomials in x, and by name the (p, w, g, h, k) of `weighted`, the spatial
    factor, of `data`, its unweighted form, and for the logarithmic family of `term_sq`
    and `term_lin`, the (ln R)^(-Q)-type and (ln R)^(-Q/2)-type Schwarz-split terms.
    A variant the family refuses at R holds its error instead."""
    qp, Q = e.q_prime, e.Q
    r_power = float(Q - 2 * Fraction(e.q) / (Fraction(e.q) - 1))  # Q - 2q' of the exact float q: 0 at q_c
    if spec.family == "power":
        m, g = spec.m, 0.5 * (Q - 2)
        k = r_power * math.log(R) - 0.5 * (Q + 2) * math.log(2.0)
        variants = {"weighted": (m - 2.0 * qp, 1, g, 0.0, k), "data": ((m - 2.0) * qp, 1, g, 0.0, k)}
        try:
            _check_radius_squared(Q, R)
        except OverflowError as exc:
            variants = dict.fromkeys(variants, exc.with_traceback(None))
        try:  # second, so that an m too small for the weight is named before R
            check_integrability(spec, e.q)
        except ParameterError as exc:
            variants["weighted"] = exc.with_traceback(None)
        coefficients = ([8.0 * m * (m - 1), 8.0 * m * (m - 1)], [8.0 * m, 8.0 * m], [4.0 * Q * m])
        return f"q = {e.q}, R = {shown(R)}", coefficients, variants
    kappa, L = spec.kappa, 0.5 * math.log(R)
    h = r_power * L

    def variant(p, w, j):  # L^(1 - j q') r^(Q - 2q'), and kappa^(q') with the bracket
        return p, w, 0.0, h, h + (1.0 - j * qp) * math.log(L) + w * qp * math.log(kappa)

    variants = {"weighted": variant(kappa - 2.0 * qp, 1, 2), "data": variant(qp * (kappa - 2.0), 1, 2),
                "term_sq": variant(kappa - 2.0 * qp, 0, 2), "term_lin": variant(kappa - qp, 0, 1)}
    return f"q = {e.q}, kappa = {shown(kappa)}, R = {shown(R)}", ([kappa - 1.0], [1.0], [L * (Q - 2)]), variants


# T1^2, P T2 and u P T1, ascending in x
_BRACKET_TERMS = (np.array([0.0, 0.0, 0.0, 0.0, 900.0]), np.array([0.0, -60.0, -60.0, 0.0, 720.0]),
                  np.array([0.0, 0.0, -30.0, -60.0, -90.0, 180.0]))


def _bracket(coefficients) -> np.ndarray:
    """Ascending coefficients of the quintic C = alpha T1^2 + beta P T2 + gamma u P T1
    from (alpha, beta, gamma) of `_variants`; C vanishes like x at 0."""
    out = np.zeros(6)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, term in zip(coefficients, _BRACKET_TERMS):
            product = np.convolve(c, term)
            out[:product.size] += product
    return out


def _radial_segments(qp: float, zeros, p: float, w: int, v: int) -> list:
    """Segments of integral v with (p, w) of `_variants` between consecutive breakpoints
    (abscissa, exponent): 0 (exponent q' w), C's `zeros` when w = 1 (exponent q') and 1
    (exponent 3p + 4 q' w).  Theta^p ~ exp(-10 p x^3) is below e^-64 beyond
    x = 4 (10 p)^(-1/3), where a breakpoint keeps the rule from missing a narrow support."""
    points = [(0.0, qp * w), (1.0, 3.0 * p + 4.0 * qp * w), *((z, qp) for z in (zeros if w else ()))]
    edge = 4.0 * (10.0 * p) ** (-1.0 / 3.0) if p > 6.4 else 1.0
    if edge < 1.0 and all(z != edge for z, _ in points):
        points.append((edge, 0.0))
    points = sorted(points)
    return [(lo, hi, left, right, v) for (lo, left), (hi, right) in zip(points, points[1:])]


def _log_integrand(qp: float, brackets, params):
    """Log of the factored radial integrand of `_variants` for each integral, with C's
    ascending coefficients `brackets` and (p, w, g, h, k) `params`, one row each; node
    rows name their integral."""
    C = np.array(brackets)
    p, w, g, h, k = (np.array(c, dtype=float)[:, None] for c in zip(*params))

    def log_integrand(x, rows):
        # ln Theta without the cancellation in 1 - x^3 (10 - 15x + 6x^2): log1p below 1/2, u^3 P above
        log_theta = np.where(x < 0.5, np.log1p(-x**3 * (10.0 - 15.0 * x + 6.0 * x * x)),
                             3.0 * np.log1p(-x) + np.log(1.0 + x * (3.0 + 6.0 * x)))
        bracket = np.polynomial.polynomial.polyval(x, C[rows].T[:, :, None], tensor=False)
        log_bracket = np.where(w[rows] > 0.0, 4.0 * np.log1p(-x) + np.log(np.abs(bracket)), 0.0)
        return (p[rows] * log_theta + qp * w[rows] * log_bracket + g[rows] * np.log1p(x)
                + h[rows] * x + k[rows])

    return log_integrand


# Radial integrals by (exponents, cutoff, R, name of `_variants`): an estimate, or the
# error its R met.  `spatial_integral_grid` fills it and `_radial` reads it.
_RADIAL_CACHE: dict = {}


def spatial_integral_grid(e: Exponents, spec: CutoffSpec, radii) -> None:
    """Compute every radial integral of `_variants` at every R of `radii` that is not
    kept yet, in one pass of the rule, and keep each for `_radial`.  One pass costs
    little more than one R.  Radii `check_radius` rejects are left to the callers
    that check them; an integral that fails keeps its error, raised when asked for."""
    if len(_RADIAL_CACHE) > 4096:
        _RADIAL_CACHE.clear()
    todo, coefficients_at = [], {}
    for R in dict.fromkeys(radii):
        try:
            check_radius(spec, R)
        except ParameterError:
            continue
        inputs, coefficients, variants = _variants(e, spec, R)
        for name, params in variants.items():
            key = (e, spec, R, name)
            if key in _RADIAL_CACHE:
                continue
            if isinstance(params, Exception):
                _RADIAL_CACHE[key] = params
            else:
                coefficients_at[R] = coefficients
                todo.append((key, inputs, params))
    if not todo:
        return
    brackets = {R: _bracket(coefficients) for R, coefficients in coefficients_at.items()}
    zeros = dict(zip(brackets, _real_roots([b[:0:-1] for b in brackets.values()], 0.0, 1.0)))  # C / x
    integrals, segments = [], []
    for key, inputs, params in todo:
        if zeros[key[2]] is None:
            _RADIAL_CACHE[key] = OverflowError(f"radial quadrature beyond floating-point range at {inputs}")
        else:
            segments += _radial_segments(e.q_prime, zeros[key[2]], *params[:2], len(integrals))
            integrals.append((key, inputs, params))
    if not integrals:
        return
    log_integrand = _log_integrand(e.q_prime, [brackets[key[2]] for key, _, _ in integrals],
                                   [params for _, _, params in integrals])
    for (key, _, _), result in zip(integrals, _estimates(log_integrand, segments, [i for _, i, _ in integrals])):
        _RADIAL_CACHE[key] = result


def _radial(e: Exponents, spec: CutoffSpec, R: float, name: str) -> QuadratureEstimate:
    """The radial integral `name` of `_variants` at R, from the pass of
    `spatial_integral_grid` that held R, or from a pass for R alone.

    The power family integrates [phi2^(-1/(q-1))] |Delta phi2|^(q') r^(Q-1) over the
    annulus R/sqrt(2) <= r <= R, the logarithmic family over sqrt(R) <= r <= R, the
    weight only for `weighted`; the Schwarz-split terms integrate
    Psi^(kappa-2q') (r^2 L^2)^(-q') and Psi^(kappa-q') (r^2 L)^(-q') times r^(Q-1).
    """
    key = (e, spec, R, name)
    if key not in _RADIAL_CACHE:
        spatial_integral_grid(e, spec, [R])
    result = _RADIAL_CACHE[key]
    if isinstance(result, Exception):
        raise type(result)(*result.args)
    return result


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
    radial = _radial(e, spec, R, "weighted" if weighted else "data")
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
    sphere = sphere_weight_constant(e.n, e.q_prime)
    term_sq = _radial(e, spec, R, "term_sq")
    term_lin = _radial(e, spec, R, "term_lin")
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
    spec = e.bound_spec()
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
        raise OverflowError(f"capacity bound beyond floating-point range at R = {shown(R)}")
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
