"""Weak-solution residuals by separable space-time quadrature.

Both model equations are tested in integrated-by-parts form against
separable test functions phi(t, eta) = phi1(t) phi2(eta).  For the
first-order equation the identity is

    int_0^T int (|u|^q phi + u Delta phi - u Delta phi_t) = int u0 Delta phi(0, .)

for admissible phi with phi(T, .) = 0; the second-order variant replaces
the -u Delta phi_t term by +u Delta phi_tt and tests against phi with
phi(T, .) = phi_t(T, .) = 0, with data terms

    int u1 Delta phi(0, .) - int u0 Delta phi_t(0, .).

Candidates are separable too, u = sum_j a_j(t) b_j(eta).  Spatial
integrals are seeded Monte Carlo over the test-function support box
(n = 1) and time integrals are Gauss-Legendre, evaluated space once, time
as vectors: per Monte Carlo chunk, phi2, Delta phi2 and every b_j are
evaluated once, and the linear terms reduce to dot products over the time
nodes, sum_k w_k a_j(t_k) (phi1 - phi1')(t_k) for the first order and
sum_k w_k a_j(t_k) (phi1 + phi1'')(t_k) for the second, times
b_j Delta phi2.  Only |u|^q phi loops over the nodes, on arrays of one
chunk's length.  Residual reports always carry the quadrature error
estimate; no pass/fail threshold is baked in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ParameterError
from .group import GroupPoint, SmoothField, sublaplacian
from .mc import MCConfig, MCEstimate, mc_integrate_vector, sample_box


TIME_NODES = 64  # Gauss-Legendre nodes of every time integral


@dataclass(frozen=True)
class WeakFormConfig:
    samples: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.samples < 2:
            raise ParameterError("need at least 2 samples")


@dataclass(frozen=True)
class CandidateSolution:
    """A separable candidate u(t, eta) = sum_j a_j(t) b_j(eta) with its
    claimed initial data and exponent q.

    `terms` holds the pairs (a_j, b_j): a_j maps an array of times to an
    array of values, b_j maps a GroupPoint to values.  The zero candidate
    has no terms.
    """

    terms: tuple
    u0: SmoothField
    u1: Optional[SmoothField] = None
    q: float = 2.0
    attains_data: bool = True

    def __post_init__(self):
        if not self.q > 1:
            raise ParameterError("q must exceed 1")


@dataclass(frozen=True)
class ResidualReport:
    lhs: float
    rhs: float
    residual: float
    error: float


def _time_rule(T: float):
    x, w = np.polynomial.legendre.leggauss(TIME_NODES)
    return 0.5 * T * (x + 1.0), 0.5 * T * w


def _check_terminal(testfn, order: int):
    probe = sample_box(testfn.support_box(), MCConfig(samples=64, seed=97), 0, 64)
    value, _ = testfn.spatial(GroupPoint.from_flat(probe))
    f0, f1, _ = testfn.temporal(np.array([0.0, testfn.T]))
    scale = 1.0 + float(np.max(np.abs(f0[0] * value)))
    if float(np.max(np.abs(f0[1] * value))) > 1e-10 * scale:
        raise ParameterError("test function must vanish at t = T")
    if order == 2 and float(np.max(np.abs(f1[1] * value))) > 1e-10 * scale:
        raise ParameterError("test function time derivative must vanish at t = T")


def _check_initial_data(cand: CandidateSolution, testfn):
    if not cand.attains_data:
        return
    probe = sample_box(testfn.support_box(), MCConfig(samples=32, seed=193), 0, 32)
    p = GroupPoint.from_flat(probe)
    got = sum((a(0.0) * np.asarray(b(p)) for a, b in cand.terms), np.zeros(len(probe)))
    want = np.asarray(cand.u0.value(p))
    scale = 1.0 + float(np.max(np.abs(want)))
    if float(np.max(np.abs(got - want))) > 1e-8 * scale:
        raise ParameterError("candidate does not attain its claimed initial data")


def _residual_estimate(sides, bounds, cfg: WeakFormConfig) -> ResidualReport:
    """Common-point MC of lhs, rhs and their difference (honest stderr);
    sides(p) returns the (lhs, rhs) integrands at the points p."""

    def integrand(pts):
        a, b = sides(GroupPoint.from_flat(pts))
        return np.stack([a, b, a - b], axis=1)

    lhs, rhs, diff = mc_integrate_vector(integrand, bounds, MCConfig(cfg.samples, cfg.seed), 3)
    return ResidualReport(lhs.value, rhs.value, diff.value, diff.stderr)


def weak_residual(cand: CandidateSolution, testfn, cfg: WeakFormConfig, order: int) -> ResidualReport:
    """Defect of the weak identity of time order 1 or 2 for the given candidate."""
    if order not in (1, 2):
        raise ParameterError("time order must be 1 or 2")
    _check_terminal(testfn, order)
    _check_initial_data(cand, testfn)
    if order == 2 and cand.u1 is None:
        raise ParameterError("second-order candidates need initial velocity u1")
    ts, ws = _time_rule(testfn.T)
    f0, f1, f2 = testfn.temporal(ts)
    if not np.any(f0):
        # e.g. q near 1, where phi1 = (1 - t/T)^ell with a huge ell underflows
        raise ParameterError("time factor phi1 is 0 at every quadrature node; the check would be vacuous")
    g0, g1, _ = testfn.temporal(0.0)
    coefs = [np.asarray(a(ts)) for a, _ in cand.terms]
    # int_0^T a_j (phi1 - phi1') or int_0^T a_j (phi1 + phi1''), by Gauss-Legendre
    linear = [float(np.dot(ws * c, f0 - f1 if order == 1 else f0 + f2)) for c in coefs]

    def sides(p):
        value, lap = testfn.spatial(p)
        bs = [np.asarray(b(p)) for _, b in cand.terms]
        power = np.zeros(np.shape(value))
        for k, w in enumerate(ws * f0):  # |u|^q phi, one time node at a time
            u = sum(c[k] * b for c, b in zip(coefs, bs))
            power += w * np.abs(u) ** cand.q
        lhs = power * value + sum(c * b for c, b in zip(linear, bs)) * lap
        u0 = np.asarray(cand.u0.value(p))
        if order == 1:
            return lhs, u0 * (g0 * lap)
        return lhs, np.asarray(cand.u1.value(p)) * (g0 * lap) - u0 * (g1 * lap)

    return _residual_estimate(sides, testfn.support_box(), cfg)


def pair_defect(terms, testfn, cfg: WeakFormConfig) -> MCEstimate:
    """Space-time pairing int_0^T int defect(t, eta) phi(t, eta) of a
    separable defect sum_j c_j(t) d_j(eta), given as terms ((c_j, d_j), ...)
    like a candidate's; the independent oracle for smooth compactly
    supported candidates.  It pairs with phi itself, never with Delta phi."""
    ts, ws = _time_rule(testfn.T)
    f0, _, _ = testfn.temporal(ts)
    coefs = [float(np.dot(ws * f0, c(ts))) for c, _ in terms]

    def integrand(pts):
        p = GroupPoint.from_flat(pts)
        value, _ = testfn.spatial(p)
        return (sum(c * np.asarray(d(p)) for c, (_, d) in zip(coefs, terms)) * value)[:, None]

    return mc_integrate_vector(integrand, testfn.support_box(), MCConfig(cfg.samples, cfg.seed), 1)[0]


def _check_supported_inside(f: SmoothField, box: np.ndarray, scale: float):
    """Sample each box face; the field must vanish there."""
    box = np.asarray(box, dtype=float)
    d = box.shape[0]
    rng = np.random.Generator(np.random.Philox(key=np.array([11, 0], dtype=np.uint64)))
    for axis in range(d):
        for side in range(2):
            pts = box[:, 0] + rng.random((64, d)) * (box[:, 1] - box[:, 0])
            pts[:, axis] = box[axis, side]
            vals = f.value(GroupPoint.from_flat(pts))
            if float(np.max(np.abs(vals))) > 1e-9 * scale:
                raise ParameterError("support touches the boundary of the box")


def selfadjointness_residual(f: SmoothField, g: SmoothField, box, cfg: WeakFormConfig) -> ResidualReport:
    """| int (-Delta f) g - int f (-Delta g) | over a box with MC error.

    Both fields must be compactly supported strictly inside the box, so
    the two integrals are equal and the residual is pure quadrature noise.
    """
    box = np.asarray(box, dtype=float)
    if box.shape != (3, 2):
        raise ParameterError("box must be (3, 2) bounds for n = 1")
    probe = sample_box(box, MCConfig(samples=128, seed=5), 0, 128)
    p = GroupPoint.from_flat(probe)
    scale = 1.0 + float(np.max(np.abs(f.value(p)))) + float(np.max(np.abs(g.value(p))))
    _check_supported_inside(f, box, scale)
    _check_supported_inside(g, box, scale)

    def sides(p):
        return -sublaplacian(f, p) * g.value(p), f.value(p) * -sublaplacian(g, p)

    return _residual_estimate(sides, box, cfg)
