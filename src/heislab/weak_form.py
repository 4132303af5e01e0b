"""Weak-solution residuals by separable space-time quadrature.

Both model equations are tested in integrated-by-parts form against
separable test functions phi(t, eta) = phi1(t) phi2(eta).  For the
first-order equation the identity is

    int_0^T int (|u|^q phi + u Delta phi - u Delta phi_t) = int u0 Delta phi(0, .)

for admissible phi with phi(T, .) = 0; the second-order variant replaces
the -u Delta phi_t term by +u Delta phi_tt and tests against phi with
phi(T, .) = phi_t(T, .) = 0, with data terms

    int u1 Delta phi(0, .) - int u0 Delta phi_t(0, .).

Candidates are separable too, u = sum_j a_j(t) b_j(eta), so their datum
u0 = sum_j a_j(0) b_j is read off the terms; only u1 is given.  Spatial
integrals are seeded Monte Carlo over the test-function support box
(n = 1), time integrals Gauss-Legendre.  `weak_residual` and `pair_defect`
check several cases in one Monte Carlo pass: per chunk, the points, phi2,
Delta phi2 (the oracle reads phi2 alone) and every distinct spatial function
b_j or d_j are evaluated once for all cases, and each column of a case (lhs,
rhs, lhs - rhs, or its pairing) is one contiguous pairwise sum (`mc`), with
the bits of a one-case call.  The linear terms reduce to the time sums
sum_k w_k a_j(t_k) (phi1 - phi1')(t_k), or (phi1 + phi1'')(t_k) at order 2,
times b_j Delta phi2; as |a b|^q = |a|^q |b|^q, so does |u|^q phi of a
one-term candidate, to sum_k w_k phi1(t_k) |a(t_k)|^q times |b|^q phi2.
Only two or more terms loop over the nodes, on arrays of one chunk's
length.  A time sum that the same rule on each half of [0, T] moves by
more than 1e-3 is refused, naming T and ell.  Residual reports always carry the
quadrature error estimate; `residual_battery`, the check of `heislab
residual` and of acceptance criterion 7, sets its 3-sigma rule against a
defect oracle.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .cutoffs import GaugeBump
from .errors import ParameterError, shown
from .group import GroupPoint, dilate
from .mc import MCConfig, MCEstimate, mc_integrate_vector


TIME_NODES = 64  # Gauss-Legendre nodes of every time integral
_gauss_legendre = functools.cache(functools.partial(np.polynomial.legendre.leggauss, TIME_NODES))


@dataclass(frozen=True)
class CandidateSolution:
    """A separable candidate u(t, eta) = sum_j a_j(t) b_j(eta) with its
    initial velocity u1 and exponent q.

    `terms` holds the pairs (a_j, b_j): a_j maps an array of times to an
    array of values, b_j maps a GroupPoint to values.  The initial datum
    is u0 = sum_j a_j(0) b_j; u1, needed by the second-order identity
    only, maps a GroupPoint to values like each b_j.  The zero candidate
    has no terms.
    """

    terms: tuple
    u1: Optional[Callable] = None
    q: float = 2.0

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
    """The Gauss-Legendre rule on [0, T]: times (its nodes, the same rule's on each half of [0, T], then 0), weights."""
    x, w = _gauss_legendre()
    ts = 0.5 * T * (x + 1.0)
    return np.concatenate([ts, 0.5 * ts, 0.5 * (T + ts), [0.0]]), 0.5 * T * w


def _time_sums(tf, ws, pairs) -> list:
    """sum_k w_k x(t_k) y(t_k) of each (x, y) of pairs at the times of `_time_rule(tf.T)`.  ParameterError names T and
    ell where the halves' rule moves a sum by over 1e-3 of sum_k w_k |x y| or reads 0 at all nodes and x y(0) is not."""
    n, half_ws, sums = len(ws), np.tile(0.5 * ws, 2), []
    for x, y in pairs:
        sums.append(float(np.dot(ws * x[:n], y[:n])))
        size = float(np.dot(np.abs(half_ws * x[n:-1]), np.abs(y[n:-1])))
        if abs(sums[-1] - float(np.dot(half_ws * x[n:-1], y[n:-1]))) > 1e-3 * size or (size == 0.0 and x[-1] * y[-1]):
            raise ParameterError(f"the {TIME_NODES}-node time rule does not resolve the time integrals "
                                 f"at T = {shown(tf.T)}, ell = {shown(tf.ell)}")
    return sums


def _check_terminal(testfn, order: int):
    """phi(T, .) = 0, and phi_t(T, .) = 0 at order 2: of a separable phi, a condition on phi1 alone."""
    f0, f1, _ = testfn.temporal(np.array([0.0, testfn.T]))
    scale = 1.0 + abs(float(f0[0]))
    if abs(float(f0[1])) > 1e-10 * scale:
        raise ParameterError("test function must vanish at t = T")
    if order == 2 and abs(float(f1[1])) > 1e-10 * scale:
        raise ParameterError("test function time derivative must vanish at t = T")


def _residual_estimates(sides, bounds, cfg: MCConfig, count: int, support=None) -> list:
    """Common-point MC of lhs, rhs and their difference (honest stderr) for
    each of `count` cases; sides(pts) yields the (lhs, rhs) integrands of the
    cases at the (m, 2n+1) points pts, each case's three columns summed before the next is made."""
    columns = lambda pts: (col for lhs, rhs in sides(pts) for col in (lhs, rhs, lhs - rhs))
    est = mc_integrate_vector(columns, bounds, cfg, 3 * count, support)
    return [ResidualReport(lhs.value, rhs.value, diff.value, diff.stderr)
            for lhs, rhs, diff in zip(est[0::3], est[1::3], est[2::3])]


def weak_residual(cases, testfn, cfg: MCConfig) -> list:
    """Defects of the weak identities, one ResidualReport per case of
    ((candidate, time order 1 or 2), ...), in case order, from one pass."""
    if not cases:
        return []
    if any(order not in (1, 2) for _, order in cases):
        raise ParameterError("time order must be 1 or 2")
    _check_terminal(testfn, max(order for _, order in cases))
    if any(order == 2 and cand.u1 is None for cand, order in cases):
        raise ParameterError("second-order candidates need initial velocity u1")
    t, ws = _time_rule(testfn.T)
    f0, f1, f2 = testfn.temporal(t)
    if not np.any(f0[:TIME_NODES]):  # e.g. q near 1, where (1 - t/T)^ell with a huge ell underflows
        raise ParameterError("time factor phi1 is 0 at every quadrature node; the check would be vacuous")
    plans = []
    for cand, order in cases:
        cs = [np.asarray(a(t)) for a, _ in cand.terms]
        # int_0^T a_j (phi1 - phi1') or a_j (phi1 + phi1''), then int_0^T phi1 |a_j|^q
        pairs = [(c, f0 - f1 if order == 1 else f0 + f2) for c in cs] + [(f0, np.abs(c) ** cand.q) for c in cs]
        plans.append((cand, order, cs, _time_sums(testfn.time_factor, ws, pairs)))

    def case_sides(p, value, lap, at, cand, order, cs, sums):
        bs = [at(b) for _, b in cand.terms]
        if len(bs) < 2:  # |a b|^q = |a|^q |b|^q: the time sum of phi1 |a|^q times |b|^q, 0 of no term
            power = sum(sums[-1] * np.abs(b) ** cand.q for b in bs)
        else:  # |u|^q phi one time node at a time
            power = sum(w * np.abs(sum(c[k] * b for c, b in zip(cs, bs))) ** cand.q
                        for k, w in enumerate(ws * f0[:TIME_NODES]))
        lhs = power * value + sum(c * b for c, b in zip(sums, bs)) * lap  # the first len(bs) sums are linear
        u0 = sum(c[-1] * b for c, b in zip(cs, bs))  # a_j at the last time, t = 0
        g0 = f0[-1] * lap  # Delta phi(0, .)
        return lhs, u0 * g0 if order == 1 else np.asarray(cand.u1(p)) * g0 - u0 * (f1[-1] * lap)

    def sides(pts):
        p = GroupPoint.from_flat(pts)
        value, lap = testfn.spatial(p)
        at = functools.cache(lambda f: np.asarray(f(p)))  # each distinct spatial function once
        return (case_sides(p, value, lap, at, *plan) for plan in plans)

    return _residual_estimates(sides, testfn.support_box(), cfg, len(plans))


def pair_defect(defects, testfn, cfg: MCConfig) -> list:
    """Space-time pairings int_0^T int defect(t, eta) phi(t, eta), one MCEstimate
    per separable defect sum_j c_j(t) d_j(eta), given as terms ((c_j, d_j), ...)
    like a candidate's; the independent oracle for smooth compactly
    supported candidates.  It pairs with phi itself, never with Delta phi."""
    if not defects:
        return []
    t, ws = _time_rule(testfn.T)
    f0, _, _ = testfn.temporal(t)
    coefs = [_time_sums(testfn.time_factor, ws, [(f0, c(t)) for c, _ in terms]) for terms in defects]

    def columns(pts):
        p = GroupPoint.from_flat(pts)
        value = testfn.value(p)
        at = functools.cache(lambda f: np.asarray(f(p)))
        for cs, terms in zip(coefs, defects):
            yield sum(c * at(d) for c, (_, d) in zip(cs, terms)) * value

    return mc_integrate_vector(columns, testfn.support_box(), cfg, len(defects))


def _manufactured_cases(q: float, R: float):
    """(case, (candidate a(t) * bump(eta), time order), strong-form defect as
    terms ((time factor, spatial factor), ...)) for both orders.  The bump
    overlaps the cutoff transition so the Delta-phi terms of the weak
    identity are genuinely exercised.
    """
    center = dilate(R / 3.0, GroupPoint(np.array([0.2]), np.array([-0.1]), 0.05))
    spatial, memo = GaugeBump(center=center, radius=0.75 * R).spatial, weakref.WeakKeyDictionary()

    def bump(p):  # (value, Delta value), once per set of points while they live
        if p not in memo:
            memo[p] = spatial(p)
        return memo[p]

    a = lambda t: np.exp(-0.5 * t)
    b = lambda p: bump(p)[0]  # one callable, so a pass evaluates it once per chunk
    u1 = lambda p: -0.5 * a(0.0) * b(p)  # u_t(0, .) = a'(0) bump
    power = (lambda t: np.abs(a(t)) ** q, lambda p: np.abs(b(p)) ** q)
    # ratio = a^(order) / a: a' = -a / 2, a'' = a / 4
    return [(f"manufactured_{name}", (CandidateSolution(((a, b),), u1 if order == 2 else None, q), order),
             ((lambda t, ratio=ratio: ratio * a(t) + a(t), lambda p: bump(p)[1]), power))
            for name, order, ratio in (("parabolic", 1, -0.5), ("hyperbolic", 2, 0.25))]


def residual_battery(q: float, testfn, cfg: MCConfig) -> list:
    """Report rows of the weak-form check against the ProductTestFunction `testfn`:
    the zero candidate, an exact solution, then exp(-t/2) b(eta) with b a gauge bump of
    radius 0.75 R, each at time order 1 and 2.  A row holds the weak residual at cfg
    beside its oracle, the defect pairing at twice the samples and seed + 1 (0 for
    the zero candidate), their gap and whether it is within 3 sigma.  Raises
    ParameterError when no sample meets the candidate's support and OverflowError
    when an integrand leaves floating-point range."""
    T, R = testfn.T, testfn.R
    oracle_cfg = MCConfig(samples=2 * cfg.samples, seed=cfg.seed + 1)
    zero = CandidateSolution(terms=(), u1=lambda p: np.zeros(p.tau.shape), q=q)
    cases = [("zero_parabolic", (zero, 1), None), ("zero_hyperbolic", (zero, 2), None)] + _manufactured_cases(q, R)
    rows = []
    with np.errstate(over="raise", invalid="raise"):  # no inf or NaN reaches the rows
        try:  # one pass per sample set: the four weak rows, then the two oracle rows
            reps = weak_residual([c for _, c, _ in cases], testfn, cfg)
            oracles = [MCEstimate(0.0, 0.0)] * 2 + pair_defect([d for _, _, d in cases[2:]], testfn, oracle_cfg)
            for (case, _, defect), rep, oracle in zip(cases, reps, oracles):
                if defect and (rep.error == 0.0 or oracle.stderr == 0.0):
                    raise ParameterError(f"--samples {cfg.samples} puts no sample in the support of "
                                         f"the {case} candidate; the check would be vacuous")
                gap = abs(rep.residual - oracle.value)
                rows.append({"case": case, "lhs": rep.lhs, "rhs": rep.rhs,
                             "residual": rep.residual, "stderr": rep.error,
                             "oracle": oracle.value, "oracle_stderr": oracle.stderr, "gap": gap,
                             "within_3sigma": gap <= 3.0 * float(np.hypot(rep.error, oracle.stderr))})
        except FloatingPointError:
            raise OverflowError(f"weak-form residual beyond floating-point range at "
                                f"T = {shown(T)}, R = {shown(R)}") from None
    return rows


def selfadjointness_residual(f, g, box, cfg: MCConfig) -> ResidualReport:
    """| int (-Delta f) g - int f (-Delta g) | over a box of H^n with MC error.

    f and g, such as `GaugeBump`s, give `spatial(p)` = (value, Delta value) and
    `support_box()`; box holds (2n+1, 2) coordinate bounds with both support boxes
    strictly inside, so the two integrals are equal and the residual is quadrature
    noise.  Of the `cfg.samples` uniform draws over the box, only those in both support
    boxes are made (`mc.sample_box`): the others are 0 in all three columns, same law.
    """
    box = np.asarray(box, dtype=float)
    supports = [h.support_box() for h in (f, g)]
    if any(s.shape != box.shape or np.any(s[:, 0] <= box[:, 0]) or np.any(s[:, 1] >= box[:, 1]) for s in supports):
        raise ParameterError("box must be (2n+1, 2) bounds with both supports strictly inside")
    both = np.stack([np.max(supports, axis=0)[:, 0], np.min(supports, axis=0)[:, 1]], axis=1)  # their intersection

    def sides(pts):
        p = GroupPoint.from_flat(pts)
        (fv, f_lap), (gv, g_lap) = f.spatial(p), g.spatial(p)
        return [(-f_lap * gv, fv * -g_lap)]

    return _residual_estimates(sides, box, cfg, 1, both)[0]


def selfadjointness_ratio(centers, box, samples: int, seed: int) -> float:
    """Worst |residual| / error of `selfadjointness_residual` over gauge-bump pairs, of
    radius 1.4 about c and 1.6 about c' for each (c, c') of `centers`, pair k from seed + k
    with `samples` draws over box, of which only those in both supports are made.  Raises
    ParameterError when a pair's error is 0: no draw met its supports, so its check would be vacuous."""
    worst = 0.0
    for k, (c, c2) in enumerate(centers):
        f, g = GaugeBump(c, radius=1.4), GaugeBump(c2, radius=1.6)
        rep = selfadjointness_residual(f, g, box, MCConfig(samples=samples, seed=seed + k))
        if rep.error == 0.0:
            raise ParameterError(f"--samples {samples} puts no sample in the supports of "
                                 f"self-adjointness pair {k + 1}; the check would be vacuous")
        worst = max(worst, abs(rep.residual) / rep.error)
    return worst
