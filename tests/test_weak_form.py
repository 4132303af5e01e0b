import numpy as np
import pytest

from heislab.cutoffs import CutoffSpec, GaugeBump, ProductTestFunction, TemporalFactor
from heislab.errors import ParameterError
from heislab.group import GroupPoint, SmoothField, point
from heislab.mc import MCConfig, mc_integrate_vector
from heislab.weak_form import (
    TIME_NODES,
    CandidateSolution,
    WeakFormConfig,
    pair_defect,
    selfadjointness_residual,
    weak_residual,
)

Q = 2.0


def zero_field():
    return SmoothField(lambda p: np.zeros(np.shape(p.tau)))


def standard_testfn(T=2.0, ell=4.0, R=3.0, m=2):
    return ProductTestFunction(TemporalFactor(T, ell), CutoffSpec.power(m), R)


def log_testfn(T=2.0, ell=4.0, R=4.0, kappa=5.0):
    # transition annulus r in (2, 4) overlaps the manufactured bump
    return ProductTestFunction(TemporalFactor(T, ell), CutoffSpec.logarithmic(kappa), R)


def manufactured(radius=2.3):
    center = point(0.2, -0.1, 0.05)
    bump = GaugeBump(center=center, radius=radius)
    a = lambda t: np.exp(-0.5 * t)
    power = (lambda t: np.abs(a(t)) ** Q, lambda p: np.abs(bump.value(p)) ** Q)
    cand = CandidateSolution(
        terms=((a, bump.value),),
        u0=SmoothField(lambda p: bump.value(p)),
        u1=SmoothField(lambda p: -0.5 * bump.value(p)),
        q=Q,
    )
    # strong-form defects (a' + a) Delta b + |a b|^q and (a'' + a) Delta b + |a b|^q
    defect_p = ((lambda t: -0.5 * a(t) + a(t), bump.lap), power)
    defect_h = ((lambda t: 0.25 * a(t) + a(t), bump.lap), power)
    return cand, defect_p, defect_h, bump, a


def reference_residual(cand, testfn, cfg, order):
    """Brute-force weak residual: u, phi and its sub-Laplacians are formed in
    full at every Gauss time node, as the space-time integrand is written."""
    x, w = np.polynomial.legendre.leggauss(TIME_NODES)
    ts, ws = 0.5 * testfn.T * (x + 1.0), 0.5 * testfn.T * w

    def phi(t, p):
        v, lap = testfn.spatial(p)
        f0, f1, f2 = testfn.temporal(t)
        return f0 * v, f0 * lap, f1 * lap, f2 * lap

    def u(t, p):
        return sum((a(t) * b(p) for a, b in cand.terms), np.zeros(np.shape(p.tau)))

    def integrand(pts):
        p = GroupPoint(pts[:, 0:1], pts[:, 1:2], pts[:, 2])
        lhs = 0.0
        for t, wk in zip(ts, ws):
            value, lap, lap_dt, lap_dtt = phi(t, p)
            ut = u(t, p)
            time_term = -ut * lap_dt if order == 1 else ut * lap_dtt
            lhs = lhs + wk * (np.abs(ut) ** cand.q * value + ut * lap + time_term)
        _, lap0, lap0_dt, _ = phi(0.0, p)
        if order == 1:
            rhs = cand.u0.value(p) * lap0
        else:
            rhs = cand.u1.value(p) * lap0 - cand.u0.value(p) * lap0_dt
        return np.stack([lhs, rhs, lhs - rhs], axis=1)

    lhs, rhs, diff = mc_integrate_vector(integrand, testfn.support_box(),
                                         MCConfig(cfg.samples, cfg.seed), 3)
    return lhs.value, rhs.value, diff.value, diff.stderr


def reference_pairing(terms, testfn, cfg):
    """Brute-force defect pairing, defect times phi at every time node."""
    x, w = np.polynomial.legendre.leggauss(TIME_NODES)
    ts, ws = 0.5 * testfn.T * (x + 1.0), 0.5 * testfn.T * w

    def integrand(pts):
        p = GroupPoint(pts[:, 0:1], pts[:, 1:2], pts[:, 2])
        acc = 0.0
        for t, wk in zip(ts, ws):
            defect = sum(c(t) * d(p) for c, d in terms)
            acc = acc + wk * defect * testfn.temporal(t)[0] * testfn.spatial(p)[0]
        return acc[:, None]

    est = mc_integrate_vector(integrand, testfn.support_box(), MCConfig(cfg.samples, cfg.seed), 1)[0]
    return est.value, est.stderr


class SumTestFunction:
    """Sum of product test functions sharing one time factor, which is again
    a product: phi1 (phi2_a + phi2_b)."""

    def __init__(self, *parts):
        assert len({tf.time_factor for tf in parts}) == 1
        self.parts = parts
        self.T = parts[0].T

    def spatial(self, p):
        evs = [tf.spatial(p) for tf in self.parts]
        return sum(v for v, _ in evs), sum(lap for _, lap in evs)

    def temporal(self, t):
        return self.parts[0].temporal(t)

    def support_box(self, n=1):
        boxes = np.stack([tf.support_box(n) for tf in self.parts])
        return np.stack([boxes[..., 0].min(axis=0), boxes[..., 1].max(axis=0)], axis=-1)


class ReversedTestFunction:
    def __init__(self, inner):
        self.inner = inner
        self.T = inner.T

    def spatial(self, p):
        return self.inner.spatial(p)

    def temporal(self, t):
        return self.inner.temporal(self.T - np.asarray(t))

    def support_box(self, n=1):
        return self.inner.support_box(n)


def test_zero_candidate_zero_residual():
    cand = CandidateSolution(terms=(), u0=zero_field(), u1=zero_field(), q=Q)
    cfg = WeakFormConfig(samples=20_000, seed=1)
    tf = standard_testfn()
    rep = weak_residual(cand, tf, cfg, 1)
    assert rep.residual == 0.0 and rep.lhs == 0.0 and rep.rhs == 0.0
    rep = weak_residual(cand, tf, cfg, 2)
    assert rep.residual == 0.0


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("family", ["power", "logarithmic"])
def test_separable_residual_matches_brute_force(order, family):
    # same samples: the time-vector evaluation equals the per-node loop up to
    # the summation order of the time sums
    cand, defect_p, defect_h, _, _ = manufactured()
    tf = standard_testfn() if family == "power" else log_testfn()
    cfg = WeakFormConfig(samples=4_000, seed=7)
    rep = weak_residual(cand, tf, cfg, order)
    ref = reference_residual(cand, tf, cfg, order)
    got = (rep.lhs, rep.rhs, rep.residual, rep.error)
    assert abs(ref[3]) > 0.0 and abs(ref[1]) > 0.0
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
    oracle = pair_defect(defect_p if order == 1 else defect_h, tf, cfg)
    assert (oracle.value, oracle.stderr) == pytest.approx(
        reference_pairing(defect_p if order == 1 else defect_h, tf, cfg), rel=1e-12, abs=0.0)


def test_order_must_be_1_or_2():
    cand, _, _, _, _ = manufactured()
    for order in (0, 3):
        with pytest.raises(ParameterError):
            weak_residual(cand, standard_testfn(), WeakFormConfig(samples=1000, seed=0), order)


def test_manufactured_matches_defect_oracle():
    cand, defect_p, defect_h, _, _ = manufactured()
    tf = standard_testfn()
    cfg = WeakFormConfig(samples=80_000, seed=3)
    ocfg = WeakFormConfig(samples=160_000, seed=4)
    rep = weak_residual(cand, tf, cfg, 1)
    oracle = pair_defect(defect_p, tf, ocfg)
    assert abs(rep.residual - oracle.value) <= 3 * np.hypot(rep.error, oracle.stderr)
    rep = weak_residual(cand, tf, cfg, 2)
    oracle = pair_defect(defect_h, tf, ocfg)
    assert abs(rep.residual - oracle.value) <= 3 * np.hypot(rep.error, oracle.stderr)


class PaddedBox:
    """Same test function, sampling box enlarged to a common one."""

    def __init__(self, inner, box):
        self.inner = inner
        self.T = inner.T
        self._box = box

    def spatial(self, p):
        return self.inner.spatial(p)

    def temporal(self, t):
        return self.inner.temporal(t)

    def support_box(self, n=1):
        return self._box


def test_static_candidate_hyperbolic():
    # u constant in time with u1 = 0: the Delta phi_tt term integrates
    # against u and the residual still matches the defect pairing
    bump = GaugeBump(center=point(0.0, 0.1, -0.05), radius=2.2)
    one = np.ones_like
    cand = CandidateSolution(
        terms=((one, bump.value),),
        u0=SmoothField(lambda p: bump.value(p)),
        u1=zero_field(), q=Q)
    defect = ((one, bump.lap), (one, lambda p: np.abs(bump.value(p)) ** Q))
    tf = standard_testfn()
    rep = weak_residual(cand, tf, WeakFormConfig(samples=80_000, seed=21), 2)
    oracle = pair_defect(defect, tf, WeakFormConfig(samples=160_000, seed=22))
    assert abs(rep.residual - oracle.value) <= 3 * np.hypot(rep.error, oracle.stderr)


def test_residual_linear_in_test_function():
    cand, _, _, _, _ = manufactured()
    cfg = WeakFormConfig(samples=20_000, seed=5)
    tf1 = standard_testfn(R=3.0, m=2)
    tf2 = standard_testfn(R=2.5, m=3)
    both = SumTestFunction(tf1, tf2)
    box = both.support_box()
    r1 = weak_residual(cand, PaddedBox(tf1, box), cfg, 1)
    r2 = weak_residual(cand, PaddedBox(tf2, box), cfg, 1)
    r12 = weak_residual(cand, both, cfg, 1)
    # same seed and same box -> same sample points -> exact additivity
    assert r12.residual == pytest.approx(r1.residual + r2.residual, abs=1e-10)


def test_nonlinearity_scaling_bookkeeping():
    cand, _, _, bump, a = manufactured()
    doubled = CandidateSolution(
        terms=((lambda t: 2 * a(t), bump.value),),
        u0=SmoothField(lambda p: 2 * bump.value(p)),
        u1=cand.u1, q=Q)
    tf = standard_testfn()
    cfg = WeakFormConfig(samples=20_000, seed=6)
    quadratic = pair_defect(((lambda t: np.abs(a(t)) ** Q, lambda p: np.abs(bump.value(p)) ** Q),),
                            tf, cfg)
    r1 = weak_residual(cand, tf, cfg, 1)
    r2 = weak_residual(doubled, tf, cfg, 1)
    # lhs(2u) - 2 lhs(u) = (4 - 2) * quadratic term, pointwise with shared samples
    assert r2.lhs - 2 * r1.lhs == pytest.approx(2 * quadratic.value, rel=1e-10)


def test_terminal_condition_enforced():
    cand, _, _, _, _ = manufactured()
    tf = ReversedTestFunction(standard_testfn())
    with pytest.raises(ParameterError):
        weak_residual(cand, tf, WeakFormConfig(samples=1000, seed=0), 1)
    with pytest.raises(ParameterError):
        weak_residual(cand, tf, WeakFormConfig(samples=1000, seed=0), 2)


def test_initial_data_consistency_enforced():
    _, _, _, bump, a = manufactured()
    lying = CandidateSolution(
        terms=((a, bump.value),),
        u0=SmoothField(lambda p: 2.0 + 0 * np.asarray(p.tau)),
        q=Q)
    with pytest.raises(ParameterError):
        weak_residual(lying, standard_testfn(), WeakFormConfig(samples=1000, seed=0), 1)
    relaxed = CandidateSolution(terms=lying.terms, u0=lying.u0, q=Q, attains_data=False)
    weak_residual(relaxed, standard_testfn(), WeakFormConfig(samples=1000, seed=0), 1)


def test_hyperbolic_requires_velocity():
    _, _, _, bump, a = manufactured()
    cand = CandidateSolution(terms=((a, bump.value),),
                             u0=SmoothField(lambda p: bump.value(p)), q=Q)
    with pytest.raises(ParameterError):
        weak_residual(cand, standard_testfn(), WeakFormConfig(samples=1000, seed=0), 2)


BOX = np.array([[-3.0, 3.0], [-3.0, 3.0], [-9.0, 9.0]])


def test_selfadjointness_identical_fields_exactly_zero():
    f = GaugeBump(point(0.3, 0.2, 0.4), radius=1.4).field
    rep = selfadjointness_residual(f, f, BOX, WeakFormConfig(samples=5_000, seed=2))
    assert rep.residual == 0.0


def test_selfadjointness_disjoint_supports():
    f = GaugeBump(point(1.5, 1.5, 4.0), radius=0.7).field
    g = GaugeBump(point(-1.5, -1.5, -4.0), radius=0.7).field
    rep = selfadjointness_residual(f, g, BOX, WeakFormConfig(samples=30_000, seed=3))
    assert abs(rep.lhs) <= 5 * max(rep.error, 1e-12)
    assert abs(rep.rhs) <= 5 * max(rep.error, 1e-12)


def test_selfadjointness_overlapping_bumps():
    for k, (c1, c2) in enumerate([((0.3, 0.2, 0.4), (-0.3, 0.2, -0.4)),
                                  ((0.0, 0.4, -0.2), (0.2, -0.4, 0.0)),
                                  ((-0.4, 0.0, 0.3), (0.4, 0.1, 0.5))]):
        f = GaugeBump(point(*c1), radius=1.4).field
        g = GaugeBump(point(*c2), radius=1.6).field
        rep = selfadjointness_residual(f, g, BOX, WeakFormConfig(samples=60_000, seed=10 + k))
        assert abs(rep.residual) <= 5 * rep.error


def test_selfadjointness_rejects_boundary_support():
    f = GaugeBump(point(2.8, 0.0, 0.0), radius=1.5).field
    g = GaugeBump(point(0.0, 0.0, 0.0), radius=1.0).field
    with pytest.raises(ParameterError):
        selfadjointness_residual(f, g, BOX, WeakFormConfig(samples=2_000, seed=0))
