import re

import numpy as np
import pytest

from heislab.cutoffs import CutoffSpec, GaugeBump, ProductTestFunction, TemporalFactor
from heislab.errors import ParameterError
from heislab import mc
from heislab.group import GroupPoint, point
from heislab.mc import MCConfig, chunk_generator, mc_integrate_vector, sample_box
from heislab.weak_form import (
    TIME_NODES,
    CandidateSolution,
    ResidualReport,
    pair_defect,
    selfadjointness_ratio,
    selfadjointness_residual,
    weak_residual,
)

Q = 2.0


def zero_field(p):
    return np.zeros(np.shape(p.tau))


def standard_testfn(T=2.0, ell=4.0, R=3.0, m=2):
    return ProductTestFunction(TemporalFactor(T, ell), CutoffSpec.power(m), R)


def log_testfn(T=2.0, ell=4.0, R=4.0, kappa=5.0):
    # transition annulus r in (2, 4) overlaps the manufactured bump
    return ProductTestFunction(TemporalFactor(T, ell), CutoffSpec.logarithmic(kappa), R)


def bump_value(center, radius):
    """The value of a gauge bump, b(eta), as one callable."""
    return lambda p, bump=GaugeBump(center=center, radius=radius): bump.spatial(p)[0]


def manufactured(radius=2.3):
    center = point(0.2, -0.1, 0.05)
    bump = GaugeBump(center=center, radius=radius)
    b = lambda p: bump.spatial(p)[0]
    a = lambda t: np.exp(-0.5 * t)
    lap = lambda p: bump.spatial(p)[1]
    power = (lambda t: np.abs(a(t)) ** Q, lambda p: np.abs(b(p)) ** Q)
    cand = CandidateSolution(terms=((a, b),), u1=lambda p: -0.5 * b(p), q=Q)
    # strong-form defects (a' + a) Delta b + |a b|^q and (a'' + a) Delta b + |a b|^q
    defect_p = ((lambda t: -0.5 * a(t) + a(t), lap), power)
    defect_h = ((lambda t: 0.25 * a(t) + a(t), lap), power)
    return cand, defect_p, defect_h, b, a


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
        u0 = u(0.0, p)
        if order == 1:
            rhs = u0 * lap0
        else:
            rhs = cand.u1(p) * lap0 - u0 * lap0_dt
        return lhs, rhs, lhs - rhs

    lhs, rhs, diff = mc_integrate_vector(integrand, testfn.support_box(), cfg, 3)
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
        return [acc]

    est = mc_integrate_vector(integrand, testfn.support_box(), cfg, 1)[0]
    return est.value, est.stderr


class SumTestFunction:
    """Sum of product test functions sharing one time factor, which is again
    a product: phi1 (phi2_a + phi2_b)."""

    def __init__(self, *parts):
        assert len({tf.time_factor for tf in parts}) == 1
        self.parts = parts
        self.T, self.time_factor = parts[0].T, parts[0].time_factor

    def spatial(self, p):
        evs = [tf.spatial(p) for tf in self.parts]
        return sum(v for v, _ in evs), sum(lap for _, lap in evs)

    def temporal(self, t):
        return self.parts[0].temporal(t)

    def support_box(self):
        boxes = np.stack([tf.support_box() for tf in self.parts])
        return np.stack([boxes[..., 0].min(axis=0), boxes[..., 1].max(axis=0)], axis=-1)


class ReversedTestFunction:
    def __init__(self, inner):
        self.inner = inner
        self.T = inner.T

    def spatial(self, p):
        return self.inner.spatial(p)

    def temporal(self, t):
        return self.inner.temporal(self.T - np.asarray(t))

    def support_box(self):
        return self.inner.support_box()


def test_zero_candidate_zero_residual():
    cand = CandidateSolution(terms=(), u1=zero_field, q=Q)
    cfg = MCConfig(samples=20_000, seed=1)
    tf = standard_testfn()
    rep = weak_residual([(cand, 1)], tf, cfg)[0]
    assert rep.residual == 0.0 and rep.lhs == 0.0 and rep.rhs == 0.0
    rep = weak_residual([(cand, 2)], tf, cfg)[0]
    assert rep.residual == 0.0


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("family", ["power", "logarithmic"])
def test_separable_residual_matches_brute_force(order, family):
    # same samples: the time-vector evaluation equals the per-node loop up to
    # the summation order of the time sums
    cand, defect_p, defect_h, _, _ = manufactured()
    tf = standard_testfn() if family == "power" else log_testfn()
    cfg = MCConfig(samples=4_000, seed=7)
    rep = weak_residual([(cand, order)], tf, cfg)[0]
    ref = reference_residual(cand, tf, cfg, order)
    got = (rep.lhs, rep.rhs, rep.residual, rep.error)
    assert abs(ref[3]) > 0.0 and abs(ref[1]) > 0.0
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
    oracle = pair_defect([defect_p if order == 1 else defect_h], tf, cfg)[0]
    assert (oracle.value, oracle.stderr) == pytest.approx(
        reference_pairing(defect_p if order == 1 else defect_h, tf, cfg), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("order", [1, 2])
def test_two_term_datum_from_terms(order):
    # a_1(0) = 1 and a_2(0) = 2 differ, so u0 = a_1(0) b_1 + a_2(0) b_2 weighs each
    # term by its own initial coefficient
    b1 = bump_value(point(0.2, -0.1, 0.05), 2.3)
    b2 = bump_value(point(-0.3, 0.2, -0.1), 1.8)
    cand = CandidateSolution(
        terms=((lambda t: np.exp(-0.5 * t), b1), (lambda t: 2.0 - t, b2)),
        u1=lambda p: -0.5 * b1(p) - b2(p), q=Q)
    tf = standard_testfn()
    cfg = MCConfig(samples=4_000, seed=9)
    rep = weak_residual([(cand, order)], tf, cfg)[0]
    ref = reference_residual(cand, tf, cfg, order)
    assert abs(ref[1]) > 0.0
    assert (rep.lhs, rep.rhs, rep.residual, rep.error) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_split_term_has_the_law_of_the_one_term_candidate(q, order):
    # a b as a (b/2) + a (b/2) is the same candidate: its |u|^q phi takes the loop
    # over the time nodes, the one-term candidate's the time sum P times |b|^q.  a < 0,
    # so P must take |a|, not a, for the odd and fractional powers
    b = bump_value(point(0.2, -0.1, 0.05), 2.3)
    a, half = (lambda t: -np.exp(-0.5 * t)), (lambda p: 0.5 * b(p))
    u1 = lambda p: 0.5 * b(p)
    one = CandidateSolution(terms=((a, b),), u1=u1, q=q)
    split = CandidateSolution(terms=((a, half), (a, half)), u1=u1, q=q)
    tf, cfg = standard_testfn(), MCConfig(samples=4_000, seed=17)
    rep, ref = weak_residual([(one, order), (split, order)], tf, cfg)
    assert abs(rep.lhs) > 0.0 and abs(rep.residual) > 0.0
    assert (rep.lhs, rep.rhs, rep.residual, rep.error) == pytest.approx(
        (ref.lhs, ref.rhs, ref.residual, ref.error), rel=1e-13, abs=0.0)


# exp(-t/2) puts its mass within t ~ 1 of 0, where the 64 nodes on [0, T] thin out
# as T grows; the rule on each half of [0, T] moves the time sums by 9.7e-7 at T = 1e3,
# 2.5e-3 at 2e3 and 0.65 at 1e4, and both rules read 0 at every node beyond T ~ 1e7
@pytest.mark.parametrize("T", [1e4, 4e6, 1e50])
def test_unresolved_time_rule_names_T(T):
    cand, defect_p, _, _, _ = manufactured()
    tf, cfg = standard_testfn(T=T), MCConfig(samples=1_000, seed=0)
    for run, item in ((weak_residual, (cand, 1)), (pair_defect, defect_p)):
        with pytest.raises(ParameterError, match=re.escape(f"at T = {T:g}, ell = 4") + "$"):
            run([item], tf, cfg)


def test_time_rule_resolves_T_up_to_1e3():
    cand, defect_p, defect_h, _, _ = manufactured()
    tf, cfg = standard_testfn(T=1e3), MCConfig(samples=1_000, seed=0)
    assert len(weak_residual([(cand, 1), (cand, 2)], tf, cfg)) == 2
    assert len(pair_defect([defect_p, defect_h], tf, cfg)) == 2


def test_one_pass_gives_each_case_its_one_case_bits(monkeypatch):
    # chunks of 1,000 points, so every sum runs over five chunks, the last one short
    monkeypatch.setattr(mc, "CHUNK", 1000)
    cand, defect_p, defect_h, b1, _ = manufactured()
    b2 = bump_value(point(-0.3, 0.2, -0.1), 1.8)
    two = CandidateSolution(terms=((lambda t: np.exp(-0.5 * t), b1), (lambda t: 2.0 - t, b2)),
                            u1=lambda p: -0.5 * b1(p) - b2(p), q=Q)
    zero = CandidateSolution(terms=(), u1=zero_field, q=Q)
    tf, cfg = standard_testfn(), MCConfig(samples=4_500, seed=13)
    # the cases share b1, the defects share their |a b|^q term
    cases = [(zero, 1), (cand, 1), (two, 2), (cand, 2), (zero, 2), (two, 1)]
    defects = [defect_p, defect_h, ((np.ones_like, b2),)]
    for run, items, one in ((weak_residual, cases, lambda c: [c]), (pair_defect, defects, lambda d: [d])):
        alone = [run(one(item), tf, cfg)[0] for item in items]
        assert repr(run(items, tf, cfg)) == repr(alone)
        assert repr(run(items[::-1], tf, cfg)) == repr(alone[::-1])


def test_order_must_be_1_or_2():
    cand, _, _, _, _ = manufactured()
    for order in (0, 3):
        with pytest.raises(ParameterError):
            weak_residual([(cand, order)], standard_testfn(), MCConfig(samples=1000, seed=0))


def test_no_cases_give_no_reports():
    testfn, cfg = standard_testfn(), MCConfig(samples=1_000, seed=0)
    assert weak_residual([], testfn, cfg) == []
    assert pair_defect([], testfn, cfg) == []


class PaddedBox:
    """Same test function, sampling box enlarged to a common one."""

    def __init__(self, inner, box):
        self.inner = inner
        self.T, self.time_factor = inner.T, inner.time_factor
        self._box = box

    def spatial(self, p):
        return self.inner.spatial(p)

    def temporal(self, t):
        return self.inner.temporal(t)

    def support_box(self):
        return self._box


def test_static_candidate_hyperbolic():
    # u constant in time with u1 = 0: the Delta phi_tt term integrates
    # against u and the residual still matches the defect pairing
    bump = GaugeBump(center=point(0.0, 0.1, -0.05), radius=2.2)
    one = np.ones_like
    cand = CandidateSolution(terms=((one, lambda p: bump.spatial(p)[0]),), u1=zero_field, q=Q)
    defect = ((one, lambda p: bump.spatial(p)[1]), (one, lambda p: np.abs(bump.spatial(p)[0]) ** Q))
    tf = standard_testfn()
    rep = weak_residual([(cand, 2)], tf, MCConfig(samples=80_000, seed=21))[0]
    oracle = pair_defect([defect], tf, MCConfig(samples=160_000, seed=22))[0]
    assert abs(rep.residual - oracle.value) <= 3 * np.hypot(rep.error, oracle.stderr)


def test_residual_linear_in_test_function():
    cand, _, _, _, _ = manufactured()
    cfg = MCConfig(samples=20_000, seed=5)
    tf1 = standard_testfn(R=3.0, m=2)
    tf2 = standard_testfn(R=2.5, m=3)
    both = SumTestFunction(tf1, tf2)
    box = both.support_box()
    r1 = weak_residual([(cand, 1)], PaddedBox(tf1, box), cfg)[0]
    r2 = weak_residual([(cand, 1)], PaddedBox(tf2, box), cfg)[0]
    r12 = weak_residual([(cand, 1)], both, cfg)[0]
    # same seed and same box -> same sample points -> exact additivity
    assert r12.residual == pytest.approx(r1.residual + r2.residual, abs=1e-10)


def test_nonlinearity_scaling_bookkeeping():
    cand, _, _, b, a = manufactured()
    doubled = CandidateSolution(terms=((lambda t: 2 * a(t), b),), u1=cand.u1, q=Q)
    tf = standard_testfn()
    cfg = MCConfig(samples=20_000, seed=6)
    quadratic = pair_defect([((lambda t: np.abs(a(t)) ** Q, lambda p: np.abs(b(p)) ** Q),)],
                            tf, cfg)[0]
    r1 = weak_residual([(cand, 1)], tf, cfg)[0]
    r2 = weak_residual([(doubled, 1)], tf, cfg)[0]
    # lhs(2u) - 2 lhs(u) = (4 - 2) * quadratic term, pointwise with shared samples
    assert r2.lhs - 2 * r1.lhs == pytest.approx(2 * quadratic.value, rel=1e-10)


def test_terminal_condition_enforced():
    cand, _, _, _, _ = manufactured()
    tf = ReversedTestFunction(standard_testfn())
    with pytest.raises(ParameterError):
        weak_residual([(cand, 1)], tf, MCConfig(samples=1000, seed=0))
    with pytest.raises(ParameterError):
        weak_residual([(cand, 2)], tf, MCConfig(samples=1000, seed=0))


def test_hyperbolic_requires_velocity():
    _, _, _, b, a = manufactured()
    cand = CandidateSolution(terms=((a, b),), q=Q)
    with pytest.raises(ParameterError):
        weak_residual([(cand, 2)], standard_testfn(), MCConfig(samples=1000, seed=0))


BOX = np.array([[-3.0, 3.0], [-3.0, 3.0], [-9.0, 9.0]])


def test_selfadjointness_identical_fields_exactly_zero():
    f = GaugeBump(point(0.3, 0.2, 0.4), radius=1.4)
    rep = selfadjointness_residual(f, f, BOX, MCConfig(samples=5_000, seed=2))
    assert rep.residual == 0.0


def test_selfadjointness_disjoint_supports():
    f = GaugeBump(point(1.5, 1.5, 4.0), radius=0.7)
    g = GaugeBump(point(-1.5, -1.5, -4.0), radius=0.7)
    rep = selfadjointness_residual(f, g, BOX, MCConfig(samples=30_000, seed=3))
    assert abs(rep.lhs) <= 5 * max(rep.error, 1e-12)
    assert abs(rep.rhs) <= 5 * max(rep.error, 1e-12)


def test_selfadjointness_overlapping_bumps():
    for k, (c1, c2) in enumerate([((0.3, 0.2, 0.4), (-0.3, 0.2, -0.4)),
                                  ((0.0, 0.4, -0.2), (0.2, -0.4, 0.0)),
                                  ((-0.4, 0.0, 0.3), (0.4, 0.1, 0.5))]):
        f = GaugeBump(point(*c1), radius=1.4)
        g = GaugeBump(point(*c2), radius=1.6)
        rep = selfadjointness_residual(f, g, BOX, MCConfig(samples=60_000, seed=10 + k))
        assert abs(rep.residual) <= 5 * rep.error


def test_selfadjointness_overlapping_bumps_n2():
    box = np.array([[-3.0, 3.0]] * 4 + [[-9.0, 9.0]])
    for k, (c1, c2) in enumerate([((0.3, -0.1, 0.2, 0.1, 0.4), (-0.3, 0.2, 0.2, -0.1, -0.4)),
                                  ((0.0, 0.2, 0.4, 0.0, -0.2), (0.2, 0.0, -0.4, 0.1, 0.0)),
                                  ((-0.4, 0.1, 0.0, 0.3, 0.3), (0.4, -0.2, 0.1, 0.0, 0.5))]):
        f = GaugeBump(GroupPoint.from_flat(np.array(c1)), radius=1.4)
        g = GaugeBump(GroupPoint.from_flat(np.array(c2)), radius=1.6)
        rep = selfadjointness_residual(f, g, box, MCConfig(samples=100_000, seed=30 + k))
        assert abs(rep.residual) <= 5 * rep.error


def test_selfadjointness_rejects_malformed_box():
    f = GaugeBump(point(0.0, 0.0, 0.0), radius=1.0)
    for box in (BOX[:2], BOX[:, :1], np.zeros((4, 2)), BOX.ravel()):
        with pytest.raises(ParameterError):
            selfadjointness_residual(f, f, box, MCConfig(samples=2_000, seed=0))


def full_row_selfadjointness(f, g, box, cfg):
    """The self-adjointness integrand on every sample row: both bumps are
    evaluated at all points, also where one of them is 0."""
    def integrand(pts):
        p = GroupPoint.from_flat(pts)
        (fv, f_lap), (gv, g_lap) = f.spatial(p), g.spatial(p)
        lhs, rhs = -f_lap * gv, fv * -g_lap
        return lhs, rhs, lhs - rhs

    lhs, rhs, diff = mc_integrate_vector(integrand, box, cfg, 3)
    return ResidualReport(lhs.value, rhs.value, diff.value, diff.stderr)


# (centre of f, centre of g, radii); the last pair's support boxes are disjoint
SELFADJOINT_PAIRS = {
    1: [((0.3, 0.2, 0.4), (-0.3, 0.2, -0.4), (1.4, 1.6)),
        ((-0.4, 0.1, -0.3), (0.4, 0.1, 0.3), (1.4, 1.6)),
        ((1.5, 1.5, 4.0), (-1.5, -1.5, -4.0), (0.7, 0.7))],
    2: [((0.3, -0.1, 0.2, 0.1, 0.4), (-0.3, 0.2, 0.2, -0.1, -0.4), (1.4, 1.6)),
        ((0.0, 0.2, 0.4, 0.0, -0.2), (0.2, 0.0, -0.4, 0.1, 0.0), (1.4, 1.6)),
        ((1.5, 1.5, 1.5, 1.5, 4.0), (-1.5, -1.5, -1.5, -1.5, -4.0), (0.7, 0.7))],
}


@pytest.mark.parametrize("n", [1, 2])
def test_selfadjointness_has_the_law_of_the_full_row_integrand(n, monkeypatch):
    # only the draws in both support boxes are made, from another stream than the full
    # draw; over 160 seeds, in chunks of 4,096 points (the last of three short), both
    # estimators have the same means, and the reported error is the sd of the residual
    monkeypatch.setattr(mc, "CHUNK", 4096)
    box = np.array([[-3.0, 3.0]] * (2 * n) + [[-9.0, 9.0]])
    for k, (c1, c2, radii) in enumerate(SELFADJOINT_PAIRS[n]):
        f, g = (GaugeBump(GroupPoint.from_flat(np.array(c)), radius=r) for c, r in zip((c1, c2), radii))
        if k == len(SELFADJOINT_PAIRS[n]) - 1:  # disjoint support boxes: nothing is drawn
            assert all(selfadjointness_residual(f, g, box, MCConfig(samples=9_000, seed=s))
                       == ResidualReport(0.0, 0.0, 0.0, 0.0) for s in (0, 7, 40 + k))
            continue
        runs = [np.array([[getattr(rep, name) for name in ("lhs", "residual", "error")]
                          for rep in (estimator(f, g, box, MCConfig(samples=9_000, seed=s)) for s in range(160))])
                for estimator in (selfadjointness_residual, full_row_selfadjointness)]
        thin, full = runs
        sem = np.sqrt(thin.var(axis=0, ddof=1) / len(thin) + full.var(axis=0, ddof=1) / len(full))
        assert np.all(np.abs(thin.mean(axis=0) - full.mean(axis=0)) <= 4.0 * sem)
        for vals in runs:  # the root mean square of the reported error against the sd of the residual
            assert abs(np.sqrt(np.mean(vals[:, 2] ** 2)) / vals[:, 1].std(ddof=1) - 1.0) <= 0.15


# support boxes disjoint in x; in x and y (the product of the signed widths is then
# positive); in x, y and tau
@pytest.mark.parametrize("axes, c1, c2", [(1, (1.6, 0.0, 0.0), (-1.6, 0.0, 0.0)),
                                          (2, (1.6, 1.6, 0.0), (-1.6, -1.6, 0.0)),
                                          (3, (1.6, 1.6, 15.0), (-1.6, -1.6, -15.0))],
                         ids=["x", "x-y", "x-y-tau"])
def test_selfadjointness_of_disjoint_supports_draws_nothing(axes, c1, c2):
    box = np.array([[-5.0, 5.0], [-5.0, 5.0], [-40.0, 40.0]])
    f, g = GaugeBump(point(*c1), radius=1.4), GaugeBump(point(*c2), radius=1.6)
    (f_lo, f_hi), (g_lo, g_hi) = f.support_box().T, g.support_box().T
    assert np.sum(np.minimum(f_hi, g_hi) <= np.maximum(f_lo, g_lo)) == axes
    assert selfadjointness_residual(f, g, box, MCConfig(samples=20_000, seed=1)) == ResidualReport(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ParameterError, match="puts no sample in the supports"):
        selfadjointness_ratio([(point(*c1), point(*c2))], box, 20_000, seed=1)


@pytest.mark.parametrize("samples", [1_000, 4_500], ids=["one_chunk", "five_chunks"])
def test_each_estimate_is_the_pairwise_sum_of_its_column(samples, monkeypatch):
    # per chunk, each column and its squares are one np.sum of a contiguous 1-D array, so the
    # three columns integrated together and each column integrated alone give the same bits
    monkeypatch.setattr(mc, "CHUNK", 1000)
    columns = lambda pts: (np.sin(3.0 * pts[:, 0]), -pts[:, 1] ** 3, pts[:, 0] * pts[:, 1])
    bounds, cfg = np.array([[-1.0, 1.0], [-1.0, 1.0]]), MCConfig(samples=samples, seed=3)
    s1, s2 = np.zeros(3), np.zeros(3)
    for index, done in enumerate(range(0, samples, 1000)):
        cols = columns(sample_box(bounds, cfg, index, min(1000, samples - done)))
        s1 += [np.sum(c) for c in cols]
        s2 += [np.sum(c * c) for c in cols]
    mean = s1 / samples
    stderr = 4.0 * np.sqrt(np.maximum(s2 - samples * mean * mean, 0.0) / (samples - 1) / samples)
    want = [(float(4.0 * m), float(e)) for m, e in zip(mean, stderr)]
    assert [(e.value, e.stderr) for e in mc_integrate_vector(columns, bounds, cfg, 3)] == want
    for k in range(3):
        alone = mc_integrate_vector(lambda pts: [columns(pts)[k]], bounds, cfg, 1)[0]
        assert (alone.value, alone.stderr) == want[k]


@pytest.mark.parametrize("seed, index", [(0, 1), (7, 1), (11, 0), (-1, 3)])
def test_chunk_generator_is_philox_keyed_seed_index(seed, index):
    # chunk i of a Monte Carlo pass at seed s draws from (s, i); identities draws from (seed, 1)
    key = np.array([seed % 2**64, index], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key)).random(8)
    assert np.array_equal(chunk_generator(seed, index).random(8), want)


def test_selfadjointness_rejects_boundary_support():
    f = GaugeBump(point(2.8, 0.0, 0.0), radius=1.5)
    g = GaugeBump(point(0.0, 0.0, 0.0), radius=1.0)
    with pytest.raises(ParameterError):
        selfadjointness_residual(f, g, BOX, MCConfig(samples=2_000, seed=0))
