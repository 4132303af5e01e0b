import numpy as np
import pytest

from heislab.cutoffs import (
    CutoffSpec,
    GaugeBump,
    ProductTestFunction,
    TemporalFactor,
    check_integrability,
    cutoff_eval,
    default_power,
    min_power,
    smoothstep_complement,
    spatial_factor,
    temporal_eval,
)
from heislab.errors import ParameterError
from heislab.group import (
    GroupPoint,
    compose,
    fd_sublaplacian,
    gauge_norm,
    inverse,
    origin,
    point,
)


def rand_points(rng, m, scale=1.0, tau_scale=None, n=1):
    tau_scale = tau_scale or scale**2
    return GroupPoint(rng.uniform(-scale, scale, (m, n)),
                      rng.uniform(-scale, scale, (m, n)),
                      rng.uniform(-tau_scale, tau_scale, m))


def test_smoothstep_endpoints():
    v, d1, d2 = smoothstep_complement(np.array([-1.0, 0.0, 0.5, 1.0, 2.0]))
    assert np.allclose(v, [1, 1, 0.5, 0, 0])
    assert d1[2] == pytest.approx(-1.875)
    assert np.all(d1 <= 0)


def test_smoothstep_c2_across_breakpoints():
    # one-sided second differences of the value converge to a common limit
    # (the gap is O(h) because the third derivative jumps at breakpoints)
    for z0 in (0.0, 1.0):
        gaps = {}
        for h in (1e-3, 1e-4):
            vals = [float(smoothstep_complement(z0 + k * h)[0]) for k in (-2, -1, 0, 1, 2)]
            left = (vals[0] - 2 * vals[1] + vals[2]) / h**2
            right = (vals[2] - 2 * vals[3] + vals[4]) / h**2
            gaps[h] = abs(left - right)
            assert gaps[h] <= 120 * h
        assert gaps[1e-4] < gaps[1e-3]
    # and the analytic branch limits agree through second order
    for z0 in (0.0, 1.0):
        eps = 1e-10
        for lo, hi in zip(smoothstep_complement(z0 - eps), smoothstep_complement(z0 + eps)):
            assert abs(float(lo) - float(hi)) <= 1e-6


def test_cutoff_power_examples():
    spec = CutoffSpec.power(2)
    assert cutoff_eval(spec, 0.25) == (1.0, 0.0, 0.0)
    assert cutoff_eval(spec, 1.5) == (0.0, 0.0, 0.0)
    z = np.linspace(0, 2, 401)
    v, d1, _ = cutoff_eval(spec, z)
    assert np.all((v >= 0) & (v <= 1))
    assert np.all(d1 <= 0)


def test_cutoff_log_examples():
    spec = CutoffSpec.logarithmic(5.0)
    assert cutoff_eval(spec, -3.0) == (1.0, 0.0, 0.0)
    assert cutoff_eval(spec, 1.0) == (0.0, 0.0, 0.0)


def test_cutoff_continuity_at_breakpoints():
    for spec, breakpoints in ((CutoffSpec.power(3), (0.5, 1.0)), (CutoffSpec.logarithmic(5.0), (0.0, 1.0))):
        for z0 in breakpoints:
            lo = cutoff_eval(spec, z0 - 1e-10)
            hi = cutoff_eval(spec, z0 + 1e-10)
            for l, h in zip(lo, hi):
                assert abs(float(l) - float(h)) < 1e-6


def test_cutoff_spec_validation():
    with pytest.raises(ParameterError):
        CutoffSpec.power(0)
    with pytest.raises(ParameterError):
        CutoffSpec.logarithmic(2.0)
    with pytest.raises(ParameterError):
        CutoffSpec("nope")


def test_default_powers():
    assert default_power(1.5) == 3
    assert default_power(2.0) == 2
    assert default_power(3.0) == 2
    assert min_power(1.5) == pytest.approx(5 / 3)


def test_temporal_eval():
    tf = TemporalFactor(10.0, 4.0)
    assert temporal_eval(tf, 0.0, 0) == pytest.approx(1.0)
    assert temporal_eval(tf, 10.0, 0) == pytest.approx(0.0)
    assert temporal_eval(tf, 5.0, 1) == pytest.approx(-0.05)
    assert temporal_eval(tf, 5.0, 2) == pytest.approx(12 / 100 * 0.25)
    with pytest.raises(ParameterError):
        temporal_eval(tf, -0.1, 0)
    with pytest.raises(ParameterError):
        temporal_eval(tf, 10.1, 0)
    with pytest.raises(ParameterError):
        temporal_eval(tf, 5.0, 3)


def test_product_factors_support_and_separability():
    tf = ProductTestFunction(TemporalFactor(10.0, 4.0), CutoffSpec.power(2), 2.0)
    f0, f1, f2 = tf.temporal(3.0)
    assert (f0, f1, f2) == tuple(temporal_eval(tf.time_factor, 3.0, k) for k in range(3))
    inner = point(0.5, 0.5, 0.2)  # r^2 well below R^2/2
    v, lap = tf.spatial(inner)
    assert lap == pytest.approx(0.0)
    assert f0 * v == pytest.approx(temporal_eval(tf.time_factor, 3.0, 0))
    outer = point(2.0, 1.5, 3.0)
    v, lap = tf.spatial(outer)
    assert v == 0.0 and lap == 0.0
    # on the transition annulus the spatial factor is the power-family one
    mid = point(1.2, 1.0, 0.5)
    v, lap = tf.spatial(mid)
    assert lap != 0.0
    assert (v, lap) == spatial_factor(tf.spec, tf.R, mid)
    # time factors over a vector of nodes equal the scalar evaluations
    ts = np.array([0.0, 3.0, 10.0])
    for k, fk in enumerate(tf.temporal(ts)):
        assert fk.shape == (3,)
        assert fk == pytest.approx([temporal_eval(tf.time_factor, t, k) for t in ts],
                                   rel=1e-14, abs=0.0)
    # origin: flat region, sub-Laplacian 0 by continuity
    v0, lap0 = tf.spatial(origin(1))
    assert lap0 == 0.0 and tf.temporal(0.0)[0] * v0 == 1.0


def test_psi_eval_support():
    tf = TemporalFactor(10.0, 4.0)
    spec = CutoffSpec.logarithmic(5.0)
    R = 100.0
    near = point(2.0, 1.0, 3.0)  # r < sqrt(R) = 10
    v, lap = spatial_factor(spec, R, near)
    assert v == pytest.approx(1.0)
    assert lap == pytest.approx(0.0)
    far = point(80.0, 80.0, 0.0)  # r > R
    v, lap = spatial_factor(spec, R, far)
    assert v == 0.0 and lap == 0.0
    product = ProductTestFunction(tf, spec, R)
    assert product.spatial(far) == (v, lap)
    assert product.temporal(0.0)[2] * product.spatial(near)[0] == pytest.approx(4 * 3 / 100.0 * 1.0)
    with pytest.raises(ParameterError):
        spatial_factor(spec, R, origin(1))
    with pytest.raises(ParameterError):
        spatial_factor(spec, 0.5, near)


def test_phi_chain_rule_matches_fd_sublaplacian():
    rng = np.random.default_rng(11)
    spec = CutoffSpec.power(3)
    R = 20.0
    # random points in the transition annulus, away from breakpoints
    cand = rand_points(rng, 4000, scale=R, tau_scale=R * R)
    z = gauge_norm(cand) ** 2 / R**2
    keep = (z > 0.55) & (z < 0.95)
    assert keep.sum() > 50
    p = GroupPoint(cand.x[keep], cand.y[keep], cand.tau[keep])
    exact = spatial_factor(spec, R, p)[1]
    fd = fd_sublaplacian(lambda pt: spatial_factor(spec, R, pt)[0], p, 2e-3)
    assert np.max(np.abs(exact - fd)) < 1e-6


def test_psi_chain_rule_matches_fd_sublaplacian():
    rng = np.random.default_rng(12)
    spec = CutoffSpec.logarithmic(5.0)
    R = 16.0  # transition annulus r in (4, 16)
    x = rng.uniform(4.0, 8.0, (40, 1))
    y = rng.uniform(1.0, 3.0, (40, 1))
    tau = rng.uniform(-10.0, 10.0, 40)
    p = GroupPoint(x, y, tau)
    exact = spatial_factor(spec, R, p)[1]
    fd = fd_sublaplacian(lambda pt: spatial_factor(spec, R, pt)[0], p, 1e-3)
    assert np.max(np.abs(exact - fd)) < 1e-6


def test_integrability_guard():
    check_integrability(CutoffSpec.power(3), 1.5)  # m = 3 > 5/3: admissible
    with pytest.raises(ParameterError):
        check_integrability(CutoffSpec.power(1), 1.5)
    with pytest.raises(ParameterError):
        check_integrability(CutoffSpec.logarithmic(5.0), 1.5)


def test_product_test_function():
    tf = ProductTestFunction(TemporalFactor(2.0, 4.0), CutoffSpec.power(2), 3.0)
    assert tf.T == 2.0
    box = tf.support_box()
    assert box.shape == (3, 2)
    assert box[2, 1] == 9.0
    f0, f1, _ = tf.temporal(2.0)
    v, _ = tf.spatial(point(0.5, 0.5, 0.1))
    assert f0 * v == 0.0 and f1 * v == 0.0


def test_gauge_bump_center_and_support():
    c = point(0.4, -0.3, 0.6)
    b = GaugeBump(center=c, radius=1.5)
    assert b.spatial(c)[0] == pytest.approx(1.0)
    assert b.spatial(point(5.0, 5.0, 20.0)) == (0.0, 0.0)


BUMP_CENTERS = {1: point(0.4, -0.3, 0.6),
                2: GroupPoint(np.array([0.4, -0.2]), np.array([-0.3, 0.1]), 0.6)}


def test_gauge_bump_exact_lap_matches_fd():
    rng = np.random.default_rng(13)
    for n, center in BUMP_CENTERS.items():
        b = GaugeBump(center=center, radius=1.7)
        p = rand_points(rng, 200, scale=1.0, n=n)
        err = np.max(np.abs(b.spatial(p)[1] - fd_sublaplacian(lambda q: b.spatial(q)[0], p, 1e-3)))
        assert err < 5e-4


@pytest.mark.parametrize("n", [1, 2])
def test_gauge_bump_spatial_is_supported_in_its_gauge_ball(n):
    rng = np.random.default_rng(29)
    b = GaugeBump(center=BUMP_CENTERS[n], radius=1.2)
    # points on both sides of the bump's support boundary
    p = rand_points(rng, 400, scale=1.0, tau_scale=1.0, n=n)
    value, lap = b.spatial(p)
    outside = gauge_norm(compose(p, inverse(b.center))) >= b.radius
    assert 100 < np.count_nonzero(outside) < 300
    assert np.all(value[outside] == 0.0) and np.all(lap[outside] == 0.0)
    assert np.all(value[~outside] != 0.0)


OFF_CENTRE = [point(1.0, -0.8, 0.3),
              GroupPoint(np.array([0.9, -0.4]), np.array([-0.6, 0.7]), -0.5),
              GroupPoint(np.array([0.5, -0.7, 0.6]), np.array([0.8, 0.2, -0.6]), 0.4)]


@pytest.mark.parametrize("center", OFF_CENTRE, ids=lambda c: f"n{c.n}")
def test_gauge_bump_support_box_contains_the_support(center):
    # |c_z| > rho, so the twist 2(x'.c_y - c_x.y') carries much of the support past c_tau +- rho^2
    b = GaugeBump(center=center, radius=0.9)
    box = b.support_box()
    assert box.shape == (2 * center.n + 1, 2)
    mid, half = box.mean(axis=1), 0.625 * (box[:, 1] - box[:, 0])  # 1.25 times the box
    pts = mid + half * np.random.default_rng(31).uniform(-1.0, 1.0, (100_000, len(mid)))
    value, lap = b.spatial(GroupPoint.from_flat(pts))
    hit = (value != 0.0) | (lap != 0.0)
    assert np.count_nonzero(hit) > 100
    assert np.all((pts[hit] > box[:, 0]) & (pts[hit] < box[:, 1]))

