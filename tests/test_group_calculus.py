import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heislab.errors import DimensionMismatch, DomainError, ParameterError
from heislab.group import (
    GroupPoint,
    PolyField,
    RadialProfile,
    SmoothField,
    affine_pullback,
    anisotropy_weight,
    compose,
    dilate,
    dilation_matrix,
    gauge_norm,
    horizontal_derivative,
    horizontal_field,
    invariant_translation,
    inverse,
    origin,
    point,
    random_polynomial,
    sublaplacian,
    sublaplacian_radial,
)
from heislab.mc import MCConfig, mc_integrate

coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


def rand_points(rng, n, m):
    return GroupPoint(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, (m, n)),
                      rng.uniform(-1, 1, m))


def test_compose_examples():
    eta = point(0.7, -0.3, 1.1)
    out = compose(origin(1), eta)
    assert np.allclose(out.flat(), eta.flat())
    c = compose(point(1, 0, 0), point(0, 1, 0))
    assert np.allclose(c.flat(), [1.0, 1.0, 2.0])


def test_inverse_examples():
    assert np.allclose(inverse(origin(1)).flat(), 0.0)
    assert np.allclose(inverse(point(1, 1, 2)).flat(), [-1, -1, -2])
    a = point(0.3, -0.8, 0.5)
    assert np.allclose(compose(a, inverse(a)).flat(), 0.0, atol=1e-15)
    assert np.allclose(inverse(inverse(a)).flat(), a.flat())


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(origin(1), origin(2))


@given(st.lists(coord, min_size=9, max_size=9))
def test_group_axioms(vals):
    pts = [point(vals[3 * k], vals[3 * k + 1], vals[3 * k + 2]) for k in range(3)]
    a, b, c = pts
    lhs = compose(compose(a, b), c).flat()
    rhs = compose(a, compose(b, c)).flat()
    assert np.allclose(lhs, rhs, rtol=1e-12, atol=1e-10)
    assert np.allclose(compose(a, inverse(a)).flat(), 0.0, atol=1e-12)


def test_gauge_norm_examples():
    assert gauge_norm(point(0, 0, 2.5)) == pytest.approx(np.sqrt(2.5))
    assert gauge_norm(point(0.6, 0.8, 0)) == pytest.approx(1.0)
    assert gauge_norm(point(1, 1, 2)) == pytest.approx(8 ** 0.25)


@given(coord, coord, coord, st.floats(0.1, 10))
def test_norm_homogeneity(x, y, tau, lam):
    p = point(x, y, tau)
    assert gauge_norm(dilate(lam, p)) == pytest.approx(lam * gauge_norm(p), rel=1e-12, abs=1e-12)


def test_dilate():
    p = point(0.2, -0.5, 0.9)
    assert np.allclose(dilate(1.0, p).flat(), p.flat())
    assert np.allclose(dilate(2.0, p).flat(), [0.4, -1.0, 3.6])
    with pytest.raises(ParameterError):
        dilate(0.0, p)


def test_dilation_jacobian_volume_monte_carlo():
    # image of the unit box under delta_2 has volume 2^Q = 16
    def indicator(pts):
        half = pts / np.array([2.0, 2.0, 4.0])
        return np.all((half >= 0) & (half <= 1), axis=1).astype(float)

    est = mc_integrate(indicator, [[0, 2], [0, 2], [0, 4]], MCConfig(400_000, seed=9))
    assert abs(est.value - 16.0) <= 4 * est.stderr + 1e-9


def test_anisotropy_weight():
    assert anisotropy_weight(point(0.3, 0.4, 0)) == pytest.approx(1.0)
    assert anisotropy_weight(point(0, 0, 5)) == pytest.approx(0.0)
    assert anisotropy_weight(point(1, 1, 2)) == pytest.approx(2 / np.sqrt(8))
    with pytest.raises(DomainError):
        anisotropy_weight(origin(1))


def test_horizontal_derivative_examples():
    rng = np.random.default_rng(1)
    p = rand_points(rng, 1, 40)
    f_tau = PolyField({(0, 0, 1): 1.0}, 1)
    assert np.allclose(horizontal_derivative(f_tau, 1, "X", p), 2 * p.y[..., 0])
    f_x = PolyField({(1, 0, 0): 1.0}, 1)
    assert np.allclose(horizontal_derivative(f_x, 1, "Y", p), 0.0)
    with pytest.raises(ParameterError):
        horizontal_derivative(f_x, 2, "X", p)
    with pytest.raises(ParameterError):
        horizontal_derivative(f_x, 1, "Z", p)


def test_commutator_is_minus_four_dtau():
    rng = np.random.default_rng(2)
    p = rand_points(rng, 1, 100)
    f = PolyField({(0, 0, 1): 1.0}, 1)
    xy = horizontal_derivative(horizontal_field(f, 1, "Y"), 1, "X", p)
    yx = horizontal_derivative(horizontal_field(f, 1, "X"), 1, "Y", p)
    assert np.allclose(xy - yx, -4.0)
    for _ in range(10):
        g = random_polynomial(1, rng)
        xy = horizontal_derivative(horizontal_field(g, 1, "Y"), 1, "X", p)
        yx = horizontal_derivative(horizontal_field(g, 1, "X"), 1, "Y", p)
        assert np.max(np.abs(xy - yx + 4.0 * g.d1(p, 2))) < 1e-10


def test_cross_commutators_vanish():
    rng = np.random.default_rng(3)
    p = rand_points(rng, 2, 100)
    for _ in range(10):
        g = random_polynomial(2, rng)
        xy = horizontal_derivative(horizontal_field(g, 2, "Y"), 1, "X", p)
        yx = horizontal_derivative(horizontal_field(g, 1, "X"), 2, "Y", p)
        assert np.max(np.abs(xy - yx)) < 1e-10


def test_sublaplacian_examples():
    rng = np.random.default_rng(4)
    p = rand_points(rng, 1, 50)
    f = PolyField({(2, 0, 0): 1.0, (0, 2, 0): 1.0}, 1)
    assert np.allclose(sublaplacian(f, p), 4.0)
    f_tau = PolyField({(0, 0, 1): 1.0}, 1)
    assert np.allclose(sublaplacian(f_tau, p), 0.0)
    r4 = PolyField({(4, 0, 0): 1.0, (2, 2, 0): 2.0, (0, 4, 0): 1.0, (0, 0, 2): 1.0}, 1)
    assert sublaplacian(r4, point(1, 0, 0)) == pytest.approx(24.0)


def test_sublaplacian_radial():
    prof = RadialProfile(lambda r: r**4, lambda r: 4 * r**3, lambda r: 12 * r**2)
    assert sublaplacian_radial(prof, point(1, 0, 0)) == pytest.approx(24.0)
    const = RadialProfile(lambda r: np.ones_like(r), lambda r: 0 * r, lambda r: 0 * r)
    assert sublaplacian_radial(const, point(0.4, -0.2, 0.7)) == pytest.approx(0.0)
    assert sublaplacian_radial(prof, point(0, 0, 1)) == pytest.approx(0.0)  # weight vanishes
    with pytest.raises(DomainError):
        sublaplacian_radial(prof, origin(1))


def test_radial_consistency_random_profiles():
    rng = np.random.default_rng(5)
    p = rand_points(rng, 1, 100)
    r4 = PolyField({(4, 0, 0): 1.0, (2, 2, 0): 2.0, (0, 4, 0): 1.0, (0, 0, 2): 1.0}, 1)
    for _ in range(5):
        c0, c1, c2 = rng.uniform(-1, 1, 3)
        f = (r4 * r4).scaled(c2) + r4.scaled(c1) + PolyField({(0, 0, 0): c0}, 1)
        prof = RadialProfile(
            lambda r: c0 + c1 * r**4 + c2 * r**8,
            lambda r: 4 * c1 * r**3 + 8 * c2 * r**7,
            lambda r: 12 * c1 * r**2 + 56 * c2 * r**6,
        )
        assert np.max(np.abs(sublaplacian(f, p) - sublaplacian_radial(prof, p))) < 1e-8


def test_translation_invariance_of_sublaplacian():
    rng = np.random.default_rng(6)
    p = rand_points(rng, 1, 100)
    for _ in range(5):
        f = random_polynomial(1, rng)
        a = point(*rng.uniform(-1, 1, 3))
        A, b = invariant_translation(a)
        g = affine_pullback(f, A, b)
        err = np.max(np.abs(sublaplacian(g, p) - sublaplacian(f, compose(p, a))))
        assert err < 1e-8


def test_dilation_homogeneity_of_sublaplacian():
    rng = np.random.default_rng(7)
    p = rand_points(rng, 1, 100)
    for _ in range(5):
        f = random_polynomial(1, rng)
        lam = float(rng.uniform(0.5, 2.0))
        g = affine_pullback(f, dilation_matrix(lam, 1), np.zeros(3))
        err = np.max(np.abs(sublaplacian(g, p) - lam**2 * sublaplacian(f, dilate(lam, p))))
        assert err < 1e-8


def test_smoothfield_kinds_and_symmetry():
    analytic = PolyField({(1, 1, 1): 1.0}, 1)
    assert analytic.kind == "analytic"
    fd = SmoothField(lambda p: p.x[..., 0] * p.y[..., 0] * p.tau)
    assert fd.kind == "central-difference"
    rng = np.random.default_rng(8)
    p = rand_points(rng, 1, 20)
    for (i, j) in [(0, 1), (0, 2), (1, 2)]:
        a = fd.d2(p, i, j)
        b = fd.d2(p, j, i)
        assert np.array_equal(a, b)
    with pytest.raises(ParameterError):
        SmoothField(lambda p: p.tau, h=0)


def test_fd_second_derivative_order():
    rng = np.random.default_rng(9)
    p = rand_points(rng, 1, 50)

    def smooth(pt):
        return np.sin(pt.x[..., 0]) * np.cos(pt.y[..., 0]) * np.exp(pt.tau / 3)

    exact = -np.sin(p.x[..., 0]) * np.cos(p.y[..., 0]) * np.exp(p.tau / 3)
    errs = []
    for h in (1e-2, 5e-3):
        errs.append(np.max(np.abs(SmoothField(smooth, h=h).d2(p, 0, 0) - exact)))
    order = np.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2

