import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from heislab import group
from heislab.errors import ParameterError
from heislab.group import (
    GroupPoint,
    PolyField,
    compose,
    dilate,
    dilation_matrix,
    fd_sublaplacian,
    gauge_norm,
    gauge_radial,
    horizontal_field,
    invariant_translation,
    inverse,
    origin,
    point,
    random_points,
    random_polynomial,
    sublaplacian,
)
from heislab.mc import MCConfig, mc_integrate_vector

coord = st.floats(-10, 10, allow_nan=False, allow_infinity=False)


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
    with pytest.raises(ParameterError):
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
        return [np.all((half >= 0) & (half <= 1), axis=1).astype(float)]

    est = mc_integrate_vector(indicator, [[0, 2], [0, 2], [0, 4]], MCConfig(400_000, seed=9), 1)[0]
    assert abs(est.value - 16.0) <= 4 * est.stderr + 1e-9


def test_horizontal_field_examples():
    rng = np.random.default_rng(1)
    p = random_points(1, 40, rng)
    f_tau = PolyField({(0, 0, 1): 1.0}, 1)
    assert np.allclose(horizontal_field(f_tau, 1, "X").value(p), 2 * p.y[..., 0])
    assert np.allclose(horizontal_field(f_tau, 1, "Y").value(p), -2 * p.x[..., 0])
    f_x = PolyField({(1, 0, 0): 1.0}, 1)
    assert np.allclose(horizontal_field(f_x, 1, "Y").value(p), 0.0)
    with pytest.raises(ParameterError):
        horizontal_field(f_x, 2, "X")
    with pytest.raises(ParameterError):
        horizontal_field(f_x, 1, "Z")


@pytest.mark.parametrize("n", [1, 2])
def test_polyfield_diff_rejects_an_index_outside_the_coordinates(n):
    f = PolyField({(1,) * (2 * n + 1): 1.0}, n)
    assert f.diff(2 * n).coeffs == {(1,) * (2 * n) + (0,): 1.0}
    for i in (-1, 2 * n + 1):
        with pytest.raises(ParameterError, match=f"coordinate index {i} out of range for n={n}"):
            f.diff(i)


def test_commutator_is_minus_four_dtau():
    rng = np.random.default_rng(2)
    p = random_points(1, 100, rng)
    f = PolyField({(0, 0, 1): 1.0}, 1)
    xy = horizontal_field(horizontal_field(f, 1, "Y"), 1, "X").value(p)
    yx = horizontal_field(horizontal_field(f, 1, "X"), 1, "Y").value(p)
    assert np.allclose(xy - yx, -4.0)


def test_sublaplacian_examples():
    rng = np.random.default_rng(4)
    p = random_points(1, 50, rng)
    f = PolyField({(2, 0, 0): 1.0, (0, 2, 0): 1.0}, 1)
    assert np.allclose(sublaplacian(f, p), 4.0)
    f_tau = PolyField({(0, 0, 1): 1.0}, 1)
    assert np.allclose(sublaplacian(f_tau, p), 0.0)
    r4 = PolyField({(4, 0, 0): 1.0, (2, 2, 0): 2.0, (0, 4, 0): 1.0, (0, 0, 2): 1.0}, 1)
    assert sublaplacian(r4, point(1, 0, 0)) == pytest.approx(24.0)


def identity(s):
    return s, np.ones_like(s), np.zeros_like(s)


def test_anisotropy_weight():
    # f(s) = s: Delta |eta|^2 = 2Q omega, with omega = (|x|^2+|y|^2)/|eta|^2 taken as 0 at the origin
    for p, omega in ((point(0.3, 0.4, 0), 1.0), (point(0, 0, 5), 0.0),
                     (point(1, 1, 2), 2 / np.sqrt(8)), (origin(1), 0.0)):
        v, lap = gauge_radial(p, 1.0, identity)
        assert v == pytest.approx(gauge_norm(p) ** 2)
        assert lap == pytest.approx(2 * p.Q * omega)
    p = point(0.2, -0.7, 0.4)
    assert gauge_radial(p, 4.0, identity)[1] == pytest.approx(gauge_radial(p, 1.0, identity)[1] / 4)


def test_sublaplacian_radial():
    # f(s) = s^2 at rho2 = 1 is |eta|^4, whose sub-Laplacian at (1, 0, 0) is 24
    def square(s):
        return s * s, 2 * s, 2 + 0 * s

    assert gauge_radial(point(1, 0, 0), 1.0, square)[1] == pytest.approx(24.0)
    assert gauge_radial(point(0.4, -0.2, 0.7), 2.0, lambda s: (1.0 + 0 * s, 0 * s, 0 * s))[1] == 0.0
    assert gauge_radial(point(0, 0, 1), 1.0, square)[1] == pytest.approx(0.0)  # omega vanishes


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gauge_radial_is_exact(n):
    # c0 + c1 r^4 + c2 r^8 with r^4 = (sum z_k^2)^2 + tau^2, against the polynomial's sub-Laplacian
    rng = np.random.default_rng(5)
    p = random_points(n, 100, rng)
    d = 2 * n + 1

    def monomial(k, e, c=1.0):  # c z_k^e
        return PolyField({tuple(e * (m == k) for m in range(d)): c}, n)

    sq = sum((monomial(k, 2) for k in range(1, 2 * n)), monomial(0, 2))
    r4 = sq * sq + monomial(d - 1, 2)
    for _ in range(5):
        c0, c1, c2 = rng.uniform(-1, 1, 3)
        f = r4 * r4 * monomial(0, 0, c2) + r4 * monomial(0, 0, c1) + monomial(0, 0, c0)
        v, lap = gauge_radial(p, 1.0, lambda s: (
            c0 + c1 * s**2 + c2 * s**4, 2 * c1 * s + 4 * c2 * s**3, 2 * c1 + 12 * c2 * s**2))
        assert np.max(np.abs(v - f.value(p))) < 1e-12
        assert np.max(np.abs(sublaplacian(f, p) - lap)) < 1e-8


@pytest.mark.parametrize("n", [1, 2])
def test_pullback_is_f_at_the_mapped_point(n):
    rng = np.random.default_rng(10 + n)
    p = random_points(n, 100, rng)
    for _ in range(5):
        f = random_polynomial(n, rng)
        shift = GroupPoint(*rng.uniform(-1, 1, (2, n)), rng.uniform(-1, 1))
        for A, b in (invariant_translation(shift),
                     (dilation_matrix(float(rng.uniform(0.5, 2.0)), n), np.zeros(2 * n + 1))):
            mapped = GroupPoint.from_flat(p.flat() @ A.T + b)
            want = f.value(mapped)
            gap = np.abs(f.pullback(A, b).value(p) - want)
            assert np.all(gap <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_dilation_homogeneity_of_sublaplacian():
    rng = np.random.default_rng(7)
    p = random_points(1, 100, rng)
    for _ in range(5):
        f = random_polynomial(1, rng)
        lam = float(rng.uniform(0.5, 2.0))
        g = f.pullback(dilation_matrix(lam, 1), np.zeros(3))
        err = np.max(np.abs(sublaplacian(g, p) - lam**2 * sublaplacian(f, dilate(lam, p))))
        assert err < 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_fd_sublaplacian_is_exact_on_cubics(n):
    # a translation curve is linear in s, so a cubic stays a cubic along it and the
    # central difference along the group law is exact up to rounding, even at h = 0.1;
    # most terms of random_polynomial mix coordinates, and each cubic is also checked
    # through a translate, which mixes x, y and tau
    rng = np.random.default_rng(20 + n)
    p = random_points(n, 100, rng)
    for _ in range(5):
        f = random_polynomial(n, rng)
        shift = GroupPoint(*rng.uniform(-1, 1, (2, n)), rng.uniform(-1, 1))
        for g in (f, f.pullback(*invariant_translation(shift))):
            assert np.max(np.abs(fd_sublaplacian(g.value, p, 0.1) - sublaplacian(g, p))) < 1e-10


def test_random_polynomial_terms_mix_coordinates():
    # a term draws its degree, then that many coordinates: at n = 2 a term of degree 2
    # is a pure power with probability 1/5, one of degree 3 with probability 1/25
    rng = np.random.default_rng(3)
    terms = [exps for _ in range(300) for exps in random_polynomial(2, rng).coeffs if sum(exps) >= 2]
    mixed = sum(np.count_nonzero(exps) >= 2 for exps in terms)
    assert len(terms) > 500 and mixed > 0.75 * len(terms)


def test_fd_sublaplacian_rejects_a_nonpositive_step():
    p = random_points(1, 5, np.random.default_rng(9))
    for h in (0.0, -1e-3):
        with pytest.raises(ParameterError):
            fd_sublaplacian(lambda pt: pt.tau, p, h)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_left_invariance_row_fails_under_a_flipped_twist(monkeypatch, n):
    # the mutant moves only tau of eta o a; Delta of a random cubic often ignores tau,
    # so the row must see the tau^3 added to its polynomial
    def flipped(a, b):
        return GroupPoint(a.x + b.x, a.y + b.y, a.tau + b.tau + 2.0 * np.sum(b.x * a.y - a.x * b.y, axis=-1))

    monkeypatch.setattr(group, "compose", flipped)
    for seed in range(5):
        rows = {name: measured for name, measured, _ in group.identity_battery(n, np.random.default_rng(seed))}
        assert rows["left_invariance"] > 1e-8, seed
