import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heislab.capacity as capacity
from heislab.capacity import (
    CriticalSpatialFactor,
    Exponents,
    Verdict,
    capacity_bound,
    critical_exponent,
    log_envelope,
    mc_spatial_integral,
    scaling_fit,
    spatial_integral,
    spatial_integral_critical,
    sphere_weight_constant,
    time_integral,
    time_integral_closed,
    time_integral_constant,
    verdict,
    young_constant,
)
from heislab.cli import build_parser, dispatch, main
from heislab.cutoffs import CutoffSpec, ProductTestFunction, TemporalFactor, spatial_factor
from heislab.errors import ParameterError
from heislab.group import GroupPoint
from heislab.mc import MCConfig, mc_integrate_vector


def annulus_sphere_oracle(n, s, cfg):
    """Monte Carlo reference for S_omega(s) on H^n: Q/(1 - 2^(-Q)) times the
    integral of omega^s over the gauge annulus 1/2 <= |eta| <= 1, sampled
    uniformly from the box [-1, 1]^(2n+1) with annulus rejection.
    Returns (value, stderr)."""
    Q = 2 * n + 2

    def integrand(pts):
        sq = np.sum(pts[:, : 2 * n] ** 2, axis=1)
        r2 = np.sqrt(sq * sq + pts[:, 2 * n] ** 2)
        inside = (r2 >= 0.25) & (r2 <= 1.0)
        return np.where(inside, (sq / np.where(inside, r2, 1.0)) ** s, 0.0)

    est = mc_integrate_vector(integrand, [[-1.0, 1.0]] * (2 * n + 1), cfg, 1)[0]
    scale = Q / (1.0 - 2.0 ** (-Q))
    return scale * est.value, scale * est.stderr


def test_exponents_defaults_and_validation():
    e = Exponents(q=2.0)
    assert e.ell == 4.0 and e.q_prime == 2.0 and e.Q == 4
    assert Exponents(q=1.5).ell == 6.0
    assert Exponents(q=3.0).ell == 3.0
    assert Exponents(q=2.0).kappa == 5.0
    with pytest.raises(ParameterError):
        Exponents(q=1.0)
    with pytest.raises(ParameterError):
        Exponents(q=2.0, ell=3.0)
    with pytest.raises(ParameterError):
        Exponents(q=2.0, kappa=4.0)
    with pytest.raises(ParameterError):
        Exponents(q=2.0, n=0)
    assert Exponents(q=2.0, n=1).is_critical()
    assert not Exponents(q=1.5, n=1).is_critical()


@pytest.mark.parametrize("q,ell", [(2.0, 4.0), (1.5, 6.0), (3.0, 3.0), (2.0, 1e16), (1.5, 1e16),
                                   (2.0, 1e50), (3.0, 1e50)])
@pytest.mark.parametrize("T", [10.0, 100.0])
def test_time_integral_matches_closed_form(q, ell, T):
    e = Exponents(q=q, ell=ell)
    for k in range(3):
        value = time_integral(e, T, k)
        closed = time_integral_closed(e, T, k)
        assert abs(value - closed) / abs(closed) <= 1e-12


# the substitution form is exact, so no time path reaches the Gauss-Jacobi rule; the ell
# from 1e16 on used to exit 2, the rule's nodes for the weight s^a rounded onto s = 0
@pytest.mark.parametrize("argv, key, tol", [
    (["lemma1", "--q", "2", "--ell", "4.321", "--T", "0.37,3.7"], "max_rel_err", 1e-12),
    (["lemma1", "--q", "2", "--ell", "1e16"], "max_rel_err", 1e-12),
    (["lemma1", "--q", "3", "--ell", "1e100"], "max_rel_err", 1e-12),
    (["scaling", "--target", "I2", "--q", "1.7", "--ell", "5.432"], "slope_error", 1e-10),
    (["scaling", "--target", "I3", "--q", "3/2", "--ell", "1e50"], "slope_error", 1e-10),
], ids=["lemma1", "lemma1-ell1e16", "lemma1-ell1e100", "scaling-I2", "scaling-I3-ell1e50"])
def test_time_factors_take_no_quadrature(monkeypatch, argv, key, tol):
    def fail(*args):
        raise AssertionError("a time factor reached the Gauss-Jacobi rule")

    monkeypatch.setattr(capacity, "_jacobi_rules", fail)
    monkeypatch.setattr(capacity, "_adapt", fail)
    assert dispatch(build_parser().parse_args(argv)).summary[key] <= tol


def test_time_constants_hand_values():
    e = Exponents(q=2.0, ell=4.0)
    assert time_integral_constant(e, 0) == pytest.approx(0.2)
    assert time_integral_constant(e, 1) == pytest.approx(16 / 3)
    assert time_integral_constant(e, 2) == pytest.approx(144.0)
    e = Exponents(q=1.5, ell=6.0)
    assert time_integral_constant(e, 0) == pytest.approx(1 / 7)
    assert time_integral_constant(e, 1) == pytest.approx(54.0)
    assert time_integral_constant(e, 2) == pytest.approx(27000.0)
    # C1 -> 0 as ell grows
    assert time_integral_constant(Exponents(q=2.0, ell=1e6), 0) == pytest.approx(0.0, abs=1e-5)


def test_time_integral_rejects_bad_order():
    e = Exponents(q=2.0)
    with pytest.raises(ParameterError):
        time_integral(e, 10.0, 3)
    with pytest.raises(ParameterError):
        time_integral(e, -1.0, 0)


def test_sphere_constant_s0_matches_gauge_sphere_measure():
    # the gauge unit ball of H^n has volume |S| / Q: pi^2/2 for n = 1 and
    # 2 pi^2/3 for n = 2, so the sphere measures are 2 pi^2 and 4 pi^2
    assert sphere_weight_constant(1, 0.0) == pytest.approx(2 * math.pi**2, rel=1e-12, abs=0)
    assert sphere_weight_constant(2, 0.0) == pytest.approx(4 * math.pi**2, rel=1e-12, abs=0)


def test_sphere_constant_monotone_in_s():
    for n in (1, 2, 3):
        assert sphere_weight_constant(n, 1.0) >= sphere_weight_constant(n, 2.0)


def test_sphere_constant_reproducible():
    a = sphere_weight_constant(1, 2.0)
    assert a == sphere_weight_constant(1, 2.0)
    assert a == pytest.approx(math.pi**2, rel=1e-12, abs=0)
    with pytest.raises(ParameterError):
        sphere_weight_constant(0, 1.0)
    with pytest.raises(ParameterError):
        sphere_weight_constant(1, -0.5)


# s = 0 (the sphere measure) and s = n + 1, the power q' used at the critical q = Q/(Q-2)
@pytest.mark.parametrize("n,s", [(1, 0.0), (2, 0.0), (3, 0.0), (1, 2.0), (2, 3.0), (3, 4.0)])
def test_sphere_constant_matches_annulus_oracle(n, s):
    value, stderr = annulus_sphere_oracle(n, s, MCConfig(samples=1_000_000, seed=20_000_003))
    assert abs(sphere_weight_constant(n, s) - value) <= 3 * stderr


@pytest.mark.parametrize("q,ratio", [(1.5, 0.25), (2.0, 1.0), (3.0, 2.0)])
def test_spatial_integral_doubling(q, ratio):
    e = Exponents(q=q, n=1)
    spec = e.power_spec()
    a = spatial_integral(e, spec, 10.0)
    b = spatial_integral(e, spec, 20.0)
    assert b.value / a.value == pytest.approx(ratio, rel=1e-6)


def test_spatial_integral_dilation_exactness():
    e = Exponents(q=1.5, n=1)
    spec = e.power_spec()
    power = e.Q - 2 * e.q_prime
    vals = [spatial_integral(e, spec, R).value * R**-power
            for R in (8.0, 16.0, 32.0, 64.0)]
    assert max(vals) / min(vals) - 1 < 1e-6


def test_mc_agrees_with_factorized():
    for q, R, seed in [(1.5, 8.0, 7), (2.0, 6.0, 8), (1.5, 12.0, 9)]:
        e = Exponents(q=q, n=1)
        spec = e.power_spec()
        det = spatial_integral(e, spec, R)
        mc = mc_spatial_integral(e, spec, R, MCConfig(samples=400_000, seed=seed))
        gap = abs(det.value - mc.value)
        assert gap <= 3 * math.hypot(det.abs_error, mc.stderr)


@pytest.mark.parametrize("n,q,seed", [(2, 1.2, 31), (2, 1.25, 32), (3, 1.1, 33)])
def test_mc_agrees_with_factorized_beyond_n1(n, q, seed):
    e = Exponents(q=q, n=n)
    spec = e.power_spec()
    det = spatial_integral(e, spec, 8.0)
    mc = mc_spatial_integral(e, spec, 8.0, MCConfig(samples=1_000_000, seed=seed))
    assert abs(det.value - mc.value) <= 3 * math.hypot(det.abs_error, mc.stderr)


def test_mc_needs_two_samples():
    # one sample has no standard error
    with pytest.raises(ParameterError, match="need at least 2 samples"):
        MCConfig(samples=1)
    e = Exponents(q=1.5, n=1)
    with pytest.raises(ParameterError):
        mc_spatial_integral(e, e.power_spec(), 8.0, MCConfig(samples=1, seed=7))


def test_mc_doubling_ratio_same_seed():
    e = Exponents(q=1.5, n=1)
    spec = e.power_spec()
    cfg = MCConfig(samples=400_000, seed=7)
    a = mc_spatial_integral(e, spec, 8.0, cfg)
    b = mc_spatial_integral(e, spec, 16.0, cfg)
    ratio = b.value / a.value
    sig = ratio * math.hypot(a.stderr / a.value, b.stderr / b.value)
    assert abs(ratio - 0.25) <= 3 * sig


def test_mc_integrand_vanishes_inside_flat_region():
    e = Exponents(q=1.5, n=1)
    spec = e.power_spec()
    R = 8.0
    rng = np.random.default_rng(0)
    pts = GroupPoint(rng.uniform(-1, 1, (200, 1)), rng.uniform(-1, 1, (200, 1)),
                     rng.uniform(-1, 1, 200))
    v, lap = spatial_factor(spec, R, pts)
    assert np.all(v == 1.0) and np.all(lap == 0.0)


def test_critical_spatial_factor():
    e = Exponents(q=2.0, n=1)
    spec = e.log_spec()
    grid = [1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9]
    quots = []
    lin_over_sq = []
    values = []
    for R in grid:
        fac = spatial_integral_critical(e, spec, R)
        assert isinstance(fac, CriticalSpatialFactor)
        env = log_envelope(e.Q, R)
        quots.append(fac.total.value / env)
        lin_over_sq.append(fac.term_lin.value / fac.term_sq.value)
        values.append((R, fac.total.value))
    assert max(quots) / min(quots) <= 10.0
    # the (ln R)^(-Q/2)-type term dominates increasingly
    assert all(b > a for a, b in zip(lin_over_sq, lin_over_sq[1:]))
    # decay slower than the envelope's leading (ln R)^(-Q/2) but genuine:
    # the measured slope against ln ln R sits strictly inside (-Q/2, 0)
    fit = scaling_fit(values, "log log R")
    assert -e.Q / 2 < fit.slope < 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_schwarz_split_terms_follow_their_exact_log_law(n):
    # at q_c, Q = 2q' and r^(Q-2q') = 1: term_sq is L^(1-Q) and term_lin L^(1-Q/2) times an
    # integral that R does not enter (the float q_c = 4/3 leaves Q - 2q' = -1.3e-15 at n = 3)
    e = Exponents(q=float(critical_exponent(n)), n=n)
    spec = e.log_spec()
    radii = (1.5, 10.0, 1e3, 1e9, 1e100, 1e300)
    capacity.spatial_integral_grid(e, spec, radii)
    for name, power in (("term_sq", e.Q - 1), ("term_lin", e.Q / 2 - 1)):
        scaled = [getattr(spatial_integral_critical(e, spec, R), name).value * math.log(R) ** power
                  for R in radii]
        assert max(scaled) / min(scaled) - 1.0 <= 1e-12, (name, scaled)


def test_critical_support_vanishes_inside_sqrt_R():
    e = Exponents(q=2.0, n=1)
    spec = e.log_spec()
    R = 1e4
    pts = GroupPoint(np.array([[5.0], [20.0]]), np.array([[5.0], [0.0]]),
                     np.array([10.0, -30.0]))  # gauge norms below sqrt(R) = 100
    v, lap = spatial_factor(spec, R, pts)
    assert np.all(v == 1.0) and np.all(lap == 0.0)


def test_critical_requires_critical_exponent():
    e = Exponents(q=1.5, n=1)
    with pytest.raises(ParameterError):
        spatial_integral_critical(e, CutoffSpec.logarithmic(7.0), 1e4)


def test_scaling_fit_exact_power_laws():
    e = Exponents(q=2.0, ell=4.0)
    for k, slope in [(1, -1.0), (2, -3.0)]:
        samples = [(T, time_integral(e, T, k)) for T in (10.0, 20.0, 40.0, 80.0)]
        fit = scaling_fit(samples, "log T")
        assert abs(fit.slope - slope) < 1e-6
        assert fit.max_rel_residual < 1e-6
    e = Exponents(q=1.5, n=1)
    spec = e.power_spec()
    samples = [(R, spatial_integral(e, spec, R).value)
               for R in (8.0, 16.0, 32.0, 64.0)]
    fit = scaling_fit(samples, "log R")
    assert abs(fit.slope - (-2.0)) < 1e-4


def test_scaling_fit_validation():
    with pytest.raises(ParameterError):
        scaling_fit([(1, 1), (2, 2), (3, 3)], "log T")
    with pytest.raises(ParameterError):
        scaling_fit([(1, 1), (2, -2), (3, 3), (4, 4)], "log T")
    with pytest.raises(ParameterError):
        scaling_fit([(1, 1), (2, 2), (3, 3), (4, 4)], "nope")
    with pytest.raises(ParameterError):
        scaling_fit([(1.0, 1), (2, 2), (3, 3), (4, 4)], "log log R")


def test_young_constant():
    assert young_constant(2.0) == pytest.approx(1.0)
    assert young_constant(1.5) == pytest.approx(2.370370370370370, rel=1e-12)
    assert young_constant(1e6) == pytest.approx(1.0, rel=1e-4)
    with pytest.raises(ParameterError):
        young_constant(1.0)


def test_parabolic_bound_doubling_and_decay():
    e = Exponents(q=1.5, n=1)
    bounds = []
    for R in (8.0, 16.0, 32.0, 64.0):
        rep = capacity_bound(e, 10.0, R, 1, 0.0)
        assert rep.bound == sum(rep.breakdown.values())
        bounds.append(rep.bound)
    for a, b in zip(bounds, bounds[1:]):
        assert b / a == pytest.approx(0.25, rel=0.01)
        assert b < a  # strictly decreasing
    # zero data keeps only the two Young terms
    rep = capacity_bound(e, 10.0, 8.0, 1, 0.0)
    assert rep.breakdown["term_data_u0"] == 0.0


@pytest.mark.parametrize("q", [1.05, 1.2, 4 / 3, 1.5, 2.0, 3.0])
def test_bound_time_factors_are_closed_forms(monkeypatch, q):
    # capacity_bound takes no substitution form, yet its Young terms are
    # 2 C(q) I_k(T) I4(R) with the substitution form's I_k(T), to 1e-12
    e = Exponents(q=q)
    spatial = spatial_integral(e, e.log_spec() if e.is_critical() else e.power_spec(), 8.0).value
    substituted = capacity.time_integral

    def fail(*args):
        raise AssertionError("capacity_bound took the substitution form")

    monkeypatch.setattr(capacity, "time_integral", fail)
    for T in (1e-3, 1e-1, 1.0, 10.0, 1e3, 1e6, 1e10, 1e20, 1e30):
        for order in (1, 2):
            terms = capacity_bound(e, T, 8.0, order, 1.0, 1.0).breakdown
            for name, k in (("term_lap", 0), ("term_lap_d" + "t" * order, order)):
                want = 2.0 * young_constant(q) * substituted(e, T, k) * spatial
                assert terms[name] == pytest.approx(want, rel=1e-12, abs=0.0), (T, order, name)


def test_parabolic_bound_data_term():
    e = Exponents(q=1.5, n=1)
    r0 = capacity_bound(e, 10.0, 8.0, 1, 0.0)
    r1 = capacity_bound(e, 10.0, 8.0, 1, 2.0)
    data = spatial_integral(e, e.power_spec(), 8.0, weighted=False)
    assert r1.bound - r0.bound == pytest.approx(2 * 2.0 * data.value ** (1 / e.q_prime))


def test_hyperbolic_bound_slope_and_decay():
    e = Exponents(q=1.5, n=1)
    samples = []
    for R in (8.0, 16.0, 32.0, 64.0):
        rep = capacity_bound(e, 10.0, R, 2, 0.0, 0.0)
        assert rep.bound == sum(rep.breakdown.values())
        samples.append((R, rep.bound))
    fit = scaling_fit(samples, "log R")
    assert abs(fit.slope - (-2.0)) < 1e-4
    rep = capacity_bound(e, 10.0, 8.0, 2, 1.0, 1.0)
    assert rep.breakdown["term_data_u0"] > 0 and rep.breakdown["term_data_u1"] > 0


def test_critical_bounds_stay_inside_log_envelope():
    e = Exponents(q=2.0, n=1)
    for builder in (
        lambda R: capacity_bound(e, 10.0, R, 1, 0.0),
        lambda R: capacity_bound(e, 10.0, R, 2, 0.0, 0.0),
    ):
        quots = [builder(R).bound / log_envelope(e.Q, R) for R in (1e3, 1e5, 1e7, 1e9)]
        assert max(quots) / min(quots) <= 10.0


@pytest.mark.parametrize("q", ["3/2", "2"], ids=["power", "logarithmic"])
def test_hyperbolic_bound_reuses_the_parabolic_quadratures(tmp_path, monkeypatch, q):
    # both bounds integrate the same spatial and data factors, and at q_c lemma2 integrates
    # them too: a command after another on the same grid computes no radial integral
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    computed = []
    estimates = capacity._estimates

    def counting(log_integrand, segments, inputs):
        computed.extend(inputs)
        return estimates(log_integrand, segments, inputs)

    monkeypatch.setattr(capacity, "_estimates", counting)
    out = tmp_path / "bound.json"
    grid = "1e3,1e4,1e5,1e6"
    argv = ["--q", q, "--T", "10", "--R", grid, "--u0-norm", "1.5", "--format", "json", "--out", str(out)]
    per_grid = 4 * (2 if q == "3/2" else 4)  # every variant at each of the four R
    capacity._RADIAL_CACHE.clear()
    assert main(["bound-parabolic", *argv]) == 0
    assert len(computed) == per_grid
    assert main(["bound-hyperbolic", *argv, "--u1-norm", "0.7"]) == 0
    assert len(computed) == per_grid
    warm = out.read_bytes()
    capacity._RADIAL_CACHE.clear()
    assert main(["bound-hyperbolic", *argv, "--u1-norm", "0.7"]) == 0
    assert len(computed) == 2 * per_grid and out.read_bytes() == warm
    if q == "2":
        capacity._RADIAL_CACHE.clear()
        assert main(["lemma2", "--R", grid, "--format", "json", "--out", str(tmp_path / "lemma2.json")]) == 0
        assert len(computed) == 3 * per_grid
        assert main(["bound-parabolic", *argv]) == 0
        assert len(computed) == 3 * per_grid


def test_verdict_table():
    assert verdict(1, Fraction(3, 2)) is Verdict.SUBCRITICAL_BLOWUP
    assert verdict(1, 2) is Verdict.CRITICAL_BLOWUP
    assert verdict(2, 2) is Verdict.SUPERCRITICAL_NO_CONCLUSION
    assert verdict(2, Fraction(3, 2)) is Verdict.CRITICAL_BLOWUP
    assert verdict(3, Fraction(4, 3)) is Verdict.CRITICAL_BLOWUP
    assert critical_exponent(1) == Fraction(2)
    assert critical_exponent(2) == Fraction(3, 2)
    assert critical_exponent(3) == Fraction(4, 3)
    assert "stationary supersolutions" in Verdict.SUPERCRITICAL_NO_CONCLUSION.note
    with pytest.raises(ParameterError):
        verdict(1, 1)
    # floats compare as the exact binary rationals they are
    assert verdict(1, 1.5) is Verdict.SUBCRITICAL_BLOWUP
    assert verdict(1, 2.0) is Verdict.CRITICAL_BLOWUP
    assert verdict(3, 4 / 3) is Verdict.SUBCRITICAL_BLOWUP  # float(4/3) < 4/3


@given(st.integers(1, 6), st.fractions(min_value="101/100", max_value=4))
def test_verdict_consistent_with_float_comparison(n, qf):
    v = verdict(n, qf)
    qc = critical_exponent(n)
    if qf < qc:
        assert v is Verdict.SUBCRITICAL_BLOWUP
    elif qf == qc:
        assert v is Verdict.CRITICAL_BLOWUP
    else:
        assert v is Verdict.SUPERCRITICAL_NO_CONCLUSION


@settings(max_examples=25)
@given(st.lists(st.floats(0.0, 5.0), min_size=8, max_size=8), st.integers(0, 2**31))
def test_holder_inequality_on_sampled_measure(u_vals, seed):
    # discrete Hoelder: sum w |u| phi^(1/q) phi^(-1/q) |L| <=
    #   (sum w |u|^q phi)^(1/q) (sum w phi^(-1/(q-1)) |L|^(q')) ^ (1/q')
    q = 2.0
    qp = 2.0
    e = Exponents(q=q, n=1)
    tf = ProductTestFunction(TemporalFactor(10.0, e.ell), e.power_spec(), 2.0)
    rng = np.random.default_rng(seed)
    pts = GroupPoint(rng.uniform(-1.3, 1.3, (8, 1)), rng.uniform(-1.3, 1.3, (8, 1)),
                     rng.uniform(-1.5, 1.5, 8))
    v, lap = tf.spatial(pts)
    f0, f1, _ = tf.temporal(3.0)
    phi, lap_t = np.asarray(f0 * v), np.asarray(f1 * lap)
    keep = phi > 1e-12
    if not np.any(keep):
        return
    phi, lap_t = phi[keep], lap_t[keep]
    u = np.asarray(u_vals)[keep]
    w = 0.37  # any positive cell weight
    lhs = np.sum(w * u * np.abs(lap_t))
    rhs = (np.sum(w * u**q * phi)) ** (1 / q) * (
        np.sum(w * phi ** (-1 / (q - 1)) * np.abs(lap_t) ** qp)) ** (1 / qp)
    assert lhs <= rhs * (1 + 1e-9) + 1e-12


# Reference integrals at 30 digits by mpmath's tanh-sinh quadrature, from the unsubstituted
# integrands with Theta = u^3 (1 + 3z + 6z^2), u = 1 - z, split at 0, at the real zeros in
# (0, 1) of the bracket (found by mpmath's own root finder) and at 1.  Without the split at
# the interior zero the reference itself is off, by 8e-7 relative at n = 1, q = 3.


def _poly(*factors):
    """Product of polynomials given by ascending coefficients."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


@functools.lru_cache(maxsize=None)  # the weighted and the unweighted integrand share a bracket
def _zeros_in_unit_interval(mp, ascending):
    roots = mp.polyroots(ascending[::-1], maxsteps=200, extraprec=100)
    return sorted(r.real for r in map(mp.mpc, roots) if abs(r.imag) < mp.mpf(10) ** -20 and 0 < r.real < 1)


def _theta(z):
    """Theta, Theta' and Theta'' in factored form, exact at both ends."""
    u = 1 - z
    zu = z * u
    return u * u * u * (1 + z * (3 + 6 * z)), -30 * zu * zu, -60 * zu * (1 - 2 * z)


# The weighted and the unweighted integrand (and the two Schwarz-split terms) share their
# quadrature nodes and run one after the other, so the costly parts are kept per node.

@functools.lru_cache(maxsize=8192)
def _power_pieces(mp, s, m, Q, R):
    """ln |R^2 Delta Phi|, ln Theta and z = (1+s)/2 at s."""
    t, t1, t2 = _theta(s)
    z = (1 + s) / 2
    t_m2 = t ** (m - 2) if m > 1 else 1 / t
    lap = 16 * z * m * t_m2 * ((m - 1) * t1 * t1 + t * t2) + 4 * Q * m * t_m2 * t * t1
    if lap == 0 or t == 0:
        return None
    return mp.log(abs(lap)), mp.log(t), z


@functools.lru_cache(maxsize=8192)
def _log_pieces(mp, z, k, Q, L):
    """ln Psi and ln |b1 + L b2| - ln kappa - (kappa - 2) ln Psi at z."""
    psi, d1, d2 = _theta(z)
    if psi == 0:
        return None
    b = (k - 1) * d1 * d1 + psi * (d2 + L * (Q - 2) * d1)
    return mp.log(psi), (mp.log(abs(b)) if b else None)


def mp_power_radial(mp, e, spec, R, weighted):
    """Reference for `_radial` of the power family: the integral over s = 2r^2/R^2 - 1 in [0, 1] of
    [Phi^(-1/(q-1))] |(4z/R^2) Phi'' + (2Q/R^2) Phi'|^(q') r^(Q-1) dr/ds."""
    m, Q, q, R = spec.m, e.Q, mp.mpf(e.q), mp.mpf(R)
    qp = q / (q - 1)
    # r^(Q-2) R^2/4 with r = R sqrt(z), and Delta Phi = (R^2 Delta Phi) / R^2
    log_scale = (Q - 2) * mp.log(R) + 2 * mp.log(R) - mp.log(4) - 2 * qp * mp.log(R)
    weight = -m / (q - 1) if weighted else 0

    def integrand(s):
        pieces = _power_pieces(mp, s, m, Q, R)
        if pieces is None:
            return mp.zero
        log_lap, log_t, z = pieces
        return z ** (Q // 2 - 1) * mp.exp(qp * log_lap + log_scale + weight * log_t)

    # R^2 Delta Phi = u^(3m-2) P^(m-2) B(s), B = 16 z (m(m-1) T1^2 + m P T2) + 4 Q m u P T1
    P, T1, T2 = [1, 3, 6], [0, 0, -30], [0, -60, 120]
    B = [16 * (m * (m - 1) * a + m * b) / 2 for a, b in zip(_poly(T1, T1), _poly(P, T2) + [0])]
    B = [a + b for a, b in zip(_poly(B, [1, 1]), _poly([4 * Q * m], [1, -1], P, T1))]
    return mp.quad(integrand, [0, *_zeros_in_unit_interval(mp, tuple(mp.mpf(c) for c in B[1:])), 1])


def mp_log_radial(mp, e, spec, R, psi_power, inv_log_power):
    """Reference for `_radial` of the logarithmic family: the integral over z in [0, 1] of
    Psi^psi_power |b1 + L b2|^(q') L^(1-2q') r^(Q-2q'), or Psi^psi_power L^(1-inv q') r^(Q-2q')."""
    Q, k, q = e.Q, mp.mpf(spec.kappa), mp.mpf(e.q)
    qp, L = q / (q - 1), mp.log(mp.mpf(R)) / 2
    bracket = inv_log_power is None
    r_power, psi_power = (Q - 2 * qp) * L, mp.mpf(psi_power)
    const = (1 - (2 if bracket else mp.mpf(inv_log_power)) * qp) * mp.log(L) + (qp * mp.log(k) if bracket else 0)

    def integrand(z):  # b1 + L b2 = kappa Psi^(kappa-2) [(kappa-1) Psi'^2 + Psi (Psi'' + L(Q-2) Psi')]
        pieces = _log_pieces(mp, z, k, Q, L)
        if pieces is None or (bracket and pieces[1] is None):
            return mp.zero
        log_psi, log_b = pieces
        log_f = psi_power * log_psi + r_power * (1 + z) + const
        return mp.exp(log_f + qp * ((k - 2) * log_psi + log_b) if bracket else log_f)

    zeros = []
    if bracket:  # b1 + L b2 = kappa u^(3 kappa - 2) P^(kappa - 2) z Ct(z)
        c = 30 * L * (Q - 2)
        zeros = _zeros_in_unit_interval(mp, (-60, -(60 + c), -2 * c, 900 * k - 180 - 3 * c, 6 * c))
    return mp.quad(integrand, [0, *zeros, 1])


def test_radial_rule_matches_a_30_digit_oracle():
    mpmath = pytest.importorskip("mpmath")
    cases = []
    for n in (1, 2, 3):
        for q in (1.05, 1.2, 1.5, 2.0, 3.0):
            e = Exponents(q=q, n=n)
            for weighted in (True, False):
                cases.append((capacity._radial(e, e.power_spec(), 8.0, "weighted" if weighted else "data"),
                              lambda mp, e=e, w=weighted: mp_power_radial(mp, e, e.power_spec(), 8.0, w),
                              (n, q, weighted)))
        for kappa in (None, 50.0):
            e = Exponents(q=float(critical_exponent(n)), n=n, kappa=kappa)
            spec = e.log_spec()
            variants = [(-spec.kappa / (e.q - 1.0), None), (0.0, None),
                        (spec.kappa - 2.0 * e.q_prime, 2.0), (spec.kappa - e.q_prime, 1.0)]
            for R in (1.5, 1e4, 1e100):
                for name, (psi_power, inv) in zip(("weighted", "data", "term_sq", "term_lin"), variants):
                    cases.append((capacity._radial(e, spec, R, name),
                                  lambda mp, e=e, s=spec, R=R, p=psi_power, i=inv: mp_log_radial(mp, e, s, R, p, i),
                                  (n, spec.kappa, R, psi_power, inv)))
    with mpmath.workdps(30):
        for rule, oracle, case in cases:
            want = oracle(mpmath.mp)
            assert abs(rule.value - want) <= rule.abs_error <= 1e-12 * want, (case, rule, want)


@pytest.mark.parametrize("command", ["lemma2", "bound-parabolic"])
def test_critical_factors_at_kappa_1e10_match_the_oracle(command, capsys):
    # Psi^kappa underflowed at every node of the scalar integrands, and both commands exited 2;
    # evaluated in logs, the factors are finite
    mpmath = pytest.importorskip("mpmath")
    grid = (1.5, 10.0, 1e5, 1e300)
    argv = [command, "--kappa", "1e10", "--R", ",".join(map(repr, grid)), "--format", "json"]
    assert main(argv + (["--q", "2"] if command == "bound-parabolic" else [])) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    e = Exponents(q=2.0, kappa=1e10)
    spec = e.log_spec()
    variants = {"weighted": (-1e10, None), "data": (0.0, None), "term_sq": (1e10 - 4.0, 2.0),
                "term_lin": (1e10 - 2.0, 1.0)}
    names = ["weighted", "term_sq", "term_lin"] if command == "lemma2" else ["weighted", "data"]
    with mpmath.workdps(30):
        for R, row in zip(grid, rows):
            for name in names:
                rule = capacity._radial(e, spec, R, name)
                want = mp_log_radial(mpmath.mp, e, spec, R, *variants[name])
                assert abs(rule.value - want) <= rule.abs_error <= 1e-12 * want, (R, name)
            if command == "lemma2":
                assert row["value"] == spatial_integral(e, spec, R).value


def test_grid_integrals_are_the_single_radius_integrals():
    # a radial integral keeps its bits whichever grid computed it, so reports do not
    # depend on the grid a command swept or on what ran before it in the process
    for e, spec, radii in [(Exponents(q=2.0), Exponents(q=2.0).log_spec(), [1.5, 1e4, 1e300]),
                           (Exponents(q=1.4, n=2), Exponents(q=1.4, n=2).power_spec(), [1e-3, 8.0, 1e6])]:
        capacity._RADIAL_CACHE.clear()
        capacity.spatial_integral_grid(e, spec, radii)
        grid = dict(capacity._RADIAL_CACHE)
        assert len(grid) == len(radii) * len(capacity._variants(e, spec, radii[0])[-1])
        capacity._RADIAL_CACHE.clear()
        for R in reversed(radii):
            capacity.spatial_integral_grid(e, spec, [R])
        assert capacity._RADIAL_CACHE == grid
