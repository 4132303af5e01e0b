import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab.capacity import (
    CriticalSpatialFactor,
    Exponents,
    Verdict,
    capacity_bound,
    critical_exponent,
    data_term_integral_subcritical,
    log_envelope,
    mc_spatial_integral,
    scaling_fit,
    spatial_integral_critical,
    spatial_integral_subcritical,
    sphere_weight_constant,
    time_integral,
    time_integral_constant,
    time_power,
    verdict,
    young_constant,
)
from heislab.cutoffs import CutoffSpec, ProductTestFunction, TemporalFactor, phi_spatial
from heislab.errors import ParameterError
from heislab.group import GroupPoint
from heislab.mc import MCConfig, mc_integrate


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

    est = mc_integrate(integrand, [[-1.0, 1.0]] * (2 * n + 1), cfg)
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


@pytest.mark.parametrize("q,ell", [(2.0, 4.0), (1.5, 6.0), (3.0, 3.0)])
@pytest.mark.parametrize("T", [10.0, 100.0])
def test_time_integral_matches_closed_form(q, ell, T):
    e = Exponents(q=q, ell=ell)
    for k in range(3):
        est = time_integral(e, T, k)
        closed = time_integral_constant(e, k) * T ** time_power(e, k)
        assert abs(est.value - closed) / abs(closed) <= 1e-8
        assert est.abs_error < abs(closed)
        assert est.nodes > 0


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
    a = spatial_integral_subcritical(e, spec, 10.0)
    b = spatial_integral_subcritical(e, spec, 20.0)
    assert b.value / a.value == pytest.approx(ratio, rel=1e-6)


def test_spatial_integral_dilation_exactness():
    e = Exponents(q=1.5, n=1)
    spec = e.power_spec()
    power = e.Q - 2 * e.q_prime
    vals = [spatial_integral_subcritical(e, spec, R).value * R**-power
            for R in (8.0, 16.0, 32.0, 64.0)]
    assert max(vals) / min(vals) - 1 < 1e-6


def test_mc_agrees_with_factorized():
    for q, R, seed in [(1.5, 8.0, 7), (2.0, 6.0, 8), (1.5, 12.0, 9)]:
        e = Exponents(q=q, n=1)
        spec = e.power_spec()
        det = spatial_integral_subcritical(e, spec, R)
        mc = mc_spatial_integral(e, spec, R, MCConfig(samples=400_000, seed=seed))
        gap = abs(det.value - mc.value)
        assert gap <= 3 * math.hypot(det.abs_error, mc.stderr)


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
    v, lap = phi_spatial(spec, R, pts)
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


def test_critical_support_vanishes_inside_sqrt_R():
    e = Exponents(q=2.0, n=1)
    from heislab.cutoffs import psi_spatial
    spec = e.log_spec()
    R = 1e4
    pts = GroupPoint(np.array([[5.0], [20.0]]), np.array([[5.0], [0.0]]),
                     np.array([10.0, -30.0]))  # gauge norms below sqrt(R) = 100
    v, lap = psi_spatial(spec, R, pts)
    assert np.all(v == 1.0) and np.all(lap == 0.0)


def test_critical_requires_critical_exponent():
    e = Exponents(q=1.5, n=1)
    with pytest.raises(ParameterError):
        spatial_integral_critical(e, CutoffSpec.logarithmic(7.0), 1e4)


def test_scaling_fit_exact_power_laws():
    e = Exponents(q=2.0, ell=4.0)
    for k, slope in [(1, -1.0), (2, -3.0)]:
        samples = [(T, time_integral(e, T, k).value) for T in (10.0, 20.0, 40.0, 80.0)]
        fit = scaling_fit(samples, "log T")
        assert abs(fit.slope - slope) < 1e-6
        assert fit.max_rel_residual < 1e-6
    e = Exponents(q=1.5, n=1)
    spec = e.power_spec()
    samples = [(R, spatial_integral_subcritical(e, spec, R).value)
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


def test_parabolic_bound_data_term():
    e = Exponents(q=1.5, n=1)
    r0 = capacity_bound(e, 10.0, 8.0, 1, 0.0)
    r1 = capacity_bound(e, 10.0, 8.0, 1, 2.0)
    data = data_term_integral_subcritical(e, e.power_spec(), 8.0)
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
    assert rep.params["t_factor_grouped"] == pytest.approx(10.0 ** (1 - 2 * 3.0) + 10 + 1 + 0.1)


def test_critical_bounds_stay_inside_log_envelope():
    e = Exponents(q=2.0, n=1)
    for builder in (
        lambda R: capacity_bound(e, 10.0, R, 1, 0.0),
        lambda R: capacity_bound(e, 10.0, R, 2, 0.0, 0.0),
    ):
        quots = [builder(R).bound / log_envelope(e.Q, R) for R in (1e3, 1e5, 1e7, 1e9)]
        assert max(quots) / min(quots) <= 10.0
    rep = capacity_bound(e, 10.0, 1e5, 2, 0.0, 0.0)
    assert rep.params["t_factor_grouped"] == pytest.approx(10.0 ** (1 - 4) + 10 + 1 + 0.1)


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
