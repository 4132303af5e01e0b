"""Acceptance suite: every quantitative contract at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from heislab.capacity import (
    Exponents,
    Verdict,
    capacity_bound,
    critical_exponent,
    log_envelope,
    mc_spatial_integral,
    scaling_fit,
    spatial_integral_critical,
    spatial_integral_subcritical,
    time_integral,
    time_integral_constant,
    time_power,
    verdict,
)
from heislab.cli import build_parser, build_runspec, dispatch
from heislab.cutoffs import CutoffSpec, GaugeBump, ProductTestFunction, TemporalFactor
from heislab.group import (
    GroupPoint,
    PolyField,
    RadialProfile,
    SmoothField,
    affine_pullback,
    compose,
    dilate,
    dilation_matrix,
    horizontal_derivative,
    horizontal_field,
    invariant_translation,
    point,
    random_polynomial,
    sublaplacian,
    sublaplacian_radial,
)
from heislab.mc import MCConfig
from heislab.report import emit
from heislab.simulate import (
    BumpSpec,
    GridConfig,
    SimConfig,
    assemble_sublaplacian,
    build_grid,
    run,
    solve_linear,
)
from heislab.weak_form import (
    CandidateSolution,
    WeakFormConfig,
    pair_defect,
    selfadjointness_residual,
    weak_residual,
)

from fractions import Fraction


def report_line(cid, ok, detail):
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {cid} failed: {detail}"


def rand_points(rng, n, m):
    return GroupPoint(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, (m, n)),
                      rng.uniform(-1, 1, m))


def test_criterion_1_time_integral_constants():
    t0 = time.perf_counter()
    worst = 0.0
    for q, ell in [(2.0, 4.0), (1.5, 6.0), (3.0, 3.0)]:
        e = Exponents(q=q, ell=ell)
        for T in (10.0, 100.0):
            for k in range(3):
                got = time_integral(e, T, k).value
                want = time_integral_constant(e, k) * T ** time_power(e, k)
                worst = max(worst, abs(got - want) / abs(want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    report_line(1, ok, f"max rel err {worst:.2e} (tol 1e-8), runtime {elapsed:.2f}s (<1s)")


def test_criterion_2_spatial_scaling_and_monte_carlo():
    t0 = time.perf_counter()
    slope_errs = []
    for q in (1.5, 2.0):
        e = Exponents(q=q, n=1)
        spec = e.power_spec()
        samples = [(R, spatial_integral_subcritical(e, spec, R).value)
                   for R in (8.0, 16.0, 32.0, 64.0)]
        fit = scaling_fit(samples, "log R")
        slope_errs.append(abs(fit.slope - (e.Q - 2 * e.q_prime)))
    e = Exponents(q=1.5, n=1)
    spec = e.power_spec()
    det = spatial_integral_subcritical(e, spec, 8.0)
    mc = mc_spatial_integral(e, spec, 8.0, MCConfig(samples=1_000_000, seed=7))
    gap = abs(det.value - mc.value)
    sigma3 = 3 * math.hypot(det.abs_error, mc.stderr)
    elapsed = time.perf_counter() - t0
    ok = max(slope_errs) <= 1e-4 and gap <= sigma3 and elapsed < 30.0
    report_line(2, ok, f"slope errs {slope_errs[0]:.1e}/{slope_errs[1]:.1e} (tol 1e-4), "
                       f"MC gap {gap:.3e} vs 3sig {sigma3:.3e}, runtime {elapsed:.1f}s (<30s)")


def test_criterion_3_critical_log_bound():
    t0 = time.perf_counter()
    e = Exponents(q=2.0, n=1)
    spec = e.log_spec()  # default kappa
    quots = []
    for R in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9):
        fac = spatial_integral_critical(e, spec, R)
        quots.append(fac.total.value / log_envelope(e.Q, R))
    spread = max(quots) / min(quots)
    elapsed = time.perf_counter() - t0
    ok = spread <= 10.0 and elapsed < 30.0
    report_line(3, ok, f"quotient spread {spread:.3f} (tol 10), sup constant "
                       f"{max(quots):.1f}, runtime {elapsed:.1f}s (<30s)")


def test_criterion_4_group_calculus_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    p1 = rand_points(rng, 1, 100)
    p2 = rand_points(rng, 2, 100)
    errs = {}
    worst = 0.0
    for _ in range(5):
        f = random_polynomial(1, rng)
        xy = horizontal_derivative(horizontal_field(f, 1, "Y"), 1, "X", p1)
        yx = horizontal_derivative(horizontal_field(f, 1, "X"), 1, "Y", p1)
        worst = max(worst, float(np.max(np.abs(xy - yx + 4.0 * f.d1(p1, 2)))))
    errs["commutator"] = worst
    worst = 0.0
    for _ in range(5):
        f = random_polynomial(2, rng)
        xy = horizontal_derivative(horizontal_field(f, 2, "Y"), 1, "X", p2)
        yx = horizontal_derivative(horizontal_field(f, 1, "X"), 2, "Y", p2)
        worst = max(worst, float(np.max(np.abs(xy - yx))))
    errs["cross_bracket"] = worst
    li, dh = 0.0, 0.0
    for _ in range(5):
        f = random_polynomial(1, rng)
        a = point(*rng.uniform(-1, 1, 3))
        A, b = invariant_translation(a)
        g = affine_pullback(f, A, b)
        li = max(li, float(np.max(np.abs(sublaplacian(g, p1) - sublaplacian(f, compose(p1, a))))))
        lam = float(rng.uniform(0.5, 2.0))
        gd = affine_pullback(f, dilation_matrix(lam, 1), np.zeros(3))
        dh = max(dh, float(np.max(np.abs(
            sublaplacian(gd, p1) - lam**2 * sublaplacian(f, dilate(lam, p1))))))
    errs["translation_invariance"] = li
    errs["dilation_homogeneity"] = dh
    r4 = PolyField({(4, 0, 0): 1.0, (2, 2, 0): 2.0, (0, 4, 0): 1.0, (0, 0, 2): 1.0}, 1)
    c0, c1, c2 = rng.uniform(-1, 1, 3)
    f = (r4 * r4).scaled(c2) + r4.scaled(c1) + PolyField({(0, 0, 0): c0}, 1)
    prof = RadialProfile(
        lambda r: c0 + c1 * r**4 + c2 * r**8,
        lambda r: 4 * c1 * r**3 + 8 * c2 * r**7,
        lambda r: 12 * c1 * r**2 + 56 * c2 * r**6,
    )
    errs["radial"] = float(np.max(np.abs(sublaplacian(f, p1) - sublaplacian_radial(prof, p1))))
    elapsed = time.perf_counter() - t0
    ok = max(errs.values()) <= 1e-8 and elapsed < 5.0
    detail = ", ".join(f"{k} {v:.1e}" for k, v in errs.items())
    report_line(4, ok, f"{detail} (tol 1e-8), runtime {elapsed:.2f}s (<5s)")


def test_criterion_5_selfadjointness():
    t0 = time.perf_counter()
    box = np.array([[-3.0, 3.0], [-3.0, 3.0], [-9.0, 9.0]])
    worst_ratio = 0.0
    pairs = [((0.3, 0.2, 0.4), (-0.3, 0.2, -0.4)),
             ((0.0, 0.4, -0.2), (0.2, -0.4, 0.0)),
             ((-0.4, 0.0, 0.3), (0.4, 0.1, 0.5))]
    for k, (c1, c2) in enumerate(pairs):
        f = GaugeBump(point(*c1), radius=1.4).field
        g = GaugeBump(point(*c2), radius=1.6).field
        rep = selfadjointness_residual(f, g, box, WeakFormConfig(samples=100_000, seed=20 + k))
        worst_ratio = max(worst_ratio, abs(rep.residual) / max(rep.error, 1e-300))
    grid = build_grid(GridConfig(3.0, 3.0, 9.0, 13, 13, 13))
    op = assemble_sublaplacian(grid)
    asym = abs(op.matrix - op.matrix.T)
    sym_exact = (asym.nnz == 0) or (asym.max() == 0.0)
    rng = np.random.default_rng(2)
    rayleigh_pd = all(
        (v := rng.normal(size=op.dimension)) @ (-(op.matrix @ v)) > 0 for _ in range(100)
    )
    elapsed = time.perf_counter() - t0
    ok = worst_ratio <= 5.0 and sym_exact and rayleigh_pd
    report_line(5, ok, f"worst residual/error {worst_ratio:.2f} (tol 5), symmetry exact "
                       f"{sym_exact}, -L_h PD on 100 Rayleigh tests {rayleigh_pd}, "
                       f"runtime {elapsed:.1f}s")


def test_criterion_6_capacity_bound_decay_and_verdicts():
    t0 = time.perf_counter()
    e = Exponents(q=1.5, n=1)
    ok = True
    details = []
    for name, builder in [
        ("parabolic", lambda R: capacity_bound(e, 10.0, R, 1, 0.0)),
        ("hyperbolic", lambda R: capacity_bound(e, 10.0, R, 2, 0.0, 0.0)),
    ]:
        bounds = [builder(R).bound for R in (8.0, 16.0, 32.0, 64.0)]
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        good = all(abs(r - 0.25) <= 0.01 * 0.25 for r in ratios)
        ok = ok and good
        details.append(f"{name} doubling {ratios[0]:.4f}")
    ec = Exponents(q=2.0, n=1)
    for name, builder in [
        ("critical parabolic", lambda R: capacity_bound(ec, 10.0, R, 1, 0.0)),
        ("critical hyperbolic", lambda R: capacity_bound(ec, 10.0, R, 2, 0.0, 0.0)),
    ]:
        quots = [builder(R).bound / log_envelope(ec.Q, R) for R in (1e3, 1e5, 1e7, 1e9)]
        spread = max(quots) / min(quots)
        ok = ok and spread <= 10.0
        details.append(f"{name} spread {spread:.2f}")
    want = {1: Fraction(2), 2: Fraction(3, 2), 3: Fraction(4, 3)}
    verdict_ok = all(critical_exponent(n) == want[n] for n in (1, 2, 3))
    verdict_ok = verdict_ok and verdict(1, Fraction(3, 2)) is Verdict.SUBCRITICAL_BLOWUP
    verdict_ok = verdict_ok and verdict(2, Fraction(3, 2)) is Verdict.CRITICAL_BLOWUP
    verdict_ok = verdict_ok and verdict(3, Fraction(3, 2)) is Verdict.SUPERCRITICAL_NO_CONCLUSION
    ok = ok and verdict_ok
    details.append(f"verdict table exact {verdict_ok}")
    elapsed = time.perf_counter() - t0
    report_line(6, ok, ", ".join(details) + f", runtime {elapsed:.1f}s")


def test_criterion_6_higher_dimensions():
    # the capacity paths for n = 2 and 3: subcritical zero-data bounds decay by
    # 2^(Q-2q') per doubling of R, and the critical factor stays inside its
    # logarithmic envelope
    t0 = time.perf_counter()
    ok = True
    details = []
    for n, q, power in [(2, 1.2, -6), (3, 1.1, -14)]:
        e = Exponents(q=q, n=n)
        for name, builder in [
            ("parabolic", lambda R: capacity_bound(e, 10.0, R, 1, 0.0)),
            ("hyperbolic", lambda R: capacity_bound(e, 10.0, R, 2, 0.0, 0.0)),
        ]:
            bounds = [(R, builder(R).bound) for R in (8.0, 16.0, 32.0, 64.0)]
            ratios = [b / a for (_, a), (_, b) in zip(bounds, bounds[1:])]
            slope = scaling_fit(bounds, "log R").slope
            good = all(abs(r - 2.0**power) <= 0.01 * 2.0**power for r in ratios)
            ok = ok and good and abs(slope - power) <= 1e-4
            details.append(f"n={n} {name} doubling {ratios[0]:.4e} slope {slope:.6f}")
    for n in (2, 3):
        e = Exponents(q=float(critical_exponent(n)), n=n)
        spec = e.log_spec()
        quots = [spatial_integral_critical(e, spec, R).total.value / log_envelope(e.Q, R)
                 for R in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9)]
        spread = max(quots) / min(quots)
        ok = ok and spread <= 10.0
        details.append(f"n={n} critical spread {spread:.2f}")
    elapsed = time.perf_counter() - t0
    report_line(6, ok, ", ".join(details) + f", runtime {elapsed:.1f}s")


def test_criterion_7_weak_formulation_residuals():
    t0 = time.perf_counter()
    e = Exponents(q=2.0)
    testfn = ProductTestFunction(TemporalFactor(2.0, e.ell), e.power_spec(), 3.0)
    zf = SmoothField(lambda p: np.zeros(np.shape(p.tau)))
    zero = CandidateSolution(terms=(), u0=zf, u1=zf, q=2.0)
    cfg = WeakFormConfig(samples=150_000, seed=3)
    ocfg = WeakFormConfig(samples=300_000, seed=4)
    zp = weak_residual(zero, testfn, cfg, 1)
    zh = weak_residual(zero, testfn, cfg, 2)
    zeros_exact = zp.residual == 0.0 and zh.residual == 0.0

    bump = GaugeBump(center=point(0.2, -0.1, 0.05), radius=2.3)
    a = lambda t: np.exp(-0.5 * t)
    cand = CandidateSolution(
        terms=((a, bump.value),),
        u0=SmoothField(lambda p: bump.value(p)),
        u1=SmoothField(lambda p: -0.5 * bump.value(p)), q=2.0)
    power = (lambda t: np.abs(a(t)) ** 2, lambda p: np.abs(bump.value(p)) ** 2)
    gaps = []
    # strong-form defects (a' + a) Delta b + |a b|^2 and (a'' + a) Delta b + |a b|^2
    for order, defect in [
        (1, ((lambda t: -0.5 * a(t) + a(t), bump.lap), power)),
        (2, ((lambda t: 0.25 * a(t) + a(t), bump.lap), power)),
    ]:
        rep = weak_residual(cand, testfn, cfg, order)
        oracle = pair_defect(defect, testfn, ocfg)
        gap = abs(rep.residual - oracle.value)
        sigma3 = 3 * math.hypot(rep.error, oracle.stderr)
        gaps.append((gap, sigma3))
    elapsed = time.perf_counter() - t0
    ok = zeros_exact and all(g <= s for g, s in gaps)
    report_line(7, ok, f"zero residuals exact {zeros_exact}, manufactured gaps "
                       + ", ".join(f"{g:.3f}<= {s:.3f}" for g, s in gaps)
                       + f", runtime {elapsed:.1f}s")


def test_criterion_8_simulator_linear_modes():
    t0 = time.perf_counter()
    grid = GridConfig(3.0, 3.0, 9.0, 17, 17, 17)
    cfg = SimConfig("parabolic", q=1.5, nonlinearity=False, dt=1e-3, steps=1000,
                    grid=grid, initial=BumpSpec((0, 0, 0), 1.0, 1.0))
    tr = run(cfg)
    ratio = tr.rows[-1].max_norm / tr.rows[0].max_norm
    parabolic_err = abs(ratio - math.exp(-1))

    steps = 1571
    cfg = SimConfig("hyperbolic", q=1.5, nonlinearity=False, dt=float(np.pi / steps),
                    steps=steps, grid=grid, initial=BumpSpec((0, 0, 0), 1.0, 1.0))
    tr = run(cfg)
    hyperbolic_err = abs(tr.rows[-1].max_norm / tr.rows[0].max_norm - 1.0)

    g = build_grid(grid)
    op = assemble_sublaplacian(g)
    rng = np.random.default_rng(1)
    w = rng.normal(size=op.dimension)
    x, _ = solve_linear(op, op.matrix @ w, tol=1e-12, max_iter=10 * op.dimension)
    solve_err = float(np.max(np.abs(x - w)))
    elapsed = time.perf_counter() - t0
    ok = parabolic_err <= 1e-3 and hyperbolic_err <= 1e-2 and solve_err <= 1e-8 and elapsed < 60
    report_line(8, ok, f"parabolic |ratio - 1/e| {parabolic_err:.2e} (tol 1e-3), hyperbolic "
                       f"amplitude err {hyperbolic_err:.2e} (tol 1e-2), manufactured solve "
                       f"err {solve_err:.2e} (tol 1e-8), runtime {elapsed:.1f}s (<60s)")


def test_criterion_9_deterministic_reports(monkeypatch, tmp_path):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    t0 = time.perf_counter()

    def run_bytes(argv):
        spec = build_runspec(build_parser().parse_args(argv))
        return emit(dispatch(spec), spec.fmt).encode()

    cfg = {
        "equation": "hyperbolic", "q": 1.5, "nonlinearity": True,
        "dt": 0.01, "steps": 30, "blowup_threshold": 1e6,
        "grid": {"l_x": 3.0, "l_y": 3.0, "l_tau": 9.0, "n_x": 9, "n_y": 9, "n_tau": 9},
        "initial": {"center": [0.2, 0.0, 0.0], "width": 1.0, "amplitude": 2.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    runs = [
        ["lemma1", "--q", "2", "--ell", "4", "--T", "10", "--format", "json"],
        ["scaling", "--target", "I4", "--q", "1.5", "--R", "8,16,32,64", "--format", "json"],
        ["residual", "--q", "2", "--seed", "11", "--samples", "20000", "--format", "json"],
        ["simulate", "--config", str(path), "--format", "json"],
        ["identities", "--seed", "7", "--samples", "30000", "--format", "csv"],
    ]
    all_same = all(run_bytes(argv) == run_bytes(argv) for argv in runs)
    elapsed = time.perf_counter() - t0
    report_line(9, all_same, f"{len(runs)} seeded subcommand runs byte-identical, "
                             f"runtime {elapsed:.1f}s")
