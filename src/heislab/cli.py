"""Command-line entry point.

Subcommands: lemma1 (time-integral constants), lemma2 (critical
logarithmic spatial factor), scaling (power-law fits), bound-parabolic,
bound-hyperbolic (a-priori capacity bounds), verdict (criticality
classification), residual (weak-formulation checks), simulate
(finite-difference runs from a JSON config), identities (group-calculus
identity battery).  Reports are CSV or JSON; identical seeded runs emit
byte-identical reports.

Exit codes: 0 for completed runs (a simulation that hits its blow-up
threshold is a result, not an error), 2 for parameter errors, 3 for
solver failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from .capacity import (
    Exponents,
    capacity_bound,
    critical_exponent,
    log_envelope,
    scaling_fit,
    spatial_integral_critical,
    spatial_integral_subcritical,
    time_integral,
    time_integral_constant,
    time_power,
    verdict,
)
from .cutoffs import GaugeBump, ProductTestFunction, TemporalFactor
from .errors import OperatorError, ParameterError, SolverFailure
from .group import (
    GroupPoint,
    PolyField,
    RadialProfile,
    affine_pullback,
    compose,
    dilate,
    dilation_matrix,
    gauge_norm,
    horizontal_derivative,
    horizontal_field,
    inverse,
    invariant_translation,
    random_polynomial,
    sublaplacian,
    sublaplacian_radial,
    SmoothField,
)
from .report import Report, emit, report_timestamp, write_output
from .simulate import SimConfig, run
from .weak_form import (
    CandidateSolution,
    WeakFormConfig,
    pair_defect,
    selfadjointness_residual,
    weak_residual,
)

DEFAULT_R_CRITICAL = "1e3,1e4,1e5,1e6,1e7,1e8,1e9"


@dataclass(frozen=True)
class RunSpec:
    subcommand: str
    params: dict
    fmt: str
    out: str | None
    seed: int


def parse_rational(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"cannot parse {text!r} as a rational number") from exc
    if abs(value) > sys.float_info.max:
        raise ParameterError(f"{text!r} is out of floating-point range")
    return value


def parse_grid(text: str) -> list:
    try:
        grid = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ParameterError(f"cannot parse grid {text!r}") from exc
    if not grid or not all(map(math.isfinite, grid)):
        raise ParameterError(f"grid {text!r} must list one or more finite numbers")
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heislab",
        description="Numerical laboratory for capacity estimates on the Heisenberg group.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, with_exponents=True):
        if with_exponents:
            sp.add_argument("--q", type=str, default="2")
            sp.add_argument("--n", type=int, default=1)
            sp.add_argument("--ell", type=float, default=None)
            sp.add_argument("--kappa", type=float, default=None)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("lemma1", help="time-integral quadrature vs closed forms")
    add_common(sp)
    sp.add_argument("--T", type=str, default="10")

    sp = sub.add_parser("lemma2", help="critical logarithmic spatial factor vs its envelope")
    add_common(sp)
    sp.add_argument("--R", type=str, default=DEFAULT_R_CRITICAL)
    sp.set_defaults(q=None)  # default: the critical exponent for the given n

    sp = sub.add_parser("scaling", help="log-log slope fits of the capacity integrals")
    add_common(sp)
    sp.add_argument("--target", choices=("I1", "I2", "I3", "I4"), required=True)
    sp.add_argument("--T", type=str, default="10,20,40,80")
    sp.add_argument("--R", type=str, default="8,16,32,64")

    sp = sub.add_parser("bound-parabolic", help="a-priori bound decay for the first-order equation")
    add_common(sp)
    sp.add_argument("--T", type=str, default="10")
    sp.add_argument("--R", type=str, default="8,16,32,64")
    sp.add_argument("--u0-norm", type=float, default=0.0)

    sp = sub.add_parser("bound-hyperbolic", help="a-priori bound decay for the second-order equation")
    add_common(sp)
    sp.add_argument("--T", type=str, default="10")
    sp.add_argument("--R", type=str, default="8,16,32,64")
    sp.add_argument("--u0-norm", type=float, default=0.0)
    sp.add_argument("--u1-norm", type=float, default=0.0)

    sp = sub.add_parser("verdict", help="classify q against the critical exponent")
    add_common(sp)

    sp = sub.add_parser("residual", help="weak-formulation residual checks")
    add_common(sp)
    sp.add_argument("--T", type=str, default="2")
    sp.add_argument("--R", type=str, default="3")

    sp = sub.add_parser("simulate", help="finite-difference run from a JSON config")
    add_common(sp, with_exponents=False)
    sp.add_argument("--config", type=str, required=True)

    sp = sub.add_parser("identities", help="group-calculus identity battery")
    add_common(sp)
    return parser


def build_runspec(args: argparse.Namespace) -> RunSpec:
    params = {k: v for k, v in vars(args).items() if k not in ("subcommand", "format", "out", "seed")}
    return RunSpec(args.subcommand, params, args.format, args.out, args.seed)


def _meta(spec: RunSpec) -> dict:
    return {
        "version": __version__,
        "subcommand": spec.subcommand,
        "seed": spec.seed,
        "timestamp": report_timestamp(),
        "params": {k: v for k, v in sorted(spec.params.items())},
    }


def _exponents(spec: RunSpec, q_value=None) -> Exponents:
    q = float(q_value if q_value is not None else parse_rational(spec.params["q"]))
    return Exponents(q=q, n=spec.params.get("n", 1),
                     ell=spec.params.get("ell"), kappa=spec.params.get("kappa"))


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_lemma1(spec: RunSpec) -> Report:
    e = _exponents(spec)
    labels = ("C1*T", "C2*T^(1-q')", "C3*T^(1-2q')")
    rows = []
    worst = 0.0
    for T in parse_grid(spec.params["T"]):
        for k in range(3):
            est = time_integral(e, T, k)
            closed = time_integral_constant(e, k) * T ** time_power(e, k)
            rel = abs(est.value - closed) / abs(closed)
            worst = max(worst, rel)
            rows.append({
                "integral": f"I{k + 1}",
                "name": labels[k],
                "T": T,
                "value": est.value,
                "closed_form": closed,
                "rel_err": rel,
            })
    summary = {
        "max_rel_err": worst,
        "C1": time_integral_constant(e, 0),
        "C2": time_integral_constant(e, 1),
        "C3": time_integral_constant(e, 2),
    }
    return Report(_meta(spec), ["integral", "name", "T", "value", "closed_form", "rel_err"], rows, summary)


def cmd_lemma2(spec: RunSpec) -> Report:
    n = spec.params.get("n", 1)
    qc = critical_exponent(n)
    q_in = qc if spec.params.get("q") is None else parse_rational(spec.params["q"])
    if q_in != qc:
        raise ParameterError(f"lemma2 requires the critical exponent q = {qc}")
    e = _exponents(spec, q_value=qc)
    spec_log = e.log_spec()
    rows = []
    quotients = []
    values = []
    Rs = parse_grid(spec.params["R"])
    for R in Rs:
        fac = spatial_integral_critical(e, spec_log, R)
        env = log_envelope(e.Q, R)
        quot = fac.total.value / env
        quotients.append(quot)
        values.append((R, fac.total.value))
        rows.append({
            "R": R,
            "value": fac.total.value,
            "abs_error": fac.total.abs_error,
            "term_sq": fac.term_sq.value,
            "term_lin": fac.term_lin.value,
            "envelope": env,
            "quotient": quot,
        })
    summary = {
        "quotient_max": max(quotients),
        "quotient_min": min(quotients),
        "quotient_spread": max(quotients) / min(quotients),
        "bounded_within_10": max(quotients) / min(quotients) <= 10.0,
        "sup_constant": max(quotients),
    }
    if len(values) >= 4:
        fit = scaling_fit(values, "log log R")
        summary["loglog_slope"] = fit.slope
        summary["loglog_max_rel_residual"] = fit.max_rel_residual
    cols = ["R", "value", "abs_error", "term_sq", "term_lin", "envelope", "quotient"]
    return Report(_meta(spec), cols, rows, summary)


def cmd_scaling(spec: RunSpec) -> Report:
    e = _exponents(spec)
    target = spec.params["target"]
    rows = []
    if target in ("I1", "I2", "I3"):
        k = {"I1": 0, "I2": 1, "I3": 2}[target]
        grid = parse_grid(spec.params["T"])
        samples = [(T, time_integral(e, T, k).value) for T in grid]
        expected = time_power(e, k)
        kind = "log T"
    else:
        grid = parse_grid(spec.params["R"])
        cut = e.power_spec()
        samples = [(R, spatial_integral_subcritical(e, cut, R).value) for R in grid]
        expected = e.Q - 2.0 * e.q_prime
        kind = "log R"
    fit = scaling_fit(samples, kind)
    for (x, v) in samples:
        fitted = float(np.exp(fit.intercept + fit.slope * np.log(x)))
        rows.append({"abscissa": x, "value": v, "fitted": fitted,
                     "rel_residual": abs(fitted / v - 1.0)})
    summary = {
        "target": target,
        "kind": kind,
        "slope": fit.slope,
        "intercept": fit.intercept,
        "expected_slope": expected,
        "slope_error": abs(fit.slope - expected),
        "max_rel_residual": fit.max_rel_residual,
    }
    return Report(_meta(spec), ["abscissa", "value", "fitted", "rel_residual"], rows, summary)


def cmd_bound(spec: RunSpec, order: int) -> Report:
    """bound-parabolic (order 1) and bound-hyperbolic (order 2) over the R grid."""
    e = _exponents(spec)
    T = parse_grid(spec.params["T"])[0]
    u0 = spec.params.get("u0_norm", 0.0)
    u1 = spec.params.get("u1_norm", 0.0)
    rows = []
    bounds = []
    for R in parse_grid(spec.params["R"]):
        rep = capacity_bound(e, T, R, order, u0, u1)
        row = {"R": R, "bound": rep.bound}
        row.update(rep.breakdown)
        # a previous bound of 0 (underflow) raises ZeroDivisionError: both exit 2
        row["ratio_to_prev"] = rep.bound / bounds[-1][1] if bounds else float("nan")
        if bounds and not math.isfinite(row["ratio_to_prev"]):
            raise OverflowError("ratio of consecutive bounds beyond floating-point range")
        bounds.append((R, rep.bound))
        rows.append(row)
    summary = {
        "T": T,
        "critical": e.is_critical(),
        "expected_doubling_ratio": 2.0 ** (e.Q - 2.0 * e.q_prime),
    }
    if e.is_critical():
        quots = [b / log_envelope(e.Q, R) for R, b in bounds]
        summary["envelope_quotient_spread"] = max(quots) / min(quots)
    elif len(bounds) >= 4 and all(b > 0 for _, b in bounds):
        fit = scaling_fit(bounds, "log R")
        summary["slope"] = fit.slope
        summary["expected_slope"] = e.Q - 2.0 * e.q_prime
    return Report(_meta(spec), list(rows[0].keys()), rows, summary)


def cmd_verdict(spec: RunSpec) -> Report:
    n = spec.params.get("n", 1)
    qf = parse_rational(spec.params["q"])
    v = verdict(n, qf)
    qc = critical_exponent(n)
    rows = [{
        "n": n,
        "q": str(qf),
        "q_c": str(qc),
        "verdict": v.value,
        "note": v.note,
    }]
    summary = {"verdict": f"{v.value}, q_c = {qc}"}
    return Report(_meta(spec), ["n", "q", "q_c", "verdict", "note"], rows, summary)


def _manufactured_candidate(q: float, R: float, order: int):
    """Separable candidate a(t) * bump(eta) and its strong-form defect, both
    as terms ((time factor, spatial factor), ...).

    The bump overlaps the cutoff transition so the Delta-phi terms of the
    weak identity are genuinely exercised.
    """
    center = GroupPoint(np.array([0.2]), np.array([-0.1]), 0.05)
    bump = GaugeBump(center=center, radius=0.75 * R)

    def a(t):
        return np.exp(-0.5 * t)

    ratio = 0.25 if order == 2 else -0.5  # a^(order) / a: a'' = a / 4, a' = -a / 2
    u0 = SmoothField(lambda p: a(0.0) * bump.value(p))
    u1 = SmoothField(lambda p: -0.5 * a(0.0) * bump.value(p))
    defect = ((lambda t: ratio * a(t) + a(t), bump.lap),
              (lambda t: np.abs(a(t)) ** q, lambda p: np.abs(bump.value(p)) ** q))
    cand = CandidateSolution(terms=((a, bump.value),), u0=u0,
                             u1=u1 if order == 2 else None, q=q)
    return cand, defect


def cmd_residual(spec: RunSpec) -> Report:
    if spec.params.get("n", 1) != 1:
        raise ParameterError("residual is implemented for n = 1 only")
    e = _exponents(spec)
    T = parse_grid(spec.params["T"])[0]
    R = parse_grid(spec.params["R"])[0]
    samples = spec.params.get("samples")
    samples = 200_000 if samples is None else samples  # --samples 0 is an error, not the default
    cfg = WeakFormConfig(samples=samples, seed=spec.seed)
    oracle_cfg = WeakFormConfig(samples=2 * samples, seed=spec.seed + 1)
    testfn = ProductTestFunction(TemporalFactor(T, e.ell), e.power_spec(), R)
    zero_field = SmoothField(lambda p: np.zeros(p.tau.shape))
    rows = []

    def add_row(case, rep, oracle=None):
        row = {"case": case, "lhs": rep.lhs, "rhs": rep.rhs,
               "residual": rep.residual, "stderr": rep.error}
        if oracle is None:
            row.update({"oracle": 0.0, "oracle_stderr": 0.0,
                        "gap": abs(rep.residual), "within_3sigma": abs(rep.residual) <= 3 * max(rep.error, 1e-300)})
        else:
            gap = abs(rep.residual - oracle.value)
            three = 3.0 * float(np.hypot(rep.error, oracle.stderr))
            row.update({"oracle": oracle.value, "oracle_stderr": oracle.stderr,
                        "gap": gap, "within_3sigma": gap <= three})
        rows.append(row)

    zero = CandidateSolution(terms=(), u0=zero_field, u1=zero_field, q=e.q)
    add_row("zero_parabolic", weak_residual(zero, testfn, cfg, 1))
    add_row("zero_hyperbolic", weak_residual(zero, testfn, cfg, 2))
    for order, case in ((1, "manufactured_parabolic"), (2, "manufactured_hyperbolic")):
        cand, defect = _manufactured_candidate(e.q, R, order)
        rep = weak_residual(cand, testfn, cfg, order)
        add_row(case, rep, pair_defect(defect, testfn, oracle_cfg))

    cols = ["case", "lhs", "rhs", "residual", "stderr", "oracle", "oracle_stderr", "gap", "within_3sigma"]
    summary = {"all_within_3sigma": all(r["within_3sigma"] for r in rows)}
    return Report(_meta(spec), cols, rows, summary)


def cmd_simulate(spec: RunSpec) -> Report:
    try:
        with open(spec.params["config"], encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON or not UTF-8
        raise ParameterError(f"cannot read config: {exc}") from exc
    trace = run(SimConfig.from_dict(data))
    rows = [
        {"step": i, "time": r.time, "max_norm": r.max_norm,
         "lq_norm": r.lq_norm, "iterations": r.iterations}
        for i, r in enumerate(trace.rows)
    ]
    summary = {
        "status": trace.status,
        "status_step": trace.status_step if trace.status_step is not None else -1,
        "final_max_norm": trace.rows[-1].max_norm,
        "final_lq_norm": trace.rows[-1].lq_norm,
        "note": "illustrative discrete dynamics; no reference values exist",
    }
    return Report(_meta(spec), ["step", "time", "max_norm", "lq_norm", "iterations"], rows, summary)


def _identity_rows(seed: int, samples: int) -> list:
    rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 1], dtype=np.uint64)))
    rows = []

    def add(name, measured, threshold):
        rows.append({"identity": name, "measured": float(measured),
                     "threshold": threshold, "status": "pass" if measured <= threshold else "fail"})

    def rand_points(n, m):
        return GroupPoint(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, (m, n)),
                          rng.uniform(-1, 1, m))

    # group axioms on random triples (n = 2)
    a, b, c = (rand_points(2, 100) for _ in range(3))
    assoc = np.max(np.abs(compose(compose(a, b), c).flat() - compose(a, compose(b, c)).flat()))
    add("associativity", assoc, 1e-12)
    ident = np.max(np.abs(compose(a, inverse(a)).flat()))
    add("inverse_law", ident, 1e-12)
    lam = 1.0 + float(rng.random())
    hom = np.max(np.abs(gauge_norm(dilate(lam, a)) - lam * gauge_norm(a)))
    add("norm_homogeneity", hom, 1e-12)

    # commutators on random polynomials (analytic oracles)
    p1 = rand_points(1, 100)
    worst_ii, worst_ij = 0.0, 0.0
    for _ in range(5):
        f = random_polynomial(1, rng)
        xy = horizontal_derivative(horizontal_field(f, 1, "Y"), 1, "X", p1)
        yx = horizontal_derivative(horizontal_field(f, 1, "X"), 1, "Y", p1)
        worst_ii = max(worst_ii, float(np.max(np.abs(xy - yx + 4.0 * f.d1(p1, 2)))))
    add("commutator_XY_minus4", worst_ii, 1e-10)
    p2 = rand_points(2, 100)
    for _ in range(5):
        f = random_polynomial(2, rng)
        xy = horizontal_derivative(horizontal_field(f, 2, "Y"), 1, "X", p2)
        yx = horizontal_derivative(horizontal_field(f, 1, "X"), 2, "Y", p2)
        worst_ij = max(worst_ij, float(np.max(np.abs(xy - yx))))
    add("commutator_cross_zero", worst_ij, 1e-10)

    # translation invariance and dilation homogeneity
    worst_li, worst_dh = 0.0, 0.0
    for _ in range(5):
        f = random_polynomial(1, rng)
        shift = rand_points(1, 1)
        shift = GroupPoint(shift.x[0], shift.y[0], shift.tau[0])
        A, bvec = invariant_translation(shift)
        g = affine_pullback(f, A, bvec)
        worst_li = max(worst_li, float(np.max(np.abs(
            sublaplacian(g, p1) - sublaplacian(f, compose(p1, shift))))))
        lam = 0.5 + float(rng.random())
        gd = affine_pullback(f, dilation_matrix(lam, 1), np.zeros(3))
        worst_dh = max(worst_dh, float(np.max(np.abs(
            sublaplacian(gd, p1) - lam**2 * sublaplacian(f, dilate(lam, p1))))))
    add("left_invariance", worst_li, 1e-8)
    add("dilation_homogeneity", worst_dh, 1e-8)

    # radial identity on polynomial gauge powers c0 + c1 r^4 + c2 r^8
    r4 = PolyField({(4, 0, 0): 1.0, (2, 2, 0): 2.0, (0, 4, 0): 1.0, (0, 0, 2): 1.0}, 1)
    c0, c1, c2 = (float(rng.uniform(-1, 1)) for _ in range(3))
    f = (r4 * r4).scaled(c2) + r4.scaled(c1) + PolyField({(0, 0, 0): c0}, 1)
    prof = RadialProfile(
        lambda r: c0 + c1 * r**4 + c2 * r**8,
        lambda r: 4 * c1 * r**3 + 8 * c2 * r**7,
        lambda r: 12 * c1 * r**2 + 56 * c2 * r**6,
    )
    worst_rad = float(np.max(np.abs(sublaplacian(f, p1) - sublaplacian_radial(prof, p1))))
    add("radial_identity", worst_rad, 1e-8)

    # self-adjointness on three bump pairs
    box = np.array([[-3.0, 3.0], [-3.0, 3.0], [-9.0, 9.0]])
    cfg = WeakFormConfig(samples=samples, seed=seed)
    worst_ratio = 0.0
    centers = [(0.3, 0.2, 0.4), (-0.4, 0.1, -0.3), (0.0, -0.3, 0.2)]
    for k, (cx, cy, ct) in enumerate(centers):
        f = GaugeBump(GroupPoint(np.array([cx]), np.array([cy]), ct), radius=1.4).field
        g = GaugeBump(GroupPoint(np.array([-cx]), np.array([cy]), -ct), radius=1.6).field
        rep = selfadjointness_residual(f, g, box, WeakFormConfig(samples=samples, seed=seed + k))
        worst_ratio = max(worst_ratio, abs(rep.residual) / max(rep.error, 1e-300))
    add("selfadjointness_ratio", worst_ratio, 5.0)

    # observed order of the central-difference second-derivative oracle
    def smooth(p):
        return np.sin(p.x[..., 0]) * np.cos(p.y[..., 0]) * np.exp(p.tau / 3.0)

    def d2_exact(p):
        return -np.sin(p.x[..., 0]) * np.cos(p.y[..., 0]) * np.exp(p.tau / 3.0)

    probe = rand_points(1, 50)
    errs = []
    for h in (1e-2, 5e-3):
        fld = SmoothField(smooth, h=h)
        errs.append(float(np.max(np.abs(fld.d2(probe, 0, 0) - d2_exact(probe)))))
    order = float(np.log2(errs[0] / errs[1]))
    add("fd_order_deviation", abs(order - 2.0), 0.2)
    return rows


def cmd_identities(spec: RunSpec) -> Report:
    samples = spec.params.get("samples")
    samples = 100_000 if samples is None else samples
    rows = _identity_rows(spec.seed, samples)
    summary = {"all_pass": all(r["status"] == "pass" for r in rows)}
    return Report(_meta(spec), ["identity", "measured", "threshold", "status"], rows, summary)


_HANDLERS = {
    "lemma1": cmd_lemma1,
    "lemma2": cmd_lemma2,
    "scaling": cmd_scaling,
    "bound-parabolic": lambda spec: cmd_bound(spec, 1),
    "bound-hyperbolic": lambda spec: cmd_bound(spec, 2),
    "verdict": cmd_verdict,
    "residual": cmd_residual,
    "simulate": cmd_simulate,
    "identities": cmd_identities,
}


def dispatch(spec: RunSpec) -> Report:
    return _HANDLERS[spec.subcommand](spec)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = build_runspec(args)
    try:
        report = dispatch(spec)
    except ParameterError as exc:
        print(f"heislab: parameter error: {exc}", file=sys.stderr)
        return 2
    except (SolverFailure, OperatorError) as exc:
        print(f"heislab: solver error: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, ZeroDivisionError) as exc:
        print(f"heislab: parameter error: numbers out of floating-point range ({exc})", file=sys.stderr)
        return 2
    try:
        write_output(emit(report, spec.fmt), spec.out)
    except OSError as exc:
        print(f"heislab: cannot write output: {exc}", file=sys.stderr)
        return 2
    if str(report.summary.get("status", "")).startswith("solver_failure"):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
