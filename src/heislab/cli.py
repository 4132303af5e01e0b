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
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .capacity import (
    Exponents,
    _log_time_constant,
    capacity_bound,
    critical_exponent,
    log_envelope,
    scaling_fit,
    spatial_integral,
    spatial_integral_grid,
    time_integral,
    time_integral_closed,
    time_integral_constant,
    verdict,
)
from .cutoffs import ProductTestFunction, TemporalFactor
from .errors import ParameterError, SolverFailure, shown
from .group import identity_battery, point
from .mc import MCConfig, chunk_generator
from .report import Report, emit, report_timestamp, write_output
from .simulate import SimConfig, run
from .weak_form import residual_battery, selfadjointness_ratio

DEFAULT_R_CRITICAL = "1e3,1e4,1e5,1e6,1e7,1e8,1e9"


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


def parse_single(args: argparse.Namespace, name: str) -> float:
    text = getattr(args, name)
    grid = parse_grid(text)
    if len(grid) != 1:
        raise ParameterError(f"--{name} takes one value, not the grid {text!r}")
    return grid[0]


@functools.cache  # parse_args leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heislab",
        description="Numerical laboratory for capacity estimates on the Heisenberg group.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    shared = {"q": (str, "2"), "n": (int, 1), "ell": (float, None), "kappa": (float, None),
              "seed": (int, 0), "samples": (int, None)}

    def add_common(sp, *names):  # a subcommand takes only the options its report depends on
        for name in names:
            kind, default = shared[name]
            sp.add_argument(f"--{name}", type=kind, default=default)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("lemma1", help="time-integral quadrature vs closed forms")
    add_common(sp, "q", "ell")
    sp.add_argument("--T", type=str, default="10")

    sp = sub.add_parser("lemma2", help="critical logarithmic spatial factor vs its envelope")
    add_common(sp, "n", "kappa")  # q is the critical exponent for n
    sp.add_argument("--R", type=str, default=DEFAULT_R_CRITICAL)

    sp = sub.add_parser("scaling", help="log-log slope fits of the capacity integrals")
    add_common(sp, "q", "n", "ell")
    sp.add_argument("--target", choices=("I1", "I2", "I3", "I4"), required=True)
    sp.add_argument("--T", type=str, default="10,20,40,80")
    sp.add_argument("--R", type=str, default="8,16,32,64")

    sp = sub.add_parser("bound-parabolic", help="a-priori bound decay for the first-order equation")
    add_common(sp, "q", "n", "ell", "kappa")
    sp.add_argument("--T", type=str, default="10")
    sp.add_argument("--R", type=str, default="8,16,32,64")
    sp.add_argument("--u0-norm", type=float, default=0.0)

    sp = sub.add_parser("bound-hyperbolic", help="a-priori bound decay for the second-order equation")
    add_common(sp, "q", "n", "ell", "kappa")
    sp.add_argument("--T", type=str, default="10")
    sp.add_argument("--R", type=str, default="8,16,32,64")
    sp.add_argument("--u0-norm", type=float, default=0.0)
    sp.add_argument("--u1-norm", type=float, default=0.0)

    sp = sub.add_parser("verdict", help="classify q against the critical exponent")
    add_common(sp, "q", "n")

    sp = sub.add_parser("residual", help="weak-formulation residual checks")
    add_common(sp, "q", "n", "ell", "seed", "samples")
    sp.add_argument("--T", type=str, default="2")
    sp.add_argument("--R", type=str, default="3")

    sp = sub.add_parser("simulate", help="finite-difference run from a JSON config")
    add_common(sp)
    sp.add_argument("--config", type=str, required=True)

    sp = sub.add_parser("identities", help="group-calculus identity battery")
    add_common(sp, "seed", "samples")
    return parser


def _meta(args: argparse.Namespace) -> dict:
    params = vars(args)
    return {
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": params.get("seed"),  # None for subcommands that draw no samples
        "timestamp": report_timestamp(),
        "params": {k: v for k, v in sorted(params.items())
                   if k not in ("subcommand", "format", "out", "seed")},
    }


def _report(args: argparse.Namespace, rows: list, summary: dict) -> Report:
    """The report of `args`; its columns are the keys of its first row."""
    return Report(_meta(args), list(rows[0]), rows, summary)


def _exponents(args: argparse.Namespace, q=None) -> Exponents:
    """Exponents from --q (or `q`) and whichever of --n, --ell and --kappa the subcommand takes."""
    q = float(parse_rational(args.q) if q is None else q)
    return Exponents(q, **{k: v for k, v in vars(args).items() if k in ("n", "ell", "kappa")})


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _nonzero_time_factor(value: float, e: Exponents, T: float, k: int) -> float:
    """`value`, the time factor I_(k+1)(T), unless it underflowed to 0."""
    if value == 0.0:
        raise OverflowError(f"time factor I{k + 1} underflows to 0 at q = {e.q}, "
                            f"T = {shown(T)}, ell = {shown(e.ell)}")
    return value


def cmd_lemma1(args: argparse.Namespace) -> Report:
    e = _exponents(args)
    labels = ("C1*T", "C2*T^(1-q')", "C3*T^(1-2q')")
    rows = []
    worst = 0.0
    for T in parse_grid(args.T):
        for k in range(3):
            value = time_integral(e, T, k)
            closed = _nonzero_time_factor(time_integral_closed(e, T, k), e, T, k)
            rel = abs(value - closed) / abs(closed)
            worst = max(worst, rel)
            rows.append({
                "integral": f"I{k + 1}",
                "name": labels[k],
                "T": T,
                "value": value,
                "closed_form": closed,
                "rel_err": rel,
            })
    summary = {"max_rel_err": worst}
    for k in range(3):
        try:
            summary[f"C{k + 1}"] = time_integral_constant(e, k)
        except OverflowError:  # a row I_k(T) = C_k T^(1 - k q') can be finite where C_k is not
            summary[f"log10_C{k + 1}"] = _log_time_constant(e, k) / math.log(10.0)
    return _report(args, rows, summary)


def cmd_lemma2(args: argparse.Namespace) -> Report:
    e = _exponents(args, critical_exponent(args.n))
    spec_log = e.log_spec()
    rows = []
    quotients = []
    values = []
    Rs = parse_grid(args.R)
    spatial_integral_grid(e, spec_log, Rs)
    for R in Rs:
        total, term_sq, term_lin = (spatial_integral(e, spec_log, R, name)
                                    for name in ("weighted", "term_sq", "term_lin"))
        env = log_envelope(e.Q, R)
        quot = total.value / env
        quotients.append(quot)
        values.append((R, total.value))
        rows.append({
            "R": R,
            "value": total.value,
            "abs_error": total.abs_error,
            "term_sq": term_sq.value,
            "term_lin": term_lin.value,
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
    return _report(args, rows, summary)


def cmd_scaling(args: argparse.Namespace) -> Report:
    e = _exponents(args)
    target = args.target
    rows = []
    if target in ("I1", "I2", "I3"):
        k = {"I1": 0, "I2": 1, "I3": 2}[target]
        grid = parse_grid(args.T)
        samples = [(T, _nonzero_time_factor(time_integral(e, T, k), e, T, k)) for T in grid]
        expected = 1.0 - k * e.q_prime
        kind = "log T"
    else:
        grid = parse_grid(args.R)
        cut = e.power_spec()
        spatial_integral_grid(e, cut, grid)
        samples = [(R, spatial_integral(e, cut, R).value) for R in grid]
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
    return _report(args, rows, summary)


def cmd_bound(args: argparse.Namespace, order: int) -> Report:
    """bound-parabolic (order 1) and bound-hyperbolic (order 2) over the R grid."""
    e = _exponents(args)
    T = parse_single(args, "T")
    u1 = getattr(args, "u1_norm", 0.0)  # bound-hyperbolic only
    rows = []
    bounds = []
    grid = parse_grid(args.R)
    spatial_integral_grid(e, e.bound_spec(), grid)
    for R in grid:
        rep = capacity_bound(e, T, R, order, args.u0_norm, u1)
        row = {"R": R, "bound": rep.bound}
        row.update(rep.breakdown)
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
        if not all(0.0 < x < math.inf for x in quots):
            raise OverflowError("bound/envelope quotient beyond floating-point range")
        summary["envelope_quotient_spread"] = max(quots) / min(quots)
    elif len(bounds) >= 4:
        fit = scaling_fit(bounds, "log R")
        summary["slope"] = fit.slope
        summary["expected_slope"] = e.Q - 2.0 * e.q_prime
    return _report(args, rows, summary)


def cmd_verdict(args: argparse.Namespace) -> Report:
    n = args.n
    qf = parse_rational(args.q)
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
    return _report(args, rows, summary)


def cmd_residual(args: argparse.Namespace) -> Report:
    if args.n != 1:
        raise ParameterError("residual is implemented for n = 1 only")
    e = _exponents(args)
    T = parse_single(args, "T")
    R = parse_single(args, "R")
    samples = 200_000 if args.samples is None else args.samples  # --samples 0 is an error, not the default
    cfg = MCConfig(samples=samples, seed=args.seed)  # before the test function, so a bad --samples is named first
    rows = residual_battery(e.q, ProductTestFunction(TemporalFactor(T, e.ell), e.power_spec(), R), cfg)
    summary = {"all_within_3sigma": all(r["within_3sigma"] for r in rows)}
    return _report(args, rows, summary)


def cmd_simulate(args: argparse.Namespace) -> Report:
    try:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: malformed JSON or not UTF-8
        raise ParameterError(f"cannot read config: {exc}") from exc
    trace = run(SimConfig.from_dict(data))
    summary = {
        "status": trace.status,
        "status_step": trace.status_step if trace.status_step is not None else -1,
        "final_max_norm": trace.rows[-1]["max_norm"],
        "final_lq_norm": trace.rows[-1]["lq_norm"],
        "note": "illustrative discrete dynamics; no reference values exist",
    }
    return _report(args, trace.rows, summary)


def _identity_rows(seed: int, samples: int) -> list:
    rows = identity_battery(1, chunk_generator(seed, 1))
    # self-adjointness on three bump pairs, reported before the finite-difference order
    box = np.array([[-3.0, 3.0], [-3.0, 3.0], [-9.0, 9.0]])
    centers = [(point(cx, cy, ct), point(-cx, cy, -ct))
               for cx, cy, ct in ((0.3, 0.2, 0.4), (-0.4, 0.1, -0.3), (0.0, -0.3, 0.2))]
    rows.insert(-1, ("selfadjointness_ratio", selfadjointness_ratio(centers, box, samples, seed), 5.0))
    return [{"identity": name, "measured": measured, "threshold": threshold,
             "status": "pass" if measured <= threshold else "fail"} for name, measured, threshold in rows]


def cmd_identities(args: argparse.Namespace) -> Report:
    samples = 100_000 if args.samples is None else args.samples
    rows = _identity_rows(args.seed, samples)
    summary = {"all_pass": all(r["status"] == "pass" for r in rows)}
    return _report(args, rows, summary)


_HANDLERS = {
    "lemma1": cmd_lemma1,
    "lemma2": cmd_lemma2,
    "scaling": cmd_scaling,
    "bound-parabolic": lambda args: cmd_bound(args, 1),
    "bound-hyperbolic": lambda args: cmd_bound(args, 2),
    "verdict": cmd_verdict,
    "residual": cmd_residual,
    "simulate": cmd_simulate,
    "identities": cmd_identities,
}


def dispatch(args: argparse.Namespace) -> Report:
    return _HANDLERS[args.subcommand](args)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report_timestamp()  # before scipy loads: its numpy.f2py raises on a malformed SOURCE_DATE_EPOCH
        report = dispatch(args)
    except ParameterError as exc:
        print(f"heislab: parameter error: {exc}", file=sys.stderr)
        return 2
    except SolverFailure as exc:
        print(f"heislab: solver error: {exc}", file=sys.stderr)
        return 3
    except (OverflowError, ZeroDivisionError) as exc:
        print(f"heislab: parameter error: numbers out of floating-point range ({exc})", file=sys.stderr)
        return 2
    try:
        write_output(emit(report, args.format), args.out)
    except OSError as exc:
        print(f"heislab: cannot write output: {exc}", file=sys.stderr)
        return 2
    if str(report.summary.get("status", "")).startswith("solver_failure"):
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
