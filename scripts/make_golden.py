#!/usr/bin/env python3
"""Regenerate the report corpus in tests/golden/.

Each case is one `heislab ... --format json` report made through `cli.main`:
`simulate.json` holds `simulate` runs and their configs, `reports.json` the
argvs of every other subcommand.  A case stores the report's `rows` and
`summary` (the `meta` block names a temporary path and a timestamp, so it is
left out).  tests/test_golden.py reruns every case and asserts that the two
blocks are byte-identical.  Regenerate only the cases whose reports change
on purpose, and say which moved and why; the other entries are rewritten
byte for byte.  For each rewritten case the script prints whether it is
byte-identical, else whether its status moved, and else the largest relative
change of a number in its rows and in its summary with the column it is in
(e.g. `0.189 in rows (abs_error)`) and, by its first column, each row that
moved (e.g. `identity=commutator_cross_zero`).

Usage:
    PYTHONPATH=src python scripts/make_golden.py                    # every case
    PYTHONPATH=src python scripts/make_golden.py parabolic-25-a10   # only these cases
"""

import argparse
import json
import math
import pathlib
import sys
import tempfile

from heislab.cli import main as heislab_main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN_DIR = ROOT / "tests" / "golden"


def sim_config(equation, nodes, amplitude, steps, nonlinearity=True, velocity=None):
    cfg = {
        "equation": equation, "q": 1.5, "nonlinearity": nonlinearity, "dt": 5e-3,
        "steps": steps, "blowup_threshold": 1e4, "solver_tol": 1e-10, "solver_max_iter": 5000,
        "grid": {"l_x": 3.0, "l_y": 3.0, "l_tau": 9.0, "n_x": nodes, "n_y": nodes, "n_tau": nodes},
        "initial": {"center": [0.1, 0.2, 0.3], "width": 1.0, "amplitude": amplitude},
    }
    return cfg if velocity is None else {**cfg, "initial_velocity": velocity}


# an off-centre initial velocity bump for the hyperbolic equation
VELOCITY = {"center": [-0.6, 0.5, 1.2], "width": 0.8, "amplitude": 4.0}


# 13^3 (1331 unknowns) is solved by LU, 25^3 (12167) by CG
SIMULATE = {
    "parabolic-13-a5": sim_config("parabolic", 13, 5.0, 60),
    "hyperbolic-13-a5": sim_config("hyperbolic", 13, 5.0, 60),
    "parabolic-13-a300": sim_config("parabolic", 13, 300.0, 100),
    "hyperbolic-13-a300": sim_config("hyperbolic", 13, 300.0, 400),
    "linear-parabolic-13": sim_config("parabolic", 13, 5.0, 60, nonlinearity=False),
    "parabolic-25-a10": sim_config("parabolic", 25, 10.0, 10),
    "hyperbolic-25-a10": sim_config("hyperbolic", 25, 10.0, 10),
    "hyperbolic-13-a5-v4": sim_config("hyperbolic", 13, 5.0, 60, velocity=VELOCITY),
    "hyperbolic-25-a10-v4": sim_config("hyperbolic", 25, 10.0, 10, velocity=VELOCITY),
}


def other_reports() -> dict:
    """Capacity subcommands at n = 1, 2, 3 (subcritical q and q_c = Q/(Q-2), Q = 2n + 2,
    with nonzero data norms), residual and identities at two seeds each, residual at the
    samples and seed of acceptance criterion 7, verdict, and capacity reports at extreme
    kappa, ell, q, n and R."""
    critical, subcritical = {1: "2", 2: "3/2", 3: "4/3"}, {1: "3/2", 2: "5/4", 3: "6/5"}
    cases = {"lemma1": ["lemma1"]}
    for n in (1, 2, 3):
        cases[f"lemma2-n{n}"] = ["lemma2", f"--n={n}"]
        for target in ("I1", "I2", "I3", "I4"):
            cases[f"scaling-{target}-n{n}"] = ["scaling", f"--target={target}", f"--n={n}",
                                                f"--q={subcritical[n]}"]
        for eq, norms in (("parabolic", ["--u0-norm=1.5"]),
                          ("hyperbolic", ["--u0-norm=1.5", "--u1-norm=0.7"])):
            for kind, q in (("sub", subcritical[n]), ("crit", critical[n])):
                cases[f"bound-{eq}-{kind}-n{n}"] = [f"bound-{eq}", f"--n={n}", f"--q={q}", *norms]
    for seed in (1, 5):
        cases[f"residual-s{seed}"] = ["residual", f"--seed={seed}", "--samples=16384"]
    cases["residual-crit7"] = ["residual", "--q=2", "--seed=3", "--samples=150000"]
    for seed in (0, 7):
        cases[f"identities-s{seed}"] = ["identities", f"--seed={seed}"]
    cases["verdict"] = ["verdict"]
    # the largest exponents of the radial and time integrands, and R at both float ends
    cases.update({
        "lemma2-kappa50": ["lemma2", "--kappa=50", "--R=1.5,10,1e5,1e300"],
        "bound-parabolic-crit-kappa1e3": ["bound-parabolic", "--q=2", "--kappa=1e3", "--T=1",
                                          "--R=1.5,10,1e5,1e300", "--u0-norm=1"],
        "bound-hyperbolic-sub-ell40": ["bound-hyperbolic", "--q=1.5", "--ell=40", "--T=1",
                                       "--R=2,4,8,16", "--u0-norm=1", "--u1-norm=1"],
        "lemma1-ell40": ["lemma1", "--q=1.5", "--ell=40", "--T=0.1,1,10"],
        "scaling-I4-q100-n4": ["scaling", "--target=I4", "--q=100", "--n=4", "--R=1e-3,1,1e3,1e6"],
        "scaling-I4-q1e6": ["scaling", "--target=I4", "--q=1e6", "--R=1e-3,1,1e3,1e6"],
        "lemma2-n2-huge-R": ["lemma2", "--n=2", "--R=1e100,1e200,1e300,1.7e308"],
        "scaling-I4-R-near-1": ["scaling", "--target=I4", "--q=1.5", "--R=1.0000000001,1.001,2,3"],
        "lemma1-ell1e16": ["lemma1", "--q=2", "--ell=1e16"],
    })
    return cases


REPORTS = other_reports()
# corpus file -> (its cases, the key under which an entry stores its case)
CORPORA = {GOLDEN_DIR / "simulate.json": (SIMULATE, "config"),
           GOLDEN_DIR / "reports.json": (REPORTS, "argv")}


def report_blocks(case, workdir: pathlib.Path) -> dict:
    """The `rows` and `summary` of the JSON report of `case`: a `simulate` config (a dict)
    or the argv of another subcommand (a list)."""
    if isinstance(case, dict):
        cfg_path = workdir / "config.json"
        cfg_path.write_text(json.dumps(case))
        case = ["simulate", "--config", str(cfg_path)]
    out_path = workdir / "report.json"
    rc = heislab_main([*case, "--format", "json", "--out", str(out_path)])
    if rc != 0:
        raise RuntimeError(f"heislab {case[0]} exited {rc}")
    report = json.loads(out_path.read_text())
    return {"rows": report["rows"], "summary": report["summary"]}


def largest_change(old: list, new: list, where: str) -> str:
    """Largest relative change of a float between two lists of dicts, key by key,
    `where` they are, followed by the key it is in when it is not 0."""
    changes = [(abs(b[key] - a[key]) / abs(a[key]), key) for a, b in zip(old, new) for key in a
               if isinstance(a[key], float) and isinstance(b.get(key), float) and a[key] and math.isfinite(a[key])]
    change, key = max(changes, key=lambda c: c[0], default=(0.0, ""))
    return f"{change:.3g} in {where} ({key})" if change else f"{change:.3g} in {where}"


def moved_rows(old: list, new: list) -> list:
    """`column=value` of the first column of each row that differs between old and new."""
    names = []
    for a, b in zip(old, new):
        if json.dumps(a) != json.dumps(b):
            key = next(iter(a))
            names.append(f"{key}={a[key]}")
    return names


def change(old: dict, new: dict) -> str:
    """How a rewritten entry moved: not at all, its status, status step or row count,
    or else the largest relative change of a number in its rows and in its summary,
    each with its column, followed by the rows that moved."""
    if json.dumps(old) == json.dumps(new):
        return "byte-identical"
    keys = ("status", "status_step")
    if (len(old["rows"]) != len(new["rows"])
            or any(old["summary"].get(k) != new["summary"].get(k) for k in keys)):
        return "status, status step or row count moved"
    rows = largest_change(old["rows"], new["rows"], "rows")
    summary = largest_change([old["summary"]], [new["summary"]], "summary")
    out = f"status kept, largest relative change {rows}, {summary}"
    moved = moved_rows(old["rows"], new["rows"])
    return f"{out}; rows moved: {', '.join(moved)}" if moved else out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("cases", nargs="*", help="names of the cases to rewrite (default: all)")
    args = ap.parse_args()
    unknown = sorted(set(args.cases) - set(SIMULATE) - set(REPORTS))
    if unknown:
        ap.error(f"unknown case(s): {', '.join(unknown)}")
    with tempfile.TemporaryDirectory() as tmp:
        for path, (cases, key) in CORPORA.items():
            names = [name for name in cases if not args.cases or name in args.cases]
            if not names:
                continue
            before = json.loads(path.read_text()) if path.exists() else {}
            corpus = dict(before) if args.cases else {}
            for name in names:
                corpus[name] = {key: cases[name], **report_blocks(cases[name], pathlib.Path(tmp))}
                if name in before:
                    print(f"{name}: {change(before[name], corpus[name])}")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(corpus, indent=1) + "\n")
            print(f"wrote {len(names)} of {len(corpus)} cases to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
