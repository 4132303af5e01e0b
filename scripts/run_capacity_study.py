#!/usr/bin/env python3
"""Full capacity study: time constants, spatial scaling, critical factor
and a-priori bound decay, written as CSV files under results/.

Usage:
    python scripts/run_capacity_study.py [--outdir results]
"""

import argparse
import pathlib
import sys

from heislab.cli import build_parser, dispatch
from heislab.report import emit


def run(argv, path):
    args = build_parser().parse_args(argv)
    path.write_text(emit(dispatch(args), args.format))
    print(f"wrote {path}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="results")
    args = ap.parse_args()
    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    run(["lemma1", "--q", "2", "--ell", "4", "--T", "10,100"], out / "time_constants_q2.csv")
    run(["lemma1", "--q", "1.5", "--ell", "6", "--T", "10,100"], out / "time_constants_q15.csv")
    for target, grid_flag, grid in [("I2", "--T", "10,20,40,80"),
                                    ("I3", "--T", "10,20,40,80"),
                                    ("I4", "--R", "8,16,32,64")]:
        run(["scaling", "--target", target, "--q", "1.5", "--n", "1", grid_flag, grid],
            out / f"scaling_{target}.csv")
    run(["scaling", "--target", "I4", "--q", "6/5", "--n", "2", "--R", "8,16,32,64"],
        out / "scaling_I4_n2.csv")
    run(["lemma2", "--n", "1"], out / "critical_factor.csv")
    run(["bound-parabolic", "--q", "1.5", "--n", "1", "--T", "10", "--R", "8,16,32,64,128"],
        out / "bound_parabolic_subcritical.csv")
    run(["bound-parabolic", "--q", "6/5", "--n", "2", "--T", "10", "--R", "8,16,32,64,128"],
        out / "bound_parabolic_subcritical_n2.csv")
    run(["bound-hyperbolic", "--q", "1.5", "--n", "1", "--T", "10", "--R", "8,16,32,64,128",
         "--u0-norm", "1", "--u1-norm", "1"], out / "bound_hyperbolic_subcritical.csv")
    run(["bound-parabolic", "--q", "2", "--n", "1", "--T", "10",
         "--R", "1e3,1e4,1e5,1e6,1e7,1e8,1e9"], out / "bound_parabolic_critical.csv")
    for n, q in [(1, "1.5"), (1, "2"), (2, "2"), (3, "4/3")]:
        run(["verdict", "--n", str(n), "--q", q], out / f"verdict_n{n}_q{q.replace('/', 'over')}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
