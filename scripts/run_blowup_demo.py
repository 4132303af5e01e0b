#!/usr/bin/env python3
"""Illustrative finite-difference runs of both model equations.

Sweeps the initial bump amplitude for q = 1.5 (subcritical) and records
whether each run stays bounded over the horizon or hits the blow-up
threshold.  No published numbers exist for these dynamics; the output is
observational.

Usage:
    python scripts/run_blowup_demo.py [--outdir results] [--threshold 1e4]
"""

import argparse
import json
import pathlib
import sys

from heislab.simulate import BumpSpec, GridConfig, SimConfig, run


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="results")
    ap.add_argument("--threshold", type=float, default=1e4)
    ap.add_argument("--steps", type=int, default=2000)
    args = ap.parse_args()
    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)

    grid = GridConfig(3.0, 3.0, 9.0, 13, 13, 13)
    summary = []
    for equation in ("parabolic", "hyperbolic"):
        for amplitude in (1.0, 5.0, 10.0, 20.0, 50.0):
            cfg = SimConfig(
                equation, q=1.5, nonlinearity=True, dt=5e-3, steps=args.steps,
                grid=grid, initial=BumpSpec((0.0, 0.0, 0.0), 1.0, amplitude),
                blowup_threshold=args.threshold, solver_max_iter=5000,
            )
            trace = run(cfg)
            peak = max(r["max_norm"] for r in trace.rows)
            row = {
                "equation": equation,
                "amplitude": amplitude,
                "status": trace.status,
                "status_step": trace.status_step,
                "steps_run": len(trace.rows) - 1,
                "peak_max_norm": peak,
                "final_max_norm": trace.rows[-1]["max_norm"],
            }
            summary.append(row)
            print(f"{equation:10s} amp={amplitude:5.1f}  {trace.status:18s} "
                  f"steps={row['steps_run']:5d}  peak={peak:.3e}")
    path = out / "blowup_demo.json"
    path.write_text(json.dumps({"note": "illustrative discrete dynamics",
                                "threshold": args.threshold,
                                "rows": summary}, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
