#!/usr/bin/env python3
"""Regenerate sim_reference.json, the stored outcomes that the simulator
workloads check each run against.

Every nonlinear config a seed can draw (workloads.reference_menu) is
stepped here with its own explicit Euler / leapfrog loop and a sparse LU
factorisation of the operator, independently of the conjugate-gradient
solver and stepping code under test.  Only the operator assembly and the
initial data are taken from heislab.  For each config the file stores the
condition number of -L_h (from which the check derives its tolerance) and,
at each stored step count, the status, status step and final norms.

Usage, from the repository root:
    python3 perfbench/make_sim_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import eigsh, splu

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from heislab.simulate import BumpSpec, GridConfig, assemble_sublaplacian, build_grid  # noqa: E402
from workloads import SIM_REFERENCE, config_key, reference_menu, tolerance  # noqa: E402


def operator(grid_cfg: dict):
    grid = build_grid(GridConfig(**grid_cfg))
    op = assemble_sublaplacian(grid)
    lmax = eigsh(op.neg, k=1, which="LA", return_eigenvectors=False)[0]
    lmin = eigsh(op.neg, k=1, sigma=0, which="LM", return_eigenvectors=False)[0]
    return grid, op.matrix, splu(op.matrix.tocsc()), float(lmax / lmin)


def trajectory(cfg: dict, grid, matrix, lu):
    """Norms after each step until the blow-up threshold or the step budget."""
    q, dt, threshold = cfg["q"], cfg["dt"], cfg["blowup_threshold"]
    b = cfg["initial"]
    u = BumpSpec(tuple(b["center"]), b["width"], b["amplitude"]).evaluate(grid)
    vol = grid.cell_volume

    def accel(v):
        return lu.solve(-(matrix @ v) - np.abs(v) ** q)

    rows, prev = [], None
    for step in range(1, cfg["steps"] + 1):
        if cfg["equation"] == "parabolic":
            u = u + dt * accel(u)
        elif prev is None:  # Taylor start with zero initial velocity
            prev, u = u, u + 0.5 * dt**2 * accel(u)
        else:
            prev, u = u, 2.0 * u - prev + dt**2 * accel(u)
        peak = float(np.max(np.abs(u)))
        rows.append((peak, float((np.sum(np.abs(u) ** q) * vol) ** (1.0 / q))))
        if not np.all(np.isfinite(u)) or peak >= threshold:
            return rows, step
    return rows, None


def main():
    operators = {}
    out = {}
    for cfg, checkpoints in reference_menu():
        gkey = json.dumps(cfg["grid"], sort_keys=True)
        if gkey not in operators:
            operators[gkey] = operator(cfg["grid"])
        grid, matrix, lu, kappa = operators[gkey]
        rows, blowup = trajectory(cfg, grid, matrix, lu)
        entry = {"kappa": kappa, "checkpoints": {}}
        for steps in checkpoints:
            rtol = tolerance(kappa, steps)
            blew = blowup is not None and blowup <= steps
            last = blowup if blew else steps
            # a status decided within the tolerance would make the check flaky
            near = [abs(peak / cfg["blowup_threshold"] - 1.0) for peak, _ in rows[:last]]
            if min(near) <= 10 * rtol:
                raise SystemExit(f"{config_key(cfg)}: threshold crossing within tolerance")
            peak, lq = rows[last - 1]
            entry["checkpoints"][str(steps)] = {
                "status": "blowup_threshold" if blew else "completed",
                "status_step": blowup if blew else -1,
                "max_norm": peak,
                "lq_norm": lq,
            }
        out[config_key(cfg)] = entry
        print(config_key(cfg), entry["checkpoints"])
    SIM_REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {SIM_REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
