#!/usr/bin/env python3
"""Time the simulator's two solvers against each other: ms per step by sparse LU and by
two-level preconditioned conjugate gradients, for each grid and step count given.

Each timed run is cold: it starts with no kept operator, so it includes assembly and the
LU factoring or the coarse-space build.  The solver is chosen by setting
`simulate.DIRECT_MAX_UNKNOWNS` above or below the grid's unknowns, as for a grid on that
side of the crossover.  One untimed run first loads scipy.  Each time is the median of
`--repeats` runs of the same config (q = 1.5, dt = 5e-3, an off-centre bump of amplitude
10); a run that ends before its last step stops the script.  This is the table behind the
`DIRECT_MAX_UNKNOWNS` comment in `heislab/simulate.py`.

Usage:
    PYTHONPATH=src python scripts/time_solvers.py [--nodes 17 18 19] [--steps 30 100] [--repeats 5]
"""

import argparse
import statistics
import time

import heislab.simulate as simulate
from heislab.simulate import BumpSpec, GridConfig, SimConfig

SOLVERS = {"LU": 10**12, "CG": 0}  # DIRECT_MAX_UNKNOWNS for each


def ms_per_step(cfg: SimConfig, solver: str, repeats: int) -> float:
    simulate.DIRECT_MAX_UNKNOWNS = SOLVERS[solver]
    times = []
    for _ in range(repeats):
        simulate._grid_operator.cache_clear()
        start = time.perf_counter()
        trace = simulate.run(cfg)
        times.append(time.perf_counter() - start)
        if trace.status != "completed":
            raise SystemExit(f"{solver} run ended {trace.status} at step {trace.status_step}")
    return 1e3 * statistics.median(times) / cfg.steps


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--nodes", type=int, nargs="+", default=[17, 18, 19], help="nodes per axis")
    ap.add_argument("--steps", type=int, nargs="+", default=[30, 100])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    def config(equation, nodes, steps):
        return SimConfig(equation, q=1.5, nonlinearity=True, dt=5e-3, steps=steps,
                         grid=GridConfig(3.0, 3.0, 9.0, nodes, nodes, nodes),
                         initial=BumpSpec((0.1, 0.2, 0.3), 1.0, 10.0), solver_max_iter=5000)

    for solver in SOLVERS:  # loads scipy.sparse and scipy.sparse.linalg outside the timings
        ms_per_step(config("parabolic", 5, 1), solver, 1)
    print(f"{'grid':>6} {'unknowns':>8} {'steps':>5} {'equation':>10} {'LU ms/step':>10} {'CG ms/step':>10}")
    for nodes in args.nodes:
        for steps in args.steps:
            for equation in ("parabolic", "hyperbolic"):
                cfg = config(equation, nodes, steps)
                lu, cg = (ms_per_step(cfg, solver, args.repeats) for solver in SOLVERS)
                print(f"{nodes:>4}^3 {(nodes - 2) ** 3:>8} {steps:>5} {equation:>10} {lu:>10.2f} {cg:>10.2f}")
    simulate._grid_operator.cache_clear()


if __name__ == "__main__":
    main()
