#!/usr/bin/env python3
"""Regenerate the simulator report corpus, tests/golden/simulate.json.

Each case is one `heislab simulate --format json` run through `cli.main`;
the corpus stores its config and the report's `rows` and `summary` (the
`meta` block names a temporary config path and a timestamp, so it is left
out).  tests/test_golden.py reruns every case and asserts that the two
blocks are byte-identical.  Regenerate only when reports change on
purpose, and say which cases moved and why.

Usage:
    PYTHONPATH=src python scripts/make_golden.py [--out tests/golden/simulate.json]
"""

import argparse
import json
import pathlib
import sys
import tempfile

from heislab.cli import main as heislab_main

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "simulate.json"


def sim_config(equation, nodes, amplitude, steps, nonlinearity=True):
    return {
        "equation": equation, "q": 1.5, "nonlinearity": nonlinearity, "dt": 5e-3,
        "steps": steps, "blowup_threshold": 1e4, "solver_tol": 1e-10, "solver_max_iter": 5000,
        "grid": {"l_x": 3.0, "l_y": 3.0, "l_tau": 9.0, "n_x": nodes, "n_y": nodes, "n_tau": nodes},
        "initial": {"center": [0.1, 0.2, 0.3], "width": 1.0, "amplitude": amplitude},
    }


# 13^3 (1331 unknowns) is solved by LU, 25^3 (12167) by CG
CASES = {
    "parabolic-13-a5": sim_config("parabolic", 13, 5.0, 60),
    "hyperbolic-13-a5": sim_config("hyperbolic", 13, 5.0, 60),
    "parabolic-13-a300": sim_config("parabolic", 13, 300.0, 100),
    "hyperbolic-13-a300": sim_config("hyperbolic", 13, 300.0, 400),
    "linear-parabolic-13": sim_config("parabolic", 13, 5.0, 60, nonlinearity=False),
    "parabolic-25-a10": sim_config("parabolic", 25, 10.0, 10),
    "hyperbolic-25-a10": sim_config("hyperbolic", 25, 10.0, 10),
}


def report_blocks(config: dict, workdir: pathlib.Path) -> dict:
    """The `rows` and `summary` of one JSON `simulate` report on `config`."""
    cfg_path, out_path = workdir / "config.json", workdir / "report.json"
    cfg_path.write_text(json.dumps(config))
    rc = heislab_main(["simulate", "--config", str(cfg_path), "--format", "json",
                       "--out", str(out_path)])
    if rc != 0:
        raise RuntimeError(f"heislab simulate exited {rc}")
    report = json.loads(out_path.read_text())
    return {"rows": report["rows"], "summary": report["summary"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=str(GOLDEN))
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        corpus = {name: {"config": cfg, **report_blocks(cfg, pathlib.Path(tmp))}
                  for name, cfg in CASES.items()}
    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(corpus, indent=1) + "\n")
    print(f"wrote {len(corpus)} cases to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
