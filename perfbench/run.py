#!/usr/bin/env python3
"""heislab benchmark: run one workload in this process and print its metrics.

Usage, from the root of a heislab checkout:

    python3 perfbench/run.py --workload residual --seed 1 --seconds 10 --trace 0

The workload's batch of CLI operations is generated from --seed alone
(workloads.py).  Batches run back to back, each from cold heislab caches as
in a fresh `heislab` process, until --seconds have passed; every operation's
report is checked.

--trace 0 prints the end-to-end metrics: setup_s (median over several fresh
interpreters of start-up plus `import heislab.cli`), wall_s and cpu_s (user
plus system time of this process, all threads) as medians over batches at
reference host speed, and peak_rss_mb of this process.

The host is shared, and its contention comes in phases of seconds to
minutes that slow everything running by up to 1.6x.  So a fixed calibration
mix of scipy quad, sparse mat-vec, numpy and interpreter work, which does not
touch heislab, is timed between batches, and each batch's wall and CPU time
is scaled by CALIBRATION_REF_S over the calibration time around it.  The
unscaled median batch time is printed as a context line.

--trace 1 runs untraced batches for the first half of --seconds and traced
batches (spans.py) for the second half, prints the per-layer metrics as
medians over traced batches (span times unscaled), the tracing overhead as
the difference of the scaled median batch times, and writes the spans to
.perfbench_out/.

Context lines come first; the last line is one JSON object with the keys
correct, attempted, failed and metrics.  fail_ratio is failed / attempted.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# Calibration time on a quiet 2-vCPU x86-64 host (numpy 2.4, scipy 1.17); it
# only sets the scale of wall_s and cpu_s.
CALIBRATION_REF_S = 0.07

sys.path.insert(0, str(HERE))

from spans import METRICS as LAYER_UNITS  # noqa: E402
from spans import Tracer, layer_metrics, percentile, step_durations_ms  # noqa: E402
from workloads import WORKLOADS, build_ops  # noqa: E402

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def calibrate() -> float:
    """Wall time of a fixed mix resembling heislab's work, without heislab:
    a scalar-integrand quad, sparse mat-vecs on a 7-point stencil, numpy
    array passes and an interpreter loop."""
    import numpy as np
    import scipy.sparse as sparse
    from scipy.integrate import quad

    m = 12
    stencil = sparse.diags([1.0, 1.0, 1.0, -6.0, 1.0, 1.0, 1.0],
                           [-m * m, -m, -1, 0, 1, m, m * m], shape=(m**3, m**3), format="csr")
    v = np.linspace(1.0, 2.0, m**3)
    x = np.linspace(0.0, 1.0, 20000)
    t0 = time.perf_counter()
    quad(lambda s: np.exp(-s) * np.sqrt(s + 1.0), 0.0, 5.0, epsabs=0.0, epsrel=1e-13, limit=200)
    for _ in range(1500):
        v = stencil @ v
        v /= np.linalg.norm(v)
    for _ in range(300):
        x = np.where(x > 0.5, np.sqrt(x), 1.0 - x) + 1e-3
    acc = 0
    for i in range(100000):
        acc += (i * i) % 7
    return time.perf_counter() - t0


def measure_setup(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing heislab.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import heislab.cli"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reset_caches():
    """Empty heislab's in-process caches, as a fresh `heislab` process has them."""
    for name, module in list(sys.modules.items()):
        if name.startswith("heislab."):
            for attr, obj in vars(module).items():
                if attr.endswith("_CACHE") and isinstance(obj, dict):
                    obj.clear()
                elif callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def check_op(op, rc, stdout: str, stderr: str):
    """None if the operation succeeded and its report passes, else why not."""
    if rc != 0:
        last = stderr.strip().splitlines()[-1:] or [""]
        return f"exit {rc}: {last[0]}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "report is not valid JSON"
    try:
        return op.check(report)
    except (KeyError, IndexError, TypeError) as exc:
        return f"report lacks an expected field: {exc!r}"


def run_batch(ops, main, tracer=None):
    """Run every operation once; returns (wall_s, cpu_s, failures)."""
    wall = cpu = 0.0
    failures = []
    for op in ops:
        if tracer is not None:
            tracer.op += 1
        out, err = io.StringIO(), io.StringIO()
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([*op.argv, "--format", "json"])
        except (Exception, SystemExit) as exc:  # a raising operation is a failed one
            rc = repr(exc)
        wall += time.perf_counter() - w0
        cpu += time.process_time() - c0
        reason = check_op(op, rc, out.getvalue(), err.getvalue())
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    return wall, cpu, failures


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            setup_repeats: int = SETUP_REPEATS):
    """Run the workload; returns (result object, context lines)."""
    if not (SRC / "heislab" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no heislab sources under {SRC}")
    loadavg = os.getloadavg()
    setup = None if trace else measure_setup(setup_repeats)

    sys.path.insert(0, str(SRC))
    import heislab.cli as cli
    import numpy
    import scipy
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: heislab was imported from {cli.__file__}, not {SRC}")
    os.environ["SOURCE_DATE_EPOCH"] = "0"  # pin report timestamps

    context = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas_threads": blas_threads(), "loadavg_at_start": loadavg,
    }
    ops = build_ops(workload, seed, OUT / "configs" / workload, tiny)

    def main(argv):
        return cli.main(argv)  # looked up per call, so the traced wrapper is used

    attempted, failures = 0, []
    start = time.perf_counter()

    def batches(until, tracer=None):
        """Yield (wall, cpu, scale) per batch; scale converts to reference host speed."""
        nonlocal attempted
        before = calibrate()
        while True:
            reset_caches()
            wall, cpu, fails = run_batch(ops, main, tracer)
            after = calibrate()
            attempted += len(ops)
            failures.extend(fails)
            yield wall, cpu, CALIBRATION_REF_S / (0.5 * (before + after))
            before = after
            if time.perf_counter() - start >= until:
                return

    untraced = list(batches(seconds / 2 if trace else seconds))
    wall_s = statistics.median(w * k for w, _, k in untraced)
    lines = [f"context {json.dumps(context)}",
             f"operations {len(ops)} per batch, {len(untraced)} untraced batches, "
             f"unscaled median batch wall {statistics.median(w for w, _, _ in untraced)!r} s, "
             f"median host speed {statistics.median(k for _, _, k in untraced)!r}"]

    if trace:
        tracer = Tracer()
        tracer.install()
        per_batch, steps_ms, walls, spans_out = [], [], [], []
        try:
            for wall, _, scale in batches(seconds, tracer):
                spans = tracer.take()
                per_batch.append(layer_metrics(spans))
                steps_ms.extend(step_durations_ms(spans))
                walls.append(wall * scale)
                spans_out.append(spans)
        finally:
            tracer.uninstall()
        # counts repeat exactly from batch to batch; times take the median
        values = {k: (statistics.median_low if LAYER_UNITS[k] == "count" else statistics.median)(
                      m[k] for m in per_batch) for k in per_batch[0]}
        values["simulate.step_p50_ms"] = percentile(steps_ms, 50)
        values["simulate.step_p99_ms"] = percentile(steps_ms, 99)
        values["trace.overhead_s"] = statistics.median(walls) - wall_s
        values["trace.overhead_ratio"] = values["trace.overhead_s"] / wall_s
        units = LAYER_UNITS
        lines.append(f"traced batches {len(walls)}, untraced wall_s {wall_s!r} s, "
                     f"step samples {len(steps_ms)}")
        if tracer.recorder_errors:
            lines.append(f"recorder errors {dict(tracer.recorder_errors)}")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}.jsonl", spans_out, context)
    else:
        units = E2E_UNITS
        values = {
            "setup_s": setup,
            "wall_s": wall_s,
            "cpu_s": statistics.median(c * k for _, c, k in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    failed = len(failures)
    lines += [f"FAIL {f}" for f in dict.fromkeys(failures)]
    lines += [f"metric {name} {values[name]!r} {unit}" for name, unit in units.items()]
    lines.append(f"metric fail_ratio {failed / attempted!r} ratio ({failed} of {attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
