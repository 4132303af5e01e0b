"""Tests of the benchmark itself.

Every workload runs at tiny size, untraced and traced, and must print every
metric that BENCHMARK.json names, with its unit; a deliberately wrong
expected value must be counted as a failed operation, not passed.
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, monkeypatch):
    import heislab.capacity
    import heislab.cutoffs

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    result, lines = run.measure(workload, seed=3, seconds=0, trace=trace, tiny=True,
                                setup_repeats=1)
    declared = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.startswith(f"metric {name} ") and line.endswith(f" {unit}")
                   for line in lines), name
    # the traced run puts every original binding back
    assert heislab.capacity.cutoff_eval is heislab.cutoffs.cutoff_eval
    assert not hasattr(heislab.cutoffs.cutoff_eval, "__wrapped__")


def test_wrong_expected_value_is_counted_in_fail_ratio(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    build = workloads.build_ops

    def with_one_wrong_verdict(workload, seed, workdir, tiny=False):
        ops = build(workload, seed, workdir, tiny)
        k = next(i for i, op in enumerate(ops) if op.argv[0] == "verdict")
        ops[k] = replace(ops[k], check=workloads.equals("verdict", "CriticalBlowup, q_c = 7"))
        return ops

    monkeypatch.setattr(run, "build_ops", with_one_wrong_verdict)
    result, lines = run.measure("studies", seed=3, seconds=0, trace=False, tiny=True,
                                setup_repeats=1)
    assert not result["correct"]
    assert result["failed"] == 1 and result["attempted"] > 1
    assert f"metric fail_ratio {1 / result['attempted']!r} ratio" in "\n".join(lines)
    assert any(line.startswith("FAIL verdict") for line in lines)


def test_reference_mismatch_is_a_failure(tmp_path, monkeypatch):
    import heislab.cli as cli

    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    op = workloads.build_ops("sim_sweep", 3, tmp_path, tiny=True)[0]
    assert run.run_batch([op], cli.main)[2] == []

    cfg = json.loads(Path(op.argv[2]).read_text())
    entry = workloads.load_references()[workloads.config_key(cfg)]
    rtol = workloads.tolerance(entry["kappa"], cfg["steps"])
    expected = dict(entry["checkpoints"][str(cfg["steps"])])
    expected["max_norm"] *= 1 + 2 * rtol
    wrong = replace(op, check=workloads.reference_check(expected, rtol))
    failures = run.run_batch([wrong], cli.main)[2]
    assert len(failures) == 1 and "final_max_norm" in failures[0]
