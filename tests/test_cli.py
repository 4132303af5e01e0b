import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heislab.capacity import Exponents
from heislab.cli import RunSpec, build_parser, build_runspec, dispatch, main
from heislab.report import Report, emit, format_number


@pytest.fixture(autouse=True)
def pinned_timestamp(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def run_spec(argv):
    return build_runspec(build_parser().parse_args(argv))


def test_lemma1_rows_and_schema():
    report = dispatch(run_spec(["lemma1", "--q", "2", "--ell", "4", "--T", "10"]))
    assert report.columns == ["integral", "name", "T", "value", "closed_form", "rel_err"]
    assert [r["integral"] for r in report.rows] == ["I1", "I2", "I3"]
    expect = {"I1": 2.0, "I2": 16 / 30, "I3": 0.144}
    for row in report.rows:
        assert row["value"] == pytest.approx(expect[row["integral"]], rel=1e-8)
        assert row["rel_err"] <= 1e-8
    csv = emit(report, "csv")
    assert csv.splitlines()[0] == "integral,name,T,value,closed_form,rel_err"


@pytest.mark.parametrize("j", range(3, 60))
def test_default_ell_clears_integer_quotient(j):
    # (q+1)/(q-1) = j exactly, but its float can round below j
    assert Exponents(q=(j + 1) / (j - 1)).ell == j + 1
    report = dispatch(run_spec(["lemma1", "--q", f"{j + 1}/{j - 1}"]))
    assert report.summary["max_rel_err"] <= 1e-8


def test_verdict_summary_line():
    report = dispatch(run_spec(["verdict", "--n", "1", "--q", "1.5"]))
    assert report.summary["verdict"] == "SubcriticalBlowup, q_c = 2"
    report = dispatch(run_spec(["verdict", "--n", "3", "--q", "4/3"]))
    assert report.summary["verdict"] == "CriticalBlowup, q_c = 4/3"
    report = dispatch(run_spec(["verdict", "--n", "2", "--q", "2"]))
    assert report.rows[0]["verdict"] == "SupercriticalNoConclusion"
    assert "stationary supersolutions" in report.rows[0]["note"]


def test_scaling_slope_summary():
    report = dispatch(run_spec(["scaling", "--target", "I4", "--q", "1.5", "--n", "1",
                                "--R", "8,16,32,64"]))
    assert report.summary["expected_slope"] == -2.0
    assert report.summary["slope_error"] <= 1e-4
    assert len(report.rows) == 4


def test_lemma2_bounded():
    report = dispatch(run_spec(["lemma2", "--n", "1", "--R", "1e3,1e5,1e7,1e9"]))
    assert report.summary["bounded_within_10"]
    assert len(report.rows) == 4
    assert -2.0 < report.summary["loglog_slope"] < 0.0


def test_bound_parabolic_ratios():
    report = dispatch(run_spec(["bound-parabolic", "--q", "1.5", "--n", "1",
                                "--T", "10", "--R", "8,16,32,64"]))
    assert report.summary["expected_doubling_ratio"] == pytest.approx(0.25)
    for row in report.rows[1:]:
        assert row["ratio_to_prev"] == pytest.approx(0.25, rel=0.01)
    assert abs(report.summary["slope"] - (-2.0)) < 1e-4


def test_emit_empty_rows_header_only():
    rep = Report({"a": 1}, ["x", "y"], [], {})
    assert emit(rep, "csv") == "x,y\n"


def test_json_round_trip_bit_exact():
    report = dispatch(run_spec(["lemma1", "--q", "1.5", "--ell", "6", "--T", "10,100"]))
    payload = json.loads(emit(report, "json"))
    for parsed, row in zip(payload["rows"], report.rows):
        for key, val in row.items():
            if isinstance(val, float):
                assert parsed[key] == val
    assert payload["summary"]["C2"] == report.summary["C2"]


def test_number_formatting_rules():
    assert format_number(0.0) == "0"
    assert format_number(0.5333333333333334) == "0.5333333333333334"
    assert format_number(123456.789) == "123456.789"
    small = format_number(9.9e-5)
    assert "e" in small and float(small) == 9.9e-5
    big = format_number(2.5e7)
    assert "e" in big and float(big) == 2.5e7
    inside_low = format_number(1e-4)
    assert "e" not in inside_low and float(inside_low) == 1e-4
    assert format_number(7) == "7"
    assert format_number(True) == "True"
    # round trip is bit exact on awkward values
    for v in (1 / 3, 2.2250738585072014e-308, 1.7976931348623157e308, -0.1):
        assert float(format_number(v)) == v


def test_deterministic_reports():
    argv = ["residual", "--q", "2", "--seed", "5", "--samples", "20000", "--format", "json"]
    a = emit(dispatch(run_spec(argv)), "json")
    b = emit(dispatch(run_spec(argv)), "json")
    assert a == b


def test_exit_codes(tmp_path, capsys):
    assert main(["verdict", "--n", "1", "--q", "1.5", "--out", str(tmp_path / "v.csv")]) == 0
    assert main(["lemma1", "--q", "2", "--ell", "2", "--T", "10"]) == 2
    err = capsys.readouterr().err
    assert "ell must exceed (q+1)/(q-1)" in err
    assert main(["verdict", "--n", "1", "--q", "zebra"]) == 2
    # a CG solve out of iterations exits 3 (after emitting the report); grids of
    # at most 4096 interior unknowns are solved directly and have no budget
    cfg = {
        "equation": "parabolic", "q": 1.5, "nonlinearity": True,
        "dt": 0.01, "steps": 3, "blowup_threshold": 1e6,
        "solver_tol": 1e-14, "solver_max_iter": 1,
        "grid": {"l_x": 3.0, "l_y": 3.0, "l_tau": 9.0, "n_x": 9, "n_y": 9, "n_tau": 9},
        "initial": {"center": [0, 0, 0], "width": 1.0, "amplitude": 5.0},
    }
    path = tmp_path / "cfg.json"
    for nodes, code in ((9, 0), (19, 3)):
        cfg["grid"].update(n_x=nodes, n_y=nodes, n_tau=nodes)
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"trace{nodes}.csv"
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == code
        assert out.exists()
    assert main(["simulate", "--config", str(tmp_path / "missing.json")]) == 2


def test_scaling_accepts_n2(tmp_path):
    out = tmp_path / "scaling.json"
    assert main(["scaling", "--target", "I4", "--q", "6/5", "--n", "2",
                 "--format", "json", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary["expected_slope"] == pytest.approx(-6.0)
    assert summary["slope_error"] <= 1e-4


def test_malformed_source_date_epoch_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "abc")
    assert main(["verdict", "--n", "1", "--q", "1.5"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "SOURCE_DATE_EPOCH" in err


def test_malformed_source_date_epoch_before_start_up_exits_2(child_env):
    # set before the interpreter starts, the value is also seen while scipy loads
    proc = subprocess.run([sys.executable, "-m", "heislab.cli", "verdict", "--n", "1", "--q", "1.5"],
                          env={**child_env, "SOURCE_DATE_EPOCH": "abc"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1 and "SOURCE_DATE_EPOCH" in proc.stderr


BAD_BUMPS = {
    "zero_width": ("initial", "width", 0),
    "negative_width": ("initial", "width", -1.0),
    "nan_width": ("initial", "width", float("nan")),
    "inf_amplitude": ("initial", "amplitude", float("inf")),
    "text_amplitude": ("initial", "amplitude", "big"),
    "short_center": ("initial", "center", [0, 0]),
    "nan_center": ("initial", "center", [0, float("nan"), 0]),
    "text_center": ("initial", "center", "abc"),
    "velocity_width": ("initial_velocity", "width", 0.0),
}


@pytest.mark.parametrize("where", ["config", "grid", "initial", "missing", "null", *BAD_BUMPS])
def test_simulate_bad_config_keys_exit_2(tmp_path, capsys, where):
    cfg = {
        "equation": "parabolic", "q": 1.5, "nonlinearity": True, "dt": 0.01, "steps": 3,
        "grid": {"l_x": 3.0, "l_y": 3.0, "l_tau": 9.0, "n_x": 9, "n_y": 9, "n_tau": 9},
        "initial": {"center": [0, 0, 0], "width": 1.0, "amplitude": 1.0},
    }
    if where == "missing":
        del cfg["steps"]
        word = "steps"
    elif where == "null":
        cfg["initial"] = None
        word = "initial"
    elif where in BAD_BUMPS:
        bump, word, value = BAD_BUMPS[where]
        cfg["equation"] = "hyperbolic"
        cfg[bump] = dict(cfg["initial"], **{word: value})
    else:
        (cfg if where == "config" else cfg[where])["bogus"] = 1
        word = "bogus"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and word in err


@pytest.mark.parametrize("equation", ["parabolic", "hyperbolic"])
def test_simulate_initial_overflow_exits_2(tmp_path, capsys, equation):
    cfg = {
        "equation": equation, "q": 1.5, "nonlinearity": True, "dt": 0.005, "steps": 5,
        "grid": {"l_x": 3.0, "l_y": 3.0, "l_tau": 9.0, "n_x": 7, "n_y": 7, "n_tau": 7},
        "initial": {"center": [0, 0, 0], "width": 1.0, "amplitude": 1e300},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "floating-point range" in captured.err


def test_simulate_blowup_exits_zero(tmp_path):
    cfg = {
        "equation": "parabolic", "q": 1.5, "nonlinearity": True,
        "dt": 0.005, "steps": 600, "blowup_threshold": 1e4,
        "solver_tol": 1e-10, "solver_max_iter": 5000,
        "grid": {"l_x": 3.0, "l_y": 3.0, "l_tau": 9.0, "n_x": 13, "n_y": 13, "n_tau": 13},
        "initial": {"center": [0, 0, 0], "width": 1.0, "amplitude": 20.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "trace.json"
    assert main(["simulate", "--config", str(path), "--format", "json",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["summary"]["status"] == "blowup_threshold"
    assert payload["rows"][0]["step"] == 0


def test_identities_subcommand():
    report = dispatch(run_spec(["identities", "--samples", "40000"]))
    assert report.summary["all_pass"]
    names = {r["identity"] for r in report.rows}
    assert {"commutator_XY_minus4", "left_invariance", "radial_identity"} <= names


def test_residual_subcommand():
    report = dispatch(run_spec(["residual", "--q", "2", "--samples", "40000", "--seed", "5"]))
    assert report.summary["all_within_3sigma"]
    cases = [r["case"] for r in report.rows]
    assert cases == ["zero_parabolic", "zero_hyperbolic",
                     "manufactured_parabolic", "manufactured_hyperbolic"]
    zero_rows = report.rows[:2]
    assert all(r["residual"] == 0.0 for r in zero_rows)


@pytest.mark.parametrize("n", ["0", "2", "3"])
def test_residual_rejects_n_other_than_1(capsys, n):
    # residual evaluates n = 1 points, bumps and boxes only
    assert main(["residual", "--n", n, "--samples", "2000"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "n = 1" in err


@pytest.mark.parametrize("sub", ["residual", "identities"])
def test_zero_samples_is_a_parameter_error(capsys, sub):
    # --samples 0 used to select the subcommand's default budget
    assert main([sub, "--samples", "0"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_dispatch_roundtrip_runspec():
    spec = run_spec(["lemma1", "--q", "2", "--T", "10"])
    assert isinstance(spec, RunSpec)
    assert spec.subcommand == "lemma1"
    assert spec.fmt == "csv"


# --- exit-code contract: 0, 2 or 3, never a traceback; exit 2 prints one stderr line

def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def bump_strategy():
    return st.fixed_dictionaries({
        "center": st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        "width": st.floats(0.2, 3.0),
        "amplitude": st.floats(-50.0, 50.0),
    })


SIM_CONFIG = st.fixed_dictionaries({
    "equation": st.sampled_from(["parabolic", "hyperbolic"]),
    "q": st.floats(1.1, 3.0),
    "nonlinearity": st.booleans(),
    "dt": st.floats(1e-3, 0.05),
    "steps": st.integers(1, 5),
    "grid": st.fixed_dictionaries({
        "l_x": st.floats(0.5, 4.0), "l_y": st.floats(0.5, 4.0), "l_tau": st.floats(0.5, 9.0),
        "n_x": st.integers(3, 9), "n_y": st.integers(3, 9), "n_tau": st.integers(3, 9),
    }),
    "initial": bump_strategy(),
}, optional={
    "initial_velocity": st.none() | bump_strategy(),
    "blowup_threshold": st.floats(1.0, 1e8),
    "solver_tol": st.floats(1e-12, 1e-4),
    "solver_max_iter": st.none() | st.integers(1, 400),
    "regularization_eps": st.floats(0.0, 1.0),
    "n": st.just(1),
})

# JSON values a config may carry in any place
BAD_VALUES = st.sampled_from([0, -1, 2.5, 10**400, float("nan"), float("inf"), -float("inf"),
                              True, None, "x", "", [], [1, 2], {}, {"a": 1}])


@st.composite
def mutated_configs(draw):
    """A valid config, then some keys replaced by stray values, removed or added."""
    cfg = draw(SIM_CONFIG)
    for section, action in draw(st.lists(st.tuples(st.sampled_from(["config", "grid", "initial"]),
                                                   st.sampled_from(["replace", "remove", "add"])),
                                         min_size=1, max_size=3)):
        target = cfg if section == "config" else cfg.get(section)
        if not isinstance(target, dict) or not target:
            continue
        key = draw(st.sampled_from(sorted(target)))
        if action == "remove":
            del target[key]
        else:
            target[key if action == "replace" else "extra"] = draw(BAD_VALUES)
    return cfg


@settings(max_examples=150)
@given(SIM_CONFIG | mutated_configs())
def test_simulate_exit_code_contract(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_main(["simulate", "--config", str(path), "--out", str(Path(tmp) / "t.csv")])
    assert code in (0, 2, 3) and "Traceback" not in err
    assert code != 2 or err.count("\n") == 1, err


@settings(max_examples=60)
@example(n=1, q="1e400", samples=100)  # beyond float range: used to raise OverflowError
@given(n=st.sampled_from([1, 1, 1, 0, 2, -1]),
       q=st.one_of(st.fractions("11/10", 4).map(str), st.floats().map(repr),
                   st.sampled_from(["2", "3/2", "1", "0", "-2", "1/0", "1e400", "abc", ""])),
       samples=st.integers(-5, 2000))
def test_residual_exit_code_contract(n, q, samples):
    code, _, err = run_main(["residual", f"--n={n}", f"--q={q}", f"--samples={samples}"])
    assert code in (0, 2, 3) and "Traceback" not in err
    assert code != 2 or err.count("\n") == 1, err


CAPACITY_QS = ["1.00001", "1.0001", "1.001", "1.01", "1.1", "4/3", "3/2", "2", "3", "5"]
# an exponent or a norm beyond float range, or close to its edge
EXTREMES = ["inf", "nan", "1e300", "1e308"]


def log_grid(lo, hi):
    """1-5 comma-separated values spread over the decades 10^lo .. 10^hi."""
    return st.lists(st.floats(lo, hi).map(lambda x: repr(10.0**x)), min_size=1, max_size=5).map(",".join)


@st.composite
def capacity_argv(draw):
    sub = draw(st.sampled_from(["lemma1", "lemma2", "scaling", "bound-parabolic", "bound-hyperbolic"]))
    argv = [sub, f"--n={draw(st.sampled_from([1, 2, 3]))}"]
    if sub != "lemma2" or draw(st.booleans()):  # lemma2 defaults to the critical q
        argv.append(f"--q={draw(st.sampled_from(CAPACITY_QS))}")
    if sub == "scaling":
        argv.append(f"--target={draw(st.sampled_from(['I1', 'I2', 'I3', 'I4']))}")
    if sub != "lemma2":
        argv.append(f"--T={draw(log_grid(-3, 6))}")
    if sub != "lemma1":
        argv.append(f"--R={draw(log_grid(-3, 9))}")
    for flag in ("ell", "kappa"):
        value = draw(st.sampled_from([None, None, None, *EXTREMES]))
        if value is not None:
            argv.append(f"--{flag}={value}")
    norm = st.floats(0.0, 5.0).map(repr) | st.sampled_from(EXTREMES)
    if sub.startswith("bound-"):
        argv.append(f"--u0-norm={draw(norm)}")
    if sub == "bound-hyperbolic":
        argv.append(f"--u1-norm={draw(norm)}")
    return argv


def non_finite_paths(obj, path=()):
    """Paths of the NaN and infinite numbers in a parsed JSON report."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [path]
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    return [p for key, value in items for p in non_finite_paths(value, path + (key,))]


@settings(max_examples=100)
@example(argv=["lemma1", "--n", "2", "--q", "1.01", "--T", "27232"])  # used to raise ZeroDivisionError
# these used to exit 0 with NaN or Infinity in the report
@example(argv=["bound-parabolic", "--ell", "inf"])
@example(argv=["lemma2", "--kappa", "inf"])
@example(argv=["lemma2", "--kappa", "1e300"])
@example(argv=["scaling", "--target", "I1", "--ell", "1e300"])
@example(argv=["bound-hyperbolic", "--u0-norm", "inf"])
@example(argv=["bound-hyperbolic", "--u1-norm", "nan"])
@example(argv=["bound-parabolic", "--u0-norm", "1e308"])
@example(argv=["bound-parabolic", "--q", "1.05", "--R", "1e7,1e-2"])  # ratio_to_prev Infinity
@example(argv=["bound-parabolic", "--q", "1.01", "--R", "1e9,1e8"])  # bounds underflow to 0, ratio NaN
@example(argv=["bound-parabolic", "--q", "1.1", "--T", "1", "--R", "1,1,1,1"])  # used to raise LinAlgError
@given(argv=capacity_argv())
def test_capacity_exit_code_contract(argv):
    code, out, err = run_main([*argv, "--format=json"])
    assert code in (0, 2) and "Traceback" not in err
    assert code != 2 or err.count("\n") == 1, err
    if code == 0:
        # the first bound has no predecessor, so its ratio_to_prev is NaN by design
        assert set(non_finite_paths(json.loads(out))) <= {("rows", 0, "ratio_to_prev")}


# empty grids used to raise IndexError (bound-*, residual) or ValueError (lemma2);
# a non-finite one used to exit 0 with inf/nan rows
@pytest.mark.parametrize("argv", [["bound-parabolic", "--T", ""], ["residual", "--R", ""],
                                  ["lemma2", "--R", ""], ["bound-parabolic", "--q", "3/2", "--R", "inf"],
                                  ["bound-hyperbolic", "--T", "nan"]])
def test_empty_or_non_finite_grid_exits_2(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "grid" in err


@pytest.mark.parametrize("config, argv", [
    (b"{", ["simulate", "--config", "{tmp}/cfg.json"]),
    (b'{"equation": "\xff"}', ["simulate", "--config", "{tmp}/cfg.json"]),
    (b"{}", ["simulate", "--config", "{tmp}"]),
    (b"{}", ["verdict", "--out", "{tmp}/missing/verdict.csv"]),
    (b"{}", ["verdict", "--out", "{tmp}"]),
], ids=["malformed_json", "not_utf8", "config_is_dir", "out_dir_missing", "out_is_dir"])
def test_config_and_output_io_errors_exit_2(tmp_path, capsys, config, argv):
    # each used to exit 1 with a traceback
    (tmp_path / "cfg.json").write_bytes(config)
    assert main([arg.format(tmp=tmp_path) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_vacuous_residual_exits_2(capsys):
    # q so close to 1 that phi1 = (1 - t/T)^ell underflows at every Gauss node
    assert main(["residual", "--q", "1.0000000001", "--samples", "500"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "phi1" in err
