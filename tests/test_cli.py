import contextlib
import io
import json
import math
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heislab import cli, cutoffs, errors, mc, weak_form
from heislab.capacity import Exponents
from heislab.cli import build_parser, dispatch, main
from heislab.report import Report, emit, format_number
from heislab.simulate import SimConfig


@pytest.fixture(autouse=True)
def pinned_timestamp(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def run_spec(argv):
    return build_parser().parse_args(argv)


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
    # at most 2744 interior unknowns (16^3 nodes) are solved directly and have no budget
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


def test_scaling_accepts_n_beyond_171(capsys):
    # Gamma(172) leaves float range while S_omega stays finite, which used to exit 2 with
    # "math range error"
    assert main(["scaling", "--target", "I4", "--q", "3", "--n", "172", "--R", "1,1.5,2,2.5",
                 "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["slope_error"] <= 1e-12


def test_scaling_refuses_a_subnormal_sphere_constant(capsys):
    # S_omega(1.5) is subnormal from n = 219 to 227, and its lost digits reached the fit:
    # n = 224 exited 0 with slope_error 1.8e-4
    argv = ["scaling", "--target", "I4", "--q", "3", "--R", "1,1.5,2,2.5", "--format", "json"]
    assert main([*argv, "--n", "224"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "S_omega underflows below the normal floats at n = 224, s = 1.5" in err
    assert main([*argv, "--n", "200"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["slope_error"] <= 1e-12


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


@pytest.mark.parametrize("command", ["bound-parabolic", "simulate"])
def test_malformed_source_date_epoch_exits_2_in_commands_that_load_scipy(tmp_path, child_env, command):
    # simulate loads scipy.sparse, whose numpy.f2py raises on the value at import; bound-parabolic
    # loads no scipy since its quadrature is heislab's own, and must exit 2 all the same
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_sim_config()))
    argv = {"bound-parabolic": ["--n", "1", "--q", "1.5"], "simulate": ["--config", str(path)]}[command]
    proc = subprocess.run([sys.executable, "-m", "heislab.cli", command, *argv],
                          env={**child_env, "SOURCE_DATE_EPOCH": "abc"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1 and "SOURCE_DATE_EPOCH" in proc.stderr


# Run in one fresh interpreter: the heislab modules that `import heislab.cli` loads, and the
# scipy modules loaded after it and after each command run in turn by cli.main
IMPORT_PROBE = """
import contextlib, io, json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import heislab.cli
loaded = {"heislab": sorted(m for m in sys.modules if m.startswith("heislab.")),
          "heislab.cli": scipy_modules()}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert heislab.cli.main(argv) == 0, argv
    loaded[argv[0]] = scipy_modules()
print(json.dumps(loaded))
"""


def test_commands_load_only_the_scipy_they_use(tmp_path, child_env, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    from spans import LAYERS

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(small_sim_config()))
    capacity = [["bound-parabolic", "--q", "1.5"], ["bound-hyperbolic", "--q", "2"], ["lemma1"],
                ["lemma2"], ["scaling", "--target", "I4", "--q", "1.5"]]
    commands = [["verdict", "--n", "1", "--q", "1.5"], ["residual", "--samples", "1024"],
                ["identities", "--samples", "2000"], *capacity, ["simulate", "--config", str(path)]]
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, json.dumps(commands)],
                          env={**child_env, "SOURCE_DATE_EPOCH": "0"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    # the span tracer wraps every layer module it finds in sys.modules after this import
    assert {f"heislab.{layer}" for layer in LAYERS} <= set(loaded["heislab"])
    for stage in ("heislab.cli", "verdict", "residual", "identities", *(argv[0] for argv in capacity)):
        assert loaded[stage] == [], stage
    assert "scipy.sparse" in loaded["simulate"] and "scipy.integrate" not in loaded["simulate"]


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
# solver settings the solver cannot honour: a tolerance outside (0, 1), a budget below
# one iteration; and a regularisation weight, which is no config key at all
BAD_SOLVER = {
    "tol_two": ("solver_tol", 2.0),
    "tol_negative": ("solver_tol", -1e-10),
    "tol_zero": ("solver_tol", 0),
    "max_iter_negative": ("solver_max_iter", -1),
    "max_iter_zero": ("solver_max_iter", 0),
    "eps_unknown": ("regularization_eps", 0.0),
}


def small_sim_config():
    return {
        "equation": "parabolic", "q": 1.5, "nonlinearity": True, "dt": 0.01, "steps": 3,
        "grid": {"l_x": 3.0, "l_y": 3.0, "l_tau": 9.0, "n_x": 9, "n_y": 9, "n_tau": 9},
        "initial": {"center": [0, 0, 0], "width": 1.0, "amplitude": 1.0},
    }


@pytest.mark.parametrize("where", ["config", "grid", "initial", "missing", "null", *BAD_BUMPS,
                                   *BAD_SOLVER, "parabolic_velocity"])
def test_simulate_bad_config_keys_exit_2(tmp_path, capsys, where):
    cfg = small_sim_config()
    if where == "parabolic_velocity":  # the first-order equation takes no initial velocity
        cfg["initial_velocity"] = dict(cfg["initial"])
        word = "initial_velocity"
    elif where == "missing":
        del cfg["steps"]
        word = "steps"
    elif where == "null":
        cfg["initial"] = None
        word = "initial"
    elif where in BAD_BUMPS:
        bump, word, value = BAD_BUMPS[where]
        cfg["equation"] = "hyperbolic"
        cfg[bump] = dict(cfg["initial"], **{word: value})
    elif where in BAD_SOLVER:
        word, value = BAD_SOLVER[where]
        cfg[word] = value
    else:
        (cfg if where == "config" else cfg[where])["bogus"] = 1
        word = "bogus"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and word in err
    assert where != "parabolic_velocity" or "hyperbolic" in err


def test_simulate_parabolic_null_initial_velocity_runs(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**small_sim_config(), "initial_velocity": None}))
    assert main(["simulate", "--config", str(path)]) == 0
    assert capsys.readouterr().err == ""


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
    # the weak-side columns (lhs, rhs, residual, stderr) are summed pairwise, one
    # contiguous column at a time; the oracle columns are those of the one-column blocks
    pinned = {
        "manufactured_parabolic": (4.127248502970294, -2.070345994423902, 6.1975944973941965,
                                   0.13560573239897186, 6.1621201494237425, 0.24002604131341124),
        "manufactured_hyperbolic": (2.561362769602834, -3.1055189916358534, 5.666881761238687,
                                    0.14094205217833614, 5.505944297495693, 0.6507593683745904),
    }
    keys = ("lhs", "rhs", "residual", "stderr", "oracle", "oracle_stderr")
    for row in report.rows[2:]:
        assert tuple(row[k] for k in keys) == pinned[row["case"]]


# two seeds of the perfbench pool at its two budgets: a -0.0 would pass an equality with 0.0
@pytest.mark.parametrize("seed", ["2068752955", "1921896644"])
@pytest.mark.parametrize("samples", ["1024", "16384"])
def test_zero_candidate_rows_are_positive_zero(seed, samples):
    report = dispatch(run_spec(["residual", "--q", "2", "--seed", seed, "--samples", samples]))
    for row in report.rows[:2]:
        assert row["case"].startswith("zero_")
        for key in ("lhs", "rhs", "residual", "stderr", "gap"):
            assert math.copysign(1.0, row[key]) == 1.0 and row[key] == 0.0, (row["case"], key, row[key])


def test_residual_makes_one_pass_per_sample_set(monkeypatch):
    # 3,000 weak-form and 6,000 oracle samples in chunks of 1,024: 3 and 6 chunks
    monkeypatch.setattr(mc, "CHUNK", 1024)
    calls = {}
    for owner, name in ((weak_form, "mc_integrate_vector"), (cutoffs.ProductTestFunction, "spatial"),
                        (cutoffs.ProductTestFunction, "value"), (cutoffs.GaugeBump, "spatial")):
        def counted(*args, _key=f"{owner.__name__}.{name}", _fn=getattr(owner, name), **kwargs):
            calls[_key] = calls.get(_key, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    report = dispatch(run_spec(["residual", "--q", "2", "--samples", "3000", "--seed", "5"]))
    assert len(report.rows) == 4
    # the oracle pass reads phi2 alone
    assert calls == {"heislab.weak_form.mc_integrate_vector": 2, "ProductTestFunction.spatial": 3,
                     "ProductTestFunction.value": 6, "GaugeBump.spatial": 3 + 6}


def test_residual_at_small_radius_pairs_a_manufactured_candidate():
    # the candidate's bump is dilated with R, so it overlaps the test function's support
    report = dispatch(run_spec(["residual", "--q", "2", "--R", "0.1", "--samples", "2000"]))
    for row in report.rows[2:]:
        assert row["lhs"] != 0.0 and row["oracle"] != 0.0, row


def test_near_critical_q_is_not_critical():
    # the bound and the verdict agree: q_c + 1e-13 is supercritical, not critical
    report = dispatch(run_spec(["bound-parabolic", "--q", "2.0000000000001"]))
    assert report.summary["critical"] is False
    verdict = dispatch(run_spec(["verdict", "--q", "2.0000000000001"]))
    assert verdict.rows[0]["verdict"] == "SupercriticalNoConclusion"


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


# each used to exit 0, echoed in meta.params although no handler reads it
@pytest.mark.parametrize("argv", [
    ["lemma1", "--seed", "3"],
    ["lemma2", "--samples", "10"],
    ["scaling", "--target", "I1", "--seed", "3"],
    ["bound-parabolic", "--samples", "10"],
    ["bound-hyperbolic", "--seed", "3"],
    ["simulate", "--config", "{cfg}", "--samples", "10"],
    ["verdict", "--kappa", "7"],
    ["identities", "--samples", "2000", "--q", "0.5"],
    # exponents the report does not depend on: validated, echoed and then ignored
    pytest.param(["lemma1", "--n", "2"], id="lemma1-n"),
    pytest.param(["lemma1", "--kappa", "7"], id="lemma1-kappa"),
    pytest.param(["lemma2", "--q", "2"], id="lemma2-q"),
    pytest.param(["lemma2", "--ell", "4"], id="lemma2-ell"),
    pytest.param(["scaling", "--target", "I4", "--kappa", "7"], id="scaling-kappa"),
    pytest.param(["residual", "--kappa", "7", "--samples", "2000"], id="residual-kappa"),
], ids=lambda argv: argv[0])
def test_unread_options_exit_2(tmp_path, capsys, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "equation": "parabolic", "q": 1.5, "dt": 0.005, "steps": 1,
        "grid": {"l_x": 3.0, "l_y": 3.0, "l_tau": 9.0, "n_x": 7, "n_y": 7, "n_tau": 7},
        "initial": {"center": [0, 0, 0], "width": 1.0, "amplitude": 1.0},
    }))
    with pytest.raises(SystemExit) as exc:
        main([arg.format(cfg=cfg) for arg in argv])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# --- exit-code contract: 0, 2 or 3, never a traceback; exit 2 prints one stderr line

def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def log_uniform(lo=-300.0, hi=300.0):
    """Magnitudes spread evenly over the decades 10^lo .. 10^hi."""
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def bump_strategy():
    coordinate = st.floats(-3.0, 3.0) | st.tuples(st.sampled_from([-1.0, 1.0]), log_uniform()).map(
        lambda t: t[0] * t[1])
    return st.fixed_dictionaries({
        "center": st.lists(coordinate, min_size=3, max_size=3),
        "width": st.floats(0.2, 3.0) | log_uniform(),
        "amplitude": st.floats(-50.0, 50.0),
    })


# a width or centre coordinate whose squares, before they are scaled by the width, leave
# float range: the bump is evaluated outside the floating-point guard of the run
EXTREME_BUMPS = {"narrow": {"width": 1e-200}, "far": {"center": [1e200, 0.2, 0.3]},
                 "wide": {"width": 1e200}}


def extreme_bump_config(name):
    cfg = small_sim_config()
    cfg["grid"].update(n_x=7, n_y=7, n_tau=7)
    cfg["initial"] = {"center": [0.1, 0.2, 0.3], "width": 1.0, "amplitude": 5.0, **EXTREME_BUMPS[name]}
    return cfg


# box sizes whose grid operator leaves float range (1/h^2 is not a normal float, or a row
# sum of |L_h| overflows, so -L_h u does for data of size 1): an LU solve of such an operator
# raised 'Factor is exactly singular', a CG run reported a blow-up at step 1
BAD_BOXES = {f"{key}={value}": {key: float(value)} for key, values in (
    ("l_x", ("1e155", "1e200", "1e300", "1e-155", "1e-200", "1e-320")),
    ("l_y", ("1e155", "1e200", "1e300", "1e-155", "1e-200", "1e-320")),
    ("l_tau", ("1e-153", "1e-155", "1e-200", "1e-320"))) for value in values}
BAD_BOXES["l_y=1e100,l_tau=1e-100"] = {"l_y": 1e100, "l_tau": 1e-100}
# boxes whose cell volume h_x h_y h_tau leaves float range, or times the interior node count
# overflows: the Lq norm of data of size 1 read Infinity (a claimed blow-up) or 0
for value in ("1e150", "1e-150"):
    BAD_BOXES[f"l_x=l_y=l_tau={value}"] = dict.fromkeys(("l_x", "l_y", "l_tau"), float(value))
BAD_BOXES["l_x=l_y=1e120,l_tau=1e100"] = {"l_x": 1e120, "l_y": 1e120, "l_tau": 1e100}


def box_config(box, nodes=5):
    cfg = {**small_sim_config(), "dt": 5e-3}
    cfg["grid"].update(box, n_x=nodes, n_y=nodes, n_tau=nodes)
    return cfg


@pytest.mark.parametrize("nodes", [5, 19])
@pytest.mark.parametrize("box", sorted(BAD_BOXES))
def test_simulate_box_beyond_float_range_exits_2(tmp_path, capsys, box, nodes):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(box_config(BAD_BOXES[box], nodes)))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and all(key in err for key in BAD_BOXES[box]), err


SIM_CONFIG = st.fixed_dictionaries({
    "equation": st.sampled_from(["parabolic", "hyperbolic"]),
    "q": st.floats(1.1, 3.0),
    "nonlinearity": st.booleans(),
    "dt": st.floats(1e-3, 0.05),
    "steps": st.integers(1, 5),
    "grid": st.fixed_dictionaries({
        "l_x": st.floats(0.5, 4.0) | log_uniform(), "l_y": st.floats(0.5, 4.0) | log_uniform(),
        "l_tau": st.floats(0.5, 9.0) | log_uniform(),
        "n_x": st.integers(3, 9), "n_y": st.integers(3, 9), "n_tau": st.integers(3, 9),
    }),
    "initial": bump_strategy(),
}, optional={
    "initial_velocity": st.none() | bump_strategy(),
    "blowup_threshold": st.floats(1.0, 1e8),
    "solver_tol": st.floats(1e-12, 1e-4),
    "solver_max_iter": st.none() | st.integers(1, 400),
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


@settings(max_examples=3 * settings().max_examples)
@example(extreme_bump_config("narrow"))
@example(extreme_bump_config("far"))
@example(extreme_bump_config("wide"))
@example(box_config({"l_x": 1e160}))  # both used to raise through main
@example(box_config({"l_y": 1e100, "l_tau": 1e-100}))
@example(box_config(dict.fromkeys(("l_x", "l_y", "l_tau"), 1e150)))  # used to report lq_norm Infinity
@given(SIM_CONFIG | mutated_configs())
def test_simulate_exit_code_contract(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.json", Path(tmp) / "t.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_main(["simulate", "--config", str(path), "--format", "json", "--out", str(out)])
        report = json.loads(out.read_text()) if code in (0, 3) else None
    assert code in (0, 2, 3) and "Traceback" not in err
    assert code != 2 or err.count("\n") == 1, err
    if report is not None:
        assert non_finite_paths(report) == []


@pytest.mark.parametrize("name", sorted(EXTREME_BUMPS))
def test_simulate_extreme_bump_is_its_limit_field(tmp_path, name):
    # a vanishing width or a far centre leaves no mass on the grid; a huge width is flat
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(extreme_bump_config(name)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run_main(["simulate", "--config", str(path), "--format", "json",
                                 "--out", str(tmp_path / "t.json")])
    assert (code, err) == (0, "")
    first = json.loads((tmp_path / "t.json").read_text())["rows"][0]
    assert first["max_norm"] == (5.0 if name == "wide" else 0.0)


@settings(max_examples=6 * settings().max_examples // 5)
@example(n=1, q="1e400", samples=100, R=3.0, T=2.0)  # beyond float range: used to raise OverflowError
@example(n=1, q="2", samples=200, R=1e-100, T=2.0)  # used to exit 0 with NaN rows
@example(n=1, q="2", samples=200, R=3.0, T=1e-153)  # ell(ell-1)/T^2 used to overflow to inf
@example(n=1, q="2", samples=200, R=3.0, T=1e4)  # beyond the time rule: used to exit 0 with wrong rows
@example(n=1, q="2", samples=200, R=3.0, T=4e6)  # used to blame --samples for an underflowed oracle
@given(n=st.sampled_from([1, 1, 1, 0, 2, -1]),
       q=st.one_of(st.fractions("11/10", 4).map(str), st.floats().map(repr),
                   st.sampled_from(["2", "3/2", "1", "0", "-2", "1/0", "1e400", "abc", ""])),
       samples=st.integers(-5, 2000), R=log_uniform(-200.0, 200.0), T=log_uniform(-200.0, 200.0))
def test_residual_exit_code_contract(n, q, samples, R, T):
    code, out, err = run_main(["residual", f"--n={n}", f"--q={q}", f"--samples={samples}",
                               f"--R={R!r}", f"--T={T!r}", "--format=json"])
    assert code in (0, 2, 3) and "Traceback" not in err
    assert code != 2 or err.count("\n") == 1, err
    if code == 0:
        assert non_finite_paths(json.loads(out)) == []


CAPACITY_QS = ["1.00001", "1.0001", "1.001", "1.01", "1.1", "4/3", "3/2", "2", "3", "5"]
# an exponent or a norm beyond float range, or close to its edge
EXTREMES = ["inf", "nan", "1e300", "1e308"]


def log_grid(lo, hi):
    """1-5 comma-separated values spread over the decades 10^lo .. 10^hi."""
    return st.lists(st.floats(lo, hi).map(lambda x: repr(10.0**x)), min_size=1, max_size=5).map(",".join)


# the exponent options each capacity subcommand takes (lemma2's q is the critical one)
EXPONENT_OPTIONS = {"lemma1": ("q", "ell"), "lemma2": ("n", "kappa"), "scaling": ("q", "n", "ell"),
                    "bound-parabolic": ("q", "n", "ell", "kappa"),
                    "bound-hyperbolic": ("q", "n", "ell", "kappa")}


@st.composite
def capacity_argv(draw):
    sub = draw(st.sampled_from(list(EXPONENT_OPTIONS)))
    options = EXPONENT_OPTIONS[sub]
    argv = [sub]
    if "n" in options:
        argv.append(f"--n={draw(st.sampled_from([1, 2, 3]))}")
    if "q" in options:
        argv.append(f"--q={draw(st.sampled_from(CAPACITY_QS))}")
    if sub == "scaling":
        argv.append(f"--target={draw(st.sampled_from(['I1', 'I2', 'I3', 'I4']))}")
    if sub != "lemma2":
        argv.append(f"--T={draw(log_grid(-3, 6))}")
    if sub != "lemma1":
        argv.append(f"--R={draw(log_grid(-3, 9))}")
    for flag in ("ell", "kappa"):
        if flag not in options:
            continue
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


@settings(max_examples=2 * settings().max_examples)
@example(argv=["lemma1", "--q", "1.01", "--T", "27232"])  # used to raise ZeroDivisionError
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
# the bound overflows its envelope quotient at q_c: used to report a NaN envelope_quotient_spread
@example(argv=["bound-hyperbolic", "--n=2", "--q=3/2", "--T=1000", "--R=10", "--u0-norm=1e308", "--u1-norm=0"])
# the closed-form time factors used to leave float range in T ** (1 - k q') and ell ** q'
@example(argv=["bound-hyperbolic", "--q", "1.5", "--T", "1e-155"])
@example(argv=["bound-parabolic", "--ell", "1e200"])
@example(argv=["bound-parabolic", "--q", "1.5", "--ell", "1e150"])
# the Gauss-Jacobi time rule's nodes rounded onto s = 0 here, and the substitution form is finite
@example(argv=["lemma1", "--q", "2", "--ell", "1e16"])
# S_omega times a finite radial integral leaves float range here
@example(argv=["scaling", "--target", "I4", "--q", "1.5", "--R", "1e-150,2e-150,4e-150,8e-150"])
@given(argv=capacity_argv())
def test_capacity_exit_code_contract(argv):
    code, out, err = run_main([*argv, "--format=json"])
    assert code in (0, 2) and "Traceback" not in err
    assert code != 2 or (err.count("\n") == 1 and "quadrature value or error" not in err), err
    assert "(34," not in err and "math range error" not in err, err
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


# each used to exit 0 and report the first value only
@pytest.mark.parametrize("argv, option", [
    (["bound-parabolic", "--q", "1.5", "--T", "5,10", "--R", "8,16"], "--T"),
    (["bound-hyperbolic", "--T", "5,10"], "--T"),
    (["residual", "--T", "1,2", "--samples", "2000"], "--T"),
    (["residual", "--R", "3,4", "--samples", "2000"], "--R"),
], ids=["bound-parabolic-T", "bound-hyperbolic-T", "residual-T", "residual-R"])
def test_single_value_option_given_a_grid_exits_2(capsys, argv, option):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{option} takes one value" in err


# R^2 leaves float range; these used to print Python's errno tuple or "float division by zero",
# and a subnormal R^2 (R = 1e-160) gave a NaN integrand and a message that did not name R
@pytest.mark.parametrize("grid, culprit", [("1e100,1e200,1e300,1.7e308", "R = 1e+200"),
                                           ("1e-300,1e-200,1e-100,1", "R = 1e-300"),
                                           ("1e-160,1e-155,1e-150,1", "R = 1e-160")])
def test_radius_squared_out_of_range_names_r(capsys, grid, culprit):
    assert main(["scaling", "--target", "I4", "--q", "1.5", "--R", grid]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "R^2" in err and culprit in err
    assert "(34," not in err and "division by zero" not in err


@pytest.mark.parametrize("argv", [["lemma2", "--kappa", "1e300", "--R", "1.5,10,1e5,1e300"],
                                  ["bound-parabolic", "--q", "2", "--kappa", "1e300",
                                   "--R", "1.5,10,1e5,1e300"]])
def test_critical_factor_underflow_names_kappa(capsys, argv):
    # at kappa = 1e10 Psi^kappa underflowed and both exited with a bare "float division by zero";
    # in logs that factor is finite (tests/test_capacity.py), but at 1e300 the rule's exponents
    # lie beyond floating-point range, and the message must still name kappa and the radius
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "kappa = 1e+300" in err and "R = 1.5" in err
    assert "division by zero" not in err


# each used to exit 2 with a bare "float division by zero" (a bound underflows to 0, and
# ratio_to_prev divides by it) or "math range error" (math.exp in a quadrature integrand)
@pytest.mark.parametrize("argv, culprit", [
    (["bound-parabolic", "--q", "1.05", "--R", "1e50,1e150"], "bound beyond floating-point range at R = 1e+50"),
    (["bound-parabolic", "--q", "1.01", "--R", "1e9,1e8"], "bound beyond floating-point range at R = 1e+09"),
    (["scaling", "--target", "I4", "--q", "1.5", "--R", "1e-153,1,2,3"],
     "radial integrand beyond floating-point range at q = 1.5, R = 1e-153"),
    (["scaling", "--target", "I4", "--q", "1.01"], "radial integrand beyond floating-point range at q = 1.01, R = 8"),
    (["lemma1", "--q", "1.5", "--T", "1e-155"], "time integrand beyond floating-point range at q = 1.5, T = 1e-155"),
    (["bound-parabolic", "--q", "1.5", "--T", "1e-155"],
     "time factor I2 beyond floating-point range at q = 1.5, T = 1e-155, ell = 6"),
    # float ** float reports only an errno tuple for these closed-form time factors
    (["bound-hyperbolic", "--q", "1.5", "--T", "1e-155"],
     "time factor I3 beyond floating-point range at q = 1.5, T = 1e-155, ell = 6"),
    # I3(T) = C_2 T^(-5) is finite at T = 1e-60, and the bound is not
    (["bound-hyperbolic", "--q", "1.5", "--T", "1e-60"], "bound beyond floating-point range at R = 8"),
    # scipy returns these non-finite without raising; they used to name no input
    (["lemma2", "--kappa", "1e300"], "radial quadrature beyond floating-point range at q = 2.0, kappa = 1e+300, R = 1000"),
    # six significant digits would name R = 1, a radius the user did not pass, and the
    # default kappa = 2q/(q-1) + 1 as 403, which it is not
    (["lemma2", "--n", "200", "--R", "1.0000001,2,3,4"],
     "radial integrand beyond floating-point range at q = 1.005, kappa = 403.0000000000085, R = 1.0000001"),
    (["lemma2", "--n", "200", "--kappa", "403.00001", "--R", "1.0000001,2,3,4"],
     "radial integrand beyond floating-point range at q = 1.005, kappa = 403.00001, R = 1.0000001"),
    # I1 and I2 are finite there, and I3 = C3 T^(-3) with C3 ~ ell^3 = 1e924 is not; both routes
    # overflow, and the substitution form, taken first, names the integrand
    (["lemma1", "--ell", "1e308"], "time integrand beyond floating-point range at q = 2.0, T = 10, ell = 1e+308"),
    # a = (ell - k) q' - ell/(q - 1) overflowed, so I3 came out 0.0 and the fit refused a nonpositive value
    (["scaling", "--target", "I3", "--ell", "1e308"],
     "time integrand beyond floating-point range at q = 2.0, T = 10, ell = 1e+308"),
    # a closed form that underflows to 0 used to divide lemma1's relative error by zero
    (["lemma1", "--q", "1.5", "--T", "1e200"], "time factor I2 underflows to 0 at q = 1.5, T = 1e+200, ell = 6"),
    (["lemma1", "--q", "1.5", "--T", "1e100"], "time factor I3 underflows to 0 at q = 1.5, T = 1e+100, ell = 6"),
    # the fit used to refuse it as "scaling fit needs positive values"
    (["scaling", "--target", "I2", "--q", "1.5", "--T", "1e10,1e100,1e200,1e300"],
     "time factor I2 underflows to 0 at q = 1.5, T = 1e+200, ell = 6"),
    # I2 = 2e-213 there, though T^(1 - q') = 27232^(-100) alone underflows; I3 = 1e-424 does underflow
    (["lemma1", "--q", "1.01", "--T", "27232"],
     "time factor I3 underflows to 0 at q = 1.01, T = 27232, ell = 202"),
    (["lemma1", "--q", "1.01", "--T", "1e6"], "time factor I2 underflows to 0 at q = 1.01, T = 1e+06, ell = 202"),
    # six significant digits would name ell = 6, an ell the user did not pass
    (["lemma1", "--q", "1.5", "--T", "1e-155", "--ell", "6.0000001"],
     "time integrand beyond floating-point range at q = 1.5, T = 1e-155, ell = 6.0000001"),
    (["bound-parabolic", "--q", "1.5", "--T", "1e-155", "--ell", "6.0000001"],
     "time factor I2 beyond floating-point range at q = 1.5, T = 1e-155, ell = 6.0000001"),
    (["lemma1", "--q", "1.5", "--T", "1e200", "--ell", "6.0000001"],
     "time factor I2 underflows to 0 at q = 1.5, T = 1e+200, ell = 6.0000001"),
    # the radial integral is finite and S_omega times it is not: the message named no input
    (["scaling", "--target", "I4", "--q", "1.5", "--R", "1e-150,2e-150,4e-150,8e-150"],
     "spatial integral beyond floating-point range at q = 1.5, R = 1e-150"),
    (["bound-parabolic", "--q", "1.5", "--R", "1e-150,2e-150"],
     "spatial integral beyond floating-point range at q = 1.5, R = 1e-150"),
    # pi^700 left float range and printed a bare errno tuple; S_omega itself underflows there
    (["scaling", "--target", "I4", "--q", "3", "--n", "700", "--R", "1,1.5,2,2.5"],
     "sphere constant S_omega underflows to 0 at n = 700, s = 1.5"),
], ids=["bound-underflow", "bound-underflow-first", "radial-tiny-R", "radial-q-near-1", "lemma1-tiny-T",
        "bound-tiny-T", "bound-hyperbolic-tiny-T", "bound-hyperbolic-overflow", "lemma2-huge-kappa",
        "lemma2-R-near-1", "lemma2-kappa-near-403",
        "lemma1-huge-ell", "scaling-I3-huge-ell", "lemma1-I2-underflow", "lemma1-I3-underflow",
        "scaling-I2-underflow",
        "lemma1-q-near-1-underflow", "lemma1-q-near-1-I2-underflow", "lemma1-tiny-T-ell-near-6",
        "bound-tiny-T-ell-near-6", "lemma1-I2-underflow-ell-near-6", "scaling-spatial-overflow",
        "bound-spatial-overflow", "scaling-sphere-underflow"])
def test_out_of_range_names_the_input(capsys, argv, culprit):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and culprit in err
    assert "division by zero" not in err and "math range error" not in err and "(34," not in err
    assert "quadrature value or error" not in err


# ell^(q') and ell(ell-1)/T^2 leave float range here, and each used to exit 2 although every time
# factor and bound is finite; formed in logs, the time factors stay finite
@pytest.mark.parametrize("argv", [["bound-parabolic", "--ell", "1e200"],
                                  ["bound-parabolic", "--q", "1.5", "--ell", "1e150"],
                                  ["lemma1", "--q", "2", "--ell", "1e100"],
                                  ["scaling", "--target", "I3", "--q", "1e6", "--ell", "1e200"],
                                  ["scaling", "--target", "I1", "--ell", "1.7e308"],
                                  ["scaling", "--target", "I2", "--ell", "1.7e308"]],
                         ids=["bound-huge-ell", "bound-huge-ell-q1.5", "lemma1-huge-ell-I3", "scaling-I3-huge-ell",
                              "scaling-I1-ell-near-float-max", "scaling-I2-ell-near-float-max"])
def test_huge_ell_time_factors_are_finite(capsys, argv):
    assert main([*argv, "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(non_finite_paths(report)) <= {("rows", 0, "ratio_to_prev")}
    if argv[0] == "scaling":
        assert report["summary"]["slope_error"] <= 1e-12
    if argv[0] == "lemma1":
        assert report["summary"]["max_rel_err"] <= 1e-12
        assert report["rows"][2]["value"] == pytest.approx(1e297, rel=1e-12)  # I3(10) = C3 / 10^3, C3 ~ ell^3


# C3 ~ 1e465 leaves float range where every row I_k(T) = C_k T^(1 - k q') is finite: the summary used to
# refuse it, and now gives its log10
@pytest.mark.parametrize("T", [None, "29.975"])
def test_lemma1_names_a_constant_beyond_float_range_by_its_log10(capsys, T):
    mpmath = pytest.importorskip("mpmath")
    assert main(["lemma1", "--q", "1.01", *(["--T", T] if T else []), "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)["summary"]
    assert {"C1", "C2", "log10_C3"} <= summary.keys() and "C3" not in summary
    with mpmath.workdps(30):
        q, ell = mpmath.mpf(1.01), mpmath.mpf(Exponents(q=1.01).ell)
        qp = q / (q - 1)
        want = mpmath.log10((q - 1) * (ell * (ell - 1)) ** qp / (ell * (q - 1) - q - 1))
        assert abs(summary["log10_C3"] - want) <= 1e-12 * want


# R^4 leaves float range in the residual's test function, bump and Monte Carlo box: R = 1e-100
# used to exit 0 with NaN rows and R = 1e100 with Python's errno tuple
@pytest.mark.parametrize("R", ["1e-100", "1e100"])
def test_residual_radius_out_of_range_names_r(capsys, R):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["residual", "--R", R, "--samples", "200"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"R^2 beyond floating-point range at R = {float(R):g}" in err
    assert "(34," not in err


def test_capacity_radius_is_not_bounded_by_the_residual_range():
    report = dispatch(run_spec(["scaling", "--target", "I4", "--q", "1.5", "--R", "1e80,1e90,1e100,1e110"]))
    assert all(math.isfinite(r["value"]) for r in report.rows)


ERROR_TYPES = [cls for cls in vars(errors).values() if isinstance(cls, type) and cls.__module__ == errors.__name__]


@pytest.mark.parametrize("error", ERROR_TYPES, ids=lambda cls: cls.__name__)
def test_every_error_type_maps_to_an_exit_code(monkeypatch, error):
    def fail(args):
        raise error("injected")

    monkeypatch.setattr(cli, "dispatch", fail)
    code, _, err = run_main(["verdict"])
    assert code in (2, 3) and err.count("\n") == 1 and "injected" in err and "Traceback" not in err


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


def test_young_constant_overflow_names_the_quantity(capsys):
    # C(q) = (q/4)^(1-q') / q' leaves float range at q = 1.001 (q' = 1001); the
    # message used to be Python's bare errno tuple
    assert main(["bound-parabolic", "--q", "1.001", "--R", "2,1.5"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Young constant C(q)" in err
    assert "Numerical result out of range" not in err and "(34," not in err


def test_parabolic_bound_needs_no_second_time_coefficient():
    # only d_t phi1 enters the parabolic bound; ell(ell-1)/T^2 overflows at
    # T = 1e200 and used to end the run with Python's bare errno tuple
    report = dispatch(run_spec(["bound-parabolic", "--q", "3/2", "--T", "1e200", "--R", "8,16"]))
    assert [f"{r['bound']:.4g}" for r in report.rows] == ["6.578e+206", "1.645e+206"]


def test_hyperbolic_bound_at_huge_T_equals_the_parabolic():
    # the bounds take I_k(T) in closed form, so ell(ell-1)/T^2, which overflows at
    # T = 1e200, is never formed; the run used to exit 2 on it
    argv = ["--q", "3/2", "--T", "1e200", "--R", "8,16"]
    hyperbolic = dispatch(run_spec(["bound-hyperbolic", *argv])).rows
    parabolic = dispatch(run_spec(["bound-parabolic", *argv])).rows
    assert [f"{r['bound']:.4g}" for r in hyperbolic] == ["6.578e+206", "1.645e+206"]
    assert [r["bound"] for r in hyperbolic] == [r["bound"] for r in parabolic]
    # I3(T) = C_2 T^(-5) underflows, as I2(T) = C_1 T^(-2) does in the parabolic bound
    assert [r["term_lap_dtt"] for r in hyperbolic] == [r["term_lap_dt"] for r in parabolic] == [0.0, 0.0]


def test_vacuous_residual_exits_2(capsys):
    # q so close to 1 that phi1 = (1 - t/T)^ell underflows at every Gauss node
    assert main(["residual", "--q", "1.0000000001", "--samples", "500"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "phi1" in err


# the 64-node time rule misses the mass of exp(-t/2) near t = 0: at T = 1e4 the parabolic
# residual read 5.06 against 20.42 at T = 1e3, and at 4e6 the oracle's stderr underflowed
# to 0, which named --samples; both rules read 0 at every node at T = 1e50.  At q = 1.001
# the default ell is 2002, and phi1 = (1 - t/T)^2002 is narrower than the nodes at T = 2
@pytest.mark.parametrize("option, value, named", [
    pytest.param("--T", "1e4", "T = 10000, ell = 4", id="1e4-10000"),
    pytest.param("--T", "4e6", "T = 4e+06, ell = 4", id="4e6-4e+06"),
    pytest.param("--T", "1e50", "T = 1e+50, ell = 4", id="1e50-1e+50"),
    pytest.param("--q", "1.001", "T = 2, ell = 2002", id="q1.001-2002")])
def test_residual_beyond_the_time_rule_exits_2(capsys, option, value, named):
    assert main(["residual", option, value, "--samples", "2000"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "time rule" in err and err.endswith(f" at {named}\n")


# no sample lands in a support: every estimate and its standard error read 0, and
# identities reported all_pass, residual within_3sigma, on a check that saw nothing
@pytest.mark.parametrize("argv", [["identities", "--samples", "2", "--seed", "0"],
                                  ["residual", "--samples", "2", "--seed", "3"]],
                         ids=lambda argv: argv[0])
def test_empty_monte_carlo_support_exits_2(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--samples 2" in err


def readme_blocks(lang):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", text, flags=re.M | re.S)


def test_readme_config_parses():
    # a removed config key must not linger in the documented example
    (block,) = readme_blocks("json")
    SimConfig.from_dict(json.loads(block))


def test_readme_cli_examples_parse():
    # parsing only, no dispatch: an option the parser no longer has exits 2 here
    lines = [shlex.split(line, comments=True) for block in readme_blocks("bash")
             for line in block.splitlines() if line.startswith("heislab ")]
    assert len(lines) == 10
    for argv in lines:
        build_parser().parse_args(argv[1:])
