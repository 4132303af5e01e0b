import json

import numpy as np
import pytest

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
    # solver failure in a simulation exits 3 (after emitting the report)
    cfg = {
        "equation": "parabolic", "q": 1.5, "nonlinearity": True,
        "dt": 0.01, "steps": 3, "blowup_threshold": 1e6,
        "solver_tol": 1e-14, "solver_max_iter": 1,
        "grid": {"l_x": 3.0, "l_y": 3.0, "l_tau": 9.0, "n_x": 9, "n_y": 9, "n_tau": 9},
        "initial": {"center": [0, 0, 0], "width": 1.0, "amplitude": 5.0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "trace.csv"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 3
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


@pytest.mark.parametrize("where", ["config", "grid", "initial", "missing", "null"])
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
    else:
        (cfg if where == "config" else cfg[where])["bogus"] = 1
        word = "bogus"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and word in err


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


def test_dispatch_roundtrip_runspec():
    spec = run_spec(["lemma1", "--q", "2", "--T", "10"])
    assert isinstance(spec, RunSpec)
    assert spec.subcommand == "lemma1"
    assert spec.fmt == "csv"
