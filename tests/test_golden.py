"""Reports against the committed corpus in tests/golden/, written by
scripts/make_golden.py: `rows` and `summary` must be byte-identical."""

import importlib.util
import json
from pathlib import Path

import heislab.simulate as simulate

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_golden.py"
_spec = importlib.util.spec_from_file_location("make_golden", _SCRIPT)
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)

# Runs on one grid follow each other (the kept operator is reused), and each grid is
# left and then revisited (the operator is rebuilt).
ORDER = ("parabolic-13-a5", "hyperbolic-13-a5", "parabolic-25-a10", "parabolic-13-a300",
         "hyperbolic-13-a300", "linear-parabolic-13", "hyperbolic-25-a10", "hyperbolic-25-a10-v4",
         "hyperbolic-13-a5-v4")


def check_corpus(path, order, tmp_path):
    corpus = json.loads(path.read_text())
    cases, key = make_golden.CORPORA[path]
    assert sorted(order) == sorted(corpus) == sorted(cases)
    for name in order:
        entry = corpus[name]
        assert entry[key] == cases[name], name
        got = make_golden.report_blocks(entry[key], tmp_path)
        want = {"rows": entry["rows"], "summary": entry["summary"]}
        assert json.dumps(got) == json.dumps(want), name


def test_simulate_reports_match_corpus(tmp_path):
    simulate._grid_operator.cache_clear()
    check_corpus(make_golden.GOLDEN_DIR / "simulate.json", ORDER, tmp_path)


def test_other_reports_match_corpus(tmp_path):
    check_corpus(make_golden.GOLDEN_DIR / "reports.json", tuple(make_golden.REPORTS), tmp_path)


def test_change_reports_identity_and_summary_floats():
    entry = {"argv": ["bound-parabolic"], "rows": [{"R": 8.0, "bound": 2.0, "ratio_to_prev": float("nan")}],
             "summary": {"critical": False, "slope": -2.0}}
    assert make_golden.change(entry, json.loads(json.dumps(entry))) == "byte-identical"
    moved = {**entry, "summary": {"critical": False, "slope": -2.5}}
    assert make_golden.change(entry, moved) == "status kept, largest relative change 0 in rows, 0.25 in summary (slope)"


def test_change_names_the_rows_that_moved():
    # a value that moves to 0.0 shows as a relative change of 1 whatever its size; the row name says which
    entry = {"argv": ["identities"], "summary": {"all_pass": True},
             "rows": [{"identity": "associativity", "measured": 0.0},
                      {"identity": "commutator_cross_zero", "measured": 3.55e-15},
                      {"identity": "commutator_XY_minus4", "measured": 4.44e-15}]}
    moved = json.loads(json.dumps(entry))
    moved["rows"][1]["measured"] = 0.0
    moved["rows"][2]["measured"] = 1.78e-15
    assert make_golden.change(entry, moved) == (
        "status kept, largest relative change 1 in rows (measured), 0 in summary; "
        "rows moved: identity=commutator_cross_zero, identity=commutator_XY_minus4")
