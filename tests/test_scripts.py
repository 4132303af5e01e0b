import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
DEMO = SCRIPTS / "run_blowup_demo.py"


def test_blowup_demo_smoke(tmp_path, child_env):
    proc = subprocess.run([sys.executable, str(DEMO), "--steps", "20", "--outdir", str(tmp_path)],
                          env=child_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((tmp_path / "blowup_demo.json").read_text())["rows"]
    assert len(rows) == 10
    assert {r["status"] for r in rows} <= {"completed", "blowup_threshold"}


def test_capacity_study_smoke(tmp_path, child_env):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "run_capacity_study.py"), "--outdir", str(tmp_path)],
                          env=child_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    tables = sorted(tmp_path.glob("*.csv"))
    assert len(tables) == 15
    for table in tables:
        assert len(table.read_text().splitlines()) >= 2, table.name


def test_time_solvers_smoke(child_env):
    proc = subprocess.run([sys.executable, str(SCRIPTS / "time_solvers.py"), "--nodes", "9", "--steps", "3",
                           "--repeats", "1"], env=child_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["grid", "unknowns", "steps", "equation", "LU", "ms/step", "CG", "ms/step"]
    assert [row.split()[:4] for row in rows] == [["9^3", "343", "3", "parabolic"], ["9^3", "343", "3", "hyperbolic"]]
    assert all(float(value) > 0 for row in rows for value in row.split()[4:])
