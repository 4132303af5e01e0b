import json
import subprocess
import sys
from pathlib import Path

DEMO = Path(__file__).resolve().parents[1] / "scripts" / "run_blowup_demo.py"


def test_blowup_demo_smoke(tmp_path, child_env):
    proc = subprocess.run([sys.executable, str(DEMO), "--steps", "20", "--outdir", str(tmp_path)],
                          env=child_env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads((tmp_path / "blowup_demo.json").read_text())["rows"]
    assert len(rows) == 10
    assert {r["status"] for r in rows} <= {"completed", "blowup_threshold"}
