"""The scripts under scripts/ run end to end against the package's public API."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_lower_bound_demo_prints_its_table():
    proc = _run_script("lower_bound_demo.py", "--phases", "2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_noise_sweep_writes_its_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _run_script("noise_sweep.py", "--seeds", "2", "--length", "200", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert out.read_text(encoding="utf-8").strip()
