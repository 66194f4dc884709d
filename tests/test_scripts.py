"""The scripts under scripts/ run end to end against the package's public API."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from predcache import POLICY_NAMES
from predcache.adversary import ADVERSARY_POLICIES

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_lower_bound_demo_prints_its_table():
    proc = _run_script("lower_bound_demo.py", "--phases", "10")
    assert proc.returncode == 0, proc.stderr
    header, *rows = (line.split() for line in proc.stdout.splitlines())
    assert header == ["policy", "k", "j", "alg", "opt", "required", "eta", "eta/phase", "cert"]
    assert len(rows) == 18 and all(len(row) == len(header) for row in rows)
    for policy in ADVERSARY_POLICIES:
        assert sum(row[0] == policy for row in rows) == 6, policy
    assert all(row[-1] == "ok" for row in rows), proc.stdout


def test_noise_sweep_writes_its_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = _run_script("noise_sweep.py", "--seeds", "2", "--length", "200", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert out.read_text(encoding="utf-8").strip()


def test_serve_rate_prints_both_tables(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts bench/ on it
    spec = importlib.util.spec_from_file_location("serve_rate", ROOT / "scripts" / "serve_rate.py")
    serve_rate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(serve_rate)
    serve_rate.LENGTH = serve_rate.WORST_LENGTH = 300
    serve_rate.REPEATS = 1
    calibration = serve_rate.calibration
    monkeypatch.setattr(calibration, "loop_s", lambda: calibration.REFERENCE_S)
    serve_rate.main()
    lines = capsys.readouterr().out.splitlines()
    serve_rows = [line for line in lines if line.startswith("| ") and " k=8 |" not in line]
    for name in (*POLICY_NAMES, "all"):
        assert sum(line.startswith(f"| {name} | ") for line in serve_rows) == 2, name
    table = lines.index("| count_inversions_fast | n | inversions | ms |")
    assert len([line for line in lines[table + 2:] if line.startswith("| ")]) == 10
