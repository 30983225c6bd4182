"""Smoke runs of the example scripts on SL(2,3) with tiny arguments."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args",
    [
        ("flatten_experiment.py", ["--groups", "sl2:3", "--max-steps", "1", "--out-prefix", "fl"]),
        ("nof_curve.py", ["--group", "sl2:3", "--t-max", "2", "--out", "nof.csv"]),
        ("repair_demo.py", ["--group", "sl2:3", "--deltas", "1e-9"]),
    ],
)
def test_script_runs(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "sl2:3" in proc.stdout
