"""Demos run to completion as standalone scripts: the rank-one machine,
cluster measures and orbit coding, and the splitting and marking demos
built on the count matrix."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", ["02_rank_one_machine.py", "03_splitting.py",
                                  "05_marks.py", "06_sushi_clusters.py",
                                  "07_orbit_coding.py"])
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
