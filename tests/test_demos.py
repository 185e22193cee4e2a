"""Every demo script runs to completion and prints its pinned report.

Each demo's stdout is pinned byte for byte in
``tests/data/golden/demos/<demo>.stdout``.  A change that alters a demo's
report on purpose re-records that one file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "data" / "golden" / "demos"


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, timeout=300)
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    assert out.stdout == (GOLDEN / f"{demo.stem}.stdout").read_bytes()
