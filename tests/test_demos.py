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
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    # the same BLAS pool whatever this process's environment holds
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, timeout=300)
    assert out.returncode == 0, out.stderr.decode(errors="replace")
    assert out.stdout == (GOLDEN / f"{demo.stem}.stdout").read_bytes()
