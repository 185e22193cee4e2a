"""Golden outputs: every CLI command, in every format, byte for byte.

The files under ``tests/data/golden/`` were written by the CLI with the
argument lists in ``CASES``.  Each case runs in a fresh directory; the
primary output and stdout must match exactly, and the manifest must
match once that directory's path is replaced by ``<tmp>``.  A change
that alters any of these bytes breaks the reproducibility contract;
such a change must not be hidden by re-recording the files.
"""

import shutil
from pathlib import Path

import pytest

from irreplab.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

DIMS_TEXT = "twoJ,dim\n0,10\n2,30\n4,25\n"

# case name -> (argv, input files copied from GOLDEN into the run directory)
CASES = {
    "build_tetra.txt": (
        ["build", "--group", "tetra", "--m", "1", "--seed", "7"], []),
    "build_cyclic.txt": (
        ["build", "--group", "cyclic", "--n", "6", "--m", "2", "--seed", "1"], []),
}
for _fmt in ("csv", "json"):
    CASES.update({
        f"spectrum_tetra.{_fmt}": (
            ["spectrum", "--in", "{tmp}/build_tetra.txt", "--group", "tetra",
             "--format", _fmt], ["build_tetra.txt"]),
        f"spectrum_cyclic.{_fmt}": (
            ["spectrum", "--in", "{tmp}/build_cyclic.txt", "--group", "cyclic",
             "--n", "6", "--m", "2", "--format", _fmt], ["build_cyclic.txt"]),
        f"census_octa.{_fmt}": (
            ["census", "--group", "octa", "--m", "2", "--trials", "300",
             "--seed", "12", "--format", _fmt], []),
        f"census_cyclic.{_fmt}": (
            ["census", "--group", "cyclic", "--n", "12", "--m", "1",
             "--trials", "500", "--seed", "3", "--format", _fmt], []),
        f"su2_widths.{_fmt}": (
            ["su2-widths", "--jmax", "6", "--format", _fmt], []),
        f"gsdist.{_fmt}": (
            ["gsdist", "--dims", "{tmp}/dims.csv", "--trials", "400",
             "--seed", "5", "--format", _fmt], []),
    })


def run_case(name, tmp_path, capsys):
    """Run one case in ``tmp_path``; returns {golden file name: bytes}."""
    argv, inputs = CASES[name]
    for src in inputs:
        shutil.copyfile(GOLDEN / src, tmp_path / src)
    (tmp_path / "dims.csv").write_text(DIMS_TEXT)
    out = tmp_path / name
    capsys.readouterr()
    code = main([a.replace("{tmp}", str(tmp_path)) for a in argv] + ["--out", str(out)])
    assert code == 0
    manifest = (tmp_path / f"{name}.manifest.json").read_text(encoding="ascii")
    return {
        name: out.read_bytes(),
        f"{name}.manifest.json": manifest.replace(str(tmp_path), "<tmp>").encode("ascii"),
        f"{name}.stdout": capsys.readouterr().out.replace(str(tmp_path), "<tmp>").encode(),
    }


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_bytes_match_golden(name, tmp_path, capsys):
    for fname, blob in run_case(name, tmp_path, capsys).items():
        assert blob == (GOLDEN / fname).read_bytes(), fname
