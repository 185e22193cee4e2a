"""What a fresh process pays for: BLAS threads and imported modules.

Every check runs in a child interpreter, because numpy fixes its BLAS
thread count when it loads and this test process has loaded it already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from irreplab import build_group, build_invariant, write_matrix_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIMS = SRC / "irreplab" / "data" / "example_dims.csv"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _env(**extra):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def _child(code, cwd=None, **extra):
    """Run ``code`` in a fresh interpreter; the JSON it prints last."""
    out = subprocess.run([sys.executable, "-c", code], env=_env(**extra), cwd=cwd,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


# records the thread variables at the moment numpy starts to load
PROBE = """
import json, os, sys
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            seen.append({k: os.environ.get(k) for k in %r})
sys.meta_path.insert(0, Probe())
""" % (THREAD_VARS,)


def _loaded(prefixes):
    return f"print(json.dumps(sorted(m for m in sys.modules if m.startswith({prefixes!r}))))"


def _run_main(argv):
    """Child code: run the CLI on ``argv``, then print the modules loaded."""
    return ("import contextlib, io, json, sys\nfrom irreplab.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.suppress(SystemExit):\n"
            f"    assert main({argv!r}) == 0\n"
            + _loaded(("irreplab", "numpy", "concurrent")))


# the cli module loads no numpy itself: a command's library modules do
RUN_COMMAND = ("from irreplab.cli import main\n"
               "main(['su2-widths', '--jmax', '0', '--out', 'w.csv'])\n"
               "print(json.dumps(seen))")


class TestBlasThreads:
    def test_cli_sets_one_thread_before_numpy_loads(self, tmp_path):
        seen = _child(PROBE + RUN_COMMAND, cwd=tmp_path)
        assert seen == [{"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": None}]

    @pytest.mark.parametrize("var", THREAD_VARS)
    def test_user_setting_is_left_as_given(self, tmp_path, var):
        seen = _child(PROBE + RUN_COMMAND, cwd=tmp_path, **{var: "2"})
        expected = dict.fromkeys(THREAD_VARS)
        expected[var] = "2"
        assert seen == [expected]

    def test_cli_imported_after_numpy_changes_no_variable(self):
        # too late to choose numpy's pool; the variable would only reach
        # the children of the importing process
        code = ("import json, os\nimport numpy\nbefore = dict(os.environ)\n"
                "import irreplab.cli\nprint(json.dumps(dict(os.environ) == before))")
        assert _child(code) is True

    def test_library_import_changes_no_variable(self):
        code = ("import json, os\nbefore = dict(os.environ)\nimport irreplab\n"
                "for name in irreplab.__all__:\n    getattr(irreplab, name)\n"
                "print(json.dumps(dict(os.environ) == before))")
        assert _child(code) is True

    def test_spectrum_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # cyclic n = 50, m = 8 is large enough for a 2-core host's BLAS
        # pool to move the dense eigenvalues' last bits
        outputs = []
        for name, extra in (("default", {}), ("one", {"OPENBLAS_NUM_THREADS": "1"})):
            work = tmp_path / name
            work.mkdir()
            for argv in (["build", "--group", "cyclic", "--n", "50", "--m", "8",
                          "--seed", "11", "--out", "h.txt"],
                         ["spectrum", "--in", "h.txt", "--group", "cyclic", "--m", "8",
                          "--out", "s.csv"]):
                subprocess.run([sys.executable, "-m", "irreplab.cli", *argv], cwd=work,
                               env=_env(**extra), check=True, capture_output=True,
                               timeout=120)
            outputs.append({p.name: p.read_bytes() for p in sorted(work.iterdir())})
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1]


class TestImports:
    def test_package_import_loads_no_submodule_or_numpy(self):
        code = ("import json, sys\nimport irreplab\n"
                "assert set(irreplab.__all__) <= set(dir(irreplab))\n"
                + _loaded(("irreplab", "numpy")))
        assert _child(code) == ["irreplab"]

    @pytest.mark.parametrize("argv, absent", [
        (["--version"], ["irreplab.groups", "irreplab.irreps", "irreplab.linalg",
                         "irreplab.rng", "irreplab.su2", "numpy", "concurrent.futures"]),
        # argparse's exit 2 for a missing required flag
        (["census"], ["irreplab.groups", "irreplab.irreps", "irreplab.linalg",
                      "irreplab.rng", "irreplab.su2", "numpy"]),
        # the widths are exact sums: no quadrature rule, no leggauss
        (["gsdist", "--dims", str(DIMS), "--trials", "20", "--out", "d.csv"],
         ["irreplab.groups", "irreplab.irreps", "irreplab.linalg", "numpy.polynomial"]),
        (["su2-widths", "--out", "w.csv"],
         ["irreplab.groups", "irreplab.irreps", "irreplab.linalg", "numpy.polynomial"]),
        (["census", "--group", "tetra", "--trials", "20", "--out", "c.csv"],
         ["irreplab.su2", "numpy.ma"]),
        # the one-output np.unique loads numpy.ma, about 1.6 MB of maxrss
        (["spectrum", "--in", "h.txt", "--group", "cyclic", "--m", "2", "--out", "s.csv"],
         ["irreplab.su2", "numpy.ma", "numpy.polynomial"]),
    ], ids=["version", "usage-error", "gsdist", "su2-widths", "census", "spectrum"])
    def test_command_loads_only_what_it_runs(self, tmp_path, argv, absent):
        if argv[0] == "spectrum":  # its input: a ring of 12 sites, m = 2
            blocks = [np.eye(2) * (k + 1) for k in range(7)]
            write_matrix_text(build_invariant(build_group("cyclic", 12), blocks),
                              tmp_path / "h.txt")
        loaded = _child(_run_main(argv), cwd=tmp_path)
        assert "irreplab.cli" in loaded
        assert not [m for m in loaded for name in absent
                    if m == name or m.startswith(name + ".")]
