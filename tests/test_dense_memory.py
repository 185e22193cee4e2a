"""Peak memory of each dense stage of `build` and `spectrum`.

On that path the n*m x n*m float64 matrix is the cost, so each stage is
held to about two copies of it.  Peaks are traced by tracemalloc, which
sees numpy's buffers and Python objects but not LAPACK's workspace, and
are given in units of one dense copy.
"""

import contextlib
import io
import tracemalloc

import pytest

from irreplab import (
    EnsembleConfig,
    InvalidInputError,
    SymMatrix,
    build_group,
    check_invariance,
    draw_label_blocks,
    read_matrix_text,
    sample_invariant,
    write_matrix_text,
)
from irreplab.cli import main


def _peak(fn) -> int:
    """Traced peak, in bytes, while ``fn()`` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


@pytest.fixture(scope="module", params=[("cube", None, 60), ("cyclic", 50, 8)],
                ids=["cube-m60", "cyclic-n50-m8"])
def case(request, tmp_path_factory):
    kind, n, m = request.param
    work = tmp_path_factory.mktemp(kind)
    group = build_group(kind, n)
    ring = ["--n", str(n)] if n else []
    path = str(work / "h.txt")
    spectrum = ["spectrum", "--in", path, "--group", kind, "--m", str(m),
                "--out", str(work / "s.csv")]
    _quiet_main(["build", "--group", kind, *ring, "--m", str(m), "--seed", "11",
                 "--out", path])
    _quiet_main(spectrum)  # imports and first-use caches stay out of the peaks
    cfg = EnsembleConfig(11, 1, 1.0, kind, n, m)
    return {"group": group, "m": m, "cfg": cfg, "path": path, "spectrum": spectrum,
            "h": sample_invariant(group, cfg)[0], "dense": (group.sites * m) ** 2 * 8}


def test_sample_invariant(case):
    # the result, its symmetry check and one site's row of blocks
    peak = _peak(lambda: sample_invariant(case["group"], case["cfg"]))
    assert peak <= 1.5 * case["dense"]


def test_check_invariance(case):
    # one site's row of blocks and its permuted counterpart
    peak = _peak(lambda: check_invariance(case["h"], case["group"], case["m"]))
    assert peak <= 0.5 * case["dense"]


def test_read_matrix_text(case):
    # the array, each distinct token once, and a 64-row asymmetry block
    peak = _peak(lambda: read_matrix_text(case["path"]))
    assert peak <= 2.25 * case["dense"]


def test_spectrum_command(case):
    peak = _peak(lambda: _quiet_main(case["spectrum"]))
    assert peak <= 2.5 * case["dense"]


def test_random_matrix_text(tmp_path):
    # every value distinct: the codec's value memo stops at its limit
    dim = 400
    h = SymMatrix(draw_label_blocks(1, dim, 3, 0)[0])
    path = tmp_path / "random.txt"
    assert _peak(lambda: write_matrix_text(h, path)) <= 3 * dim * dim * 8
    assert _peak(lambda: read_matrix_text(path)) <= 3 * dim * dim * 8


def test_reader_allocates_for_the_rows_read(tmp_path):
    # a dim^2 buffer sized from the header would be 80 GB
    path = tmp_path / "wide.txt"
    path.write_text("100000\n" + " ".join(["0"] * 100000) + "\n")

    def read():
        with pytest.raises(InvalidInputError, match="expected 100000 rows, found 1$"):
            read_matrix_text(path)

    assert _peak(read) < 16 * 2**20
