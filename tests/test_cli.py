import argparse
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from irreplab import (build_group, build_invariant, check_invariance, draw_label_blocks, irreps,
                      read_matrix_text, su2, write_matrix_text)
from irreplab.cli import _build_parser, main

DIMS = Path(__file__).resolve().parent.parent / "src" / "irreplab" / "data" / "example_dims.csv"


def run(*args):
    return main([str(a) for a in args])


class TestBuild:
    def test_tetra_scalar(self, tmp_path, capsys):
        out = tmp_path / "h.txt"
        assert run("build", "--group", "tetra", "--m", "1", "--seed", "7",
                   "--out", out) == 0
        h, asym = read_matrix_text(out)
        assert h.dim == 4 and asym == 0.0
        assert check_invariance(h, build_group("tetra"), 1) == 0.0
        manifest = json.loads((tmp_path / "h.txt.manifest.json").read_text())
        assert manifest["command"] == "build"
        assert manifest["config"]["seed"] == 7
        assert manifest["outputs"] == [str(out)]

    def test_cyclic_shape(self, tmp_path):
        out = tmp_path / "h.txt"
        assert run("build", "--group", "cyclic", "--n", "6", "--m", "2",
                   "--seed", "1", "--out", out) == 0
        h, _ = read_matrix_text(out)
        assert h.dim == 12

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert run("build", "--group", "octa", "--m", "3", "--seed", "9",
                       "--out", out) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_draws_trial_zero(self, tmp_path):
        # the matrix of the blocks of trial 0 at the given seed and width
        out = tmp_path / "h.txt"
        assert run("build", "--group", "octa", "--m", "3", "--seed", "23", "--sigma0", "0.5",
                   "--out", out) == 0
        g = build_group("octa")
        h = build_invariant(g, draw_label_blocks(g.orbit_count, 3, 23, 0, 0.5))
        assert np.array_equal(read_matrix_text(out)[0].values, h.values)

    def test_cyclic_needs_n(self, tmp_path):
        assert run("build", "--group", "cyclic", "--out", tmp_path / "x") == 2

    # an infinite sigma0 is bad input; a finite one that overflows the
    # matrix is a numeric failure
    @pytest.mark.parametrize("sigma0,code,message", [
        ("inf", 2, "sigma0 must be positive and finite"),
        ("1.7e308", 3, "non-finite entry"),
    ], ids=["inf", "1.7e308"])
    def test_nonfinite_matrix_is_numeric_failure(self, tmp_path, capsys, sigma0, code, message):
        out = tmp_path / "h.txt"
        assert run("build", "--group", "cube", "--m", "2", "--sigma0", sigma0,
                   "--out", out) == code
        assert message in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_group_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("build", "--group", "dodeca", "--out", tmp_path / "x")
        assert err.value.code == 2


class TestSpectrum:
    def test_complete_graph_labels(self, tmp_path, capsys):
        hfile = tmp_path / "k4.txt"
        write_matrix_text(np.ones((4, 4)) - np.eye(4), hfile)
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--in", hfile, "--group", "tetra", "--out", out) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "irrep_label,eigenvalue"
        by_label = {}
        for line in lines[1:]:
            lab, val = line.split(",")
            by_label.setdefault(lab, []).append(float(val))
        assert by_label["1dim"] == [3.0]
        assert by_label["3dim"] == [-1.0, -1.0, -1.0]
        assert sorted(by_label["dense"]) == [-1.0, -1.0, -1.0, 3.0]
        assert "max multiset deviation" in capsys.readouterr().out

    def test_cycle_adjacency_k_labels(self, tmp_path):
        ring = np.zeros((4, 4))
        for i in range(4):
            ring[i, (i + 1) % 4] = ring[(i + 1) % 4, i] = 1.0
        hfile = tmp_path / "c4.txt"
        write_matrix_text(ring, hfile)
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--in", hfile, "--group", "cyclic", "--out", out) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        got = sorted((lab, float(v)) for lab, v in rows if lab != "dense")
        assert got == [("k=0", 2.0), ("k=1", 0.0), ("k=1", 0.0), ("k=2", -2.0)]

    @pytest.mark.parametrize("command", ["build", "spectrum", "census"])
    def test_n_only_applies_to_cyclic(self, tmp_path, capsys, command):
        hfile = tmp_path / "k4.txt"
        write_matrix_text(np.ones((4, 4)) - np.eye(4), hfile)
        out = tmp_path / "out.csv"
        extra = {"build": [], "spectrum": ["--in", hfile], "census": ["--trials", 5]}[command]
        assert run(command, *extra, "--group", "tetra", "--n", "4", "--out", out) == 2
        assert "--n only applies to --group cyclic, not tetra" in capsys.readouterr().err
        assert not out.exists()

    def test_random_octa_deviation_small(self, tmp_path):
        hfile = tmp_path / "h.txt"
        assert run("build", "--group", "octa", "--m", "3", "--seed", "4",
                   "--out", hfile) == 0
        out = tmp_path / "spec.csv"
        assert run("spectrum", "--in", hfile, "--group", "octa", "--m", "3",
                   "--out", out) == 0
        manifest = json.loads((tmp_path / "spec.csv.manifest.json").read_text())
        assert manifest["config"]["max_multiset_deviation"] < 1e-8

    def test_missing_file_exits_2(self, tmp_path):
        assert run("spectrum", "--in", tmp_path / "nope.txt", "--group", "tetra",
                   "--out", tmp_path / "o.csv") == 2

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_nonfinite_entry_exits_2(self, tmp_path, capsys, token):
        hfile = tmp_path / "h.txt"
        hfile.write_text(f"4\n0 1 1 1\n1 0 1 1\n1 1 0 {token}\n1 1 {token} 0\n")
        assert run("spectrum", "--in", hfile, "--group", "tetra",
                   "--out", tmp_path / "o.csv") == 2
        err = capsys.readouterr().err
        assert f"{hfile}: matrix entries must be finite" in err
        assert "symmetric" not in err

    def test_dimension_mismatch_exits_2(self, tmp_path):
        hfile = tmp_path / "h.txt"
        write_matrix_text(np.eye(5), hfile)
        assert run("spectrum", "--in", hfile, "--group", "tetra",
                   "--out", tmp_path / "o.csv") == 2

    def test_non_ascii_byte_exits_2(self, tmp_path, capsys):
        hfile = tmp_path / "h.txt"
        hfile.write_bytes(b"2\n1 2\n2 \xe9\n")
        assert run("spectrum", "--in", hfile, "--group", "cyclic",
                   "--out", tmp_path / "o.csv") == 2
        assert f"{hfile}: malformed number in row" in capsys.readouterr().err

    def test_largest_finite_entries_kept(self, tmp_path):
        # the orbit blocks are bit-symmetric, so symmetrizing them must
        # not form big + big
        hfile = tmp_path / "h.txt"
        hfile.write_text("2\n1.7976931348623157e308 0\n0 1.7976931348623157e308\n")
        out = tmp_path / "o.csv"
        assert run("spectrum", "--in", hfile, "--group", "cyclic", "--out", out) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        assert [lab for lab, _ in rows] == ["k=0", "k=1", "dense", "dense"]
        assert {v for _, v in rows} == {format(1.7976931348623157e308, ".12g")}

    def test_deviation_beyond_float_range_exits_3(self, tmp_path, capsys):
        # an invariant matrix with F_0 all +max and F_1 = 0: both blocks
        # and the dense spectrum hold an infinite eigenvalue, and their
        # inf - inf gap must not pass as a deviation (nor warn)
        big = np.full((2, 2), 1.7976931348623157e308)
        hfile = tmp_path / "h.txt"
        write_matrix_text(np.block([[big, np.zeros((2, 2))], [np.zeros((2, 2)), big]]), hfile)
        out = tmp_path / "o.csv"
        assert run("spectrum", "--in", hfile, "--group", "cyclic", "--m", "2",
                   "--out", out) == 3
        assert "numeric failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [hfile]

    def test_non_invariant_matrix_at_the_float_range_exits_2(self, tmp_path, capsys):
        # diag(max, -max) is not C_2-invariant, and its distance from the
        # matrix its orbit blocks build overflows
        hfile = tmp_path / "h.txt"
        hfile.write_text("2\n1.7976931348623157e308 0\n0 -1.7976931348623157e308\n")
        assert run("spectrum", "--in", hfile, "--group", "cyclic",
                   "--out", tmp_path / "o.csv") == 2
        assert "error: matrix is not cyclic(2)-invariant" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [hfile]

    def test_non_symmetric_orbit_blocks_exit_2(self, tmp_path, capsys):
        # an exactly C_5-invariant m = 3 matrix whose distance blocks F(d)
        # are not symmetric (F(-d) = F(d)^T): the symmetric-block
        # decomposition does not apply, so the run must not exit 0
        rng = np.random.default_rng(5)
        n, m = 5, 3
        f = [rng.standard_normal((m, m)) for _ in range(n)]
        f[0] = f[0] + f[0].T
        for d in range(1, n // 2 + 1):
            f[n - d] = f[d].T
        h = np.block([[f[(j - i) % n] for j in range(n)] for i in range(n)])
        assert check_invariance(h, build_group("cyclic", n), m) == 0.0
        hfile = tmp_path / "h.txt"
        write_matrix_text(h, hfile)
        assert run("spectrum", "--in", hfile, "--group", "cyclic", "--m", m,
                   "--out", tmp_path / "o.csv") == 2
        err = capsys.readouterr().err
        assert "error: matrix is not cyclic(5)-invariant with symmetric orbit blocks" in err
        assert list(tmp_path.iterdir()) == [hfile]

    def test_rounding_level_asymmetry_passes_the_gate(self, tmp_path):
        # an invariant matrix off by a few ulps is within 1e-10 max|H|
        h = np.ones((4, 4)) - np.eye(4)
        h[0, 1] = h[1, 0] = 1.0 + 2.0 ** -50
        hfile = tmp_path / "k4.txt"
        write_matrix_text(h, hfile)
        assert run("spectrum", "--in", hfile, "--group", "tetra",
                   "--out", tmp_path / "o.csv") == 0

    def test_asymmetric_entries_near_the_float_range_symmetrized(self, tmp_path):
        # halving before the sum keeps the 1.7e308 diagonal finite
        hfile = tmp_path / "h.txt"
        hfile.write_text("2\n1.7e308 1\n2 1.7e308\n")
        out = tmp_path / "o.csv"
        assert run("spectrum", "--in", hfile, "--group", "cyclic", "--out", out) == 0
        config = json.loads((tmp_path / "o.csv.manifest.json").read_text())["config"]
        assert config["file_asymmetry"] == 1.0

    def test_asymmetry_beyond_float_range_exits_2(self, tmp_path, capsys):
        hfile = tmp_path / "h.txt"
        hfile.write_text("2\n0 -1.7e308\n1.7e308 0\n")
        assert run("spectrum", "--in", hfile, "--group", "cyclic",
                   "--out", tmp_path / "o.csv") == 2
        assert f"{hfile}: asymmetry beyond the float range" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [hfile]

    def test_block_combination_overflow_exits_3(self, tmp_path, capsys):
        # a valid invariant matrix whose k=0 block, F_0 + F_1, overflows
        hfile = tmp_path / "h.txt"
        hfile.write_text("2\n1e308 1e308\n1e308 1e308\n")
        assert run("spectrum", "--in", hfile, "--group", "cyclic",
                   "--out", tmp_path / "o.csv") == 3
        assert "numeric failure: k=0 block overflows" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [hfile]

    @pytest.mark.parametrize("size, flags, message", [
        (5, ["--group", "tetra", "--m", "2"], "matrix dim 5 is not a multiple of m=2"),
        (6, ["--group", "cyclic", "--n", "7"], "--n 7 disagrees with file (6 sites)")])
    def test_file_size_disagreeing_with_flags_exits_2(self, tmp_path, capsys, size, flags,
                                                       message):
        hfile = tmp_path / "h.txt"
        write_matrix_text(np.eye(size), hfile)
        assert run("spectrum", "--in", hfile, *flags, "--out", tmp_path / "o.csv") == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == [hfile]

    def test_zero_dimension_header_exits_2(self, tmp_path, capsys):
        hfile = tmp_path / "h.txt"
        hfile.write_text("0\n")
        assert run("spectrum", "--in", hfile, "--group", "tetra",
                   "--out", tmp_path / "o.csv") == 2
        assert capsys.readouterr().err == f"error: {hfile}: dimension must be >= 1\n"
        assert list(tmp_path.iterdir()) == [hfile]

    @pytest.mark.parametrize("m", ["0", "-2"])
    def test_block_size_below_one_exits_2(self, tmp_path, capsys, m):
        hfile = tmp_path / "h.txt"
        write_matrix_text(np.eye(4), hfile)
        assert run("spectrum", "--in", hfile, "--group", "tetra", "--m", m,
                   "--out", tmp_path / "o.csv") == 2
        assert f"--m must be >= 1, got {m}" in capsys.readouterr().err


class TestCensus:
    def test_single_trial_is_delta(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run("census", "--group", "cube", "--m", "2", "--trials", "1",
                   "--seed", "3", "--out", out) == 0
        rows = [ln.split(",") for ln in out.read_text().strip().split("\n")[1:]]
        fractions = [float(r[4]) for r in rows]
        assert sorted(fractions) == [0.0, 0.0, 0.0, 1.0]

    def test_tetra_half(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run("census", "--group", "tetra", "--m", "1", "--trials", "10000",
                   "--seed", "3", "--out", out) == 0
        rows = {r.split(",")[0]: r.split(",") for r in
                out.read_text().strip().split("\n")[1:]}
        assert abs(float(rows["1dim"][4]) - 0.5) < 0.015
        assert float(rows["1dim"][5]) == 0.25

    def test_json_format(self, tmp_path):
        out = tmp_path / "c.json"
        assert run("census", "--group", "octa", "--m", "1", "--trials", "50",
                   "--seed", "1", "--format", "json", "--out", out) == 0
        data = json.loads(out.read_text())
        assert {row["irrep_label"] for row in data} == {"1dim", "2dim", "3dim"}
        assert sum(row["gs_fraction"] for row in data) == pytest.approx(1.0)

    def test_cube_scalar_one_dim_dominance(self, tmp_path):
        out = tmp_path / "c.csv"
        assert run("census", "--group", "cube", "--m", "1", "--trials", "10000",
                   "--seed", "6", "--out", out) == 0
        rows = {r.split(",")[0]: r.split(",") for r in
                out.read_text().strip().split("\n")[1:]}
        one_dim = float(rows["1dim+"][4]) + float(rows["1dim-"][4])
        assert one_dim > 0.25 + 5 * np.sqrt(0.25 * 0.75 / 10000)


    def test_cube_scalar_bytes_pinned(self, tmp_path):
        # m = 1 takes no eigenvalues and the derived coefficients are exact
        # integers, so the digest is the same on every platform
        out = tmp_path / "c.csv"
        assert run("census", "--group", "cube", "--m", "1", "--trials", "2000",
                   "--seed", "11", "--threads", "1", "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "0eb482fd6d0b1e9898fccfd5d55328389d4244b8236338035db828cb6a5d7fdd")

    def test_cyclic_labels_past_z(self, tmp_path):
        # C_60 has 31 pair orbits, more than the letters A..Z
        out = tmp_path / "c.json"
        assert run("census", "--group", "cyclic", "--n", "60", "--trials", "200",
                   "--seed", "4", "--format", "json", "--out", out) == 0
        data = json.loads(out.read_text())
        assert [row["irrep_label"] for row in data] == [f"k={k}" for k in range(31)]
        assert sum(round(row["gs_fraction"] * 200) for row in data) == 200

    def test_infinite_sigma0_is_numeric_failure(self, tmp_path, capsys):
        # an infinite sigma0 is rejected as bad input before any draw
        for m in ("1", "2"):
            assert run("census", "--group", "tetra", "--m", m, "--trials", "10",
                       "--sigma0", "inf", "--out", tmp_path / "c.csv") == 2
        dims = tmp_path / "dims.csv"
        dims.write_text("twoJ,dim\n0,40\n2,106\n")
        assert run("gsdist", "--dims", dims, "--trials", "10", "--sigma0", "inf",
                   "--out", tmp_path / "d.csv") == 2
        assert capsys.readouterr().err.count("sigma0 must be positive and finite") == 3
        assert list(tmp_path.iterdir()) == [dims]

    def test_lapack_failure_exits_3(self, tmp_path, capsys, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        assert run("census", "--group", "cube", "--m", "3", "--trials", "4",
                   "--out", tmp_path / "c.csv") == 3
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("numeric failure:")] == [
            "numeric failure: eigensolve failed: Eigenvalues did not converge"]
        assert list(tmp_path.iterdir()) == []

    def test_oversized_ring_exits_2(self, tmp_path, capsys):
        assert run("census", "--group", "cyclic", "--n", "1000000", "--trials", "1",
                   "--out", tmp_path / "c.csv") == 2
        assert "cyclic group n must be in [2, 10000], got 1000000" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, m", [("census", "100000"), ("census", "4294967296"),
                                            ("build", "100000")])
    def test_oversized_block_exits_2(self, tmp_path, capsys, command, m):
        trials = ["--trials", "1"] if command == "census" else []
        assert run(command, "--group", "tetra", "--m", m, *trials,
                   "--out", tmp_path / "c.csv") == 2
        assert capsys.readouterr().err == f"error: m must be in [1, 65536], got {m}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, threads):
        assert run("census", "--group", "tetra", "--trials", "10",
                   "--threads", threads, "--out", tmp_path / "c.csv") == 2


@pytest.mark.parametrize("message, shown", [
    ("Unable to allocate 16.0 GiB for an array", "Unable to allocate 16.0 GiB for an array"),
    ("", "out of memory"),
])
def test_memory_error_exits_2(tmp_path, capsys, monkeypatch, message, shown):
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(irreps, "ground_state_irrep_census", exhausted)
    assert run("census", "--group", "tetra", "--trials", "1", "--out", tmp_path / "c.csv") == 2
    assert capsys.readouterr().err == f"error: {shown}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["census", "--group", "tetra", "--trials", "10", "--out", "c.csv"],
    ["gsdist", "--dims", "dims.csv", "--trials", "10", "--out", "d.csv"],
])
def test_threads_default_to_one(argv):
    assert _build_parser().parse_args(argv).threads == 1


class TestSu2Widths:
    def test_jmax_past_the_ceiling_exits_2(self, tmp_path, capsys):
        assert run("su2-widths", "--jmax", "1021", "--out", tmp_path / "w.csv") == 2
        assert "j_max must be in [0, 1020], got 1021" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("jmax, quad", [("253", ["--quad-points", "512"]),
                                            ("509", ["--quad-points", "1024"])])
    def test_jmax_past_the_quadrature_exits_2(self, tmp_path, capsys, jmax, quad):
        # these J once needed more quadrature nodes; the widths are exact now
        # and a command line that still asks for nodes is refused, not run
        with pytest.raises(SystemExit) as exc:
            run("su2-widths", "--jmax", jmax, *quad, "--out", tmp_path / "w.csv")
        assert exc.value.code == 2
        assert "unrecognized arguments: --quad-points" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_values_are_correctly_rounded(self, tmp_path):
        # a 512-node quadrature printed this row as 0.0073591132632
        out = tmp_path / "w.csv"
        assert run("su2-widths", "--jmax", "86", "--out", out) == 0
        assert out.read_text().splitlines()[87] == "172,0.00735911326321"

    def test_table_values(self, tmp_path):
        out = tmp_path / "w.csv"
        assert run("su2-widths", "--jmax", "4", "--out", out) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "twoJ,sigmaJ_sq"
        vals = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert [round(v, 3) for v in vals] == [1.571, 0.393, 0.245, 0.178, 0.139]
        assert vals[0] == pytest.approx(np.pi / 2, abs=1e-10)
        assert vals[1] == pytest.approx(np.pi / 8, abs=1e-10)


class TestGsDist:
    def test_single_row_table(self, tmp_path):
        dims = tmp_path / "dims.csv"
        dims.write_text("twoJ,dim\n4,12\n")
        out = tmp_path / "d.csv"
        assert run("gsdist", "--dims", dims, "--trials", "100", "--seed", "2",
                   "--out", out) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[1] == "4,1,1"

    def test_missing_dims_file_exits_2(self, tmp_path):
        assert run("gsdist", "--dims", tmp_path / "nope.csv", "--trials", "10",
                   "--out", tmp_path / "d.csv") == 2

    def test_overflowing_sigma0_is_numeric_failure(self, tmp_path, capsys):
        dims = tmp_path / "dims.csv"
        dims.write_text("twoJ,dim\n0,40\n2,106\n")
        assert run("gsdist", "--dims", dims, "--trials", "10", "--sigma0", "1e308",
                   "--out", tmp_path / "d.csv") == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_odd_two_j_table_exits_2(self, tmp_path, capsys):
        # a half-integer J needs a width factor, which no flag can pass
        dims = tmp_path / "dims.csv"
        dims.write_text("twoJ,dim\n0,3\n3,4\n")
        assert run("gsdist", "--dims", dims, "--trials", "10",
                   "--out", tmp_path / "d.csv") == 2
        assert "two_j=3 is half-integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [dims]

    # int() would read "1_0" as 10 and "+2" as 2; a field is an optional
    # "-" and ASCII digits
    @pytest.mark.parametrize("row", [b"2,\xe9", b"1_0,4", b"+2,4"],
                             ids=["non-ascii", "underscore", "plus"])
    def test_non_ascii_byte_exits_2(self, tmp_path, capsys, row):
        dims = tmp_path / "dims.csv"
        dims.write_bytes(b"twoJ,dim\n0,1\n" + row + b"\n")
        assert run("gsdist", "--dims", dims, "--trials", "10",
                   "--out", tmp_path / "d.csv") == 2
        assert f"{dims}:3: twoJ and dim must be integers" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [dims]

    def test_dimension_past_the_ceiling_exits_2(self, tmp_path, capsys):
        dims = tmp_path / "dims.csv"
        dims.write_text("twoJ,dim\n0,3\n2,9999999999999999999\n")
        assert run("gsdist", "--dims", dims, "--trials", "1",
                   "--out", tmp_path / "d.csv") == 2
        assert capsys.readouterr().err == (
            "error: dim must be in [1, 4294967296], got 9999999999999999999\n")
        assert list(tmp_path.iterdir()) == [dims]

    def test_two_j_past_the_ceiling_exits_2(self, tmp_path, capsys):
        dims = tmp_path / "dims.csv"
        dims.write_text("twoJ,dim\n0,3\n2040,2\n2042,2\n")
        assert run("gsdist", "--dims", dims, "--trials", "10",
                   "--out", tmp_path / "d.csv") == 2
        assert "J must be in [0, 1020], got 1021" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [dims]

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, threads):
        dims = tmp_path / "dims.csv"
        dims.write_text("twoJ,dim\n0,5\n")
        assert run("gsdist", "--dims", dims, "--trials", "10", "--threads", threads,
                   "--out", tmp_path / "d.csv") == 2

    def test_jmax_removing_every_row_exits_2(self, tmp_path, capsys):
        dims = tmp_path / "dims.csv"
        dims.write_text("twoJ,dim\n2,5\n4,5\n")
        assert run("gsdist", "--dims", dims, "--trials", "10", "--jmax", "0",
                   "--out", tmp_path / "d.csv") == 2
        assert capsys.readouterr().err == "error: --jmax 0 removes every table row\n"
        assert list(tmp_path.iterdir()) == [dims]

    def test_jmax_truncates(self, tmp_path):
        dims = tmp_path / "dims.csv"
        dims.write_text("twoJ,dim\n0,5\n2,5\n8,5\n")
        out = tmp_path / "d.csv"
        assert run("gsdist", "--dims", dims, "--trials", "50", "--seed", "2",
                   "--jmax", "2", "--out", out) == 0
        rows = out.read_text().strip().split("\n")[1:]
        assert [r.split(",")[0] for r in rows] == ["0", "2"]


class TestDeterminism:
    def test_census_bytes_thread_invariant(self, tmp_path):
        outs = []
        for name, threads in [("a.csv", 1), ("b.csv", 4)]:
            out = tmp_path / name
            assert run("census", "--group", "cube", "--m", "4", "--trials", "200",
                       "--seed", "12", "--threads", threads, "--out", out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_gsdist_bytes_thread_invariant(self, tmp_path):
        dims = tmp_path / "dims.csv"
        dims.write_text("twoJ,dim\n0,10\n2,30\n4,25\n")
        outs = []
        for name, threads in [("a.csv", 1), ("b.csv", 3)]:
            out = tmp_path / name
            assert run("gsdist", "--dims", dims, "--trials", "400", "--seed", "5",
                       "--threads", threads, "--out", out) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_bytes_reproducible(self, tmp_path):
        blobs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert run("su2-widths", "--jmax", "3", "--out", out) == 0
            manifest = (tmp_path / f"{name}.manifest.json").read_text()
            blobs.append(manifest.replace(name, "OUT"))
        assert blobs[0] == blobs[1]


class TestTieWarning:
    """A tie has probability zero, so a finished run with one warns on stderr."""

    @pytest.mark.parametrize("command, module, name, argv", [
        ("census", irreps, "ground_state_irrep_census", ["--group", "tetra", "--trials", "20"]),
        ("gsdist", su2, "gs_distribution", ["--dims", DIMS, "--trials", "20"]),
    ], ids=["census", "gsdist"])
    def test_ties_warn_once_and_change_no_output(self, tmp_path, capsys, monkeypatch,
                                                 command, module, name, argv):
        assert run(command, *argv, "--out", tmp_path / "plain.csv") == 0
        assert capsys.readouterr().err == ""
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: dataclasses.replace(real(*a, **k),
                                                                              tie_count=2))
        assert run(command, *argv, "--out", tmp_path / "tied.csv") == 0
        assert capsys.readouterr().err == "warning: 2 of 20 trials tied for the ground state\n"
        assert (tmp_path / "tied.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def manifest_config(out):
    return json.loads(Path(f"{out}.manifest.json").read_text())["config"]


class TestManifest:
    """The manifest records every parsed flag but --threads, under its
    flag name, plus what a command resolved."""

    # the configs of cases no golden file reaches, as the CLI wrote them
    # when each command listed its config by hand
    def test_ring_spectrum_reads_n_from_the_file(self, tmp_path):
        ring, out = tmp_path / "ring.txt", tmp_path / "spec.csv"
        assert run("build", "--group", "cyclic", "--n", "5", "--m", "2", "--seed", "3",
                   "--out", ring) == 0
        assert run("spectrum", "--in", ring, "--group", "cyclic", "--m", "2",
                   "--out", out) == 0
        assert manifest_config(out) == {
            "file_asymmetry": 0.0, "format": "csv", "group": "cyclic", "in": str(ring),
            "m": 2, "max_multiset_deviation": 3.552713678800501e-15, "n": 5,
            "out": str(out),
        }

    def test_gsdist_jmax(self, tmp_path):
        dims, out = tmp_path / "dims.csv", tmp_path / "d.csv"
        dims.write_text("twoJ,dim\n0,5\n2,5\n8,5\n")
        assert run("gsdist", "--dims", dims, "--trials", "50", "--seed", "2",
                   "--jmax", "2", "--threads", "2", "--out", out) == 0
        assert manifest_config(out) == {
            "dims": str(dims), "format": "csv", "jmax": 2, "out": str(out),
            "seed": 2, "sigma0": 1.0, "trials": 50,
        }

    # one run of each subcommand, on a ring where it takes --group; a
    # subcommand missing here fails the test
    RUNS = {
        "build": ["--group", "cyclic", "--n", "5", "--m", "2"],
        "spectrum": ["--in", "{ring}", "--group", "cyclic", "--m", "2"],
        "census": ["--group", "cyclic", "--n", "5", "--trials", "5"],
        "su2-widths": ["--jmax", "2"],
        "gsdist": ["--dims", DIMS, "--trials", "5"],
    }
    SUBPARSERS = next(a for a in _build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices

    @pytest.mark.parametrize("command", sorted(SUBPARSERS))
    def test_every_flag_but_threads_is_recorded(self, tmp_path, command):
        ring, out = tmp_path / "ring.txt", tmp_path / "o"
        assert run("build", "--group", "cyclic", "--n", "5", "--m", "2", "--out", ring) == 0
        argv = [str(a).replace("{ring}", str(ring)) for a in self.RUNS[command]]
        assert run(command, *argv, "--out", out) == 0
        flags = {"in" if a.dest == "infile" else a.dest for a in self.SUBPARSERS[command]._actions
                 if a.option_strings and a.dest not in ("help", "threads")}
        resolved = {"file_asymmetry", "max_multiset_deviation"} if command == "spectrum" else set()
        assert set(manifest_config(out)) == flags | resolved
