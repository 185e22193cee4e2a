import json

import numpy as np
import pytest

from irreplab import build_group, check_invariance, read_matrix_text, write_matrix_text
from irreplab.cli import main


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

    def test_cyclic_needs_n(self, tmp_path):
        assert run("build", "--group", "cyclic", "--out", tmp_path / "x") == 2

    @pytest.mark.parametrize("sigma0", ["inf", "1.7e308"])
    def test_nonfinite_matrix_is_numeric_failure(self, tmp_path, capsys, sigma0):
        out = tmp_path / "h.txt"
        assert run("build", "--group", "cube", "--m", "2", "--sigma0", sigma0,
                   "--out", out) == 3
        assert "non-finite entry" in capsys.readouterr().err
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


    def test_cyclic_labels_past_z(self, tmp_path):
        # C_60 has 31 pair orbits, more than the letters A..Z
        out = tmp_path / "c.json"
        assert run("census", "--group", "cyclic", "--n", "60", "--trials", "200",
                   "--seed", "4", "--format", "json", "--out", out) == 0
        data = json.loads(out.read_text())
        assert [row["irrep_label"] for row in data] == [f"k={k}" for k in range(31)]
        assert sum(round(row["gs_fraction"] * 200) for row in data) == 200

    def test_infinite_sigma0_is_numeric_failure(self, tmp_path):
        for m in ("1", "2"):
            assert run("census", "--group", "tetra", "--m", m, "--trials", "10",
                       "--sigma0", "inf", "--out", tmp_path / "c.csv") == 3

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, threads):
        assert run("census", "--group", "tetra", "--trials", "10",
                   "--threads", threads, "--out", tmp_path / "c.csv") == 2


class TestSu2Widths:
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

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, threads):
        dims = tmp_path / "dims.csv"
        dims.write_text("twoJ,dim\n0,5\n")
        assert run("gsdist", "--dims", dims, "--trials", "10", "--threads", threads,
                   "--out", tmp_path / "d.csv") == 2

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
