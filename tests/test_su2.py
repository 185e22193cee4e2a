import json
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from irreplab import (
    DimensionTable,
    EnsembleConfig,
    InvalidInputError,
    effective_width,
    example_dimension_table,
    f_space,
    gs_distribution,
    legendre,
    sigma_j_sq,
    width_table,
)
from irreplab.cli import main
from irreplab.su2 import _angular_grid

DATA = Path(__file__).parent / "data"
SRC_DATA = Path(__file__).resolve().parent.parent / "src" / "irreplab" / "data"
BAD_FACTORS = [-1.0, 0.0, math.nan, math.inf]


def write_dims_csv(table, path):
    """Write ``table`` in the dimension-table CSV format."""
    rows = "".join(f"{two_j},{dim}\n" for two_j, dim in table.entries)
    path.write_text("twoJ,dim\n" + rows, encoding="ascii")


# Exact closed forms of the width integral for the first few degrees
# (moment integrals of x^{2k} sqrt(1-x^2) on [-1, 1], combined by hand).
EXACT_WIDTH_FACTORS = [
    math.pi / 2,
    math.pi / 8,
    5 * math.pi / 64,
    29 * math.pi / 512,
    727 * math.pi / 16384,
]


def legendre_coefficient_oracle(j, x):
    """P_j via the explicit expansion 2^-j sum_k C(j,k)^2 (x-1)^(j-k) (x+1)^k."""
    total = 0.0
    for k in range(j + 1):
        total += math.comb(j, k) ** 2 * (x - 1.0) ** (j - k) * (x + 1.0) ** k
    return total / 2.0**j


def legendre_pair_integral(j1, j2):
    """``integral_0^pi P_j1(cos w) P_j2(cos w) sin w dw`` on the default grid."""
    theta, weights = _angular_grid(512)
    c = np.cos(theta)
    return float(np.sum(weights * legendre(j1, c) * legendre(j2, c) * np.sin(theta)))


class TestLegendre:
    def test_degree_zero_and_one(self):
        assert legendre(0, -0.4) == 1.0
        assert legendre(1, 0.3) == 0.3
        assert legendre(2, 1.0) == 1.0

    @pytest.mark.parametrize("j", range(9))
    def test_matches_coefficient_oracle(self, j):
        for x in (-1.0, -0.62, 0.0, 0.31, 0.7, 1.0):
            assert legendre(j, x) == pytest.approx(
                legendre_coefficient_oracle(j, x), abs=1e-12
            )

    def test_bounded_by_one(self):
        grid = np.linspace(-1.0, 1.0, 501)
        for j in range(15):
            assert np.max(np.abs(legendre(j, grid))) <= 1.0 + 1e-12

    def test_endpoints(self):
        for j in range(8):
            assert legendre(j, 1.0) == pytest.approx(1.0, abs=1e-13)
            assert legendre(j, -1.0) == pytest.approx((-1.0) ** j, abs=1e-13)

    def test_domain_checked(self):
        with pytest.raises(InvalidInputError):
            legendre(3, 1.2)
        with pytest.raises(InvalidInputError, match=r"\[-1, 1\]"):
            legendre(3, math.nan)
        with pytest.raises(InvalidInputError, match=r"\[-1, 1\]"):
            legendre(3, np.array([0.5, math.nan]))
        with pytest.raises(InvalidInputError):
            legendre(-1, 0.5)

    def test_array_input(self):
        xs = np.array([0.0, 0.5])
        assert np.allclose(legendre(2, xs), [-0.5, -0.125])


class TestWidthIntegral:
    @pytest.mark.parametrize("j,exact", list(enumerate(EXACT_WIDTH_FACTORS)))
    def test_exact_low_degrees(self, j, exact):
        assert sigma_j_sq(j) == pytest.approx(exact, abs=1e-12)

    def test_three_decimal_table(self):
        vals = [sigma_j_sq(j) for j in range(5)]
        assert [round(v, 3) for v in vals] == [1.571, 0.393, 0.245, 0.178, 0.139]

    @pytest.mark.parametrize("j", [0, 3, 7, 12, 20])
    def test_quadrature_converged(self, j):
        assert abs(sigma_j_sq(j, 512) - sigma_j_sq(j, 1024)) < 1e-10
        assert abs(sigma_j_sq(j, 64) - sigma_j_sq(j, 128)) < 1e-10

    @pytest.mark.parametrize("quad_points", [64, 65, 77, 100, 128, 200, 256, 512, 1024])
    def test_quadrature_converged_to_its_bound(self, quad_points):
        # a q-node rule reaches J = q // 2 - 4 and rejects the next J
        bound = quad_points // 2 - 4
        for j in [0, 3, 7, 12, 20, bound]:
            assert sigma_j_sq(j, quad_points) == pytest.approx(sigma_j_sq(j, 2048), rel=1e-10)
        with pytest.raises(InvalidInputError, match=f"J = {bound + 1} needs quad_points"):
            sigma_j_sq(bound + 1, quad_points)

    def test_quad_points_floor(self):
        with pytest.raises(InvalidInputError):
            sigma_j_sq(2, quad_points=32)

    def test_quad_points_ceiling(self):
        assert sigma_j_sq(2, quad_points=2048) == pytest.approx(5 * math.pi / 64, abs=1e-12)
        misses = _angular_grid.cache_info().misses
        with pytest.raises(InvalidInputError, match=r"\[64, 2048\], got 2049"):
            sigma_j_sq(2, quad_points=2049)
        # rejected before any rule is built
        assert _angular_grid.cache_info().misses == misses

    def test_strictly_decreasing_in_j(self):
        vals = [sigma_j_sq(j) for j in range(21)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_legendre_orthogonality_on_grid(self):
        for j1 in range(11):
            for j2 in range(j1, 11):
                got = legendre_pair_integral(j1, j2)
                want = 2.0 / (2 * j1 + 1) if j1 == j2 else 0.0
                assert abs(got - want) < 1e-10

    def test_width_table_rows(self):
        table = width_table(4)
        assert [tj for tj, _ in table] == [0, 2, 4, 6, 8]
        assert dict(table)[0] == pytest.approx(math.pi / 2, abs=1e-12)


class TestDefaultRule:
    """The 512-node rule ships as package data recorded from ``leggauss``."""

    def test_shipped_rule_is_leggauss_bit_for_bit(self):
        lines = (SRC_DATA / "gauss_legendre_512.csv").read_text(encoding="ascii").splitlines()
        assert lines[0] == "x,w"
        shipped = np.array([[float.fromhex(v) for v in ln.split(",")] for ln in lines[1:]])
        reference = np.column_stack(leggauss(512))
        assert shipped.shape == (512, 2)
        np.testing.assert_array_equal(shipped.view(np.uint64), reference.view(np.uint64))

    @pytest.mark.parametrize("quad_points", [512, 1024])
    def test_grid_is_the_mapped_leggauss_rule(self, quad_points):
        x, w = leggauss(quad_points)
        for got, want in zip(_angular_grid(quad_points),
                             (0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
            assert not got.flags.writeable


class TestEffectiveWidth:
    def test_single_state_is_bare_width(self):
        assert effective_width(4, 1) == pytest.approx(
            math.sqrt(sigma_j_sq(2)), rel=1e-15
        )

    def test_sqrt_dimension_scaling(self):
        assert effective_width(4, 4) == pytest.approx(
            2 * effective_width(4, 1), rel=1e-15
        )

    def test_j0_n100(self):
        assert effective_width(0, 100, 1.0) == pytest.approx(
            10 * math.sqrt(math.pi / 2), rel=1e-14
        )

    def test_half_integer_needs_override(self):
        with pytest.raises(InvalidInputError):
            effective_width(3, 5)
        assert effective_width(3, 4, width_factor=0.25) == pytest.approx(1.0)

    @pytest.mark.parametrize("factor", BAD_FACTORS)
    def test_factor_must_be_positive_and_finite(self, factor):
        with pytest.raises(InvalidInputError,
                           match="width factor for two_j=4 must be positive and finite"):
            effective_width(4, 3, width_factor=factor)

    @pytest.mark.parametrize("scale", [0.0, -2.0, math.nan, math.inf])
    def test_scale_must_be_positive(self, scale):
        with pytest.raises(InvalidInputError, match="sigma_scale"):
            effective_width(4, 3, scale)

    @pytest.mark.parametrize("value", ["1", b"1", [1.0]], ids=repr)
    def test_scale_and_factor_must_be_real_numbers(self, value):
        with pytest.raises(InvalidInputError, match="sigma_scale"):
            effective_width(4, 3, value)
        with pytest.raises(InvalidInputError, match="width factor for two_j=3"):
            effective_width(3, 3, width_factor=value)


class TestDimensionTable:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            DimensionTable(())
        with pytest.raises(InvalidInputError):
            DimensionTable(((0, 1), (0, 2)))
        with pytest.raises(InvalidInputError):
            DimensionTable(((2, 0),))
        with pytest.raises(InvalidInputError):
            DimensionTable(((-2, 5),))
        # a float is rejected, not truncated; numpy integers pass
        for entries in (((2.7, 3.9), (0, 1)), ((2.0, 3),), ((2, 3.0),)):
            with pytest.raises(InvalidInputError, match="two_j and dim must be integers"):
                DimensionTable(entries)
        assert DimensionTable(((np.int64(2), np.int32(3)),)).entries == ((2, 3),)

    def test_sorted_and_total(self):
        t = DimensionTable(((4, 7), (0, 3)))
        assert t.entries == ((0, 3), (4, 7))
        assert t.n_tot == 10

    def test_csv_roundtrip(self, tmp_path):
        t = DimensionTable(((0, 3), (2, 9), (5, 1)))
        path = tmp_path / "dims.csv"
        write_dims_csv(t, path)
        assert DimensionTable.from_csv(path) == t

    def test_csv_comments_and_header(self, tmp_path):
        path = tmp_path / "dims.csv"
        path.write_text("# a comment\ntwoJ,dim\n0,4  # trailing note\n2,6\n")
        t = DimensionTable.from_csv(path)
        assert t.entries == ((0, 4), (2, 6))

    def test_csv_malformed(self, tmp_path):
        path = tmp_path / "dims.csv"
        path.write_text("twoJ,dim\n0\n")
        with pytest.raises(InvalidInputError):
            DimensionTable.from_csv(path)
        path.write_text("# nothing\n")
        with pytest.raises(InvalidInputError):
            DimensionTable.from_csv(path)

    def test_bundled_table_shape(self):
        t = example_dimension_table()
        fractions = dict(f_space(t))
        assert 0 in fractions and fractions[0] < 0.1  # J=0 a small share
        assert all(tj % 2 == 0 for tj, _ in t.entries)


class TestFSpace:
    def test_two_equal_entries(self):
        t = DimensionTable(((0, 1), (4, 1)))
        assert f_space(t) == [(0, 0.5), (4, 0.5)]

    def test_ten_ninety(self):
        t = DimensionTable(((0, 10), (4, 90)))
        assert f_space(t) == [(0, 0.1), (4, 0.9)]

    def test_sums_to_one(self):
        t = example_dimension_table()
        assert sum(f for _, f in f_space(t)) == pytest.approx(1.0, abs=1e-12)


class TestGsDistribution:
    def test_single_entry_always_wins(self):
        t = DimensionTable(((4, 10),))
        dist = gs_distribution(t, EnsembleConfig(1, 200))
        assert dist.fraction(4) == 1.0

    def test_symmetric_pair_with_forced_equal_widths(self):
        t = DimensionTable(((0, 12), (4, 12)))
        cfg = EnsembleConfig(21, 10000)
        dist = gs_distribution(t, cfg, widths={0: 1.0, 4: 1.0})
        se = math.sqrt(0.25 / cfg.trials)
        assert abs(dist.fraction(0) - 0.5) <= 3 * se

    def test_counts_sum_to_trials(self):
        dist = gs_distribution(example_dimension_table(), EnsembleConfig(2, 500))
        assert sum(c for _, c in dist.counts) == 500
        assert sum(f for _, f in dist.entries) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self):
        t = example_dimension_table()
        a = gs_distribution(t, EnsembleConfig(5, 800, sigma0=1.0))
        b = gs_distribution(t, EnsembleConfig(5, 800, sigma0=37.5))
        assert a.counts == b.counts

    def test_reproducible_and_thread_invariant(self):
        t = example_dimension_table()
        cfg = EnsembleConfig(6, 400)
        a = gs_distribution(t, cfg, threads=1)
        b = gs_distribution(t, cfg, threads=4)
        assert a.counts == b.counts

    @pytest.mark.parametrize("threads", [0, -5])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(InvalidInputError, match=f"threads must be >= 1, got {threads}"):
            gs_distribution(example_dimension_table(), EnsembleConfig(1, 10), threads=threads)

    def test_half_integer_rows_need_widths(self):
        t = DimensionTable(((3, 5), (4, 5)))
        with pytest.raises(InvalidInputError):
            gs_distribution(t, EnsembleConfig(1, 10))
        dist = gs_distribution(t, EnsembleConfig(1, 10), widths={3: 0.3})
        assert sum(c for _, c in dist.counts) == 10

    @pytest.mark.parametrize("factor", BAD_FACTORS)
    def test_bad_width_factor_rejected(self, factor):
        t = DimensionTable(((0, 5), (4, 5)))
        with pytest.raises(InvalidInputError, match="positive and finite"):
            gs_distribution(t, EnsembleConfig(1, 10), widths={4: factor})

    def test_width_table_pairs_are_widths(self):
        t = example_dimension_table()
        cfg = EnsembleConfig(3, 300)
        table = width_table(10)
        assert gs_distribution(t, cfg, widths=table) == gs_distribution(t, cfg)
        assert gs_distribution(t, cfg, widths=dict(table)) == gs_distribution(t, cfg)

    def test_matches_frozen_baseline(self):
        baseline = json.loads((DATA / "gsdist_baseline.json").read_text())
        cfg = EnsembleConfig(baseline["master_seed"], baseline["trials"],
                             baseline["sigma0"])
        dist = gs_distribution(example_dimension_table(), cfg,
                               quad_points=baseline["quad_points"])
        got = {str(tj): c for tj, c in dist.counts}
        assert got == baseline["counts"]
        assert dist.tie_count == 0


class TestCsvOutputs:
    def test_width_csv(self, tmp_path):
        path = tmp_path / "w.csv"
        assert main(["su2-widths", "--jmax", "2", "--out", str(path)]) == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "twoJ,sigmaJ_sq"
        assert lines[1] == "0,1.57079632679"  # 12 significant digits
        assert len(lines) == 4

    def test_distribution_csv(self, tmp_path):
        dims = tmp_path / "dims.csv"
        write_dims_csv(DimensionTable(((0, 2), (4, 6))), dims)
        path = tmp_path / "d.csv"
        assert main(["gsdist", "--dims", str(dims), "--trials", "100", "--seed", "3",
                     "--out", str(path)]) == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "twoJ,f_space,f_RM"
        assert lines[1].startswith("0,0.25,")
        assert lines[2].startswith("4,0.75,")
