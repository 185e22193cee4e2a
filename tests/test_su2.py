import functools
import json
import math
from fractions import Fraction
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
    sigma_j_sq,
    width_table,
)
from irreplab import su2
from irreplab.cli import main

DATA = Path(__file__).parent / "data"
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


def legendre(j, x):
    """P_j at the entries of ``x`` by the three-term recurrence."""
    x = np.asarray(x, dtype=np.float64)
    prev, cur = np.ones_like(x), x
    if j == 0:
        return prev
    for k in range(1, j):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur


def legendre_coefficient_oracle(j, x):
    """P_j via the explicit expansion 2^-j sum_k C(j,k)^2 (x-1)^(j-k) (x+1)^k."""
    total = 0.0
    for k in range(j + 1):
        total += math.comb(j, k) ** 2 * (x - 1.0) ** (j - k) * (x + 1.0) ** k
    return total / 2.0**j


@functools.lru_cache(maxsize=None)
def angular_rule(nodes):
    """A ``nodes``-point Gauss-Legendre rule mapped to the angles [0, pi]."""
    x, w = leggauss(nodes)
    return 0.5 * math.pi * (x + 1.0), 0.5 * math.pi * w


def quadrature_width(j, nodes):
    """``integral_0^pi P_j(cos w)^2 sin^2 w dw`` on a ``nodes``-point rule."""
    theta, weights = angular_rule(nodes)
    p, s = legendre(j, np.cos(theta)), np.sin(theta)
    return float(np.sum(weights * p * p * s * s))


def cosine_double_sum(j):
    """The width integral over pi as a Fraction, integrating each of the
    (j + 1)^2 terms of P_j(cos w)^2 sin^2 w, where
    P_j(cos w) = 4^-j sum_k b_k cos((j - 2k) w), b_k = C(2k, k) C(2j - 2k, j - k)."""
    def cos_sin_sq(m):
        # integral_0^pi cos(m w) sin^2 w dw / pi, with sin^2 = (1 - cos 2w) / 2
        return {0: Fraction(1, 2), 2: Fraction(-1, 4)}.get(abs(m), Fraction(0))

    b = [math.comb(2 * k, k) * math.comb(2 * (j - k), j - k) for k in range(j + 1)]
    total = Fraction(0)
    for k in range(j + 1):
        for l in range(j + 1):
            # cos(a w) cos(c w) = (cos((a - c) w) + cos((a + c) w)) / 2
            a, c = j - 2 * k, j - 2 * l
            total += b[k] * b[l] * (cos_sin_sq(a - c) + cos_sin_sq(a + c)) / 2
    return total / 16**j


def legendre_pair_integral(j1, j2):
    """``integral_0^pi P_j1(cos w) P_j2(cos w) sin w dw`` on a 512-node rule."""
    theta, weights = angular_rule(512)
    c = np.cos(theta)
    return float(np.sum(weights * legendre(j1, c) * legendre(j2, c) * np.sin(theta)))


class TestLegendre:
    """The recurrence the quadrature checks integrate."""

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

    def test_array_input(self):
        xs = np.array([0.0, 0.5])
        assert np.allclose(legendre(2, xs), [-0.5, -0.125])


class TestWidthIntegral:
    @pytest.mark.parametrize("j,exact", list(enumerate(EXACT_WIDTH_FACTORS)))
    def test_exact_low_degrees(self, j, exact):
        assert sigma_j_sq(j) == exact

    @pytest.mark.parametrize("j", range(41))
    def test_matches_the_cosine_double_sum(self, j):
        r = cosine_double_sum(j)
        assert sigma_j_sq(j) == math.pi * (r.numerator / r.denominator)

    def test_three_decimal_table(self):
        vals = [sigma_j_sq(j) for j in range(5)]
        assert [round(v, 3) for v in vals] == [1.571, 0.393, 0.245, 0.178, 0.139]

    # the 512- and 1024-node rules land within 2e-14 of the exact value
    @pytest.mark.parametrize("j", [0, 3, 7, 12, 20])
    def test_quadrature_converged(self, j):
        for nodes in (512, 1024):
            assert sigma_j_sq(j) == pytest.approx(quadrature_width(j, nodes), rel=2e-14)

    # a q-node rule holds 1e-10 up to J = q // 2 - 4
    @pytest.mark.parametrize("quad_points", [64, 65, 77, 100, 128, 200, 256, 512, 1024])
    def test_quadrature_converged_to_its_bound(self, quad_points):
        for j in [0, 3, 7, 12, 20, quad_points // 2 - 4]:
            assert sigma_j_sq(j) == pytest.approx(quadrature_width(j, quad_points), rel=1e-10)

    def test_matches_a_2048_node_rule_up_to_the_ceiling(self):
        # leggauss(2048) itself integrates sin^2 w 1.6e-13 off pi/2, which
        # sets the tolerance
        for j in [*range(0, 1020, 17), 1020]:
            assert sigma_j_sq(j) == pytest.approx(quadrature_width(j, 2048), rel=3e-13)

    @pytest.mark.parametrize("j, message", [(2.5, "J must be an integer, got 2.5")])
    def test_non_integer_arguments_rejected(self, j, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            sigma_j_sq(j)

    @pytest.mark.parametrize("j", [-1, 1021])
    def test_j_outside_the_ceiling_rejected(self, j):
        with pytest.raises(InvalidInputError, match=rf"^J must be in \[0, 1020\], got {j}$"):
            sigma_j_sq(j)

    def test_width_table_checks_j_max_before_any_width(self, monkeypatch):
        calls = []
        monkeypatch.setattr(su2, "sigma_j_sq", lambda j: calls.append(j))
        for j_max in (-1, 1021):
            with pytest.raises(InvalidInputError,
                               match=rf"^j_max must be in \[0, 1020\], got {j_max}$"):
                width_table(j_max)
        assert calls == []

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

    def test_width_table_needs_an_integer_j_max(self):
        with pytest.raises(InvalidInputError, match="^j_max must be an integer, got 2.5$"):
            width_table(2.5)
        assert width_table(np.int64(2)) == width_table(2)


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

    @pytest.mark.parametrize("two_j, n_j, message", [
        (0, 2.5, "subspace dimension must be an integer, got 2.5"),
        (4.0, 3, "two_j must be an integer, got 4.0")])
    def test_non_integer_arguments_rejected(self, two_j, n_j, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            effective_width(two_j, n_j)

    def test_negative_j_rejected(self):
        with pytest.raises(InvalidInputError, match=r"^J must be in \[0, 1020\], got -1$"):
            effective_width(-2, 3)

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
        for entries, message in [(((2.7, 3.9), (0, 1)), "two_j must be an integer, got 2.7"),
                                 (((2.0, 3),), "two_j must be an integer, got 2.0"),
                                 (((2, 3.0),), "dim must be an integer, got 3.0")]:
            with pytest.raises(InvalidInputError, match=f"^{message}$"):
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
        with pytest.raises(KeyError, match="2"):
            dist.fraction(2)

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

    # one chunk of the bundled table's trials holds 126 of them: 300 span three
    @pytest.mark.parametrize("trials", [10, 300])
    def test_non_integer_threads_rejected(self, trials):
        with pytest.raises(InvalidInputError, match="^threads must be an integer, got 2.5$"):
            gs_distribution(example_dimension_table(), EnsembleConfig(1, trials), threads=2.5)

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
        dist = gs_distribution(example_dimension_table(), cfg)
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
