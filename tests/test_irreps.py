import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from irreplab import (
    EnsembleConfig,
    InvalidInputError,
    block_spectra,
    build_group,
    build_invariant,
    decompose,
    decompose_cyclic,
    decompose_polyhedral,
    draw_label_blocks,
    eigensolve,
    ground_state_irrep_census,
    multiset_deviation,
    pair_orbits,
    random_sym_block,
    relabel,
    sample_invariant,
    substream,
)
from irreplab.cli import main
from irreplab.irreps import IrrepBlockSpec, _census_from_specs, _cos_angle, _zeta

from test_groups import ALL_GROUPS, perm_from_stream


class TestPolyhedralDecomposition:
    def test_tetra(self):
        specs = decompose_polyhedral(build_group("tetra"))
        assert [(s.label, s.copies, s.variance_factor) for s in specs] == [
            ("1dim", 1, 10.0),
            ("3dim", 3, 2.0),
        ]
        assert specs[0].coefficients == {0: 1.0, 1: 3.0}
        assert specs[1].coefficients == {0: 1.0, 1: -1.0}

    def test_octa(self):
        specs = decompose_polyhedral(build_group("octa"))
        assert [(s.label, s.copies, s.variance_factor) for s in specs] == [
            ("1dim", 1, 18.0),
            ("2dim", 2, 6.0),
            ("3dim", 3, 2.0),
        ]
        assert specs[0].coefficients == {0: 1.0, 1: 4.0, 2: 1.0}

    def test_cube(self):
        specs = decompose_polyhedral(build_group("cube"))
        assert [(s.label, s.copies, s.variance_factor) for s in specs] == [
            ("1dim+", 1, 20.0),
            ("1dim-", 1, 20.0),
            ("3dim+", 3, 4.0),
            ("3dim-", 3, 4.0),
        ]
        assert specs[0].coefficients == {0: 1.0, 1: 3.0, 2: 3.0, 3: 1.0}
        assert specs[2].coefficients == {0: 1.0, 1: 1.0, 2: -1.0, 3: -1.0}

    @pytest.mark.parametrize("kind", ["tetra", "octa", "cube"])
    def test_copies_sum_to_sites(self, kind):
        g = build_group(kind)
        assert sum(s.copies for s in decompose_polyhedral(g)) == g.sites

    def test_variance_factor_is_sum_of_squared_coefficients(self):
        for kind in ("tetra", "octa", "cube"):
            for s in decompose_polyhedral(build_group(kind)):
                assert s.variance_factor == sum(c * c for c in s.coefficients.values())

    def test_cyclic_rejected(self):
        with pytest.raises(InvalidInputError):
            decompose_polyhedral(build_group("cyclic", 5))

    def test_relabeled_cyclic_group_decomposes(self):
        g = relabel(build_group("cyclic", 6), perm_from_stream(6, 14))
        blocks = draw_label_blocks(pair_orbits(g).count, 2, 44, 0)
        dense = eigensolve(build_invariant(g, blocks)).eigenvalues
        assert multiset_deviation(dense, block_spectra(g, blocks).eigenvalues) < 1e-10

    @pytest.mark.parametrize("kind", ["tetra", "octa", "cube"])
    def test_relabeled_group_same_factors(self, kind):
        # decomposition is tied to orbit structure, not to vertex numbering
        g = relabel(build_group(kind), perm_from_stream(build_group(kind).sites, 8))
        factors = sorted(s.variance_factor for s in decompose_polyhedral(g))
        expected = {"tetra": [2.0, 10.0], "octa": [2.0, 6.0, 18.0],
                    "cube": [4.0, 4.0, 20.0, 20.0]}[kind]
        assert factors == expected
        blocks = draw_label_blocks(pair_orbits(g).count, 2, 55, 0)
        dense = eigensolve(build_invariant(g, blocks)).eigenvalues
        assert multiset_deviation(dense, block_spectra(g, blocks).eigenvalues) < 1e-10


class TestBlockSpectra:
    def test_complete_graph(self):
        g = build_group("tetra")
        ev = block_spectra(g, [np.zeros((1, 1)), np.ones((1, 1))]).eigenvalues
        assert np.allclose(ev, [-1, -1, -1, 3], atol=1e-14)

    def test_cube_graph(self):
        g = build_group("cube")
        blocks = [np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))]
        ev = block_spectra(g, blocks).eigenvalues
        assert np.allclose(ev, [-3, -1, -1, -1, 1, 1, 1, 3], atol=1e-14)

    def test_octa_random_blocks_match_dense(self):
        g = build_group("octa")
        blocks = draw_label_blocks(pair_orbits(g).count, 3, 4, 0)
        dense = eigensolve(build_invariant(g, blocks)).eigenvalues
        assert multiset_deviation(dense, block_spectra(g, blocks).eigenvalues) < 1e-8

    def test_too_few_blocks_rejected(self):
        g = build_group("cyclic", 6)
        with pytest.raises(InvalidInputError, match="got 2 blocks for 4 pair orbits"):
            block_spectra(g, [np.eye(1), np.eye(1)])

    def test_too_many_blocks_rejected(self):
        g = build_group("cyclic", 6)
        with pytest.raises(InvalidInputError, match="got 5 blocks for 4 pair orbits"):
            block_spectra(g, [np.eye(1)] * 5)

    def test_mixed_block_sizes_rejected(self):
        with pytest.raises(InvalidInputError, match="inconsistent block size 3, expected 2"):
            block_spectra(build_group("tetra"), [np.eye(2), np.eye(3)])

    def test_asymmetric_block_rejected(self):
        with pytest.raises(InvalidInputError, match="exactly symmetric"):
            block_spectra(build_group("tetra"), [[[0, 1], [0, 0]], np.eye(2)])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), group=st.sampled_from(ALL_GROUPS), m=st.integers(1, 3),
           seed=st.integers(0, 2**64 - 1), trial=st.integers(0, 2**40))
    def test_union_equals_dense_under_relabeling(self, data, group, m, seed, trial):
        g = build_group(*group)
        g = relabel(g, data.draw(st.permutations(range(g.sites)), label="perm"))
        blocks = draw_label_blocks(pair_orbits(g).count, m, seed, trial)
        dense = eigensolve(build_invariant(g, blocks)).eigenvalues
        assert multiset_deviation(dense, block_spectra(g, blocks).eigenvalues) < 1e-8

    @pytest.mark.parametrize("kind,n", ALL_GROUPS)
    def test_union_equals_dense_all_groups(self, kind, n):
        g = build_group(kind, n)
        orbits = pair_orbits(g).count
        for m, seed in [(1, 0), (2, 1), (5, 2)]:
            blocks = draw_label_blocks(orbits, m, 37 + seed, seed)
            dense = eigensolve(build_invariant(g, blocks)).eigenvalues
            union = block_spectra(g, blocks).eigenvalues
            assert multiset_deviation(dense, union) < 1e-8


def cyclic_blocks(n, fs):
    """Fourier blocks of C_n from distance blocks F_0..F_{n//2} (scalars
    allowed): each spec of ``decompose_cyclic(n)`` with its combination."""
    blocks = [np.atleast_2d(f) for f in fs]
    return [(spec, spec.combination(blocks)) for spec in decompose_cyclic(n)]


class TestCyclicBlocks:
    def test_four_cycle_adjacency(self):
        pairs = cyclic_blocks(4, [0.0, 1.0, 0.0])
        flat = sorted(float(b[0, 0]) for spec, b in pairs for _ in range(spec.copies))
        assert flat == [-2.0, 0.0, 0.0, 2.0]
        # the k = 0 weights are the double-counting factors zeta_j
        assert tuple(pairs[0][0].coefficients.values())[1:] == (2.0, 1.0)

    def test_three_cycle_scalar_formulas(self):
        a, b = 0.7, -1.3
        (s0, b0), (s1, b1) = cyclic_blocks(3, [a, b])
        assert b0[0, 0] == pytest.approx(a + 2 * b, abs=1e-15)
        assert b1[0, 0] == pytest.approx(a - b, abs=1e-15)
        assert (s0.copies, s1.copies) == (1, 2)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_union_of_blocks_is_dense_spectrum(self, n):
        fs = [random_sym_block(substream(60 + n, 0, j), 2)
              for j in range(n // 2 + 1)]
        union = np.sort(np.concatenate(
            [eigensolve(b).eigenvalues for spec, b in cyclic_blocks(n, fs)
             for _ in range(spec.copies)]
        ))
        g = build_group("cyclic", n)
        dense = eigensolve(build_invariant(g, fs)).eigenvalues
        assert multiset_deviation(dense, union) < 1e-8

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 12])
    def test_mirror_blocks_bitwise_equal(self, n):
        # mode k > n/2 has the bitwise weights of mode n-k, so its block
        # is the second copy of spec n-k
        specs = decompose_cyclic(n)
        for k in range(n // 2 + 1, n):
            spec = specs[n - k]
            weights = [1.0] + [_zeta(j, n) * _cos_angle(k, j, n) for j in range(1, n // 2 + 1)]
            assert list(spec.coefficients.values()) == weights
            assert spec.copies == 2

    def test_matches_cyclic_spec_coefficients(self):
        n = 8
        fs = [random_sym_block(substream(70, 0, j), 2) for j in range(n // 2 + 1)]
        for k, (spec, block) in enumerate(cyclic_blocks(n, fs)):
            direct = fs[0] + sum(
                _zeta(j, n) * math.cos(2 * math.pi * k * j / n) * fs[j]
                for j in range(1, n // 2 + 1)
            )
            assert np.allclose(direct, block, atol=0)

    def test_eigenvector_structure_scalar_case(self):
        # k=0 eigenvector constant; k=n/2 alternates sign (even n)
        n = 6
        fs = [float(substream(81, 0, j).normal()) for j in range(n // 2 + 1)]
        g = build_group("cyclic", n)
        h = build_invariant(g, fs).values
        pairs = cyclic_blocks(n, fs)
        const = np.ones(n) / math.sqrt(n)
        assert np.max(np.abs(h @ const - pairs[0][1][0, 0] * const)) < 1e-12
        alt = np.array([(-1.0) ** j for j in range(n)]) / math.sqrt(n)
        assert np.max(np.abs(h @ alt - pairs[n // 2][1][0, 0] * alt)) < 1e-12

    def test_coefficient_keys_are_orbit_numbers_past_z(self):
        g = build_group("cyclic", 60)
        assert pair_orbits(g).count == 31
        for spec in decompose_cyclic(60):
            assert tuple(spec.coefficients) == tuple(range(31))
        assert [s.coefficients for s in decompose(g)] == [
            s.coefficients for s in decompose_cyclic(60)]


class TestCyclicVarianceFactors:
    def test_spot_values(self):
        def rows(n):
            return [(s.copies, s.variance_factor) for s in decompose_cyclic(n)]

        assert rows(4) == [(1, 6.0), (2, 2.0), (1, 6.0)]
        assert decompose_cyclic(6)[0].variance_factor == 10.0
        assert decompose_cyclic(7)[0].variance_factor == 13.0
        assert decompose_cyclic(7)[1].variance_factor == pytest.approx(6.0, rel=1e-14)
        assert rows(2) == [(1, 2.0), (1, 2.0)]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_mirror_symmetry(self, n):
        # the factor of mode n-k is that of mode k, carried as a second
        # copy; k = 0 and (even n) k = n/2 are their own mirrors
        specs = decompose_cyclic(n)
        assert [s.copies for s in specs] == [
            1 if k == 0 or 2 * k == n else 2 for k in range(n // 2 + 1)]
        assert sum(s.copies for s in specs) == n

    @pytest.mark.parametrize("n", range(3, 13))
    def test_k0_attains_maximum(self, n):
        f = [s.variance_factor for s in decompose_cyclic(n)]
        assert f[0] == max(f)
        for k in range(1, n // 2 + 1):
            if n % 2 == 0 and k == n // 2:
                # exact tie: every cosine in the k = n/2 sum is +-1, so
                # the two extreme blocks share the largest width
                assert f[k] == f[0]
            else:
                assert f[k] < f[0]

    def test_matches_spec_variance_factors(self):
        # closed forms of 1 + sum_j zeta_j^2 cos^2(2 pi k j / n): odd n
        # gives 2n-1 at k=0 and n-1 elsewhere; even n gives 2n-2 at k=0
        # and k=n/2, and n-2 elsewhere
        for n in (5, 8):
            for k, spec in enumerate(decompose_cyclic(n)):
                if n % 2:
                    exact = 2 * n - 1 if k == 0 else n - 1
                else:
                    exact = 2 * n - 2 if k in (0, n // 2) else n - 2
                assert spec.variance_factor == pytest.approx(exact, rel=1e-15)

    @pytest.mark.parametrize("n", [2, 4, 5, 6, 7])
    def test_empirical_block_variance(self, n):
        trials = 10000
        samples = np.empty((n // 2 + 1, trials))
        specs = decompose_cyclic(n)
        for t in range(trials):
            blocks = draw_label_blocks(n // 2 + 1, 1, 90 + n, t)
            for k, spec in enumerate(specs):
                samples[k, t] = spec.combination(blocks)[0, 0]
        for k, spec in enumerate(specs):
            assert abs(samples[k].var(ddof=1) / spec.variance_factor - 1.0) < 0.05


class TestCensus:
    def test_tetra_scalar_analytic_half(self):
        # ground state sits in the 1-dim block exactly when the
        # off-diagonal draw is negative: probability 1/2
        cfg = EnsembleConfig(3, 10000, group="tetra", m=1)
        res = ground_state_irrep_census(cfg)
        assert abs(res.fraction("1dim") - 0.5) <= 3 * math.sqrt(0.25 / cfg.trials)
        assert res.tie_count == 0
        assert sum(r.gs_count for r in res.rows) == cfg.trials

    def test_single_block_degenerate_census(self):
        specs = [IrrepBlockSpec("only", 1, {0: 1.0})]
        cfg = EnsembleConfig(1, 50, m=2)
        res = _census_from_specs(specs, 1, 1, cfg)
        assert res.rows[0].gs_fraction == 1.0

    def test_exact_tie_detection(self):
        # two identical combinations always tie; the earlier one wins
        specs = [IrrepBlockSpec("first", 1, {0: 1.0}),
                 IrrepBlockSpec("second", 1, {0: 1.0})]
        cfg = EnsembleConfig(5, 64, m=2)
        res = _census_from_specs(specs, 1, 2, cfg)
        assert res.tie_count == 64
        assert res.rows[0].gs_count == 64
        assert res.rows[1].gs_count == 0

    def test_reproducible_and_thread_invariant(self):
        cfg = EnsembleConfig(17, 300, group="octa", m=3)
        a = ground_state_irrep_census(cfg, threads=1)
        b = ground_state_irrep_census(cfg, threads=4)
        assert a.rows == b.rows

    def test_cyclic_census_rows(self):
        cfg = EnsembleConfig(2, 200, group="cyclic", n=6, m=2)
        res = ground_state_irrep_census(cfg)
        assert [r.label for r in res.rows] == ["k=0", "k=1", "k=2", "k=3"]
        assert [r.copies for r in res.rows] == [1, 2, 2, 1]
        assert sum(r.gs_fraction for r in res.rows) == pytest.approx(1.0, abs=1e-12)
        assert sum(r.dimensional_fraction for r in res.rows) == pytest.approx(1.0)

    def test_group_required(self):
        with pytest.raises(InvalidInputError):
            ground_state_irrep_census(EnsembleConfig(1, 10))

    def test_csv_layout(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["census", "--group", "tetra", "--m", "1", "--trials", "10",
                     "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("irrep_label,copies,block_dim,predicted_variance_factor,"
                            "gs_fraction,dimensional_fraction")
        assert lines[1].startswith("1dim,1,1,10,")
        assert lines[2].startswith("3dim,3,1,2,")


def exact_scalar_census(group):
    """Exact ground-state fractions of the m = 1 census.

    With scalar blocks, irrep i's block is the linear form C_i . z in the
    independent standard normals z of the orbits, so its share is the
    Gaussian orthant probability P(C_i z - C_j z < 0 for every j != i).
    """
    specs = decompose(group)
    c = np.zeros((len(specs), pair_orbits(group).count))
    for i, spec in enumerate(specs):
        for orbit, coeff in spec.coefficients.items():
            c[i, orbit] = coeff
    probs = []
    for i in range(len(specs)):
        diff = c[i] - np.delete(c, i, axis=0)  # row j: the form L_i - L_j
        cov = diff @ diff.T
        # unseeded, the integrator's result moves in the 6th digit
        zero = np.zeros(len(cov))
        probs.append(multivariate_normal(zero, cov, seed=0).cdf(zero))
    return np.array(probs)


class TestExactScalarCensus:
    def test_probabilities_sum_to_one(self):
        for kind, n in ALL_GROUPS:
            assert exact_scalar_census(build_group(kind, n)).sum() == pytest.approx(1.0, abs=1e-4)

    def test_spot_values(self):
        assert exact_scalar_census(build_group("tetra")) == pytest.approx([0.5, 0.5], abs=1e-4)
        assert exact_scalar_census(build_group("octa")) == pytest.approx(
            [0.426, 0.375, 0.199], abs=1e-3)
        assert exact_scalar_census(build_group("cube")) == pytest.approx(
            [0.31, 0.31, 0.19, 0.19], abs=1e-3)

    @pytest.mark.parametrize("kind,n", ALL_GROUPS)
    def test_census_matches_orthant_probabilities(self, kind, n):
        cfg = EnsembleConfig(2024, 20000, group=kind, n=n, m=1)
        res = ground_state_irrep_census(cfg)
        p = exact_scalar_census(build_group(kind, n))
        f = np.array([r.gs_fraction for r in res.rows])
        # 1e-4 covers the integrator's error
        window = 5 * np.sqrt(p * (1 - p) / cfg.trials) + 1e-4
        assert np.all(np.abs(f - p) <= window), (f, p)
        assert res.tie_count == 0


class TestSampleInvariant:
    def test_deterministic_and_invariant(self):
        g = build_group("cube")
        cfg = EnsembleConfig(23, 1, group="cube", m=2)
        h1, blocks1 = sample_invariant(g, cfg)
        h2, _ = sample_invariant(g, cfg)
        assert np.array_equal(h1.values, h2.values)
        from irreplab import check_invariance

        assert check_invariance(h1, g, 2) == 0.0
        assert len(blocks1) == 4
