import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal

from irreplab import (
    EnsembleConfig,
    InvalidInputError,
    NumericFailureError,
    PointGroup,
    block_spectra,
    build_group,
    build_invariant,
    decompose,
    draw_label_blocks,
    eigensolve,
    ground_state_irrep_census,
    multiset_deviation,
)
from irreplab import irreps, rng
from irreplab.cli import main
from irreplab.irreps import (
    IrrepBlockSpec,
    _block_eigenvalues,
    _census_from_specs,
    _census_minima,
    _spectrum_eigenvalues,
)
from irreplab.rng import substream

from test_groups import ALL_GROUPS, perm_from_stream, relabel


def named(coefficients):
    """(orbit, coefficient) pairs of the orbits a coefficient row names."""
    return [(k, float(c)) for k, c in enumerate(coefficients) if not np.isnan(c)]


def moved_orbits(g, h, perm):
    """Orbit numbers of ``h = relabel(g, perm)``, indexed by g's orbits."""
    return [int(h.orbit_index[perm[i], perm[j]]) for i, j in
            (np.argwhere(g.orbit_index == k)[0] for k in range(g.orbit_count))]


class TestPolyhedralDecomposition:
    # The coefficient tables the orbit-algebra derivation replaced, as the
    # (orbit, coefficient) pairs each row names; every other entry is NaN.
    # Positions are orbit numbers, and the kernel sums them in ascending
    # order, which fixes every census byte.
    TABLES = {
        "tetra": [
            ("1dim", 1, 10.0, [(0, 1.0), (1, 3.0)]),
            ("3dim", 3, 2.0, [(0, 1.0), (1, -1.0)]),
        ],
        "octa": [
            ("1dim", 1, 18.0, [(0, 1.0), (1, 4.0), (2, 1.0)]),
            ("2dim", 2, 6.0, [(0, 1.0), (1, -2.0), (2, 1.0)]),
            ("3dim", 3, 2.0, [(0, 1.0), (2, -1.0)]),
        ],
        "cube": [
            ("1dim+", 1, 20.0, [(0, 1.0), (1, 3.0), (2, 3.0), (3, 1.0)]),
            ("1dim-", 1, 20.0, [(0, 1.0), (1, -3.0), (2, 3.0), (3, -1.0)]),
            ("3dim+", 3, 4.0, [(0, 1.0), (1, 1.0), (2, -1.0), (3, -1.0)]),
            ("3dim-", 3, 4.0, [(0, 1.0), (1, -1.0), (2, -1.0), (3, 1.0)]),
        ],
    }

    def check_table(self, kind):
        group = build_group(kind)
        specs = decompose(group)
        assert [(s.label, s.copies, s.variance_factor, named(s.coefficients))
                for s in specs] == self.TABLES[kind]
        assert all(s.coefficients.shape == (group.orbit_count,) for s in specs)

    def test_tetra(self):
        self.check_table("tetra")

    def test_octa(self):
        self.check_table("octa")

    def test_cube(self):
        self.check_table("cube")

    @pytest.mark.parametrize("kind", ["tetra", "octa", "cube"])
    def test_copies_sum_to_sites(self, kind):
        g = build_group(kind)
        assert sum(s.copies for s in decompose(g)) == g.sites

    def test_variance_factor_is_sum_of_squared_coefficients(self):
        for kind in ("tetra", "octa", "cube"):
            for s in decompose(build_group(kind)):
                assert s.variance_factor == sum(c * c for _, c in named(s.coefficients))

    @pytest.mark.parametrize("kind, n", ALL_GROUPS + [("cyclic", 60), ("cyclic", 1000)])
    def test_coefficients_are_rows_of_one_read_only_array(self, kind, n):
        group = build_group(kind, n)
        specs = decompose(group)
        table = specs[0].coefficients.base
        assert table.dtype == np.float64 and not table.flags.writeable
        assert table.shape == (len(specs), group.orbit_count)
        for i, spec in enumerate(specs):
            assert spec.coefficients.base is table and not spec.coefficients.flags.writeable
            assert np.shares_memory(spec.coefficients, table[i])

    def test_cyclic_rejected(self):
        # C_5 outside the Fourier path: its orbit matrices commute, but
        # their eigenvalues 2 cos 72 deg are not integers
        g = PointGroup.from_generators("c5", 5, [(1, 2, 3, 4, 0)])
        with pytest.raises(InvalidInputError, match="c5: pair-orbit coefficients are not integers"):
            decompose(g)

    def test_non_commuting_action_rejected(self):
        # S_3 acting on itself by left multiplication repeats its 2-dim irrep
        g = PointGroup.from_generators("s3", 6, [(2, 3, 0, 1, 5, 4), (3, 2, 5, 4, 0, 1)])
        assert g.order == 6
        with pytest.raises(InvalidInputError, match="s3: pair-orbit matrices do not commute"):
            decompose(g)

    @pytest.mark.parametrize("bend", ["column 0 scaled", "column 1 repeats column 0"])
    @pytest.mark.parametrize("kind", ["tetra", "octa", "cube"])
    def test_eigenvectors_must_be_orthonormal(self, kind, bend, monkeypatch):
        # the residual check on the integer coefficients passes some of these
        eigh = np.linalg.eigh

        def bent(a):
            w, v = eigh(a)
            if bend == "column 0 scaled":
                v[:, 0] *= 1.2
            else:
                v[:, 1] = v[:, 0]
            return w, v

        group = build_group(kind)
        monkeypatch.setattr(np.linalg, "eigh", bent)
        with pytest.raises(NumericFailureError):
            decompose(group)

    def test_lapack_failure_is_numeric_failure(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        group = build_group("octa")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericFailureError, match="Eigenvalues did not converge"):
            decompose(group)

    def test_unnameable_blocks_rejected(self):
        # the Klein four-group acting on itself has four 1-dim irreps,
        # more than the +/- rule can name
        g = PointGroup.from_generators("v4", 4, [(1, 0, 3, 2), (2, 3, 0, 1)])
        with pytest.raises(InvalidInputError, match="v4: no \\+/- rule names its 1dim blocks"):
            decompose(g)

    @settings(max_examples=50, deadline=None)
    @given(kind=st.sampled_from(["tetra", "octa", "cube"]), data=st.data())
    def test_relabeling_moves_coefficients_with_their_pairs(self, kind, data):
        g = build_group(kind)
        perm = data.draw(st.permutations(range(g.sites)), label="perm")
        h = relabel(g, perm)
        moved = moved_orbits(g, h, perm)
        for a, b in zip(decompose(g), decompose(h)):
            assert (b.label, b.copies, b.variance_factor) == (a.label, a.copies, a.variance_factor)
            # relabeling permutes the columns, NaN included
            assert np.array_equal(bits(b.coefficients[moved]), bits(a.coefficients))

    @pytest.mark.parametrize("n", list(range(2, 13)) + [40, 60])
    def test_relabeled_ring_keys_ascend(self, n):
        # column k is orbit k on every numbering: relabeling a ring
        # permutes its coefficient columns and moves no bit
        ring = build_group("cyclic", n)
        for seed in range(5):
            perm = perm_from_stream(n, seed)
            g = relabel(ring, perm)
            moved = moved_orbits(ring, g, perm)
            for a, b in zip(decompose(ring), decompose(g)):
                assert np.array_equal(bits(b.coefficients[moved]), bits(a.coefficients))

    def test_relabeled_cyclic_group_decomposes(self):
        g = relabel(build_group("cyclic", 6), perm_from_stream(6, 14))
        blocks = draw_label_blocks(g.orbit_count, 2, 44, 0)
        dense = eigensolve(build_invariant(g, blocks))
        assert multiset_deviation(dense, block_spectra(g, blocks)) < 1e-10

    @pytest.mark.parametrize("kind", ["tetra", "octa", "cube"])
    def test_relabeled_group_same_factors(self, kind):
        # decomposition is tied to orbit structure, not to vertex numbering
        g = relabel(build_group(kind), perm_from_stream(build_group(kind).sites, 8))
        factors = sorted(s.variance_factor for s in decompose(g))
        expected = {"tetra": [2.0, 10.0], "octa": [2.0, 6.0, 18.0],
                    "cube": [4.0, 4.0, 20.0, 20.0]}[kind]
        assert factors == expected
        blocks = draw_label_blocks(g.orbit_count, 2, 55, 0)
        dense = eigensolve(build_invariant(g, blocks))
        assert multiset_deviation(dense, block_spectra(g, blocks)) < 1e-10


class TestBlockSpectra:
    def test_complete_graph(self):
        g = build_group("tetra")
        ev = block_spectra(g, [np.zeros((1, 1)), np.ones((1, 1))])
        assert np.allclose(ev, [-1, -1, -1, 3], atol=1e-14)

    def test_cube_graph(self):
        g = build_group("cube")
        blocks = [np.zeros((1, 1)), np.ones((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))]
        ev = block_spectra(g, blocks)
        assert np.allclose(ev, [-3, -1, -1, -1, 1, 1, 1, 3], atol=1e-14)

    @pytest.mark.parametrize("kind,n", [("cyclic", 2), ("cyclic", 7), ("tetra", None),
                                        ("octa", None), ("cube", None)])
    def test_returns_read_only_ascending_float64(self, kind, n):
        g = build_group(kind, n)
        ev = block_spectra(g, draw_label_blocks(g.orbit_count, 2, 23, 0))
        assert type(ev) is np.ndarray and ev.dtype == np.float64 and ev.shape == (2 * g.sites,)
        assert np.all(ev[1:] >= ev[:-1])
        assert not ev.flags.writeable

    def test_octa_random_blocks_match_dense(self):
        g = build_group("octa")
        blocks = draw_label_blocks(g.orbit_count, 3, 4, 0)
        dense = eigensolve(build_invariant(g, blocks))
        assert multiset_deviation(dense, block_spectra(g, blocks)) < 1e-8

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

    def test_infinite_block_rejected(self):
        # bad input, not an overflow of the combination blocks
        with pytest.raises(InvalidInputError, match="^matrix entries must be finite$"):
            block_spectra(build_group("tetra"), [np.eye(2), np.full((2, 2), np.inf)])

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), group=st.sampled_from(ALL_GROUPS), m=st.integers(1, 3),
           seed=st.integers(0, 2**64 - 1), trial=st.integers(0, 2**40))
    def test_union_equals_dense_under_relabeling(self, data, group, m, seed, trial):
        g = build_group(*group)
        g = relabel(g, data.draw(st.permutations(range(g.sites)), label="perm"))
        blocks = draw_label_blocks(g.orbit_count, m, seed, trial)
        dense = eigensolve(build_invariant(g, blocks))
        assert multiset_deviation(dense, block_spectra(g, blocks)) < 1e-8

    @pytest.mark.parametrize("kind,n", ALL_GROUPS)
    def test_union_equals_dense_all_groups(self, kind, n):
        g = build_group(kind, n)
        orbits = g.orbit_count
        for m, seed in [(1, 0), (2, 1), (5, 2)]:
            blocks = draw_label_blocks(orbits, m, 37 + seed, seed)
            dense = eigensolve(build_invariant(g, blocks))
            union = block_spectra(g, blocks)
            assert multiset_deviation(dense, union) < 1e-8


def cyclic_specs(n):
    return decompose(build_group("cyclic", n))


def cyclic_blocks(n, fs):
    """Fourier blocks of C_n from distance blocks F_0..F_{n//2} (scalars
    allowed): each spec of ``cyclic_specs(n)`` with its combination."""
    blocks = [np.atleast_2d(f) for f in fs]
    return [(spec, spec.combination(blocks)) for spec in cyclic_specs(n)]


def ref_zeta(j, n):
    """Double-counting weight of distance j in the C_n Fourier sum."""
    return 1.0 if 2 * j == n else 2.0


def ref_cos(k, j, n):
    """cos(2 pi k j / n) through the reduced angle r, with r = 0, 2r = n
    and 4r = n snapped to their exact values, one scalar at a time."""
    r = (k * j) % n
    r = min(r, n - r)
    if r == 0:
        return 1.0
    if 2 * r == n:
        return -1.0
    if 4 * r == n:
        return 0.0
    return math.cos(2.0 * math.pi * r / n)


def ref_ring_specs(n, orbit_of):
    """(label, copies, [(orbit, weight.hex())]) of every Fourier block,
    keys ascending; ``orbit_of[j]`` is the orbit holding distance j."""
    specs = []
    for k in range(n // 2 + 1):
        coeff = {orbit_of[0]: 1.0}
        for j in range(1, n // 2 + 1):
            coeff[orbit_of[j]] = ref_zeta(j, n) * ref_cos(k, j, n)
        specs.append((f"k={k}", 1 if k == 0 or 2 * k == n else 2,
                      [(o, c.hex()) for o, c in sorted(coeff.items())]))
    return specs


class TestFourierCoefficients:
    @pytest.mark.parametrize("n", list(range(2, 61)) + [1000])
    def test_ring_specs_match_scalar_reference_bitwise(self, n):
        ring = build_group("cyclic", n)
        perms = [tuple(range(n))]
        if n <= 60:
            perms += [perm_from_stream(n, seed) for seed in (3, 4)]
        for perm in perms:
            g = relabel(ring, perm)
            # old site j sits at distance j from old site 0
            orbit_of = [int(g.orbit_index[perm[0], perm[j]]) for j in range(n // 2 + 1)]
            got = [(s.label, s.copies, [(o, float(c).hex()) for o, c in enumerate(s.coefficients)])
                   for s in decompose(g)]
            assert got == ref_ring_specs(n, orbit_of)

    @pytest.mark.parametrize("n", [2, 3, 4, 12, 60, 1000])
    def test_one_cosine_per_reduced_angle(self, n, monkeypatch):
        g = build_group("cyclic", n)
        calls = []
        cos = math.cos
        monkeypatch.setattr(math, "cos", lambda x: calls.append(x) or cos(x))
        decompose(g)
        assert len(calls) <= n // 2 + 1


class TestCyclicBlocks:
    def test_four_cycle_adjacency(self):
        pairs = cyclic_blocks(4, [0.0, 1.0, 0.0])
        flat = sorted(float(b[0, 0]) for spec, b in pairs for _ in range(spec.copies))
        assert flat == [-2.0, 0.0, 0.0, 2.0]
        # the k = 0 weights are the double-counting factors zeta_j
        assert tuple(pairs[0][0].coefficients[1:]) == (2.0, 1.0)

    # a first generator that is no n-cycle: the Klein four-group, and C_6
    # generated from the step +2; their Fourier blocks would be wrong
    @pytest.mark.parametrize("generators", [
        [(1, 0, 3, 2), (2, 3, 0, 1)],
        [(2, 3, 4, 5, 0, 1), (1, 2, 3, 4, 5, 0)],
    ], ids=["klein", "c6-step-2"])
    def test_cyclic_group_not_a_ring_as_given_rejected(self, generators):
        g = PointGroup.from_generators("cyclic", len(generators[0]), generators)
        with pytest.raises(InvalidInputError, match="does not walk a ring"):
            decompose(g)

    def test_three_cycle_scalar_formulas(self):
        a, b = 0.7, -1.3
        (s0, b0), (s1, b1) = cyclic_blocks(3, [a, b])
        assert b0[0, 0] == pytest.approx(a + 2 * b, abs=1e-15)
        assert b1[0, 0] == pytest.approx(a - b, abs=1e-15)
        assert (s0.copies, s1.copies) == (1, 2)

    @pytest.mark.parametrize("n", range(5, 13))
    def test_union_of_blocks_is_dense_spectrum(self, n):
        fs = draw_label_blocks(n // 2 + 1, 2, 60 + n, 0)
        union = np.sort(np.concatenate(
            [eigensolve(b) for spec, b in cyclic_blocks(n, fs)
             for _ in range(spec.copies)]
        ))
        g = build_group("cyclic", n)
        dense = eigensolve(build_invariant(g, fs))
        assert multiset_deviation(dense, union) < 1e-8

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 12])
    def test_mirror_blocks_bitwise_equal(self, n):
        # mode k > n/2 has the bitwise weights of mode n-k, so its block
        # is the second copy of spec n-k
        specs = cyclic_specs(n)
        for k in range(n // 2 + 1, n):
            spec = specs[n - k]
            weights = [1.0] + [ref_zeta(j, n) * ref_cos(k, j, n) for j in range(1, n // 2 + 1)]
            assert spec.coefficients.tolist() == weights
            assert spec.copies == 2

    def test_matches_cyclic_spec_coefficients(self):
        n = 8
        fs = draw_label_blocks(n // 2 + 1, 2, 70, 0)
        for k, (spec, block) in enumerate(cyclic_blocks(n, fs)):
            direct = fs[0] + sum(
                ref_zeta(j, n) * math.cos(2 * math.pi * k * j / n) * fs[j]
                for j in range(1, n // 2 + 1)
            )
            assert np.allclose(direct, block, atol=0)

    def test_eigenvector_structure_scalar_case(self):
        # k=0 eigenvector constant; k=n/2 alternates sign (even n)
        n = 6
        fs = [float(substream(81, 0, j).normals(1)[0]) for j in range(n // 2 + 1)]
        g = build_group("cyclic", n)
        h = build_invariant(g, fs).values
        pairs = cyclic_blocks(n, fs)
        const = np.ones(n) / math.sqrt(n)
        assert np.max(np.abs(h @ const - pairs[0][1][0, 0] * const)) < 1e-12
        alt = np.array([(-1.0) ** j for j in range(n)]) / math.sqrt(n)
        assert np.max(np.abs(h @ alt - pairs[n // 2][1][0, 0] * alt)) < 1e-12

    def test_coefficient_keys_are_orbit_numbers_past_z(self):
        g = build_group("cyclic", 60)
        assert g.orbit_count == 31
        for spec in decompose(g):
            assert spec.coefficients.shape == (31,)
            assert not np.isnan(spec.coefficients).any()

    def test_snapped_zeros_are_named(self):
        # at 4r = n the cosine snaps to 0.0, and the ring still names the
        # orbit: 0.0, not NaN, so the kernel adds its +-0.0 term
        n = 12
        snapped = []
        for k, spec in enumerate(cyclic_specs(n)):
            assert not np.isnan(spec.coefficients).any()
            for j, c in enumerate(spec.coefficients):
                r = (k * j) % n
                if 4 * min(r, n - r) == n:
                    snapped.append(c.hex())
        assert snapped == ["0x0.0p+0"] * 5  # (k, j) = (1, 3), (3, 1), (3, 3), (3, 5), (5, 3)

    def test_ring_decomposition_stays_small(self):
        # one float64 (specs, orbits) array: 501 x 501 x 8 B = 2.0 MB
        g = build_group("cyclic", 1000)
        tracemalloc.start()
        try:
            specs = decompose(g)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(specs) == 501
        assert retained <= 4 * 2**20


class TestCyclicVarianceFactors:
    def test_spot_values(self):
        def rows(n):
            return [(s.copies, s.variance_factor) for s in cyclic_specs(n)]

        assert rows(4) == [(1, 6.0), (2, 2.0), (1, 6.0)]
        assert cyclic_specs(6)[0].variance_factor == 10.0
        assert cyclic_specs(7)[0].variance_factor == 13.0
        assert cyclic_specs(7)[1].variance_factor == pytest.approx(6.0, rel=1e-14)
        assert rows(2) == [(1, 2.0), (1, 2.0)]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_mirror_symmetry(self, n):
        # the factor of mode n-k is that of mode k, carried as a second
        # copy; k = 0 and (even n) k = n/2 are their own mirrors
        specs = cyclic_specs(n)
        assert [s.copies for s in specs] == [
            1 if k == 0 or 2 * k == n else 2 for k in range(n // 2 + 1)]
        assert sum(s.copies for s in specs) == n

    @pytest.mark.parametrize("n", range(3, 13))
    def test_k0_attains_maximum(self, n):
        f = [s.variance_factor for s in cyclic_specs(n)]
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
            for k, spec in enumerate(cyclic_specs(n)):
                if n % 2:
                    exact = 2 * n - 1 if k == 0 else n - 1
                else:
                    exact = 2 * n - 2 if k in (0, n // 2) else n - 2
                assert spec.variance_factor == pytest.approx(exact, rel=1e-15)

    @pytest.mark.parametrize("n", list(range(2, 61)) + [100, 997, 1000])
    def test_factor_is_the_left_to_right_sum(self, n):
        for spec in cyclic_specs(n):
            assert spec.variance_factor == sum(c * c for c in spec.coefficients.tolist())

    @pytest.mark.parametrize("n", [2, 4, 5, 6, 7])
    def test_empirical_block_variance(self, n):
        trials = 10000
        samples = np.empty((n // 2 + 1, trials))
        specs = cyclic_specs(n)
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

    def test_unknown_label_raises_key_error(self):
        res = ground_state_irrep_census(EnsembleConfig(3, 10, group="tetra"))
        with pytest.raises(KeyError, match="k=0"):
            res.fraction("k=0")

    def test_single_block_degenerate_census(self):
        specs = [IrrepBlockSpec("only", 1, np.array([1.0]))]
        cfg = EnsembleConfig(1, 50, m=2)
        res = _census_from_specs(specs, 1, cfg)
        assert res.rows[0].gs_fraction == 1.0

    def test_exact_tie_detection(self):
        # two identical combinations always tie; the earlier one wins
        specs = [IrrepBlockSpec("first", 1, np.array([1.0])),
                 IrrepBlockSpec("second", 1, np.array([1.0]))]
        cfg = EnsembleConfig(5, 64, m=2)
        res = _census_from_specs(specs, 2, cfg)
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

    @pytest.mark.parametrize("threads", [0, -5])
    def test_threads_below_one_rejected(self, threads):
        with pytest.raises(InvalidInputError, match=f"threads must be >= 1, got {threads}"):
            ground_state_irrep_census(EnsembleConfig(1, 10, group="tetra"), threads=threads)

    # one chunk of tetra trials holds 1489 of them: 3000 span three
    @pytest.mark.parametrize("trials", [10, 3000])
    def test_non_integer_threads_rejected(self, trials):
        with pytest.raises(InvalidInputError, match="^threads must be an integer, got 2.5$"):
            ground_state_irrep_census(EnsembleConfig(1, trials, group="tetra"), threads=2.5)

    def test_csv_layout(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["census", "--group", "tetra", "--m", "1", "--trials", "10",
                     "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ("irrep_label,copies,block_dim,predicted_variance_factor,"
                            "gs_fraction,dimensional_fraction")
        assert lines[1].startswith("1dim,1,1,10,")
        assert lines[2].startswith("3dim,3,1,2,")


def canonical_and_relabeled(kind, n):
    """The group as built and under two seeded relabelings."""
    group = build_group(kind, n)
    return [group] + [relabel(group, perm_from_stream(group.sites, s)) for s in (3, 4)]


def bits(a):
    return np.asarray(a, dtype=np.float64).view(np.uint64)


class TestCensusKernel:
    @pytest.mark.parametrize("kind, n", ALL_GROUPS + [("cyclic", 60)])
    def test_minima_match_full_blocks_bitwise(self, kind, n):
        # the packed kernel against eigvalsh of each full combination block
        for group in canonical_and_relabeled(kind, n):
            orbits = group.orbit_count
            specs = decompose(group)
            coeffs = np.stack([s.coefficients for s in specs])
            trials = np.array([0, 1, 7])
            for m in (1, 2, 4, 8, 17, 64):
                for seed in (11, 29):
                    for sigma0 in (1.0, 0.37):
                        cfg = EnsembleConfig(seed, 1, sigma0, m=m)
                        minima = _census_minima(specs, coeffs, cfg, trials)
                        expected = []
                        for trial in trials:
                            blocks = draw_label_blocks(orbits, m, seed, int(trial), sigma0)
                            expected.append([np.linalg.eigvalsh(spec.combination(blocks))[0]
                                             for spec in specs])
                        assert np.array_equal(bits(minima), bits(expected))

    @pytest.mark.parametrize("kind, n", ALL_GROUPS + [("cyclic", 60)])
    def test_spectrum_path_matches_full_blocks_bitwise(self, kind, n):
        # the one-row path of `spectrum` and `block_spectra` against
        # eigvalsh of each full combination block, also on blocks with
        # exact zeros of either sign
        for group in canonical_and_relabeled(kind, n):
            for m in (1, 3, 8):
                drawn = draw_label_blocks(group.orbit_count, m, 5, 2)
                ints = np.rint(np.stack(drawn))
                signed_zeros = list(np.where(ints == 0, -0.0, ints))
                for blocks in (drawn, signed_zeros):
                    specs, values = _spectrum_eigenvalues(group, blocks)
                    full = [np.linalg.eigvalsh(spec.combination(blocks)) for spec in specs]
                    assert np.array_equal(bits(values), bits(full))
                    union = np.sort(np.concatenate([np.repeat(ev, spec.copies)
                                                    for spec, ev in zip(specs, full)]))
                    assert np.array_equal(bits(block_spectra(group, blocks)),
                                          bits(union))

    def test_one_by_one_blocks_keep_every_bit(self):
        # at m = 1 a block's eigenvalue is its one entry, bit for bit:
        # signed zeros, subnormals and entries at the edge of the range
        edge = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310,
                1.7976931348623157e308, -1.7976931348623157e308, math.exp(300), -math.exp(300)]
        triangles = np.array([edge, edge[::-1]])[:, :, None]
        specs = [IrrepBlockSpec(str(i), 1, np.array(c))
                 for i, c in enumerate([[1.0, np.nan], [np.nan, -1.0], [0.5, 0.25]])]
        coeffs = np.stack([s.coefficients for s in specs])
        values = _block_eigenvalues(specs, coeffs, triangles, 1)
        assert values.shape == (3, len(edge), 1)
        assert np.array_equal(bits(values[0, :, 0]), bits(edge))
        assert np.array_equal(bits(values[1, :, 0]), bits([-x for x in edge[::-1]]))
        for spec, got in zip(specs, values):
            assert np.array_equal(bits(got), bits([spec.combination([[[x]], [[y]]])[0]
                                                   for x, y in zip(edge, edge[::-1])]))

    def test_no_library_path_calls_combination(self, tmp_path, monkeypatch):
        # the census and `spectrum` run through the one block kernel, and
        # the census solves every block of a chunk in one eigvalsh call
        def refuse(self, blocks):
            raise AssertionError("IrrepBlockSpec.combination called")

        chunks, solves = [], []
        census_minima, eigvalsh = irreps._census_minima, np.linalg.eigvalsh
        monkeypatch.setattr(IrrepBlockSpec, "combination", refuse)
        monkeypatch.setattr(irreps, "_census_minima",
                            lambda *a: chunks.append(a) or census_minima(*a))
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(a) or eigvalsh(a))
        monkeypatch.setattr(rng, "_CHUNK_ELEMENTS", 64 * 3)
        res = ground_state_irrep_census(EnsembleConfig(3, 10, group="cube", m=4))
        assert sum(r.gs_count for r in res.rows) == 10
        assert len(chunks) == len(solves) == 4
        # the coefficient array is stacked once per census, not per chunk
        assert all(a[1] is chunks[0][1] for a in chunks)
        assert [a.shape for a in solves] == [(4, 3, 4, 4)] * 3 + [(4, 1, 4, 4)]
        hfile, out = tmp_path / "h.txt", tmp_path / "s.csv"
        assert main(["build", "--group", "cyclic", "--n", "6", "--m", "2",
                     "--out", str(hfile)]) == 0
        assert main(["spectrum", "--in", str(hfile), "--group", "cyclic", "--m", "2",
                     "--out", str(out)]) == 0

    @pytest.mark.parametrize("seed, counts", [(11, [44, 36, 0, 0]), (29, [38, 42, 0, 0])])
    def test_cube_m64_counts_pinned(self, seed, counts):
        # recorded with the full-block kernel
        res = ground_state_irrep_census(EnsembleConfig(seed, 80, group="cube", m=64))
        assert [r.label for r in res.rows] == ["1dim+", "1dim-", "3dim+", "3dim-"]
        assert [r.gs_count for r in res.rows] == counts
        assert res.tie_count == 0


def exact_scalar_census(group):
    """Exact ground-state fractions of the m = 1 census.

    With scalar blocks, irrep i's block is the linear form C_i . z in the
    independent standard normals z of the orbits, so its share is the
    Gaussian orthant probability P(C_i z - C_j z < 0 for every j != i).
    """
    specs = decompose(group)
    c = np.nan_to_num(np.stack([s.coefficients for s in specs]))  # NaN: weight 0
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


def test_census_of_a_boolean_m_writes_an_integer_block_dim():
    rows = ground_state_irrep_census(EnsembleConfig(1, 10, group="tetra", m=True)).rows
    assert [type(row.block_dim) for row in rows] == [int, int]
