import numpy as np
import pytest

from irreplab import (
    InvalidInputError,
    build_group,
    build_invariant,
    check_invariance,
    draw_label_blocks,
    eigensolve,
    pair_orbits,
    random_sym_block,
    relabel,
    substream,
)

ALL_GROUPS = [("cyclic", n) for n in range(2, 13)] + [
    ("tetra", None),
    ("octa", None),
    ("cube", None),
]


def perm_from_stream(sites, seed):
    # Fisher-Yates with package uniforms
    s = substream(seed, 0, 0)
    p = list(range(sites))
    for i in range(sites - 1, 0, -1):
        j = int(s.uniform() * (i + 1))
        p[i], p[j] = p[j], p[i]
    return tuple(p)


class TestBuildGroup:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_cyclic_order_and_generator(self, n):
        g = build_group("cyclic", n)
        assert g.order == n
        assert g.generators == (tuple((i + 1) % n for i in range(n)),)

    @pytest.mark.parametrize("kind,order", [("tetra", 12), ("octa", 24), ("cube", 24)])
    def test_polyhedral_orders(self, kind, order):
        assert build_group(kind).order == order

    def test_closure_and_inverses(self):
        for kind, n in ALL_GROUPS:
            g = build_group(kind, n)
            elements = set(g.elements)
            identity = tuple(range(g.sites))
            assert identity in elements
            for a in g.elements:
                inv = tuple(np.argsort(np.asarray(a)))
                assert inv in elements
                for b in g.generators:
                    assert tuple(b[a[i]] for i in range(g.sites)) in elements

    def test_tetra_transitive(self):
        g = build_group("tetra")
        assert {e[0] for e in g.elements} == {0, 1, 2, 3}

    def test_cube_vertex_stabilizer_order(self):
        g = build_group("cube")
        stabilizer = [e for e in g.elements if e[0] == 0]
        assert len(stabilizer) == 3  # orbit-stabilizer: 8 * 3 = 24

    def test_bad_names_rejected(self):
        with pytest.raises(InvalidInputError):
            build_group("icosa")
        with pytest.raises(InvalidInputError):
            build_group("cyclic", 1)
        with pytest.raises(InvalidInputError):
            build_group("tetra", 5)


class TestPairOrbits:
    def test_tetra_two_labels(self):
        st = pair_orbits(build_group("tetra"))
        assert st.count == 2
        assert all(st.label_index[i, i] == 0 for i in range(4))
        assert all(st.label_index[i, j] == 1 for i in range(4) for j in range(4) if i != j)

    def test_octa_antipodal_class(self):
        st = pair_orbits(build_group("octa"))
        assert st.count == 3
        for pair in [(0, 2), (1, 3), (4, 5)]:
            assert st.label_index[pair] == 2
        assert st.label_index[0, 1] == 1
        assert st.orbit_sizes() == [6, 12, 3]

    def test_cube_four_classes(self):
        st = pair_orbits(build_group("cube"))
        assert st.count == 4
        for pair in [(0, 6), (1, 7), (2, 4), (3, 5)]:
            assert st.label_index[pair] == 3
        assert st.orbit_sizes() == [8, 12, 12, 4]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_cyclic_distance_labels(self, n):
        st = pair_orbits(build_group("cyclic", n))
        assert st.count == 1 + n // 2
        # circulant pattern: the orbit is the cyclic distance
        for i in range(n):
            for j in range(n):
                d = min((i - j) % n, (j - i) % n)
                assert st.label_index[i, j] == d

    def test_labels_past_z(self):
        st = pair_orbits(build_group("cyclic", 60))
        assert st.count == 31
        assert st.label_index[0, 30] == 30 and st.label_index[0, 59] == 1

    def test_orbit_sizes_cover_all_pairs(self):
        for kind, n in ALL_GROUPS:
            g = build_group(kind, n)
            st = pair_orbits(g)
            assert len(st.orbit_sizes()) == st.count
            assert sum(st.orbit_sizes()) == g.sites * (g.sites + 1) // 2

    def test_pairs_of_lists_each_orbit(self):
        st = pair_orbits(build_group("octa"))
        assert st.pairs_of(2) == [(0, 2), (1, 3), (4, 5)]
        assert [len(st.pairs_of(k)) for k in range(st.count)] == st.orbit_sizes()

    def test_assignment_invariant_under_full_group(self):
        for kind in ("tetra", "octa", "cube"):
            g = build_group(kind)
            st = pair_orbits(g)
            for e in g.elements:
                for i in range(g.sites):
                    for j in range(g.sites):
                        assert st.label_index[e[i], e[j]] == st.label_index[i, j]


class TestBuildInvariant:
    def test_complete_graph_spectrum(self):
        g = build_group("tetra")
        h = build_invariant(g, [0.0, 1.0])
        assert np.allclose(eigensolve(h).eigenvalues, [-1, -1, -1, 3], atol=1e-14)

    def test_octahedron_adjacency_spectrum(self):
        g = build_group("octa")
        h = build_invariant(g, [0.0, 1.0, 0.0])
        assert np.allclose(
            eigensolve(h).eigenvalues, [-2, -2, 0, 0, 0, 4], atol=1e-14
        )

    @pytest.mark.parametrize("kind,n", ALL_GROUPS)
    @pytest.mark.parametrize("m", [1, 3])
    def test_random_blocks_commute_with_generators(self, kind, n, m):
        g = build_group(kind, n)
        st = pair_orbits(g)
        blocks = draw_label_blocks(st.count, m, 77, 0)
        h = build_invariant(g, blocks)
        assert check_invariance(h, g, m) == 0.0
        assert check_invariance(h, g, m, full=True) == 0.0

    def test_missing_label_rejected(self):
        g = build_group("octa")
        with pytest.raises(InvalidInputError, match="got 2 blocks for 3 pair orbits"):
            build_invariant(g, [0.0, 1.0])

    def test_extra_block_rejected(self):
        g = build_group("octa")
        with pytest.raises(InvalidInputError, match="got 4 blocks for 3 pair orbits"):
            build_invariant(g, [0.0, 1.0, 0.0, 2.0])

    def test_inconsistent_block_size_rejected(self):
        g = build_group("tetra")
        with pytest.raises(InvalidInputError):
            build_invariant(g, [np.eye(2), np.eye(3)])


class TestCheckInvariance:
    def test_perturbation_detected_exactly(self):
        g = build_group("cube")
        h = build_invariant(g, draw_label_blocks(pair_orbits(g).count, 2, 5, 0))
        bumped = h.values.copy()
        bumped[0, 3] += 1e-3
        bumped[3, 0] += 1e-3
        violation = check_invariance(bumped, g, 2)
        assert violation == pytest.approx(1e-3, abs=1e-15)
        # single off-diagonal-entry perturbations violate every element
        # that moves the pair by the same amount
        assert check_invariance(bumped, g, 2, full=True) == pytest.approx(
            violation, abs=1e-15
        )

    def test_generator_zero_iff_full_zero(self):
        g = build_group("octa")
        noise = random_sym_block(substream(123, 0, 0), 6)
        gen = check_invariance(noise, g, 1)
        full = check_invariance(noise, g, 1, full=True)
        assert gen > 0.0 and full >= gen
        # violations propagate through generator words; the full-group
        # max cannot exceed word length times the generator max
        assert full <= 12 * gen

    def test_nan_entry_reads_nan(self):
        h = np.ones((4, 4))
        h[1, 2] = h[2, 1] = np.nan
        assert np.isnan(check_invariance(h, build_group("tetra"), 1))

    def test_dimension_mismatch_rejected(self):
        g = build_group("tetra")
        with pytest.raises(InvalidInputError):
            check_invariance(np.eye(5), g)
        with pytest.raises(InvalidInputError):
            check_invariance(np.eye(8), g, m=3)


class TestRelabeling:
    """Nothing depends on the vertex numbering convention."""

    @pytest.mark.parametrize("kind", ["tetra", "octa", "cube"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_conjugated_group_same_physics(self, kind, seed):
        g = build_group(kind)
        perm = perm_from_stream(g.sites, seed)
        g2 = relabel(g, perm)
        assert g2.order == g.order
        st, st2 = pair_orbits(g), pair_orbits(g2)
        assert sorted(st.orbit_sizes()) == sorted(st2.orbit_sizes())
        # push blocks through the orbit correspondence induced by perm
        mapping = {st.label_index[i, j]: st2.label_index[perm[i], perm[j]]
                   for i in range(g.sites) for j in range(g.sites)}
        blocks = draw_label_blocks(st.count, 2, 99 + seed, 0)
        blocks2 = [None] * st2.count
        for k, blk in enumerate(blocks):
            blocks2[mapping[k]] = blk
        h = build_invariant(g, blocks)
        h2 = build_invariant(g2, blocks2)
        assert check_invariance(h2, g2) == 0.0
        ev = eigensolve(h).eigenvalues
        ev2 = eigensolve(h2).eigenvalues
        assert np.max(np.abs(ev - ev2)) < 1e-12

    def test_group_element_relabeling_is_symmetry(self):
        g = build_group("octa")
        blocks = draw_label_blocks(pair_orbits(g).count, 2, 31, 0)
        h = build_invariant(g, blocks)
        for e in g.elements:
            g2 = relabel(g, e)
            assert set(g2.elements) == set(g.elements)
