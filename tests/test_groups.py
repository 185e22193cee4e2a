import re
import tracemalloc

import numpy as np
import pytest
from stream_oracle import Stream

from irreplab import (
    InvalidInputError,
    PointGroup,
    SymMatrix,
    build_group,
    build_invariant,
    check_invariance,
    draw_label_blocks,
    eigensolve,
    write_matrix_text,
)
from irreplab import groups
from irreplab.cli import main

ALL_GROUPS = [("cyclic", n) for n in range(2, 13)] + [
    ("tetra", None),
    ("octa", None),
    ("cube", None),
]


def every_element(g):
    # the same group with every element as a generator, so that
    # check_invariance scans all of them
    return PointGroup.from_generators(g.kind, g.sites, g.elements)


def perm_from_stream(sites, seed):
    # Fisher-Yates with the contract's uniforms
    s = Stream(seed, 0, 0)
    p = list(range(sites))
    for i in range(sites - 1, 0, -1):
        j = int(s.uniform() * (i + 1))
        p[i], p[j] = p[j], p[i]
    return tuple(p)


def relabel(group, perm):
    # the same group acting through relabeled sites: perm[i] is the new
    # name of old site i, and the generators are conjugated accordingly
    inverse = np.argsort(perm)
    gens = [tuple(perm[g[inverse[i]]] for i in range(group.sites)) for g in group.generators]
    return PointGroup.from_generators(group.kind, group.sites, gens)


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

    @pytest.mark.parametrize("kind", [5, None, ("tetra",)])
    def test_non_string_kind_rejected(self, kind):
        message = f"unknown group kind {kind!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            build_group(kind)

    @pytest.mark.parametrize("n", [2.5, 6.0, "6", None])
    def test_non_integer_ring_size_rejected(self, n):
        message = f"cyclic group n must be an integer, got {n!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            build_group("cyclic", n)

    def test_integer_like_ring_size_accepted(self):
        g = build_group("cyclic", np.int64(6))
        assert type(g.sites) is int and g == build_group("cyclic", 6)

    def test_oversized_ring_rejected_before_allocating(self, monkeypatch):
        def no_closure(*args):
            raise AssertionError("closure attempted")

        monkeypatch.setattr(groups, "_closure", no_closure)
        for n in (10**6, groups._MAX_ORDER + 1):
            message = f"cyclic group n must be in [2, {groups._MAX_ORDER}], got {n}"
            with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
                build_group("cyclic", n)

    def test_non_transitive_action_rejected(self):
        # two swapped pairs; site 0 fixed; site 2 fixed
        for sites, gen in [(4, (1, 0, 3, 2)), (3, (0, 2, 1)), (3, (1, 0, 2))]:
            with pytest.raises(InvalidInputError, match="site action is not transitive"):
                PointGroup.from_generators("split", sites, [gen])

    def test_non_transitive_action_rejected_before_the_pair_index(self):
        # the 3000 x 3000 pair index alone would take 72 MB
        tracemalloc.start()
        try:
            with pytest.raises(InvalidInputError,
                               match="^site action is not transitive: site 0 reaches 1 of 3000"):
                PointGroup.from_generators("x", 3000, [])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_generator_not_a_permutation_rejected(self):
        message = "(0, 0, 1) is not a permutation of 3 sites"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            PointGroup.from_generators("x", 3, [(0, 0, 1)])

    def test_closure_past_the_order_cap_rejected(self):
        # S_8, of order 40,320, on 8 sites: far fewer sites than the cap
        swap, ring = (1, 0, 2, 3, 4, 5, 6, 7), (1, 2, 3, 4, 5, 6, 7, 0)
        with pytest.raises(InvalidInputError, match="^group closure exceeds supported size$"):
            PointGroup.from_generators("s8", 8, [swap, ring])

    @pytest.mark.parametrize("sites, generators", [(0, [()]), (-1, [])])
    def test_site_count_below_one_rejected(self, sites, generators):
        message = f"sites must be in [1, {groups._MAX_ORDER}], got {sites}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            PointGroup.from_generators("x", sites, generators)

    @pytest.mark.parametrize("sites, gen, message", [
        (3, (1.0, 2.0, 0.0), "site label must be an integer, got 1.0"),
        (3.0, (1, 2, 0), "sites must be an integer, got 3.0")])
    def test_non_integer_generators_rejected(self, sites, gen, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            PointGroup.from_generators("x", sites, [gen])
        assert PointGroup.from_generators("x", 3, [np.array([1, 2, 0])]).order == 3


class TestPairOrbits:
    def test_tetra_two_labels(self):
        g = build_group("tetra")
        assert g.orbit_count == 2
        assert all(g.orbit_index[i, i] == 0 for i in range(4))
        assert all(g.orbit_index[i, j] == 1 for i in range(4) for j in range(4) if i != j)

    def test_octa_antipodal_class(self):
        g = build_group("octa")
        assert g.orbit_count == 3
        for pair in [(0, 2), (1, 3), (4, 5)]:
            assert g.orbit_index[pair] == 2
        assert g.orbit_index[0, 1] == 1
        assert g.orbit_sizes() == [6, 12, 3]

    def test_cube_four_classes(self):
        g = build_group("cube")
        assert g.orbit_count == 4
        for pair in [(0, 6), (1, 7), (2, 4), (3, 5)]:
            assert g.orbit_index[pair] == 3
        assert g.orbit_sizes() == [8, 12, 12, 4]

    @pytest.mark.parametrize("n", range(2, 13))
    def test_cyclic_distance_labels(self, n):
        g = build_group("cyclic", n)
        assert g.orbit_count == 1 + n // 2
        # circulant pattern: the orbit is the cyclic distance
        for i in range(n):
            for j in range(n):
                d = min((i - j) % n, (j - i) % n)
                assert g.orbit_index[i, j] == d

    def test_labels_past_z(self):
        g = build_group("cyclic", 60)
        assert g.orbit_count == 31
        assert g.orbit_index[0, 30] == 30 and g.orbit_index[0, 59] == 1

    def test_orbit_sizes_cover_all_pairs(self):
        for kind, n in ALL_GROUPS:
            g = build_group(kind, n)
            assert len(g.orbit_sizes()) == g.orbit_count
            assert sum(g.orbit_sizes()) == g.sites * (g.sites + 1) // 2

    @pytest.mark.parametrize("kind,n", ALL_GROUPS + [("cyclic", 60)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_numbering_matches_brute_force_orbits(self, kind, n, seed):
        base = build_group(kind, n)
        g = relabel(base, perm_from_stream(base.sites, seed))
        assert np.array_equal(g.orbit_index, g.orbit_index.T)
        # the orbit of each unordered pair: its images under every element
        orbits = {}
        for i in range(g.sites):
            for j in range(i, g.sites):
                if not any((i, j) in orbit for orbit in orbits.values()):
                    orbits[i, j] = {tuple(sorted((e[i], e[j]))) for e in g.elements}
        # one number per orbit, a different one for each orbit
        numbers = [{int(g.orbit_index[pair]) for pair in orbit} for orbit in orbits.values()]
        assert all(len(found) == 1 for found in numbers)
        assert len(set.union(*numbers)) == len(orbits) == g.orbit_count
        # numbered ascending by smallest pair, which puts the diagonal at 0
        smallest = sorted(min(orbit) for orbit in orbits.values())
        assert smallest[0] == (0, 0)
        assert [g.orbit_index[pair] for pair in smallest] == list(range(len(smallest)))

    def test_assignment_invariant_under_full_group(self):
        for kind in ("tetra", "octa", "cube"):
            g = build_group(kind)
            for e in g.elements:
                for i in range(g.sites):
                    for j in range(g.sites):
                        assert g.orbit_index[e[i], e[j]] == g.orbit_index[i, j]


class TestGroupContract:
    def test_equal_groups_hash_equal(self):
        a, b = build_group("cube"), build_group("cube")
        assert a == b and hash(a) == hash(b)
        same = relabel(a, range(a.sites))
        assert same == a and hash(same) == hash(a)
        assert a != build_group("octa")

    def test_orbit_index_read_only(self):
        g = build_group("cube")
        with pytest.raises(ValueError):
            g.orbit_index[0, 1] = 0

    @pytest.mark.parametrize("flags", [["--group", "cube"], ["--group", "cyclic", "--n", "6"]])
    def test_each_command_searches_orbits_once(self, tmp_path, monkeypatch, flags):
        calls = []
        search = groups._pair_orbit_index

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(groups, "_pair_orbit_index", counted)
        flags = flags + ["--m", "2"]
        matrix = str(tmp_path / "h.txt")
        assert main(["build", *flags, "--out", matrix]) == 0
        assert len(calls) == 1
        assert main(["spectrum", "--in", matrix, *flags, "--out", str(tmp_path / "s.csv")]) == 0
        assert len(calls) == 2
        assert main(["census", *flags, "--trials", "5", "--out", str(tmp_path / "c.csv")]) == 0
        assert len(calls) == 3


class TestBuildInvariant:
    def test_complete_graph_spectrum(self):
        g = build_group("tetra")
        h = build_invariant(g, [0.0, 1.0])
        assert np.allclose(eigensolve(h), [-1, -1, -1, 3], atol=1e-14)

    def test_octahedron_adjacency_spectrum(self):
        g = build_group("octa")
        h = build_invariant(g, [0.0, 1.0, 0.0])
        assert np.allclose(eigensolve(h), [-2, -2, 0, 0, 0, 4], atol=1e-14)

    @pytest.mark.parametrize("kind,n", ALL_GROUPS)
    @pytest.mark.parametrize("m", [1, 3])
    def test_random_blocks_commute_with_generators(self, kind, n, m):
        g = build_group(kind, n)
        blocks = draw_label_blocks(g.orbit_count, m, 77, 0)
        h = build_invariant(g, blocks)
        assert check_invariance(h, g, m) == 0.0
        assert check_invariance(h, every_element(g), m) == 0.0

    def test_missing_label_rejected(self):
        g = build_group("octa")
        with pytest.raises(InvalidInputError, match="got 2 blocks for 3 pair orbits"):
            build_invariant(g, [0.0, 1.0])

    def test_infinite_block_rejected(self):
        with pytest.raises(InvalidInputError, match="^matrix entries must be finite$"):
            build_invariant(build_group("octa"), [0.0, np.inf, 1.0])

    def test_extra_block_rejected(self):
        g = build_group("octa")
        with pytest.raises(InvalidInputError, match="got 4 blocks for 3 pair orbits"):
            build_invariant(g, [0.0, 1.0, 0.0, 2.0])

    def test_inconsistent_block_size_rejected(self):
        g = build_group("tetra")
        with pytest.raises(InvalidInputError):
            build_invariant(g, [np.eye(2), np.eye(3)])


class TestOrbitBlocks:
    """`_orbit_blocks`, the inverse of `build_invariant` that `spectrum` reads through."""

    @pytest.mark.parametrize("kind,n", ALL_GROUPS)
    @pytest.mark.parametrize("relabeled", [False, True])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_inverse_of_build_invariant(self, kind, n, relabeled, m):
        g = build_group(kind, n)
        if relabeled:
            g = relabel(g, perm_from_stream(g.sites, 9))
        blocks = draw_label_blocks(g.orbit_count, m, 31, 0)
        read = groups._orbit_blocks(build_invariant(g, blocks), g, m)
        assert [b.tobytes() for b in read] == [b.tobytes() for b in blocks]

    @staticmethod
    def bumped_cube(scale):
        """A cube m = 2 matrix with one diagonal entry moved by scale * max|H|."""
        g = build_group("cube")
        h = build_invariant(g, draw_label_blocks(g.orbit_count, 2, 5, 0)).values.copy()
        h[5, 5] += scale * np.max(np.abs(h))
        return h, g

    def test_one_entry_bump_within_the_tolerance_accepted(self):
        h, g = self.bumped_cube(1e-11)
        assert len(groups._orbit_blocks(SymMatrix(h), g, 2)) == g.orbit_count

    def test_one_entry_bump_rejected(self, tmp_path, capsys):
        h, g = self.bumped_cube(1e-9)
        with pytest.raises(InvalidInputError) as err:
            groups._orbit_blocks(SymMatrix(h), g, 2)
        assert str(err.value).startswith(
            "matrix is not cube-invariant with symmetric orbit blocks: off by ")
        # the command line reports the library's message as it is
        write_matrix_text(h, tmp_path / "h.txt")
        assert main(["spectrum", "--in", str(tmp_path / "h.txt"), "--group", "cube",
                     "--m", "2", "--out", str(tmp_path / "s.csv")]) == 2
        assert capsys.readouterr().err == f"error: {err.value}\n"

    def test_non_symmetric_ring_blocks_rejected(self):
        # an exactly C_5-invariant m = 2 matrix whose blocks F(d), with
        # F(-d) = F(d)^T, are not symmetric
        rng = np.random.default_rng(3)
        n, m = 5, 2
        f = [rng.standard_normal((m, m)) for _ in range(n)]
        f[0] = f[0] + f[0].T
        for d in range(1, n // 2 + 1):
            f[n - d] = f[d].T
        h = np.block([[f[(j - i) % n] for j in range(n)] for i in range(n)])
        g = build_group("cyclic", n)
        assert check_invariance(h, g, m) == 0.0
        with pytest.raises(InvalidInputError, match="^matrix is not cyclic.5.-invariant"):
            groups._orbit_blocks(SymMatrix(h), g, m)

    def test_gap_beyond_the_float_range_reads_inf(self):
        big = 1.7976931348623157e308
        with pytest.raises(InvalidInputError) as err:
            groups._orbit_blocks(SymMatrix(np.diag([big, -big])), build_group("cyclic", 2), 1)
        assert str(err.value) == ("matrix is not cyclic(2)-invariant with symmetric "
                                  "orbit blocks: off by inf")


class TestCheckInvariance:
    def test_perturbation_detected_exactly(self):
        g = build_group("cube")
        h = build_invariant(g, draw_label_blocks(g.orbit_count, 2, 5, 0))
        bumped = h.values.copy()
        bumped[0, 3] += 1e-3
        bumped[3, 0] += 1e-3
        violation = check_invariance(bumped, g, 2)
        assert violation == pytest.approx(1e-3, abs=1e-15)
        # single off-diagonal-entry perturbations violate every element
        # that moves the pair by the same amount
        assert check_invariance(bumped, every_element(g), 2) == pytest.approx(
            violation, abs=1e-15
        )

    def test_generator_zero_iff_full_zero(self):
        g = build_group("octa")
        noise = draw_label_blocks(1, 6, 123, 0)[0]
        gen = check_invariance(noise, g, 1)
        full = check_invariance(noise, every_element(g), 1)
        assert gen > 0.0 and full >= gen
        # violations propagate through generator words; the full-group
        # max cannot exceed word length times the generator max
        assert full <= 12 * gen

    def test_nan_entry_reads_nan(self):
        h = np.ones((4, 4))
        h[1, 2] = h[2, 1] = np.nan
        assert np.isnan(check_invariance(h, build_group("tetra"), 1))

    def test_infinite_entries_read_nan_without_warning(self):
        # inf - inf is NaN; the suite turns numpy's RuntimeWarning into an error
        assert np.isnan(check_invariance(np.full((4, 4), np.inf), build_group("tetra"), 1))

    def test_dimension_mismatch_rejected(self):
        g = build_group("tetra")
        with pytest.raises(InvalidInputError):
            check_invariance(np.eye(8), g, m=3)

    def test_non_integer_m_rejected(self):
        g = build_group("tetra")
        with pytest.raises(InvalidInputError, match="^m must be an integer, got 2.0$"):
            check_invariance(np.eye(8), g, m=2.0)
        assert check_invariance(np.eye(8), g, m=np.int64(2)) == 0.0


class TestRelabeling:
    """Nothing depends on the vertex numbering convention."""

    @pytest.mark.parametrize("kind", ["tetra", "octa", "cube"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_conjugated_group_same_physics(self, kind, seed):
        g = build_group(kind)
        perm = perm_from_stream(g.sites, seed)
        g2 = relabel(g, perm)
        assert g2.order == g.order
        assert sorted(g.orbit_sizes()) == sorted(g2.orbit_sizes())
        # push blocks through the orbit correspondence induced by perm
        mapping = {g.orbit_index[i, j]: g2.orbit_index[perm[i], perm[j]]
                   for i in range(g.sites) for j in range(g.sites)}
        blocks = draw_label_blocks(g.orbit_count, 2, 99 + seed, 0)
        blocks2 = [None] * g2.orbit_count
        for k, blk in enumerate(blocks):
            blocks2[mapping[k]] = blk
        h = build_invariant(g, blocks)
        h2 = build_invariant(g2, blocks2)
        assert check_invariance(h2, g2, 2) == 0.0
        ev = eigensolve(h)
        ev2 = eigensolve(h2)
        assert np.max(np.abs(ev - ev2)) < 1e-12

    def test_group_element_relabeling_is_symmetry(self):
        g = build_group("octa")
        blocks = draw_label_blocks(g.orbit_count, 2, 31, 0)
        h = build_invariant(g, blocks)
        for e in g.elements:
            g2 = relabel(g, e)
            assert set(g2.elements) == set(g.elements)
