import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr
from stream_oracle import Stream, sym_block

from irreplab import (
    EnsembleConfig,
    InvalidInputError,
    draw_label_blocks,
    substream,
)
from irreplab import rng
from irreplab.errors import NumericFailureError
from irreplab.rng import (
    _CHUNK_ELEMENTS,
    _chunked_tally,
    _normals_rows,
    _orbit_triangles,
    _sym_blocks,
    _tally,
)

# Frozen at first build: the very first outputs of the stream (1, 0, 0).
FIRST_UINT64 = 10188629700888939329
FIRST_UNIFORM = 0.5523267228177061
FIRST_NORMAL = 0.4632575191403335


class TestDeterminism:
    def test_same_triple_same_sequence(self):
        a = substream(9, 3, 2).normals(64)
        b = substream(9, 3, 2).normals(64)
        assert np.array_equal(a, b)

    def test_trial_and_tag_change_sequence(self):
        base = substream(9, 0, 0).normals(16)
        assert not np.array_equal(base, substream(9, 1, 0).normals(16))
        assert not np.array_equal(base, substream(9, 0, 1).normals(16))
        assert not np.array_equal(base, substream(10, 0, 0).normals(16))

    def test_regression_values(self):
        assert Stream(1, 0, 0).next_uint64() == FIRST_UINT64
        assert Stream(1, 0, 0).uniform() == FIRST_UNIFORM
        assert Stream(1, 0, 0).normal() == FIRST_NORMAL
        assert substream(1, 0, 0).normals(1)[0] == FIRST_NORMAL

    def test_normal_batch_matches_scalar_path(self):
        batched = substream(4, 2, 7).normals(201)
        assert np.array_equal(batched, Stream(4, 2, 7).normals(201))

    def test_batching_pattern_irrelevant(self):
        whole = substream(13, 5, 1).normals(40)
        s = substream(13, 5, 1)
        pieces = np.concatenate([s.normals(1), s.normals(7), s.normals(2), s.normals(30)])
        assert np.array_equal(whole, pieces)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        sizes=st.lists(st.integers(0, 9), max_size=8),
        budget=st.integers(1, 3),
    )
    def test_any_split_matches_scalar_path_on_a_short_budget(self, seed, sizes, budget):
        # requests of up to 5 pairs outrun a budget of 1-3 pairs, so the
        # kernel's continuation and the pending slot are exercised together
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rng, "_pair_budget", lambda need: budget)
            s = substream(seed, 1, 2)
            batched = np.concatenate([[]] + [s.normals(k) for k in sizes])
        singles = Stream(seed, 1, 2).normals(sum(sizes) + 1)
        assert np.array_equal(batched, singles[:-1])
        assert s.normals(1)[0] == singles[-1]

    def test_empty_request(self):
        s = substream(1, 0, 0)
        assert s.normals(0).size == 0
        assert s.normals(1)[0] == FIRST_NORMAL


class TestStreamDerivation:
    # seed, trial and tag are each taken mod 2**64
    @pytest.mark.parametrize("seed, trial, tag", [
        (2**64 - 1, 0, 0), (2**64, 0, 0), (-1, 0, 0), (5, -1, 0), (5, 0, -1), (-1, -1, -1)])
    def test_substream_matches_reference_at_the_edges(self, seed, trial, tag):
        assert np.array_equal(substream(seed, trial, tag).normals(9),
                              Stream(seed, trial, tag).normals(9))

    @pytest.mark.parametrize("seed, trial", [(2**64 - 1, 0), (2**64, 3), (-1, 0), (5, -1)])
    def test_label_blocks_match_reference_at_the_edges(self, seed, trial):
        blocks = draw_label_blocks(3, 2, seed, trial)
        for tag in range(3):
            assert np.array_equal(blocks[tag], sym_block(Stream(seed, trial, tag), 2))


class TestDistribution:
    def test_pooled_substream_moments(self):
        # 1e6 deviates pooled across 1e3 substreams
        pool = np.concatenate([substream(6, t, 1).normals(1000) for t in range(1000)])
        assert abs(pool.mean()) < 4.0 / np.sqrt(pool.size)
        assert abs(pool.var(ddof=1) - 1.0) < 0.05

    def test_kolmogorov_smirnov_vs_normal_cdf(self):
        x = np.sort(substream(5, 0, 0).normals(100000))
        hi = np.arange(1, x.size + 1) / x.size
        lo = np.arange(0, x.size) / x.size
        phi = ndtr(x)
        ks = max(np.max(np.abs(hi - phi)), np.max(np.abs(lo - phi)))
        assert ks < 0.01

    def test_sigma_scaling(self):
        z = 2.5 * substream(8, 0, 0).normals(100000)
        assert abs(z.var(ddof=1) / 6.25 - 1.0) < 0.05


class TestSymBlock:
    # one trial's blocks, one stream per orbit
    def test_scalar_case(self):
        draws = np.array(draw_label_blocks(20000, 1, 3, 0, 2.0))
        assert draws.shape == (20000, 1, 1)
        assert abs(draws.var(ddof=1) / 4.0 - 1.0) < 0.05

    def test_exactly_symmetric(self):
        b = draw_label_blocks(1, 7, 11, 0)[0]
        assert np.array_equal(b, b.T)

    def test_elementwise_variance(self):
        draws = np.stack(draw_label_blocks(10000, 4, 9, 0, 1.5))
        v = draws.var(axis=0, ddof=1)
        assert np.max(np.abs(v / 2.25 - 1.0)) < 0.05

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidInputError, match="block size m must be >= 1"):
            draw_label_blocks(1, 0, 1, 0)


class TestLabelBlocks:
    def test_tags_follow_label_position(self):
        blocks = draw_label_blocks(3, 2, 17, 4)
        for tag in range(3):
            assert np.array_equal(blocks[tag], sym_block(Stream(17, 4, tag), 2))

    @pytest.mark.parametrize("m, sigma0", [(0, 1.0), (2, 0.0), (2, float("nan")), (2, float("inf"))])
    def test_bad_shape_or_width_rejected(self, m, sigma0):
        with pytest.raises(InvalidInputError):
            draw_label_blocks(2, m, 1, 0, sigma0)

    def test_underflow_to_zero_is_positive_zero(self):
        # sigma0 * z rounds to a signed zero for the tiniest width, and a
        # -0.0 would be written as "-0"
        blocks = np.stack(draw_label_blocks(3, 4, 5, 0, 5e-324))
        zeros = blocks == 0.0
        assert zeros.any() and not np.signbit(blocks[zeros]).any()

    @pytest.mark.parametrize("m", [1, 3])
    def test_no_orbits_no_blocks(self, m):
        assert draw_label_blocks(0, m, 7, 0) == []

    def test_appending_labels_preserves_earlier_draws(self):
        short = draw_label_blocks(2, 3, 21, 0)
        longer = draw_label_blocks(3, 3, 21, 0)
        assert np.array_equal(short[0], longer[0])
        assert np.array_equal(short[1], longer[1])


class TestEnsembleConfig:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            EnsembleConfig(1, 0)
        with pytest.raises(InvalidInputError):
            EnsembleConfig(1, 10, sigma0=0.0)
        with pytest.raises(InvalidInputError, match="sigma0 must be positive and finite"):
            EnsembleConfig(1, 10, sigma0=float("inf"))
        with pytest.raises(InvalidInputError):
            EnsembleConfig(1, 10, m=0)
        with pytest.raises(InvalidInputError):
            EnsembleConfig(-1, 10)

    def test_defaults(self):
        cfg = EnsembleConfig(5, 100)
        assert cfg.sigma0 == 1.0 and cfg.m == 1 and cfg.group is None

    @pytest.mark.parametrize("field, value", [
        ("master_seed", 1.5), ("master_seed", None), ("trials", 2.5), ("m", 2.0), ("m", "2"),
        ("n", 6.0)])
    def test_non_integer_fields_rejected(self, field, value):
        fields = {"master_seed": 1, "trials": 10, "group": "cyclic", "n": 6, "m": 1, field: value}
        with pytest.raises(InvalidInputError, match=f"{field} must be an integer"):
            EnsembleConfig(**fields)

    @pytest.mark.parametrize("field, value", [
        ("sigma0", "1"), ("sigma0", None), ("sigma0", [1.0]), ("group", 5), ("group", b"cube")])
    def test_wrong_typed_fields_rejected(self, field, value):
        fields = {"master_seed": 1, "trials": 10, field: value}
        with pytest.raises(InvalidInputError, match=field):
            EnsembleConfig(**fields)

    def test_integer_fields_stored_as_int(self):
        cfg = EnsembleConfig(np.uint64(3), np.int32(10), group="cyclic", n=np.int64(6), m=True)
        assert [type(v) for v in (cfg.master_seed, cfg.trials, cfg.n, cfg.m)] == [int] * 4
        assert (cfg.master_seed, cfg.trials, cfg.n, cfg.m) == (3, 10, 6, 1)


class TestBatchedRows:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        first=st.integers(0, 2**40),
        rows=st.integers(1, 6),
        tag=st.integers(0, 40),
        count=st.one_of(st.sampled_from([0, 1, 2, 3, 137, 2080]), st.integers(0, 300)),
    )
    def test_rows_match_scalar_streams(self, seed, first, rows, tag, count):
        trials = np.arange(first, first + rows)
        batched = _normals_rows(seed, trials, tag, count)
        assert batched.shape == (rows, count)
        for row, trial in zip(batched, trials):
            assert np.array_equal(row, Stream(seed, int(trial), tag).normals(count))

    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_short_rows_fall_back_to_scalar_stream(self, pairs, monkeypatch):
        # a budget of a few pairs leaves every row short of 20 accepted
        # pairs, so each carries on through the kernel many times
        monkeypatch.setattr(rng, "_pair_budget", lambda need: pairs)
        batched = _normals_rows(7, np.arange(50), 3, 40)
        assert np.array_equal(batched, np.stack([Stream(7, t, 3).normals(40) for t in range(50)]))

    def test_partly_short_rows(self, monkeypatch):
        # one pair each: rows whose first pair is rejected carry on, the
        # others are served from the first draw
        monkeypatch.setattr(rng, "_pair_budget", lambda need: 1)
        batched = _normals_rows(19, np.arange(200), 0, 2)
        assert np.array_equal(batched, np.stack([Stream(19, t, 0).normals(2) for t in range(200)]))

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_stacked_label_blocks_match_per_trial_draws(self, m):
        trials = np.arange(3, 9)
        stacked = _sym_blocks(_orbit_triangles(23, trials, 3, m, 1.5), m)
        for orbit in range(3):
            for row, trial in enumerate(trials):
                single = sym_block(Stream(23, int(trial), orbit), m, 1.5)
                assert np.array_equal(stacked[orbit, row], single)


class TestTally:
    def test_counts_and_ties(self):
        minima = np.array([[1.0, 0.5, 2.0], [0.0, 0.0, 1.0], [3.0, 2.0, -1.0]])
        counts, ties = _tally(minima)
        assert counts.tolist() == [1, 1, 1]
        assert ties == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_minima_fail(self, bad):
        with pytest.raises(NumericFailureError):
            _tally(np.array([[0.0, 1.0], [bad, 1.0]]))

    # one trial per chunk; chunk t's winner is column t % 4
    @pytest.mark.parametrize("trials, threads, limit", [(5000, 1, 0.25), (2000, 2, 0.5)])
    def test_memory_does_not_grow_with_trials(self, trials, threads, limit):
        def minima(t):
            return -np.eye(4)[t % 4]

        # a first threaded run imports concurrent.futures, once per process
        _chunked_tally(minima, 4, _CHUNK_ELEMENTS, threads)
        tracemalloc.start()
        try:
            counts, ties = _chunked_tally(minima, trials, _CHUNK_ELEMENTS, threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.tolist() == [trials // 4] * 4 and ties == 0
        assert peak < limit * 2**20
