import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from irreplab import (
    EnsembleConfig,
    InvalidInputError,
    draw_label_blocks,
    random_sym_block,
    run_trials,
    substream,
)
from irreplab import rng
from irreplab.errors import NumericFailureError
from irreplab.rng import _label_block_rows, _normals_rows, _tally

# Frozen at first build: the very first outputs of substream(1, 0, 0).
FIRST_UINT64 = 10188629700888939329
FIRST_UNIFORM = 0.5523267228177061
FIRST_NORMAL = 0.4632575191403335


def scalar_normals(seed, trial, tag, count):
    """The reference: ``count`` calls of ``SubStream.normal``."""
    s = substream(seed, trial, tag)
    return np.array([s.normal() for _ in range(count)])


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
        assert substream(1, 0, 0).next_uint64() == FIRST_UINT64
        assert substream(1, 0, 0).uniform() == FIRST_UNIFORM
        assert substream(1, 0, 0).normal() == FIRST_NORMAL

    def test_normal_batch_matches_scalar_path(self):
        batched = substream(4, 2, 7).normals(201)
        s = substream(4, 2, 7)
        singles = np.array([s.normal() for _ in range(201)])
        assert np.array_equal(batched, singles)

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
        assert np.array_equal(batched, scalar_normals(seed, 1, 2, sum(sizes)))
        assert s.normal() == scalar_normals(seed, 1, 2, sum(sizes) + 1)[-1]

    def test_empty_request(self):
        s = substream(1, 0, 0)
        assert s.normals(0).size == 0
        assert s.normal() == FIRST_NORMAL


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
    def test_scalar_case(self):
        x = random_sym_block(substream(3, 0, 0), 1, 2.0)
        assert x.shape == (1, 1)
        draws = np.array(
            [random_sym_block(substream(3, t, 0), 1, 2.0)[0, 0] for t in range(20000)]
        )
        assert abs(draws.var(ddof=1) / 4.0 - 1.0) < 0.05

    def test_exactly_symmetric(self):
        b = random_sym_block(substream(11, 0, 0), 7)
        assert np.array_equal(b, b.T)

    def test_elementwise_variance(self):
        s = substream(9, 0, 0)
        draws = np.stack([random_sym_block(s, 4, 1.5) for _ in range(10000)])
        v = draws.var(axis=0, ddof=1)
        assert np.max(np.abs(v / 2.25 - 1.0)) < 0.05

    def test_zero_size_rejected(self):
        with pytest.raises(InvalidInputError):
            random_sym_block(substream(1, 0, 0), 0)


class TestLabelBlocks:
    def test_tags_follow_label_position(self):
        blocks = draw_label_blocks(3, 2, 17, 4)
        for tag in range(3):
            assert np.array_equal(blocks[tag], random_sym_block(substream(17, 4, tag), 2))

    @pytest.mark.parametrize("m, sigma0", [(0, 1.0), (2, 0.0), (2, float("nan"))])
    def test_bad_shape_or_width_rejected(self, m, sigma0):
        with pytest.raises(InvalidInputError):
            draw_label_blocks(2, m, 1, 0, sigma0)
        with pytest.raises(InvalidInputError):
            random_sym_block(substream(1, 0, 0), m, sigma0)

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
        with pytest.raises(InvalidInputError):
            EnsembleConfig(1, 10, m=0)
        with pytest.raises(InvalidInputError):
            EnsembleConfig(-1, 10)

    def test_defaults(self):
        cfg = EnsembleConfig(5, 100)
        assert cfg.sigma0 == 1.0 and cfg.m == 1 and cfg.group is None


class TestRunTrials:
    def test_results_indexed_by_trial(self):
        assert run_trials(lambda t: t * t, 6) == [0, 1, 4, 9, 16, 25]

    def test_thread_count_does_not_change_results(self):
        def worker(t):
            return float(np.min(substream(2, t, 0).normals(50)))

        serial = run_trials(worker, 40, threads=1)
        pooled = run_trials(worker, 40, threads=4)
        assert serial == pooled


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
            assert np.array_equal(row, substream(seed, int(trial), tag).normals(count))

    @pytest.mark.parametrize("pairs", [1, 2, 3])
    def test_short_rows_fall_back_to_scalar_stream(self, pairs, monkeypatch):
        # a budget of a few pairs leaves every row short of 20 accepted
        # pairs, so each carries on through the kernel many times
        monkeypatch.setattr(rng, "_pair_budget", lambda need: pairs)
        batched = _normals_rows(7, np.arange(50), 3, 40)
        assert np.array_equal(batched, np.stack([scalar_normals(7, t, 3, 40) for t in range(50)]))

    def test_partly_short_rows(self, monkeypatch):
        # one pair each: rows whose first pair is rejected carry on, the
        # others are served from the first draw
        monkeypatch.setattr(rng, "_pair_budget", lambda need: 1)
        batched = _normals_rows(19, np.arange(200), 0, 2)
        assert np.array_equal(batched, np.stack([scalar_normals(19, t, 0, 2) for t in range(200)]))

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_stacked_label_blocks_match_per_trial_draws(self, m):
        trials = np.arange(3, 9)
        stacked = _label_block_rows(3, m, 23, trials, 1.5)
        for row, trial in enumerate(trials):
            for orbit in range(3):
                single = random_sym_block(substream(23, int(trial), orbit), m, 1.5)
                assert np.array_equal(stacked[orbit][row], single)


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
