"""Seeded, reproducible random-number machinery for matrix ensembles.

Every experiment is a pure function of an `EnsembleConfig`.  Each
(trial, stream tag) pair owns a private deviate stream derived from the
master seed, so trials can run in any order (or in parallel) without
changing a single draw, and adding a new stream tag never perturbs the
draws of existing tags.

Stream derivation and generation are fixed algorithms, stated here and
in README.md's reproducibility contract so the sequences can be
reproduced from that text alone:

* ``mix64`` is the SplitMix64 finalizer: ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
  z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64).
* A substream's initial state is
  ``mix64(mix64(mix64(seed) ^ (trial + 0xD1B54A32D192ED03)) ^ (tag + 0x8BB84B93962EACC9))``,
  with seed, trial and tag taken mod 2^64.
* The raw 64-bit sequence is SplitMix64: state advances by the odd
  constant ``0x9E3779B97F4A7C15`` per draw and emits ``mix64(state)``.
* Uniforms on [0, 1) take the top 53 bits: ``u = (word >> 11) * 2**-53``.
* Standard normals use Marsaglia's polar method: consume uniform pairs
  ``(u1, u2)``, set ``v_i = 2 u_i - 1`` and ``s = v1^2 + v2^2``, reject
  unless ``0 < s < 1``, then emit ``v1 * f`` followed by ``v2 * f`` with
  ``f = sqrt(-2 ln(s) / s)``, ``ln`` being numpy's ``np.log``.  The
  second deviate of a pair is kept in a one-slot queue, never discarded.

Each step has one implementation: ``_mix64_array`` is the finalizer,
``_stream_states`` the derivation and ``_polar_pairs`` the normal
generator, which scans the polar acceptance of any array of stream
states at once: ``SubStream.normals`` runs it on its own state, the J
distribution and ``_orbit_triangles``, the one draw path of orbit blocks,
on a chunk of trials (one trial for ``draw_label_blocks``).
Each row keeps its stream's accepted pairs in order, so batching,
chunking and threads change no draw; the tests check every path, bit
for bit, against a one-deviate-at-a-time reference written from
README.md alone.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError

__all__ = [
    "EnsembleConfig",
    "SubStream",
    "substream",
    "draw_label_blocks",
]

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_A = np.uint64(0xBF58476D1CE4E5B9)
_MIX_B = np.uint64(0x94D049BB133111EB)
_TRIAL_SALT = np.uint64(0xD1B54A32D192ED03)
_TAG_SALT = np.uint64(0x8BB84B93962EACC9)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)
_TO_UNIT = 2.0 ** -53

# array elements one chunk of the trial kernel holds at once; sets how
# many trials share a chunk, and so bounds its scratch memory
_CHUNK_ELEMENTS = 1 << 15


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of every word of the uint64 array ``z``,
    computed in place."""
    z ^= z >> _SHIFT_30
    z *= _MIX_A
    z ^= z >> _SHIFT_27
    z *= _MIX_B
    z ^= z >> _SHIFT_31
    return z


class SubStream:
    """One private deviate stream; see the module docstring for the scheme."""

    __slots__ = ("_state", "_pending")

    def __init__(self, state: int):
        self._state = state & _MASK
        self._pending = None

    def normals(self, count: int) -> np.ndarray:
        """Next ``count`` standard normals; the same bits however the
        requests are batched."""
        if count < 0:
            raise InvalidInputError("count must be >= 0")
        head = [] if self._pending is None else [self._pending]
        pairs, ends = _polar_pairs(np.array([self._state], dtype=np.uint64),
                                   (count - len(head) + 1) // 2)
        self._state = int(ends[0])
        out = np.concatenate([head, pairs[0]])
        self._pending = float(out[-1]) if out.size > count else None
        return out[:count]

    def __repr__(self):
        return f"SubStream(state=0x{self._state:016x})"


def _words(x) -> np.ndarray:
    """An int (reduced mod 2**64) or an int array (wrapped as it is cast) as uint64."""
    return np.asarray(x & _MASK if isinstance(x, int) else x, dtype=np.uint64)


def _stream_states(master_seed: int, trials, tags) -> np.ndarray:
    """1-d uint64 initial states of the streams (master_seed, trial, tag)
    for ``trials`` and ``tags`` broadcast together; the seed is mixed once."""
    seed = _mix64_array(np.array([operator.index(master_seed) & _MASK], dtype=np.uint64))
    states = _mix64_array(seed ^ (_words(trials) + _TRIAL_SALT))
    return _mix64_array(states ^ (_words(tags) + _TAG_SALT))


def substream(master_seed: int, trial_index: int, stream_tag: int) -> SubStream:
    """Derive the private stream for (trial, tag) under a master seed."""
    return SubStream(int(_stream_states(master_seed, trial_index, stream_tag)[0]))


def _pair_budget(need: int) -> int:
    # polar pairs drawn per row for ``need`` accepted ones: the acceptance
    # rate is pi/4, and the margin puts a short row (which carries on
    # with a second draw) several standard deviations out
    return need + need // 3 + 4 * math.isqrt(need) + 6


def _row_uniforms(count: int) -> int:
    """Uniforms drawn per row by ``_normals_rows(..., count)``."""
    return 2 * _pair_budget((count + 1) // 2)


def _polar_pairs(states: np.ndarray, need: int) -> tuple[np.ndarray, np.ndarray]:
    """The next ``need`` accepted polar pairs of every stream state in the
    1-d uint64 array ``states``.

    Returns a (rows, 2 * need) array holding each row's deviates in
    stream order, and the state after the last uniform each row used.
    Every row draws ``_pair_budget(need)`` pairs at once; a row short of
    ``need`` accepted pairs carries on from the end of its budget.
    """
    if need == 0:
        return np.empty((states.size, 0)), states
    budget = _pair_budget(need)
    steps = _GOLDEN * np.arange(1, 2 * budget + 1, dtype=np.uint64)
    # the (rows, 2 * budget) grids dominate a chunk's memory, so they are
    # transformed in place; each step rounds as the one-at-a-time scheme
    words = _mix64_array(states[:, None] + steps)
    words >>= _SHIFT_11
    v = words * _TO_UNIT
    del words
    v *= 2.0
    v -= 1.0
    v1, v2 = v[:, 0::2], v[:, 1::2]
    s = v1 * v1
    s += v2 * v2
    ok = (s > 0.0) & (s < 1.0)
    rank = np.cumsum(ok, axis=1, dtype=np.int32)
    used = ok & (rank <= need)
    s = s[used]
    f = np.sqrt(-2.0 * np.log(s) / s)
    vals = np.empty(2 * f.size)
    vals[0::2] = v1[used] * f
    vals[1::2] = v2[used] * f
    # a row's last uniform ends its need-th accepted pair, or its budget
    last = np.minimum(2 * np.count_nonzero(rank < need, axis=1) + 1, steps.size - 1)
    ends = states + steps[last]
    got = np.minimum(rank[:, -1], need)
    if (got == need).all():
        return vals.reshape(states.size, 2 * need), ends
    pairs = np.empty((states.size, 2 * need))
    pairs[np.arange(2 * need) < 2 * got[:, None]] = vals
    for row in np.flatnonzero(got < need):
        pairs[row, 2 * got[row]:], ends[row:row + 1] = _polar_pairs(
            ends[row:row + 1], int(need - got[row]))
    return pairs, ends


def _normals_rows(master_seed: int, trials, tags, count: int) -> np.ndarray:
    """Row r is ``substream(master_seed, trials[r], tags[r]).normals(count)``,
    with ``trials`` and ``tags`` broadcast together."""
    states = _stream_states(master_seed, trials, tags)
    return _polar_pairs(states, (count + 1) // 2)[0][:, :count]


def _orbit_triangles(master_seed: int, trials, orbits: int, m: int, sigma0: float) -> np.ndarray:
    """(orbits, rows, m(m+1)/2) row-major upper triangles: row r of orbit k
    is ``sigma0`` times the first m(m+1)/2 normals of stream (master_seed,
    trials[r], k), -0.0 made +0.0; one tag, so one polar grid, at a time."""
    tri = np.empty((max(orbits, 0), np.size(trials), m * (m + 1) // 2))
    for tag in range(orbits):
        tri[tag] = sigma0 * _normals_rows(master_seed, trials, tag, tri.shape[2]) + 0.0
    return tri


def _sym_blocks(packed: np.ndarray, m: int) -> np.ndarray:
    """The one unpacking (a gather): symmetric m x m blocks, any leading
    shape, whose upper triangles (row-major) are the last axis of ``packed``."""
    index = np.empty((m, m), dtype=np.intp)
    rows, cols = np.triu_indices(m)
    index[rows, cols] = index[cols, rows] = np.arange(rows.size)
    return np.take(packed, index, axis=-1)


def _check_scale(name: str, value: float) -> None:
    """The one rule for a width scale: a real number, positive and finite."""
    if not (isinstance(value, numbers.Real) and 0.0 < value < math.inf):
        raise InvalidInputError(f"{name} must be positive and finite, got {value!r}")


def _check_block_args(m: int, sigma0: float) -> None:
    if m < 1:
        raise InvalidInputError("block size m must be >= 1")
    _check_scale("sigma0", sigma0)


@dataclass(frozen=True)
class EnsembleConfig:
    """Everything that determines a reproducible ensemble experiment.

    ``group`` is one of "cyclic", "tetra", "octa", "cube" (with ``n``
    for the cyclic family) for irrep censuses, and may be left None for
    experiments that do not involve a point group.
    """

    master_seed: int
    trials: int
    sigma0: float = 1.0
    group: str | None = None
    n: int | None = None
    m: int = 1

    def __post_init__(self):
        for name in ("master_seed", "trials", "m", "n"):
            value = getattr(self, name)
            if name == "n" and value is None:
                continue
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise InvalidInputError(f"{name} must be an integer, got {value!r}") from None
        if not isinstance(self.group, (str, type(None))):
            raise InvalidInputError(f"group must be a name or None, got {self.group!r}")
        if not 0 <= self.master_seed <= _MASK:
            raise InvalidInputError("master_seed must fit in 64 bits")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        _check_block_args(self.m, self.sigma0)


def draw_label_blocks(
    orbits: int,
    m: int,
    master_seed: int,
    trial_index: int,
    sigma0: float = 1.0,
) -> list[np.ndarray]:
    """One random symmetric m x m block per pair orbit for a single trial.

    Block k's entries on and above the diagonal, in row-major order, are
    ``sigma0`` times the first m(m+1)/2 normals of
    ``substream(master_seed, trial_index, k)``, with -0.0 made +0.0; the
    strict lower triangle mirrors the upper bitwise.  The stream tag of
    orbit k is k, so draws for existing orbits never move when further
    orbits are added.  These are the census's blocks for that trial.
    """
    _check_block_args(m, sigma0)
    triangles = _orbit_triangles(master_seed, trial_index, orbits, m, sigma0)
    return list(_sym_blocks(triangles[:, 0], m))


def _tally(minima: np.ndarray) -> tuple[np.ndarray, int]:
    """Winner counts per column of a (rows, k) minima array, and the
    number of rows whose minimum is attained more than once.  Exact ties
    go to the earlier column."""
    if not np.all(np.isfinite(minima)):
        raise NumericFailureError("non-finite ground-state energy in a trial")
    winners = np.argmin(minima, axis=1)
    best = minima[np.arange(minima.shape[0]), winners]
    ties = int(np.count_nonzero(np.count_nonzero(minima == best[:, None], axis=1) > 1))
    return np.bincount(winners, minlength=minima.shape[1]), ties


def _chunked_tally(chunk_minima, trials: int, row_elements: int,
                   threads: int = 1) -> tuple[np.ndarray, int]:
    """Tally ``chunk_minima(trial_indices) -> (rows, k)`` over trials
    0..trials-1.  ``row_elements`` bounds the array elements one trial
    of a chunk holds at once; a chunk holds about ``_CHUNK_ELEMENTS`` of
    them, and chunks are spread over ``threads`` workers, ``threads``
    chunks at a time.  Each chunk is summed as it finishes, so memory
    does not grow with ``trials``.  The result depends on neither."""
    if threads < 1:
        raise InvalidInputError(f"threads must be >= 1, got {threads}")
    size = max(1, _CHUNK_ELEMENTS // row_elements)

    def worker(chunk):
        start = chunk * size
        # a non-finite run is reported once, by _tally
        with np.errstate(over="ignore", invalid="ignore"):
            minima = chunk_minima(np.arange(start, min(trials, start + size)))
        return _tally(minima)

    def outcomes(chunks):
        if threads == 1 or len(chunks) <= 1:
            yield from map(worker, chunks)
            return
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for first in range(0, len(chunks), threads):
                yield from pool.map(worker, chunks[first:first + threads])

    counts, ties = 0, 0
    for c, t in outcomes(range(-(-trials // size))):
        counts, ties = counts + c, ties + t
    return counts, ties
