"""Seeded, reproducible random-number machinery for matrix ensembles.

Every experiment is a pure function of an `EnsembleConfig`.  Each
(trial, stream tag) pair owns a private deviate stream derived from the
master seed, so trials can run in any order (or in parallel) without
changing a single draw, and adding a new stream tag never perturbs the
draws of existing tags.

Stream derivation and generation are fixed algorithms, documented here
so the sequences can be reproduced from this description alone:

* ``mix64`` is the SplitMix64 finalizer: ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9;
  z ^= z >> 27; z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64).
* A substream's initial state is
  ``mix64(mix64(mix64(seed) ^ (trial + 0xD1B54A32D192ED03)) ^ (tag + 0x8BB84B93962EACC9))``.
* The raw 64-bit sequence is SplitMix64: state advances by the odd
  constant ``0x9E3779B97F4A7C15`` per draw and emits ``mix64(state)``.
* Uniforms on [0, 1) take the top 53 bits: ``u = (word >> 11) * 2**-53``.
* Standard normals use Marsaglia's polar method: consume uniform pairs
  ``(u1, u2)``, set ``v_i = 2 u_i - 1`` and ``s = v1^2 + v2^2``, reject
  unless ``0 < s < 1``, then emit ``v1 * f`` followed by ``v2 * f`` with
  ``f = sqrt(-2 ln(s) / s)``.  The second deviate of a pair is kept in a
  one-slot queue, never discarded.

``SubStream.normal`` is the reference implementation of this scheme.
Every batched draw goes through one vectorised kernel, ``_polar_pairs``,
which scans the polar acceptance of any array of stream states at once
and returns each stream's next accepted pairs and its state after them:
``SubStream.normals`` runs it on its own state, ``draw_label_blocks`` on
the orbit tags of one trial, and the census and the J distribution on
the trials of a chunk.  Each row keeps the same accepted pairs, in the
same order, that repeated ``normal()`` calls would, so every path gives
the same draws bit for bit, and splitting the trials into chunks (or
over threads) changes nothing.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericFailureError

__all__ = [
    "EnsembleConfig",
    "SubStream",
    "substream",
    "random_sym_block",
    "draw_label_blocks",
    "run_trials",
]

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_TRIAL_SALT = 0xD1B54A32D192ED03
_TAG_SALT = 0x8BB84B93962EACC9

_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX_A = np.uint64(_MIX_A)
_U64_MIX_B = np.uint64(_MIX_B)
_SHIFT_30 = np.uint64(30)
_SHIFT_27 = np.uint64(27)
_SHIFT_31 = np.uint64(31)
_SHIFT_11 = np.uint64(11)
_TO_UNIT = 2.0 ** -53

# array elements one chunk of the trial kernel holds at once; sets how
# many trials share a chunk, and so bounds its scratch memory
_CHUNK_ELEMENTS = 1 << 15


def mix64(z: int) -> int:
    """SplitMix64 avalanche of one 64-bit word."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    """mix64 of every word of the uint64 array ``z``, computed in place."""
    z ^= z >> _SHIFT_30
    z *= _U64_MIX_A
    z ^= z >> _SHIFT_27
    z *= _U64_MIX_B
    z ^= z >> _SHIFT_31
    return z


class SubStream:
    """One private deviate stream; see the module docstring for the scheme."""

    __slots__ = ("_state", "_pending")

    def __init__(self, state: int):
        self._state = state & _MASK
        self._pending = None

    def next_uint64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def uniform(self) -> float:
        """Next uniform deviate on [0, 1)."""
        return (self.next_uint64() >> 11) * _TO_UNIT

    def normal(self) -> float:
        """Next standard normal deviate (polar method)."""
        if self._pending is not None:
            x = self._pending
            self._pending = None
            return x
        while True:
            v1 = 2.0 * self.uniform() - 1.0
            v2 = 2.0 * self.uniform() - 1.0
            s = v1 * v1 + v2 * v2
            if 0.0 < s < 1.0:
                # np.log rather than math.log: keeps the scalar path
                # bit-identical to the vectorized one
                f = math.sqrt(-2.0 * float(np.log(s)) / s)
                self._pending = v2 * f
                return v1 * f

    def normals(self, count: int) -> np.ndarray:
        """Next ``count`` standard normals; bitwise identical to repeated
        normal() calls however the requests are batched."""
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


def substream(master_seed: int, trial_index: int, stream_tag: int) -> SubStream:
    """Derive the private stream for (trial, tag) under a master seed."""
    s = mix64(master_seed)
    s = mix64(s ^ ((trial_index + _TRIAL_SALT) & _MASK))
    s = mix64(s ^ ((stream_tag + _TAG_SALT) & _MASK))
    return SubStream(s)


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
    steps = _U64_GOLDEN * np.arange(1, 2 * budget + 1, dtype=np.uint64)
    # the (rows, 2 * budget) grids dominate a chunk's memory, so they are
    # transformed in place; each step rounds exactly as SubStream.normal
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
    trials = np.asarray(trials, dtype=np.uint64)
    states = _mix64_array(np.uint64(mix64(master_seed)) ^ (trials + np.uint64(_TRIAL_SALT)))
    states = _mix64_array(states ^ (np.asarray(tags, dtype=np.uint64) + np.uint64(_TAG_SALT)))
    return _polar_pairs(states, (count + 1) // 2)[0][:, :count]


def _sym_blocks(z: np.ndarray, m: int, sigma0: float) -> np.ndarray:
    """(rows, m, m) symmetric blocks whose upper triangles, row-major, are
    the rows of ``sigma0 * z``; the strict lower triangles mirror them
    bitwise.  Adding 0.0 turns every -0.0 into +0.0."""
    rows, cols = np.triu_indices(m)
    z = sigma0 * z + 0.0
    blocks = np.empty((z.shape[0], m, m))
    blocks[:, rows, cols] = z
    blocks[:, cols, rows] = z
    return blocks


def _check_block_args(m: int, sigma0: float) -> None:
    if m < 1:
        raise InvalidInputError("block size m must be >= 1")
    if not sigma0 > 0.0:
        raise InvalidInputError("sigma0 must be positive")


def random_sym_block(stream: SubStream, m: int, sigma0: float = 1.0) -> np.ndarray:
    """Random symmetric m x m block.

    All independent entries (on and above the diagonal, row-major order)
    are i.i.d. normal with standard deviation ``sigma0``; the strict
    lower triangle mirrors the upper bitwise.
    """
    _check_block_args(m, sigma0)
    return _sym_blocks(stream.normals(m * (m + 1) // 2)[None], m, sigma0)[0]


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
        if not 0 <= int(self.master_seed) <= _MASK:
            raise InvalidInputError("master_seed must fit in 64 bits")
        if self.trials < 1:
            raise InvalidInputError("trials must be >= 1")
        if not self.sigma0 > 0.0:
            raise InvalidInputError("sigma0 must be positive")
        if self.m < 1:
            raise InvalidInputError("block size m must be >= 1")


def _label_block_rows(orbits: int, m: int, master_seed: int, trials, sigma0: float = 1.0):
    """``draw_label_blocks`` for every trial in ``trials`` at once: one
    (len(trials), m, m) stack of blocks per orbit."""
    return [_sym_blocks(_normals_rows(master_seed, trials, tag, m * (m + 1) // 2), m, sigma0)
            for tag in range(orbits)]


def draw_label_blocks(
    orbits: int,
    m: int,
    master_seed: int,
    trial_index: int,
    sigma0: float = 1.0,
) -> list[np.ndarray]:
    """One random symmetric block per pair orbit for a single trial;
    block k is ``random_sym_block(substream(master_seed, trial_index, k), m, sigma0)``.

    The stream tag of orbit k is k, so draws for existing orbits never
    move when further orbits are added.
    """
    _check_block_args(m, sigma0)
    # reduced mod 2**64, as substream() reduces it
    z = _normals_rows(master_seed, [trial_index & _MASK], np.arange(orbits), m * (m + 1) // 2)
    return list(_sym_blocks(z, m, sigma0))


def run_trials(worker, trials: int, threads: int = 1) -> list:
    """Evaluate ``worker(t)`` for t = 0..trials-1, optionally on a thread pool.

    Results come back indexed by trial, so any commutative aggregation
    over them is independent of execution order and thread count.
    """
    if trials < 0:
        raise InvalidInputError("trials must be >= 0")
    if threads <= 1 or trials <= 1:
        return [worker(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(trials)))


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
    0..trials-1.  ``row_elements`` is the most array elements one trial
    of a chunk holds at once; a chunk holds about ``_CHUNK_ELEMENTS`` of
    them, and chunks are spread over ``threads`` workers.  The result
    depends on neither."""
    size = max(1, _CHUNK_ELEMENTS // row_elements)

    def worker(chunk):
        start = chunk * size
        # a non-finite run is reported once, by _tally
        with np.errstate(over="ignore", invalid="ignore"):
            minima = chunk_minima(np.arange(start, min(trials, start + size)))
        return _tally(minima)

    outcomes = run_trials(worker, -(-trials // size), threads)
    return sum(c for c, _ in outcomes), sum(t for _, t in outcomes)
