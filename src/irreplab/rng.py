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

The census and the J distribution draw a whole chunk of trials at once:
the stream states of every trial in the chunk are derived as one array,
and each row keeps the same accepted pairs, in the same order, that
``substream(seed, trial, tag).normals(count)`` would.  The batched and
the scalar paths therefore produce the same draws bit for bit, and
splitting the trials into chunks (or over threads) changes nothing.
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

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` uniforms, identical to ``count`` calls of uniform()."""
        if count < 0:
            raise InvalidInputError("count must be >= 0")
        steps = np.arange(1, count + 1, dtype=np.uint64)
        states = np.uint64(self._state) + _U64_GOLDEN * steps
        self._state = (self._state + count * _GOLDEN) & _MASK
        return (_mix64_array(states) >> _SHIFT_11) * _TO_UNIT

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
        out = np.empty(count, dtype=np.float64)
        filled = 0
        if self._pending is not None and count > 0:
            out[0] = self._pending
            self._pending = None
            filled = 1
        while filled < count:
            need_pairs = (count - filled + 1) // 2
            batch = max(8, need_pairs + (need_pairs >> 2) + 4)
            base = self._state
            u = self.uniforms(2 * batch)
            v1 = 2.0 * u[0::2] - 1.0
            v2 = 2.0 * u[1::2] - 1.0
            s = v1 * v1 + v2 * v2
            ok = np.flatnonzero((s > 0.0) & (s < 1.0))
            if ok.size >= need_pairs:
                used = ok[:need_pairs]
                # rewind past the uniforms the sequential path never consumed
                self._state = (base + 2 * (int(used[-1]) + 1) * _GOLDEN) & _MASK
            else:
                used = ok
            f = np.sqrt(-2.0 * np.log(s[used]) / s[used])
            pair_vals = np.empty(2 * used.size, dtype=np.float64)
            pair_vals[0::2] = v1[used] * f
            pair_vals[1::2] = v2[used] * f
            take = min(pair_vals.size, count - filled)
            out[filled:filled + take] = pair_vals[:take]
            filled += take
            if take < pair_vals.size:
                self._pending = float(pair_vals[take])
        return out

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
    # rate is pi/4, and the margin puts a short row (which falls back to
    # the scalar stream) several standard deviations out
    return need + need // 3 + 4 * math.isqrt(need) + 6


def _row_uniforms(count: int) -> int:
    """Uniforms drawn per row by ``_normals_rows(..., count)``."""
    return 2 * _pair_budget((count + 1) // 2)


def _normals_rows(master_seed: int, trials, tag: int, count: int,
                  pairs: int | None = None) -> np.ndarray:
    """Row r is ``substream(master_seed, trials[r], tag).normals(count)``.

    All rows draw ``pairs`` polar pairs at once (default
    ``_pair_budget``); a row with fewer than ``ceil(count / 2)`` accepted
    pairs is completed by its scalar stream.
    """
    trials = np.asarray(trials, dtype=np.uint64)
    states = _mix64_array(np.uint64(mix64(master_seed)) ^ (trials + np.uint64(_TRIAL_SALT)))
    states = _mix64_array(states ^ np.uint64((tag + _TAG_SALT) & _MASK))
    out = np.empty((trials.size, count), dtype=np.float64)
    need = (count + 1) // 2
    if need == 0:
        return out
    if pairs is None:
        pairs = _pair_budget(need)
    steps = _U64_GOLDEN * np.arange(1, 2 * pairs + 1, dtype=np.uint64)
    # the (rows, 2 * pairs) grids dominate the chunk's memory, so they are
    # transformed in place; each step rounds exactly as SubStream.normals
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
    full = rank[:, -1] >= need
    used = ok & (rank <= need) & full[:, None]
    s = s[used]
    f = np.sqrt(-2.0 * np.log(s) / s)
    pair_vals = np.empty((np.count_nonzero(full), 2 * need), dtype=np.float64)
    pair_vals[:, 0::2] = (v1[used] * f).reshape(-1, need)
    pair_vals[:, 1::2] = (v2[used] * f).reshape(-1, need)
    out[full] = pair_vals[:, :count]
    for row in np.flatnonzero(~full):
        out[row] = SubStream(int(states[row])).normals(count)
    return out


def random_sym_block(stream: SubStream, m: int, sigma0: float = 1.0) -> np.ndarray:
    """Random symmetric m x m block.

    All independent entries (on and above the diagonal, row-major order)
    are i.i.d. normal with standard deviation ``sigma0``; the strict
    lower triangle mirrors the upper bitwise.
    """
    if m < 1:
        raise InvalidInputError("block size m must be >= 1")
    if sigma0 <= 0.0:
        raise InvalidInputError("sigma0 must be positive")
    z = sigma0 * stream.normals(m * (m + 1) // 2)
    block = np.zeros((m, m), dtype=np.float64)
    block[np.triu_indices(m)] = z
    block += np.triu(block, 1).T
    return block


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
    (len(trials), m, m) stack of blocks per orbit.

    Entries are bitwise equal to ``random_sym_block``'s, which adds 0.0
    to every entry (turning -0.0 into +0.0) when it mirrors the upper
    triangle.
    """
    rows, cols = np.triu_indices(m)
    blocks = []
    for tag in range(orbits):
        z = sigma0 * _normals_rows(master_seed, trials, tag, m * (m + 1) // 2) + 0.0
        stack = np.empty((z.shape[0], m, m), dtype=np.float64)
        stack[:, rows, cols] = z
        stack[:, cols, rows] = z
        blocks.append(stack)
    return blocks


def draw_label_blocks(
    orbits: int,
    m: int,
    master_seed: int,
    trial_index: int,
    sigma0: float = 1.0,
) -> list[np.ndarray]:
    """One random symmetric block per pair orbit for a single trial.

    The stream tag of orbit k is k, so draws for existing orbits never
    move when further orbits are added.
    """
    return [
        random_sym_block(substream(master_seed, trial_index, tag), m, sigma0)
        for tag in range(orbits)
    ]


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
        return _tally(chunk_minima(np.arange(start, min(trials, start + size))))

    outcomes = run_trials(worker, -(-trials // size), threads)
    return sum(c for c, _ in outcomes), sum(t for _, t in outcomes)
