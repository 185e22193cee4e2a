"""Block decomposition of invariant random matrices, and the ground-state census.

A group-invariant matrix built from per-orbit random blocks is
orthogonally equivalent to a direct sum of small combination blocks,
one per irreducible representation of the site action.  Each
combination is a weighted sum of the orbit blocks, so its element
variance is the sum of squared coefficients times the per-element
variance of the inputs.  That single number per irrep is what makes the
ground-state statistics predictable: wider blocks reach lower.

Cyclic groups use the closed-form Fourier weights.  Every other group
must act without repeating an irrep; its weights are then the integer
eigenvalues of the commuting pair-orbit adjacency matrices, derived
rather than tabulated.  Its blocks are ordered by ascending dimension
and named ``<d>dim``; when two blocks share a dimension, the one with
the larger sum over orbits of (orbit size x coefficient), a quantity
that does not depend on how the sites are numbered, is ``<d>dim+`` and
the other ``<d>dim-``.

One kernel, ``_block_eigenvalues``, combines packed orbit triangles by
a group's one (specs, orbits) coefficient array, NaN where a block does
not combine an orbit, and solves the blocks, for census and spectra.

The master consistency check, used throughout the tests: the sorted
eigenvalues of the dense invariant matrix equal the multiset union of
the combination-block eigenvalues, each repeated by its multiplicity.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericFailureError
from .groups import PointGroup, _coerce_blocks, build_group
from .rng import EnsembleConfig, _chunked_tally, _orbit_triangles, _row_uniforms, _sym_blocks

__all__ = [
    "IrrepBlockSpec",
    "decompose",
    "block_spectra",
    "CensusRow",
    "CensusResult",
    "ground_state_irrep_census",
]


@dataclass(frozen=True, eq=False)
class IrrepBlockSpec:
    """One block of the block-diagonal form.

    ``coefficients[k]`` weights orbit k in the combination block, NaN
    where the block does not combine it; ``copies`` is how many times
    the block repeats in the block-diagonal form.  The predicted
    per-element variance of the block, in units of the input element
    variance, is the sum of squared coefficients (independent inputs of
    equal variance).  ``combination`` is the kernel's bit-for-bit reference.
    """

    label: str
    copies: int
    coefficients: np.ndarray

    @property
    def variance_factor(self) -> float:
        c = self.coefficients  # summed left to right; np.sum is pairwise
        return float(np.nancumsum(c * c)[-1])

    def combination(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        out = None
        for k in np.flatnonzero(~np.isnan(self.coefficients)):
            term = self.coefficients[k] * np.asarray(blocks[k], dtype=np.float64)
            out = term if out is None else out + term
        return out


def _decompose_by_orbit_algebra(group: PointGroup) -> tuple[list[str], list[int], np.ndarray]:
    """Irrep blocks of a multiplicity-free action, read off its orbit algebra.

    The orbit adjacency matrices A_k commute exactly when no irrep
    repeats, and their common eigenspaces are then the irreps (Bannai &
    Ito, *Algebraic Combinatorics I*, 1984).  Each eigenvector v of one
    fixed combination of the A_k has the integer coefficients
    ``v^T A_k v``; identical rows make up one irrep, one copy per row.
    The eigenvectors must be orthonormal: the residual check on the
    coefficients passes a scaled or repeated one.
    """
    adj = np.array([group.orbit_index == k for k in range(group.orbit_count)], dtype=np.int64)
    products = adj[:, None] @ adj[None, :]
    if not np.array_equal(products, products.transpose(1, 0, 2, 3)):
        raise InvalidInputError(f"{group.name}: pair-orbit matrices do not commute")
    mix = sum(a / (k + math.pi) for k, a in enumerate(adj))
    try:
        vectors = np.linalg.eigh(mix)[1]
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"{group.name}: eigensolve failed: {exc}") from exc
    if np.max(np.abs(vectors.T @ vectors - np.eye(group.sites))) > 1e-8 * group.sites:
        raise NumericFailureError(f"{group.name}: eigenvectors are not orthonormal")
    coeffs = np.rint(np.einsum("ji,kjl,li->ik", vectors, adj, vectors))
    if np.linalg.norm(adj @ vectors - vectors[None] * coeffs.T[:, None]) > 1e-8:
        raise InvalidInputError(f"{group.name}: pair-orbit coefficients are not integers")
    copies = Counter(map(tuple, coeffs.tolist()))
    sizes = group.orbit_sizes()
    weight = {row: sum(s * c for s, c in zip(sizes, row)) for row in copies}
    rows = sorted(copies, key=lambda row: (copies[row], -weight[row]))
    labels = []
    for row in rows:
        twins = [r for r in rows if copies[r] == copies[row]]
        label = f"{copies[row]}dim"
        if len(twins) > 2 or len({weight[r] for r in twins}) < len(twins):
            raise InvalidInputError(f"{group.name}: no +/- rule names its {label} blocks")
        if len(twins) == 2:
            label += "+" if row == twins[0] else "-"
        labels.append(label)
    # NaN: the block does not combine that orbit
    return labels, [copies[row] for row in rows], np.where(np.array(rows) == 0, np.nan, rows)


def _fourier_blocks(group: PointGroup) -> tuple[list[str], list[int], np.ndarray]:
    """Fourier block structure of a C_n invariant matrix.

    Block k (k = 0..floor(n/2)) combines the distance blocks F_0..F_d,
    each at the orbit that holds distance j, with weight 1 for
    j = 0 and ``zeta_j cos(2 pi r / n)`` otherwise, where
    r = min(kj mod n, n - kj mod n) is the reduced angle and zeta_j is
    1 at 2j = n and 2 elsewhere.  One cosine is computed per r, with
    r = 0, 2r = n and 4r = n snapped to 1, -1 and 0, so blocks with
    0 < k < n/2 occur twice (the k and n-k modes coincide bitwise).

    The variance factor ``1 + sum_j zeta_j^2 cos^2(2 pi k j / n)``
    is largest at k = 0; for even n the k = n/2 block ties it exactly
    (every cosine is +-1 there), which is why the deepest ground states
    of an even cycle live in one of those two blocks.
    """
    n = group.sites
    half = n // 2
    # walk the generator to find the cyclic distance each orbit holds
    # (the orbit number itself for the canonical numbering, but correct
    # for any relabeling); column c of the weights is orbit c.  The
    # walk must be an n-cycle whose first half + 1 sites meet each of
    # the half + 1 pair orbits once
    gen = group.generators[0]
    walk = [0]
    for _ in range(n - 1):
        walk.append(gen[walk[-1]])
    orbits = group.orbit_index[0, walk[:half + 1]]
    if (len(set(walk)) < n or group.orbit_count != half + 1
            or len(set(orbits.tolist())) != half + 1):
        raise InvalidInputError(f"{group.name}: the first generator does not walk a ring "
                                "whose distances are the pair orbits")
    dist = np.empty(half + 1, dtype=np.int64)
    dist[orbits] = np.arange(half + 1)
    d = np.arange(half + 1)
    cosines = np.select([d == 0, 2 * d == n, 4 * d == n], [1.0, -1.0, 0.0],
                        [math.cos(2.0 * math.pi * r / n) for r in range(half + 1)])
    kj = np.outer(d, dist) % n
    weights = cosines[np.minimum(kj, n - kj)] * np.where(2 * dist == n, 1.0, 2.0)
    weights[:, dist == 0] = 1.0
    return ([f"k={k}" for k in d], [1 if k == 0 or 2 * k == n else 2 for k in d], weights)


def decompose(group: PointGroup) -> list[IrrepBlockSpec]:
    """Block specs for any supported group, whose coefficients are the rows
    of one read-only (specs, orbits) array; a ring's rows name every orbit.
    Raises ``InvalidInputError`` for a non-cyclic group whose pair-orbit
    matrices do not commute or have non-integer eigenvalues, and for a
    cyclic one whose first generator is not an n-cycle stepping through
    its n // 2 + 1 pair orbits.
    """
    derive = _fourier_blocks if group.kind == "cyclic" else _decompose_by_orbit_algebra
    labels, copies, table = derive(group)
    table.flags.writeable = False
    return [IrrepBlockSpec(*spec) for spec in zip(labels, copies, table)]


def _block_eigenvalues(specs: Sequence[IrrepBlockSpec], coeffs: np.ndarray,
                       triangles: np.ndarray, m: int) -> np.ndarray:
    """(specs, rows, m) ascending eigenvalues of the combination blocks of
    the (orbits, rows, m(m+1)/2) packed orbit ``triangles`` by the specs'
    stacked ``coeffs``.  Ascending orbits, one multiply-add each into
    every spec that names the orbit (not NaN): the bits of
    `IrrepBlockSpec.combination`.  Every block goes through one batched
    eigvalsh, whose 1 x 1 case returns the entry's bits.  A non-finite
    block raises ``NumericFailureError``."""
    # -0.0 is the exact additive identity: the first term keeps its bits
    combos = np.full((len(coeffs),) + triangles.shape[1:], -0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, tri in zip(coeffs.T[:, :, None, None], triangles):
            np.add(combos, c * tri, out=combos, where=~np.isnan(c))
    bad = ~np.isfinite(combos).all(axis=(1, 2))
    if bad.any():
        raise NumericFailureError(f"{specs[bad.argmax()].label} block overflows the float range")
    try:
        return np.linalg.eigvalsh(_sym_blocks(combos, m))
    except np.linalg.LinAlgError as exc:
        raise NumericFailureError(f"eigensolve failed: {exc}") from exc


def _spectrum_eigenvalues(group: PointGroup, blocks: Sequence[np.ndarray]):
    """``decompose(group)`` and the (specs, m) eigenvalues of its
    combination blocks, for exactly symmetric per-orbit ``blocks``."""
    m = blocks[0].shape[0]
    rows, cols = np.triu_indices(m)
    specs = decompose(group)
    coeffs = np.stack([s.coefficients for s in specs])
    return specs, _block_eigenvalues(specs, coeffs, np.stack(blocks)[:, None, rows, cols], m)[:, 0]


def block_spectra(group: PointGroup, blocks: Sequence[np.ndarray]) -> np.ndarray:
    """Eigenvalues of the invariant matrix computed block by block.

    ``blocks[k]`` is the block of orbit k, one per orbit.  Concatenates
    the eigenvalues of every combination block, repeated by
    multiplicity, and sorts into a read-only array: equal (to 1e-8 and
    usually much better) to ``eigensolve(build_invariant(group, blocks))``.
    Blocks are checked as `build_invariant` checks them: a non-finite
    one raises ``InvalidInputError``.
    """
    specs, values = _spectrum_eigenvalues(group, _coerce_blocks(group, blocks))
    union = np.sort(np.repeat(values, [s.copies for s in specs], axis=0), axis=None)
    union.flags.writeable = False
    return union


@dataclass(frozen=True)
class CensusRow:
    label: str
    copies: int
    block_dim: int
    variance_factor: float
    gs_count: int
    trials: int
    sites: int

    @property
    def gs_fraction(self) -> float:
        return self.gs_count / self.trials

    @property
    def dimensional_fraction(self) -> float:
        return self.copies / self.sites


@dataclass(frozen=True)
class CensusResult:
    """Which irrep block holds the ground state, tallied over an ensemble."""

    rows: tuple[CensusRow, ...]
    trials: int
    tie_count: int

    def fraction(self, label: str) -> float:
        for row in self.rows:
            if row.label == label:
                return row.gs_fraction
        raise KeyError(label)


def _census_minima(specs: Sequence[IrrepBlockSpec], coeffs: np.ndarray, cfg: EnsembleConfig,
                   trials: np.ndarray) -> np.ndarray:
    """(len(trials), len(specs)) lowest eigenvalues of every combination
    block of the given trials, computed on packed orbit triangles."""
    triangles = _orbit_triangles(cfg.master_seed, trials, coeffs.shape[1], cfg.m, cfg.sigma0)
    return _block_eigenvalues(specs, coeffs, triangles, cfg.m)[:, :, 0].T


def _census_from_specs(specs: Sequence[IrrepBlockSpec], sites: int, cfg: EnsembleConfig,
                       threads: int = 1) -> CensusResult:
    m = cfg.m
    coeffs = np.stack([s.coefficients for s in specs])
    # counts one orbit's uniforms or one full m x m block per orbit,
    # whichever is larger; per trial the kernel holds more: the packed
    # triangles and the accumulator beside the specs' full blocks, up to
    # about 2 L m^2 elements (cube m = 64: 33,024 against this 16,384)
    row_elements = max(_row_uniforms(m * (m + 1) // 2), coeffs.shape[1] * m * m)
    counts, ties = _chunked_tally(lambda trials: _census_minima(specs, coeffs, cfg, trials),
                                  cfg.trials, row_elements, threads)
    rows = tuple(CensusRow(spec.label, spec.copies, m, spec.variance_factor, int(count),
                           cfg.trials, sites) for spec, count in zip(specs, counts))
    return CensusResult(rows, cfg.trials, ties)


def ground_state_irrep_census(cfg: EnsembleConfig, threads: int = 1) -> CensusResult:
    """Fraction of ensemble ground states landing in each irrep block.

    For each of ``cfg.trials`` trials, draws one symmetric random block
    per pair orbit (trial- and orbit-private streams), forms every
    combination block, and records which block attains the global
    minimum eigenvalue.  Exact ties are counted toward the earlier
    block in canonical order and tallied in ``tie_count`` (they have
    probability zero, so a nonzero tally flags a construction bug).
    A NaN or infinite block minimum raises ``NumericFailureError``.
    """
    if cfg.group is None:
        raise InvalidInputError("EnsembleConfig.group must be set for a census")
    group = build_group(cfg.group, cfg.n)
    return _census_from_specs(decompose(group), group.sites, cfg, threads)

