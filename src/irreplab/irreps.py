"""Block decomposition of invariant random matrices, and the ground-state census.

A group-invariant matrix built from per-orbit random blocks is
orthogonally equivalent to a direct sum of small combination blocks,
one per irreducible representation of the site action.  Each
combination is a signed integer (polyhedra) or cosine-weighted (cyclic)
sum of the orbit blocks, so its element variance is the sum of squared
coefficients times the per-element variance of the inputs.  That single
number per irrep is what makes the ground-state statistics predictable:
wider blocks reach lower.

The master consistency check, used throughout the tests: the sorted
eigenvalues of the dense invariant matrix equal the multiset union of
the combination-block eigenvalues, each repeated by its multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericFailureError
from .groups import (
    PairOrbitStructure,
    PointGroup,
    _coerce_blocks,
    build_group,
    build_invariant,
    pair_orbits,
)
from .linalg import Spectrum, SymMatrix, eigensolve
from .rng import (
    EnsembleConfig,
    _chunked_tally,
    _label_block_rows,
    _row_uniforms,
    draw_label_blocks,
)

__all__ = [
    "IrrepBlockSpec",
    "decompose_polyhedral",
    "decompose_cyclic",
    "decompose",
    "block_spectra",
    "sample_invariant",
    "CensusRow",
    "CensusResult",
    "ground_state_irrep_census",
]


@dataclass(frozen=True)
class IrrepBlockSpec:
    """One block of the block-diagonal form.

    ``coefficients`` maps orbit numbers to the weights of the
    combination block; ``copies`` is how many times the block repeats
    in the block-diagonal form.  The predicted per-element variance of
    the block, in units of the input element variance, is the sum of
    squared coefficients (independent inputs of equal variance).
    """

    label: str
    copies: int
    coefficients: dict[int, float]

    @property
    def variance_factor(self) -> float:
        return float(sum(c * c for c in self.coefficients.values()))

    def combination(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        out = None
        for orbit, c in self.coefficients.items():
            term = c * np.asarray(blocks[orbit], dtype=np.float64)
            out = term if out is None else out + term
        return out


def _classify_cube_offdiagonal(structure: PairOrbitStructure):
    """Split the cube's off-diagonal orbits into edge / face / body classes.

    The body-diagonal orbit has 4 pairs.  The two 12-pair orbits are
    told apart by their triangles: the edge orbit is the cube skeleton,
    which is bipartite, so ``trace(A^3) == 0`` for its adjacency matrix
    A; the face-diagonal orbit is two inscribed tetrahedra, so its
    ``trace(A^3) > 0``.
    """
    sizes = structure.orbit_sizes()
    body = [k for k in range(1, structure.count) if sizes[k] == 4]
    twelves = [k for k in range(1, structure.count) if sizes[k] == 12]
    if len(body) != 1 or len(twelves) != 2:
        raise InvalidInputError("unexpected cube orbit structure")

    def triangles(orbit):
        a = (structure.label_index == orbit).astype(np.int64)
        return int(np.trace(a @ a @ a))

    edge, face = sorted(twelves, key=triangles)
    if triangles(edge) != 0 or triangles(face) == 0:
        raise InvalidInputError("unexpected cube orbit structure")
    return edge, face, body[0]


def decompose_polyhedral(group: PointGroup) -> list[IrrepBlockSpec]:
    """Block-diagonal structure of a polyhedral invariant matrix.

    Returned in canonical order (ties in the census break toward the
    earlier entry).  A is orbit 0 (the diagonal); B, C, D name the
    off-diagonal orbit classes, which are orbits 1, 2, 3 in the
    canonical vertex numbering:

    * tetra: (A + 3B) x1, (A - B) x3 with B the edges; variance
      factors 10, 2.
    * octa: with B adjacent, C antipodal:
      (A+4B+C) x1, (A-2B+C) x2, (A-C) x3; factors 18, 6, 2.
    * cube: with B edges, C face diagonals, D body diagonals:
      (A+3B+3C+D) x1, (A-3B+3C-D) x1, (A-C+B-D) x3, (A-C-B+D) x3;
      factors 20, 20, 4, 4.

    The classes are identified from the orbit structure itself, so any
    relabeling of the sites decomposes identically, whatever numbers
    its orbits get.
    """
    structure = pair_orbits(group)
    diag = 0
    sizes = structure.orbit_sizes()
    off = range(1, structure.count)
    if group.kind == "tetra":
        (b,) = off
        return [
            IrrepBlockSpec("1dim", 1, {diag: 1.0, b: 3.0}),
            IrrepBlockSpec("3dim", 3, {diag: 1.0, b: -1.0}),
        ]
    if group.kind == "octa":
        anti = [k for k in off if sizes[k] == group.sites // 2]
        adj = [k for k in off if sizes[k] != group.sites // 2]
        if len(anti) != 1 or len(adj) != 1:
            raise InvalidInputError("unexpected octahedron orbit structure")
        b, c = adj[0], anti[0]
        return [
            IrrepBlockSpec("1dim", 1, {diag: 1.0, b: 4.0, c: 1.0}),
            IrrepBlockSpec("2dim", 2, {diag: 1.0, b: -2.0, c: 1.0}),
            IrrepBlockSpec("3dim", 3, {diag: 1.0, c: -1.0}),
        ]
    if group.kind == "cube":
        b, c, d = _classify_cube_offdiagonal(structure)
        return [
            IrrepBlockSpec("1dim+", 1, {diag: 1.0, b: 3.0, c: 3.0, d: 1.0}),
            IrrepBlockSpec("1dim-", 1, {diag: 1.0, b: -3.0, c: 3.0, d: -1.0}),
            IrrepBlockSpec("3dim+", 3, {diag: 1.0, b: 1.0, c: -1.0, d: -1.0}),
            IrrepBlockSpec("3dim-", 3, {diag: 1.0, b: -1.0, c: -1.0, d: 1.0}),
        ]
    raise InvalidInputError(
        f"no polyhedral decomposition for group {group.name!r}; "
        "use the cyclic Fourier path for cyclic groups"
    )


def _zeta(j: int, n: int) -> float:
    """Double-counting weight of distance j in the C_n Fourier sum."""
    return 1.0 if (n % 2 == 0 and j == n // 2) else 2.0


def _cos_angle(k: int, j: int, n: int) -> float:
    # canonical reduction of cos(2*pi*k*j/n) so that the k and n-k
    # blocks come out bitwise identical; quarter-period multiples are
    # snapped to their exact values
    r = (k * j) % n
    r = min(r, n - r)
    if r == 0:
        return 1.0
    if 2 * r == n:
        return -1.0
    if 4 * r == n:
        return 0.0
    return math.cos(2.0 * math.pi * r / n)


def decompose_cyclic(n: int) -> list[IrrepBlockSpec]:
    """Fourier block structure of a C_n invariant matrix.

    Block k (k = 0..floor(n/2)) combines the distance blocks F_0..F_d
    (keyed by the distance j, which is also the orbit number in the
    canonical site numbering) with weights
    ``zeta_{j,n} cos(2 pi k j / n)``; blocks with 0 < k < n/2 occur
    twice (the k and n-k Fourier modes coincide bitwise).

    The variance factor ``1 + sum_j zeta_{j,n}^2 cos^2(2 pi k j / n)``
    is largest at k = 0; for even n the k = n/2 block ties it exactly
    (every cosine is +-1 there), which is why the deepest ground states
    of an even cycle live in one of those two blocks.
    """
    if n < 2:
        raise InvalidInputError("cyclic group needs n >= 2")
    half = n // 2
    specs = []
    for k in range(half + 1):
        coeff = {0: 1.0}
        for j in range(1, half + 1):
            coeff[j] = _zeta(j, n) * _cos_angle(k, j, n)
        copies = 1 if k == 0 or (n % 2 == 0 and k == half) else 2
        specs.append(IrrepBlockSpec(f"k={k}", copies, coeff))
    return specs


def decompose(group: PointGroup) -> list[IrrepBlockSpec]:
    """Block specs for any supported group, keyed by its own orbit numbers."""
    if group.kind == "cyclic":
        structure = pair_orbits(group)
        # walk the generator to find which orbit holds each cyclic
        # distance (the identity for the canonical numbering, but correct
        # for any relabeling)
        gen = group.generators[0]
        site = 0
        orbit_of = []
        for _ in range(group.sites // 2 + 1):
            orbit_of.append(int(structure.label_index[0, site]))
            site = gen[site]
        return [
            IrrepBlockSpec(s.label, s.copies,
                           {orbit_of[j]: c for j, c in s.coefficients.items()})
            for s in decompose_cyclic(group.sites)
        ]
    return decompose_polyhedral(group)


def _block_eigenvalues(group: PointGroup, blocks: Sequence[np.ndarray]):
    """(spec, eigenvalues of its combination block) for every block of
    ``group``, in canonical order."""
    return [
        (spec, eigensolve(SymMatrix.symmetrized(spec.combination(blocks))).eigenvalues)
        for spec in decompose(group)
    ]


def block_spectra(group: PointGroup, blocks: Sequence[np.ndarray]) -> Spectrum:
    """Spectrum of the invariant matrix computed block by block.

    ``blocks[k]`` is the block of orbit k, one per orbit.  Concatenates
    the eigenvalues of every combination block, repeated by
    multiplicity, and sorts: equal (to 1e-8 and usually much better) to
    the dense spectrum of ``build_invariant(group, blocks)``.  Blocks
    are checked as `build_invariant` checks them.
    """
    blocks = _coerce_blocks(pair_orbits(group), blocks)
    values = [ev for spec, ev in _block_eigenvalues(group, blocks) for _ in range(spec.copies)]
    return Spectrum(np.sort(np.concatenate(values)))


def sample_invariant(group: PointGroup, cfg: EnsembleConfig, trial_index: int = 0):
    """Draw one invariant matrix; returns (matrix, blocks used).

    A non-finite entry (``cfg.sigma0`` too large) raises
    ``NumericFailureError``.
    """
    with np.errstate(over="ignore"):
        blocks = draw_label_blocks(pair_orbits(group).count, cfg.m, cfg.master_seed,
                                   trial_index, cfg.sigma0)
    if not np.isfinite(blocks).all():
        raise NumericFailureError("non-finite entry in the sampled matrix")
    return build_invariant(group, blocks), blocks


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
    config: EnsembleConfig

    def fraction(self, label: str) -> float:
        for row in self.rows:
            if row.label == label:
                return row.gs_fraction
        raise KeyError(label)


def _census_from_specs(
    specs: Sequence[IrrepBlockSpec],
    orbits: int,
    sites: int,
    cfg: EnsembleConfig,
    threads: int = 1,
) -> CensusResult:
    m = cfg.m

    def chunk_minima(trials):
        blocks = _label_block_rows(orbits, m, cfg.master_seed, trials, cfg.sigma0)
        minima = np.empty((trials.size, len(specs)))
        for i, spec in enumerate(specs):
            combo = spec.combination(blocks)
            if m == 1:
                minima[:, i] = combo[:, 0, 0]
                continue
            try:
                minima[:, i] = np.linalg.eigvalsh(combo)[:, 0]
            except np.linalg.LinAlgError as exc:
                raise NumericFailureError(f"eigensolve failed: {exc}") from exc
        return minima

    # a chunk holds one block per orbit, which outweighs the draw for m > 2
    row_elements = max(_row_uniforms(m * (m + 1) // 2), orbits * m * m)
    counts, ties = _chunked_tally(chunk_minima, cfg.trials, row_elements, threads)
    rows = tuple(
        CensusRow(spec.label, spec.copies, m, spec.variance_factor,
                  int(counts[i]), cfg.trials, sites)
        for i, spec in enumerate(specs)
    )
    return CensusResult(rows, cfg.trials, ties, cfg)


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
    structure = pair_orbits(group)
    specs = decompose(group)
    return _census_from_specs(specs, structure.count, group.sites, cfg, threads)

