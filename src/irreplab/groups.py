"""Finite rotation groups acting on sites, and invariant matrix assembly.

Supported groups: the cyclic family C_n acting on n sites around a
circle, and the proper rotation groups of the tetrahedron (4 vertices,
order 12), octahedron (6 vertices, order 24) and cube (8 vertices,
order 24).  Permutations are stored as image tuples: ``p[i]`` is where
site ``i`` goes.

Vertex numbering conventions (any consistent relabeling gives the same
physics; see `relabel` and the relabeling tests):

* cyclic(n): sites 0..n-1 around the circle, generator i -> i+1 mod n.
* tetrahedron: vertices 0..3, generated by the 3-cycles (0 1 2), (1 2 3).
* octahedron: 0..3 the equatorial square in order, 4/5 the poles, so
  the antipodal pairs are (0,2), (1,3), (4,5).
* cube: 0-1-2-3 the bottom face in order, 4-5-6-7 the top face with 4
  above 0, so the body diagonals are (0,6), (1,7), (2,4), (3,5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError
from .linalg import SymMatrix

__all__ = [
    "PointGroup",
    "build_group",
    "relabel",
    "PairOrbitStructure",
    "pair_orbits",
    "build_invariant",
    "check_invariance",
]

Perm = tuple[int, ...]

_POLYHEDRA = {
    "tetra": (4, 12, ((1, 2, 0, 3), (0, 2, 3, 1))),
    "octa": (6, 24, ((1, 2, 3, 0, 4, 5), (1, 4, 3, 5, 0, 2))),
    "cube": (8, 24, ((1, 2, 3, 0, 5, 6, 7, 4), (0, 3, 7, 4, 1, 2, 6, 5))),
}


def _compose(outer: Perm, inner: Perm) -> Perm:
    """Permutation applying ``inner`` first, then ``outer``."""
    return tuple(outer[inner[i]] for i in range(len(inner)))


def _closure(generators, sites: int) -> tuple[Perm, ...]:
    identity = tuple(range(sites))
    elements = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for e in frontier:
            for g in generators:
                p = _compose(g, e)
                if p not in elements:
                    elements.add(p)
                    new.append(p)
        frontier = new
        if len(elements) > 10000:
            raise InvalidInputError("group closure exceeds supported size")
    return tuple(sorted(elements))


@dataclass(frozen=True)
class PointGroup:
    """A finite permutation group acting on ``sites`` points."""

    kind: str
    sites: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]

    @property
    def name(self) -> str:
        return f"cyclic({self.sites})" if self.kind == "cyclic" else self.kind

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def from_generators(cls, kind: str, sites: int, generators) -> "PointGroup":
        gens = tuple(tuple(g) for g in generators)
        for g in gens:
            if sorted(g) != list(range(sites)):
                raise InvalidInputError(f"{g} is not a permutation of {sites} sites")
        return cls(kind, sites, gens, _closure(gens, sites))


def build_group(kind: str, n: int | None = None) -> PointGroup:
    """Construct a supported group by name.

    ``kind`` is "cyclic" (with ``n`` >= 2 sites) or one of "tetra",
    "octa", "cube".
    """
    kind = kind.lower()
    if kind == "cyclic":
        if n is None or n < 2:
            raise InvalidInputError("cyclic group needs n >= 2")
        gen = tuple((i + 1) % n for i in range(n))
        group = PointGroup.from_generators("cyclic", n, (gen,))
        expected = n
    elif kind in _POLYHEDRA:
        sites, expected, gens = _POLYHEDRA[kind]
        if n is not None and n != sites:
            raise InvalidInputError(f"{kind} acts on {sites} sites, not {n}")
        group = PointGroup.from_generators(kind, sites, gens)
    else:
        raise InvalidInputError(f"unknown group kind {kind!r}")
    if group.order != expected:
        raise InvalidInputError(
            f"{kind}: closure produced order {group.order}, expected {expected}"
        )
    return group


def relabel(group: PointGroup, perm) -> PointGroup:
    """The same group acting through relabeled sites.

    ``perm[i]`` is the new name of old site ``i``; generators are
    conjugated accordingly.
    """
    perm = tuple(perm)
    if sorted(perm) != list(range(group.sites)):
        raise InvalidInputError("relabeling must be a permutation of the sites")
    inverse = tuple(np.argsort(perm))
    gens = [
        tuple(perm[g[inverse[i]]] for i in range(group.sites))
        for g in group.generators
    ]
    return PointGroup.from_generators(group.kind, group.sites, gens)


@dataclass(frozen=True)
class PairOrbitStructure:
    """Orbits of unordered site pairs under the group action.

    The ``count`` orbits are numbered in canonical order: the diagonal
    orbit is 0, the others follow ascending by each orbit's
    lexicographically smallest pair.  ``label_index[i, j]`` is the
    number of the orbit of pair (i, j).
    """

    label_index: np.ndarray
    count: int

    @property
    def sites(self) -> int:
        return self.label_index.shape[0]

    def pairs_of(self, orbit: int) -> list[tuple[int, int]]:
        ii, jj = np.nonzero(np.triu(self.label_index == orbit))
        return [(int(i), int(j)) for i, j in zip(ii, jj)]

    def orbit_sizes(self) -> list[int]:
        """Number of pairs in each orbit, indexed by orbit."""
        upper = self.label_index[np.triu_indices(self.sites)]
        return np.bincount(upper, minlength=self.count).tolist()


def pair_orbits(group: PointGroup) -> PairOrbitStructure:
    """Number the pair orbits of a group's site action."""
    n = group.sites
    index = -np.ones((n, n), dtype=np.int64)
    orbits = []
    for i in range(n):
        for j in range(i, n):
            if index[i, j] >= 0:
                continue
            orbit = set()
            stack = [(i, j)]
            while stack:
                a, b = stack.pop()
                key = (min(a, b), max(a, b))
                if key in orbit:
                    continue
                orbit.add(key)
                for g in group.generators:
                    stack.append((g[a], g[b]))
            k = len(orbits)
            for a, b in orbit:
                index[a, b] = k
                index[b, a] = k
            orbits.append(min(orbit))
    diagonal_orbits = {index[i, i] for i in range(n)}
    if len(diagonal_orbits) != 1:
        raise InvalidInputError(
            "site action is not transitive: diagonal pairs split into "
            f"{len(diagonal_orbits)} orbits"
        )
    order = sorted(range(len(orbits)), key=lambda k: (orbits[k][0] != orbits[k][1], orbits[k]))
    remap = np.empty(len(orbits), dtype=np.int64)
    remap[order] = np.arange(len(orbits))
    index = remap[index]
    index.flags.writeable = False
    return PairOrbitStructure(index, len(orbits))


def _coerce_block(value, m: int | None):
    block = np.asarray(value, dtype=np.float64)
    if block.ndim == 0:
        block = block.reshape(1, 1)
    if block.ndim != 2 or block.shape[0] != block.shape[1]:
        raise InvalidInputError("blocks must be square matrices or scalars")
    if m is not None and block.shape[0] != m:
        raise InvalidInputError(
            f"inconsistent block size {block.shape[0]}, expected {m}"
        )
    if not np.array_equal(block, block.T):
        raise InvalidInputError("blocks must be exactly symmetric")
    return block


def _coerce_blocks(structure: PairOrbitStructure, blocks) -> list[np.ndarray]:
    """One exactly symmetric m x m float block per orbit, or InvalidInputError."""
    if len(blocks) != structure.count:
        raise InvalidInputError(
            f"got {len(blocks)} blocks for {structure.count} pair orbits"
        )
    coerced = []
    m = None
    for value in blocks:
        coerced.append(_coerce_block(value, m))
        m = coerced[-1].shape[0]
    return coerced


def build_invariant(group: PointGroup, blocks: Sequence) -> SymMatrix:
    """Assemble the general group-invariant matrix from per-orbit blocks.

    ``blocks[k]`` is the symmetric m x m block (or a scalar, taken as
    1 x 1) of orbit k, one per orbit.  Block (i, j) of the result is the
    block of the orbit of (i, j), so the matrix commutes with every
    group element lifted as permutation (x) identity.
    """
    structure = pair_orbits(group)
    coerced = _coerce_blocks(structure, blocks)
    m = coerced[0].shape[0]
    n = group.sites
    h = np.empty((n * m, n * m), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            h[i * m:(i + 1) * m, j * m:(j + 1) * m] = coerced[structure.label_index[i, j]]
    return SymMatrix(h)


def _permuted_blockwise(h: np.ndarray, g: Perm, m: int) -> np.ndarray:
    """(P_g (x) I_m) H (P_g (x) I_m)^T without forming the big permutation."""
    n = len(g)
    inverse = np.argsort(np.asarray(g))
    blocks = h.reshape(n, m, n, m)
    return blocks[inverse][:, :, inverse].reshape(n * m, n * m)


def check_invariance(h, group: PointGroup, m: int | None = None, full: bool = False) -> float:
    """Largest violation of ``H = (P (x) I) H (P (x) I)^T``.

    Scans the group generators by default; ``full=True`` scans every
    element.  Zero (exactly) for matrices assembled by `build_invariant`,
    and NaN when a non-finite entry makes a difference NaN.
    """
    h = h.values if isinstance(h, SymMatrix) else np.asarray(h, dtype=np.float64)
    dim = h.shape[0]
    if m is None:
        if dim % group.sites != 0:
            raise InvalidInputError(
                f"matrix dim {dim} is not a multiple of {group.sites} sites"
            )
        m = dim // group.sites
    elif dim != group.sites * m:
        raise InvalidInputError(
            f"matrix dim {dim} does not equal sites*m = {group.sites * m}"
        )
    perms = group.elements if full else group.generators
    worst = 0.0
    for g in perms:
        worst = np.maximum(worst, np.max(np.abs(h - _permuted_blockwise(h, g, m))))
    return float(worst)
