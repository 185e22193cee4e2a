"""Finite rotation groups acting on sites, and invariant matrix assembly.

Supported groups: the cyclic family C_n acting on n sites around a
circle, and the proper rotation groups of the tetrahedron (4 vertices,
order 12), octahedron (6 vertices, order 24) and cube (8 vertices,
order 24).  Permutations are stored as image tuples: ``p[i]`` is where
site ``i`` goes.  A group carries the numbering of its site-pair
orbits, read off its elements once when it is built: the diagonal
orbit is 0, the others follow ascending by each orbit's smallest pair.
`build_invariant` assembles a matrix from one block per orbit, and
`_orbit_blocks`, its inverse, reads them back for ``spectrum``.

Vertex numbering conventions (any consistent relabeling gives the same
physics; see the relabeling tests):

* cyclic(n): sites 0..n-1 around the circle, generator i -> i+1 mod n.
* tetrahedron: vertices 0..3, generated by the 3-cycles (0 1 2), (1 2 3).
* octahedron: 0..3 the equatorial square in order, 4/5 the poles, so
  the antipodal pairs are (0,2), (1,3), (4,5).
* cube: 0-1-2-3 the bottom face in order, 4-5-6-7 the top face with 4
  above 0, so the body diagonals are (0,6), (1,7), (2,4), (3,5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, _check_index
from .linalg import SymMatrix

__all__ = [
    "PointGroup",
    "build_group",
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


# the largest group order built; a ring, or any action, on more sites
# than this is rejected before any permutation is stored (a transitive
# action cannot close under the cap on more sites than the cap)
_MAX_ORDER = 10000


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
        if len(elements) > _MAX_ORDER:
            raise InvalidInputError("group closure exceeds supported size")
    return tuple(sorted(elements))


def _pair_orbit_index(n: int, elements) -> np.ndarray:
    """Read-only n x n array of the orbit number of each site pair.

    The action must be transitive, or InvalidInputError, checked before
    the index is allocated.  Then every orbit holds a pair (0, j), and
    scanning j upward meets each orbit first at its smallest pair: one
    pass numbers the diagonal 0 and the others ascending by that pair.
    """
    reached = len({g[0] for g in elements})
    if reached != n:
        raise InvalidInputError(
            f"site action is not transitive: site 0 reaches {reached} of {n} sites")
    e = np.array(elements)
    index = np.full((n, n), -1, dtype=np.int64)
    count = 0
    for j in range(n):
        if index[0, j] < 0:
            index[e[:, 0], e[:, j]] = count
            index[e[:, j], e[:, 0]] = count
            count += 1
    index.flags.writeable = False
    return index


@dataclass(frozen=True)
class PointGroup:
    """A finite permutation group acting on ``sites`` points.

    ``orbit_index[i, j]`` is the number of the orbit of the unordered
    site pair (i, j): the diagonal orbit is 0, the others follow
    ascending by each orbit's lexicographically smallest pair.  It is
    read off the elements, so it is read-only and left out of equality
    and hashing.
    """

    kind: str
    sites: int
    generators: tuple[Perm, ...]
    elements: tuple[Perm, ...]
    orbit_index: np.ndarray = field(compare=False, repr=False)

    @property
    def name(self) -> str:
        return f"cyclic({self.sites})" if self.kind == "cyclic" else self.kind

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def orbit_count(self) -> int:
        return int(self.orbit_index.max()) + 1

    def orbit_sizes(self) -> list[int]:
        """Number of pairs in each orbit, indexed by orbit."""
        upper = self.orbit_index[np.triu_indices(self.sites)]
        return np.bincount(upper, minlength=self.orbit_count).tolist()

    @classmethod
    def from_generators(cls, kind: str, sites: int, generators) -> "PointGroup":
        """Close the generators; rejects a site action that is not transitive."""
        sites = _check_index("sites", sites, 1, _MAX_ORDER)
        gens = tuple(tuple(_check_index("site label", i) for i in g) for g in generators)
        for g in gens:
            if sorted(g) != list(range(sites)):
                raise InvalidInputError(f"{g} is not a permutation of {sites} sites")
        elements = _closure(gens, sites)
        return cls(kind, sites, gens, elements, _pair_orbit_index(sites, elements))


def build_group(kind: str, n: int | None = None) -> PointGroup:
    """Construct a supported group by name.

    ``kind`` is "cyclic" (with ``n`` >= 2 sites) or one of "tetra",
    "octa", "cube".
    """
    if not isinstance(kind, str):
        raise InvalidInputError(f"unknown group kind {kind!r}")
    kind = kind.lower()
    if kind == "cyclic":
        n = _check_index("cyclic group n", n, 2, _MAX_ORDER)
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


def _coerce_blocks(group: PointGroup, blocks) -> list[np.ndarray]:
    """One exactly symmetric m x m float block per orbit (a scalar is
    1 x 1), checked by `SymMatrix`, or InvalidInputError."""
    if len(blocks) != group.orbit_count:
        raise InvalidInputError(
            f"got {len(blocks)} blocks for {group.orbit_count} pair orbits"
        )
    coerced = [SymMatrix(value).values for value in blocks]
    for block in coerced:
        if block.shape != coerced[0].shape:
            raise InvalidInputError(
                f"inconsistent block size {block.shape[0]}, expected {coerced[0].shape[0]}"
            )
    return coerced


def _orbit_rows(group: PointGroup, stacked: np.ndarray):
    """Each site's (m, n, m) row of blocks of the invariant matrix of ``stacked``."""
    return (stacked[orbits].transpose(1, 0, 2) for orbits in group.orbit_index)


def build_invariant(group: PointGroup, blocks: Sequence) -> SymMatrix:
    """Assemble the group-invariant matrix of symmetric per-orbit blocks.

    ``blocks[k]`` is the symmetric m x m block (or a scalar, taken as
    1 x 1) of orbit k, one per orbit; each is checked as `SymMatrix`
    checks a matrix, so a non-finite or asymmetric block raises
    ``InvalidInputError``.  Block (i, j) of the result is the
    block of the orbit of (i, j), so the matrix commutes with every
    group element lifted as permutation (x) identity.  Each site's row of
    blocks is gathered through ``orbit_index`` into the one dense array,
    which the result keeps uncopied.  For a ring with m > 1 this is the
    dihedral ensemble: the general C_n-invariant matrix also has blocks
    F(d) that are not symmetric, with F(-d) = F(d)^T.
    """
    stacked = np.stack(_coerce_blocks(group, blocks))
    n, m = group.sites, stacked.shape[1]
    h = np.empty((n, m, n, m))
    rows = _orbit_rows(group, stacked)
    for i in range(n):
        h[i] = next(rows)  # held by no name, so freed before the symmetry check
    return SymMatrix._adopting(h.reshape(n * m, n * m), finite=True)  # finite blocks


def _orbit_blocks(h: SymMatrix, group: PointGroup, m: int) -> list[np.ndarray]:
    """The inverse of `build_invariant`: each orbit's m x m block of ``h``,
    read at its smallest pair (0, j), met first along row 0, and
    symmetrized.  ``h`` is compared with their matrix one site's row of
    blocks at a time; a gap above 1e-10 max|H| raises InvalidInputError."""
    first = {k: j for j, k in reversed(list(enumerate(group.orbit_index[0].tolist())))}
    blocks = [SymMatrix.symmetrized(h.values[:m, j * m:(j + 1) * m]).values
              for j in map(first.get, range(len(first)))]
    with np.errstate(over="ignore"):
        gap = max(np.max(np.abs(h.values[i * m:i * m + m].reshape(row.shape) - row))
                  for i, row in enumerate(_orbit_rows(group, np.stack(blocks))))
    if not gap <= 1e-10 * h.max_abs():
        raise InvalidInputError(f"matrix is not {group.name}-invariant with symmetric "
                                f"orbit blocks: off by {gap:.12g}")
    return blocks


def check_invariance(h, group: PointGroup, m: int) -> float:
    """Largest violation of ``H = (P (x) I) H (P (x) I)^T`` over the generators,
    for H of size ``group.sites * m``, m x m blocks per site pair.

    Zero, exactly, when H commutes with every group element, as matrices
    assembled by `build_invariant` do.  A `SymMatrix` is finite, so only
    an array ``h`` can read NaN, when a non-finite entry makes a
    difference NaN.  Compared one site's row of blocks at a time.
    """
    h = h.values if isinstance(h, SymMatrix) else np.asarray(h, dtype=np.float64)
    dim, n, m = h.shape[0], group.sites, _check_index("m", m, 1)
    if dim != n * m:
        raise InvalidInputError(f"matrix dim {dim} does not equal sites*m = {n * m}")
    blocks = h.reshape(n, m, n, m)
    worst = 0.0
    with np.errstate(invalid="ignore"):  # inf - inf is the documented NaN
        for g in group.generators:
            # block (i, j) of the permuted matrix is block (g^-1 i, g^-1 j)
            inverse = np.argsort(np.asarray(g))
            for i, source in enumerate(inverse):
                worst = np.maximum(worst, np.max(np.abs(blocks[i] - blocks[source][:, inverse])))
    return float(worst)
