"""Polyhedral rotation groups: orbit structure and irrep combination blocks.

For the rotation groups of the tetrahedron, octahedron and cube, the
invariant matrix carries one independent random block per orbit of
vertex pairs (diagonal, edges, face diagonals, ...).  The matrix
block-diagonalizes into a handful of signed combinations of those
blocks, and the sum of squared combination coefficients predicts each
irrep block's element variance.

No table is typed in: the 0/1 adjacency matrices of the pair orbits
commute (no irrep repeats), and their shared integer eigenvalues are the
combination coefficients, one copy per eigenvector.
"""

import math

from irreplab import (
    block_spectra,
    build_group,
    build_invariant,
    check_invariance,
    decompose,
    draw_label_blocks,
    eigensolve,
    multiset_deviation,
)

for kind in ("tetra", "octa", "cube"):
    group = build_group(kind)
    print(f"== {group.name}: order {group.order}, {group.sites} vertices")
    print(f"   pair-orbit sizes, by orbit number: {group.orbit_sizes()}")

    print("   irrep blocks (combination of orbit blocks F_k, multiplicity, variance factor):")
    for spec in decompose(group):
        # NaN marks an orbit the block does not combine
        combo = " ".join(
            f"{c:+g}F{k}" for k, c in enumerate(spec.coefficients) if not math.isnan(c))
        print(f"     {spec.label:6s} {combo:24s} x{spec.copies}   "
              f"{spec.variance_factor:g} sigma0^2")

    # verify on a random draw: block union reproduces the dense spectrum
    blocks = draw_label_blocks(group.orbit_count, 3, 99, 0)
    h = build_invariant(group, blocks)
    dev = multiset_deviation(eigensolve(h), block_spectra(group, blocks))
    print(f"   random m=3 sample: invariance violation "
          f"{check_invariance(h, group, 3):g}, block-vs-dense deviation {dev:.2e}")
    print()

print("The scalar sanity check: with diagonal 0 and nearest-neighbor 1 the")
print("tetrahedron matrix is the complete-graph adjacency, whose spectrum")
print("{3, -1, -1, -1} is exactly the 1-dim block 0+3*1 and the 3-dim block 0-1.")
g = build_group("tetra")
print("eigenvalues:", eigensolve(build_invariant(g, [0.0, 1.0])))
