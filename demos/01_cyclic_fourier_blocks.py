"""Cyclic symmetry: a random invariant matrix solved by Fourier blocks.

A matrix invariant under the discrete rotation i -> i+1 (mod n) is
(block) circulant: entry (i, j) depends only on the cyclic distance
between i and j.  Its spectrum therefore splits into small Fourier
blocks h_k, computable directly from the distance blocks, and each h_k
has a predictable statistical width.
"""

from irreplab import (
    block_spectra,
    build_group,
    build_invariant,
    decompose,
    draw_label_blocks,
    eigensolve,
    multiset_deviation,
)

n, m = 6, 2
group = build_group("cyclic", n)

print(f"C_{n} acting on {n} sites; {group.orbit_count} pair orbits, numbered by cyclic distance")
print("distance pattern of the invariant matrix (orbit of each site pair):")
for i in range(n):
    print("   ", " ".join(str(k) for k in group.orbit_index[i]))

# one random symmetric block per distance, then the big invariant matrix
fs = draw_label_blocks(n // 2 + 1, m, 2024, 0)
h = build_invariant(group, fs)
print(f"\nassembled {h.dim}x{h.dim} invariant matrix from "
      f"{len(fs)} distance blocks of size {m}x{m}")

# Fourier blocks: h_k = F_0 + sum_j zeta_j cos(2 pi k j / n) F_j, for
# k = 0..n/2; the modes k and n-k give the same block, counted twice
union = block_spectra(group, fs)
dense = eigensolve(h)
print(f"union of the Fourier-block spectra vs dense spectrum: "
      f"max deviation {multiset_deviation(dense, union):.2e}")

print("\npredicted element variance of each block (units of sigma0^2):")
for spec in decompose(group):
    print(f"   {spec.label}: factor {spec.variance_factor:5.2f}   "
          f"(x{spec.copies} in the spectrum)")
print("\nk=0 is always the widest block; for even n the alternating-sign")
print("block k=n/2 ties it exactly, so the lowest eigenvalue of a random")
print("sample almost always lives in one of those two blocks.")
