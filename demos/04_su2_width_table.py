"""Continuous rotations: the universal per-J width factors.

A real rotation-invariant kernel depends only on the angle between its
arguments, so its angular-momentum-J block is a Legendre projection.
For a random kernel the J-block element variance is proportional to
the integral of P_J(cos w)^2 sin^2 w over [0, pi]: a universal factor
that falls steadily with J.  Low J means wide blocks.
"""

import math

from irreplab import effective_width, sigma_j_sq, width_table

exact = {
    0: ("pi/2", math.pi / 2),
    1: ("pi/8", math.pi / 8),
    2: ("5 pi/64", 5 * math.pi / 64),
    3: ("29 pi/512", 29 * math.pi / 512),
    4: ("727 pi/16384", 727 * math.pi / 16384),
}

print("width factor w_J = integral P_J(cos w)^2 sin^2 w dw  (J = 0..10):")
table = width_table(10)
for two_j, val in table:
    j = two_j // 2
    note = ""
    if j in exact:
        name, v = exact[j]
        note = f"   exact {name} = {v:.10f} (diff {abs(val - v):.1e})"
    print(f"   J={j:2d}: {val:.6f}{note}")

print("\nquadrature is effectively converged by 64 nodes:")
for quad_points in (64, 128, 512, 1024):
    print(f"   {quad_points:5d} nodes: w_7 = {sigma_j_sq(7, quad_points):.15f}")

print("\nin a finite space the J subspace holds N_J states; its spectral")
print("width scales as sqrt(N_J) * sqrt(w_J).  Dimensions fight widths:")
for two_j, n_j in [(0, 40), (4, 137), (8, 103), (16, 8)]:
    eff = effective_width(two_j, n_j)
    print(f"   J={two_j // 2:2d}, N_J={n_j:4d}: effective width {eff:.3f}")
