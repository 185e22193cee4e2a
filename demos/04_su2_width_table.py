"""Continuous rotations: the universal per-J width factors.

A real rotation-invariant kernel depends only on the angle between its
arguments, so its angular-momentum-J block is a Legendre projection.
For a random kernel the J-block element variance is proportional to
the integral of P_J(cos w)^2 sin^2 w over [0, pi]: a universal factor
that falls steadily with J.  Low J means wide blocks.

The library computes each factor exactly, as pi times a rational.  The
demo integrates it numerically too, on Gauss-Legendre rules mapped to
the angle range: each "diff" is a 512-node rule's distance from the
exact value.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from irreplab import effective_width, width_table


def legendre(j, x):
    """P_j at the entries of ``x`` by the three-term recurrence."""
    prev, cur = np.ones_like(x), x
    if j == 0:
        return prev
    for k in range(1, j):
        prev, cur = cur, ((2 * k + 1) * x * cur - k * prev) / (k + 1)
    return cur


def quadrature(j, nodes):
    """The width integral of degree j on a ``nodes``-point rule."""
    x, w = leggauss(nodes)
    theta = 0.5 * math.pi * (x + 1.0)
    weights = 0.5 * math.pi * w
    p = legendre(j, np.cos(theta))
    s = np.sin(theta)
    return float(np.sum(weights * p * p * s * s))


exact_names = {0: "pi/2", 1: "pi/8", 2: "5 pi/64", 3: "29 pi/512", 4: "727 pi/16384"}

print("width factor w_J = integral P_J(cos w)^2 sin^2 w dw  (J = 0..10):")
for two_j, val in width_table(10):
    j = two_j // 2
    note = ""
    if j in exact_names:
        diff = abs(quadrature(j, 512) - val)
        note = f"   exact {exact_names[j]} = {val:.10f} (diff {diff:.1e})"
    print(f"   J={j:2d}: {val:.6f}{note}")

print("\nquadrature is effectively converged by 64 nodes:")
for nodes in (64, 128, 512, 1024):
    print(f"   {nodes:5d} nodes: w_7 = {quadrature(7, nodes):.15f}")

print("\nin a finite space the J subspace holds N_J states; its spectral")
print("width scales as sqrt(N_J) * sqrt(w_J).  Dimensions fight widths:")
for two_j, n_j in [(0, 40), (4, 137), (8, 103), (16, 8)]:
    eff = effective_width(two_j, n_j)
    print(f"   J={two_j // 2:2d}, N_J={n_j:4d}: effective width {eff:.3f}")
