"""A one-draw-at-a-time reference for README.md's reproducibility contract.

Written from the contract's text alone, in plain Python integers with
its own copies of the constants.  It imports nothing from
``irreplab.rng``, so a slip in the library's constants, stream
derivation or batched polar kernel shows up as a mismatch here instead
of being shared by the code and its check.
"""

import math

import numpy as np

MASK = 2**64 - 1


def mix64(z):
    """The SplitMix64 finalizer of a 64-bit word."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


class Stream:
    """The stream for (trial, tag) under ``seed``; each of the three is
    taken mod 2**64."""

    def __init__(self, seed, trial, tag):
        state = mix64(seed & MASK)
        state = mix64(state ^ ((trial + 0xD1B54A32D192ED03) & MASK))
        self.state = mix64(state ^ ((tag + 0x8BB84B93962EACC9) & MASK))
        self.pending = None

    def next_uint64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        return mix64(self.state)

    def uniform(self):
        """The top 53 bits of the next word, on [0, 1)."""
        return (self.next_uint64() >> 11) * 2.0**-53

    def normal(self):
        """Marsaglia's polar method; the pair's second deviate waits in a
        one-slot queue."""
        if self.pending is not None:
            x, self.pending = self.pending, None
            return x
        while True:
            v1 = 2.0 * self.uniform() - 1.0
            v2 = 2.0 * self.uniform() - 1.0
            s = v1 * v1 + v2 * v2
            if 0.0 < s < 1.0:
                # the contract's ln is numpy's, which can differ from
                # math.log in the last bit
                f = math.sqrt(-2.0 * float(np.log(s)) / s)
                self.pending = v2 * f
                return v1 * f

    def normals(self, count):
        return np.array([self.normal() for _ in range(count)])


def sym_block(stream, m, sigma0=1.0):
    """An m x m block whose entries on and above the diagonal, row-major,
    are ``sigma0`` times the stream's next normals (-0.0 made +0.0), and
    whose lower triangle mirrors them."""
    block = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            block[i, j] = block[j, i] = sigma0 * stream.normal() + 0.0
    return block
