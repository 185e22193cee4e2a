"""Rotationally invariant continuum model: per-J widths and ground-state J.

A real rotation-invariant kernel on the sphere depends only on the
relative angle between its two arguments, so its angular-momentum
blocks are Legendre projections of the kernel.  When the kernel is a
random matrix-valued function with elementwise variance sigma-bar^2,
the elements of the J block have variance proportional to

    w_J = integral_0^pi  P_J(cos w)^2 sin^2 w  dw,

a universal, J-decreasing factor (the 4 pi^2 sigma-bar^2 prefactor is
left off throughout, matching how the table of w_J values is usually
quoted: 1.571, 0.393, 0.245, 0.178, 0.139 for J = 0..4).  Each w_J is
pi times a rational with a closed form (`sigma_j_sq`), so it is
computed exactly, for J up to 1020.

In a finite many-body space where N_J states (at most 2^32) carry
angular momentum J, the J subspace is modeled as N_J independent
Gaussian energies of standard deviation sqrt(N_J) * sigma * sqrt(w_J).
Tallying which J produces the global minimum over many trials gives
the predicted ground-state distribution f_RM, to be compared against
the share of the space itself, f_space = N_J / N_tot.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import InvalidInputError, _check_index, _check_scale
from .rng import (_MAX_NORMALS, EnsembleConfig, _chunked_tally, _grid_elements, _normals_rows,
                  _tally)
from .rng import substream  # noqa: F401  (kept importable here; perfbench's tracer test looks it up)

__all__ = [
    "sigma_j_sq",
    "effective_width",
    "DimensionTable",
    "width_table",
    "GsDistribution",
    "f_space",
    "gs_distribution",
    "example_dimension_table",
]

# the exact sum for one J costs O(J) products of O(J)-bit integers
_MAX_J = 1020


def sigma_j_sq(j: int) -> float:
    """The universal width factor ``integral_0^pi P_j(cos w)^2 sin^2 w dw``.

    Quoted without the 4 pi^2 sigma-bar^2 prefactor.  It is pi times a
    rational (Szego, Orthogonal Polynomials, 4.9): with
    P_j(cos w) = 4^-j sum_k b_k cos((j - 2k) w), b_k = C(2k, k) C(2j - 2k, j - k),
    and sin^2 w = (1 - cos 2w) / 2, only cosine products of equal or
    neighbouring frequencies survive the integral, and b_k = b_(j-k), so

        w_j = pi * (sum_k b_k^2 - sum_k b_k b_(k+1)) / (2 * 16^j).

    The rational is summed in integers, rounded once to a float and
    multiplied by ``math.pi``: pi/2, pi/8, 5 pi/64, 29 pi/512 and
    727 pi/16384 for j = 0..4.  J must lie in [0, 1020].
    """
    j = _check_index("J", j, 0, _MAX_J)
    central = [1]  # C(2k, k)
    for k in range(j):
        central.append(central[-1] * (4 * k + 2) // (k + 1))
    b = [central[k] * central[j - k] for k in range(j + 1)]
    numerator = sum(x * x for x in b) - sum(x * y for x, y in zip(b, b[1:]))
    return math.pi * (numerator / (2 * 16**j))


def effective_width(
    two_j: int,
    n_j: int,
    sigma_scale: float = 1.0,
    width_factor: float | None = None,
) -> float:
    """Spectral width ``sqrt(N_J) * sigma * sqrt(w_J)`` of the J subspace.

    ``width_factor`` overrides the computed ``w_J`` (needed for odd
    ``two_j``, where the Legendre-polynomial integral does not apply)
    and must be positive and finite.
    """
    two_j = _check_index("two_j", two_j)
    n_j = _check_index("subspace dimension", n_j, 1)
    _check_scale("sigma_scale", sigma_scale)
    if width_factor is None:
        if two_j % 2 != 0:
            raise InvalidInputError(
                f"two_j={two_j} is half-integer; pass its width factor explicitly"
            )
        width_factor = sigma_j_sq(two_j // 2)
    else:
        _check_scale(f"width factor for two_j={two_j}", width_factor)
    return math.sqrt(n_j) * sigma_scale * math.sqrt(width_factor)


@dataclass(frozen=True)
class DimensionTable:
    """Map from angular momentum (stored as 2J) to subspace dimension."""

    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.entries:
            raise InvalidInputError("dimension table must not be empty")
        seen = set()
        norm = []
        for two_j, dim in self.entries:
            two_j = _check_index("two_j", two_j, 0)
            dim = _check_index("dim", dim, 1, _MAX_NORMALS)
            if two_j in seen:
                raise InvalidInputError(f"duplicate two_j value {two_j}")
            seen.add(two_j)
            norm.append((two_j, dim))
        norm.sort()
        object.__setattr__(self, "entries", tuple(norm))

    @property
    def n_tot(self) -> int:
        return sum(dim for _, dim in self.entries)

    @classmethod
    def from_csv(cls, path) -> "DimensionTable":
        entries = []
        with open(path, "r", encoding="ascii", errors="replace") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                parts = [p.strip() for p in line.split(",")]
                if parts == ["twoJ", "dim"]:
                    continue
                if len(parts) != 2:
                    raise InvalidInputError(f"{path}:{lineno}: expected twoJ,dim")
                if not all(re.fullmatch(r"-?[0-9]+", p) for p in parts):
                    raise InvalidInputError(f"{path}:{lineno}: twoJ and dim must be integers")
                entries.append((int(parts[0]), int(parts[1])))
        if not entries:
            raise InvalidInputError(f"{path}: no dimension rows found")
        return cls(tuple(entries))


def example_dimension_table() -> DimensionTable:
    """The bundled illustrative table (shaped like a mid-size shell-model
    space: dimensions rise to J ~ 2 and then fall off, with J = 0 a small
    fraction of the total)."""
    ref = resources.files("irreplab").joinpath("data/example_dims.csv")
    with resources.as_file(ref) as path:
        return DimensionTable.from_csv(path)


def width_table(j_max: int):
    """``(2J, w_J)`` pairs for integer J = 0..j_max, as a tuple.

    ``dict()`` of them is a valid ``widths`` argument of `gs_distribution`.
    """
    j_max = _check_index("j_max", j_max, 0, _MAX_J)
    return tuple((2 * j, sigma_j_sq(j)) for j in range(j_max + 1))


def f_space(dims: DimensionTable) -> list[tuple[int, float]]:
    """Native share of the space per J: N_J / N_tot."""
    total = dims.n_tot
    return [(two_j, dim / total) for two_j, dim in dims.entries]


@dataclass(frozen=True)
class GsDistribution:
    """Monte Carlo ground-state-J distribution.

    ``counts`` holds one (two_j, ground-state count) pair per table
    entry; counts sum to ``trials`` exactly.
    """

    counts: tuple[tuple[int, int], ...]
    trials: int
    tie_count: int

    @property
    def entries(self) -> tuple[tuple[int, float], ...]:
        return tuple((two_j, c / self.trials) for two_j, c in self.counts)

    def fraction(self, two_j: int) -> float:
        for tj, c in self.counts:
            if tj == two_j:
                return c / self.trials
        raise KeyError(two_j)

    def modal_two_j(self) -> int:
        best = max(self.counts, key=lambda e: (e[1], -e[0]))
        return best[0]


def gs_distribution(
    dims: DimensionTable,
    cfg: EnsembleConfig,
    widths=None,
    threads: int = 1,
) -> GsDistribution:
    """Distribution of the ground-state angular momentum over an ensemble.

    Per trial, each table entry (two_j, N_J) contributes N_J
    independent normal(0, eff_J^2) energies with
    ``eff_J = sqrt(N_J) * cfg.sigma0 * sqrt(w_J)``; the trial's ground
    state is the entry owning the smallest energy drawn.  Entry i of
    the (2J-ascending) table uses stream tag i, so the result is a pure
    function of ``cfg``.  Rescaling ``cfg.sigma0`` rescales every
    energy alike and cannot change any trial's winner, unless it
    overflows, in which case ``NumericFailureError`` is raised.

    ``widths`` optionally overrides the computed width factors w_J,
    as a mapping two_j -> factor or as ``(two_j, factor)`` pairs such as
    `width_table` output; required for half-integer J entries.  Each
    width comes from `effective_width`, which rejects factors that are
    not positive and finite.
    """
    factors = dict(widths or ())
    eff = np.array(
        [effective_width(two_j, dim, cfg.sigma0, factors.get(two_j))
         for two_j, dim in dims.entries]
    )
    entry_dims = [dim for _, dim in dims.entries]

    def chunk_tally(trials):
        minima = np.empty((trials.size, len(entry_dims)))
        for tag, dim in enumerate(entry_dims):
            minima[:, tag] = eff[tag] * np.min(
                _normals_rows(cfg.master_seed, trials, tag, dim), axis=1)
        return _tally(minima)

    counts, ties = _chunked_tally(
        chunk_tally, cfg.trials, _grid_elements(max(entry_dims)), threads)
    return GsDistribution(
        tuple((two_j, int(counts[i])) for i, (two_j, _) in enumerate(dims.entries)),
        cfg.trials,
        ties,
    )

