"""The one integer rule, `errors._check_index`, at every bounded argument.

Each row names a call of one integer argument, the name its messages
use, and its bounds.  One past each bound is rejected with the exact
range message, the bound itself is accepted, and 2.5 and None are
rejected with the integer message.  ``spectrum``'s ``--m`` is checked
by the same rule in tests/test_cli.py; argparse already refuses a
non-integer flag.
"""

import re

import numpy as np
import pytest

from irreplab import (
    DimensionTable,
    EnsembleConfig,
    InvalidInputError,
    PointGroup,
    build_group,
    check_invariance,
    draw_label_blocks,
    effective_width,
    gs_distribution,
    sigma_j_sq,
    width_table,
)
from irreplab import groups, rng, su2
from irreplab.rng import substream


class _Reached(Exception):
    """The call passed its argument checks and began its work."""


def _stop(*args):
    raise _Reached


def _threads(threads):
    gs_distribution(DimensionTable(((0, 1),)), EnsembleConfig(0, 2), threads=threads)


# (call, name, low, high, the module attribute stubbed so that a call
# at a costly bound stops when its work begins)
BOUNDED = {
    "SubStream.normals count": (lambda v: substream(1, 0, 0).normals(v), "count", 0, 2**32,
                                (rng, "_polar_pairs")),
    "EnsembleConfig master_seed": (lambda v: EnsembleConfig(v, 1), "master_seed",
                                   0, 2**64 - 1, None),
    "EnsembleConfig trials": (lambda v: EnsembleConfig(0, v), "trials", 1, None, None),
    "EnsembleConfig m": (lambda v: EnsembleConfig(0, 1, m=v), "m", 1, 65536, None),
    "draw_label_blocks orbits": (lambda v: draw_label_blocks(v, 1, 0, 0), "orbits", 0, 10000,
                                 (rng, "_orbit_triangles")),
    "draw_label_blocks m": (lambda v: draw_label_blocks(1, v, 0, 0), "m", 1, 65536,
                            (rng, "_orbit_triangles")),
    "threads": (_threads, "threads", 1, None, None),
    "build_group cyclic n": (lambda v: build_group("cyclic", v), "cyclic group n", 2, 10000,
                             (groups, "_closure")),
    "check_invariance m": (lambda v: check_invariance(np.eye(4), build_group("tetra"), v),
                           "m", 1, None, None),
    "from_generators sites": (lambda v: PointGroup.from_generators("x", v, []), "sites", 1, 10000,
                              (groups, "_closure")),
    "sigma_j_sq J": (sigma_j_sq, "J", 0, 1020, None),
    "effective_width n_j": (lambda v: effective_width(0, v), "subspace dimension", 1, None, None),
    "width_table j_max": (width_table, "j_max", 0, 1020, (su2, "sigma_j_sq")),
    "DimensionTable two_j": (lambda v: DimensionTable(((v, 1),)), "two_j", 0, None, None),
    "DimensionTable dim": (lambda v: DimensionTable(((0, v),)), "dim", 1, 2**32, None),
}


@pytest.mark.parametrize("case", BOUNDED)
def test_bounded_argument(case, monkeypatch):
    call, name, low, high, stub = BOUNDED[case]
    if stub is not None:
        monkeypatch.setattr(*stub, _stop)
    if high is None:
        outside = [(low - 1, f"{name} must be >= {low}, got {low - 1}")]
    else:
        outside = [(v, f"{name} must be in [{low}, {high}], got {v}") for v in (low - 1, high + 1)]
    for value, message in outside:
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            call(value)
    for bound in (low, high):
        if bound is not None:
            try:
                call(bound)
            except _Reached:
                pass
    for value in (2.5, None):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(InvalidInputError, match=f"^{re.escape(message)}$"):
            call(value)

