"""Random symmetric matrices with point-group symmetry.

Build the most general random real symmetric matrix invariant under a
discrete rotation group (cyclic, tetrahedral, octahedral, cubic),
decompose it into irrep combination blocks with predicted statistical
widths, and measure by seeded Monte Carlo which irrep or angular
momentum captures the ground state.

Importing the package loads no submodule and not numpy: each exported
name is resolved from its submodule on first use (PEP 562), so the
command line can choose numpy's BLAS threads before numpy loads.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": ("InvalidInputError", "NumericFailureError"),
    "linalg": ("SymMatrix", "eigensolve", "multiset_deviation", "write_matrix_text",
               "read_matrix_text"),
    "rng": ("EnsembleConfig", "draw_label_blocks"),
    "groups": ("PointGroup", "build_group", "build_invariant", "check_invariance"),
    "irreps": ("IrrepBlockSpec", "decompose", "block_spectra", "CensusRow", "CensusResult",
               "ground_state_irrep_census"),
    "su2": ("sigma_j_sq", "effective_width", "width_table", "DimensionTable",
            "GsDistribution", "f_space", "gs_distribution", "example_dimension_table"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
