"""Random symmetric matrices with point-group symmetry.

Build the most general random real symmetric matrix invariant under a
discrete rotation group (cyclic, tetrahedral, octahedral, cubic),
decompose it into irrep combination blocks with predicted statistical
widths, and measure by seeded Monte Carlo which irrep or angular
momentum captures the ground state.
"""

from .errors import InvalidInputError, NumericFailureError
from .groups import (
    PointGroup,
    build_group,
    build_invariant,
    check_invariance,
    relabel,
)
from .irreps import (
    CensusResult,
    CensusRow,
    IrrepBlockSpec,
    block_spectra,
    decompose,
    ground_state_irrep_census,
    sample_invariant,
)
from .linalg import (
    Spectrum,
    SymMatrix,
    eigensolve,
    multiset_deviation,
    read_matrix_text,
    write_matrix_text,
)
from .rng import (
    EnsembleConfig,
    SubStream,
    draw_label_blocks,
    random_sym_block,
    substream,
)
from .su2 import (
    DimensionTable,
    GsDistribution,
    effective_width,
    example_dimension_table,
    f_space,
    gs_distribution,
    legendre,
    sigma_j_sq,
    width_table,
)

__version__ = "0.1.0"

__all__ = [
    "InvalidInputError",
    "NumericFailureError",
    "SymMatrix",
    "Spectrum",
    "eigensolve",
    "multiset_deviation",
    "write_matrix_text",
    "read_matrix_text",
    "EnsembleConfig",
    "SubStream",
    "substream",
    "random_sym_block",
    "draw_label_blocks",
    "PointGroup",
    "build_group",
    "relabel",
    "build_invariant",
    "check_invariance",
    "IrrepBlockSpec",
    "decompose",
    "block_spectra",
    "sample_invariant",
    "CensusRow",
    "CensusResult",
    "ground_state_irrep_census",
    "legendre",
    "sigma_j_sq",
    "effective_width",
    "width_table",
    "DimensionTable",
    "GsDistribution",
    "f_space",
    "gs_distribution",
    "example_dimension_table",
    "__version__",
]
