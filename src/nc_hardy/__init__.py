"""Hardy spaces of free noncommutative functions on the polydisc and ball.

Boundary trace integrals are computed by two independent routes: an exact
Weingarten-calculus engine (rational arithmetic) and a seeded, reproducible
Monte Carlo sampler of Haar-random boundary points.
"""

from .words import (
    AlphabetMismatchError,
    SeriesFormatError,
    SpectralConditionError,
    Word,
    EMPTY_WORD,
    NcSeries,
    MatrixTuple,
    word_eval,
    series_eval,
    series_eval_tail_bounded,
    l2p_norm,
    direct_sum,
    similarity,
    spectral_theta,
)
from .weingarten import (
    ExactEngineError,
    MultiplicityLimitError,
    partitions,
    WeingartenTable,
    DEFAULT_TABLE,
    haar_entry_moment,
    BoundaryKind,
    pairing_moment_exact,
    sesquilinear_moment_exact,
)
from .haar_mc import (
    CHUNK_SAMPLES,
    STREAM_PLAN,
    DEFAULT_SEED,
    default_seed,
    SeededStream,
    default_stream,
    MCEstimate,
    sample_haar_unitary,
    sample_boundary,
    mc_pairing,
    mc_recovery_integral,
    FreenessStructureError,
    FreenessFactor,
    FreenessReport,
    freeness_diagnostic,
)
from .hardy import (
    SpaceKind,
    GridCell,
    pairing_grid,
    inner_product,
    radial_pairing,
    RecoveryReport,
    coeff_recover,
    NormProfileReport,
    boundary_norm_profile,
    UpsilonVerdict,
    upsilon_membership,
    KernelValue,
    kernel_eval,
    kernel_section_gram,
    ReproduceResult,
    reproduce_check,
)

__version__ = "0.1.0"
