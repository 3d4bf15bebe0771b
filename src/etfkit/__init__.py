"""Exact construction and certification of equiangular tight frames from
combinatorial designs."""

from .cyclo import (
    CycMatrix,
    CycScalar,
    DimensionMismatchError,
    OrderMismatchError,
    cyclotomic_polynomial,
)
from .designs import (
    DesignError,
    FiniteField,
    GroupDivisibleDesign,
    LatinSquareSet,
    affine_plane,
    embedding_operators,
    fill_holes,
    gf_build,
    mols_from_field,
    projective_plane,
    steiner_triple_system,
    td_from_mols,
    verify_gdd,
    wilson_product,
)
from .hadamard import (
    HadamardError,
    HadamardMatrix,
    dephase,
    fourier,
    paley_i,
    paley_ii,
    simplex_from_hadamard,
    sylvester,
    verify_hadamard,
)
from .frames import (
    EtfCertificate,
    EtfType,
    Frame,
    FrameError,
    classify_type,
    gram,
    naimark_gram,
    verify_etf,
)
from .constructions import (
    AdmissibilityError,
    ConstructionError,
    ExistenceStatus,
    GddEtfPlan,
    existence_status,
    gdd_etf,
    mols_tdtf,
    plan_gdd_etf,
    regular_simplex,
    steiner_etf,
)
from .fileio import (
    DesignVerifyError,
    FileFormatError,
    parse_design,
    parse_frame,
    serialize_design,
    serialize_frame,
)

__version__ = "0.1.0"
