"""Classification of Boolean function windows under AGL(m,2) and
Reed-Muller covering-radius computation."""

__version__ = "0.1.0"

from .boolfun import (
    AnfPolynomial,
    BooleanFunction,
    anf_from_string,
    anf_to_string,
    apply_affine,
    derivative,
    dirac,
    from_anf,
    is_periodic,
    mobius_transform,
    parse_function,
    restrict,
    to_anf,
    tt_from_hex,
    tt_to_hex,
    weight,
    wht,
)
from .classify import (
    Classification,
    CoverSet,
    SpaceTooLargeError,
    class_of,
    classify_pipeline,
    initial_cover_set,
    load_classification,
    orbit_enumerate,
    reduce_cover_set,
    save_classification,
)
from .equivalence import (
    EQUIV,
    NOT_EQUIV,
    UNDEFINED,
    EquivalenceOutcome,
    admissible_mask,
    candidate_checking,
    equivalent,
)
from .group import (
    AffineTransformation,
    SingularMatrixError,
    agl_generators,
    agl_order,
    compose,
    identity,
    invert,
    random_affine,
    translation,
    transvection,
)
from .invariant import (
    InvariantSignature,
    class_map,
    class_maps,
    j_hat_signatures,
    j_signatures,
)
from .nonlinearity import (
    Bound,
    GeneratorMatrix,
    InconsistentTableError,
    InfeasibleError,
    ProbeResult,
    RadiusTable,
    ScanReport,
    bounds_propagate,
    covering_radius_exact,
    exact_nonlinearity,
    nl_probe,
    odd_weight_reduction,
    probe_batch,
    relative_rho,
    rm_dimension,
    rm_generator_matrix,
    scan_representatives,
    walsh_spectrum,
)
from .quotient import (
    Decomposition,
    QuotientFunction,
    QuotientSpace,
    compose_decomposition,
    decompose,
    delta_membership,
    delta_space_basis,
    parse_quotient,
    project,
    q_apply_affine,
    quotient_space,
)
