"""Higher-order information measures on discrete joint distributions.

Computes total correlation, dual total correlation, S-information, and
O-information, together with the k-parameterized whole-minus-sum families
delta_k = S - k*T and gamma_k = S - k*D that contain all four as special
cases, on exact probability mass tables or plug-in estimates from sample
rows. Includes generators for the canonical pure-synergy (parity) and
pure-redundancy (giant bit) systems and a spectrum sweep with
interaction-order diagnostics.
"""

from .distribution import (
    DEFAULT_CONFIG,
    EstimatorConfig,
    JointDistribution,
    VariableSubset,
    as_subset,
    build_distribution,
    entropy,
    estimate_from_samples,
    infer_alphabets,
    leave_one_out,
    marginalize,
    product,
)
from .errors import (
    EmptyInputError,
    EmptySubsetError,
    FunctionalNegativeError,
    FunctionalNonMonotoneError,
    HoinfoError,
    IndexOutOfRangeError,
    InvalidOrderError,
    MalformedInputError,
    NegativeMassError,
    NonFiniteMassError,
    NotNormalizedError,
    OverlappingSubsetsError,
    RaggedRowsError,
    StateOutOfRangeError,
    SystemTooSmallError,
    TableTooLargeError,
)
from .generators import (
    GENERATOR_KINDS,
    GeneratorSpec,
    compose_independent,
    generate,
    giant_bit,
    parity,
    point_mass,
    random_distribution,
    spec_from_dict,
)
from .measures import (
    MeasureFunctional,
    MeasureReport,
    delta_k,
    dual_total_correlation,
    gamma_k,
    generic_delta_k,
    measure_report,
    mutual_information,
    o_information,
    s_information,
    total_correlation,
)
from .spectrum import (
    SignInterpretation,
    SpectrumResult,
    compute_spectrum,
    sign_interpretation,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CONFIG",
    "EstimatorConfig",
    "JointDistribution",
    "VariableSubset",
    "as_subset",
    "build_distribution",
    "entropy",
    "estimate_from_samples",
    "infer_alphabets",
    "leave_one_out",
    "marginalize",
    "product",
    "HoinfoError",
    "NotNormalizedError",
    "NegativeMassError",
    "NonFiniteMassError",
    "StateOutOfRangeError",
    "TableTooLargeError",
    "EmptySubsetError",
    "IndexOutOfRangeError",
    "OverlappingSubsetsError",
    "SystemTooSmallError",
    "EmptyInputError",
    "MalformedInputError",
    "RaggedRowsError",
    "InvalidOrderError",
    "FunctionalNegativeError",
    "FunctionalNonMonotoneError",
    "GENERATOR_KINDS",
    "GeneratorSpec",
    "compose_independent",
    "generate",
    "giant_bit",
    "parity",
    "point_mass",
    "random_distribution",
    "spec_from_dict",
    "MeasureFunctional",
    "MeasureReport",
    "delta_k",
    "dual_total_correlation",
    "gamma_k",
    "generic_delta_k",
    "measure_report",
    "mutual_information",
    "o_information",
    "s_information",
    "total_correlation",
    "SignInterpretation",
    "SpectrumResult",
    "compute_spectrum",
    "sign_interpretation",
]
