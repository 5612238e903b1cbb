"""Birkhoff normal forms in two degrees of freedom and the stability
determinant of the radiating oblate restricted three-body model."""

from .closedform import (
    CubicQuarticCoefficients,
    PoleError,
    build_model_hamiltonian,
    d2_closed,
    d2_from_k,
    k0022,
    k1111,
    k2200,
    tabulated_kernel,
)
from .normalform import (
    NormalFormReport,
    ResonanceError,
    frequency_shift_1dof,
    normalize,
)
from .polyalg import (
    CanonicalPolynomial,
    Frequencies,
    GradedHamiltonian,
    complexify,
    poisson_bracket,
)
from .rtbpmodel import (
    CoefficientSet,
    D2Result,
    ModelParams,
    ScanRow,
    StabilityStatus,
    StabilityVerdict,
    coefficient_series,
    coefficients,
    d2_eval,
    scan_blocks,
    scan_omega1,
    stability_verdict,
    verdict_from_d2,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalPolynomial",
    "CoefficientSet",
    "CubicQuarticCoefficients",
    "D2Result",
    "Frequencies",
    "GradedHamiltonian",
    "ModelParams",
    "NormalFormReport",
    "PoleError",
    "ResonanceError",
    "ScanRow",
    "StabilityStatus",
    "StabilityVerdict",
    "build_model_hamiltonian",
    "coefficient_series",
    "coefficients",
    "complexify",
    "d2_closed",
    "d2_eval",
    "d2_from_k",
    "frequency_shift_1dof",
    "k0022",
    "k1111",
    "k2200",
    "normalize",
    "poisson_bracket",
    "scan_blocks",
    "scan_omega1",
    "stability_verdict",
    "tabulated_kernel",
    "verdict_from_d2",
    "__version__",
]
