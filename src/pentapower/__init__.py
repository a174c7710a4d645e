"""Closed-form integer powers of complex two-band pentadiagonal Toeplitz matrices.

The matrices have value a on the +2 diagonal and b on the -2 diagonal,
nothing anywhere else. The fast power path counts walks on each lane's
path graph and weights them by a**u * b**v; eigenvalues, diagonalising
transforms and the paper's per-entry sums over Chebyshev polynomials of
the second kind are the referees, alongside a brute-force dense oracle.
"""

from .chebyshev import chebyshev_u_sequence, ipow
from .oracle import (
    VerificationReport,
    build_dense,
    compare,
    determinant,
    determinant_corollary_check,
    mat_mul,
    naive_power,
)
from .power import (
    PowerRequest,
    power_entry_even,
    power_entry_odd,
    power_matrix,
    power_via_spectral,
)
from .spectrum import (
    DerivedScalars,
    MatrixSpec,
    SpectralDecomposition,
    transform_even,
    transform_odd,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "chebyshev_u_sequence",
    "ipow",
    "MatrixSpec",
    "DerivedScalars",
    "SpectralDecomposition",
    "transform_even",
    "transform_odd",
    "PowerRequest",
    "power_entry_even",
    "power_entry_odd",
    "power_matrix",
    "power_via_spectral",
    "VerificationReport",
    "build_dense",
    "mat_mul",
    "naive_power",
    "determinant",
    "determinant_corollary_check",
    "compare",
]
