"""speclab: a numerical laboratory for spectral-projection commutators.

Builds the commutator families (SU(2) spin, ring, finite Heisenberg,
SE(2)/line), computes operator norms, and checks the exact identities and
semiclassical limits tying them to truncated Hankel matrices of arc-indicator
symbols on the Hardy space.
"""

from ._errors import ComputationError, ContractError
from .hankel import (
    HALF_CIRCLE,
    ArcSymbol,
    fourier_coeff,
    hankel_truncation,
    nehari_bound,
    power_essential_radius,
    truncated_norm,
    truncated_norm_record,
)
from .linalg import (
    NormRecord,
    commutator,
    lanczos_top,
    operator_norm,
)
from .models import (
    CommutatorReport,
    ExtremalVector,
    extremal_vector,
    grid_in_arc,
    heisenberg_commutator,
    heisenberg_submatrix,
    ring_commutator,
    ring_submatrix,
    se2_commutator,
    su2_caps_commutator,
    su2_commutator,
    su2_submatrix,
)
from .specfun import bessel_j, cap_integral, hilbert_bessel_at_zero
from .spinrep import (
    HalfInt,
    SpinOperators,
    SpinRep,
    build_spin_operators,
    fourier_expansion_d,
    projection_x,
    projection_x_entries,
    projection_z_interval,
    szego_approximation,
    verify_hilbert_formula,
    wigner_d_matrix,
    wigner_d_pi_half,
    wigner_d_sum,
    wigner_d_theta,
)

__version__ = "0.1.0"

__all__ = [
    "ArcSymbol",
    "CommutatorReport",
    "ComputationError",
    "ContractError",
    "ExtremalVector",
    "HALF_CIRCLE",
    "HalfInt",
    "NormRecord",
    "SpinOperators",
    "SpinRep",
    "bessel_j",
    "build_spin_operators",
    "cap_integral",
    "commutator",
    "extremal_vector",
    "fourier_coeff",
    "fourier_expansion_d",
    "grid_in_arc",
    "hankel_truncation",
    "heisenberg_commutator",
    "heisenberg_submatrix",
    "hilbert_bessel_at_zero",
    "lanczos_top",
    "nehari_bound",
    "operator_norm",
    "power_essential_radius",
    "projection_x",
    "projection_x_entries",
    "projection_z_interval",
    "ring_commutator",
    "ring_submatrix",
    "se2_commutator",
    "su2_caps_commutator",
    "su2_commutator",
    "su2_submatrix",
    "szego_approximation",
    "truncated_norm",
    "truncated_norm_record",
    "verify_hilbert_formula",
    "wigner_d_matrix",
    "wigner_d_pi_half",
    "wigner_d_sum",
    "wigner_d_theta",
]
