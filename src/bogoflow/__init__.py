"""Time-dependent Bogoliubov transformations of confined scalar fields.

The package builds instantaneous eigenbases on spatial slices of a
synchronous-gauge spacetime, assembles the coupling matrices that drive the
evolution of the transformation between bases at different times, and
integrates the resulting matrix ODE.  A first-order perturbative engine
computes resonance spectra and asymptotic coefficients, and two turn-key
scenarios (gravitational-wave cavity, 1+1 FLRW cosmology) come with their
analytic oracles.
"""

from . import errors
from .geometry import (BoundarySpec, Domain, SyncSpacetime,
                       diagonal_spacetime, flrw_torus, q_factor, rbar_factor,
                       static_spacetime)
from .spectral import (ModeBasis, OperatorSpec, align_basis,
                       instantaneous_basis, orthonormality_residual,
                       regularize_zero_mode)
from .coupling import (BasisDerivatives, CouplingMatrices, basis_derivatives,
                       coupling_matrices)
from .evolution import (BogoliubovMatrix, PhaseAccumulator, compose, evolve_Q,
                        evolve_U, identity_residual)
from .perturbation import (DeltaCoupling, PerturbationSpec, ResonanceReport,
                           asymptotic_coefficients, delta_coupling_from_modes,
                           delta_coupling_operator_form, equivalence_reduce,
                           resonance_scan, window_coefficients,
                           window_series)

__all__ = [
    "errors",
    "BoundarySpec", "Domain", "SyncSpacetime",
    "diagonal_spacetime", "flrw_torus", "q_factor", "rbar_factor",
    "static_spacetime",
    "ModeBasis", "OperatorSpec", "align_basis", "instantaneous_basis",
    "orthonormality_residual", "regularize_zero_mode",
    "BasisDerivatives", "CouplingMatrices", "basis_derivatives",
    "coupling_matrices",
    "BogoliubovMatrix", "PhaseAccumulator", "compose", "evolve_Q", "evolve_U",
    "identity_residual",
    "DeltaCoupling", "PerturbationSpec", "ResonanceReport",
    "asymptotic_coefficients", "delta_coupling_from_modes",
    "delta_coupling_operator_form", "equivalence_reduce", "resonance_scan",
    "window_coefficients", "window_series",
]

__version__ = "0.1.0"
