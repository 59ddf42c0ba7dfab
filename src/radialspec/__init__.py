"""Spectral analysis of oscillator- and Coulomb-like radial Schrödinger
operators with self-adjoint extension families, and the duality map
connecting the two problems."""

from .core import (
    ComplexEnergy,
    ExtensionParam,
    ProblemSpec,
    RadialWave,
    RegimeClass,
    SamplePoint,
    SpectralMeasure,
    Theory,
    ValidationError,
    canonicalize_zeta,
    classify,
    sample_measure,
)
from .coulomb import (
    coul_coefficients,
    coul_critical_zeta,
    coul_density,
    coul_eigenfunction,
    coul_family_function,
    coul_green,
    coul_solution,
    coul_spectral_omega,
    coul_spectrum,
)
from .duality import (
    DualityMap,
    coulomb_to_oscillator,
    oscillator_to_coulomb,
    verify_coefficient_identities,
    verify_solution_identity,
    verify_spectrum_correspondence,
)
from .oracle import (
    GridResolutionWarning,
    GridSpec,
    compare_spectra,
    fd_eigenvalues,
    shoot_eigenvalue,
)
from .oscillator import (
    osc_coefficients,
    osc_density,
    osc_eigenfunction,
    osc_family_function,
    osc_green,
    osc_solution,
    osc_spectral_omega,
    osc_spectrum,
)
from .specfun import (
    AccuracyError,
    PoleError,
    bessel,
    digamma,
    gamma_fn,
    gamma_ln,
    kummer_m,
    tricomi_u,
    trigamma,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
