"""qladder: Jacobi-ladder reductions and spectral closed forms.

The package reduces multi-mode quantum-optical interaction Hamiltonians to
tridiagonal ladder form, evaluates the associated spectral measures,
propagator matrix elements and observable expectations in closed form, and
cross-validates everything against a truncated Fock-basis oracle.
"""

from .errors import (
    ConstraintViolated,
    ConvergenceError,
    CutoffOverflow,
    NoPseudoVacuum,
    QladderError,
    Singular,
    StripError,
    Unsupported,
)
from .orthopoly import (
    JacobiSystem,
    PearsonData,
    classify,
    eval_poly,
    hermite_data,
    jacobi_data,
    laguerre_data,
    legendre_data,
    recurrence,
)
from .propagator import (
    PropagatorContext,
    StripDomain,
    build_context,
    char_fn,
    evolve,
    sigma_mn,
    sigma_n,
    sigma_row,
)
from .coherent import (
    coherent_coeffs,
    holomorphic_transform,
    kernel,
    mean_energy,
    omega_density,
    reproducing_density,
    squared_norm,
    strip_for,
)
from .observables import (
    Fock,
    GaussianCoherent,
    Number,
    QuantumState,
    SpectralCoherent,
    alpha_dispersion,
    alpha_moment,
    amplifier_mean_photon,
    cluster_correlation,
    correlation,
    cos_phase,
    h_expectation,
    ladder_amplitudes,
    modulation_mean,
    number_moment,
    phase_exponentials,
    total_energy,
)
from .reduction import (
    MultiModeSystem,
    Sector,
    beta_offsets,
    big_g,
    find_pseudo_vacuum,
    reduce,
)

__version__ = "0.1.0"
