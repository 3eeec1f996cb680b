"""Simulator for a driven dissipative two-level emitter ultra-strongly
coupled to a mechanical oscillator.

Subpackages: semiclassical Bloch dynamics (:mod:`bloch`), emitter
population-fluctuation spectra and windowed noise kernels (:mod:`spectrum`),
the quadrature-scattering dissipator and its eigenbasis (:mod:`lindblad`),
the stochastic Gaussian-moment trajectory engine (:mod:`trajectory`),
truncated-Fock validation backends (:mod:`oracle`), and the experiment
runner (:mod:`cli`).
"""

__version__ = "0.1.0"

from .bloch import (
    BlochVector,
    PhysParams,
    bloch_steady_state,
    pe_closed_form,
)
from .lindblad import (
    NoiseRegime,
    QuadratureDecomposition,
    RegimeLabel,
    classify_regime,
    decompose,
    effective_thermal,
    twisted_decomposition,
)
from .spectrum import (
    NoiseKernels,
    UnsupportedConfigError,
    g_vector,
    qrt_matrix,
    spectrum_closed_form,
    spectrum_qrt,
)
from .trajectory import (
    EnsembleResult,
    TrajectoryOptions,
    TrajectoryRecord,
    WindowCoefficients,
    derive_trajectory_seed,
    run_ensemble,
    run_trajectory,
    semiclassical_run,
)

__all__ = [
    "__version__",
    "BlochVector",
    "PhysParams",
    "bloch_steady_state",
    "pe_closed_form",
    "NoiseRegime",
    "QuadratureDecomposition",
    "RegimeLabel",
    "classify_regime",
    "decompose",
    "effective_thermal",
    "twisted_decomposition",
    "NoiseKernels",
    "UnsupportedConfigError",
    "g_vector",
    "qrt_matrix",
    "spectrum_closed_form",
    "spectrum_qrt",
    "EnsembleResult",
    "TrajectoryOptions",
    "TrajectoryRecord",
    "WindowCoefficients",
    "derive_trajectory_seed",
    "run_ensemble",
    "run_trajectory",
    "semiclassical_run",
]
