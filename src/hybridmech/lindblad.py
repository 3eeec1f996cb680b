"""Dissipation matrix of the mechanical master equation and its eigenbasis.

The non-unitary part of the mechanical evolution is encoded by the 2x2
Hermitian matrix h built from the thermal rates (Gamma, n_m) and the
emitter-induced kernels (s0, s2).  Diagonalising h yields the two scattering
rates lambda_+/- and the operators b_+/- = v . (b, b^dagger) that scatter the
mechanical quadratures twisted by theta = -Arg(s2)/2.  Closed-form eigenpairs
are used in the production path; a generic Hermitian eigensolver appears only
in tests as an independent oracle.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bloch import PhysParams
from .spectrum import NoiseKernels

# Relative scale below which a numerically negative lambda_- is clamped to 0.
_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class QuadratureDecomposition:
    """Eigen-decomposition of the dissipation matrix.

    ``lambda_plus >= lambda_minus >= 0`` are the scattering rates;
    ``v_plus``/``v_minus`` the orthonormal coefficient vectors of the
    scattering operators in the (b, b^dagger) basis; ``theta`` the twist
    angle of the scattered quadratures.  A negative or non-finite rate, or a
    non-finite angle or vector entry, makes construction raise a
    ``ValueError`` whose message starts with the field's name.
    """

    lambda_plus: float
    lambda_minus: float
    v_plus: np.ndarray
    v_minus: np.ndarray
    theta: float

    def __post_init__(self) -> None:
        for name in ("lambda_plus", "lambda_minus"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, "
                                 f"got {getattr(self, name)}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        for name in ("v_plus", "v_minus"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must have finite entries, "
                                 f"got {getattr(self, name)}")

    def reconstruct(self) -> np.ndarray:
        """Assemble lambda_+ v+ v+^dag + lambda_- v- v-^dag."""
        return self.lambda_plus * np.outer(
            self.v_plus, np.conjugate(self.v_plus)
        ) + self.lambda_minus * np.outer(self.v_minus, np.conjugate(self.v_minus))


class NoiseRegime(str, enum.Enum):
    TLS_INDUCED = "tls_induced"
    EFFECTIVE_THERMAL = "effective_thermal"
    THERMAL = "thermal"


@dataclass(frozen=True)
class RegimeLabel:
    """Classification of the dominant mechanical noise source.

    Carries the diagnostic ratios used by the classification:
    ``tls_vs_damping`` = (g_m^2/gamma)/Gamma and
    ``tls_vs_thermal`` = (g_m^2/gamma)/(n_m Gamma), both +inf when the
    denominator vanishes.
    """

    regime: NoiseRegime
    tls_vs_damping: float
    tls_vs_thermal: float
    n_m: float


def eigenpairs(Gamma, h11, h22, s2):
    """Closed-form eigenpairs of h; vectorised over trailing array shapes.

    Returns (lambda_plus, lambda_minus, v_plus, v_minus, theta) where the
    vectors have a trailing axis of length 2.  The degenerate point s2 = 0
    uses the basis convention v_plus = (1, 0), v_minus = (0, 1), matching the
    continuous limit |s2| -> 0 at Gamma > 0.
    """
    Gamma = np.asarray(Gamma, dtype=float)
    h11 = np.asarray(h11, dtype=float)
    h22 = np.asarray(h22, dtype=float)
    s2 = np.asarray(s2, dtype=complex)
    abs_s2 = np.abs(s2)
    root = np.hypot(Gamma, 2.0 * abs_s2)
    half_trace = 0.5 * (h11 + h22)
    lam_p = half_trace + 0.5 * root
    lam_m = half_trace - 0.5 * root
    lam_m = np.where(
        (lam_m < 0) & (lam_m > -_CLAMP_TOL * np.maximum(lam_p, 1.0)), 0.0, lam_m
    )

    degenerate = abs_s2 == 0.0
    safe_s2 = np.where(degenerate, 1.0, abs_s2)
    plus_first = Gamma + root
    safe_denom = np.where(plus_first == 0.0, 1.0, plus_first)
    # Gamma - root written without cancellation for |s2| << Gamma.
    minus_first = -4.0 * safe_s2**2 / safe_denom
    two_s2c = 2.0 * np.conjugate(s2)
    norm_p = np.sqrt(plus_first**2 + 4.0 * safe_s2**2)
    norm_m = np.sqrt(minus_first**2 + 4.0 * safe_s2**2)

    v_p = np.stack(
        [
            np.where(degenerate, 1.0, plus_first / norm_p).astype(complex),
            np.where(degenerate, 0.0, two_s2c / norm_p),
        ],
        axis=-1,
    )
    v_m = np.stack(
        [
            np.where(degenerate, 0.0, minus_first / norm_m).astype(complex),
            np.where(degenerate, 1.0, two_s2c / norm_m),
        ],
        axis=-1,
    )
    theta = np.where(degenerate, 0.0, -0.5 * np.angle(s2))
    return lam_p, lam_m, v_p, v_m, theta


def decompose(
    Gamma: float, n_m: float, s0: float, s2: complex
) -> QuadratureDecomposition:
    """Closed-form eigen-decomposition of the dissipation matrix
    h = [[Gamma (n_m + 1) + s0, s2], [conj(s2), Gamma n_m + s0]]."""
    if Gamma < 0 or n_m < 0:
        raise ValueError("Gamma and n_m must be non-negative")
    lam_p, lam_m, v_p, v_m, theta = eigenpairs(
        Gamma, Gamma * (n_m + 1.0) + s0, Gamma * n_m + s0, s2
    )
    return QuadratureDecomposition(
        lambda_plus=float(lam_p),
        lambda_minus=float(lam_m),
        v_plus=np.asarray(v_p, dtype=complex),
        v_minus=np.asarray(v_m, dtype=complex),
        theta=float(theta),
    )


def twisted_decomposition(
    lambda_plus: float, lambda_minus: float, theta: float
) -> QuadratureDecomposition:
    """Decomposition for pure quadrature scattering (Gamma = 0).

    b_+/- = (+/- exp(-i theta) b + exp(i theta) b^dagger) / sqrt(2).
    """
    if lambda_minus > lambda_plus:
        raise ValueError("lambda_plus must be the larger rate")
    em = np.exp(-1j * theta) / math.sqrt(2.0)
    ep = np.exp(1j * theta) / math.sqrt(2.0)
    return QuadratureDecomposition(
        lambda_plus=float(lambda_plus),
        lambda_minus=float(lambda_minus),
        v_plus=np.array([em, ep]),
        v_minus=np.array([-em, ep]),
        theta=float(theta),
    )


def effective_thermal(
    Gamma: float, n_m: float, kernels: NoiseKernels
) -> tuple[float, float]:
    """Weak-coupling effective damping rate and thermal occupation.

    Valid for Gamma much larger than s0 and |s2|; a warning is emitted
    outside that domain.  Gamma = 0 is a domain error (the formulas diverge).
    """
    if Gamma <= 0:
        raise ValueError("effective thermal parameters require Gamma > 0")
    if kernels.s0 > 0.1 * Gamma or abs(kernels.s2) > 0.1 * Gamma:
        warnings.warn(
            "effective-thermal formulas used outside their validity domain "
            f"(s0/Gamma={kernels.s0 / Gamma:.3g}, "
            f"|s2|/Gamma={abs(kernels.s2) / Gamma:.3g})",
            stacklevel=2,
        )
    gamma_eff = Gamma + 2.0 * abs(kernels.s2) ** 2 / Gamma
    n_m_eff = n_m + kernels.s0 / Gamma
    return gamma_eff, n_m_eff


def classify_regime(params: PhysParams) -> RegimeLabel:
    """Classify the dominant mechanical noise source.

    Emitter-induced noise dominates when both Gamma and n_m Gamma fall below
    g_m^2/gamma (boundary points inclusive).  Otherwise the emitter either
    renormalises the thermal bath (weak coupling, n_m <= 1) or is negligible.
    """
    tls_rate = params.tls_noise_rate
    Gamma, n_m = params.Gamma, params.n_m

    tls_vs_damping = tls_rate / Gamma if Gamma > 0 else math.inf
    thermal_rate = n_m * Gamma
    tls_vs_thermal = tls_rate / thermal_rate if thermal_rate > 0 else math.inf

    if Gamma <= tls_rate and thermal_rate <= tls_rate:
        regime = NoiseRegime.TLS_INDUCED
    elif Gamma > tls_rate and n_m <= 1.0:
        regime = NoiseRegime.EFFECTIVE_THERMAL
    else:
        regime = NoiseRegime.THERMAL
    return RegimeLabel(
        regime=regime,
        tls_vs_damping=tls_vs_damping,
        tls_vs_thermal=tls_vs_thermal,
        n_m=n_m,
    )
