"""Semiclassical dynamics of a driven, damped two-level emitter.

Everything lives in the frame rotating at the drive frequency.  The emitter
state is the pair (pe, s): excited-state population and the expectation value
of the lowering operator.  The drive enters through the Rabi frequency g and
the instantaneous detuning delta, which may be modulated in time by the
mechanical displacement.

With the detuning held fixed over a step, the Bloch equations are affine with
constant coefficients; ``bloch_step_batch`` advances a batch of states by one
such step exactly, through the exponential of the augmented 4x4 generator
(Torrey, Phys. Rev. 76, 1059 (1949)) taken by scaling and squaring (Moler and
Van Loan, SIAM Rev. 45, 3 (2003)).  The same exponential serves the
trajectory engine's exact variance map.

Unit convention: all rates and frequencies are angular frequencies in units
of the spontaneous-emission rate gamma; time is in units of 1/gamma.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Adiabaticity is taken for granted below this ratio of Omega, g_m to gamma.
ADIABATIC_RATIO = 0.1

# Taylor order of the matrix exponential (remainder below 1e-18 at norm 1/2).
_TAYLOR_ORDER = 16


@dataclass(frozen=True)
class PhysParams:
    """Device rates, frequencies and bath occupations.

    Attributes
    ----------
    gamma : float
        Emitter spontaneous-emission rate (> 0).
    g : float
        Classical Rabi frequency of the drive (>= 0).
    delta0 : float
        Bare drive-emitter detuning.
    n_q : float
        Thermal occupation of the emitter bath (>= 0).
    Omega : float
        Mechanical frequency (> 0).
    g_m : float
        Emitter-oscillator parametric coupling strength (>= 0).
    Gamma : float
        Mechanical damping rate (>= 0).
    n_m : float
        Thermal phonon number of the mechanical bath (>= 0).

    Every field must be finite; a broken rule raises ``ValueError``.
    """

    gamma: float
    g: float
    Omega: float
    g_m: float
    delta0: float = 0.0
    n_q: float = 0.0
    Gamma: float = 0.0
    n_m: float = 0.0

    def __post_init__(self) -> None:
        # NaN fails each check; cli._build reads the field from the first word
        for name in ("gamma", "Omega"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("g", "g_m", "Gamma", "n_q", "n_m"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if not math.isfinite(self.delta0):
            raise ValueError("delta0 must be finite")
        if not self.is_adiabatic:
            warnings.warn(
                "parameters leave the adiabatic regime "
                f"(Omega/gamma={self.Omega / self.gamma:.3g}, "
                f"g_m/gamma={self.g_m / self.gamma:.3g}); "
                "coarse-grained results may be unreliable",
                stacklevel=2,
            )

    @property
    def is_adiabatic(self) -> bool:
        """True when the oscillator is slow compared to the emitter decay."""
        return (
            self.Omega <= ADIABATIC_RATIO * self.gamma
            and self.g_m <= ADIABATIC_RATIO * self.gamma
        )

    @property
    def mechanical_period(self) -> float:
        return 2.0 * math.pi / self.Omega

    @property
    def tls_noise_rate(self) -> float:
        """Rate scale g_m**2/gamma of emitter-induced mechanical noise."""
        return self.g_m**2 / self.gamma


@dataclass(frozen=True)
class BlochVector:
    """Emitter state: excited population pe and coherence s = <sigma_->."""

    pe: float
    s: complex

    def ball_excess(self) -> float:
        """(2 pe - 1)^2 + 4 |s|^2 - 1; non-positive for physical states."""
        return (2.0 * self.pe - 1.0) ** 2 + 4.0 * abs(self.s) ** 2 - 1.0

    def is_physical(self, tol: float = 1e-9) -> bool:
        return -tol <= self.pe <= 1.0 + tol and self.ball_excess() <= tol


def pe_closed_form(g: float, gamma, delta):
    """Saturation (steady-state) population of the resonantly damped emitter.

    ``g`` is one scalar Rabi frequency; ``delta`` is a scalar or a numpy
    array, and the result has its shape.  An undriven emitter (g <= 0) at
    zero temperature returns 0.
    """
    if g <= 0:
        return np.zeros(np.shape(delta)) if np.ndim(delta) else 0.0
    delta = np.asarray(delta, dtype=float)
    out = 1.0 / (2.0 + (2.0 * delta / g) ** 2 + (gamma / g) ** 2)
    return float(out) if out.ndim == 0 else out


def _matmul(a, b):
    """Matrix product of entry-major stacks (a[i, k] holds entry (i, k) of
    every lane), as one sum of products: every lane gets the same arithmetic,
    whatever the batch it runs in."""
    return np.sum(a[:, :, None] * b[None], axis=1)


def _expm(m):
    """Exponential of an entry-major stack of matrices: scaling and squaring
    of a Taylor series.  Each matrix picks its own scaling from its own norm,
    so a lane's result does not depend on the batch it runs in; NaN matrices
    stay NaN."""
    norm = np.max(np.sum(np.abs(m), axis=0), axis=0)
    # smallest s >= 0 with norm / 2^s < 1/2; frexp gives 0 for NaN and inf
    s = np.maximum(np.frexp(2.0 * norm)[1], 0)
    m = m / np.ldexp(1.0, s)
    eye = np.eye(len(m)).reshape(m.shape[:2] + (1,) * (m.ndim - 2))
    p = eye + m / _TAYLOR_ORDER
    for k in range(_TAYLOR_ORDER - 1, 0, -1):
        p = eye + _matmul(m, p) / k
    for k in range(int(np.max(s, initial=0))):
        p = np.where(k < s, _matmul(p, p), p)
    return p


def _bloch_generator(params: PhysParams, delta) -> np.ndarray:
    """Augmented generator [[M, c], [0, 0]] of the Bloch equations.

    For y = (pe, Re s, Im s) the equations read y' = M(delta) y + c.  The
    4x4 matrix is entry-major: entry (i, k) has the shape of ``delta``.
    """
    g, gamma, n_q = params.g, params.gamma, params.n_q
    delta = np.asarray(delta, dtype=float)
    gamma_par = gamma * (2.0 * n_q + 1.0)
    m = np.zeros((4, 4) + delta.shape)
    m[0, 0], m[0, 2], m[0, 3] = -gamma_par, -g, gamma * n_q
    m[1, 1], m[1, 2] = -0.5 * gamma_par, delta
    m[2, 0], m[2, 1], m[2, 2], m[2, 3] = g, -delta, -0.5 * gamma_par, -0.5 * g
    return m


def bloch_steady_state(params: PhysParams, delta: float) -> BlochVector:
    """Steady state of the driven emitter at fixed detuning.

    Solves the 3x3 linear system obtained by setting the Bloch equations to
    zero.  For ``n_q = 0`` the population coincides with ``pe_closed_form``.
    """
    m = _bloch_generator(params, delta)
    try:
        pe, re_s, im_s = np.linalg.solve(m[:3, :3], -m[:3, 3])
    except np.linalg.LinAlgError as exc:  # unreachable for gamma > 0
        raise RuntimeError("internal error: singular Bloch steady state") from exc
    return BlochVector(pe=float(pe), s=complex(re_s, im_s))


def bloch_step_batch(
    y: np.ndarray, delta: np.ndarray, params: PhysParams, dt: float
) -> np.ndarray:
    """Advance Bloch states y[..., :] = (pe, Re s, Im s) by one exact step dt.

    The detuning is held fixed during the step, so the equations are affine
    with constant coefficients and the step is y -> P y + q, read off the
    exponential [[P, q], [0, 1]] of dt times the augmented generator.  Each
    lane takes its own exponential: its result does not depend on the batch
    it runs in, and a NaN lane stays NaN.
    """
    p = _expm(dt * _bloch_generator(params, delta))
    pe, re_s, im_s = y[..., 0], y[..., 1], y[..., 2]
    return np.stack(
        [r[0] * pe + r[1] * re_s + r[2] * im_s + r[3] for r in p[:3]], axis=-1
    )
