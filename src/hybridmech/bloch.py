"""Semiclassical dynamics of a driven, damped two-level emitter.

Everything lives in the frame rotating at the drive frequency.  The emitter
state is the pair (pe, s): excited-state population and the expectation value
of the lowering operator.  The drive enters through the Rabi frequency g and
the instantaneous detuning delta, which may be modulated in time by the
mechanical displacement.

Unit convention: all rates and frequencies are angular frequencies in units
of the spontaneous-emission rate gamma; time is in units of 1/gamma.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# Largest integration step that still resolves the fastest rate (gamma).
MAX_BLOCH_STEP = 0.05

# Adiabaticity is taken for granted below this ratio of Omega, g_m to gamma.
ADIABATIC_RATIO = 0.1


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
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if not self.Omega > 0:
            raise ValueError("Omega must be positive")
        for name in ("g", "g_m", "Gamma", "n_q", "n_m"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
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


def pe_closed_form(g, gamma, delta):
    """Saturation (steady-state) population of the resonantly damped emitter.

    Accepts scalars or numpy arrays for ``delta`` (and ``g``).  An undriven
    emitter at zero temperature returns 0.
    """
    g = np.asarray(g, dtype=float)
    delta = np.asarray(delta, dtype=float)
    out = np.zeros(np.broadcast(g, delta).shape)
    driven = g > 0
    gd = np.where(driven, g, 1.0)
    val = 1.0 / (2.0 + (2.0 * delta / gd) ** 2 + (gamma / gd) ** 2)
    out = np.where(driven, val, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def _bloch_rhs(y, delta, g, gamma, n_q):
    """Right-hand side of the Bloch equations for y = (pe, Re s, Im s)."""
    pe, re_s, im_s = y[..., 0], y[..., 1], y[..., 2]
    gperp = 0.5 * gamma * (2.0 * n_q + 1.0)
    dpe = -gamma * (2.0 * n_q + 1.0) * pe + gamma * n_q - g * im_s
    dre = delta * im_s - gperp * re_s
    dim = -delta * re_s - gperp * im_s + 0.5 * g * (2.0 * pe - 1.0)
    return np.stack([dpe, dre, dim], axis=-1)


def bloch_steady_state(params: PhysParams, delta: float) -> BlochVector:
    """Steady state of the driven emitter at fixed detuning.

    Solves the 3x3 linear system obtained by setting the Bloch equations to
    zero.  For ``n_q = 0`` the population coincides with ``pe_closed_form``.
    """
    g, gamma, n_q = params.g, params.gamma, params.n_q
    gperp = 0.5 * gamma * (2.0 * n_q + 1.0)
    a = np.array(
        [
            [-gamma * (2.0 * n_q + 1.0), 0.0, -g],
            [0.0, -gperp, delta],
            [g, -delta, -gperp],
        ]
    )
    rhs = -np.array([gamma * n_q, 0.0, -0.5 * g])
    try:
        pe, re_s, im_s = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:  # unreachable for gamma > 0
        raise RuntimeError("internal error: singular Bloch steady state") from exc
    return BlochVector(pe=float(pe), s=complex(re_s, im_s))


@dataclass(frozen=True)
class BlochTrajectory:
    """Time series produced by :func:`bloch_integrate`."""

    times: np.ndarray
    pe: np.ndarray
    s: np.ndarray

    @property
    def final(self) -> BlochVector:
        return BlochVector(pe=float(self.pe[-1]), s=complex(self.s[-1]))


def bloch_integrate(
    params: PhysParams,
    delta_of_t,
    state0: BlochVector,
    t_span: tuple[float, float],
    dt: float,
) -> BlochTrajectory:
    """Fixed-step 4th-order integration of the Bloch equations.

    ``delta_of_t`` is the instantaneous detuning as a function of time.  The
    step is refused when it does not resolve the emitter decay.
    """
    if dt > MAX_BLOCH_STEP / params.gamma:
        raise ValueError(
            f"dt={dt:.3g} too large; need dt <= {MAX_BLOCH_STEP}/gamma "
            f"= {MAX_BLOCH_STEP / params.gamma:.3g} to resolve the decay rate"
        )
    t0, t1 = t_span
    if t1 <= t0:
        raise ValueError("t_span must have positive length")
    n_steps = max(1, math.ceil((t1 - t0) / dt - 1e-12))
    h = (t1 - t0) / n_steps

    g, gamma, n_q = params.g, params.gamma, params.n_q
    y = np.array([state0.pe, state0.s.real, state0.s.imag])
    times = np.empty(n_steps + 1)
    pe = np.empty(n_steps + 1)
    s = np.empty(n_steps + 1, dtype=complex)
    times[0], pe[0], s[0] = t0, y[0], complex(y[1], y[2])
    for k in range(n_steps):
        t = t0 + k * h
        k1 = _bloch_rhs(y, delta_of_t(t), g, gamma, n_q)
        k2 = _bloch_rhs(y + 0.5 * h * k1, delta_of_t(t + 0.5 * h), g, gamma, n_q)
        k3 = _bloch_rhs(y + 0.5 * h * k2, delta_of_t(t + 0.5 * h), g, gamma, n_q)
        k4 = _bloch_rhs(y + h * k3, delta_of_t(t + h), g, gamma, n_q)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        times[k + 1] = t0 + (k + 1) * h
        pe[k + 1] = y[0]
        s[k + 1] = complex(y[1], y[2])
    return BlochTrajectory(times=times, pe=pe, s=s)


def bloch_step_batch(
    y: np.ndarray, delta: np.ndarray, params: PhysParams, dt: float, n_sub: int
) -> np.ndarray:
    """Advance a batch of Bloch states by dt using n_sub RK4 substeps.

    The detuning is held fixed during the step; used by the trajectory
    engine when the adiabatic shortcut is disabled.
    """
    h = dt / n_sub
    g, gamma, n_q = params.g, params.gamma, params.n_q
    for _ in range(n_sub):
        k1 = _bloch_rhs(y, delta, g, gamma, n_q)
        k2 = _bloch_rhs(y + 0.5 * h * k1, delta, g, gamma, n_q)
        k3 = _bloch_rhs(y + 0.5 * h * k2, delta, g, gamma, n_q)
        k4 = _bloch_rhs(y + h * k3, delta, g, gamma, n_q)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y
