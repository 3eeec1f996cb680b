"""Population-fluctuation spectrum of the driven emitter and noise kernels.

The spectrum S_t(omega) of emitter population fluctuations is computed with
the quantum regression theorem from the 3x3 generator of the zero-temperature
Bloch dynamics, evaluated at the instantaneous detuning.  Averaging its real
part at zero frequency over one mechanical period, with and without a phase
factor at twice the mechanical frequency, yields the two kernels (s0, s2)
that drive the mechanical quadrature scattering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bloch import BlochVector, PhysParams, bloch_steady_state

# Trapezoid panels per window of the engine's kernels (panel_kernels).
WINDOW_PANELS = 64


class UnsupportedConfigError(ValueError):
    """Raised for configurations outside the implemented regime."""


@dataclass(frozen=True)
class NoiseKernels:
    """Windowed noise kernels over one coarse-graining window.

    ``s0`` is the window average of twice the zero-frequency spectrum
    (real, non-negative); ``s2`` the same average weighted by
    exp(-2i Omega t') (complex, |s2| <= s0).
    """

    s0: float
    s2: complex

    def __post_init__(self) -> None:
        scale = max(abs(self.s0), 1.0)
        # each check is written so that NaN fails it
        if not -1e-12 * scale <= self.s0 < np.inf:
            raise ValueError(f"s0 must be finite and non-negative, got {self.s0}")
        if not abs(self.s2) <= self.s0 * (1.0 + 1e-9) + 1e-300:
            raise ValueError(
                f"|s2|={abs(self.s2):.6g} exceeds s0={self.s0:.6g}; "
                "kernels are not a valid window average"
            )


def _require_zero_occupation(params: PhysParams) -> None:
    if params.n_q != 0:
        raise UnsupportedConfigError(
            "the regression generator is only implemented for n_q = 0; "
            f"got n_q = {params.n_q}"
        )


def qrt_matrix(params: PhysParams, delta: float) -> np.ndarray:
    """3x3 generator of centred (population, raising, lowering) correlators."""
    _require_zero_occupation(params)
    g, gamma = params.g, params.gamma
    return np.array(
        [
            [-gamma, -1j * g, 1j * g],
            [-0.5j * g, 1j * delta - 0.5 * gamma, 0.0],
            [0.5j * g, 0.0, -1j * delta - 0.5 * gamma],
        ],
        dtype=complex,
    )


def g_vector(steady: BlochVector) -> np.ndarray:
    """Initial correlator vector built from the steady emitter state."""
    sz = 2.0 * steady.pe - 1.0
    s = steady.s
    return np.array(
        [
            1.0 - sz**2,
            -np.conjugate(s) * (1.0 + sz),
            s * (1.0 - sz),
        ],
        dtype=complex,
    )


def spectrum_qrt(params: PhysParams, delta: float, omega: float) -> complex:
    """Population fluctuation spectrum S(omega) via the regression theorem."""
    a = qrt_matrix(params, delta)
    steady = bloch_steady_state(params, delta)
    gvec = g_vector(steady)
    try:
        x = np.linalg.solve(1j * omega * np.eye(3) + a, gvec)
    except np.linalg.LinAlgError as exc:  # unreachable for gamma > 0, real omega
        raise RuntimeError("internal error: singular regression system") from exc
    return complex(-0.25 * params.g_m**2 * x[0])


def spectrum_closed_form(params: PhysParams, delta):
    """Closed form of Re S(0) at detuning ``delta`` (scalar or array).

    Vanishes for an undriven emitter and decays as delta**-4 at large
    detuning; non-negative everywhere.
    """
    _require_zero_occupation(params)
    g, gamma, g_m = params.g, params.gamma, params.g_m
    delta = np.asarray(delta, dtype=float)
    num = g_m**2 * g**2 * (4.0 * delta**2 + gamma**2) * (g**2 + 2.0 * gamma**2)
    den = gamma * (4.0 * delta**2 + 2.0 * g**2 + gamma**2) ** 3
    out = num / den
    if out.ndim == 0:
        return float(out)
    return out


def panel_kernels(params: PhysParams, delta, phases):
    """Window kernels (s0, s2) by the trapezoid rule on equal panels.

    ``delta`` holds the detuning on the closed panel grid along its last axis
    (leading axes are lanes); ``phases`` holds exp(-2i Omega t') on that grid.
    Sums run over the last axis only, so a lane's kernels do not depend on
    the batch it runs in.
    """
    panels = np.shape(delta)[-1] - 1
    w = np.ones(panels + 1) / panels
    w[0] = w[-1] = 0.5 / panels
    f = 2.0 * spectrum_closed_form(params, delta)
    return np.sum(f * w, axis=-1), np.sum(f * (phases * w), axis=-1)


def steps_in_window(window: float, step: float, name: str) -> int:
    """Steps of length ``step`` in ``window``; a ``ValueError`` names ``name``
    unless ``step`` is positive and divides the window to 1e-9 relative."""
    if not step > 0:
        raise ValueError(f"{name} must be positive")
    ratio = window / step
    count = round(ratio)
    if count < 1 or abs(ratio - count) > 1e-9 * ratio:
        raise ValueError(f"{name}={step:.6g} must divide the window {window:.6g}")
    return count

