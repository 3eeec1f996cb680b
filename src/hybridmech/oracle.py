"""Brute-force validation backends on a truncated Fock space.

Two independent routes integrate the mechanical master equation: one built
from the diagonalised scattering channels (lambda_+/-, b_+/-), one directly
from the (s0, s2, Gamma, n_m) form with the anomalous two-photon
superoperator.  A full stochastic wave-function unraveling of the same
master equation provides the Monte Carlo cross-check for the Gaussian-moment
trajectory engine.  All of it is desk-scale machinery, dimension a few
tens: the channel route assembles K and L_s as matrices once per window and
applies their bands as weighted index shifts, the kernel form and the
unraveling apply the ladder operators as index shifts.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bloch import PhysParams
from .lindblad import QuadratureDecomposition
from .spectrum import NoiseKernels, steps_in_window
from .trajectory import (
    WindowCoefficients,
    _draw_window_noise,
    _standard_error,
    derive_trajectory_seed,
    resolve_windows,
)

TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-10
POSITIVITY_TOL = 1e-7
TRUNCATION_TOL = 1e-6
SSE_NORM_TOL = 1e-3
SSE_NOISE_CHUNK = 512  # steps of Wiener increments the unraveling draws at once


class TruncationError(RuntimeError):
    """Fock-space truncation too small for the requested evolution."""

    def __init__(self, dim: int, population: float):
        suggested = max(dim + 8, int(1.5 * dim))
        super().__init__(
            f"population {population:.3e} in the top two Fock levels exceeds "
            f"{TRUNCATION_TOL:.0e} of the trace at dim={dim}; "
            f"rerun with dim >= {suggested}"
        )
        self.dim = dim
        self.suggested = suggested


# ---------------------------------------------------------------------------
# Ladder-operator applications via index shifts (the SSE and kernel-form routes).

def _sqrt_ladder(dim: int) -> np.ndarray:
    return np.sqrt(np.arange(1.0, dim))


def destroy_matrix(dim: int) -> np.ndarray:
    """Dense annihilation operator, mostly for tests and assembly."""
    return np.diag(_sqrt_ladder(dim), k=1).astype(complex)


# The shifts below flatten the shifted axis and those after it into one, so
# that numpy runs one long contiguous inner loop per state or matrix instead
# of one short loop per row.  A shift along a row of a matrix then crosses
# into the next row at the edge column; the weight there is 0, which zeroes
# that entry exactly as the truncated ladder operator does (finite input).

@functools.lru_cache(maxsize=None)
def _flat_weights(kind: str, rows: int, cols: int) -> np.ndarray:
    if kind == "left":  # sqrt(i + 1) for every entry of row i < rows - 1
        w = np.repeat(_sqrt_ladder(rows), cols)
    elif kind == "right":  # sqrt(j) at column j, j >= 1 of the output
        w = np.tile(np.concatenate(([0.0], _sqrt_ladder(cols))), rows)[1:]
    else:  # "right_dag": sqrt(j + 1) at column j < cols - 1 of the output
        w = np.tile(np.concatenate((_sqrt_ladder(cols), [0.0])), rows)[:-1]
    w.flags.writeable = False
    return w


def _flat_pair(x: np.ndarray, axis: int):
    """A new array shaped as x, and flat views of it and of x: ``axis`` holds
    the rows, and the axes after it, flattened, the columns."""
    rows, cols = x.shape[axis], math.prod(x.shape[axis + 1:])
    flat = x.shape[:axis] + (rows * cols,)
    out = np.empty(x.shape, dtype=x.dtype)
    return out, out.reshape(flat), x.reshape(flat), rows, cols


def _row_shift(x: np.ndarray, axis: int, lower: bool) -> np.ndarray:
    """b (``lower``) or b^dagger applied along ``axis`` of x."""
    out, of, xf, rows, cols = _flat_pair(x, axis)
    w = _flat_weights("left", rows, cols)
    if lower:
        np.multiply(w, xf[..., cols:], out=of[..., :-cols])
        of[..., -cols:] = 0
    else:
        np.multiply(w, xf[..., :-cols], out=of[..., cols:])
        of[..., :cols] = 0
    return out


def lower_state(psi: np.ndarray) -> np.ndarray:
    """b |psi> for state arrays shaped (dim, ...)."""
    return _row_shift(psi, 0, lower=True)


def raise_state(psi: np.ndarray) -> np.ndarray:
    """b^dagger |psi> for state arrays shaped (dim, ...)."""
    return _row_shift(psi, 0, lower=False)


def _b_left(x: np.ndarray) -> np.ndarray:
    """b X on the last two axes."""
    return _row_shift(x, -2, lower=True)


def _bdag_left(x: np.ndarray) -> np.ndarray:
    return _row_shift(x, -2, lower=False)


def _b_right(x: np.ndarray) -> np.ndarray:
    """X b on the last two axes."""
    out, of, xf, rows, cols = _flat_pair(x, -2)
    np.multiply(_flat_weights("right", rows, cols), xf[..., :-1], out=of[..., 1:])
    of[..., 0] = 0
    return out


def _bdag_right(x: np.ndarray) -> np.ndarray:
    out, of, xf, rows, cols = _flat_pair(x, -2)
    np.multiply(_flat_weights("right_dag", rows, cols), xf[..., 1:], out=of[..., :-1])
    of[..., -1] = 0
    return out


def _number_left(x: np.ndarray) -> np.ndarray:
    n = np.arange(x.shape[-2])
    return n[:, None] * x


def _number_right(x: np.ndarray) -> np.ndarray:
    n = np.arange(x.shape[-1])
    return n[None, :] * x


# ---------------------------------------------------------------------------
# States are plain arrays; a master run records validated density matrices.

@dataclass
class FockDensityMatrix:
    """Recorded truncated-Fock density matrix with invariant checks."""

    entries: np.ndarray
    t: float = 0.0

    def trace_defect(self) -> float:
        return abs(np.trace(self.entries) - 1.0)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.entries - self.entries.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(0.5 * (self.entries + self.entries.conj().T))[0])

    def top_population(self) -> float:
        """Population in the top two Fock levels, relative to the trace."""
        pops = np.real(np.diagonal(self.entries))
        return float(np.sum(pops[-2:]) / max(np.real(np.trace(self.entries)), 1e-300))

    def validate(self) -> None:
        """Check the invariants in turn; a NaN fails the first check it meets."""
        if not self.trace_defect() <= TRACE_TOL:
            raise RuntimeError(f"trace drifted by {self.trace_defect():.3e} at t={self.t}")
        if not self.hermiticity_defect() <= HERMITICITY_TOL:
            raise RuntimeError(
                f"hermiticity defect {self.hermiticity_defect():.3e} at t={self.t}"
            )
        if not self.min_eigenvalue() >= -POSITIVITY_TOL:
            raise RuntimeError(
                f"negative eigenvalue {self.min_eigenvalue():.3e} at t={self.t}"
            )
        if not self.top_population() <= TRUNCATION_TOL:
            raise TruncationError(len(self.entries), self.top_population())


def coherent_state(dim: int, beta: complex) -> np.ndarray:
    """Normalised coherent-state amplitudes on the truncated space; raises
    :class:`TruncationError` when the truncation loses more than 1e-6 of the
    norm."""
    amps = np.empty(dim, dtype=complex)
    amps[0] = 1.0
    for k in range(1, dim):
        amps[k] = amps[k - 1] * beta / math.sqrt(k)
    amps *= math.exp(-0.5 * abs(beta) ** 2)
    norm = np.linalg.norm(amps)
    if norm < 1.0 - 1e-6:
        raise TruncationError(dim, 1.0 - norm**2)
    return amps / norm


def coherent_density(dim: int, beta: complex) -> np.ndarray:
    amps = coherent_state(dim, beta)
    return np.outer(amps, amps.conj())


def thermal_density(dim: int, n_m: float) -> np.ndarray:
    """Thermal state, renormalised on the truncation."""
    if n_m <= 0:
        pops = np.zeros(dim)
        pops[0] = 1.0
    else:
        ratio = n_m / (n_m + 1.0)
        pops = ratio ** np.arange(dim)
        pops /= pops.sum()
    return np.diag(pops).astype(complex)


# ---------------------------------------------------------------------------
# Generators (two independent routes).

def _hamiltonian_part(x: np.ndarray, omega: float, force: float) -> np.ndarray:
    """-i [Omega n + force (b + b^dag), X] acting on the last two axes."""
    comm = omega * (_number_left(x) - _number_right(x))
    if force != 0.0:
        comm = comm + force * (
            _b_left(x) + _bdag_left(x) - _b_right(x) - _bdag_right(x)
        )
    return -1j * comm


def _band(m: np.ndarray, shift: int) -> np.ndarray:
    """m[i, i + shift] for every row i; 0 where i + shift leaves the matrix."""
    v = np.zeros(len(m), dtype=complex)
    d = np.diagonal(m, shift)
    v[max(-shift, 0):][: len(d)] = d
    return v


def _span(shift: int, size: int):
    """(output, source) slices of out[p] += w[p] x[p + shift] on an axis of
    ``size``; None when the shift leaves no overlap."""
    n = size - abs(shift)
    if n <= 0:
        return None
    lo = max(-shift, 0)
    return slice(lo, lo + n), slice(lo + shift, lo + shift + n)


def lindblad_generator(
    pe: float, decomp: QuadratureDecomposition, params: PhysParams, dim: int
):
    """Master-equation generator assembled from the scattering channels.

    Builds L_s = sqrt(lambda_s) (u_s b + w_s b^dag) and K = -i (Omega n +
    g_m pe (b + b^dag)) - 1/2 sum_s L_s^dag L_s once on the truncated space,
    and returns rhs(x) = K x + x K^dag + sum_s L_s x L_s^dag on the last two
    axes (stacks allowed on leading axes).  L_s is tridiagonal and K
    pentadiagonal, so rhs reads only the neighbours x[i + a, j + c] with
    |a|, |c| <= 2: one weighted shift per offset (a, c), with weight 0 where
    the neighbour falls outside the truncation.  The row shifts of K x weigh
    whole rows and keep (dim, 1) weights; the other offsets shift the
    flattened matrix under (dim * dim) weights, whose zeros also cut the
    entries that wrap into the next row.  A band that is 0 throughout is
    left out.
    """
    b = destroy_matrix(dim)
    bd = b.conj().T
    lams, vecs = (decomp.lambda_plus, decomp.lambda_minus), (decomp.v_plus, decomp.v_minus)
    ells = [math.sqrt(lam) * (u * b + w * bd) for lam, (u, w) in zip(lams, vecs)]
    ham = params.Omega * np.diag(np.arange(dim, dtype=complex)) + params.g_m * pe * (b + bd)
    k = -1j * ham - 0.5 * sum(ell.conj().T @ ell for ell in ells)
    k_bands = {a: _band(k, a) for a in range(-2, 3)}
    ell_bands = [{a: _band(ell, a) for a in (-1, 1)} for ell in ells]

    # weight of x[i + a, j + c] in rhs(x)[i, j], on the (i, j) grid:
    # conj(K[j, j + c]) from x K^dag, sum_s L_s[i, i + a] conj(L_s[j, j + c])
    # from the jumps, and K[i, i] + conj(K[j, j]) at (0, 0)
    weights = [((0, c), np.broadcast_to(k_bands[c].conj(), (dim, dim)))
               for c in (-2, -1, 1, 2)]
    weights += [((a, c), sum(np.outer(l[a], l[c].conj()) for l in ell_bands))
                for a in (-1, 1) for c in (-1, 1)]
    diag = k_bands[0][:, None] + k_bands[0].conj()
    flat_terms = []
    for (a, c), w in weights:
        span = _span(a * dim + c, dim * dim)
        w = w.reshape(-1)
        if span is not None and w.any():
            flat_terms.append((*span, w[span[0]]))
    row_terms = []  # K[i, i + a] x[i + a, j]
    for a in (-2, -1, 1, 2):
        span = _span(a, dim)
        if span is not None and k_bands[a].any():
            row_terms.append((*span, k_bands[a][span[0], None]))

    def rhs(x: np.ndarray) -> np.ndarray:
        out = np.multiply(diag, x, order="C")  # so that out_flat is a view
        flat = x.shape[:-2] + (dim * dim,)
        out_flat, x_flat = out.reshape(flat), x.reshape(flat)
        for dst, src, w in flat_terms:
            part = out_flat[..., dst]
            part += w * x_flat[..., src]
        for dst, src, w in row_terms:
            part = out[..., dst, :]
            part += w * x[..., src, :]
        return out

    return rhs


def lindblad_rhs(
    rho: np.ndarray, pe: float, decomp: QuadratureDecomposition, params: PhysParams
) -> np.ndarray:
    """One evaluation of :func:`lindblad_generator` (stacks allowed on
    leading axes)."""
    return lindblad_generator(pe, decomp, params, rho.shape[-1])(rho)


def kernel_form_rhs(
    x: np.ndarray,
    pe: float,
    Gamma: float,
    n_m: float,
    kernels: NoiseKernels,
    params: PhysParams,
) -> np.ndarray:
    """Same generator written directly from (s0, s2, Gamma, n_m).

    Uses the anomalous superoperator A[X] rho = X rho X - {X^2, rho}/2 for
    the s2 terms; serves as the independent counterpart of
    :func:`lindblad_rhs` in equivalence tests.
    """
    s0, s2 = kernels.s0, kernels.s2
    out = _hamiltonian_part(x, params.Omega, params.g_m * pe)

    rate_down = Gamma * (n_m + 1.0) + s0
    rate_up = Gamma * n_m + s0
    # D[b]; operator products composed on the truncated space throughout
    out = out + rate_down * (
        _bdag_right(_b_left(x))
        - 0.5 * (_bdag_left(_b_left(x)) + _b_right(_bdag_right(x)))
    )
    # D[b^dag]
    out = out + rate_up * (
        _b_right(_bdag_left(x))
        - 0.5 * (_b_left(_bdag_left(x)) + _bdag_right(_b_right(x)))
    )
    if s2 != 0:
        b_x_b = _b_right(_b_left(x))
        b2_x = _b_left(_b_left(x))
        x_b2 = _b_right(_b_right(x))
        out = out + s2 * (b_x_b - 0.5 * (b2_x + x_b2))
        bd_x_bd = _bdag_right(_bdag_left(x))
        bd2_x = _bdag_left(_bdag_left(x))
        x_bd2 = _bdag_right(_bdag_right(x))
        out = out + np.conjugate(s2) * (bd_x_bd - 0.5 * (bd2_x + x_bd2))
    return out


def superoperator(apply_fn, dim: int) -> np.ndarray:
    """Matrix of a superoperator in the flattened matrix-unit basis."""
    basis = np.eye(dim * dim, dtype=complex).reshape(dim * dim, dim, dim)
    images = apply_fn(basis)
    return images.reshape(dim * dim, dim * dim).T


# ---------------------------------------------------------------------------
# Moment utilities.

@dataclass(frozen=True)
class MomentSeries:
    """Time series of the first and second mechanical moments."""

    times: np.ndarray
    b: np.ndarray
    n: np.ndarray
    b2: np.ndarray


def moments_from_density(x: np.ndarray):
    """(⟨b⟩, ⟨b†b⟩, ⟨b²⟩) from a density matrix."""
    dim = x.shape[-1]
    s1 = _sqrt_ladder(dim)
    ks = np.arange(dim)
    mean_b = complex(np.sum(s1 * np.diagonal(x, offset=-1)))
    mean_n = float(np.real(np.sum(ks * np.diagonal(x))))
    s2 = np.sqrt(ks[2:] * (ks[2:] - 1.0))
    mean_b2 = complex(np.sum(s2 * np.diagonal(x, offset=-2)))
    return mean_b, mean_n, mean_b2


def moments_from_state(psi: np.ndarray):
    """(⟨b⟩, ⟨b†b⟩, ⟨b²⟩) per column of a normalised state array (dim, n)."""
    bpsi = lower_state(psi)
    mean_b = np.sum(np.conjugate(psi) * bpsi, axis=0)
    mean_n = np.real(np.sum(np.abs(bpsi) ** 2, axis=0))
    mean_b2 = np.sum(np.conjugate(psi) * lower_state(bpsi), axis=0)
    return mean_b, mean_n, mean_b2


def quadrature_variances(mean_b, mean_n, mean_b2):
    """Ensemble variances of X = (b+b†)/√2 and P = (b−b†)/(i√2)."""
    mean_b = np.asarray(mean_b)
    mean_n = np.asarray(mean_n)
    mean_b2 = np.asarray(mean_b2)
    var_x = np.real(mean_b2) + mean_n + 0.5 - 2.0 * np.real(mean_b) ** 2
    var_p = -np.real(mean_b2) + mean_n + 0.5 - 2.0 * np.imag(mean_b) ** 2
    return var_x, var_p


# ---------------------------------------------------------------------------
# Master-equation integrator.

@dataclass(frozen=True)
class MasterResult:
    """Recorded density matrices and their moments."""

    times: np.ndarray
    states: list
    moments: MomentSeries


def _window_plan(
    params: PhysParams,
    duration: float,
    dt: float,
    schedule: Sequence[WindowCoefficients] | None,
    record_stride: int,
):
    """(windows, steps per window, step) of an oracle run on ``schedule``."""
    if schedule is None:
        raise ValueError("kernel_schedule is required: the oracles follow a schedule")
    n_windows, window = resolve_windows(params, duration, schedule)
    steps = steps_in_window(window, dt, "dt")
    if record_stride < 1 or steps % record_stride != 0:
        raise ValueError("record_stride must be a positive divisor of the window's steps")
    return n_windows, steps, window / steps


def integrate_master(
    params: PhysParams,
    rho0: np.ndarray,
    duration: float,
    dt: float,
    kernel_schedule: Sequence[WindowCoefficients],
    *,
    record_stride: int = 16,
) -> MasterResult:
    """Fourth-order integration of the mechanical master equation from the
    ``(dim, dim)`` density matrix ``rho0`` over ``duration`` > 0.

    The scattering data and the population follow ``kernel_schedule``, the
    frozen per-window sequence the trajectory engine consumes; the windows
    partition ``duration`` evenly, and ``dt`` must divide the window.
    ``record_stride``, the steps between records, must divide the steps per
    window.  Each window starts with a step-halving probe of its generator,
    which raises ``ValueError`` when one step of ``dt`` is off by more than
    1e-6.  State invariants are validated at every record; a failing
    truncation-health check raises with a suggested size.
    """
    _, steps, h = _window_plan(params, duration, dt, kernel_schedule, record_stride)

    rho = np.array(rho0, dtype=complex)
    dim = rho.shape[0]

    times = []
    states = []
    moments = []

    def record(t):
        snap = FockDensityMatrix(rho.copy(), t)
        snap.validate()
        times.append(t)
        states.append(snap)
        moments.append(moments_from_density(rho))

    record(0.0)
    for w, coeffs in enumerate(kernel_schedule):
        rhs = None  # release the previous window's generator before building
        rhs = lindblad_generator(coeffs.pe, coeffs.decomp, params, dim)
        # step-halving accuracy probe on this window's generator
        local_err = float(np.max(np.abs(
            _rk4_step(rho, h, rhs) - _rk4_step(_rk4_step(rho, 0.5 * h, rhs), 0.5 * h, rhs)
        )))
        if not local_err <= 1e-6:
            raise ValueError(
                f"dt={dt:.3g} fails the step-halving accuracy check in window {w} "
                f"(local error {local_err:.2e}); reduce dt"
            )
        for j in range(steps):
            rho = _rk4_step(rho, h, rhs)
            gstep = w * steps + j + 1
            if gstep % record_stride == 0:
                rho = 0.5 * (rho + rho.conj().T)
                record(gstep * h)

    times_arr = np.array(times)
    mb, mn, mb2 = (np.array(m) for m in zip(*moments))
    return MasterResult(times_arr, states, MomentSeries(times_arr, mb, mn, mb2))


def _rk4_step(x, h, rhs):
    # k1 + 2 k2 + 2 k3 + k4 summed in place, left to right, so that no more
    # than two stages are held at once
    acc = rhs(x)
    k = rhs(x + 0.5 * h * acc)
    acc += 2.0 * k
    k = rhs(x + 0.5 * h * k)
    acc += 2.0 * k
    acc += rhs(x + h * k)
    return x + (h / 6.0) * acc


# ---------------------------------------------------------------------------
# Stochastic wave-function unraveling.

def _sse_batch(
    params: PhysParams,
    psi0: np.ndarray,
    duration: float,
    dt: float,
    seeds: Sequence[int],
    schedule: Sequence[WindowCoefficients],
    record_stride: int,
):
    """Normalised state-diffusion trajectories in the interaction picture.

    The free rotation is removed exactly by time-dependent channel
    coefficients; the remaining drift, drift-restoration and noise terms take
    one Euler-Maruyama step per dt, followed by explicit renormalisation.
    Returns per-trajectory moment arrays in the lab frame.
    """
    n_windows, steps, h = _window_plan(params, duration, dt, schedule, record_stride)
    lam_max = max(wc.decomp.lambda_plus for wc in schedule)
    if h * lam_max > 1e-3 + 1e-12:
        raise ValueError(
            f"dt*lambda_plus = {h * lam_max:.3g} too large for the unraveling; "
            "need <= 1e-3"
        )
    n = len(seeds)
    dim = psi0.shape[0]
    psi = np.tile(psi0[:, None], (1, n)).astype(complex)
    gens = [np.random.Generator(np.random.PCG64(int(s))) for s in seeds]
    omega, g_m = params.Omega, params.g_m

    n_rec = n_windows * steps // record_stride + 1
    out_b = np.empty((n, n_rec), dtype=complex)
    out_n = np.empty((n, n_rec))
    out_b2 = np.empty((n, n_rec), dtype=complex)
    times = np.empty(n_rec)
    i_rec = 0

    def record(t):
        nonlocal i_rec
        mb, mn, mb2 = moments_from_state(psi)
        ph = cmath.exp(-1j * omega * t)
        out_b[:, i_rec] = ph * mb
        out_n[:, i_rec] = mn
        out_b2[:, i_rec] = ph * ph * mb2
        times[i_rec] = t
        i_rec += 1

    chunk = min(SSE_NOISE_CHUNK, steps)
    noise = np.empty((2, chunk, n), dtype=complex)
    levels = np.arange(dim, dtype=float)
    s2 = np.sqrt(levels[2:] * (levels[2:] - 1.0))[:, None]
    record(0.0)
    for w in range(n_windows):
        dec = schedule[w].decomp
        lam = np.array([dec.lambda_plus, dec.lambda_minus])
        ch = np.array([dec.v_plus, dec.v_minus])  # rows: channels; columns: u, w
        # g_uw = sum_s lam_s u_s conj(w_s) etc.; mix @ dW = sum_s sqrt(lam_s) (u_s, w_s) dW_s
        (g_uu, g_uw), (g_wu, g_ww) = ch.T @ (lam[:, None] * ch.conj())
        mix = (np.sqrt(lam)[:, None] * ch).T
        force_h = 1j * g_m * schedule[w].pe * h
        # -h/2 sum_s lam_s L_s^dag L_s: q0 on the diagonal (truncated b b^dag is
        # 0 on the top level) and q2 conj(ph)^2 on the b^dag^2 diagonal
        q0 = (-0.5 * h) * (g_uu.real * levels + g_ww.real * np.roll(levels, -1))[:, None]
        q2 = (-0.5 * h) * g_wu * s2
        for j in range(steps):
            if j % chunk == 0:
                m = min(chunk, steps - j)
                _draw_window_noise(gens, m, h, (noise[0, :m], noise[1, :m]))
            nu, nw = mix @ noise[:, j % chunk]
            t = (w * steps + j) * h
            ph = cmath.exp(-1j * omega * t)
            phc = ph.conjugate()
            bpsi = lower_state(psi)
            bdpsi = raise_state(psi)
            # psi' = c_psi psi + c_b b psi + c_bd b^dag psi - h/2 P psi, with
            # L_s = u_s ph b + w_s conj(ph) b^dag and z = ph <b>
            z = ph * np.sum(np.conjugate(psi) * bpsi, axis=0)
            zc = np.conjugate(z)
            c_b = ph * (h * (g_uu * zc + g_uw * z) + nu - force_h)
            c_bd = phc * (h * (g_wu * zc + g_ww * z) + nw - force_h)
            c_psi = 1.0 - z * nu - zc * nw
            c_psi -= (0.5 * h) * ((g_uu + g_ww).real * abs(z) ** 2 + 2 * (g_uw * z * z).real)
            new = (c_psi + q0) * psi
            new += c_b * bpsi
            new += c_bd * bdpsi
            new[2:] += (q2 * (phc * phc)) * psi[:-2]
            new[:-2] += (np.conjugate(q2) * (ph * ph)) * psi[2:]
            psi = new
            norms = np.sqrt(np.sum(psi.real**2 + psi.imag**2, axis=0))
            drift = np.max(np.abs(norms - 1.0))
            if not drift <= SSE_NORM_TOL:
                bad = int(np.argmax(np.abs(norms - 1.0)))
                raise RuntimeError(
                    f"norm drifted by {drift:.3e} in one step "
                    f"(trajectory {bad}, t={t:.6g}); reduce dt"
                )
            psi *= 1.0 / norms
            gstep = w * steps + j + 1
            if gstep % record_stride == 0:
                record(gstep * h)
    return times, out_b, out_n, out_b2


@dataclass(frozen=True)
class SseEnsemble:
    """Trajectory-averaged moments with Monte Carlo standard errors."""

    moments: MomentSeries
    se_b: np.ndarray
    se_n: np.ndarray
    se_b2: np.ndarray
    n_traj: int


def sse_ensemble(
    params: PhysParams,
    psi0: np.ndarray,
    duration: float,
    dt: float,
    n_traj: int,
    master_seed: int,
    kernel_schedule: Sequence[WindowCoefficients],
    record_stride: int = 16,
) -> SseEnsemble:
    """Average ``n_traj`` >= 1 unraveling trajectories from the amplitude
    array ``psi0`` (of finite, nonzero norm; normalised here), trajectory i
    seeded by ``derive_trajectory_seed(master_seed, i)``.  ``dt`` must divide the window
    and ``record_stride`` the steps per window; one trajectory gives zero
    standard errors, and its mean is that trajectory."""
    if n_traj < 1:
        raise ValueError("n_traj must be at least 1")
    norm = np.linalg.norm(psi0)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"psi0 must have a finite, positive norm, got {norm}")
    amps = psi0 / norm
    seeds = [derive_trajectory_seed(master_seed, i) for i in range(n_traj)]
    times, b, n, b2 = _sse_batch(
        params, amps, duration, dt, seeds, kernel_schedule, record_stride
    )
    means = (x.mean(axis=0) for x in (b, n, b2))
    errors = (_standard_error(x) for x in (b, n, b2))
    return SseEnsemble(MomentSeries(times, *means), *errors, n_traj)


def make_frozen_schedule(
    decomp: QuadratureDecomposition, pe: float, n_windows: int
) -> list[WindowCoefficients]:
    """Repeat one set of scattering data over every window."""
    return [WindowCoefficients(decomp=decomp, pe=pe)] * n_windows
