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
    _is_integer,
    _lane_generators,
    _standard_error,
    _trajectory_seeds,
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

    def __init__(self, dim: int, loss: str):
        suggested = max(dim + 8, int(1.5 * dim))
        super().__init__(f"{loss} at dim={dim}; rerun with dim >= {suggested}")
        self.dim = dim
        self.suggested = suggested


# ---------------------------------------------------------------------------
# Ladder-operator applications via index shifts (the SSE and kernel-form routes).

def _sqrt_ladder(dim: int) -> np.ndarray:
    return np.sqrt(np.arange(1.0, dim))


def destroy_matrix(dim: int) -> np.ndarray:
    """Dense annihilation operator, mostly for tests and assembly."""
    return np.diag(_sqrt_ladder(dim), k=1).astype(complex)


# Every ladder shift is out[i, j] = w x[i + a, j + c], with i on one axis and j
# over the axes after it, flattened: the offset rule of lindblad_generator.
# On the flat axis numpy runs one long contiguous inner loop per state or
# matrix instead of one short loop per row.  A column shift then crosses into
# the next row at the edge column; the weight there is 0, which zeroes that
# entry exactly as the truncated ladder operator does (finite input).

def _span(shift: int, size: int):
    """(output, source) slices of out[p] += w[p] x[p + shift] on an axis of
    ``size``; empty when the shift leaves no overlap."""
    n = max(size - abs(shift), 0)
    lo = max(-shift, 0)
    return slice(lo, lo + n), slice(lo + shift, lo + shift + n)


@functools.lru_cache(maxsize=64)  # bounded: keyed by whole shapes, stack lengths included
def _shift_term(shape: tuple, axis: int, a: int, c: int):
    """(flat, dst, src, w, rest) of a row (a = +-1, c = 0) or column (a = 0,
    c = +-1) shift on ``axis`` of ``shape``, merged with the later axes in ``flat``:
    w weighs each entry of ``dst``, and no source reaches the ``rest``."""
    axis %= len(shape)
    rows, cols = shape[axis], math.prod(shape[axis + 1:])
    shift = a * cols + c
    dst, src = _span(shift, rows * cols)
    # sqrt(max(k, k + a + c)) on the shifted axis, 0 where x[i, j + c] leaves
    # the grid: sqrt(0) at the first column for c = -1, set at the last for c = 1
    lo = max(a, c, 0)
    w = np.sqrt(np.arange(float(lo), (cols if c else rows) + lo))
    if c > 0:
        w[-1:] = 0.0
    w = np.broadcast_to(w if c else w[:, None], (rows, cols)).reshape(-1)[dst]
    w.flags.writeable = False
    rest = slice(dst.stop, None) if shift > 0 else slice(0, dst.start)
    return shape[:axis] + (rows * cols,), dst, src, w, rest


def _shift(x: np.ndarray, axis: int, a: int, c: int) -> np.ndarray:
    """out[i, j] = w x[i + a, j + c], i on ``axis`` and j over the axes after
    it, flattened (see :func:`_shift_term`)."""
    flat, dst, src, w, rest = _shift_term(x.shape, axis, a, c)
    out = np.empty(flat, dtype=x.dtype)
    np.multiply(w, x.reshape(flat)[..., src], out=out[..., dst])
    out[..., rest] = 0
    return out.reshape(x.shape)


def lower_state(psi: np.ndarray) -> np.ndarray:
    """b |psi> for state arrays shaped (dim, ...)."""
    return _shift(psi, 0, 1, 0)


def raise_state(psi: np.ndarray) -> np.ndarray:
    """b^dagger |psi> for state arrays shaped (dim, ...)."""
    return _shift(psi, 0, -1, 0)


def _b_left(x: np.ndarray) -> np.ndarray:
    """b X on the last two axes."""
    return _shift(x, -2, 1, 0)


def _bdag_left(x: np.ndarray) -> np.ndarray:
    return _shift(x, -2, -1, 0)


def _b_right(x: np.ndarray) -> np.ndarray:
    """X b on the last two axes."""
    return _shift(x, -2, 0, -1)


def _bdag_right(x: np.ndarray) -> np.ndarray:
    return _shift(x, -2, 0, 1)


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
            raise TruncationError(len(self.entries), (
                f"population {self.top_population():.3e} in the top two Fock levels "
                f"exceeds {TRUNCATION_TOL:.0e} of the trace"))


def _check_dim(dim) -> None:
    if not _is_integer(dim) or dim < 1:
        raise ValueError(f"dim must be an integer of at least 1, got {dim!r}")


def coherent_state(dim: int, beta: complex) -> np.ndarray:
    """Normalised coherent-state amplitudes on the truncated space; raises
    :class:`TruncationError` when the truncation loses more than 1e-6 of the
    norm, and ``ValueError`` unless ``dim`` is an integer of at least 1 and
    ``beta`` is finite."""
    _check_dim(dim)
    if not cmath.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    amps = np.empty(dim, dtype=complex)
    amps[0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is redone below
        for k in range(1, dim):
            amps[k] = amps[k - 1] * beta / math.sqrt(k)
    if np.isfinite(amps).all() and abs(beta) < 1e154:  # and |beta|^2 fits a float
        amps *= math.exp(-0.5 * abs(beta) ** 2)
    else:  # beta^k / sqrt(k!) overflowed: each amplitude from its logarithm
        k, r = np.arange(dim), abs(beta)
        log_k_fact = np.cumsum(np.log(np.maximum(k, 1)))
        amps = np.exp(k * math.log(r) - 0.5 * log_k_fact - 0.5 * r * r)
        amps = amps * np.exp(1j * cmath.phase(beta) * k)
    norm = np.linalg.norm(amps)
    if norm < 1.0 - 1e-6:
        raise TruncationError(dim, f"norm {1.0 - norm:.3e} lost to the truncation "
                                   f"exceeds {TRUNCATION_TOL:.0e}")
    return amps / norm


def coherent_density(dim: int, beta: complex) -> np.ndarray:
    amps = coherent_state(dim, beta)
    return np.outer(amps, amps.conj())


def thermal_density(dim: int, n_m: float) -> np.ndarray:
    """Thermal state of ``n_m`` >= 0 quanta (finite, else ``ValueError``),
    renormalised on the truncation; n_m = 0 gives the vacuum.  ``dim`` follows
    :func:`coherent_state`'s rule."""
    _check_dim(dim)
    if not 0.0 <= n_m < math.inf:
        raise ValueError(f"n_m must be finite and >= 0, got {n_m}")
    pops = (n_m / (n_m + 1.0)) ** np.arange(dim)
    return np.diag(pops / pops.sum()).astype(complex)


# ---------------------------------------------------------------------------
# Generators (two independent routes).

def _band(m: np.ndarray, shift: int) -> np.ndarray:
    """m[i, i + shift] for every row i; 0 where i + shift leaves the matrix."""
    v = np.zeros(len(m), dtype=complex)
    d = np.diagonal(m, shift)
    v[max(-shift, 0):][: len(d)] = d
    return v


def lindblad_generator(
    pe: float, decomp: QuadratureDecomposition, params: PhysParams, dim: int
):
    """Master-equation generator assembled from the scattering channels.

    Builds L_s = sqrt(lambda_s) (u_s b + w_s b^dag) and K = -i (Omega n +
    g_m pe (b + b^dag)) - 1/2 sum_s L_s^dag L_s once on the truncated space,
    and returns rhs(x) = K x + x K^dag + sum_s L_s x L_s^dag on the last two
    axes (stacks allowed on leading axes).  L_s is tridiagonal and K
    pentadiagonal, so rhs reads only the neighbours x[i + a, j + c] with
    |a|, |c| <= 2: one shift of the flattened matrix per offset (a, c),
    under (dim * dim) weights that are 0 where the neighbour falls outside
    the truncation, which also cuts the entries that wrap into the next row.
    A band that is 0 throughout is left out.
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
    # from the jumps, K[i, i + a] from K x, and K[i, i] + conj(K[j, j]) at (0, 0)
    weights = [((0, c), np.broadcast_to(k_bands[c].conj(), (dim, dim)))
               for c in (-2, -1, 1, 2)]
    weights += [((a, c), sum(np.outer(l[a], l[c].conj()) for l in ell_bands))
                for a in (-1, 1) for c in (-1, 1)]
    weights += [((a, 0), np.broadcast_to(k_bands[a][:, None], (dim, dim)))
                for a in (-2, -1, 1, 2)]
    diag = k_bands[0][:, None] + k_bands[0].conj()
    flat_terms = []
    for (a, c), w in weights:
        dst, src = _span(a * dim + c, dim * dim)
        w = w.reshape(-1)[dst]
        if w.any():
            flat_terms.append((dst, src, w))

    def rhs(x: np.ndarray) -> np.ndarray:
        out = np.multiply(diag, x, order="C")  # so that out_flat is a view
        flat = x.shape[:-2] + (dim * dim,)
        out_flat, x_flat = out.reshape(flat), x.reshape(flat)
        for dst, src, w in flat_terms:
            part = out_flat[..., dst]
            part += w * x_flat[..., src]
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

    Uses the anomalous superoperator A[X] rho = X rho X - {X^2, rho}/2 for the
    s2 terms; serves as the independent counterpart of :func:`lindblad_rhs` in
    equivalence tests.  An ``x`` that is not square raises ``ValueError``.
    """
    if np.ndim(x) < 2 or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"x must be square on its last two axes, got shape {np.shape(x)}")
    s0, s2 = kernels.s0, kernels.s2
    # -i [Omega n + force (b + b^dag), X]
    n_left, n_right = np.arange(x.shape[-2])[:, None], np.arange(x.shape[-1])
    comm = params.Omega * (n_left * x - n_right * x)
    force = params.g_m * pe
    if force != 0.0:
        comm += force * (_b_left(x) + _bdag_left(x) - _b_right(x) - _bdag_right(x))
    out = -1j * comm

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
    mean_b, mean_n, mean_b2 = (np.asarray(x) for x in (mean_b, mean_n, mean_b2))
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
    if not _is_integer(record_stride) or record_stride < 1 or steps % record_stride != 0:
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
    if rho.ndim != 2 or not 0 < rho.shape[0] == rho.shape[1]:
        raise ValueError(f"rho0 must be a square (dim, dim) matrix, got shape {rho.shape}")
    dim = rho.shape[0]

    times, states, moments = [], [], []

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
    # RK4 for a linear rhs L, in Horner form x + h L (x + h/2 L (x + h/3 L (x + h/4 L x))):
    # the degree-4 Taylor polynomial of exp(h L) x, holding one stage at a time
    y = x + (h / 4.0) * rhs(x)
    y = x + (h / 3.0) * rhs(y)
    y = x + (h / 2.0) * rhs(y)
    return x + h * rhs(y)


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
    one Euler-Maruyama step per dt, followed by explicit renormalisation; a sink
    scales the normals ``_draw_window_noise`` draws per chunk to (dW_+, dW_-) =
    (x0 + i x1, x2 + i x3) sqrt(dt / 2).  Returns per-trajectory lab-frame moments.
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
    gens = _lane_generators(seeds)
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
    noise = np.empty((2, chunk, n), dtype=complex)  # (dW_+, dW_-) of a chunk's steps

    def fill(lo, hi, x):
        noise[:, : x.shape[1], lo:hi] = np.multiply(x, math.sqrt(0.5 * h), out=x).view(complex).T

    zc, z = zs = np.empty((2, n), dtype=complex)  # conj(z) and z of the step
    levels = np.arange(dim, dtype=float)
    s2 = np.sqrt(levels[2:] * (levels[2:] - 1.0))[:, None]
    record(0.0)
    for w in range(n_windows):
        dec = schedule[w].decomp
        lam = np.array([dec.lambda_plus, dec.lambda_minus])
        ch = np.array([dec.v_plus, dec.v_minus])  # rows: channels; columns: u, w
        # h/2 g, g = [[g_uu, g_uw], [g_wu, g_ww]] with g_uw = sum_s lam_s u_s
        # conj(w_s) etc.; mix @ dW = sum_s sqrt(lam_s) (u_s, w_s) dW_s
        half_hg = (0.5 * h) * (ch.T @ (lam[:, None] * ch.conj()))
        mix = (np.sqrt(lam)[:, None] * ch).T
        force_h = 1j * g_m * schedule[w].pe * h
        # -h/2 sum_s lam_s L_s^dag L_s: q0 on the diagonal (truncated b b^dag is
        # 0 on the top level) and q2 conj(ph)^2 on the b^dag^2 diagonal
        q0 = -(half_hg[0, 0].real * levels + half_hg[1, 1].real * np.roll(levels, -1))[:, None]
        q2 = -half_hg[1, 0] * s2
        q2c = np.conjugate(q2)
        for j in range(steps):
            if j % chunk == 0:
                _draw_window_noise(gens, min(chunk, steps - j), fill)
            c = mix @ noise[:, j % chunk]  # (nu, nw)
            t = (w * steps + j) * h
            ph = cmath.exp(-1j * omega * t)
            phc = ph.conjugate()
            bpsi = lower_state(psi)
            bdpsi = raise_state(psi)
            # psi' = c_psi psi + ph c_0 b psi + conj(ph) c_1 b^dag psi - h/2 P psi, with
            # L_s = u_s ph b + w_s conj(ph) b^dag, z = ph <b>, c = (nu, nw) + pre - force_h
            # for pre = h g zs, and c_psi = 1 - zs[::-1] . ((nu, nw) + pre / 2)
            np.multiply(ph, np.vecdot(psi, bpsi, axis=0), out=z)
            np.conjugate(z, out=zc)
            half = half_hg @ zs
            c += half
            new = (1.0 - z * c[0] - zc * c[1] + q0) * psi
            c += half
            c -= force_h
            new += (ph * c[0]) * bpsi
            new += (phc * c[1]) * bdpsi
            new[2:] += (q2 * (phc * phc)) * psi[:-2]
            new[:-2] += (q2c * (ph * ph)) * psi[2:]
            psi = new
            norms = np.sqrt(np.vecdot(psi, psi, axis=0).real)
            drift = np.abs(norms - 1.0).max()
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
    """Average ``n_traj`` >= 1 unraveling trajectories from the amplitude array
    ``psi0`` (of finite, nonzero norm; normalised here), trajectory i seeded by
    ``derive_trajectory_seed(master_seed, i)``, both integers (numpy's too).  ``dt``
    must divide the window and ``record_stride`` the steps per window; one
    trajectory gives zero standard errors, and its mean is that trajectory."""
    seeds = _trajectory_seeds(n_traj, master_seed)
    if np.ndim(psi0) != 1:
        raise ValueError(f"psi0 must be a 1-D array, got shape {np.shape(psi0)}")
    norm = np.linalg.norm(psi0)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"psi0 must have a finite, positive norm, got {norm}")
    amps = psi0 / norm
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
