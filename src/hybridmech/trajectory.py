"""Stochastic Gaussian-moment trajectories of the mechanical oscillator.

Each trajectory tracks a Gaussian mechanical state through its complex
amplitude beta and conditional variances (v_a, v_b).  The engine alternates
two steps per mechanical period: (1) from the induced detuning recorded over
the previous window, build the windowed noise kernels and diagonalise the
dissipation matrix; (2) integrate the moments across the window with the
scattering rates and operators frozen.

The amplitude follows an Euler-Maruyama step driven by two independent
complex Wiener increments, with the free rotation applied as an exact phase
factor.  The variances obey their moment equations, including the quadratic
localisation terms that keep the trajectory variances conditional:
ensemble-averaged first and second moments then reproduce the mechanical
master equation exactly, and pure Gaussian states stay pure along a
trajectory.  With the channel data frozen over a window these equations are
a Riccati equation with constant coefficients, so each window's variances
come exactly, at every step, from the exponential of its 4x4 Hamiltonian
matrix (Radon's lemma) rather than from a step-by-step integration.  On a
given schedule every trajectory starts from the same variances and sees the
same frozen channel data, and the variance equations take no noise, so
scheduled runs propagate one shared variance lane.  Their amplitude step
then has constant coefficients, so the steps between two records compose
into one linear map, whose noise is a 2-D Gaussian drawn exactly from 2
normals per lane (Kloeden and Platen 1992; Gillespie 1996).  A run records
the quantities of ``_RECORDED`` at every stride, beta per trajectory and
the others per variance lane; an ensemble reduces them window by window, and
holds every lane's records only on a schedule.  A run refuses
non-finite initial moments and a ``v_a0`` below ``-ABORT_VA_TOL``.  The
noise-free reference is the last lane of an ensemble's batch: a lane without
generator or channels, damped as the others.

Reproducibility: trajectory i owns ``Generator(PCG64(seed_i))``, seed_i a
SplitMix64 mix of (master seed, i) that numpy's SeedSequence hashes, so the
results do not depend on batch partitioning or execution order.  The
normals are drawn once for all the records of a scheduled run, and without
a schedule once per window, each block of 32 trajectories turned into kicks
as it is drawn, so a window holds no noise rows (``_window_bytes``).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from functools import partial
from typing import Sequence

import numpy as np

from .bloch import (
    PhysParams,
    _expm,
    _matmul,
    bloch_step_batch,
    bloch_steady_state,
    pe_closed_form,
)
from .lindblad import QuadratureDecomposition, eigenpairs
from .spectrum import WINDOW_PANELS, panel_kernels, steps_in_window

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Negative conditional-variance threshold that aborts a trajectory.
ABORT_VA_TOL = 1e-9

# Largest rate * dt allowed for the first-order dissipative and coupling scales.
MAX_RATE_STEP = 0.1

# Steps per block of the exact variance map (a power of two).
_VARIANCE_BLOCK = 32


def _is_integer(value) -> bool:  # a grid count: numpy's integers too, but not a bool
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class TrajectoryAbort(RuntimeError):
    """A trajectory left the physical domain (conditional variance < 0)."""

    def __init__(self, index: int, time: float):
        super().__init__(
            f"trajectory {index} aborted at t={time:.6g}: "
            "conditional variance went negative"
        )
        self.index = index
        self.time = time


class EnsembleAbortError(RuntimeError):
    """More than the tolerated fraction of trajectories aborted."""


def _splitmix64(master_seed: int, positions) -> list[int]:
    """SplitMix64's outputs at ``positions`` of ``master_seed``'s stream; uint64 wraps."""
    z = np.asarray(positions, np.uint64) * _GOLDEN + (master_seed & _MASK64)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return (z ^ (z >> 31)).tolist()


def derive_trajectory_seed(master_seed: int, index: int) -> int:
    """Per-trajectory seed: SplitMix64 output at stream position index+1."""
    return _splitmix64(master_seed, [(index + 1) & _MASK64])[0]


def _trajectory_seeds(n_traj, master_seed) -> list[int]:
    """An ensemble's trajectory seeds; a ``ValueError`` names the argument unless both
    are integers (numpy's too, not a bool) and ``n_traj`` is at least 1."""
    if not _is_integer(n_traj) or n_traj < 1:
        raise ValueError(f"n_traj must be at least 1, and an integer; got {n_traj!r}")
    if not _is_integer(master_seed):
        raise ValueError(f"master_seed must be an integer, got {master_seed!r}")
    return _splitmix64(operator.index(master_seed), np.arange(1, n_traj + 1, dtype=np.uint64))


def _lane_streams(seeds: Sequence[int]):
    """Lane k's ``Generator(PCG64(seeds[k]))`` at ``[k]``, bit for bit, built anew from
    the lane's 4 state words, which one SeedSequence hash (NEP 19) gives every lane at
    once: a lane that draws once holds its generator, about 0.6 KB, only to draw."""
    def hashmix(v, k, init=0x43B0D7E5, mult=0x931E8875):  # by init * mult**k mod 2**32
        c0, c1 = (init * pow(mult, i, 1 << 32) & 0xFFFFFFFF for i in (k, k + 1))
        v = (v ^ c0) * c1
        return v ^ (v >> 16)

    if all(type(s) is int and 0 <= s <= _MASK64 for s in seeds):  # else numpy's own hash
        s = np.array(seeds, dtype=np.uint64)  # 2 entropy words; a missing one hashes as 0
        pool = [hashmix(x.astype("u4"), k) for k, x in enumerate([s, s >> 32, 0 * s, 0 * s])]
        for k, (i, j) in enumerate([(i, j) for i in range(4) for j in range(4) if i != j], 4):
            x = 0xCA01F9DD * pool[j] - 0x4973F715 * hashmix(pool[i], k)
            pool[j] = x ^ (x >> 16)
        words = np.stack([hashmix(pool[k % 4], k, 0x8B51F9DD, 0x58F38DED) for k in range(8)],
                         axis=1).astype("<u4").view("<u8").astype(np.uint64)  # 4 per PCG64
    else:
        words = [np.random.SeedSequence(s).generate_state(4, np.uint64) for s in seeds]

    class Words(int, np.random.bit_generator.ISeedSequence):  # numpy.random loads on use
        def generate_state(self, n_words, dtype=np.uint32):  # lane self's, 4 for a PCG64
            return words[self]

    class Lanes:
        def __len__(self):
            return len(words)

        def __getitem__(self, k):
            return np.random.Generator(np.random.PCG64(Words(k)))

    return Lanes()


def _lane_generators(seeds: Sequence[int]) -> list:
    """Every lane's generator of ``_lane_streams``, for runs that draw again and again."""
    return list(_lane_streams(seeds))


@dataclass(frozen=True)
class WindowCoefficients:
    """Frozen per-window scattering data used in scheduled runs; ``pe``, the
    emitter population, must lie in [0, 1], else ``ValueError``."""

    decomp: QuadratureDecomposition
    pe: float

    def __post_init__(self) -> None:
        if not 0 <= self.pe <= 1:
            raise ValueError(f"pe must lie in [0, 1], got {self.pe}")


@dataclass
class TrajectoryOptions:
    """Tuning knobs of the trajectory engine.

    ``schedule`` switches the engine to scheduled mode: kernels are not
    recomputed, the windows partition the run duration evenly, and the
    population is frozen per window.  Otherwise the two-step loop runs with
    one-period windows and the adiabatic closed-form population.  With
    ``full_bloch`` set, the population comes instead from the Bloch
    equations, advanced by one exact step per engine step with the detuning
    frozen at its value at the start of the step; it excludes a schedule.
    The options own the engine grid, three integers (not bools):
    ``steps_per_window`` must be a positive multiple of the spectrum's
    ``WINDOW_PANELS`` kernel panels, ``record_stride`` a positive divisor of
    it, and ``histogram_bins`` at least 1.  A broken rule, or ``full_bloch``
    with a schedule, makes construction raise a ``ValueError`` whose message
    starts with the field's name.

    ``workers`` has no effect: the batch always runs as one.  It is accepted
    so that older callers and run manifests that set it keep working.
    """

    steps_per_window: int = 256
    record_stride: int = 4
    full_bloch: bool = False
    schedule: Sequence[WindowCoefficients] | None = None
    histogram_bins: int = 41
    histogram_times: Sequence[float] | None = None
    workers: int = 1

    def __post_init__(self) -> None:
        steps, stride, bins = self.steps_per_window, self.record_stride, self.histogram_bins
        if not _is_integer(steps) or steps < 1 or steps % WINDOW_PANELS != 0:
            raise ValueError(f"steps_per_window must be a positive integer multiple of the "
                             f"{WINDOW_PANELS} kernel panels per window, got {steps!r}")
        if not _is_integer(stride) or stride < 1 or steps % stride != 0:
            raise ValueError(f"record_stride must be a positive integer divisor of "
                             f"steps_per_window = {steps}, got {stride!r}")
        if not _is_integer(bins) or bins < 1:
            raise ValueError(f"histogram_bins must be an integer of at least 1, got {bins!r}")
        if self.full_bloch and self.schedule is not None:
            raise ValueError("full_bloch and schedule exclude each other: "
                             "a schedule freezes the population per window")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled time series of one trajectory (or the noise-free reference)."""

    times: np.ndarray
    beta: np.ndarray
    v_a: np.ndarray
    v_b: np.ndarray
    pe: np.ndarray
    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    theta: np.ndarray
    seed: int | None


# each recorded quantity and its dtype; with times and seed, a TrajectoryRecord
_RECORDED = {
    "beta": complex, "v_a": float, "v_b": complex, "pe": float,
    "lambda_plus": float, "lambda_minus": float, "theta": float,
}


@dataclass(frozen=True)
class EnsembleResult:
    """Cross-trajectory statistics on the shared record grid."""

    times: np.ndarray
    mean_beta: np.ndarray
    mean_pe: np.ndarray
    mean_n: np.ndarray
    mean_b2: np.ndarray
    var_dbeta_x: np.ndarray
    var_dbeta_p: np.ndarray
    se_beta: np.ndarray
    se_n: np.ndarray
    se_b2: np.ndarray
    mean_lambda_plus: np.ndarray
    mean_lambda_minus: np.ndarray
    mean_theta: np.ndarray
    histograms: list[tuple[float, np.ndarray, np.ndarray]]
    reference: TrajectoryRecord
    n_traj: int
    master_seed: int
    aborted: list[tuple[int, float]] = field(default_factory=list)


def resolve_windows(
    params: PhysParams,
    duration: float,
    schedule: Sequence[WindowCoefficients] | None,
) -> tuple[int, float]:
    """Number and length of coarse-graining windows for a run.

    Self-scheduled runs use one mechanical period per window, and the
    duration must be a whole number of periods, at least one, to 1e-9
    relative (the rule of ``steps_in_window``); scheduled runs partition the
    duration evenly among the schedule entries.  Otherwise, or for a duration
    that is not positive and finite, ``ValueError``.
    """
    if not 0 < duration < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration}")
    if schedule is None:
        window = params.mechanical_period
        try:
            return steps_in_window(duration, window, "period"), window
        except ValueError:
            raise ValueError(f"duration={duration:.6g} must be a whole number of "
                             f"mechanical periods ({window:.6g})") from None
    if len(schedule) == 0:
        raise ValueError("schedule must contain at least one window")
    return len(schedule), duration / len(schedule)


def _record_times(params: PhysParams, duration: float, options: TrajectoryOptions):
    n_windows, window = resolve_windows(params, duration, options.schedule)
    steps, stride = options.steps_per_window, options.record_stride
    return np.arange(n_windows * (steps // stride) + 1) * stride * (window / steps)


def _check_step(params: PhysParams, window: float, steps: int, lam_max: float) -> None:
    """Step-size preconditions of ``steps`` steps per ``window``: every slow
    scale must be well resolved, else ``ValueError`` naming the smallest
    passing ``steps_per_window``.  The free rotation is applied as an exact
    phase, so Omega only needs mild resolution (force phasing); the
    dissipative and coupling scales are integrated at first order and must
    stay well below a tenth per step.
    """
    dt = window / steps
    rates = {"Omega": params.Omega, "g_m": params.g_m, "lambda_plus": lam_max}
    for name, rate in rates.items():
        if dt * rate > MAX_RATE_STEP + 1e-12:
            raise ValueError(
                f"dt*{name} = {dt * rate:.3g} too large; need <= {MAX_RATE_STEP} "
                "to resolve the slow scales, so steps_per_window >= "
                f"{np.ceil(window * rate / MAX_RATE_STEP):.0f}"
            )


def _riccati_generator(omega, channels):
    """The 4x4 Hamiltonian matrix of one window's variance equations, per lane.

    With W = [[v_a + Re v_b, Im v_b], [Im v_b, v_a - Re v_b]], the quadrature
    covariance minus its vacuum value, the moment equations (localisation
    terms included) are the Riccati equation W' = F + A W + W A^T - W B W.
    A channel (lam, u, w) reads the quadratures through
    C = [[Re s, -Im s], [-Im d, -Re d]], with s = u + conj(w) and
    d = u - conj(w), offset by G = [[Re w, -Im w], [Im w, Re w]]; so
    B = sum lam C^T C, A = A_0 - sum lam G C and F = -sum lam [[Re z, Im z],
    [Im z, -Re z]] with z = conj(u) w, where A_0 holds the rotation Omega and
    the damping.  Returns H = [[A, F], [B, -A^T]], entry-major, the generator
    of [X; Y]' = H [X; Y], whose solutions give W = X Y^-1 (Radon's lemma).
    """
    h = np.zeros((4, 4) + np.shape(channels[0][0]))
    a, f, b = h[:2, :2], h[:2, 2:], h[2:, :2]
    damp = 0.0
    for lam, u, w in channels:
        s, d, z = u + np.conjugate(w), u - np.conjugate(w), np.conjugate(u) * w
        c = np.array([[s.real, -s.imag], [-d.imag, -d.real]])
        g = np.array([[w.real, -w.imag], [w.imag, w.real]])
        b += lam * _matmul(c.swapaxes(0, 1), c)
        a -= lam * _matmul(g, c)
        f -= lam * np.array([[z.real, z.imag], [z.imag, -z.real]])
        damp = damp + lam * (np.abs(u) ** 2 - np.abs(w) ** 2)
    a[0, 0] -= 0.5 * damp
    a[1, 1] -= 0.5 * damp
    a[0, 1] += omega
    a[1, 0] -= omega
    h[2:, 2:] = -a.swapaxes(0, 1)
    return h


def _riccati_map(p, x, y, z):
    """W -> (p_11 W + p_12)(p_21 W + p_22)^-1 on W = [[x, y], [y, z]], for an
    entry-major 4x4 propagator p, elementwise over its broadcast with x, y, z."""
    # columns 0 and 1 of [p_11 W + p_12; p_21 W + p_22], the four rows at once
    col0 = p[:, 0] * x
    col0 += p[:, 1] * y
    col0 += p[:, 2]
    col1 = p[:, 0] * y
    col1 += p[:, 1] * z
    col1 += p[:, 3]
    (x00, x10, y00, y10), (x01, x11, y01, y11) = col0, col1
    det = y00 * y11 - y01 * y10
    return (
        (x00 * y11 - x01 * y10) / det,
        0.5 * ((x01 * y00 - x00 * y01) + (x10 * y11 - x11 * y10)) / det,
        (x11 * y00 - x10 * y01) / det,
    )


def _variance_step(va, vb, dt, steps, omega, lam_p, lam_m, u_p, w_p, u_m, w_m):
    """Exact conditional variances across one window of frozen channel data.

    Returns (steps + 1, lanes) rows of v_a and v_b; row j is the state after
    j steps of length dt.  The one-step propagator exp(dt H) and its powers
    up to _VARIANCE_BLOCK are formed once.  Each block of _VARIANCE_BLOCK
    steps maps its first W by the powers P^0 .. P^_VARIANCE_BLOCK at once and
    fills its rows of v_a and v_b; its last W starts the next block.  Blocks
    keep the powers, whose entries grow like exp(|H| t), close to the
    identity, and W's rows, with their temporaries, to a block's size.
    """
    h = _riccati_generator(omega, ((lam_p, u_p, w_p), (lam_m, u_m, w_m)))
    phi = _expm(dt * h)[:, :, None]
    powers = np.empty((4, 4, _VARIANCE_BLOCK + 1) + np.shape(va))
    powers[:, :, 0], powers[:, :, 1:2] = np.eye(4)[:, :, None], phi
    k = 2
    while k < _VARIANCE_BLOCK:  # P^k .. P^(2k - 1) from P^0 .. P^(k - 1) and P^k
        step = _matmul(powers[:, :, k - 1 : k], phi)
        # one product: at 256 steps its temporary, a window's largest array, lifts
        # glibc's mmap threshold (in products of 4 powers 50 windows faulted 58x)
        powers[:, :, k : 2 * k] = _matmul(powers[:, :, :k], step)
        k *= 2
    powers[:, :, k:] = _matmul(powers[:, :, k - 1 : k], phi)
    va_rows, vb_rows = (np.empty((steps + 1,) + np.shape(va), t) for t in (float, complex))
    w = va + vb.real, vb.imag, va - vb.real  # W's entries
    for start in range(0, steps, _VARIANCE_BLOCK):
        block = slice(start, min(start + _VARIANCE_BLOCK, steps) + 1)
        x, y, z = _riccati_map(powers[:, :, : block.stop - start], *w)
        va_rows[block], vb_rows[block] = 0.5 * (x + z), 0.5 * (x - z) + 1j * y
        w = x[-1], y[-1], z[-1]
    return va_rows, vb_rows


def _sqrt_psd(c):
    """Symmetric roots (c + s I) / t, s = sqrt(det c), t = sqrt(tr c + 2 s) or 1 at
    c = 0, of 2x2 covariances c (..., 2, 2), singular or NaN (Cayley-Hamilton)."""
    s = np.sqrt(np.maximum(c[..., 0, 0] * c[..., 1, 1] - c[..., 0, 1] * c[..., 1, 0], 0.0))
    t = np.sqrt(c[..., 0, 0] + c[..., 1, 1] + 2.0 * s)
    return (c + s[..., None, None] * np.eye(2)) / np.where(t == 0.0, 1.0, t)[..., None, None]


# Trajectories drawn per scratch block; it bounds the scratch and changes no draw.
_DRAW_BLOCK = 32


def _draw_window_noise(gens, rows: int, dt: float, out):
    """Draw ``(rows, 4)`` normals per trajectory, each from its ``gens[k]``, which a
    lane that draws once builds at the lookup, and pass each 32-trajectory block to
    ``out`` as it is drawn.  ``rows`` counts the steps of a window without a
    schedule, and on a schedule the half-records of the whole run, ceil(P / 2) per
    window of P records.  Returns ``out``: a sink ``out(lo, hi, x)`` of trajectories
    lo..hi-1's normals, or ``(dw_p, dw_m)``, two (rows, n) arrays to fill row-major
    with complex Wiener increments, trajectory i's ``(x0 + i x1, x2 + i x3) *
    sqrt(dt / 2)``."""
    scale = math.sqrt(0.5 * dt)

    def fill(lo, hi, x):
        z = np.multiply(x, scale, out=x).view(complex)  # x0 + i x1 and x2 + i x3
        out[0][:, lo:hi], out[1][:, lo:hi] = z[:, :, 0].T, z[:, :, 1].T

    sink = fill if isinstance(out, tuple) else out
    x = np.empty((min(_DRAW_BLOCK, len(gens)), rows, 4))
    for start in range(0, len(gens), _DRAW_BLOCK):
        stop = min(start + _DRAW_BLOCK, len(gens))
        for k in range(start, stop):
            gens[k].standard_normal(out=x[k - start])
        sink(start, stop, x[: stop - start])
    return out


def _window_bytes(lanes: int, steps: int, stride: int) -> dict[str, int]:
    """The bytes one self-scheduled window of ``lanes`` lanes allocates, by what
    holds them: each lane's generator, detunings and moments, its kick and variance
    rows, the variance step's powers and last doubling product (more than the map's
    temporaries), a draw block's normals and the 4 complex rows that turn them into
    kicks, and a sink's block of records.  The variance step's and the draw block's
    bytes are never held at once, so the sum bounds the window's peak, but for some
    30 KB that grow with neither lanes nor steps."""
    row_bytes = sum(np.dtype(dtype).itemsize for dtype in _RECORDED.values())
    return {
        "lane state": 2048 * lanes,
        "kick rows": 16 * steps * lanes,
        "variance rows": 24 * (steps + 1) * lanes,
        "variance powers": 8 * (16 * (_VARIANCE_BLOCK + 1) + 40 * _VARIANCE_BLOCK) * lanes,
        "draw block": (32 + 4 * 16) * steps * min(_DRAW_BLOCK, lanes),
        "record block": (steps // stride + 1) * row_bytes * lanes,
    }


def _batch_run(
    params: PhysParams,
    beta0: complex,
    v_a0: float,
    v_b0: complex,
    duration: float,
    seeds: Sequence[int | None],
    options: TrajectoryOptions,
    sink=None,
) -> dict:
    """Run a batch of trajectories on a shared grid; returns raw arrays.

    Every lane damps at one rate per window, h11 - h22 of the dissipation matrix:
    Gamma, or on a schedule the window's.  A ``None`` seed, after the others, gives
    a noise-free reference lane: it has no generator, so it draws no increments, and
    no scattering channel, so it takes no kick; a batch of such lanes alone has no
    channels and zero variances.  With a schedule, beta moves by one map per record
    stride, its noise drawn from 2 normals per lane; each lane builds its generator
    to draw the normals of every record at once, after the last window.  Window w
    writes records w P .. (w + 1) P, P = steps_per_window // record_stride, both
    ends included; the next window rewrites the record they share.  beta has a row
    per trajectory, and the other records and ``abort_time``, NaN while the lane
    lives, one per variance lane, which a schedule's batch shares.  Given a
    ``sink``, a batch hands it window w's records lo..hi-1 as ``sink(lo, hi,
    block)``: as the window ends, in one refilled block, or on a schedule after the
    record map, as views of the whole rows.  A window without a schedule holds its
    variance rows and the run's (steps, n) kick rows, whose draw blocks form their
    own kicks.  A non-finite initial moment, or ``v_a0`` below ``-ABORT_VA_TOL``,
    raises a ``ValueError`` naming the argument first.
    """
    for name, value in (("beta0", beta0), ("v_b0", v_b0)):
        if not cmath.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not -ABORT_VA_TOL <= v_a0 < math.inf:
        raise ValueError(f"v_a0 must be finite and >= -{ABORT_VA_TOL}, got {v_a0}")
    n = len(seeds)
    schedule = options.schedule  # the first len(gens) lanes draw; on a schedule once each
    gens = (_lane_streams if schedule else _lane_generators)(seeds[: n - seeds.count(None)])
    lanes = 1 if schedule is not None else n
    n_windows, window = resolve_windows(params, duration, schedule)
    steps, stride = options.steps_per_window, options.record_stride
    if schedule is None and not options.full_bloch and params.n_q != 0:
        raise ValueError(f"n_q = {params.n_q:.3g} needs full_bloch: the closed-form "
                         "population holds for n_q = 0 only")
    dt = window / steps

    omega, g_m, delta0, Gamma = params.Omega, params.g_m, params.delta0, params.Gamma
    rot = cmath.exp(-1j * omega * dt)
    rot_half = cmath.exp(-0.5j * omega * dt)
    spp = steps // WINDOW_PANELS
    per_window = steps // stride
    panel_rel_t = np.arange(WINDOW_PANELS + 1) * (spp * dt)
    panel_phases = np.exp(-2j * omega * panel_rel_t)

    beta = np.full(n, complex(beta0), dtype=complex)
    va = np.full(lanes, float(v_a0))
    vb = np.full(lanes, complex(v_b0), dtype=complex)
    va[len(gens):] = vb[len(gens):] = 0.0  # the references start from zero variances
    abort_time = np.full(lanes, np.nan)

    n_rec = n_windows * per_window + 1
    stream = sink is not None and schedule is None  # one block of a window's records
    rec = {name: np.empty((n if name == "beta" else lanes,
                           per_window + 1 if stream else n_rec), dtype=dtype)
           for name, dtype in _RECORDED.items()}

    # The detuning is d0 + g2 Re beta.  The step's numbers are 0-d arrays:
    # numpy converts a Python number operand on every call.
    d0, g2 = np.array(delta0), np.array(2.0 * g_m)

    if options.full_bloch:
        st0 = bloch_steady_state(params, delta0 + 2.0 * g_m * beta0.real)
        y_bloch = np.tile([st0.pe, st0.s.real, st0.s.imag], (n, 1))

        def population(delta):
            return y_bloch[:, 0].copy()
    else:
        population = partial(pe_closed_form, params.g, params.gamma)

    a_s, roots = [], []  # on a schedule, each window's a^S and the columns of its L
    scale = math.sqrt(0.5 * dt)  # dW = (x0 + i x1) scale, from two normals
    if schedule is None:
        # step-major, refilled every window; a lane without a generator keeps 0
        kicks = np.zeros((steps, n), dtype=complex)
        # kernel input for window 0: the detuning predicted from free rotation
        delta_panel = d0 + g2 * np.real(beta[:, None] * np.exp(-1j * omega * panel_rel_t))
        delta_now = d0 + g2 * beta.real  # the first step's; each step forms the next's
        pe_now = population(delta_now)
    c_damp = Gamma  # the mean's damping rate, h11 - h22; per window on a schedule
    with np.errstate(invalid="ignore"):
        for w in range(n_windows):
            if schedule is not None:
                d = schedule[w].decomp
                data = d.lambda_plus, d.lambda_minus, *d.v_plus, *d.v_minus, d.theta
                lam_p, lam_m, u_p, w_p, u_m, w_m, theta_w = (np.full(lanes, x) for x in data)
                c_damp = (lam_p * (np.abs(u_p) ** 2 - np.abs(w_p) ** 2)
                          + lam_m * (np.abs(u_m) ** 2 - np.abs(w_m) ** 2))[0]
            elif gens:
                s0, s2 = panel_kernels(params, delta_panel, panel_phases)
                lam_p, lam_m, v_p, v_m, theta_w = eigenpairs(Gamma, params.n_m, s0, s2)
                (u_p, w_p), (u_m, w_m) = v_p.T, v_m.T
                lam_p[len(gens):] = lam_m[len(gens):] = 0.0  # the references': no channel
            if not gens:  # a batch of references alone scatters through no channel
                lam_p = lam_m = theta_w = np.zeros(lanes)
                u_p = w_p = u_m = w_m = np.zeros(lanes, dtype=complex)
            # fmax skips the NaN rates of aborted lanes
            _check_step(params, window, steps,
                        max(np.fmax.reduce(lam_p, initial=0.0), c_damp))
            damp_fac = rot * (1.0 - 0.5 * c_damp * dt)
            late = None
            if gens:
                va_rows, vb_rows = _variance_step(
                    va, vb, dt, steps, omega, lam_p, lam_m, u_p, w_p, u_m, w_m
                )
                # a lane aborts at the first step that leaves v_a below
                # tolerance or NaN (~(va >= -tol) is True for NaN); from that
                # step on its variances and amplitude are NaN
                if not va_rows[1:].min() >= -ABORT_VA_TOL:
                    bad = ~(va_rows[1:] >= -ABORT_VA_TOL)
                    first = np.argmax(bad, axis=0)
                    hit = bad.any(axis=0)
                    late = hit & (np.arange(steps)[:, None] >= first)
                    va_rows[1:][late] = np.nan
                    vb_rows[1:][late] = np.nan
                    newly = hit & np.isnan(abort_time)
                    abort_time[newly] = (w * steps + first[newly] + 1) * dt
            else:
                va_rows, vb_rows = (np.broadcast_to(x, (steps + 1, lanes)) for x in (va, vb))
            sq_p, sq_m = np.sqrt(lam_p), np.sqrt(lam_m)
            if schedule is None:  # the step takes its kicks turned by half a step
                sq_p, sq_m = rot_half * sq_p, rot_half * sq_m

            def coefficient(i, lo, hi):
                # k_p, l_p, k_m or l_m (i = 0 .. 3), a channel's kick k dW + l conj(dW),
                # of lanes lo..hi-1 at every step, from the pre-step rows; a NaN k_p
                # makes the aborting step leave the amplitude NaN
                va_pre, vb_pre = va_rows[:-1, lo:hi], vb_rows[:-1, lo:hi]
                sq, u, v = (x[lo:hi] for x in ((sq_p, u_p, w_p), (sq_m, u_m, w_m))[i // 2])
                if i % 2:
                    return sq * (np.conjugate(u) * va_pre + np.conjugate(v) * vb_pre)
                k = sq * (u * vb_pre + v * (va_pre + 1.0))
                if i == 0 and late is not None:
                    k[late[:, lo:hi]] = np.nan
                return k

            # records w * per_window .. (w + 1) * per_window; the next rewrites the last
            start = 0 if stream else w * per_window
            cols = slice(start, start + per_window + 1)
            rec["v_a"][:, cols] = va_rows[::stride].T
            rec["v_b"][:, cols] = vb_rows[::stride].T
            for name, value in (
                ("lambda_plus", lam_p), ("lambda_minus", lam_m), ("theta", theta_w)
            ):
                rec[name][:, cols] = value[:, None]
            va, vb = va_rows[-1].copy(), vb_rows[-1].copy()  # not views of the rows
            if schedule is not None:
                # the record map: with a = damp_fac, the S = stride steps between
                # records give beta <- a^S beta + sum_i a^(S-1-i) (drift + kick_i)
                powers = np.cumprod(np.full(stride, damp_fac))  # a^1 .. a^S
                decay = np.concatenate(([1.0], powers[:-1]))[::-1]  # a^(S-1-i)
                # record r's increment gathers in slot r + 1: the drift now, L y later
                rec["beta"][:, cols.start + 1 : cols.stop] = (
                    (-1j * g_m * schedule[w].pe * dt) * rot_half * decay.sum())
                # k dW + l conj(dW) = sqrt(dt / 2) ((k + l) x0 + i (k - l) x1): a record's
                # kicks W x have covariance C = W W^T, so L y draws them, L L^T = C
                k_p, l_p, k_m, l_m = (coefficient(i, 0, lanes) for i in range(4))
                wts = np.concatenate(
                    [k_p + l_p, 1j * (k_p - l_p), k_m + l_m, 1j * (k_m - l_m)], axis=1
                ) * (rot_half * scale * np.tile(decay, per_window)[:, None])
                w_rec = wts.view(float).reshape(per_window, -1, 2)  # W^T per record
                roots.append(np.array([1.0, 1j]) @ _sqrt_psd(
                    np.einsum("rki,rkj->rij", w_rec, w_rec)))
                a_s.append(powers[-1])
                rec["pe"][:, cols] = schedule[w].pe
                continue

            def kick(lo, hi, x):  # k_p dW_p + l_p conj(dW_p) + k_m dW_m + l_m conj(dW_m)
                dw_p, dw_m = np.multiply(x, scale, out=x).view(complex).T  # (steps, hi - lo)
                total = coefficient(0, lo, hi) * dw_p
                total += coefficient(1, lo, hi) * np.conjugate(dw_p)
                total += coefficient(2, lo, hi) * dw_m
                total += coefficient(3, lo, hi) * np.conjugate(dw_m)
                kicks[:, lo:hi] = total

            _draw_window_noise(gens, steps, dt, kick)
            del va_rows, vb_rows  # before the next window's variance step
            # complex products out of place: numpy's in-place a *= c rounds
            # by the array's length, so a lane would depend on its batch
            damp, force = np.array(damp_fac), np.array(rot_half * (-1j * g_m * dt))
            for j in range(steps):
                if j % stride == 0:
                    rec["beta"][:, start + j // stride] = beta
                    rec["pe"][:, start + j // stride] = pe_now
                if j % spp == 0:
                    delta_panel[:, j // spp] = delta_now
                beta = damp * beta + force * pe_now
                beta += kicks[j]
                if options.full_bloch:
                    y_bloch = bloch_step_batch(y_bloch, delta_now, params, dt)
                delta_now = d0 + g2 * beta.real
                pe_now = population(delta_now)
            rec["beta"][:, cols.stop - 1], rec["pe"][:, cols.stop - 1] = beta, pe_now
            delta_panel[:, WINDOW_PANELS] = delta_now
            if stream:
                sink(w * per_window, (w + 1) * per_window + 1, rec)

        if schedule is not None:
            col = np.stack(roots)  # (windows, records, 2)

            def kick(lo, hi, x):  # window v's record q: normals 4 v ceil(P / 2) + 2q, + 1
                x = x.reshape(hi - lo, n_windows, -1, 2)[:, :, :per_window]
                rec["beta"][lo:hi, 1:] += (x * col).sum(-1).reshape(hi - lo, -1)

            _draw_window_noise(gens, n_windows * -(-per_window // 2), dt, kick)
            rec["beta"][:, 0] = beta
            for r in range(n_rec - 1):  # beta_{r+1} = a^S beta_r + increment_r
                beta = a_s[r // per_window] * beta + rec["beta"][:, r + 1]
                rec["beta"][:, r + 1] = beta
            for w in range(n_windows if sink is not None else 0):  # as without a schedule
                cols = slice(w * per_window, (w + 1) * per_window + 1)
                sink(cols.start, cols.stop, {name: x[:, cols] for name, x in rec.items()})

    rec.update(times=_record_times(params, duration, options), abort_time=abort_time)
    return rec


def _record_from_batch(batch: dict, seed: int | None) -> TrajectoryRecord:
    # a batch of one lane, whose rows are its whole arrays: none needs a copy
    return TrajectoryRecord(times=batch["times"], seed=seed,
                            **{name: batch[name][0] for name in _RECORDED})


def run_trajectory(
    params: PhysParams,
    beta0: complex,
    v_a0: float,
    v_b0: complex,
    duration: float,
    seed: int,
    options: TrajectoryOptions | None = None,
) -> TrajectoryRecord:
    """Run one stochastic trajectory (the ensembles' code path); refuses a bool or None seed."""
    if seed is None or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, not a bool or None; got {seed!r}")
    seed = operator.index(seed) if isinstance(seed, np.integer) else seed
    options = options or TrajectoryOptions()
    batch = _batch_run(params, beta0, v_a0, v_b0, duration, [seed], options)
    if not math.isnan(batch["abort_time"][0]):
        raise TrajectoryAbort(0, float(batch["abort_time"][0]))
    return _record_from_batch(batch, seed)


def semiclassical_run(
    params: PhysParams,
    beta0: complex,
    duration: float,
    options: TrajectoryOptions | None = None,
) -> TrajectoryRecord:
    """Noise-free mean-field evolution: rotation, damping and population force.

    It damps as the trajectories do, at h11 - h22 of the dissipation matrix:
    Gamma without a schedule, so its amplitude decays as exp(-Gamma t / 2) as
    an ensemble's mean does, whose batch carries it as its last lane.  It
    scatters through no channel: no emitter noise, zero variances and channels.
    """
    options = options or TrajectoryOptions()
    batch = _batch_run(params, beta0, 0.0, 0.0, duration, [None], options)
    return _record_from_batch(batch, None)


def _sample_variance(values: np.ndarray) -> np.ndarray:
    """Unbiased variance across trajectories (axis 0); zero for one."""
    if len(values) < 2:
        return np.zeros(values.shape[1:])
    return np.var(values, axis=0, ddof=1)


def _standard_error(values: np.ndarray) -> np.ndarray:
    """Monte Carlo standard error of the mean across trajectories (axis 0)."""
    var = _sample_variance(values.real)
    if np.iscomplexobj(values):  # a real array's .imag would allocate zeros
        var = var + _sample_variance(values.imag)
    return np.sqrt(var) / math.sqrt(len(values))


def run_ensemble(
    params: PhysParams,
    beta0: complex,
    duration: float,
    n_traj: int,
    master_seed: int,
    options: TrajectoryOptions | None = None,
    v_a0: float = 0.0,
    v_b0: complex = 0.0,
) -> EnsembleResult:
    """Run independent trajectories and aggregate cross-trajectory statistics.

    Per-trajectory seeds derive deterministically from the master seed, and
    all trajectories run as one batch whose lanes do not interact, so each
    trajectory matches its own :func:`run_trajectory`.  The batch's last lane
    is the reference, :func:`semiclassical_run` bit for bit, so the statistics
    reduce each window's block of records against its last row as the batch
    hands it over, on a schedule too, the later block rewriting the record two
    windows share; numpy reduces a block, two or more columns wide, row by
    row, so they equal the whole rows' statistics bit for bit.  Fails before
    the run on an ``n_traj`` or ``master_seed`` that ``_trajectory_seeds``
    refuses, a histogram time outside [0, duration] or a refused initial
    moment, and after it when more than 1% of trajectories abort; when fewer
    abort, the batch reruns on the survivors' seeds.
    """
    seeds = _trajectory_seeds(n_traj, master_seed)
    options = options or TrajectoryOptions()
    targets = histogram_targets(duration, options.histogram_times)
    times = _record_times(params, duration, options)
    at = [int(np.argmin(np.abs(times - t))) for t in targets]
    reference = {name: np.zeros(len(times), dtype) for name, dtype in _RECORDED.items()}
    rows, kept = {}, {}  # the statistics rows, and the lanes' dbeta at the records `at`

    def sink(lo, hi, block):  # the reference is the last row; a shared row stays
        reference["beta"][lo:hi], reference["pe"][lo:hi] = block["beta"][-1], block["pe"][-1]
        live = {name: x[: len(block["beta"]) - 1] for name, x in block.items()}
        beta = live["beta"]
        n_vals, b2_vals = live["v_a"] + np.abs(beta) ** 2, live["v_b"] + beta**2
        dbeta = beta - reference["beta"][lo:hi]
        var_x, var_p = _sample_variance(dbeta.real), _sample_variance(dbeta.imag)
        for name, row in dict(
            mean_beta=beta.mean(axis=0), mean_n=n_vals.mean(axis=0),
            mean_b2=b2_vals.mean(axis=0), var_dbeta_x=var_x, var_dbeta_p=var_p,
            se_beta=np.sqrt(var_x + var_p) / math.sqrt(len(beta)),
            se_n=_standard_error(n_vals), se_b2=_standard_error(b2_vals),
            **{f"mean_{name}": live[name].mean(axis=0)
               for name in ("pe", "lambda_plus", "lambda_minus", "theta")},
        ).items():
            if name not in rows:
                rows[name] = np.empty(len(times), row.dtype)
            rows[name][lo:hi] = row
        kept.update((i, dbeta[:, i - lo].copy()) for i in at if lo <= i < hi)

    batch = _batch_run(params, beta0, v_a0, v_b0, duration, seeds + [None], options, sink)
    # a schedule's shared lane aborts every trajectory at once
    abort_time = np.broadcast_to(batch["abort_time"][:n_traj], n_traj)
    aborted = [(int(i), float(abort_time[i])) for i in np.flatnonzero(~np.isnan(abort_time))]
    if len(aborted) > 0.01 * n_traj:
        raise EnsembleAbortError(
            f"{len(aborted)}/{n_traj} trajectories aborted: {aborted[:10]}"
        )
    if aborted:  # a lane runs bitwise the same in any batch: rewrite rows and kept
        survivors = [s for s, t in zip(seeds, abort_time) if math.isnan(t)]
        _batch_run(params, beta0, v_a0, v_b0, duration, survivors + [None], options, sink)

    return EnsembleResult(
        times=times,
        **rows,
        # (time, edges, counts) of the induced detuning 2 g_m Re dbeta at each target
        histograms=[(float(times[i]), *np.histogram(
            2.0 * params.g_m * kept[i].real, bins=options.histogram_bins)[::-1]) for i in at],
        reference=TrajectoryRecord(times=times, seed=None, **reference),
        n_traj=operator.index(n_traj),
        master_seed=operator.index(master_seed),
        aborted=aborted,
    )


def histogram_targets(duration: float, times: Sequence[float] | None) -> list[float]:
    """The times of a run's histograms: ``times``, each within [0, duration]
    (else ``ValueError``), or by default a third, two thirds and the end."""
    if times is None:
        return [duration / 3.0, 2.0 * duration / 3.0, duration]
    for t in times:
        if not 0.0 <= t <= duration:
            raise ValueError(f"histogram time {t:.6g} lies outside the run "
                             f"[0, {duration:.6g}]")
    return list(times)
