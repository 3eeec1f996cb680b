import cmath
import dataclasses
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_generators, sinusoidal_rates

from hybridmech import oracle, trajectory
from hybridmech.bloch import (
    PhysParams,
    _expm,
    bloch_steady_state,
    bloch_step_batch,
    pe_closed_form,
)
from hybridmech.lindblad import (
    QuadratureDecomposition,
    decompose,
    eigenpairs,
    twisted_decomposition,
)
from hybridmech.oracle import (
    coherent_state,
    make_frozen_schedule,
    quadrature_variances,
    sse_ensemble,
)
from hybridmech.spectrum import WINDOW_PANELS, panel_kernels
from hybridmech.trajectory import (
    ABORT_VA_TOL,
    EnsembleAbortError,
    TrajectoryAbort,
    TrajectoryOptions,
    WindowCoefficients,
    _RECORDED,
    _batch_run,
    _draw_window_noise,
    _lane_generators,
    _variance_step,
    derive_trajectory_seed,
    resolve_windows,
    run_ensemble,
    run_trajectory,
    semiclassical_run,
)


def tls_noise_params():
    return PhysParams(gamma=1.0, g=1.0, Omega=1e-2, g_m=5e-3, Gamma=1e-10, n_m=100.0)


def frozen_frame_params():
    # negligible rotation; used where scattering anisotropy must stay fixed
    return PhysParams(gamma=1.0, g=1.0, Omega=1e-9, g_m=0.0)


def draw_increments(gens, steps, dt):
    """(dw_p, dw_m), (steps, len(gens)) each, from the next normals of ``gens``
    that ``_draw_window_noise`` hands its sink: trajectory i's (x0 + i x1,
    x2 + i x3) sqrt(dt / 2), formed as the engine forms its kicks' increments."""
    dw = np.empty((2, steps, len(gens)), dtype=complex)

    def sink(lo, hi, x):
        dw[:, :, lo:hi] = np.multiply(x, math.sqrt(0.5 * dt), out=x).view(complex).T

    _draw_window_noise(gens, steps, sink)
    return dw[0], dw[1]


def draw_window(seeds, steps, dt):
    return draw_increments(reference_generators(seeds), steps, dt)


def test_complex_wiener_moments():
    # one million increments per channel, drawn as the engine draws a window
    dt = 1e-3
    seeds = [derive_trajectory_seed(0, i) for i in range(100)]
    dw_p, dw_m = draw_window(seeds, 10_000, dt)
    for draws in (dw_p, dw_m):
        assert np.mean(np.abs(draws) ** 2) == pytest.approx(dt, rel=0.005)
        assert abs(np.mean(draws**2)) <= 5e-3 * dt
    assert abs(np.mean(dw_p * np.conjugate(dw_m))) <= 5e-3 * dt
    # column i holds trajectory i's stream: (x0 + i x1, x2 + i x3) sqrt(dt / 2)
    x = reference_generators(seeds[7:8])[0].standard_normal((10_000, 4))
    assert np.array_equal(dw_p[:, 7], (x[:, 0] + 1j * x[:, 1]) * math.sqrt(0.5 * dt))
    assert np.array_equal(dw_m[:, 7], (x[:, 2] + 1j * x[:, 3]) * math.sqrt(0.5 * dt))


def test_complex_wiener_deterministic():
    seeds = [derive_trajectory_seed(42, i) for i in range(3)]
    a = draw_window(seeds, 64, 0.1)
    b = draw_window(seeds, 64, 0.1)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    # a trajectory's increments do not depend on the batch it is drawn in
    alone = draw_window(seeds[2:], 64, 0.1)
    assert all(np.array_equal(x[:, 2], y[:, 0]) for x, y in zip(a, alone))
    assert not np.array_equal(a[0][:, 0], a[0][:, 1])


def window_formula(seeds, steps, dt):
    """Each trajectory's increments written out, one generator at a time."""
    scale = math.sqrt(0.5 * dt)
    x = np.stack(
        [gen.standard_normal((steps, 4)) for gen in reference_generators(seeds)],
        axis=1,
    )
    return (x[..., 0] + 1j * x[..., 1]) * scale, (x[..., 2] + 1j * x[..., 3]) * scale


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("steps", [64, 512])
@pytest.mark.parametrize("n", [1, 31, 33, 67])
def test_window_draw_matches_per_trajectory_formula(n, steps, parts):
    # blocks of 32 trajectories, a partial last block, and a batch drawn in
    # two calls split inside a block leave every increment as the
    # per-trajectory formula gives it
    dt = 0.37
    seeds = [derive_trajectory_seed(2024, i) for i in range(n)]
    want = window_formula(seeds, steps, dt)
    bounds = [0, n // 2, n] if parts == 2 else [0, n]
    pieces = [draw_window(seeds[lo:hi], steps, dt) for lo, hi in zip(bounds, bounds[1:])]
    got = [np.concatenate([piece[c] for piece in pieces], axis=1) for c in range(2)]
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    # the sink gets each block's raw normals once
    blocks, raw = [], np.full((n, steps, 4), np.nan)

    def sink(lo, hi, x):
        blocks.append((lo, hi))
        raw[lo:hi] = x

    assert _draw_window_noise(reference_generators(seeds), steps, sink) is None
    assert sorted(blocks) == [(lo, min(lo + 32, n)) for lo in range(0, n, 32)]
    want_raw = [gen.standard_normal((steps, 4)) for gen in reference_generators(seeds)]
    assert np.array_equal(raw, np.stack(want_raw))


def test_runs_leave_no_thread_behind():
    # the draws run on the calling thread: a self-scheduled ensemble of three
    # draw blocks, a scheduled one and the unraveling start no thread and load
    # no executor
    src = str(Path(trajectory.__file__).parents[1])
    code = f"""if True:
        import math, sys, threading
        sys.path.insert(0, {src!r})
        import numpy as np
        from hybridmech.bloch import PhysParams
        from hybridmech.lindblad import twisted_decomposition
        from hybridmech.oracle import make_frozen_schedule, sse_ensemble
        from hybridmech.trajectory import TrajectoryOptions, run_ensemble
        p = PhysParams(gamma=1.0, g=1.0, Omega=1e-2, g_m=5e-3, Gamma=1e-10, n_m=100.0)
        run_ensemble(p, 200j, p.mechanical_period, 67, 1,
                     TrajectoryOptions(steps_per_window=64, record_stride=16))
        frozen = PhysParams(gamma=1.0, g=1.0, Omega=1e-9, g_m=0.0)
        schedule = make_frozen_schedule(twisted_decomposition(5e-3, 5e-4, 0.0), 0.0, 2)
        run_ensemble(frozen, 1.0 + 0.0j, 2 * 2.0 * math.pi / 0.01, 67, 1,
                     TrajectoryOptions(steps_per_window=64, record_stride=16,
                                       schedule=schedule))
        weak = make_frozen_schedule(twisted_decomposition(1e-5, 1e-6, 0.0), 0.0, 1)
        sse_ensemble(frozen, np.eye(8)[0], 2.0 * math.pi / 0.01,
                     2.0 * math.pi / 0.01 / 64, 33, 1, weak)
        print(threading.active_count(), "concurrent.futures" in sys.modules)
    """
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]


def test_seed_derivation_is_stable():
    # canonical SplitMix64 outputs for seed 0 guard the reproducibility contract
    assert derive_trajectory_seed(0, 0) == 0xE220A8397B1DCDAF
    assert derive_trajectory_seed(0, 1) == 0x6E789E6AA1B965F4
    assert derive_trajectory_seed(12345, 0) != derive_trajectory_seed(12345, 1)


@pytest.mark.parametrize("n", [1, 2000])
@pytest.mark.parametrize("master_seed", [1112, 0, -5, 2**64 - 1, 2**70 + 3])
def test_trajectory_seeds_are_splitmix64(n, master_seed):
    # an ensemble's seeds, formed at once in uint64 arithmetic, are SplitMix64
    # written out in Python ints, masked to 64 bits, and derive_trajectory_seed's;
    # they come as ints, which the lanes' vectorised seeding requires
    def splitmix64(i, mask=2**64 - 1):
        z = (master_seed + (i + 1) * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    seeds = trajectory._trajectory_seeds(n, master_seed)
    assert seeds == [splitmix64(i) for i in range(n)]
    assert seeds[-1] == derive_trajectory_seed(master_seed, n - 1)
    assert all(type(s) is int for s in seeds)


def assert_streams_match_numpy(seeds):
    """Each lane's generator has numpy's state and first normals for its seed."""
    gens = _lane_generators(seeds)
    assert len(gens) == len(seeds)
    for seed, gen, ref in zip(seeds, gens, reference_generators(seeds)):
        assert gen.bit_generator.state == ref.bit_generator.state, seed
        assert gen.standard_normal(4).tobytes() == ref.standard_normal(4).tobytes(), seed


def test_lane_generators_match_numpy_seeding():
    # the engine's one vectorised SeedSequence hash against numpy's own, on
    # seeds of one and two 32-bit words, the edges of 2**32, 2**63 and 2**64,
    # and the 2,000 derived seeds of scheduled_ensemble; if numpy ever changes
    # its seeding, this fails rather than the golden digests
    edges = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
    assert_streams_match_numpy(edges + [derive_trajectory_seed(1112, i) for i in range(2000)])
    assert _lane_generators([]) == []


def test_lane_generators_match_numpy_on_drawn_seeds(tmp_path):
    # derandomized and without an example database, as the config fuzz is
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from hypothesis.configuration import set_hypothesis_home_dir

    @hypothesis.settings(derandomize=True, database=None, deadline=None,
                         max_examples=200)
    @hypothesis.given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    def check(seeds):
        assert_streams_match_numpy(seeds)

    set_hypothesis_home_dir(tmp_path / "hypothesis")
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)


def test_seeds_outside_64_bits_keep_numpys_behaviour():
    # run_trajectory takes any int seed: numpy refuses a negative one or one
    # that is not an int, and hashes one above 2**64 from three entropy words;
    # the engine does the same, and truncates no float to an int
    p = tls_noise_params()
    opts = TrajectoryOptions(steps_per_window=64, record_stride=16)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        run_trajectory(p, 1j, 0.0, 0.0, p.mechanical_period, seed=-1, options=opts)
    with pytest.raises(ValueError, match="^expected non-negative integer$"):
        _lane_generators([5, -1])
    for seed in (1.5, 2.0, np.float64(3.0)):
        with pytest.raises(TypeError, match="^SeedSequence expects int"):
            run_trajectory(p, 1j, 0.0, 0.0, p.mechanical_period, seed=seed, options=opts)
        with pytest.raises(TypeError, match="^SeedSequence expects int"):
            _lane_generators([5, seed])
    gens = _lane_generators([5, 2**70])
    assert gens[1].bit_generator.random_raw() == 10013647886062870613
    assert gens[0].bit_generator.state == np.random.PCG64(5).state
    record = run_trajectory(p, 1j, 0.0, 0.0, p.mechanical_period, seed=2**70, options=opts)
    assert record.seed == 2**70 and np.isfinite(record.beta).all()


@pytest.mark.parametrize("seed", [True, None, np.int64(5)], ids=["True", "None", "np.int64(5)"])
def test_run_trajectory_refuses_a_bool_seed_and_records_a_numpy_one_as_int(seed):
    # True used to run as seed 1, and np.int64(5) came back as the record's
    # seed; a None seed marks a batch's noise-free lane, so it is refused too
    p = tls_noise_params()
    opts = TrajectoryOptions(steps_per_window=64, record_stride=16)
    if seed is None or isinstance(seed, bool):
        with pytest.raises(ValueError, match="^seed must be an integer, not a bool"):
            run_trajectory(p, 1j, 0.0, 0.0, p.mechanical_period, seed=seed, options=opts)
        return
    record = run_trajectory(p, 1j, 0.0, 0.0, p.mechanical_period, seed=seed, options=opts)
    want = run_trajectory(p, 1j, 0.0, 0.0, p.mechanical_period, seed=5, options=opts)
    assert type(record.seed) is int and record.seed == 5
    for name in _RECORDED:
        assert getattr(record, name).tobytes() == getattr(want, name).tobytes(), name


def frozen_options(decomp, steps, pe=0.0):
    """One frozen window of the given steps, recorded at every step."""
    schedule = [WindowCoefficients(decomp=decomp, pe=pe)]
    return TrajectoryOptions(steps_per_window=steps, record_stride=1, schedule=schedule)


def test_free_oscillator_rotation_is_exact():
    # zero rates: the variances stay at vacuum and beta only rotates
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.02, g_m=0.0)
    opts = frozen_options(twisted_decomposition(0.0, 0.0, 0.0), 128)
    rec = run_trajectory(p, 2.0 + 1.0j, 0.0, 0.0, 128.0, 5, opts)
    expected = (2.0 + 1.0j) * np.exp(-1j * p.Omega * rec.times)
    assert np.max(np.abs(rec.beta - expected)) <= 1e-12
    assert np.all(rec.v_a == 0.0) and np.all(rec.v_b == 0.0)


def test_scheduled_run_rejects_coarse_step():
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.02, g_m=0.0)
    opts = frozen_options(twisted_decomposition(1.0, 0.0, 0.0), 64)
    with pytest.raises(ValueError, match="lambda_plus"):
        run_trajectory(p, 0j, 0.0, 0.0, 64.0, 5, opts)


def test_displaced_fixed_point():
    # constant population, no scattering: beta spirals about -g_m pe / Omega
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.02, g_m=0.01)
    pe = 0.25
    target = -p.g_m * pe / p.Omega
    opts = frozen_options(twisted_decomposition(0.0, 0.0, 0.0), 2048, pe=pe)
    rec = run_trajectory(p, complex(target), 0.0, 0.0, p.mechanical_period, 5, opts)
    center = np.mean(rec.beta[1:])
    assert abs(center - target) <= 5e-3 * abs(target)


def test_thermal_variance_relaxation_of_ensemble_moments():
    # pure thermal channels: the reconstructed ensemble occupation relaxes
    # toward n_m at rate Gamma
    Gamma, n_m = 2e-3, 2.0
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.0, Gamma=Gamma, n_m=n_m)
    # thermal channels are b and b^dagger, not quadratures
    dec = QuadratureDecomposition(
        lambda_plus=Gamma * (n_m + 1.0),
        lambda_minus=Gamma * n_m,
        v_plus=np.array([1.0 + 0j, 0.0j]),
        v_minus=np.array([0.0j, 1.0 + 0j]),
        theta=0.0,
    )
    n_windows = 4
    schedule = make_frozen_schedule(dec, 0.0, n_windows)
    duration = n_windows * p.mechanical_period
    opts = TrajectoryOptions(steps_per_window=256, record_stride=32, schedule=schedule)
    ens = run_ensemble(p, 0.0 + 0j, duration, 600, 97, opts)
    expected = n_m * (1.0 - np.exp(-Gamma * ens.times))
    err = np.abs(ens.mean_n - expected)
    assert np.all(err <= np.maximum(3.0 * ens.se_n, 0.02))


def test_run_trajectory_deterministic():
    p = tls_noise_params()
    opts = TrajectoryOptions(steps_per_window=256, record_stride=32)
    dur = 3 * p.mechanical_period
    a = run_trajectory(p, 200j, 0.0, 0.0, dur, seed=123, options=opts)
    b = run_trajectory(p, 200j, 0.0, 0.0, dur, seed=123, options=opts)
    assert np.array_equal(a.beta, b.beta)
    assert np.array_equal(a.v_a, b.v_a)
    assert np.array_equal(a.lambda_plus, b.lambda_plus)
    c = run_trajectory(p, 200j, 0.0, 0.0, dur, seed=124, options=opts)
    assert not np.array_equal(a.beta, c.beta)


def test_ensemble_single_trajectory_matches_run_trajectory():
    p = tls_noise_params()
    opts = TrajectoryOptions(steps_per_window=256, record_stride=32)
    dur = 2 * p.mechanical_period
    seed0 = derive_trajectory_seed(55, 0)
    single = run_trajectory(p, 200j, 0.0, 0.0, dur, seed=seed0, options=opts)
    ens = run_ensemble(p, 200j, dur, 1, 55, opts)
    assert np.array_equal(ens.mean_beta, single.beta)
    assert np.array_equal(ens.mean_pe, single.pe)


@pytest.mark.parametrize("full_bloch", [False, True])
def test_self_scheduled_ensemble_matches_single_trajectories(full_bloch):
    # every self-scheduled lane builds its own kernels, channels and
    # variances inside one batch, and takes its population from its own
    # detuning (closed form, or a Bloch step); each must still reproduce its
    # own trajectory
    p = tls_noise_params()
    dur = 2 * p.mechanical_period
    n_traj, master_seed = 12, 9
    opts = TrajectoryOptions(steps_per_window=256, record_stride=64, full_bloch=full_bloch)
    ens = run_ensemble(p, 200j, dur, n_traj, master_seed, opts)
    recs = [
        run_trajectory(
            p, 200j, 0.0, 0.0, dur, derive_trajectory_seed(master_seed, i), opts
        )
        for i in range(n_traj)
    ]
    beta = np.stack([r.beta for r in recs])
    va = np.stack([r.v_a for r in recs])
    vb = np.stack([r.v_b for r in recs])
    assert np.array_equal(ens.mean_beta, beta.mean(axis=0))
    assert np.array_equal(ens.mean_n, (va + np.abs(beta) ** 2).mean(axis=0))
    assert np.array_equal(ens.mean_b2, (vb + beta**2).mean(axis=0))
    assert np.array_equal(ens.mean_pe, np.stack([r.pe for r in recs]).mean(axis=0))
    for name in ("lambda_plus", "lambda_minus", "theta"):
        rows = np.stack([getattr(r, name) for r in recs])
        assert np.array_equal(getattr(ens, "mean_" + name), rows.mean(axis=0))


def test_decoupled_system_without_coupling():
    p = PhysParams(gamma=1.0, g=1.0, Omega=1e-2, g_m=0.0)
    opts = TrajectoryOptions(steps_per_window=256, record_stride=32)
    rec = run_trajectory(p, 3.0 + 0j, 0.0, 0.0, p.mechanical_period, 5, opts)
    assert np.all(rec.pe == rec.pe[0])
    assert np.max(np.abs(np.abs(rec.beta) - 3.0)) < 1e-12


def test_semiclassical_free_rotation():
    p = PhysParams(gamma=1.0, g=0.0, Omega=1e-2, g_m=0.02)
    rec = semiclassical_run(p, 4j, 2 * p.mechanical_period)
    assert np.max(np.abs(np.abs(rec.beta) - 4.0)) < 1e-12
    assert np.all(rec.lambda_plus == 0.0)


def test_heating_random_walk_anisotropy():
    # pure X-scattering in a frozen frame: the P-spread grows at lambda_plus
    # while the X-spread stays bounded
    p = frozen_frame_params()
    lam_p = 5e-3
    dec = twisted_decomposition(lam_p, 0.0, 0.0)
    schedule = make_frozen_schedule(dec, 0.0, 5)
    duration = 5 * 2 * math.pi / 0.01
    opts = TrajectoryOptions(steps_per_window=1024, record_stride=128, schedule=schedule)
    ens = run_ensemble(p, 1.0 + 0j, duration, 2000, 31, opts)
    var_x, var_p = quadrature_variances(ens.mean_beta, ens.mean_n, ens.mean_b2)
    slope_p = np.polyfit(ens.times, var_p, 1)[0]
    slope_x = np.polyfit(ens.times, var_x, 1)[0]
    assert slope_p == pytest.approx(lam_p, rel=0.2)
    assert abs(slope_x) <= 0.05 * lam_p
    # total X variance stays at the vacuum value
    assert np.max(np.abs(var_x - 0.5)) <= 0.05


def test_trajectory_states_stay_physical():
    p = tls_noise_params()
    opts = TrajectoryOptions(steps_per_window=256, record_stride=16)
    rec = run_trajectory(p, 200j, 0.0, 0.0, 10 * p.mechanical_period, 77, opts)
    defect = np.abs(rec.v_b) ** 2 - rec.v_a * (rec.v_a + 1.0)
    assert np.all(rec.v_a >= -1e-12)
    assert np.max(defect) <= 1e-9


def test_fig3_window_quantities():
    # early windows: strong rate asymmetry and untwisted quadratures
    p = tls_noise_params()
    opts = TrajectoryOptions(steps_per_window=256, record_stride=64)
    rec = run_trajectory(p, 200j, 0.0, 0.0, 10 * p.mechanical_period, 3, opts)
    ratio = rec.lambda_plus / rec.lambda_minus
    assert np.all(ratio > 2.0)
    assert np.max(np.abs(rec.theta)) < 0.05
    # window 0 is predicted by free rotation, so the induced detuning is the
    # sinusoid of swing 2 g_m |beta0| and the panel kernels are exact
    lam_p, lam_m = sinusoidal_rates(p, 2.0 * p.g_m * 200.0)
    assert rec.lambda_plus[0] == pytest.approx(lam_p, rel=1e-6)
    assert rec.lambda_minus[0] == pytest.approx(lam_m, rel=1e-6)


def test_ensemble_histograms_and_reference():
    p = tls_noise_params()
    opts = TrajectoryOptions(steps_per_window=256, record_stride=64)
    dur = 3 * p.mechanical_period
    ens = run_ensemble(p, 200j, dur, 50, 19, opts)
    assert len(ens.histograms) == 3
    for _, edges, counts in ens.histograms:
        assert counts.sum() == ens.n_traj
        assert len(edges) == len(counts) + 1
    # ensemble mean follows the noise-free reference within Monte Carlo error
    diff = np.abs(ens.mean_beta - ens.reference.beta)
    assert np.all(diff <= 4.0 * ens.se_beta + 1e-12)


def test_ensemble_mean_matches_semiclassical_with_force():
    p = PhysParams(gamma=1.0, g=1.0, Omega=1e-2, g_m=2e-2)
    opts = TrajectoryOptions(steps_per_window=256, record_stride=64)
    dur = 4 * p.mechanical_period
    ens = run_ensemble(p, 10j, dur, 500, 101, opts)
    ref = semiclassical_run(p, 10j, dur, opts)
    diff = np.abs(ens.mean_beta - ref.beta)
    assert np.all(diff <= 3.0 * ens.se_beta + 1e-9)


def test_twisted_channels_match_master_equation():
    # nonzero twist angle: ensemble moments still track the oracle
    from hybridmech.oracle import coherent_density, integrate_master

    p = PhysParams(gamma=1.0, g=1.0, Omega=0.02, g_m=0.0)
    dec = twisted_decomposition(2e-3, 4e-4, 0.55)
    schedule = make_frozen_schedule(dec, 0.0, 2)
    duration = 2 * p.mechanical_period
    opts = TrajectoryOptions(steps_per_window=256, record_stride=64, schedule=schedule)
    ens = run_ensemble(p, 0.8 - 0.4j, duration, 400, 613, opts)
    master = integrate_master(
        p,
        coherent_density(28, 0.8 - 0.4j),
        duration,
        p.mechanical_period / 256,
        schedule,
        record_stride=64,
    )
    assert np.all(np.abs(ens.mean_n - master.moments.n) <= 3 * ens.se_n + 1e-9)
    assert np.all(np.abs(ens.mean_b2 - master.moments.b2) <= 3 * ens.se_b2 + 1e-9)
    assert np.all(np.abs(ens.mean_beta - master.moments.b) <= 3 * ens.se_beta + 1e-9)


def test_scheduled_ensemble_matches_single_trajectories():
    # a scheduled batch shares one variance lane and reads its noise from a
    # step-major buffer; each lane must still reproduce its own trajectory
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.02, g_m=0.0)
    schedule = make_frozen_schedule(twisted_decomposition(2e-3, 4e-4, 0.55), 0.0, 2)
    duration = 2 * p.mechanical_period
    n_traj, master_seed, beta0, v_a0, v_b0 = 6, 41, 0.8 - 0.4j, 0.3, 0.1 + 0.05j

    def options(workers):
        return TrajectoryOptions(
            steps_per_window=256, record_stride=32, schedule=schedule, workers=workers
        )

    ens = run_ensemble(
        p, beta0, duration, n_traj, master_seed, options(1), v_a0, v_b0
    )
    recs = [
        run_trajectory(
            p, beta0, v_a0, v_b0, duration, derive_trajectory_seed(master_seed, i),
            options(1),
        )
        for i in range(n_traj)
    ]
    beta = np.stack([r.beta for r in recs])
    va = np.stack([r.v_a for r in recs])
    vb = np.stack([r.v_b for r in recs])
    assert np.array_equal(ens.mean_beta, beta.mean(axis=0))
    assert np.array_equal(ens.mean_n, (va + np.abs(beta) ** 2).mean(axis=0))
    assert np.array_equal(ens.mean_b2, (vb + beta**2).mean(axis=0))

    chunked = run_ensemble(
        p, beta0, duration, n_traj, master_seed, options(3), v_a0, v_b0
    )
    for name in ("mean_beta", "mean_n", "mean_b2", "var_dbeta_x", "var_dbeta_p"):
        assert np.array_equal(getattr(ens, name), getattr(chunked, name))


def test_full_bloch_stochastic_path_runs():
    p = tls_noise_params()
    opts = TrajectoryOptions(steps_per_window=256, record_stride=64, full_bloch=True)
    rec = run_trajectory(p, 200j, 0.0, 0.0, p.mechanical_period, 21, opts)
    # the integrated population stays near the adiabatic values
    ref = run_trajectory(
        p, 200j, 0.0, 0.0, p.mechanical_period, 21,
        TrajectoryOptions(steps_per_window=256, record_stride=64),
    )
    assert np.max(np.abs(rec.pe - ref.pe)) <= 0.02 * np.max(ref.pe)


def test_histogram_times_are_honoured():
    p = tls_noise_params()
    period = p.mechanical_period
    opts = TrajectoryOptions(
        steps_per_window=256,
        record_stride=64,
        histogram_times=[0.5 * period, 2.0 * period],
        histogram_bins=11,
    )
    ens = run_ensemble(p, 200j, 2 * period, 20, 3, opts)
    assert len(ens.histograms) == 2
    assert ens.histograms[0][0] == pytest.approx(0.5 * period, abs=period / 4)
    assert ens.histograms[1][0] == pytest.approx(2.0 * period, abs=period / 4)
    assert all(len(counts) == 11 for _, _, counts in ens.histograms)
    # a time outside the run used to snap to its first or last record
    opts.histogram_times = [3.0 * period]
    with pytest.raises(ValueError, match="outside the run"):
        run_ensemble(p, 200j, 2 * period, 20, 3, opts)


def test_full_bloch_agrees_with_adiabatic_shortcut():
    # deep in the adiabatic regime the integrated emitter tracks the
    # instantaneous steady state to a couple of percent
    p = PhysParams(gamma=1.0, g=1.0, Omega=1e-2, g_m=2e-2, delta0=1.0)
    dur = 3 * p.mechanical_period
    fast = semiclassical_run(
        p, 10j, dur, TrajectoryOptions(steps_per_window=256, record_stride=16)
    )
    slow = semiclassical_run(
        p,
        10j,
        dur,
        TrajectoryOptions(steps_per_window=256, record_stride=16, full_bloch=True),
    )
    mask = fast.times > 10.0
    assert np.max(np.abs(fast.pe[mask] - slow.pe[mask])) <= 0.02 * np.max(fast.pe)
    assert np.max(np.abs(fast.beta - slow.beta)) <= 0.05


def test_variance_growth_requires_valid_durations():
    p = tls_noise_params()
    for periods in (0.5, 2.5):  # 2.5 used to run 3 periods
        with pytest.raises(ValueError, match="duration"):
            run_trajectory(p, 1.0 + 0j, 0.0, 0.0, periods * p.mechanical_period, 1)
    # on a schedule a NaN duration ran: the reference returned a NaN record and
    # the ensemble aborted every trajectory at t = nan
    opts = frozen_options(twisted_decomposition(1e-3, 1e-4, 0.0), 64)
    with pytest.raises(ValueError, match="^duration must be positive and finite"):
        semiclassical_run(p, 1.0 + 0j, math.nan, opts)
    with pytest.raises(ValueError, match="^duration must be positive and finite"):
        run_ensemble(p, 1.0 + 0j, math.nan, 4, 1, opts)


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: twisted_decomposition(1e-3, -1e-4, 0.0), "lambda_minus"),
        (lambda: twisted_decomposition(math.nan, 1e-4, 0.0), "lambda_plus"),
        (lambda: twisted_decomposition(math.inf, 1e-4, 0.0), "lambda_plus"),
        (lambda: twisted_decomposition(1e-3, 1e-4, math.nan), "theta"),
        (lambda: twisted_decomposition(1e-4, 1e-3, 0.0), "lambda_plus"),
        (lambda: dataclasses.replace(twisted_decomposition(1e-3, 1e-4, 0.0),
                                     v_minus=np.array([math.nan, 1.0])), "v_minus"),
        (lambda: WindowCoefficients(twisted_decomposition(1e-3, 1e-4, 0.0), 3.0), "pe"),
        (lambda: WindowCoefficients(twisted_decomposition(1e-3, 1e-4, 0.0), math.nan),
         "pe"),
    ],
    ids=["negative-rate", "nan-rate", "inf-rate", "nan-theta", "swapped-rates", "nan-vector",
         "pe-3", "nan-pe"],
)
def test_schedule_data_must_be_finite(make, field):
    # these used to build a schedule that failed in np.histogram ("autodetected
    # range of [nan, nan]"), aborted every trajectory, or reported mean_pe 3
    with pytest.raises(ValueError, match=f"^{field} must"):
        make()


def test_unphysical_state_aborts_step():
    # localisation terms of an already-unphysical state drive v_a negative
    p = PhysParams(gamma=1.0, g=1.0, Omega=1e-9, g_m=0.0)
    opts = frozen_options(twisted_decomposition(0.01, 0.0, 0.0), 64)
    with pytest.raises(TrajectoryAbort) as err:
        run_trajectory(p, 0j, 0.1, 100.0 + 0.0j, 64.0, 5, opts)
    assert err.value.time == 1.0


@pytest.mark.parametrize("scheduled", [True, False], ids=["schedule", "self-scheduled"])
def test_reference_carries_no_channels(scheduled):
    # the noise-free reference scatters through no channel, whether the
    # stochastic lanes take theirs from a schedule or from their own kernels
    if scheduled:
        p = frozen_frame_params()
        dec = twisted_decomposition(5e-3, 5e-4, 0.4)
        schedule = make_frozen_schedule(dec, 0.0, 2)
    else:
        p, schedule = tls_noise_params(), None
    opts = TrajectoryOptions(steps_per_window=256, record_stride=32, schedule=schedule)
    ref = semiclassical_run(p, 1.0 + 0j, 2 * 2.0 * math.pi / 0.01, opts)
    for name in ("lambda_plus", "lambda_minus", "theta"):
        assert np.all(getattr(ref, name) == 0.0), name
    assert np.all(ref.v_a == 0.0)
    assert np.all(ref.v_b == 0.0)


@pytest.mark.parametrize("scheduled", [True, False], ids=["schedule", "self-scheduled"])
def test_reference_damps_at_gamma(scheduled):
    # at g_m = 0 the reference is the damped rotation: each step multiplies it
    # by rot (1 - Gamma dt / 2), a first-order step of exp(-(i Omega + Gamma/2) dt);
    # with a schedule built by decompose, Gamma enters through h11 - h22
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.0, Gamma=1e-3, n_m=1.0)
    dec = decompose(p.Gamma, p.n_m, 2e-3, 5e-4 + 3e-4j)
    schedule = make_frozen_schedule(dec, 0.0, 2) if scheduled else None
    opts = TrajectoryOptions(steps_per_window=256, record_stride=16, schedule=schedule)
    beta0 = 3.0 - 4.0j
    ref = semiclassical_run(p, beta0, 2 * p.mechanical_period, opts)
    dt = p.mechanical_period / 256
    k = 16 * np.arange(len(ref.times))
    step = cmath.exp(-1j * p.Omega * dt) * (1.0 - 0.5 * p.Gamma * dt)
    assert np.max(np.abs(ref.beta - step**k * beta0)) <= 1e-12 * abs(beta0)
    # 0 <= exp(-x) - (1 - x) <= x^2 / 2 per step, with x = Gamma dt / 2
    exact = np.exp(-(1j * p.Omega + 0.5 * p.Gamma) * ref.times) * beta0
    assert np.all(np.abs(ref.beta - exact) <= k * (p.Gamma * dt) ** 2 / 8 * abs(beta0)
                  + 1e-12)
    assert abs(ref.beta[-1]) <= 0.6 * abs(beta0)


def test_ensemble_mean_follows_the_damped_reference():
    # at Gamma = 1e-3 the mean decays to 0.39 of |beta0| over three periods;
    # a reference without the damping sat about 200 standard errors away
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=5e-3, Gamma=1e-3, n_m=1.0)
    opts = TrajectoryOptions(steps_per_window=256, record_stride=64)
    ens = run_ensemble(p, 30j, 3 * p.mechanical_period, 100, 1, opts)
    assert np.all(np.abs(ens.mean_beta - ens.reference.beta) <= 3.0 * ens.se_beta)


def test_full_bloch_refuses_a_schedule():
    # a frozen schedule fixes pe per window; the Bloch population would
    # silently replace it, so the options refuse the pair at construction
    schedule = make_frozen_schedule(twisted_decomposition(1e-3, 1e-4, 0.0), 0.0, 2)
    with pytest.raises(ValueError, match="full_bloch and schedule"):
        TrajectoryOptions(
            steps_per_window=256, record_stride=32, schedule=schedule, full_bloch=True
        )


def test_closed_form_population_refuses_a_warm_emitter():
    # pe_closed_form is the n_q = 0 population: at n_q = 0.5 a run without
    # full_bloch used to return the zero-temperature force unchanged
    p = dataclasses.replace(tls_noise_params(), n_q=0.5)
    with pytest.raises(ValueError, match="^n_q = 0.5 needs full_bloch"):
        semiclassical_run(p, 1.0 + 0j, p.mechanical_period)
    bloch = TrajectoryOptions(steps_per_window=256, record_stride=32, full_bloch=True)
    ref = semiclassical_run(p, 1.0 + 0j, p.mechanical_period, bloch)
    assert np.all(np.isfinite(ref.pe))


def test_ensemble_abort_report():
    p = PhysParams(gamma=1.0, g=1.0, Omega=1e-9, g_m=0.0)
    dec = twisted_decomposition(0.01, 0.0, 0.0)
    schedule = make_frozen_schedule(dec, 0.0, 1)
    opts = TrajectoryOptions(steps_per_window=256, record_stride=256, schedule=schedule)
    with pytest.raises(EnsembleAbortError):
        run_ensemble(p, 0.0 + 0j, 256.0, 4, 8, opts, v_a0=0.1, v_b0=100.0 + 0.0j)


def whole_rows_ensemble(params, beta0, duration, seeds, opts, n_traj, master_seed):
    """The ensemble's statistics reduced from the whole rows of one batch of
    ``seeds``, as a reduction after the run computes them."""
    batch = _batch_run(params, beta0, 0.0, 0.0, duration, seeds, opts)
    ref = semiclassical_run(params, beta0, duration, opts)
    beta, times = batch["beta"], batch["times"]
    n_vals = batch["v_a"] + np.abs(beta) ** 2
    b2_vals = batch["v_b"] + beta**2
    dbeta = beta - ref.beta[None, :]
    histograms = []
    for target in trajectory.histogram_targets(duration, opts.histogram_times):
        idx = int(np.argmin(np.abs(times - target)))
        counts, edges = np.histogram(2.0 * params.g_m * dbeta[:, idx].real,
                                     bins=opts.histogram_bins)
        histograms.append((float(times[idx]), edges, counts))
    return dict(
        times=times, mean_beta=beta.mean(axis=0), mean_n=n_vals.mean(axis=0),
        mean_b2=b2_vals.mean(axis=0),
        var_dbeta_x=trajectory._sample_variance(dbeta.real),
        var_dbeta_p=trajectory._sample_variance(dbeta.imag),
        se_beta=trajectory._standard_error(dbeta),
        se_n=trajectory._standard_error(n_vals),
        se_b2=trajectory._standard_error(b2_vals),
        **{f"mean_{name}": batch[name].mean(axis=0)
           for name in ("pe", "lambda_plus", "lambda_minus", "theta")},
        histograms=histograms, reference=ref, n_traj=n_traj, master_seed=master_seed,
    )


def assert_bitwise(res, want):
    """Every field of ``res`` equals ``want``'s bit for bit, dtypes included."""
    assert {f.name for f in dataclasses.fields(res)} == set(want) | {"aborted"}
    for name, value in want.items():
        got = getattr(res, name)
        if name == "histograms":
            assert len(got) == len(value)
            for (t, edges, counts), (t_w, edges_w, counts_w) in zip(got, value):
                assert t == t_w
                assert np.array_equal(edges, edges_w) and np.array_equal(counts, counts_w)
        elif name == "reference":
            for f in dataclasses.fields(value):
                assert np.array_equal(getattr(got, f.name), getattr(value, f.name)), f.name
        elif isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and np.array_equal(got, value), name
        else:
            assert got == value, name


@pytest.mark.parametrize("n", [7, 33])
@pytest.mark.parametrize("per_window", [1, 2, 64])
def test_streamed_statistics_equal_the_whole_rows(monkeypatch, n, per_window):
    # the ensemble reduces each window's block of records as the batch hands it
    # over, with a schedule or without; numpy sums a block of two or more
    # columns row by row, as it does the whole rows, so every field matches bit
    # for bit.  At one record a window, window w's block takes 2 columns,
    # records w and w + 1.  A schedule's lanes share their variances, so only a
    # planted abort strikes one lane of its batch: lane n of 100 aborts, and
    # the rerun on the other 99 rewrites every row
    seeds = [derive_trajectory_seed(21, i) for i in range(100)]
    for p, schedules in ((tls_noise_params(), None),
                         (MAP_PARAMS, MAP_SCHEDULES["damped"] * 2)):
        period = p.mechanical_period
        for periods in (3, 4):
            opts = TrajectoryOptions(
                steps_per_window=256, record_stride=256 // per_window,
                histogram_times=[0.0, 1.0 * period, 2.5 * period], histogram_bins=9,
                schedule=schedules and schedules[:periods])
            duration = periods * period
            res = run_ensemble(p, 200j, duration, n, 21, opts)
            assert res.aborted == []
            assert_bitwise(res, whole_rows_ensemble(p, 200j, duration, seeds[:n], opts, n, 21))
    batch_run, batches = trajectory._batch_run, []

    def planted_batch_run(*args):
        batch = batch_run(*args)
        if not batches:
            batch["abort_time"] = np.where(np.arange(len(args[5])) == n, 3.5, np.nan)
        batches.append(args[5])
        return batch

    monkeypatch.setattr(trajectory, "_batch_run", planted_batch_run)
    res = run_ensemble(p, 200j, duration, 100, 21, opts)
    survivors = seeds[:n] + seeds[n + 1 :]
    assert res.aborted == [(n, 3.5)] and batches[1] == survivors + [None]
    assert_bitwise(res, whole_rows_ensemble(p, 200j, duration, survivors, opts, 100, 21))


@pytest.mark.parametrize("case", ["self-scheduled", "schedule"])
def test_reduction_is_the_sample_statistics_of_the_lanes(case):
    # at every record, var_dbeta_x and var_dbeta_p are np.var(ddof=1) of the
    # lanes' dbeta, beta less the reference's, and se_n and se_b2 are sqrt(s^2
    # / n), s^2 the squared deviations of n = v_a + |beta|^2 and b2 = v_b +
    # beta^2 from their means, summed over the lanes and divided by n - 1.  A
    # variance over n in place of n - 1 is 3% low at these 34 lanes
    p, schedule = ((MAP_PARAMS, MAP_SCHEDULES["damped"]) if case == "schedule"
                   else (tls_noise_params(), None))
    opts = TrajectoryOptions(steps_per_window=256, record_stride=32, schedule=schedule)
    n, start, duration = 34, (200j, 0.3, 0.1j), 2 * p.mechanical_period
    res = run_ensemble(p, start[0], duration, n, 8, opts, *start[1:])
    seeds = [derive_trajectory_seed(8, i) for i in range(n)] + [None]
    batch = _batch_run(p, *start, duration, seeds, opts)
    beta, v_a, v_b = batch["beta"][:n], batch["v_a"][:n], batch["v_b"][:n]
    dbeta = beta - batch["beta"][n]
    assert np.ptp(dbeta[:, -1].real) > 0 and np.ptp(dbeta[:, -1].imag) > 0
    np.testing.assert_allclose(res.var_dbeta_x, np.var(dbeta.real, axis=0, ddof=1),
                               rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.var_dbeta_p, np.var(dbeta.imag, axis=0, ddof=1),
                               rtol=1e-12, atol=0)
    for name, x in (("se_n", v_a + np.abs(beta) ** 2), ("se_b2", v_b + beta**2)):
        s2 = (np.abs(x - x.mean(axis=0)) ** 2).sum(axis=0) / (n - 1)
        np.testing.assert_allclose(getattr(res, name), np.sqrt(s2 / n), rtol=1e-9, atol=0)


@pytest.mark.parametrize("full_bloch", [False, True])
@pytest.mark.parametrize("per_window", [1, 2, 64])
def test_each_window_hands_over_its_own_records(per_window, full_bloch):
    # window w hands the sink records w P .. (w + 1) P, both ends included, so
    # every block is at least 2 columns wide.  The record two windows share
    # comes twice, and the later block holds the next window's channel data, as
    # the whole rows do; so the blocks replayed in order are the whole rows.  A
    # schedule's batch, which excludes full_bloch, hands them over in the same
    # way after its record map
    cases = [(tls_noise_params(), None)]
    if not full_bloch:
        cases.append((MAP_PARAMS, MAP_SCHEDULES["two-windows"] + MAP_SCHEDULES["damped"][:1]))
    seeds = [derive_trajectory_seed(5, i) for i in range(4)]
    for p, schedule in cases:
        opts = TrajectoryOptions(steps_per_window=256, record_stride=256 // per_window,
                                 full_bloch=full_bloch, schedule=schedule)
        duration = 3 * p.mechanical_period
        whole = _batch_run(p, 200j, 0.0, 0.0, duration, seeds, opts)
        spans, replay = [], {name: np.empty_like(whole[name]) for name in _RECORDED}

        def sink(lo, hi, block):
            spans.append((lo, hi))
            assert set(block) == set(_RECORDED)
            for name, x in block.items():
                assert x.shape[1] == hi - lo >= 2
                replay[name][:, lo:hi] = x

        _batch_run(p, 200j, 0.0, 0.0, duration, seeds, opts, sink)
        assert spans == [(w * per_window, (w + 1) * per_window + 1) for w in range(3)]
        for name in _RECORDED:
            assert replay[name].tobytes() == whole[name].tobytes(), name


def run_small_ensemble(runner, n_traj, master_seed):
    """A cheap ensemble of either Monte Carlo runner."""
    if runner == "run_ensemble":
        p = tls_noise_params()
        opts = TrajectoryOptions(steps_per_window=256, record_stride=64)
        return run_ensemble(p, 200j, p.mechanical_period, n_traj, master_seed, opts)
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.05, g_m=0.001)
    schedule = make_frozen_schedule(twisted_decomposition(1e-3, 1e-4, 0.0), 0.0, 1)
    period = p.mechanical_period
    return sse_ensemble(p, coherent_state(12, 0.5), period, period / 512, n_traj,
                        master_seed, schedule, record_stride=128)


@pytest.mark.parametrize(
    "field, value",
    [("n_traj", 4.0), ("n_traj", True), ("n_traj", 0), ("master_seed", 1.5),
     ("master_seed", True)],
)
@pytest.mark.parametrize("runner", ["run_ensemble", "sse_ensemble"])
def test_ensemble_counts_are_refused_before_any_work(monkeypatch, runner, field, value):
    # unchecked, n_traj 4.0 runs the reference and then fails in range(), True
    # fails in np.broadcast_to, master_seed 1.5 fails in derive_trajectory_seed's
    # &, and True runs as seed 1
    def no_batch(*args, **kwargs):
        raise AssertionError("a batch ran before the arguments were checked")

    monkeypatch.setattr(trajectory, "_batch_run", no_batch)
    monkeypatch.setattr(oracle, "_sse_batch", no_batch)
    args = {"n_traj": 4, "master_seed": 3, field: value}
    with pytest.raises(ValueError, match=f"^{field} must"):
        run_small_ensemble(runner, **args)


@pytest.mark.parametrize("runner", ["run_ensemble", "sse_ensemble"])
def test_numpy_integer_counts_give_the_same_bits(runner):
    # derive_trajectory_seed overflows on an np.int64 master seed unless given its int
    got = run_small_ensemble(runner, np.int64(4), np.int64(3))
    want = run_small_ensemble(runner, 4, 3)
    if runner == "run_ensemble":
        assert type(got.master_seed) is int and type(got.n_traj) is int
        assert_bitwise(got, {f.name: getattr(want, f.name) for f in dataclasses.fields(want)
                             if f.name != "aborted"})
    else:
        for name in ("times", "b", "n", "b2"):
            assert np.array_equal(getattr(got.moments, name), getattr(want.moments, name))
        for name in ("se_b", "se_n", "se_b2"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_empty_schedule_is_refused():
    p = frozen_frame_params()
    opts = TrajectoryOptions(steps_per_window=256, record_stride=64, schedule=[])
    with pytest.raises(ValueError, match="^schedule must contain at least one window"):
        run_ensemble(p, 0j, 1.0, 2, 0, opts)


def test_planted_abort_reruns_the_survivors(monkeypatch):
    # lane 37 of 100 turns NaN 100 steps into window 1: the ensemble reports it,
    # then reruns the other 99 seeds, so its statistics are the whole rows' of
    # those 99 bit for bit, as when every lane's rows were kept to the end
    p = tls_noise_params()
    period, steps = p.mechanical_period, 256
    opts = TrajectoryOptions(steps_per_window=steps, record_stride=8)
    seeds = [derive_trajectory_seed(4, i) for i in range(100)]
    planted, lanes = {seeds[37]}, {"hit": [], "window": 0}
    lane_generators, variance_step = trajectory._lane_generators, trajectory._variance_step

    def planted_generators(batch_seeds):
        lanes.update(hit=[i for i, s in enumerate(batch_seeds) if s in planted], window=0)
        return lane_generators(batch_seeds)

    def planted_variance_step(*args):
        va_rows, vb_rows = variance_step(*args)
        if lanes["window"] == 1:
            va_rows[100:, lanes["hit"]] = np.nan
        lanes["window"] += 1
        return va_rows, vb_rows

    monkeypatch.setattr(trajectory, "_lane_generators", planted_generators)
    monkeypatch.setattr(trajectory, "_variance_step", planted_variance_step)
    res = run_ensemble(p, 200j, 3 * period, 100, 4, opts)
    assert res.aborted == [(37, (steps + 100) * (period / steps))]
    survivors = seeds[:37] + seeds[38:]
    assert_bitwise(res, whole_rows_ensemble(p, 200j, 3 * period, survivors, opts, 100, 4))
    # two lanes of 100 are more than the 1% an ensemble may lose
    planted.add(seeds[80])
    with pytest.raises(EnsembleAbortError, match="^2/100 trajectories aborted"):
        run_ensemble(p, 200j, 3 * period, 100, 4, opts)


def test_abort_tolerance_is_the_edge_of_an_abort(monkeypatch):
    # 100 steps into window 1, v_a dips to -0.5e-9 in lane 12 and to -2e-9 in
    # lane 61: only lane 61 lies below -ABORT_VA_TOL, so it alone aborts, at
    # that step.  A tolerance of 1e-8 aborts neither, and one of 1e-10 both
    p = tls_noise_params()
    period, steps = p.mechanical_period, 256
    opts = TrajectoryOptions(steps_per_window=steps, record_stride=8)
    seeds = [derive_trajectory_seed(4, i) for i in range(100)]
    dips, state = {seeds[12]: -0.5e-9, seeds[61]: -2e-9}, {"lanes": [], "window": 0}
    lane_generators, variance_step = trajectory._lane_generators, trajectory._variance_step

    def planted_generators(batch_seeds):
        state.update(lanes=[(i, dips[s]) for i, s in enumerate(batch_seeds) if s in dips],
                     window=0)
        return lane_generators(batch_seeds)

    def planted_variance_step(*args):
        va_rows, vb_rows = variance_step(*args)
        if state["window"] == 1:
            for i, dip in state["lanes"]:
                va_rows[100, i] = dip
        state["window"] += 1
        return va_rows, vb_rows

    monkeypatch.setattr(trajectory, "_lane_generators", planted_generators)
    monkeypatch.setattr(trajectory, "_variance_step", planted_variance_step)
    res = run_ensemble(p, 200j, 3 * period, 100, 4, opts)
    assert res.aborted == [(61, (steps + 100) * (period / steps))]


@pytest.mark.parametrize("case", ["self-scheduled", "full_bloch", "schedule", "rerun"])
def test_ensemble_reference_is_the_semiclassical_run(monkeypatch, case):
    # the batch's last lane is the reference: every field of its record is
    # semiclassical_run's, bit for bit, also after a rerun on the survivors
    # (lane 3 turns NaN 100 steps into window 1).  The lanes start at v_a0 =
    # -ABORT_VA_TOL, the lowest allowed; the reference's lane starts at zero,
    # since from theirs its rotation alone can fall below the tolerance by
    # roundoff
    p, schedule = (MAP_PARAMS, MAP_SCHEDULES["damped"]) if case == "schedule" else (
        tls_noise_params(), None)
    opts = TrajectoryOptions(steps_per_window=256, record_stride=16, schedule=schedule,
                             full_bloch=case == "full_bloch")
    duration = 2 * p.mechanical_period
    want = semiclassical_run(p, 200j, duration, opts)
    variance_step, windows = trajectory._variance_step, []

    def planted_variance_step(*args):
        va_rows, vb_rows = variance_step(*args)
        if len(windows) == 1:
            va_rows[100:, 3] = np.nan
        windows.append(1)
        return va_rows, vb_rows

    if case == "rerun":
        monkeypatch.setattr(trajectory, "_variance_step", planted_variance_step)
    res = run_ensemble(p, 200j, duration, 100 if case == "rerun" else 5, 7, opts,
                       v_a0=-ABORT_VA_TOL)
    assert len(res.aborted) == (case == "rerun")
    assert res.reference.seed is None
    for f in dataclasses.fields(want):
        got, value = getattr(res.reference, f.name), getattr(want, f.name)
        if f.name != "seed":
            assert got.dtype == value.dtype and np.array_equal(got, value), f.name


def test_ensemble_memory_does_not_grow_with_the_run():
    # the lanes' records stream through one window's block, so only the mean
    # rows grow with the run: holding every lane's rows, 16 lanes at one record
    # a step took 2.5x the peak over 12 periods that they took over 3
    p = tls_noise_params()
    opts = TrajectoryOptions(steps_per_window=64, record_stride=1)
    run_ensemble(p, 200j, p.mechanical_period, 16, 2, opts)  # numpy's first-call caches
    peaks = []
    for periods in (3, 12):
        tracemalloc.start()
        try:
            run_ensemble(p, 200j, periods * p.mechanical_period, 16, 2, opts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_scheduled_ensemble_holds_its_records_and_one_draw_block():
    # criterion 6's schedule at 2,000 lanes: the beta records, 41 a lane, take
    # 656 B a lane, and the run peaks at about 1.4 KB a lane with one window's
    # reduction.  A generator for every lane, the whole run's reduction at once
    # and a panel-detuning table it never reads took 3.3 KB
    params = PhysParams(gamma=1.0, g=1.0, Omega=1e-9, g_m=0.0)
    schedule = make_frozen_schedule(twisted_decomposition(5e-3, 5e-4, 0.0), 0.0, 5)
    opts = TrajectoryOptions(steps_per_window=1024, record_stride=128, schedule=schedule)
    duration = 5 * 2.0 * math.pi / 0.01
    run_ensemble(params, 1.0 + 0j, duration, 200, 1112, opts)  # numpy's first-call caches
    tracemalloc.start()
    try:
        run_ensemble(params, 1.0 + 0j, duration, 2000, 1112, opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2048 * 2000, peak / 2000


@pytest.mark.parametrize("lanes, steps, full_bloch",
                         [(50, 4096, False), (200, 4096, False), (50, 1024, True)])
def test_window_footprint_is_bounded_by_window_bytes(lanes, steps, full_bloch):
    # one window of long_run's parameters with a sink, stride = steps, the
    # reference lane last: the tracemalloc peak lies within 15% below
    # _window_bytes' total, and at 200 lanes under 64 bytes a lane-step.  The
    # whole-window noise, k and l rows took 137 bytes a lane-step at 200 lanes
    p = tls_noise_params()
    seeds = [derive_trajectory_seed(5, i) for i in range(lanes - 1)] + [None]

    def window(steps):
        opts = TrajectoryOptions(steps_per_window=steps, record_stride=steps,
                                 full_bloch=full_bloch)
        _batch_run(p, 200j, 0.0, 0.0, p.mechanical_period, seeds, opts, lambda *block: None)

    window(256)  # numpy's first-call caches
    tracemalloc.start()
    try:
        window(steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    total = sum(trajectory._window_bytes(lanes, steps, steps).values())
    assert 0.85 * total < peak <= total, (peak, total)
    if lanes == 200:
        assert peak < 64 * lanes * steps, peak / (lanes * steps)


@pytest.mark.parametrize("block", [1, 7, 256])
@pytest.mark.parametrize("full_bloch", [False, True])
def test_draw_block_split_changes_no_bit(monkeypatch, block, full_bloch):
    # 67 trajectories and the reference drawn and kicked in blocks of 1, 7 or
    # 256 lanes give the default 32-lane split's records bit for bit, whole
    # rows and through a sink.  100 steps into window 1, v_a dips to -2e-9 in
    # lane 65, in the default split's third block: the step that takes it
    # there, to t = 356 dt, has a NaN kick, so beta is NaN from record 89 on
    p = tls_noise_params()
    opts = TrajectoryOptions(steps_per_window=256, record_stride=4, full_bloch=full_bloch)
    seeds = [derive_trajectory_seed(6, i) for i in range(67)] + [None]
    variance_step = trajectory._variance_step

    def runs():
        windows = []

        def planted_variance_step(*args):
            va_rows, vb_rows = variance_step(*args)
            if len(windows) % 3 == 1:  # window 1 of each run
                va_rows[100, 65] = -2e-9
            windows.append(1)
            return va_rows, vb_rows

        monkeypatch.setattr(trajectory, "_variance_step", planted_variance_step)
        whole = _batch_run(p, 200j, 0.0, 0.0, 3 * p.mechanical_period, seeds, opts)
        blocks = []
        _batch_run(p, 200j, 0.0, 0.0, 3 * p.mechanical_period, seeds, opts,
                   lambda lo, hi, rec: blocks.append({k: x.copy() for k, x in rec.items()}))
        return whole, blocks

    want = runs()
    monkeypatch.setattr(trajectory, "_DRAW_BLOCK", block)
    got = runs()
    assert np.isnan(want[0]["abort_time"]).sum() == 67
    assert np.isfinite(want[0]["beta"][65, 88]) and np.isnan(want[0]["beta"][65, 89:]).all()
    for name, value in want[0].items():
        assert np.array_equal(got[0][name], value, equal_nan=True), name
    assert len(got[1]) == len(want[1]) == 3
    for got_block, want_block in zip(*(r[1] for r in (got, want))):
        for name, value in want_block.items():
            assert np.array_equal(got_block[name], value, equal_nan=True), name


def _start_ensemble(beta0=1.0, v_a0=0.0, v_b0=0.0):
    p = tls_noise_params()
    run_ensemble(p, beta0, p.mechanical_period, 8, 3, v_a0=v_a0, v_b0=v_b0)


def _start_trajectory(beta0=1.0, v_a0=0.0, v_b0=0.0):
    p = tls_noise_params()
    run_trajectory(p, beta0, v_a0, v_b0, p.mechanical_period, 3)


def _start_reference(beta0):
    p = tls_noise_params()
    semiclassical_run(p, beta0, p.mechanical_period)


@pytest.mark.parametrize(
    "start, kwargs, name",
    [
        (_start_ensemble, {"beta0": complex(math.nan, 0.0)}, "beta0"),
        (_start_ensemble, {"v_a0": math.inf}, "v_a0"),
        (_start_ensemble, {"v_a0": -0.5}, "v_a0"),
        (_start_ensemble, {"v_b0": complex(0.0, math.nan)}, "v_b0"),
        (_start_trajectory, {"beta0": complex(math.inf, 0.0)}, "beta0"),
        (_start_trajectory, {"v_a0": math.nan}, "v_a0"),
        (_start_trajectory, {"v_b0": complex(-math.inf, 0.0)}, "v_b0"),
        (_start_reference, {"beta0": complex(math.nan, 0.0)}, "beta0"),
        (_start_reference, {"beta0": complex(0.0, math.inf)}, "beta0"),
    ],
    ids=["ensemble-nan-beta0", "ensemble-inf-va0", "ensemble-negative-va0",
         "ensemble-nan-vb0", "trajectory-inf-beta0", "trajectory-nan-va0",
         "trajectory-inf-vb0", "reference-nan-beta0", "reference-inf-beta0"],
)
def test_initial_moments_must_be_finite(start, kwargs, name):
    # these used to abort every trajectory after the first step, as if the run
    # had turned unphysical, or, for the reference, to return NaN without a word
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        start(**kwargs)


def moment_rhs(va, vb, omega, channels):
    """Conditional-variance equations of the moments, localisation included."""
    dva, dvb = 0.0, -2j * omega * vb
    for lam, u, w in channels:
        a = u * vb + w * (va + 1.0)
        c = u.conjugate() * va + w.conjugate() * vb
        damp = abs(u) ** 2 - abs(w) ** 2
        dva += lam * (-damp * va + abs(w) ** 2 - abs(a) ** 2 - abs(c) ** 2)
        dvb += lam * (-damp * vb - u.conjugate() * w - 2.0 * a * c)
    return dva, dvb


def fine_rk4_rows(va, vb, dt, steps, omega, channels, sub=64):
    h = dt / sub
    va_rows, vb_rows = [va], [vb]
    for _ in range(steps):
        for _ in range(sub):
            k1 = moment_rhs(va, vb, omega, channels)
            k2 = moment_rhs(va + h / 2 * k1[0], vb + h / 2 * k1[1], omega, channels)
            k3 = moment_rhs(va + h / 2 * k2[0], vb + h / 2 * k2[1], omega, channels)
            k4 = moment_rhs(va + h * k3[0], vb + h * k3[1], omega, channels)
            va += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
            vb += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        va_rows.append(va)
        vb_rows.append(vb)
    return np.array(va_rows), np.array(vb_rows)


def exact_rows(va, vb, dt, steps, omega, dec):
    """The engine's variance rows for one lane of frozen channel data."""
    rows = _variance_step(
        np.array([va]), np.array([vb], dtype=complex), dt, steps, omega,
        *(np.array([x]) for x in (dec.lambda_plus, dec.lambda_minus, *dec.v_plus,
                                  *dec.v_minus)),
    )
    return rows[0][:, 0], rows[1][:, 0]


@pytest.mark.parametrize(
    "dec, omega, dt, va0, vb0",
    [
        (  # thermal channels b and b^dagger, Gamma = 2e-3, n_m = 2
            QuadratureDecomposition(
                6e-3, 4e-3, np.array([1.0 + 0j, 0j]), np.array([0j, 1.0 + 0j]), 0.0
            ),
            0.01, 2 * math.pi / 0.01 / 256, 0.5, 0j,
        ),
        (twisted_decomposition(0.03, 0.006, 0.6), 1e-3, 2.0, 0.3, 0.2 - 0.1j),
        (twisted_decomposition(0.02, 0.005, 0.2), 0.05, 1.0, 1.0, 0.5j),
    ],
    ids=["thermal", "twisted", "rotating"],
)
def test_exact_variance_map_matches_fine_rk4(dec, omega, dt, va0, vb0):
    steps = 256
    va, vb = exact_rows(va0, vb0, dt, steps, omega, dec)
    channels = [
        (dec.lambda_plus, complex(dec.v_plus[0]), complex(dec.v_plus[1])),
        (dec.lambda_minus, complex(dec.v_minus[0]), complex(dec.v_minus[1])),
    ]
    ref_a, ref_b = fine_rk4_rows(va0, complex(vb0), dt, steps, omega, channels)
    assert va.shape == (steps + 1,) and va[0] == va0
    assert np.max(np.abs(va - ref_a)) <= 1e-10
    assert np.max(np.abs(vb - ref_b)) <= 1e-10
    # the window moves the variances well away from their start
    assert np.max(np.abs(va - va0)) >= 1e-3


def test_expm_matches_eigendecomposition():
    # norms from 1e-2 to 20 exercise the series alone and with squaring
    rng = np.random.default_rng(11)
    m = rng.normal(size=(4, 4, 40)) * np.logspace(-2, 1.3, 40)
    eig, vec = np.linalg.eig(np.moveaxis(m, -1, 0))
    ref = np.real(vec @ (np.exp(eig)[:, :, None] * np.linalg.inv(vec)))
    got = np.moveaxis(_expm(m), -1, 0)
    scale = np.max(np.abs(ref), axis=(1, 2))
    assert np.all(np.max(np.abs(got - ref), axis=(1, 2)) <= 1e-12 * scale)


def test_exact_variance_map_is_independent_of_the_batch():
    # seven lanes of different channel data, one of them an aborted (NaN)
    # lane and one coarse enough to need its own scaling and squaring
    rng = np.random.default_rng(3)
    decs = [twisted_decomposition(lp, 0.3 * lp, th)
            for lp, th in zip(rng.uniform(1e-3, 0.05, 7), rng.uniform(-1, 1, 7))]
    decs[5] = twisted_decomposition(0.5, 0.2, 0.4)
    lanes = [np.array(x) for x in zip(*[
        (d.lambda_plus, d.lambda_minus, *d.v_plus, *d.v_minus) for d in decs
    ])]
    lanes[0][2] = np.nan
    va = rng.uniform(0.0, 1.0, 7)
    vb = 0.3 * va * np.exp(1j * rng.uniform(0, 2 * math.pi, 7))

    def run(sl):
        return _variance_step(va[sl], vb[sl], 2.0, 256, 0.01, *(c[sl] for c in lanes))

    whole = run(slice(None))
    assert np.all(np.isnan(whole[0][1:, 2])) and np.all(np.isnan(whole[1][1:, 2]))
    keep = np.arange(7) != 2
    assert np.all(np.isfinite(whole[0][:, keep]))
    assert np.all(np.isfinite(whole[1][:, keep]))
    for size in (1, 3):
        parts = [run(slice(i, i + size)) for i in range(0, 7, size)]
        for k in range(2):
            joined = np.concatenate([p[k] for p in parts], axis=1)
            assert np.array_equal(joined, whole[k], equal_nan=True)


def test_exact_variance_map_keeps_pure_states_pure():
    # lambda_+ * window = 20 from the vacuum: the conditional state stays pure
    dec = twisted_decomposition(0.05, 0.02, 0.6)
    steps = 256
    va, vb = exact_rows(0.0, 0j, 20.0 / (steps * 0.05), steps, 0.01, dec)
    assert np.max(va) >= 0.01
    assert np.max(np.abs(vb) ** 2 - va * (va + 1.0)) <= 1e-12


def test_abort_time_is_first_step_below_tolerance():
    # an unphysical start whose v_a falls through -ABORT_VA_TOL a few steps in
    p = PhysParams(gamma=1.0, g=1.0, Omega=1e-9, g_m=0.0)
    dec = twisted_decomposition(0.01, 0.0, 0.0)
    va, _ = exact_rows(0.1, 1.0 + 0j, 1.0, 64, p.Omega, dec)
    first = int(np.argmax(~(va[1:] >= -ABORT_VA_TOL)))
    assert va[first + 1] < -ABORT_VA_TOL and 0 < first < 63
    opts = frozen_options(dec, 64)
    with pytest.raises(TrajectoryAbort) as err:
        run_trajectory(p, 0j, 0.1, 1.0 + 0j, 64.0, 5, opts)
    assert err.value.time == first + 1.0
    batch = _batch_run(p, 0j, 0.1, 1.0 + 0j, 64.0, [5, 6], opts)
    assert not np.isnan(batch["abort_time"]).any()
    assert np.all(batch["abort_time"] == first + 1.0)
    # records up to the aborting step are finite, and NaN after it
    assert np.all(np.isfinite(batch["v_a"][:, : first + 1]))
    assert np.all(np.isnan(batch["v_a"][:, first + 1 :]))
    assert np.all(np.isnan(batch["beta"][:, first + 1 :]))


@pytest.mark.parametrize(
    "field, value",
    [("record_stride", 0), ("record_stride", -4), ("steps_per_window", 0),
     ("histogram_bins", 0), ("steps_per_window", 256.0), ("record_stride", 4.0),
     ("record_stride", True), ("histogram_bins", 41.0)],
)
def test_bad_engine_grid_names_field(field, value):
    # these used to fail inside the run: a ZeroDivisionError, numpy's negative
    # dimensions, a float where numpy wants an integer, or np.histogram after
    # the whole ensemble had run
    with pytest.raises(ValueError, match=f"^{field}"):
        TrajectoryOptions(**{field: value})


def stepwise_scheduled_beta(params, beta0, v_a0, v_b0, duration, seeds, options,
                            coeffs=None):
    """The amplitude records of a scheduled run taken one step at a time, as
    the engine took them before it composed each record stride into one map:
    beta <- damp beta + rot_half (force + k dW + l conj(dW)).  ``seeds``
    [None] gives the noise-free reference, which damps as the lanes do but scatters
    through no channel.  With
    a list ``coeffs``, the increments dW are zero instead of drawn, and each
    window appends to it its damp and its steps' k_p, l_p, k_m and l_m."""
    schedule, steps = options.schedule, options.steps_per_window
    _, window = resolve_windows(params, duration, schedule)
    dt, omega = window / steps, params.Omega
    rot, rot_half = cmath.exp(-1j * omega * dt), cmath.exp(-0.5j * omega * dt)
    noise = seeds != [None]
    gens = reference_generators(seeds if noise else ())
    beta = np.full(len(seeds), complex(beta0))
    va, vb = np.array([float(v_a0)]), np.array([complex(v_b0)])
    out = []
    for wc in schedule:
        d = wc.decomp
        lam_p, lam_m, u_p, w_p, u_m, w_m = (
            np.array([x]) for x in (d.lambda_plus, d.lambda_minus, *d.v_plus, *d.v_minus)
        )
        # the reference damps as the lanes do; it draws no kicks below
        c_damp = lam_p * (abs(u_p) ** 2 - abs(w_p) ** 2) + lam_m * (
            abs(u_m) ** 2 - abs(w_m) ** 2)
        damp = rot * (1.0 - 0.5 * c_damp * dt)
        if noise:
            va_rows, vb_rows = _variance_step(
                va, vb, dt, steps, omega, lam_p, lam_m, u_p, w_p, u_m, w_m)
            bad = ~(va_rows[1:] >= -ABORT_VA_TOL)
            late = bad.any(axis=0) & (np.arange(steps)[:, None] >= np.argmax(bad, axis=0))
            va_rows[1:][late] = vb_rows[1:][late] = np.nan
            va_pre, vb_pre = va_rows[:-1], vb_rows[:-1]
            k_p = np.sqrt(lam_p) * (u_p * vb_pre + w_p * (va_pre + 1.0))
            l_p = np.sqrt(lam_p) * (np.conj(u_p) * va_pre + np.conj(w_p) * vb_pre)
            k_m = np.sqrt(lam_m) * (u_m * vb_pre + w_m * (va_pre + 1.0))
            l_m = np.sqrt(lam_m) * (np.conj(u_m) * va_pre + np.conj(w_m) * vb_pre)
            k_p[late] = np.nan
            if coeffs is None:
                dw_p, dw_m = draw_increments(gens, steps, dt)
            else:
                dw_p = dw_m = np.zeros((steps, len(gens)), dtype=complex)
                coeffs.append((damp[0], k_p[:, 0], l_p[:, 0], k_m[:, 0], l_m[:, 0]))
            va, vb = va_rows[-1], vb_rows[-1]
        for j in range(steps):
            if j % options.record_stride == 0:
                out.append(beta)
            kick = 0.0 if not noise else (
                k_p[j] * dw_p[j] + l_p[j] * np.conj(dw_p[j])
                + k_m[j] * dw_m[j] + l_m[j] * np.conj(dw_m[j]))
            beta = damp * beta + rot_half * (-1j * params.g_m * wc.pe * dt + kick)
    return np.stack(out + [beta], axis=1)


MAP_PARAMS = PhysParams(gamma=1.0, g=1.0, Omega=0.02, g_m=3e-3)
MAP_SCHEDULES = {
    # g_m pe != 0 drives the amplitude in both windows
    "force": [WindowCoefficients(twisted_decomposition(2e-3, 4e-4, 0.0), 0.3)] * 2,
    "theta": [WindowCoefficients(twisted_decomposition(2e-3, 4e-4, 0.4), 0.0)] * 2,
    "zero-rate": [WindowCoefficients(twisted_decomposition(2e-3, 0.0, 0.0), 0.0)] * 2,
    "two-windows": [WindowCoefficients(twisted_decomposition(2e-3, 4e-4, 0.4), 0.3),
                    WindowCoefficients(twisted_decomposition(1e-3, 0.0, -0.7), 0.6)],
    # twisted channels leave the mean undamped; these damp it at Gamma, a
    # different rate in each window
    "damped": [WindowCoefficients(decompose(1e-3, 0.5, 2e-3, 5e-4 + 3e-4j), 0.3),
               WindowCoefficients(decompose(4e-4, 1.0, 1e-3, -2e-4j), 0.6)],
}


def planted_normals(gens, rows, sink):
    """Stands in for a scheduled run's draws, one call for all its records:
    each record reads a pair of a lane's normals, here (1, 0) in lane 0,
    (0, 1) in lane 1 and (0, 0) in lane 2."""
    if gens:
        x = np.zeros((3, rows, 2, 2))
        x[0, :, :, 0] = x[1, :, :, 1] = 1.0
        sink(0, 3, x.reshape(3, rows, 4))


def stride_covariances(coeffs, params, duration, options):
    """Each record's covariance sum W W^T over its stride's normals, summed
    step by step from the ``coeffs`` of ``stepwise_scheduled_beta``: step i's
    kick k dW + l conj(dW) at dW = sqrt(dt / 2) and i sqrt(dt / 2), the
    increments of its two unit normals per channel, carried to the record's
    end by rot_half damp^(S-1-i).  Returns (records, 2, 2)."""
    steps, stride = options.steps_per_window, options.record_stride
    dt = duration / len(options.schedule) / steps
    unit, rot_half = math.sqrt(0.5 * dt), cmath.exp(-0.5j * params.Omega * dt)
    out = []
    for damp, k_p, l_p, k_m, l_m in coeffs:
        kicks = np.array([k * dw + l * np.conj(dw) for k, l in ((k_p, l_p), (k_m, l_m))
                          for dw in (unit, 1j * unit)])
        z = kicks * rot_half * damp ** (stride - 1 - np.arange(steps) % stride)
        w = np.stack([z.real, z.imag]).reshape(2, 4, steps // stride, stride)
        out.append(np.einsum("iqrs,jqrs->rij", w, w))
    return np.concatenate(out)


@pytest.mark.parametrize("stride", [1, 32, 256])
@pytest.mark.parametrize("case", list(MAP_SCHEDULES))
def test_record_map_matches_the_steps_it_composes(monkeypatch, case, stride):
    # each record stride's S steps folded into one map per record, for the
    # noisy lanes and the noise-free reference, on a 256-step window.  The
    # lanes' two normals per record are planted: lane 2's zeros make it the
    # stepwise run without kicks, and lanes 0 and 1 less lane 2 give each
    # record's root L, whose L L^T must be the stepwise sum of W W^T
    monkeypatch.setattr(trajectory, "_draw_window_noise", planted_normals)
    opts = TrajectoryOptions(steps_per_window=256, record_stride=stride,
                             schedule=MAP_SCHEDULES[case])
    duration = 2 * MAP_PARAMS.mechanical_period
    start = (0.8 - 0.4j, 0.3, 0.1 + 0.05j)
    seeds = [derive_trajectory_seed(77, i) for i in range(3)]
    for lanes, v_start in ((seeds, start[1:]), ([None], (0.0, 0.0))):
        coeffs = []
        got = _batch_run(MAP_PARAMS, start[0], *v_start, duration, lanes, opts)
        want = stepwise_scheduled_beta(MAP_PARAMS, start[0], *v_start, duration,
                                       lanes, opts, coeffs)
        assert np.max(np.abs(got["beta"][-1] - want[-1])) <= 1e-12 * np.max(np.abs(want))
        pe = [wc.pe for wc in opts.schedule for _ in range(256 // stride)]
        assert np.all(got["pe"] == pe + [opts.schedule[-1].pe])
        if coeffs:  # L's column j: lane j's increment less lane 2's
            d = got["beta"][:2] - got["beta"][2]
            a_s = np.repeat([c[0] for c in coeffs], 256 // stride) ** stride
            col = d[:, 1:] - a_s * d[:, :-1]
            root = np.stack([col.real, col.imag]).transpose(2, 0, 1)
            cov = stride_covariances(coeffs, MAP_PARAMS, duration, opts)
            err = np.abs(root @ root.transpose(0, 2, 1) - cov).max(axis=(1, 2))
            assert np.all(err <= 1e-12 * np.abs(cov).max(axis=(1, 2)))


def lane_stream(k, m):
    """Normal m of lane k's stand-in stream: distinct values, and zeros in lane 2."""
    return np.where(k == 2, 0.0, np.cos(1.0 + 0.37 * m + 1.9 * k))


def streamed_normals():
    """Stands in for ``_draw_window_noise`` as each lane's generator would:
    every call hands a lane the next ``4 rows`` normals of its
    ``lane_stream``, so one call per window and one per run read alike.  The
    draw itself hands them to the caller's sink."""
    used = 0

    class Stream:  # lane k's generator
        def __init__(self, k):
            self.k = k

        def standard_normal(self, out):
            out[...] = lane_stream(self.k, used + np.arange(out.size)).reshape(out.shape)

    def draw(gens, rows, sink):
        nonlocal used
        _draw_window_noise([Stream(k) for k in range(len(gens))], rows, sink)
        used += 4 * rows

    return draw


@pytest.mark.parametrize("steps, stride", [(256, 256), (192, 64)])
def test_record_draws_follow_each_lanes_stream(monkeypatch, steps, stride):
    # with P records per window, record q of window v reads normals
    # 4 v ceil(P / 2) + 2q and the next of its lane's stream, so an odd P
    # leaves each window an unused pair: lane j's increment less lane 2's,
    # whose stream is zeros, is the root of C_r times those two normals
    monkeypatch.setattr(trajectory, "_draw_window_noise", streamed_normals())
    opts = TrajectoryOptions(steps_per_window=steps, record_stride=stride,
                             schedule=MAP_SCHEDULES["two-windows"])
    duration = 2 * MAP_PARAMS.mechanical_period
    start = (0.8 - 0.4j, 0.3, 0.1 + 0.05j)
    seeds = [derive_trajectory_seed(77, i) for i in range(3)]
    beta = _batch_run(MAP_PARAMS, *start, duration, seeds, opts)["beta"]
    coeffs = []
    stepwise_scheduled_beta(MAP_PARAMS, *start, duration, seeds, opts, coeffs)
    cov = stride_covariances(coeffs, MAP_PARAMS, duration, opts)
    per_window = steps // stride
    window, q = np.divmod(np.arange(2 * per_window), per_window)
    first = 4 * window * -(-per_window // 2) + 2 * q
    y = lane_stream(np.arange(2)[:, None, None], first[:, None] + np.arange(2))
    want = np.einsum("rij,krj->kri", trajectory._sqrt_psd(cov), y)
    d = beta[:2] - beta[2]
    incr = d[:, 1:] - np.repeat([c[0] for c in coeffs], per_window) ** stride * d[:, :-1]
    got = np.stack([incr.real, incr.imag], axis=-1)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def stepwise_self_scheduled(params, beta0, v_a0, v_b0, duration, lanes, options):
    """The records of a self-scheduled run taken one step at a time, from the
    module's SDE.  Each window takes its channels from ``panel_kernels`` and
    ``eigenpairs`` of the detuning its lane recorded over the window before
    (window 0: the detuning free rotation predicts), and each step is
    beta <- damp beta + force pe + rot_half (k dW + l conj(dW)), summed over
    the two channels, with damp = rot (1 - Gamma dt / 2), force = -i g_m dt
    rot_half, and k and l formed from the step's starting variances.  Lane
    k's step j in window w reads normals 4 (w steps + j) .. + 3 of its
    ``lane_stream``, dW = (x0 + i x1, x2 + i x3) sqrt(dt / 2), as
    ``streamed_normals`` hands them out.  Returns the records of beta, pe,
    v_a and v_b, (lanes, records) each."""
    steps, stride, g_m, omega = options.steps_per_window, options.record_stride, \
        params.g_m, params.Omega
    n_windows, window = resolve_windows(params, duration, None)
    dt, spp = window / steps, steps // WINDOW_PANELS
    rot, rot_half = cmath.exp(-1j * omega * dt), cmath.exp(-0.5j * omega * dt)
    damp, force = rot * (1.0 - 0.5 * params.Gamma * dt), -1j * g_m * dt * rot_half
    panel_t = np.arange(WINDOW_PANELS + 1) * (spp * dt)
    beta = np.full(lanes, complex(beta0))
    va, vb = np.full(lanes, float(v_a0)), np.full(lanes, complex(v_b0))
    delta = params.delta0 + 2.0 * g_m * (beta[:, None] * np.exp(-1j * omega * panel_t)).real
    if options.full_bloch:
        st0 = bloch_steady_state(params, params.delta0 + 2.0 * g_m * beta0.real)
        y = np.tile([st0.pe, st0.s.real, st0.s.imag], (lanes, 1))
    detuning = params.delta0 + 2.0 * g_m * beta.real
    pe = y[:, 0] if options.full_bloch else pe_closed_form(params.g, params.gamma, detuning)
    out = {name: [] for name in ("beta", "pe", "v_a", "v_b")}
    for w in range(n_windows):
        s0, s2 = panel_kernels(params, delta, np.exp(-2j * omega * panel_t))
        lam_p, lam_m, v_p, v_m, _ = eigenpairs(params.Gamma, params.n_m, s0, s2)
        va_rows, vb_rows = _variance_step(va, vb, dt, steps, omega, lam_p, lam_m,
                                          *v_p.T, *v_m.T)
        x = lane_stream(np.arange(lanes)[:, None], 4 * steps * w + np.arange(4 * steps))
        x = x.reshape(lanes, steps, 2, 2) * math.sqrt(0.5 * dt)
        dws = x[..., 0] + 1j * x[..., 1]  # (lanes, steps, channel)
        for j in range(steps):
            if j % stride == 0:
                for name, value in zip(out, (beta, pe, va_rows[j], vb_rows[j])):
                    out[name].append(value)
            if j % spp == 0:
                delta[:, j // spp] = detuning
            kick = 0.0
            for lam, (u, v), dw in zip((lam_p, lam_m), (v_p.T, v_m.T), dws[:, j].T):
                k = u * vb_rows[j] + v * (va_rows[j] + 1.0)
                l = np.conj(u) * va_rows[j] + np.conj(v) * vb_rows[j]
                kick = kick + np.sqrt(lam) * (k * dw + l * np.conj(dw))
            beta = damp * beta + force * pe + rot_half * kick
            if options.full_bloch:
                y = bloch_step_batch(y, detuning, params, dt)
            detuning = params.delta0 + 2.0 * g_m * beta.real
            pe = y[:, 0] if options.full_bloch else pe_closed_form(params.g, params.gamma,
                                                                   detuning)
        delta[:, -1] = detuning
        va, vb = va_rows[-1], vb_rows[-1]
    for name, value in zip(out, (beta, pe, va, vb)):
        out[name].append(value)
    return {name: np.stack(rows, axis=1) for name, rows in out.items()}


@pytest.mark.parametrize("full_bloch", [False, True])
def test_self_scheduled_steps_follow_the_sde(monkeypatch, full_bloch):
    # three one-period windows of three lanes, whole rows and through a sink,
    # against the SDE stepped one step at a time.  Each of these moves a
    # record by far more than 1e-12 of its largest value: l_m dW_m in place
    # of l_m conj(dW_m), the kicks or the force without their half turn, and
    # the mean damped at Gamma / 4
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=5e-3, Gamma=1e-3, n_m=1.0)
    opts = TrajectoryOptions(steps_per_window=256, record_stride=32, full_bloch=full_bloch)
    start, duration = (30j, 0.3, 0.1 + 0.05j), 3 * p.mechanical_period
    seeds = [derive_trajectory_seed(9, i) for i in range(3)]
    want = stepwise_self_scheduled(p, *start, duration, 3, opts)
    monkeypatch.setattr(trajectory, "_draw_window_noise", streamed_normals())
    whole = _batch_run(p, *start, duration, seeds, opts)
    replay = {name: np.empty_like(whole[name]) for name in _RECORDED}

    def sink(lo, hi, block):
        for name, x in block.items():
            replay[name][:, lo:hi] = x

    monkeypatch.setattr(trajectory, "_draw_window_noise", streamed_normals())
    _batch_run(p, *start, duration, seeds, opts, sink)
    assert np.isnan(whole["abort_time"]).all()
    for got in (whole, replay):
        for name, value in want.items():
            assert got[name].shape == value.shape, name
            err = np.max(np.abs(got[name] - value))
            assert err <= 1e-12 * np.max(np.abs(value)), (name, err)


def test_record_increments_sample_their_covariance():
    # 20,000 lanes on the "theta" schedule, 8 records per window: every
    # entry of each record's sample covariance of beta_{r+1} - a^S beta_r
    # lies within z = 5 of its standard error, (C_ii C_jj + C_ij^2) / n, of
    # the stepwise sum C_r (48 entries; a false alarm has odds about 3e-5)
    opts = TrajectoryOptions(steps_per_window=256, record_stride=32,
                             schedule=MAP_SCHEDULES["theta"])
    duration = 2 * MAP_PARAMS.mechanical_period
    start = (0.8 - 0.4j, 0.3, 0.1 + 0.05j)
    n = 20_000
    seeds = [derive_trajectory_seed(2718, i) for i in range(n)]
    beta = _batch_run(MAP_PARAMS, *start, duration, seeds, opts)["beta"]
    coeffs = []
    stepwise_scheduled_beta(MAP_PARAMS, *start, duration, seeds[:1], opts, coeffs)
    cov = stride_covariances(coeffs, MAP_PARAMS, duration, opts)
    incr = beta[:, 1:] - np.repeat([c[0] for c in coeffs], 8) ** 32 * beta[:, :-1]
    for r, c in enumerate(cov):
        sample = np.cov(incr[:, r].real, incr[:, r].imag)
        se = np.sqrt((np.outer(np.diag(c), np.diag(c)) + c**2) / n)
        assert np.all(np.abs(sample - c) <= 5.0 * se), (r, sample, c)


@pytest.mark.parametrize("case", ["positive-definite", "rank-1", "zero", "nan"])
def test_sqrt_psd_squares_to_its_covariance(case):
    # the record draw's root: symmetric, L L^T = C to 1e-12 of max |C| on a
    # singular C too (all of a record's noise on one quadrature, or none),
    # and NaN on a NaN C, as from a shared-lane abort; a RuntimeWarning
    # would fail the test, as pyproject.toml makes it an error
    a = np.random.default_rng(31).standard_normal((2, 2))
    c = {"positive-definite": a @ a.T, "rank-1": np.outer(a[0], a[0]),
         "zero": np.zeros((2, 2)), "nan": np.full((2, 2), np.nan)}[case]
    root = trajectory._sqrt_psd(c)
    if case == "nan":
        assert np.isnan(root).all()
    else:
        assert np.array_equal(root, root.T)
        assert np.max(np.abs(root @ root.T - c)) <= 1e-12 * np.max(np.abs(c))


@pytest.mark.parametrize("n", [1, 31, 33, 67])
def test_record_map_lanes_match_their_runs_alone(n):
    # a lane's own generator and the elementwise L y give it the same bits
    # in every batch: partial blocks, several blocks and one lane alone
    opts = TrajectoryOptions(steps_per_window=256, record_stride=32,
                             schedule=MAP_SCHEDULES["two-windows"])
    duration = 2 * MAP_PARAMS.mechanical_period
    seeds = [derive_trajectory_seed(5, i) for i in range(n)]
    batch = _batch_run(MAP_PARAMS, 0.8 - 0.4j, 0.3, 0.1j, duration, seeds, opts)
    # a field the lanes share has one row, which stands for every lane
    rows = {name: np.broadcast_to(batch[name], (n, batch[name].shape[1]))
            for name in _RECORDED}
    for i, seed in enumerate(seeds):
        alone = _batch_run(MAP_PARAMS, 0.8 - 0.4j, 0.3, 0.1j, duration, [seed], opts)
        for name in _RECORDED:
            assert np.array_equal(rows[name][i], alone[name][0]), (i, name)


@pytest.mark.parametrize("case", list(MAP_SCHEDULES))
def test_schedule_stores_and_reduces_its_shared_fields_once(case):
    # on a schedule the variances, the population and the channel data are
    # every lane's: the batch holds one row of each, the ensemble's means are
    # the schedule's own values bit for bit (the mean of 67 equal rows was
    # not), and beta keeps a row per trajectory
    schedule = MAP_SCHEDULES[case]
    opts = TrajectoryOptions(steps_per_window=256, record_stride=32, schedule=schedule)
    duration = 2 * MAP_PARAMS.mechanical_period
    seeds = [derive_trajectory_seed(5, i) for i in range(67)]
    batch = _batch_run(MAP_PARAMS, 0.8 - 0.4j, 0.3, 0.1j, duration, seeds, opts)
    assert {name: len(batch[name]) for name in _RECORDED} == {
        name: 67 if name == "beta" else 1 for name in _RECORDED}
    res = run_ensemble(MAP_PARAMS, 0.8 - 0.4j, duration, 67, 5, opts, 0.3, 0.1j)
    for name in ("pe", "lambda_plus", "lambda_minus", "theta"):
        per_window = [wc.pe if name == "pe" else getattr(wc.decomp, name)
                      for wc in schedule]
        want = np.append(np.repeat(per_window, 8), per_window[-1])
        assert np.array_equal(getattr(res, f"mean_{name}"), want), name


def test_record_map_abort_in_mid_stride():
    # the setting of test_abort_time_is_first_step_below_tolerance, recorded
    # every 4 steps: the aborting step lies inside a stride, so the record
    # that opens that stride is finite and every later one NaN
    p = PhysParams(gamma=1.0, g=1.0, Omega=1e-9, g_m=0.0)
    dec = twisted_decomposition(0.01, 0.0, 0.0)
    va, _ = exact_rows(0.1, 1.0 + 0j, 1.0, 64, p.Omega, dec)
    first = int(np.argmax(~(va[1:] >= -ABORT_VA_TOL)))
    assert first % 4 not in (0, 3)
    opts = TrajectoryOptions(steps_per_window=64, record_stride=4,
                             schedule=[WindowCoefficients(dec, 0.0)])
    batch = _batch_run(p, 0j, 0.1, 1.0 + 0j, 64.0, [5, 6], opts)
    assert np.all(batch["abort_time"] == first + 1.0)
    opens = first // 4
    assert np.all(np.isfinite(batch["beta"][:, : opens + 1]))
    assert np.all(np.isnan(batch["beta"][:, opens + 1 :]))
    want = stepwise_scheduled_beta(p, 0j, 0.1, 1.0 + 0j, 64.0, [5, 6], opts)
    assert np.array_equal(np.isnan(want), np.isnan(batch["beta"]))


def scheme_moments(params, beta0, schedule, duration, steps, records):
    """The scheme's own <b> and <n> on a schedule from the coherent state
    beta0, ``records`` times per window, by the deterministic recurrence of
    its first two moments: with
    a = rot (1 - c dt / 2), E beta <- a E beta + force and Var beta <-
    |a|^2 Var beta + sum_s (|k_s|^2 + |l_s|^2) dt, k and l taken from the
    variance rows; <n> = v_a + |E beta|^2 + Var beta."""
    dt = duration / len(schedule) / steps
    mean, var, va, vb = complex(beta0), 0.0, 0.0, 0j
    b_out, n_out = [mean], [abs(mean) ** 2]
    for wc in schedule:
        d = wc.decomp
        chans = [(d.lambda_plus, *d.v_plus), (d.lambda_minus, *d.v_minus)]
        c = sum(lam * (abs(u) ** 2 - abs(w) ** 2) for lam, u, w in chans)
        a = cmath.exp(-1j * params.Omega * dt) * (1.0 - 0.5 * c * dt)
        force = cmath.exp(-0.5j * params.Omega * dt) * (-1j * params.g_m * wc.pe * dt)
        va_rows, vb_rows = exact_rows(va, vb, dt, steps, params.Omega, d)
        q = sum(lam * (abs(u * vb_rows[:-1] + w * (va_rows[:-1] + 1.0)) ** 2
                       + abs(np.conj(u) * va_rows[:-1] + np.conj(w) * vb_rows[:-1]) ** 2)
                for lam, u, w in chans) * dt
        for j in range(steps):
            mean, var = a * mean + force, abs(a) ** 2 * var + q[j]
            if (j + 1) % (steps // records) == 0:
                b_out.append(mean)
                n_out.append(va_rows[j + 1] + abs(mean) ** 2 + var)
        va, vb = va_rows[-1], vb_rows[-1]
    return np.array(b_out), np.array(n_out)


def test_scheduled_discretisation_error_is_first_order():
    # criterion 5's schedule: the scheme's exact <n> differs from the dim-40
    # master by at most 1.09e-5, 5.4e-6 and 2.7e-6 at 512, 1024 and 2048
    # steps per window; at criterion 5's 512 that is 0.11% of its 1000-lane
    # standard error at the same record.  A first-order error halves with dt:
    # here to within 5%.  The mean rotates exactly, and the master's dim-40
    # truncation takes 4.1e-6 off its <b>.
    from hybridmech.oracle import coherent_density, integrate_master

    p = PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.0)
    schedule = make_frozen_schedule(twisted_decomposition(1e-3, 1e-4, 0.0), 0.0, 5)
    duration = 5 * p.mechanical_period
    master = integrate_master(p, coherent_density(40, 1.0 + 0j), duration,
                              p.mechanical_period / 512, schedule, record_stride=64)
    err_n = []
    for steps in (512, 1024, 2048):
        b, n = scheme_moments(p, 1.0, schedule, duration, steps, 8)
        assert np.max(np.abs(b - master.moments.b)) <= 5e-6
        err_n.append(np.max(np.abs(n - master.moments.n)))
    assert err_n[0] <= 1.2e-5
    for coarse, fine in zip(err_n, err_n[1:]):
        assert 1.9 <= coarse / fine <= 2.1
