import math

import numpy as np
import pytest

from conftest import decomposition_from_set, random_kernel_set, sinusoidal_kernels
from hybridmech.bloch import PhysParams, pe_closed_form
from hybridmech.lindblad import decompose, twisted_decomposition
from hybridmech.oracle import (
    TruncationError,
    coherent_density,
    coherent_state,
    destroy_matrix,
    integrate_master,
    kernel_form_rhs,
    lindblad_rhs,
    lower_state,
    make_frozen_schedule,
    moments_from_density,
    moments_from_state,
    raise_state,
    sse_ensemble,
    superoperator,
    thermal_density,
)
from hybridmech.spectrum import NoiseKernels, window_kernels
from hybridmech.trajectory import WindowCoefficients, derive_trajectory_seed


@pytest.fixture
def params():
    return PhysParams(gamma=1.0, g=1.0, Omega=0.05, g_m=0.001)


def test_ladder_helpers_match_dense_operators():
    rng = np.random.default_rng(1)
    dim = 7
    b = destroy_matrix(dim)
    psi = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    assert np.allclose(lower_state(psi), b @ psi)
    assert np.allclose(raise_state(psi), b.conj().T @ psi)


def test_fock_state_rhs_vanishes_without_channels(params):
    dec = twisted_decomposition(0.0, 0.0, 0.0)
    rho = np.zeros((12, 12), dtype=complex)
    rho[3, 3] = 1.0
    out = lindblad_rhs(rho, 0.0, dec, params)
    assert np.max(np.abs(out)) == 0.0


def test_thermal_state_is_fixed_point_of_thermal_channels(params):
    from hybridmech.lindblad import QuadratureDecomposition

    Gamma, n_m = 0.1, 0.8
    dec = QuadratureDecomposition(
        lambda_plus=Gamma * (n_m + 1.0),
        lambda_minus=Gamma * n_m,
        v_plus=np.array([1.0 + 0j, 0j]),
        v_minus=np.array([0j, 1.0 + 0j]),
        theta=0.0,
    )
    rho = thermal_density(40, n_m)
    out = lindblad_rhs(rho, 0.0, dec, params)
    assert np.max(np.abs(out)) < 1e-12


def test_generator_is_trace_free(params):
    rng = np.random.default_rng(3)
    _, dec = decomposition_from_set(*random_kernel_set(rng, (-1, 1), (-1, 1)))
    a = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    out = lindblad_rhs(rho, 0.4, dec, params)
    assert abs(np.trace(out)) < 1e-12


def test_two_lindblad_forms_agree_as_superoperators(params):
    rng = np.random.default_rng(17)
    for _ in range(25):
        Gamma, n_m, s0, s2 = random_kernel_set(rng, (-2, 1), (-2, 1), (-1, 1))
        kernels, dec = decomposition_from_set(Gamma, n_m, s0, s2)
        a = superoperator(lambda x: lindblad_rhs(x, 0.3, dec, params), 10)
        b = superoperator(
            lambda x: kernel_form_rhs(x, 0.3, Gamma, n_m, kernels, params), 10
        )
        assert np.max(np.abs(a - b)) <= 1e-10


def test_quadrature_double_commutator_form(params):
    # at Gamma = 0 the dissipator equals the twisted double-commutator form
    rng = np.random.default_rng(29)
    dim = 10
    b = destroy_matrix(dim)
    for _ in range(10):
        s0 = 10.0 ** rng.uniform(-1, 1)
        s2 = s0 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        kernels = NoiseKernels(s0=s0, s2=s2)
        _, dec = decomposition_from_set(0.0, 0.0, s0, s2)
        theta = dec.theta
        x_theta = (np.exp(-1j * theta) * b + np.exp(1j * theta) * b.conj().T) / np.sqrt(2)
        p_theta = 1j * (-np.exp(-1j * theta) * b + np.exp(1j * theta) * b.conj().T) / np.sqrt(2)

        def channels(x):
            out = lindblad_rhs(x, 0.0, dec, params)
            # remove the Hamiltonian part: compare dissipators only
            return out - lindblad_rhs(x, 0.0, twisted_decomposition(0, 0, 0), params)

        def double_commutator(x):
            def dc(op, m):
                return op @ (op @ m - m @ op) - (op @ m - m @ op) @ op

            return -0.5 * dec.lambda_plus * dc(x_theta, x) - 0.5 * dec.lambda_minus * dc(
                p_theta, x
            )

        lhs = superoperator(
            lambda stack: np.stack([channels(m) for m in stack]), dim
        )
        rhs = superoperator(
            lambda stack: np.stack([double_commutator(m) for m in stack]), dim
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_integrate_master_zero_duration_is_identity(params):
    rho0 = coherent_density(16, 0.5 + 0.2j)
    dec = twisted_decomposition(1e-3, 1e-4, 0.0)
    schedule = make_frozen_schedule(dec, 0.0, 1)
    # a zero duration is refused, as by every other integrator
    with pytest.raises(ValueError, match="duration must be positive"):
        integrate_master(params, rho0, 0.0, params.mechanical_period / 256, schedule)
    # the first record of a finite run is the initial state
    res = integrate_master(
        params,
        rho0,
        params.mechanical_period,
        params.mechanical_period / 256,
        schedule,
        record_stride=256,
    )
    assert np.allclose(res.states[0].entries, rho0)


def test_integrate_master_invariants_and_moments(params):
    rho0 = coherent_density(24, 1.0 + 0j)
    dec = twisted_decomposition(2e-3, 2e-4, 0.3)
    # pe = 0: no displacement force, so the phonon number grows linearly
    schedule = make_frozen_schedule(dec, 0.0, 2)
    res = integrate_master(
        params,
        rho0,
        2 * params.mechanical_period,
        params.mechanical_period / 256,
        schedule,
        record_stride=64,
    )
    for snap in res.states:
        assert snap.trace_defect() <= 1e-8
        assert snap.hermiticity_defect() <= 1e-10
        assert snap.min_eigenvalue() >= -1e-7
    # phonon number grows at the analytic rate for frozen quadrature channels
    expected = res.moments.n[0] + 0.5 * (2e-3 + 2e-4) * res.times
    assert np.max(np.abs(res.moments.n - expected)) < 1e-6


def test_integrate_master_detects_coarse_step(params):
    rho0 = coherent_density(16, 0.5 + 0j)
    dec = twisted_decomposition(1e-3, 0.0, 0.0)
    schedule = make_frozen_schedule(dec, 0.0, 1)
    with pytest.raises(ValueError, match="halving"):
        integrate_master(
            params,
            rho0,
            params.mechanical_period,
            params.mechanical_period / 8,
            schedule,
            record_stride=8,
        )


def test_integrate_master_truncation_health(params):
    # a coherent state too large for the truncation must be refused
    with pytest.raises(TruncationError, match="dim"):
        coherent_density(12, 3.0 + 0j)
    # heating through an undersized truncation trips the health check
    rho0 = coherent_density(18, 2.0 + 0j)
    dec = twisted_decomposition(5e-3, 0.0, 0.0)
    schedule = make_frozen_schedule(dec, 0.0, 4)
    with pytest.raises(TruncationError):
        integrate_master(
            params,
            rho0,
            4 * params.mechanical_period,
            params.mechanical_period / 512,
            schedule,
            record_stride=128,
        )


def test_moments_of_coherent_state():
    beta = 0.7 - 0.3j
    rho = coherent_density(24, beta)
    mb, mn, mb2 = moments_from_density(rho)
    assert mb == pytest.approx(beta, abs=1e-10)
    assert mn == pytest.approx(abs(beta) ** 2, abs=1e-10)
    assert mb2 == pytest.approx(beta**2, abs=1e-10)
    psi = coherent_state(24, beta)
    mb, mn, mb2 = moments_from_state(psi[:, None])
    assert mb[0] == pytest.approx(beta, abs=1e-10)


def test_sse_closed_system_keeps_coherent_state(params):
    dec = twisted_decomposition(0.0, 0.0, 0.0)
    schedule = [WindowCoefficients(decomp=dec, pe=0.0)] * 2
    psi0 = coherent_state(20, 1.0 + 0.5j)
    series = sse_ensemble(
        params, psi0, 2 * params.mechanical_period, params.mechanical_period / 512,
        n_traj=1, master_seed=9, kernel_schedule=schedule, record_stride=128,
    ).moments
    beta0 = 1.0 + 0.5j
    expected = beta0 * np.exp(-1j * params.Omega * series.times)
    assert np.max(np.abs(series.b - expected)) < 1e-8
    va = series.n - np.abs(series.b) ** 2
    vb = series.b2 - series.b**2
    assert np.max(np.abs(va)) < 1e-8
    assert np.max(np.abs(vb)) < 1e-8


def test_master_quadrature_diffusion_slopes():
    # pure X-channel scattering in a frozen frame: P diffuses at lambda_plus
    # while the X variance stays put
    p = PhysParams(gamma=1.0, g=1.0, Omega=1e-9, g_m=0.0)
    lam_p = 1e-2
    dec = twisted_decomposition(lam_p, 0.0, 0.0)
    schedule = make_frozen_schedule(dec, 0.0, 1)
    duration = 50.0
    res = integrate_master(
        p, coherent_density(24, 0.5 + 0.0j), duration, duration / 1024, schedule,
        record_stride=128,
    )
    from hybridmech.oracle import quadrature_variances

    var_x, var_p = quadrature_variances(res.moments.b, res.moments.n, res.moments.b2)
    slope_p = np.polyfit(res.times, var_p, 1)[0]
    assert slope_p == pytest.approx(lam_p, rel=1e-3)
    assert np.max(np.abs(var_x - var_x[0])) < 1e-6


def test_sse_norm_guard_aborts_on_violent_state(params):
    # a number-superposition state has a huge channel variance, so one
    # Euler step at the step-size limit moves the norm past the guard
    dim = 20
    amps = np.zeros(dim, dtype=complex)
    amps[0] = amps[19] = 1.0 / math.sqrt(2.0)
    dt = params.mechanical_period / 1024
    lam = 1e-3 / dt
    dec = twisted_decomposition(lam, 0.0, 0.0)
    schedule = make_frozen_schedule(dec, 0.0, 1)
    with pytest.raises(RuntimeError, match="norm drifted"):
        sse_ensemble(params, amps, params.mechanical_period, dt, 1, 11, schedule)


def test_sse_rejects_coarse_step(params):
    dec = twisted_decomposition(1.0, 0.0, 0.0)
    schedule = make_frozen_schedule(dec, 0.0, 1)
    with pytest.raises(ValueError, match="unraveling"):
        sse_ensemble(
            params, coherent_state(16, 0.5), params.mechanical_period,
            params.mechanical_period / 64, n_traj=1, master_seed=1,
            kernel_schedule=schedule,
        )


def test_sse_ensemble_matches_master(params):
    dec = twisted_decomposition(1e-3, 1e-4, 0.0)
    schedule = make_frozen_schedule(dec, 0.0, 2)
    duration = 2 * params.mechanical_period
    dt = params.mechanical_period / 2048
    sse = sse_ensemble(
        params, coherent_state(24, 1.0 + 0j), duration, dt, 200, 5, schedule,
        record_stride=512,
    )
    master = integrate_master(
        params, coherent_density(24, 1.0 + 0j), duration, dt, schedule,
        record_stride=512,
    )
    a, b = sse.moments, master.moments
    assert np.array_equal(a.times, b.times)
    assert np.all(np.abs(a.n - b.n) <= 4.0 * sse.se_n + 1e-9)
    assert np.all(np.abs(a.b - b.b) <= 4.0 * sse.se_b + 1e-9)
    assert np.all(np.abs(a.b2 - b.b2) <= 4.0 * sse.se_b2 + 1e-9)


@pytest.mark.parametrize("stride", [1000, 3000, 0])
@pytest.mark.parametrize("integrator", ["master", "sse"])
def test_record_stride_must_divide_the_window(params, integrator, stride):
    # 4096 steps per window; both integrators refuse before stepping
    schedule = make_frozen_schedule(twisted_decomposition(1e-3, 1e-4, 0.0), 0.0, 1)
    period = params.mechanical_period
    with pytest.raises(ValueError, match="record_stride must be a positive divisor"):
        if integrator == "master":
            integrate_master(
                params, coherent_density(12, 0.5), period, period / 4096, schedule,
                record_stride=stride,
            )
        else:
            sse_ensemble(
                params, coherent_state(12, 0.5), period, period / 4096, 2, 1,
                schedule, record_stride=stride,
            )


@pytest.mark.parametrize("fraction", [0.7, 1 / 300.3, 1 / 100.4],
                         ids=["0.7T", "T|300.3", "T|100.4"])
@pytest.mark.parametrize("caller", ["master", "sse", "kernels"])
def test_step_must_divide_the_window(params, caller, fraction):
    # a step of this fraction of the window used to be rounded to one that
    # divides it, or, for the oracles, to fail a later check that names no step
    schedule = make_frozen_schedule(twisted_decomposition(1e-3, 1e-4, 0.0), 0.0, 1)
    period = params.mechanical_period
    name = "dt_sample" if caller == "kernels" else "dt"
    step = fraction * period
    with pytest.raises(ValueError, match=f"^{name}=.* must divide the window"):
        if caller == "master":
            integrate_master(params, coherent_density(12, 0.5), period, step, schedule,
                             record_stride=1)
        elif caller == "sse":
            sse_ensemble(params, coherent_state(12, 0.5), period, step, 1, 1, schedule,
                         record_stride=1)
        else:
            window_kernels(params, lambda t: 0.0, 0.0, dt_sample=step)


def test_sse_ensemble_trajectory_count(params):
    schedule = make_frozen_schedule(twisted_decomposition(1e-3, 1e-4, 0.0), 0.0, 1)
    period = params.mechanical_period
    psi0 = coherent_state(12, 0.5)
    with pytest.raises(ValueError, match="n_traj must be at least 1"):
        sse_ensemble(params, psi0, period, period / 512, 0, 1, schedule)
    # one trajectory has no spread to estimate: zero standard errors
    one = sse_ensemble(params, psi0, period, period / 512, 1, 1, schedule)
    for se in (one.se_b, one.se_n, one.se_b2):
        assert not np.any(se)


def test_self_consistent_master_mode_runs():
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.05, g_m=0.02)
    res = integrate_master(
        p,
        coherent_density(24, 1.0j),
        p.mechanical_period,
        p.mechanical_period / 512,
        kernel_schedule=None,
        record_stride=128,
    )
    for snap in res.states:
        assert snap.trace_defect() <= 1e-8


def test_self_consistent_master_mode_matches_its_exact_schedule():
    # from a coherent state at real beta0 the mean-field detuning over the
    # first window is swing * cos(Omega t), whose kernels conftest gives in
    # closed form; the self-consistent window must then match a frozen
    # one-window schedule built from them, with pe at the window start
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.05, g_m=0.1, Gamma=1e-4, n_m=2.0)
    beta0, dim, steps = 1.5, 30, 512
    period = p.mechanical_period
    swing = 2.0 * p.g_m * beta0
    s0, s2 = sinusoidal_kernels(p, swing)
    pe = float(pe_closed_form(p.g, p.gamma, p.delta0 + swing))
    schedule = make_frozen_schedule(decompose(p.Gamma, p.n_m, s0, s2), pe, 1)
    rho0 = coherent_density(dim, beta0)
    runs = [
        integrate_master(p, rho0, period, period / steps, schedule, record_stride=64),
        integrate_master(p, rho0, period, period / steps, record_stride=64),
    ]
    exact, self_consistent = (r.moments for r in runs)

    # Tolerance: the runs differ only through the 64-panel quadrature error e
    # of the kernels.  The generator is linear in (s0, s2), with coefficients
    # on these moments below 2 (2 n + 1), so over one window the moments move
    # by at most 4 (2 n + 1) e T.  Each run also rounds at every RK4 step,
    # which adds at most steps * eps * the largest moment.
    quad = window_kernels(p, lambda t: swing * math.cos(p.Omega * t), 0.0)
    quad_err = max(abs(quad.s0 - s0), abs(quad.s2 - s2))
    scale = max(np.max(np.abs(m)) for m in (exact.b, exact.n, exact.b2))
    tol = (
        4.0 * (2.0 * np.max(exact.n) + 1.0) * quad_err * period
        + steps * np.finfo(float).eps * scale
    )
    for name in ("b", "n", "b2"):
        diff = np.max(np.abs(getattr(self_consistent, name) - getattr(exact, name)))
        assert diff <= tol, (name, diff, tol)


def test_fused_sse_step_matches_dense_reference(params):
    # Euler-Maruyama on dense operators, one channel at a time, with the same
    # PCG64 draws; the state has weight on the top level, where the truncated
    # b b^dag is 0, and the channels are twisted and pushed by a force
    dim, seed, steps, stride, pe = 6, 31, 1024, 128, 0.4
    amps = np.exp(0.7j * np.arange(dim)) / math.sqrt(dim)
    dec = twisted_decomposition(4e-4, 1e-4, 0.6)
    h = params.mechanical_period / steps
    series = sse_ensemble(
        params, amps, params.mechanical_period, h, 1, seed,
        make_frozen_schedule(dec, pe, 1), record_stride=stride,
    ).moments

    b = destroy_matrix(dim)
    bd = b.conj().T
    x = np.random.Generator(
        np.random.PCG64(derive_trajectory_seed(seed, 0))
    ).standard_normal((steps, 4))
    dws = (x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3])
    channels = ((dec.lambda_plus, *dec.v_plus), (dec.lambda_minus, *dec.v_minus))
    psi = amps.copy()
    expected = []
    for j in range(steps + 1):
        ph = np.exp(-1j * params.Omega * j * h)
        if j % stride == 0:
            bpsi = b @ psi
            expected.append(
                (ph * np.vdot(psi, bpsi), np.vdot(bpsi, bpsi).real,
                 ph**2 * np.vdot(psi, b @ bpsi))
            )
        if j == steps:
            break
        dpsi = -1j * h * params.g_m * pe * (ph * b + np.conj(ph) * bd) @ psi
        for (lam, u, w), dw in zip(channels, dws):
            ell = math.sqrt(lam) * (u * ph * b + w * np.conj(ph) * bd)
            lpsi = ell @ psi
            e = np.vdot(psi, lpsi)
            dpsi += h * (np.conj(e) * lpsi - 0.5 * ell.conj().T @ lpsi
                         - 0.5 * abs(e) ** 2 * psi)
            dpsi += (lpsi - e * psi) * dw[j] * math.sqrt(0.5 * h)
        psi = psi + dpsi
        psi /= np.linalg.norm(psi)
    exp_b, exp_n, exp_b2 = (np.array(v) for v in zip(*expected))
    assert np.allclose(series.times, np.arange(0, steps + 1, stride) * h, rtol=0, atol=1e-9)
    assert np.max(np.abs(series.b - exp_b)) <= 1e-12
    assert np.max(np.abs(series.n - exp_n)) <= 1e-12
    assert np.max(np.abs(series.b2 - exp_b2)) <= 1e-12
