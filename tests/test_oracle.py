import cmath
import math

import numpy as np
import pytest

from conftest import decomposition_from_set, random_kernel_set
from hybridmech import oracle
from hybridmech.bloch import PhysParams
from hybridmech.lindblad import twisted_decomposition
from hybridmech.oracle import (
    FockDensityMatrix,
    TruncationError,
    _b_left,
    _b_right,
    _bdag_left,
    _bdag_right,
    _shift,
    _sse_batch,
    coherent_density,
    coherent_state,
    destroy_matrix,
    integrate_master,
    kernel_form_rhs,
    lindblad_generator,
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
from hybridmech.spectrum import NoiseKernels
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

    def lower_last(v):
        return _shift(v, -1, 1, 0)

    # all six shifts against the dense products, on (dim, 5) states and
    # (3, dim, dim) stacks, and a lowering on the last axis of a (5, dim) stack
    for dim in (1, 2, 7, 40):
        b = destroy_matrix(dim)
        bd = b.conj().T
        psi = rng.standard_normal((dim, 5)) + 1j * rng.standard_normal((dim, 5))
        x = rng.standard_normal((3, dim, dim)) + 1j * rng.standard_normal((3, dim, dim))
        cases = [
            (lower_state, psi, b @ psi),
            (raise_state, psi, bd @ psi),
            (_b_left, x, b @ x),
            (_bdag_left, x, bd @ x),
            (_b_right, x, x @ b),
            (_bdag_right, x, x @ bd),
            (lower_last, psi.T, psi.T @ b.T),
        ]
        for shift, arg, dense in cases:
            got = shift(arg)
            assert got.shape == dense.shape, (shift.__name__, dim)
            assert np.max(np.abs(got - dense)) <= 1e-15 * np.max(np.abs(arg)), (
                shift.__name__, dim)


def dense_lindblad_rhs(x, pe, decomp, params):
    """K x + x K^dag + sum_s L_s x L_s^dag with dense matrices: the reference
    for the banded generator."""
    dim = x.shape[-1]
    b = destroy_matrix(dim)
    bd = b.conj().T
    lams, vecs = (decomp.lambda_plus, decomp.lambda_minus), (decomp.v_plus, decomp.v_minus)
    ells = [math.sqrt(lam) * (u * b + w * bd) for lam, (u, w) in zip(lams, vecs)]
    ham = params.Omega * np.diag(np.arange(dim, dtype=complex)) + params.g_m * pe * (b + bd)
    k = -1j * ham - 0.5 * sum(ell.conj().T @ ell for ell in ells)
    out = k @ x + x @ k.conj().T
    for ell in ells:
        out += ell @ x @ ell.conj().T
    return out


@pytest.mark.parametrize("dim", [1, 2, 3, 4, 40])
def test_banded_generator_matches_dense_reference(dim):
    # every band of K and L_s is nonzero: a force (g_m pe != 0), a twist and
    # a zero rate; at dims up to 4 the flat offsets +-2 dim +-1 overrun the
    # flattened matrix
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.05, g_m=0.03)
    dec = twisted_decomposition(0.04, 0.0, 0.7)
    rng = np.random.default_rng(dim)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    expected = dense_lindblad_rhs(x, 0.4, dec, p)
    got = lindblad_generator(0.4, dec, p, dim)(x)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_banded_generator_applies_to_stacks():
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.05, g_m=0.03)
    dec = twisted_decomposition(0.04, 0.0, 0.7)
    dim = 10
    rng = np.random.default_rng(5)
    stack = rng.standard_normal((dim * dim, dim, dim)) + 1j * rng.standard_normal(
        (dim * dim, dim, dim)
    )
    rhs = lindblad_generator(0.4, dec, p, dim)
    got = rhs(stack)
    one_by_one = np.stack([rhs(m) for m in stack])
    assert np.array_equal(got, one_by_one)
    expected = np.stack([dense_lindblad_rhs(m, 0.4, dec, p) for m in stack])
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


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


@pytest.mark.parametrize("shape", [(40, 64), (3, 10, 9), (10,)])
def test_kernel_form_refuses_a_non_square_state(params, shape):
    # lindblad_generator's closure raises on these; the kernel form returned
    # a result of the input's shape for the first two
    kernels, _ = decomposition_from_set(0.1, 1.0, 0.2, 0.05j)
    with pytest.raises(ValueError, match="^x must be square"):
        kernel_form_rhs(np.zeros(shape, dtype=complex), 0.3, 0.1, 1.0, kernels, params)


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
    # a zero duration is refused, as by every other integrator; a NaN or an
    # infinite one used to fail converting the window count to an integer
    for duration in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="duration must be positive"):
            integrate_master(params, rho0, duration, params.mechanical_period / 256,
                             schedule)
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
    # every window is probed: a stiff second one used to blow up the state
    period = params.mechanical_period
    cases = ((16, 8, [(1e-3, 0.0)]), (12, 64, [(1e-4, 1e-5), (5.0, 1.0)]))
    for dim, steps, rates in cases:
        schedule = [WindowCoefficients(twisted_decomposition(*lam, 0.0), 0.0)
                    for lam in rates]
        with pytest.raises(ValueError, match="halving"):
            integrate_master(params, coherent_density(dim, 0.5 + 0j), len(rates) * period,
                             period / steps, schedule, record_stride=steps)


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
    # one or two levels are all top: refused at the first record (a (1, 1)
    # state used to raise IndexError)
    for dim in (1, 2):
        with pytest.raises(TruncationError, match=f"at dim={dim};"):
            integrate_master(params, thermal_density(dim, 0.0), params.mechanical_period,
                             params.mechanical_period / 512, schedule[:1], record_stride=128)



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
    # a NaN population, which made every state NaN in the first step, is
    # refused when the schedule is built
    with pytest.raises(ValueError, match=r"^pe must lie in \[0, 1\], got nan"):
        make_frozen_schedule(twisted_decomposition(1e-3, 1e-4, 0.0), np.nan, 1)


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


@pytest.mark.parametrize("stride", [1000, 3000, 0, 64.0, True])
@pytest.mark.parametrize("integrator", ["master", "sse"])
def test_record_stride_must_divide_the_window(params, integrator, stride):
    # 4096 steps per window; both integrators refuse before stepping, a stride
    # that is not an integer too (sse_ensemble's used to fail at np.empty)
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


@pytest.mark.parametrize("fraction, message", [
    (0.7, "^dt=.* must divide the window"), (1 / 300.3, "^dt=.* must divide the window"),
    (1 / 100.4, "^dt=.* must divide the window"), (0.0, "^dt must be positive"),
], ids=["0.7T", "T|300.3", "T|100.4", "zero"])
@pytest.mark.parametrize("caller", ["master", "sse"])
def test_step_must_divide_the_window(params, caller, fraction, message):
    # a step of this fraction of the window used to be rounded to one that
    # divides it, or to fail a later check that names no step
    schedule = make_frozen_schedule(twisted_decomposition(1e-3, 1e-4, 0.0), 0.0, 1)
    period = params.mechanical_period
    step = fraction * period
    with pytest.raises(ValueError, match=message):
        if caller == "master":
            integrate_master(params, coherent_density(12, 0.5), period, step, schedule,
                             record_stride=1)
        else:
            sse_ensemble(params, coherent_state(12, 0.5), period, step, 1, 1, schedule,
                         record_stride=1)


def test_density_matrix_refuses_a_drifted_trace_and_a_negative_eigenvalue():
    with pytest.raises(RuntimeError, match="^trace drifted by 1.000e-01 at t=0.5"):
        FockDensityMatrix(np.diag([1.1, 0.0, 0.0, 0.0]).astype(complex), t=0.5).validate()
    with pytest.raises(RuntimeError, match="^negative eigenvalue -5.000e-01 at t=0.0"):
        FockDensityMatrix(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)).validate()


@pytest.mark.parametrize("integrator", ["master", "sse"])
def test_oracles_refuse_no_schedule_and_nan_states(params, integrator):
    # without a schedule the master ran a third, unchecked model and the
    # unraveling raised a TypeError; a NaN entry reached numpy's eigvalsh
    # ("Eigenvalues did not converge") or gave NaN moments
    schedule = make_frozen_schedule(twisted_decomposition(1e-3, 1e-4, 0.0), 0.0, 1)
    period = params.mechanical_period
    state = coherent_density(12, 0.5) if integrator == "master" else coherent_state(12, 0.5)
    nan_state = state.copy()
    nan_state.flat[1] = np.nan  # off the diagonal of a density matrix
    if integrator == "master":
        def run(x, sched):
            return integrate_master(params, x, period, period / 2048, sched)
        nan_error = (RuntimeError, "^hermiticity defect nan at t=0.0")
    else:
        def run(x, sched):
            return sse_ensemble(params, x, period, period / 2048, 2, 1, sched)
        nan_error = (ValueError, "^psi0 must have a finite, positive norm, got nan")
    with pytest.raises(ValueError, match="^kernel_schedule is required"):
        run(state, None)
    with pytest.raises(nan_error[0], match=nan_error[1]):
        run(nan_state, schedule)


@pytest.mark.parametrize("case, name", [
    ("master-4x3", "rho0"), ("master-1d", "rho0"), ("sse-2d", "psi0"),
    ("coherent-dim-0", "dim"), ("thermal-negative", "n_m"), ("thermal-nan", "n_m"),
    ("coherent-nan", "beta"), ("coherent-inf", "beta"), ("thermal-dim-0", "dim"),
    ("thermal-dim-negative", "dim"), ("thermal-dim-float", "dim"), ("thermal-dim-bool", "dim"),
])
def test_initial_states_name_the_argument(params, monkeypatch, case, name):
    # each used to fail late or not at all: a trace drift of 2 at t=0, numpy's
    # diag, a broadcast error, an IndexError, the vacuum, a NaN matrix, an
    # all-NaN state (which failed later as a trace drift of nan), and thermal
    # matrices of shape (0, 0), (0, 0), (3, 3) and (1, 1)
    def no_step(*args, **kwargs):
        raise AssertionError("a step ran before the initial state was checked")

    monkeypatch.setattr(oracle, "_rk4_step", no_step)
    monkeypatch.setattr(oracle, "_sse_batch", no_step)
    schedule = make_frozen_schedule(twisted_decomposition(1e-3, 1e-4, 0.0), 0.0, 1)
    period = params.mechanical_period
    runs = {
        "master-4x3": lambda: integrate_master(params, np.eye(4, 3), period,
                                               period / 2048, schedule),
        "master-1d": lambda: integrate_master(params, np.ones(4) / 4, period,
                                              period / 2048, schedule),
        "sse-2d": lambda: sse_ensemble(params, coherent_density(8, 0.5), period,
                                       period / 2048, 2, 1, schedule),
        "coherent-dim-0": lambda: coherent_state(0, 0.5),
        "thermal-negative": lambda: thermal_density(4, -1.0),
        "thermal-nan": lambda: thermal_density(4, math.nan),
        "coherent-nan": lambda: coherent_state(10, math.nan),
        "coherent-inf": lambda: coherent_density(10, complex(0.5, math.inf)),
        "thermal-dim-0": lambda: thermal_density(0, 1.0),
        "thermal-dim-negative": lambda: thermal_density(-1, 1.0),
        "thermal-dim-float": lambda: thermal_density(2.5, 1.0),
        "thermal-dim-bool": lambda: thermal_density(True, 1.0),
    }
    with pytest.raises(ValueError, match=f"^{name} must"):
        runs[case]()


@pytest.mark.parametrize("dim, beta", [(10, 1e200), (10, 1e100), (2, 1.4e154), (1, 1e200)])
def test_coherent_state_past_float_range_is_truncated(dim, beta):
    # beta^k / sqrt(k!) or |beta|^2 past the float range used to raise a bare
    # OverflowError or return an all-NaN state; the state keeps none of its norm
    with pytest.raises(TruncationError,
                       match=f"^norm 1.000e\\+00 lost to the truncation .* at dim={dim};"):
        coherent_state(dim, beta)


def test_truncation_error_names_what_the_truncation_lost():
    # coherent_state reports the norm it lost, which it used to report as the
    # population of the top two Fock levels, of a one-level space too; a
    # density matrix's check reports that population
    with pytest.raises(TruncationError) as err:
        coherent_state(1, 0.5)
    assert str(err.value) == ("norm 1.175e-01 lost to the truncation exceeds 1e-06 at dim=1; "
                              "rerun with dim >= 9")
    assert (err.value.dim, err.value.suggested) == (1, 9)
    rho = FockDensityMatrix(np.diag([0.5, 0.3, 0.2]).astype(complex), 0.0)
    with pytest.raises(TruncationError, match=r"^population 5\.000e-01 in the top two Fock "
                       r"levels exceeds 1e-06 of the trace at dim=3; rerun with dim >= 11$"):
        rho.validate()


def test_coherent_state_whose_amplitudes_overflow_a_float():
    # at |beta|^2 = 1450 the unnormalised amplitudes beta^k / sqrt(k!) pass
    # 1e308, and dim 1800 holds the state: its amplitudes come from their
    # logarithms, with <b> = beta and <n> = |beta|^2
    beta = math.sqrt(1450.0) * cmath.exp(0.3j)
    psi = coherent_state(1800, beta)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)
    mean_b, mean_n, mean_b2 = moments_from_state(psi[:, None])
    assert abs(mean_b[0] - beta) <= 1e-9 * abs(beta)
    assert mean_n[0] == pytest.approx(1450.0, rel=1e-9)
    assert abs(mean_b2[0] - beta**2) <= 1e-9 * abs(beta) ** 2


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


def dense_sse_moments(params, amps, dec, pe, h, steps, stride, seed):
    """(<b>, <n>, <b^2>) every ``stride`` steps of Euler-Maruyama state
    diffusion on dense operators, one channel at a time, with the draws of
    ``PCG64(seed)``."""
    dim = len(amps)
    b = destroy_matrix(dim)
    bd = b.conj().T
    x = np.random.Generator(np.random.PCG64(seed)).standard_normal((steps, 4))
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
    return tuple(np.array(v) for v in zip(*expected))


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
    exp_b, exp_n, exp_b2 = dense_sse_moments(
        params, amps, dec, pe, h, steps, stride, derive_trajectory_seed(seed, 0)
    )
    assert np.allclose(series.times, np.arange(0, steps + 1, stride) * h, rtol=0, atol=1e-9)
    assert np.max(np.abs(series.b - exp_b)) <= 1e-12
    assert np.max(np.abs(series.n - exp_n)) <= 1e-12
    assert np.max(np.abs(series.b2 - exp_b2)) <= 1e-12


def test_sse_batch_lanes_match_their_dense_runs(params):
    # three lanes of one batch, each against the dense run on its own seed's
    # stream: the per-step coefficients, two rows over the lanes, must neither
    # mix lanes nor swap the channel cross terms g_uw and g_wu
    dim, steps, stride, pe = 6, 1024, 128, 0.4
    amps = np.exp(0.7j * np.arange(dim)) / math.sqrt(dim)
    dec = twisted_decomposition(4e-4, 1e-4, 0.6)
    h = params.mechanical_period / steps
    seeds = [derive_trajectory_seed(8, i) for i in range(3)]
    _, b, n, b2 = _sse_batch(
        params, amps, params.mechanical_period, h, seeds,
        make_frozen_schedule(dec, pe, 1), stride,
    )
    for lane, seed in enumerate(seeds):
        expected = dense_sse_moments(params, amps, dec, pe, h, steps, stride, seed)
        for got, want in zip((b[lane], n[lane], b2[lane]), expected):
            assert np.max(np.abs(got - want)) <= 1e-12, lane
