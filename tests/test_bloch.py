import math

import numpy as np
import pytest

from hybridmech.bloch import (
    BlochVector,
    PhysParams,
    bloch_steady_state,
    bloch_step_batch,
    pe_closed_form,
)

# the engine step of the criterion-8 ensemble: a period of Omega = 0.01 / 256
CRIT8_DT = 2 * math.pi / 0.01 / 256


def integrate(p, delta_of_t, state0, t_end, dt):
    """Exact steps from t = 0 to t_end, each with the detuning at its midpoint."""
    n_steps = math.ceil(t_end / dt - 1e-12)
    h = t_end / n_steps
    times = h * np.arange(n_steps + 1)
    y = np.empty((n_steps + 1, 3))
    y[0] = state0.pe, state0.s.real, state0.s.imag
    for k in range(n_steps):
        y[k + 1] = bloch_step_batch(y[k], delta_of_t(times[k] + 0.5 * h), p, h)
    return times, y[:, 0], y[:, 1] + 1j * y[:, 2]


def rk4_reference(y, delta, g, n_q, dt, substeps):
    """Fine RK4 solution of the Bloch equations (gamma = 1) at fixed detuning."""

    def rhs(y):
        pe, re_s, im_s = y
        gp = 2.0 * n_q + 1.0
        return np.array([
            -gp * pe + n_q - g * im_s,
            delta * im_s - 0.5 * gp * re_s,
            -delta * re_s - 0.5 * gp * im_s + g * (pe - 0.5),
        ])

    h = dt / substeps
    for _ in range(substeps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def test_params_validation():
    with pytest.raises(ValueError):
        PhysParams(gamma=0.0, g=1.0, Omega=0.01, g_m=0.01)
    with pytest.raises(ValueError):
        PhysParams(gamma=1.0, g=-1.0, Omega=0.01, g_m=0.01)
    with pytest.raises(ValueError):
        PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.01, n_m=-2.0)
    # NaN passed the `< 0` checks, and an infinite or NaN value was never checked
    good = dict(gamma=1.0, g=1.0, Omega=0.01, g_m=0.01)
    for field in ("gamma", "g", "Omega", "g_m", "delta0", "n_q", "Gamma", "n_m"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^{field} must be"):
                PhysParams(**{**good, field: bad})


def test_params_warns_outside_adiabatic_regime():
    with pytest.warns(UserWarning, match="adiabatic"):
        PhysParams(gamma=1.0, g=1.0, Omega=0.5, g_m=0.01)
    with pytest.warns(UserWarning, match="adiabatic"):
        PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.5)


def test_pe_closed_form_reference_points():
    assert pe_closed_form(1.0, 1.0, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert pe_closed_form(1.0, 1.0, 1.0) == pytest.approx(1.0 / 7.0, abs=1e-15)
    # saturation limit
    assert pe_closed_form(100.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-4)
    # undriven emitter at zero temperature stays in the ground state
    assert pe_closed_form(0.0, 1.0, 2.0) == 0.0


def test_pe_closed_form_vectorised():
    deltas = np.linspace(-5, 5, 11)
    vals = pe_closed_form(1.0, 1.0, deltas)
    assert vals.shape == deltas.shape
    assert np.all(vals > 0)
    assert np.all(vals <= 0.5)
    # an undriven emitter gives zeros of the detuning's shape
    zeros = pe_closed_form(0.0, 1.0, deltas.reshape(1, -1))
    assert zeros.shape == (1, deltas.size) and zeros.dtype == float
    assert not np.any(zeros)


def test_steady_state_matches_closed_form_at_zero_occupation():
    for g in (0.1, 0.5, 1.0, 2.0, 10.0):
        for delta in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0):
            p = PhysParams(gamma=1.0, g=g, Omega=0.01, g_m=0.01)
            ss = bloch_steady_state(p, delta)
            assert ss.pe == pytest.approx(pe_closed_form(g, 1.0, delta), rel=1e-12)
            assert ss.is_physical()


def test_steady_state_undriven():
    p = PhysParams(gamma=1.0, g=0.0, Omega=0.01, g_m=0.01)
    ss = bloch_steady_state(p, 0.7)
    assert ss.pe == pytest.approx(0.0, abs=1e-15)
    assert abs(ss.s) == pytest.approx(0.0, abs=1e-15)


def test_step_matches_fine_rk4():
    # at the criterion-8 step dt times the generator reaches norm 37, so the
    # squaring runs; the reference is converged to 2e-12 at 8192 substeps
    grid = np.array(np.meshgrid([0.0, 0.4, -0.4, 3.0], [0.0, 1.3, 10.0],
                                [0.0, 0.2, 1.5], indexing="ij")).reshape(3, -1)
    y0 = np.array([0.9, 0.1, 0.2])
    for dt, substeps in ((0.02, 64), (CRIT8_DT, 8192)):
        ref = rk4_reference(y0[:, None], *grid, dt, substeps)
        for (delta, g, n_q), want in zip(grid.T, ref.T):
            p = PhysParams(gamma=1.0, g=g, Omega=0.01, g_m=0.01, n_q=n_q)
            got = bloch_step_batch(y0, delta, p, dt)
            assert np.max(np.abs(got - want)) <= 1e-10


def test_steady_state_is_ode_fixed_point():
    for n_q in (0.0, 0.1, 1.5):
        p = PhysParams(gamma=1.0, g=1.3, Omega=0.01, g_m=0.01, n_q=n_q)
        ss = bloch_steady_state(p, 0.4)
        y = np.array([ss.pe, ss.s.real, ss.s.imag])
        for dt in (0.02, CRIT8_DT):
            assert np.max(np.abs(bloch_step_batch(y, 0.4, p, dt) - y)) < 1e-13


def test_step_is_independent_of_the_batch():
    # each lane scales and squares by its own norm; one lane has a NaN
    # detuning and one a NaN state
    rng = np.random.default_rng(5)
    p = PhysParams(gamma=1.0, g=10.0, Omega=0.01, g_m=0.01, n_q=0.2)
    delta = rng.uniform(-30.0, 30.0, 200)
    y = np.column_stack([rng.uniform(0, 1, 200), rng.uniform(-0.3, 0.3, (200, 2))])
    delta[7] = np.nan
    y[9, 1] = np.nan
    batch = np.stack([bloch_step_batch(y, delta, p, h) for h in (0.3, CRIT8_DT)])
    for i in range(200):
        for row, h in zip(batch, (0.3, CRIT8_DT)):
            alone = bloch_step_batch(y[i : i + 1], delta[i : i + 1], p, h)
            assert np.array_equal(alone[0], row[i], equal_nan=True)
    nan_lanes = np.isnan(batch).any(axis=2)
    assert np.array_equal(np.flatnonzero(nan_lanes.any(axis=0)), [7, 9])
    assert np.all(nan_lanes[:, [7, 9]])


def test_steady_state_finite_occupation_matches_long_integration():
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.01, n_q=0.1)
    delta = 0.5
    ss = bloch_steady_state(p, delta)
    _, pe, s = integrate(
        p, lambda t: delta, BlochVector(pe=0.9, s=0.1 + 0.2j), 60.0, 0.5
    )
    assert pe[-1] == pytest.approx(ss.pe, abs=1e-8)
    assert abs(s[-1] - ss.s) < 1e-8


def test_pure_decay():
    p = PhysParams(gamma=1.0, g=0.0, Omega=0.01, g_m=0.01)
    times, pe, _ = integrate(p, lambda t: 0.0, BlochVector(pe=1.0, s=0.0), 8.0, 0.01)
    assert np.max(np.abs(pe - np.exp(-times))) < 1e-6


def test_relaxation_to_steady_state():
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.01)
    ss = bloch_steady_state(p, 0.3)
    _, pe, s = integrate(p, lambda t: 0.3, BlochVector(pe=1.0, s=0.0), 40.0, 0.02)
    assert pe[-1] == pytest.approx(ss.pe, abs=1e-6)
    assert abs(s[-1] - ss.s) < 1e-6


def test_bloch_ball_preserved_under_driving():
    p = PhysParams(gamma=1.0, g=2.0, Omega=0.01, g_m=0.01)
    _, pe, s = integrate(
        p,
        lambda t: 0.5 * math.sin(0.05 * t),
        BlochVector(pe=1.0, s=0.0),
        100.0,
        0.02,
    )
    excess = (2 * pe - 1) ** 2 + 4 * np.abs(s) ** 2 - 1
    assert np.max(excess) < 1e-6


def test_adiabatic_following_of_closed_form():
    # slow sinusoidal detuning: population tracks the instantaneous steady state
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.01)
    omega_mod = 0.01
    delta_fn = lambda t: 1.0 * math.sin(omega_mod * t)
    t_end = 3 * 2 * math.pi / omega_mod
    times, pe, _ = integrate(p, delta_fn, BlochVector(pe=0.0, s=0.0), t_end, 0.5)
    mask = times > 10.0
    target = pe_closed_form(p.g, p.gamma, np.array([delta_fn(t) for t in times]))
    assert np.max(np.abs(pe[mask] - target[mask])) <= 0.02
