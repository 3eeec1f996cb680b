import cmath
import math

import numpy as np
import pytest
from conftest import sinusoidal_kernels

from hybridmech.bloch import BlochVector, PhysParams, bloch_steady_state
from hybridmech.spectrum import (
    WINDOW_PANELS,
    NoiseKernels,
    UnsupportedConfigError,
    g_vector,
    panel_kernels,
    qrt_matrix,
    spectrum_closed_form,
    spectrum_qrt,
)


@pytest.fixture
def params():
    return PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.02)


def test_qrt_matrix_entries(params):
    a = qrt_matrix(params, 0.7)
    g, gamma, d = 1.0, 1.0, 0.7
    expected = np.array(
        [
            [-gamma, -1j * g, 1j * g],
            [-0.5j * g, 1j * d - 0.5 * gamma, 0],
            [0.5j * g, 0, -1j * d - 0.5 * gamma],
        ]
    )
    assert np.array_equal(a, expected)


def test_qrt_matrix_decouples_at_zero_drive():
    p = PhysParams(gamma=1.0, g=0.0, Omega=0.01, g_m=0.02)
    a = qrt_matrix(p, 0.3)
    assert a[0, 1] == 0 and a[0, 2] == 0
    assert a[1, 0] == 0 and a[2, 0] == 0


def test_qrt_matrix_stable_eigenvalues():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g = 10.0 ** rng.uniform(-1, 1)
        delta = rng.uniform(-5, 5)
        p = PhysParams(gamma=1.0, g=g, Omega=0.01, g_m=0.02)
        eig = np.linalg.eigvals(qrt_matrix(p, delta))
        assert np.all(eig.real <= 1e-12)


def test_qrt_refuses_finite_occupation():
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.02, n_q=0.2)
    with pytest.raises(UnsupportedConfigError):
        qrt_matrix(p, 0.0)
    with pytest.raises(UnsupportedConfigError):
        spectrum_qrt(p, 0.0, 0.0)
    with pytest.raises(UnsupportedConfigError):
        spectrum_closed_form(p, 0.0)


def test_g_vector_reference_points(params):
    assert np.allclose(g_vector(BlochVector(pe=0.5, s=0.0)), [1, 0, 0])
    assert np.allclose(g_vector(BlochVector(pe=0.0, s=0.0)), [0, 0, 0])
    # composed with the steady state at resonance: sz = -1/3, s = -i/3
    steady = bloch_steady_state(params, 0.0)
    gv = g_vector(steady)
    assert np.allclose(gv, [8.0 / 9.0, -2j / 9.0, -4j / 9.0], atol=1e-14)


def test_spectrum_reference_value(params):
    val = spectrum_qrt(params, 0.0, 0.0)
    assert val.real == pytest.approx(params.g_m**2 / 9.0, rel=1e-12)
    assert spectrum_closed_form(params, 0.0) == pytest.approx(
        params.g_m**2 / 9.0, rel=1e-14
    )


def test_spectrum_flat_near_zero_frequency(params):
    s0 = spectrum_qrt(params, 0.0, 0.0)
    for sign in (+1, -1):
        s = spectrum_qrt(params, 0.0, sign * params.Omega)
        assert abs(s.real - s0.real) / s0.real < 1e-3


def test_spectrum_vanishes_undriven():
    p = PhysParams(gamma=1.0, g=0.0, Omega=0.01, g_m=0.02)
    assert abs(spectrum_qrt(p, 1.0, 0.0)) < 1e-15
    assert spectrum_closed_form(p, 1.0) == 0.0


def test_closed_form_matches_qrt_on_grid():
    worst = 0.0
    for g in (0.1, 0.5, 1.0, 2.0, 10.0):
        p = PhysParams(gamma=1.0, g=g, Omega=0.01, g_m=0.02)
        for delta in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0):
            cf = spectrum_closed_form(p, delta)
            qrt = spectrum_qrt(p, delta, 0.0).real
            worst = max(worst, abs(qrt - cf) / cf)
    assert worst <= 1e-10


def test_closed_form_positive_and_large_detuning_tail(params):
    rng = np.random.default_rng(11)
    deltas = rng.uniform(-20, 20, size=200)
    assert np.all(spectrum_closed_form(params, deltas) >= 0)
    # S ~ delta^-4 at large detuning
    ratio = spectrum_closed_form(params, 1e3) / spectrum_closed_form(params, 2e3)
    assert ratio == pytest.approx(16.0, rel=0.01)


def test_spectrum_scales_as_coupling_squared():
    p1 = PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.02)
    p2 = PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.04)
    assert spectrum_closed_form(p2, 0.7) == pytest.approx(
        4.0 * spectrum_closed_form(p1, 0.7), rel=1e-15
    )
    assert spectrum_qrt(p2, 0.7, 0.0).real == pytest.approx(
        4.0 * spectrum_qrt(p1, 0.7, 0.0).real, rel=1e-14
    )


def kernels(params, delta_m, t0=0.0, panels=WINDOW_PANELS):
    t = t0 + params.mechanical_period * np.arange(panels + 1) / panels
    delta = params.delta0 + np.array([delta_m(x) for x in t])
    return panel_kernels(params, delta, np.exp(-2j * params.Omega * t))


def test_kernels_constant_detuning(params):
    s0, s2 = kernels(params, lambda t: 0.0)
    assert s0 == pytest.approx(2.0 * spectrum_closed_form(params, 0.0), rel=1e-14)
    assert abs(s2) < 1e-14 * s0


def test_kernels_constant_spectrum_any_phase_origin():
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.02, delta0=0.8)
    s0, s2 = kernels(p, lambda t: 0.25, 137.0)
    assert abs(s2) < 1e-14 * s0


def test_kernels_modulated_detuning_against_fine_quadrature(params):
    amp = 0.3
    delta_fn = lambda t: amp * math.cos(params.Omega * t)
    s0, s2 = kernels(params, delta_fn)
    fine_s0, fine_s2 = kernels(params, delta_fn, panels=4096)
    assert s0 == pytest.approx(fine_s0, rel=1e-6)
    assert s2 == pytest.approx(fine_s2, rel=1e-6)
    assert abs(s2) > 0
    assert abs(s2) <= s0


def test_kernels_sinusoidal_detuning_against_closed_form(params):
    # delta_m = A cos(Omega t + phi): the exact s2 carries the phase exp(2i phi),
    # so a wrong frequency or sign in the e^{-2i Omega t} weight shows up
    for amp in (1.0, 1.5, 2.0, 2.5):
        s0, s2 = sinusoidal_kernels(params, amp)
        for phi, t0 in ((0.0, 0.0), (0.7, 0.0), (-1.9, 137.0)):
            fn = lambda t: amp * math.cos(params.Omega * t + phi)
            exact_s2 = s2 * cmath.exp(2j * phi)
            k0, k2 = kernels(params, fn, t0, panels=128)
            assert k0 == pytest.approx(s0, rel=1e-12)
            assert abs(k2 - exact_s2) <= 1e-12 * abs(s2)
            # the engine's 64 panels
            k0, k2 = kernels(params, fn, t0)
            assert k0 == pytest.approx(s0, rel=1e-6)
            assert abs(k2 - exact_s2) <= 1e-6 * abs(s2)


def test_kernels_sinusoidal_ratio_reference_values(params):
    # emitter-only asymmetry (s0 + |s2|)/(s0 - |s2|) against the swing A/gamma
    for amp, ratio, rel in (
        (1.0, 21.0 / 13.0, 1e-12),
        (2.0, 171.0 / 43.0, 1e-12),
        (2.32, 5.0786, 1e-5),
    ):
        s0, s2 = sinusoidal_kernels(params, amp)
        assert (s0 + abs(s2)) / (s0 - abs(s2)) == pytest.approx(ratio, rel=rel)
        k0, k2 = kernels(
            params, lambda t: amp * math.cos(params.Omega * t), panels=128
        )
        measured = (k0 + abs(k2)) / (k0 - abs(k2))
        assert measured == pytest.approx(ratio, rel=rel)


def test_kernels_bound_holds_for_random_windows(params):
    rng = np.random.default_rng(3)
    for _ in range(20):
        amp = rng.uniform(0, 3)
        phase = rng.uniform(0, 2 * math.pi)
        off = rng.uniform(-1, 1)
        fn = lambda t: off + amp * math.cos(params.Omega * t + phase)
        s0, s2 = kernels(params, fn, rng.uniform(0, 1000.0))
        assert s0 >= 0
        assert abs(s2) <= s0 * (1 + 1e-12)


def test_noise_kernels_validation():
    with pytest.raises(ValueError, match="s0"):
        NoiseKernels(s0=-1.0, s2=0.0)
    with pytest.raises(ValueError, match="s2"):
        NoiseKernels(s0=1.0, s2=1.5 + 0j)


@pytest.mark.parametrize(
    "s0, s2, message",
    [
        (math.nan, 0j, "^s0 must"),
        (math.inf, 0j, "^s0 must"),
        (math.inf, complex(math.inf, 0.0), "^s0 must"),
        (1.0, complex(math.nan, 0.0), r"^\|s2\|=nan"),
        (1.0, complex(0.0, math.nan), r"^\|s2\|=nan"),
    ],
    ids=["s0-nan", "s0-inf", "both-inf", "s2-nan-real", "s2-nan-imag"],
)
def test_noise_kernels_refuse_non_finite(s0, s2, message):
    # each used to construct: a comparison with NaN is false, and inf <= inf
    with pytest.raises(ValueError, match=message):
        NoiseKernels(s0=s0, s2=s2)
