import math

import numpy as np
import pytest

from conftest import random_kernel_set
from hybridmech.bloch import PhysParams
from hybridmech.lindblad import (
    NoiseRegime,
    classify_regime,
    decompose,
    effective_thermal,
    twisted_decomposition,
)
from hybridmech.spectrum import NoiseKernels


def dissipation_matrix(Gamma, n_m, s0, s2):
    """The 2x2 matrix h that ``decompose`` diagonalises, written out."""
    return np.array(
        [[Gamma * (n_m + 1.0) + s0, s2], [np.conjugate(s2), Gamma * n_m + s0]]
    )


def test_decompose_rejects_negative_thermal_rates():
    with pytest.raises(ValueError, match="non-negative"):
        decompose(-1e-3, 1.0, 0.5, 0.1)
    with pytest.raises(ValueError, match="non-negative"):
        decompose(1e-3, -1.0, 0.5, 0.1)


def test_diagonalize_pure_scattering_limit():
    # Gamma = 0 with real positive s2: quadrature channels at theta = 0
    dec = decompose(0.0, 0.0, 1.0, 0.4 + 0j)
    assert dec.lambda_plus == pytest.approx(1.4, rel=1e-14)
    assert dec.lambda_minus == pytest.approx(0.6, rel=1e-14)
    r = 1 / math.sqrt(2)
    assert np.allclose(dec.v_plus, [r, r], atol=1e-14)
    assert np.allclose(dec.v_minus, [-r, r], atol=1e-14)
    assert dec.theta == 0.0


def test_diagonalize_matches_twisted_form_at_zero_damping():
    rng = np.random.default_rng(2)
    for _ in range(20):
        s0 = 10.0 ** rng.uniform(-2, 2)
        s2 = s0 * rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        dec = decompose(0.0, 0.0, s0, s2)
        ref = twisted_decomposition(s0 + abs(s2), s0 - abs(s2), -0.5 * np.angle(s2))
        assert dec.lambda_plus == pytest.approx(ref.lambda_plus, rel=1e-12)
        assert dec.lambda_minus == pytest.approx(ref.lambda_minus, abs=1e-12 * s0)
        # coefficient vectors agree up to a global phase
        for v, w in ((dec.v_plus, ref.v_plus), (dec.v_minus, ref.v_minus)):
            overlap = abs(np.vdot(v, w))
            assert overlap == pytest.approx(1.0, abs=1e-12)


def test_diagonalize_diagonal_case_channel_assignment():
    dec = decompose(1.0, 2.0, 0.3, 0.0)
    assert dec.lambda_plus == pytest.approx(1.0 * 3.0 + 0.3)
    assert dec.lambda_minus == pytest.approx(1.0 * 2.0 + 0.3)
    assert np.allclose(dec.v_plus, [1, 0])
    assert np.allclose(dec.v_minus, [0, 1])
    assert dec.theta == 0.0


def test_diagonalize_fully_degenerate_convention():
    dec = decompose(0.0, 0.0, 0.7, 0.0)
    assert dec.lambda_plus == dec.lambda_minus == pytest.approx(0.7)
    assert np.allclose(dec.v_plus, [1, 0])
    assert np.allclose(dec.v_minus, [0, 1])


def test_diagonalize_against_generic_eigensolver():
    rng = np.random.default_rng(7)
    for _ in range(500):
        Gamma, n_m, s0, s2 = random_kernel_set(rng)
        h = dissipation_matrix(Gamma, n_m, s0, s2)
        dec = decompose(Gamma, n_m, s0, s2)
        scale = float(np.max(np.abs(h)))
        evals, evecs = np.linalg.eigh(h)
        assert abs(dec.lambda_minus - evals[0]) <= 1e-12 * scale
        assert abs(dec.lambda_plus - evals[1]) <= 1e-12 * scale
        assert abs(abs(np.vdot(evecs[:, 1], dec.v_plus)) - 1.0) <= 1e-12
        assert abs(abs(np.vdot(evecs[:, 0], dec.v_minus)) - 1.0) <= 1e-12
        assert dec.lambda_minus >= 0.0


def test_decomposition_orthonormal_and_reconstructs():
    rng = np.random.default_rng(13)
    for _ in range(200):
        Gamma, n_m, s0, s2 = random_kernel_set(rng)
        h = dissipation_matrix(Gamma, n_m, s0, s2)
        dec = decompose(Gamma, n_m, s0, s2)
        assert abs(np.vdot(dec.v_plus, dec.v_plus) - 1) < 1e-13
        assert abs(np.vdot(dec.v_minus, dec.v_minus) - 1) < 1e-13
        assert abs(np.vdot(dec.v_plus, dec.v_minus)) < 1e-13
        scale = float(np.max(np.abs(h)))
        assert np.max(np.abs(dec.reconstruct() - h)) <= 1e-12 * scale


def test_weak_coupling_channel_limit():
    # v_plus tends to (1, s2*/Gamma) at first order in |s2|/Gamma
    Gamma = 1.0
    s2_phase = np.exp(0.9j)
    errs = []
    for eps in (1e-2, 1e-3, 1e-4):
        s2 = eps * s2_phase
        dec = decompose(Gamma, 0.5, 2 * eps, s2)
        v = dec.v_plus / dec.v_plus[0]
        errs.append(abs(v[1] - np.conj(s2) / Gamma))
        # residual beyond first order only
        assert errs[-1] <= eps**2
    # and it shrinks superlinearly between decades
    assert errs[0] / errs[1] > 100.0
    assert errs[1] / errs[2] > 100.0


def test_effective_thermal_formulas():
    kern = NoiseKernels(s0=0.02, s2=0.0)
    gamma_eff, n_eff = effective_thermal(1.0, 2.0, kern)
    assert gamma_eff == pytest.approx(1.0)
    assert n_eff == pytest.approx(2.02)

    kern = NoiseKernels(s0=0.0, s2=0.0)
    gamma_eff, n_eff = effective_thermal(0.5, 1.5, kern)
    assert (gamma_eff, n_eff) == (0.5, 1.5)

    kern = NoiseKernels(s0=0.04, s2=0.02 + 0.01j)
    gamma_eff, n_eff = effective_thermal(2.0, 0.0, kern)
    assert gamma_eff == pytest.approx(2.0 + 2.0 * abs(kern.s2) ** 2 / 2.0)
    assert n_eff == pytest.approx(0.02)


def test_effective_thermal_domain():
    kern = NoiseKernels(s0=0.1, s2=0.0)
    with pytest.raises(ValueError):
        effective_thermal(0.0, 1.0, kern)
    with pytest.warns(UserWarning, match="validity"):
        effective_thermal(0.2, 1.0, kern)


def test_classify_regime_inequalities():
    def params(Gamma, n_m):
        return PhysParams(
            gamma=1.0, g=1.0, Omega=0.01, g_m=0.01, Gamma=Gamma, n_m=n_m
        )

    tls_rate = 1e-4
    label = classify_regime(params(tls_rate / 10.0, 0.0))
    assert label.regime is NoiseRegime.TLS_INDUCED
    assert label.tls_vs_damping == pytest.approx(10.0)

    # boundary points stay on the emitter-dominated / effective-thermal side
    assert classify_regime(params(tls_rate, 1.0)).regime is NoiseRegime.TLS_INDUCED
    assert (
        classify_regime(params(tls_rate * 1.01, 1.0)).regime
        is NoiseRegime.EFFECTIVE_THERMAL
    )
    assert classify_regime(params(tls_rate * 1.01, 1.01)).regime is NoiseRegime.THERMAL
    assert classify_regime(params(tls_rate, 1e6)).regime is NoiseRegime.THERMAL


def test_classify_regime_scale_invariant():
    rng = np.random.default_rng(23)
    for _ in range(50):
        Gamma = 10.0 ** rng.uniform(-8, -2)
        n_m = 10.0 ** rng.uniform(-2, 6)
        scale = 10.0 ** rng.uniform(-3, 3)
        p1 = PhysParams(gamma=1.0, g=1.0, Omega=1e-3, g_m=1e-3, Gamma=Gamma, n_m=n_m)
        # g_m scales linearly so every rate (incl. g_m^2/gamma) picks up `scale`
        p2 = PhysParams(
            gamma=scale,
            g=scale,
            Omega=1e-3 * scale,
            g_m=1e-3 * scale,
            Gamma=Gamma * scale,
            n_m=n_m,
        )
        assert classify_regime(p1).regime is classify_regime(p2).regime
