import math

import numpy as np
import pytest

from hybridmech.bloch import PhysParams
from hybridmech.lindblad import decompose
from hybridmech.spectrum import NoiseKernels


@pytest.fixture
def adiabatic_params():
    return PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.02)


def random_kernel_set(rng, s0_range=(-3, 3), gamma_range=(-3, 3), n_range=(-2, 3)):
    """One random valid (Gamma, n_m, s0, s2) draw on log scales."""
    s0 = 10.0 ** rng.uniform(*s0_range)
    s2 = s0 * rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
    Gamma = 10.0 ** rng.uniform(*gamma_range)
    n_m = 10.0 ** rng.uniform(*n_range)
    return Gamma, n_m, s0, s2


def decomposition_from_set(Gamma, n_m, s0, s2):
    return NoiseKernels(s0=s0, s2=s2), decompose(Gamma, n_m, s0, s2)


def reference_generators(seeds):
    """One generator per seed by numpy's own constructor, independent of the
    engine's vectorised seeding: ``Generator(PCG64(int(s)))``."""
    return [np.random.Generator(np.random.PCG64(int(s))) for s in seeds]


def sinusoidal_kernels(params, amplitude):
    """Exact window kernels (s0, s2) for delta_m(t) = amplitude * cos(Omega t).

    Independent of the quadrature in ``hybridmech.spectrum``.  With
    a^2 = 2 g^2 + gamma^2, twice the zero-frequency spectrum at delta0 = 0 is
    K [(4 delta^2 + a^2)^-2 - 2 g^2 (4 delta^2 + a^2)^-3], with
    K = 2 g_m^2 g^2 (g^2 + 2 gamma^2) / gamma.  Along the cosine,
    4 delta^2 + a^2 = c + d cos(2 Omega t) with c = 2 A^2 + a^2, d = 2 A^2, so
    the window averages reduce to the elementary moments
    M_n = <(c + d cos phi)^-n>.  The result does not depend on where the
    window starts; s2 is real here, and a phase offset phi in the cosine
    multiplies it by exp(2i phi).
    """
    if params.delta0 != 0 or params.n_q != 0:
        raise ValueError("closed form holds for delta0 = 0 and n_q = 0 only")
    g2, gamma = params.g**2, params.gamma
    c = 2.0 * amplitude**2 + 2.0 * g2 + gamma**2
    d = 2.0 * amplitude**2
    disc = c * c - d * d
    m1 = disc**-0.5
    m2 = c * disc**-1.5
    m3 = (2.0 * c * c + d * d) / (2.0 * disc**2.5)
    k = 2.0 * params.g_m**2 * g2 * (g2 + 2.0 * gamma**2) / gamma
    s0 = k * (m2 - 2.0 * g2 * m3)
    s2 = k * ((m1 - c * m2) - 2.0 * g2 * (m2 - c * m3)) / d
    return s0, s2


def sinusoidal_rates(params, amplitude):
    """(lambda_+, lambda_-) from the exact kernels plus thermal damping."""
    s0, s2 = sinusoidal_kernels(params, amplitude)
    base = s0 + params.Gamma * (params.n_m + 0.5)
    split = 0.5 * math.sqrt(params.Gamma**2 + 4.0 * s2**2)
    return base + split, base - split
