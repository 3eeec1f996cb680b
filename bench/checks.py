"""Closed forms and correctness checks of the benchmark workloads.

Everything here is computed apart from ``hybridmech``: only numpy and the
stdlib are imported, so a fault in the package cannot leak into the
reference values it is checked against.  Each check returns ``(ok, detail)``
with a one-line detail that names the measured and the expected figure.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# Statistical checks accept a deviation of up to this many standard errors.
Z_MAX = 4.0
# Relative tolerance of the long run's rate ratio against the closed form.
RATIO_RTOL = 0.01
# Absolute tolerance of the dim-40 master moments against the closed forms.
# The deviations measured at dim 40 are 4.1e-6 (<b>), 2.5e-6 (<n>) and 2.4e-5
# (<b^2>); at dim 60 they fall to 6e-9, 9e-10 and 1.9e-7, so they are truncation.
MASTER_ATOL = 1e-4


def sinusoidal_kernels(g, gamma, g_m, amplitude):
    """Exact window kernels (s0, s2) for delta_m(t) = amplitude * cos(Omega t).

    At delta0 = 0 and n_q = 0, twice the zero-frequency population spectrum
    is K [u^-2 - 2 g^2 u^-3] with u = 4 delta^2 + a^2, a^2 = 2 g^2 + gamma^2
    and K = 2 g_m^2 g^2 (g^2 + 2 gamma^2) / gamma.  Along the cosine,
    u = c + d cos(2 Omega t) with c = 2 A^2 + a^2 and d = 2 A^2, so the window
    averages of u^-n and of u^-n cos(2 Omega t) reduce to the elementary
    moments M_n = <(c + d cos phi)^-n> over one period of phi.
    """
    g2 = g * g
    c = 2.0 * amplitude**2 + 2.0 * g2 + gamma**2
    d = 2.0 * amplitude**2
    disc = c * c - d * d
    m1 = disc**-0.5
    m2 = c * disc**-1.5
    m3 = (2.0 * c * c + d * d) / (2.0 * disc**2.5)
    k = 2.0 * g_m**2 * g2 * (g2 + 2.0 * gamma**2) / gamma
    s0 = k * (m2 - 2.0 * g2 * m3)
    # <u^-n cos phi> = (M_{n-1} - c M_n) / d
    s2 = k * ((m1 - c * m2) - 2.0 * g2 * (m2 - c * m3)) / d
    return s0, s2


def sinusoidal_rate_ratio(g, gamma, g_m, Gamma, n_m, amplitude):
    """lambda_+/lambda_- of the dissipation matrix [[h11, s2], [s2*, h22]].

    h11 = Gamma (n_m + 1) + s0 and h22 = Gamma n_m + s0, so the eigenvalues
    are s0 + Gamma (n_m + 1/2) +- sqrt(Gamma^2 + 4 |s2|^2) / 2.
    """
    s0, s2 = sinusoidal_kernels(g, gamma, g_m, amplitude)
    base = s0 + Gamma * (n_m + 0.5)
    split = 0.5 * math.sqrt(Gamma**2 + 4.0 * s2**2)
    return (base + split) / (base - split)


def twisted_moments(times, beta0, omega, lam_p, lam_m):
    """Exact <b>, <b^dag b>, <b^2> under pure quadrature scattering.

    For twisted channels at theta = 0 with Gamma = g_m = 0 the jump operators
    are the Hermitian quadratures x and p, so D[x] and D[p] leave <b> alone
    and add (lam_p + lam_m)/2 to d<n>/dt and -(lam_p - lam_m)/2 to d<b^2>/dt:
    d<b^2>/dt = -2i Omega <b^2> - (lam_p - lam_m)/2.
    """
    t = np.asarray(times, dtype=float)
    rot = np.exp(-1j * omega * t)
    b = beta0 * rot
    n = abs(beta0) ** 2 + 0.5 * (lam_p + lam_m) * t
    # (1 - exp(-2i Omega t)) / (4i Omega), written with expm1 for tiny Omega t
    b2 = beta0**2 * rot**2 - (lam_p - lam_m) * (-np.expm1(-2j * omega * t)) / (
        4j * omega
    )
    return b, n, b2


def read_csv_columns(text: str) -> dict[str, np.ndarray]:
    """Columns of a numeric CSV with a header line."""
    rows = list(csv.reader(io.StringIO(text)))
    header, body = rows[0], np.array(rows[1:], dtype=float)
    return {name: body[:, i] for i, name in enumerate(header)}


def check_rate_ratio(lam_p, lam_m, predicted):
    """Minimum lambda_+/lambda_- over the given records against a prediction."""
    ratio = float(np.min(np.asarray(lam_p) / np.asarray(lam_m)))
    ok = abs(ratio - predicted) <= RATIO_RTOL * predicted
    return ok, f"min ratio {ratio:.5f}, predicted {predicted:.5f}"


def check_broadening(times, var_x):
    """var_dbeta_x grows from 1/3 to 2/3 of the run and from 2/3 to the end."""
    times = np.asarray(times)
    end = times[-1]
    idx = [int(np.argmin(np.abs(times - f * end))) for f in (1 / 3, 2 / 3, 1.0)]
    values = [float(var_x[i]) for i in idx]
    ok = values[0] < values[1] < values[2]
    return ok, "var_dbeta_x at 1/3, 2/3, end: " + ", ".join(f"{v:.4e}" for v in values)


def check_within_se(name, times, measured, se, expected):
    """|measured - expected| <= Z_MAX * se at every record after t = 0."""
    later = np.asarray(times) > 0
    dev = np.abs(np.asarray(measured) - np.asarray(expected))[later]
    se = np.asarray(se)[later]
    if np.any(~(se > 0)):
        return False, f"{name}: non-positive standard error"
    z = float(np.max(dev / se))
    return z <= Z_MAX, f"{name} max |z| {z:.2f}"


def check_within_atol(name, measured, expected, atol=MASTER_ATOL):
    """|measured - expected| <= atol at every record."""
    dev = float(np.max(np.abs(np.asarray(measured) - np.asarray(expected))))
    return dev <= atol, f"{name} max |dev| {dev:.2e}"


def check_identical(name, first: bytes, second: bytes):
    """Two outputs that must agree byte for byte."""
    ok = first == second
    return ok, f"{name} {'identical' if ok else 'differ'} ({len(first)} bytes)"
