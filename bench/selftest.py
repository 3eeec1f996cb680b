"""Tests that each correctness check of the benchmark rejects a wrong answer.

Run from the repository root with ``python3 bench/selftest.py``.  Only numpy
and the benchmark's own ``checks`` module are imported.  The file name keeps
these tests out of the package's pytest collection.
"""

from __future__ import annotations

import unittest

import numpy as np

import checks

# Criterion 8's parameters: gamma = g = 1, g_m = 5e-3, Gamma = 1e-10, n_m = 100.
LONG = dict(g=1.0, gamma=1.0, g_m=5e-3, Gamma=1e-10, n_m=100.0)
LAM = (5e-3, 5e-4)


def ratio_at(swing, Gamma=LONG["Gamma"]):
    return checks.sinusoidal_rate_ratio(
        LONG["g"], LONG["gamma"], LONG["g_m"], Gamma, LONG["n_m"], swing
    )


class RateRatio(unittest.TestCase):
    def test_reference_values(self):
        # emitter-only ratios (s0 + |s2|)/(s0 - |s2|) at A = 1 and A = 2
        self.assertAlmostEqual(ratio_at(1.0, Gamma=0.0), 21 / 13, places=12)
        self.assertAlmostEqual(ratio_at(2.0, Gamma=0.0), 171 / 43, places=12)
        self.assertAlmostEqual(ratio_at(2.0), 3.9393, places=4)

    def test_rejects_swing_g_m_beta0(self):
        predicted = ratio_at(2.0)  # swing 2 g_m |beta0|
        wrong = ratio_at(1.0)  # swing g_m |beta0|
        self.assertAlmostEqual(wrong, 1.61, places=2)
        ones = np.ones(640)
        self.assertTrue(checks.check_rate_ratio(predicted * ones, ones, predicted)[0])
        self.assertFalse(checks.check_rate_ratio(wrong * ones, ones, predicted)[0])


class Broadening(unittest.TestCase):
    def test_rejects_a_shrinking_width(self):
        t = np.arange(13.0)
        self.assertTrue(checks.check_broadening(t, 1e-3 * t)[0])
        shrink = 1e-3 * t
        shrink[8] = shrink[4] * 0.9
        self.assertFalse(checks.check_broadening(t, shrink)[0])


class TwistedMoments(unittest.TestCase):
    def test_closed_forms_solve_the_moment_equations(self):
        # fourth-order integration of d<b>/dt = -i Omega <b>,
        # d<n>/dt = (lp + lm)/2, d<b2>/dt = -2i Omega <b2> - (lp - lm)/2
        omega, beta0, (lp, lm) = 0.01, 1.0 + 0.5j, LAM
        rhs = lambda y: np.array(
            [-1j * omega * y[0], 0.5 * (lp + lm), -2j * omega * y[2] - 0.5 * (lp - lm)]
        )
        y, h = np.array([beta0, abs(beta0) ** 2, beta0**2]), 0.25
        for _ in range(4000):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        b, n, b2 = checks.twisted_moments([1000.0], beta0, omega, lp, lm)
        np.testing.assert_allclose([b[0], n[0], b2[0]], y, rtol=1e-8)

    def test_tiny_omega_limit(self):
        # no cancellation at Omega t ~ 1e-6: <b2> -> beta0^2 - (lp - lm) t / 2
        t = np.array([0.0, 1e3, 3e3])
        _, _, b2 = checks.twisted_moments(t, 1.0, 1e-9, *LAM)
        np.testing.assert_allclose(b2, 1.0 - 0.5 * (LAM[0] - LAM[1]) * t, atol=1e-4)


class WithinStandardErrors(unittest.TestCase):
    def setUp(self):
        self.t = np.linspace(0.0, 3000.0, 41)
        self.b, self.n, self.b2 = checks.twisted_moments(self.t, 1.0, 1e-9, *LAM)
        self.se = np.full(self.t.shape, 0.02)

    def test_rejects_n_slope_of_full_rate_sum(self):
        wrong = abs(1.0) ** 2 + (LAM[0] + LAM[1]) * self.t
        self.assertTrue(checks.check_within_se("<n>", self.t, self.n, self.se, self.n)[0])
        self.assertFalse(checks.check_within_se("<n>", self.t, wrong, self.se, self.n)[0])

    def test_rejects_a_shift_of_five_standard_errors(self):
        for name, exact in (("<b>", self.b), ("<n>", self.n), ("<b2>", self.b2)):
            for shift, accepted in ((3.0, True), (5.0, False)):
                measured = exact + shift * self.se
                ok, detail = checks.check_within_se(name, self.t, measured, self.se, exact)
                self.assertEqual(ok, accepted, detail)

    def test_rejects_a_zero_standard_error(self):
        se = self.se.copy()
        se[5] = 0.0
        self.assertFalse(checks.check_within_se("<n>", self.t, self.n, se, self.n)[0])


class MasterTolerance(unittest.TestCase):
    def test_accepts_truncation_and_rejects_more(self):
        t = np.linspace(0.0, 3000.0, 41)
        _, n, _ = checks.twisted_moments(t, 1.0, 0.01, *LAM)
        self.assertTrue(checks.check_within_atol("<n>", n + 2.4e-5, n)[0])
        self.assertFalse(checks.check_within_atol("<n>", n + 1e-3, n)[0])


class Identical(unittest.TestCase):
    def test_rejects_a_changed_byte(self):
        self.assertTrue(checks.check_identical("a.csv", b"t,x\n0,1\n", b"t,x\n0,1\n")[0])
        self.assertFalse(checks.check_identical("a.csv", b"t,x\n0,1\n", b"t,x\n0,2\n")[0])


if __name__ == "__main__":
    unittest.main()
