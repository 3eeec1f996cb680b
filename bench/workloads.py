"""The benchmark workloads: inputs, one experiment, and its checks.

Each workload builds its inputs in ``__init__`` (the part timed as set-up),
runs one whole experiment in ``run`` through the package's public entry
points, and checks the output in ``check`` against the closed forms of
``checks``.  Entry points are looked up on their modules at call time, so the
wrappers that ``tracing`` installs see every call.  ``smoke=True`` selects a toy
size that keeps every check.
"""

from __future__ import annotations

import math
from pathlib import Path

from hybridmech import cli, oracle, trajectory
from hybridmech.bloch import PhysParams
from hybridmech.lindblad import twisted_decomposition

import checks

BETA0_LONG = 200.0  # |beta0| of the long run, beta0 = 200i
BETA0_ORACLE = 1.0 + 0.0j


def long_run_config(seed, periods, trajectories, workers, steps=256):
    """The CLI config of criterion 8, shortened to ``periods`` periods."""
    return cli.config_from_dict(
        {
            "kind": "ensemble",
            "units": "gamma",
            "params": {
                "gamma": 1.0,
                "g": 1.0,
                "delta0": 0.0,
                "Omega": 1e-2,
                "g_m": 5e-3,
                "Gamma": 1e-10,
                "n_m": 100.0,
            },
            "initial": {"beta0": [0.0, BETA0_LONG]},
            "duration_periods": periods,
            "trajectories": trajectories,
            "seed": seed,
            "engine": {"steps_per_window": steps, "record_stride": 4, "workers": workers},
        }
    )


class LongRun:
    """Self-scheduled two-step loop through the CLI ``ensemble`` experiment."""

    name = "long_run"
    default_seed = 314
    rate_windows = 10

    def __init__(self, seed: int, smoke: bool, out_root: Path):
        # whole periods at 1/3 and 2/3 of the run, so the broadening check
        # compares var_dbeta_x at one rotation phase
        self.trajectories, steps = (32, 128) if smoke else (200, 256)
        self.config = long_run_config(seed, 12, self.trajectories, 2, steps)
        self.out = out_root / self.name
        self.short = [long_run_config(seed, 2, 8, workers) for workers in (1, 2)]
        self.ops = self.trajectories

    def run(self):
        cli.run_experiment(self.config, self.out / "run")
        return (self.out / "run" / "ensemble.csv").read_bytes()

    def check(self, output):
        cols = checks.read_csv_columns(output.decode())
        p = self.config.params
        per_window = self.config.steps_per_window // self.config.record_stride
        head = slice(0, self.rate_windows * per_window)
        predicted = checks.sinusoidal_rate_ratio(
            p.g, p.gamma, p.g_m, p.Gamma, p.n_m, 2.0 * p.g_m * BETA0_LONG
        )
        return [
            checks.check_rate_ratio(
                cols["lambda_plus"][head], cols["lambda_minus"][head], predicted
            ),
            checks.check_broadening(cols["t"], cols["var_dbeta_x"]),
        ]

    def partition_check(self):
        """workers = 1 and workers = 2 write the same CSV bytes."""
        written = []
        for config in self.short:
            out = self.out / f"workers{config.workers}"
            files = sorted(f for f in cli.run_experiment(config, out) if f.endswith(".csv"))
            written.append(b"".join(f.encode() + (out / f).read_bytes() for f in files))
        return checks.check_identical("CSV files of workers 1 and 2", *written)


class ScheduledEnsemble:
    """Criterion 6's wide ensemble on a frozen twisted schedule."""

    name = "scheduled_ensemble"
    default_seed = 1112

    def __init__(self, seed: int, smoke: bool, out_root: Path):
        windows, steps, stride = (2, 256, 64) if smoke else (5, 1024, 128)
        self.n_traj = 200 if smoke else 2000
        self.seed = seed
        self.lam = (5e-3, 5e-4)
        self.params = PhysParams(gamma=1.0, g=1.0, Omega=1e-9, g_m=0.0)
        schedule = oracle.make_frozen_schedule(
            twisted_decomposition(*self.lam, 0.0), 0.0, windows
        )
        # window length 2 pi / 0.01, as in criterion 6, with Omega = 1e-9
        self.duration = windows * 2.0 * math.pi / 0.01
        self.options = trajectory.TrajectoryOptions(
            steps_per_window=steps, record_stride=stride, schedule=schedule, workers=1
        )
        self.ops = self.n_traj

    def run(self):
        return trajectory.run_ensemble(
            self.params, BETA0_ORACLE, self.duration, self.n_traj, self.seed,
            self.options,
        )

    def check(self, res):
        b, n, b2 = checks.twisted_moments(
            res.times, BETA0_ORACLE, self.params.Omega, *self.lam
        )
        return [
            checks.check_within_se("<b>", res.times, res.mean_beta, res.se_beta, b),
            checks.check_within_se("<n>", res.times, res.mean_n, res.se_n, n),
            checks.check_within_se("<b2>", res.times, res.mean_b2, res.se_b2, b2),
        ]


def _oracle_setting(windows):
    """Criterion 5's frozen schedule: lambda = (1e-3, 1e-4), theta = 0."""
    params = PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.0)
    lam = (1e-3, 1e-4)
    schedule = oracle.make_frozen_schedule(twisted_decomposition(*lam, 0.0), 0.0, windows)
    return params, lam, schedule, windows * params.mechanical_period


class MasterOracle:
    """One ``integrate_master`` run; the master equation has no randomness."""

    name = "master_oracle"
    default_seed = 2024

    def __init__(self, seed: int, smoke: bool, out_root: Path):
        windows, dim = (1, 30) if smoke else (5, 40)
        self.params, self.lam, self.schedule, self.duration = _oracle_setting(windows)
        self.rho0 = oracle.coherent_density(dim, BETA0_ORACLE)
        self.dt = self.params.mechanical_period / 512
        self.ops = 1

    def run(self):
        return oracle.integrate_master(
            self.params, self.rho0, self.duration, self.dt, self.schedule,
            record_stride=64,
        )

    def check(self, res):
        m = res.moments
        b, n, b2 = checks.twisted_moments(
            m.times, BETA0_ORACLE, self.params.Omega, *self.lam
        )
        return [
            checks.check_within_atol("<b>", m.b, b),
            checks.check_within_atol("<n>", m.n, n),
            checks.check_within_atol("<b2>", m.b2, b2),
        ]


class SseOracle:
    """One ``sse_ensemble`` run at dim 40 and step period/4096."""

    name = "sse_oracle"
    default_seed = 77

    def __init__(self, seed: int, smoke: bool, out_root: Path):
        self.n_traj, self.stride = (16, 1024) if smoke else (64, 512)
        self.seed = seed
        self.params, self.lam, self.schedule, self.duration = _oracle_setting(1)
        self.psi0 = oracle.coherent_state(40, BETA0_ORACLE)
        self.dt = self.params.mechanical_period / 4096
        self.ops = self.n_traj

    def run(self):
        return oracle.sse_ensemble(
            self.params, self.psi0, self.duration, self.dt, self.n_traj, self.seed,
            self.schedule, record_stride=self.stride,
        )

    def check(self, res):
        m = res.moments
        b, n, b2 = checks.twisted_moments(
            m.times, BETA0_ORACLE, self.params.Omega, *self.lam
        )
        return [
            checks.check_within_se("<b>", m.times, m.b, res.se_b, b),
            checks.check_within_se("<n>", m.times, m.n, res.se_n, n),
            checks.check_within_se("<b2>", m.times, m.b2, res.se_b2, b2),
        ]


WORKLOADS = {w.name: w for w in (LongRun, ScheduledEnsemble, MasterOracle, SseOracle)}
