"""Benchmark of hybridmech: end-to-end timings, and per-layer timings when traced.

Usage (from the repository root):

    python3 bench/run.py --workload long_run --seed 314 --seconds 20 --trace 0
    python3 bench/run.py --smoke          # every workload once at a toy size
    python3 bench/selftest.py             # the checks reject wrong answers

An untraced run (``--trace 0``) runs one warm-up experiment, then repeats
the experiment for about ``--seconds`` seconds with a host-speed probe
before and after each one, and reports the median probe-scaled experiment
time (``experiment_s``).  Before the first experiment and after each one it
starts a fresh interpreter and times it from start to inputs ready; the
median is ``setup_s``.  ``peak_rss_mb`` is the peak resident memory of this
process up to the end of the warm-up.  A traced run
(``--trace 1``) alternates untraced and traced experiments after the warm-up
and reports the per-layer figures of the traced ones, next to the raw median
times of both kinds so the tracing overhead shows.  Every experiment's
output is checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".bench_out"
MIN_REPEATS = 3
# Seconds that HostSpeedProbe takes on the reference host (this machine in
# its usual phase).  experiment_s is an experiment's wall time scaled to that
# host: wall * PROBE_REF_S / probe.
PROBE_REF_S = 0.13


def import_workloads():
    """The workloads module, or exit 2 when the package cannot be imported."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import hybridmech from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    return workloads


class HostSpeedProbe:
    """Seconds of a fixed numpy computation that runs no code of the package.

    The host's speed drifts by up to 2x over minutes.  The probe has three
    parts that drift with the workloads: steps on small arrays (per-call
    overhead, like ``long_run`` and the oracles), on wide arrays (like the
    2000-lane batch) and column reads across a 33 MB array (like the noise
    arrays of ``scheduled_ensemble``).
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.random(256) + 1j * rng.random(256)
        self.wide = rng.random(20000) + 1j * rng.random(20000)
        self.big = rng.random((2000, 1024)) + 0j

    def __call__(self) -> float:
        start = time.perf_counter()
        x, y, acc = self.small.copy(), self.wide.copy(), np.zeros(2000, dtype=complex)
        for _ in range(3000):
            x = (x * 0.999 + 0.001j) * np.conjugate(self.small) + np.abs(self.small) ** 2 - x.real
        for _ in range(300):
            y = (y * 0.999 + 0.001j) * np.conjugate(self.wide) + np.abs(self.wide) ** 2 - y.real
        for j in range(1024):
            acc += self.big[:, j] * 0.5
        return time.perf_counter() - start


def setup_seconds(workload: str, seed: int) -> float:
    """Seconds from interpreter start to inputs ready, in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


class Runner:
    """Runs and checks experiments of one workload, keeping the counts.

    A workload with a ``partition_check`` runs it first, outside any timing.
    """

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.report: list[str] = []  # partition check and first experiment
        if hasattr(wl, "partition_check"):
            self.report += self.record([wl.partition_check()])

    def experiment(self, tracer=None) -> float:
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            output = self.wl.run()
            elapsed = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.uninstall()
        lines = self.record(self.wl.check(output))
        if not self.attempted:
            self.report += lines
        self.attempted += self.wl.ops
        self.failed += len(getattr(output, "aborted", ()))
        return elapsed

    def lines(self) -> list[str]:
        """The reported checks, then every later failure."""
        return self.report + [f for f in self.failures if f not in self.report]

    def record(self, results) -> list[str]:
        lines = [f"{'ok' if ok else 'FAIL'}: {detail}" for ok, detail in results]
        self.failures += [line for (ok, _), line in zip(results, lines) if not ok]
        return lines


def timed_loop(seconds: float, step, min_steps: int = MIN_REPEATS) -> None:
    """Call ``step`` (returns its seconds) for about ``seconds`` seconds.

    A new step starts only if the median step so far still fits, and at
    least ``min_steps`` steps run.
    """
    begin = time.perf_counter()
    done: list[float] = []
    while len(done) < min_steps or (
        time.perf_counter() - begin + statistics.median(done) <= seconds
    ):
        done.append(step())


def traced_metrics(runner, seconds):
    """Alternate untraced and traced experiments; per-layer medians.

    ``median_low`` picks one traced experiment's figure, so counts stay whole.
    """
    import tracing

    tracer = tracing.Tracer()
    untraced, traced, layers = [], [], []

    def pair():
        untraced.append(runner.experiment())
        traced.append(runner.experiment(tracer))
        layers.append(tracer.snapshot())
        return untraced[-1] + traced[-1]

    timed_loop(seconds, pair, min_steps=1)
    metrics = {
        name: {"value": statistics.median_low(snap[name] for snap in layers), "unit": unit}
        for name, (_, _, unit) in tracing.METRICS.items()
    }
    metrics["traced.experiment_s"] = {"value": statistics.median(traced), "unit": "s"}
    metrics["untraced.experiment_s"] = {"value": statistics.median(untraced), "unit": "s"}
    metrics["trace.absent"] = {"value": len(tracer.absent), "unit": "count"}
    lines = [f"absent: {name} (not wrapped; its metrics read 0)" for name in tracer.absent]
    return metrics, [f"{len(traced)} traced and {len(untraced)} untraced experiments", *lines]


def untraced_metrics(runner, seconds, setup, peak_mib):
    """Repeat the experiment between host-speed probes; probe-scaled median.

    A set-up probe follows each experiment, so the set-up times sample the
    host over the whole run rather than over its first seconds.
    """
    probe = HostSpeedProbe()
    times, probes, setup_times = [], [probe()], [setup()]

    def step():
        times.append(runner.experiment())
        probes.append(probe())
        setup_times.append(setup())
        return times[-1]

    timed_loop(seconds, step)
    scaled = [
        t * PROBE_REF_S / (0.5 * (probes[i] + probes[i + 1])) for i, t in enumerate(times)
    ]
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "experiment_s": {"value": statistics.median(scaled), "unit": "s"},
        "peak_rss_mb": {"value": peak_mib, "unit": "MiB"},
    }
    return metrics, [
        f"{len(times)} timed experiments, wall s {[round(t, 4) for t in times]}",
        f"host-speed probes s {[round(p, 4) for p in probes]}",
        f"set-up probes s {[round(t, 4) for t in setup_times]}",
    ]


def run_workload(args, workloads) -> int:
    cls = workloads.WORKLOADS[args.workload]
    seed = cls.default_seed if args.seed is None else args.seed
    if args.setup_probe:
        cls(seed, False, OUT)
        print("ready", flush=True)
        return 0

    runner = Runner(cls(seed, False, OUT))
    runner.experiment()  # warm-up: not timed, checked like the rest
    # Peak memory through set-up and one experiment, as a single CLI run sees
    # it; later repeats add allocator fragmentation that no user run has.
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        metrics, notes = traced_metrics(runner, args.seconds)
    else:
        metrics, notes = untraced_metrics(
            runner, args.seconds, lambda: setup_seconds(args.workload, seed), peak_mib
        )

    correct = not runner.failures
    print(f"workload {args.workload}, seed {seed}, one warm-up experiment")
    for line in notes:
        print(line)
    for line in runner.lines():
        print(f"check {line}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_smoke(workloads) -> int:
    """Every workload at its toy size: one untraced and one traced experiment."""
    import tracing

    ok = True
    for name, cls in workloads.WORKLOADS.items():
        start = time.perf_counter()
        runner = Runner(cls(cls.default_seed, True, OUT))
        tracer = tracing.Tracer()
        runner.experiment()
        runner.experiment(tracer)
        ok = ok and not runner.failures and not tracer.absent
        print(f"{name}: {time.perf_counter() - start:.2f} s, "
              f"{'ok' if not runner.failures else 'FAIL'}; "
              + "; ".join(runner.lines())
              + (f"; absent {tracer.absent}" if tracer.absent else ""))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at a toy size")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workloads = import_workloads()
    if args.smoke:
        return run_smoke(workloads)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
