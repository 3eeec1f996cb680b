"""Wall time, minor page faults and maximum RSS of one long run in a fresh process.

    python3 tools/footprint.py --periods 150

Writes the CLI config of the ``long_run`` benchmark workload (criterion 8:
200 trajectories from beta0 = 200i, 256 steps per window, record stride 4,
seed 314) at ``--periods`` mechanical periods to a temporary directory. It
then runs that config once in a fresh ``python -m hybridmech.cli`` process
that imports this checkout's ``src``, and prints one JSON line: the child's
wall time, minor page faults and maximum resident set size, and the faults
of a child that only imports ``hybridmech.cli``, the part of the run's
faults that no change to the engine moves. The faults are
``resource.getrusage(RUSAGE_CHILDREN)`` deltas; the RSS is that call's
``ru_maxrss``, the largest child's, which is the run's. A long run in a
fresh process shows what the benchmark's 12-period runs in a long-lived
process cannot: the cost per period and the allocator's page-fault churn.
It needs only the standard library and the package; the exit status is the
run's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def long_run_config(periods: int) -> dict:
    """The ``long_run`` workload's CLI config at ``periods`` periods."""
    return {
        "kind": "ensemble",
        "units": "gamma",
        "params": {"gamma": 1.0, "g": 1.0, "delta0": 0.0, "Omega": 1e-2, "g_m": 5e-3,
                   "Gamma": 1e-10, "n_m": 100.0},
        "initial": {"beta0": [0.0, 200.0]},
        "duration_periods": periods,
        "trajectories": 200,
        "seed": 314,
        "engine": {"steps_per_window": 256, "record_stride": 4, "workers": 2},
    }


def child_faults(command: list[str], env: dict) -> tuple[int, subprocess.CompletedProcess]:
    """Run ``command`` to its end; its minor page faults and its completed process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    done = subprocess.run(command, env=env, capture_output=True, text=True)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before, done


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--periods", type=int, default=150, help="run duration in periods")
    args = parser.parse_args()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    import_faults, _ = child_faults([sys.executable, "-c", "import hybridmech.cli"], env)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(long_run_config(args.periods)))
        command = [sys.executable, "-m", "hybridmech.cli", "--config", str(config),
                   "--out", str(Path(tmp) / "out")]
        start = time.perf_counter()
        faults, done = child_faults(command, env)
        wall = time.perf_counter() - start
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
    max_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # from KiB
    print(json.dumps({
        "periods": args.periods,
        "exit": done.returncode,
        "wall_s": round(wall, 3),
        "minor_faults": faults,
        "import_faults": import_faults,
        "max_rss_mib": round(max_rss, 1),
    }))
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
