"""The benchmark's smoke run passes on the current source.

``bench/run.py --smoke`` runs every workload once untraced and once traced at
a toy size.  It exits nonzero when an output check fails or when a function
the tracer wraps by name is absent, so a rename in ``src/`` that the
benchmark does not follow fails here rather than in a benchmark run.  The
per-layer counts of the smoke ``scheduled_ensemble`` are pinned as well, so
a route that bypasses a traced function fails here too.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines
    for line in lines:
        assert re.match(r"\w+: [\d.]+ s, ok;", line), line
        assert "FAIL" not in line and "absent" not in line, line


def test_scheduled_smoke_trace_counts(tmp_path, monkeypatch):
    # 200 trajectories over 2 windows of 256 steps: 4 normals per lane-step
    # in one draw per window, one shared variance lane per window, and the
    # ensemble's batch plus the reference's
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing
    import workloads

    workload = workloads.ScheduledEnsemble(
        workloads.ScheduledEnsemble.default_seed, True, tmp_path
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = workload.run()
    finally:
        tracer.uninstall()
    metrics = tracer.snapshot()
    assert metrics["trajectory.draw_noise.normals"] == 409_600
    assert metrics["trajectory.variance_step.lane_steps"] == 2
    assert metrics["trajectory.batch_run.calls"] == 2
    assert tracer.absent == []
    assert all(ok for ok, _ in workload.check(result))
