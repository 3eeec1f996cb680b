"""The benchmark's smoke run passes on the current source.

``bench/run.py --smoke`` runs every workload once untraced and once traced at
a toy size.  It exits nonzero when an output check fails or when a function
the tracer wraps by name is absent, so a rename in ``src/`` that the
benchmark does not follow fails here rather than in a benchmark run.  The
per-layer counts of the smoke ``scheduled_ensemble`` and ``long_run`` are
pinned as well, so a route that bypasses a traced function fails here too.
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


def traced_smoke_run(name, tmp_path, monkeypatch):
    """Trace one smoke run of workload ``name``: (workload, tracer, metrics, result)."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import tracing
    import workloads

    workload_class = workloads.WORKLOADS[name]
    workload = workload_class(workload_class.default_seed, True, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        result = workload.run()
    finally:
        tracer.uninstall()
    return workload, tracer, tracer.snapshot(), result


def test_scheduled_smoke_trace_counts(tmp_path, monkeypatch):
    # 200 trajectories over 2 windows of 4 records: 2 normals per lane per
    # record in one draw per batch, one shared variance lane per window, and
    # the ensemble's batch plus the reference's
    workload, tracer, metrics, result = traced_smoke_run(
        "scheduled_ensemble", tmp_path, monkeypatch
    )
    assert metrics["trajectory.draw_noise.normals"] == 3_200
    assert tracer.totals["trajectory.draw_noise"]["calls"] == 2
    assert metrics["trajectory.variance_step.lane_steps"] == 2
    assert metrics["trajectory.batch_run.calls"] == 2
    assert tracer.absent == []
    assert all(ok for ok, _ in workload.check(result))


def test_self_scheduled_smoke_trace_counts(tmp_path, monkeypatch):
    # 32 trajectories over 12 one-period windows of 128 steps: 4 normals per
    # lane-step in one draw per window of each batch, none for the reference
    # lane, which has no generator; one variance call per window over the 32
    # lanes; the ensemble's batch plus
    # the reference's; the kernels and eigenpairs once per window of the
    # ensemble alone; and the population at each of the 1,536 steps and the
    # closing record, in both batches
    workload, tracer, metrics, result = traced_smoke_run(
        "long_run", tmp_path, monkeypatch
    )
    assert metrics["trajectory.draw_noise.normals"] == 196_608
    assert tracer.totals["trajectory.draw_noise"]["calls"] == 24
    assert metrics["trajectory.variance_step.lane_steps"] == 384
    assert metrics["trajectory.batch_run.calls"] == 2
    assert metrics["lindblad.eigenpairs.calls"] == 12
    assert metrics["spectrum.spectrum_closed_form.calls"] == 12
    assert metrics["bloch.pe_closed_form.calls"] == 3_074
    assert tracer.absent == []
    assert all(ok for ok, _ in workload.check(result))
