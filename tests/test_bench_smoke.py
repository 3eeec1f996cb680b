"""The benchmark's smoke run passes on the current source.

``bench/run.py --smoke`` runs every workload once untraced and once traced at
a toy size.  It exits nonzero when an output check fails or when a function
the tracer wraps by name is absent, so a rename in ``src/`` that the
benchmark does not follow fails here rather than in a benchmark run.
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
