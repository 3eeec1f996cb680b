"""List the code lines of ``src/hybridmech`` that no run reached.

    python3 tools/line_trace.py tier1     # one in-process Tier-1 run (pytest)
    python3 tools/line_trace.py traffic   # the benchmark workloads and golden runs

``tier1`` runs ``pytest`` on ``tests/`` in this process.  ``traffic`` runs the
four workloads of ``bench/workloads.py`` at full size, as ``bench/run.py``
does (the partition check, one experiment and its checks), and then every
``tests/test_golden.py`` config through ``cli.main``, all in a temporary
directory.  Both run under ``sys.settrace``, with a tracer that follows only
frames of the package's modules and adds the line of each ``line`` event; the
package is first imported under the trace, so its module-level lines count,
but a test that starts a subprocess is not traced.  A module's code lines are
those of ``co_lines()`` over all its code objects, less each nested code
object's first line (a ``def`` or decorator line, which runs in the parent).
For each module the script prints how many code lines no event reached, then
each of them with its source.  It needs only the standard library besides
what each mode runs; a ``tier1`` run takes about twice the Tier-1 time.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import threading
import types
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hybridmech"


def start_trace() -> dict:
    """Trace every thread from now on; returns {module path: lines reached}."""
    hits = defaultdict(set)
    tracers = {}  # co_filename -> the local tracer of a package module, or None

    def local_tracer(lines):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in tracers:
            path = Path(name).resolve()
            tracers[name] = local_tracer(hits[path]) if path.parent == PACKAGE else None
        return tracers[name]

    threading.settrace(tracer)
    sys.settrace(tracer)
    return hits


def stop_trace() -> None:
    sys.settrace(None)
    threading.settrace(None)


def code_lines(path: Path) -> set[int]:
    """The lines of ``path`` that hold code, less nested code objects' first lines."""
    lines = set()
    stack = [(compile(path.read_text(), str(path), "exec"), False)]
    while stack:
        code, nested = stack.pop()
        own = {line for _, _, line in code.co_lines() if line}
        lines |= own - {code.co_firstlineno} if nested else own
        stack += [(c, True) for c in code.co_consts if isinstance(c, types.CodeType)]
    return lines


def report(hits: dict) -> None:
    total = missed_total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = code_lines(path)
        missed = sorted(lines - hits.get(path, set()))
        total, missed_total = total + len(lines), missed_total + len(missed)
        print(f"{path.relative_to(ROOT)}: {len(missed)} of {len(lines)} code lines unreached")
        source = path.read_text().splitlines()
        for line in missed:
            print(f"  {line:4d}  {source[line - 1].strip()}")
    print(f"all modules: {missed_total} of {total} code lines unreached")


def run_tier1() -> int:
    import pytest

    os.chdir(ROOT)
    return int(pytest.main(["-q", "-p", "no:cacheprovider", "tests"]))


def run_traffic() -> int:
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]
    import test_golden
    import workloads

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(cls.default_seed, False, Path(tmp))
            checks = [wl.partition_check()] if hasattr(wl, "partition_check") else []
            checks += wl.check(wl.run())
            failures += [f"{name}: {detail}" for ok, detail in checks if not ok]
        (Path(tmp) / "golden").mkdir()
        test_golden.run_all(Path(tmp) / "golden")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["tier1", "traffic"])
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    hits = start_trace()
    try:
        status = run_tier1() if args.mode == "tier1" else run_traffic()
    finally:
        stop_trace()
    report(hits)
    return status


if __name__ == "__main__":
    sys.exit(main())
