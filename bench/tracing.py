"""Per-layer timings by wrapping the package's module-level functions.

The wrappers are installed from outside: every ``hybridmech`` module that
binds the original function gets the wrapper in its place, so calls made
through ``from .bloch import pe_closed_form`` are seen too.  Each wrapper
records inclusive seconds, self seconds (inclusive minus the wrapped calls
made inside it) and calls, plus an optional work count taken from the
arguments.  A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

PACKAGE = "hybridmech"

# (group, module, attribute, count name, count from (args, kwargs))
TARGETS = [
    ("bloch.pe_closed_form", "bloch", "pe_closed_form", None, None),
    ("spectrum.spectrum_closed_form", "spectrum", "spectrum_closed_form", None, None),
    ("lindblad.eigenpairs", "lindblad", "eigenpairs", None, None),
    ("trajectory.variance_step", "trajectory", "_variance_step",
     "lane_steps", lambda a, k: np.size(a[0])),
    ("trajectory.draw_noise", "trajectory", "_draw_window_noise",
     "normals", lambda a, k: 4 * len(a[0]) * a[1]),
    ("trajectory.batch_run", "trajectory", "_batch_run", None, None),
    ("trajectory.reference_run", "trajectory", "semiclassical_run", None, None),
    ("trajectory.run_ensemble", "trajectory", "run_ensemble", None, None),
    ("cli.write_csv", "cli", "write_csv",
     "bytes", lambda a, k: os.path.getsize(a[0])),
    ("oracle.rk4_step", "oracle", "_rk4_step", None, None),
    ("oracle.lindblad_rhs", "oracle", "lindblad_rhs", None, None),
    ("oracle.ladder", "oracle", "lower_state", None, None),
    ("oracle.ladder", "oracle", "raise_state", None, None),
    ("oracle.ladder", "oracle", "_b_left", None, None),
    ("oracle.ladder", "oracle", "_bdag_left", None, None),
    ("oracle.ladder", "oracle", "_b_right", None, None),
    ("oracle.ladder", "oracle", "_bdag_right", None, None),
    ("oracle.validate", "oracle", "FockDensityMatrix.validate", None, None),
    ("oracle.sse_batch", "oracle", "_sse_batch", None, None),
]

# per-layer metric name -> (group, field, unit)
METRICS = {
    "bloch.pe_closed_form.s": ("bloch.pe_closed_form", "s", "s"),
    "bloch.pe_closed_form.calls": ("bloch.pe_closed_form", "calls", "count"),
    "spectrum.spectrum_closed_form.s": ("spectrum.spectrum_closed_form", "s", "s"),
    "spectrum.spectrum_closed_form.calls": (
        "spectrum.spectrum_closed_form", "calls", "count"),
    "lindblad.eigenpairs.s": ("lindblad.eigenpairs", "s", "s"),
    "lindblad.eigenpairs.calls": ("lindblad.eigenpairs", "calls", "count"),
    "trajectory.variance_step.s": ("trajectory.variance_step", "s", "s"),
    "trajectory.variance_step.calls": ("trajectory.variance_step", "calls", "count"),
    "trajectory.variance_step.lane_steps": (
        "trajectory.variance_step", "lane_steps", "count"),
    "trajectory.draw_noise.s": ("trajectory.draw_noise", "s", "s"),
    "trajectory.draw_noise.normals": ("trajectory.draw_noise", "normals", "count"),
    "trajectory.batch_run.calls": ("trajectory.batch_run", "calls", "count"),
    "trajectory.batch_run.self_s": ("trajectory.batch_run", "self_s", "s"),
    "trajectory.reference_run.s": ("trajectory.reference_run", "s", "s"),
    "trajectory.reduce.s": ("trajectory.run_ensemble", "self_s", "s"),
    "cli.write_csv.s": ("cli.write_csv", "s", "s"),
    "cli.csv_bytes": ("cli.write_csv", "bytes", "B"),
    "oracle.rk4_step.s": ("oracle.rk4_step", "s", "s"),
    "oracle.rk4_step.calls": ("oracle.rk4_step", "calls", "count"),
    "oracle.lindblad_rhs.calls": ("oracle.lindblad_rhs", "calls", "count"),
    "oracle.ladder.s": ("oracle.ladder", "s", "s"),
    "oracle.ladder.calls": ("oracle.ladder", "calls", "count"),
    "oracle.validate.s": ("oracle.validate", "s", "s"),
    "oracle.sse_batch.s": ("oracle.sse_batch", "s", "s"),
}


class Tracer:
    """Installs the wrappers, accumulates per-group figures, and restores."""

    def __init__(self):
        self.stack: list[float] = []
        self.totals: dict[str, dict[str, float]] = {}
        self.absent: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, fn, group, count_name, count):
        stack = self.stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                inner = stack.pop()
                acc = self.totals[group]
                acc["s"] += elapsed
                acc["self_s"] += elapsed - inner
                acc["calls"] += 1
                if count_name:
                    acc[count_name] += count(args, kwargs)
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def install(self) -> None:
        """Wrap every target and start the figures from zero."""
        self.totals = {
            group: {"s": 0.0, "self_s": 0.0, "calls": 0, **({count: 0} if count else {})}
            for group, _, _, count, _ in TARGETS
        }
        self.absent = []
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for group, module, attr, count_name, count in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module}")
            cls_name, _, name = attr.rpartition(".")
            if owner is not None and cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, name, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{module}.{attr}")
                continue
            wrapper = self._wrap(original, group, count_name, count)
            holders = [owner] if cls_name else [
                m for m in modules if getattr(m, name, None) is original
            ]
            for holder in holders:
                self._restore.append((holder, name, original))
                setattr(holder, name, wrapper)

    def uninstall(self) -> None:
        for holder, name, original in reversed(self._restore):
            setattr(holder, name, original)
        self._restore.clear()

    def snapshot(self) -> dict[str, float]:
        """Per-layer metric values of the calls since the last install."""
        return {
            metric: self.totals[group][field]
            for metric, (group, field, _) in METRICS.items()
        }
