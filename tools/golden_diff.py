"""Report which golden outputs moved against another tree, column by column.

    python3 tools/golden_diff.py PARENT_TREE

Runs every config of ``RUNS`` in this tree's ``tests/test_golden.py`` twice,
through ``hybridmech.cli.main``: once in a subprocess whose ``PYTHONPATH`` is
this tree's ``src``, and once with PARENT_TREE's ``src``, each into its own
temporary directory.  Then, for each file that the golden digests cover (each
run's outputs and its manifest's ``config`` block), it prints each column that
moved, with max |change| over the column's largest |value| in PARENT_TREE:
a CSV file's columns by their header, a JSON file's numeric leaves by their
path.  A file whose bytes are equal prints nothing, and a non-numeric value or
a NaN that moved prints ``moved``.  ``RUNS`` is read from the test file's
source, so the script needs only the standard library and numpy.  It exits 1
if a run fails.
"""

from __future__ import annotations

import argparse
import ast
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

CHILD = """
import json, sys
from pathlib import Path
from hybridmech.cli import main
root = Path(sys.argv[1])
root.mkdir()
for run, doc in json.loads(sys.argv[2]).items():
    config = root / f"{run}.json"
    config.write_text(json.dumps(doc))
    if main(["--config", str(config), "--out", str(root / run)]) != 0:
        sys.exit(f"run {run} failed")
"""


def golden_runs() -> dict:
    """``RUNS`` of tests/test_golden.py, from the module-level assignments it needs."""
    tree = ast.parse((ROOT / "tests" / "test_golden.py").read_text())
    body = [node for node in tree.body if isinstance(node, ast.Assign)
            and {t.id for t in node.targets if isinstance(t, ast.Name)} & {"REQUIRED", "RUNS"}]
    scope: dict = {}
    exec(compile(ast.Module(body=body, type_ignores=[]), "test_golden.py", "exec"), scope)
    return scope["RUNS"]


def run_tree(tree: Path, root: Path, runs: dict) -> dict[str, bytes]:
    """Every golden file of ``runs`` made with ``tree``'s package, by its digest key."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    subprocess.run([sys.executable, "-c", CHILD, str(root), json.dumps(runs)],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    files = {}
    for run in runs:
        manifest = json.loads((root / run / "manifest.json").read_text())
        for name in manifest["outputs"]:
            files[f"{run}/{name}"] = (root / run / name).read_bytes()
        files[f"{run}/manifest.json:config"] = json.dumps(manifest["config"]).encode()
    return files


def columns(key: str, blob: bytes) -> dict[str, list]:
    """A CSV file's columns by header, or a JSON document's leaves by path."""
    if key.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(blob.decode())))
        return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}
    leaves = {}

    def walk(node, path):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{path}.{k}" if path else k)
        elif isinstance(node, list) and node and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) for v in node):
            leaves[path] = node
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}[{i}]")
        else:
            leaves[path] = [node]

    walk(json.loads(blob), "")
    return leaves


def change(new: list, old: list) -> str | None:
    """max |new - old| over max |old| of one column, ``moved`` if not numeric, or None."""
    if new == old:
        return None
    try:
        a, b = (np.array([complex(str(v).replace(" ", "")) for v in x]) for x in (new, old))
    except ValueError:
        return "moved"
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return "moved"
    live = ~np.isnan(b)
    diff = np.max(np.abs(a[live] - b[live]), initial=0.0)
    top = np.max(np.abs(b[live]), initial=0.0)
    return f"{diff / top:.1e}" if top > 0 else f"{diff:.1e} (absolute)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="the tree to compare against")
    args = parser.parse_args(argv)
    runs = golden_runs()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            new, old = (run_tree(tree.resolve(), Path(tmp) / side, runs)
                        for tree, side in ((ROOT, "this"), (args.parent, "parent")))
        except subprocess.CalledProcessError:
            return 1  # the child printed what failed
    for key in sorted(new.keys() | old.keys()):
        if key not in new or key not in old:
            print(f"{key}: only in {'this tree' if key in new else 'PARENT_TREE'}")
        elif new[key] != old[key]:
            cols_new, cols_old = columns(key, new[key]), columns(key, old[key])
            print(f"{key}:")
            for name in [*cols_old, *(n for n in cols_new if n not in cols_old)]:
                if name not in cols_new or name not in cols_old:
                    moved = f"only in {'this tree' if name in cols_new else 'PARENT_TREE'}"
                else:
                    moved = change(cols_new[name], cols_old[name])
                if moved:
                    print(f"  {name}: {moved}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
