"""Golden output digests: the sha256 of what the CLI writes for fixed configs,
recorded per numpy version and machine, so that "the same outputs" means the
same bytes.  A change that alters bytes on purpose rerecords this machine's
entry with

    PYTHONPATH=src python tests/test_golden.py

which first prints each key whose digest moved against the recorded entry
(or is new, or gone), then writes the entry.
"""

import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from hybridmech.cli import main

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
REQUIRED = {"g": 1.0, "Omega": 0.01, "g_m": 0.005}
# run -> config; the long run is criterion 8's CLI config at 12 periods
RUNS = {
    "long_run": {
        "kind": "ensemble",
        "params": {"gamma": 1.0, "g": 1.0, "delta0": 0.0, "Omega": 1e-2, "g_m": 5e-3,
                   "Gamma": 1e-10, "n_m": 100.0},
        "initial": {"beta0": [0.0, 200.0]},
        "duration_periods": 12,
        "trajectories": 200,
        "seed": 314,
        "engine": {"steps_per_window": 256, "record_stride": 4},
    },
    "validate": {"kind": "validate", "params": REQUIRED},
    "semiclassical": {"kind": "semiclassical", "params": REQUIRED},
    "spectra": {"kind": "spectra", "params": REQUIRED},
    "phase_diagram": {"kind": "phase-diagram", "params": REQUIRED},
    # Gamma = n_m = 0 and beta0 = 0 leave theta to roundoff: a change to the
    # step's rounding moves this key by about 1e-8, the others by about 1e-12
    "ensemble": {"kind": "ensemble", "params": REQUIRED, "trajectories": 20,
                 "engine": {"histogram_periods": [1, 5.5, 10]}},
    "semiclassical_hz": {
        "kind": "semiclassical",
        "units": "hz",
        "params": {"gamma": 4e6, "g": 4e6, "Omega": 4e4, "g_m": 2e4, "Gamma": 40.0,
                   "T_m": 0.01},
        "initial": {"beta0": [0.0, 20.0]},
    },
    "ensemble_bloch": {
        "kind": "ensemble",
        "params": {**REQUIRED, "Gamma": 1e-4, "n_m": 1.0},
        "initial": {"beta0": [0.0, 20.0]},
        "duration_periods": 2,
        "trajectories": 20,
        "seed": 7,
        "engine": {"full_bloch": True},
    },
    "semiclassical_bloch": {"kind": "semiclassical", "params": REQUIRED,
                            "duration_periods": 3, "engine": {"full_bloch": True}},
}


def machine_key() -> str:
    return f"numpy {np.__version__} / {platform.machine()}"


def run_all(root: Path) -> dict:
    """Run every config into ``root / run``; each run's output file names."""
    outputs = {}
    for run, doc in RUNS.items():
        config = root / f"{run}.json"
        config.write_text(json.dumps(doc))
        assert main(["--config", str(config), "--out", str(root / run)]) == 0, run
        outputs[run] = json.loads((root / run / "manifest.json").read_text())["outputs"]
    return outputs


def digests(root: Path, outputs: dict) -> dict:
    """The sha256 of each output file and of each manifest's config block."""
    found = {}
    for run, names in outputs.items():
        blobs = {name: (root / run / name).read_bytes() for name in names}
        config = json.loads((root / run / "manifest.json").read_text())["config"]
        blobs["manifest.json:config"] = json.dumps(config, sort_keys=True).encode()
        for name, blob in blobs.items():
            found[f"{run}/{name}"] = hashlib.sha256(blob).hexdigest()
    return found


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    return root, run_all(root)


def test_outputs_match_golden_digests(runs):
    recorded = json.loads(DIGESTS.read_text()).get(machine_key())
    if recorded is None:
        pytest.skip(f"no golden digests recorded for {machine_key()!r}")
    assert digests(*runs) == recorded


def test_manifests_reproduce_outputs(runs):
    root, outputs = runs
    for run, names in outputs.items():
        again = root / "rerun" / run
        assert main(["--config", str(root / run / "manifest.json"),
                     "--out", str(again)]) == 0, run
        for name in names:
            assert (again / name).read_bytes() == (root / run / name).read_bytes(), name


if __name__ == "__main__":
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    old = table.get(machine_key(), {})
    with tempfile.TemporaryDirectory() as tmp:
        table[machine_key()] = new = digests(Path(tmp), run_all(Path(tmp)))
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            state = "new" if key not in old else "gone" if key not in new else "moved"
            print(f"{state}: {key}")
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"recorded {machine_key()!r} in {DIGESTS}")
