"""Golden output digests: the sha256 of what the CLI writes for fixed configs,
recorded per numpy version and machine, so that "the same outputs" means the
same bytes.  A change that alters bytes on purpose rerecords this machine's
entry with

    PYTHONPATH=src python tests/test_golden.py
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
# output file -> config; the long run is criterion 8's CLI config at 12 periods
CASES = {
    "long_run/ensemble.csv": {
        "kind": "ensemble",
        "params": {"gamma": 1.0, "g": 1.0, "delta0": 0.0, "Omega": 1e-2, "g_m": 5e-3,
                   "Gamma": 1e-10, "n_m": 100.0},
        "initial": {"beta0": [0.0, 200.0]},
        "duration_periods": 12,
        "trajectories": 200,
        "seed": 314,
        "engine": {"steps_per_window": 256, "record_stride": 4},
    },
    "validate/validation.json": {"kind": "validate", "params": REQUIRED},
    "semiclassical/semiclassical.csv": {"kind": "semiclassical", "params": REQUIRED},
}


def machine_key() -> str:
    return f"numpy {np.__version__} / {platform.machine()}"


def digests(root: Path) -> dict:
    """Run every case under ``root``; the sha256 of each output file."""
    found = {}
    for name, doc in CASES.items():
        run = root / name.split("/")[0]
        config = root / f"{run.name}.json"
        config.write_text(json.dumps(doc))
        assert main(["--config", str(config), "--out", str(run)]) == 0, name
        found[name] = hashlib.sha256((root / name).read_bytes()).hexdigest()
    return found


def test_outputs_match_golden_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text()).get(machine_key())
    if recorded is None:
        pytest.skip(f"no golden digests recorded for {machine_key()!r}")
    assert digests(tmp_path) == recorded


if __name__ == "__main__":
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        table[machine_key()] = digests(Path(tmp))
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(f"recorded {machine_key()!r} in {DIGESTS}")
