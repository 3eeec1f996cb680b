import itertools
import json
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hybridmech import cli
from hybridmech.cli import (
    HBAR,
    KB,
    KINDS,
    MEMORY_CAP,
    _TOP,
    ConfigError,
    bose_occupation,
    config_from_dict,
    load_config,
    main,
    write_csv,
)
from hybridmech.lindblad import decompose, eigenpairs
from hybridmech.trajectory import _RECORDED, _batch_run, derive_trajectory_seed, run_ensemble


def base_config(**overrides):
    doc = {
        "kind": "semiclassical",
        "units": "gamma",
        "params": {"gamma": 1.0, "g": 1.0, "Omega": 0.01, "g_m": 0.02},
        "initial": {"beta0": [0.0, 10.0]},
        "duration_periods": 2,
        "trajectories": 8,
        "seed": 7,
        "engine": {"steps_per_window": 256, "record_stride": 32},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_minimal_config_fills_defaults(tmp_path):
    path = write_config(
        tmp_path, {"params": {"g": 1.0, "Omega": 0.01, "g_m": 0.02}}
    )
    config = load_config(path)
    assert config.kind == "semiclassical"
    assert config.params.gamma == 1.0
    assert config.params.n_m == 0.0
    assert config.seed == 0


def test_gamma_normalisation_in_absolute_units(tmp_path):
    doc = base_config(
        units="hz",
        params={"gamma": 4e6, "g": 4e6, "Omega": 4e4, "g_m": 8e4},
    )
    config = load_config(write_config(tmp_path, doc))
    assert config.params.gamma == 1.0
    assert config.params.g == 1.0
    assert config.params.Omega == 0.01
    assert config.params.g_m == 0.02


def test_temperature_conversion_matches_high_t_limit(tmp_path):
    doc = base_config(
        units="hz",
        params={
            "gamma": 7e6,
            "g": 7e6,
            "Omega": 1e6,
            "g_m": 1e5,
            "T_m": 300.0,
        },
    )
    # the caption parameters sit slightly outside the adiabatic window
    with pytest.warns(UserWarning, match="adiabatic"):
        config = load_config(write_config(tmp_path, doc))
    omega_abs = 2 * math.pi * 1e6
    classical = KB * 300.0 / (HBAR * omega_abs)
    assert classical == pytest.approx(6.25e6, rel=0.01)
    assert config.params.n_m == pytest.approx(classical, rel=1e-3)


def test_bose_occupation_low_temperature():
    omega = 2 * math.pi * 1e6
    assert bose_occupation(omega, 0.0) == 0.0
    n = bose_occupation(omega, 1e-6)
    assert n < 1e-10


def test_missing_field_is_named(tmp_path):
    doc = base_config(params={"g": 1.0, "g_m": 0.02})
    with pytest.raises(ConfigError, match="Omega"):
        load_config(write_config(tmp_path, doc))


def test_occupation_temperature_conflict(tmp_path):
    doc = base_config(
        units="hz",
        params={"gamma": 1e6, "g": 1e6, "Omega": 1e5, "g_m": 1e4,
                "n_m": 2.0, "T_m": 4.0},
    )
    with pytest.raises(ConfigError, match="T_m"):
        load_config(write_config(tmp_path, doc))


def test_temperature_requires_absolute_units(tmp_path):
    doc = base_config(params={"g": 1.0, "Omega": 0.01, "g_m": 0.02, "T_m": 4.0})
    with pytest.raises(ConfigError, match="absolute"):
        load_config(write_config(tmp_path, doc))


def test_unknown_kind_and_field(tmp_path):
    with pytest.raises(ConfigError, match="kind"):
        load_config(write_config(tmp_path, base_config(kind="wat")))
    doc = base_config(params={"g": 1.0, "Omega": 0.01, "g_m": 0.02, "bogus": 1})
    with pytest.raises(ConfigError, match="bogus"):
        load_config(write_config(tmp_path, doc))


def test_semiclassical_run_schema_and_determinism(tmp_path):
    path = write_config(tmp_path, base_config())
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["--config", str(path), "--out", str(out1)]) == 0
    assert main(["--config", str(path), "--out", str(out2)]) == 0
    data1 = (out1 / "semiclassical.csv").read_bytes()
    data2 = (out2 / "semiclassical.csv").read_bytes()
    assert data1 == data2
    header, *rows = data1.decode().splitlines()
    assert header == "t,re_beta,im_beta,pe,delta_m"
    # the engine records no delta_m: the CSV forms it as 2 g_m Re beta, bit for bit
    g_m = load_config(path).params.g_m
    for row in rows:
        t, re_beta, im_beta, pe, delta_m = row.split(",")
        assert delta_m == repr(2.0 * g_m * float(re_beta))
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["outputs"] == ["semiclassical.csv"]


def test_rerun_from_manifest_is_byte_identical(tmp_path):
    path = write_config(tmp_path, base_config(kind="ensemble", trajectories=6))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["--config", str(path), "--out", str(out1)]) == 0
    assert (
        main(["--config", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
    )
    for name in ("ensemble.csv", "histogram_000.csv", "histogram_002.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_records_the_machine(tmp_path):
    path = write_config(tmp_path, base_config(kind="ensemble", trajectories=6))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 0
    diagnostics = json.loads((tmp_path / "out" / "manifest.json").read_text())[
        "diagnostics"
    ]
    assert set(diagnostics) == {"numpy", "nproc"}
    assert diagnostics["numpy"] == np.__version__
    assert isinstance(diagnostics["nproc"], int) and diagnostics["nproc"] >= 1


def test_ensemble_schema_and_histogram_mass(tmp_path):
    path = write_config(tmp_path, base_config(kind="ensemble", trajectories=10))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out)]) == 0
    lines = (out / "ensemble.csv").read_text().splitlines()
    assert lines[0] == (
        "t,mean_re_beta,mean_im_beta,var_dbeta_x,var_dbeta_p,"
        "lambda_plus,lambda_minus,theta,pe_mean"
    )
    hist = (out / "histogram_000.csv").read_text().splitlines()
    assert hist[0] == "bin_lo,bin_hi,count"
    mass = sum(int(line.split(",")[2]) for line in hist[1:])
    assert mass == 10


def test_unit_round_trip_outputs_identical(tmp_path):
    doc_gamma = base_config()
    doc_abs = base_config(
        units="hz",
        params={"gamma": 4e6, "g": 4e6, "Omega": 4e4, "g_m": 8e4},
    )
    out1 = tmp_path / "g"
    out2 = tmp_path / "abs"
    assert main(["--config", str(write_config(tmp_path, doc_gamma, "a.json")),
                 "--out", str(out1)]) == 0
    assert main(["--config", str(write_config(tmp_path, doc_abs, "b.json")),
                 "--out", str(out2)]) == 0
    assert (out1 / "semiclassical.csv").read_bytes() == (
        out2 / "semiclassical.csv"
    ).read_bytes()


def test_spectra_sweep_double_peak_at_strong_drive(tmp_path):
    doc = base_config(
        kind="spectra",
        params={"gamma": 1.0, "g": 10.0, "Omega": 0.001, "g_m": 0.001},
        sweep={"delta_min": -20.0, "delta_max": 20.0, "points": 401},
    )
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    rows = [
        line.split(",")
        for line in (out / "spectra.csv").read_text().splitlines()[1:]
    ]
    deltas = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    peak = deltas[np.argmax(values)]
    # strong drive pushes the maxima away from resonance
    assert abs(peak) > 2.0
    assert values[np.argmin(np.abs(deltas))] < values.max()
    # symmetric double peak: the mirrored detuning is a maximum too
    mirrored = values[np.argmin(np.abs(deltas + peak))]
    assert mirrored == pytest.approx(values.max(), rel=1e-12)


def test_phase_diagram_partitions_plane(tmp_path):
    doc = base_config(
        kind="phase-diagram",
        grid={"n_m_min": 1e-2, "n_m_max": 1e4, "ratio_min": 1e-3,
              "ratio_max": 1e3, "points": 12},
    )
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    lines = (out / "phase_diagram.csv").read_text().splitlines()
    assert lines[0] == "n_m,gamma_ratio,label"
    labels = {line.split(",")[2] for line in lines[1:]}
    assert labels == {"tls_induced", "effective_thermal", "thermal"}
    assert len(lines) - 1 == 12 * 12


def test_validate_kind_passes(tmp_path):
    doc = base_config(kind="validate", seed=3)
    out = tmp_path / "out"
    assert main(["--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 0
    payload = json.loads((out / "validation.json").read_text())
    assert payload["passed"] is True
    assert len(payload["checks"]) == 4


def eigenpairs_detail_by_loop(seed):
    """The eigenpairs_vs_eigh detail from one decompose call and one eigvalsh per
    sample, each sample's five rng.uniform calls drawn in turn."""
    rng = np.random.default_rng(seed + 1)
    worst, min_lam = 0.0, math.inf
    for _ in range(1000):
        s0 = 10.0 ** rng.uniform(-3, 3)
        s2 = s0 * rng.uniform(0, 1) * np.exp(2j * math.pi * rng.uniform())
        Gamma, n_m = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-2, 3)
        h11, h22 = Gamma * (n_m + 1) + s0, Gamma * n_m + s0
        dec = decompose(Gamma, n_m, s0, s2)
        ref = np.linalg.eigvalsh(np.array([[h11, s2], [np.conj(s2), h22]]))
        scale = max(h11, 1.0)
        worst = max(worst, abs(dec.lambda_plus - ref[1]) / scale,
                    abs(dec.lambda_minus - ref[0]) / scale)
        min_lam = min(min_lam, dec.lambda_minus)
    return f"max scaled diff {worst:.3e}, min lambda_minus {min_lam:.3e}"


@pytest.mark.parametrize("seed", [4, 15])
def test_validate_eigenpairs_check_matches_a_loop(tmp_path, seed):
    # validate draws its 1000 samples in one array and diagonalises them in one
    # vectorised pass; the loop's samples and results are the same doubles.  At
    # these seeds, on an AVX-512 CPU, numpy's ** in place of float_power changes
    # the detail
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(kind="validate", seed=seed))
    assert main(["--config", str(path), "--out", str(out)]) == 0
    checks = json.loads((out / "validation.json").read_text())["checks"]
    detail = {c["name"]: c["detail"] for c in checks}["eigenpairs_vs_eigh"]
    assert detail == eigenpairs_detail_by_loop(seed)


def test_validate_failure_exits_4_and_records_the_check(tmp_path, capsys, monkeypatch):
    # lambda_plus off by a relative 1e-9 fails eigenpairs_vs_eigh's 1e-12 bound
    def shifted(*args):
        lam_p, *rest = eigenpairs(*args)
        return (lam_p * (1.0 + 1e-9), *rest)

    monkeypatch.setattr(cli, "eigenpairs", shifted)
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(kind="validate", seed=3))
    assert main(["--config", str(path), "--out", str(out)]) == 4
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert error == {"code": 4, "kind": "validation", "message": "eigenpairs_vs_eigh"}
    payload = json.loads((out / "validation.json").read_text())
    assert payload["passed"] is False
    assert [c["name"] for c in payload["checks"] if not c["passed"]] == ["eigenpairs_vs_eigh"]


def test_config_that_is_not_an_object_names_config(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    assert main(["--config", str(path)]) == 2
    error = json.loads(capsys.readouterr().err.strip())["error"]
    assert error["message"] == "config: top-level document must be an object"


def test_cli_overrides_and_exit_codes(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["--config", str(missing)]) == 2
    err = capsys.readouterr().err
    payload = json.loads(err.strip())
    assert payload["error"]["code"] == 2

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["--config", str(bad)]) == 2

    path = write_config(tmp_path, base_config(kind="ensemble", trajectories=4))
    out = tmp_path / "out"
    assert main(
        ["--config", str(path), "--out", str(out), "--trajectories", "5",
         "--seed", "99"]
    ) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99
    assert manifest["config"]["trajectories"] == 5


def test_runtime_failure_exit_code(tmp_path, capsys):
    # the load cannot see the kernels' rates, so this step fails at run time
    path = write_config(tmp_path, stiff_kernel_config())
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"]["code"] == 3


def test_worker_override_changes_nothing(tmp_path):
    path = write_config(tmp_path, base_config(kind="ensemble", trajectories=9))
    out1 = tmp_path / "w1"
    out3 = tmp_path / "w3"
    assert main(["--config", str(path), "--out", str(out1), "--workers", "1"]) == 0
    assert main(["--config", str(path), "--out", str(out3), "--workers", "3"]) == 0
    assert (out1 / "ensemble.csv").read_bytes() == (out3 / "ensemble.csv").read_bytes()


def criterion8_config(**param_overrides):
    params = {"gamma": 1.0, "g": 1.0, "delta0": 0.0, "Omega": 1e-2, "g_m": 5e-3,
              "Gamma": 1e-3, "n_m": 1000.0}
    params.update(param_overrides)
    return base_config(
        kind="ensemble", params=params, initial={"beta0": [0.0, 200.0]},
        duration_periods=1, trajectories=8,
        engine={"steps_per_window": 256, "record_stride": 32},
    )


def test_lambda_plus_step_rejected_at_load(tmp_path, capsys):
    # dt * Gamma (n_m + 1) = 2.46 bounds dt * lambda_plus from below
    path = write_config(tmp_path, criterion8_config())
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert "engine.steps_per_window" in payload["error"]["message"]
    # a kind override is validated as well
    path = write_config(tmp_path, {**criterion8_config(), "kind": "semiclassical"})
    assert main(["--config", str(path), "--out", str(tmp_path / "sc"),
                 "--kind", "ensemble"]) == 2


def stiff_kernel_config():
    # dt * Gamma (n_m + 1) sits just below the bound and the emitter's s0
    # pushes dt * lambda_plus over it
    dt = 2.0 * math.pi / 1e-2 / 256
    doc = criterion8_config(Gamma=(0.1 - 1e-5) / (1001.0 * dt))
    doc["initial"] = {"beta0": [0.0, 0.0]}
    return doc


def test_lambda_plus_step_checked_every_window(tmp_path, capsys):
    # the run names the step, no trajectory aborts
    path = write_config(tmp_path, stiff_kernel_config())
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
    message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
    assert "dt*lambda_plus" in message
    assert "aborted" not in message


@pytest.mark.filterwarnings("ignore:parameters leave the adiabatic regime")
@pytest.mark.parametrize(
    "kind, params, step, hint",
    [
        # dt * g_m = 7.36 at 256 steps per period: both kinds used to pass the
        # load and exit 3 from their first window; the hint is the smallest
        # passing count, 2 pi / 0.01 * 3 / 0.1 rounded up
        ("semiclassical", {"g_m": 3}, "dt*g_m = 7.36", "18850"),
        ("ensemble", {"g_m": 3}, "dt*g_m = 7.36", "18850"),
        # Gamma (n_m + 1) overflows: the load used to raise OverflowError
        ("ensemble", {"g_m": 0.005, "Gamma": 1e200, "n_m": 1e200},
         "dt*lambda_plus = inf", "inf"),
        # the noise-free reference damps at Gamma; it used to run undamped
        ("semiclassical", {"g_m": 0.005, "Gamma": 0.1}, "dt*lambda_plus = 0.245", "629"),
    ],
    ids=["semiclassical-g_m", "ensemble-g_m", "ensemble-overflow", "semiclassical-Gamma"],
)
def test_step_rule_rejected_at_load(tmp_path, capsys, kind, params, step, hint):
    path = write_config(tmp_path, {"kind": kind,
                                   "params": {"g": 1, "Omega": 0.01, **params}})
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    message = json.loads(capsys.readouterr().err.strip())["error"]["message"]
    assert message.startswith(f"engine.steps_per_window: {step} too large")
    assert message.endswith(f"steps_per_window >= {hint}")


def test_runtime_message_names_a_bare_exception(tmp_path, capsys, monkeypatch):
    # str(MemoryError()) is empty, and so was the reported message
    def run_out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr("hybridmech.cli.semiclassical_run", run_out_of_memory)
    path = write_config(tmp_path, base_config())
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 3
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"]["message"] == "MemoryError"


def test_write_csv_refuses_ragged_columns(tmp_path):
    # zip used to stop at the shortest column and drop the other rows
    path = tmp_path / "table.csv"
    assert write_csv(path, {"a": [1, 2], "b": [0.5, 1.5]}) == "table.csv"
    assert path.read_text() == "a,b\n1,0.5\n2,1.5\n"
    with pytest.raises(ValueError):
        write_csv(path, {"a": [1, 2], "b": [0.5]})


def test_write_csv_formats_each_column_type(tmp_path):
    # floats as repr of the float (shortest round trip, -0.0 and subnormals
    # kept), int64 counts as integers (2**53 + 1 is not a float), labels as is
    path = tmp_path / "mixed.csv"
    write_csv(path, {
        "x": np.array([0.1 + 0.2, -0.0, 1e-300, 5e-324]),
        "count": np.array([3, 0, -7, 2**53 + 1], dtype=np.int64),
        "label": ["tls_induced", "thermal", "a b", ""],
    })
    assert path.read_text() == (
        "x,count,label\n"
        "0.30000000000000004,3,tls_induced\n"
        "-0.0,0,thermal\n"
        "1e-300,-7,a b\n"
        "5e-324,9007199254740993,\n"
    )


def test_nonzero_emitter_occupation_rejected_at_load(tmp_path, capsys):
    # 10 mK at 5 GHz gives n_q = 3.8e-11, still outside the zero-temperature
    # spectrum that the ensemble and spectra runs evaluate, and outside the
    # closed-form population of a semiclassical run without full_bloch
    params = {"gamma": 1e6, "g": 1e6, "Omega": 1e4, "g_m": 5e3,
              "T_q": 0.01, "omega0": 5e9}
    for kind in ("ensemble", "spectra", "semiclassical"):
        path = write_config(tmp_path, base_config(kind=kind, units="hz", params=params))
        assert main(["--config", str(path), "--out", str(tmp_path / kind)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert "params.T_q" in payload["error"]["message"]
    for kind in ("spectra", "semiclassical"):
        with pytest.raises(ConfigError, match="params.n_q"):
            load_config(write_config(tmp_path, base_config(
                kind=kind, params={"g": 1.0, "Omega": 0.01, "g_m": 0.02, "n_q": 0.1})))
    # with full_bloch the semiclassical run steps the Bloch equations at any
    # n_q, and n_q = 0.5 moves the population away from the n_q = 0 run
    config = load_config(write_config(tmp_path, base_config(
        units="hz", params=params, engine={"full_bloch": True})))
    assert config.params.n_q == pytest.approx(3.8e-11, rel=0.01)
    csvs = []
    for n_q in (0.0, 0.5):
        doc = base_config(params={"g": 1.0, "Omega": 0.01, "g_m": 0.005, "n_q": n_q})
        out = tmp_path / f"bloch{n_q}"
        path = write_config(tmp_path, doc)
        assert main(["--config", str(path), "--out", str(out), "--full-bloch"]) == 0
        csvs.append((out / "semiclassical.csv").read_bytes())
    assert csvs[0] != csvs[1]


def test_bad_engine_grid_rejected_at_load(tmp_path, capsys):
    # both used to pass the load and exit 3 from the engine, naming no field
    cases = [
        ("ensemble", {"steps_per_window": 32, "record_stride": 32},
         "engine.steps_per_window"),
        ("semiclassical", {"steps_per_window": 256, "record_stride": 3},
         "engine.record_stride"),
    ]
    for kind, engine, field_name in cases:
        path = write_config(tmp_path, base_config(kind=kind, engine=engine))
        assert main(["--config", str(path), "--out", str(tmp_path / kind)]) == 2
        payload = json.loads(capsys.readouterr().err.strip())
        assert payload["error"]["code"] == 2
        assert payload["error"]["message"].startswith(field_name)


@pytest.mark.parametrize(
    "keys, value, field_name",
    [
        (("params", "Omega"), 0, "params.Omega"),
        (("params", "g"), -1, "params.g"),
        (("trajectories",), "abc", "trajectories"),
        (("params", "g"), "x", "params.g"),
        (("engine", "steps_per_window"), "many", "engine.steps_per_window"),
        (("initial", "beta0"), ["a", 1], "initial.beta0"),
        (("initial", "beta0"), [1, 2, 3], "initial.beta0"),
        (("duration_periods",), None, "duration_periods"),
        (("engine", "histogram_bins"), 0, "engine.histogram_bins"),
        (("params", "g"), math.nan, "params.g"),
        (("duration_periods",), math.nan, "duration_periods"),
        (("params", "g_m"), math.inf, "params.g_m"),
        (("initial", "beta0"), math.nan, "initial.beta0"),
        (("engine", "histogram_periods"), [0.5, -math.inf], "engine.histogram_periods"),
        (("engine",), [1], "engine"),
        (("initial",), "x", "initial"),
        (("output",), 3, "output"),
        (("sweep",), 5, "sweep"),
        (("grid",), 5, "grid"),
        (("engine", "histogram_periods"), 5, "engine.histogram_periods"),
        (("engine", "full_bloch"), "false", "engine.full_bloch"),
        (("engine", "full_bloch"), 1, "engine.full_bloch"),
        (("engine", "steps_per_windw"), 512, "engine.steps_per_windw"),
        (("trajectorys",), 512, "trajectorys"),
        (("initial", "beta"), 1.0, "initial.beta"),
        (("sweep",), {"point": 5}, "sweep.point"),
        (("output",), {"dri": "x"}, "output.dri"),
        (("grid",), {"ratio_max": -1}, "grid.ratio_max"),
        (("grid",), {"n_m_max": 0}, "grid.n_m_max"),
        (("sweep",), {"points": 1}, "sweep.points"),
        (("sweep",), {"delta_max": -30}, "sweep.delta_max"),
        (("trajectories",), 2.9, "trajectories"),
        (("trajectories",), True, "trajectories"),
        (("engine", "steps_per_window"), "256", "engine.steps_per_window"),
        (("grid",), {"points": 2.7}, "grid.points"),
        (("output",), {"dir": None}, "output.dir"),
        (("seed",), -3, "seed"),
        (("engine", "histogram_periods"), [50, -3], "engine.histogram_periods"),
        (("duration_periods",), 2.5, "duration_periods"),
        (("trajectories",), 1e300, "trajectories"),
        (("seed",), 1e300, "seed"),
        (("engine", "steps_per_window"), 1e300, "engine.steps_per_window"),
        (("seed",), 2**63, "seed"),
        (("params", "Omega"), 1e308, "params.Omega"),
        (("duration_periods",), 6.75e15, "duration_periods"),
        (("trajectories",), 10**9, "trajectories"),
        (("engine", "steps_per_window"), 2**40, "engine.steps_per_window"),
        (("spectra", "sweep"), {"points": 1e15}, "sweep.points"),
        (("phase-diagram", "grid"), {"points": 10**8}, "grid.points"),
        (("engine", "histogram_bins"), 4 * 10**12, "engine.histogram_bins"),
    ],
    ids=["Omega-zero", "g-negative", "trajectories-text", "g-text", "steps-text",
         "beta0-text", "beta0-triple", "duration-null", "bins-zero", "g-nan", "duration-nan",
         "g_m-inf", "beta0-nan", "periods-inf", "engine-list", "initial-text",
         "output-number", "sweep-number", "grid-number", "periods-number",
         "full_bloch-text", "full_bloch-number", "engine-typo", "top-level-typo",
         "initial-typo", "sweep-typo", "output-typo", "ratio_max-negative",
         "n_m_max-zero", "sweep-points-one", "sweep-reversed", "trajectories-fraction",
         "trajectories-bool", "steps-numeric-text", "grid-points-fraction",
         "output-dir-null", "seed-negative", "periods-outside", "duration-fraction",
         "trajectories-huge", "seed-huge", "steps-huge", "seed-2**63",
         "Omega-huge", "duration-memory", "trajectories-memory", "steps-memory",
         "sweep-memory", "grid-memory", "bins-memory"],
)
def test_bad_config_value_names_field(tmp_path, capsys, keys, value, field_name):
    # each used to escape as a traceback (exit 1), to fail with a misleading
    # message after the run started (exit 3) or, for a NaN or infinite
    # number, an unknown key, a loose value or a section the kind does not
    # run, to pass the load; keys that start with a kind run that kind, whose
    # sweep or grid above MEMORY_CAP used to fail on a PiB allocation (exit 3),
    # as histograms above it did after the whole ensemble had run
    kind, keys = (keys[0], keys[1:]) if keys[0] in KINDS else ("ensemble", keys)
    doc = base_config(kind=kind)
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = write_config(tmp_path, doc)
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"]["code"] == 2
    assert payload["error"]["message"].startswith(field_name + ":")


@pytest.mark.parametrize(
    "params, grid, field_name",
    [
        ({"g": 1, "Omega": 0.01, "g_m": 1e10}, {"ratio_max": 1e300, "points": 3},
         "grid.ratio_max"),
        ({"g": 1, "Omega": 0.01, "g_m": 0.0}, {"ratio_max": 1.7976931348623157e308},
         "grid.ratio_max"),
        ({"g": 1, "Omega": 0.01, "g_m": 0.005}, {"n_m_max": 1.7976931348623157e308},
         "grid.n_m_max"),
    ],
    ids=["damping-overflows", "ratio-overflows-at-g_m-0", "n_m-overflows"],
)
@pytest.mark.filterwarnings("ignore::UserWarning")
def test_phase_diagram_grid_overflow_refused_at_load(tmp_path, capsys, params, grid,
                                                     field_name):
    # each passed the load and exited 3 midway: the grid's largest damping
    # ratio_max g_m**2 / gamma (1e320), the largest ratio itself, whose
    # log-spaced end rounds to inf (inf * 0 is NaN), and the largest n_m
    path = write_config(tmp_path, {"kind": "phase-diagram", "params": params, "grid": grid})
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"]["message"].startswith(field_name + ":")


def test_memory_cap_is_exact_at_load():
    # at 256 steps per window and stride 32, a lane streams its records
    # through a 9-column block (648 bytes) and holds 8,192 bytes of window
    # noise buffers, so 2**21 lanes fill MEMORY_CAP exactly and one more is
    # refused at load; the 2**63-step rule lets 6.75e15 periods through,
    # whose records used to fail the run on a 767 PiB allocation (exit 3)
    assert MEMORY_CAP == 16 * 2**30
    config_from_dict(base_config(kind="ensemble", trajectories=2**21))
    with pytest.raises(ConfigError, match="^trajectories: the run's window noise buffers"):
        config_from_dict(base_config(kind="ensemble", trajectories=2**21 + 1))
    # one lane: the semiclassical kind runs a single reference lane
    config_from_dict(base_config(kind="semiclassical", trajectories=2**40))
    with pytest.raises(ConfigError, match="^duration_periods: the run's records"):
        config_from_dict(base_config(kind="semiclassical", duration_periods=6.75e15))
    # a sweep holds 32 bytes a point, and a grid points**2 points
    config_from_dict(base_config(kind="spectra", sweep={"points": 2**29}))
    with pytest.raises(ConfigError, match="^sweep.points: the run's sweep"):
        config_from_dict(base_config(kind="spectra", sweep={"points": 2**29 + 1}))
    config_from_dict(base_config(kind="phase-diagram", grid={"points": 23170}))
    with pytest.raises(ConfigError, match="^grid.points: the run's grid"):
        config_from_dict(base_config(kind="phase-diagram", grid={"points": 23171}))


def test_memory_cap_counts_the_records_a_batch_allocates():
    # an ensemble's lanes stream their records a window's block at a time: at
    # stride 1 a lane's block of 257 columns, 18,504 bytes, is more than its
    # 8,192 bytes of window noise buffers, so the blocks decide the cap.  A
    # streamed batch allocates exactly that per lane, and 2 columns at one
    # record a window; the ensemble's result and its reference keep 72 + 128
    # bytes a record whole.  Streamed or whole, a batch records every quantity
    # of _RECORDED and no other
    engine = {"steps_per_window": 256, "record_stride": 1}
    column = sum(np.dtype(t).itemsize for t in _RECORDED.values())
    per_lane = 257 * column
    config = config_from_dict(base_config(kind="ensemble", engine=engine,
                                          trajectories=MEMORY_CAP // per_lane))
    with pytest.raises(ConfigError, match="^trajectories: the run's record blocks"):
        config_from_dict(base_config(kind="ensemble", engine=engine,
                                     trajectories=MEMORY_CAP // per_lane + 1))
    duration = 2 * config.params.mechanical_period
    seeds = [derive_trajectory_seed(7, i) for i in range(3)]

    recorded = set(_RECORDED) | {"times", "abort_time"}

    def block_bytes(options):
        blocks = []
        batch = _batch_run(config.params, config.beta0, 0.0, 0.0, duration, seeds,
                           options, lambda lo, hi, block: blocks.append(set(block)))
        assert blocks and all(block == set(_RECORDED) for block in blocks)
        assert set(batch) == recorded
        return sum(batch[name].nbytes for name in _RECORDED)

    assert block_bytes(config.options()) == 3 * per_lane
    assert block_bytes(replace(config.options(), record_stride=256)) == 3 * 2 * column
    rows = _batch_run(config.params, config.beta0, 0.0, 0.0, duration, seeds, config.options())
    assert set(rows) == recorded
    res = run_ensemble(config.params, config.beta0, duration, 3, 7, config.options())
    whole = [*vars(res).values(), *vars(res.reference).values()]
    assert sum(x.nbytes for x in whole if isinstance(x, np.ndarray)) == 513 * (72 + 128)


@pytest.mark.parametrize(
    "params, field_name",
    [
        ({"Omega": 0.0, "T_m": 4.0}, "params.Omega"),
        ({"T_q": 0.01, "omega0": 0.0}, "params.omega0"),
        ({"T_q": 0.01}, "params.omega0"),
    ],
    ids=["Omega-zero-T_m", "omega0-zero-T_q", "omega0-missing-T_q"],
)
def test_temperature_with_zero_frequency_names_field(
    tmp_path, capsys, params, field_name
):
    # the Bose law divided by expm1(0) before the frequency was checked (exit 1)
    doc = base_config(units="hz", params={
        "gamma": 1e6, "g": 1e6, "Omega": 1e4, "g_m": 1e3, **params})
    path = write_config(tmp_path, doc)
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"]["message"].startswith(field_name + ":")


@pytest.mark.parametrize(
    "kind, section, key, field_name",
    [
        ("spectra", "sweep", "delta_min", "sweep.delta_min"),
        ("phase-diagram", "grid", "n_m_max", "grid.n_m_max"),
    ],
)
def test_sweep_and_grid_numbers_must_be_finite(
    tmp_path, capsys, kind, section, key, field_name
):
    # a NaN bound used to give NaN rows and exit 0
    doc = base_config(kind=kind, **{section: {key: math.nan, "points": 5}})
    path = write_config(tmp_path, doc)
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"]["message"].startswith(field_name + ":")


@pytest.mark.parametrize(
    "params, field_name",
    [
        ({"gamma": 1e300}, "params.gamma"),
        ({"g": 1e-300}, "params.g"),
        ({"gamma": 1e-300}, "params.gamma"),
        ({"delta0": 1e300}, "params.delta0"),
    ],
    ids=["gamma-huge", "g-tiny", "gamma-tiny", "delta0-huge"],
)
def test_extreme_emitter_rates_name_field(tmp_path, capsys, params, field_name):
    # finite but extreme: (gamma / g)**2 in the closed-form population or
    # g_m**2 in the spectrum overflowed (exit 3), and a huge delta0 gave NaN
    # kernels and "4/4 trajectories aborted"
    doc = {"kind": "ensemble", "trajectories": 4, "duration_periods": 1,
           "params": {"g": 1, "Omega": 0.01, "g_m": 0.005, **params}}
    path = write_config(tmp_path, doc)
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"]["message"].startswith(field_name + ":")


def test_every_key_rejects_text_true_and_null():
    # the text of each key's default, true and null are rejected at load and
    # named, except where they are of the key's own type; temperatures and
    # omega0 (read even without T_q) appear only in configs in absolute units
    hz = {"gamma": 1e6, "g": 1e6, "Omega": 1e4, "g_m": 1e3, "omega0": 5e9}
    for valid in (config_from_dict(base_config()).normalized,
                  base_config(units="hz", params={**hz, "T_m": 4.0}),
                  base_config(units="hz", params={**hz, "T_q": 0.01})):
        paths = [(key,) for key in ("duration_periods", "trajectories", "seed")] + [
            (name, key) for name, section in valid.items() if isinstance(section, dict)
            for key in section
        ]
        for path in paths:
            default = valid[path[0]] if len(path) == 1 else valid[path[0]][path[1]]
            for bad in (str(default), True, None):
                if type(bad) is not type(default):
                    doc = json.loads(json.dumps(valid))
                    (doc if len(path) == 1 else doc[path[0]])[path[-1]] = bad
                    with pytest.raises(ConfigError) as caught:
                        config_from_dict(doc)
                    assert caught.value.field == ".".join(path), (path, bad)


def test_readme_schema_names_exactly_the_config_keys():
    # cli._TOP is the one schema table; the README block is its documentation
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("### Config schema")[1].split("```jsonc")[1].split("```")[0]
    known = set(_TOP)
    for read, _ in _TOP.values():
        known.update(getattr(read, "keywords", {}).get("table", ()))
    assert set(re.findall(r'"(\w+)":', block)) <= known
    assert sorted(key for key in known if f'"{key}"' not in block) == []


# one tiny valid config per kind that runs
FUZZ_PARAMS = {"g": 1.0, "Omega": 0.01, "g_m": 0.005, "Gamma": 1e-4, "n_m": 1.0}
FUZZ_ENGINE = {"steps_per_window": 64, "record_stride": 16}
FUZZ_CONFIGS = {
    "ensemble": {"kind": "ensemble", "params": FUZZ_PARAMS,
                 "initial": {"beta0": [0.0, 10.0]}, "duration_periods": 1,
                 "trajectories": 2, "seed": 3,
                 "engine": {**FUZZ_ENGINE, "histogram_bins": 5}},
    "semiclassical": {"kind": "semiclassical", "params": FUZZ_PARAMS,
                      "initial": {"beta0": [0.0, 10.0]}, "duration_periods": 1,
                      "engine": FUZZ_ENGINE},
    "spectra": {"kind": "spectra", "params": FUZZ_PARAMS,
                "sweep": {"delta_min": -2.0, "delta_max": 2.0, "points": 5}},
    "phase-diagram": {"kind": "phase-diagram", "params": FUZZ_PARAMS,
                      "grid": {"n_m_min": 0.1, "n_m_max": 10.0, "ratio_min": 0.1,
                               "ratio_max": 10.0, "points": 3}},
    "validate": {"kind": "validate", "params": {"g": 1.0, "Omega": 0.01, "g_m": 0.005}},
    "semiclassical_hz": {"kind": "semiclassical", "units": "hz",
                         "params": {"gamma": 4e6, "g": 4e6, "Omega": 4e4, "g_m": 2e4,
                                    "Gamma": 40.0, "T_m": 0.01, "T_q": 0.01,
                                    "omega0": 5e9},
                         "initial": {"beta0": [0.0, 10.0]}, "duration_periods": 1,
                         "engine": {**FUZZ_ENGINE, "full_bloch": True}},
}
FUZZ_VALUES = [0, -1, math.nan, 0.5, 1e300, 1e-300]


def numeric_fields(doc, path=()):
    """The path of every number in ``doc``, the two parts of beta0 included."""
    items = enumerate(doc) if isinstance(doc, list) else doc.items()
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from numeric_fields(value, path + (key,))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield path + (key,)


def with_value(doc, path, value):
    doc = json.loads(json.dumps(doc))
    holder = doc
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = value
    return doc


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("kind", list(FUZZ_CONFIGS))
def test_config_fuzz_exits_0_or_2(tmp_path, capsys, kind):
    # each number of a valid config set in turn to 0, -1, NaN, 0.5, 1e300 and
    # 1e-300: a run either writes its outputs or is refused at load, never
    # failing midway; an ensemble used to exit 3 at duration_periods 1e300 and
    # at a beta0 of [0, 1e20], [0, 1e160] or 1e300, sweep.delta_max 1e300
    # overflowed the spectrum, validate divided by the spectrum, which
    # vanishes at g_m 0, and the Bose law overflowed or divided by 0 at an
    # extreme temperature or frequency
    base = FUZZ_CONFIGS[kind]
    cases = [with_value(base, path, value)
             for path in numeric_fields(base) for value in FUZZ_VALUES]
    if "initial" in base:
        cases += [with_value(base, ("initial", "beta0"), [0.0, 1e20]),
                  with_value(base, ("initial", "beta0"), [0.0, 1e160])]
    if "trajectories" in base:  # records or window buffers far above MEMORY_CAP
        cases += [with_value(base, ("duration_periods",), 6.75e15),
                  with_value(base, ("trajectories",), 10**9)]
    if "sweep" in base:  # 7.11 PiB of sweep
        cases.append(with_value(base, ("sweep", "points"), 1e15))
    if "grid" in base:  # 71.1 PiB of grid
        cases.append(with_value(base, ("grid", "points"), 10**8))
    failed = []
    for i, doc in enumerate(cases):
        path = write_config(tmp_path, doc)
        code = main(["--config", str(path), "--out", str(tmp_path / f"out{i}")])
        err = capsys.readouterr().err.strip()
        if code == 2:
            assert json.loads(err)["error"]["kind"] == "config", err
        elif code != 0:
            failed.append((code, doc, err))
    assert not failed, failed


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_config_fuzz_two_fields_at_once(tmp_path, capsys):
    # two numbers of one valid config changed together, which the fuzz above
    # never does: finite values small enough for a quick run, NaN, +-inf and
    # huge values; a run writes its outputs (exit 0) or is refused at load
    # with a message that starts with a field's name (exit 2).  Derandomized
    # and without an example database, so one pytest command draws the same
    # cases on every run (hypothesis also draws constants from the source of
    # the modules loaded so far, and caches them under tmp_path here)
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    from hypothesis.configuration import set_hypothesis_home_dir
    value = st.one_of(
        st.floats(min_value=-20.0, max_value=20.0),
        st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300, 1.7e308]),
    )
    runs = itertools.count()

    @hypothesis.settings(derandomize=True, database=None, deadline=None,
                         max_examples=150)
    @hypothesis.given(st.data())
    def check(data):
        base = FUZZ_CONFIGS[data.draw(st.sampled_from(list(FUZZ_CONFIGS)))]
        paths = data.draw(st.lists(st.sampled_from(list(numeric_fields(base))),
                                   min_size=2, max_size=2, unique=True))
        doc = base
        for path in paths:
            doc = with_value(doc, path, data.draw(value))
        i = next(runs)
        code = main(["--config", str(write_config(tmp_path, doc)),
                     "--out", str(tmp_path / f"out{i}")])
        err = capsys.readouterr().err.strip()
        if code == 2:
            assert re.match(r"[\w.\[\]]+: ", json.loads(err)["error"]["message"]), err
        else:
            assert code == 0, (doc, err)

    set_hypothesis_home_dir(tmp_path / "hypothesis")
    try:
        check()
    finally:
        set_hypothesis_home_dir(None)
