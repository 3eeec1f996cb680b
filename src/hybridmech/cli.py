"""Configuration ingestion, experiment orchestration and data emission.

Experiments are described by a JSON document (or a previously emitted run
manifest, which embeds one).  All rates are normalised internally to units
of the emitter decay rate gamma; absolute units ("hz" or "rad_s") are
required when bath occupations are given as temperatures, which are
converted through the Bose law.  Every run writes CSV data files plus a JSON
manifest sufficient to reproduce the data byte for byte.

Exit codes: 0 success, 2 configuration error, 3 runtime failure,
4 validation-suite failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bloch import PhysParams
from .lindblad import classify_regime, decompose, twisted_decomposition
from .oracle import (
    coherent_density,
    integrate_master,
    kernel_form_rhs,
    lindblad_rhs,
    make_frozen_schedule,
    superoperator,
)
from .spectrum import WINDOW_PANELS, NoiseKernels, spectrum_closed_form, spectrum_qrt
from .trajectory import (
    MAX_RATE_STEP,
    TrajectoryOptions,
    machine_diagnostics,
    run_ensemble,
    semiclassical_run,
)

HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J / K

KINDS = ("semiclassical", "ensemble", "phase-diagram", "spectra", "validate")


class ConfigError(ValueError):
    """Invalid configuration; names the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class ValidationFailure(RuntimeError):
    """The validation suite reported at least one failing check."""


def bose_occupation(omega_abs: float, temperature: float) -> float:
    """Thermal occupation (exp(hbar omega / kB T) - 1)^-1."""
    if temperature <= 0:
        return 0.0
    x = HBAR * omega_abs / (KB * temperature)
    return 1.0 / math.expm1(x)


@dataclass
class ExperimentConfig:
    """Validated, gamma-normalised experiment description."""

    kind: str
    params: PhysParams
    beta0: complex
    duration_periods: float
    trajectories: int
    seed: int
    steps_per_window: int
    record_stride: int
    full_bloch: bool
    workers: int
    histogram_bins: int
    histogram_periods: list[float] | None
    sweep: dict
    grid: dict
    out_dir: str = "."
    normalized: dict = field(default_factory=dict)

    def options(self) -> TrajectoryOptions:
        histogram_times = None
        if self.histogram_periods is not None:
            period = self.params.mechanical_period
            histogram_times = [p * period for p in self.histogram_periods]
        return TrajectoryOptions(
            steps_per_window=self.steps_per_window,
            record_stride=self.record_stride,
            full_bloch=self.full_bloch,
            workers=self.workers,
            histogram_bins=self.histogram_bins,
            histogram_times=histogram_times,
        )


def _number(field_name: str, value, kind=float):
    """``kind(value)`` as a finite number, or a ConfigError naming the field."""
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(field_name, f"expected a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(field_name, f"expected a finite number, got {value!r}")
    return number


# the keys each section accepts; any other key is a ConfigError naming it
_SECTION_FIELDS = {
    "initial": {"beta0"},
    "engine": {"steps_per_window", "record_stride", "full_bloch", "workers",
               "histogram_bins", "histogram_periods"},
    "sweep": {"delta_min", "delta_max", "points"},
    "grid": {"n_m_min", "n_m_max", "ratio_min", "ratio_max", "points"},
    "output": {"dir"},
}
_TOP_FIELDS = {"kind", "units", "params", "duration_periods", "trajectories", "seed",
               *_SECTION_FIELDS}


def _reject_unknown(keys, known, prefix: str = "") -> None:
    unknown = sorted(set(keys) - set(known))
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}", "unknown field")


def _section(doc: dict, name: str) -> dict:
    """The object ``doc[name]`` ({} when absent), or a ConfigError naming it
    or its first unknown key."""
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(name, f"expected an object, got {value!r}")
    _reject_unknown(value, _SECTION_FIELDS[name], f"{name}.")
    return value


_PARAM_FIELDS = ("gamma", "g", "delta0", "Omega", "g_m", "Gamma", "n_q", "n_m")
_RATE_FIELDS = ("gamma", "g", "delta0", "Omega", "g_m", "Gamma")


def _normalize_params(raw: dict, units: str) -> tuple[PhysParams, dict]:
    for required in ("g", "Omega", "g_m"):
        if required not in raw:
            raise ConfigError(f"params.{required}", "missing required field")
    _reject_unknown(raw, (*_PARAM_FIELDS, "T_m", "T_q", "omega0"), "params.")

    if units == "gamma":
        to_angular = None
    elif units == "hz":
        to_angular = 2.0 * math.pi
    elif units == "rad_s":
        to_angular = 1.0
    else:
        raise ConfigError("units", f"must be one of gamma/hz/rad_s, got {units!r}")

    gamma_in = _number("params.gamma", raw.get("gamma", 1.0))
    if gamma_in <= 0:
        raise ConfigError("params.gamma", "must be positive")

    values = {}
    for name in _RATE_FIELDS:
        values[name] = _number(
            f"params.{name}", raw.get(name, 1.0 if name == "gamma" else 0.0)
        )

    for occ, temp in (("n_m", "T_m"), ("n_q", "T_q")):
        if occ in raw and temp in raw:
            raise ConfigError(
                f"params.{temp}", f"conflicts with params.{occ}; give exactly one"
            )
    occupations = {
        occ: _number(f"params.{occ}", raw.get(occ, 0.0)) for occ in ("n_m", "n_q")
    }
    for occ, temp, freq in (("n_m", "T_m", "Omega"), ("n_q", "T_q", "omega0")):
        if temp in raw:
            if to_angular is None:
                raise ConfigError(
                    f"params.{temp}",
                    "temperatures need absolute units (units = hz or rad_s)",
                )
            if freq == "omega0":
                if "omega0" not in raw:
                    raise ConfigError(
                        "params.omega0", "required to convert T_q to an occupation"
                    )
                omega_abs = _number("params.omega0", raw["omega0"]) * to_angular
            else:
                omega_abs = values["Omega"] * to_angular
            if not omega_abs > 0:  # the Bose law divides by expm1(0)
                raise ConfigError(f"params.{freq}", f"{freq} must be positive")
            occupations[occ] = bose_occupation(
                omega_abs, _number(f"params.{temp}", raw[temp])
            )

    normalized = {name: values[name] / gamma_in for name in _RATE_FIELDS}
    normalized["gamma"] = 1.0
    normalized.update(occupations)
    try:
        params = PhysParams(**normalized)
    except ValueError as exc:  # its message starts with the field's name
        raise ConfigError(f"params.{str(exc).split()[0]}", str(exc)) from exc
    return params, normalized


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a configuration (or run-manifest) file."""
    return config_from_dict(_read_document(path))


def _read_document(path: str | Path) -> dict:
    """The configuration object of a config or run-manifest file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError("config", f"file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"invalid JSON: {exc}") from exc
    if isinstance(doc, dict) and doc.get("package") == "hybridmech" and "config" in doc:
        doc = doc["config"]
    if not isinstance(doc, dict):
        raise ConfigError("config", "top-level document must be an object")
    return doc


def config_from_dict(doc: dict) -> ExperimentConfig:
    _reject_unknown(doc, _TOP_FIELDS)
    kind = doc.get("kind", "semiclassical")
    if kind not in KINDS:
        raise ConfigError("kind", f"must be one of {KINDS}, got {kind!r}")
    units = doc.get("units", "gamma")
    raw_params = doc.get("params")
    if not isinstance(raw_params, dict):
        raise ConfigError("params", "missing params object")
    params, normalized_params = _normalize_params(raw_params, units)

    beta0_raw = _section(doc, "initial").get("beta0", [0.0, 0.0])
    if isinstance(beta0_raw, (int, float)):
        beta0 = complex(_number("initial.beta0", beta0_raw), 0.0)
    elif isinstance(beta0_raw, (list, tuple)) and len(beta0_raw) == 2:
        beta0 = complex(*(_number("initial.beta0", x) for x in beta0_raw))
    else:
        raise ConfigError("initial.beta0", "expected a number or [re, im] pair")

    engine = _section(doc, "engine")

    def engine_int(name, default):
        return _number(f"engine.{name}", engine.get(name, default), int)

    duration = _number("duration_periods", doc.get("duration_periods", 10.0))
    if duration <= 0:
        raise ConfigError("duration_periods", "must be positive")
    trajectories = _number("trajectories", doc.get("trajectories", 100), int)
    if trajectories < 1:
        raise ConfigError("trajectories", "must be at least 1")
    seed = _number("seed", doc.get("seed", 0), int)
    histogram_periods = engine.get("histogram_periods")
    if histogram_periods is not None:
        if not isinstance(histogram_periods, list):
            raise ConfigError(
                "engine.histogram_periods",
                f"expected a list of periods, got {histogram_periods!r}",
            )
        histogram_periods = [
            _number("engine.histogram_periods", p) for p in histogram_periods
        ]

    full_bloch = engine.get("full_bloch", False)
    if not isinstance(full_bloch, bool):
        raise ConfigError(
            "engine.full_bloch", f"expected true or false, got {full_bloch!r}"
        )

    config = ExperimentConfig(
        kind=kind,
        params=params,
        beta0=beta0,
        duration_periods=duration,
        trajectories=trajectories,
        seed=seed,
        steps_per_window=engine_int("steps_per_window", 256),
        record_stride=engine_int("record_stride", 4),
        full_bloch=full_bloch,
        workers=engine_int("workers", 1),
        histogram_bins=engine_int("histogram_bins", 41),
        histogram_periods=histogram_periods,
        sweep=dict(_section(doc, "sweep")),
        grid=dict(_section(doc, "grid")),
        out_dir=str(_section(doc, "output").get("dir", ".")),
    )
    if config.steps_per_window < 1:
        raise ConfigError("engine.steps_per_window", "must be positive")
    if config.steps_per_window % WINDOW_PANELS != 0:
        raise ConfigError(
            "engine.steps_per_window",
            f"must be a multiple of the {WINDOW_PANELS} kernel panels per window, "
            f"got {config.steps_per_window}",
        )
    if config.record_stride < 1 or config.steps_per_window % config.record_stride != 0:
        raise ConfigError(
            "engine.record_stride",
            f"must divide steps_per_window = {config.steps_per_window}, "
            f"got {config.record_stride}",
        )
    if config.histogram_bins < 1:
        raise ConfigError("engine.histogram_bins", "must be at least 1")
    _check_kind(config, "params.T_q" if "T_q" in raw_params else "params.n_q")
    config.normalized = {
        "kind": kind,
        "units": "gamma",
        "params": normalized_params,
        "initial": {"beta0": [beta0.real, beta0.imag]},
        "duration_periods": duration,
        "trajectories": trajectories,
        "seed": seed,
        "engine": {
            "steps_per_window": config.steps_per_window,
            "record_stride": config.record_stride,
            "full_bloch": config.full_bloch,
            "workers": config.workers,
            "histogram_bins": config.histogram_bins,
            "histogram_periods": histogram_periods,
        },
        "sweep": config.sweep,
        "grid": config.grid,
        "output": {"dir": config.out_dir},
    }
    return config


def _check_kind(config: ExperimentConfig, n_q_field: str) -> None:
    """Reject what the kind's run would otherwise reject midway."""
    params = config.params
    if config.kind in ("ensemble", "spectra") and params.n_q != 0:
        # both runs evaluate the emitter spectrum, implemented for n_q = 0 only
        raise ConfigError(
            n_q_field,
            f"the {config.kind} kind needs n_q = 0 (zero-temperature emitter); "
            f"got n_q = {params.n_q:.3g}",
        )
    if config.kind == "ensemble":
        # lambda_plus >= Gamma (n_m + 1) in every window, so this bound on
        # dt * Gamma (n_m + 1) is one the run's dt * lambda_plus check implies
        rate = params.Gamma * (params.n_m + 1.0)
        dt = params.mechanical_period / config.steps_per_window
        if dt * rate > MAX_RATE_STEP + 1e-12:
            steps = math.ceil(params.mechanical_period * rate / MAX_RATE_STEP)
            raise ConfigError(
                "engine.steps_per_window",
                f"dt*Gamma*(n_m+1) = {dt * rate:.3g} exceeds {MAX_RATE_STEP}, and "
                "lambda_plus is at least Gamma*(n_m+1); need steps_per_window >= "
                f"{steps}",
            )


# ---------------------------------------------------------------------------
# CSV emission.

def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


# ---------------------------------------------------------------------------
# Experiment kinds.

def _run_semiclassical(config: ExperimentConfig, out: Path) -> list[str]:
    duration = config.duration_periods * config.params.mechanical_period
    record = semiclassical_run(config.params, config.beta0, duration, config.options())
    write_csv(
        out / "semiclassical.csv",
        ["t", "re_beta", "im_beta", "pe", "delta_m"],
        zip(record.times, record.beta.real, record.beta.imag, record.pe, record.delta_m),
    )
    return ["semiclassical.csv"]


def _run_ensemble(config: ExperimentConfig, out: Path) -> list[str]:
    duration = config.duration_periods * config.params.mechanical_period
    result = run_ensemble(
        config.params,
        config.beta0,
        duration,
        config.trajectories,
        config.seed,
        config.options(),
    )
    write_csv(
        out / "ensemble.csv",
        [
            "t",
            "mean_re_beta",
            "mean_im_beta",
            "var_dbeta_x",
            "var_dbeta_p",
            "lambda_plus",
            "lambda_minus",
            "theta",
            "pe_mean",
        ],
        zip(
            result.times,
            result.mean_beta.real,
            result.mean_beta.imag,
            result.var_dbeta_x,
            result.var_dbeta_p,
            result.mean_lambda_plus,
            result.mean_lambda_minus,
            result.mean_theta,
            result.mean_pe,
        ),
    )
    files = ["ensemble.csv"]
    for i, (t, edges, counts) in enumerate(result.histograms):
        name = f"histogram_{i:03d}.csv"
        write_csv(
            out / name,
            ["bin_lo", "bin_hi", "count"],
            zip(edges[:-1], edges[1:], counts),
        )
        files.append(name)
    return files


def _run_spectra(config: ExperimentConfig, out: Path) -> list[str]:
    sweep = config.sweep
    lo = _number("sweep.delta_min", sweep.get("delta_min", -20.0))
    hi = _number("sweep.delta_max", sweep.get("delta_max", 20.0))
    points = _number("sweep.points", sweep.get("points", 201), int)
    if points < 2 or hi <= lo:
        raise ConfigError("sweep", "need delta_min < delta_max and points >= 2")
    deltas = np.linspace(lo, hi, points)
    values = spectrum_closed_form(config.params, deltas)
    write_csv(out / "spectra.csv", ["delta", "re_s0"], zip(deltas, values))
    return ["spectra.csv"]


def _run_phase_diagram(config: ExperimentConfig, out: Path) -> list[str]:
    grid = config.grid
    n_lo = _number("grid.n_m_min", grid.get("n_m_min", 1e-2))
    n_hi = _number("grid.n_m_max", grid.get("n_m_max", 1e4))
    r_lo = _number("grid.ratio_min", grid.get("ratio_min", 1e-3))
    r_hi = _number("grid.ratio_max", grid.get("ratio_max", 1e3))
    points = _number("grid.points", grid.get("points", 50), int)
    if points < 2 or n_lo <= 0 or r_lo <= 0:
        raise ConfigError("grid", "log grid needs positive bounds and points >= 2")
    n_ms = np.logspace(math.log10(n_lo), math.log10(n_hi), points)
    ratios = np.logspace(math.log10(r_lo), math.log10(r_hi), points)
    base = config.params
    tls_rate = base.tls_noise_rate
    rows = []
    for n_m in n_ms:
        for ratio in ratios:
            params = replace(base, Gamma=ratio * tls_rate, n_m=float(n_m))
            label = classify_regime(params).regime.value
            rows.append((float(n_m), float(ratio), label))
    write_csv(out / "phase_diagram.csv", ["n_m", "gamma_ratio", "label"], rows)
    return ["phase_diagram.csv"]


def _run_validate(config: ExperimentConfig, out: Path) -> list[str]:
    """Fast cross-validation suite: closed forms, eigenpairs, unraveling."""
    checks = []

    def check(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    # Closed-form spectrum against the regression-theorem linear solve.
    worst = 0.0
    base = config.params
    for g in (0.1, 0.5, 1.0, 2.0, 10.0):
        for delta in (0.0, 0.25, 0.5, 1.0, 2.0, 5.0):
            p = PhysParams(gamma=1.0, g=g, Omega=base.Omega, g_m=base.g_m)
            cf = spectrum_closed_form(p, delta)
            qrt = spectrum_qrt(p, delta, 0.0).real
            worst = max(worst, abs(qrt - cf) / cf)
    check("spectrum_closed_form_vs_qrt", worst <= 1e-10, f"max rel diff {worst:.3e}")

    # Closed-form eigenpairs against a generic Hermitian eigensolver.
    rng = np.random.default_rng(config.seed + 1)
    worst_eig = 0.0
    min_lam = math.inf
    for _ in range(1000):
        s0 = 10.0 ** rng.uniform(-3, 3)
        s2 = s0 * rng.uniform(0, 1) * np.exp(2j * math.pi * rng.uniform())
        Gamma = 10.0 ** rng.uniform(-3, 3)
        n_m = 10.0 ** rng.uniform(-2, 3)
        h11 = Gamma * (n_m + 1) + s0
        h22 = Gamma * n_m + s0
        dec = decompose(Gamma, n_m, s0, s2)
        lam_p, lam_m = dec.lambda_plus, dec.lambda_minus
        ref = np.linalg.eigvalsh(np.array([[h11, s2], [np.conj(s2), h22]]))
        scale = max(h11, 1.0)
        worst_eig = max(
            worst_eig, abs(lam_p - ref[1]) / scale, abs(lam_m - ref[0]) / scale
        )
        min_lam = min(min_lam, lam_m)
    check(
        "eigenpairs_vs_eigh",
        worst_eig <= 1e-12 and min_lam >= 0.0,
        f"max scaled diff {worst_eig:.3e}, min lambda_minus {min_lam:.3e}",
    )

    # Generator equivalence of the two Lindblad forms on a small truncation.
    worst_gen = 0.0
    p10 = PhysParams(gamma=1.0, g=1.0, Omega=0.01, g_m=0.01)
    for _ in range(20):
        s0 = 10.0 ** rng.uniform(-2, 1)
        s2 = s0 * rng.uniform(0, 1) * np.exp(2j * math.pi * rng.uniform())
        Gamma = 10.0 ** rng.uniform(-2, 1)
        n_m = 10.0 ** rng.uniform(-1, 1)
        kernels = NoiseKernels(s0=s0, s2=s2)
        decomp = decompose(Gamma, n_m, s0, s2)
        a = superoperator(lambda x: lindblad_rhs(x, 0.3, decomp, p10), 10)
        b = superoperator(
            lambda x: kernel_form_rhs(x, 0.3, Gamma, n_m, kernels, p10), 10
        )
        worst_gen = max(worst_gen, float(np.max(np.abs(a - b))))
    check("generator_equivalence_dim10", worst_gen <= 1e-10, f"max diff {worst_gen:.3e}")

    # Gaussian-moment ensemble against the master-equation oracle.
    p = PhysParams(gamma=1.0, g=1.0, Omega=0.05, g_m=0.001)
    decomp = twisted_decomposition(2e-3, 2e-4, 0.0)
    schedule = make_frozen_schedule(decomp, 0.0, 2)
    duration = 2 * p.mechanical_period
    opts = TrajectoryOptions(
        steps_per_window=256, record_stride=64, schedule=schedule, workers=1
    )
    ens = run_ensemble(p, 1.0 + 0.0j, duration, 300, config.seed, opts)
    master = integrate_master(
        p,
        coherent_density(24, 1.0 + 0.0j),
        duration,
        p.mechanical_period / 256,
        schedule,
        record_stride=64,
    )
    diff_n = np.abs(ens.mean_n - master.moments.n)
    bound = 4.0 * ens.se_n + 1e-9
    check(
        "gaussian_vs_master_moments",
        bool(np.all(diff_n <= bound)),
        f"max |diff|/bound {float(np.max(diff_n / bound)):.3f}",
    )

    payload = {"checks": checks, "passed": all(c["passed"] for c in checks)}
    (out / "validation.json").write_text(json.dumps(payload, indent=2) + "\n")
    if not payload["passed"]:
        raise ValidationFailure(
            "; ".join(c["name"] for c in checks if not c["passed"])
        )
    return ["validation.json"]


_RUNNERS = {
    "semiclassical": _run_semiclassical,
    "ensemble": _run_ensemble,
    "spectra": _run_spectra,
    "phase-diagram": _run_phase_diagram,
    "validate": _run_validate,
}


def run_experiment(config: ExperimentConfig, out_dir: str | Path) -> list[str]:
    """Dispatch an experiment and write its data files plus a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = time.monotonic()
    files = _RUNNERS[config.kind](config, out)
    manifest = {
        "package": "hybridmech",
        "version": __version__,
        "kind": config.kind,
        "seed": config.seed,
        "config": config.normalized,
        "outputs": files,
        "wall_time_s": time.monotonic() - started,
        "diagnostics": machine_diagnostics(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return files + ["manifest.json"]


def _error_json(code: int, kind: str, message: str) -> str:
    return json.dumps({"error": {"code": code, "kind": kind, "message": message}})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="hybridmech",
        description="Hybrid emitter-oscillator noise simulator",
    )
    parser.add_argument("--config", required=True, help="JSON config or run manifest")
    parser.add_argument(
        "--out", default=None, help="output directory (overrides config output.dir)"
    )
    parser.add_argument("--seed", type=int, default=None, help="override master seed")
    parser.add_argument(
        "--trajectories", type=int, default=None, help="override trajectory count"
    )
    parser.add_argument("--kind", default=None, choices=KINDS, help="override kind")
    parser.add_argument(
        "--workers", type=int, default=None, help="no effect; kept for old configs"
    )
    parser.add_argument(
        "--full-bloch",
        action="store_true",
        help="integrate the full Bloch equations instead of the adiabatic shortcut",
    )
    args = parser.parse_args(argv)

    try:
        # overrides go into the document, so they are validated with it
        doc = _read_document(args.config)
        for key in ("seed", "trajectories", "kind"):
            if getattr(args, key) is not None:
                doc[key] = getattr(args, key)
        engine = dict(_section(doc, "engine"))
        if args.workers is not None:
            engine["workers"] = args.workers
        if args.full_bloch:
            engine["full_bloch"] = True
        doc["engine"] = engine
        config = config_from_dict(doc)
    except ConfigError as exc:
        print(_error_json(2, "config", str(exc)), file=sys.stderr)
        return 2

    try:
        run_experiment(config, args.out if args.out is not None else config.out_dir)
    except ConfigError as exc:
        print(_error_json(2, "config", str(exc)), file=sys.stderr)
        return 2
    except ValidationFailure as exc:
        print(_error_json(4, "validation", str(exc)), file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(_error_json(3, "runtime", str(exc)), file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
