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
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .bloch import PhysParams
from .lindblad import NoiseRegime, decompose, regime_codes, twisted_decomposition
from .oracle import (
    coherent_density,
    integrate_master,
    kernel_form_rhs,
    lindblad_rhs,
    make_frozen_schedule,
    superoperator,
)
from .spectrum import NoiseKernels, spectrum_closed_form, spectrum_qrt
from .trajectory import (
    _RECORDED,
    TrajectoryOptions,
    _check_step,
    histogram_targets,
    machine_diagnostics,
    resolve_windows,
    run_ensemble,
    semiclassical_run,
)

HBAR = 1.054571817e-34  # J s
KB = 1.380649e-23  # J / K

KINDS = ("semiclassical", "ensemble", "phase-diagram", "spectra", "validate")

# Largest arrays a run may allocate, the same on every host.
MEMORY_CAP = 16 * 2**30  # bytes
_POINT_BYTES = 32  # a sweep's or grid's peak per point (measured at 10**6: 32.0 and 25.4)


class ConfigError(ValueError):
    """Invalid configuration; names the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


class ValidationFailure(RuntimeError):
    """The validation suite reported at least one failing check."""


def bose_occupation(omega_abs: float, temperature: float) -> float:
    """Thermal occupation (exp(hbar omega / kB T) - 1)^-1, 0.0 where it
    underflows; ``ValueError`` where it overflows or divides by 0."""
    if temperature <= 0:
        return 0.0
    try:
        n = 1.0 / math.expm1(HBAR * omega_abs / (KB * temperature))
    except OverflowError:  # exp(hbar omega / kB T) beyond the float range
        return 0.0
    except ZeroDivisionError:  # hbar omega or kB T underflowed to 0
        n = math.inf
    if n == math.inf:
        raise ValueError("the Bose occupation overflows")
    return n


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
        periods, period = self.histogram_periods, self.params.mechanical_period
        return TrajectoryOptions(
            steps_per_window=self.steps_per_window,
            record_stride=self.record_stride,
            full_bloch=self.full_bloch,
            workers=self.workers,
            histogram_bins=self.histogram_bins,
            histogram_times=None if periods is None else [p * period for p in periods],
        )


def _real(field_name: str, value) -> float:
    """A finite JSON number (not a boolean or text) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
            abs(value) <= sys.float_info.max):
        raise ConfigError(field_name, f"expected a finite number, got {value!r}")
    return float(value)


def _integer(field_name: str, value) -> int:
    """An integral JSON number within 64 bits: 256.0 passes, 2.9, "256" and 1e300 do not."""
    if isinstance(value, float) and value.is_integer() and abs(value) < 2**63:
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or not abs(value) < 2**63:
        raise ConfigError(field_name, f"expected an integer within 64 bits, got {value!r}")
    return value


def _reader(ok, expected: str, read=lambda field_name, value: value):
    """A reader: the result of ``read``, or a ConfigError where ``ok`` rejects it."""

    def checked(field_name: str, value):
        result = read(field_name, value)
        if not ok(result):
            raise ConfigError(field_name, f"expected {expected}, got {value!r}")
        return result

    return checked


_object = _reader(lambda v: isinstance(v, dict), "an object")
_text = _reader(lambda v: isinstance(v, str), "a string")
_POSITIVE = _reader(lambda v: v > 0, "a positive number", _real)
# the emitter's closed forms raise these rates, as ratios to gamma, to powers
# up to the eighth; magnitudes within 1e-15..1e15 keep every one of them finite
_EMITTER = _reader(lambda v: v == 0 or 1e-15 <= abs(v) <= 1e15,
                   "0 or a magnitude within 1e-15..1e15", _real)
# gamma, and Omega, whose engine phases 2 Omega t overflow beyond about 9e307
_RATE = _reader(lambda v: 1e-15 <= v <= 1e15, "a positive number within 1e-15..1e15", _real)
_POINTS = _reader(lambda v: v >= 2, "at least 2 points", _integer)


def _beta0(field_name: str, value) -> list[float]:
    """A number or an [re, im] pair, recorded as the pair."""
    pair = value if isinstance(value, list) else [value, 0.0]
    if len(pair) != 2:
        raise ConfigError(field_name, "expected a number or [re, im] pair")
    return [_real(field_name, x) for x in pair]


def _periods(field_name: str, value) -> list[float] | None:
    if value is not None and not isinstance(value, list):
        raise ConfigError(field_name, f"expected a list of periods, got {value!r}")
    return None if value is None else [_real(field_name, p) for p in value]


# defaults that mark a key as required, or as left out when not given
_REQUIRED, _OPTIONAL = object(), object()


def _section(field_name: str, value, table: dict) -> dict:
    """Read an object through its table of ``key: (reader, default)``: reject
    unknown keys, convert each value and fill in the defaults, except that a
    ``_REQUIRED`` key must be given and an ``_OPTIONAL`` one may be left out."""
    prefix = f"{field_name}." if field_name else ""
    unknown = sorted(set(_object(field_name, value)) - set(table))
    if unknown:
        raise ConfigError(prefix + unknown[0], "unknown field")
    parsed = {}
    for key, (read, default) in table.items():
        if key not in value and default is _REQUIRED:
            raise ConfigError(prefix + key, "missing required field")
        if key in value or default is not _OPTIONAL:
            parsed[key] = read(prefix + key, value.get(key, default))
    return parsed


def _table(**fields) -> tuple:
    """A section's entry in the table of its parent: read it, {} by default."""
    return partial(_section, table=fields), {}


# the rates of `params`, which _normalize_params divides by gamma
_RATES = dict(gamma=(_RATE, 1.0), g=(_EMITTER, _REQUIRED), delta0=(_EMITTER, 0.0),
              Omega=(_RATE, _REQUIRED), g_m=(_EMITTER, _REQUIRED), Gamma=(_real, 0.0))

# every key the config accepts, with its reader and default
_TOP = {
    "kind": (_reader(lambda v: v in KINDS, f"one of {KINDS}"), "semiclassical"),
    "units": (_reader(lambda v: v in ("gamma", "hz", "rad_s"), "gamma/hz/rad_s"),
              "gamma"),
    "params": _table(**_RATES, **dict.fromkeys(
        ("n_m", "n_q", "T_m", "T_q", "omega0"), (_real, _OPTIONAL))),
    "initial": _table(beta0=(_beta0, [0.0, 0.0])),
    "duration_periods": (_POSITIVE, 10.0),
    "trajectories": (_reader(lambda v: v >= 1, "at least 1", _integer), 100),
    "seed": (_reader(lambda v: v >= 0, "a non-negative integer", _integer), 0),
    "engine": _table(
        steps_per_window=(_integer, 256),
        record_stride=(_integer, 4),
        full_bloch=(_reader(lambda v: isinstance(v, bool), "true or false"), False),
        workers=(_integer, 1),
        histogram_bins=(_integer, 41),
        histogram_periods=(_periods, None),
    ),
    "sweep": _table(delta_min=(_EMITTER, -20.0), delta_max=(_EMITTER, 20.0),
                    points=(_POINTS, 201)),
    "grid": _table(n_m_min=(_POSITIVE, 1e-2), n_m_max=(_POSITIVE, 1e4),
                   ratio_min=(_POSITIVE, 1e-3), ratio_max=(_POSITIVE, 1e3),
                   points=(_POINTS, 50)),
    "output": _table(dir=(_text, ".")),
}


def _build(field_name: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``; its ValueError becomes a ConfigError naming
    ``field_name``, or, for a name ending in ".", that name followed by the
    first word of the message, which then starts with a field's name."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        if field_name.endswith("."):
            field_name += str(exc).split()[0]
        raise ConfigError(field_name, str(exc)) from exc


def _normalize_params(raw: dict, units: str) -> tuple[PhysParams, dict]:
    """The parameters, and their manifest record, from the parsed ``params``
    section: the rates divided by gamma, and each temperature turned into its
    occupation by the Bose law, which needs ``units`` hz or rad_s."""
    to_angular = {"gamma": None, "hz": 2.0 * math.pi, "rad_s": 1.0}[units]
    normalized = {name: raw[name] / raw["gamma"] for name in _RATES}
    for occ, temp, freq in (("n_m", "T_m", "Omega"), ("n_q", "T_q", "omega0")):
        normalized[occ] = raw.get(occ, 0.0)
        if temp not in raw:
            continue
        if occ in raw:
            raise ConfigError(f"params.{temp}",
                              f"conflicts with params.{occ}; give exactly one")
        if to_angular is None:
            raise ConfigError(f"params.{temp}",
                              "temperatures need absolute units (units = hz or rad_s)")
        if freq not in raw:
            raise ConfigError(f"params.{freq}",
                              f"required to convert {temp} to an occupation")
        omega_abs = raw[freq] * to_angular
        if not omega_abs > 0:  # the Bose law divides by expm1(0)
            raise ConfigError(f"params.{freq}", f"{freq} must be positive")
        normalized[occ] = _build(f"params.{temp}", bose_occupation, omega_abs, raw[temp])
    return _build("params.", PhysParams, **normalized), normalized


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
    parsed = _section("", doc, _TOP)
    params, parsed["params"] = _normalize_params(parsed["params"], parsed["units"])
    parsed["units"] = "gamma"
    sweep = parsed["sweep"]
    if not sweep["delta_max"] > sweep["delta_min"]:
        raise ConfigError(
            "sweep.delta_max", f"must exceed sweep.delta_min = {sweep['delta_min']}"
        )
    config = ExperimentConfig(
        params=params,
        beta0=complex(*parsed["initial"]["beta0"]),
        out_dir=parsed["output"]["dir"],
        normalized=parsed,
        **{key: parsed[key] for key in
           ("kind", "duration_periods", "trajectories", "seed", "sweep", "grid")},
        **parsed["engine"],
    )
    _build("engine.", config.options)
    _check_kind(config, "params.T_q" if "T_q" in doc["params"] else "params.n_q")
    return config


def _check_kind(config: ExperimentConfig, n_q_field: str) -> None:
    """Reject what the kind's run would otherwise reject midway."""
    params = config.params
    _build("engine.histogram_periods", histogram_targets, config.duration_periods,
           config.histogram_periods)
    if config.kind in ("ensemble", "semiclassical"):
        # both run self-scheduled one-period windows under the engine's step
        # rule; lambda_plus is at least Gamma (n_m + 1), and the noise-free
        # reference damps at Gamma
        period = params.mechanical_period
        windows, _ = _build("duration_periods", resolve_windows, params,
                            config.duration_periods * period, None)
        if windows * config.steps_per_window >= 2**63:
            raise ConfigError("duration_periods", "the run reaches 2**63 steps")
        _check_memory(config, windows)
        if not 2.0 * params.g_m * abs(config.beta0) <= 1e15:  # as _EMITTER bounds rates
            raise ConfigError("initial.beta0", "induced detuning 2 g_m |beta0| above 1e15")
        floor = params.Gamma * (params.n_m + 1.0 if config.kind == "ensemble" else 1.0)
        _build("engine.steps_per_window", _check_step, params, period,
               config.steps_per_window, floor)
    elif config.kind != "validate":  # a sweep or a grid, whose sizes count no windows
        _check_memory(config, 0)
    if config.kind == "phase-diagram":
        with np.errstate(over="ignore", invalid="ignore"):  # an end may overflow to inf
            n_m_axis, ratio_axis = _grid_axes(config.grid)
            if not np.isfinite(n_m_axis).all():
                raise ConfigError("grid.n_m_max", "the grid's largest n_m overflows")
            if not np.isfinite(ratio_axis * params.tls_noise_rate).all():
                raise ConfigError("grid.ratio_max", "the grid's largest damping, "
                                  "ratio_max g_m**2 / gamma, overflows")
    if params.n_q != 0 and (config.kind in ("ensemble", "spectra") or (
            config.kind == "semiclassical" and not config.full_bloch)):
        # the emitter spectrum and the closed-form population hold for n_q = 0
        # only; the semiclassical kind can step the Bloch equations instead
        hint = " without engine.full_bloch" if config.kind == "semiclassical" else ""
        raise ConfigError(
            n_q_field,
            f"the {config.kind} kind{hint} needs n_q = 0 (zero-temperature emitter); "
            f"got n_q = {params.n_q:.3g}",
        )


def _check_memory(config: ExperimentConfig, windows: int) -> None:
    """Refuse a run whose records (lanes x records x 80 bytes), window noise buffers
    (2 x steps x lanes x 16 bytes), or sweep or grid points (``_POINT_BYTES`` each)
    exceed ``MEMORY_CAP``, naming the field one lane breaks it by, else ``trajectories``."""
    lanes = config.trajectories if config.kind == "ensemble" else 1
    steps = config.steps_per_window
    record_bytes = sum(np.dtype(dtype).itemsize for dtype in _RECORDED.values())
    for what, per_lane, field_name in {
        "spectra": [("sweep", config.sweep["points"] * _POINT_BYTES, "sweep.points")],
        "phase-diagram": [("grid", config.grid["points"]**2 * _POINT_BYTES, "grid.points")],
    }.get(config.kind, [
        ("window noise buffers", 2 * steps * 16, "engine.steps_per_window"),
        ("records", (windows * steps // config.record_stride + 1) * record_bytes,
         "duration_periods"),
    ]):
        if lanes * per_lane > MEMORY_CAP:
            raise ConfigError(
                field_name if per_lane > MEMORY_CAP else "trajectories",
                f"the run's {what} would take {lanes * per_lane / 2**30:.3g} GiB, "
                f"above the {MEMORY_CAP // 2**30} GiB cap",
            )


# ---------------------------------------------------------------------------
# CSV emission.

_CSV_CHUNK = 1024  # rows formatted at a time


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path: Path, columns: dict) -> str:
    """Write ``columns``, an ordered mapping from each column's name to its
    values, as a CSV table at ``path``, and return the file's name.  Columns
    of unequal length raise ``ValueError`` rather than drop rows."""
    if len({len(values) for values in columns.values()}) > 1:
        raise ValueError("columns of unequal length")
    rows = len(next(iter(columns.values()), ()))
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        # a chunk of rows at a time, so the text held stays small; a numpy
        # column turns into Python numbers in one call, which format as its
        # scalars do
        for lo in range(0, rows, _CSV_CHUNK):
            chunks = (values[lo : lo + _CSV_CHUNK] for values in columns.values())
            cells = [[_fmt(v) for v in (c.tolist() if isinstance(c, np.ndarray) else c)]
                     for c in chunks]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))
    return path.name


# ---------------------------------------------------------------------------
# Experiment kinds.

def _run_semiclassical(config: ExperimentConfig, out: Path) -> list[str]:
    duration = config.duration_periods * config.params.mechanical_period
    record = semiclassical_run(config.params, config.beta0, duration, config.options())
    return [write_csv(out / "semiclassical.csv", {
        "t": record.times, "re_beta": record.beta.real, "im_beta": record.beta.imag,
        "pe": record.pe, "delta_m": record.delta_m,
    })]


def _run_ensemble(config: ExperimentConfig, out: Path) -> list[str]:
    duration = config.duration_periods * config.params.mechanical_period
    result = run_ensemble(config.params, config.beta0, duration, config.trajectories,
                          config.seed, config.options())
    return [write_csv(out / "ensemble.csv", {
        "t": result.times,
        "mean_re_beta": result.mean_beta.real,
        "mean_im_beta": result.mean_beta.imag,
        "var_dbeta_x": result.var_dbeta_x,
        "var_dbeta_p": result.var_dbeta_p,
        "lambda_plus": result.mean_lambda_plus,
        "lambda_minus": result.mean_lambda_minus,
        "theta": result.mean_theta,
        "pe_mean": result.mean_pe,
    })] + [
        write_csv(out / f"histogram_{i:03d}.csv",
                  {"bin_lo": edges[:-1], "bin_hi": edges[1:], "count": counts})
        for i, (_, edges, counts) in enumerate(result.histograms)
    ]


def _run_spectra(config: ExperimentConfig, out: Path) -> list[str]:
    sweep = config.sweep
    deltas = np.linspace(sweep["delta_min"], sweep["delta_max"], sweep["points"])
    return [write_csv(out / "spectra.csv", {
        "delta": deltas, "re_s0": spectrum_closed_form(config.params, deltas),
    })]


def _grid_axes(grid: dict) -> tuple[np.ndarray, np.ndarray]:
    """The phase diagram's log-spaced n_m and Gamma-ratio axes."""
    def axis(name):
        return np.logspace(math.log10(grid[f"{name}_min"]), math.log10(grid[f"{name}_max"]),
                           grid["points"])

    return axis("n_m"), axis("ratio")


def _run_phase_diagram(config: ExperimentConfig, out: Path) -> list[str]:
    # rows run over the ratios within each n_m; Gamma = ratio g_m**2 / gamma
    n_m_axis, ratio_axis = _grid_axes(config.grid)
    tls_rate = config.params.tls_noise_rate
    codes = regime_codes(ratio_axis * tls_rate, n_m_axis[:, None], tls_rate).ravel()
    labels = np.array([regime.value for regime in NoiseRegime], dtype=object)[codes]
    points = config.grid["points"]
    return [write_csv(out / "phase_diagram.csv", {
        "n_m": np.repeat(n_m_axis, points), "gamma_ratio": np.tile(ratio_axis, points),
        "label": labels,
    })]


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
            diff = abs(qrt - cf)  # both vanish at g_m = 0: only equal values agree
            worst = max(worst, diff / cf if cf else (math.inf if diff else 0.0))
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
    opts = TrajectoryOptions(steps_per_window=256, record_stride=64, schedule=schedule)
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
        engine = doc.setdefault("engine", {})
        if isinstance(engine, dict):  # else config_from_dict names the section
            if args.workers is not None:
                engine["workers"] = args.workers
            if args.full_bloch:
                engine["full_bloch"] = True
        config = config_from_dict(doc)
    except ConfigError as exc:
        print(_error_json(2, "config", str(exc)), file=sys.stderr)
        return 2

    try:
        run_experiment(config, args.out if args.out is not None else config.out_dir)
    except ValidationFailure as exc:
        print(_error_json(4, "validation", str(exc)), file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        # a bare exception, such as MemoryError(), has an empty message
        print(_error_json(3, "runtime", str(exc) or type(exc).__name__),
              file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
