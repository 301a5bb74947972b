"""Config-driven experiment pipeline: decoupling check, rates, simulation.

A single JSON document describes a scenario (system, schedule, reservoir,
coupling, run horizon); the runner executes the decoupling check, the
second-order rate calculation, exact simulations with the forcing on and
off, and the comparison against the coherence-preserving reference. All
outputs (trajectory CSVs, report) are deterministic functions of the
config; the seed is only recorded in the provenance.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import json
import math
import platform
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .control import (ControlSchedule, DDReport, SystemModel, _validate_state,
                      check_dd, commutation_defect, operator_norm)
from .errors import ArgumentError, ConfigError, DecouplingViolationError
from .reservoir import (FormFactor, discretize_modes, form_factor_registry,
                        make_form_factor, spectral_function)
from .simulate import (DIMENSION_GUARD, DeviationReport, TotalModel,
                       Trajectory, evolve_pair)
from .weak_coupling import RateSummary, decoherence_time, level_shift

__all__ = [
    "ExperimentConfig",
    "Report",
    "run_experiment",
    "sweep",
    "emit_report",
    "write_trajectory_csv",
]

#: sweep axis -> the config field each point sets
SWEEP_AXES = {"lambda": "coupling", "T": "schedule.period",
              "mu": "schedule.mu", "N": "reservoir.n_modes"}


_MISSING = object()


def _get(mapping, path, expected=None, default=_MISSING):
    node = mapping
    parts = path.split(".")
    for i, part in enumerate(parts):
        if not isinstance(node, dict) or part not in node:
            if default is not _MISSING:
                return default
            raise ConfigError(".".join(parts[: i + 1]), "missing required field")
        node = node[part]
    if expected is None:
        return node
    names = expected if isinstance(expected, tuple) else (expected,)
    # bool is an int subclass, but a JSON true is no number
    if not isinstance(node, expected) or (isinstance(node, bool)
                                          and bool not in names):
        raise ConfigError(path, "expected " + "/".join(t.__name__ for t in names)
                          + f", got {type(node).__name__}")
    return node


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _parse_matrix(raw, path):
    """Matrix entries are numbers or [re, im] pairs."""
    if not isinstance(raw, list) or not raw:
        raise ConfigError(path, "expected a nested list of matrix rows")
    out = []
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != len(raw):
            raise ConfigError(f"{path}[{i}]", "matrix must be square")
        parsed = []
        for j, entry in enumerate(row):
            if _is_number(entry):
                parsed.append(complex(entry))
            elif (isinstance(entry, list) and len(entry) == 2
                  and all(_is_number(v) for v in entry)):
                parsed.append(complex(entry[0], entry[1]))
            else:
                raise ConfigError(f"{path}[{i}][{j}]",
                                  "expected a number or an [re, im] pair")
        out.append(parsed)
    return np.array(out, dtype=complex)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated scenario description, kept alongside its raw document."""

    scenario: str
    model: SystemModel
    schedule: Optional[ControlSchedule]   # None: never driven
    form_factor: FormFactor
    n_modes: int
    p_max: float
    lam: float
    horizon: float
    sample_dt: float
    substeps_per_period: int
    c_const: float
    initial_state: np.ndarray
    dd_tol: float
    require_dd: bool
    output_dir: str
    seed: int
    raw: dict = field(repr=False)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        p = Path(path)
        try:
            doc = json.loads(p.read_text())
        except FileNotFoundError:
            raise ConfigError("(file)", f"config file not found: {p}")
        except json.JSONDecodeError as exc:
            raise ConfigError("(file)", f"invalid JSON: {exc}")
        return cls.from_dict(doc)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("(root)", "config must be a JSON object")
        scenario = _get(doc, "scenario", str, "unnamed")
        h_s = _parse_matrix(_get(doc, "system.h_s", list), "system.h_s")
        q = _parse_matrix(_get(doc, "system.q", list), "system.q")
        try:
            model = SystemModel(h_s, q)
        except ArgumentError as exc:
            raise ConfigError("system", str(exc))

        kind = _get(doc, "schedule.kind", str)
        period = float(_get(doc, "schedule.period", (int, float)))
        if not period > 0:
            raise ConfigError("schedule.period", "must be positive")
        h_dir_raw = _get(doc, "schedule.h_dir", list, None)
        h_dir = (_parse_matrix(h_dir_raw, "schedule.h_dir")
                 if h_dir_raw is not None else None)
        try:
            if kind == "sinusoidal":
                mu = float(_get(doc, "schedule.mu", (int, float)))
                schedule = ControlSchedule.sinusoidal(period, mu, h_dir=h_dir)
            elif kind == "bangbang":
                phases = _get(doc, "schedule.phases", list)
                weights = _get(doc, "schedule.weights", list)
                for key, values in (("phases", phases), ("weights", weights)):
                    for i, v in enumerate(values):
                        if not _is_number(v):
                            raise ConfigError(f"schedule.{key}[{i}]",
                                              "expected a number")
                schedule = ControlSchedule.bangbang(period, phases, weights,
                                                   h_dir=h_dir)
            elif kind == "off":
                schedule = None
            else:
                raise ConfigError("schedule.kind",
                                  f"unknown kind {kind!r}; expected "
                                  "sinusoidal, bangbang or off")
        except ArgumentError as exc:
            raise ConfigError("schedule", str(exc))

        # spectral-gap guard: the period must resolve the system phases
        if period * operator_norm(model.h_s) >= math.pi / 2:
            raise ConfigError(
                "schedule.period",
                f"T * ||H_s|| = {period * operator_norm(model.h_s):.6g} "
                "must stay below pi/2")
        if schedule is not None:
            defect = commutation_defect(model, schedule)
            if defect > 1e-10:
                raise ConfigError("schedule.h_dir",
                                  f"control must commute with H_s "
                                  f"(defect {defect:.3e})")

        ff_name = _get(doc, "reservoir.form_factor", str, "gaussian-p")
        if ff_name not in form_factor_registry:
            raise ConfigError("reservoir.form_factor",
                              f"unknown form factor {ff_name!r}; choose from "
                              f"{sorted(form_factor_registry)}")
        ff_params = _get(doc, "reservoir.params", dict, {})
        known = inspect.signature(form_factor_registry[ff_name]).parameters
        for key in ff_params:
            if key not in known:
                raise ConfigError(f"reservoir.params.{key}",
                                  f"{ff_name} takes only {sorted(known)}")
            _get(doc, f"reservoir.params.{key}", (int, float))
        beta = float(_get(doc, "reservoir.beta", (int, float)))
        if not beta > 0:
            raise ConfigError("reservoir.beta", "must be positive")
        form_factor = make_form_factor(ff_name, beta, **ff_params)
        n_modes = _get(doc, "reservoir.n_modes", int)
        if n_modes < 1:
            raise ConfigError("reservoir.n_modes", "must be >= 1")
        p_max = float(_get(doc, "reservoir.p_max", (int, float)))
        if not p_max > 0:
            raise ConfigError("reservoir.p_max", "must be positive")
        if model.dim * 2**n_modes > DIMENSION_GUARD:
            raise ConfigError(
                "reservoir.n_modes",
                f"total dimension {model.dim * 2**n_modes} exceeds the "
                f"desk-scale guard {DIMENSION_GUARD}")

        lam = float(_get(doc, "coupling", (int, float)))
        horizon = float(_get(doc, "run.horizon", (int, float)))
        sample_dt = float(_get(doc, "run.sample_dt", (int, float)))
        if not horizon >= 0:
            raise ConfigError("run.horizon", "must be >= 0")
        if not sample_dt > 0:
            raise ConfigError("run.sample_dt", "must be positive")
        substeps = _get(doc, "run.substeps_per_period", int, 1024)
        if substeps < 1:
            raise ConfigError("run.substeps_per_period", "must be >= 1")

        c_const = float(_get(doc, "constants.c_const", (int, float), 1.0))

        state_raw = _get(doc, "initial_state", list, None)
        if state_raw is None:
            d = model.dim
            vec = np.ones(d, dtype=complex) / math.sqrt(d)
            state = np.outer(vec, vec.conj())
        else:
            state = _parse_matrix(state_raw, "initial_state")
            if state.shape[0] != model.dim:
                raise ConfigError("initial_state",
                                  f"dimension {state.shape[0]} != system "
                                  f"dimension {model.dim}")
            try:
                _validate_state(state)
            except ArgumentError as exc:
                raise ConfigError("initial_state", str(exc))

        dd_tol = float(_get(doc, "dd_tol", (int, float), 1e-7))
        if not dd_tol > 0:
            raise ConfigError("dd_tol", "must be positive")
        require_dd = bool(_get(doc, "require_dd", bool,
                               schedule is not None))
        out_dir = _get(doc, "output_dir", str, "out")
        seed = _get(doc, "seed", int, 0)

        return cls(scenario=scenario, model=model, schedule=schedule,
                   form_factor=form_factor, n_modes=n_modes, p_max=p_max,
                   lam=lam, horizon=horizon, sample_dt=sample_dt,
                   substeps_per_period=substeps, c_const=c_const,
                   initial_state=state, dd_tol=dd_tol,
                   require_dd=require_dd, output_dir=out_dir, seed=seed,
                   raw=doc)

    def config_hash(self) -> str:
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


@dataclass
class Report:
    """Assembled experiment results ready for serialization."""

    dd: Optional[dict]
    rates: Optional[dict]
    runs: dict
    sweep: Optional[list]
    provenance: dict

    def as_dict(self) -> dict:
        return {"dd": self.dd, "rates": self.rates, "runs": self.runs,
                "sweep": self.sweep, "provenance": self.provenance}


def _provenance(cfg: ExperimentConfig) -> dict:
    return {
        "scenario": cfg.scenario,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "decoshield": __version__,
        },
    }


def _dd_dict(report: DDReport) -> dict:
    return {
        "residual": report.residual,
        "periodicity_defect": report.periodicity_defect,
        "zero_mode_norm": report.zero_mode_norm,
        "tolerance": report.tolerance,
        "passed": report.passed,
    }


def _run_dict(traj: Trajectory, dev: DeviationReport) -> dict:
    return {
        "sup_deviation": dev.sup_deviation,
        "final_retention": dev.final_retention,
        "final_deviation": float(dev.deviations[-1]),
        "trace_defect": traj.trace_defect,
        "purity_defect": traj.purity_defect,
        "n_samples": int(len(traj.times)),
    }


def _compute_rates(cfg: ExperimentConfig) -> RateSummary:
    """Second-order rate summary of a driven scenario."""
    sf = spectral_function(cfg.form_factor)
    gen = level_shift(cfg.model, cfg.schedule, sf, cfg.lam, dd_tol=cfg.dd_tol)
    return decoherence_time(gen, c_const=cfg.c_const)


def _simulate_pair(cfg: ExperimentConfig):
    """DD-off, then DD-on trajectories with their deviation reports."""
    modes = discretize_modes(cfg.form_factor, cfg.n_modes, cfg.p_max)
    return evolve_pair(TotalModel(system=cfg.model, modes=modes, lam=cfg.lam,
                                  schedule=cfg.schedule),
                       cfg.initial_state, cfg.horizon, cfg.sample_dt,
                       substeps_per_period=cfg.substeps_per_period)


def _run_point(cfg: ExperimentConfig):
    """One pipeline point: decoupling check and verdict, rates, on/off runs.

    Returns the DDReport (None when undriven), the RateSummary and the
    ``_simulate_pair`` results. The rates are None when the run is
    undriven or when the check fails and decoupling is not required.
    Raises DecouplingViolationError when decoupling is required and fails.
    """
    dd = summary = None
    if cfg.schedule is not None:
        dd = check_dd(cfg.model, cfg.schedule, tol=cfg.dd_tol)
        if cfg.require_dd and not dd.passed:
            raise DecouplingViolationError(
                f"scenario {cfg.scenario!r} requires decoupling but the "
                f"schedule fails: zero mode {dd.zero_mode_norm:.3e}",
                zero_mode_norm=dd.zero_mode_norm)
        if dd.passed:
            summary = _compute_rates(cfg)
    return dd, summary, _simulate_pair(cfg)


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> Report:
    """Full pipeline: decoupling check, rates, paired simulation, report.

    Writes trajectory_on.csv, trajectory_off.csv and report.json into the
    output directory. Raises DecouplingViolationError when the scenario
    requires decoupling and the schedule fails the check.
    """
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    dd, summary, results = _run_point(cfg)
    runs = {}
    for label, (traj, dev) in results.items():
        runs[label] = _run_dict(traj, dev)
        write_trajectory_csv(traj, dev, out / f"trajectory_{label}.csv")
    if "on" not in results:
        # never-driven scenario: keep the documented file pair complete
        write_trajectory_csv(*results["off"], out / "trajectory_on.csv")
        runs["on"] = runs["off"]

    report = Report(dd=None if dd is None else _dd_dict(dd),
                    rates=None if summary is None else summary.as_dict(),
                    runs=runs, sweep=None, provenance=_provenance(cfg))
    emit_report(report, "json", out)
    return report


def _fmt(x) -> str:
    return f"{float(x):.17g}"


def write_trajectory_csv(traj: Trajectory, dev: DeviationReport, path):
    """One row per sample: state entries, coherences, deviation, populations."""
    d = traj.reduced_states[0].shape[0]
    cols = ["t"]
    for m in range(d):
        for n in range(d):
            cols += [f"rho_re_{m}{n}", f"rho_im_{m}{n}"]
    pairs = [(m, n) for m in range(d) for n in range(m + 1, d)]
    cols += [f"coherence_{m}{n}" for m, n in pairs]
    cols += ["deviation"]
    cols += [f"pop_{m}" for m in range(d)]
    lines = [",".join(cols)]
    for i, t in enumerate(traj.times):
        rho = traj.reduced_states[i]
        row = [_fmt(t)]
        for m in range(d):
            for n in range(d):
                row += [_fmt(rho[m, n].real), _fmt(rho[m, n].imag)]
        row += [_fmt(abs(rho[m, n])) for m, n in pairs]
        row.append(_fmt(dev.deviations[i]))
        row += [_fmt(rho[m, m].real) for m in range(d)]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")


def _g6(x) -> str:
    """Six significant digits, or null for a missing rate or retention."""
    return "null" if x is None else f"{x:.6g}"


def _set_field(doc: dict, path: str, value) -> dict:
    """Copy of a config document with one dotted field set."""
    doc = copy.deepcopy(doc)
    *parents, leaf = path.split(".")
    node = doc
    for part in parents:
        node = node[part]
    node[leaf] = value
    return doc


def sweep(cfg: ExperimentConfig, axis: str, values) -> list:
    """One pipeline point per axis value.

    Each point is ``cfg.raw`` with the axis field set, parsed again, so
    it passes the validation a config file does; every point is parsed
    before any runs. Returns rows of (value, xi, t_dec, retention,
    sup_deviation); xi and t_dec are None where the point has no rates.
    """
    if axis not in SWEEP_AXES:
        raise ArgumentError(
            f"unknown sweep axis {axis!r}; choose from {tuple(SWEEP_AXES)}")
    values = [float(v) for v in values]
    if len(values) < 2:
        raise ArgumentError("sweep needs at least 2 values")
    if cfg.schedule is None:
        raise ArgumentError("sweep requires a driven scenario")
    if axis == "mu" and cfg.raw["schedule"]["kind"] != "sinusoidal":
        raise ConfigError("schedule.kind",
                          "a mu sweep needs a sinusoidal schedule")

    points = []
    for value in values:
        if axis == "N" and value.is_integer():
            value = int(value)      # the parser takes integer mode counts only
        point = ExperimentConfig.from_dict(
            _set_field(cfg.raw, SWEEP_AXES[axis], value))
        # --seed and --out stay out of raw, hence out of config_hash
        points.append(replace(point, seed=cfg.seed,
                              output_dir=cfg.output_dir))

    rows = []
    for value, point in zip(values, points):
        try:
            _, summary, results = _run_point(point)
        except DecouplingViolationError as exc:
            raise DecouplingViolationError(
                f"sweep point {axis}={value:g}: {exc}",
                zero_mode_norm=exc.zero_mode_norm) from exc
        _, dev_on = results["on"]
        rows.append({
            "value": value,
            "xi": None if summary is None else summary.xi,
            "t_dec": None if summary is None else summary.t_dec,
            "retention": dev_on.final_retention,
            "sup_deviation": dev_on.sup_deviation,
        })
    return rows


def emit_report(report: Report, fmt: str, out_dir) -> Path:
    """Serialize the report deterministically in the requested format."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = report.as_dict()
    if fmt == "json":
        path = out / "report.json"
        path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    elif fmt == "csv":
        path = out / "report.csv"
        lines = ["key,value"]

        def flat(prefix, node):
            if isinstance(node, dict):
                for k in sorted(node):
                    flat(f"{prefix}.{k}" if prefix else str(k), node[k])
            elif isinstance(node, list):
                for i, item in enumerate(node):
                    flat(f"{prefix}[{i}]", item)
            elif node is None or isinstance(node, bool):
                lines.append(f"{prefix},{json.dumps(node)}")
            else:
                val = _fmt(node) if isinstance(node, float) else str(node)
                lines.append(f"{prefix},{val}")

        flat("", data)
        path.write_text("\n".join(lines) + "\n")
    elif fmt == "markdown-summary":
        path = out / "report.md"
        lines = [f"# Experiment report: {report.provenance['scenario']}", ""]
        if report.dd is not None:
            verdict = "pass" if report.dd["passed"] else "fail"
            lines += [f"- decoupling check: **{verdict}** "
                      f"(zero mode {report.dd['zero_mode_norm']:.3e})"]
        if report.rates is not None:
            lines += [f"- rate xi(T): {report.rates['xi']:.6g}",
                      f"- decoherence time t_dec: {report.rates['t_dec']:.6g}"]
        for label, run in sorted(report.runs.items()):
            lines += [f"- run {label}: final retention "
                      f"{_g6(run['final_retention'])}, sup deviation "
                      f"{run['sup_deviation']:.6g}"]
        if report.sweep:
            lines += ["", "| value | xi | t_dec | retention | sup_deviation |",
                      "|---|---|---|---|---|"]
            for row in report.sweep:
                lines.append("| " + " | ".join(
                    _g6(row[k]) for k in
                    ("value", "xi", "t_dec", "retention", "sup_deviation"))
                    + " |")
        path.write_text("\n".join(lines) + "\n")
    else:
        raise ArgumentError(f"unknown report format {fmt!r}")
    return path
