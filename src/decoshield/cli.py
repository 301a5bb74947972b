"""Command-line front end.

One verb per capability: check-dd, tune-mu, fourier, rates, simulate,
sweep, compare. Every verb reads a single JSON config; --out, --seed and
--format override the corresponding config/report settings. Exit codes:
0 success, 1 invalid config or arguments, 2 decoupling failure in a
scenario that requires decoupling, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .control import check_dd, fourier_modes, operator_norm, tune_amplitude
from .errors import (ArgumentError, ConfigError, DecouplingViolationError,
                     NumericError, ResourceError, TuneSearchError)
from .experiments import (SWEEP_AXES, ExperimentConfig, Report,
                          _compute_rates, _g6, _provenance,
                          emit_report, run_experiment, sweep)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DD = 2
EXIT_NUMERIC = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decoshield",
        description="Decoherence suppression by periodic forcing: "
                    "decoupling checks, rates and exact simulation.")
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="path to the JSON scenario config")
        p.add_argument("--out", default=None,
                       help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None,
                       help="seed recorded in the report provenance; "
                            "it changes no output")
        p.add_argument("--format", default="json",
                       choices=["json", "csv", "markdown-summary"],
                       help="report serialization format")
        return p

    add("check-dd", "verify the dynamical decoupling condition")
    tune = add("tune-mu", "find the amplitude nulling the zero mode")
    tune.add_argument("--bracket", type=float, nargs=2, default=[6.0, 9.0],
                      metavar=("LO", "HI"), help="amplitude search bracket")
    add("fourier", "tabulate Fourier modes of the rotated coupling")
    add("rates", "second-order rates and decoherence time")
    add("simulate", "exact simulation with forcing on and off")
    swp = add("sweep", "run the pipeline along a parameter axis")
    swp.add_argument("--axis", required=True, choices=list(SWEEP_AXES))
    swp.add_argument("--values", required=True,
                     help="comma-separated axis values")
    add("compare", "simulate and summarize on/off coherence retention")
    return parser


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    return cfg


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_check_dd(args, cfg) -> int:
    if cfg.schedule is None:
        print("schedule: off (nothing to check)")
        return EXIT_OK
    report = check_dd(cfg.model, cfg.schedule, tol=cfg.dd_tol)
    print(report)
    if cfg.require_dd and not report.passed:
        return EXIT_DD
    return EXIT_OK


def _cmd_tune_mu(args, cfg) -> int:
    if cfg.schedule is None or cfg.schedule.kind != "smooth":
        raise ConfigError("schedule.kind",
                          "tune-mu needs a smooth schedule")
    mu_star = tune_amplitude(cfg.model, cfg.schedule, args.bracket)
    print(f"mu* = {mu_star:.12g}")
    out = _out_dir(cfg)
    (out / "tuned_mu.json").write_text(
        json.dumps({"mu_star": mu_star, "bracket": list(args.bracket)},
                   indent=2) + "\n")
    return EXIT_OK


def _cmd_fourier(args, cfg) -> int:
    if cfg.schedule is None:
        raise ConfigError("schedule.kind", "fourier needs a driven schedule")
    table = fourier_modes(cfg.model, cfg.schedule)
    out = _out_dir(cfg)
    lines = ["k,a,norm"]
    for (k, w) in sorted(table.bohr):
        lines.append(f"{k},{w:.17g},{operator_norm(table.bohr[(k, w)]):.17g}")
    (out / "fourier.csv").write_text("\n".join(lines) + "\n")
    print(f"cutoff K = {table.cutoff}, Parseval defect = "
          f"{table.parseval_defect:.3e}, zero mode = "
          f"{table.zero_mode_norm():.3e}")
    return EXIT_OK


def _cmd_rates(args, cfg) -> int:
    if cfg.schedule is None:
        raise ConfigError("schedule.kind", "rates need a driven schedule")
    dd = check_dd(cfg.model, cfg.schedule, tol=cfg.dd_tol)
    if not dd.passed:
        raise DecouplingViolationError(
            f"rates require decoupling; zero mode {dd.zero_mode_norm:.3e}",
            zero_mode_norm=dd.zero_mode_norm)
    summary = _compute_rates(cfg)
    report = Report(dd={"zero_mode_norm": dd.zero_mode_norm,
                        "passed": dd.passed},
                    rates=summary.as_dict(), runs={}, sweep=None,
                    provenance=_provenance(cfg))
    emit_report(report, args.format, _out_dir(cfg))
    print(f"xi = {summary.xi:.9g}, t_dec = {summary.t_dec:.9g}")
    return EXIT_OK


def _cmd_simulate(args, cfg) -> int:
    report = run_experiment(cfg)
    if args.format != "json":
        emit_report(report, args.format, _out_dir(cfg))
    for label in ("on", "off"):
        run = report.runs[label]
        print(f"run {label:3s}: retention {_g6(run['final_retention'])}, "
              f"sup deviation {run['sup_deviation']:.6g}")
    return EXIT_OK


def _cmd_sweep(args, cfg) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ArgumentError(f"could not parse --values {args.values!r}")
    rows = sweep(cfg, args.axis, values)
    report = Report(dd=None, rates=None, runs={}, sweep=rows,
                    provenance=_provenance(cfg))
    emit_report(report, args.format, _out_dir(cfg))
    for row in rows:
        print(f"{args.axis}={row['value']:g}: xi={_g6(row['xi'])}, "
              f"t_dec={_g6(row['t_dec'])}, retention={_g6(row['retention'])}")
    return EXIT_OK


def _cmd_compare(args, cfg) -> int:
    report = run_experiment(cfg)
    if args.format != "json":
        emit_report(report, args.format, _out_dir(cfg))
    on, off = (report.runs[k]["final_retention"] for k in ("on", "off"))
    ratio = ("null" if on is None or off is None
             else f"{on / off if off > 0 else np.inf:.3g}")
    print(f"retention on/off = {_g6(on)} / {_g6(off)} (ratio {ratio})")
    return EXIT_OK


_COMMANDS = {
    "check-dd": _cmd_check_dd,
    "tune-mu": _cmd_tune_mu,
    "fourier": _cmd_fourier,
    "rates": _cmd_rates,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args)
        return _COMMANDS[args.verb](args, cfg)
    except (ConfigError, ResourceError, ArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DecouplingViolationError as exc:
        print(f"decoupling failure: {exc}", file=sys.stderr)
        return EXIT_DD
    except (NumericError, TuneSearchError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        if isinstance(exc, TuneSearchError) and exc.scan:
            print("scan (mu, surrogate):", file=sys.stderr)
            for mu, val in exc.scan:
                print(f"  {mu:.12g}, {val:.12g}", file=sys.stderr)
        if isinstance(exc, NumericError):
            for key, val in exc.diagnostics.items():
                print(f"  {key} = {val}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
