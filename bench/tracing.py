"""Per-layer spans recorded from outside the program.

The tracer replaces public functions of the decoshield modules with
timing wrappers, in every module namespace that bound them, and puts the
originals back afterwards. Spans are kept in memory as (name, start, end,
parent); a layer's self time is its duration minus its direct children.
Functions a later version of the program no longer has are skipped, and
their layers read 0.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import defaultdict

import numpy as np

#: (module, attribute) -> span name; ExperimentConfig.from_file is a classmethod
LAYERS = {
    ("decoshield.cli", "main"): "cli.main",
    ("decoshield.control", "check_dd"): "control.check_dd",
    ("decoshield.control", "tune_amplitude"): "control.tune_amplitude",
    ("decoshield.control", "fourier_modes"): "control.fourier_modes",
    ("decoshield.operators", "matrix_exp"): "operators.matrix_exp",
    ("decoshield.reservoir", "spectral_function"): "reservoir.spectral_function",
    ("decoshield.reservoir", "pv_integral"): "reservoir.pv_integral",
    ("decoshield.reservoir", "discretize_modes"): "reservoir.discretize_modes",
    ("decoshield.weak_coupling", "level_shift"): "weak_coupling.level_shift",
    ("decoshield.simulate", "evolve"): "simulate.evolve",
    ("decoshield.simulate", "compare_with_effective"):
        "simulate.compare_with_effective",
    ("decoshield.experiments", "write_trajectory_csv"): "experiments.write_outputs",
    ("decoshield.experiments", "emit_report"): "experiments.write_outputs",
}


class Tracer:
    """Spans and counters of one traced pass at a time."""

    def __init__(self):
        self._patched = []             # (owner, attribute, original)
        self._stack = []
        self.reset()

    def reset(self):
        self.spans = []                # [name, start, end, parent index]
        self.values = defaultdict(list)
        self.probe_s = 0.0             # time spent in evolve set-up probes

    # -- installation ------------------------------------------------------

    def install(self):
        for (modname, attr), span in LAYERS.items():
            mod = sys.modules.get(modname)
            original = getattr(mod, attr, None)
            if original is None:
                continue
            after = self._evolve_probe if span == "simulate.evolve" else None
            self._rebind(original, self._wrap(span, original, after))
        cls = getattr(sys.modules.get("decoshield.experiments"),
                      "ExperimentConfig", None)
        if cls is not None and isinstance(cls.__dict__.get("from_file"),
                                          classmethod):
            original = cls.__dict__["from_file"]
            wrapped = classmethod(self._wrap("experiments.config_parse",
                                             original.__func__))
            setattr(cls, "from_file", wrapped)
            self._patched.append((cls, "from_file", original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _rebind(self, original, wrapper):
        for name, mod in list(sys.modules.items()):
            if name != "decoshield" and not name.startswith("decoshield."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, original))

    def _wrap(self, span, fn, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            record = [span, time.perf_counter(), None, parent]
            tracer.spans.append(record)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            tracer._observe(span, result)
            if after is not None:
                after(fn, record, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- sizes and probes ----------------------------------------------------

    def _observe(self, span, result):
        if span == "control.fourier_modes":
            self.values["fourier_cutoff"].append(getattr(result, "cutoff", 0))
        elif span == "weak_coupling.level_shift":
            self.values["k_used"].append(getattr(result, "k_used", 0))

    def _evolve_probe(self, fn, record, args, kwargs):
        """Size the call and time ``evolve`` again with t_final = 0.

        The probe is recorded as a ``trace.probe`` span so that it counts
        as nobody's self time, and ``probe_s`` lets the caller take it out
        of the pass wall time.
        """
        sig = inspect.signature(fn)
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            return
        bound.apply_defaults()
        tm = bound.arguments.get("tm")
        sched = getattr(tm, "schedule", None)
        record[0] = ("simulate.evolve_driven" if sched is not None
                     else "simulate.evolve_undriven")
        self.values["dim_total"].append(getattr(tm, "dim_total", 0))
        rho = np.asarray(bound.arguments.get("rho_s0", np.zeros((1, 1))))
        modes = getattr(getattr(tm, "modes", None), "n_modes", 0)
        self.values["ensemble_size"].append(
            int(np.sum(np.linalg.eigvalsh(rho) > 1e-14)) * 2**modes)
        t_final = bound.arguments.get("t_final")
        if t_final is None:
            return
        if sched is not None:
            self.values["periods"].append(
                math.floor(t_final / sched.period + 1e-9))
            self.values["substeps"].append(
                bound.arguments.get("substeps_per_period", 0))
        bound.arguments["t_final"] = 0.0
        probe = ["trace.probe", time.perf_counter(), None,
                 self._stack[-1] if self._stack else None]
        self.spans.append(probe)
        fn(*bound.args, **bound.kwargs)
        probe[2] = time.perf_counter()
        elapsed = probe[2] - probe[1]
        self.values["evolve_setup_s"].append(elapsed)
        self.values["evolve_full_s"].append(record[2] - record[1])
        self.probe_s += elapsed

    # -- metrics -------------------------------------------------------------

    def _total(self, name):
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def _count(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def _self(self, name):
        children = defaultdict(float)
        for s in self.spans:
            if s[3] is not None:
                children[s[3]] += s[2] - s[1]
        return sum(s[2] - s[1] - children[i]
                   for i, s in enumerate(self.spans) if s[0] == name)

    def metrics(self) -> dict:
        """Per-layer figures of the pass recorded since the last reset."""
        v = self.values
        mean = lambda xs: float(np.mean(xs)) if xs else 0.0
        setup = sum(v["evolve_setup_s"])
        return {
            "control.check_dd_s": self._total("control.check_dd"),
            "control.check_dd_calls": self._count("control.check_dd"),
            "control.tune_amplitude_s": self._total("control.tune_amplitude"),
            "control.fourier_modes_s": self._total("control.fourier_modes"),
            "control.fourier_cutoff": mean(v["fourier_cutoff"]),
            "operators.matrix_exp_s": self._total("operators.matrix_exp"),
            "operators.matrix_exp_calls": self._count("operators.matrix_exp"),
            "reservoir.spectral_function_s":
                self._total("reservoir.spectral_function"),
            "reservoir.pv_integral_s": self._total("reservoir.pv_integral"),
            "reservoir.pv_integral_calls": self._count("reservoir.pv_integral"),
            "reservoir.discretize_modes_s":
                self._total("reservoir.discretize_modes"),
            "weak_coupling.level_shift_s": self._self("weak_coupling.level_shift"),
            "weak_coupling.k_used": mean(v["k_used"]),
            "simulate.evolve_driven_s": self._total("simulate.evolve_driven"),
            "simulate.evolve_undriven_s": self._total("simulate.evolve_undriven"),
            "simulate.evolve_setup_s": setup,
            "simulate.evolve_stepping_s": sum(v["evolve_full_s"]) - setup,
            "simulate.compare_with_effective_s":
                self._total("simulate.compare_with_effective"),
            "simulate.dim_total": max(v["dim_total"], default=0),
            "simulate.ensemble_size": max(v["ensemble_size"], default=0),
            "simulate.periods": sum(v["periods"]),
            "simulate.substeps": max(v["substeps"], default=0),
            "experiments.config_parse_s": self._total("experiments.config_parse"),
            "experiments.write_outputs_s": self._total("experiments.write_outputs"),
            "cli.main_self_s": self._self("cli.main"),
        }
