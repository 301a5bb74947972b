"""Workload inputs generated from a seed, and the checks on verb outputs.

Every workload is a list of CLI verb invocations (one pass). The configs
are JSON documents the CLI reads; only the seed decides them. The checks
compare what a verb wrote against ``reference``, never against numbers
captured from the code under test.

README.md says why each workload exists and what it should respond to.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference

WORKLOADS = ("paper_sinusoidal", "bangbang_kicks", "rates_scan")

BUNDLED = Path("src") / "decoshield" / "scenarios" / "spin_fermion_sinusoidal.json"

#: rates_scan periods: STRATA equal strata over (T_LO, T_HI)
T_LO, T_HI, STRATA = 0.05, 1.5, 8

#: the simulator's Strang error is about 1e-8 in rho; a more exact backend
#: must also pass, so the state tolerance sits well above it
STATE_TOL = 1e-6
NORM_TOL = 1e-9
MU_TOL = 1e-8
#: smooth ladders decay super-exponentially, so their xi must match the
#: full sum; a two-kick xi may only fall short of it (see XI_APPLIES)
XI_TOL = 1e-9
#: xi_rel_err covers only rates above this (smaller ones underflow)
XI_APPLIES = 1e-30


@dataclass
class Op:
    """One CLI invocation: ``decoshield <verb> --config <config>``."""

    config: str
    verb: str


@dataclass
class Workload:
    configs: dict                      # config name -> JSON document
    ops: list                          # one pass, in order
    paths: dict = field(default_factory=dict)   # config name -> file


def _two_kick(period: float, alpha: float) -> dict:
    return {"kind": "bangbang", "period": period,
            "phases": [alpha, alpha + 0.5],
            "weights": [math.pi / 2, -math.pi / 2]}


def _sinusoidal(period: float) -> dict:
    return {"kind": "sinusoidal", "period": period, "mu": reference.MU_STAR}


def build(name: str, seed: int, root: Path, work: Path) -> Workload:
    """Configs and the op list of one pass; config files go under ``work``."""
    bundled_path = root / BUNDLED
    bundled = json.loads(bundled_path.read_text())
    rng = random.Random(seed)
    if name == "paper_sinusoidal":
        wl = Workload({"paper": bundled}, [Op("paper", "simulate")])
        wl.paths["paper"] = bundled_path
        return wl
    if name == "bangbang_kicks":
        doc = dict(bundled, scenario="bangbang-kicks",
                   schedule=_two_kick(bundled["schedule"]["period"],
                                      rng.uniform(0.05, 0.45)))
        wl = Workload({"kicks": doc}, [Op("kicks", "simulate")])
    elif name == "rates_scan":
        configs, ops = {}, []
        width = (T_HI - T_LO) / STRATA
        for i in range(STRATA):
            period = T_LO + (i + rng.random()) * width
            lam = rng.uniform(0.02, 0.08)
            if i % 2 == 0:
                sched, verbs = _sinusoidal(period), ("tune-mu", "check-dd",
                                                     "fourier", "rates")
            else:
                sched, verbs = (_two_kick(period, rng.uniform(0.05, 0.45)),
                                ("check-dd", "fourier", "rates"))
            cname = f"scan{i}"
            configs[cname] = dict(bundled, scenario=f"rates-scan-{i}",
                                  schedule=sched, coupling=lam)
            ops += [Op(cname, v) for v in verbs]
        wl = Workload(configs, ops)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    work.mkdir(parents=True, exist_ok=True)
    for cname, doc in wl.configs.items():
        path = work / f"{cname}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        wl.paths[cname] = path
    return wl


def output_digest(out_dir: Path) -> str:
    """sha256 over every file a verb wrote, names included."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


class Checks:
    """Problems found in one op's outputs, plus the xi comparisons made."""

    def __init__(self):
        self.problems = []
        self.xi_pairs = []             # (reported xi, reference xi)

    def expect(self, ok: bool, message: str):
        if not ok:
            self.problems.append(message)

    def xi(self, got, sched: dict, beta: float):
        ref = reference.xi_reference(sched, beta)
        if not (isinstance(got, float) and math.isfinite(got) and got >= 0.0):
            self.problems.append(f"xi = {got!r} is not a finite rate")
            return
        if ref <= XI_APPLIES:
            return
        self.xi_pairs.append((got, ref))
        self.expect(got <= ref * (1.0 + XI_TOL),
                    f"xi {got!r} exceeds the full closed-form sum {ref!r}")
        if sched["kind"] == "sinusoidal":
            self.expect(abs(got - ref) <= XI_TOL * ref,
                        f"xi {got!r} != closed form {ref!r}")


def check(op: Op, doc: dict, out: Path) -> Checks:
    c = Checks()
    sched, beta = doc["schedule"], doc["reservoir"]["beta"]
    if op.verb == "tune-mu":
        mu = json.loads((out / "tuned_mu.json").read_text())["mu_star"]
        c.expect(abs(mu - reference.MU_STAR) <= MU_TOL,
                 f"mu* = {mu!r}, expected pi*j01 = {reference.MU_STAR!r}")
    elif op.verb == "fourier":
        with open(out / "fourier.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        c.expect(any(abs(int(r["k"])) == 1 for r in rows), "no k = +-1 mode")
        for r in rows:
            k, norm = int(r["k"]), float(r["norm"])
            ref = reference.ladder_norm(sched, k)
            c.expect(abs(norm - ref) <= NORM_TOL,
                     f"ladder norm k={k} a={r['a']}: {norm!r} vs {ref!r}")
    elif op.verb == "rates":
        c.xi(json.loads((out / "report.json").read_text())["rates"]["xi"],
             sched, beta)
    elif op.verb == "simulate":
        report = json.loads((out / "report.json").read_text())
        if report.get("rates") is not None:
            c.xi(report["rates"]["xi"], sched, beta)
        for label, driven in (("on", True), ("off", False)):
            _check_trajectory(c, doc, driven, out / f"trajectory_{label}.csv",
                              report["runs"][label]["final_retention"])
    return c


def _check_trajectory(c: Checks, doc: dict, driven: bool, path: Path,
                      retention: float):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    run = doc["run"]
    times = np.array([float(r["t"]) for r in rows])
    expected = np.arange(len(times)) * run["sample_dt"]
    c.expect(len(rows) == round(run["horizon"] / run["sample_dt"]) + 1
             and np.allclose(times, expected, atol=1e-9),
             f"{path.name}: unexpected sample times")
    ref = reference.reduced_states(doc, driven, expected)
    got = np.array([[float(r["pop_0"]), float(r["rho_re_01"]),
                     float(r["rho_im_01"])] for r in rows])
    err = float(np.max(np.abs(got - ref)))
    c.expect(err <= STATE_TOL,
             f"{path.name}: reduced state off the Majorana reference by {err:.3e}")
    coherence = np.hypot(ref[:, 1], ref[:, 2])
    got_coh = np.array([float(r["coherence_01"]) for r in rows])
    c.expect(float(np.max(np.abs(got_coh - coherence))) <= STATE_TOL,
             f"{path.name}: coherence off the Majorana reference")
    c.expect(abs(retention - coherence[-1] / coherence[0]) <= STATE_TOL,
             f"{path.name}: final retention {retention!r} vs "
             f"{float(coherence[-1] / coherence[0])!r}")
