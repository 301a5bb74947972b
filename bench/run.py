"""decoshield benchmark: CLI verbs in-process, closed loop, checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process issues one ``decoshield.cli.main`` verb at a time and waits
for it, as a CLI user does. A pass is the workload's op list; passes
repeat until the next one would overrun ``--seconds`` (at least two, so
that outputs of one seed can be compared byte for byte). Every op's
outputs are checked against the independent references in
``reference.py``; an op that exits non-zero, fails a check, or writes
files that differ from the same op in the first pass counts as failed.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json and
``--trace 1`` the per-layer ones, which come from traced passes
alternating with untraced ones after a warm-up pass (see ``tracing.py``).
Every time reported is in seconds at the reference host pace: the
measured seconds divided by how much slower than that pace the host ran
meanwhile, as ``pace.py`` samples it. The raw seconds are printed too.
The last stdout line is the JSON result; the line before it is the
environment provenance. The program runs on one BLAS thread and
DECOSHIELD_THREADS is unset. See README.md for what each metric should
respond to.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 5
MIN_PASSES = 2
#: xi_rel_err never reads below this: relative errors of a sum of a few
#: dozen doubles are not resolved beyond it, and a metric must not be 0
XI_REL_FLOOR = 1e-12


def _pin_threads() -> int:
    """One BLAS thread; return the number of CPUs this process may use.

    With a BLAS thread per CPU, anything else that runs on the VM stalls
    every BLAS barrier; on one thread the program and the pace ticks share
    a CPU and the other absorbs the rest.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("DECOSHIELD_THREADS", None)
    return len(os.sched_getaffinity(0))


def _provenance(nproc: int) -> dict:
    import numpy
    import scipy

    sha = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or sha
    src = hashlib.sha256()
    for path in sorted((SRC / "decoshield").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            src.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            src.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _setup_seconds(paths, pace) -> tuple:
    """Import plus config parse in fresh processes, SETUP_REPEATS times.

    Returns the times at the reference pace and the raw ones.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)]
    cmd += [str(p) for p in paths]
    paced, raw = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        elapsed, tick = map(float, proc.stdout.strip().splitlines()[-1].split())
        raw.append(elapsed)
        paced.append(elapsed / pace.factor([tick], pace.LOOP_REF_S))
    return paced, raw


class Runner:
    """Closed-loop passes over one workload, with checks and digests."""

    def __init__(self, wl, seed: int, work: Path):
        import decoshield.cli
        import pace
        import workloads

        self.cli = decoshield.cli
        self.checks = workloads
        self.pace = pace
        self.sampler = pace.Sampler()
        self.wl = wl
        self.seed = seed
        self.work = work
        self.digests = {}              # op index -> digest of the first pass
        self.attempted = 0
        self.failures = []             # (pass, op index, verb, message)
        self.xi_pairs = []
        self.passes = 0

    def one_pass(self) -> tuple:
        """Run every op once.

        Returns the summed wall time of the verbs, pace ticks taken out,
        and the factor by which the host ran slower than the reference
        pace over the pass (checks included, for more ticks).
        """
        wall = 0.0
        first_tick = len(self.sampler.ticks)
        for i, op in enumerate(self.wl.ops):
            out = (self.work / "out" / f"p{self.passes}"
                   / f"{i:02d}-{op.config}-{op.verb}")
            argv = [op.verb, "--config", str(self.wl.paths[op.config]),
                    "--out", str(out), "--seed", str(self.seed)]
            log = io.StringIO()
            spent = self.sampler.spent
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    rc = self.cli.main(argv)
            except Exception:
                rc = None
                log.write(traceback.format_exc(limit=4))
            wall += time.perf_counter() - start - (self.sampler.spent - spent)
            self.attempted += 1
            problems = self._inspect(i, op, rc, log.getvalue(), out)
            if problems:
                self.failures.append((self.passes, i, op.verb, "; ".join(problems)))
        self.passes += 1
        return wall, self.pace.factor(self.sampler.ticks[first_tick:])

    def _inspect(self, i, op, rc, log, out) -> list:
        if rc != 0:
            return [f"exit code {rc}: {log.strip()[-400:]}"]
        try:
            result = self.checks.check(op, self.wl.configs[op.config], out)
        except Exception:
            return ["check raised: " + traceback.format_exc(limit=2).strip()[-400:]]
        self.xi_pairs += result.xi_pairs
        problems = list(result.problems)
        digest = self.checks.output_digest(out)
        if self.digests.setdefault(i, digest) != digest:
            problems.append("outputs differ from the first pass of this seed")
        return problems

    def loop(self, seconds: float, tracer=None):
        """Passes until the next would overrun.

        With a tracer, odd passes are traced and the first pass is a
        warm-up left out of the untraced times: a fresh process pays a
        one-off cost in its first pass that would read as negative
        tracing overhead. Pass times and per-layer times are at the
        reference pace; ``raw`` has the untraced pass times as measured.
        """
        untraced, traced, layers, raw, durations = [], [], [], [], []
        min_passes = MIN_PASSES if tracer is None else MIN_PASSES + 1
        begin = time.perf_counter()
        self.sampler.start()
        try:
            while True:
                use_trace = tracer is not None and self.passes % 2 == 1
                pass_start = time.perf_counter()
                if use_trace:
                    tracer.reset()
                    tracer.install()
                    try:
                        wall, slow = self.one_pass()
                    finally:
                        tracer.uninstall()
                    traced.append((wall - tracer.probe_s) / slow)
                    layers.append({name: value / slow if name.endswith("_s")
                                   else value
                                   for name, value in tracer.metrics().items()})
                else:
                    wall, slow = self.one_pass()
                    if tracer is None or self.passes > 1:
                        untraced.append(wall / slow)
                        raw.append(wall)
                durations.append(time.perf_counter() - pass_start)
                elapsed = time.perf_counter() - begin
                if (self.passes >= min_passes
                        and elapsed + statistics.median(durations) > seconds):
                    return untraced, traced, layers, raw
        finally:
            self.sampler.stop()


def _xi_rel_err(pairs) -> float:
    errs = [abs(got - ref) / ref for got, ref in pairs]
    return max(errs + [XI_REL_FLOOR])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = _pin_threads()
    if not (SRC / "decoshield" / "cli.py").is_file():
        print(f"benchmark: no decoshield sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import decoshield
    import pace
    import tracing
    import workloads

    if Path(decoshield.__file__).resolve().parent != SRC / "decoshield":
        print(f"benchmark: imported {decoshield.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, ROOT, work / "configs")
        runner = Runner(wl, args.seed, work)
        if args.trace:
            untraced, traced, layers, raw = runner.loop(args.seconds,
                                                        tracing.Tracer())
            values = {name: statistics.median(p[name] for p in layers)
                      for name in layers[0]}
            values["trace.overhead_s"] = (statistics.median(traced)
                                          - statistics.median(untraced))
            detail = {"untraced_pass_s": untraced, "traced_pass_s": traced,
                      "untraced_pass_raw_s": raw}
        else:
            untraced, _, _, raw = runner.loop(args.seconds)
            setup, setup_raw = _setup_seconds(wl.paths.values(), pace)
            values = {
                "wall_s": statistics.median(untraced),
                "setup_s": statistics.median(setup),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "xi_rel_err": _xi_rel_err(runner.xi_pairs),
            }
            detail = {"pass_s": untraced, "setup_s": setup,
                      "pass_raw_s": raw, "setup_raw_s": setup_raw,
                      "xi_compared": len(runner.xi_pairs)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(values) != set(units):
        raise SystemExit(f"benchmark: metrics {sorted(set(values) ^ set(units))} "
                         "do not match BENCHMARK.json")

    failed = len(runner.failures)
    for p, i, verb, message in runner.failures[:10]:
        print(f"FAILED pass {p} op {i} ({verb}): {message}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.passes} passes, {runner.attempted} ops, {failed} failed")
    for name, unit in units.items():
        print(f"  {name:36s} {values[name]!r} {unit}")
    print(f"  {'error_rate':36s} {failed / runner.attempted!r} "
          f"(failed or wrong ops / attempted ops)")
    for name, times in (("wall_s", raw), ("setup_s", detail.get("setup_raw_s"))):
        if times:
            print(f"  {name + ' (raw)':36s} {statistics.median(times)!r} s "
                  "(as measured, not at the reference pace)")
    print(f"  {'pace ticks':36s} {len(runner.sampler.ticks)} "
          f"(mean {statistics.fmean(runner.sampler.ticks)!r} s, "
          f"reference {pace.REF_S!r} s)")
    provenance = _provenance(nproc)
    result = {"correct": failed == 0, "attempted": runner.attempted,
              "failed": failed,
              "metrics": {n: {"value": values[n], "unit": u}
                          for n, u in units.items()}}
    results = HERE / "_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "detail": detail,
                    "failures": runner.failures, "provenance": provenance},
                   indent=2) + "\n")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
