"""Benchmark of the ``twophase`` command line, end to end and per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark runs the package
from ``src/`` (``python3 -m twophase.cli`` with ``PYTHONPATH=src``), one
invocation at a time, for about ``--seconds`` seconds, and checks every
invocation's artifacts against the answers in the workload file and the
references in ``checks.py``.  Workloads are the files in ``workloads/``;
each says why it was chosen.  The seed sets the small input changes each
workload file lists under ``seeded``.

With ``--trace 0`` the run reports the end-to-end metrics:

  wall_s        median wall time of one CLI invocation, process start to exit
  setup_s       median over fresh processes of ``import twophase`` +
                ``parse_scenario`` + ``assemble`` on the workload's scenario
  peak_rss_mb   median peak RSS of the CLI child (its own rusage, from wait4)
  points_per_s  sweep points per second of wall_s; one point per invocation
                for the other commands
  s_A_relerr    |reported s_A - exact| / max(|exact|, 1), the largest over
                sweep points, floored at checks.S_A_RESOLUTION
  ok_ratio      share of the operations (setup processes and invocations)
                that exited 0, left parseable artifacts and passed every
                answer check

With ``--trace 1`` the run starts one untimed set-up process to warm the
file cache, then alternates plain invocations with invocations
under ``child.py trace``, which wraps the package's public functions from
outside, and reports the per-module metrics in ``PER_LAYER`` as medians
over the traced invocations, plus ``trace.overhead_s``, the traced minus
the plain median wall time.  A module the workload never calls reads 0.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The line before it records the workload, seed, thread pins, and the
Python, numpy, scipy and OpenBLAS versions.  Artifacts go to a temporary
directory under ``.perfbench_out/`` that is removed at the end; the spans
of the last traced invocation are kept there as ``<workload>.spans.json``.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

from checks import (check_report, check_sweep, exact_s_A, read_sweep_csv,
                    s_A_error)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = HERE / "workloads"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "points_per_s": "1/s",
    "s_A_relerr": "ratio",
    "ok_ratio": "ratio",
}

PER_LAYER = {
    "evolution.steps": "count",
    "evolution.step_s": "s",
    "evolution.evolve_s": "s",
    "evolution.mass_balance_s": "s",
    "operators.assemble_s": "s",
    "operators.factorizations": "count",
    "operators.factorize_s": "s",
    "operators.factor_cache_mb": "MB-computed",
    "spectral.spectral_bound_s": "s",
    "spectral.probe_s": "s",
    "spectral.duhamel_solves": "count",
    "spectral.duhamel_s": "s",
    "spectral.detect_aeg_s": "s",
    "criteria.full_verdict_s": "s",
    "scenario.parse_s": "s",
    "model.build_kernel_s": "s",
    "report.write_s": "s",
    "report.bytes_written": "bytes",
    "cli.point_s": "s",
    "cli.pool_efficiency": "ratio",
    "trace.overhead_s": "s",
}

# span name whose total time per invocation is the metric
_SPAN_TOTALS = {
    "evolution.evolve_s": "evolution.evolve",
    "evolution.mass_balance_s": "evolution.mass_balance",
    "operators.assemble_s": "operators.assemble",
    "spectral.spectral_bound_s": "spectral.spectral_bound",
    "spectral.probe_s": "spectral.sB_probe_infinite",
    "spectral.duhamel_s": "spectral.duhamel_solve",
    "spectral.detect_aeg_s": "spectral.detect_AEG",
    "criteria.full_verdict_s": "criteria.full_verdict",
    "scenario.parse_s": "scenario.scenario_from_dict",
    "model.build_kernel_s": "model.build_kernel",
    "report.write_s": "report.atomic_write_text",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or workload)."""


def load_workload(name: str) -> dict:
    path = WORKLOADS / f"{name}.json"
    if not path.is_file():
        known = sorted(p.stem for p in WORKLOADS.glob("*.json"))
        raise BenchError(f"unknown workload {name!r}; known: {known}")
    with open(path) as f:
        workload = json.load(f)
    workload["name"] = name
    return workload


def set_path(doc: dict, dotted: str, value) -> None:
    *parents, last = dotted.split(".")
    for key in parents:
        doc = doc[key]
    doc[last] = value


def with_overrides(workload: dict, overrides: dict) -> dict:
    """A copy of ``workload`` whose scenario has ``overrides`` applied."""
    workload = copy.deepcopy(workload)
    for dotted, value in overrides.items():
        set_path(workload["scenario"], dotted, value)
    return workload


def seeded_scenario(workload: dict, seed: int) -> dict:
    rng = random.Random(seed)
    return with_overrides(workload, {
        dotted: lo + (hi - lo) * rng.random()
        for dotted, (lo, hi) in sorted(workload.get("seeded", {}).items())
    })["scenario"]


def sweep_values(text: str) -> list:
    """The points of an ``a:b:step`` range, as the CLI enumerates them."""
    a, b, step = (float(x) for x in text.split(":"))
    count = int(math.floor((b - a) / step + 1e-9)) + 1
    return [a + k * step for k in range(count)]


def thread_pins(workload: dict) -> dict:
    """BLAS and pool threads, capped so their product stays <= nproc."""
    nproc = os.cpu_count() or 1
    blas = max(1, min(workload["threads"]["blas"], nproc))
    pool = max(1, min(workload["threads"]["pool"], nproc // blas))
    return {"nproc": nproc, "blas": blas, "pool": pool}


def child_env(pins: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(pins["blas"])
    env["TWOPHASE_THREADS"] = str(pins["pool"])
    return env


def environment(pins: dict) -> dict:
    import numpy
    import scipy

    def blas(mod):
        info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": pins["nproc"],
        "blas_threads": pins["blas"],
        "twophase_threads": pins["pool"],
    }


def spawn(cmd: list, env: dict, workdir: Path) -> dict:
    """Run one child to completion; return its exit code, wall time,
    peak RSS and output.  The child is killed after CHILD_TIMEOUT_S."""
    with open(workdir / "stdout", "w+") as out, \
            open(workdir / "stderr", "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return {"rc": proc.returncode, "wall": wall,
                "rss_mb": usage.ru_maxrss / 1024.0,
                "stdout": out.read(), "stderr": err.read()}


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: dict, doc: dict, workdir: Path):
        self.workload = workload
        self.doc = doc
        self.workdir = workdir
        self.pins = thread_pins(workload)
        self.env = child_env(self.pins)
        self.scenario_path = workdir / "scenario.json"
        with open(self.scenario_path, "w") as f:
            json.dump(doc, f)
        self.values = None
        if workload["command"] == "sweep":
            key, rng = workload["vary"]
            self.values = sweep_values(rng)
            self.exact = []
            for v in self.values:
                point = copy.deepcopy(doc)
                set_path(point, key, v)
                self.exact.append(exact_s_A(point))
        else:
            self.exact = exact_s_A(doc)
        self.ops = []
        self.failures = []

    def _fail(self, what: str, res: dict) -> None:
        self.failures.append(what)
        tail = res["stderr"].strip().splitlines()[-3:]
        print(f"failed: {what}" + "".join(f"\n  {t}" for t in tail),
              file=sys.stderr)

    def setup(self) -> float:
        res = spawn([sys.executable, str(HERE / "child.py"), "setup",
                     str(self.scenario_path)], self.env, self.workdir)
        self.ops.append(res)
        try:
            return float(res["stdout"].strip().splitlines()[-1])
        except (ValueError, IndexError):
            self._fail(f"setup exited {res['rc']}", res)
            return res["wall"]

    def invoke(self, traced: bool) -> dict:
        wl = self.workload
        out = self.workdir / f"out{len(self.ops)}"
        args = [wl["command"], str(self.scenario_path), "--out", str(out)]
        if wl["command"] == "sweep":
            args += ["--vary", *wl["vary"]]
        if traced:
            spans = OUT / f"{wl['name']}.spans.json"
            cmd = [sys.executable, str(HERE / "child.py"), "trace", str(spans)]
        else:
            cmd = [sys.executable, "-m", "twophase.cli"]
        res = spawn(cmd + args, self.env, self.workdir)
        res["traced"] = traced
        self.ops.append(res)
        if res["rc"] != 0:
            self._fail(f"{wl['command']} exited {res['rc']}", res)
            return res
        try:
            failed, res["s_A_relerr"] = self._check(out)
            if traced:
                with open(spans) as f:
                    res["spans"] = json.load(f)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self._fail(f"unreadable artifact: {exc!r}", res)
            return res
        if failed:
            self._fail(f"answer checks {failed}", res)
        return res

    def _check(self, out: Path):
        wl, doc = self.workload, self.doc
        name = doc["name"]
        if wl["command"] == "sweep":
            rows = read_sweep_csv(out / f"{name}_sweep.csv")
            failed = check_sweep(rows, wl["expect"], doc, wl["vary"][0],
                                 self.values)
            errs = [s_A_error(r["s_A"], e) for r, e in zip(rows, self.exact)]
            return failed, max(errs) if errs else None
        with open(out / f"{name}_report.json") as f:
            report = json.load(f)
        failed = check_report(report, wl["expect"], doc)
        if wl["command"] == "report":
            run = doc["run"]
            steps = math.ceil(run["T"] / run["dt"] - 1e-12)
            for suffix, rows in (("trajectory", steps + 1),
                                 ("profile", doc["domain"]["n"])):
                with open(out / f"{name}_{suffix}.csv") as f:
                    if sum(1 for _ in f) != rows + 1:
                        failed.append(f"{suffix}_rows")
        return failed, s_A_error(report["spectral"]["s_A"], self.exact)


def _median(xs, default=0.0):
    xs = [x for x in xs if x is not None]
    return statistics.median(xs) if xs else default


def layer_metrics(doc: dict, workers: int) -> dict:
    """Per-module metrics of one traced invocation, from its spans."""
    spans = doc["spans"]
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s["end"] - s["start"])
    out = {m: float(sum(by_name.get(n, []))) for m, n in _SPAN_TOTALS.items()}
    out["evolution.steps"] = len(by_name.get("evolution.step_implicit", []))
    out["evolution.step_s"] = _median(by_name.get("evolution.step_implicit", []))
    new = [s for s in spans
           if s["name"] == "operators.factorization" and s.get("new")]
    out["operators.factorizations"] = len(new)
    out["operators.factorize_s"] = _median(s["end"] - s["start"] for s in new)
    per_gen = {}
    for s in new:
        per_gen[s["gen"]] = per_gen.get(s["gen"], 0) + s["bytes"]
    out["operators.factor_cache_mb"] = max(per_gen.values(), default=0) / 2**20
    out["spectral.duhamel_solves"] = len(by_name.get("spectral.duhamel_solve", []))
    out["report.bytes_written"] = sum(
        s.get("bytes", 0) for s in spans if s["name"] == "report.atomic_write_text")
    points = by_name.get("cli._sweep_point", [])
    out["cli.point_s"] = _median(points)
    main_s = doc["main"]["end"] - doc["main"]["start"]
    out["cli.pool_efficiency"] = sum(points) / (workers * main_s) if points else 0.0
    return out


def measure(workload: dict, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``workload`` for about ``seconds`` and return the result."""
    if not (SRC / "twophase" / "cli.py").is_file():
        raise BenchError(f"no twophase sources under {SRC}")
    OUT.mkdir(exist_ok=True)
    doc = seeded_scenario(workload, seed)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload['name']}-", dir=OUT))
    try:
        run = Run(workload, doc, workdir)
        # the set-up processes also warm the file cache, so the first
        # timed invocation does not pay for it; a traced run keeps one
        setups = [run.setup() for _ in range(1 if trace else SETUP_REPEATS)]
        invocations = []
        start = time.perf_counter()
        while True:
            traced = trace and len(invocations) % 2 == 1
            invocations.append(run.invoke(traced))
            walls = [r["wall"] for r in invocations]
            elapsed = time.perf_counter() - start
            enough = len(invocations) >= (2 if trace else 1)
            if enough and elapsed + max(_median(walls), walls[-1]) > seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in invocations if not r["traced"]]
    wall = _median(r["wall"] for r in plain)
    if trace:
        traced = [r for r in invocations if r.get("spans")]
        per_inv = [layer_metrics(r["spans"], run.pins["pool"]) for r in traced]
        values = {m: _median(p[m] for p in per_inv) for m in PER_LAYER
                  if m != "trace.overhead_s"}
        values["trace.overhead_s"] = (
            _median(r["wall"] for r in invocations if r["traced"]) - wall)
        units = PER_LAYER
    else:
        points = len(run.values) if run.values else 1
        values = {
            "wall_s": wall,
            "setup_s": _median(setups),
            "peak_rss_mb": _median(r["rss_mb"] for r in plain),
            "points_per_s": _median(points / r["wall"] for r in plain),
            "s_A_relerr": _median((r.get("s_A_relerr") for r in plain),
                                  default=1.0),
            "ok_ratio": 1.0 - len(run.failures) / len(run.ops),
        }
        units = END_TO_END
    return {
        "info": {"workload": workload["name"], "seed": seed, "trace": trace,
                 "invocations": len(invocations), "setups": len(setups),
                 "walls_s": [r["wall"] for r in invocations],
                 "fail_ratio": len(run.failures) / len(run.ops),
                 "failures": run.failures, "scenario": doc,
                 "environment": environment(run.pins)},
        "result": {"correct": not run.failures, "attempted": len(run.ops),
                   "failed": len(run.failures),
                   "metrics": {m: {"value": values[m], "unit": units[m]}
                               for m in units}},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        out = measure(load_workload(args.workload), args.seed, args.seconds,
                      bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for name, m in out["result"]["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
