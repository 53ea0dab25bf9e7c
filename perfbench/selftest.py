"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  For every workload, at the
reduced size its file gives under ``reduced``:

* an untraced and a traced run report every metric BENCHMARK.json names,
  each with its unit, as a finite number, and pass every answer check;
* each answer check fed a wrong reference fails, and so does the s_A
  error against a wrong exact value;
* for rank-1 kernels, the exact s_A reference agrees with a dense
  eigensolve of the assembled generator.

Exits 0 when every check passes.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
from checks import S_A_RESOLUTION, exact_s_A

# a wrong expected answer, or a tolerance no answer meets, for each
# answer check, and the check that must then fail
WRONG = {
    "verdict": ("inconclusive", "verdict"),
    "probe": ({"-0.5": "resolvent-bounded", "0.5": "resolvent-bounded"}, "probe"),
    "max_mass_drift": (0.0, "mass_drift"),
    "s_B_divergent": (False, "s_B_divergent"),
    "gap_shortfall_tol": (-1.0, "gap_vs_eps_bar"),
}


def _declared() -> dict:
    with open(run.ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return {key: {m["name"]: m["unit"] for m in bench[key]}
            for key in ("end_to_end", "per_layer")}


def check_metrics(workload: dict, declared: dict, problems: list) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        out = run.measure(workload, seed=0, seconds=0.0, trace=trace)
        result = out["result"]
        got = {m: v["unit"] for m, v in result["metrics"].items()}
        tag = f"{workload['name']} trace={int(trace)}"
        if got != declared[key]:
            problems.append(f"{tag}: metrics {got} != {declared[key]}")
        for m, v in result["metrics"].items():
            if not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
                problems.append(f"{tag}: {m} = {v['value']!r}")
        if not result["correct"]:
            problems.append(f"{tag}: answer checks failed {out['info']['failures']}")


def check_wrong_references(workload: dict, problems: list) -> None:
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        bench = run.Run(workload, copy.deepcopy(workload["scenario"]), workdir)
        bench.invoke(traced=False)
        out = workdir / "out0"
        name = workload["name"]
        if bench.failures:
            problems.append(f"{name}: right references failed {bench.failures}")
            return
        for key, (wrong, check) in WRONG.items():
            if key not in workload["expect"]:
                continue
            bench.workload = copy.deepcopy(workload)
            bench.workload["expect"][key] = wrong
            failed, _ = bench._check(out)
            if check not in failed:
                problems.append(f"{name}: wrong {key} passed ({failed})")
        bench.workload = workload
        if workload["command"] == "sweep":
            # the closed-form lambda_star of a wrong transition rate c1
            bench.doc = copy.deepcopy(workload["scenario"])
            bench.doc["coefficients"]["c1"] = 2.0
            if "lambda_star" not in bench._check(out)[0]:
                problems.append(f"{name}: wrong lambda_star reference passed")
            bench.doc = workload["scenario"]
        bench.exact = (np.asarray(bench.exact) * (1 + 1e-3) - 1e-3).tolist()
        _, err = bench._check(out)
        if not err > 100 * S_A_RESOLUTION:
            problems.append(f"{name}: wrong exact s_A gave error {err}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def check_exact_reference(workload: dict, problems: list) -> None:
    from twophase import assemble, scenario_from_dict
    doc = copy.deepcopy(workload["scenario"])
    if doc["kernel"].get("relation") == "s>y":
        return          # too non-normal for a dense eigensolve to resolve
    scn = scenario_from_dict(doc)
    gen = assemble(scn.params, scn.kernel, scn.grid)
    dense = float(np.linalg.eigvals(gen.full.toarray()).real.max())
    exact = exact_s_A(doc)
    if not abs(dense - exact) <= 1e-9 * max(abs(exact), 1.0):
        problems.append(f"{workload['name']}: exact s_A {exact} vs dense {dense}")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    declared = _declared()
    problems = []
    for path in sorted(run.WORKLOADS.glob("*.json")):
        before = len(problems)
        full = run.load_workload(path.stem)
        workload = run.with_overrides(full, full["reduced"])
        check_metrics(workload, declared, problems)
        check_wrong_references(workload, problems)
        check_exact_reference(workload, problems)
        print(f"{path.stem}: {'ok' if len(problems) == before else 'FAILED'}")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
