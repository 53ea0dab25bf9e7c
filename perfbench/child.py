"""Child processes the benchmark starts, one per measurement.

    python3 child.py setup SCENARIO
        Time ``import twophase``, ``parse_scenario`` and ``assemble`` in
        this fresh process and print the seconds on stdout.

    python3 child.py trace SPANS_JSON CLI_ARG...
        Run the twophase command line with the package's public functions
        wrapped from outside, so that every call records a span (name,
        parent, thread, start, end).  Spans stay in memory and are written
        to SPANS_JSON when the command ends.  No file of the package
        changes.

Both modes expect the package on ``PYTHONPATH``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time

# (module, attribute) of every function the traced run wraps; the span
# name is the module's short name and the attribute
TRACED = [
    ("twophase.scenario", "scenario_from_dict"),
    ("twophase.model", "build_kernel"),
    ("twophase.operators", "assemble"),
    ("twophase.evolution", "step_implicit"),
    ("twophase.evolution", "evolve"),
    ("twophase.evolution", "mass_balance"),
    ("twophase.spectral", "spectral_bound"),
    ("twophase.spectral", "sB_probe_infinite"),
    ("twophase.spectral", "duhamel_solve"),
    ("twophase.spectral", "detect_AEG"),
    ("twophase.criteria", "full_verdict"),
    ("twophase.report", "atomic_write_text"),
    ("twophase.cli", "_sweep_point"),
]


def setup(scenario_path: str) -> None:
    t0 = time.perf_counter()
    import twophase
    scn = twophase.parse_scenario(scenario_path)
    twophase.assemble(scn.params, scn.kernel, scn.grid)
    print(f"{time.perf_counter() - t0!r}")


class Tracer:
    """Records spans in memory; each thread keeps its own parent stack."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def call(self, name: str, fn, args, kwargs, attrs=None):
        stack = self._local.__dict__.setdefault("stack", [])
        span = {"name": name, "id": next(self._ids),
                "parent": stack[-1] if stack else None,
                "thread": threading.get_ident()}
        self.spans.append(span)
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
        if attrs is not None:
            span.update(attrs(args, result))
        return result


def _factor_bytes(obj) -> int:
    """Bytes held by a factorization object: its arrays, sparse factors
    and those of its attributes, as computed from their sizes."""
    import numpy as np
    import scipy.sparse as sp
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if sp.issparse(obj):
        return obj.data.nbytes + obj.indices.nbytes + obj.indptr.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_factor_bytes(o) for o in obj)
    if hasattr(obj, "L") and hasattr(obj, "U"):       # scipy SuperLU
        return sum(_factor_bytes(getattr(obj, k))
                   for k in ("L", "U", "perm_r", "perm_c"))
    if hasattr(obj, "__dict__"):
        return sum(_factor_bytes(v) for v in vars(obj).values())
    return 0


def _rebind(attr: str, orig, wrapped) -> None:
    # modules that imported the function by name hold their own reference
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").split(".")[0] == "twophase" \
                and mod.__dict__.get(attr) is orig:
            setattr(mod, attr, wrapped)


def _wrap(tracer: Tracer, name: str, fn, attrs=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, attrs)
    return traced


def install(tracer: Tracer) -> None:
    importlib.import_module("twophase.cli")
    attrs = {"atomic_write_text":
             lambda args, _: {"bytes": os.path.getsize(args[0])}}
    for modname, attr in TRACED:
        orig = getattr(importlib.import_module(modname), attr, None)
        if orig is None:
            continue
        name = f"{modname.split('.')[-1]}.{attr}"
        _rebind(attr, orig, _wrap(tracer, name, orig, attrs.get(attr)))

    # a call that adds an entry to the generator's factor cache is a new
    # factorization
    gen_cls = importlib.import_module("twophase.operators").DiscreteGenerator
    orig_fact = gen_cls.factorization

    @functools.wraps(orig_fact)
    def factorization(self, *args, **kwargs):
        cache = getattr(self, "_fact_cache", {})
        before = len(cache)

        def attrs_of(_, fact):
            if len(cache) == before:
                return {"new": False}
            return {"new": True, "bytes": _factor_bytes(fact), "gen": id(self)}
        return tracer.call("operators.factorization", orig_fact,
                           (self,) + args, kwargs, attrs_of)
    gen_cls.factorization = factorization


def trace(spans_path: str, cli_args: list) -> int:
    tracer = Tracer()
    install(tracer)
    from twophase import cli
    t0 = time.perf_counter()
    try:
        return cli.main(cli_args)
    finally:
        doc = {"main": {"start": t0, "end": time.perf_counter()},
               "threads": os.environ.get("TWOPHASE_THREADS"),
               "spans": tracer.spans}
        with open(spans_path, "w") as f:
            json.dump(doc, f)


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup" and len(sys.argv) == 3:
        setup(sys.argv[2])
    elif mode == "trace" and len(sys.argv) >= 4:
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(__doc__)
