"""Command-line front end.

    twophase <subcommand> <scenario-file> [--out DIR] [--vary KEY a:b:step]
             [--n N] [--dt DT]

Subcommands: ``simulate`` (evolve + CSV export), ``spectrum``
(eigensolve + closed forms + probe), ``criteria`` (hypothesis verdict),
``report`` (full pipeline), ``sweep`` (repeat the spectrum stage, less
the probe its CSV has no column for, over a range of one scalar key,
emitting a CSV).  Flags override file values.
Exit codes: 0 success, 2 configuration error or an output that cannot
be written, 3 numerical failure or out of memory.  A sweep always
writes its CSV (a failed point keeps only its varied value); the first
failure sets the exit code.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys

from .errors import ConfigurationError, NumericalError, TwophaseError
from .report import compute_spectrum, write_csv
from .report import run as run_pipeline
from .scenario import Scenario, read_scenario_doc, scenario_from_dict

_STAGES = {
    "simulate": ("simulate",),
    "spectrum": ("criteria", "spectrum"),
    "criteria": ("criteria",),
    "report": ("criteria", "spectrum", "simulate"),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="twophase", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("simulate", "spectrum", "criteria", "report", "sweep"):
        sp = sub.add_parser(name)
        sp.add_argument("scenario", help="scenario file (JSON)")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--n", type=int, default=None,
                        help="override the cell count")
        sp.add_argument("--dt", type=float, default=None,
                        help="override the time step")
        if name == "sweep":
            sp.add_argument("--vary", nargs=2, required=True,
                            metavar=("KEY", "RANGE"),
                            help="dot-path key and a:b:step range")
    return p


def _set_path(doc: dict, key: str, value: float):
    """Set a dot-path key, adding the mappings it names that are missing;
    ConfigurationError when it runs through a value that is not one."""
    *parents, last = key.split(".")
    node = doc
    for part in parents:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigurationError(
                f"{key}: {part!r} is not a mapping in the scenario")
    node[last] = value


def _load_scenario(args) -> Scenario:
    doc, name_hint = read_scenario_doc(args.scenario)
    if args.n is not None:
        _set_path(doc, "domain.n", args.n)
    if args.dt is not None:
        _set_path(doc, "run.dt", args.dt)
    return scenario_from_dict(doc, name_hint=name_hint)


# a sweep point costs a parse and a spectrum stage; the cap keeps the
# list of values small and a tiny step from running for ever
_MAX_POINTS = 2 ** 20


def _parse_range(text: str) -> list:
    """The points a, a + step, ... up to b (+ 1e-9 step) of ``a:b:step``;
    ConfigurationError when there are more than ``_MAX_POINTS``, counted
    before any is built, or when two points round to one float."""
    try:
        a, b, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigurationError(f"range must be a:b:step, got {text!r}")
    if not (0 < step < math.inf and -math.inf < a <= b < math.inf):
        raise ConfigurationError(f"range must be finite and increasing, "
                                 f"got {text!r}")
    last = (b - a) / step + 1e-9        # last point's index, unfloored
    if not last < _MAX_POINTS:
        raise ConfigurationError(f"range {text!r} has {last + 1:.7g} points, "
                                 f"more than {_MAX_POINTS}")
    # a + k*step grows with k, so the points are a prefix; the rounding
    # of ``last`` leaves at most one more to test
    points = [v for v in (a + k * step for k in range(int(last) + 2))
              if v <= b + 1e-9 * step]
    if any(p == q for p, q in zip(points, points[1:])):
        raise ConfigurationError(f"range {text!r} repeats points: its step "
                                 f"is below the float spacing")
    return points


def _sweep_point(doc: dict, key: str, value: float):
    """One sweep row; sets ``key`` on ``doc`` in place, since
    ``scenario_from_dict`` keeps its own copy."""
    _set_path(doc, key, value)
    scn = scenario_from_dict(doc)
    sp = compute_spectrum(scn)
    return (value, sp.s_A, sp.lambda_star, sp.eps_bar, sp.gap)


def _cmd_sweep(args) -> int:
    scn = _load_scenario(args)
    key, rng = args.vary
    values = _parse_range(rng)
    _set_path(scn.raw, key, values[0])      # a bad path fails before any point
    rows, failure = [], None
    for value in values:
        try:
            rows.append(_sweep_point(scn.raw, key, value))
        except (TwophaseError, MemoryError) as exc:
            print(f"point {key}={value:g}: {exc}", file=sys.stderr)
            rows.append((value, None, None, None, None))
            failure = failure or exc
    out_dir = args.out or scn.out_dir or "."
    path = os.path.join(out_dir, f"{scn.name}_sweep.csv")
    write_csv(path, (key, "s_A", "lambda_star", "eps_bar", "gap"), rows)
    print(path)
    if failure is not None:
        raise failure
    return 0


def entry() -> int:
    """The console entry point: ``main`` with the heap that the imports
    built frozen, so that no garbage collection, the one at exit
    included, walks it again."""
    gc.freeze()
    return main()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            return _cmd_sweep(args)
        scn = _load_scenario(args)
        rep = run_pipeline(scn, out_dir=args.out,
                           stages=_STAGES[args.command])
        print(os.path.join(args.out or scn.out_dir or ".",
                           f"{scn.name}_report.json"))
        return 0
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # only artifact writes remain: scenario reads raise the above
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except TwophaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(entry())
