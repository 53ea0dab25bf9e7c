"""Scenario files: strict parsing and validation of run configurations.

A scenario is a JSON document with the sections ``domain``,
``coefficients``, ``kernel`` and the optional sections ``run``,
``spectral``, ``outputs``.  The schema is strict: unknown keys anywhere
are fatal, since a typo in a rate name would silently invalidate every
downstream check.  Parsing eagerly builds the grid, samples all
coefficients and the initial state, and builds the kernel so that
invariant violations are reported immediately with a field path.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ValidationError
from .model import (FINITE, TRUNCATED_INFINITE, Kernel, ModelParams, SizeGrid,
                    _check_keys, _number, build_grid, build_kernel,
                    sample_coefficient, sample_params)
from .operators import StateVector

_TOP_KEYS = {"name", "domain", "coefficients", "kernel", "run", "spectral",
             "outputs"}
_DOMAIN_KEYS = {"kind", "m", "smax", "n"}
_COEFF_KEYS = {"gamma1", "gamma2", "mu", "c1", "c2", "gamma0"}
_RUN_KEYS = {"dt", "T", "record_every", "u0"}
_SPECTRAL_KEYS = {"tol", "smax_list", "probe_lambdas"}
_OUTPUT_KEYS = {"directory"}
_U0_KEYS = {"u1", "u2", "normalize"}

DEFAULT_DT = 1e-3
DEFAULT_T = 10.0


def _numbers(values, field: str) -> list:
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"{field} must be a list of numbers, got "
                              f"{values!r}", field=field)
    return [_number(v, f"{field}[{i}]") for i, v in enumerate(values)]


@dataclass
class Scenario:
    """Validated scenario with the sampled model objects attached."""

    name: str
    raw: dict
    grid: SizeGrid
    params: ModelParams
    kernel: Kernel
    dt: float
    T: float
    record_every: int
    u0: StateVector
    spectral_tol: float
    smax_list: list
    probe_lambdas: list
    out_dir: Optional[str]

    def initial_state(self) -> StateVector:
        """A copy of the initial state U0 sampled at parse time."""
        return self.u0.copy()


def _initial_state(spec: Optional[dict], grid: SizeGrid) -> StateVector:
    """Sample ``run.u0``: by default, the normalized indicator of the
    first quarter of the domain in phase 1 and zero in phase 2."""
    normalize = True
    if spec is None:
        u1 = (grid.centers <= grid.length / 4.0).astype(float)
        u2 = np.zeros(grid.n)
    else:
        _check_keys(spec, _U0_KEYS, "run.u0")
        normalize = spec.get("normalize", True)
        if not isinstance(normalize, bool):
            raise ValidationError(f"run.u0.normalize must be true or false, "
                                  f"got {normalize!r}",
                                  field="run.u0.normalize")
        try:
            u1 = np.asarray(sample_coefficient(spec.get("u1", 0.0), grid))
            u2 = np.asarray(sample_coefficient(spec.get("u2", 0.0), grid))
        except (ValueError, TypeError, ValidationError) as exc:
            raise ConfigurationError(f"run.u0: {exc}")
        if np.any(u1 < 0) or np.any(u2 < 0):
            raise ValidationError("initial state must be nonnegative",
                                  field="run.u0")
    U = StateVector(u1.copy(), u2.copy(), grid)
    if normalize:
        m = U.mass
        if m <= 0:
            raise ValidationError("initial state has zero mass",
                                  field="run.u0")
        U.u1 /= m
        U.u2 /= m
    return U


def scenario_from_dict(doc: dict, name_hint: str = "scenario") -> Scenario:
    """Validate a scenario document and build its model objects."""
    if not isinstance(doc, dict):
        raise ConfigurationError("scenario document must be a mapping")
    _check_keys(doc, _TOP_KEYS, "scenario")
    for req in ("domain", "coefficients", "kernel"):
        if req not in doc:
            raise ConfigurationError(f"scenario is missing section {req!r}")

    dom = doc["domain"]
    _check_keys(dom, _DOMAIN_KEYS, "domain")
    kind = dom.get("kind")
    if kind == FINITE:
        if "m" not in dom:
            raise ValidationError("finite domain requires 'm'",
                                  field="domain.m")
        length = _number(dom["m"], "domain.m")
    elif kind == TRUNCATED_INFINITE:
        if "smax" not in dom:
            raise ValidationError("truncated_infinite domain requires 'smax'",
                                  field="domain.smax")
        length = _number(dom["smax"], "domain.smax")
    else:
        raise ValidationError(f"unknown domain kind {kind!r}",
                              field="domain.kind")
    if "n" not in dom:
        raise ValidationError("domain requires a cell count 'n'",
                              field="domain.n")
    n = _number(dom["n"], "domain.n", integer=True)
    grid = build_grid(kind, length, n)

    _check_keys(doc["coefficients"], _COEFF_KEYS, "coefficients")
    coeffs = dict(doc["coefficients"])
    if "gamma0" in coeffs:
        coeffs["gamma0"] = _number(coeffs["gamma0"], "coefficients.gamma0")
    else:
        # default: the declared lower bound is the min of constant gammas,
        # else 1e-12 is rejected by sampling -- require explicit gamma0
        # only when gammas are non-constant descriptors
        g1, g2 = coeffs.get("gamma1"), coeffs.get("gamma2")
        if isinstance(g1, (int, float)) and isinstance(g2, (int, float)):
            coeffs["gamma0"] = float(min(g1, g2))
        else:
            raise ValidationError("gamma0 is required for non-constant "
                                  "growth rates", field="coefficients.gamma0")
    try:
        params = sample_params(coeffs, grid)
    except ValidationError as exc:
        # every coefficient message opens with its field
        raise ValidationError(f"coefficients.{exc}",
                              field=f"coefficients.{exc.field}",
                              cell=exc.cell)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"coefficients: {exc}")
    try:
        kernel = build_kernel(doc["kernel"], grid)
    except ValidationError as exc:
        raise ValidationError(f"kernel: {exc}", field="kernel",
                              cell=exc.cell)
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"kernel: {exc}")

    run = doc.get("run", {})
    _check_keys(run, _RUN_KEYS, "run")
    dt = _number(run.get("dt", DEFAULT_DT), "run.dt")
    T = _number(run.get("T", DEFAULT_T), "run.T")
    record_every = _number(run.get("record_every", 10), "run.record_every",
                           integer=True)
    if dt <= 0:
        raise ValidationError("dt must be positive", field="run.dt")
    if T < 0:
        raise ValidationError("T must be >= 0", field="run.T")
    if record_every < 1:
        raise ValidationError("record_every must be >= 1",
                              field="run.record_every")
    u0 = _initial_state(run.get("u0"), grid)

    spec = doc.get("spectral", {})
    _check_keys(spec, _SPECTRAL_KEYS, "spectral")
    tol = _number(spec.get("tol", 1e-10), "spectral.tol")
    smax_list = _numbers(spec.get("smax_list", []), "spectral.smax_list")
    probe_lambdas = _numbers(spec.get("probe_lambdas", []),
                             "spectral.probe_lambdas")
    if tol <= 0:
        raise ValidationError("tol must be positive", field="spectral.tol")

    outs = doc.get("outputs", {})
    _check_keys(outs, _OUTPUT_KEYS, "outputs")
    out_dir = outs.get("directory")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ValidationError(f"outputs.directory must be a string, got "
                              f"{out_dir!r}", field="outputs.directory")

    return Scenario(name=str(doc.get("name", name_hint)),
                    raw=copy.deepcopy(doc), grid=grid, params=params,
                    kernel=kernel, dt=dt, T=T, record_every=record_every,
                    u0=u0, spectral_tol=tol, smax_list=smax_list,
                    probe_lambdas=probe_lambdas, out_dir=out_dir)


def read_scenario_doc(path: str) -> tuple[dict, str]:
    """Read a scenario file (JSON) unvalidated, with its file-name hint;
    ConfigurationError when it cannot be read, decoded or parsed."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigurationError(f"scenario file not found: {path}")
    except OSError as exc:
        raise ConfigurationError(f"cannot read scenario file {path}: "
                                 f"{exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"scenario file {path} is not text in the "
                                 f"{exc.encoding} encoding: {exc.reason}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"scenario parse error in {path} at line {exc.lineno}: {exc.msg}")
    if not isinstance(doc, dict):
        raise ConfigurationError("scenario document must be a mapping")
    return doc, os.path.splitext(os.path.basename(path))[0]


def parse_scenario(path: str) -> Scenario:
    """Parse and validate a scenario file (JSON)."""
    doc, name_hint = read_scenario_doc(path)
    return scenario_from_dict(doc, name_hint=name_hint)
