"""Scenario files: strict parsing and validation of run configurations.

A scenario is a JSON document with the sections ``domain``,
``coefficients``, ``kernel`` and the optional sections ``run``,
``spectral``, ``outputs``.  The schema is strict: unknown keys anywhere
are fatal, since a typo in a rate name would silently invalidate every
downstream check.  Parsing eagerly builds the grid, samples all
coefficients, and builds the kernel so that invariant violations are
reported immediately with a field path.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigurationError, ValidationError
from .model import (FINITE, TRUNCATED_INFINITE, Kernel, ModelParams, SizeGrid,
                    build_grid, build_kernel, sample_coefficient, sample_params)
from .operators import StateVector

_TOP_KEYS = {"name", "domain", "coefficients", "kernel", "run", "spectral",
             "outputs"}
_DOMAIN_KEYS = {"kind", "m", "smax", "n"}
_COEFF_KEYS = {"gamma1", "gamma2", "mu", "c1", "c2", "gamma0"}
_RUN_KEYS = {"dt", "T", "record_every", "u0"}
_SPECTRAL_KEYS = {"tol", "shift0", "smax_list", "probe_lambdas"}
_OUTPUT_KEYS = {"directory"}
_U0_KEYS = {"u1", "u2", "normalize"}

DEFAULT_DT = 1e-3
DEFAULT_T = 10.0


def _check_keys(d: dict, allowed: set, where: str):
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where} must be a mapping, got {d!r}")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {sorted(unknown)} in {where}")


def _number(value, field: str, integer: bool = False):
    """A scalar of the document as a finite float, or as an int when
    ``integer`` (60.0 passes, 60.7 does not); ValidationError naming
    ``field`` otherwise."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:
        x = math.inf
    if not math.isfinite(x) or integer and not x.is_integer():
        what = "a whole number" if integer else "a finite number"
        raise ValidationError(f"{field} must be {what}, got {value!r}",
                              field=field)
    return int(x) if integer else x


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
    u0_spec: Optional[dict]
    spectral_tol: float
    shift0: Optional[float]
    smax_list: list
    probe_lambdas: list
    out_dir: Optional[str]

    def initial_state(self) -> StateVector:
        """Build U0: by default, the normalized indicator of the first
        quarter of the domain in phase 1 and zero in phase 2."""
        if self.u0_spec is None:
            q = self.grid.length / 4.0
            u1 = (self.grid.centers <= q).astype(float)
            u2 = np.zeros(self.grid.n)
        else:
            try:
                u1 = np.asarray(sample_coefficient(
                    self.u0_spec.get("u1", 0.0), self.grid))
                u2 = np.asarray(sample_coefficient(
                    self.u0_spec.get("u2", 0.0), self.grid))
            except (ValueError, TypeError) as exc:
                raise ConfigurationError(f"run.u0: {exc}")
            if np.any(u1 < 0) or np.any(u2 < 0):
                raise ValidationError("initial state must be nonnegative",
                                      field="run.u0")
        U = StateVector(u1.copy(), u2.copy(), self.grid)
        if self.u0_spec is None or self.u0_spec.get("normalize", True):
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
        raise ValidationError(f"coefficients.{exc.field}: {exc}",
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
    u0_spec = run.get("u0")
    if u0_spec is not None:
        _check_keys(u0_spec, _U0_KEYS, "run.u0")

    spec = doc.get("spectral", {})
    _check_keys(spec, _SPECTRAL_KEYS, "spectral")
    tol = _number(spec.get("tol", 1e-10), "spectral.tol")
    shift0 = spec.get("shift0")
    shift0 = _number(shift0, "spectral.shift0") if shift0 is not None else None
    smax_list = _numbers(spec.get("smax_list", []), "spectral.smax_list")
    probe_lambdas = _numbers(spec.get("probe_lambdas", []),
                             "spectral.probe_lambdas")
    if tol <= 0:
        raise ValidationError("tol must be positive", field="spectral.tol")

    outs = doc.get("outputs", {})
    _check_keys(outs, _OUTPUT_KEYS, "outputs")
    out_dir = outs.get("directory")

    return Scenario(name=str(doc.get("name", name_hint)),
                    raw=copy.deepcopy(doc), grid=grid, params=params,
                    kernel=kernel, dt=dt, T=T, record_every=record_every,
                    u0_spec=u0_spec, spectral_tol=tol, shift0=shift0,
                    smax_list=smax_list, probe_lambdas=probe_lambdas,
                    out_dir=out_dir)


def read_scenario_doc(path: str) -> tuple[dict, str]:
    """Read a scenario file (JSON) unvalidated, with its file-name hint."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except FileNotFoundError:
        raise ConfigurationError(f"scenario file not found: {path}")
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
