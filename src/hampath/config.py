"""Declarative problem configs: a single YAML file describes the whole run.

A config is a tree of key-value sections (problem, hamiltonian, boundary,
growth, solver, box, output).  Hamiltonians are sums of scalar multiples of
catalog primitives applied to p, to q, or to (p, q) jointly; schema faults
are reported with the path of the offending key.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from hampath.action import Cauchy, Connecting, ProblemSpec, SemiConvex, feedback_limit
from hampath.conditions import GrowthCert
from hampath.convex import (
    Box,
    ConvexFn,
    DomainError,
    GridSampled,
    Hamiltonian,
    PowerNorm,
    Quadratic,
    SeparableSum,
    affine,
    simplify_sum,
    squared_norm,
)
from hampath.solver import ParamError, SolveParams


# libyaml's safe loader when PyYAML was built with it: same documents, same dicts
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ConfigError(ValueError):
    """Schema fault; the message starts with the config path of the fault."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _mapping(cfg, keys: tuple, path: str) -> dict:
    """``cfg`` as a mapping whose keys are all among ``keys``; names the first that is not."""
    if not isinstance(cfg, dict):
        raise ConfigError(path, "must be a mapping")
    for key in cfg:
        if key not in keys:
            raise ConfigError(f"{path}.{key}" if path else str(key),
                              f"unknown key; expected one of {', '.join(keys)}")
    return cfg


def _req(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}", "missing required key")
    return d[key]


def _num(v, path: str) -> float:
    # YAML 1.1 reads exponent notation without a point or an exponent sign as text
    if isinstance(v, str) and re.fullmatch(r"[-+]?(\d+\.?\d*|\.\d+)[eE][-+]?\d+", v):
        raise ConfigError(path, f"expected a number, got the string {v!r}: YAML reads a "
                          "number in exponent notation only with a decimal point and a signed "
                          "exponent, as in 1.0e-6 or 1.0e+8")
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(v).__name__}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ConfigError(path, f"expected a finite number, got {v}")
    return x


def _posint(v, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int) or v <= 0:
        raise ConfigError(path, f"expected a positive integer, got {v!r}")
    return v


def _file(name, path: str, base_dir: str) -> str:
    """The existing file that ``name`` names, relative to the config's directory."""
    if not isinstance(name, str):
        raise ConfigError(path, f"expected a file name, got {name!r}")
    full = name if os.path.isabs(name) else os.path.join(base_dir, name)
    if not os.path.exists(full):
        raise ConfigError(path, f"referenced file does not exist: {full}")
    return full


def _vector(v, n: int, path: str) -> np.ndarray:
    if not isinstance(v, (list, tuple)) or len(v) != n:
        raise ConfigError(path, f"expected a list of {n} numbers")
    return np.array([_num(x, f"{path}[{i}]") for i, x in enumerate(v)])


@dataclass
class ProblemConfig:
    """Validated config with the objects it builds."""

    spec: ProblemSpec
    params: SolveParams
    N: int
    output: dict = field(default_factory=dict)
    init_path: object = None


def load_config(path: str) -> ProblemConfig:
    if not os.path.exists(path):
        raise ConfigError(path, "config file does not exist")
    with open(path) as fh:
        try:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
        except yaml.YAMLError as exc:
            # the parser's message spans lines; a config fault is reported on one
            raise ConfigError(path, "not valid YAML: " + " ".join(str(exc).split())) from exc
    if not isinstance(raw, dict):
        raise ConfigError(path, "top level must be a mapping")
    return build_config(raw, base_dir=os.path.dirname(os.path.abspath(path)))


def build_config(raw: dict, base_dir: str = ".") -> ProblemConfig:
    _mapping(raw, ("problem", "box", "hamiltonian", "boundary", "growth", "solver", "output"), "")
    prob = _mapping(_req(raw, "problem", ""), ("N", "T"), "problem")
    N = _posint(_req(prob, "N", "problem"), "problem.N")
    if N > 8:
        raise ConfigError("problem.N", "dimensions beyond 8 are out of scope")
    T = _num(_req(prob, "T", "problem"), "problem.T")
    if T <= 0:
        raise ConfigError("problem.T", "horizon must be positive")

    box_cfg = _mapping(raw.get("box") or {}, ("halfwidth",), "box")
    halfwidth = _num(box_cfg.get("halfwidth", 10.0), "box.halfwidth")
    if not halfwidth > 0:
        raise ConfigError("box.halfwidth", "must be positive")
    phase_box = Box.cube(2 * N, halfwidth)
    comp_box = Box.cube(N, halfwidth)

    ham = _build_hamiltonian(_req(raw, "hamiltonian", ""), N, phase_box, base_dir)
    boundary = _build_boundary(_req(raw, "boundary", ""), N, T, comp_box, base_dir)
    cert = _build_cert(raw.get("growth"), "growth")
    params = _build_params(raw.get("solver", {}), "solver")
    output = _mapping(raw.get("output") or {}, ("dir", "proceed_on_check_failure"), "output")
    init_path = None
    init_file = (raw.get("solver") or {}).get("init_file")
    if init_file is not None:
        from hampath.grid import PathGrid

        full = _file(init_file, "solver.init_file", base_dir)
        try:
            init_path = PathGrid.from_csv(full)
        except ValueError as exc:
            raise ConfigError("solver.init_file", f"not a trajectory file: {exc}") from exc
        if init_path.T != T or init_path.N != N:
            raise ConfigError("solver.init_file", f"path has T = {init_path.T:g}, N = "
                              f"{init_path.N}; the problem has T = {T:g}, N = {N}")
    spec = ProblemSpec(ham, T, boundary, cert)
    return ProblemConfig(spec=spec, params=params, N=N, output=output, init_path=init_path)


def _build_fn(cfg, dim: int, box: Box, path: str, base_dir: str) -> ConvexFn:
    if not isinstance(cfg, dict):
        raise ConfigError(path, "expected a mapping describing a convex function")
    kind = _req(cfg, "kind", path)
    if kind == "quadratic":
        if "matrix" in cfg:
            _mapping(cfg, ("kind", "matrix", "shift", "offset"), path)
            b = _vector(cfg["shift"], dim, f"{path}.shift") if "shift" in cfg else None
            offset = _num(cfg.get("offset", 0.0), f"{path}.offset")
            try:
                A = np.array(cfg["matrix"], dtype=float)
                if A.shape != (dim, dim):
                    raise ValueError(f"must be {dim}x{dim}")
                if not np.all(np.isfinite(A)):
                    raise ValueError("entries must be finite")
                return Quadratic(A, b, offset, box=box)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}.matrix", str(exc)) from exc
        _mapping(cfg, ("kind", "scale", "center"), path)
        scale = _num(cfg.get("scale", 0.5), f"{path}.scale")
        if scale <= 0:
            raise ConfigError(f"{path}.scale", "must be positive")
        center = _vector(cfg["center"], dim, f"{path}.center") if "center" in cfg else None
        return squared_norm(dim, scale, center, box=box)
    if kind == "power":
        _mapping(cfg, ("kind", "r", "scale"), path)
        r = _num(_req(cfg, "r", path), f"{path}.r")
        scale = _num(cfg.get("scale", 1.0), f"{path}.scale")
        if r <= 1:
            raise ConfigError(f"{path}.r", "exponent must exceed 1")
        if scale <= 0:
            raise ConfigError(f"{path}.scale", "must be positive")
        return PowerNorm(r, scale, dim=dim, box=box)
    if kind == "affine":
        _mapping(cfg, ("kind", "slope", "offset"), path)
        slope = _vector(_req(cfg, "slope", path), dim, f"{path}.slope")
        return affine(slope, _num(cfg.get("offset", 0.0), f"{path}.offset"), box=box)
    if kind == "grid":
        _mapping(cfg, ("kind", "file"), path)
        full = _file(_req(cfg, "file", path), f"{path}.file", base_dir)
        try:
            fn = GridSampled.from_csv(full)
        except ValueError as exc:
            # genfromtxt's message spans lines; a config fault is reported on one
            raise ConfigError(f"{path}.file",
                              "not a grid file: " + " ".join(str(exc).split())) from exc
        if fn.dim != dim:
            raise ConfigError(f"{path}.file", f"grid dimension {fn.dim} does not match {dim}")
        return fn
    raise ConfigError(f"{path}.kind", f"unknown kind {kind!r}")


def _build_hamiltonian(cfg, N: int, phase_box: Box, base_dir: str) -> Hamiltonian:
    if not isinstance(cfg, dict):
        raise ConfigError("hamiltonian", "must be a mapping")
    _mapping(cfg, ("grid",) if "grid" in cfg else ("terms",), "hamiltonian")
    comp_box = Box(phase_box.lo[:N], phase_box.hi[:N])
    if "grid" in cfg:
        grid = _mapping(cfg["grid"], ("file",), "hamiltonian.grid")
        fn = _build_fn({"kind": "grid", **grid}, 2 * N, phase_box, "hamiltonian.grid", base_dir)
        return Hamiltonian(fn, N)
    terms = _req(cfg, "terms", "hamiltonian")
    if not isinstance(terms, list) or not terms:
        raise ConfigError("hamiltonian.terms", "need a nonempty list of terms")
    p_parts, q_parts, joint_parts = [], [], []
    for i, term in enumerate(terms):
        path = f"hamiltonian.terms[{i}]"
        if not isinstance(term, dict):
            raise ConfigError(path, "expected a mapping")
        apply_to = term.get("apply", "both")
        spec = {k: v for k, v in term.items() if k != "apply"}
        if apply_to == "p":
            p_parts.append(_build_fn(spec, N, comp_box, path, base_dir))
        elif apply_to == "q":
            q_parts.append(_build_fn(spec, N, comp_box, path, base_dir))
        elif apply_to == "both":
            joint_parts.append(_build_fn(spec, 2 * N, phase_box, path, base_dir))
        else:
            raise ConfigError(f"{path}.apply", "must be one of p, q, both")
    zero = lambda: Quadratic(np.zeros((N, N)), box=comp_box)  # noqa: E731
    try:  # a sum lives on the overlap of its terms' boxes
        if p_parts or q_parts:
            p_fn = simplify_sum(p_parts) if p_parts else zero()
            q_fn = simplify_sum(q_parts) if q_parts else zero()
            if isinstance(p_fn, Quadratic) and isinstance(q_fn, Quadratic):
                # one block-diagonal quadratic keeps the closed-form pair (and Newton stages)
                A = np.zeros((2 * N, 2 * N))
                A[:N, :N], A[N:, N:] = p_fn.A, q_fn.A
                split = Quadratic(A, np.concatenate([p_fn.b, q_fn.b]), p_fn.c + q_fn.c,
                                  box=phase_box)
            else:
                split = SeparableSum([p_fn, q_fn])
            joint_parts.append(split)
        fn = simplify_sum(joint_parts, box=phase_box) if len(joint_parts) > 1 else joint_parts[0]
    except DomainError as exc:
        raise ConfigError("hamiltonian.terms", "the terms' boxes do not overlap") from exc
    return Hamiltonian(fn, N)


def _build_boundary(cfg, N: int, T: float, comp_box: Box, base_dir: str):
    if not isinstance(cfg, dict):
        raise ConfigError("boundary", "must be a mapping")
    mode = _req(cfg, "mode", "boundary")
    modes = {"cauchy": ("p0", "q0"), "connecting": ("psi1", "psi2", "coercivity_index"),
             "semiconvex": ("psi1", "psi2", "delta1", "delta2")}
    if not isinstance(mode, str) or mode not in modes:
        raise ConfigError("boundary.mode", f"unknown mode {mode!r}")
    _mapping(cfg, ("mode",) + modes[mode], "boundary")
    if mode == "cauchy":
        p0 = _vector(_req(cfg, "p0", "boundary"), N, "boundary.p0")
        q0 = _vector(_req(cfg, "q0", "boundary"), N, "boundary.q0")
        return Cauchy(p0, q0)
    psi1, psi2 = (_build_fn(_req(cfg, key, "boundary"), N, comp_box, f"boundary.{key}", base_dir)
                  for key in ("psi1", "psi2"))
    if mode == "connecting":
        idx = cfg.get("coercivity_index")
        if isinstance(idx, bool) or idx not in (1, 2):
            raise ConfigError("boundary.coercivity_index",
                              "connecting mode requires choosing which potential "
                              "carries the quadratic growth condition (1 or 2)")
        return Connecting(psi1, psi2, idx)
    d1 = _num(_req(cfg, "delta1", "boundary"), "boundary.delta1")
    d2 = _num(_req(cfg, "delta2", "boundary"), "boundary.delta2")
    lim = feedback_limit(T)
    for key, d in (("delta1", d1), ("delta2", d2)):
        if abs(d) >= lim:
            raise ConfigError(f"boundary.{key}", f"feedback strength {d:g} reaches the "
                              f"solvability limit 1/(2T) = {lim:g}")
    return SemiConvex(psi1, psi2, d1, d2)


def _build_cert(cfg, path: str) -> GrowthCert | None:
    if cfg is None:
        return None
    _mapping(cfg, ("alpha", "beta", "gamma", "r"), path)
    try:
        return GrowthCert(
            alpha=_num(_req(cfg, "alpha", path), f"{path}.alpha"),
            beta=_num(_req(cfg, "beta", path), f"{path}.beta"),
            gamma=_num(_req(cfg, "gamma", path), f"{path}.gamma"),
            r=_num(cfg.get("r", 2.0), f"{path}.r"),
        )
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


def _build_params(cfg, path: str) -> SolveParams:
    _mapping(cfg, ("M", "eps_schedule", "lambda_schedule", "r", "tol_zero", "max_iters", "seed",
                   "init_file"), path)
    kwargs = {}
    for key in ("M", "max_iters"):
        if key in cfg:
            kwargs[key] = _posint(cfg[key], f"{path}.{key}")
    for key in ("eps_schedule", "lambda_schedule"):
        if key in cfg:
            v = cfg[key]
            if v is None:
                v = []
            if not isinstance(v, list):
                raise ConfigError(f"{path}.{key}", "expected a list")
            kwargs[key] = tuple(_num(x, f"{path}.{key}[{i}]") for i, x in enumerate(v))
    for key in ("r", "tol_zero"):
        if key in cfg:
            kwargs[key] = _num(cfg[key], f"{path}.{key}")
    if "seed" in cfg:
        kwargs["seed"] = cfg["seed"]
    try:
        return SolveParams(**kwargs)
    except ParamError as exc:
        raise ConfigError(f"{path}.{exc.field}", str(exc)) from exc
