"""Command-line front end: check, solve, sweep.

Exit codes are a contract: 0 success, 1 config, command-line or output fault,
2 hypothesis failure, 3 solver stall; ``main`` is the one place that turns a
fault into an exit code.  All file writes are whole-file atomic and rendered
with 17 significant digits, so identical config and seed reproduce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from dataclasses import replace

import numpy as np

from hampath.conditions import run_checks
from hampath.config import ConfigError, ProblemConfig, load_config
from hampath.grid import interval_data
from hampath.regularize import InfConvolved
from hampath.solver import ParamError, ScheduleError, SolveStatus, solve

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HYPOTHESIS = 2
EXIT_STALLED = 3


class UsageError(ValueError):
    """Command-line fault: an unparsable invocation or ``--values`` list."""


class OutputError(ValueError):
    """An output directory that is not one, or an artifact that cannot be written."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse would exit 2, which this CLI reserves for hypothesis failures
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_", text=True)
    try:
        # mkstemp makes the file 0600; give it the mode open(path, "w") would
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _output_dir(path: str) -> str:
    """``path``, refused before any solve runs when it, or the nearest of its ancestors
    that exists, is not a directory."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise OutputError(f"{path} exists and is not a directory")
    up = os.path.abspath(path)
    while not os.path.exists(up):
        up = os.path.dirname(up)
    if not os.path.isdir(up):
        raise OutputError(f"cannot write {path}: {up} is not a directory")
    return path


def _write_artifacts(outdir: str, files) -> None:
    """Writes each (name, text) of ``files`` into ``outdir``."""
    try:
        for name, text in files:
            _atomic_write(os.path.join(outdir, name), text)
    except OSError as exc:
        raise OutputError(f"cannot write {outdir}: {exc}") from exc


def _fmt(v) -> str:
    return f"{float(v):.17g}"


def _residual_csv(cert) -> str:
    from hampath.csvfmt import csv_text  # loaded by the first write, not by import

    gaps = cert.interior_residuals
    incl = cert.inclusion_residuals
    if incl is None:
        incl = np.full(gaps.shape, np.nan)
    # the interval index as floats: '%.17g' % float(k) == '%d' % k
    table = np.column_stack([np.arange(gaps.size, dtype=float), gaps, incl])
    return csv_text(["interval", "fenchel_gap", "inclusion_residual"], table)


def _solve_report(result, cfg: ProblemConfig) -> str:
    spec = cfg.spec
    lines = ["hampath solve report", "=" * 20]
    lines.append(f"status: {result.status.value}")
    lines.append(f"mode: {type(spec.boundary).__name__}")
    lines.append(f"T: {_fmt(spec.T)}  N: {cfg.N}  M: {cfg.params.M}")
    lines.append(f"certified_hamiltonian: {result.certified_hamiltonian}")
    lines.append("")
    lines.append("certificate:")
    for ln in result.certificate.to_text().splitlines():
        lines.append("  " + ln)
    if result.certificate_true is not None and result.certificate_true is not result.certificate:
        lines.append("certificate_smoothing_removed:")
        for ln in result.certificate_true.to_text().splitlines():
            lines.append("  " + ln)
    elif result.certificate_true is None:
        lines.append("certificate_smoothing_removed: unavailable (conjugate has no closed form)")
    lines.append("")
    lines.append("stage_history:")
    for i, st in enumerate(result.stage_history):
        lines.append(
            f"  stage {i + 1}: eps={st.eps:g} lambda={st.lam:g} iters={st.iterations} "
            f"reason={st.reason} "
            f"objective={_fmt(st.objective)} grad_norm={_fmt(st.grad_norm)} "
            f"action_true={_fmt(st.action_true)}"
        )
    lines.append("")
    lines.append("hypothesis_report:")
    if result.checks is None:
        lines.append("  skipped (no growth certificate in config)")
    else:
        for ln in result.checks.to_text().splitlines():
            lines.append("  " + ln)
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    if cfg.spec.cert is None:
        raise ConfigError("growth", "section required for check")
    report = run_checks(cfg.spec, seed=cfg.params.seed)
    print(report.to_text())
    return EXIT_OK if report.passed else EXIT_HYPOTHESIS


def cmd_solve(args) -> int:
    if getattr(args, "verbose", False):
        import logging

        logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    cfg = load_config(args.config)
    params = cfg.params
    if args.seed is not None:
        try:
            params = replace(params, seed=args.seed)
        except ParamError as exc:
            raise UsageError(f"--seed: {exc}") from None
    outdir = _output_dir(args.out or cfg.output.get("dir", "."))
    result = solve(cfg.spec, params, init=cfg.init_path,
                   proceed_on_check_failure=bool(cfg.output.get("proceed_on_check_failure", False)))
    report = _solve_report(result, cfg)
    _write_artifacts(outdir, [("trajectory.csv", result.path.csv_text()),
                              ("report.txt", report),
                              ("residuals.csv", _residual_csv(result.certificate))])
    print(report)
    if result.status is SolveStatus.HYPOTHESIS_FAILED:
        return EXIT_HYPOTHESIS
    if result.status is SolveStatus.STALLED:
        return EXIT_STALLED
    return EXIT_OK


def _sweep_value(cfg: ProblemConfig, param: str, value: float):
    """One sweep member; returns a row dict (never raises)."""
    try:
        spec, params = cfg.spec, cfg.params
        if param == "lambda":
            params = replace(params, lambda_schedule=(float(value),), eps_schedule=(),
                             polish=False)
        elif param == "eps":
            params = replace(params, eps_schedule=(float(value),), lambda_schedule=(),
                             polish=False)
        elif param == "M":
            params = replace(params, M=int(value))
        elif param == "T":
            spec = replace(spec, T=float(value))
        result = solve(spec, params)
        row = {
            "value": value,
            "status": result.status.value,
            "action": result.certificate.action_value,
            "max_fenchel_gap": float(np.max(result.certificate.interior_residuals)),
            "path": result.path,
        }
        iv = interval_data(result.path)
        row["max_slope_norm"] = float(
            np.max(np.linalg.norm(iv.dp, axis=1) + np.linalg.norm(iv.dq, axis=1)))
        if param == "lambda":
            row["max_prox_displacement"] = _max_displacement(spec, result.path, float(value),
                                                             params.r)
        return row
    except Exception as exc:  # sweep keeps going; the row records the failure
        return {"value": value, "status": f"error: {exc}", "action": float("nan")}


def _refinement_differences(rows):
    """Sup distance between consecutive solved paths, resampled in time.

    Successive differences of an order-2 discretization shrink at order 2,
    which is what an M sweep is meant to exhibit.
    """
    prev = None
    for row in rows:
        path = row.pop("path", None)
        row["refinement_sup_diff"] = float("nan")
        if path is None or not isinstance(row.get("status"), str) \
                or row["status"].startswith("error"):
            prev = None
            continue
        if prev is not None:
            t = path.times
            diffs = []
            for j in range(path.N):
                diffs.append(np.abs(path.p_nodes[:, j]
                                    - np.interp(t, prev.times, prev.p_nodes[:, j])).max())
                diffs.append(np.abs(path.q_nodes[:, j]
                                    - np.interp(t, prev.times, prev.q_nodes[:, j])).max())
            row["refinement_sup_diff"] = float(max(diffs))
        prev = path


def _max_displacement(spec, path, lam, r):
    """Largest |(p,q) - (i(p), j(q))| along the path midpoints."""
    hl = InfConvolved(spec.hamiltonian, lam, r)
    iv = interval_data(path)
    ip, jq = hl.attaining_points(iv.pbar, iv.qbar)
    disp = np.linalg.norm(iv.pbar - ip, axis=1) + np.linalg.norm(iv.qbar - jq, axis=1)
    return float(disp.max())


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        raise UsageError("--values must be a comma-separated number list") from None
    if not values:
        raise UsageError("empty sweep value list")
    if args.param == "M" and not all(v.is_integer() and v > 0 for v in values):
        raise UsageError("--values for M must be positive integers")
    if not all(np.isfinite(values)):
        raise UsageError("--values must be finite numbers")
    if args.out:
        _output_dir(args.out)

    rows = [_sweep_value(cfg, args.param, v) for v in values]
    _refinement_differences(rows)

    keys = ["value", "status", "action", "max_fenchel_gap", "max_slope_norm"]
    if args.param == "lambda":
        keys.append("max_prox_displacement")
    if args.param == "M":
        keys.append("refinement_sup_diff")
    lines = [",".join(keys)]
    for row in rows:
        cells = []
        for k in keys:
            v = row.get(k, "")
            cells.append(_fmt(v) if isinstance(v, (int, float)) and k != "status" else str(v))
        lines.append(",".join(cells))
    table = "\n".join(lines) + "\n"
    if args.out:
        _write_artifacts(args.out, [("sweep.csv", table)])
    print(table, end="")
    # the table is printed either way; a sweep that solved none of its values was given
    # no usable value
    if all(row["status"].startswith("error") for row in rows):
        raise UsageError(f"no --values entry for {args.param} could be solved")
    return EXIT_OK


@functools.cache
def _parser() -> _ArgumentParser:
    """The command-line parser, built once per process; each parse returns a new
    namespace, so one call leaves nothing behind for the next."""
    parser = _ArgumentParser(
        prog="hampath",
        description="check, solve and certify convex Hamiltonian boundary value problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run the hypothesis checks from a config")
    p_check.add_argument("config")

    p_solve = sub.add_parser("solve", help="solve a problem and write artifacts")
    p_solve.add_argument("config")
    p_solve.add_argument("--out", default=None, help="output directory")
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("-v", "--verbose", action="store_true",
                         help="log per-stage optimizer progress")

    p_sweep = sub.add_parser("sweep", help="re-solve across a parameter range")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, choices=["lambda", "eps", "M", "T"])
    p_sweep.add_argument("--values", required=True, help="comma-separated list")
    p_sweep.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "check":
            return cmd_check(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_sweep(args)
    except (ConfigError, ScheduleError, UsageError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
