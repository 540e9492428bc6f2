"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, in
both trace modes and for every workload, and that the correctness check
counts a deliberately perturbed path, and a rerun whose artifacts changed,
as failed ops.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def check_emitted_metrics(spec):
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl["name"], "--seed", "7",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            assert proc.returncode == 0, f"{cmd}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, proc.stdout
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{wl['name']} trace={trace}: {set(got) ^ set(want)}"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), name
            print(f"ok  {wl['name']:<14} trace={trace}: {len(got)} metrics with units")


def _perturb_csv(path, shift):
    nodes = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    nodes[len(nodes) // 2, 1] += shift
    with open(path) as fh:
        header = fh.readline()
    with open(path, "w") as fh:
        fh.write(header)
        for row in nodes:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def check_perturbed_paths_fail():
    """Moving one node of a certified path by twice the reference tolerance fails the op."""
    from dataclasses import replace

    from hampath.grid import PathGrid

    def tamper(op, out):
        if op.path_tol is None:
            return
        if out.result is None:
            report = workloads.parse_report(Path(op_dirs[op.name], "report.txt").read_text())
            if report["status"] == workloads.CONVERGED:
                _perturb_csv(Path(op_dirs[op.name], "trajectory.csv"), 2.0 * op.path_tol(out))
                tampered.append(op.name)
        elif out.result.status.value == workloads.CONVERGED:
            p = out.result.path.p_nodes.copy()
            p[len(p) // 2] += 2.0 * op.path_tol(out)
            out.result = replace(out.result, path=PathGrid(out.result.path.T, p,
                                                           out.result.path.q_nodes))
            tampered.append(op.name)

    for name in ("closed_form", "power_law"):
        work = ROOT / ".perfbench_work" / f"selftest-{name}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            wl = workloads.WORKLOADS[name](7, str(work), True)
            op_dirs = {op.name: work / "out" / op.name.split(":", 1)[1] for op in wl.ops}
            workloads.setup(wl)
            tampered = []
            tally = run.Tally()
            run.run_batch(wl.ops, tally, tamper=tamper)
            assert tampered, f"{name}: no certified path to perturb"
            failed = {p.split(":", 2)[0] + ":" + p.split(":", 2)[1] for p in tally.problems}
            assert failed >= set(tampered), (tampered, tally.problems)
            for op_name in tampered:
                assert any(p.startswith(op_name + ":") and "reference" in p
                           for p in tally.problems), (op_name, tally.problems)
            assert any("certificate" in p for p in tally.problems), tally.problems
            print(f"ok  {name:<14} {len(tampered)} paths moved by 2x their tolerance "
                  "counted as failed ops")
        finally:
            shutil.rmtree(work, ignore_errors=True)


def check_reruns_must_be_byte_identical():
    work = ROOT / ".perfbench_work" / "selftest-rerun"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS["closed_form"](7, str(work), True)
        op = wl.ops[0]
        residuals = work / "out" / op.name.split(":", 1)[1] / "residuals.csv"

        def tamper(op, out):
            with open(residuals, "a") as fh:
                fh.write("\n")
        tally = run.Tally()
        run.run_batch([op], tally)
        run.run_batch([op], tally, tamper=tamper)
        assert tally.failed == 1 and "rerun differs" in tally.problems[0], tally.problems
        print("ok  closed_form    a rerun with a changed artifact is counted as a failed op")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_perturbed_paths_fail()
    check_reruns_must_be_byte_identical()
    check_emitted_metrics(spec)
    with contextlib.suppress(OSError):  # other runs may still be using it
        (ROOT / ".perfbench_work").rmdir()
    print("selftest passed")


if __name__ == "__main__":
    main()
