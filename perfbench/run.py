"""hampath benchmark: seeded workloads, end-to-end metrics and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload closed_form --seed 1 --seconds 50 --trace 0

Workloads are listed in BENCHMARK.json.  With ``--trace 0`` the run reports
the end-to-end metrics: the batch metrics come from repeating the workload's
op list in this warm process for ``--seconds``, and set-up and warm-up come
from fresh processes started between the batches.  With ``--trace 1`` it
alternates untraced and traced batches and reports per-layer metrics of the
traced ones plus the tracing overhead; it also runs the workload's long
ROADMAP cases once, untraced.  Every op's output is checked; the last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``, and the lines before it give a readable table, the ROADMAP named
cases and the run metadata (seed, commit, versions, CPU and thread counts).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FRESH_PROCESSES = 11
FRESH_TIMEOUT_S = 150

E2E_UNITS = {"batch_s": "s", "op_s_p50": "s", "setup_s": "s", "warmup_s": "s",
             "peak_rss_mb": "MiB", "certified_frac": "1"}


class Tally:
    """Attempted and failed ops, solve statuses and named-case results."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.statuses = []
        self.problems = []
        self.cases = {}
        self._first_info = {}

    def record(self, op, out, seconds):
        self.attempted += 1
        try:
            problems = op.check(out)
            info = op.info(out) if not problems else {}
        except Exception as exc:  # a check that cannot read the op's output fails the op
            problems, info = [f"check raised {type(exc).__name__}: {exc}"], {}
        first = self._first_info.setdefault(op.name, info)
        if info != first:
            problems = problems + [f"rerun differs: {info} vs {first}"]
        self.add(op.name, problems, op.solves(out) if not problems else [None])
        if op.case and not problems:
            entry = self.cases.setdefault(op.case, {"wall_s": []})
            entry["wall_s"].append(seconds)
            entry.update(info)

    def add(self, name, problems, statuses):
        self.statuses += statuses
        if problems:
            self.failed += 1
            self.problems.append(f"{name}: {'; '.join(problems)}")

    @property
    def certified_frac(self):
        return sum(s == "Converged" for s in self.statuses) / max(len(self.statuses), 1)


def run_batch(ops, tally, recorder=None, tamper=None):
    """Run the op list once; returns per-op wall seconds (checks are not timed)."""
    times = []
    for i, op in enumerate(ops):
        if recorder is not None:
            recorder.op, recorder.active = i, True
        t0 = time.perf_counter()
        out = op.run()
        dt = time.perf_counter() - t0
        if recorder is not None:
            recorder.active = False
        if tamper is not None:
            tamper(op, out)
        tally.record(op, out, dt)
        times.append(dt)
    return times


def fresh_probe(args, work, tally):
    """(set-up, first-op) seconds of one fresh process, or None if it failed."""
    cmd = [sys.executable, str(HERE / "fresh.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", work] + (["--tiny"] if args.tiny else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=FRESH_TIMEOUT_S)
    tally.attempted += 1
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        tally.add("fresh process", [f"exit {proc.returncode}: {tail[0]}"], [None])
        return None
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    tally.add(f"fresh {probe['op']}", probe["problems"], probe["statuses"])
    return probe["setup_s"], probe["warmup_s"]


def sweep_workers():
    """Sweep pool size, by the rule of hampath.cli.cmd_sweep (mirrored, not imported).

    The traced run counts the worker threads it sees and warns if they
    exceed this number.
    """
    return int(os.environ.get("HAMPATH_WORKERS", "0")) or min(4, os.cpu_count() or 1)


def openblas_threads():
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """HEAD's commit, from the loose ref or packed-refs; "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == name:
                return parts[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the package sources, which identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "hampath").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def metadata(args):
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "openblas_threads": openblas_threads(), "sweep_workers": sweep_workers(),
    }


def measure(args, wl, tally, work):
    """End-to-end metrics of one run (tracing off)."""
    import workloads

    count = 1 if args.tiny else FRESH_PROCESSES
    workloads.setup(wl)
    run_batch(wl.ops[:1], tally)  # warm-up op, excluded from the batch
    batches, op_times, probes = [], [], []
    start = time.perf_counter()
    # a fresh process follows each batch until all have run, so that set-up
    # and warm-up are sampled across the run, as the batches are, and a slow
    # spell of a shared host does not set all of their samples at once
    while not batches or time.perf_counter() - start < args.seconds:
        gc.collect()
        times = run_batch(wl.ops, tally)
        batches.append(sum(times))
        op_times.append(times)
        if len(probes) < count:
            probes.append(fresh_probe(args, work, tally))
    probes += [fresh_probe(args, work, tally) for _ in range(count - len(probes))]
    probes = [p for p in probes if p is not None]
    if not probes:
        sys.exit("perfbench: no fresh process completed: " + "; ".join(tally.problems))
    metrics = {
        "batch_s": statistics.median(batches),
        # each op's median over the batches, then the median over the ops
        "op_s_p50": statistics.median(statistics.median(t) for t in zip(*op_times)),
        "setup_s": statistics.median(p[0] for p in probes),
        "warmup_s": statistics.median(p[1] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "certified_frac": tally.certified_frac,
    }
    extra = {"batch_s": batches, "ops_per_batch": len(wl.ops),
             "failed_frac": tally.failed / tally.attempted}
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, extra


def measure_traced(args, wl, tally):
    """Per-layer metrics: median over traced batches, each paired with an untraced one."""
    import spans
    import workloads

    workloads.setup(wl)
    run_batch(wl.ops[:1], tally)
    run_batch(wl.cases, tally)  # the long ROADMAP cases, once and untraced
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    untraced, traced, layers, threads = [], [], [], 0
    start = time.perf_counter()
    def run_traced():
        rec.spans = []
        tracer.install()
        try:
            traced.append(sum(run_batch(wl.ops, tally, recorder=rec)))
        finally:
            tracer.uninstall()

    def run_untraced():
        untraced.append(sum(run_batch(wl.ops, tally)))

    while not traced or time.perf_counter() - start < args.seconds:
        # the side that runs first alternates, so that an order effect
        # within a pair cancels out of the overhead
        for run_one in (run_untraced, run_traced)[::1 if len(traced) % 2 == 0 else -1]:
            gc.collect()
            run_one()
        layers.append(spans.layer_metrics(rec.spans))
        threads = max(threads, spans.sweep_threads(rec.spans))
    if threads > sweep_workers():
        print(f"WARNING: sweeps ran on {threads} threads, more than the mirrored pool size "
              f"{sweep_workers()}; update run.sweep_workers()", file=sys.stderr)
    units = spans.per_layer_units()
    metrics = {k: {"value": statistics.median(r[k] for r in layers), "unit": units[k]}
               for k in layers[0]}
    # paired differences, so that a drift of the host's speed between
    # pairs does not enter the overhead
    overhead = statistics.median(t - u for t, u in zip(traced, untraced))
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    extra = {"traced_batch_s": traced, "untraced_batch_s": untraced,
             "spans_per_batch": len(rec.spans), "sweep_threads_seen": threads,
             "certified_frac": tally.certified_frac,
             "failed_frac": tally.failed / tally.attempted}
    return metrics, extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args(argv)
    if not (SRC / "hampath" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hampath source at {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(work), args.tiny)
        tally = Tally()
        if args.trace:
            metrics, extra = measure_traced(args, wl, tally)
        else:
            metrics, extra = measure(args, wl, tally, str(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            work.parent.rmdir()

    print(json.dumps({"meta": metadata(args)}))
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    if "certified_frac" in extra:
        print(f"{'certified_frac':<44} {extra['certified_frac']:>16.6g} 1")
    print(f"{'failed_frac':<44} {extra['failed_frac']:>16.6g} 1")
    for label, case in sorted(tally.cases.items()):
        print(f"case {label:<34} wall_s={statistics.median(case['wall_s']):.4f} "
              f"status={case['status']} action={case['action']:.3e} "
              f"iterations={case['iterations']}")
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({"report": extra}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
