"""Fresh-process probe: the set-up and first-op costs a CLI user pays on every run.

Times ``import hampath`` (with its CLI), loading the generated inputs and
building the base Hamiltonians' conjugate pairs, then the first op of the
workload.  Prints one JSON line; ``run.py`` starts it several times and takes
medians.
"""

import argparse
import json
import sys
import time
from pathlib import Path

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--work", required=True)
parser.add_argument("--tiny", action="store_true")
args = parser.parse_args()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

t0 = time.perf_counter()
import hampath  # noqa: E402
import hampath.cli  # noqa: E402,F401
import_s = time.perf_counter() - t0

import workloads  # noqa: E402

wl = workloads.WORKLOADS[args.workload](args.seed, args.work, args.tiny)
t1 = time.perf_counter()
workloads.setup(wl)
setup_s = import_s + time.perf_counter() - t1

op = wl.ops[0]
t2 = time.perf_counter()
out = op.run()
warmup_s = time.perf_counter() - t2
try:
    problems = op.check(out)
except Exception as exc:  # a check that cannot read the op's output fails the op
    problems = [f"check raised {type(exc).__name__}: {exc}"]
print(json.dumps({"setup_s": setup_s, "warmup_s": warmup_s, "op": op.name,
                  "problems": problems, "statuses": op.solves(out) if not problems else [None]}))
