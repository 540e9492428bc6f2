"""Span recorder and layer wrappers installed from outside the package.

Each wrapped entry point records a span (name, start, end, parent, op id)
while an op runs.  A wrapper replaces the original object in every hampath
module that bound it, so ``from x import f`` copies are traced too.  Spans
stay in memory until the batch ends and are reduced to per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int
    extra: dict = field(default_factory=dict)


class Recorder:
    """Collects spans from the main thread and from sweep worker threads."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self.op = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name, fn, args, kwargs, extra_fn=None, caller=None):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:  # a worker thread starts under whatever the main thread is running
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        extra = {"caller": caller} if caller else {}
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            if extra_fn is not None:
                extra.update(extra_fn(args, kwargs, out))
            return out
        finally:
            stack.pop()
            self.spans.append(Span(sid, name, start, time.perf_counter(), parent, self.op,
                                   threading.get_ident(), extra))


def _caller_module(depth=2):
    name = sys._getframe(depth).f_globals.get("__name__", "")
    return name.rsplit(".", 1)[-1]


class Tracer:
    """Installs wrappers on hampath's layer entry points and removes them again."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._undo = []

    # -- patching helpers ---------------------------------------------------
    def _rebind_function(self, module_name, attr, wrapper_factory):
        mod = sys.modules[module_name]
        orig = getattr(mod, attr)
        wrapper = functools.wraps(orig)(wrapper_factory(orig))
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "hampath" or mname.startswith("hampath.")):
                continue
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)
                    self._undo.append((m, key, orig))

    def _rebind_method(self, cls, attr, wrapper_factory):
        orig = cls.__dict__[attr]
        setattr(cls, attr, functools.wraps(orig)(wrapper_factory(orig)))
        self._undo.append((cls, attr, orig))

    def _span(self, name, extra_fn=None):
        rec = self.rec

        def factory(orig):
            def wrapper(*args, **kwargs):
                return rec.call(name, orig, args, kwargs, extra_fn)
            return wrapper
        return factory

    # -- layer wrappers -------------------------------------------------------
    def install(self):
        import scipy.optimize

        import hampath.cli
        import hampath.convex
        import hampath.regularize

        rec = self.rec
        span = self._span
        self._rebind_function("hampath.config", "load_config", span("config.load_config"))
        self._rebind_function("hampath.conditions", "run_checks", span("conditions.run_checks"))
        self._rebind_method(hampath.convex.Hamiltonian, "pair", span("convex.pair"))
        self._rebind_method(hampath.regularize.EpsPerturbed, "pair", span("convex.pair"))
        self._rebind_function(
            "hampath.legendre", "discrete_conjugate",
            span("legendre.discrete_conjugate",
                 lambda a, k, out: {"points": int(a[0].values.size)}))
        self._rebind_method(hampath.regularize.InfConvolved, "attaining_points",
                            span("regularize.attaining_points"))
        self._rebind_function("hampath.rootfind", "bracket_root", span("rootfind.bracket_root"))
        self._rebind_function("hampath.grid", "interval_data", span("grid.interval_data"))
        self._rebind_function("hampath.action", "action_for", span("action.action_for"))
        self._rebind_function("hampath.action", "action_gradient", span("action.action_gradient"))
        self._rebind_function("hampath.solver", "solve", span("solver.solve"))
        self._rebind_function("hampath.certify", "certify", span("certify.certify"))
        self._rebind_function("hampath.cli", "_atomic_write",
                              span("cli.write", lambda a, k, out: {"bytes": len(a[1].encode())}))
        self._rebind_function("hampath.cli", "cmd_sweep", span("cli.sweep"))

        def newton_factory(orig):
            def wrapper(rho_drho, *args, **kwargs):
                if not rec.active:
                    return orig(rho_drho, *args, **kwargs)
                caller = _caller_module()
                count = [0]

                def counted(u):
                    count[0] += 1
                    return rho_drho(u)
                return rec.call("rootfind.newton_bisect", orig, (counted,) + args, kwargs,
                                lambda a, k, out: {"residual_evals": count[0]}, caller)
            return wrapper
        self._rebind_function("hampath.rootfind", "newton_bisect", newton_factory)

        def lbfgs_factory(orig):
            def wrapper(fun_grad, *args, **kwargs):
                if not rec.active:
                    return orig(fun_grad, *args, **kwargs)
                count = [0]

                def counted(z):
                    count[0] += 1
                    return rec.call("solver.objective", fun_grad, (z,), {})

                def extra(a, k, out):
                    return {"evals": count[0], "iterations": int(out[3]), "reason": out[4]}
                return rec.call("solver.lbfgs", orig, (counted,) + args, kwargs, extra)
            return wrapper
        self._rebind_function("hampath.solver", "lbfgs", lbfgs_factory)

        # hampath imports scipy.optimize.minimize inside the calling function,
        # so the module attribute itself is what must be replaced
        orig_min = scipy.optimize.minimize

        @functools.wraps(orig_min)
        def minimize(*args, **kwargs):
            caller = _caller_module()
            return rec.call("scipy.minimize", orig_min, args, kwargs,
                            lambda a, k, out: {"nfev": int(out.nfev)}, caller)
        scipy.optimize.minimize = minimize
        self._undo.append((scipy.optimize, "minimize", orig_min))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()


# -- reduction to per-layer metrics --------------------------------------------

LAYERS = (
    "config.load_config", "conditions.run_checks", "convex.pair",
    "legendre.discrete_conjugate", "scipy.minimize", "regularize.attaining_points",
    "rootfind.newton_bisect", "rootfind.bracket_root", "grid.interval_data",
    "action.action_for", "action.action_gradient", "solver.solve", "solver.lbfgs",
    "solver.objective", "certify.certify", "cli.write", "cli.sweep",
)


# spans that carry one work count besides their call count and seconds
COUNTED = {
    "rootfind.newton_bisect": "residual_evals",
    "scipy.minimize": "nfev",
    "legendre.discrete_conjugate": "points",
    "cli.write": "bytes",
}


def _ancestor(by_id, s, name):
    """Nearest ancestor span of ``s`` called ``name``, or None."""
    p = by_id.get(s.parent)
    while p is not None:
        if p.name == name:
            return p
        p = by_id.get(p.parent)
    return None


def sweep_threads(spans: list[Span]) -> int:
    """Most distinct threads that ran member solves of one sweep: its worker count."""
    by_id = {s.sid: s for s in spans}
    threads = defaultdict(set)
    for s in spans:
        if s.name == "solver.solve":
            sweep = _ancestor(by_id, s, "cli.sweep")
            if sweep is not None:
                threads[sweep.sid].add(s.thread)
    return max((len(t) for t in threads.values()), default=0)


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts and busy seconds for one batch of spans.

    ``.s`` sums spans with no ancestor of the same name, so recursion is not
    double counted while time in parallel sweep members adds up.  Self time
    is a span's duration minus the durations of its direct children.
    """
    by_id = {s.sid: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start

    def has_ancestor(s, name):
        return _ancestor(by_id, s, name) is not None

    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
    extras = defaultdict(int)
    lbfgs_self = 0.0
    sweep_member_s = 0.0
    for s in spans:
        dur = s.end - s.start
        out[f"{s.name}.calls"] += 1
        if not has_ancestor(s, s.name):
            out[f"{s.name}.s"] += dur
        caller = s.extra.get("caller")
        if caller in ("convex", "regularize"):
            extras[f"{s.name}.from_{caller}.calls"] += 1
            extras[f"{s.name}.from_{caller}.s"] += dur
        if s.name == "solver.lbfgs":
            lbfgs_self += max(dur - child_time[s.sid], 0.0)
            extras["solver.lbfgs.iterations"] += s.extra.get("iterations", 0)
            extras["solver.lbfgs.evals"] += s.extra.get("evals", 0)
            extras["solver.lbfgs.stages_at_cap"] += s.extra.get("reason") == "max_iters"
            extras["solver.lbfgs.stages_line_search"] += s.extra.get("reason") == "line_search"
        elif s.name in COUNTED:
            key = f"{s.name}.{COUNTED[s.name]}"
            extras[key] += s.extra.get(COUNTED[s.name], 0)
        elif s.name == "solver.solve" and has_ancestor(s, "cli.sweep"):
            sweep_member_s += dur

    for split_name in ("scipy.minimize", "rootfind.newton_bisect"):
        for caller in ("convex", "regularize"):
            for kind in ("calls", "s"):
                key = f"{split_name}.from_{caller}.{kind}"
                out[key] = extras.get(key, 0)
    for key in ("solver.lbfgs.iterations", "solver.lbfgs.evals", "solver.lbfgs.stages_at_cap",
                "solver.lbfgs.stages_line_search", "rootfind.newton_bisect.residual_evals",
                "scipy.minimize.nfev", "legendre.discrete_conjugate.points", "cli.write.bytes"):
        out[key] = int(extras.get(key, 0))
    out["solver.lbfgs.self_s"] = lbfgs_self
    stages = out["solver.lbfgs.calls"]
    out["solver.lbfgs.halvings"] = out["solver.lbfgs.evals"] - out["solver.lbfgs.iterations"] - stages
    evals = out["solver.lbfgs.evals"]
    out["solver.eval_accept_ratio"] = out["solver.lbfgs.iterations"] / evals if evals else 0.0
    sweep_s, workers = out["cli.sweep.s"], sweep_threads(spans)
    out["cli.sweep.parallel_eff"] = sweep_member_s / (workers * sweep_s) if sweep_s else 0.0
    return out


def per_layer_units() -> dict:
    """Unit of every metric layer_metrics() returns, plus the tracing overhead."""
    names = layer_metrics([])
    units = {}
    for name in names:
        suffix = name.rsplit(".", 1)[-1]
        if suffix in ("s", "self_s"):
            units[name] = "s"
        elif suffix == "bytes":
            units[name] = "B"
        elif suffix in ("eval_accept_ratio", "parallel_eff"):
            units[name] = "1"
        else:
            units[name] = "count"
    units["trace.overhead_s"] = "s"
    return units
