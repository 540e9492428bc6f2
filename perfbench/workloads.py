"""Seeded workloads: generated inputs, the op list, and each op's correctness check.

An op is one ``hampath.cli.main([...])`` call or one library ``solve()``
call.  The seed draws symplectic changes of coordinates (rotations, sign
flips, permutations) of fixed base problems, so inputs differ from seed to
seed while the work does not; the ROADMAP baseline cases are fixed and
carried inside the workloads as named cases.  Every check returns a list of
problems; an empty list means the op is correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import yaml

import reference

STALLED, CONVERGED = "StalledAboveTol", "Converged"


@dataclass
class Outcome:
    exit_code: int | None = None
    stdout: str = ""
    result: object = None  # SolveResult of a library op
    error: str | None = None


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], list]
    solves: Callable[[Outcome], list] = field(default=lambda out: [])  # statuses of the solves
    case: str | None = None  # ROADMAP baseline label
    info: Callable[[Outcome], dict] = field(default=lambda out: {})
    # allowed sup distance of a certified output's path from its reference
    path_tol: Callable[[Outcome], float] | None = None


@dataclass
class Workload:
    ops: list  # one batch
    configs: list  # YAML inputs loaded at set-up
    cases_file: str | None = None  # JSON ProblemSpec descriptions built at set-up
    specs: dict = field(default_factory=dict)  # filled by setup(); library ops read it
    # long ROADMAP named cases, run once per traced run rather than in every batch
    cases: list = field(default_factory=list)


# -- input generation ------------------------------------------------------------


# Base problems are drawn once from BASE_SEED.  The run's seed draws an
# orthogonal R acting on p and on q alike: z -> (R p, R q) is symplectic and
# keeps isotropic potentials isotropic, so each seed poses a different problem
# (rotated matrices, data and solution) with the same spectrum and the same
# optimizer work.  That keeps runs with different seeds comparable.
BASE_SEED = 508356


def _spd(rng, n, lo, hi, coupled):
    eig = rng.permutation(np.linspace(lo, hi, n))
    if not coupled:
        return np.diag(eig)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = Q @ np.diag(eig) @ Q.T
    return 0.5 * (A + A.T)


def _unit(rng, n, norm):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v) * norm


def _orthogonal(rng, n, coupled):
    """Random rotation, or random sign flips when the matrices must stay diagonal."""
    if not coupled:
        return np.diag(rng.choice([-1.0, 1.0], n))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return Q


def _rotated_problem(base, rng, N, eig_range, coupled, norms):
    """Phase-space matrix and data vectors of one base problem, rotated by the seed."""
    A = _spd(base, 2 * N, *eig_range, coupled)
    vecs = [_unit(base, N, norm) for norm in norms]
    R = _orthogonal(rng, N, coupled)
    S = np.kron(np.eye(2), R)
    return S @ A @ S.T, [R @ v for v in vecs]


def _quad_term(A):
    return {"kind": "quadratic", "matrix": np.asarray(A).tolist(), "apply": "both"}


def _write_yaml(path, cfg):
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    return path


def _cauchy_cfg(A, p0, q0, T, M, beta):
    return {
        "problem": {"N": len(p0), "T": T},
        "hamiltonian": {"terms": [_quad_term(A)]},
        "boundary": {"mode": "cauchy", "p0": list(map(float, p0)), "q0": list(map(float, q0))},
        "growth": {"alpha": 0.01, "beta": beta, "gamma": 0.01, "r": 2},
        "solver": {"M": M, "tol_zero": 1e-6, "seed": 0},
    }


def _potential(scale, center):
    return {"kind": "quadratic", "scale": float(scale), "center": list(map(float, center))}


def _connecting_cfg(A, T, M, beta, psi1, psi2, index=2):
    N = A.shape[0] // 2
    return {
        "problem": {"N": N, "T": T},
        "hamiltonian": {"terms": [_quad_term(A)]},
        "boundary": {"mode": "connecting", "psi1": _potential(*psi1),
                     "psi2": _potential(*psi2), "coercivity_index": index},
        "growth": {"alpha": 0.01, "beta": beta, "gamma": 0.01},
        "solver": {"M": M, "tol_zero": 1e-6, "seed": 0},
    }


def _semiconvex_cfg(A, T, M, beta, psi1, psi2, d1, d2):
    N = A.shape[0] // 2
    return {
        "problem": {"N": N, "T": T},
        "hamiltonian": {"terms": [_quad_term(A)]},
        "boundary": {"mode": "semiconvex", "psi1": _potential(*psi1),
                     "psi2": _potential(*psi2), "delta1": float(d1), "delta2": float(d2)},
        "growth": {"alpha": 0.01, "beta": beta, "gamma": 0.01},
        "solver": {"M": M, "tol_zero": 1e-6, "seed": 0},
    }


# -- reference paths for linear configs ---------------------------------------------


def linear_reference(cfg, M=None):
    """(exact nodes (M+1, 2N), vector field, Lipschitz bound) of a generated quadratic config."""
    A = np.asarray(cfg["hamiltonian"]["terms"][0]["matrix"], dtype=float)
    T, b = cfg["problem"]["T"], cfg["boundary"]
    M = cfg["solver"]["M"] if M is None else M
    K = reference.flow_matrix(A, b.get("delta1", 0.0), b.get("delta2", 0.0))
    if b["mode"] == "cauchy":
        nodes = reference.linear_cauchy(K, b["p0"], b["q0"], T, M)
    else:
        N = A.shape[0] // 2
        S1 = 2.0 * b["psi1"]["scale"] * np.eye(N)
        S2 = 2.0 * b["psi2"]["scale"] * np.eye(N)
        nodes = reference.linear_connecting(K, S1, b["psi1"]["center"], S2, b["psi2"]["center"],
                                            T, M)
    return nodes, lambda z: z @ K.T, float(np.linalg.norm(K, 2))


def power_reference(case):
    """(RK4 nodes, vector field, Lipschitz bound) of a power-law library case."""
    N = len(case["p0"])
    quad = case["quad"] if case["quad"] is not None else np.zeros((2 * N, 2 * N))
    field = reference.power_field(quad, case["powers"])
    nodes = reference.rk4_nodes(field, case["p0"] + case["q0"], case["T"], case["M"])
    return nodes, field, reference.power_lipschitz(quad, case["powers"], float(np.abs(nodes).max()))


# -- running and checking CLI ops --------------------------------------------------


def cli_run(argv):
    def run():
        import hampath.cli

        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = hampath.cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crashed benchmark
            return Outcome(stdout=buf.getvalue(), error=f"{type(exc).__name__}: {exc}")
        return Outcome(exit_code=code, stdout=buf.getvalue())
    return run


def parse_report(text):
    """Status, certificate block and stage iterations of a solve report."""
    lines = text.splitlines()
    status = next(ln.split(": ", 1)[1] for ln in lines if ln.startswith("status: "))
    which = next(ln.split(": ", 1)[1] for ln in lines if ln.startswith("certified_hamiltonian: "))
    start = lines.index("certificate:") + 1
    block = []
    for ln in lines[start:]:
        if not ln.startswith("  "):
            break
        block.append(ln[2:])
    iters = [int(tok.split("=", 1)[1]) for ln in lines if ln.lstrip().startswith("stage ")
             for tok in ln.split() if tok.startswith("iters=")]
    action = float(next(ln.split(": ", 1)[1] for ln in block if ln.startswith("action_value: ")))
    return {"status": status, "certified_hamiltonian": which, "certificate": "\n".join(block),
            "iterations": sum(iters), "action": action}


def read_trajectory(path):
    """Nodes (M+1, 2N) of a trajectory.csv, parsed without hampath."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 1:]


def final_stage_hamiltonian(spec, params, which):
    """The Hamiltonian a solve certified against, rebuilt from its schedules."""
    if which == "true":
        return spec.hamiltonian
    from hampath.regularize import EpsPerturbed, InfConvolved

    eps = params.eps_schedule[-1] if params.eps_schedule else 0.0
    lam = params.lambda_schedule[-1] if params.lambda_schedule else 0.0
    H = spec.hamiltonian
    if eps > 0:
        H = EpsPerturbed(H, eps)
    if lam > 0:
        H = InfConvolved(H, lam, params.r)
    return H


def certificate_mismatch(spec, params, nodes, which, reported_text):
    """Recompute certify() on the returned path; it must equal the reported one."""
    from hampath.certify import certify
    from hampath.grid import PathGrid

    N = nodes.shape[1] // 2
    path = PathGrid(spec.T, nodes[:, :N], nodes[:, N:])
    H = final_stage_hamiltonian(spec, params, which)
    cert = certify(spec, path, tol=params.tol_zero, H=H)
    if cert.to_text() != reported_text:
        return [f"recomputed certificate differs (action {cert.action_value:.6e})"]
    return []


def reference_tolerance(ref, T, action):
    exact, field, lipschitz = ref
    return reference.path_tolerance(exact, field, T, action, lipschitz)


def reference_mismatch(nodes, ref, tol):
    """The path must match the independent reference within ``tol``."""
    exact = ref[0]
    if nodes.shape != exact.shape:
        return [f"path shape {nodes.shape} differs from reference {exact.shape}"]
    err = float(np.abs(nodes - exact).max())
    if not err <= tol:
        return [f"path differs from the reference by {err:.3e} > {tol:.3e}"]
    return []


ARTIFACTS = ("trajectory.csv", "report.txt", "residuals.csv")


def solve_op(name, cfg_path, out_dir, expect_codes, ref_fn=None, case=None):
    """CLI ``solve``; checks exit code, certificate and reference.

    Its info carries a digest of the three artifacts, so every rerun of the
    op in later batches must reproduce them byte for byte.
    """
    from_ref = {}

    def ref():
        if "ref" not in from_ref:
            from_ref["ref"] = ref_fn()
        return from_ref["ref"]

    def path_tol(out):
        with open(cfg_path) as fh:
            T = yaml.safe_load(fh)["problem"]["T"]
        return reference_tolerance(ref(), T, report(out)["action"])

    def check(out):
        if out.error:
            return [out.error]
        if out.exit_code not in expect_codes:
            return [f"exit code {out.exit_code} not in {sorted(expect_codes)}"]
        from hampath.config import load_config

        with open(os.path.join(out_dir, "report.txt")) as fh:
            rep = parse_report(fh.read())
        code_for = {CONVERGED: 0, STALLED: 3, "HypothesisFailed": 2}
        problems = []
        if code_for.get(rep["status"]) != out.exit_code:
            problems.append(f"status {rep['status']} does not match exit code {out.exit_code}")
        nodes = read_trajectory(os.path.join(out_dir, "trajectory.csv"))
        pc = load_config(cfg_path)
        problems += certificate_mismatch(pc.spec, pc.params, nodes, rep["certified_hamiltonian"],
                                         rep["certificate"])
        if ref_fn is not None and rep["status"] == CONVERGED:
            problems += reference_mismatch(nodes, ref(), path_tol(out))
        return problems

    def report(out):
        with open(os.path.join(out_dir, "report.txt")) as fh:
            return parse_report(fh.read())

    def solves(out):
        if out.error or out.exit_code is None:
            return [None]
        return [report(out)["status"]]

    def info(out):
        rep = report(out)
        digest = hashlib.sha256()
        for fname in ARTIFACTS:
            with open(os.path.join(out_dir, fname), "rb") as fh:
                digest.update(fh.read())
        return {"status": rep["status"], "action": rep["action"], "iterations": rep["iterations"],
                "artifacts_sha256": digest.hexdigest()}

    argv = ["solve", cfg_path, "--out", out_dir]
    return Op(name, cli_run(argv), check, solves, case, info, path_tol if ref_fn else None)


def check_op(name, cfg_path, expect_code):
    def check(out):
        if out.error:
            return [out.error]
        if out.exit_code != expect_code:
            return [f"exit code {out.exit_code}, expected {expect_code}"]
        if expect_code == 2 and "beta_smallness: FAILED" not in out.stdout:
            return ["hypothesis failure is not the beta threshold"]
        return []
    return Op(name, cli_run(["check", cfg_path]), check)


def _sweep_rows(stdout):
    lines = [ln for ln in stdout.splitlines() if ln.strip()]
    keys = lines[0].split(",")
    return [dict(zip(keys, ln.split(","))) for ln in lines[1:]]


def sweep_op(name, cfg_path, param, values, allowed, slope_ref=None):
    """CLI ``sweep``; every row must solve with an allowed status.

    With ``slope_ref(M) -> (max slope norm, tolerance)`` the rows of an M sweep
    are also held against the exact path's slopes.
    """
    def check(out):
        if out.error:
            return [out.error]
        if out.exit_code != 0:
            return [f"exit code {out.exit_code}"]
        rows = _sweep_rows(out.stdout)
        if [float(r["value"]) for r in rows] != [float(v) for v in values]:
            return ["sweep rows do not match the requested values"]
        problems = []
        for r in rows:
            if r["status"] not in allowed:
                problems.append(f"{param}={r['value']}: status {r['status']}")
                continue
            if not float(r["action"]) >= 0.0:
                problems.append(f"{param}={r['value']}: action {r['action']}")
            if param == "lambda" and not np.isfinite(float(r["max_prox_displacement"])):
                problems.append(f"lambda={r['value']}: displacement {r['max_prox_displacement']}")
            if slope_ref is not None:
                want, tol = slope_ref(int(float(r["value"])))
                if not abs(float(r["max_slope_norm"]) - want) <= tol:
                    problems.append(f"M={r['value']}: slope norm {r['max_slope_norm']} vs {want:.6g}")
        return problems

    def solves(out):
        if out.error or out.exit_code != 0:
            return [None] * len(values)
        return [r["status"] for r in _sweep_rows(out.stdout)]

    argv = ["sweep", cfg_path, "--param", param, "--values", ",".join(str(v) for v in values)]
    return Op(name, cli_run(argv), check, solves)


# -- library ops ------------------------------------------------------------------------


def build_spec(case):
    """ProblemSpec of a power-law description: z'Az/2 + sum_j scale_j |z|^r_j."""
    from hampath import Cauchy, Hamiltonian, PowerNorm, ProblemSpec, Quadratic, Sum

    N = len(case["p0"])
    parts = []
    if case["quad"] is not None:
        parts.append(Quadratic(np.asarray(case["quad"], dtype=float)))
    parts += [PowerNorm(r, scale, dim=2 * N) for r, scale in case["powers"]]
    fn = parts[0] if len(parts) == 1 else Sum(parts)
    return ProblemSpec(Hamiltonian(fn, N), case["T"], Cauchy(case["p0"], case["q0"]), None)


def library_op(case, specs):
    """Library ``solve()`` of a power-law Cauchy case built at set-up."""
    from_ref = {}

    def ref():
        if "ref" not in from_ref:
            from_ref["ref"] = power_reference(case)
        return from_ref["ref"]

    def path_tol(out):
        return reference_tolerance(ref(), case["T"], out.result.certificate.action_value)

    def run():
        import hampath.solver
        from hampath import SolveParams

        try:
            res = hampath.solver.solve(specs[case["name"]], SolveParams(M=case["M"]))
        except Exception as exc:
            return Outcome(error=f"{type(exc).__name__}: {exc}")
        return Outcome(result=res)

    def check(out):
        if out.error:
            return [out.error]
        from hampath import SolveParams

        res, spec = out.result, specs[case["name"]]
        if res.status.value not in (CONVERGED, STALLED):
            return [f"status {res.status.value}"]
        params = SolveParams(M=case["M"])
        nodes = np.hstack([res.path.p_nodes, res.path.q_nodes])
        problems = certificate_mismatch(spec, params, nodes, res.certified_hamiltonian,
                                        res.certificate.to_text())
        if res.status.value == CONVERGED:
            problems += reference_mismatch(nodes, ref(), path_tol(out))
        return problems

    def solves(out):
        return [None] if out.error else [out.result.status.value]

    def info(out):
        res = out.result
        return {"status": res.status.value, "action": res.certificate.action_value,
                "iterations": sum(s.iterations for s in res.stage_history)}

    return Op(case["name"], run, check, solves, case.get("case"), info, path_tol)


# -- the workloads ------------------------------------------------------------------------

# Fixed ROADMAP baseline configs, regenerated here so the program sees only
# benchmark-written inputs.
P1_CONNECTING = {
    "problem": {"N": 1, "T": 0.2},
    "hamiltonian": {"terms": [_quad_term([[0.1, 0.0], [0.0, 0.1]])]},
    "boundary": {"mode": "connecting", "psi1": _potential(0.5, [1.0]),
                 "psi2": _potential(0.5, [0.0]), "coercivity_index": 2},
    "growth": {"alpha": 0.01, "beta": 0.1, "gamma": 0.01},
    "solver": {"M": 400, "tol_zero": 1e-6, "seed": 0},
}
SEMICONVEX = {
    "problem": {"N": 1, "T": 1.0},
    "hamiltonian": {"terms": [_quad_term([[0.05, 0.0], [0.0, 0.05]])]},
    "boundary": {"mode": "semiconvex", "psi1": _potential(3.0, [0.5]),
                 "psi2": _potential(0.5, [0.0]), "delta1": -0.1, "delta2": -0.1},
    "growth": {"alpha": 0.01, "beta": 0.05, "gamma": 0.01},
    "solver": {"M": 200, "tol_zero": 1e-6, "seed": 0},
}


def closed_form(seed, work, tiny=False):
    """Quadratic H in all three boundary modes, through the CLI."""
    base, rng = np.random.default_rng(BASE_SEED), np.random.default_rng(seed)
    big, small = (200, 100) if tiny else (8000, 2000)
    cfgs = {}
    cfgs["harmonic"] = _cauchy_cfg(np.eye(2), [1.0], [0.0], 1.0, 400 if tiny else 4000, 0.5)
    cfgs["harmonic"]["solver"]["eps_schedule"] = [1e-1, 1e-2, 1e-3, 1e-4]
    cfgs["p1_connecting"] = P1_CONNECTING
    cfgs["semiconvex"] = SEMICONVEX
    for key, N, M, coupled in (("cauchy_n2", 2, big, True), ("cauchy_n4", 4, small, False),
                               ("sweep_m", 1, 100, True)):
        A, (p0, q0) = _rotated_problem(base, rng, N, (0.5, 1.5), coupled, (1.0, 0.3))
        cfgs[key] = _cauchy_cfg(A, p0, q0, 1.0, M, 1.0)
    for key, N, M in (("connecting_n2", 2, big), ("connecting_n4", 4, small)):
        A, (c1, c2) = _rotated_problem(base, rng, N, (0.05, 0.3), True, (0.8, 0.2))
        cfgs[key] = _connecting_cfg(A, 0.5, M, 0.35, (0.5, c1), (1.5, c2))
    for key, N, M in (("semiconvex_n1", 1, big), ("semiconvex_n2", 2, small)):
        A, (c1, c2) = _rotated_problem(base, rng, N, (0.01, 0.05), N > 1, (0.4, 0.1))
        cfgs[key] = _semiconvex_cfg(A, 1.0, M, 0.05, (4.0, c1), (1.0, c2), -0.12, -0.08)
    A, (c1,) = _rotated_problem(base, rng, 1, (0.05, 0.3), False, (0.8,))
    cfgs["connecting_over_beta"] = _connecting_cfg(A, 0.5, small, 0.6, (0.5, c1), (1.5, [0.0]))
    paths = {k: _write_yaml(os.path.join(work, f"{k}.yaml"), v) for k, v in cfgs.items()}

    def ref(key):
        return lambda: linear_reference(cfgs[key])

    def out(key):
        return os.path.join(work, "out", key)

    # the first op is also the warm-up op that fresh processes time
    ops = [solve_op(f"solve:{key}", paths[key], out(key), {0}, ref(key))
           for key in ("cauchy_n2", "cauchy_n4", "connecting_n2", "connecting_n4",
                       "semiconvex_n1", "semiconvex_n2")]
    named = {"harmonic": f"harmonic Cauchy M={cfgs['harmonic']['solver']['M']}",
             "p1_connecting": "p1 connecting M=400", "semiconvex": "semiconvex config M=200"}
    ops += [solve_op(f"solve:{key}", paths[key], out(key), {0}, ref(key), case=label)
            for key, label in named.items()]
    ops.append(check_op("check:cauchy_n2", paths["cauchy_n2"], 0))
    ops.append(check_op("check:semiconvex_n1", paths["semiconvex_n1"], 0))
    ops.append(check_op("check:connecting_over_beta", paths["connecting_over_beta"], 2))

    sweep_cfg = cfgs["sweep_m"]
    # sized so that the middle op of the batch, which sets op_s_p50, is a
    # single-threaded solve rather than this two-worker sweep
    Ms = [50, 100] if tiny else [2000, 4000, 8000]

    def slope_ref(M):
        z = linear_reference(sweep_cfg, M)[0]
        dz = np.diff(z, axis=0) * (M / sweep_cfg["problem"]["T"])
        want = float(np.max(np.abs(dz[:, 0]) + np.abs(dz[:, 1])))
        return want, 1e-3 * (1.0 + want)
    ops.append(sweep_op("sweep:M", paths["sweep_m"], "M", Ms, {CONVERGED}, slope_ref))
    return Workload(ops, list(paths.values()))


def _grid_csv(path, fn, half=4.0, n=41):
    x = np.linspace(-half, half, n)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    vals = fn(X1, X2)
    with open(path, "w") as fh:
        fh.write("x," + ",".join(f"{v:.17g}" for v in x) + "\n")
        for i, xi in enumerate(x):
            fh.write(",".join([f"{xi:.17g}"] + [f"{v:.17g}" for v in vals[i]]) + "\n")


def power_law(seed, work, tiny=False):
    """Power-law Cauchy problems through the library, a CLI lambda sweep and a 2-D grid solve.

    The scalar-inverse conjugates make root finding the dominant layer; the
    tabulated grid solve is the only path through legendre and the generic
    scipy inner solves.  The batch is kept near three seconds so that a run
    repeats it about ten times, and its two middle ops, which set op_s_p50,
    are single-threaded solves.  The long ROADMAP cases (PowerNorm r=4 and
    r=6, the full 2-D grid solve) are the workload's ``cases``, run once per
    traced run.
    """
    rng = np.random.default_rng(seed)
    mixed_M = 100 if tiny else 1000
    cases = [
        {"name": "solve:mixed", "case": f"mixed quad+quartic M={mixed_M}",
         "quad": (0.5 * np.eye(2)).tolist(), "powers": [(4.0, 0.1)],
         "p0": [1.0], "q0": [0.0], "T": 1.0, "M": mixed_M},
    ]
    # separable H: permuting coordinates and flipping (p_i, q_i) jointly are symplectic
    perm, sign = rng.permutation(2), rng.choice([-1.0, 1.0], 2)
    diag = np.linspace(0.2, 0.5, 4)
    cases.append({
        "name": "solve:quartic",
        "quad": np.diag(np.concatenate([diag[:2][perm], diag[2:][perm]])).tolist(),
        "powers": [(4.0, 0.15)], "p0": sign.tolist(), "q0": (0.2 * sign).tolist(),
        "T": 1.0, "M": 50 if tiny else 300,
    })
    long_cases = [] if tiny else [
        {"name": "solve:powernorm_r4_p1.5", "case": "PowerNorm r=4 p0=1.5 M=200",
         "quad": None, "powers": [(4.0, 1.0)], "p0": [1.5], "q0": [0.0], "T": 1.0, "M": 200},
        {"name": "solve:powernorm_r6_p1.0", "case": "PowerNorm r=6 p0=1.0 M=200",
         "quad": None, "powers": [(6.0, 1.0)], "p0": [1.0], "q0": [0.0], "T": 1.0, "M": 200},
    ]
    cases_file = os.path.join(work, "cases.json")
    with open(cases_file, "w") as fh:
        json.dump(cases + long_cases, fh)
    specs = {}
    ops = [library_op(c, specs) for c in cases]

    sign = float(rng.choice([-1.0, 1.0]))
    sweep = {
        "problem": {"N": 1, "T": 1.0},
        "hamiltonian": {"terms": [
            {"kind": "quadratic", "scale": 0.25, "apply": "both"},
            {"kind": "power", "r": 4.0, "scale": 0.075, "apply": "both"},
        ]},
        "boundary": {"mode": "cauchy", "p0": [1.25 * sign], "q0": [0.2 * sign]},
        "solver": {"M": 40, "r": 4.0, "tol_zero": 1e-6, "seed": 0},
    }
    sweep_path = _write_yaml(os.path.join(work, "lambda_sweep.yaml"), sweep)
    ops.append(sweep_op("sweep:lambda", sweep_path, "lambda", [0.4, 0.2, 0.1],
                        {CONVERGED, STALLED}))

    # The grid data are fixed: mirrored data would change the scipy inner
    # solves' forward-difference work, so the seed does not touch them.
    _grid_csv(os.path.join(work, "H_grid.csv"), lambda x, y: 0.5 * (x * x + y * y))

    def grid_solve(key, M, max_iters, case=None):
        cfg = {
            "problem": {"N": 1, "T": 0.5},
            "hamiltonian": {"grid": {"file": "H_grid.csv"}},
            "boundary": {"mode": "cauchy", "p0": [0.5], "q0": [0.0]},
            "solver": {"M": M, "eps_schedule": [0.05], "lambda_schedule": [0.3],
                       "max_iters": max_iters, "r": 4.0, "tol_zero": 1e-6, "seed": 0},
        }
        path = _write_yaml(os.path.join(work, f"{key}.yaml"), cfg)
        label = case and f"{case} M={M} max_iters={max_iters}"
        return path, solve_op(f"solve:{key}", path, os.path.join(work, "out", key), {0, 3},
                              case=label)

    # one iteration per stage still builds both conjugates and runs the
    # scipy inner solves, at a third of the time of a second iteration
    grid_path, grid_op = grid_solve("grid", 10, 1)
    ops.append(grid_op)
    _, grid_case = grid_solve("grid_roadmap", 5 if tiny else 10, 2 if tiny else 15, "2-D grid H")
    long_ops = [library_op(c, specs) for c in long_cases] + [grid_case]
    return Workload(ops, [sweep_path, grid_path], cases_file, specs, long_ops)


WORKLOADS = {"closed_form": closed_form, "power_law": power_law}


def setup(workload: Workload):
    """Load every generated input and build the base Hamiltonians' conjugate pairs."""
    from hampath.config import load_config

    specs = workload.specs
    for path in workload.configs:
        specs[path] = load_config(path).spec
    if workload.cases_file is not None:
        with open(workload.cases_file) as fh:
            for case in json.load(fh):
                specs[case["name"]] = build_spec(case)
    for spec in specs.values():
        spec.hamiltonian.pair()
