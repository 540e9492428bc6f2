"""Newton stages on quadratic actions: the block-tridiagonal solver, the
completed-square gaps, and the gate that leaves every other stage on L-BFGS."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hampath.action
import hampath.solver
from hampath.action import Cauchy, ProblemSpec, _evaluate, action_for, fenchel_young
from hampath.certify import certify
from hampath.cli import main
from hampath.config import load_config
from hampath.convex import Hamiltonian, PowerNorm, Quadratic
from hampath.grid import PathGrid, random_path
from hampath.regularize import EpsPerturbed
from hampath.solver import (
    BlockTridiagonalFactor,
    SolveParams,
    _node_hessian,
    newton_stage,
    solve,
)

from conftest import mixed_hamiltonian

ROOT = Path(__file__).parent.parent
CONFIG_DIR = ROOT / "configs"


def _random_system(rng, n, K):
    """Blocks of an SPD block-tridiagonal J'J + I / 10, with its dense matrix."""
    J = np.zeros((n * K, n * K))
    for k in range(K):
        J[k * n:(k + 1) * n, k * n:(k + 1) * n] = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
        if k + 1 < K:
            J[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = rng.normal(size=(n, n))
    dense = J.T @ J + 0.1 * np.eye(n * K)
    D = np.stack([dense[k * n:(k + 1) * n, k * n:(k + 1) * n] for k in range(K)], axis=-1)
    U = np.zeros((n, n, K - 1))
    for k in range(K - 1):
        U[:, :, k] = dense[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n]
    return D, U, dense


class TestBlockTridiagonal:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("K", [1, 2, 7, 8, 33, 64])
    def test_matches_dense_solve(self, rng, N, K):
        n = 2 * N
        D, U, dense = _random_system(rng, n, K)
        r = rng.normal(size=(n, K))
        x = BlockTridiagonalFactor(D, U).solve(r)
        want = np.linalg.solve(dense, r.T.ravel()).reshape(K, n).T
        assert np.abs(x - want).max() <= 1e-10 * np.abs(want).max()

    def test_inputs_untouched(self, rng):
        D, U, _ = _random_system(rng, 4, 9)
        r = rng.normal(size=(4, 9))
        copies = D.copy(), U.copy(), r.copy()
        BlockTridiagonalFactor(D, U).solve(r)
        for a, b in zip((D, U, r), copies):
            assert np.array_equal(a, b)


class TestCompletedSquare:
    def test_equals_two_sided_gap_and_stays_nonnegative(self, rng):
        A = rng.normal(size=(4, 4))
        f = Quadratic(A @ A.T + 0.5 * np.eye(4), rng.normal(size=4), 0.3)
        primal, dual = f.conjugate_pair()
        assert primal.gap_factor(dual) is not None
        x = rng.normal(size=(500, 4)) * 3.0
        # half the rows lie on the graph y = grad f(x), where the exact gap is zero
        y = np.vstack([rng.normal(size=(250, 4)) * 3.0, primal._grad(x[250:])])
        gaps, _, _ = fenchel_young(primal, dual, x, y)
        two_sided = primal._value(x) + dual._value(y) - np.sum(x * y, axis=1)
        scale = 1.0 + np.abs(primal._value(x)) + np.abs(dual._value(y))
        assert np.all(np.abs(gaps - two_sided) <= 1e-12 * scale)
        assert np.all(gaps >= 0.0)
        assert np.all(gaps[250:] <= 1e-24)

    def test_only_a_quadratic_with_its_own_conjugate(self):
        f = Quadratic(np.diag([2.0, 1.0]))
        other = Quadratic(np.diag([0.5, 1.0]))
        _, dual = f.conjugate_pair()
        assert f.gap_factor(other) is None
        assert PowerNorm(4.0, dim=2).gap_factor(dual) is None
        # every pair built, cached or not, gets a dual that knows its primal
        _, again = f._pair()
        assert f.gap_factor(again) is not None and f.gap_factor(dual) is not None


class TestNewtonStages:
    @pytest.mark.parametrize("name", ["harmonic_cauchy", "connecting_p1", "semiconvex"])
    def test_one_step_per_stage(self, name):
        cfg = load_config(str(CONFIG_DIR / f"{name}.yaml"))
        res = solve(cfg.spec, cfg.params)
        assert res.status.value == "Converged"
        ftarget = cfg.params.tol_zero * 1e-3
        for st in res.stage_history:
            assert st.iterations <= 1
            assert 0.0 <= st.objective
        assert 0.0 <= res.certificate.action_value <= ftarget
        assert np.all(res.certificate.interior_residuals >= 0.0)

    def test_quadratic_terms_on_p_and_q_are_one_quadratic(self, tmp_path):
        # H = p^2/2 + q^2/2 written term by term is the harmonic config exactly
        import yaml

        with open(CONFIG_DIR / "harmonic_cauchy.yaml") as fh:
            raw = yaml.safe_load(fh)
        raw["hamiltonian"]["terms"] = [{"kind": "quadratic", "scale": 0.5, "apply": "p"},
                                       {"kind": "quadratic", "scale": 0.5, "apply": "q"}]
        split = tmp_path / "split.yaml"
        split.write_text(yaml.safe_dump(raw))
        cfg = load_config(str(split))
        res = solve(cfg.spec, cfg.params)
        assert all(st.iterations <= 1 for st in res.stage_history)
        whole = load_config(str(CONFIG_DIR / "harmonic_cauchy.yaml"))
        ref = solve(whole.spec, whole.params)
        assert res.path.csv_text() == ref.path.csv_text()

    @pytest.mark.parametrize("name", ["harmonic_cauchy", "connecting_p1", "semiconvex"])
    def test_exact_step_from_a_random_path(self, rng, name):
        cfg = load_config(str(CONFIG_DIR / f"{name}.yaml"))
        spec = cfg.spec
        g = random_path(rng, spec.T, 1, 60, smooth=True)
        if isinstance(spec.boundary, Cauchy):
            p, q = g.p_nodes.copy(), g.q_nodes.copy()
            p[0], q[0] = spec.boundary.p0, spec.boundary.q0
            g = PathGrid(g.T, p, q)
        H = EpsPerturbed(spec.hamiltonian, 0.01)
        start = action_for(spec, g, H=H).total
        path, f, grad, iters, reason = newton_stage(spec, H, g, 5, 1e-18)
        assert (iters, reason) == (1, "ftarget")
        assert 0.0 <= f <= 1e-18 < start
        assert np.abs(grad).max() <= 1e-9

    def test_step_without_decrease_hands_the_stage_to_lbfgs(self, monkeypatch):
        cfg = load_config(str(CONFIG_DIR / "harmonic_cauchy.yaml"))
        runs = []
        lbfgs = hampath.solver.lbfgs

        def counted(*args, **kwargs):
            runs.append(1)
            return lbfgs(*args, **kwargs)
        # a zero step leaves the action where it was
        monkeypatch.setattr(hampath.solver.BlockTridiagonalFactor, "solve",
                            lambda self, r: np.zeros_like(r))
        monkeypatch.setattr(hampath.solver, "lbfgs", counted)
        res = solve(cfg.spec, cfg.params)
        assert res.status.value == "Converged"
        # a stage that starts at its target takes no step and needs no hand-over
        assert len(runs) == sum(st.iterations > 0 for st in res.stage_history) > 0

    def test_sweep_over_M_prints_nonnegative_actions(self, capsys):
        code = main(["sweep", str(CONFIG_DIR / "harmonic_cauchy.yaml"), "--param", "M",
                     "--values", "2000,4000,8000"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        keys = lines[0].split(",")
        rows = [dict(zip(keys, ln.split(","))) for ln in lines[1:]]
        assert [r["status"] for r in rows] == ["Converged"] * 3
        assert all(float(r["action"]) >= 0.0 for r in rows)

    def test_closed_form_solve_imports_no_scipy(self, tmp_path):
        code = (
            "import contextlib, io, sys\n"
            "from hampath.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for name in ('harmonic_cauchy', 'connecting_p1', 'semiconvex'):\n"
            f"        main(['solve', {str(CONFIG_DIR)!r} + f'/{{name}}.yaml', '--out',\n"
            f"              {str(tmp_path)!r} + f'/{{name}}'])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


QUADRATIC_CONFIGS = ["harmonic_cauchy", "connecting_p1", "semiconvex", "lambda_sweep"]


class TestExactFinalStage:
    @pytest.mark.parametrize("name", QUADRATIC_CONFIGS)
    def test_default_schedule_records_one_stage(self, name):
        cfg = load_config(str(CONFIG_DIR / f"{name}.yaml"))
        assert len(cfg.params.eps_schedule) == 4
        res = solve(cfg.spec, cfg.params)
        assert res.status.value == "Converged"
        [st] = res.stage_history
        assert (st.eps, st.lam, st.iterations, st.reason) == (0.0, 0.0, 1, "ftarget")
        assert st.action_true == st.objective == res.certificate.action_value

    def test_lambda_schedule_runs_no_lbfgs(self, monkeypatch):
        cfg = load_config(str(CONFIG_DIR / "harmonic_cauchy.yaml"))
        monkeypatch.setattr(hampath.solver, "lbfgs", _refuse)
        params = replace(cfg.params, lambda_schedule=(0.3, 0.1))
        res = solve(cfg.spec, params)
        assert res.status.value == "Converged"
        assert [(st.eps, st.lam) for st in res.stage_history] == [(0.0, 0.0)]
        assert res.certified_hamiltonian == "true"

    def test_node_hessian_is_factored_once(self, monkeypatch, rng):
        factored, solved = [], []

        class Counted(hampath.solver.BlockTridiagonalFactor):
            def __init__(self, D, U):
                factored.append(1)
                super().__init__(D, U)

            def solve(self, r):
                solved.append(1)
                return super().solve(r)
        monkeypatch.setattr(hampath.solver, "BlockTridiagonalFactor", Counted)
        cfg = load_config(str(CONFIG_DIR / "connecting_p1.yaml"))
        res = solve(cfg.spec, cfg.params)
        assert res.status.value == "Converged"
        # one step and its refinement, both on one factorization
        assert (len(factored), len(solved)) == (1, 2)
        # further Newton steps of one stage reuse the factorization too
        factored.clear()
        solved.clear()
        spec = cfg.spec
        g = random_path(rng, spec.T, 1, 60, smooth=True)
        H = EpsPerturbed(spec.hamiltonian, 0.01)
        newton_stage(spec, H, g, 5, 0.0)
        assert len(factored) == 1 and len(solved) >= 2

    def test_refinement_strengthens_the_certificate(self):
        # one unrefined step from the zero path leaves the action near rounding level
        cfg = load_config(str(CONFIG_DIR / "connecting_p1.yaml"))
        spec, H = cfg.spec, cfg.spec.hamiltonian
        assert cfg.params.M == 400
        g = PathGrid.zeros(spec.T, 1, cfg.params.M)
        gp, gq = action_for(spec, g).gradient()
        factor = BlockTridiagonalFactor(*_node_hessian(spec, H, g))
        z = np.hstack([g.p_nodes, g.q_nodes]) + factor.solve(-np.hstack([gp, gq]).T).T
        unrefined = certify(spec, PathGrid(g.T, z[:, :1], z[:, 1:]), tol=cfg.params.tol_zero)
        refined = solve(spec, cfg.params).certificate
        bound = 1e-24
        assert unrefined.action_value > bound
        assert 0.0 <= refined.action_value <= bound
        assert refined.inclusion_residuals.max() < unrefined.inclusion_residuals.max()

    @pytest.mark.parametrize("name, stages", [("harmonic_cauchy", 1), ("separable_mixed", 5)])
    def test_exactness_is_decided_once_per_stage(self, monkeypatch, name, stages):
        decided = []
        real = hampath.solver._quadratic_stage
        monkeypatch.setattr(hampath.solver, "_quadratic_stage",
                            lambda spec, H: decided.append(H) or real(spec, H))
        cfg = load_config(str(CONFIG_DIR / f"{name}.yaml"))
        res = solve(cfg.spec, replace(cfg.params, max_iters=2))
        assert len(decided) == len(set(map(id, decided))) == stages
        assert len(res.stage_history) == stages


def _two_sided(primal, dual, x, y):
    fx, dx = _evaluate(primal, x)
    fy, dy = _evaluate(dual, y)
    return fx + fy - np.sum(x * y, axis=1), dx, dy


def _refuse(*args, **kwargs):
    raise AssertionError("a non-quadratic stage entered the Newton engine")


NON_QUADRATIC = {
    "mixed": lambda: (ProblemSpec(mixed_hamiltonian(), 1.0, Cauchy([1.0], [0.0]), None),
                      SolveParams(M=100)),
    "separable_mixed": lambda: _config("separable_mixed"),
    "grid_cauchy": lambda: _config("grid_cauchy"),
    "powernorm_r4": lambda: (ProblemSpec(Hamiltonian(PowerNorm(4.0, 1.0, dim=2), 1), 1.0,
                                         Cauchy([1.5], [0.0]), None), SolveParams(M=20)),
}


def _config(name):
    cfg = load_config(str(CONFIG_DIR / f"{name}.yaml"))
    return cfg.spec, cfg.params


@pytest.mark.parametrize("case", list(NON_QUADRATIC))
def test_non_quadratic_solves_are_the_lbfgs_continuation(monkeypatch, case):
    """Outside quadratic pairs, a solve is L-BFGS on the two-sided Fenchel-Young action,
    bit for bit."""
    spec, params = NON_QUADRATIC[case]()
    got = solve(spec, params).path
    spec, params = NON_QUADRATIC[case]()
    monkeypatch.setattr(hampath.solver, "newton_stage", _refuse)
    monkeypatch.setattr(hampath.action, "fenchel_young", _two_sided)
    want = solve(spec, params).path
    assert got.p_nodes.tobytes() == want.p_nodes.tobytes()
    assert got.q_nodes.tobytes() == want.q_nodes.tobytes()
