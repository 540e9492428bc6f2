"""Newton stages: the block-tridiagonal solver, the completed-square gaps, the
Hessians of the Fenchel pair sides, and the gate that runs a final stage whose
pair has Hessians alone under Newton and hands every other solve, and every
Newton attempt that stops short, to the L-BFGS continuation."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hampath.action
import hampath.convex
import hampath.regularize
import hampath.solver
from hampath.action import Cauchy, ProblemSpec, action_for, fenchel_young
from hampath.certify import certify
from hampath.cli import main
from hampath.config import load_config
from hampath.convex import (
    GridSampled,
    Hamiltonian,
    PowerNorm,
    Quadratic,
    ScalarConjugate,
    SeparableSum,
    Sum,
    affine,
)
from hampath.grid import PathGrid, random_path
from hampath.legendre import GridFn
from hampath.regularize import EpsPerturbed, InfConvolved
from hampath.rootfind import RootFindError
from hampath.solver import (
    BlockTridiagonalFactor,
    SolveParams,
    _node_hessian,
    newton_stage,
    solve,
)

from conftest import coupled_hamiltonian, decline_march, mixed_hamiltonian

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

    def test_strided_inputs_solve_bitwise_as_contiguous_ones(self, rng):
        D, U, _ = _random_system(rng, 4, 33)
        r = rng.normal(size=(4, 33))
        want = BlockTridiagonalFactor(D, U).solve(r)

        def block_axis_strided(a):
            # the layout np.moveaxis leaves on a (K, n, n) stack of blocks
            return np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)

        Ds, Us = block_axis_strided(D), block_axis_strided(U)
        assert Ds.strides[-1] == Us.strides[-1] == 16 * D.itemsize
        got = BlockTridiagonalFactor(Ds, Us).solve(r)
        assert got.tobytes() == want.tobytes()
        # a constant coupling, as exact stages pass it: a zero-stride broadcast
        Ub = np.broadcast_to(U[:, :, :1], U.shape)
        want = BlockTridiagonalFactor(D, np.ascontiguousarray(Ub)).solve(r)
        assert BlockTridiagonalFactor(D, Ub).solve(r).tobytes() == want.tobytes()

    @pytest.mark.parametrize("case, stride", [("mixed", 1), ("harmonic", 0)])
    def test_node_blocks_have_a_unit_stride_block_axis(self, case, stride):
        """Per-interval blocks are laid out block axis last with unit stride, which the
        block products walk 2-3x faster than the d^2 stride of a moveaxis'd stack;
        constant blocks stay zero-stride broadcasts."""
        H = mixed_hamiltonian() if case == "mixed" else Hamiltonian(Quadratic(np.eye(2)), 1)
        spec = ProblemSpec(H, 1.0, Cauchy([1.0], [0.0]), None)
        g = PathGrid.constant(spec.T, [1.0], [0.0], 50)
        D, U = _node_hessian(spec, g, action_for(spec, g, hessians=True).hessians)
        assert D.shape == (2, 2, 50) and U.shape == (2, 2, 49)
        assert D.strides[-1] == D.itemsize
        assert U.strides[-1] == stride * U.itemsize


class TestCompletedSquare:
    def test_equals_two_sided_gap_and_stays_nonnegative(self, rng):
        A = rng.normal(size=(4, 4))
        f = Quadratic(A @ A.T + 0.5 * np.eye(4), rng.normal(size=4), 0.3)
        primal, dual = f.conjugate_pair()
        assert primal.gap_factor(dual) is not None
        x = rng.normal(size=(500, 4)) * 3.0
        # half the rows lie on the graph y = grad f(x), where the exact gap is zero
        y = np.vstack([rng.normal(size=(250, 4)) * 3.0, primal._grad(x[250:])])
        gaps = fenchel_young(primal, dual, x, y)[0]
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
        """A refused exact step hands the whole schedule over, from the initial path,
        exactly as when no Newton attempt is made."""
        cfg = load_config(str(CONFIG_DIR / "harmonic_cauchy.yaml"))
        runs = []
        lbfgs = hampath.solver.lbfgs

        def counted(*args, **kwargs):
            runs.append(1)
            return lbfgs(*args, **kwargs)
        monkeypatch.setattr(hampath.solver, "lbfgs", counted)
        # a zero step leaves the action where it was
        with monkeypatch.context() as m:
            m.setattr(hampath.solver.BlockTridiagonalFactor, "solve",
                      lambda self, r: np.zeros_like(r))
            got = solve(cfg.spec, cfg.params)
        assert got.status.value == "Converged"
        assert len(runs) == len(got.stage_history) == 5
        monkeypatch.setattr(hampath.solver, "newton_stage", _decline)
        want = solve(cfg.spec, cfg.params)
        assert got.path.p_nodes.tobytes() == want.path.p_nodes.tobytes()
        assert got.path.q_nodes.tobytes() == want.path.q_nodes.tobytes()
        assert got.stage_history == want.stage_history

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
        ev = action_for(spec, g, hessians=True)
        gp, gq = ev.gradient()
        factor = BlockTridiagonalFactor(*_node_hessian(spec, g, ev.hessians))
        z = np.hstack([g.p_nodes, g.q_nodes]) + factor.solve(-np.hstack([gp, gq]).T).T
        unrefined = certify(spec, PathGrid(g.T, z[:, :1], z[:, 1:]), tol=cfg.params.tol_zero)
        refined = solve(spec, cfg.params).certificate
        bound = 1e-24
        assert unrefined.action_value > bound
        assert 0.0 <= refined.action_value <= bound
        assert refined.inclusion_residuals.max() < unrefined.inclusion_residuals.max()

    @pytest.mark.parametrize("name, stages", [("harmonic_cauchy", 1), ("separable_mixed", 5)])
    def test_exactness_is_decided_once_per_stage(self, monkeypatch, name, stages):
        # only the final stage's Newton attempt asks, once per solve, also when its
        # miss hands the schedule to L-BFGS
        decided = []
        real = hampath.solver._quadratic_stage
        monkeypatch.setattr(hampath.solver, "_quadratic_stage",
                            lambda spec, H: decided.append(H) or real(spec, H))
        cfg = load_config(str(CONFIG_DIR / f"{name}.yaml"))
        res = solve(cfg.spec, replace(cfg.params, max_iters=2))
        assert len(decided) == 1
        assert len(res.stage_history) == stages


def _side(fn, pts, hess, guess=None):
    # one side of a gap as fenchel_young reads it: values alone from a nonsmooth side
    # unless Hessians are asked
    return fn._eval(pts, hess, guess) if hess or fn.smooth else (fn._value(pts), None, None)


def _two_sided(primal, dual, x, y, hess=False):
    # the dual side gets the same guess of its gradient as in fenchel_young
    fx, dx, hx = _side(primal, x, hess)
    fy, dy, hy = _side(dual, y, hess, guess=x)
    return fx + fy - np.sum(x * y, axis=1), dx, dy, ((hx, hy) if hess else None)


class TestGradientGuess:
    """fenchel_young passes x to the dual side as a guess of its gradient; only a
    ScalarConjugate reads it, as the start of its root."""

    @staticmethod
    def _points(rng, primal, K=200):
        x = rng.uniform(-2.0, 2.0, size=(K, 2))
        # half the rows at zero gap, y = grad primal(x), where the guess is the answer
        y = np.vstack([rng.uniform(-3.0, 3.0, size=(K // 2, 2)), primal._grad(x[K // 2:])])
        return x, y

    @staticmethod
    def _cold(primal, dual, x, y, hess):
        fx, dx, hx = _side(primal, x, hess)
        fy, dy, hy = _side(dual, y, hess)
        return fx + fy - np.sum(x * y, axis=1), dx, dy, ((hx, hy) if hess else None)

    @pytest.mark.parametrize("hess", [False, True])
    def test_lambda_stage_pair_is_bitwise_unchanged(self, rng, hess):
        # the dual of an inf-convolution is a Sum, which does not hand the guess on
        primal, dual = InfConvolved(mixed_hamiltonian(), 0.2).pair()
        assert isinstance(dual, Sum) and isinstance(dual.parts[0], ScalarConjugate)
        x, y = self._points(rng, primal)
        got = fenchel_young(primal, dual, x, y, hess)
        want = self._cold(primal, dual, x, y, hess)
        for a, b in zip(got[:3], want[:3]):
            assert a.tobytes() == b.tobytes()
        if hess:
            for a, b in zip(got[3], want[3]):
                assert a.tobytes() == b.tobytes()

    def test_scalar_conjugate_gaps_agree_to_the_root_tolerance(self, rng):
        primal, dual = mixed_hamiltonian().pair()
        assert isinstance(dual, ScalarConjugate)
        x, y = self._points(rng, primal)
        gaps, _, dy, _ = fenchel_young(primal, dual, x, y)
        cold, _, dy_cold, _ = self._cold(primal, dual, x, y, False)
        # both roots meet |f'(u) - y| <= 1e-12 (1 + |y|), and f'' >= 1/2 here
        assert np.abs(dy - dy_cold).max() <= 4e-12 * (1.0 + np.abs(y).max())
        assert np.all(np.abs(gaps - cold) <= 1e-12 * (1.0 + np.abs(x * y).sum(axis=1)))

    def test_zero_gap_roots_take_one_residual_evaluation(self, monkeypatch, rng):
        primal, dual = mixed_hamiltonian().pair()
        x = rng.uniform(-2.0, 2.0, size=(100, 2))
        evals = []

        def counted(rho_drho, *args, _f=hampath.convex.newton_bisect, **kwargs):
            return _f(lambda u: evals.append(1) or rho_drho(u), *args, **kwargs)
        monkeypatch.setattr(hampath.convex, "newton_bisect", counted)
        fenchel_young(primal, dual, x, primal._grad(x))
        assert len(evals) == 1

    def test_separable_sum_hands_each_block_its_guess(self, rng):
        _, dual = _config("separable_split")[0].hamiltonian.pair()
        assert isinstance(dual, SeparableSum) and isinstance(dual.parts[0], ScalarConjugate)
        y, guess = rng.uniform(-3.0, 3.0, size=(2, 100, 2))
        value, grad, _ = dual._eval(y, guess=guess)
        parts = [p._eval(y[:, sl], guess=guess[:, sl])
                 for p, sl in zip(dual.parts, dual.slices)]
        assert value.tobytes() == (parts[0][0] + parts[1][0]).tobytes()
        assert grad.tobytes() == np.concatenate([g for _, g, _ in parts], axis=1).tobytes()


def test_separable_split_reaches_separable_mixed_path():
    """The same H written as p and q terms builds a separable sum, whose pair has Hessians
    block by block, so Newton reaches separable_mixed's path."""
    spec, params = _config("separable_split")
    assert isinstance(spec.hamiltonian.fn, SeparableSum)
    res = solve(spec, params)
    want = solve(*_config("separable_mixed")).path
    assert np.abs(res.path.p_nodes - want.p_nodes).max() <= 1e-9
    assert np.abs(res.path.q_nodes - want.q_nodes).max() <= 1e-9


def _refuse(*args, **kwargs):
    raise AssertionError("a non-quadratic stage entered the Newton engine")


def _decline(*args, **kwargs):
    raise NotImplementedError("Newton attempt refused")


NON_QUADRATIC = {
    "mixed": lambda: (ProblemSpec(mixed_hamiltonian(), 1.0, Cauchy([1.0], [0.0]), None),
                      SolveParams(M=100)),
    "separable_mixed": lambda: _config("separable_mixed"),
    "separable_split": lambda: _config("separable_split"),
    "grid_cauchy": lambda: _config("grid_cauchy"),
    "powernorm_r4": lambda: (ProblemSpec(Hamiltonian(PowerNorm(4.0, 1.0, dim=2), 1), 1.0,
                                         Cauchy([1.5], [0.0]), None), SolveParams(M=20)),
}


def _config(name):
    cfg = load_config(str(CONFIG_DIR / f"{name}.yaml"))
    return cfg.spec, cfg.params


@pytest.mark.parametrize("case", sorted({p.stem for p in CONFIG_DIR.glob("*.yaml")}
                                        | set(NON_QUADRATIC)))
def test_lbfgs_runs_only_when_the_final_stage_alone_misses(monkeypatch, case):
    """Every solve makes at most one Newton attempt, and runs L-BFGS, once per stage of
    the schedule, only when neither the march nor Newton met the final target."""
    spec, params = NON_QUADRATIC[case]() if case in NON_QUADRATIC else _config(case)
    calls = []

    def recorded(name):
        real = getattr(hampath.solver, name)

        def wrapped(*args, **kwargs):
            out = None  # a declined Newton attempt raises
            try:
                out = real(*args, **kwargs)
                return out
            finally:
                calls.append((name, out))
        monkeypatch.setattr(hampath.solver, name, wrapped)
    for name in ("march_stage", "newton_stage", "lbfgs"):
        recorded(name)
    res = solve(spec, params)
    newton = [out for name, out in calls if name == "newton_stage"]
    met = any(out is not None and (name == "march_stage"
                                   or name == "newton_stage" and out[4] == "ftarget")
              for name, out in calls)
    runs = sum(name == "lbfgs" for name, _ in calls)
    assert len(newton) <= 1
    assert runs == (0 if met else len(res.stage_history)) and len(res.stage_history) >= 1
    if met:
        assert len(res.stage_history) == 1


@pytest.mark.parametrize("case", ["grid_cauchy", "powernorm_r4"])
def test_where_newton_declines_the_solve_is_the_lbfgs_continuation(monkeypatch, case):
    """A tabulated pair has no Hessian, and PowerNorm's dual curvature is unbounded at
    y = 0: the solve is L-BFGS on the two-sided Fenchel-Young action, bit for bit.  The
    march of the tabulated case is declined, so that its smoothed stages run."""
    monkeypatch.setattr(hampath.solver, "midpoint_march", decline_march)
    spec, params = NON_QUADRATIC[case]()
    got = solve(spec, params).path
    spec, params = NON_QUADRATIC[case]()
    monkeypatch.setattr(hampath.solver, "newton_stage", _decline)
    monkeypatch.setattr(hampath.action, "fenchel_young", _two_sided)
    want = solve(spec, params).path
    assert got.p_nodes.tobytes() == want.p_nodes.tobytes()
    assert got.q_nodes.tobytes() == want.q_nodes.tobytes()


@pytest.mark.parametrize("case", ["mixed", "separable_mixed", "separable_split"])
def test_smooth_final_stage_converges_in_one_newton_stage(monkeypatch, case):
    spec, params = NON_QUADRATIC[case]()
    monkeypatch.setattr(hampath.solver, "lbfgs", _refuse)
    res = solve(spec, params)
    assert res.status.value == "Converged"
    [st] = res.stage_history
    assert (st.eps, st.lam, st.reason) == (0.0, 0.0, "ftarget")
    assert 0 < st.iterations < 10
    assert st.objective == res.certificate.action_value <= params.tol_zero * 1e-3


@pytest.mark.parametrize("M", [20, 200])
def test_coupled_lambda_stage_converges_in_one_newton_stage(monkeypatch, M):
    """Over a coupled quadratic, the Hessian of H_lam is the inverse of the Jacobian that
    the dual inner solve forms, so a lambda-only solve runs no L-BFGS stage."""
    spec = ProblemSpec(coupled_hamiltonian(), 1.0, Cauchy([1.0, -0.5], [0.2, 0.4]), None)
    params = SolveParams(M=M, eps_schedule=(), lambda_schedule=(0.3,), polish=False)
    monkeypatch.setattr(hampath.solver, "lbfgs", _refuse)
    res = solve(spec, params)
    assert res.status.value == "Converged"
    [st] = res.stage_history
    assert (st.eps, st.lam, st.reason) == (0.0, 0.3, "ftarget")


def test_newton_that_stops_short_hands_over_bitwise(monkeypatch):
    """At p0 = 50 the first full Newton step raises the action; the schedule then runs
    from the initial path exactly as when no Newton attempt is made."""
    spec, params = _config("separable_mixed")
    spec = replace(spec, boundary=Cauchy([50.0], [0.0]))
    params = replace(params, M=20, max_iters=20)
    reasons = []
    real = hampath.solver.newton_stage

    def recorded(*args, **kwargs):
        out = real(*args, **kwargs)
        reasons.append(out[4])
        return out
    monkeypatch.setattr(hampath.solver, "newton_stage", recorded)
    got = solve(spec, params)
    assert reasons == ["no_decrease"]
    assert got.status.value == "StalledAboveTol" and len(got.stage_history) == 5
    monkeypatch.setattr(hampath.solver, "newton_stage", _decline)
    want = solve(spec, params)
    assert got.path.p_nodes.tobytes() == want.path.p_nodes.tobytes()
    assert got.path.q_nodes.tobytes() == want.path.q_nodes.tobytes()
    assert got.stage_history == want.stage_history


def test_trial_point_whose_inner_solve_fails_hands_over(monkeypatch):
    spec, _ = NON_QUADRATIC["mixed"]()
    g = PathGrid.constant(spec.T, [1.0], [0.0], 50)
    calls = []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) > 1:
            raise RootFindError("inner minimization stalled")
        return action_for(*args, **kwargs)
    monkeypatch.setattr(hampath.solver, "action_for", failing)
    path, f, _, iters, reason = newton_stage(spec, spec.hamiltonian, g, 10, 0.0)
    assert (iters, reason, len(calls)) == (0, "no_decrease", 2)
    assert path is g and f == action_for(spec, g).total


def _sum_quartic():
    return Sum([Quadratic(np.diag([0.5, 0.3])), PowerNorm(4.0, 0.1, dim=2)])


HESSIAN_KINDS = {
    "powernorm_r1.5": lambda: PowerNorm(1.5, 0.7, dim=2),
    "powernorm_r4": lambda: PowerNorm(4.0, 0.3, dim=2),
    "diagonal_sum": _sum_quartic,
    "nested_separable_sum": lambda: Sum([
        Quadratic(np.eye(2)),
        SeparableSum([Sum([Quadratic(np.diag([0.25])), PowerNorm(4.0, 0.1)]),
                      Quadratic(np.zeros((1, 1)))])]),
    "scalar_conjugate": lambda: ScalarConjugate(_sum_quartic()),
    # a block that is no coordinatewise separable kind: the Hessian is block diagonal
    "separable_sum_of_blocks": lambda: SeparableSum([
        ScalarConjugate(Sum([Quadratic(np.diag([1.5])), PowerNorm(4.0, 0.1)])),
        Quadratic(np.eye(1))]),
    "infconv_0.4": lambda: InfConvolved(Hamiltonian(_sum_quartic(), 1), 0.4).fn,
    "infconv_0.1": lambda: InfConvolved(Hamiltonian(_sum_quartic(), 1), 0.1).fn,
    # the inverse Jacobian of the dual inner solve, and block diagonal over blocks of it
    "infconv_coupled": lambda: InfConvolved(coupled_hamiltonian(), 0.3).fn,
    "infconv_coupled_blocks": lambda: InfConvolved(Hamiltonian(SeparableSum([
        Quadratic([[1.0, 0.3], [0.3, 0.8]]), PowerNorm(4.0, 0.3, dim=2)]), 2), 0.3).fn,
}


class TestHessians:
    @staticmethod
    def _points(rng, dim=2):
        # away from 0, where PowerNorm's curvature is unbounded or vanishes
        return rng.uniform(0.3, 2.0, size=(40, dim)) * rng.choice([-1.0, 1.0], size=(40, dim))

    @pytest.mark.parametrize("kind", list(HESSIAN_KINDS))
    def test_matches_central_differences_of_the_gradient(self, rng, kind):
        f = HESSIAN_KINDS[kind]()
        pts = self._points(rng, f.dim)
        hess = np.broadcast_to(f._eval(pts, True)[2], (len(pts), f.dim, f.dim))
        delta = 1e-5
        for j in range(f.dim):
            e = np.zeros(f.dim)
            e[j] = delta
            column = (f._grad(pts + e) - f._grad(pts - e)) / (2.0 * delta)
            assert np.abs(hess[:, :, j] - column).max() <= 1e-6 * (1.0 + np.abs(column).max())

    @pytest.mark.parametrize("kind", list(HESSIAN_KINDS))
    def test_hook_returns_value_gradient_and_hessian_bitwise(self, rng, kind):
        f = HESSIAN_KINDS[kind]()
        pts = self._points(rng, f.dim)
        value, grad, hess = f._eval(pts, True)
        v, g, none = f._eval(pts)
        assert np.array_equal(value, v) and np.array_equal(grad, g)
        assert np.array_equal(value, f._value(pts)) and np.array_equal(grad, f._grad(pts))
        assert none is None and hess.shape[1:] == (f.dim, f.dim) and np.all(np.isfinite(hess))

    def test_a_tabulated_block_refuses_before_any_inner_solve(self, monkeypatch):
        # the separable block comes first, and its root call does not run
        x = np.linspace(-4.0, 4.0, 81)
        grid = GridSampled(GridFn([-4.0], [4.0], 0.5 * x**2 + 0.3 * np.abs(x)))
        f = InfConvolved(Hamiltonian(SeparableSum([PowerNorm(4.0, 0.3), grid]), 1), 0.3).fn
        calls = []
        monkeypatch.setattr(hampath.regularize, "newton_bisect",
                            lambda *a, **k: calls.append(1))
        with pytest.raises(NotImplementedError):
            f._eval(np.zeros((5, 2)), True)
        assert calls == []

    def test_hessians_where_the_curvature_is_unbounded(self):
        # the conjugate of |u|^1.5 + u^2/2 has zero curvature at y = 0
        f = ScalarConjugate(Sum([PowerNorm(1.5, 1.0), Quadratic(np.eye(1))]))
        assert f._eval(np.zeros((1, 1)), True)[2][0, 0, 0] == 0.0
        # |u|^1.5 + b.u attains its inf-convolution at u = 0 from the x whose penalty
        # slope is v = -b lam^s; there the Hessian is the penalty's alone
        b, lam, r = np.array([0.3, -0.2]), 0.3, 4.0
        g = InfConvolved(Hamiltonian(Sum([PowerNorm(1.5, 1.0, dim=2), affine(b)]), 1), lam, r).fn
        c = lam ** (r / (r - 1.0))
        v = -b * c
        x = -np.sign(v) * np.abs(v) ** (r - 1.0)
        assert np.abs(g.minimizers(x[None])).max() <= 1e-12
        want = 1.0 / (c * (r - 1.0) * np.abs(v) ** (r - 2.0))
        # the computed u is off 0 by rounding, where 1/f'' is about 1e-6
        assert np.allclose(np.diag(g._eval(x[None], True)[2][0]), want, rtol=1e-4)

    @pytest.mark.parametrize("lam, sides", [(None, 1), (0.2, 2)])
    def test_one_root_call_per_root_solved_side_per_evaluation(self, monkeypatch, lam, sides):
        spec, params = _config("separable_mixed")
        H = spec.hamiltonian if lam is None else InfConvolved(spec.hamiltonian, lam)
        H.pair()
        calls, evals = [], []
        for module in (hampath.convex, hampath.regularize):
            monkeypatch.setattr(module, "newton_bisect",
                                lambda *a, _f=module.newton_bisect, **k:
                                calls.append(1) or _f(*a, **k))
        monkeypatch.setattr(hampath.solver, "action_for",
                            lambda *a, **k: evals.append(k) or action_for(*a, **k))
        g = PathGrid.constant(spec.T, [1.0], [0.0], 50)
        newton_stage(spec, H, g, 3, 0.0)
        assert evals and all(k["hessians"] for k in evals)
        assert len(calls) == sides * len(evals)
