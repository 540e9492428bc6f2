from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hampath.solver
from hampath.action import Cauchy, Connecting, ProblemSpec, SemiConvex, action_gradient
from hampath.conditions import GrowthCert
from hampath.convex import Hamiltonian, PowerNorm, Quadratic, Sum, squared_norm
from hampath.grid import PathGrid, interval_data
from hampath.solver import (
    ParamError,
    ResonanceError,
    ScheduleError,
    SolveParams,
    SolveStatus,
    lbfgs,
    solve,
    solve_linear_bvp,
)

from conftest import (
    coupled_hamiltonian,
    decline_march,
    harmonic_cauchy_spec,
    harmonic_hamiltonian,
    mixed_hamiltonian,
    p1_connecting_spec,
    scaled_hamiltonian,
)
from oracles import resample, rk4, shooting_connecting

CONFIG_DIR = Path(__file__).parent.parent / "configs"


class TestLbfgs:
    def test_quadratic_bowl(self):
        A = np.diag([1.0, 10.0, 100.0])

        def fg(x):
            return 0.5 * x @ A @ x, A @ x

        x, f, g, it, reason = lbfgs(fg, np.array([1.0, 1.0, 1.0]), ftarget=1e-14)
        assert f <= 1e-14

    def test_already_stationary(self):
        def fg(x):
            return float(x @ x), 2 * x

        x, f, g, it, reason = lbfgs(fg, np.zeros(3))
        assert it == 0 and reason == "gtol"


class TestHarmonicCauchy:
    def test_reproduces_closed_form(self):
        res = solve(harmonic_cauchy_spec(), SolveParams(M=200, tol_zero=1e-6))
        assert res.status is SolveStatus.CONVERGED
        assert res.certificate.action_value <= 1e-6
        t = res.path.times
        err = max(np.abs(res.path.p_nodes[:, 0] - np.cos(t)).max(),
                  np.abs(res.path.q_nodes[:, 0] + np.sin(t)).max())
        assert err <= 1e-3
        assert res.certificate.energy_drift <= 1e-4 * 1.5

    def test_matches_rk4_oracle(self):
        res = solve(harmonic_cauchy_spec(), SolveParams(M=200, tol_zero=1e-6))
        fine = rk4(lambda t, y: np.array([y[1], -y[0]]), [1.0, 0.0], 1.0, 4000)
        tf = np.linspace(0, 1, 4001)
        p_or = resample(tf, fine[:, 0], res.path.times)
        q_or = resample(tf, fine[:, 1], res.path.times)
        err = max(np.abs(res.path.p_nodes[:, 0] - p_or).max(),
                  np.abs(res.path.q_nodes[:, 0] - q_or).max())
        assert err <= 1e-3

    def test_seed_insensitive(self):
        a = solve(harmonic_cauchy_spec(), SolveParams(M=100, tol_zero=1e-6, seed=0))
        b = solve(harmonic_cauchy_spec(), SolveParams(M=100, tol_zero=1e-6, seed=99))
        d = max(np.abs(a.path.p_nodes - b.path.p_nodes).max(),
                np.abs(a.path.q_nodes - b.path.q_nodes).max())
        assert d <= 10 * 1e-6

    def test_init_path_on_another_horizon_raises(self):
        init = PathGrid.constant(2.0, [1.0], [0.0], 100)
        with pytest.raises(ValueError, match="initial path has T = 2"):
            solve(harmonic_cauchy_spec(), SolveParams(M=100, tol_zero=1e-6), init=init)

    def test_stage_history_monotone(self):
        res = solve(harmonic_cauchy_spec(), SolveParams(M=100, tol_zero=1e-6))
        acts = [st.action_true for st in res.stage_history]
        assert all(b <= a + 1e-12 for a, b in zip(acts, acts[1:]))


class TestConnecting:
    def test_trivial_zero_path(self):
        spec = ProblemSpec(scaled_hamiltonian(0.1), 0.2,
                           Connecting(squared_norm(1, 0.5), squared_norm(1, 0.5), 1),
                           GrowthCert(0.01, 0.1, 0.01))
        res = solve(spec, SolveParams(M=100, tol_zero=1e-9))
        assert res.status is SolveStatus.CONVERGED
        assert res.certificate.action_value <= 1e-9
        assert np.abs(res.path.p_nodes).max() <= 1e-9

    def test_p1_matches_shooting_oracle(self):
        spec = p1_connecting_spec()
        res = solve(spec, SolveParams(M=400, tol_zero=1e-6))
        assert res.status is SolveStatus.CONVERGED
        assert res.certificate.passed
        tf, p_or, q_or = shooting_connecting(
            lambda p, q: (0.1 * p, 0.1 * q),
            lambda a: a - 1.0,
            lambda b: b,
            0.2)
        err = max(np.abs(res.path.p_nodes[:, 0] - resample(tf, p_or, res.path.times)).max(),
                  np.abs(res.path.q_nodes[:, 0] - resample(tf, q_or, res.path.times)).max())
        assert err <= 1e-3

    def test_hypothesis_failure_blocks(self):
        spec = ProblemSpec(scaled_hamiltonian(0.3), 1.0,
                           Connecting(squared_norm(1, 3.0), squared_norm(1, 3.0), 1),
                           GrowthCert(0.01, 0.3, 0.01))
        res = solve(spec, SolveParams(M=50))
        assert res.status is SolveStatus.HYPOTHESIS_FAILED

    def test_proceed_on_failure(self):
        spec = ProblemSpec(scaled_hamiltonian(0.3), 1.0,
                           Connecting(squared_norm(1, 3.0), squared_norm(1, 3.0), 1),
                           GrowthCert(0.01, 0.3, 0.01))
        res = solve(spec, SolveParams(M=50), proceed_on_check_failure=True)
        assert res.status is SolveStatus.CONVERGED

    def test_stall_reported(self):
        # quadratic + quartic H: its stages run L-BFGS, which two iterations leave
        # short; the quadratic growth certificate does not describe it
        spec = replace(p1_connecting_spec(), cert=None, hamiltonian=Hamiltonian(
            Sum([Quadratic(0.1 * np.eye(2)), PowerNorm(4.0, 0.1, dim=2)]), 1))
        res = solve(spec, SolveParams(M=400, tol_zero=1e-12, max_iters=2,
                                      eps_schedule=(0.1,)))
        assert res.status is SolveStatus.STALLED
        assert res.certificate.action_value > 1e-12


class TestNoncoerciveHamiltonian:
    def test_momentum_only_closed_form(self):
        # H = |p|^2/2 ignores q: flow is p constant, q(t) = q0 - p0 t; the
        # true conjugate is infinite so certification stays at the last stage
        fn = Quadratic(np.diag([1.0, 0.0]))
        spec = ProblemSpec(Hamiltonian(fn, 1), 1.0, Cauchy([1.0], [0.5]), None)
        res = solve(spec, SolveParams(M=100, eps_schedule=(1e-1, 1e-2, 1e-3, 1e-4),
                                      tol_zero=1e-6))
        assert res.certified_hamiltonian == "final_stage"
        assert res.certificate_true is None
        assert res.status is SolveStatus.CONVERGED
        t = res.path.times
        assert np.abs(res.path.p_nodes[:, 0] - 1.0).max() <= 2e-3
        assert np.abs(res.path.q_nodes[:, 0] - (0.5 - t)).max() <= 2e-3


class TestGridBackedHamiltonian:
    def test_requires_both_schedules(self):
        from hampath.convex import GridSampled
        from hampath.legendre import GridFn

        x = np.linspace(-4, 4, 41)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        H = Hamiltonian(GridSampled(GridFn([-4, -4], [4, 4],
                                           0.5 * (X1**2 + X2**2))), 1)
        spec = ProblemSpec(H, 0.5, Cauchy([0.5], [0.0]), None)
        with pytest.raises(ValueError, match="nonsmooth"):
            solve(spec, SolveParams(M=10, eps_schedule=(0.1,), lambda_schedule=()))

    def test_unusable_schedule_raises_before_the_checks(self, monkeypatch):
        # the schedule is validated whole before the hypothesis checks run
        import hampath.solver
        from hampath.config import load_config

        def refuse(*args, **kwargs):
            raise AssertionError("run_checks called")
        monkeypatch.setattr(hampath.solver, "run_checks", refuse)
        cfg = load_config(str(CONFIG_DIR / "grid_cauchy.yaml"))
        spec = replace(cfg.spec, cert=GrowthCert(0.01, 0.001, 0.01))
        with pytest.raises(ScheduleError, match="nonsmooth Fenchel pair"):
            solve(spec, replace(cfg.params, lambda_schedule=()))

    def test_smoke_solve_decreases(self):
        from hampath.action import action_for
        from hampath.convex import GridSampled
        from hampath.legendre import GridFn
        from hampath.regularize import EpsPerturbed, InfConvolved

        x = np.linspace(-4, 4, 41)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        H = Hamiltonian(GridSampled(GridFn([-4, -4], [4, 4],
                                           0.5 * (X1**2 + X2**2))), 1)
        spec = ProblemSpec(H, 0.5, Cauchy([0.5], [0.0]), None)
        params = SolveParams(M=10, eps_schedule=(0.05,), lambda_schedule=(0.3,),
                             max_iters=15, tol_zero=1e-6, polish=False)
        res = solve(spec, params)
        stage_H = InfConvolved(EpsPerturbed(spec.hamiltonian, 0.05), 0.3, 4.0)
        start = action_for(spec, PathGrid.constant(0.5, [0.5], [0.0], 10),
                           H=stage_H).total
        assert res.stage_history[-1].objective < start


    @pytest.mark.parametrize("case", ["grid_cauchy", "grid_on_p", "coupled_lambda"])
    def test_inner_solves_use_no_scipy_optimizer(self, monkeypatch, tmp_path, case):
        # a tabulated block's inner solves enumerate facets (on grid_cauchy the march is
        # declined so that the smoothed stages run), a quadratic block's take their
        # roots, and a coupled quadratic's inf-convolution is solved in the dual
        import scipy.optimize

        from hampath.config import build_config, load_config

        def refuse(*args, **kwargs):
            raise AssertionError("scipy.optimize.minimize called")
        monkeypatch.setattr(scipy.optimize, "minimize", refuse)
        if case == "grid_cauchy":
            monkeypatch.setattr(hampath.solver, "midpoint_march", decline_march)
            cfg = load_config(str(CONFIG_DIR / "grid_cauchy.yaml"))
            res = solve(cfg.spec, replace(cfg.params, max_iters=3))
            assert res.stage_history[-1].iterations == 3
            return
        if case == "grid_on_p":
            x = np.linspace(-4.0, 4.0, 81)
            np.savetxt(tmp_path / "p.csv", np.column_stack([x, 0.5 * x**2 + 0.3 * np.abs(x)]),
                       delimiter=",")
            cfg = build_config({
                "problem": {"N": 1, "T": 0.5},
                "box": {"halfwidth": 4.0},
                "hamiltonian": {"terms": [{"kind": "grid", "file": "p.csv", "apply": "p"},
                                          {"kind": "quadratic", "scale": 0.5, "apply": "q"}]},
                "boundary": {"mode": "cauchy", "p0": [0.5], "q0": [0.2]},
                "growth": {"alpha": 0.01, "beta": 1.0, "gamma": 0.5},
                "solver": {"M": 10, "eps_schedule": [0.05], "lambda_schedule": [0.3],
                           "max_iters": 200},
            }, base_dir=str(tmp_path))
            spec, params = cfg.spec, cfg.params
        else:
            spec = ProblemSpec(coupled_hamiltonian(), 1.0, Cauchy([1.0, -0.5], [0.2, 0.4]),
                               GrowthCert(0.01, 0.7, 0.01, r=2.0))
            params = SolveParams(M=20, eps_schedule=(), lambda_schedule=(0.3,),
                                 polish=False, max_iters=200)
        res = solve(spec, params)
        assert res.status is SolveStatus.CONVERGED
        assert [(st.eps, st.lam) for st in res.stage_history] == [
            (params.eps_schedule[-1] if params.eps_schedule else 0.0, 0.3)]


class TestPolyhedralMarch:
    """A Cauchy problem over a tabulated H is marched under its exact pair."""

    @pytest.mark.parametrize("name, M", [("grid_cauchy", 10), ("grid_cauchy", 40),
                                         ("grid_kinked", 40)])
    def test_certifies_under_the_true_pair(self, monkeypatch, name, M):
        from hampath.config import load_config

        def refuse(*args, **kwargs):
            raise AssertionError("a smoothed stage ran")
        monkeypatch.setattr(hampath.solver, "lbfgs", refuse)
        monkeypatch.setattr(hampath.solver, "newton_stage", refuse)
        cfg = load_config(str(CONFIG_DIR / f"{name}.yaml"))
        res = solve(cfg.spec, replace(cfg.params, M=M))
        assert res.status is SolveStatus.CONVERGED
        assert res.certified_hamiltonian == "true" and res.certificate_true is res.certificate
        assert res.certificate.action_value <= 1e-12
        assert np.all(res.certificate.interior_residuals <= 1e-12 * res.path.scale())
        [st] = res.stage_history
        assert (st.eps, st.lam, st.iterations, st.reason) == (0.0, 0.0, M, "ftarget")
        assert st.objective == st.action_true == res.certificate.action_value

    def test_reruns_are_bitwise_equal(self):
        from hampath.config import load_config

        cfg = load_config(str(CONFIG_DIR / "grid_kinked.yaml"))
        a, b = (solve(cfg.spec, cfg.params) for _ in range(2))
        assert a.path.p_nodes.tobytes() == b.path.p_nodes.tobytes()
        assert a.path.q_nodes.tobytes() == b.path.q_nodes.tobytes()
        assert a.certificate.to_text() == b.certificate.to_text()

    @pytest.mark.parametrize("change", [
        {"params": {"tol_zero": 1e-20}},  # the marched action, about 1e-16, misses 1e-23
        {"boundary": Cauchy([3.5], [3.5])},  # the orbit leaves the table's box [-4, 4]^2
    ])
    def test_a_declined_march_hands_over_bitwise(self, monkeypatch, change):
        from hampath.config import load_config

        cfg = load_config(str(CONFIG_DIR / "grid_cauchy.yaml"))
        spec = replace(cfg.spec, **{k: v for k, v in change.items() if k != "params"})
        params = replace(cfg.params, **change.get("params", {}))
        marches = []
        real = hampath.solver.midpoint_march

        def recorded(*args):
            marches.append(real(*args))
            return marches[-1]
        monkeypatch.setattr(hampath.solver, "midpoint_march", recorded)
        got = solve(spec, params)
        assert len(marches) == 1 and marches[0] is not None
        assert [(st.eps, st.lam) for st in got.stage_history] == [(0.05, 0.3)]
        monkeypatch.setattr(hampath.solver, "midpoint_march", decline_march)
        want = solve(spec, params)
        assert got.path.p_nodes.tobytes() == want.path.p_nodes.tobytes()
        assert got.path.q_nodes.tobytes() == want.path.q_nodes.tobytes()
        assert got.stage_history == want.stage_history
        assert got.certificate.to_text() == want.certificate.to_text()

    def test_sweep_rows_without_polish_are_not_marched(self, monkeypatch):
        from hampath.config import load_config

        monkeypatch.setattr(hampath.solver, "midpoint_march",
                            lambda *args: pytest.fail("marched a row without polish"))
        cfg = load_config(str(CONFIG_DIR / "grid_cauchy.yaml"))
        res = solve(cfg.spec, replace(cfg.params, polish=False))
        assert [(st.eps, st.lam) for st in res.stage_history] == [(0.05, 0.3)]


class TestTrueActionEvaluations:
    def test_the_final_stage_reads_its_true_action_from_the_certificate(self, monkeypatch):
        # a lambda sweep row: one smoothed stage, certified under its own pair and the true
        import sys

        from hampath.action import action_for
        from hampath.config import load_config

        cfg = load_config(str(CONFIG_DIR / "lambda_sweep.yaml"))
        spec = cfg.spec
        calls = []

        def counted(spec_, g, H=None, **kwargs):
            calls.append(H is None or H is spec.hamiltonian)
            return action_for(spec_, g, H=H, **kwargs)
        monkeypatch.setattr(hampath.solver, "action_for", counted)
        monkeypatch.setattr(sys.modules["hampath.certify"], "action_for", counted)
        params = replace(cfg.params, lambda_schedule=(0.2,), eps_schedule=(), polish=False)
        res = solve(spec, params)
        assert res.certified_hamiltonian == "final_stage"
        assert calls.count(True) == 1
        assert res.stage_history[-1].action_true == res.certificate_true.action_value


class TestSolveParams:
    @pytest.mark.parametrize("field, value", [
        ("M", 0), ("M", 2.5), ("M", True), ("max_iters", -3), ("max_iters", 0),
        ("max_iters", 10.0)])
    def test_counts_are_positive_integers(self, field, value):
        with pytest.raises(ParamError) as err:
            SolveParams(**{field: value})
        assert err.value.field == field
        assert f"{field} must be a positive integer" in str(err.value)

    def test_numpy_integers_are_counts(self):
        params = SolveParams(M=np.int64(20), max_iters=np.int32(5))
        assert (params.M, params.max_iters) == (20, 5)

    @pytest.mark.parametrize("value", [-1, 1.0, True, "3"])
    def test_seed_is_a_non_negative_integer(self, value):
        with pytest.raises(ParamError) as err:
            SolveParams(seed=value)
        assert err.value.field == "seed"
        assert "seed must be a non-negative integer" in str(err.value)
        assert SolveParams(seed=0).seed == 0 and SolveParams(seed=np.int64(7)).seed == 7

    @pytest.mark.parametrize("field, value, message", [
        ("eps_schedule", (0.1, float("nan")), "eps_schedule entries must be finite"),
        ("lambda_schedule", (float("inf"),), "lambda_schedule entries must be finite"),
        ("tol_zero", float("nan"), "tol_zero must be finite"),
        ("tol_zero", float("inf"), "tol_zero must be finite"),
        ("r", float("inf"), "r must be finite"),
    ])
    def test_non_finite_numbers_are_refused(self, field, value, message):
        # NaN passes every `<= 0` range check, and inf passes every `> 0` one
        with pytest.raises(ParamError) as err:
            SolveParams(**{field: value})
        assert err.value.field == field
        assert str(err.value) == message


class TestStageReasons:
    def test_quadratic_newton_stage_meets_its_target(self):
        res = solve(harmonic_cauchy_spec(), SolveParams(M=50))
        assert [st.reason for st in res.stage_history] == ["ftarget"]

    def test_one_iteration_grid_stage_stops_at_the_cap(self, monkeypatch):
        from hampath.config import load_config

        monkeypatch.setattr(hampath.solver, "midpoint_march", decline_march)
        cfg = load_config(str(CONFIG_DIR / "grid_cauchy.yaml"))
        assert cfg.params.max_iters == 1
        res = solve(cfg.spec, cfg.params)
        assert [st.reason for st in res.stage_history] == ["max_iters"]


class TestPathObjective:
    def test_one_root_solve_per_evaluation(self, monkeypatch):
        import hampath.convex
        from hampath.convex import ScalarConjugate
        from hampath.regularize import EpsPerturbed
        from hampath.solver import _PathObjective

        spec = ProblemSpec(mixed_hamiltonian(), 1.0, Cauchy([1.0], [0.0]), None)
        H = EpsPerturbed(spec.hamiltonian, 0.1)
        dual = H.pair()[1]
        assert isinstance(dual, ScalarConjugate) and dual.dim == 2
        t = np.linspace(0.0, 1.0, 41)
        obj = _PathObjective(spec, H, 40)
        z = obj.pack(PathGrid(1.0, np.cos(t), -np.sin(t)))
        calls = []
        orig = hampath.convex.newton_bisect

        def counted(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        monkeypatch.setattr(hampath.convex, "newton_bisect", counted)
        f, grad = obj.fun_grad(z)
        assert len(calls) == 1
        assert np.isfinite(f) and np.all(np.isfinite(grad))


class TestMixedHamiltonianSolve:
    def test_cauchy_matches_rk4(self):
        # H = (p^2+q^2)/4 + (p^4+q^4)/10: smooth pair through the exact
        # scalar-inverse conjugate, so the polish stage runs on the true H
        from conftest import mixed_hamiltonian

        spec = ProblemSpec(mixed_hamiltonian(), 1.0, Cauchy([1.0], [0.0]),
                           GrowthCert(0.01, 0.6, 0.01, r=4.0))
        res = solve(spec, SolveParams(M=150, tol_zero=1e-6))
        assert res.status is SolveStatus.CONVERGED
        assert res.certified_hamiltonian == "true"

        def rhs(t, y):
            p, q = y
            return np.array([0.5 * q + 0.4 * q**3, -(0.5 * p + 0.4 * p**3)])

        fine = rk4(rhs, [1.0, 0.0], 1.0, 3000)
        tf = np.linspace(0, 1, 3001)
        err = max(
            np.abs(res.path.p_nodes[:, 0] - resample(tf, fine[:, 0], res.path.times)).max(),
            np.abs(res.path.q_nodes[:, 0] - resample(tf, fine[:, 1], res.path.times)).max())
        assert err <= 2e-3


def _cauchy_config(terms):
    """Config for p(0) = 1, q(0) = 0 over T = 1 with the given Hamiltonian terms."""
    from hampath.config import build_config

    return build_config({
        "problem": {"N": 1, "T": 1.0},
        "hamiltonian": {"terms": terms},
        "boundary": {"mode": "cauchy", "p0": [1.0], "q0": [0.0]},
        "solver": {"M": 100},
    })


JOINT_HALF_SQUARE = {"kind": "quadratic", "scale": 0.5, "apply": "both"}


class TestSeparableConfigSolve:
    def test_quadratic_and_power_on_p(self):
        # joint quadratic + p^2/4 + p^4/10: the p piece nests a Sum in a Sum
        from hampath.convex import ScalarConjugate
        from hampath.regularize import EpsPerturbed

        cfg = _cauchy_config([JOINT_HALF_SQUARE,
                              {"kind": "quadratic", "scale": 0.25, "apply": "p"},
                              {"kind": "power", "r": 4, "scale": 0.1, "apply": "p"}])
        H = cfg.spec.hamiltonian
        for pair in (H.pair(), EpsPerturbed(H, 0.1).pair()):
            assert pair[0].smooth and pair[1].smooth
            assert isinstance(pair[1], ScalarConjugate) and pair[1].dim == 2
        res = solve(cfg.spec, cfg.params)
        assert res.status is SolveStatus.CONVERGED
        assert res.certified_hamiltonian == "true"

    def test_coercive_by_coordinates(self):
        # q^2/2 from a singular joint quadratic, p^4/10 on p: no part is
        # coercive alone, each coordinate's piece is, so the true pair exists
        cfg = _cauchy_config([
            {"kind": "quadratic", "matrix": [[0.0, 0.0], [0.0, 1.0]], "apply": "both"},
            {"kind": "power", "r": 4, "scale": 0.1, "apply": "p"}])
        res = solve(cfg.spec, cfg.params)
        assert res.status is SolveStatus.CONVERGED
        assert res.certified_hamiltonian == "true"

    def test_split_power_term_matches_single(self):
        split = _cauchy_config([JOINT_HALF_SQUARE,
                                {"kind": "power", "r": 4, "scale": 0.1, "apply": "p"},
                                {"kind": "power", "r": 4, "scale": 0.05, "apply": "p"}])
        single = _cauchy_config([JOINT_HALF_SQUARE,
                                 {"kind": "power", "r": 4, "scale": 0.15, "apply": "p"}])
        a = solve(split.spec, split.params)
        b = solve(single.spec, single.params)
        assert a.status is b.status is SolveStatus.CONVERGED
        assert np.abs(a.path.p_nodes - b.path.p_nodes).max() <= 1e-12
        assert np.abs(a.path.q_nodes - b.path.q_nodes).max() <= 1e-12

    @staticmethod
    def _two_dof_config(q_term):
        from hampath.config import build_config

        return build_config({
            "problem": {"N": 2, "T": 1.0},
            "hamiltonian": {"terms": [
                {"kind": "quadratic", "matrix": [[1.0, 0.3], [0.3, 1.0]], "apply": "p"},
                dict(q_term, apply="q")]},
            "boundary": {"mode": "cauchy", "p0": [1.0, 0.0], "q0": [0.0, 0.5]},
            "solver": {"M": 100},
        })

    def test_two_dof_coupled_p_block(self):
        # quadratic terms on p and on q fold into one block-diagonal quadratic
        cfg = self._two_dof_config({"kind": "quadratic", "scale": 0.5})
        assert isinstance(cfg.spec.hamiltonian.fn, Quadratic)
        res = solve(cfg.spec, cfg.params)
        assert res.status is SolveStatus.CONVERGED

    def test_two_dof_coupled_p_block_power_q(self):
        # per-component terms with N = 2: the base pair is closed part by part, and
        # the eps stage perturbs block by block, so its dual is a separable sum of
        # exact block conjugates: a closed-form quadratic on p and an inverted
        # gradient on q
        from hampath.convex import ScalarConjugate, SeparableSum
        from hampath.regularize import EpsPerturbed

        cfg = self._two_dof_config({"kind": "power", "r": 4, "scale": 0.25})
        H = cfg.spec.hamiltonian
        primal, dual = EpsPerturbed(H, 0.1).pair()
        assert isinstance(primal, SeparableSum) and isinstance(dual, SeparableSum)
        p_dual, q_dual = dual.parts
        assert isinstance(p_dual, Quadratic) and isinstance(q_dual, ScalarConjugate)
        assert all(f.smooth for f in (primal, dual))
        res = solve(cfg.spec, cfg.params)
        assert res.status is SolveStatus.CONVERGED
        assert res.certified_hamiltonian == "true"

    def test_coupled_sum_needs_both_schedules(self):
        # smooth but not coordinatewise separable: the conjugate is tabulated
        from hampath.solver import ScheduleError

        cfg = _cauchy_config([
            {"kind": "quadratic", "matrix": [[1.0, 0.3], [0.3, 1.0]], "apply": "both"},
            {"kind": "power", "r": 4, "scale": 0.1, "apply": "both"}])
        assert cfg.spec.hamiltonian.smooth
        with pytest.raises(ScheduleError, match="nonsmooth Fenchel pair: the Hamiltonian's "
                                                "conjugate is tabulated"):
            solve(cfg.spec, cfg.params)


class TestCoupledCauchySolve:
    def test_two_dof_matches_rk4(self):
        H = coupled_hamiltonian()
        A = H.fn.A
        p0 = np.array([1.0, -0.5])
        q0 = np.array([0.2, 0.4])
        spec = ProblemSpec(H, 1.0, Cauchy(p0, q0), GrowthCert(0.01, 0.7, 0.01, r=2.0))
        res = solve(spec, SolveParams(M=150, tol_zero=1e-6))
        assert res.status is SolveStatus.CONVERGED

        def rhs(t, y):
            g = A @ y
            return np.concatenate([g[2:], -g[:2]])

        fine = rk4(rhs, np.concatenate([p0, q0]), 1.0, 3000)
        tf = np.linspace(0, 1, 3001)
        err = 0.0
        for j in range(2):
            err = max(err, np.abs(res.path.p_nodes[:, j]
                                  - resample(tf, fine[:, j], res.path.times)).max())
            err = max(err, np.abs(res.path.q_nodes[:, j]
                                  - resample(tf, fine[:, 2 + j], res.path.times)).max())
        assert err <= 2e-3


class TestSemiConvexSolve:
    def test_feedback_limit_enforced_without_cert(self):
        spec = ProblemSpec(scaled_hamiltonian(0.05), 1.0,
                           SemiConvex(squared_norm(1, 3.0), squared_norm(1, 0.5),
                                      -0.6, -0.1), None)
        with pytest.raises(ValueError, match="solvability limit"):
            solve(spec, SolveParams(M=50))

    def test_converges_with_certificate(self):
        spec = ProblemSpec(scaled_hamiltonian(0.05), 1.0,
                           SemiConvex(squared_norm(1, 3.0, [0.5]), squared_norm(1, 0.5),
                                      -0.1, -0.1),
                           GrowthCert(0.01, 0.05, 0.01))
        res = solve(spec, SolveParams(M=200, tol_zero=1e-6))
        assert res.status is SolveStatus.CONVERGED
        assert res.certificate.action_value <= 1e-6
        assert res.checks is not None and res.checks.passed


class TestGradientAction:
    def test_zero_at_trivial_stationary_point(self):
        spec = ProblemSpec(scaled_hamiltonian(0.1), 0.2,
                           Connecting(squared_norm(1, 0.5), squared_norm(1, 0.5), 1), None)
        g = PathGrid(0.2, *action_gradient(spec.boundary, spec.hamiltonian,
                                           PathGrid.zeros(0.2, 1, 30)))
        assert np.abs(g.p_nodes).max() <= 1e-12
        assert np.abs(g.q_nodes).max() <= 1e-12

    def test_small_at_converged_minimum(self):
        spec = harmonic_cauchy_spec()
        res = solve(spec, SolveParams(M=100, tol_zero=1e-8))
        g = PathGrid(res.path.T, *action_gradient(spec.boundary, spec.hamiltonian, res.path))
        assert max(np.abs(g.p_nodes[1:]).max(), np.abs(g.q_nodes[1:]).max()) <= 1e-3

    def test_finite_difference_with_smoothing(self, rng):
        from oracles import random_path

        spec = harmonic_cauchy_spec()
        g = random_path(rng, 1.0, 1, 6)
        p = g.p_nodes.copy()
        q = g.q_nodes.copy()
        p[0], q[0] = 1.0, 0.0
        g = PathGrid(1.0, p, q)
        from hampath.action import action_for
        from hampath.regularize import EpsPerturbed, InfConvolved

        H = InfConvolved(EpsPerturbed(spec.hamiltonian, 0.05), 0.3, 4.0)
        grad = PathGrid(1.0, *action_gradient(spec.boundary, H, g))
        hfd = 1e-6
        for k, j in ((2, 0), (5, 0)):
            p = g.p_nodes.copy()
            p[k, j] += hfd
            fp = action_for(spec, PathGrid(1.0, p, g.q_nodes), H=H).total
            p[k, j] -= 2 * hfd
            fm = action_for(spec, PathGrid(1.0, p, g.q_nodes), H=H).total
            num = (fp - fm) / (2 * hfd)
            assert grad.p_nodes[k, j] == pytest.approx(num, rel=2e-4, abs=2e-5)


class TestLinearBvp:
    def test_decoupled_ramp(self):
        M = 100
        f = np.ones((M + 1, 1))
        g = np.zeros((M + 1, 1))
        sol = solve_linear_bvp(0.0, 0.0, f, g, [0.0], [3.0], 1.0, M)
        assert np.abs(sol.p_nodes[:, 0] - sol.times).max() <= 1e-12
        assert np.abs(sol.q_nodes - 3.0).max() <= 1e-12

    def test_backward_ramp(self):
        M = 100
        sol = solve_linear_bvp(0.0, 0.0, np.zeros((M + 1, 1)), np.ones((M + 1, 1)),
                               [2.0], [0.0], 1.0, M)
        assert np.abs(sol.p_nodes - 2.0).max() <= 1e-12
        assert np.abs(sol.q_nodes[:, 0] - (1.0 - sol.times)).max() <= 1e-12

    def test_random_forcing_matches_rk4_oracle(self, rng):
        M, T, d1, d2 = 200, 1.0, -0.3, -0.3
        t = np.linspace(0, T, M + 1)
        f = np.column_stack([np.sin(2 * t) + 0.3, np.cos(t)])
        g = np.column_stack([0.5 * t, np.sin(t) * 0.2])
        x = np.array([0.5, -0.2])
        y = np.array([0.1, 0.4])
        sol = solve_linear_bvp(d1, d2, f, g, x, y, T, M)
        assert np.allclose(sol.p_nodes[0], x)
        assert np.abs(sol.q_nodes[-1] - y).max() <= 1e-12

        def forcing(tq, nodes):
            return np.array([np.interp(tq, t, nodes[:, j]) for j in range(2)])

        def rhs(tq, z):
            r, s = z[:2], z[2:]
            return np.concatenate([d2 * s + forcing(tq, f), -d1 * r - forcing(tq, g)])

        fine = rk4(rhs, np.concatenate([x, sol.q_nodes[0]]), T, M)
        assert np.abs(fine[:, :2] - sol.p_nodes).max() <= 1e-8
        assert np.abs(fine[:, 2:] - sol.q_nodes).max() <= 1e-8

    def test_resonance_detected(self):
        M = 50
        z = np.zeros((M + 1, 1))
        with pytest.raises(ResonanceError):
            solve_linear_bvp(0.6, 0.6, z, z, [0.0], [0.0], 1.0, M)


class TestInfConvSolutionStructure:
    def test_inclusion_passes_through_attaining_points(self):
        # at a solved smoothing stage the slope pair equals the gradient of
        # the base Hamiltonian evaluated at the attaining points
        from hampath.regularize import InfConvolved

        spec = harmonic_cauchy_spec()
        lam = 0.3
        res = solve(spec, SolveParams(M=80, eps_schedule=(), lambda_schedule=(lam,),
                                      tol_zero=1e-6, polish=False))
        assert res.status is SolveStatus.CONVERGED
        Hl = InfConvolved(spec.hamiltonian, lam, 4.0)
        iv = interval_data(res.path)
        worst = 0.0
        for k in range(iv.pbar.shape[0]):
            ip, jq = Hl.attaining_points(iv.pbar[k], iv.qbar[k])
            grad = spec.hamiltonian.grad(np.concatenate([ip, jq]))
            y = np.concatenate([-iv.dq[k], iv.dp[k]])
            worst = max(worst, float(np.max(np.abs(y - grad))))
        assert worst <= 1e-4

    def test_smoothed_energy_conserved(self):
        from hampath.regularize import InfConvolved

        spec = harmonic_cauchy_spec()
        lam = 0.3
        res = solve(spec, SolveParams(M=80, eps_schedule=(), lambda_schedule=(lam,),
                                      tol_zero=1e-6, polish=False))
        Hl = InfConvolved(spec.hamiltonian, lam, 4.0)
        nodes = np.concatenate([res.path.p_nodes, res.path.q_nodes], axis=1)
        vals = Hl.value(nodes)
        assert vals.max() - vals.min() <= 1e-3 * (1.0 + abs(vals[0]))


class TestSlopeBound:
    def test_derivatives_stay_bounded_down_the_lambda_schedule(self):
        spec = harmonic_cauchy_spec()
        bounds = []
        for lam in (0.4, 0.2, 0.1):
            res = solve(spec, SolveParams(M=100, eps_schedule=(), lambda_schedule=(lam,),
                                          tol_zero=1e-6, polish=False))
            iv = interval_data(res.path)
            bounds.append(float(np.max(np.linalg.norm(iv.dp, axis=1)
                                       + np.linalg.norm(iv.dq, axis=1))))
        assert all(b <= 2.0 * bounds[0] for b in bounds)
