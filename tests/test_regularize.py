import numpy as np
import pytest

from hampath.convex import (
    GridSampled,
    Hamiltonian,
    MoreauEnvelope,
    PowerNorm,
    Quadratic,
    SeparableSum,
    Sum,
)
from hampath.legendre import GridFn
from hampath.regularize import EpsPerturbed, InfConvolved

from conftest import (
    coupled_hamiltonian,
    grid_hamiltonian,
    harmonic_hamiltonian,
    quartic_hamiltonian,
)
from oracles import grid_argmin


def zero_hamiltonian():
    return Hamiltonian(Quadratic(np.zeros((2, 2))), 1)


def grid_on_p_hamiltonian():
    """81 nodes of 0.5 p^2 + 0.3 |p| on [-4, 4] on p, 0.5 q^2 on q."""
    x = np.linspace(-4.0, 4.0, 81)
    grid = GridSampled(GridFn([-4.0], [4.0], 0.5 * x**2 + 0.3 * np.abs(x)))
    return Hamiltonian(SeparableSum([grid, Quadratic([[1.0]], box=grid.box)]), 1)


def subquadratic_power():
    # 0.1 sum |x_i|^1.5 is globally below 0.1 |x|^2 + 1
    return Hamiltonian(PowerNorm(1.5, 0.1, dim=2), 1)


class TestQuadPerturb:
    def test_zero_base_value(self):
        He = EpsPerturbed(zero_hamiltonian(), 0.1)
        assert He.value(np.array([1.0, 1.0])) == pytest.approx(0.1)

    def test_zero_base_conjugate(self):
        He = EpsPerturbed(zero_hamiltonian(), 0.1)
        dual = He.pair()[1]
        assert dual.value(np.array([1.0, 0.0])) == pytest.approx(5.0)

    def test_quadratic_base_conjugate(self):
        He = EpsPerturbed(harmonic_hamiltonian(), 0.1)
        dual = He.pair()[1]
        assert dual.value(np.array([1.0, 0.0])) == pytest.approx(1.0 / 2.2, abs=1e-10)

    def test_perturbation_difference_exact(self, rng):
        base = quartic_hamiltonian()
        He = EpsPerturbed(base, 0.05)
        pts = rng.uniform(-2, 2, size=(100, 2))
        diff = He.value(pts) - base.value(pts)
        assert np.allclose(diff, 0.025 * np.sum(pts**2, axis=1), atol=1e-12)

    def test_subgradient_shift(self):
        He = EpsPerturbed(harmonic_hamiltonian(), 0.1)
        res = He.subgradient(np.array([1.0, 2.0]))
        assert np.allclose(res.value, [1.1, 2.2])

    def test_envelope_conjugate_smooth_and_exact(self, rng):
        # power base: dual side is a numerically proxed envelope
        He = EpsPerturbed(quartic_hamiltonian(), 0.1)
        prim, dual = He.pair()
        assert dual.smooth
        y = rng.uniform(-2, 2, size=(30, 2))
        x = rng.uniform(-2, 2, size=(30, 2))
        gaps = prim.value(x) + dual.value(y) - np.sum(x * y, axis=1)
        assert np.all(gaps >= -1e-10)

    def test_sandwich_bounds(self, rng):
        # certified constants for the two bases
        cases = [
            (Hamiltonian(Quadratic(0.2 * np.eye(2)), 1), 0.01, 0.2, 0.01),
            (subquadratic_power(), 0.01, 0.2, 1.0),
        ]
        for H, alpha, beta, gamma in cases:
            for eps in (0.1, 0.01):
                He = EpsPerturbed(H, eps)
                dual = He.pair()[1]
                y = rng.uniform(-3, 3, size=(500, 2))
                vals = dual.value(y)
                n2 = np.sum(y**2, axis=1)
                lower = n2 / (2 * (beta + eps)) - gamma
                upper = n2 / (2 * eps) + alpha
                assert np.all(vals >= lower - 1e-8)
                assert np.all(vals <= upper + 1e-8)


class TestInfConv:
    def test_closed_form_conjugate_identity(self, rng):
        for H in (harmonic_hamiltonian(), quartic_hamiltonian()):
            for lam in (1.0, 0.5):
                Hl = InfConvolved(H, lam, 4.0)
                dual = Hl.pair()[1]
                base_dual = H.pair()[1]
                y = rng.uniform(-2, 2, size=(200, 2))
                expect = base_dual.value(y) + (lam**4 / 4.0) * np.sum(np.abs(y) ** 4, axis=1)
                assert np.max(np.abs(dual.value(y) - expect)) < 1e-8

    def test_conjugate_identity_against_sup_oracle(self):
        # high-precision concave maximisation of u p - H_lam(u) per coordinate
        from scipy.optimize import minimize_scalar

        for H, name in ((harmonic_hamiltonian(), "quadratic"),
                        (quartic_hamiltonian(), "quartic")):
            base_dual = H.pair()[1]
            for lam in (1.0, 0.5):
                Hl = InfConvolved(H, lam, 4.0)
                for pt in (np.array([0.7, -0.3]), np.array([1.0, 0.5])):
                    def neg(ucoord, axis, val=pt):
                        u = np.zeros(2)
                        u[axis] = ucoord
                        u[1 - axis] = 0.0
                        return -(ucoord * val[axis] - Hl.value(u))

                    total = 0.0
                    for axis in range(2):
                        res = minimize_scalar(lambda t: neg(t, axis), bounds=(-6, 6),
                                              method="bounded",
                                              options={"xatol": 1e-12})
                        total += -res.fun
                    closed = (base_dual.value(pt)
                              + (lam**4 / 4.0) * float(np.sum(np.abs(pt) ** 4)))
                    assert total == pytest.approx(closed, abs=1e-8)

    def test_below_base_and_monotone(self, rng):
        H = quartic_hamiltonian()
        pts = rng.uniform(-2, 2, size=(200, 2))
        prev = None
        for lam in (1.0, 0.5, 0.25):
            Hl = InfConvolved(H, lam, 4.0)
            vals = Hl.value(pts)
            assert np.all(vals <= H.value(pts) + 1e-10)
            if prev is not None:
                assert np.all(prev <= vals + 1e-9)
            prev = vals

    def test_upper_bound_at_origin_value(self):
        H = harmonic_hamiltonian()
        Hl = InfConvolved(H, 1.0, 4.0)
        s = 4.0 / 3.0
        bound = H.value(np.zeros(2)) + 2.0 / s
        assert Hl.value(np.array([1.0, 1.0])) <= bound + 1e-10
        assert bound == pytest.approx(1.5)

    def test_upper_bound_random(self, rng):
        H = quartic_hamiltonian()
        lam, r = 0.5, 4.0
        s = r / (r - 1.0)
        Hl = InfConvolved(H, lam, r)
        pts = rng.uniform(-2, 2, size=(50, 2))
        bound = H.value(np.zeros(2)) + np.sum(np.abs(pts) ** s, axis=1) / (s * lam**s)
        assert np.all(Hl.value(pts) <= bound + 1e-9)

    def test_r_at_most_two_rejected(self):
        with pytest.raises(ValueError):
            InfConvolved(harmonic_hamiltonian(), 0.5, 2.0)

    def test_noncoercive_base_rejected(self):
        with pytest.raises(ValueError):
            InfConvolved(zero_hamiltonian(), 0.5, 4.0)

    def test_value_grad_matches_separate_calls(self, rng):
        # one inner solve serves both value and gradient, on either branch
        separable = InfConvolved(quartic_hamiltonian(), 0.5, 4.0).fn
        generic = InfConvolved(EpsPerturbed(grid_hamiltonian(), 0.05), 0.3, 4.0).fn
        assert separable.base_primal.separable and not generic.base_primal.separable
        for fn, pts in ((separable, rng.uniform(-2, 2, (15, 2))),
                        (generic, rng.uniform(-2, 2, (3, 2)))):
            v, g, _ = fn._eval(pts)
            assert np.array_equal(v, fn._value(pts))
            assert np.array_equal(g, fn._grad(pts))


def attainment_residual(Hl, p, q):
    """|H_lam(p,q) - H(i_p,j_q) - penalty|; zero when the inner solve is exact."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    q = np.atleast_1d(np.asarray(q, dtype=float))
    xy = np.concatenate([p, q])
    ip, jq = Hl.attaining_points(p, q)
    u = np.concatenate([ip, jq])
    lhs = Hl.value(xy)
    rhs = Hl.fn.base_primal.value(u) + float(Hl.fn.penalty(xy - u))
    return abs(lhs - rhs)


class TestProxPoints:
    def test_minimum_at_origin(self):
        Hl = InfConvolved(harmonic_hamiltonian(), 0.7, 4.0)
        ip, jq = Hl.attaining_points([0.0], [0.0])
        assert abs(ip[0]) < 1e-9 and abs(jq[0]) < 1e-9

    def test_displacement_shrinks_with_lambda(self):
        H = harmonic_hamiltonian()
        prev = None
        for lam in (1.0, 0.5, 0.25):
            Hl = InfConvolved(H, lam, 4.0)
            ip, _ = Hl.attaining_points([1.0], [0.0])
            disp = abs(1.0 - ip[0])
            if prev is not None:
                assert disp < prev
            prev = disp
        assert prev < 0.05

    def test_matches_grid_search_oracle(self):
        # 1-D quadratic piece: min_u 0.5 u^2 + |1-u|^{4/3} / ((4/3) lam^{4/3})
        lam, s = 1.0, 4.0 / 3.0
        Hl = InfConvolved(harmonic_hamiltonian(), lam, 4.0)
        ip, _ = Hl.attaining_points([1.0], [0.0])
        oracle = grid_argmin(
            lambda u: 0.5 * u**2 + np.abs(1.0 - u) ** s / (s * lam**s), -2.0, 2.0)
        assert ip[0] == pytest.approx(oracle, abs=1e-6)

    def test_attainment_identity(self, rng):
        Hl = InfConvolved(quartic_hamiltonian(), 0.5, 4.0)
        for _ in range(10):
            p = rng.uniform(-2, 2, size=1)
            q = rng.uniform(-2, 2, size=1)
            assert attainment_residual(Hl, p, q) < 1e-8

    @pytest.mark.parametrize("lam", [0.4, 0.1])
    def test_batched_matches_per_point_on_solved_path(self, lam):
        from dataclasses import replace
        from pathlib import Path

        from hampath.config import load_config
        from hampath.grid import interval_data
        from hampath.solver import solve

        cfg = load_config(str(Path(__file__).parent.parent / "configs" / "lambda_sweep.yaml"))
        params = replace(cfg.params, lambda_schedule=(lam,), eps_schedule=(), polish=False)
        iv = interval_data(solve(cfg.spec, params).path)
        Hl = InfConvolved(cfg.spec.hamiltonian, lam, params.r)
        ip, jq = Hl.attaining_points(iv.pbar, iv.qbar)
        assert ip.shape == iv.pbar.shape and jq.shape == iv.qbar.shape
        for k in range(iv.pbar.shape[0]):
            ip_k, jq_k = Hl.attaining_points(iv.pbar[k], iv.qbar[k])
            np.testing.assert_allclose(ip[k], ip_k, rtol=0, atol=1e-10)
            np.testing.assert_allclose(jq[k], jq_k, rtol=0, atol=1e-10)

    def test_generic_path_matches_separable(self):
        # same quadratic, once with coupling epsilon=0 via full matrix (generic
        # route) and once diagonal (separable route)
        A = np.array([[1.0, 1e-12], [1e-12, 1.0]])
        Hg = Hamiltonian(Quadratic(A), 1)
        Hs = harmonic_hamiltonian()
        lg = InfConvolved(Hg, 0.5, 4.0)
        ls = InfConvolved(Hs, 0.5, 4.0)
        assert not lg.fn.base_primal.separable and ls.fn.base_primal.separable
        pt = np.array([1.2, -0.4])
        assert lg.value(pt) == pytest.approx(ls.value(pt), abs=1e-8)
        ip_g, jq_g = lg.attaining_points([1.2], [-0.4])
        ip_s, jq_s = ls.attaining_points([1.2], [-0.4])
        assert ip_g[0] == pytest.approx(ip_s[0], abs=1e-6)
        assert jq_g[0] == pytest.approx(jq_s[0], abs=1e-6)


def worst_relative_drop(objective, rows, dirs, move=1e-6):
    """Largest fall of objective(u, x) under +-move steps, relative to 1 + |f|."""
    worst = -np.inf
    for u, x in rows:
        f0 = objective(u, x)
        for d in dirs:
            for sign in (1.0, -1.0):
                worst = max(worst, (f0 - objective(u + sign * move * d, x)) / (1.0 + abs(f0)))
    return worst


STENCIL = np.array([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, -1.0)])  # with signs: 8 moves


class TestInnerSolveAccuracy:
    """Every row of a per-row inner solve is a local minimum of its own objective."""

    def test_grid_prox_rows(self, rng):
        f = grid_hamiltonian().fn
        step = 0.1
        x = rng.uniform(-3, 3, (20, 2))
        u = f._prox(x, step)

        def objective(u, x):
            return f.value(u) + np.sum((u - x) ** 2) / (2 * step)
        assert worst_relative_drop(objective, zip(u, x), STENCIL) <= 1e-12

    # a 2-D grid, and a grid term on p with a quadratic on q, whose blocks take their
    # own inner solves: facets on p and a root on q
    @pytest.mark.parametrize("make", [grid_hamiltonian, grid_on_p_hamiltonian],
                             ids=["grid", "grid_on_p"])
    def test_grid_infconv_rows(self, rng, make):
        fn = InfConvolved(EpsPerturbed(make(), 0.05), 0.3, 4.0).fn
        assert not fn.base_primal.separable
        x = rng.uniform(-3, 3, (20, 2))
        u = fn.minimizers(x)

        def objective(u, x):
            return fn.base_primal.value(u) + fn.penalty(u - x)
        assert worst_relative_drop(objective, zip(u, x), STENCIL) <= 1e-12

    def test_coupled_quadratic_infconv_rows(self, rng):
        fn = InfConvolved(coupled_hamiltonian(), 0.4, 4.0).fn
        assert not fn.base_primal.separable
        x = rng.uniform(-2, 2, (200, 4))
        u = fn.minimizers(x)
        dirs = rng.normal(size=(8, 4))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

        def objective(u, x):
            return fn.base_primal.value(u) + fn.penalty(u - x)
        assert worst_relative_drop(objective, zip(u, x), dirs) <= 1e-12


def test_eps_stage_of_a_grid_block_perturbs_each_block():
    H = grid_on_p_hamiltonian()
    primal, dual = EpsPerturbed(H, 0.05).pair()
    assert isinstance(primal, SeparableSum)
    grid_block, q_block = primal.parts
    assert grid_block.envelope_form() is not None
    assert isinstance(q_block, Quadratic) and q_block.A[0, 0] == 1.05
    assert isinstance(dual, MoreauEnvelope) and dual.inner is H.pair()[1]


class TestCoupledQuadraticInnerSolve:
    """A coupled quadratic's inf-convolution, solved by batched Newton in the dual."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 50.0, 1e3])
    @pytest.mark.parametrize("lam, r", [(0.4, 4.0), (1.0, 6.0), (0.1, 3.0)])
    def test_dual_residual_meets_the_stop_rule(self, rng, scale, lam, r):
        fn = InfConvolved(coupled_hamiltonian(), lam, r).fn
        fstar = fn.base_primal.conjugate_pair()[1]
        x = rng.uniform(-scale, scale, (100, 4))
        u, g, _ = fn._attain(fn.base_primal)(x)
        F = fstar._grad(g) + fn.dual_term._grad(g) - x
        assert np.all(np.abs(F) <= 1e-12 * (1.0 + np.abs(x)))
        assert np.array_equal(u, x - fn.dual_term._grad(g))
        np.testing.assert_allclose(fn.base_primal._grad(u), g, rtol=1e-9, atol=1e-9)

    def test_stall_raises_root_find_error(self, monkeypatch, rng):
        import hampath.regularize

        from hampath.rootfind import RootFindError

        fn = InfConvolved(coupled_hamiltonian(), 0.4, 4.0).fn
        monkeypatch.setattr(hampath.regularize, "NEWTON_ITERS", 1)
        with pytest.raises(RootFindError, match="over a quadratic stalled"):
            fn._eval(rng.uniform(-2, 2, (10, 4)))


# 1-D pieces of a separable primal, each with the point where its derivative vanishes
SEPARABLE_PIECES = {
    "quadratic": (lambda: Quadratic([[1.3]], [0.4]), -0.4 / 1.3),
    "quartic": (lambda: PowerNorm(4.0, 0.1), 0.0),
    # f'' = +inf at 0: the penalty-slope residual's derivative is inf * 0 at v = 0
    "power_1.5": (lambda: PowerNorm(1.5, 0.1), 0.0),
    "quadratic+quartic": (lambda: Sum([Quadratic([[0.5]]), PowerNorm(4.0, 0.1)]), 0.0),
}


class TestSeparableInnerSolveAccuracy:
    """Separable inf-convolution minimizers against an independent scalar minimization.

    Each coordinate of u*(x) minimizes f(u) + penalty(u - x), whose minimizer
    lies between x and the zero m of f'; a bounded scalar search over that
    interval is the reference.
    """

    OFFSETS = np.array([0.0, 1e-3, -0.3, 0.7, -7.0, 40.0, -1e3, 1e3])

    @pytest.mark.parametrize("r", [4.0, 6.0])
    @pytest.mark.parametrize("lam", [0.4, 0.1, 0.01])
    @pytest.mark.parametrize("name", sorted(SEPARABLE_PIECES))
    def test_minimizers_and_first_order_residual(self, name, lam, r):
        from scipy.optimize import minimize_scalar

        make, m = SEPARABLE_PIECES[name]
        piece = make()
        fn = InfConvolved(Hamiltonian(SeparableSum([make(), make()]), 1), lam, r).fn
        assert fn.base_primal.separable
        # offset 0 puts x at m, where f'(x) = 0 and the closed-form bracket is [0, 0]
        x = np.column_stack([m + self.OFFSETS, m - self.OFFSETS[::-1] / 3.0])
        u, g = fn.minimizers(x), fn.grad(x)
        s = r / (r - 1.0)
        for xk, uk, gk in zip(x.ravel(), u.ravel(), g.ravel()):
            def objective(t):
                return float(piece.value(np.array([t]))) + abs(t - xk) ** s / (s * lam**s)
            ref = xk
            if xk != m:
                ref = minimize_scalar(objective, bounds=(min(xk, m), max(xk, m)),
                                      method="bounded", options={"xatol": 1e-14}).x
            obj = objective(uk)
            assert obj <= objective(ref) + 1e-12 * (1.0 + abs(obj))
            # penalty'(u - x) = -grad H_lam(x), so the residual is f'(u) - grad H_lam(x)
            slope = float(piece.grad(np.array([xk]))[0])
            assert abs(float(piece.grad(np.array([uk]))[0]) - gk) <= 1e-12 * (1.0 + abs(slope))


class TestInnerSolveConditioning:
    """The penalty-slope residual needs few evaluations and no bracket search."""

    def test_lambda_sweep_stage(self, monkeypatch):
        import sys
        from dataclasses import replace
        from pathlib import Path

        import hampath.regularize
        import hampath.rootfind
        from hampath.config import load_config
        from hampath.solver import solve

        evals, from_regularize = [], []
        newton_bisect = hampath.regularize.newton_bisect
        bracket_root = hampath.rootfind.bracket_root

        def counted_newton(rho_drho, *args, **kwargs):
            evals.append(0)

            def rho(v):
                evals[-1] += 1
                return rho_drho(v)
            return newton_bisect(rho, *args, **kwargs)

        def traced_bracket(*args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_globals.get("__name__") == "hampath.regularize":
                    from_regularize.append(1)
                frame = frame.f_back
            return bracket_root(*args, **kwargs)

        monkeypatch.setattr(hampath.regularize, "newton_bisect", counted_newton)
        monkeypatch.setattr(hampath.rootfind, "bracket_root", traced_bracket)
        cfg = load_config(str(Path(__file__).parent.parent / "configs" / "lambda_sweep.yaml"))
        params = replace(cfg.params, lambda_schedule=(0.1,), eps_schedule=(), polish=False)
        solve(cfg.spec, params)
        assert evals and max(evals) <= 8
        assert not from_regularize


class TestTabulatedInfConv:
    """A tabulated primal is +inf off its box; H_lam is finite everywhere."""

    @staticmethod
    def stage(n, half):
        return InfConvolved(EpsPerturbed(grid_hamiltonian(n, half), 0.05), 0.3, 4.0)

    def test_finite_at_and_beyond_the_grid_edge(self):
        Hl = self.stage(41, 4.0)
        pts = np.array([[4.0, 4.0], [4.5, 0.0], [6.0, 1.0]])
        u = Hl.fn.minimizers(pts)
        assert np.all(np.abs(u) <= 4.0)
        v, g, _ = Hl.fn._eval(pts)
        assert np.all(np.isfinite(v)) and np.all(np.isfinite(g))

    def test_interior_points_do_not_see_the_box(self, rng):
        # the same tabulated data on a twice wider box give the same stage
        small, wide = self.stage(41, 4.0), self.stage(81, 8.0)
        pts = rng.uniform(-2.5, 2.5, (10, 2))
        assert np.allclose(small.fn.minimizers(pts), wide.fn.minimizers(pts), atol=1e-7)
        assert np.allclose(small.value(pts), wide.value(pts), rtol=0.0, atol=1e-10)


class TestEpsPerturbedPair:
    @staticmethod
    def count_builds(monkeypatch):
        """Counts tabulations and facet-table builds."""
        import hampath.convex

        calls = {"tabulate": 0, "facets": 0}
        tab = GridSampled.from_samples.__func__
        facets = hampath.convex.FacetTable.of_grid.__func__

        def counted(name, real):
            def wrapper(*a, **k):
                calls[name] += 1
                return real(*a, **k)
            return classmethod(wrapper)
        monkeypatch.setattr(GridSampled, "from_samples", counted("tabulate", tab))
        monkeypatch.setattr(hampath.convex.FacetTable, "of_grid", counted("facets", facets))
        return calls

    @staticmethod
    def evaluate(primal, dual, rng):
        x = rng.uniform(-1.0, 1.0, (5, primal.dim))
        primal.value(x), dual.value(x)

    def test_nonsmooth_base_builds_one_transform(self, monkeypatch, rng):
        calls = self.count_builds(monkeypatch)
        primal, dual = EpsPerturbed(grid_hamiltonian(), 0.05).pair()
        assert not primal.smooth and dual.smooth
        self.evaluate(primal, dual, rng)
        assert calls == {"tabulate": 0, "facets": 1}

    def test_tabulated_smooth_base_builds_one_transform(self, monkeypatch, rng):
        # coupled and not coordinatewise separable: the base pair is tabulated,
        # and the stage pair is read off it instead of tabulating H + eps/2 |.|^2
        calls = self.count_builds(monkeypatch)
        base = Hamiltonian(Sum([Quadratic([[1.0, 0.3], [0.3, 1.0]]),
                                PowerNorm(4.0, 0.1, dim=2)]), 1)
        primal, dual = EpsPerturbed(base, 0.1).pair()
        assert isinstance(dual, MoreauEnvelope) and dual.inner is base.pair()[1]
        assert not primal.smooth and dual.smooth
        self.evaluate(primal, dual, rng)
        assert calls == {"tabulate": 1, "facets": 1}
