import numpy as np
import pytest

from hampath.action import (
    Cauchy,
    Connecting,
    ProblemSpec,
    SemiConvex,
    action_for,
    action_gradient,
    witness_lagrangian,
)
from hampath.convex import GridSampled, squared_norm
from hampath.legendre import GridFn
from hampath.grid import PathGrid
from hampath.regularize import EpsPerturbed

from conftest import (
    coupled_hamiltonian,
    grid_hamiltonian,
    harmonic_hamiltonian,
    mixed_hamiltonian,
    quartic_hamiltonian,
    scaled_hamiltonian,
)
from oracles import random_path


def half_square(n=1):
    return squared_norm(n, 0.5)


def gap_floor(br):
    return -1e-10 * (1.0 + np.abs(br.interior).max())


class TestConnecting:
    def test_zero_path_vanishes(self):
        H = harmonic_hamiltonian()
        br = action_for(ProblemSpec(H, 1.0, Connecting(half_square(), half_square())),
                        PathGrid.zeros(1.0, 1, 20))
        assert br.total == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative_on_random(self, rng):
        H = harmonic_hamiltonian()
        for _ in range(100):
            g = random_path(rng, 1.0, 1, 12)
            br = action_for(ProblemSpec(H, g.T, Connecting(half_square(), half_square())), g)
            assert br.total >= gap_floor(br)
            assert np.all(br.interior >= -1e-12 * (1 + np.abs(br.interior).max()))

    def test_decomposition_is_exact(self, rng):
        H = coupled_hamiltonian()
        g = random_path(rng, 0.7, 2, 9)
        br = action_for(ProblemSpec(H, g.T, Connecting(half_square(2), half_square(2))), g)
        rebuilt = br.h * float(np.sum(br.interior)) + br.boundary_start + br.boundary_end
        assert rebuilt == br.total

    def test_matches_two_qdot_p_form(self, rng):
        # the integrated-by-parts assembly must equal the 2 dq.pbar form exactly
        H = harmonic_hamiltonian()
        prim, dual = H.pair()
        for _ in range(20):
            g = random_path(rng, 1.0, 1, 8)
            br = action_for(ProblemSpec(H, g.T, Connecting(half_square(), half_square())), g)
            from hampath.grid import interval_data

            iv = interval_data(g)
            x = np.concatenate([iv.pbar, iv.qbar], axis=1)
            y = np.concatenate([-iv.dq, iv.dp], axis=1)
            direct = iv.h * float(np.sum(
                prim.value(x) + dual.value(y) + 2.0 * np.sum(iv.dq * iv.pbar, axis=1)))
            p1 = half_square()
            direct += float(p1.value(g.q_nodes[-1])
                            + p1.conjugate().value(-g.p_nodes[-1])
                            + p1.value(g.p_nodes[0])
                            + p1.conjugate().value(g.q_nodes[0]))
            assert direct == pytest.approx(br.total, rel=1e-12, abs=1e-12)


class TestOracleSampledAction:
    def test_shooting_solution_has_small_decreasing_action(self):
        from oracles import resample, shooting_connecting

        beta, T = 0.1, 0.2
        H = scaled_hamiltonian(beta)
        psi1 = squared_norm(1, 0.5, [1.0])
        tf, p_or, q_or = shooting_connecting(
            lambda p, q: (beta * p, beta * q), lambda a: a - 1.0, lambda b: b, T)
        vals = []
        for M in (100, 200, 400):
            t = np.linspace(0, T, M + 1)
            g = PathGrid(T, resample(tf, p_or, t), resample(tf, q_or, t))
            vals.append(action_for(ProblemSpec(H, g.T, Connecting(psi1, half_square())), g).total)
        assert vals[-1] <= 1e-4
        assert vals[0] >= vals[1] >= vals[2] >= 0.0


class TestCauchy:
    def test_exact_harmonic_solution_small(self):
        M, T = 200, 1.0
        t = np.linspace(0, T, M + 1)
        g = PathGrid(T, np.cos(t), -np.sin(t))
        br = action_for(ProblemSpec(harmonic_hamiltonian(), g.T, Cauchy([1.0], [0.0])), g)
        assert 0.0 <= br.total <= 1e-5

    def test_constant_path_value(self):
        g = PathGrid.constant(1.0, [1.0], [0.0], 40)
        br = action_for(ProblemSpec(harmonic_hamiltonian(), g.T, Cauchy([1.0], [0.0])), g)
        # H(1,0) = 1/2 and H*(0,0) = 0 on every interval
        assert br.total == pytest.approx(0.5, abs=1e-13)

    def test_nonnegative_on_random_feasible(self, rng):
        H = harmonic_hamiltonian()
        for _ in range(50):
            g = random_path(rng, 1.0, 1, 10)
            p = g.p_nodes.copy()
            q = g.q_nodes.copy()
            p[0], q[0] = 1.0, 0.0
            g2 = PathGrid(1.0, p, q)
            br = action_for(ProblemSpec(H, g2.T, Cauchy([1.0], [0.0])), g2)
            assert br.total >= gap_floor(br)

    def test_initial_condition_enforced(self):
        g = PathGrid.constant(1.0, [2.0], [0.0], 10)
        with pytest.raises(ValueError):
            action_for(ProblemSpec(harmonic_hamiltonian(), g.T, Cauchy([1.0], [0.0])), g)


class TestSemiConvex:
    def test_zero_feedback_reduces_exactly(self, rng):
        H = harmonic_hamiltonian()
        for _ in range(50):
            g = random_path(rng, 1.0, 1, 9)
            a = action_for(ProblemSpec(H, g.T, Connecting(half_square(), half_square())), g)
            b = action_for(ProblemSpec(H, g.T, SemiConvex(half_square(), half_square(),
                                                          0.0, 0.0)), g)
            assert abs(a.total - b.total) <= 1e-14 * (1 + abs(a.total))

    def test_zero_path_vanishes(self):
        br = action_for(ProblemSpec(harmonic_hamiltonian(), 1.0,
                                    SemiConvex(half_square(), half_square(), -0.1, -0.1)),
                        PathGrid.zeros(1.0, 1, 15))
        assert br.total == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative_with_negative_feedback(self, rng):
        H = scaled_hamiltonian(0.05)
        for _ in range(100):
            g = random_path(rng, 1.0, 1, 11)
            br = action_for(ProblemSpec(H, g.T, SemiConvex(half_square(), half_square(),
                                                           -0.1, -0.1)), g)
            assert br.total >= gap_floor(br)
            assert np.all(br.interior >= -1e-12 * (1 + np.abs(br.interior).max()))


class TestWitnessLagrangian:
    def test_diagonal_vanishes(self, rng):
        H = harmonic_hamiltonian()
        for _ in range(20):
            g = random_path(rng, 1.0, 1, 10)
            val = witness_lagrangian(H, half_square(), half_square(), g, g)
            assert abs(val) <= 1e-12 * g.scale() ** 2 * 10

    def test_lower_bound_witness(self, rng):
        H = harmonic_hamiltonian()
        for _ in range(100):
            g = random_path(rng, 1.0, 1, 8)
            rs = random_path(rng, 1.0, 1, 8)
            action = action_for(ProblemSpec(H, g.T, Connecting(half_square(), half_square())),
                                g).total
            val = witness_lagrangian(H, half_square(), half_square(), g, rs)
            assert val <= action + 1e-10 * (1 + abs(action))

    def test_zero_witness_coercive_growth(self):
        # along a scaled family the zero-witness value grows without bound
        He = EpsPerturbed(scaled_hamiltonian(0.1, 1), 0.05)
        T, M = 0.2, 16
        t = np.linspace(0, T, M + 1)
        base = PathGrid(T, np.cos(3 * t) + 0.5, np.sin(2 * t) - 0.25)
        zero = PathGrid.zeros(T, 1, M)
        vals = []
        for scale in (1.0, 2.0, 4.0, 8.0, 16.0):
            g = PathGrid(T, scale * base.p_nodes, scale * base.q_nodes)
            vals.append(witness_lagrangian(He, half_square(), half_square(), g, zero))
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 100.0


class TestGradient:
    @pytest.mark.parametrize("mode", ["connecting", "cauchy", "semiconvex"])
    def test_matches_central_differences(self, mode, rng):
        H = harmonic_hamiltonian()
        for _ in range(5):
            g = random_path(rng, 1.0, 1, 6)
            boundary = {
                "connecting": Connecting(half_square(), half_square(), 1),
                "cauchy": Cauchy(g.p_nodes[0].copy(), g.q_nodes[0].copy()),
                "semiconvex": SemiConvex(half_square(), half_square(), -0.1, -0.1),
            }[mode]
            spec = ProblemSpec(H, 1.0, boundary)
            k0 = 1 if mode == "cauchy" else 0
            gp, gq = action_gradient(boundary, H, g)
            num_p = gp.copy()
            num_q = gq.copy()
            hfd = 1e-6
            for k in range(k0, g.M + 1):
                for j in range(g.N):
                    for arr, num in ((g.p_nodes, num_p), (g.q_nodes, num_q)):
                        orig = arr[k, j]
                        arr[k, j] = orig + hfd
                        fp = action_for(spec, PathGrid(g.T, g.p_nodes, g.q_nodes),
                                        H=H).total
                        arr[k, j] = orig - hfd
                        fm = action_for(spec, PathGrid(g.T, g.p_nodes, g.q_nodes),
                                        H=H).total
                        arr[k, j] = orig
                        num[k, j] = (fp - fm) / (2 * hfd)
            scale = 1.0 + max(np.abs(gp).max(), np.abs(gq).max())
            assert np.max(np.abs(gp - num_p)) <= 1e-5 * scale
            assert np.max(np.abs(gq - num_q)) <= 1e-5 * scale


class TestGradientAvailability:
    def test_grid_pair_has_no_gradient(self):
        H = grid_hamiltonian()
        boundary = Cauchy([0.5], [0.0])
        g = PathGrid.constant(0.5, [0.5], [0.0], 10)
        br = action_for(ProblemSpec(H, 0.5, boundary), g)
        assert br.grad_p is None and br.grad_q is None
        assert br.inclusion is None
        with pytest.raises(ValueError, match="smooth"):
            action_gradient(boundary, H, g)

    def test_nonsmooth_boundary_potential_has_no_gradient(self, rng):
        x = np.linspace(-4, 4, 81)
        psi = GridSampled(GridFn([-4], [4], np.abs(x - 0.5)))
        boundary = Connecting(psi, half_square(), 1)
        H = harmonic_hamiltonian()
        g = random_path(rng, 1.0, 1, 8, amplitude=0.5)  # inside the conjugate's slope box
        br = action_for(ProblemSpec(H, 1.0, boundary), g)
        assert br.grad_p is None and br.grad_q is None
        assert br.inclusion is not None and np.all(np.isfinite(br.inclusion))
        with pytest.raises(ValueError, match="smooth"):
            action_gradient(boundary, H, g)


class TestCatalogNonnegativity:
    def test_five_problem_suite(self, rng):
        problems = [
            (harmonic_hamiltonian(), 1),
            (scaled_hamiltonian(0.1), 1),
            (quartic_hamiltonian(), 1),
            (coupled_hamiltonian(), 2),
            (mixed_hamiltonian(), 1),
        ]
        for H, N in problems:
            smooth_only = H.pair()[1].smooth
            for _ in range(30):
                g = random_path(rng, 1.0, N, 9, smooth=not smooth_only)
                br = action_for(ProblemSpec(H, g.T, Connecting(half_square(N), half_square(N))), g)
                assert br.total >= gap_floor(br)
