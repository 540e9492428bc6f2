from dataclasses import replace

import numpy as np
import pytest

from hampath.action import Cauchy, Connecting, ProblemSpec, SemiConvex
from hampath.certify import certify, fitted_order, residual_order
from hampath.conditions import GrowthCert
from hampath.convex import GridSampled, Hamiltonian, PowerNorm, Quadratic, Sum, squared_norm
from hampath.grid import PathGrid
from hampath.legendre import GridFn
from hampath.solver import SolveParams, solve

from conftest import (
    coupled_hamiltonian,
    harmonic_cauchy_spec,
    harmonic_hamiltonian,
    p1_connecting_spec,
    scaled_hamiltonian,
)
from oracles import random_path


def harmonic_sampler(M):
    t = np.linspace(0.0, 1.0, M + 1)
    return PathGrid(1.0, np.cos(t), -np.sin(t))


class TestCertify:
    def test_zero_path_trivial_connecting(self):
        spec = ProblemSpec(scaled_hamiltonian(0.1), 0.2,
                           Connecting(squared_norm(1, 0.5), squared_norm(1, 0.5), 1),
                           GrowthCert(0.01, 0.1, 0.01))
        cert = certify(spec, PathGrid.zeros(0.2, 1, 50))
        assert cert.passed
        assert cert.action_value <= 1e-12
        assert np.max(cert.interior_residuals) <= 1e-12
        assert cert.boundary_start_residual <= 1e-12
        assert cert.boundary_end_residual <= 1e-12

    def test_exact_harmonic_passes_loose_tol(self):
        spec = harmonic_cauchy_spec()
        cert = certify(spec, harmonic_sampler(400), tol=1e-4)
        assert cert.passed
        assert cert.energy_drift is not None
        assert cert.energy_drift <= 1e-12  # nodes sit exactly on the level set

    def test_inclusion_residual_second_order(self):
        spec = harmonic_cauchy_spec()
        r400 = certify(spec, harmonic_sampler(400)).inclusion_residuals
        r800 = certify(spec, harmonic_sampler(800)).inclusion_residuals
        ratio = np.max(r400) / np.max(r800)
        assert ratio == pytest.approx(4.0, rel=0.05)

    def test_corrupted_node_is_localized(self):
        spec = harmonic_cauchy_spec()
        g = harmonic_sampler(200)
        p = g.p_nodes.copy()
        p[120, 0] += 0.1
        bad = PathGrid(1.0, p, g.q_nodes.copy())
        cert = certify(spec, bad, tol=1e-6)
        assert not cert.passed
        assert int(np.argmax(cert.interior_residuals)) in (119, 120)

    def test_residuals_nonnegative(self, rng):
        from oracles import random_path

        spec = ProblemSpec(harmonic_hamiltonian(), 1.0,
                           Connecting(squared_norm(1, 0.5), squared_norm(1, 0.5), 1), None)
        for _ in range(20):
            g = random_path(rng, 1.0, 1, 15)
            cert = certify(spec, g)
            floor = -1e-12 * (1 + np.abs(cert.interior_residuals).max())
            assert np.all(cert.interior_residuals >= floor)

    def test_inclusion_reported_for_smooth_primal(self):
        # the p1 connecting problem has a smooth H; a kinked start potential
        # removes the node gradient but not the interior inclusion residuals
        from hampath.action import action_for
        from hampath.grid import interval_data

        spec = p1_connecting_spec()
        t = np.linspace(0.0, spec.T, 41)
        g = PathGrid(spec.T, 1.0 - 0.3 * t, 0.2 + 0.5 * t)
        iv = interval_data(g)
        x = np.concatenate([iv.pbar, iv.qbar], axis=1)
        y = np.concatenate([-iv.dq, iv.dp], axis=1)
        expect = np.linalg.norm(y - spec.hamiltonian.grad(x), axis=1)
        kinked = GridSampled(GridFn([-4], [4], np.abs(np.linspace(-4, 4, 81) - 1.0)))
        nonsmooth = replace(spec, boundary=replace(spec.boundary, start_potential=kinked))
        for s in (spec, nonsmooth):
            cert = certify(s, g)
            assert cert.inclusion_residuals is not None
            assert np.allclose(cert.inclusion_residuals, expect, rtol=1e-12, atol=1e-14)
        assert action_for(nonsmooth, g).grad_p is None

    def test_bitwise_reproducible(self):
        spec = harmonic_cauchy_spec()
        g = harmonic_sampler(100)
        a = certify(spec, g)
        b = certify(spec, g)
        assert a.action_value == b.action_value
        assert np.array_equal(a.interior_residuals, b.interior_residuals)


def _layouts(g):
    """The path g with its nodes in four layouts: C- and Fortran-ordered (M+1, N) arrays,
    the strided column slices of one np.hstack, and a component-major from_nodes array."""
    N, P, Q = g.N, g.p_nodes, g.q_nodes
    # a parsed trajectory.csv is C-ordered, and so is its hstack
    stacked = np.hstack([np.ascontiguousarray(P), np.ascontiguousarray(Q)])
    return {
        "C": PathGrid(g.T, np.ascontiguousarray(P), np.ascontiguousarray(Q)),
        "Fortran": PathGrid(g.T, np.asfortranarray(P), np.asfortranarray(Q)),
        "hstack": PathGrid(g.T, stacked[:, :N], stacked[:, N:]),
        "from_nodes": PathGrid.from_nodes(g.T, np.vstack([P.T, Q.T])),
    }


class TestLayout:
    """perfbench recomputes each certificate from the trajectory it parsed and requires
    the same text, so a certificate must not depend on how the nodes are laid out."""

    @pytest.mark.parametrize("mode", ["cauchy", "connecting", "semiconvex"])
    @pytest.mark.parametrize("kind", ["quadratic", "mixed"])
    def test_certificate_text_is_bitwise_the_same_in_every_layout(self, rng, mode, kind):
        N, T = 2, 1.0
        # a coupled quadratic reads its interior from the residual map; a separable
        # quadratic plus a quartic goes through fenchel_young
        H = coupled_hamiltonian() if kind == "quadratic" else Hamiltonian(
            Sum([Quadratic(np.diag([1.0, 0.8, 0.9, 1.1])), PowerNorm(4.0, 0.1, dim=2 * N)]), N)
        psi1, psi2 = squared_norm(N, 0.5, [1.0, -0.5]), squared_norm(N, 0.7, [0.2, 0.3])
        boundary = {"cauchy": Cauchy([1.0, -0.5], [0.3, 0.2]),
                    "connecting": Connecting(psi1, psi2, 1),
                    "semiconvex": SemiConvex(psi1, psi2, 0.2, -0.3)}[mode]
        spec = ProblemSpec(H, T, boundary)
        if kind == "quadratic":
            # a solved path, whose gaps sit at rounding level, as the solver returns it
            g = solve(spec, SolveParams(M=97)).path
            assert certify(spec, g).action_value <= 1e-20
        else:
            g = random_path(rng, T, N, 97, smooth=True)
            if mode == "cauchy":
                g = PathGrid(T, np.vstack([boundary.p0, g.p_nodes[1:]]),
                             np.vstack([boundary.q0, g.q_nodes[1:]]))
        layouts = _layouts(g)
        assert not layouts["Fortran"].p_nodes.flags.c_contiguous
        assert not any(layouts["hstack"].p_nodes.flags[k] for k in ("C", "F"))
        texts = {name: certify(spec, g, tol=1e-6).to_text() for name, g in layouts.items()}
        texts["given"] = certify(spec, g, tol=1e-6).to_text()
        assert len(set(texts.values())) == 1, texts

    def test_quadratic_values_at_node_columns_match_the_rowwise_ones(self, rng):
        # certify reads a quadratic H's energy drift from the component-major nodes
        fn = Quadratic(coupled_hamiltonian().fn.A, [0.3, -0.2, 0.1, 0.4], 0.7)
        Z = rng.uniform(-2.0, 2.0, size=(4, 50))
        assert np.allclose(fn._column_values(Z), fn.value(Z.T), rtol=1e-14, atol=1e-14)


class TestResidualOrder:
    def test_harmonic_orders(self):
        spec = harmonic_cauchy_spec()
        table = residual_order(spec, harmonic_sampler, [50, 100, 200, 400])
        # the inclusion residual tracks the scheme defect at second order;
        # the Fenchel gap and action are quadratic in it and superconverge
        assert table["order_inclusion"] == pytest.approx(2.0, abs=0.15)
        assert table["order_action"] == pytest.approx(4.0, abs=0.3)
        assert table["order_fenchel"] == pytest.approx(4.0, abs=0.3)

    def test_linear_path_exact_for_linear_dynamics(self):
        # dp = q, dq = -1e-9 p: the linear-in-t path is exact up to the tiny
        # p-curvature needed for coercivity, independent of M
        from hampath.convex import Hamiltonian, Quadratic

        eps = 1e-9
        H = Hamiltonian(Quadratic(np.diag([eps, 1.0]), None, 0.5), 1)

        def sampler(M):
            t = np.linspace(0, 1, M + 1)
            return PathGrid(1.0, t.copy(), np.ones(M + 1))

        spec = ProblemSpec(H, 1.0, Cauchy([0.0], [1.0]), None)
        for M in (20, 40, 80):
            cert = certify(spec, sampler(M))
            assert cert.action_value <= 1e-8

    def test_constant_path_at_minimum(self):
        spec = ProblemSpec(harmonic_hamiltonian(), 1.0, Cauchy([0.0], [0.0]), None)
        for M in (10, 50, 100):
            cert = certify(spec, PathGrid.zeros(1.0, 1, M))
            assert cert.action_value == 0.0
            assert np.max(cert.interior_residuals) == 0.0


class TestFittedOrder:
    def test_exact_power_law(self):
        M = np.array([50, 100, 200, 400])
        errs = 3.0 / M**2
        assert fitted_order(M, errs) == pytest.approx(2.0, abs=1e-12)
