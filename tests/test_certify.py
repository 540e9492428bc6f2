from dataclasses import replace

import numpy as np
import pytest

from hampath.action import Cauchy, Connecting, ProblemSpec
from hampath.certify import certify, fitted_order, residual_order
from hampath.conditions import GrowthCert
from hampath.convex import GridSampled, squared_norm
from hampath.grid import PathGrid
from hampath.legendre import GridFn

from conftest import (
    harmonic_cauchy_spec,
    harmonic_hamiltonian,
    p1_connecting_spec,
    scaled_hamiltonian,
)


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
        from hampath.grid import random_path

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
