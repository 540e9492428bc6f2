import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from hampath.grid import (
    PathGrid,
    interval_data,
    sbp_residual,
    sobolev_norm,
)

from oracles import poincare_margin, random_path

finite_nodes = arrays(np.float64, (9, 2), elements=st.floats(-50, 50))


class TestIntervalData:
    def test_constant_path(self):
        g = PathGrid.constant(1.0, [3.0], [-1.0], 10)
        iv = interval_data(g)
        assert np.all(iv.dp == 0) and np.all(iv.dq == 0)
        assert np.all(iv.pbar == 3.0) and np.all(iv.qbar == -1.0)

    def test_linear_ramp(self):
        M, T = 16, 2.0
        t = np.linspace(0, T, M + 1)
        g = PathGrid(T, t.copy(), np.zeros(M + 1))
        iv = interval_data(g)
        assert np.allclose(iv.dp, 1.0)

    def test_cosine_slope_error(self):
        M, T = 100, 1.0
        t = np.linspace(0, T, M + 1)
        g = PathGrid(T, np.cos(t), np.zeros(M + 1))
        iv = interval_data(g)
        mid = 0.5 * (t[:-1] + t[1:])
        err = np.max(np.abs(iv.dp[:, 0] + np.sin(mid)))
        assert err <= 5e-5

    def test_reconstruction_at_machine_precision(self, rng):
        g = random_path(rng, 1.5, 2, 20)
        iv = interval_data(g)
        rebuilt = g.p_nodes[:-1] + iv.h * iv.dp
        assert np.max(np.abs(rebuilt - g.p_nodes[1:])) <= 4e-16 * g.scale()


class TestSbp:
    def test_zero_path(self):
        assert sbp_residual(PathGrid.zeros(1.0, 2, 8)) == 0.0

    def test_random_paths(self, rng):
        for _ in range(50):
            g = random_path(rng, 2.0, 3, 13)
            scale = 1e-12 * g.scale() ** 2 * 10
            assert sbp_residual(g) <= max(scale, 1e-11)

    def test_telescoping_value(self):
        p = np.linspace(0.0, 2.0, 9)
        g = PathGrid(1.0, p, p.copy())
        iv = interval_data(g)
        total = 2.0 * iv.h * float(np.sum(iv.dp * iv.pbar))
        assert total == pytest.approx(4.0, abs=1e-13)


class TestNorms:
    def test_zero_path(self):
        assert sobolev_norm(PathGrid.zeros(1.0, 1, 5)) == 0.0

    def test_constant(self):
        g = PathGrid.constant(1.0, [2.0], [0.0], 50)
        assert sobolev_norm(g) == pytest.approx(2.0)

    def test_sine_pair(self):
        M, T = 2000, np.pi
        t = np.linspace(0, T, M + 1)
        g = PathGrid(T, np.sin(t), np.zeros(M + 1))
        assert sobolev_norm(g) == pytest.approx(np.sqrt(np.pi), abs=1e-3)

    def test_poincare_on_random(self, rng):
        for _ in range(100):
            g = random_path(rng, rng.uniform(0.3, 3.0), 2, int(rng.integers(2, 30)))
            assert poincare_margin(g) >= 0.0

    def test_poincare_on_tiny_path(self):
        # the squares of these nodes underflow; the margin must still be nonnegative
        g = PathGrid(0.5, np.full((9, 2), 1.01892119e-161), np.zeros((9, 2)))
        assert poincare_margin(g) >= 0.0


@settings(max_examples=50, deadline=None)
@given(p=finite_nodes, q=finite_nodes)
def test_sbp_hypothesis(p, q):
    g = PathGrid(1.0, p, q)
    assert sbp_residual(g) <= 1e-10 * (1.0 + g.scale() ** 2)


@settings(max_examples=50, deadline=None)
@given(p=finite_nodes, q=finite_nodes, T=st.floats(0.1, 5.0))
def test_poincare_hypothesis(p, q, T):
    g = PathGrid(T, p, q)
    assert poincare_margin(g) >= 0.0


class TestCsv:
    def test_roundtrip(self, tmp_path, rng):
        g = random_path(rng, 1.3, 2, 7)
        f = tmp_path / "traj.csv"
        f.write_text(g.csv_text())
        g2 = PathGrid.from_csv(f)
        assert np.allclose(g2.p_nodes, g.p_nodes)
        assert np.allclose(g2.q_nodes, g.q_nodes)
        assert g2.T == pytest.approx(g.T)

    def test_header(self, tmp_path):
        g = PathGrid.zeros(1.0, 2, 3)
        f = tmp_path / "traj.csv"
        f.write_text(g.csv_text())
        assert open(f).readline().strip() == "t,p_1,p_2,q_1,q_2"


class TestValidation:
    @pytest.mark.parametrize("T", [0.0, float("nan")])
    def test_bad_horizon(self, T):
        with pytest.raises(ValueError, match="horizon must be positive"):
            PathGrid(T, np.zeros((3, 1)), np.zeros((3, 1)))

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError):
            PathGrid(1.0, np.zeros((3, 1)), np.zeros((4, 1)))

    def test_nonfinite(self):
        p = np.zeros((3, 1))
        p[1] = np.nan
        with pytest.raises(ValueError):
            PathGrid(1.0, p, np.zeros((3, 1)))
