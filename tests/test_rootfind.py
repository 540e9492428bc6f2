import numpy as np
import pytest

import hampath.rootfind
from hampath.rootfind import RootFindError, bracket_root, newton_bisect


def counted(rho_drho):
    calls = [0]

    def wrapped(u):
        calls[0] += 1
        return rho_drho(u)
    return wrapped, calls


def cubic(c):
    """rho(u) = u^3 + u - c: strictly increasing, one root per element."""
    return lambda u: (u**3 + u - c, 3.0 * u**2 + 1.0)


class TestNewtonBisect:
    def test_many_elements_converge_in_few_evaluations(self, rng):
        c = rng.uniform(-5.0, 5.0, size=1000)
        lo, hi = bracket_root(lambda u: cubic(c)(u)[0], np.zeros_like(c),
                              init_width=1.0 + np.abs(c).max())
        rho_drho, calls = counted(cubic(c))
        scale = 1.0 + np.abs(c)
        u = newton_bisect(rho_drho, lo, hi, scale=scale)
        assert np.all(np.abs(u**3 + u - c) <= 1e-12 * scale)
        assert calls[0] <= 10

    def test_elements_met_at_first_iterate_are_unchanged(self, rng):
        # brackets centred on the root of the first half, off-centre for the rest
        root = rng.uniform(-2.0, 2.0, size=20)
        c = root**3 + root
        offset = np.where(np.arange(20) < 10, 0.0, 0.7)
        lo, hi = root - 1.0 + offset, root + 1.0 + offset
        first = 0.5 * (lo + hi)
        r0 = cubic(c)(first)[0]
        met = np.abs(r0) <= 1e-12 * (1.0 + np.abs(c))
        assert met[:10].all() and not met[10:].any()
        u = newton_bisect(cubic(c), lo, hi, scale=1.0 + np.abs(c))
        np.testing.assert_array_equal(u[met], first[met])
        np.testing.assert_allclose(u[~met], root[~met], atol=1e-12)

    def test_jump_residual_stops_at_rounding_width(self):
        # the second element never meets the residual tolerance; its bracket
        # shrinks to rounding while the first element stays converged
        def rho_drho(u):
            r = np.array([u[0] - 0.25, np.sign(u[1] - np.pi / 10)])
            return r, np.array([1.0, 0.0])
        u = newton_bisect(rho_drho, [-1.0, -1.0], [1.0, 1.0])
        assert u[0] == pytest.approx(0.25, abs=1e-12)
        assert u[1] == pytest.approx(np.pi / 10, abs=1e-14)

    def test_prox_of_power_conjugate_at_every_scale(self):
        # PowerNorm(4, 1/4)* = PowerNorm(4/3, 3/4): the prox residual
        # u - x + step f'(u) has unbounded slope at u = 0, where in-bracket
        # Newton steps stay short; x ~ 1e-2 needs the bisection fallback
        from hampath.convex import PowerNorm

        f = PowerNorm(4.0, 0.25).conjugate()
        assert (f.r, f.scale) == pytest.approx((4.0 / 3.0, 0.75))
        for scale in np.logspace(-8, 1, 19):
            x = scale * np.array([[1.0], [-3.0], [0.7]])
            u = f._prox(x, 0.1)
            assert np.all(np.abs(u - x + 0.1 * f._grad(u)) <= 1e-6 * (1.0 + np.abs(x)))

    def test_iteration_cap_raises(self, monkeypatch):
        # no usable derivative forces bisection, far too slow for four iterations
        def rho_drho(u):
            return u - 0.3, np.full_like(u, np.nan)
        monkeypatch.setattr(hampath.rootfind, "MAX_ITERS", 4)
        with pytest.raises(RootFindError) as info:
            newton_bisect(rho_drho, [-10.0], [10.0])
        assert info.value.residual > 1e-6

    def test_small_scale_stall_beside_large_scale_raises(self, monkeypatch):
        # at the cap both residuals are the same; that passes for the element
        # of scale 1e8 on its own, but not for its neighbour of scale 1
        def rho_drho(u):
            return u - 0.3, np.full_like(u, np.nan)
        monkeypatch.setattr(hampath.rootfind, "MAX_ITERS", 4)
        newton_bisect(rho_drho, [-10.0], [10.0], scale=np.array([1e8]))
        with pytest.raises(RootFindError) as info:
            newton_bisect(rho_drho, [-10.0, -10.0], [10.0, 10.0],
                          scale=np.array([1e8, 1.0]))
        assert info.value.residual > 1e-6


class TestStart:
    """A start moves where Newton begins, never what counts as a root."""

    C = np.array([-4.0, -0.3, 0.0, 0.2, 3.5])
    SCALE = 1.0 + np.abs(C)

    def bracket(self):
        return bracket_root(lambda u: cubic(self.C)(u)[0], np.zeros_like(self.C),
                            init_width=self.SCALE)

    def solve(self, start=None, c=C, lo=None, hi=None):
        if lo is None:
            lo, hi = self.bracket()
        return newton_bisect(cubic(c), lo, hi, scale=1.0 + np.abs(c), start=start)

    def test_start_inside_the_bracket(self):
        lo, hi = self.bracket()
        for t in (0.1, 0.5, 0.9):
            u = self.solve(lo + t * (hi - lo))
            assert np.all(np.abs(u**3 + u - self.C) <= 1e-12 * self.SCALE)
            assert np.all((lo <= u) & (u <= hi))

    def test_start_at_the_root_takes_one_evaluation(self):
        root = self.solve()
        rho_drho, calls = counted(cubic(self.C))
        lo, hi = self.bracket()
        u = newton_bisect(rho_drho, lo, hi, scale=self.SCALE, start=root)
        assert calls[0] == 1 and u.tobytes() == root.tobytes()

    @pytest.mark.parametrize("where", ["lo", "hi", "below", "above", "nan", "inf", "-inf"])
    def test_start_off_the_open_bracket_is_the_midpoint(self, where):
        lo, hi = self.bracket()
        start = {"lo": lo, "hi": hi, "below": lo - 1.0, "above": hi + 1.0,
                 "nan": np.nan, "inf": np.inf, "-inf": -np.inf}[where]
        assert self.solve(start).tobytes() == self.solve().tobytes()

    def test_an_element_does_not_depend_on_the_others_starts(self, rng):
        lo, hi = self.bracket()
        start = lo + rng.uniform(-0.5, 1.5, size=self.C.size) * (hi - lo)
        start[2] = np.nan
        batch = self.solve(start)
        other = self.solve(np.where(np.arange(self.C.size) == 1, start, lo + 0.3 * (hi - lo)))
        assert batch[1].tobytes() == other[1].tobytes()
        for k in range(self.C.size):
            one = self.solve(start[k:k + 1], self.C[k:k + 1], lo[k:k + 1], hi[k:k + 1])
            assert batch[k].tobytes() == one[0].tobytes()


class TestBracketRoot:
    def test_doubling_cap_raises(self, monkeypatch):
        monkeypatch.setattr(hampath.rootfind, "MAX_DOUBLINGS", 5)
        with pytest.raises(RootFindError):
            bracket_root(lambda u: u - 1e30, np.zeros(3))

    def test_per_element_widths(self):
        lo, hi = bracket_root(lambda u: u - np.array([0.5, 40.0]), np.zeros(2),
                              init_width=np.array([1.0, 5.0]))
        np.testing.assert_array_equal(lo, [-1.0, -5.0])
        np.testing.assert_array_equal(hi, [1.0, 40.0])


class TestBatchIndependence:
    """Every element of a mixed-scale batch is bitwise its own single-element call."""

    BATCH = np.array([0.01, 0.3, -2.0, 50.0, -1e-5])

    def assert_elementwise(self, solve):
        batch = solve(self.BATCH)
        for k, v in enumerate(self.BATCH):
            assert batch[k].tobytes() == solve(np.array([v]))[0].tobytes()

    def test_scalar_conjugate_argsup(self):
        from hampath.convex import PowerNorm, ScalarConjugate

        argsup = ScalarConjugate(PowerNorm(4.0, 0.1, dim=1))._argsup
        self.assert_elementwise(lambda y: argsup(y[:, None])[:, 0])

    def test_separable_prox(self):
        from hampath.convex import PowerNorm

        f = PowerNorm(4.0 / 3.0, 0.75)
        self.assert_elementwise(lambda x: f._prox(x[:, None], 0.1)[:, 0])

    def test_separable_inf_convolution(self):
        from hampath.regularize import InfConvolved

        from conftest import quartic_hamiltonian

        fn = InfConvolved(quartic_hamiltonian(), 0.5, 4.0).fn
        assert fn.base_primal.separable
        self.assert_elementwise(
            lambda x: fn.minimizers(np.column_stack([x, -0.5 * x]))[:, 0])


class TestColumnIndependence:
    """Each column of a separable root call solves bitwise as its piece's own 1-D call."""

    Y = np.column_stack([TestBatchIndependence.BATCH, -2.0 * TestBatchIndependence.BATCH[::-1],
                         0.5 * TestBatchIndependence.BATCH])

    @staticmethod
    def pieces():
        from hampath.convex import PowerNorm, Quadratic, Sum

        return [Sum([Quadratic([[0.5]]), PowerNorm(4.0, 0.1, dim=1)]),
                PowerNorm(4.0, 0.3, dim=1), Quadratic([[2.0]], [0.1])]

    def test_batched_conjugate(self):
        from hampath.convex import ScalarConjugate, SeparableSum

        value, grad, _ = ScalarConjugate(SeparableSum(self.pieces()))._eval(self.Y)
        total = 0
        for i, piece in enumerate(self.pieces()):
            v, g, _ = ScalarConjugate(piece)._eval(self.Y[:, i:i + 1])
            assert grad[:, i].tobytes() == g[:, 0].tobytes()
            total = total + v
        # the value is <u, y> - f(u) of the whole function, summed in another order
        assert np.all(np.abs(value - total) <= 1e-15 * (1.0 + np.abs(total)))

    def test_separable_prox(self):
        from hampath.convex import PowerNorm

        u = PowerNorm(4.0 / 3.0, 0.75, dim=3)._prox(self.Y, 0.1)
        for i in range(3):
            col = PowerNorm(4.0 / 3.0, 0.75)._prox(self.Y[:, i:i + 1], 0.1)
            assert u[:, i].tobytes() == col[:, 0].tobytes()

    def test_separable_inf_convolution(self):
        from hampath.convex import Hamiltonian, SeparableSum
        from hampath.regularize import InfConvolved

        pieces = self.pieces()[:2]
        fn = InfConvolved(Hamiltonian(SeparableSum(pieces), 1), 0.3, 4.0).fn
        u, g = fn.minimizers(self.Y[:, :2]), fn.grad(self.Y[:, :2])
        for i, piece in enumerate(pieces):
            # the same piece on both coordinates, fed column i twice
            col = InfConvolved(Hamiltonian(SeparableSum([piece, piece]), 1), 0.3, 4.0).fn
            x = np.column_stack([self.Y[:, i], self.Y[:, i]])
            assert u[:, i].tobytes() == col.minimizers(x)[:, 0].tobytes()
            assert g[:, i].tobytes() == col.grad(x)[:, 0].tobytes()
