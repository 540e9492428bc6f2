import numpy as np
import pytest

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

    def test_iteration_cap_raises(self):
        # no usable derivative forces bisection, far too slow for four iterations
        def rho_drho(u):
            return u - 0.3, np.full_like(u, np.nan)
        with pytest.raises(RootFindError) as info:
            newton_bisect(rho_drho, [-10.0], [10.0], max_iters=4)
        assert info.value.residual > 1e-6


class TestBracketRoot:
    def test_doubling_cap_raises(self):
        with pytest.raises(RootFindError):
            bracket_root(lambda u: u - 1e30, np.zeros(3), max_doublings=5)
