import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hampath.convex import (
    Box,
    DomainError,
    GridConjugate,
    GridSampled,
    Hamiltonian,
    MoreauEnvelope,
    NotCoerciveError,
    PowerNorm,
    Quadratic,
    ScalarConjugate,
    SeparableSum,
    Sum,
    affine,
    simplify_sum,
    squared_norm,
)
from hampath.legendre import GridFn

from conftest import grid_hamiltonian
from oracles import bisection


def abs_grid(lo=-2.0, hi=2.0, n=4001):
    x = np.linspace(lo, hi, n)
    return GridSampled(GridFn([lo], [hi], np.abs(x)))


def coupled_grid():
    """Tabulated (p + q)^2 / 2 on a 9 x 9 grid: coupled, so a reading of the samples cell
    by cell is not convex."""
    x = np.linspace(-2.0, 2.0, 9)
    return GridSampled(GridFn([-2.0, -2.0], [2.0, 2.0], 0.5 * (x[:, None] + x[None, :]) ** 2))


def catalog(rng):
    A = np.array([[2.0, 0.4], [0.4, 1.0]])
    return [
        Quadratic(np.eye(2)),
        Quadratic(A, [0.3, -0.2], 0.1),
        squared_norm(1, 0.5, [1.0]),
        PowerNorm(4.0, 0.25, dim=1),
        PowerNorm(1.5, 0.3, dim=2),
        Sum([Quadratic(0.5 * np.eye(2)), PowerNorm(4.0, 0.1, dim=2)]),
        SeparableSum([PowerNorm(4.0, 0.25, dim=1), Quadratic([[1.0]])]),
    ]


class TestEval:
    def test_half_square_norm(self):
        f = Quadratic(np.eye(2))
        assert f(np.array([3.0, 4.0])) == pytest.approx(12.5)

    def test_power_quartic(self):
        f = PowerNorm(4.0, 0.25, dim=1)
        assert f(np.array([2.0])) == pytest.approx(4.0)

    def test_sum_with_affine(self):
        f = Sum([Quadratic([[1.0]]), affine([1.0])])
        assert f(np.array([1.0])) == pytest.approx(1.5)

    def test_batched_matches_single(self, rng):
        f = Quadratic(np.array([[2.0, 0.4], [0.4, 1.0]]), [0.3, -0.2], 0.1)
        pts = rng.normal(size=(7, 2))
        vals = f.value(pts)
        for k in range(7):
            assert vals[k] == pytest.approx(f(pts[k]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Quadratic(np.eye(2)).value(np.array([1.0, 2.0, 3.0]))


class TestConjugate:
    def test_half_square_self_conjugate(self, rng):
        f = Quadratic(np.eye(3))
        fs = f.conjugate()
        pts = rng.normal(size=(20, 3))
        assert np.allclose(fs.value(pts), f.value(pts))

    def test_quartic_holder_pair(self):
        f = PowerNorm(4.0, 0.25, dim=1)
        fs = f.conjugate()
        assert isinstance(fs, PowerNorm)
        assert fs.r == pytest.approx(4.0 / 3.0)
        y = np.array([2.0])
        assert fs(y) == pytest.approx(0.75 * 2.0 ** (4.0 / 3.0))

    def test_shifted_quadratic(self):
        f = squared_norm(1, 0.5, [1.0])
        fs = f.conjugate()
        # sup_x xy - (x-1)^2/2 = y^2/2 + y
        for y in (-1.0, 0.3, 2.0):
            assert fs(np.array([y])) == pytest.approx(0.5 * y * y + y)

    def test_affine_refused(self):
        with pytest.raises(NotCoerciveError):
            affine([1.0, 2.0]).conjugate()

    def test_singular_quadratic_refused(self):
        with pytest.raises(NotCoerciveError):
            Quadratic(np.diag([1.0, 0.0])).conjugate()

    def test_grid_exponential_matches_closed_form(self):
        lo, hi, n = -5.0, 5.0, 6001
        x = np.linspace(lo, hi, n)
        f = GridSampled(GridFn([lo], [hi], np.exp(x)))
        fs = f.conjugate()
        for y in (0.5, 1.0, 2.0):
            expect = y * np.log(y) - y
            assert fs(np.array([y])) == pytest.approx(expect, abs=1e-4)

    def test_biconjugation_closed_forms(self, rng):
        for f in (Quadratic(np.array([[2.0, 0.4], [0.4, 1.0]]), [0.3, -0.2], 0.1),
                  PowerNorm(4.0, 0.25, dim=2),
                  PowerNorm(1.5, 0.3, dim=1)):
            ff = f.conjugate().conjugate()
            pts = rng.uniform(-3, 3, size=(50, f.dim))
            assert np.max(np.abs(ff.value(pts) - f.value(pts))) < 1e-6

    def test_biconjugation_grid(self):
        f = abs_grid()
        ff = f.conjugate().conjugate()
        x = np.linspace(-1.5, 1.5, 101)[:, None]
        modulus = 2 * np.max(np.abs(np.diff(f.grid.values)))
        assert np.max(np.abs(ff.value(x) - f.value(x))) <= 2 * modulus


class TestSubgradient:
    def test_quadratic_gradient(self):
        res = Quadratic(np.eye(2)).subgradient(np.array([1.0, 2.0]))
        assert res.is_unique
        assert np.allclose(res.value, [1.0, 2.0])

    def test_abs_kink_minimal_norm(self):
        res = abs_grid().subgradient(np.array([0.0]))
        assert not res.is_unique
        assert abs(res.value[0]) < 1e-8

    def test_abs_away_from_kink(self):
        res = abs_grid().subgradient(np.array([0.5]))
        assert res.is_unique
        assert res.value[0] == pytest.approx(1.0, abs=1e-6)

    def test_quartic_gradient(self):
        res = PowerNorm(4.0, 0.25, dim=1).subgradient(np.array([-2.0]))
        assert res.is_unique
        assert res.value[0] == pytest.approx(-8.0)

    def test_fenchel_equality_at_subgradient(self, rng):
        for f in catalog(rng):
            prim, dual = f.conjugate_pair()
            if not (prim.smooth and dual.smooth):
                continue
            x = rng.uniform(-2, 2, size=f.dim)
            res = f.subgradient(x)
            gap = f(x) + dual(res.value) - x @ res.value
            assert abs(gap) < 1e-8


class TestProx:
    def test_quadratic_closed_form(self):
        f = Quadratic(np.eye(1))
        assert f.prox(np.array([2.0]), 1.0)[0] == pytest.approx(1.0)

    def test_zero_function_identity(self, rng):
        f = Quadratic(np.zeros((3, 3)))
        x = rng.normal(size=3)
        assert np.allclose(f.prox(x, 0.7), x)

    def test_quartic_against_bisection(self):
        f = PowerNorm(4.0, 0.25, dim=1)
        u = f.prox(np.array([3.0]), 0.5)[0]
        root = bisection(lambda t: t + 0.5 * t**3 - 3.0, 0.0, 3.0)
        assert u == pytest.approx(root, abs=1e-8)
        # several coordinates at once, each its own scalar equation
        f3 = PowerNorm(4.0, 0.25, dim=3)
        x = np.array([[3.0, -1.2, 0.0], [-0.4, 2.5, 7.0]])
        u3 = f3.prox(x, 0.5)
        for k, xk in enumerate(x.ravel()):
            root = bisection(lambda t: t + 0.5 * t**3 - xk, -abs(xk) - 1.0, abs(xk) + 1.0)
            assert u3.ravel()[k] == pytest.approx(root, abs=1e-8)

    def test_prox_optimality(self, rng):
        for f in catalog(rng):
            x = rng.uniform(-2, 2, size=f.dim)
            step = 0.5
            u = f.prox(x, step)
            res = f.subgradient(u)
            if res.is_unique:
                stat = res.value + (u - x) / step
                assert np.max(np.abs(stat)) < 1e-7

    def test_moreau_envelope_prox_composition(self, rng):
        inner = PowerNorm(4.0, 0.25, dim=1)
        env = MoreauEnvelope(inner, 0.3)
        x = np.array([1.7])
        u = env.prox(x, 0.5)
        # optimality: grad env(u) + (u - x)/step = 0
        stat = env.grad(u) + (u - x) / 0.5
        assert np.max(np.abs(stat)) < 1e-8


class TestScalarConjugate:
    def mixed_piece(self):
        return Sum([Quadratic([[1.0]]), PowerNorm(4.0, 0.1, dim=1)])

    def test_matches_brute_oracle(self):
        from oracles import brute_conjugate_1d

        piece = self.mixed_piece()
        conj = piece.conjugate_pair()[1]
        for y in (-2.0, -0.3, 0.0, 1.7):
            brute = brute_conjugate_1d(lambda t: 0.5 * t * t + 0.1 * t**4, y, -6, 6)
            assert conj(np.array([y])) == pytest.approx(brute, abs=1e-6)

    def test_smooth_pair(self):
        prim, dual = self.mixed_piece().conjugate_pair()
        assert prim.smooth and dual.smooth
        assert prim is not dual

    def test_gradient_is_argsup(self):
        piece = self.mixed_piece()
        dual = piece.conjugate_pair()[1]
        y = np.array([1.3])
        u = dual.grad(y)[0]
        assert piece.grad(np.array([u]))[0] == pytest.approx(1.3, abs=1e-9)

    def test_biconjugation_returns_piece(self, rng):
        piece = self.mixed_piece()
        dual = piece.conjugate_pair()[1]
        back = dual.conjugate()
        x = rng.uniform(-2, 2, size=(20, 1))
        assert np.allclose(back.value(x), piece.value(x))

    def test_prox_via_moreau_decomposition(self):
        piece = self.mixed_piece()
        dual = piece.conjugate_pair()[1]
        x = np.array([1.1])
        step = 0.4
        u = dual.prox(x, step)
        stat = dual.grad(u) + (u - x) / step
        assert np.max(np.abs(stat)) < 1e-8

    def test_nested_sum_pieces(self, rng):
        # a joint quadratic plus a per-coordinate sum on p: the p piece is a
        # Sum holding a Sum, still coercive, so its conjugate is exact and smooth
        p_part = Sum([Quadratic([[0.5]]), PowerNorm(4.0, 0.1, dim=1)])
        fn = Sum([Quadratic(np.eye(2)), SeparableSum([p_part, Quadratic([[0.0]])])])
        prim, dual = fn.conjugate_pair()
        assert prim.smooth and dual.smooth
        assert isinstance(dual, ScalarConjugate) and dual.dim == 2
        x = rng.uniform(-3, 3, size=(50, 2))
        g = fn.grad(x)
        assert np.allclose(fn.value(x) + dual.value(g), np.sum(x * g, axis=1), atol=1e-9)
        assert np.allclose(dual.grad(g), x, atol=1e-9)

    def test_coupled_function_rejected(self):
        with pytest.raises(ValueError):
            ScalarConjugate(Quadratic([[1.0, 0.3], [0.3, 1.0]]))


class TestSeparableStructure:
    """The separable kinds' curvature and per-axis growth, which their root solves read."""

    @pytest.mark.parametrize("make", [
        lambda: Quadratic(np.diag([1.3, 0.0, 2.5]), [0.4, -1.0, 0.0], 0.2),
        lambda: PowerNorm(1.5, 0.3, dim=3),
        lambda: PowerNorm(4.0, 0.1, dim=3),
        lambda: affine([0.5, -2.0, 1.0], 0.3),
        lambda: Sum([Quadratic(np.diag([1.0, 0.0, 0.5])), PowerNorm(4.0, 0.1, dim=3),
                     affine([0.5, -2.0, 1.0])]),
        lambda: SeparableSum([Sum([Quadratic([[0.5]]), PowerNorm(4.0, 0.1)]),
                              SeparableSum([PowerNorm(1.5, 0.3), affine([1.0])]),
                              Quadratic([[2.0]], [0.1])]),
    ], ids=["quadratic", "power_1.5", "power_4", "affine", "sum", "nested_separable_sum"])
    def test_curvature_matches_central_differences(self, make, rng):
        f, h = make(), 1e-6
        # away from 0, where |x|^1.5 has unbounded curvature
        x = rng.choice([-1.0, 1.0], (40, f.dim)) * rng.uniform(0.5, 2.0, (40, f.dim))
        assert f.separable
        # each f_i' reads x_i alone, so one step in every coordinate differences them all
        fd = (f._grad(x + h) - f._grad(x - h)) / (2 * h)
        np.testing.assert_allclose(f._curvature(x), fd, rtol=1e-6, atol=1e-8)

    def test_coercive_axes_of_coordinatewise_growth(self):
        # q^2/2 from a singular joint quadratic, p^4/10 on p: no part is coercive
        # alone, each axis is, so the sum conjugates exactly by derivative inversion
        joint = Quadratic([[0.0, 0.0], [0.0, 1.0]])
        split = SeparableSum([PowerNorm(4.0, 0.1), Quadratic([[0.0]])])
        fn = Sum([joint, split])
        assert not joint.coercive and not split.coercive
        assert joint.coercive_axes.tolist() == [False, True]
        assert split.coercive_axes.tolist() == [True, False]
        assert fn.separable and fn.coercive_axes.tolist() == [True, True]
        assert isinstance(fn.conjugate_pair()[1], ScalarConjugate)

    def test_a_sum_lives_in_the_boxes_of_its_parts(self):
        # a separable sum's box is its blocks' side by side; a sum's is the overlap of
        # its parts' and the given one
        table = abs_grid(-1.0, 3.0, 41)
        split = SeparableSum([table, PowerNorm(4.0, 1.0, box=Box.cube(1, 5.0))])
        assert split.box.lo.tolist() == [-1.0, -5.0] and split.box.hi.tolist() == [3.0, 5.0]
        fn = Sum([Quadratic(np.eye(2)), split], box=Box.cube(2, 2.0))
        assert fn.box.lo.tolist() == [-1.0, -2.0] and fn.box.hi.tolist() == [2.0, 2.0]
        assert simplify_sum([Quadratic(np.eye(2)), split]).box.lo.tolist() == [-1.0, -5.0]
        with pytest.raises(DomainError):
            Sum([table, abs_grid(4.0, 5.0, 11)])


class TestPairCache:
    def test_conjugate_is_the_cached_pair_dual(self, monkeypatch):
        calls = []
        real = GridSampled.from_samples.__func__
        monkeypatch.setattr(GridSampled, "from_samples",
                            classmethod(lambda *a, **k: calls.append(1) or real(*a, **k)))
        f = Sum([Quadratic([[1.0, 0.3], [0.3, 1.0]]), PowerNorm(4.0, 0.1, dim=2)])
        prim, dual = f.conjugate_pair()
        assert f.conjugate() is dual
        assert isinstance(prim, GridSampled) and isinstance(dual, GridConjugate)
        assert dual.conjugate() is prim
        assert len(calls) == 1

    def test_separable_sum_pairs_part_by_part(self, rng):
        x = np.linspace(-2.0, 2.0, 401)
        tab = GridSampled(GridFn([-2.0], [2.0], np.abs(x) + 0.5 * x**2))
        quad = Quadratic([[2.0]], [0.3])
        f = SeparableSum([tab, quad])
        prim, dual = f.conjugate_pair()
        assert prim is f and tab.conjugate_pair()[0] is tab
        assert dual.parts[0] is tab.conjugate() and dual.parts[1] is quad.conjugate()
        y = rng.uniform(-2, 2, (20, 2))
        assert np.array_equal(dual.value(y), tab.conjugate().value(y[:, :1])
                              + quad.conjugate().value(y[:, 1:]))


    def test_grid_hamiltonian_reads_the_primal_of_its_pair(self, rng):
        # the hypothesis checks and energy_drift read H.value, the action certifies
        # H.pair(); off the nodes both must read the same function
        H = Hamiltonian(coupled_grid(), 1)
        x = H.fn.box.sample(rng, 200)
        assert np.array_equal(H.value(x), H.pair()[0].value(x))
        # between the nodes (0, 0) and (0.5, -0.5) the envelope is the true value 0
        assert H.value(np.array([0.25, -0.25])) == pytest.approx(0.0, abs=1e-12)


def convexity_violation(fn, rng, samples=200):
    """Worst violation of the convexity inequality on random box segments."""
    x = fn.box.sample(rng, samples)
    y = fn.box.sample(rng, samples)
    t = rng.uniform(0.0, 1.0, size=samples)[:, None]
    mid = t * x + (1 - t) * y
    lhs = fn.value(mid)
    rhs = t[:, 0] * fn.value(x) + (1 - t[:, 0]) * fn.value(y)
    return float(np.max(lhs - rhs))


class TestInvariants:
    def test_fenchel_young_inequality(self, rng):
        for f in catalog(rng) + [abs_grid()]:
            prim, dual = f.conjugate_pair()
            x = rng.uniform(-2, 2, size=(200, f.dim))
            ybound = 0.8 if isinstance(f, GridSampled) else 1.5
            y = rng.uniform(-ybound, ybound, size=(200, f.dim))
            gaps = prim.value(x) + dual.value(y) - np.sum(x * y, axis=1)
            floor = -1e-10 * (1.0 + np.abs(prim.value(x)) + np.abs(dual.value(y)))
            assert np.all(gaps >= floor)

    def test_convexity_on_samples(self, rng):
        for f in catalog(rng) + [abs_grid(), coupled_grid()]:
            assert convexity_violation(f, rng) <= 1e-10

    def test_moreau_envelope_below_function(self, rng):
        f = PowerNorm(4.0, 0.25, dim=1)
        env = MoreauEnvelope(f, 0.2)
        x = rng.uniform(-2, 2, size=(50, 1))
        assert np.all(env.value(x) <= f.value(x) + 1e-12)

    def test_simplify_sum_merges_quadratics(self):
        merged = simplify_sum([Quadratic(np.eye(2)), affine([1.0, 0.0], 2.0),
                               Quadratic(0.5 * np.eye(2))])
        assert isinstance(merged, Quadratic)
        x = np.array([0.7, -0.4])
        expect = 0.5 * x @ x + 0.25 * x @ x + x[0] + 2.0
        assert merged(x) == pytest.approx(expect)


@settings(max_examples=40, deadline=None)
@given(y=st.floats(-3, 3), x=st.floats(-3, 3))
def test_fenchel_young_hypothesis(x, y):
    f = PowerNorm(4.0, 0.25, dim=1)
    fs = f.conjugate()
    xv, yv = np.array([x]), np.array([y])
    assert f(xv) + fs(yv) - x * y >= -1e-10 * (1 + abs(f(xv)) + abs(fs(yv)))


class TestCsv:
    def test_roundtrip_1d(self, tmp_path):
        x = np.linspace(-2, 2, 101)
        path = tmp_path / "f.csv"
        with open(path, "w") as fh:
            for xi in x:
                fh.write(f"{xi:.17g},{xi * xi:.17g}\n")
        f = GridSampled.from_csv(path)
        assert f(np.array([0.5])) == pytest.approx(0.25, abs=1e-3)

    def test_roundtrip_2d(self, tmp_path):
        x = np.linspace(-1, 1, 21)
        y = np.linspace(-1, 1, 21)
        path = tmp_path / "f2.csv"
        with open(path, "w") as fh:
            fh.write("x," + ",".join(f"{v:.17g}" for v in y) + "\n")
            for xi in x:
                row = [f"{xi:.17g}"] + [f"{0.5 * (xi * xi + yj * yj):.17g}" for yj in y]
                fh.write(",".join(row) + "\n")
        f = GridSampled.from_csv(path)
        assert f.dim == 2
        assert f(np.array([0.5, -0.5])) == pytest.approx(0.25, abs=1e-2)

    def test_write_read_roundtrip(self, tmp_path, rng):
        for f in (abs_grid(n=101),
                  GridSampled(GridFn([-1, -1], [1, 1],
                                     rng.normal(size=(7, 9)).cumsum(axis=0)))):
            path = tmp_path / "g.csv"
            f.to_csv(path)
            g = GridSampled.from_csv(path)
            assert g.dim == f.dim
            assert np.allclose(g.grid.values, f.grid.values)
            assert np.allclose(g.grid.lo, f.grid.lo)

    def test_nonuniform_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("0,0\n0.1,1\n0.3,2\n0.4,3\n")
        with pytest.raises(ValueError):
            GridSampled.from_csv(path)

    def test_outside_support_raises(self):
        f = abs_grid()
        with pytest.raises(ValueError):
            f(np.array([5.0]))


class TestValueGrad:
    """One evaluation returns exactly what separate _value and _grad calls return."""

    def assert_fused(self, f, pts):
        v, g, _ = f._eval(pts)
        assert np.array_equal(v, f._value(pts))
        assert np.array_equal(g, f._grad(pts))

    def test_quadratic_default(self, rng):
        A = np.array([[1.0, 0.3], [0.3, 0.7]])
        self.assert_fused(Quadratic(A, [0.1, -0.2], 0.5), rng.uniform(-2, 2, (15, 2)))

    def test_scalar_conjugate(self, rng):
        dual = ScalarConjugate(Sum([Quadratic([[1.0]]), PowerNorm(4.0, 0.1, dim=1)]))
        self.assert_fused(dual, rng.uniform(-3, 3, (15, 1)))

    def test_separable_sum_of_scalar_conjugates(self, rng):
        dual = Sum([Quadratic(0.5 * np.eye(2)), PowerNorm(4.0, 0.1, dim=2)]).conjugate_pair()[1]
        assert isinstance(dual, ScalarConjugate) and dual.dim == 2
        self.assert_fused(dual, rng.uniform(-3, 3, (15, 2)))

    def test_sum(self, rng):
        f = Sum([Quadratic(0.5 * np.eye(2)), PowerNorm(4.0, 0.1, dim=2), affine([0.3, -0.1])])
        self.assert_fused(f, rng.uniform(-2, 2, (15, 2)))

    def test_moreau_envelope_of_2d_grid(self, rng):
        env = MoreauEnvelope(grid_hamiltonian().fn, 0.1)
        self.assert_fused(env, rng.uniform(-3, 3, (4, 2)))


class TestGridValueGrad:
    """Tabulated kinds return the convex envelope of their samples with the gradient of
    the facet that attains it."""

    def grid_1d(self):
        x = np.linspace(-2.0, 2.0, 41)
        return GridSampled(GridFn([-2.0], [2.0], np.abs(x - 0.3) + 0.2 * x**2))

    def interior(self, rng, f, m):
        # random points at least a thousandth of a cell away from every edge
        pts = f.box.sample(rng, 4 * m)
        keep = np.ones(len(pts), dtype=bool)
        for k in range(f.dim):
            nodes, h = f.grid.axis_nodes(k), f.grid.spacing(k)
            dist = np.min(np.abs(pts[:, k, None] - nodes[None, :]), axis=1)
            keep &= dist > 1e-3 * h
        return pts[keep][:m]

    def central_differences(self, f, pts, step=1e-6):
        g = np.empty_like(pts)
        for k in range(f.dim):
            e = np.zeros(f.dim)
            e[k] = step
            g[:, k] = (f._value(pts + e) - f._value(pts - e)) / (2 * step)
        return g

    def test_values_bitwise_1d(self, rng):
        f = self.grid_1d()
        pts = np.concatenate([f.box.sample(rng, 50), f.grid.axis_nodes(0)[:, None]])
        v, g, _ = f._eval(pts)
        assert np.array_equal(v, f._value(pts))
        assert np.allclose(v[50:], f.grid.values, rtol=0.0, atol=1e-12)
        assert g.shape == pts.shape

    def test_values_bitwise_2d(self, rng):
        f = grid_hamiltonian().fn
        X1, X2 = np.meshgrid(f.grid.axis_nodes(0), f.grid.axis_nodes(1), indexing="ij")
        nodes = np.column_stack([X1.ravel(), X2.ravel()])
        pts = np.concatenate([f.box.sample(rng, 50), nodes])
        v, g, _ = f._eval(pts)
        assert np.array_equal(v, f._value(pts))
        assert np.allclose(v[50:], f.grid.values.ravel(), rtol=0.0, atol=1e-12)
        assert g.shape == pts.shape

    @pytest.mark.parametrize("dim", [1, 2])
    def test_gradient_matches_central_differences(self, rng, dim):
        f = self.grid_1d() if dim == 1 else grid_hamiltonian().fn
        pts = self.interior(rng, f, 40)
        _, g, _ = f._eval(pts)
        assert np.max(np.abs(g - self.central_differences(f, pts))) < 1e-7

    def test_cell_gradient_of_tabulated_quadratic(self, rng):
        # for the separable (p^2 + q^2)/2 each cell-gradient component is the
        # cell's midpoint on that axis: (x_{i+1}^2 - x_i^2) / (2h) = x_i + h/2
        f = grid_hamiltonian().fn
        pts = self.interior(rng, f, 40)
        _, g, _ = f._eval(pts)
        for k in range(2):
            nodes, h = f.grid.axis_nodes(k), f.grid.spacing(k)
            i = np.clip(((pts[:, k] - nodes[0]) / h).astype(int), 0, nodes.size - 2)
            assert np.allclose(g[:, k], nodes[i] + 0.5 * h, atol=1e-12)

    def test_passes_through_sum(self, rng):
        grid = grid_hamiltonian().fn
        quad = Quadratic(np.array([[0.3, 0.1], [0.1, 0.2]]), [0.1, -0.2])
        f = Sum([quad, grid])
        pts = self.interior(rng, grid, 20)
        v, g, _ = f._eval(pts)
        vg, gg, _ = grid._eval(pts)
        assert np.array_equal(v, f._value(pts))
        assert np.array_equal(v, quad._value(pts) + vg)
        assert np.array_equal(g, quad._grad(pts) + gg)
        assert np.max(np.abs(g - self.central_differences(f, pts))) < 1e-7

    def test_passes_through_separable_sum(self, rng):
        a, b = self.grid_1d(), abs_grid(n=401)
        f = SeparableSum([a, b])
        pts = self.interior(rng, a, 20)
        pts = np.column_stack([pts[:, 0], rng.uniform(-1.9, 1.9, len(pts))])
        v, g, _ = f._eval(pts)
        assert np.array_equal(v, f._value(pts))
        assert np.array_equal(g[:, :1], a._eval(pts[:, :1])[1])
        assert np.array_equal(g[:, 1:], b._eval(pts[:, 1:])[1])
