"""The tabulated Fenchel pair: the samples' convex envelope and the max over the nodes.

The two are exact conjugates, so their gap is nonnegative everywhere and
vanishes on the graph of the envelope's subdifferential; every inner solve
over them enumerates facets, pruned by a box that provably holds the
minimizer, and must agree with the enumeration of every facet.
"""

import numpy as np
import pytest

from hampath.convex import (
    EnvelopeConjugate,
    GridConjugate,
    GridSampled,
    PowerNorm,
    Quadratic,
    SeparableSum,
    Sum,
    affine,
    simplify_sum,
    squared_norm,
)
from hampath.legendre import GridFn
from hampath.polyhedral import MidpointStep, _affine, facet_argmin, midpoint_march
from hampath.regularize import EpsPerturbed, InfConvolved, _InfConvFn

from conftest import grid_hamiltonian


def samples_1d():
    # convex with a kink, plus a bump that leaves some samples above the envelope
    x = np.linspace(-2.0, 2.0, 41)
    return GridSampled(GridFn([-2.0], [2.0], np.abs(x - 0.3) + 0.2 * x**2
                              + 0.05 * np.sin(6 * x)))


def samples_2d():
    # coupled and not separable, with a ridge and non-convex bumps along X1 (the cos
    # term's curvature outweighs the quadratic's): the envelope has facets that are no
    # cell halves, and about a quarter of the samples lie above it
    x = np.linspace(-3.0, 3.0, 25)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    vals = (X1**2 + 0.5 * X2**2 + 0.3 * X1 * X2 + 0.4 * np.abs(X1 - X2)
            + 0.8 * np.cos(2 * X1))
    return GridSampled(GridFn([-3.0, -3.0], [3.0, 3.0], vals))


CASES = {"1d": samples_1d, "2d": samples_2d, "2d_quadratic": lambda: grid_hamiltonian(41).fn}


def gap(P, D, x, y):
    fx, fy = P.value(x), D.value(y)
    return fx + fy - np.sum(x * y, axis=1), 1.0 + np.abs(fx) + np.abs(fy)


@pytest.fixture(params=list(CASES))
def pair(request):
    return CASES[request.param]().conjugate_pair()


class TestExactPair:
    def test_kinds(self, pair):
        P, D = pair
        assert isinstance(P, GridSampled) and isinstance(D, GridConjugate)
        assert D.conjugate() is P and P.conjugate() is D

    def test_gap_nonnegative(self, pair, rng):
        P, D = pair
        x = P.box.sample(rng, 1000)
        y = rng.uniform(-1.5, 1.5, (1000, P.dim)) * np.maximum(np.abs(D.box.lo),
                                                               np.abs(D.box.hi))
        g, scale = gap(P, D, x, y)
        assert np.all(g >= -1e-12 * scale)

    def test_gap_vanishes_at_the_facet_gradient(self, pair, rng):
        P, D = pair
        fac = P.facets
        t = rng.integers(0, fac.offset.size, 200)
        w = rng.dirichlet(np.ones(P.dim + 1), 200)
        w = 0.05 + 0.9 * w  # strictly inside the facet
        w /= w.sum(axis=1, keepdims=True)
        x = np.einsum("kv,kvd->kd", w, fac.verts[t])
        _, y, _ = P._eval(x)
        g, scale = gap(P, D, x, y)
        assert np.all(np.abs(g) <= 1e-12 * scale)

    def test_dual_is_the_brute_force_max_over_nodes(self, pair, rng):
        P, D = pair
        grid = P.grid
        axes = [grid.axis_nodes(k) for k in range(grid.d)]
        nodes = [tuple(float(a[i]) for a, i in zip(axes, idx)) + (float(grid.values[idx]),)
                 for idx in np.ndindex(grid.values.shape)]
        y = rng.uniform(-4, 4, (20, P.dim))
        want = []
        for row in y:
            best = -np.inf
            for node in nodes:
                score = float(row[0]) * node[0]
                for i in range(1, P.dim):
                    score = score + float(row[i]) * node[i]
                best = max(best, score - node[-1])
            want.append(best)
        assert np.array_equal(D.value(y), np.array(want))

    def test_envelope_is_below_the_samples_and_exact_on_convex_ones(self, rng):
        P = grid_hamiltonian(41).fn.conjugate_pair()[0]
        x = P.box.sample(rng, 200)
        # (p^2 + q^2)/2 is separable, so its cells are planar and the envelope is the
        # sum of the piecewise linear interpolants of p^2/2 and q^2/2
        nodes = P.grid.axis_nodes(0)
        want = sum(np.interp(x[:, k], nodes, 0.5 * nodes**2) for k in range(2))
        assert np.allclose(P.value(x), want, rtol=0, atol=1e-12)
        for g in (samples_1d(), samples_2d()):
            X = np.meshgrid(*(g.grid.axis_nodes(k) for k in range(g.dim)), indexing="ij")
            at_nodes = g.conjugate_pair()[0].value(np.column_stack([c.ravel() for c in X]))
            assert np.all(at_nodes <= g.grid.values.ravel() + 1e-12)
        # the bumps of the 1-D and 2-D samples leave some of them above the envelope
        g = samples_1d()
        assert np.any(g.value(g.grid.axis_nodes(0)[:, None]) < g.grid.values - 1e-6)
        g = samples_2d()
        X = np.meshgrid(*(g.grid.axis_nodes(k) for k in range(2)), indexing="ij")
        above = g.grid.values.ravel() - g.value(np.column_stack([c.ravel() for c in X]))
        assert np.mean(above > 1e-6) > 0.1


def rows(dim, inside, edge, beyond):
    """Rows inside the box [-edge, edge]^dim, on its boundary and beyond it."""
    rng = np.random.default_rng(7)
    out = [rng.uniform(-inside, inside, (6, dim)),
           np.full((1, dim), edge), np.full((1, dim), -edge),
           rng.uniform(edge, beyond, (3, dim)) * rng.choice([-1.0, 1.0], (3, dim))]
    if dim == 2:
        out.append(np.array([[edge, 0.3], [-0.5, -edge]]))
    return np.concatenate(out)


def full_box(env, pts):
    return np.broadcast_to(env.box.lo, pts.shape), np.broadcast_to(env.box.hi, pts.shape)


def stage_fn(f, eps=0.05, lam=0.3):
    """The inf-convolution primal of the eps stage, as ``InfConvolved(EpsPerturbed(.))``
    builds it for a grid-backed H, for tabulated data of any dimension."""
    P = f.conjugate_pair()[0]
    primal = simplify_sum([P, Quadratic(eps * np.eye(f.dim), box=P.box)])
    return _InfConvFn(primal, primal.conjugate(), lam, 4.0)


class TestEnumerationMatchesUnpruned:
    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("step", [0.05, 0.5])
    def test_envelope_conjugate(self, case, step):
        P = CASES[case]().conjugate_pair()[0]
        D = simplify_sum([P, Quadratic(step * np.eye(P.dim), box=P.box)]).conjugate()
        assert isinstance(D, EnvelopeConjugate)
        # the gradient u is the envelope's argmin at slope about y: inside the box below
        # the largest facet slope, on its boundary beyond it
        gmax = P.facets.grad_bound.max()
        y = rows(P.dim, 0.5 * gmax, gmax, 3.0 * gmax)
        u = facet_argmin(P.facets, np.full(P.dim, step), -y, *full_box(P, y))
        assert np.array_equal(D._eval(y)[1], u)

    @pytest.mark.parametrize("case", list(CASES))
    def test_inf_convolution(self, case):
        fn = stage_fn(CASES[case]())
        env, a, b, _ = fn.base_primal.envelope_form()
        edge = env.box.hi[0]
        x = rows(env.dim, 0.8 * edge, edge, 2.0 * edge)
        got = fn.minimizers(x)
        want = facet_argmin(env.facets, a, np.broadcast_to(b, x.shape), *full_box(env, x),
                            fn.power, x)
        assert np.array_equal(got, want)
        assert np.all(np.abs(got) <= edge)


class TestLocalOptimality:
    """An independent check: no point of a fine local grid does better."""

    def test_inf_convolution_rows(self, rng):
        fn = InfConvolved(EpsPerturbed(grid_hamiltonian(41), 0.05), 0.3, 4.0).fn
        x = np.concatenate([rng.uniform(-3, 3, (4, 2)), [[4.0, 4.0], [6.0, 1.0]]])
        u = fn.minimizers(x)
        d = np.linspace(-0.05, 0.05, 101)
        D1, D2 = np.meshgrid(d, d, indexing="ij")
        for uk, xk in zip(u, x):
            cand = np.clip(uk + np.column_stack([D1.ravel(), D2.ravel()]), -4.0, 4.0)
            best = fn.base_primal.value(uk[None]) + fn.penalty(uk - xk)
            vals = fn.base_primal.value(cand) + fn.penalty(cand - xk)
            assert best[0] <= vals.min() + 1e-12 * (1.0 + abs(best[0]))


class TestEnvelopeConjugateArgmin:
    @pytest.mark.parametrize("case", ["1d", "2d"])
    def test_beats_a_fine_local_grid(self, rng, case):
        f = CASES[case]()
        step = 0.3
        # the gradient of (f + |.|^2 / (2 step))* at x / step minimizes
        # f(u) + |u - x|^2 / (2 step), for rows x inside, on and beyond the box
        dual = Sum([f, Quadratic(np.eye(f.dim) / step)]).conjugate()
        edge = f.box.hi[0]
        x = (edge / 3.0) * np.concatenate([rng.uniform(-3.5, 3.5, (6, f.dim)),
                                           np.array([[3.0, 3.0], [5.0, -1.0]])[:, :f.dim]])
        u = dual.grad(x / step)
        d = np.linspace(-0.05, 0.05, 101)
        offsets = np.column_stack([a.ravel() for a in np.meshgrid(*[d] * f.dim, indexing="ij")])
        for uk, xk in zip(u, x):
            cand = np.clip(uk + offsets, f.box.lo, f.box.hi)
            best = f.value(uk) + np.sum((uk - xk) ** 2) / (2 * step)
            vals = f.value(cand) + np.sum((cand - xk) ** 2, axis=1) / (2 * step)
            assert best <= vals.min() + 1e-12 * (1.0 + abs(best))


class TestJointTableAndQuadratic:
    """A table plus a quadratic of positive diagonal curvature pairs with its exact
    conjugate, read off the table itself."""

    JOINT = {
        "2d": lambda: Sum([grid_hamiltonian().fn, Quadratic(np.diag([0.3, 0.2]))]),
        "1d": lambda: Sum([samples_1d(), Quadratic([[0.2]])]),
        # a shifted quadratic and an offset: the conjugate carries their constants
        "shifted": lambda: Sum([grid_hamiltonian().fn, squared_norm(2, 0.1, [1.0, -0.5]),
                                affine([0.3, 0.0], 2.5)]),
    }

    def joint(self):
        return self.JOINT["2d"]()

    def test_pairs_without_resampling(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("resampled the sum")
        monkeypatch.setattr(GridSampled, "from_samples", refuse)
        P, D = self.joint().conjugate_pair()
        assert isinstance(D, EnvelopeConjugate)
        assert D.conjugate() is P

    @pytest.mark.parametrize("case", list(JOINT))
    def test_fenchel_young_gap(self, rng, case):
        P, D = self.JOINT[case]().conjugate_pair()
        assert isinstance(D, EnvelopeConjugate)
        x = P.box.sample(rng, 200)
        y = rng.uniform(-1.5, 1.5, (200, P.dim)) * np.maximum(np.abs(D.box.lo),
                                                              np.abs(D.box.hi))
        g, scale = gap(P, D, x, y)
        assert np.all(g >= -1e-12 * scale)
        # zero at x = grad f*(y), where y is a subgradient of f
        u = D.grad(y)
        g, scale = gap(P, D, u, y)
        assert np.all(np.abs(g) <= 1e-12 * scale)

    def test_matches_a_brute_force_max(self, rng):
        P, D = self.joint().conjugate_pair()
        s = np.linspace(-4.0, 4.0, 401)
        U = np.column_stack([c.ravel() for c in np.meshgrid(s, s, indexing="ij")])
        F = P.value(U)
        y = rng.uniform(-5.0, 5.0, (10, 2))
        brute = np.max(y @ U.T - F[None], axis=1)
        want = D.value(y)
        # the grid's maximum is a lower bound; its nearest node to the maximizer is at most
        # h / sqrt(2) away, where y . u - f(u) drops by at most its slope bound times that
        h = s[1] - s[0]
        slope = np.abs(y).sum(axis=1) + np.sum(D.envelope.facets.grad_bound + 4.0 * D.a)
        assert np.all(brute <= want + 1e-12 * (1.0 + np.abs(want)))
        assert np.all(want - brute <= slope * h / np.sqrt(2.0))


class TestSubgradient:
    def test_unique_inside_a_cell_and_least_norm_at_a_node(self):
        f = grid_hamiltonian(41).fn  # planar cells of width 0.2
        res = f.subgradient(np.array([0.53, -1.27]))
        assert res.is_unique
        assert np.allclose(res.value, [0.5, -1.3], atol=1e-12)  # the cell midpoint
        res = f.subgradient(np.array([0.0, 0.0]))
        assert not res.is_unique
        assert np.allclose(res.value, 0.0, atol=1e-12)
        res = f.subgradient(np.array([0.6, 1.0]))  # a node off the origin
        assert not res.is_unique
        assert np.allclose(res.value, [0.5, 0.9], atol=1e-12)


def old_subgradient(f, x):
    """The per-row subgradient as it was before rows were batched: the reference."""
    x = np.clip(np.asarray(x, dtype=float).reshape(1, f.dim), f.box.lo, f.box.hi)
    planes = _affine(x, f.facets.grad, f.facets.offset)[0]
    top = planes.max()
    P = f.facets.grad[planes >= top - 1e-12 * (1.0 + abs(top))]
    spread = float(np.max(P.max(axis=0) - P.min(axis=0)))
    unique = spread <= 1e-9 * (1.0 + float(np.abs(P).max()))
    i, j = np.triu_indices(P.shape[0], 1)
    A, E = P[i], P[j] - P[i]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(-np.sum(A * E, axis=1) / np.sum(E * E, axis=1), 0.0, 1.0)
    cand = np.concatenate([P, A + np.nan_to_num(t)[:, None] * E])
    best = cand[np.argmin(np.sum(cand * cand, axis=1))]
    if P.shape[1] == 2 and np.any(best):
        ang = np.sort(np.arctan2(P[:, 1], P[:, 0]))
        gaps = np.diff(np.concatenate([ang, ang[:1] + 2 * np.pi]))
        if gaps.max() < np.pi:
            return np.zeros(2), unique
    return best, unique


class TestBatchedSubgradients:
    @pytest.mark.parametrize("case", list(CASES) + ["kinked"])
    def test_rows_match_the_per_row_reference_bitwise(self, case, rng):
        f = kinked(lambda X, Y: np.abs(X) + 0.5 * Y**2) if case == "kinked" else CASES[case]()
        nodes = np.meshgrid(*(f.grid.axis_nodes(k) for k in range(f.dim)), indexing="ij")
        nodes = np.column_stack([c.ravel() for c in nodes])
        # random points, grid nodes (kinks: several facets active) and, in 2-D, the p = 0
        # kink line of the kinked data
        x = np.concatenate([f.box.sample(rng, 300), nodes[::7]])
        if f.dim == 2:
            x = np.concatenate([x, np.column_stack([np.zeros(20), rng.uniform(-1, 1, 20)])])
        vals, unique = f._subgradients(x)
        for k in range(x.shape[0]):
            want, want_unique = old_subgradient(f, x[k])
            assert vals[k].tobytes() == want.tobytes() and unique[k] == want_unique
            got = f.subgradient(x[k])
            assert got.value.tobytes() == want.tobytes() and got.is_unique == want_unique
        assert np.any(unique) and not np.all(unique)

    def test_inclusion_residuals_match_the_per_row_loop(self):
        from hampath.action import Cauchy, pairing
        from hampath.certify import _subgradient_inclusions
        from hampath.convex import Hamiltonian
        from hampath.grid import PathGrid

        f = kinked(lambda X, Y: np.abs(X) + 0.5 * Y**2)
        t = np.linspace(0.0, 2.0, 41)
        p = 0.6 * np.cos(3 * t) - 0.02
        p[1::5] = -p[::5][:8]  # every fifth interval has its midpoint on the kink p = 0
        g = PathGrid(2.0, p, 0.7 * np.sin(2 * t))
        got = _subgradient_inclusions(Hamiltonian(f, 1), Cauchy([p[0]], [0.0]), g)
        _, x, y = pairing(g)
        want = []
        for xk, yk in zip(x, y):
            v, unique = old_subgradient(f, xk)
            want.append(np.sqrt(np.sum((yk - v) ** 2)) if unique else np.nan)
        assert np.array(want).tobytes() == got.tobytes()
        assert np.all(np.isnan(got[::5])) and not np.any(np.isnan(got[1::5]))


def old_sum_subgradient(f, x):
    """A sum's subgradient at one point as the per-point code computed it, part by part:
    the reference."""
    x = np.asarray(x, dtype=float).reshape(f.dim)
    if isinstance(f, GridSampled):
        return old_subgradient(f, x)
    if isinstance(f, SeparableSum):
        vals, uniq = [], True
        for p, sl in zip(f.parts, f.slices):
            v, u = old_sum_subgradient(p, x[sl])
            vals.append(np.atleast_1d(v))
            uniq = uniq and u
        return np.concatenate(vals), uniq
    if isinstance(f, Sum):
        total, uniq = np.zeros(f.dim), True
        for p in f.parts:
            v, u = old_sum_subgradient(p, x)
            total += v
            uniq = uniq and u
        return total, uniq
    return f.grad(x), True


def abs_1d(n=81):
    """Tabulated |x| on [-2, 2]: one kink, at 0."""
    x = np.linspace(-2.0, 2.0, n)
    return GridSampled(GridFn([-2.0], [2.0], np.abs(x)))


SUM_CASES = {
    "grid_on_p": lambda: SeparableSum([abs_1d(), Quadratic(np.eye(1))]),
    "grid_on_q": lambda: SeparableSum([PowerNorm(4.0, 0.1), abs_1d()]),
    "grid_plus_power_on_p": lambda: SeparableSum([Sum([abs_1d(), PowerNorm(4.0, 0.1)]),
                                                  Quadratic(np.eye(1))]),
    "grid_2d_plus_quadratic": lambda: Sum([kinked(lambda X, Y: np.abs(X) + 0.5 * Y**2),
                                           Quadratic(np.diag([0.5, 0.25]))]),
}


class TestSumSubgradients:
    @pytest.mark.parametrize("case", list(SUM_CASES))
    def test_rows_match_the_per_point_reference_bitwise(self, case, rng):
        f = SUM_CASES[case]()
        # random rows, and rows whose tabulated coordinates sit on the kink at 0
        x = f.box.sample(rng, 200)
        kinks = f.box.sample(rng, 40)
        kinks[:, 0 if case != "grid_on_q" else 1] = 0.0
        x = np.concatenate([x, kinks])
        vals, unique = f._subgradients(x)
        for k in range(x.shape[0]):
            want, want_unique = old_sum_subgradient(f, x[k])
            assert vals[k].tobytes() == want.tobytes() and unique[k] == want_unique
            got = f.subgradient(x[k])
            assert got.value.tobytes() == want.tobytes() and got.is_unique == want_unique
        assert np.all(unique[:200]) and not np.any(unique[200:])

    def test_smooth_kinds_answer_with_the_gradient(self, rng):
        f = SeparableSum([PowerNorm(4.0, 0.1), Quadratic(np.eye(1))])
        x = f.box.sample(rng, 20)
        vals, unique = f._subgradients(x)
        assert vals.tobytes() == f._grad(x).tobytes() and np.all(unique)

    def test_a_nonsmooth_kind_without_the_hook_raises(self):
        dual = abs_1d().conjugate()
        assert isinstance(dual, GridConjugate)
        with pytest.raises(NotImplementedError):
            dual.subgradient(np.array([0.5]))
        with pytest.raises(NotImplementedError):
            SeparableSum([Quadratic(np.eye(1)), dual])._subgradients(np.zeros((3, 2)))


def kinked(fn, half=2.0, n=21):
    """Tabulated fn(p, q) on an n x n grid over [-half, half]^2."""
    x = np.linspace(-half, half, n)
    X, Y = np.meshgrid(x, x, indexing="ij")
    return GridSampled(GridFn([-half, -half], [half, half], fn(X, Y)))


def inclusion_gaps(form, nodes, h):
    """Per interval, env(x) + env*(s) - x.s for the slope s = y - a x - b that the step
    needs at the midpoint x (zero exactly when s is a subgradient there), and its scale."""
    env, a, b, _ = form
    P, D = env.conjugate_pair()
    x = 0.5 * (nodes[1:] + nodes[:-1])
    dz = (nodes[1:] - nodes[:-1]) / h
    s = np.column_stack([-dz[:, 1], dz[:, 0]]) - a * x - b
    fx, fs, xs = P.value(x), D.value(s), np.sum(x * s, axis=1)
    return fx + fs - xs, 1.0 + np.abs(fx) + np.abs(fs) + np.abs(xs)


MARCHES = {
    # the equilibrium of |p| + q^2/2: no facet-interior candidate lies on its facet, and
    # every midpoint is the vertex at the origin
    "equilibrium": (lambda X, Y: np.abs(X) + 0.5 * Y**2, (0.0, 0.0), (0.0, 0.0), 4.0,
                    {"facet": 0, "vertex": 40}),
    # the path crosses the kink p = 0 twice, each time with a vertex as the midpoint
    "vertex": (lambda X, Y: np.abs(X) + 0.5 * Y**2, (0.0, 0.0), (0.5, 0.3), 4.0,
               {"facet": 38, "vertex": 2}),
    # with a quadratic part the edge systems are regular, and one midpoint lies inside a
    # kink edge
    "edge": (lambda X, Y: np.abs(X) + np.abs(Y), (1.0, 1.0), (0.3, -0.2), 2.0,
             {"facet": 39, "edge": 1}),
    # an orbit larger than the box runs along its faces
    "box_face": (lambda X, Y: np.abs(X) + np.abs(Y), (1.0, 1.0), (1.5, 1.5), 2.0,
                 {"facet": 5, "vertex": 22, "box_face": 13}),
}


class TestMidpointMarch:
    @pytest.mark.parametrize("case", list(MARCHES))
    def test_every_step_solves_the_inclusion(self, monkeypatch, case):
        fn, a, z0, T, branches = MARCHES[case]
        form = (kinked(fn), np.array(a), np.zeros(2), 0.0)
        hits = {"facet": 0, "edge": 0, "vertex": 0, "box_face": 0}
        facet, edge, vertex = MidpointStep.facet, MidpointStep.edge, MidpointStep.vertex

        def counted(name, fn):
            def run(*args):
                x = fn(*args)
                hits[name] += x is not None
                return x
            return run
        monkeypatch.setattr(MidpointStep, "facet", counted("facet", facet))
        monkeypatch.setattr(MidpointStep, "vertex", counted("vertex", vertex))
        monkeypatch.setattr(MidpointStep, "edge", staticmethod(
            lambda system, cap, w: counted("edge" if cap == 1.0 else "box_face", edge)(
                system, cap, w)))
        nodes = midpoint_march(form, np.array(z0), T / 40, 40)
        assert hits == {**dict.fromkeys(hits, 0), **branches}
        gap, scale = inclusion_gaps(form, nodes, T / 40)
        assert np.all(np.abs(gap) <= 1e-12 * scale)

    @pytest.mark.parametrize("case", list(MARCHES))
    def test_reruns_are_bitwise_equal(self, case):
        fn, a, z0, T, _ = MARCHES[case]
        runs = [midpoint_march((kinked(fn), np.array(a), np.zeros(2), 0.0), np.array(z0),
                               T / 40, 40)
                for _ in range(2)]
        assert runs[0].tobytes() == runs[1].tobytes()

    def test_the_quadratic_table_is_marched_inside_its_facets(self, monkeypatch):
        f = grid_hamiltonian(41).fn
        monkeypatch.setattr(MidpointStep, "vertex", lambda self, w: pytest.fail("vertex"))
        nodes = midpoint_march(f.envelope_form(), np.array([0.5, 0.0]), 0.05, 10)
        gap, scale = inclusion_gaps(f.envelope_form(), nodes, 0.05)
        assert np.all(np.abs(gap) <= 1e-12 * scale)


def test_building_the_pair_imports_no_scipy():
    # the facet table, which needs scipy.spatial for a table that is not strictly kinked,
    # is built on first use
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    code = (
        "import sys\n"
        "from hampath.config import load_config\n"
        f"spec = load_config({str(root / 'configs' / 'grid_cauchy.yaml')!r}).spec\n"
        "primal, dual = spec.hamiltonian.pair()\n"
        "print(type(primal).__name__, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "GridSampled []"


def test_solving_the_grid_cauchy_config_imports_no_scipy(tmp_path):
    # every grid edge of its table is a strict kink, so its facets are the grid's
    # half-cells and qhull is never needed
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    code = (
        "import contextlib, io, sys\n"
        "from hampath.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['solve', {str(root / 'configs' / 'grid_cauchy.yaml')!r},\n"
        f"                 '--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"
    assert "status: Converged" in (tmp_path / "report.txt").read_text()
