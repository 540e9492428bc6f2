"""The tabulated Fenchel pair: the samples' convex envelope and the max over the nodes.

The two are exact conjugates, so their gap is nonnegative everywhere and
vanishes on the graph of the envelope's subdifferential; every inner solve
over them enumerates facets, pruned by a box that provably holds the
minimizer, and must agree with the enumeration of every facet.
"""

import numpy as np
import pytest

from hampath.convex import (
    GridConjugate,
    GridEnvelope,
    GridSampled,
    MoreauEnvelope,
    Quadratic,
    simplify_sum,
)
from hampath.legendre import GridFn
from hampath.polyhedral import facet_argmin
from hampath.regularize import _InfConvFn, infconv, quad_perturb

from conftest import grid_hamiltonian


def samples_1d():
    # convex with a kink, plus a bump that leaves some samples above the envelope
    x = np.linspace(-2.0, 2.0, 41)
    return GridSampled(GridFn([-2.0], [2.0], np.abs(x - 0.3) + 0.2 * x**2
                              + 0.05 * np.sin(6 * x)))


def samples_2d():
    # coupled and not separable, with a ridge and a bump: the envelope has
    # facets that are no cell halves
    x = np.linspace(-3.0, 3.0, 25)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    vals = (X1**2 + 0.5 * X2**2 + 0.3 * X1 * X2 + 0.4 * np.abs(X1 - X2)
            + 0.1 * np.cos(2 * X1))
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
        assert isinstance(P, GridEnvelope) and isinstance(D, GridConjugate)
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
        _, y = P._value_grad(x)
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
        f = grid_hamiltonian(41).fn
        P = f.conjugate_pair()[0]
        x = P.box.sample(rng, 200)
        # (p^2 + q^2)/2 is separable, so its cells are planar and the envelope is the
        # bilinear interpolant
        assert np.allclose(P.value(x), f.value(x), rtol=0, atol=1e-12)
        g = samples_2d()
        assert np.all(g.conjugate_pair()[0].value(x * 0.7) <= g.value(x * 0.7) + 1e-12)


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
    P, D = f.conjugate_pair()
    primal = simplify_sum([P, Quadratic(eps * np.eye(f.dim), box=P.box)])
    return _InfConvFn(primal, MoreauEnvelope(D, eps), lam, 4.0)


class TestEnumerationMatchesUnpruned:
    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("step", [0.05, 0.5])
    def test_dual_prox(self, case, step):
        P, D = CASES[case]().conjugate_pair()
        # u = (y - prox(y)) / step is the envelope's argmin at slope about y: inside the
        # box below the largest facet slope, on its boundary beyond it
        gmax = P.facets.grad_bound.max()
        y = rows(P.dim, 0.5 * gmax, gmax, 3.0 * gmax)
        got = D._prox(y, step)
        u = facet_argmin(P.facets, np.full(P.dim, step), -y, *full_box(P, y))
        assert np.array_equal(got, y - step * u)

    @pytest.mark.parametrize("case", list(CASES))
    def test_inf_convolution(self, case):
        fn = stage_fn(CASES[case]())
        env, a, b = fn.base_primal.envelope_form()
        edge = env.box.hi[0]
        x = rows(env.dim, 0.8 * edge, edge, 2.0 * edge)
        got = fn.minimizers(x)
        want = facet_argmin(env.facets, a, np.broadcast_to(b, x.shape), *full_box(env, x),
                            fn.power, x)
        assert np.array_equal(got, want)
        assert np.all(np.abs(got) <= edge)

    @pytest.mark.parametrize("case", list(CASES))
    def test_envelope_prox(self, case):
        P, _ = CASES[case]().conjugate_pair()
        edge = P.box.hi[0]
        x = rows(P.dim, 0.8 * edge, edge, 2.0 * edge)
        got = P.prox(x, 0.1)
        want = facet_argmin(P.facets, np.full(P.dim, 1.0 / 0.1), -x / 0.1, *full_box(P, x))
        assert np.array_equal(got, want)


class TestLocalOptimality:
    """An independent check: no point of a fine local grid does better."""

    def test_inf_convolution_rows(self, rng):
        fn = infconv(quad_perturb(grid_hamiltonian(41), 0.05), 0.3, 4.0).fn
        x = np.concatenate([rng.uniform(-3, 3, (4, 2)), [[4.0, 4.0], [6.0, 1.0]]])
        u = fn.minimizers(x)
        d = np.linspace(-0.05, 0.05, 101)
        D1, D2 = np.meshgrid(d, d, indexing="ij")
        for uk, xk in zip(u, x):
            cand = np.clip(uk + np.column_stack([D1.ravel(), D2.ravel()]), -4.0, 4.0)
            best = fn.base_primal.value(uk[None]) + fn.penalty(uk - xk)
            vals = fn.base_primal.value(cand) + fn.penalty(cand - xk)
            assert best[0] <= vals.min() + 1e-12 * (1.0 + abs(best[0]))


class TestGridSampledProx:
    def test_1d_matches_the_per_row_loop(self, rng):
        f = samples_1d()
        x, v = f.grid.axis_nodes(0), f.grid.values
        slopes = np.diff(v) / np.diff(x)
        pts = rng.uniform(-3, 3, (30, 1))
        want = np.empty_like(pts)
        for k, p in enumerate(pts[:, 0]):
            cand = np.clip(p - 0.2 * slopes, x[:-1], x[1:])
            vals = np.interp(cand, x, v) + (cand - p) ** 2 / (2 * 0.2)
            want[k, 0] = cand[np.argmin(vals)]
        assert np.array_equal(f._prox(pts, 0.2), want)

    def test_2d_beats_a_fine_local_grid(self, rng):
        f = samples_2d()
        step = 0.3
        x = np.concatenate([rng.uniform(-3.5, 3.5, (6, 2)), [[3.0, 3.0], [5.0, -1.0]]])
        u = f._prox(x, step)
        d = np.linspace(-0.05, 0.05, 101)
        D1, D2 = np.meshgrid(d, d, indexing="ij")
        for uk, xk in zip(u, x):
            cand = np.clip(uk + np.column_stack([D1.ravel(), D2.ravel()]), -3.0, 3.0)
            best = f.value(uk) + np.sum((uk - xk) ** 2) / (2 * step)
            vals = f.value(cand) + np.sum((cand - xk) ** 2, axis=1) / (2 * step)
            assert best <= vals.min() + 1e-12 * (1.0 + abs(best))


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


def test_building_the_pair_imports_no_scipy():
    # the facet table, which needs scipy.spatial in 2-D, is built on first use
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
    assert proc.stdout.strip() == "GridEnvelope []"
