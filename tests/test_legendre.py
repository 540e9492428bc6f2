from pathlib import Path

import numpy as np
import pytest
import scipy.spatial

from hampath.convex import GridSampled
from hampath.legendre import (
    DualBoxError,
    GridFn,
    convexity_defect,
    discrete_conjugate,
    lower_facets,
    slope_range,
)

from oracles import brute_conjugate_1d, qhull_lower_facets

CONFIG_DIR = Path(__file__).parent.parent / "configs"


def sample_1d(fn, lo, hi, n):
    x = np.linspace(lo, hi, n)
    return GridFn([lo], [hi], fn(x))


def eval_grid(g: GridFn, y: float) -> float:
    x = g.axis_nodes(0)
    return float(np.interp(y, x, g.values))


class TestConjugate1D:
    def test_half_square_self_conjugate(self):
        f = sample_1d(lambda x: 0.5 * x * x, -4, 4, 401)
        g = discrete_conjugate(f)
        assert eval_grid(g, 1.0) == pytest.approx(0.5, abs=1e-4)

    def test_abs_flat_conjugate(self):
        f = sample_1d(np.abs, -2, 2, 801)
        g = discrete_conjugate(f)
        assert eval_grid(g, 0.5) == pytest.approx(0.0, abs=1e-9)
        y = g.axis_nodes(0)
        inside = np.abs(y) <= 0.9
        assert np.max(np.abs(g.values[inside])) < 1e-9

    def test_quartic_holder_value(self):
        f = sample_1d(lambda x: 0.25 * x**4, -3, 3, 2001)
        g = discrete_conjugate(f)
        expect = 0.75 * 2.0 ** (4.0 / 3.0)
        assert eval_grid(g, 2.0) == pytest.approx(expect, abs=1e-3)

    def test_hull_matches_brute_force(self):
        f = sample_1d(np.exp, -5, 5, 2001)
        hull = discrete_conjugate(f)
        brute = discrete_conjugate(f, hull.lo, hull.hi, hull.counts, method="brute")
        assert np.max(np.abs(hull.values - brute.values)) < 1e-12

    def test_matches_independent_brute_oracle(self):
        n = 6001
        f = sample_1d(np.exp, -5, 5, n)
        g = discrete_conjugate(f)
        x = f.axis_nodes(0)
        for y in (0.5, 1.0, 2.0):
            oracle = float(np.max(x * y - f.values))
            k = np.argmin(np.abs(g.axis_nodes(0) - y))
            ynode = g.axis_nodes(0)[k]
            oracle_node = float(np.max(x * ynode - f.values))
            assert g.values[k] == pytest.approx(oracle_node, abs=1e-12)
            assert eval_grid(g, y) == pytest.approx(oracle, abs=1e-3)

    def test_exponential_closed_form(self):
        f = sample_1d(np.exp, -5, 5, 6001)
        g = discrete_conjugate(f)
        for y in (0.5, 1.0, 2.0):
            assert eval_grid(g, y) == pytest.approx(y * np.log(y) - y, abs=1e-4)
            assert brute_conjugate_1d(np.exp, y, -5, 5) == pytest.approx(
                y * np.log(y) - y, abs=1e-4)


class TestConjugate2D:
    def test_separable_square(self):
        x = np.linspace(-3, 3, 121)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        f = GridFn([-3, -3], [3, 3], 0.5 * (X1**2 + X2**2))
        g = discrete_conjugate(f)
        y1 = g.axis_nodes(0)
        i = np.argmin(np.abs(y1 - 1.0))
        j = np.argmin(np.abs(g.axis_nodes(1) - 0.5))
        expect = 0.5 * (y1[i] ** 2 + g.axis_nodes(1)[j] ** 2)
        assert g.values[i, j] == pytest.approx(expect, abs=1e-3)

    def test_matches_brute_2d(self):
        # cross terms shrink the attainable gradient range, so the dual box
        # is passed explicitly
        x = np.linspace(-2, 2, 41)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        vals = 0.5 * X1**2 + 0.25 * X2**4 + 0.1 * X1 * X2
        f = GridFn([-2, -2], [2, 2], vals)
        g = discrete_conjugate(f, [-1.5, -6.0], [1.5, 6.0], (41, 41))
        Y1, Y2 = np.meshgrid(g.axis_nodes(0), g.axis_nodes(1), indexing="ij")
        brute = np.max(
            Y1[..., None, None] * X1[None, None] + Y2[..., None, None] * X2[None, None]
            - vals[None, None], axis=(2, 3))
        assert np.max(np.abs(g.values - brute)) < 1e-12

    @pytest.mark.parametrize("a, c, rounded", [((0.7, -0.3), 0.4, True),
                                               ((0.5, 0.0), 0.5, False)])
    def test_affine_table_pads_its_dual_box(self, a, c, rounded):
        """An affine table's node slopes differ by rounding (0.7 x1 - 0.3 x2 + 0.4) or
        not at all (0.5 x1 + 0.5); either way the dual box is padded around the
        slope, where the conjugate is -c."""
        f = sample_2d(lambda x1, x2: a[0] * x1 + a[1] * x2 + c, (-2.0, -1.0), (2.0, 3.0),
                      (5, 7))
        widths = [hi - lo for lo, hi in (slope_range(f, axis) for axis in (0, 1))]
        assert (max(widths) > 0) == rounded
        conj = GridSampled(f).conjugate()
        assert np.all(conj.box.lo < a) and np.all(np.array(a) < conj.box.hi)
        assert conj.value(np.array(a)) == pytest.approx(-c, abs=1e-12)


class TestDefect:
    def test_convex_square_zero(self):
        f = sample_1d(lambda x: 0.5 * x * x, -2, 2, 101)
        assert convexity_defect(f) <= 1e-12

    def test_concave_square_half(self):
        f = sample_1d(lambda x: -0.5 * x * x, -1, 1, 11)
        assert convexity_defect(f) == pytest.approx(0.5, abs=1e-12)

    def test_abs_zero(self):
        f = sample_1d(np.abs, -2, 2, 101)
        assert convexity_defect(f) <= 1e-12

    def test_2d_convex_zero(self):
        x = np.linspace(-1, 1, 31)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        f = GridFn([-1, -1], [1, 1], X1**2 + 0.5 * X2**2 + 0.2 * X1 * X2)
        assert convexity_defect(f) <= 1e-10

    def test_2d_saddle_positive(self):
        x = np.linspace(-1, 1, 21)
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        f = GridFn([-1, -1], [1, 1], X1**2 - X2**2)
        assert convexity_defect(f) > 0.5

    def test_nonconvex_input_warns(self):
        f = sample_1d(lambda x: 0.5 * x * x + 0.05 * np.sin(8 * x), -2, 2, 201)
        assert convexity_defect(f) > 1e-4
        with pytest.warns(UserWarning):
            discrete_conjugate(f)


class TestProperties:
    def test_involution_on_convex_data(self):
        f = sample_1d(lambda x: 0.5 * x * x, -4, 4, 801)
        g = discrete_conjugate(f)
        ff = discrete_conjugate(g, f.lo, f.hi, f.counts, boundary_frac=1.0)
        x = f.axis_nodes(0)
        interior = np.abs(x) <= 2.0
        modulus = np.max(np.abs(np.diff(f.values)))
        assert np.max(np.abs(ff.values[interior] - f.values[interior])) <= 2 * modulus

    def test_monotone_refinement(self):
        errs = []
        for n in (201, 401, 801, 1601):
            f = sample_1d(lambda x: 0.25 * x**4, -3, 3, n)
            g = discrete_conjugate(f, [-20.0], [20.0], (n,))
            y = g.axis_nodes(0)
            closed = 0.75 * np.abs(y) ** (4.0 / 3.0)
            errs.append(np.max(np.abs(g.values - closed)))
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))

    def test_output_always_convex(self):
        rng = np.random.default_rng(7)
        vals = rng.normal(size=201).cumsum()
        f = GridFn([-1], [1], vals)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            g = discrete_conjugate(f, boundary_frac=1.0)
        assert convexity_defect(g) <= 1e-12 * (1 + np.abs(g.values).max())

    def test_slope_range(self):
        f = sample_1d(lambda x: 0.5 * x * x, -4, 4, 401)
        lo, hi = slope_range(f)
        assert lo == pytest.approx(-4.0, abs=0.02)
        assert hi == pytest.approx(4.0, abs=0.02)

    def test_dual_box_too_large_raises(self):
        f = sample_1d(lambda x: 0.5 * x * x, -1, 1, 101)
        with pytest.raises(DualBoxError) as err:
            discrete_conjugate(f, [-5.0], [5.0], (101,))
        assert err.value.fraction > 0.05

    def test_default_dual_box_never_raises(self):
        for fn in (np.abs, np.exp, lambda x: 0.5 * x * x):
            f = sample_1d(fn, -3, 3, 401)
            discrete_conjugate(f)


class TestValidation:
    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            GridFn([0], [1], np.array([1.0, 2.0]))

    def test_nonfinite_values(self):
        with pytest.raises(ValueError):
            GridFn([0], [1], np.array([1.0, np.inf, 2.0]))

    def test_bad_corners(self):
        with pytest.raises(ValueError):
            GridFn([1], [0], np.zeros(5))


def sample_2d(fn, lo=(-4.0, -4.0), hi=(4.0, 4.0), counts=(41, 41)):
    X1, X2 = np.meshgrid(np.linspace(lo[0], hi[0], counts[0]),
                         np.linspace(lo[1], hi[1], counts[1]), indexing="ij")
    return GridFn(list(lo), list(hi), fn(X1, X2))


def table(name):
    return GridSampled.from_csv(CONFIG_DIR / name).grid


def nudged(f, dv):
    # one interior node moved by dv
    vals = f.values.copy()
    vals[17, 23] += dv
    return GridFn(f.lo, f.hi, vals)


# every grid edge a strict kink: the facets are the grid's half-cells
KINKED = {
    "half_square": lambda: sample_2d(lambda x, y: 0.5 * (x * x + y * y)),
    "grid_cauchy": lambda: table("grid_cauchy_H.csv"),
    "coupled_0.2": lambda: sample_2d(lambda x, y: x * x + 0.2 * x * y + y * y),
    "coupled_1.9": lambda: sample_2d(lambda x, y: x * x + 1.9 * x * y + y * y),
    "anisotropic": lambda: sample_2d(lambda x, y: 0.5 * (x * x + y * y), (-4.0, -1.0),
                                     (4.0, 1.0), (41, 21)),
    # 1e-6 is far below the curvature margin h^2 = 0.04, so every kink stays strict
    "grid_cauchy_lowered": lambda: nudged(table("grid_cauchy_H.csv"), -1e-6),
}

# a flat grid edge or a nonconvex stencil somewhere: the facets come from qhull
FALLBACK = {
    "grid_kinked": lambda: table("grid_kinked_H.csv"),
    "flat": lambda: sample_2d(lambda x, y: 0.0 * x),
    "affine": lambda: sample_2d(lambda x, y: 1.0 + 2.0 * x - 3.0 * y),
    "abs_sum": lambda: sample_2d(lambda x, y: np.abs(x) + np.abs(y)),
    "abs_max": lambda: sample_2d(lambda x, y: np.maximum(np.abs(x), np.abs(y))),
    "saddle": lambda: sample_2d(lambda x, y: x * x - y * y),
    "random": lambda: sample_2d(lambda x, y: np.random.default_rng(3).standard_normal(x.shape),
                                counts=(21, 21)),
    "quartic_coupled": lambda: sample_2d(lambda x, y: 0.5 * x * x + 0.25 * y**4 + 0.1 * x * y),
    # 0.1 outweighs the curvature margin h^2 = 0.04: the raised node leaves the hull
    "grid_cauchy_raised": lambda: nudged(table("grid_cauchy_H.csv"), 0.1),
}


def envelope(facets, pts):
    _, grad, offset = facets
    return np.max(pts[:, :1] * grad[:, 0] + pts[:, 1:] * grad[:, 1] + offset, axis=1)


def refuse(*args, **kwargs):
    raise AssertionError("scipy.spatial.ConvexHull called")


class TestLowerFacets:
    @pytest.mark.parametrize("name", list(KINKED))
    def test_kinked_tables_are_the_grid_cells_and_the_hull_envelope(self, name, rng,
                                                                   monkeypatch):
        f = KINKED[name]()
        oracle = qhull_lower_facets(f)
        monkeypatch.setattr(scipy.spatial, "ConvexHull", refuse)
        facets = lower_facets(f)
        n1, n2 = f.counts
        assert facets[0].shape == oracle[0].shape == (2 * (n1 - 1) * (n2 - 1), 3)
        X1, X2 = np.meshgrid(f.axis_nodes(0), f.axis_nodes(1), indexing="ij")
        pts = np.vstack([np.column_stack([X1.ravel(), X2.ravel()]),
                         rng.uniform(f.lo, f.hi, size=(2000, 2))])
        err = np.abs(envelope(facets, pts) - envelope(oracle, pts))
        assert err.max() <= 1e-12 * (1.0 + np.abs(f.values).max())

    @pytest.mark.parametrize("name", list(KINKED))
    def test_every_interior_edge_is_shared_by_two_facets(self, name):
        f = KINKED[name]()
        tri = lower_facets(f)[0]
        edges = np.sort(np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]]),
                        axis=1)
        pairs, count = np.unique(edges, axis=0, return_counts=True)
        n1, n2 = f.counts
        i, j = np.divmod(pairs, n2)
        on_side = (((i == 0) | (i == n1 - 1)) & (i[:, 0] == i[:, 1])[:, None]).all(axis=1) \
            | (((j == 0) | (j == n2 - 1)) & (j[:, 0] == j[:, 1])[:, None]).all(axis=1)
        assert np.all(count[on_side] == 1)
        assert np.all(count[~on_side] == 2)

    @pytest.mark.parametrize("name", list(FALLBACK))
    def test_other_tables_get_the_qhull_facets_bitwise(self, name):
        f = FALLBACK[name]()
        for got, want in zip(lower_facets(f), qhull_lower_facets(f)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
