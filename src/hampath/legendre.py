"""Discrete Legendre-Fenchel transform for functions tabulated on uniform grids.

The transform of sampled data equals the exact conjugate of the lower convex
envelope of the samples, computed in linear time by a convex-hull sweep.
A quadratic-cost brute-force evaluation is kept behind ``method="brute"``
as an independent oracle for tests.  The solver does not call the transform:
tabulated functions pair their envelope with the max over their nodes
(``hampath.polyhedral``), whose facets come from the lower hulls here
(``_lower_hull`` in 1-D, ``lower_facets`` in 2-D).  In 2-D,
``convexity_defect`` evaluates the envelope through that same facet table.

In 2-D the grid cells give the facets directly when every grid edge is a
strict kink: each cell split along its lower diagonal is then a locally
convex, hence convex, interpolant of the samples, which is their envelope.
Samples with flat grid edges (planes, strips, |x| + |y|) or that are not
convex go to qhull (``scipy.spatial``, imported only then).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class DualBoxError(ValueError):
    """Requested dual nodes cannot be supported by the primal sample box."""

    def __init__(self, message, dual_lo=None, dual_hi=None, fraction=None):
        super().__init__(message)
        self.dual_lo = dual_lo
        self.dual_hi = dual_hi
        self.fraction = fraction


@dataclass(frozen=True)
class GridFn:
    """Function values tabulated on a uniform 1-D or 2-D grid.

    ``values`` is indexed values[i] (1-D) or values[i, j] (2-D, row-major with
    axis 0 first).
    """

    lo: np.ndarray
    hi: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        vals = np.ascontiguousarray(self.values, dtype=float)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "values", vals)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-D arrays of equal length")
        d = lo.size
        if d not in (1, 2):
            raise ValueError("only 1-D and 2-D grids are supported")
        if vals.ndim != d:
            raise ValueError(f"values must be {d}-dimensional, got shape {vals.shape}")
        if any(n < 3 for n in vals.shape):
            raise ValueError("need at least 3 samples per axis")
        if not np.all(hi > lo):
            raise ValueError("hi must exceed lo on every axis")
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid values must be finite")

    @property
    def d(self) -> int:
        return self.lo.size

    @property
    def counts(self) -> tuple:
        return self.values.shape

    def axis_nodes(self, axis: int) -> np.ndarray:
        """Node coordinates along one axis."""
        return np.linspace(self.lo[axis], self.hi[axis], self.values.shape[axis])

    def spacing(self, axis: int) -> float:
        return (self.hi[axis] - self.lo[axis]) / (self.values.shape[axis] - 1)


def _lower_hull(x: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Indices of the lower convex hull of the points (x_i, f_i), x increasing."""
    hull: list[int] = []
    for i in range(x.size):
        while len(hull) >= 2:
            i0, i1 = hull[-2], hull[-1]
            # pop i1 if it lies on or above the chord i0 -> i
            lhs = (f[i1] - f[i0]) * (x[i] - x[i0])
            rhs = (f[i] - f[i0]) * (x[i1] - x[i0])
            if lhs >= rhs:
                hull.pop()
            else:
                break
        hull.append(i)
    return np.asarray(hull, dtype=np.intp)


def _conjugate_1d(x, f, y):
    """Conjugate of sampled data at dual nodes y (sorted).

    Returns (values, argmax_index) where argmax_index refers to the primal grid.
    """
    hull = _lower_hull(x, f)
    hx, hf = x[hull], f[hull]
    if hull.size == 1:
        vals = hx[0] * y - hf[0]
        return vals, np.full(y.shape, hull[0], dtype=np.intp)
    slopes = (hf[1:] - hf[:-1]) / (hx[1:] - hx[:-1])
    pick = np.searchsorted(slopes, y, side="left")
    vals = hx[pick] * y - hf[pick]
    return vals, hull[pick]


def _conjugate_1d_brute(x, f, y):
    scores = np.outer(y, x) - f[None, :]
    arg = np.argmax(scores, axis=1)
    return scores[np.arange(y.size), arg], arg


def slope_range(f: GridFn, axis: int = 0) -> tuple[float, float]:
    """Range of discrete directional slopes of the samples along one axis."""
    h = f.spacing(axis)
    diffs = np.diff(f.values, axis=axis) / h
    return float(diffs.min()), float(diffs.max())


def _default_dual_axis(f: GridFn, axis: int) -> tuple[float, float, int]:
    mlo, mhi = slope_range(f, axis)
    # nudge inside the slope range so every dual node keeps an interior argmax
    nudge = 1e-9 * (1.0 + max(abs(mlo), abs(mhi)))
    if mhi - mlo <= 2.0 * nudge:
        # a flat range, or one whose slopes differ only by rounding, which the nudge
        # would invert: pad it instead
        pad = max(1e-8, abs(mlo) * 1e-8)
        return mlo - pad, mhi + pad, 3
    return mlo + nudge, mhi - nudge, f.values.shape[axis]


def discrete_conjugate(
    f: GridFn,
    dual_lo=None,
    dual_hi=None,
    dual_counts=None,
    method: str = "hull",
    boundary_frac: float = 0.05,
    convexity_warn_tol: float = 1e-8,
) -> GridFn:
    """Conjugate g(y) = max_x (x . y - f(x)) over the primal grid nodes.

    The default dual box is the range of discrete slopes of ``f`` shrunk by a
    5 percent margin per side, which keeps every argmax away from the primal
    boundary.  If more than ``boundary_frac`` of the dual nodes attain their
    max on the primal boundary, the primal box cannot represent the conjugate
    there and a :class:`DualBoxError` is raised naming the affected region.
    """
    if method not in ("hull", "brute"):
        raise ValueError("method must be 'hull' or 'brute'")
    defect = convexity_defect(f) if f.d == 1 else _convexity_proxy_2d(f)
    scale = 1.0 + float(np.abs(f.values).max())
    if defect > convexity_warn_tol * scale:
        import warnings

        warnings.warn(
            f"samples deviate from their convex envelope by {defect:.3e}; "
            "the transform returns the conjugate of the envelope",
            stacklevel=2,
        )

    d = f.d
    if dual_lo is None or dual_hi is None or dual_counts is None:
        axes = [_default_dual_axis(f, a) for a in range(d)]
        dual_lo = np.array([a[0] for a in axes]) if dual_lo is None else np.atleast_1d(dual_lo)
        dual_hi = np.array([a[1] for a in axes]) if dual_hi is None else np.atleast_1d(dual_hi)
        dual_counts = tuple(a[2] for a in axes) if dual_counts is None else dual_counts
    dual_lo = np.atleast_1d(np.asarray(dual_lo, dtype=float))
    dual_hi = np.atleast_1d(np.asarray(dual_hi, dtype=float))
    if np.isscalar(dual_counts) or isinstance(dual_counts, (int, np.integer)):
        dual_counts = (int(dual_counts),) * d
    dual_counts = tuple(int(c) for c in dual_counts)

    conj1 = _conjugate_1d if method == "hull" else _conjugate_1d_brute

    if d == 1:
        x = f.axis_nodes(0)
        y = np.linspace(dual_lo[0], dual_hi[0], dual_counts[0])
        vals, arg = conj1(x, f.values, y)
        on_edge = (arg == 0) | (arg == x.size - 1)
        _check_boundary(on_edge, y, boundary_frac)
        return GridFn(dual_lo, dual_hi, vals)

    # 2-D: conjugate factors into two 1-D sweeps,
    #   h(x1, y2) = max_x2 (x2 y2 - f(x1, x2)),
    #   g(y1, y2) = max_x1 (x1 y1 - (-h(x1, y2))).
    x1 = f.axis_nodes(0)
    x2 = f.axis_nodes(1)
    y1 = np.linspace(dual_lo[0], dual_hi[0], dual_counts[0])
    y2 = np.linspace(dual_lo[1], dual_hi[1], dual_counts[1])
    n1 = x1.size
    hvals = np.empty((n1, y2.size))
    edge2 = np.empty((n1, y2.size), dtype=bool)
    for i in range(n1):
        v, arg = conj1(x2, f.values[i, :], y2)
        hvals[i, :] = v
        edge2[i, :] = (arg == 0) | (arg == x2.size - 1)
    gvals = np.empty((y1.size, y2.size))
    on_edge = np.empty((y1.size, y2.size), dtype=bool)
    for j in range(y2.size):
        v, arg = conj1(x1, -hvals[:, j], y1)
        gvals[:, j] = v
        on_edge[:, j] = (arg == 0) | (arg == n1 - 1) | edge2[arg, j]
    _check_boundary(on_edge, (y1, y2), boundary_frac)
    return GridFn(dual_lo, dual_hi, gvals)


def _check_boundary(on_edge, ynodes, boundary_frac):
    frac = float(on_edge.mean())
    if frac <= boundary_frac:
        return
    if isinstance(ynodes, tuple):
        idx = np.argwhere(on_edge)
        lo = np.array([ynodes[0][idx[:, 0].min()], ynodes[1][idx[:, 1].min()]])
        hi = np.array([ynodes[0][idx[:, 0].max()], ynodes[1][idx[:, 1].max()]])
    else:
        affected = ynodes[on_edge]
        lo, hi = affected.min(), affected.max()
    raise DualBoxError(
        f"{100 * frac:.1f}% of dual nodes attain their max on the primal boundary "
        f"(affected dual region roughly [{lo}, {hi}]); enlarge the primal box or "
        "shrink the dual box",
        dual_lo=lo,
        dual_hi=hi,
        fraction=frac,
    )


def convexity_defect(f: GridFn) -> float:
    """Max over nodes of (samples - lower convex envelope); zero for convex data.

    In 1-D the envelope at the nodes interpolates the lower hull in linear
    time, where evaluating every facet at every node would take quadratic
    time; in 2-D it is the samples' ``polyhedral.FacetTable`` envelope.
    """
    if f.d == 1:
        x = f.axis_nodes(0)
        hull = _lower_hull(x, f.values)
        env = np.interp(x, x[hull], f.values[hull])
        return float(np.max(f.values - env))
    # polyhedral imports this module, so it is imported here
    from hampath.polyhedral import FacetTable

    X1, X2 = np.meshgrid(f.axis_nodes(0), f.axis_nodes(1), indexing="ij")
    env, _ = FacetTable.of_grid(f).envelope(np.column_stack([X1.ravel(), X2.ravel()]))
    return float(np.max(f.values.ravel() - env))


def _convexity_proxy_2d(f: GridFn) -> float:
    """Cheap necessary condition: worst concavity of axis and diagonal stencils."""
    v = f.values
    worst = min(
        (v[:-2, :] - 2 * v[1:-1, :] + v[2:, :]).min(),
        (v[:, :-2] - 2 * v[:, 1:-1] + v[:, 2:]).min(),
        (v[:-2, :-2] - 2 * v[1:-1, 1:-1] + v[2:, 2:]).min(),
        (v[2:, :-2] - 2 * v[1:-1, 1:-1] + v[:-2, 2:]).min(),
    )
    return max(-float(worst), 0.0)


def lower_facets(f: GridFn):
    """Lower convex-hull facets of 2-D samples, as node triangles with their planes.

    Returns ``(tri, grad, offset)``: ``tri`` (F, 3) indexes the row-major grid
    nodes, and on triangle t the convex envelope of the samples is
    ``grad[t] . x + offset[t]``, the plane through the triangle's three
    samples.  The triangles tile the grid box.

    The grid's own cells are tried first: each cell is split along its lower
    diagonal, a-d when f_a + f_d <= f_b + f_c, and the triangles are kept, two
    per cell in row-major cell order, when every triangle's plane lies at or
    below the corners of its cell (up to rounding) and strictly below the
    other nodes of the 4 x 4 stencil around the cell.  The interpolant is
    then locally convex across every triangle edge, so it is convex on the
    box and, since it interpolates the samples, equals their envelope; and
    the strict kink across every grid edge leaves each facet one cell or half
    of one, so the count matches the hull's.  Otherwise (coplanar samples,
    strips with flat grid edges such as |x| + |y|, nonconvex samples) the
    facets come from qhull: coplanar samples give the two triangles of the box
    corners, and a merged facet is triangulated as qhull returns it.
    """
    X1, X2 = np.meshgrid(f.axis_nodes(0), f.axis_nodes(1), indexing="ij")
    nodes = np.column_stack([X1.ravel(), X2.ravel()])
    vals = f.values.ravel()
    tri, grad, offset = _planes(f, nodes, vals, _cell_triangles(f.values))
    if _strictly_kinked(f, grad, offset):
        return tri, grad, offset
    return _planes(f, nodes, vals, _hull_triangles(f, nodes, vals))


def _cell_triangles(v):
    """Two triangles per grid cell, split along the cell's lower diagonal, in row-major
    cell order: (a, b, d), (a, d, c) or (a, b, c), (b, d, c) with a = (i, j),
    b = (i + 1, j), c = (i, j + 1), d = (i + 1, j + 1)."""
    n1, n2 = v.shape
    a = (np.arange(n1 - 1)[:, None] * n2 + np.arange(n2 - 1)).ravel()
    b, c, d = a + n2, a + 1, a + n2 + 1
    ad = (v[:-1, :-1] + v[1:, 1:] <= v[1:, :-1] + v[:-1, 1:]).ravel()[:, None]
    first = np.where(ad, np.column_stack([a, b, d]), np.column_stack([a, b, c]))
    second = np.where(ad, np.column_stack([a, d, c]), np.column_stack([b, d, c]))
    return np.stack([first, second], axis=1).reshape(-1, 3)


def _strictly_kinked(f: GridFn, grad, offset) -> bool:
    """Whether each cell triangle's plane (two per cell, row-major) lies at or below the
    corners of its cell and strictly below every other node of the 4 x 4 stencil around
    the cell, each beyond a rounding slack relative to the terms of the plane."""
    n1, n2 = f.counts
    # one more node on each side, with the value +inf, stands for no node at all
    v = sliding_window_view(np.pad(f.values, 1, constant_values=np.inf), (4, 4))
    x1, x2 = (sliding_window_view(np.pad(f.axis_nodes(a), 1, mode="reflect",
                                         reflect_type="odd"), 4) for a in (0, 1))
    # axes: cell row, cell column, triangle, stencil column
    g = grad.reshape(n1 - 1, n2 - 1, 2, 2, 1)
    c = offset.reshape(n1 - 1, n2 - 1, 2, 1)
    t2 = g[..., 1, :] * x2[None, :, None, :]
    corner = np.array([False, True, True, False])
    for k in range(4):  # stencil row: node row i - 1 + k of cell row i
        t1 = g[..., 0, :] * x1[:, None, None, k : k + 1]
        resid = v[:, :, None, k, :] - (t1 + t2 + c)
        slack = 1e-12 * (1.0 + np.abs(t1) + np.abs(t2) + np.abs(c))
        if not np.where(corner & corner[k], resid >= -slack, resid > slack).all():
            return False
    return True


def _hull_triangles(f: GridFn, nodes, vals):
    """Lower-hull triangles of the lifted nodes from qhull; the two triangles of the box
    corners when the samples are coplanar."""
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(np.column_stack([nodes, vals]))
        return hull.simplices[hull.equations[:, 2] < 0]
    except QhullError:
        n1, n2 = f.counts
        c00, c01, c10, c11 = 0, n2 - 1, (n1 - 1) * n2, n1 * n2 - 1
        return np.array([[c00, c10, c11], [c00, c11, c01]])


def _planes(f: GridFn, nodes, vals, tri):
    """The triangles of ``tri`` that are not flat, with the plane through each one's
    samples as ``(tri, grad, offset)``."""
    p, v = nodes[tri], vals[tri]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    # a triangle of grid nodes spans |det| >= h1 h2 unless it is flat: that drops the
    # vertical side walls and any zero-area piece of a triangulated merged facet
    keep = np.abs(det) > 0.5 * f.spacing(0) * f.spacing(1)
    tri, p, v, e1, e2, d1, d2, det = (a[keep] for a in (tri, p, v, e1, e2, d1, d2, det))
    grad = np.column_stack([(e2[:, 1] * d1 - e1[:, 1] * d2) / det,
                            (e1[:, 0] * d2 - e2[:, 0] * d1) / det])
    offset = v[:, 0] - grad[:, 0] * p[:, 0, 0] - grad[:, 1] * p[:, 0, 1]
    return tri, grad, offset
