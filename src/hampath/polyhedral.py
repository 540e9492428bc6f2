"""Convex envelopes of tabulated samples as facet tables, and exact minimization over them.

The convex envelope of samples on a uniform 1-D or 2-D grid is affine on
each facet of the samples' lower convex hull (segments in 1-D, triangles in
2-D, with grid nodes as vertices); on the grid box it is the maximum of those
affine pieces (Rockafellar, *Convex Analysis*, section 19).  ``facet_argmin``
minimizes the envelope plus a separable, strictly convex term by enumerating
facets: on one facet the objective is smooth, so its minimum over the facet
is the interior stationary point when that lies on the facet, and otherwise
the best of the minima over the facet's edges.  Callers pass a box per row
that provably holds the minimizer, which limits the facets enumerated; all
(row, facet) pairs of a call are solved together.
"""

from __future__ import annotations

import numpy as np

from hampath.legendre import GridFn, _lower_hull, lower_facets
from hampath.rootfind import newton_bisect

# bound on the (row, facet) or (row, node) pairs formed at once; larger calls are
# processed in row chunks, which keeps memory flat
PAIR_CHUNK = 1 << 17


def _row_chunks(K, width):
    step = max(1, PAIR_CHUNK // max(width, 1))
    return [slice(s, s + step) for s in range(0, K, step)]


def _affine(pts, grad, offset):
    """grad . pts + offset for every (row, piece), one coordinate at a time.

    Elementwise products keep every entry's rounding independent of the
    batch, unlike a matrix product.
    """
    out = pts[:, :1] * grad[None, :, 0]
    for i in range(1, pts.shape[1]):
        out += pts[:, i : i + 1] * grad[None, :, i]
    out += offset
    return out


class FacetTable:
    """Facets of a convex envelope: on facet t it equals ``grad[t] . u + offset[t]``.

    ``verts`` (F, d + 1, d) holds the facet vertices, ``lo`` and ``hi`` (F, d)
    their bounding boxes and ``grad_bound`` (d,) the largest facet-gradient
    component per axis.
    """

    def __init__(self, verts, grad, offset):
        self.verts = verts
        self.grad = grad
        self.offset = offset
        self.lo = verts.min(axis=1)
        self.hi = verts.max(axis=1)
        self.grad_bound = np.abs(grad).max(axis=0)

    @classmethod
    def of_grid(cls, grid: GridFn) -> "FacetTable":
        """Lower-hull facets of the samples: ``legendre._lower_hull`` segments in 1-D,
        ``legendre.lower_facets`` triangles in 2-D."""
        if grid.d == 1:
            x, f = grid.axis_nodes(0), grid.values
            hull = _lower_hull(x, f)
            a, b = hull[:-1], hull[1:]
            slope = (f[b] - f[a]) / (x[b] - x[a])
            return cls(np.stack([x[a], x[b]], axis=1)[:, :, None], slope[:, None],
                       f[a] - slope * x[a])
        tri, grad, offset = lower_facets(grid)
        X1, X2 = np.meshgrid(grid.axis_nodes(0), grid.axis_nodes(1), indexing="ij")
        nodes = np.column_stack([X1.ravel(), X2.ravel()])
        return cls(nodes[tri], grad, offset)

    def envelope(self, pts):
        """Envelope values at the rows of pts (inside the box) and the first facet
        attaining each."""
        K = pts.shape[0]
        vals, idx = np.empty(K), np.empty(K, dtype=np.intp)
        for sl in _row_chunks(K, self.offset.size):
            planes = _affine(pts[sl], self.grad, self.offset)
            idx[sl] = np.argmax(planes, axis=1)
            vals[sl] = planes[np.arange(planes.shape[0]), idx[sl]]
        return vals, idx

    def meeting(self, lo, hi):
        """(K, F) mask of the facets whose bounding box meets the box [lo_k, hi_k]."""
        return np.all((self.lo[None] <= hi[:, None]) & (self.hi[None] >= lo[:, None]), axis=2)

    def grad_bound_in(self, lo, hi):
        """(K, d) largest facet-gradient component per axis over the facets meeting each box."""
        out = np.empty(lo.shape)
        absg = np.abs(self.grad)
        for sl in _row_chunks(lo.shape[0], self.offset.size):
            mask = self.meeting(lo[sl], hi[sl])
            for i in range(lo.shape[1]):
                out[sl, i] = np.max(np.where(mask, absg[:, i], 0.0), axis=1)
        return out


def facet_argmin(table: FacetTable, a, b, lo, hi, penalty=None, x=None):
    """Per-row minimizers of envelope(u) + sum_i (a_i/2) u_i^2 + b_ki u_i [+ penalty(u - x_k)].

    ``a`` (d,) is nonnegative, ``b`` (K, d) holds one linear term per row and
    ``[lo_k, hi_k]`` must contain row k's minimizer; only the facets that
    meet it are enumerated.  The penalty is a strictly convex, coordinatewise
    separable kind, read through its ``_value``, ``_grad`` and ``_curvature``
    and its conjugate's ``_grad``, which inverts its own.  Without a penalty
    ``a`` must be positive, so that every objective is strictly convex.  Ties
    between facets go to the lowest facet index, so a row's result does not
    depend on the other rows.
    """
    K, d = b.shape
    out = np.empty((K, d))
    for sl in _row_chunks(K, table.offset.size):
        rows, t = np.nonzero(table.meeting(lo[sl], hi[sl]))
        xr = None if x is None else x[sl][rows]
        u, val = _facet_minima(table, t, a, b[sl][rows], penalty, xr)
        out[sl] = u[_first_min_per_row(rows, val, out[sl].shape[0])]
    return out


def _first_min_per_row(rows, val, K):
    """Index of each row's lowest value among pairs sorted by (row, facet)."""
    starts = np.searchsorted(rows, np.arange(K))
    if np.unique(rows).size != K:
        raise ValueError("a row's candidate box meets no facet")
    low = np.minimum.reduceat(val, starts)
    hit = np.flatnonzero(val == low[rows])
    _, first = np.unique(rows[hit], return_index=True)
    return hit[first]


def _objective(u, g, c, a, penalty, x):
    val = c + np.sum(g * u + 0.5 * a * u * u, axis=-1)
    if penalty is not None:
        val = val + penalty._value(u - x)
    return val


def _facet_minima(table, t, a, b, penalty, x):
    """Minimizer and objective value of each (row, facet) pair over its facet."""
    g = table.grad[t] + b
    c = table.offset[t]
    verts = table.verts[t]
    u = _stationary(g, a, penalty, x)
    if u.shape[1] == 1:
        # a 1-D objective is minimized over a segment by clipping its stationary point
        u = np.clip(u, verts[:, 0], verts[:, 1])
    else:
        off = ~_in_triangle(u, verts)
        if off.any():
            u[off] = _edge_minima(verts[off], g[off], a, penalty,
                                  None if x is None else x[off])
    return u, _objective(u, g, c, a, penalty, x)


def _stationary(g, a, penalty, x):
    """Per coordinate, the root of g_i + a_i u_i [+ penalty'(u_i - x_i)] = 0."""
    if penalty is None:
        return -g / a
    q = g + a * x
    # |penalty'(u - x)| = |g + a u| <= |q| at the root, which lies between x and the
    # point where the penalty's slope alone cancels q, (penalty')^-1(|q|) = (penalty*)'(|q|)
    w = penalty.conjugate()._grad(np.abs(q))
    lo = np.where(q > 0, x - w, x)
    hi = np.where(q > 0, x, x + w)
    return newton_bisect(lambda v: (g + a * v + penalty._grad(v - x),
                                    a + penalty._curvature(v - x)),
                         lo, hi, scale=1.0 + np.abs(q))


def _in_triangle(u, verts):
    """Whether each point lies in its triangle, on the boundary included."""
    side = [(verts[:, k1, 0] - verts[:, k, 0]) * (u[:, 1] - verts[:, k, 1])
            - (verts[:, k1, 1] - verts[:, k, 1]) * (u[:, 0] - verts[:, k, 0])
            for k, k1 in ((0, 1), (1, 2), (2, 0))]
    return ((side[0] >= 0) & (side[1] >= 0) & (side[2] >= 0)) | \
           ((side[0] <= 0) & (side[1] <= 0) & (side[2] <= 0))


def _edge_minima(verts, g, a, penalty, x):
    """Best of the minima over a triangle's three edges, for each (row, facet) pair.

    Along an edge A + tau E the objective's slope in tau is increasing, so
    its minimum over tau in [0, 1] is an endpoint or the slope's one root.
    """
    A = verts
    E = np.roll(verts, -1, axis=1) - verts  # edges (v0, v1), (v1, v2), (v2, v0)
    g3 = np.broadcast_to(g[:, None, :], A.shape)
    x3 = None if x is None else np.broadcast_to(x[:, None, :], A.shape)

    def slope(tau, A, E, g, x):
        u = A + tau[..., None] * E
        grad = g + a * u
        if penalty is not None:
            grad = grad + penalty._grad(u - x)
        return np.sum(E * grad, axis=-1)

    s0 = slope(np.zeros(A.shape[:2]), A, E, g3, x3)
    if penalty is None:
        tau = np.clip(-s0 / np.sum(a * E * E, axis=-1), 0.0, 1.0)
    else:
        tau = np.where(s0 >= 0, 0.0, 1.0)
        mid = (s0 < 0) & (slope(np.ones(A.shape[:2]), A, E, g3, x3) > 0)
        if mid.any():
            Am, Em, gm, xm = A[mid], E[mid], g3[mid], x3[mid]

            def rho(tau):
                w = Am + tau[:, None] * Em - xm
                # an axis the edge does not move along adds no curvature, even where
                # the penalty's is infinite
                with np.errstate(invalid="ignore"):
                    curv = np.where(Em != 0, Em * Em * (a + penalty._curvature(w)), 0.0)
                return slope(tau, Am, Em, gm, xm), np.sum(curv, axis=-1)
            tau[mid] = newton_bisect(rho, np.zeros(Am.shape[0]), np.ones(Am.shape[0]),
                                     scale=1.0 - s0[mid])
    u = A + tau[..., None] * E
    val = _objective(u, g3, 0.0, a, penalty, x3)
    return u[np.arange(u.shape[0]), np.argmin(val, axis=1)]
