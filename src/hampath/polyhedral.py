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

``midpoint_march`` solves the implicit midpoint rule of a Hamiltonian system
whose Hamiltonian is a 2-D envelope plus a diagonal quadratic, one interval at
a time: each step is a subgradient inclusion that it solves by enumerating
the envelope's facets, kink edges, vertices and box faces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

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
        self._mesh = None

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

    @property
    def mesh(self) -> "Mesh":
        """Edges and vertex stars of a 2-D table, built on first use."""
        if self._mesh is None:
            self._mesh = Mesh.of_table(self)
        return self._mesh

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


@dataclass(frozen=True, eq=False)
class Mesh:
    """Where a 2-D envelope has more than one subgradient: its kink edges, box faces and
    vertices.

    On the relative interior of an edge of facet t, running from ``A`` along
    ``E``, the subgradients of the envelope plus the box's indicator are
    grad[t] + mu D: on a kink edge shared with facet s, D = grad[s] - grad[t]
    and 0 <= mu <= 1; on an edge in the box boundary, D is the outward unit
    normal and mu >= 0.  ``shared`` and ``faces`` hold these edges as (t, A, E, D)
    arrays in the order of (facet, corner), each shared edge once, from its
    lower-index facet.

    At a vertex v, a slope s is a subgradient when the envelope minus the plane
    of slope s through v is nonnegative along every facet edge leaving v, that
    is (grad[t] - s) . E >= 0 for both edges E of each facet t at v; near a box
    face this admits the normal cone.  Entry i of the vertex stars is corner
    ``star_v[i]`` of facet ``star_t[i]`` with its two edges ``star_E[i]``
    (2, 2); ``vertices`` holds the coordinates, in lexicographic order.

    Both rest on the lower-hull triangles meeting edge to edge.  An edge that
    matches no other and lies inside the box breaks that; it is left out, and
    a step that relied on it fails the certificate that judges the march.
    """

    vertices: np.ndarray
    shared: tuple
    faces: tuple
    star_v: np.ndarray
    star_t: np.ndarray
    star_E: np.ndarray

    @classmethod
    def of_table(cls, table: FacetTable) -> "Mesh":
        V = table.verts
        F = V.shape[0]
        # as complex numbers the vertices sort in lexicographic order in one 1-D sort
        vertices, vid = np.unique(V[:, :, 0] + 1j * V[:, :, 1], return_inverse=True)
        vertices = np.column_stack([vertices.real, vertices.imag])
        vid = vid.reshape(F, 3)
        corner = np.arange(3)

        def edges(flat):
            # edge k of facet t runs from its corner k to corner k + 1; flat = 3 t + k
            t, k = np.divmod(flat, 3)
            A, B = V[t, k], V[t, (k + 1) % 3]
            return t, A, B

        # an edge shared by two facets has the same unordered vertex pair in both
        a, b = vid, vid[:, (corner + 1) % 3]
        key = (np.minimum(a, b) * len(vertices) + np.maximum(a, b)).ravel()
        order = np.argsort(key, kind="stable")
        same = key[order[1:]] == key[order[:-1]]
        first, second = order[:-1][same], order[1:][same]
        by_facet = np.argsort(first)
        first, second = first[by_facet], second[by_facet]
        t, A, B = edges(first)
        shared = (t, A, B - A, table.grad[second // 3] - table.grad[t])

        once = np.ones(key.size, dtype=bool)
        once[first] = once[second] = False
        t, A, B = edges(np.flatnonzero(once))
        lo, hi = vertices.min(axis=0), vertices.max(axis=0)
        normal = ((A == hi) & (B == hi)).astype(float) - ((A == lo) & (B == lo))
        side = np.any(normal != 0, axis=1)
        faces = (t[side], A[side], (B - A)[side], normal[side])

        star_E = np.stack([V[:, (corner + 1) % 3] - V, V[:, (corner + 2) % 3] - V], axis=2)
        return cls(vertices, shared, faces, vid.ravel(), np.repeat(np.arange(F), 3),
                   star_E.reshape(3 * F, 2, 2))


def midpoint_march(form, z0, h, M):
    """Nodes (M + 1, 2) of the implicit midpoint rule from z0 for the Hamiltonian
    env(u) + sum_i (a_i/2) u_i^2 + b_i u_i + c, with ``form = (env, a, b, c)`` as
    ``ConvexFn.envelope_form`` returns it and env a 2-D ``GridSampled``; None
    when a step finds no solution (see ``MidpointStep``).  Midpoints stay in the
    envelope's box, nodes need not.
    """
    step = MidpointStep(form, h)
    nodes = np.empty((M + 1, 2))
    nodes[0] = z0
    for k in range(M):
        x = step(nodes[k])
        if x is None:
            return None
        nodes[k + 1] = 2.0 * x - nodes[k]
    return nodes


class MidpointStep:
    """One implicit midpoint step of length h: the midpoint x of the interval that starts
    at node z, for the envelope form ``(env, a, b, c)`` of ``midpoint_march``.

    x solves the inclusion y - a x - b in d(env + box indicator)(x), where
    y = (2/h) R (x - z) with R(u, v) = (-v, u) is the interval's slope pair
    (-dq, dp); the next node is 2 x - z.  The map
    x -> d(env + indicator)(x) + a x + b - y(x) is maximal monotone (R is skew)
    with bounded domain, so it is onto and a solution exists (Rockafellar,
    *Convex Analysis*; Brezis, *Operateurs maximaux monotones*).  The needed
    slope s(x) = y - a x - b = P x - w is affine in x, and a solution is sought
    in this order, each case over all of its candidates at once, the lowest
    index winning as in ``facet_argmin``: facet interiors (s(x) = grad[t] with x
    on facet t), kink edges, vertices and box faces (see ``Mesh``).

    With a = 0, P E is normal to every edge E, so the 2 x 2 system of an edge
    is singular: its solutions, when there are any, form a segment whose ends
    solve a facet or a vertex case.  Only a form with a != 0 reaches the edge
    and box-face cases.
    """

    def __init__(self, form, h):
        env, a, self.b, _ = form
        self.fac = env.facets
        self.c = c = 2.0 / h
        self.P = np.array([[-a[0], -c], [c, -a[1]]])
        self.Pinv = np.array([[-a[1], c], [-c, -a[0]]]) / (a[0] * a[1] + c * c)
        # facet t: P x - w = grad[t] gives x = Pinv grad[t] + Pinv w; _affine(u, A, 0)
        # is A u for every row u
        self.X0 = _affine(self.fac.grad, self.Pinv, 0.0)

    def __call__(self, z):
        w = self.c * np.array([-z[1], z[0]]) + self.b
        x = self.facet(w)
        if x is None:
            x = self.edge(self.shared, 1.0, w)
        if x is None:
            x = self.vertex(w)
        if x is None:
            x = self.edge(self.faces, np.inf, w)
        return x

    # the mesh and the systems of the cases after the first are built when a step first
    # needs them

    @functools.cached_property
    def shared(self):
        return self._edge_system(self.fac.mesh.shared)

    @functools.cached_property
    def faces(self):
        return self._edge_system(self.fac.mesh.faces)

    def _edge_system(self, edges):
        # x = A + tau E with slope grad[t] + mu D: mu D - tau P E = P A - grad[t] - w
        t, A, E, D = edges
        C = -_affine(E, self.P, 0.0)
        return (A, E, C, D, D[:, 0] * C[:, 1] - D[:, 1] * C[:, 0],
                _affine(A, self.P, 0.0) - self.fac.grad[t])

    @functools.cached_property
    def stars(self):
        mesh = self.fac.mesh
        return (_affine(mesh.vertices, self.P, 0.0), self.fac.grad[mesh.star_t],
                np.abs(mesh.star_E).sum(axis=2))

    def facet(self, w):
        x = self.X0 + _affine(w[None], self.Pinv, 0.0)
        inside = _in_triangle(x, self.fac.verts)
        return x[np.argmax(inside)] if inside.any() else None

    @staticmethod
    def edge(system, cap, w):
        A, E, C, D, det, r0 = system
        r = r0 - w
        with np.errstate(divide="ignore", invalid="ignore"):
            mu = (r[:, 0] * C[:, 1] - r[:, 1] * C[:, 0]) / det
            tau = (D[:, 0] * r[:, 1] - D[:, 1] * r[:, 0]) / det
        ok = (tau >= 0) & (tau <= 1) & (mu >= 0) & (mu <= cap)
        if not ok.any():
            return None
        j = np.argmax(ok)
        return A[j] + tau[j] * E[j]

    def vertex(self, w):
        mesh = self.fac.mesh
        PV, star_g, star_norm = self.stars
        s = PV - w
        d = star_g - s[mesh.star_v]
        dots = np.sum(d[:, None, :] * mesh.star_E, axis=2)
        # rounding slack relative to the terms of each product
        size = 1.0 + np.abs(star_g).sum(axis=1) + np.abs(s).sum(axis=1)[mesh.star_v]
        bad = np.any(dots < -1e-12 * size[:, None] * star_norm, axis=1)
        ok = np.bincount(mesh.star_v[bad], minlength=len(mesh.vertices)) == 0
        return mesh.vertices[np.argmax(ok)] if ok.any() else None
