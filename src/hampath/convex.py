"""Closed convex functions with conjugates and subgradients.

Every function carries a bounded working box: closed-form kinds evaluate
anywhere, but numerical conjugation and sampling checks are confined to the
box.  Conjugation of a non-coercive function is refused; apply a quadratic
perturbation first.

Each kind conjugates through one hook, ``_pair()``, which returns a
consistent (primal, dual) pair; ``conjugate_pair()`` caches it.  The primal is
the function itself wherever the dual is exact.  A tabulated function is the
convex envelope of its samples and pairs with the maximum over its nodes;
the two are exact conjugates.  The envelope plus a quadratic of positive
diagonal curvature pairs with ``EnvelopeConjugate``, whose value is the
infimal convolution of the node maximum with the quadratic's conjugate and
whose gradient is one facet enumeration.  This keeps the Fenchel-Young
inequality exact for the pair, which downstream action assembly relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hampath.legendre import GridFn, _default_dual_axis
from hampath.polyhedral import (
    FacetTable,
    _affine,
    _row_chunks,
    facet_argmin,
)
from hampath.rootfind import newton_bisect, newton_bracket

AUTO_GRID_1D = 4001
AUTO_GRID_2D = 201


class NotCoerciveError(ValueError):
    """Conjugation refused: the function does not grow superlinearly."""


class ConjugateUnavailableError(ValueError):
    """No closed form and no feasible numerical fallback."""


class DomainError(ValueError):
    """Point outside the function's support (grid-backed kinds)."""


@dataclass(frozen=True)
class Box:
    """Axis-aligned working box."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
        hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if lo.shape != hi.shape or not np.all(hi > lo):
            raise ValueError("invalid box corners")

    @staticmethod
    def cube(dim: int, halfwidth: float = 10.0, center: float = 0.0) -> "Box":
        c = np.full(dim, float(center))
        w = np.full(dim, float(halfwidth))
        return Box(c - w, c + w)

    @property
    def dim(self) -> int:
        return self.lo.size

    def sample(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(m, self.dim))

    def shell_sample(self, rng: np.random.Generator, m: int, inner: float = 0.8) -> np.ndarray:
        """Uniform samples on the outer shell (outside ``inner`` times the box)."""
        out = np.empty((m, self.dim))
        c = 0.5 * (self.lo + self.hi)
        k = 0
        while k < m:
            cand = rng.uniform(self.lo, self.hi, size=(4 * (m - k), self.dim))
            rel = np.max(np.abs(cand - c) / (0.5 * (self.hi - self.lo)), axis=1)
            keep = cand[rel >= inner]
            take = min(len(keep), m - k)
            out[k : k + take] = keep[:take]
            k += take
        return out


@dataclass(frozen=True)
class SubgradientResult:
    """An element of the subdifferential; minimal-norm at kinks."""

    value: np.ndarray
    is_unique: bool


def _as_points(x, dim):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1)
    if x.shape[-1] != dim:
        raise ValueError(f"expected last axis of size {dim}, got shape {x.shape}")
    lead = x.shape[:-1]
    return x.reshape(-1, dim), lead


class ConvexFn:
    """Base class; a kind defines ``_eval``, or ``_value`` and ``_grad``."""

    smooth = False
    coercive = False
    # coordinatewise separable: f(x) = sum_i f_i(x_i), with _curvature giving f_i''(x_i)
    separable = False

    def __init__(self, dim: int, box: Box | None = None):
        self.dim = int(dim)
        self.box = box if box is not None else Box.cube(self.dim)
        self._pair_cache = None

    # -- evaluation ----------------------------------------------------
    def value(self, x):
        pts, lead = _as_points(x, self.dim)
        v = self._value(pts)
        return float(v[0]) if lead == () else v.reshape(lead)

    __call__ = value

    def grad(self, x):
        if not self.smooth:
            raise ValueError(f"{type(self).__name__} is not smooth; use subgradient")
        pts, lead = _as_points(x, self.dim)
        g = self._grad(pts)
        return g[0] if lead == () else g.reshape(lead + (self.dim,))

    def subgradient(self, x) -> SubgradientResult:
        vals, unique = self._subgradients(np.asarray(x, dtype=float).reshape(1, self.dim))
        return SubgradientResult(vals[0], bool(unique[0]))

    def _subgradients(self, pts):
        """Subgradients at the rows of pts, minimal-norm at kinks: the values (K, dim) and
        whether each is the only one (K,).  A smooth kind's is its gradient."""
        if not self.smooth:
            raise NotImplementedError(f"{type(self).__name__} has no subgradients")
        return self._grad(pts), np.ones(pts.shape[0], dtype=bool)

    # -- conjugation ---------------------------------------------------
    def conjugate(self) -> "ConvexFn":
        return self.conjugate_pair()[1]

    def conjugate_pair(self):
        """Consistent (primal, dual) pair whose Fenchel-Young gap is exactly >= 0."""
        if self._pair_cache is None:
            self._pair_cache = self._pair()
        return self._pair_cache

    def _pair(self):
        """This kind's (primal, dual)."""
        raise NotImplementedError

    # -- structure hooks ------------------------------------------------
    @property
    def coercive_axes(self):
        """Per coordinate, whether the function grows superlinearly along that axis."""
        return np.full(self.dim, self.coercive)

    def _value(self, pts):
        return self._eval(pts)[0]

    def _grad(self, pts):
        return self._eval(pts)[1]

    def _curvature(self, pts):
        """Second derivatives f_i''(x_i) of a separable kind, shaped like pts."""
        raise NotImplementedError(f"{type(self).__name__} is not separable")

    def gap_factor(self, dual):
        """L with f(x) + dual(y) - x.y = |(y - grad f(x)) L|^2 / 2 when ``dual`` is this
        function's closed-form quadratic conjugate; None for every other pair."""
        return None

    def _eval(self, pts, hess=False, guess=None):
        """Values (K,) and gradients (K, dim) at the K rows of pts and, with ``hess``,
        Hessians (K, dim, dim), or (1, dim, dim) when constant (None without ``hess``).
        A kind that needs an inner solve returns all three from one; a nonsmooth kind's
        gradient is an element of its subdifferential.  A kind without Hessians raises
        ``NotImplementedError`` when asked, before it evaluates anything; here, a
        separable kind's is the diagonal of its ``_curvature``.

        ``guess``, shaped like pts, is a guess of the gradients.  Only a kind that
        solves for its gradient reads it, as the start of that solve; it changes how
        many iterations the solve takes, never what counts as a solution.  A ``Sum``
        does not hand it on: a guess of a sum's gradient is none of its parts'.  A
        ``SeparableSum`` does: a block's gradient is the block of the gradient.
        """
        if not self.separable:
            _no_hessian(self, hess)
        return (self._value(pts), self._grad(pts),
                _diagonal(self._curvature(pts)) if hess else None)

    def envelope_form(self):
        """``(envelope, a, b, c)`` when this function is a tabulated ``GridSampled`` plus
        sum_i (a_i/2) u_i^2 + b_i u_i + c, whose inner minimizations enumerate the
        envelope's facets; None for every other kind."""
        return None


def _no_hessian(fn, hess):
    if hess:
        raise NotImplementedError(f"{type(fn).__name__} has no Hessian")


def _diagonal(c):
    """Diagonal matrices, shape (K, d, d), with the rows of c (K, d) on their diagonals."""
    out = np.zeros(c.shape + c.shape[-1:])
    i = np.arange(c.shape[-1])
    out[:, i, i] = c
    return out


def _block_diagonal(blocks, slices, rows):
    """(rows, d, d) matrices with blocks[i] on slices[i]; a (1, d_i, d_i) one on every row."""
    out = np.zeros((rows, slices[-1].stop, slices[-1].stop))
    for h, sl in zip(blocks, slices):
        out[:, sl, sl] = h
    return out


class Quadratic(ConvexFn):
    """f(x) = x' A x / 2 + b . x + c with A symmetric positive semidefinite."""

    smooth = True

    def __init__(self, A, b=None, c: float = 0.0, box: Box | None = None):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        dim = A.shape[0]
        super().__init__(dim, box)
        # exact symmetry first: allclose costs about ten times array_equal
        if A.shape != (dim, dim) or not (np.array_equal(A, A.T)
                                         or np.allclose(A, A.T, atol=1e-10)):
            raise ValueError("A must be square symmetric")
        self.A = 0.5 * (A + A.T)
        self.b = np.zeros(dim) if b is None else np.asarray(b, dtype=float).reshape(dim)
        self.c = float(c)
        self._eigs = np.linalg.eigvalsh(self.A)
        if self._eigs.min() < -1e-10 * max(1.0, self._eigs.max()):
            raise ValueError("A must be positive semidefinite")
        # (primal, Cholesky factor of A) when this is primal's closed-form conjugate; kept
        # on the dual, where ``gap_factor`` reads it
        self._conjugate_of = None

    @property
    def coercive(self):
        return bool(self._eigs.min() > 1e-12 * max(1.0, self._eigs.max()))

    @property
    def separable(self):
        # A is diagonal: every nonzero entry lies on the diagonal
        return np.count_nonzero(self.A) == np.count_nonzero(np.diag(self.A))

    @property
    def coercive_axes(self):
        a = np.diag(self.A)
        return a > 1e-12 * np.maximum(1.0, a)

    def _value(self, pts):
        return 0.5 * np.einsum("mi,ij,mj->m", pts, self.A, pts) + pts @ self.b + self.c

    def _grad(self, pts):
        return pts @ self.A + self.b

    def _column_values(self, Z):
        """Values at the columns of Z (dim, K), each sum running along K."""
        v = np.multiply(self.A @ Z, Z).sum(axis=0)
        v *= 0.5
        v += self.b @ Z
        v += self.c
        return v

    def _curvature(self, pts):
        return np.broadcast_to(np.diag(self.A), pts.shape)

    def _eval(self, pts, hess=False, guess=None):
        # the constant matrix, also where A is diagonal
        return self._value(pts), self._grad(pts), (self.A[None] if hess else None)

    def gap_factor(self, dual):
        link = dual._conjugate_of if isinstance(dual, Quadratic) else None
        return link[1] if link is not None and link[0] is self else None

    def _pair(self):
        if not self.coercive:
            raise NotCoerciveError(
                "quadratic with singular curvature (an affine term has none) is not "
                "coercive; add a quadratic perturbation before conjugating"
            )
        Ainv = np.linalg.inv(self.A)
        bstar = -Ainv @ self.b
        cstar = 0.5 * self.b @ Ainv @ self.b - self.c
        dual = Quadratic(Ainv, bstar, cstar, box=self.box)
        # the gap (x'Ax/2 + b.x + c) + dual(y) - x.y completes to (r A^-1 r')/2 with
        # r = y - Ax - b; its factored form is a sum of squares, >= 0 in floating point
        try:
            dual._conjugate_of = (self, np.linalg.cholesky(dual.A))
        except np.linalg.LinAlgError:
            pass
        return self, dual


def squared_norm(dim: int, weight: float = 0.5, center=None, box: Box | None = None) -> Quadratic:
    """weight * |x - center|^2 as a Quadratic."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float).reshape(dim)
    A = 2.0 * weight * np.eye(dim)
    return Quadratic(A, -2.0 * weight * c, weight * float(c @ c), box=box)


def affine(slope, offset: float = 0.0, box: Box | None = None) -> Quadratic:
    """slope . x + offset as a Quadratic with zero curvature."""
    slope = np.atleast_1d(np.asarray(slope, dtype=float))
    return Quadratic(np.zeros((slope.size, slope.size)), slope, offset, box=box)


class PowerNorm(ConvexFn):
    """f(x) = scale * sum_i |x_i|^r with r > 1."""

    smooth = True
    coercive = True
    separable = True

    def __init__(self, r: float, scale: float = 1.0, dim: int = 1, box: Box | None = None):
        super().__init__(dim, box)
        if r <= 1:
            raise ValueError("exponent must exceed 1")
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.r = float(r)
        self.scale = float(scale)

    def _value(self, pts):
        return self.scale * np.sum(np.abs(pts) ** self.r, axis=-1)

    def _grad(self, pts):
        return self.scale * self.r * np.sign(pts) * np.abs(pts) ** (self.r - 1.0)

    def _curvature(self, pts):
        with np.errstate(divide="ignore"):
            return self.scale * self.r * (self.r - 1.0) * np.abs(pts) ** (self.r - 2.0)

    def _pair(self):
        r, a = self.r, self.scale
        s = r / (r - 1.0)
        astar = (a * r) ** (1.0 - s) / s
        return self, PowerNorm(s, astar, dim=self.dim, box=self.box)


class SeparableSum(ConvexFn):
    """f(x) = sum over blocks f_b(x_b) for a partition of the coordinates."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one part")
        dims = [p.dim for p in parts]
        # the blocks' boxes side by side: a block evaluates only inside its own
        box = Box(np.concatenate([p.box.lo for p in parts]),
                  np.concatenate([p.box.hi for p in parts]))
        super().__init__(sum(dims), box)
        self.parts = parts
        ends = np.cumsum(dims)
        self.slices = [slice(e - d, e) for d, e in zip(dims, ends)]

    @property
    def smooth(self):
        return all(p.smooth for p in self.parts)

    @property
    def coercive(self):
        return all(p.coercive for p in self.parts)

    @property
    def separable(self):
        return all(p.separable for p in self.parts)

    @property
    def coercive_axes(self):
        return np.concatenate([p.coercive_axes for p in self.parts])

    def _blocks(self, hook, pts, *args, guess=None):
        """Each part's ``hook`` on its own columns of pts, and of ``guess`` when one is
        given: the one place where a separable sum is its blocks."""
        return [getattr(p, hook)(pts[:, sl], *args,
                                 **({} if guess is None else {"guess": guess[:, sl]}))
                for p, sl in zip(self.parts, self.slices)]

    def _value(self, pts):
        return sum(self._blocks("_value", pts))

    def _grad(self, pts):
        return np.concatenate(self._blocks("_grad", pts), axis=1)

    def _curvature(self, pts):
        return np.concatenate(self._blocks("_curvature", pts), axis=1)

    def _eval(self, pts, hess=False, guess=None):
        vals, grads, blocks = zip(*self._blocks("_eval", pts, hess, guess=guess))
        return (sum(vals), np.concatenate(grads, axis=1),
                _block_diagonal(blocks, self.slices, pts.shape[0]) if hess else None)

    def _subgradients(self, pts):
        vals, unique = zip(*self._blocks("_subgradients", pts))
        return np.concatenate(vals, axis=1), np.logical_and.reduce(unique)

    def _pair(self):
        primals, duals = zip(*(p.conjugate_pair() for p in self.parts))
        if all(pp is p for pp, p in zip(primals, self.parts)):
            return self, SeparableSum(duals)
        return SeparableSum(primals), SeparableSum(duals)


class Sum(ConvexFn):
    """Pointwise sum of convex functions on the same space, on the overlap of their boxes
    (and of ``box``, when given)."""

    def __init__(self, parts, box: Box | None = None):
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one part")
        dim = parts[0].dim
        if any(p.dim != dim for p in parts):
            raise ValueError("all parts must share the same dimension")
        boxes = [p.box for p in parts] + ([] if box is None else [box])
        lo, hi = np.max([b.lo for b in boxes], axis=0), np.min([b.hi for b in boxes], axis=0)
        if not np.all(hi > lo):
            raise DomainError("the parts' boxes do not overlap")
        super().__init__(dim, Box(lo, hi))
        self.parts = parts

    @property
    def smooth(self):
        return all(p.smooth for p in self.parts)

    @property
    def coercive(self):
        return any(p.coercive for p in self.parts)

    @property
    def separable(self):
        return all(p.separable for p in self.parts)

    @property
    def coercive_axes(self):
        return np.logical_or.reduce([p.coercive_axes for p in self.parts])

    def _value(self, pts):
        return sum(p._value(pts) for p in self.parts)

    def _grad(self, pts):
        return sum(p._grad(pts) for p in self.parts)

    def _curvature(self, pts):
        return sum(p._curvature(pts) for p in self.parts)

    def _eval(self, pts, hess=False, guess=None):
        vals, grads, hessians = zip(*(p._eval(pts, hess) for p in self.parts))
        return sum(vals), sum(grads), (sum(hessians) if hess else None)

    def envelope_form(self):
        # one envelope plus quadratics with diagonal curvature (affine parts have none)
        forms = [p.envelope_form() for p in self.parts]
        if sum(f is not None for f in forms) != 1:
            return None
        env, a, b, c = next(f for f in forms if f is not None)
        a, b = a.copy(), b.copy()
        for p, f in zip(self.parts, forms):
            if f is not None:
                continue
            if not (isinstance(p, Quadratic) and p.separable):
                return None
            a += np.diag(p.A)
            b += p.b
            c += p.c
        return env, a, b, c

    def _subgradients(self, pts):
        vals, unique = zip(*(p._subgradients(pts) for p in self.parts))
        return sum(vals), np.logical_and.reduce(unique)

    def _pair(self):
        merged = simplify_sum(self.parts, self.box)
        if not isinstance(merged, Sum):
            primal, dual = merged.conjugate_pair()
            return (self if primal is merged else primal), dual
        # separable catalog kinds are smooth; along an axis where one grows superlinearly
        # f_i' strictly increases, so the conjugate is exact by inverting the gradient:
        # (f*)' = (f')^-1.  Coercive axes make the sum coercive even when no part is.
        if merged.separable and merged.coercive_axes.all():
            return merged, ScalarConjugate(merged)
        if not merged.coercive:
            raise NotCoerciveError(
                "sum is not coercive; add a quadratic perturbation before conjugating"
            )
        # a table plus a quadratic of positive diagonal curvature (the eps stage of a
        # tabulated H, or a joint grid + quadratic H) conjugates exactly
        form = merged.envelope_form()
        if form is not None and np.all(form[1] > 0):
            return merged, EnvelopeConjugate(merged)
        return _sampled_pair(merged)


def simplify_sum(parts, box=None):
    """Fold quadratic summands, affine ones included, together; returns a single fn or a Sum."""
    flat = []
    for p in parts:
        if isinstance(p, Sum):
            flat.extend(p.parts)
        else:
            flat.append(p)
    dim = flat[0].dim
    A = np.zeros((dim, dim))
    b = np.zeros(dim)
    c = 0.0
    rest = []
    hit = False
    for p in flat:
        if isinstance(p, Quadratic):
            A += p.A
            b += p.b
            c += p.c
            hit = True
        else:
            rest.append(p)
    box = box if box is not None else flat[0].box
    if hit:
        rest = [Quadratic(A, b, c, box=box)] + rest
    if len(rest) == 1:
        return rest[0]
    return Sum(rest, box=box)


class GridSampled(ConvexFn):
    """Convex envelope of samples tabulated on a uniform 1-D or 2-D grid: on the grid
    box, the max of the affine pieces over the samples' lower-hull facets; +inf
    outside the box.

    Its conjugate is ``GridConjugate``, the max over the grid nodes, and the
    two are exact conjugates: their Fenchel-Young gap is nonnegative and
    vanishes on the graph of the subdifferential.  The gradient is the facet
    gradient.  The facet table is built on first use, so that building the
    pair imports no scipy.
    """

    smooth = False
    coercive = True

    def __init__(self, grid: GridFn):
        super().__init__(grid.d, Box(grid.lo, grid.hi))
        self.grid = grid
        self._facets = None

    @classmethod
    def from_samples(cls, fn, lo, hi, counts):
        """Tabulate ``fn``, called once on all (K, d) nodes, on a uniform 1-D or 2-D grid."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        counts = np.broadcast_to(counts, lo.shape)
        axes = np.meshgrid(*map(np.linspace, lo, hi, counts), indexing="ij")
        vals = fn(np.column_stack([a.ravel() for a in axes]))
        return cls(GridFn(lo, hi, np.asarray(vals, dtype=float).reshape(tuple(counts))))

    @classmethod
    def from_csv(cls, path):
        """Load a two-column CSV (1-D) or header+matrix CSV (2-D).

        The shape of the table alone decides: a 2-D grid has at least 3 nodes
        per axis, so its table has at least 4 columns.  Malformed files raise
        ``ValueError``.
        """
        raw = np.genfromtxt(path, delimiter=",", dtype=float)
        if raw.ndim != 2:
            raise ValueError(f"{path}: expected at least two rows of comma-separated numbers")
        if raw.shape[1] == 2:
            data = raw[~np.isnan(raw[:, 0])]
            axes, vals = [data[:, 0]], data[:, 1]
        else:
            # header row carries the second-axis nodes; each row starts with a first-axis node
            axes, vals = [raw[1:, 0], raw[0, 1:]], raw[1:, 1:]
        for nodes in axes:
            if nodes.size < 3:
                raise ValueError(f"{path}: need at least 3 grid nodes per axis")
            d = np.diff(nodes)
            if not np.allclose(d, d[0], rtol=1e-8, atol=1e-12):
                raise ValueError(f"{path}: grid nodes are not uniform")
        return cls(GridFn([n[0] for n in axes], [n[-1] for n in axes], vals))

    @property
    def facets(self) -> FacetTable:
        if self._facets is None:
            self._facets = FacetTable.of_grid(self.grid)
        return self._facets

    def _eval(self, pts, hess=False, guess=None):
        _no_hessian(self, hess)
        vals, idx = self.facets.envelope(_locate(self.box, pts))
        return vals, self.facets.grad[idx], None

    def envelope_form(self):
        return self, np.zeros(self.dim), np.zeros(self.dim), 0.0

    def _pair(self):
        return self, GridConjugate(self)

    def _subgradients(self, pts):
        """Least-norm elements of the hulls of the facet gradients active at the rows; unique
        only where every active facet has the same gradient (off the kinks)."""
        # the planes of all rows at once; rows with the same number of active facets
        # search their hulls together
        pts = _locate(self.box, pts)
        fac = self.facets
        vals, unique = np.empty_like(pts), np.empty(pts.shape[0], dtype=bool)
        for sl in _row_chunks(pts.shape[0], fac.offset.size):
            planes = _affine(pts[sl], fac.grad, fac.offset)
            top = planes.max(axis=1)
            active = planes >= (top - 1e-12 * (1.0 + np.abs(top)))[:, None]
            count = active.sum(axis=1)
            for n in np.unique(count):
                rows = np.flatnonzero(count == n)
                grads = fac.grad[np.nonzero(active[rows])[1]].reshape(rows.size, n, self.dim)
                spread = np.max(grads.max(axis=1) - grads.min(axis=1), axis=1)
                unique[sl.start + rows] = spread <= 1e-9 * (1.0 + np.abs(grads).max(axis=(1, 2)))
                vals[sl.start + rows] = _least_norm_in_hull(grads)
        return vals, unique


def _least_norm_in_hull(P):
    """Point of least norm in the convex hull of the points P[k] (K, n, d), d = 1 or 2, for
    every k."""
    K, n, d = P.shape
    i, j = np.triu_indices(n, 1)
    A, E = P[:, i], P[:, j] - P[:, i]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(-np.sum(A * E, axis=2) / np.sum(E * E, axis=2), 0.0, 1.0)
    cand = np.concatenate([P, A + np.nan_to_num(t)[:, :, None] * E], axis=1)
    best = cand[np.arange(K), np.argmin(np.sum(cand * cand, axis=2), axis=1)]
    if d == 2:
        # the origin is inside the hull when no angular gap between the points reaches pi
        ang = np.sort(np.arctan2(P[:, :, 1], P[:, :, 0]), axis=1)
        gaps = np.diff(np.concatenate([ang, ang[:, :1] + 2 * np.pi], axis=1), axis=1)
        best[(gaps.max(axis=1) < np.pi) & np.any(best, axis=1)] = 0.0
    return best


class GridConjugate(ConvexFn):
    """max_j (x_j . y - f_j) over the nodes x_j of tabulated samples f_j.

    The exact conjugate of ``envelope``, the ``GridSampled`` convex envelope
    of the samples; finite everywhere, its gradient is the first maximizing
    node.  The working box is the range of the samples' node slopes.
    """

    smooth = False
    coercive = True  # conjugates exactly back to the envelope

    def __init__(self, envelope: GridSampled):
        grid = envelope.grid
        axes = [_default_dual_axis(grid, k) for k in range(grid.d)]
        super().__init__(grid.d, Box([ax[0] for ax in axes], [ax[1] for ax in axes]))
        self.envelope = envelope
        X = np.meshgrid(*(grid.axis_nodes(k) for k in range(grid.d)), indexing="ij")
        self.nodes = np.column_stack([c.ravel() for c in X])
        self.node_values = grid.values.ravel()

    def _scores(self, pts):
        return _affine(pts, self.nodes, -self.node_values)

    def _eval(self, pts, hess=False, guess=None):
        _no_hessian(self, hess)
        K = pts.shape[0]
        vals, grad = np.empty(K), np.empty_like(pts)
        for sl in _row_chunks(K, self.node_values.size):
            scores = self._scores(pts[sl])
            j = np.argmax(scores, axis=1)
            vals[sl] = scores[np.arange(j.size), j]
            grad[sl] = self.nodes[j]
        return vals, grad, None

    def _pair(self):
        return self, self.envelope


class EnvelopeConjugate(ConvexFn):
    """Exact conjugate of f = envelope + sum_i (a_i/2) u_i^2 + b . u + c with every
    a_i > 0, as ``fn.envelope_form()`` gives it.

    At y the supremum of y . u - f(u) is attained at the one u minimizing
    envelope(u) + sum_i (a_i/2) u_i^2 + (b - y) . u, found by one
    ``facet_argmin``; u is the gradient.  f* is the infimal convolution of
    envelope*, the ``GridConjugate`` maximum over the nodes, with
    sum_i w_i^2 / (2 a_i), taken at y - b, less c (Rockafellar, *Convex
    Analysis*, Thm 16.4).  The value is read in that form, envelope*(p) +
    sum_i a_i u_i^2 / 2 - c at p = y - b - a u: any u bounds the infimum from
    above, so rounding in u can only raise the value, and Fenchel-Young gaps stay
    nonnegative.  Smooth, without a Hessian.  The working box is the range of
    f's slopes.
    """

    smooth = True
    coercive = True  # conjugates exactly back to fn

    def __init__(self, fn: ConvexFn):
        env, self.a, self.b, self.c = fn.envelope_form()
        self.nodes = env.conjugate()
        super().__init__(fn.dim, Box(self.nodes.box.lo + self.b + self.a * env.box.lo,
                                     self.nodes.box.hi + self.b + self.a * env.box.hi))
        self.fn = fn
        self.envelope = env

    def _eval(self, pts, hess=False, guess=None):
        _no_hessian(self, hess)
        z = pts - self.b
        u = facet_argmin(self.envelope.facets, self.a, -z, *self._argmin_box(z))
        value = self.nodes._value(z - self.a * u) + 0.5 * np.sum(self.a * u * u, axis=1)
        return value - self.c, u, None

    def _pair(self):
        return self, self.fn

    def _argmin_box(self, z):
        """Per row, the bounding box of the nodes that can be active at p = z - a u.

        The minimizer u lies in the hull of the nodes active at p.  Since
        |p_i - z_i| = a_i |u_i| <= a_i U_i with U_i = max |box_i|, a node j active
        at p satisfies D(z) - score_j(z) <= sum_i |x_ji - x_*i| a_i U_i, where D is
        the node maximum and x_* the node attaining D(z); only such nodes bound
        the box.
        """
        D, box = self.nodes, self.envelope.box
        U = np.maximum(np.abs(box.lo), np.abs(box.hi))
        aU = self.a * U
        lo, hi = np.empty_like(z), np.empty_like(z)
        for sl in _row_chunks(z.shape[0], D.node_values.size):
            scores = D._scores(z[sl])
            j = np.argmax(scores, axis=1)
            top = scores[np.arange(j.size), j]
            reach = np.zeros_like(scores)
            for i in range(self.dim):
                reach += np.abs(D.nodes[None, :, i] - D.nodes[j, i][:, None]) * aU[i]
            slack = 1e-9 * (1.0 + np.abs(top) + np.abs(z[sl]) @ U
                            + np.abs(D.node_values).max())
            near = (top[:, None] - scores) <= reach * (1.0 + 1e-9) + slack[:, None]
            for i in range(self.dim):
                lo[sl, i] = np.min(np.where(near, D.nodes[:, i], np.inf), axis=1)
                hi[sl, i] = np.max(np.where(near, D.nodes[:, i], -np.inf), axis=1)
        return lo, hi


def _locate(box: Box, pts):
    """Points clipped onto a tabulated kind's box; DomainError beyond rounding of it."""
    lo, hi = box.lo, box.hi
    eps = 1e-9 * (hi - lo)
    outside = (pts < lo - eps) | (pts > hi + eps)
    if outside.any():
        bad = pts[outside.any(axis=1)][0]
        raise DomainError(f"point {bad} outside grid support [{lo}, {hi}]")
    return np.minimum(np.maximum(pts, lo), hi)


class ScalarConjugate(ConvexFn):
    """Exact conjugate of a smooth separable function coercive along every axis.

    Each f_i' strictly increases, so the conjugate is evaluated by inverting
    the gradient: at y the supremum is attained at u with fn._grad(u) = y,
    giving value <u, y> - fn(u) and gradient u.  All coordinates share one
    root call, in which each column is its own element.  Any approximate u
    underestimates the sup, so paired Fenchel gaps stay nonnegative up to the
    root-finder tolerance.

    An evaluation given a ``guess`` of its gradients starts each root there
    (where it lies inside the root's bracket): the Fenchel-Young gap passes the
    paired primal point x, which is the answer at zero gap.  The bracket and the
    tolerance do not depend on the guess, so it moves a root by at most that
    tolerance.
    """

    smooth = True
    coercive = True

    def __init__(self, fn: ConvexFn):
        if not fn.separable:
            raise ValueError("scalar conjugates take a coordinatewise separable function")
        super().__init__(fn.dim, fn.box)
        self.fn = fn

    def _argsup(self, y, start=None):
        """Attaining points u, shape (K, d), of the supremum at the (K, d) rows y, with
        Newton started at ``start`` where it is inside the bracket."""
        return newton_bisect(*newton_bracket(lambda u: self.fn._grad(u) - y,
                                             self.fn._curvature,
                                             np.zeros_like(y), 1.0 + np.abs(y)),
                             scale=1.0 + np.abs(y), start=start)

    def _eval(self, pts, hess=False, guess=None):
        u = self._argsup(pts, guess)
        value = np.sum(u * pts, axis=1) - self.fn._value(u)
        if not hess:
            return value, u, None
        # the Hessian of the conjugate inverts fn's at the attaining point: 1 / f_i''(u_i),
        # zero where f_i'' is unbounded
        with np.errstate(divide="ignore"):
            return value, u, _diagonal(1.0 / self.fn._curvature(u))

    def _pair(self):
        return self, self.fn


def _sampled_pair(fn: ConvexFn):
    if fn.dim > 2:
        raise ConjugateUnavailableError(
            f"no closed-form conjugate and grid fallback is limited to 2 dimensions "
            f"(got {fn.dim}); restructure the function as a separable sum"
        )
    counts = AUTO_GRID_1D if fn.dim == 1 else AUTO_GRID_2D
    return GridSampled.from_samples(fn.value, fn.box.lo, fn.box.hi, counts).conjugate_pair()


class Hamiltonian:
    """Convex function on phase space R^N x R^N, stored on stacked (p, q)."""

    def __init__(self, fn: ConvexFn, N: int):
        if fn.dim != 2 * N:
            raise ValueError(f"function dimension {fn.dim} does not match 2N = {2 * N}")
        self.fn = fn
        self.N = int(N)
        self._pair = None

    @property
    def dim(self):
        return 2 * self.N

    def split(self, xy):
        xy = np.asarray(xy, dtype=float)
        return xy[..., : self.N], xy[..., self.N :]

    def pair(self):
        """Consistent (primal, dual) Fenchel pair used by action assembly."""
        if self._pair is None:
            self._pair = self._build_pair()
        return self._pair

    def _build_pair(self):
        return self.fn.conjugate_pair()

    def value(self, xy):
        return self.fn.value(xy)

    def grad(self, xy):
        return self.fn.grad(xy)

    def subgradient(self, xy) -> SubgradientResult:
        return self.fn.subgradient(xy)

    @property
    def smooth(self):
        return self.fn.smooth
