"""Closed convex functions with conjugates, subgradients and proximal maps.

Every function carries a bounded working box: closed-form kinds evaluate
anywhere, but numerical conjugation, sampling checks and generic proximal
maps are confined to the box.  Conjugation of a non-coercive function is
refused; apply a quadratic perturbation first.

Each kind conjugates through one hook, ``_pair()``, which returns a
consistent (primal, dual) pair; ``conjugate_pair()`` caches it.  The primal is
the function itself wherever the dual is exact.  When the conjugate is only
available numerically, the primal is re-read through the same piecewise-linear
samples as the dual.  This keeps the Fenchel-Young inequality exact for the
pair, which downstream action assembly relies on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from hampath.legendre import GridFn, discrete_conjugate
from hampath.rootfind import newton_bisect, newton_bracket

AUTO_GRID_1D = 4001
AUTO_GRID_2D = 201


class NotCoerciveError(ValueError):
    """Conjugation refused: the function does not grow superlinearly."""


class ConjugateUnavailableError(ValueError):
    """No closed form and no feasible numerical fallback."""


class DomainError(ValueError):
    """Point outside the function's support (grid-backed kinds)."""


class ProxError(RuntimeError):
    """Inner minimization of a proximal map or an inf-convolution did not converge."""


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
    """Base class; subclasses implement batched _value / _grad / _prox."""

    smooth = False
    coercive = False

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
        if self.smooth:
            return SubgradientResult(self.grad(np.asarray(x, dtype=float).reshape(self.dim)), True)
        raise NotImplementedError

    # -- conjugation ---------------------------------------------------
    def conjugate(self) -> "ConvexFn":
        return self.conjugate_pair()[1]

    def conjugate_pair(self):
        """Consistent (primal, dual) pair whose Fenchel-Young gap is exactly >= 0."""
        if self._pair_cache is None:
            self._pair_cache = self._pair()
        return self._pair_cache

    def _pair(self):
        """This kind's (primal, dual); by default both are tabulated on the box."""
        if not self.coercive:
            raise NotCoerciveError(
                f"{type(self).__name__} is not coercive, so its conjugate is infinite "
                "somewhere; add a quadratic perturbation before conjugating"
            )
        return _sampled_pair(self)

    # -- proximal map ----------------------------------------------------
    def prox(self, x, step):
        if step <= 0:
            raise ValueError("step must be positive")
        pts, lead = _as_points(x, self.dim)
        u = self._prox(pts, float(step))
        return u[0] if lead == () else u.reshape(lead + (self.dim,))

    def _prox(self, pts, step):
        # separable kinds solve u - x + step f'(u) = 0 coordinate by coordinate
        pieces = self.scalar_pieces()
        if pieces is None:
            return penalized_argmin(self, pts, lambda w: (w @ w / (2 * step), w / step),
                                    self.box.lo, self.box.hi, ftol=1e-12, gtol=1e-10,
                                    maxiter=500)
        u = np.empty_like(pts)
        for i, piece in enumerate(pieces):
            x = pts[:, i]
            u[:, i] = newton_bisect(*newton_bracket(lambda v: v - x + step * piece.d1(v),
                                                    lambda v: 1.0 + step * piece.d2(v),
                                                    x, 1.0 + np.abs(x).max(initial=0.0)),
                                    scale=1.0 + np.abs(x))
        return u

    # -- structure hooks ------------------------------------------------
    def scalar_pieces(self):
        """Per-coordinate 1-D functions when the kind is coordinatewise separable."""
        return None

    def d1(self, t):
        raise NotImplementedError

    def d2(self, t):
        raise NotImplementedError

    def _value(self, pts):
        raise NotImplementedError

    def _grad(self, pts):
        raise NotImplementedError

    def _hess(self, pts):
        """Hessians at the K rows of pts, shape (K, dim, dim), or (1, dim, dim) when the
        Hessian is constant; kinds without one raise."""
        raise NotImplementedError(f"{type(self).__name__} has no Hessian")

    def gap_factor(self, dual):
        """L with f(x) + dual(y) - x.y = |(y - grad f(x)) L|^2 / 2 when ``dual`` is this
        function's closed-form quadratic conjugate; None for every other pair."""
        return None

    def _value_grad(self, pts):
        """Values and gradients at the same points; one inner solve where kinds need one."""
        return self._value(pts), self._grad(pts)

    def _cell_nodes(self):
        """Per-axis node coordinates of a tabulated kind, whose gradient jumps between cells.

        None for kinds that are not tabulated; a tabulated kind is also +inf
        outside its box.
        """
        return None


def penalized_argmin(f, pts, penalty, lo, hi, ftol, gtol, maxiter):
    """Per-row minimizers of f(u) + penalty(u - x) over the box [lo, hi], x a row of pts.

    ``penalty(w) -> (value, gradient)`` at one displacement.  Each row is its
    own L-BFGS-B solve on the exact gradient from ``f._value_grad``, so every
    row stops by its own tolerances.  A tabulated f kinks along its cell
    edges, where L-BFGS-B can stall short of the minimum, so a row that stops
    near an edge is solved again on each cell beside it (see ``_edge_cells``)
    and the lowest objective wins.
    """
    from scipy.optimize import minimize

    nodes = f._cell_nodes()
    options = {"ftol": ftol, "gtol": gtol, "maxiter": maxiter}
    out = np.empty_like(pts)
    for i, x in enumerate(pts):
        def obj(u, x=x):
            v, g = f._value_grad(u[None, :])
            pv, pg = penalty(u - x)
            return v[0] + pv, g[0] + pg

        x0 = np.clip(x, lo, hi)
        res = minimize(obj, x0, jac=True, method="L-BFGS-B", bounds=list(zip(lo, hi)),
                       options=options)
        if not res.success and res.fun > obj(x0)[0]:
            raise ProxError(f"inner minimization failed: {res.message}")
        out[i], best = res.x, res.fun
        for clo, chi in _edge_cells(nodes, res.x, lo, hi):
            again = minimize(obj, np.clip(res.x, clo, chi), jac=True, method="L-BFGS-B",
                             bounds=list(zip(clo, chi)), options=options)
            if again.fun < best:
                out[i], best = again.x, again.fun
    return out


def _edge_cells(nodes, u, lo, hi):
    """Boxes (lo, hi) of the cells beside an edge that u stops near; empty when none.

    On a cell the objective is smooth and the cell's edges are bounds, which
    L-BFGS-B meets exactly.  An axis whose coordinate lies within a hundredth
    of a cell width of an interior node contributes the cells on both sides
    of that node; every other axis keeps the cell that holds u.  (On
    tabulated quadratic data a thousandth of a cell missed some stalls; a
    hundredth caught all of them.)
    """
    if nodes is None:
        return []
    sides, near_any = [], False
    for e, t in zip(nodes, u):
        c = int(np.clip(np.searchsorted(e, t) - 1, 0, e.size - 2))
        n = c if t - e[c] <= e[c + 1] - t else c + 1
        if 0 < n < e.size - 1 and abs(t - e[n]) <= 1e-2 * (e[c + 1] - e[c]):
            sides.append([(e[n - 1], e[n]), (e[n], e[n + 1])])
            near_any = True
        else:
            sides.append([(e[c], e[c + 1])])
    if not near_any:
        return []
    boxes = []
    for cell in itertools.product(*sides):
        clo = np.maximum(lo, [a for a, _ in cell])
        chi = np.minimum(hi, [b for _, b in cell])
        if np.all(clo < chi):
            boxes.append((clo, chi))
    return boxes


class Quadratic(ConvexFn):
    """f(x) = x' A x / 2 + b . x + c with A symmetric positive semidefinite."""

    smooth = True

    def __init__(self, A, b=None, c: float = 0.0, box: Box | None = None):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        dim = A.shape[0]
        super().__init__(dim, box)
        if A.shape != (dim, dim) or not np.allclose(A, A.T, atol=1e-10):
            raise ValueError("A must be square symmetric")
        self.A = 0.5 * (A + A.T)
        self.b = np.zeros(dim) if b is None else np.asarray(b, dtype=float).reshape(dim)
        self.c = float(c)
        self._eigs = np.linalg.eigvalsh(self.A)
        if self._eigs.min() < -1e-10 * max(1.0, self._eigs.max()):
            raise ValueError("A must be positive semidefinite")
        # (primal, Cholesky factor of A) when this is primal's closed-form conjugate; kept
        # on the dual so that a pair built twice by racing threads stays consistent
        self._conjugate_of = None

    @property
    def coercive(self):
        return bool(self._eigs.min() > 1e-12 * max(1.0, self._eigs.max()))

    def _value(self, pts):
        return 0.5 * np.einsum("mi,ij,mj->m", pts, self.A, pts) + pts @ self.b + self.c

    def _grad(self, pts):
        return pts @ self.A + self.b

    def _hess(self, pts):
        return self.A[None]

    def gap_factor(self, dual):
        link = dual._conjugate_of if isinstance(dual, Quadratic) else None
        return link[1] if link is not None and link[0] is self else None

    def _pair(self):
        if not self.coercive:
            raise NotCoerciveError(
                "quadratic with singular curvature is not coercive; "
                "add a quadratic perturbation before conjugating"
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

    def _prox(self, pts, step):
        M = np.eye(self.dim) + step * self.A
        return np.linalg.solve(M, (pts - step * self.b).T).T

    def scalar_pieces(self):
        if self.dim == 1:
            return [self]
        if not np.allclose(self.A, np.diag(np.diag(self.A)), atol=0.0):
            return None
        pieces = []
        for i in range(self.dim):
            c = self.c if i == 0 else 0.0
            pieces.append(Quadratic([[self.A[i, i]]], [self.b[i]], c,
                                    box=Box([self.box.lo[i]], [self.box.hi[i]])))
        return pieces

    def d1(self, t):
        assert self.dim == 1
        return self.A[0, 0] * t + self.b[0]

    def d2(self, t):
        assert self.dim == 1
        return np.full_like(np.asarray(t, dtype=float), self.A[0, 0])


def squared_norm(dim: int, weight: float = 0.5, center=None, box: Box | None = None) -> Quadratic:
    """weight * |x - center|^2 as a Quadratic."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float).reshape(dim)
    A = 2.0 * weight * np.eye(dim)
    return Quadratic(A, -2.0 * weight * c, weight * float(c @ c), box=box)


class PowerNorm(ConvexFn):
    """f(x) = scale * sum_i |x_i|^r with r > 1."""

    smooth = True
    coercive = True

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

    def _pair(self):
        r, a = self.r, self.scale
        s = r / (r - 1.0)
        astar = (a * r) ** (1.0 - s) / s
        return self, PowerNorm(s, astar, dim=self.dim, box=self.box)

    def scalar_pieces(self):
        if self.dim == 1:
            return [self]
        return [PowerNorm(self.r, self.scale, dim=1,
                          box=Box([self.box.lo[i]], [self.box.hi[i]]))
                for i in range(self.dim)]

    def d1(self, t):
        assert self.dim == 1
        t = np.asarray(t, dtype=float)
        return self.scale * self.r * np.sign(t) * np.abs(t) ** (self.r - 1.0)

    def d2(self, t):
        assert self.dim == 1
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore"):
            return self.scale * self.r * (self.r - 1.0) * np.abs(t) ** (self.r - 2.0)


class Affine(ConvexFn):
    """f(x) = slope . x + offset."""

    smooth = True
    coercive = False

    def __init__(self, slope, offset: float = 0.0, box: Box | None = None):
        slope = np.atleast_1d(np.asarray(slope, dtype=float))
        super().__init__(slope.size, box)
        self.slope = slope
        self.offset = float(offset)

    def _value(self, pts):
        return pts @ self.slope + self.offset

    def _grad(self, pts):
        return np.broadcast_to(self.slope, pts.shape).copy()

    def _pair(self):
        raise NotCoerciveError(
            "an affine function conjugates to an indicator; "
            "add a quadratic perturbation before conjugating"
        )

    def _prox(self, pts, step):
        return pts - step * self.slope

    def scalar_pieces(self):
        if self.dim == 1:
            return [self]
        return [Affine([self.slope[i]], self.offset if i == 0 else 0.0,
                       box=Box([self.box.lo[i]], [self.box.hi[i]]))
                for i in range(self.dim)]

    def d1(self, t):
        assert self.dim == 1
        return np.full_like(np.asarray(t, dtype=float), self.slope[0])

    def d2(self, t):
        assert self.dim == 1
        return np.zeros_like(np.asarray(t, dtype=float))


class SeparableSum(ConvexFn):
    """f(x) = sum over blocks f_b(x_b) for a partition of the coordinates."""

    def __init__(self, parts, box: Box | None = None):
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one part")
        dims = [p.dim for p in parts]
        if box is None:
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

    def _value(self, pts):
        return sum(p._value(pts[:, sl]) for p, sl in zip(self.parts, self.slices))

    def _grad(self, pts):
        g = np.empty_like(pts)
        for p, sl in zip(self.parts, self.slices):
            g[:, sl] = p._grad(pts[:, sl])
        return g

    def _value_grad(self, pts):
        vg = [p._value_grad(pts[:, sl]) for p, sl in zip(self.parts, self.slices)]
        return sum(v for v, _ in vg), np.concatenate([g for _, g in vg], axis=1)

    def subgradient(self, x):
        x = np.asarray(x, dtype=float).reshape(self.dim)
        vals, uniq = [], True
        for p, sl in zip(self.parts, self.slices):
            res = p.subgradient(x[sl])
            vals.append(np.atleast_1d(res.value))
            uniq = uniq and res.is_unique
        return SubgradientResult(np.concatenate(vals), uniq)

    def _pair(self):
        primals, duals = zip(*(p.conjugate_pair() for p in self.parts))
        if all(pp is p for pp, p in zip(primals, self.parts)):
            return self, SeparableSum(duals)
        return SeparableSum(primals), SeparableSum(duals)

    def _prox(self, pts, step):
        u = np.empty_like(pts)
        for p, sl in zip(self.parts, self.slices):
            u[:, sl] = p._prox(pts[:, sl], step)
        return u

    def scalar_pieces(self):
        pieces = []
        for p in self.parts:
            sp = p.scalar_pieces()
            if sp is None:
                return None
            pieces.extend(sp)
        return pieces


class Sum(ConvexFn):
    """Pointwise sum of convex functions on the same space."""

    def __init__(self, parts, box: Box | None = None):
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one part")
        dim = parts[0].dim
        if any(p.dim != dim for p in parts):
            raise ValueError("all parts must share the same dimension")
        super().__init__(dim, box if box is not None else parts[0].box)
        self.parts = parts

    @property
    def smooth(self):
        return all(p.smooth for p in self.parts)

    @property
    def coercive(self):
        return any(p.coercive for p in self.parts)

    def _value(self, pts):
        return sum(p._value(pts) for p in self.parts)

    def _grad(self, pts):
        return sum(p._grad(pts) for p in self.parts)

    def _value_grad(self, pts):
        vals, grads = zip(*(p._value_grad(pts) for p in self.parts))
        return sum(vals), sum(grads)

    def _cell_nodes(self):
        nodes = [n for n in (p._cell_nodes() for p in self.parts) if n is not None]
        if not nodes:
            return None
        return tuple(np.unique(np.concatenate(axis)) for axis in zip(*nodes))

    def subgradient(self, x):
        x = np.asarray(x, dtype=float).reshape(self.dim)
        total = np.zeros(self.dim)
        uniq = True
        for p in self.parts:
            res = p.subgradient(x)
            total += res.value
            uniq = uniq and res.is_unique
        return SubgradientResult(total, uniq)

    def _pair(self):
        merged = simplify_sum(self.parts, self.box)
        if not isinstance(merged, Sum):
            primal, dual = merged.conjugate_pair()
            return (self if primal is merged else primal), dual
        pieces = merged.scalar_pieces()
        # catalog pieces are smooth; a coercive one has a strictly increasing
        # derivative, so its conjugate is exact by inverting it: (f*)' = (f')^-1.
        # Coercive pieces make the sum coercive even when no single part is.
        if pieces is not None and all(p.coercive for p in pieces):
            return merged, SeparableSum([ScalarConjugate(p) for p in pieces])
        if not merged.coercive:
            raise NotCoerciveError(
                "sum is not coercive; add a quadratic perturbation before conjugating"
            )
        return _sampled_pair(merged)

    def scalar_pieces(self):
        per_part = [p.scalar_pieces() for p in self.parts]
        if any(sp is None for sp in per_part):
            return None
        return [Sum([sp[i] for sp in per_part]) for i in range(self.dim)]

    def d1(self, t):
        assert self.dim == 1
        return sum(p.d1(t) for p in self.parts)

    def d2(self, t):
        assert self.dim == 1
        return sum(p.d2(t) for p in self.parts)


def simplify_sum(parts, box=None):
    """Fold quadratic and affine summands together; returns a single fn or a Sum."""
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
        elif isinstance(p, Affine):
            b += p.slope
            c += p.offset
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
    """Function tabulated on a uniform grid, read by multilinear interpolation.

    Conjugation is always available and is exact for the piecewise-linear
    interpolant restricted to the grid box.
    """

    smooth = False
    coercive = True

    def __init__(self, grid: GridFn):
        super().__init__(grid.d, Box(grid.lo, grid.hi))
        self.grid = grid
        self._dual_of = None

    @classmethod
    def from_samples(cls, fn, lo, hi, counts):
        """Tabulate ``fn``, called once on all (K, d) nodes, on a uniform 1-D or 2-D grid."""
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        counts = np.broadcast_to(counts, lo.shape)
        axes = np.meshgrid(*map(np.linspace, lo, hi, counts), indexing="ij")
        vals = fn(np.column_stack([a.ravel() for a in axes]))
        return cls(GridFn(lo, hi, np.asarray(vals, dtype=float).reshape(tuple(counts))))

    def to_csv(self, path) -> None:
        """Write a two-column CSV (1-D) or header+matrix CSV (2-D)."""
        g = self.grid
        with open(path, "w") as fh:
            if self.dim == 1:
                for x, v in zip(g.axis_nodes(0), g.values):
                    fh.write(f"{x:.17g},{v:.17g}\n")
                return
            fh.write("x," + ",".join(f"{y:.17g}" for y in g.axis_nodes(1)) + "\n")
            for i, x in enumerate(g.axis_nodes(0)):
                fh.write(",".join([f"{x:.17g}"]
                                  + [f"{v:.17g}" for v in g.values[i]]) + "\n")

    @classmethod
    def from_csv(cls, path):
        """Load a two-column CSV (1-D) or header+matrix CSV (2-D)."""
        with open(path) as fh:
            first = fh.readline()
        cells = [c.strip() for c in first.strip().split(",")]

        def _is_num(s):
            try:
                float(s)
                return True
            except ValueError:
                return False

        raw = np.genfromtxt(path, delimiter=",", dtype=float)
        if raw.ndim == 2 and raw.shape[1] == 2 and (_is_num(cells[0]) or len(cells) == 2):
            data = raw[~np.isnan(raw[:, 0])]
            x, v = data[:, 0], data[:, 1]
            dx = np.diff(x)
            if not np.allclose(dx, dx[0], rtol=1e-8, atol=1e-12):
                raise ValueError(f"{path}: grid nodes are not uniform")
            return cls(GridFn([x[0]], [x[-1]], v))
        # header row carries the second-axis nodes; each row starts with a first-axis node
        y = raw[0, 1:]
        x = raw[1:, 0]
        vals = raw[1:, 1:]
        for nodes in (x, y):
            d = np.diff(nodes)
            if not np.allclose(d, d[0], rtol=1e-8, atol=1e-12):
                raise ValueError(f"{path}: grid nodes are not uniform")
        return cls(GridFn([x[0], y[0]], [x[-1], y[-1]], vals))

    def _locate(self, pts):
        lo, hi = self.box.lo, self.box.hi
        eps = 1e-9 * (hi - lo)
        outside = (pts < lo - eps) | (pts > hi + eps)
        if outside.any():
            bad = pts[outside.any(axis=1)][0]
            raise DomainError(f"point {bad} outside grid support [{lo}, {hi}]")
        return np.minimum(np.maximum(pts, lo), hi)

    def _value(self, pts):
        return self._value_grad(pts)[0]

    def _value_grad(self, pts):
        """Interpolant values with its gradient inside the cell that holds each point.

        The gradient is the segment slope (1-D) or the bilinear cell gradient
        (2-D); on a cell edge it is the one-sided gradient of the cell above.
        """
        pts = self._locate(pts)
        V = self.grid.values
        x1, h1 = self.grid.axis_nodes(0), self.grid.spacing(0)
        i = np.minimum(np.maximum(((pts[:, 0] - x1[0]) / h1).astype(int), 0), x1.size - 2)
        if self.dim == 1:
            return np.interp(pts[:, 0], x1, V), ((V[i + 1] - V[i]) / h1)[:, None]
        x2, h2 = self.grid.axis_nodes(1), self.grid.spacing(1)
        j = np.minimum(np.maximum(((pts[:, 1] - x2[0]) / h2).astype(int), 0), x2.size - 2)
        t = (pts[:, 0] - x1[i]) / h1
        u = (pts[:, 1] - x2[j]) / h2
        n2 = x2.size
        k = i * n2 + j  # corner (i, j) in the row-major values
        flat = V.ravel()
        v00, v10, v01, v11 = flat[k], flat[k + n2], flat[k + 1], flat[k + n2 + 1]
        s, w = 1 - t, 1 - u
        grad = np.empty_like(pts)
        grad[:, 0] = (w * (v10 - v00) + u * (v11 - v01)) / h1
        grad[:, 1] = (s * (v01 - v00) + t * (v11 - v10)) / h2
        return s * w * v00 + t * w * v10 + s * u * v01 + t * u * v11, grad

    def _cell_nodes(self):
        return tuple(self.grid.axis_nodes(k) for k in range(self.dim))

    def _pair(self):
        # box-restricted semantics: boundary argmaxes are exact here, so the
        # dual-box diagnostic of the raw transform is disabled; a dual grid
        # conjugates back onto the grid it came from
        src = self._dual_of
        dual_box = {} if src is None else {"dual_lo": src.grid.lo, "dual_hi": src.grid.hi,
                                           "dual_counts": src.grid.counts}
        dual = GridSampled(discrete_conjugate(self.grid, boundary_frac=1.0, **dual_box))
        dual._dual_of = self
        return self, dual

    def subgradient(self, x):
        x = np.asarray(x, dtype=float).reshape(self.dim)
        conj = self.conjugate()
        if self.dim == 1:
            y = conj.grid.axis_nodes(0)
            scores = x[0] * y - conj.grid.values
            m = scores.max()
            ties = y[scores >= m - 1e-9 * (1.0 + abs(m))]
            g = ties[np.argmin(np.abs(ties))]
            spread = ties.max() - ties.min()
            return SubgradientResult(np.array([g]), bool(spread <= 2.5 * conj.grid.spacing(0)))
        y1 = conj.grid.axis_nodes(0)
        y2 = conj.grid.axis_nodes(1)
        Y1, Y2 = np.meshgrid(y1, y2, indexing="ij")
        scores = x[0] * Y1 + x[1] * Y2 - conj.grid.values
        m = scores.max()
        mask = scores >= m - 1e-9 * (1.0 + abs(m))
        cand = np.column_stack([Y1[mask], Y2[mask]])
        g = cand[np.argmin(np.sum(cand**2, axis=1))]
        spread = np.max(cand.max(axis=0) - cand.min(axis=0))
        h = max(conj.grid.spacing(0), conj.grid.spacing(1))
        return SubgradientResult(g, bool(spread <= 2.5 * h))

    def _prox(self, pts, step):
        if self.dim == 1:
            return self._prox_1d(pts, step)
        return super()._prox(pts, step)

    def _prox_1d(self, pts, step):
        x = self.grid.axis_nodes(0)
        v = self.grid.values
        slopes = np.diff(v) / np.diff(x)
        out = np.empty_like(pts)
        for k, p in enumerate(pts[:, 0]):
            # on each linear segment the minimizer is p - step*slope clipped in
            cand = np.clip(p - step * slopes, x[:-1], x[1:])
            vals = np.interp(cand, x, v) + (cand - p) ** 2 / (2 * step)
            best = np.argmin(vals)
            out[k, 0] = cand[best]
        return out


class ScalarConjugate(ConvexFn):
    """Exact conjugate of a smooth coercive 1-D piece, whose derivative strictly increases.

    Evaluated by inverting the derivative: at y the supremum is attained at
    u with piece.d1(u) = y, giving value u y - piece(u) and gradient u.  Any
    approximate u underestimates the sup, so paired Fenchel gaps stay
    nonnegative up to the root-finder tolerance.
    """

    smooth = True
    coercive = True

    def __init__(self, piece: ConvexFn):
        if piece.dim != 1:
            raise ValueError("scalar conjugates take 1-D pieces")
        super().__init__(1, piece.box)
        self.piece = piece

    def _argsup(self, y):
        return newton_bisect(*newton_bracket(lambda u: self.piece.d1(u) - y, self.piece.d2,
                                             np.zeros_like(y), 1.0 + np.abs(y).max(initial=0.0)),
                             scale=1.0 + np.abs(y))

    def _value(self, pts):
        return self._value_grad(pts)[0]

    def _grad(self, pts):
        return self._argsup(pts[:, 0])[:, None]

    def _value_grad(self, pts):
        y = pts[:, 0]
        u = self._argsup(y)
        return u * y - self.piece.value(u[:, None]), u[:, None]

    def _pair(self):
        return self, self.piece

    def _prox(self, pts, step):
        # Moreau decomposition through the piece's own proximal map
        inner = self.piece._prox(pts / step, 1.0 / step)
        return pts - step * inner


class MoreauEnvelope(ConvexFn):
    """Smoothed reading of ``inner``: min_u inner(u) + |u - x|^2 / (2 step).

    Always differentiable with a 1/step-Lipschitz gradient.
    """

    smooth = True

    def __init__(self, inner: ConvexFn, step: float):
        if step <= 0:
            raise ValueError("step must be positive")
        super().__init__(inner.dim, inner.box)
        self.inner = inner
        self.step = float(step)

    @property
    def coercive(self):
        return self.inner.coercive

    def _value(self, pts):
        return self._value_grad(pts)[0]

    def _grad(self, pts):
        return (pts - self.inner._prox(pts, self.step)) / self.step

    def _value_grad(self, pts):
        p = self.inner._prox(pts, self.step)
        return (self.inner._value(p) + np.sum((pts - p) ** 2, axis=-1) / (2 * self.step),
                (pts - p) / self.step)

    def _pair(self):
        ip, idual = self.inner.conjugate_pair()
        dual = simplify_sum([idual, Quadratic(self.step * np.eye(self.dim), box=idual.box)])
        return (self if ip is self.inner else MoreauEnvelope(ip, self.step)), dual

    def _prox(self, pts, step):
        inner_p = self.inner._prox(pts, step + self.step)
        return pts + (step / (step + self.step)) * (inner_p - pts)


def _sampled_pair(fn: ConvexFn):
    if fn.dim > 2:
        raise ConjugateUnavailableError(
            f"no closed-form conjugate and grid fallback is limited to 2 dimensions "
            f"(got {fn.dim}); restructure the function as a separable sum"
        )
    counts = AUTO_GRID_1D if fn.dim == 1 else AUTO_GRID_2D
    return GridSampled.from_samples(fn.value, fn.box.lo, fn.box.hi, counts).conjugate_pair()


def convexity_violation(fn: ConvexFn, rng: np.random.Generator, samples: int = 200) -> float:
    """Worst violation of the convexity inequality on random box segments."""
    x = fn.box.sample(rng, samples)
    y = fn.box.sample(rng, samples)
    t = rng.uniform(0.0, 1.0, size=samples)[:, None]
    mid = t * x + (1 - t) * y
    lhs = fn.value(mid)
    rhs = t[:, 0] * fn.value(x) + (1 - t[:, 0]) * fn.value(y)
    return float(np.max(lhs - rhs))


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

    def conjugate(self) -> ConvexFn:
        return self.pair()[1]

    def value(self, xy):
        return self.fn.value(xy)

    def grad(self, xy):
        return self.fn.grad(xy)

    def subgradient(self, xy) -> SubgradientResult:
        return self.fn.subgradient(xy)

    @property
    def smooth(self):
        return self.fn.smooth
