"""Two smoothing continuations for Hamiltonians.

``EpsPerturbed`` adds (eps/2)|x|^2, which makes the conjugate finite and
1/eps-Lipschitz-smooth: the infimal convolution of the original conjugate
with |.|^2 / (2 eps), over a tabulated pair an ``EnvelopeConjugate`` that
one facet enumeration evaluates.
``InfConvolved`` replaces H by an infimal convolution with the
penalty |.|_s^s / (s lambda^s), s = r/(r-1) in (1, 2).  The conjugate of an
inf-convolution is the sum of the conjugates (Rockafellar, *Convex
Analysis*, Thm 16.4), so the stage's dual is H* plus the power term
(lambda^r / r) * sum |.|^r, and the penalty is that term's ``PowerNorm``
conjugate.
"""

from __future__ import annotations

import numpy as np

from hampath.convex import (
    ConvexFn,
    Hamiltonian,
    PowerNorm,
    Quadratic,
    SeparableSum,
    Sum,
    _block_diagonal,
    _diagonal,
    simplify_sum,
)
from hampath.polyhedral import facet_argmin
from hampath.rootfind import NEWTON_ITERS, RootFindError, newton_bisect

# rounds of narrowing the facet-enumeration box of an inf-convolution inner solve; on
# the 41 x 41 grid_cauchy data the first round leaves about 80 facets per row, the
# second about 2, and later rounds change little
NARROWING_ROUNDS = 3


def _perturbed(fn: ConvexFn, eps: float) -> ConvexFn:
    """fn + (eps/2)|x|^2, block by block over a separable sum, so that every block
    keeps its own kind of conjugate."""
    if isinstance(fn, SeparableSum):
        return SeparableSum([_perturbed(p, eps) for p in fn.parts])
    return simplify_sum([fn, Quadratic(eps * np.eye(fn.dim), box=fn.box)])


class EpsPerturbed(Hamiltonian):
    """Hamiltonian plus (eps/2)|x|^2 on phase space."""

    def __init__(self, base: Hamiltonian, eps: float):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.base = base
        self.eps = float(eps)
        super().__init__(_perturbed(base.fn, self.eps), base.N)

    # bound on this class too, so instrumentation can wrap EpsPerturbed.pair by name
    pair = Hamiltonian.pair

    def _build_pair(self):
        # a smooth base pair has smooth, exact blocks, and so has its perturbation
        if not self.base.fn.coercive or all(f.smooth for f in self.base.pair()):
            return self.fn.conjugate_pair()
        # perturbing the cached base primal, a table or blocks of one, pairs it with its
        # exact conjugate and tabulates nothing more
        return _perturbed(self.base.pair()[0], self.eps).conjugate_pair()


class _InfConvFn(ConvexFn):
    """Primal side of the inf-convolution; evaluated by inner minimization.

    The penalty is coordinatewise, so the inner problem splits along the blocks
    of a separable sum.  It is one root call over all coordinates for a
    separable primal, on its own gradient and curvature; an enumeration of
    facets for a tabulated envelope plus a separable quadratic (the eps stage of
    a grid-backed H); and batched Newton in the dual for a coupled quadratic.
    The separable and the quadratic solves also yield the Hessian of H_lam, and a
    separable sum of them a block-diagonal one; the facet enumeration yields none.
    """

    smooth = True
    coercive = True

    def __init__(self, base_primal: ConvexFn, base_dual: ConvexFn, lam: float, r: float):
        super().__init__(base_primal.dim, base_primal.box)
        self.base_primal = base_primal
        self.base_dual = base_dual
        self.lam = float(lam)
        self.r = float(r)
        # the dual's power term and its conjugate, the penalty |w|^s / (s lam^s) with
        # s = r/(r-1); the penalty conjugates back to this very term
        self.dual_term = PowerNorm(self.r, self.lam**self.r / self.r, dim=self.dim,
                                   box=base_dual.box)
        self.power = self.dual_term.conjugate()
        self.power._pair_cache = (self.power, self.dual_term)

    def penalty(self, w):
        return self.power._value(w)

    def minimizers(self, pts):
        """Attaining points u*(x) of the inner minimization, shape like pts."""
        return self._attain(self.base_primal)(pts)[0]

    def _attain(self, f, hess=False):
        """The inner solve over the primal ``f`` (the base primal, or one block of it): a
        map from points to the attaining points u*(x) and the gradients of H_lam, both
        shaped like the points, and with ``hess`` the Hessians of H_lam (else None).
        A primal without an inner solve, or without Hessians when they are asked,
        raises ``NotImplementedError`` here, before any solve runs."""
        if f.separable:
            return lambda pts: self._attain_separable(pts, f, hess)
        if isinstance(f, SeparableSum):
            solves = [self._attain(p, hess) for p in f.parts]

            def blocks(pts):
                us, gs, hs = zip(*(s(pts[:, sl]) for s, sl in zip(solves, f.slices)))
                return (np.concatenate(us, axis=1), np.concatenate(gs, axis=1),
                        _block_diagonal(hs, f.slices, pts.shape[0]) if hess else None)
            return blocks
        if isinstance(f, Quadratic):
            return lambda pts: self._attain_quadratic(pts, f, hess)
        form = f.envelope_form()
        if form is None:
            raise NotImplementedError(f"no inf-convolution inner solve over "
                                      f"{type(f).__name__}")
        if hess:
            raise NotImplementedError("an inf-convolution over a tabulated function has "
                                      "no Hessian")
        return lambda pts: self._attain_facets(pts, *form[:3])

    def _attain_separable(self, pts, f, hess):
        """Minimizers, gradients of H_lam and, with ``hess``, its Hessians at pts, all
        coordinates in one root call.

        The stationarity equation f_i'(u_i) + penalty'(u_i - x_i) = 0 is solved in
        the penalty slope v = sign(w)|w|^(s-1) of w = u - x, in which
        w = sign(v)|v|^(r-1) and penalty'(w) = v / lam^s.  Its residual
        rho(v) = f'(x + w) + v / lam^s increases with slope at least 1/lam^s,
        also at v = 0, where the slope in w is unbounded; the root lies between
        0 and -lam^s f'(x), and grad H_lam = -v / lam^s.  The Hessian is the parallel
        sum of the primal's and the penalty's at u: per coordinate
        1 / (1/f''(u) + lam^s (r-1) |v|^(r-2)), which stays finite at v = 0 and where
        f'' is unbounded.
        """
        r, c = self.r, self.lam**self.power.r
        g = f._grad(pts)

        def rho_drho(v):
            a = np.abs(v)
            u = pts + np.sign(v) * a ** (r - 1.0)
            # inf * 0 where f'' is unbounded at u = x (|u|^p terms with p < 2 at 0);
            # newton_bisect bisects on the non-finite slope
            with np.errstate(invalid="ignore"):
                dw = f._curvature(u) * ((r - 1.0) * a ** (r - 2.0))
            return f._grad(u) + v / c, dw + 1.0 / c

        end = -c * g
        v = newton_bisect(rho_drho, np.minimum(end, 0.0), np.maximum(end, 0.0),
                          scale=1.0 + np.abs(g))
        u = pts + np.sign(v) * np.abs(v) ** (r - 1.0)
        if not hess:
            return u, -v / c, None
        with np.errstate(divide="ignore"):
            curv = 1.0 / (1.0 / f._curvature(u) + c * (r - 1.0) * np.abs(v) ** (r - 2.0))
        return u, -v / c, _diagonal(curv)

    def _attain_facets(self, pts, env, a, b):
        """Minimizers and gradients of H_lam at pts, by facet enumeration for
        envelope(u) + sum_i (a_i/2) u_i^2 + b_i u_i, and no Hessians.

        At the minimizer, |penalty'(u_i - x_i)| = |g_i + a_i u_i + b_i| for a g in
        the envelope's subdifferential, so |u_i - x_i| <= lam^r G_i^(r-1) with G_i
        bounding that sum: the dual term's derivative inverts the penalty's.
        Clipped to the box, the interval also holds the minimizers that the box
        stops.  Each round bounds G_i again over the facets and points of the
        current box, which narrows it.
        """
        lo = np.broadcast_to(env.box.lo, pts.shape)
        hi = np.broadcast_to(env.box.hi, pts.shape)
        G = np.broadcast_to(env.facets.grad_bound, pts.shape)
        for k in range(NARROWING_ROUNDS):
            if k:
                G = env.facets.grad_bound_in(lo, hi)
            bound = G + np.abs(b) + a * np.maximum(np.abs(lo), np.abs(hi))
            w = self.dual_term._grad(bound * (1.0 + 1e-9)) + 1e-12 * (env.box.hi - env.box.lo)
            lo = np.maximum(lo, np.clip(pts - w, env.box.lo, env.box.hi))
            hi = np.minimum(hi, np.clip(pts + w, env.box.lo, env.box.hi))
        u = facet_argmin(env.facets, a, np.broadcast_to(b, pts.shape), lo, hi, self.power, pts)
        return u, self.power._grad(pts - u), None

    def _attain_quadratic(self, pts, f, hess):
        """Attaining points and gradients over a coupled quadratic f, solved in the dual,
        and with ``hess`` the Hessians of H_lam.

        The gradient g of H_lam at x solves grad f*(g) + grad P*(g) = x, P* the dual
        power term: the gradient of the strictly convex merit f*(g) + P*(g) - x.g,
        whose Jacobian J = A^-1 + P*''(g) is positive definite.  Batched Newton starts
        at g = grad f(x); a row stops once every |F| <= 1e-12 (1 + |x|), and a
        halved step is kept when the merit or the largest residual falls (near the
        root the merit's fall is below rounding).  Then u = x - grad P*(g), and the
        Hessian of H_lam, the Jacobian of g in x, is J^-1 at the accepted g: H_lam* is
        f* + P* (the conjugate of an inf-convolution is the sum of the conjugates).
        """
        fstar, P = f.conjugate_pair()[1], self.dual_term
        tol = 1e-12 * (1.0 + np.abs(pts))

        def merit(g, x):
            # the merit, its gradient F and its Jacobian
            (a, ga, ha), (b, gb, hb) = fstar._eval(g, True), P._eval(g, True)
            return a + b - np.sum(x * g, axis=1), ga + gb - x, ha + hb

        g = f._grad(pts)
        # each row's last Jacobian is the one at its accepted g
        jac = np.empty(pts.shape + pts.shape[-1:]) if hess else None
        live = np.arange(pts.shape[0])
        for _ in range(NEWTON_ITERS):
            phi, F, J = merit(g[live], pts[live])
            if hess:
                jac[live] = J
            left = ~np.all(np.abs(F) <= tol[live], axis=1)
            if not left.any():
                return pts - P._grad(g), g, (np.linalg.inv(jac) if hess else None)
            live, phi, F, J = live[left], phi[left], F[left], J[left]
            step = np.linalg.solve(J, -F[:, :, None])[:, :, 0]
            worst = np.max(np.abs(F), axis=1)
            t, pending = 1.0, np.ones(live.size, dtype=bool)
            while pending.any() and t > 1e-12:
                rows = np.flatnonzero(pending)
                trial = g[live[rows]] + t * step[rows]
                phi_t, F_t, _ = merit(trial, pts[live[rows]])
                keep = (phi_t < phi[rows]) | (np.max(np.abs(F_t), axis=1) < worst[rows])
                g[live[rows[keep]]] = trial[keep]
                pending[rows[keep]] = False
                t *= 0.5
        raise RootFindError(f"inf-convolution inner solve over a quadratic stalled after "
                            f"{NEWTON_ITERS} Newton iterations")

    def _eval(self, pts, hess=False, guess=None):
        u, g, hessians = self._attain(self.base_primal, hess)(pts)
        return self.base_primal._value(u) + self.penalty(pts - u), g, hessians

    def _pair(self):
        return self, Sum([self.base_dual, self.dual_term])


class InfConvolved(Hamiltonian):
    """Inf-convolution of a coercive Hamiltonian with a power penalty."""

    def __init__(self, base: Hamiltonian, lam: float, r: float = 4.0):
        if lam <= 0:
            raise ValueError("lambda must be positive")
        if r <= 2:
            raise ValueError("inf-convolution exponent must exceed 2")
        self.base = base
        self.lam = float(lam)
        self.r = float(r)
        bp, bd = base.pair()  # raises for non-coercive bases
        fn = _InfConvFn(bp, bd, lam, r)
        super().__init__(fn, base.N)

    def attaining_points(self, p, q):
        """Unique minimizers realizing the inf-convolution at (p, q).

        ``p`` and ``q`` are one point, shape (N,), or a stack of K points,
        shape (K, N), solved together in one inner minimization; the
        returned pair has the shape of the inputs.
        """
        p = np.atleast_1d(np.asarray(p, dtype=float))
        q = np.atleast_1d(np.asarray(q, dtype=float))
        xy = np.concatenate([p, q], axis=-1)
        u = self.fn.minimizers(np.atleast_2d(xy)).reshape(xy.shape)
        return u[..., : self.N], u[..., self.N:]

