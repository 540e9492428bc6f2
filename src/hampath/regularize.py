"""Two smoothing continuations for Hamiltonians.

``EpsPerturbed`` adds (eps/2)|x|^2, which makes the conjugate finite and
1/eps-Lipschitz-smooth (it becomes the Moreau envelope of the original
conjugate).  ``InfConvolved`` replaces H by an infimal convolution with the
penalty |.|_s^s / (s lambda^s), s = r/(r-1) in (1, 2).  The conjugate of an
inf-convolution is the sum of the conjugates (Rockafellar, *Convex
Analysis*, Thm 16.4), so the stage's dual is H* plus the power term
(lambda^r / r) * sum |.|^r, and the penalty is that term's ``PowerNorm``
conjugate.
"""

from __future__ import annotations

import numpy as np

from hampath.convex import (
    ConjugateUnavailableError,
    ConvexFn,
    Hamiltonian,
    MoreauEnvelope,
    PowerNorm,
    Quadratic,
    Sum,
    _diagonal,
    penalized_argmin,
    simplify_sum,
)
from hampath.polyhedral import facet_argmin
from hampath.rootfind import newton_bisect

# rounds of narrowing the facet-enumeration box of an inf-convolution inner solve; on
# the 41 x 41 grid_cauchy data the first round leaves about 80 facets per row, the
# second about 2, and later rounds change little
NARROWING_ROUNDS = 3


class EpsPerturbed(Hamiltonian):
    """Hamiltonian plus (eps/2)|x|^2 on phase space."""

    def __init__(self, base: Hamiltonian, eps: float):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.base = base
        self.eps = float(eps)
        bump = Quadratic(eps * np.eye(base.dim), box=base.fn.box)
        fn = simplify_sum([base.fn, bump])
        super().__init__(fn, base.N)

    # bound on this class too, so instrumentation can wrap EpsPerturbed.pair by name
    pair = Hamiltonian.pair

    def _build_pair(self):
        if not self.base.fn.coercive:
            return self.fn.conjugate_pair()
        bp, bd = self.base.pair()
        if bp.smooth and bd.smooth:
            try:
                pp, dd = self.fn.conjugate_pair()
                if pp.smooth and dd.smooth:
                    return pp, dd
            except ConjugateUnavailableError:
                pass
        # (f + eps/2 |.|^2)* is the Moreau envelope of f*, smooth even when the
        # base pair is tabulated; reading it off the cached base pair avoids
        # tabulating the perturbed function as well
        bump = Quadratic(self.eps * np.eye(self.dim), box=bp.box)
        return simplify_sum([bp, bump]), MoreauEnvelope(bd, self.eps)


class _InfConvFn(ConvexFn):
    """Primal side of the inf-convolution; evaluated by inner minimization.

    The inner solve is one root call over all coordinates for a separable
    primal, on its own gradient and curvature, which also yields the Hessian,
    and an enumeration of facets for a tabulated envelope plus a separable
    quadratic (the eps stage of a grid-backed H); other kinds run one L-BFGS-B
    solve per row and have no Hessian.
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
        return self._attain(pts)[0]

    def _attain(self, pts):
        """Attaining points u*(x) and the gradients of H_lam, both shaped like pts."""
        if self.base_primal.separable:
            u, v = self._attain_separable(pts)
            return u, -v / self.lam**self.power.r
        form = self.base_primal.envelope_form()
        if form is not None:
            u = self._minimizers_facets(pts, *form)
        else:
            u = self._minimizers_generic(pts)
        return u, self.power._grad(pts - u)

    def _attain_separable(self, pts):
        """Minimizers u and penalty slopes v at pts, all coordinates in one root call.

        The stationarity equation f_i'(u_i) + penalty'(u_i - x_i) = 0 is solved in
        the penalty slope v = sign(w)|w|^(s-1) of w = u - x, in which
        w = sign(v)|v|^(r-1) and penalty'(w) = v / lam^s.  Its residual
        rho(v) = f'(x + w) + v / lam^s increases with slope at least 1/lam^s,
        also at v = 0, where the slope in w is unbounded; the root lies between
        0 and -lam^s f'(x), and grad H_lam = -v / lam^s.
        """
        f, r, c = self.base_primal, self.r, self.lam**self.power.r
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
        return pts + np.sign(v) * np.abs(v) ** (r - 1.0), v

    def _minimizers_facets(self, pts, env, a, b):
        """Facet enumeration for envelope(u) + sum_i (a_i/2) u_i^2 + b_i u_i.

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
        return facet_argmin(env.facets, a, np.broadcast_to(b, pts.shape), lo, hi,
                            self.power, pts)

    def _minimizers_generic(self, pts):
        # room around the working box: the infimum of a finite primal can lie outside it
        return penalized_argmin(self.base_primal, pts,
                                lambda w: (self.penalty(w), self.power._grad(w)),
                                self.box.lo - 10.0 * self.lam, self.box.hi + 10.0 * self.lam,
                                ftol=1e-14, gtol=1e-11, maxiter=200)

    def _value(self, pts):
        return self._value_grad(pts)[0]

    def _grad(self, pts):
        return self._attain(pts)[1]

    def _value_grad(self, pts, guess=None):
        u, g = self._attain(pts)
        return self.base_primal._value(u) + self.penalty(pts - u), g

    def _hess(self, pts):
        return self._value_grad_hess(pts)[2]

    def _value_grad_hess(self, pts, guess=None):
        """Over a separable primal, the Hessian is the parallel sum of the primal's and the
        penalty's at u: per coordinate 1 / (1/f''(u) + lam^s (r-1) |v|^(r-2)), which stays
        finite at v = 0 and where f'' is unbounded."""
        f = self.base_primal
        if not f.separable:
            raise NotImplementedError("an inf-convolution has a Hessian only over a "
                                      "separable primal")
        c, r = self.lam**self.power.r, self.r
        u, v = self._attain_separable(pts)
        with np.errstate(divide="ignore"):
            curv = 1.0 / (1.0 / f._curvature(u) + c * (r - 1.0) * np.abs(v) ** (r - 2.0))
        return f._value(u) + self.penalty(pts - u), -v / c, _diagonal(curv)

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

    def attainment_residual(self, p, q) -> float:
        """|H_lam(p,q) - H(i_p,j_q) - penalty|; zero when the inner solve is exact."""
        p = np.atleast_1d(np.asarray(p, dtype=float))
        q = np.atleast_1d(np.asarray(q, dtype=float))
        xy = np.concatenate([p, q])
        ip, jq = self.attaining_points(p, q)
        u = np.concatenate([ip, jq])
        lhs = self.value(xy)
        rhs = self.fn.base_primal.value(u) + float(self.fn.penalty(xy - u))
        return abs(lhs - rhs)

