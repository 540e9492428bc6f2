"""Two smoothing continuations for Hamiltonians.

``quad_perturb`` adds (eps/2)|x|^2, which makes the conjugate finite and
1/eps-Lipschitz-smooth (it becomes the Moreau envelope of the original
conjugate).  ``infconv`` replaces H by an infimal convolution with the
penalty |.|_s^s / (s lambda^s), s = r/(r-1) in (1, 2), whose conjugate has
the exact closed form  H* + (lambda^r / r) * sum |.|^r.
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
    SubgradientResult,
    Sum,
    penalized_argmin,
    simplify_sum,
)
from hampath.rootfind import newton_bisect, newton_bracket


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

    def subgradient(self, xy) -> SubgradientResult:
        res = self.base.subgradient(xy)
        return SubgradientResult(res.value + self.eps * np.asarray(xy, dtype=float), res.is_unique)


def quad_perturb(H: Hamiltonian, eps: float) -> EpsPerturbed:
    return EpsPerturbed(H, eps)


class _InfConvFn(ConvexFn):
    """Primal side of the inf-convolution; evaluated by inner minimization."""

    smooth = True
    coercive = True

    def __init__(self, base_primal: ConvexFn, base_dual: ConvexFn, lam: float, r: float):
        super().__init__(base_primal.dim, base_primal.box)
        self.base_primal = base_primal
        self.base_dual = base_dual
        self.lam = float(lam)
        self.r = float(r)
        self.s = r / (r - 1.0)
        self.pieces = base_primal.scalar_pieces()

    def penalty(self, w):
        return np.sum(np.abs(w) ** self.s, axis=-1) / (self.s * self.lam**self.s)

    def penalty_d1(self, w):
        return np.sign(w) * np.abs(w) ** (self.s - 1.0) / self.lam**self.s

    def penalty_d2(self, w):
        with np.errstate(divide="ignore"):
            return (self.s - 1.0) * np.abs(w) ** (self.s - 2.0) / self.lam**self.s

    def minimizers(self, pts):
        """Attaining points u*(x) of the inner minimization, shape like pts."""
        if self.pieces is not None:
            return self._minimizers_separable(pts)
        return self._minimizers_generic(pts)

    def _minimizers_separable(self, pts):
        u = np.empty_like(pts)
        for i, piece in enumerate(self.pieces):
            x = pts[:, i]
            u[:, i] = newton_bisect(*newton_bracket(
                lambda v: piece.d1(v) + self.penalty_d1(v - x),
                lambda v: piece.d2(v) + self.penalty_d2(v - x),
                x, 1.0 + np.abs(x).max(initial=0.0)), scale=1.0 + np.abs(piece.d1(x)))
        return u

    def _minimizers_generic(self, pts):
        # a tabulated primal is +inf outside its box, so the infimum is
        # attained inside it; other kinds get room around their working box
        lo, hi = self.box.lo, self.box.hi
        if self.base_primal._cell_nodes() is None:
            lo, hi = lo - 10.0 * self.lam, hi + 10.0 * self.lam
        return penalized_argmin(self.base_primal, pts,
                                lambda w: (self.penalty(w), self.penalty_d1(w)),
                                lo, hi, ftol=1e-14, gtol=1e-11, maxiter=200)

    def _value(self, pts):
        return self._value_grad(pts)[0]

    def _grad(self, pts):
        return self.penalty_d1(pts - self.minimizers(pts))

    def _value_grad(self, pts):
        u = self.minimizers(pts)
        return self.base_primal._value(u) + self.penalty(pts - u), self.penalty_d1(pts - u)

    def _pair(self):
        power = PowerNorm(self.r, self.lam**self.r / self.r, dim=self.dim, box=self.base_dual.box)
        return self, Sum([self.base_dual, power])


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
        self.s = r / (r - 1.0)
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

    def subgradient(self, xy) -> SubgradientResult:
        return SubgradientResult(self.fn.grad(np.asarray(xy, dtype=float)), True)


def infconv(H: Hamiltonian, lam: float, r: float = 4.0) -> InfConvolved:
    return InfConvolved(H, lam, r)


def prox_points(Hl: InfConvolved, p, q):
    """The pair (i(p), j(q)) attaining the inf-convolution at (p, q); see ``attaining_points``."""
    return Hl.attaining_points(p, q)
