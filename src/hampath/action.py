"""Discrete action functionals whose minimum value is zero at solutions.

Each interior term is a pointwise Fenchel-Young gap and each boundary term
is a Fenchel-Young gap of the boundary potential, so every assembled action
is nonnegative term by term; the total vanishes exactly when the path
satisfies the subdifferential dynamics and boundary inclusions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hampath.convex import ConvexFn, Hamiltonian
from hampath.grid import PathGrid, interval_data


@dataclass(frozen=True)
class Connecting:
    """Endpoints ride the subdifferential graphs of two convex potentials."""

    start_potential: ConvexFn
    end_potential: ConvexFn
    coercivity_index: int = 1


@dataclass(frozen=True)
class Cauchy:
    """Hard initial conditions p(0) = p0, q(0) = q0."""

    p0: np.ndarray
    q0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p0", np.atleast_1d(np.asarray(self.p0, dtype=float)))
        object.__setattr__(self, "q0", np.atleast_1d(np.asarray(self.q0, dtype=float)))


@dataclass(frozen=True)
class SemiConvex:
    """Connecting boundary data plus linear feedback of strengths delta1, delta2."""

    start_potential: ConvexFn
    end_potential: ConvexFn
    delta1: float
    delta2: float


def feedback_limit(T: float) -> float:
    """Solvability limit 1/(2T): the feedback strengths must stay strictly below it."""
    return 1.0 / (2.0 * T)


BoundaryMode = Connecting | Cauchy | SemiConvex


@dataclass(frozen=True)
class ProblemSpec:
    """Hamiltonian, horizon and boundary mode; growth certificate optional."""

    hamiltonian: Hamiltonian
    T: float
    boundary: BoundaryMode
    cert: object = None


@dataclass(frozen=True)
class ActionBreakdown:
    """Total action, its exact decomposition, and what the same evaluation yields.

    total = h * sum(interior) + boundary_start + boundary_end, with each
    interior entry a pointwise Fenchel-Young gap.  ``grad``: exact gradient in
    all nodes, component-major (2N, M+1) like ``PathGrid.nodes`` (Cauchy mode
    included; the solver masks the fixed column), None unless the Hamiltonian
    pair and both boundary potentials are smooth; ``grad_p`` and ``grad_q`` are
    (M+1, N) views of it.  ``inclusion``: |y - grad H(x)| per interval when the
    primal is smooth.  ``hessians``: only when asked, what each pair read yields
    for the node Hessian, interior first, then the start and end potentials
    outside Cauchy mode: the (primal, dual) Hessians at its points, and for the
    interior of a closed-form quadratic pair its ``LinearResidual``.
    """

    total: float
    interior: np.ndarray
    boundary_start: float
    boundary_end: float
    h: float
    grad: np.ndarray | None = None
    inclusion: np.ndarray | None = None
    hessians: tuple | None = None

    @property
    def grad_p(self):
        return None if self.grad is None else self.grad[:self.grad.shape[0] // 2].T

    @property
    def grad_q(self):
        return None if self.grad is None else self.grad[self.grad.shape[0] // 2:].T

    def node_gradient(self):
        """``grad``; ValueError when the evaluation had a nonsmooth side."""
        if self.grad is None:
            raise ValueError("gradient requires a smooth Hamiltonian pair and smooth boundary "
                             "potentials; regularize first")
        return self.grad

    def gradient(self):
        """(grad_p, grad_q); ValueError when the evaluation had a nonsmooth side."""
        self.node_gradient()
        return self.grad_p, self.grad_q


def pairing(g: PathGrid, delta1: float = 0.0, delta2: float = 0.0):
    """Midpoint/slope pairing x = (pbar, qbar), y = (-dq - delta2 pbar, dp - delta1 qbar).

    Returns (interval data, x, y); linear feedback is folded into the dual slot.
    """
    iv = interval_data(g)
    x = np.concatenate([iv.pbar, iv.qbar], axis=1)
    yu = -iv.dq - delta2 * iv.pbar
    yv = iv.dp - delta1 * iv.qbar
    return iv, x, np.concatenate([yu, yv], axis=1)


def fenchel_young(primal: ConvexFn, dual: ConvexFn, x, y, hess: bool = False):
    """Rowwise gaps primal(x) + dual(y) - x.y, with the gradients of both sides (None when
    a side is nonsmooth) and, when asked, the pair (primal Hessians at x, dual Hessians at
    y), else None.  ``action_for`` reads the boundary rows through it, and the interior of
    every pair but a closed-form quadratic one, which ``LinearResidual`` reads.

    A closed-form quadratic pair gives the gap in completed-square form
    |(y - grad primal(x)) L|^2 / 2 with L L' = A^-1: the same quantity, read from
    gradients alone, and never negative in floating point.

    Every other pair reads each side from one ``_eval``, values alone from a
    nonsmooth side unless Hessians are asked (which a nonsmooth kind refuses), and
    evaluates the dual side with x as the guess of its gradient: at zero gap
    grad dual(y) = x, so a dual that solves for its gradient (``ScalarConjugate``)
    starts there.  The primal side gets no guess.
    """
    L = primal.gap_factor(dual)
    if L is not None:
        dx, dy = primal._grad(x), dual._grad(y)
        # a quadratic pair's Hessians are constant, so one row reads them
        hessians = (primal._eval(x[:1], True)[2], dual._eval(y[:1], True)[2]) if hess else None
        return 0.5 * np.sum(((y - dx) @ L) ** 2, axis=1), dx, dy, hessians
    (fx, dx, hx), (fy, dy, hy) = (
        fn._eval(pts, hess, guess) if hess or fn.smooth else (fn._value(pts), None, None)
        for fn, pts, guess in ((primal, x, None), (dual, y, x)))
    return fx + fy - np.sum(x * y, axis=1), dx, dy, ((hx, hy) if hess else None)


class LinearResidual:
    """The interval residuals of a closed-form quadratic pair, linear in the nodes.

    Over H(x) = x'Ax/2 + b.x + c the pairing x = zbar_k, y = S dz_k + F zbar_k,
    with S = ((0, -I), (I, 0)) and the feedback F = -diag(delta2 I, delta1 I),
    leaves on interval k the residual

        r_k = y - grad H(x) = S dz_k + G zbar_k - b,    G = F - A,

    and its gap completes to |L' r_k|^2 / 2 with L L' = W = A^-1.  The action
    is then a weighted linear least-squares objective h * sum_k |L' r_k|^2 / 2,
    whose normal equations are the node system that ``solver._node_hessian``
    builds from ``P``, ``Q`` and ``W``.  ``terms`` reads one evaluation from the
    component-major nodes of ``PathGrid.nodes``: each product is a (2N, 2N) by
    (2N, M) one and each sum runs along M with unit stride.
    """

    def __init__(self, primal, dual, L, N: int, h: float, delta1: float, delta2: float):
        I, d = np.eye(N), 2 * N
        S, F = np.zeros((d, d)), np.zeros((d, d))
        S[:N, N:], S[N:, :N] = -I, I
        F[:N, :N], F[N:, N:] = -delta2 * I, -delta1 * I
        self.E = S / h
        # G/2: halving is exact, so (G/2)(z_k + z_{k+1}) is G zbar_k to the bit
        self.half_G = 0.5 * (F - primal.A)
        self.b = primal.b[:, None]
        self.W, self.L = dual.A, L
        self.N, self.h = N, h

    @property
    def P(self):
        """Jacobian of r_k in z_k, G/2 - S/h."""
        return self.half_G - self.E

    @property
    def Q(self):
        """Jacobian of r_k in z_{k+1}, G/2 + S/h."""
        return self.P + 2.0 * self.E

    def terms(self, Z):
        """(gaps (M,), |r_k| (M,), node gradient (2N, M+1) of h * sum(gaps)) at the nodes Z.

        Node k collects h P' W r_k and node k+1 h Q' W r_k: the part (h/2) G' W r_k on
        both ends, and from the slopes S (W r_k - W r_{k-1}) at node k.
        """
        N, h = self.N, self.h
        Z0, Z1 = Z[:, :-1], Z[:, 1:]
        # one (2N, M) scratch array holds z_k + z_{k+1}, dz, L'r and W r in turn: every
        # fresh array costs its page faults again
        buf = np.add(Z0, Z1)
        r = self.half_G @ buf
        dz = np.subtract(Z1, Z0, out=buf)
        dz /= h
        r[:N] -= dz[N:]
        r[N:] += dz[:N]
        r -= self.b
        Lr = np.matmul(self.L.T, r, out=buf)
        gaps = np.einsum("ij,ij->j", Lr, Lr)
        gaps *= 0.5
        inclusion = np.sqrt(np.einsum("ij,ij->j", r, r))
        Wr = np.matmul(self.W, r, out=buf)
        a = np.matmul(self.half_G.T, Wr, out=r)
        a *= h
        # S (w_k - w_{k-1}) with S v = (-v_q, v_p) and w_{-1} = w_M = 0
        wp, wq = Wr[:N], Wr[N:]
        grad = np.empty((2 * N, Z.shape[1]))
        np.subtract(wq[:, :-1], wq[:, 1:], out=grad[:N, 1:-1])
        np.subtract(wp[:, 1:], wp[:, :-1], out=grad[N:, 1:-1])
        grad[:N, 0], grad[N:, 0] = -wq[:, 0], wp[:, 0]
        grad[:N, -1], grad[N:, -1] = wq[:, -1], -wp[:, -1]
        grad[:, :-1] += a
        grad[:, 1:] += a
        return gaps, inclusion, grad


def _node_gradient(dHx, dHy, iv, delta1, delta2, M, N):
    """Node gradient of h * sum(gaps), assembled from midpoint/slope partials, as the
    component-major (2N, M+1) view of a node-major array."""
    d_pbar = dHx[:, :N] - delta2 * dHy[:, :N] + 2.0 * delta2 * iv.pbar + iv.dq
    d_qbar = dHx[:, N:] - delta1 * dHy[:, N:] + 2.0 * delta1 * iv.qbar - iv.dp
    d_dp = dHy[:, N:] - iv.qbar
    d_dq = -dHy[:, :N] + iv.pbar
    h = iv.h
    grad = np.zeros((M + 1, 2 * N))
    gp, gq = grad[:, :N], grad[:, N:]
    gp[:-1] += 0.5 * h * d_pbar - d_dp
    gp[1:] += 0.5 * h * d_pbar + d_dp
    gq[:-1] += 0.5 * h * d_qbar - d_dq
    gq[1:] += 0.5 * h * d_qbar + d_dq
    return grad.T


def action_for(spec: ProblemSpec, g: PathGrid, H: Hamiltonian | None = None,
               hessians: bool = False) -> ActionBreakdown:
    """The discrete action of the spec's boundary mode; H overrides the spec's Hamiltonian.

    One evaluation of each Fenchel pair side yields the gaps, the boundary
    split, the node gradient and the inclusion residuals, and with ``hessians``
    the Hessians of both sides as well (``NotImplementedError`` from a kind
    without one).  Connecting mode is the semiconvex action with
    delta1 = delta2 = 0.

    When H's pair is a closed-form quadratic pair, the interior is one
    ``LinearResidual`` on ``g.nodes``: its residuals give the gaps, the
    inclusion residuals and the node gradient, and it stands in for the
    interior Hessians.  Every other pair reads its interior through
    ``fenchel_young`` at the midpoint/slope pairing, and the boundary rows
    always do.  Neither route depends on the memory layout of the path's arrays.
    """
    H = H if H is not None else spec.hamiltonian
    b = spec.boundary
    d1 = d2 = 0.0
    if isinstance(b, SemiConvex):
        d1, d2 = b.delta1, b.delta2
    elif isinstance(b, Cauchy):
        if not (np.array_equal(g.p_nodes[0], b.p0) and np.array_equal(g.q_nodes[0], b.q0)):
            raise ValueError("path does not satisfy the prescribed initial conditions")
    elif not isinstance(b, Connecting):
        raise TypeError(f"unknown boundary mode {type(b).__name__}")

    primal, dual = H.pair()
    L = primal.gap_factor(dual)
    if L is not None:
        hess = LinearResidual(primal, dual, L, g.N, g.h, d1, d2)
        gaps, inclusion, grad = hess.terms(g.nodes)
    else:
        iv, x, y = pairing(g, d1, d2)
        gaps, dHx, dHy, hess = fenchel_young(primal, dual, x, y, hessians)
        inclusion = None if dHx is None else np.linalg.norm(y - dHx, axis=1)
        grad = None
        if dHx is not None and dHy is not None:
            grad = _node_gradient(dHx, dHy, iv, d1, d2, g.M, g.N)

    b0 = bT = 0.0
    ends = ()
    if not isinstance(b, Cauchy):
        p0, q0 = g.p_nodes[0], g.q_nodes[0]
        pT, qT = g.p_nodes[-1], g.q_nodes[-1]
        # psi1(p0) + psi1*(q0) - p0.q0 and psi2(qT) + psi2*(-pT) + pT.qT
        b0, dsp0, dsdq0, h0 = fenchel_young(*b.start_potential.conjugate_pair(), p0[None],
                                            q0[None], hessians)
        bT, depT, dedT, hT = fenchel_young(*b.end_potential.conjugate_pair(), qT[None],
                                           -pT[None], hessians)
        b0, bT = float(b0[0]), float(bT[0])
        ends = (h0, hT)
        if grad is not None and all(d is not None for d in (dsp0, dsdq0, depT, dedT)):
            N = g.N
            grad[:N, -1] += -dedT[0] + qT
            grad[N:, -1] += depT[0] + pT
            grad[:N, 0] += dsp0[0] - q0
            grad[N:, 0] += dsdq0[0] - p0
        else:
            grad = None

    total = g.h * float(np.sum(gaps)) + b0 + bT
    return ActionBreakdown(total, gaps, b0, bT, g.h, grad, inclusion,
                           (hess, *ends) if hessians else None)


def action_gradient(spec_boundary: BoundaryMode, H: Hamiltonian, g: PathGrid):
    """Exact gradient of the discrete action with respect to all nodes.

    Cauchy mode returns the full gradient; the solver masks the fixed rows.
    """
    return action_for(ProblemSpec(H, g.T, spec_boundary), g).gradient()


def witness_lagrangian(H: Hamiltonian, start_potential: ConvexFn, end_potential: ConvexFn,
                       g: PathGrid, rs: PathGrid) -> float:
    """Lower-bound witness: L(rs; g) <= action(g) for every trial pair rs,
    with equality reached over the sup in rs, and L(g; g) = 0 exactly."""
    if (g.p_nodes.shape != rs.p_nodes.shape) or (g.T != rs.T):
        raise ValueError("trial pair must share the grid of the path")
    _, dual = H.pair()
    iv, _, y = pairing(g)
    ivr, _, yr = pairing(rs)
    interior = (np.sum(ivr.dp * iv.qbar - ivr.dq * iv.pbar, axis=1)
                + dual._value(y) - dual._value(yr)
                + 2.0 * np.sum(iv.dq * iv.pbar, axis=1))
    pT, qT = g.p_nodes[-1], g.q_nodes[-1]
    p0, q0 = g.p_nodes[0], g.q_nodes[0]
    sT = rs.q_nodes[-1]
    r0 = rs.p_nodes[0]
    sprim = start_potential.conjugate_pair()[0]
    eprim = end_potential.conjugate_pair()[0]
    val = iv.h * float(np.sum(interior))
    val += float(-pT @ sT + eprim.value(qT) - eprim.value(sT))
    val += float(r0 @ q0 + sprim.value(p0) - sprim.value(r0))
    return val

