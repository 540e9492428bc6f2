"""Drive the discrete action to zero by smoothing continuation.

The optimal value of every assembled action is known to be zero, so the
attained value is itself the optimality certificate and no inner maximization
is needed.  Each continuation stage minimizes the action of a regularized
Hamiltonian, warm-starting from the previous stage; a final polish stage runs
on the unregularized problem whenever its Fenchel pair is smooth.

One rule selects the engine.  The final stage first runs alone from the
initial path: marched when the true pair is polyhedral in 2-D (Cauchy mode),
otherwise, or when the march misses, under Newton's method on the
block-tridiagonal node system (the implicit midpoint rule).  When that misses
the final target, the whole schedule runs from the initial path under a
limited-memory quasi-Newton method, as if nothing had been tried.

A stage whose Fenchel pair, and outside Cauchy mode both boundary pairs, are
closed-form quadratic pairs is exact: its action is a weighted linear
least-squares objective in the nodes, which one Newton step on a once-factored
Hessian (the normal equations) minimizes from any start, refined once by a
back-substitution.  That Hessian has the same blocks
at every node but the two ends, and cyclic reduction keeps that constant form,
so it is factored in O(log M) block operations.  When the final stage is not
exact, no stage is.  On any other pair with Hessians Newton reassembles the
Gauss-Newton matrix at every accepted path: each interval gap is the Bregman
divergence D_{H*}(y, grad H(x)), so near a solution the action is a
zero-residual least-squares problem and Newton converges quadratically.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

import numpy as np

from hampath.action import (
    Cauchy,
    LinearResidual,
    ProblemSpec,
    SemiConvex,
    action_for,
    feedback_limit,
)
from hampath.certify import Certificate, certify
from hampath.conditions import CheckReport, run_checks
from hampath.convex import (
    ConjugateUnavailableError,
    DomainError,
    Hamiltonian,
    NotCoerciveError,
)
from hampath.grid import PathGrid
from hampath.polyhedral import midpoint_march
from hampath.regularize import EpsPerturbed, InfConvolved
from hampath.rootfind import RootFindError

logger = logging.getLogger("hampath")

# L-BFGS stops a stage once the largest gradient component is at most GTOL times the
# path's scale; it keeps MEMORY curvature pairs, and its backtracking line search
# accepts the Armijo decrease ARMIJO * step * slope after at most MAX_HALVINGS halvings
GTOL = 1e-11
MEMORY = 10
ARMIJO = 1e-4
MAX_HALVINGS = 50


class ScheduleError(ValueError):
    """No usable stage: none at all, a stage that cannot be built, an unavailable or
    nonsmooth stage pair, or a boundary potential that is nonsmooth or not coercive."""


class ParamError(ValueError):
    """A ``SolveParams`` field is out of range; ``field`` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class SolveStatus(enum.Enum):
    CONVERGED = "Converged"
    STALLED = "StalledAboveTol"
    HYPOTHESIS_FAILED = "HypothesisFailed"


@dataclass(frozen=True)
class SolveParams:
    """Continuation schedules and optimizer budgets."""

    M: int = 200
    eps_schedule: tuple = (1e-1, 1e-2, 1e-3, 1e-4)
    lambda_schedule: tuple = ()
    r: float = 4.0
    tol_zero: float = 1e-6
    max_iters: int = 500
    seed: int = 0
    polish: bool = True

    def __post_init__(self):
        for name in ("M", "max_iters"):
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v <= 0:
                raise ParamError(name, f"{name} must be a positive integer, got {v!r}")
        s = self.seed
        if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 0:
            raise ParamError("seed", f"seed must be a non-negative integer, got {s!r}")
        for name in ("eps_schedule", "lambda_schedule"):
            sched = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, sched)
            if not all(map(math.isfinite, sched)):
                raise ParamError(name, f"{name} entries must be finite")
            if any(not v > 0 for v in sched):
                raise ParamError(name, f"{name} entries must be positive")
            if any(b >= a for a, b in zip(sched, sched[1:])) and len(sched) > 1:
                raise ParamError(name, f"{name} must be strictly decreasing")
        for name in ("r", "tol_zero"):
            if not math.isfinite(getattr(self, name)):
                raise ParamError(name, f"{name} must be finite")
        if not self.tol_zero > 0:
            raise ParamError("tol_zero", "tol_zero must be positive")
        if not self.r > 2:
            raise ParamError("r", "inf-convolution exponent must exceed 2")


@dataclass(frozen=True)
class StageRecord:
    """One continuation stage; ``reason`` is why it stopped (``ftarget``, ``gtol``,
    ``max_iters``, ``line_search``)."""

    eps: float
    lam: float
    iterations: int
    objective: float
    grad_norm: float
    action_true: float
    reason: str


@dataclass(frozen=True)
class SolveResult:
    """Solved path with certificates.

    ``certificate`` is recomputed under the final stage's Hamiltonian and
    determines the status; ``certificate_true`` removes the smoothing when
    the unregularized Fenchel pair exists (identical object after a polish
    stage, None when the true conjugate is unavailable).
    """

    path: PathGrid
    certificate: Certificate
    stage_history: tuple
    status: SolveStatus
    checks: CheckReport | None = None
    certified_hamiltonian: str = "true"
    certificate_true: Certificate | None = None


# -- limited-memory quasi-Newton ------------------------------------------


def lbfgs(fun_grad, x0, max_iters=500, gtol=GTOL, ftarget=None):
    """Minimize a smooth function with L-BFGS and Armijo backtracking.

    ``fun_grad(x) -> (f, g)``.  Returns (x, f, g, iterations, reason).
    """
    x = np.asarray(x0, dtype=float).copy()
    f, g = fun_grad(x)
    S, Y = [], []
    reason = "max_iters"
    it = 0
    for it in range(1, max_iters + 1):
        gnorm = float(np.max(np.abs(g)))
        if ftarget is not None and f <= ftarget:
            reason = "ftarget"
            it -= 1
            break
        if gnorm <= gtol:
            reason = "gtol"
            it -= 1
            break
        d = _two_loop(g, S, Y)
        gd = float(g @ d)
        if gd >= 0:
            d = -g
            gd = -float(g @ g)
        step = 1.0 if S else min(1.0, 1.0 / max(gnorm, 1e-12))
        ok = False
        for _ in range(MAX_HALVINGS):
            xn = x + step * d
            fn, gn = fun_grad(xn)
            if np.isfinite(fn) and fn <= f + ARMIJO * step * gd:
                ok = True
                break
            step *= 0.5
        if not ok:
            reason = "line_search"
            break
        s = xn - x
        y = gn - g
        sy = float(s @ y)
        if sy > 1e-12 * float(np.linalg.norm(s) * np.linalg.norm(y) + 1e-300):
            S.append(s)
            Y.append(y)
            if len(S) > MEMORY:
                S.pop(0)
                Y.pop(0)
        x, f, g = xn, fn, gn
    return x, f, g, it, reason


def _two_loop(g, S, Y):
    d = -g.copy()
    if not S:
        return d
    alphas = []
    rhos = [1.0 / (s @ y) for s, y in zip(S, Y)]
    for s, y, rho in zip(reversed(S), reversed(Y), reversed(rhos)):
        a = rho * (s @ d)
        d -= a * y
        alphas.append(a)
    gamma = (S[-1] @ Y[-1]) / (Y[-1] @ Y[-1])
    d *= gamma
    for (s, y, rho), a in zip(zip(S, Y, rhos), reversed(alphas)):
        b = rho * (y @ d)
        d += (a - b) * s
    return d


# -- Newton stages on the block-tridiagonal node system ----------------------


def _mm(a, b):
    """Blockwise a @ b; blocks are indexed by the last axis."""
    return np.einsum("ijb,jkb->ikb", a, b)


def _tmm(a, b):
    """Blockwise a' @ b."""
    return np.einsum("jib,jkb->ikb", a, b)


def _mv(a, v):
    """Blockwise a @ v for vectors v of shape (n, B); one (n, n) block acts on every vector."""
    return a @ v if a.ndim == 2 else np.einsum("ijb,jb->ib", a, v)


def _tmv(a, v):
    """Blockwise a' @ v."""
    return a.T @ v if a.ndim == 2 else np.einsum("jib,jb->ib", a, v)


def _invert(D):
    """Inverts every block D[:, :, b] in place and returns D.

    Unpivoted Gauss-Jordan, which is stable for the symmetric positive
    definite blocks it is given; each pivot step is one vector operation over
    all blocks.
    """
    for k in range(D.shape[0]):
        inv = 1.0 / D[k, k]
        D[k, k] = 1.0
        D[k] *= inv
        col = D[:, k].copy()
        col[k] = 0.0
        D[:, k] = 0.0
        D[k, k] = inv
        D -= col[:, None] * D[k]
    return D


def _odd_solve(Dinv, end, v):
    """The odd blocks' inverses applied to v; ``end``, when not None, is the inverse of
    the last odd block and replaces ``Dinv`` on the last column."""
    x = _mv(Dinv, v)
    if end is not None:
        x[:, -1] = end @ v[:, -1]
    return x


class BlockTridiagonalFactor:
    """Cyclic-reduction factorization of a symmetric positive definite block-tridiagonal
    matrix; ``solve`` is the back-substitution for one right-hand side.

    The blocks come in one of two forms, and the form decides how they are
    reduced.  Per block: ``D`` (n, n, K) holds the diagonal blocks and ``U``
    (n, n, K-1) the blocks (k, k+1), whose transposes are the blocks below the
    diagonal; the block index is the last axis.  Constant: ``D`` is a tuple
    (first, interior, last) of (n, n) blocks, block 0 being ``first``, block
    K-1 ``last`` (the only block when K = 1) and every other ``interior``, and
    ``U`` (n, n, K-1) is constant along its block axis, as a zero-stride
    broadcast of the one coupling block is; only its length and first block
    are read.

    Each level eliminates the odd-indexed blocks through their own diagonal
    blocks and halves the system (Buzbee-Golub-Nielson).  A level keeps the
    inverses of its odd blocks and their couplings, so every further
    right-hand side costs only block products.  A constant system stays
    constant under the elimination (Heller 1976): every level has one
    interior block, one coupling and new ends, so it inverts at most two
    blocks (an interior one and, when K is even, the last) and keeps O(n^2)
    numbers, and the whole factorization costs O(n^3 log K).  Its
    back-substitution applies each level's blocks as one (n, n) product over
    all columns and patches the odd end column.  The inputs are not modified.
    """

    def __init__(self, D, U):
        self.levels = []
        if isinstance(D, tuple):
            self.base = self._reduce_constant(*D, U)
            return
        while D.shape[-1] > 1:
            Dinv = _invert(D[:, :, 1::2].copy())
            # odd block 2t+1 couples to block 2t through Ue[t]' and to block 2t+2 through Uo[t]
            Ue, Uo = U[:, :, 0::2], U[:, :, 1::2]
            mo, me = Dinv.shape[-1], (D.shape[-1] + 1) // 2
            D2 = D[:, :, 0::2].copy()
            D2[:, :, :mo] -= _mm(Ue, _mm(Dinv, Ue.transpose(1, 0, 2)))
            XU = _mm(Dinv[:, :, :me - 1], Uo)
            D2[:, :, 1:] -= _tmm(Uo, XU)
            U = -_mm(Ue[:, :, :me - 1], XU)
            self.levels.append((Dinv, Ue, Uo, None))
            D = D2
        self.base = _invert(D.copy())

    def _reduce_constant(self, first, interior, last, U):
        """Appends the levels of a constant system and returns the inverse of its last
        remaining block."""
        K = U.shape[-1] + 1
        C = U[:, :, 0].copy() if K > 1 else None
        if K == 1:
            first = last
        while K > 1:
            # the odd blocks are interior ones, except the last block when K is even
            odd = ([interior] if K > 2 else []) + ([last] if K % 2 == 0 else [])
            inv = _invert(np.stack(odd, axis=-1))
            Ainv, Linv = inv[:, :, 0], inv[:, :, -1]
            self.levels.append((Ainv, C, C, Linv if len(odd) == 2 else None))
            CA, CtA = C @ Ainv, C.T @ Ainv
            first = first - CA @ C.T
            if K > 2:
                # the new last block is the old last (K odd) or the interior block before it
                last = last - CtA @ C if K % 2 else interior - C @ Linv @ C.T - CtA @ C
                interior = interior - CA @ C.T - CtA @ C
                C = -CA @ C
            K = (K + 1) // 2
        return _invert(first[:, :, None].copy())[:, :, 0]

    def solve(self, r):
        """The solution x (n, K) of the factored system for the right-hand side ``r`` (n, K)."""
        odd = []
        for Dinv, Ue, Uo, end in self.levels:
            mo, me = r.shape[1] // 2, (r.shape[1] + 1) // 2
            xr = _odd_solve(Dinv, end, r[:, 1::2])
            r2 = r[:, 0::2].copy()
            r2[:, :mo] -= _mv(Ue, xr)
            r2[:, 1:] -= _tmv(Uo, xr[:, :me - 1])
            odd.append(xr)
            r = r2
        x = _mv(self.base, r)
        for (Dinv, Ue, Uo, end), xr in zip(reversed(self.levels), reversed(odd)):
            mo, me = xr.shape[1], x.shape[1]
            v = _tmv(Ue, x[:, :mo])
            v[:, :me - 1] += _mv(Uo, x[:, 1:])
            xe, x = x, np.empty((x.shape[0], mo + me))
            x[:, 0::2], x[:, 1::2] = xe, xr - _odd_solve(Dinv, end, v)
        return x


def _quadratic_stage(spec: ProblemSpec, H: Hamiltonian) -> bool:
    """Whether the stage action is exactly quadratic: every Fenchel pair it reads is a
    closed-form quadratic pair."""
    pairs = [H.pair()]
    if not isinstance(spec.boundary, Cauchy):
        pairs += [spec.boundary.start_potential.conjugate_pair(),
                  spec.boundary.end_potential.conjugate_pair()]
    return all(primal.gap_factor(dual) is not None for primal, dual in pairs)


def _node_hessian(spec: ProblemSpec, g: PathGrid, hessians):
    """The stage action's Hessian in the nodes z_k = (p_k, q_k), as the blocks that
    ``BlockTridiagonalFactor`` takes.

    Interval k contributes h J' W J, where J = (P, Q) is the Jacobian of
    r = y - grad H(x) in (z_k, z_{k+1}) and W the dual Hessian at y; each
    boundary gap contributes B' W B on its end node.  ``hessians`` are those of
    ``action_for(..., hessians=True)`` at g.  On a quadratic action this is the
    exact Hessian; on any other it is the Gauss-Newton matrix, exact where every
    gap vanishes.  Cauchy mode drops the fixed node 0.

    A closed-form quadratic pair hands over its ``LinearResidual``, whose
    constant P = G/2 - S/h, Q = G/2 + S/h and W make every interval's
    contribution the same, and the blocks come in constant form: the first,
    interior and last diagonal blocks and the coupling as a zero-stride
    broadcast.  In Cauchy mode the first block is an interior one; otherwise
    both ends also carry B' W B.  Any other pair hands over its Hessians, and
    the blocks come per block.
    """
    b = spec.boundary
    N, h = g.N, g.h
    I = np.eye(N)
    interior, *ends = hessians
    # block arrays carry the interval axis last, of length 1 when constant
    if isinstance(interior, LinearResidual):
        P, Q, W = (a[:, :, None] for a in (interior.P, interior.Q, interior.W))
    else:
        d1, d2 = (b.delta1, b.delta2) if isinstance(b, SemiConvex) else (0.0, 0.0)
        O = np.zeros((N, N))
        E = np.block([[O, -I], [I, O]]) / h  # slope part of y: (-dq, dp)
        F = np.block([[-d2 * I, O], [O, -d1 * I]])  # feedback part of y, on the midpoint
        # Copied once so that the interval axis has unit stride: every block array
        # derived from them (P, Q, W, the products, every level of the factorization)
        # then keeps that layout, which the einsum products and their slices walk 2-3x
        # faster than the d^2-strided axis that moveaxis leaves.
        Hx, W = (np.ascontiguousarray(np.moveaxis(H, 0, -1)) for H in interior)
        P = 0.5 * (F[:, :, None] - Hx) - E[:, :, None]
        Q = P + 2.0 * E[:, :, None]
    WQ = _mm(W, Q)
    PWP, QWQ = _tmm(P, _mm(W, P)), _tmm(Q, WQ)
    U = np.broadcast_to(h * _tmm(P, WQ), (2 * N, 2 * N, g.M))
    cauchy = isinstance(b, Cauchy)
    if not cauchy:
        (sp, sd), (ep, ed) = ends
        # r0 = q0 - grad psi1(p0), rT = -pT - grad psi2(qT)
        B0 = np.hstack([-sp[0], I])
        BT = np.hstack([-I, -ep[0]])
        S0, ST = B0.T @ sd[0] @ B0, BT.T @ ed[0] @ BT
    if PWP.shape[-1] == 1:
        PWP, QWQ = PWP[:, :, 0], QWQ[:, :, 0]
        interior = h * (PWP + QWQ)
        if cauchy:
            return (interior, interior, h * QWQ), U[:, :, 1:]
        return (h * PWP + S0, interior, h * QWQ + ST), U
    D = np.zeros((2 * N, 2 * N, g.M + 1))
    D[:, :, :-1] = PWP
    D[:, :, 1:] += QWQ
    D *= h
    if cauchy:
        return D[:, :, 1:], U[:, :, 1:]
    D[:, :, 0] += S0
    D[:, :, -1] += ST
    return D, U


def newton_stage(spec: ProblemSpec, H: Hamiltonian, path: PathGrid, max_iters: int,
                 ftarget: float):
    """Minimize a stage action by Newton steps on the block-tridiagonal node system.

    The right-hand side is the exact node gradient from ``action_for``, and a
    step is kept only when ``action_for`` confirms a decrease.  Both are
    component-major (2N, M+1) arrays, like ``PathGrid.nodes``: the factor
    takes the free columns as they are, and each trial path is
    ``PathGrid.from_nodes`` of the stepped nodes.  Whether the stage is exact
    is decided once, by ``_quadratic_stage``.

    On an exact (quadratic) stage the action is a linear least-squares
    objective in the nodes (``action.LinearResidual``), so the node Hessian
    does not depend on the path: it is assembled and factored once, at the
    first step, from the residual map's constant Jacobians, in constant form,
    and the factorization costs O(n^3 log M).  The step
    that meets ``ftarget`` is followed by one refinement back-substitution on
    the same factorization: on a quadratic action the new gradient is exactly
    the linear residual the step left in rounding (iterative refinement), and
    the refined path is kept when it lowers the action again.  The refinement
    counts as part of the step it refines.

    On any other stage the matrix is the Gauss-Newton matrix, reassembled at
    every accepted path from the Hessians that the same ``action_for`` call
    returns.  Each gap is a Bregman divergence of the dual, so near a
    zero-action path the action is a zero-residual least-squares problem and
    the steps converge quadratically there.  A side of the pair without a
    Hessian raises ``NotImplementedError`` at the first evaluation.

    Returns (path, action, gradient, iterations, reason) with reason
    ``ftarget``, ``max_iters`` or ``no_decrease``: a step that does not lower
    the action, a non-finite matrix or step, or a trial point whose inner
    solve fails.  The gradient covers the free nodes, component-major.
    """
    free = slice(1, None) if isinstance(spec.boundary, Cauchy) else slice(None)
    exact = _quadratic_stage(spec, H)

    def evaluate(g):
        # an exact stage reads its constant Hessians once, at the first path
        ev = action_for(spec, g, H=H, hessians=not exact or factor is None)
        return ev.total, ev.node_gradient()[:, free], ev.hessians

    def newton_step(g, grad):
        with np.errstate(all="ignore"):
            step = factor.solve(-grad)
        z = g.nodes.copy()
        z[:, free] += step
        if not np.all(np.isfinite(z)):
            return None
        return PathGrid.from_nodes(g.T, z)

    factor = None
    f, grad, hess = evaluate(path)
    it = 0
    while f > ftarget:
        if it == max_iters:
            return path, f, grad, it, "max_iters"
        if factor is None or not exact:
            # an unbounded Hessian shows as a non-finite block, a singular one as a
            # non-finite step
            with np.errstate(all="ignore"):
                D, U = _node_hessian(spec, path, hess)
                if not (np.all(np.isfinite(D)) and np.all(np.isfinite(U))):
                    return path, f, grad, it, "no_decrease"
                factor = BlockTridiagonalFactor(D, U)
        trial = newton_step(path, grad)
        if trial is None:
            return path, f, grad, it, "no_decrease"
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                ft, gt, ht = evaluate(trial)
        except (RootFindError, DomainError):
            return path, f, grad, it, "no_decrease"
        if not ft < f:
            return path, f, grad, it, "no_decrease"
        path, f, grad, hess, it = trial, ft, gt, ht, it + 1
    if exact and factor is not None:
        # the last step met the target: refine it once
        refined = newton_step(path, grad)
        if refined is not None:
            fr, gr, _ = evaluate(refined)
            if fr < f:
                path, f, grad = refined, fr, gr
    return path, f, grad, it, "ftarget"


# -- stage objectives -------------------------------------------------------


class _PathObjective:
    """Optimizer coordinates: initial values plus interval slopes.

    Nodes are prefix sums of the slopes, which keeps the objective's
    curvature spread mild (the node parameterization conditions like
    1/(beta h)^2 and stalls quasi-Newton descent on fine grids).
    """

    def __init__(self, spec: ProblemSpec, H: Hamiltonian, M: int):
        self.spec = spec
        self.H = H
        self.M = M
        self.N = spec.hamiltonian.N
        self.h = spec.T / M
        self.cauchy = isinstance(spec.boundary, Cauchy)

    def pack(self, g: PathGrid) -> np.ndarray:
        p, q = g.p_nodes, g.q_nodes
        v = ((p[1:] - p[:-1]) / self.h).ravel()
        w = ((q[1:] - q[:-1]) / self.h).ravel()
        if self.cauchy:
            return np.concatenate([v, w])
        return np.concatenate([p[0], q[0], v, w])

    def unpack(self, z: np.ndarray) -> PathGrid:
        M, N, h = self.M, self.N, self.h
        if self.cauchy:
            b = self.spec.boundary
            p0, q0 = b.p0, b.q0
            v = z[: M * N].reshape(M, N)
            w = z[M * N :].reshape(M, N)
        else:
            p0, q0 = z[:N], z[N : 2 * N]
            v = z[2 * N : 2 * N + M * N].reshape(M, N)
            w = z[2 * N + M * N :].reshape(M, N)
        p = np.vstack([p0[None, :], p0[None, :] + h * np.cumsum(v, axis=0)])
        q = np.vstack([q0[None, :], q0[None, :] + h * np.cumsum(w, axis=0)])
        return PathGrid(self.spec.T, p, q)

    def fun_grad(self, z):
        breakdown = action_for(self.spec, self.unpack(z), H=self.H)
        gp, gq = breakdown.gradient()
        sufp = np.cumsum(gp[::-1], axis=0)[::-1]
        sufq = np.cumsum(gq[::-1], axis=0)[::-1]
        gv = (self.h * sufp[1:]).ravel()
        gw = (self.h * sufq[1:]).ravel()
        if self.cauchy:
            grad = np.concatenate([gv, gw])
        else:
            grad = np.concatenate([sufp[0], sufq[0], gv, gw])
        return breakdown.total, grad


def _schedule(spec: ProblemSpec, params: SolveParams):
    """Pre-flight: the stages of the schedule, as (eps, lam, hamiltonian) tuples, and the
    envelope form of the march (None when there is none).

    Builds every stage (H perturbed by eps, then inf-convolved at lam; the polish
    stage when the true pair is smooth), conjugates both boundary potentials and
    checks that they and every stage pair are smooth, raising ``ScheduleError``
    at the first fault.  A Cauchy problem whose true pair is polyhedral in 2-D
    (its primal has an ``envelope_form``) has no smooth polish stage; the march
    takes its place.
    """
    b = spec.boundary
    if isinstance(b, SemiConvex):
        lim = feedback_limit(spec.T)
        if abs(b.delta1) >= lim or abs(b.delta2) >= lim:
            raise ValueError(
                f"feedback strengths ({b.delta1:g}, {b.delta2:g}) reach the "
                f"solvability limit 1/(2T) = {lim:g}")
    base, eps_s, lam_s = spec.hamiltonian, params.eps_schedule, params.lambda_schedule
    ladder = [(eps_s[min(k, len(eps_s) - 1)] if eps_s else 0.0,
               lam_s[min(k, len(lam_s) - 1)] if lam_s else 0.0)
              for k in range(max(len(eps_s), len(lam_s)))]
    stages, rough, march = [], [], None
    for eps, lam in ladder + ([(0.0, 0.0)] if params.polish else []):
        try:
            H = EpsPerturbed(base, eps) if eps > 0 else base
            H = InfConvolved(H, lam, params.r) if lam > 0 else H
            smooth = all(f.smooth for f in H.pair())
        except NotCoerciveError as exc:
            if not (eps or lam):
                continue  # the true pair does not exist: no polish stage
            raise ScheduleError(f"stage (eps={eps:g}, lambda={lam:g}) cannot be built: "
                                f"{exc}") from exc
        except ConjugateUnavailableError as exc:
            raise ScheduleError(f"the Hamiltonian's conjugate is unavailable: {exc}") from exc
        if not (smooth or eps or lam):
            # the polish stage needs a smooth true pair; a polyhedral one is marched
            primal = H.pair()[0]
            if isinstance(b, Cauchy) and primal.dim == 2:
                march = primal.envelope_form()
            continue
        stages.append((eps, lam, H))
        if not smooth:
            rough.append((eps, lam))
    if not stages:
        raise ScheduleError("no usable continuation stage: supply eps or lambda schedules")
    potentials = () if isinstance(b, Cauchy) else (("psi1", b.start_potential),
                                                    ("psi2", b.end_potential))
    for name, psi in potentials:
        try:
            psi.conjugate_pair()  # every boundary action reads both potentials' conjugates
        except NotCoerciveError as exc:
            raise ScheduleError(f"boundary potential {name} cannot be conjugated: "
                                f"{exc}") from exc
        if not psi.smooth:
            raise ScheduleError(
                f"boundary potential {name} is nonsmooth; the continuation smooths only "
                "the Hamiltonian, so boundary potentials must be smooth kinds")
    if rough:
        eps, lam = rough[0]
        raise ScheduleError(
            f"stage (eps={eps:g}, lambda={lam:g}) has a nonsmooth Fenchel pair: the "
            "Hamiltonian's conjugate is tabulated (H is grid-backed, or has neither a "
            "closed-form nor a coordinatewise separable conjugate), and a tabulated "
            "conjugate needs both schedules nonempty"
        )
    return stages, march


def _initial_path(spec: ProblemSpec, M: int, init: PathGrid | None) -> PathGrid:
    b = spec.boundary
    if init is None:
        if isinstance(b, Cauchy):
            return PathGrid.constant(spec.T, b.p0, b.q0, M)
        return PathGrid.zeros(spec.T, spec.hamiltonian.N, M)
    if init.T != spec.T or init.N != spec.hamiltonian.N:
        raise ValueError(f"initial path has T = {init.T:g}, N = {init.N}; the problem has "
                         f"T = {spec.T:g}, N = {spec.hamiltonian.N}")
    if init.M != M:
        t_new = np.linspace(0.0, spec.T, M + 1)
        t_old = init.times
        p = np.column_stack([np.interp(t_new, t_old, init.p_nodes[:, j]) for j in range(init.N)])
        q = np.column_stack([np.interp(t_new, t_old, init.q_nodes[:, j]) for j in range(init.N)])
        init = PathGrid(spec.T, p, q)
    if isinstance(b, Cauchy) and not (np.array_equal(init.p_nodes[0], b.p0)
                                      and np.array_equal(init.q_nodes[0], b.q0)):
        # the Cauchy action is defined only on paths that start at (p0, q0)
        p, q = init.p_nodes.copy(), init.q_nodes.copy()
        p[0], q[0] = b.p0, b.q0
        init = PathGrid(spec.T, p, q)
    return init


def _stage_record(spec, eps, lam, H, path, f, g, iters, reason,
                  cert_true: Certificate | None = None) -> StageRecord:
    """The record of a stage that ended at ``path`` with objective f and gradient g (None
    when the stage has none); ``cert_true``, the certificate of the same path under the
    true pair, gives ``action_true`` without evaluating it again."""
    if H is spec.hamiltonian:
        a_true = f  # the stage objective is the true action
    elif cert_true is not None:
        a_true = cert_true.action_value
    else:
        try:
            a_true = action_for(spec, path).total
        except (NotCoerciveError, ValueError):
            a_true = float("nan")
    logger.info("stage eps=%g lam=%g: objective %.3e after %d iters (%s)",
                eps, lam, f, iters, reason)
    grad_norm = float("nan") if g is None else float(np.max(np.abs(g)))
    return StageRecord(eps, lam, iters, float(f), grad_norm, a_true, reason)


def march_stage(spec: ProblemSpec, form, params: SolveParams):
    """The implicit-midpoint path of ``polyhedral.midpoint_march`` over the envelope form
    of the true pair, with its certificate under that pair; None when a step finds no
    solution, a node leaves the table's box or the certified action misses the final
    target, tol_zero * 1e-3."""
    b, box = spec.boundary, form[0].box
    nodes = midpoint_march(form, np.concatenate([b.p0, b.q0]), spec.T / params.M, params.M)
    if nodes is None or not np.all((box.lo <= nodes) & (nodes <= box.hi)):
        return None
    path = PathGrid(spec.T, nodes[:, :1], nodes[:, 1:])
    cert = certify(spec, path, tol=params.tol_zero)
    return (path, cert) if cert.action_value <= params.tol_zero * 1e-3 else None


def _final_stage_alone(spec: ProblemSpec, params: SolveParams, final, march,
                       path: PathGrid):
    """The ``final`` stage run alone from ``path``: marched when ``march`` is an envelope form,
    otherwise, or when the march misses, under ``newton_stage``.  Returns (run, the
    march's certificate or None) when it meets the final target, tol_zero * 1e-3, and
    None otherwise; ``run`` is (eps, lam, H, path, action, gradient, iters, reason)."""
    if march is not None:
        marched = march_stage(spec, march, params)
        if marched is not None:
            path, cert = marched
            run = (0.0, 0.0, spec.hamiltonian, path, cert.action_value, None, params.M,
                   "ftarget")
            return run, cert
    eps, lam, H = final
    try:
        out = newton_stage(spec, H, path, params.max_iters, params.tol_zero * 1e-3)
    except NotImplementedError:  # a side of the final pair has no Hessian
        return None
    return ((eps, lam, H, *out), None) if out[4] == "ftarget" else None


def solve(spec: ProblemSpec, params: SolveParams, proceed_on_check_failure: bool = False,
          init: PathGrid | None = None) -> SolveResult:
    """Minimize the discrete action: the final stage alone, else the continuation schedule.

    Three steps, in this order: the schedule (``_schedule``; an unusable one
    raises ``ScheduleError`` before anything runs), the hypothesis checks when
    the spec carries a growth certificate, and the solve; nothing runs when the
    checks fail and ``proceed_on_check_failure`` is not set, and the initial
    path is returned as ``HypothesisFailed``.  The solve follows one rule: the
    final stage first runs alone from the initial path (``_final_stage_alone``:
    the march, else Newton), and is the only stage recorded when it meets the
    final target; otherwise every stage of the schedule runs from the initial
    path under L-BFGS, each warm-started from the last.  The certificate is
    recomputed from scratch under the true Hamiltonian whenever its Fenchel
    pair exists, otherwise under the final stage's smoothing.
    """
    stages, march = _schedule(spec, params)
    checks = None
    if spec.cert is not None:
        checks = run_checks(spec, seed=params.seed)
        if not checks.passed and proceed_on_check_failure:
            logger.warning("hypothesis checks failed; proceeding on request")
    proceed = checks is None or checks.passed or proceed_on_check_failure

    path = _initial_path(spec, params.M, init)
    final_H, cert, runs = stages[-1][2], None, []
    alone = _final_stage_alone(spec, params, stages[-1], march, path) if proceed else None
    if alone is not None:
        logger.info("the final stage met its target alone: the schedule does not run")
        run, cert = alone
        runs, final_H, path = [run], run[2], run[3]
    elif proceed:
        for snum, (eps, lam, H) in enumerate(stages, 1):
            ftarget = (params.tol_zero * 1e-3 if snum == len(stages)
                       else max(10.0 * params.tol_zero, 1e-8))
            obj = _PathObjective(spec, H, params.M)
            z, f, g, iters, reason = lbfgs(obj.fun_grad, obj.pack(path),
                                           max_iters=params.max_iters,
                                           gtol=GTOL * path.scale(), ftarget=ftarget)
            path = obj.unpack(z)
            runs.append((eps, lam, H, path, f, g, iters, reason))

    if cert is None:
        cert = certify(spec, path, tol=params.tol_zero, H=final_H)
    cert_true, which = cert, "true"
    if final_H is not spec.hamiltonian:
        which = "final_stage"
        try:  # raises when the true pair does not exist
            cert_true = certify(spec, path, tol=params.tol_zero)
        except (NotCoerciveError, ValueError):
            cert_true = None
    # the last stage ended at the returned path, so cert_true holds its true action
    history = [_stage_record(spec, *run) for run in runs[:-1]]
    history += [_stage_record(spec, *run, cert_true=cert_true) for run in runs[-1:]]
    if not proceed:
        status = SolveStatus.HYPOTHESIS_FAILED
    elif cert.action_value <= params.tol_zero:
        status = SolveStatus.CONVERGED
    else:
        status = SolveStatus.STALLED
    return SolveResult(path, cert, tuple(history), status, checks, which, cert_true)


# -- linear two-point boundary value problem --------------------------------


class ResonanceError(RuntimeError):
    pass


def _rk4_pass(delta1, delta2, f_nodes, g_nodes, r0, s0, h, M):
    """Classical one-step-per-interval integration of the linear system.

    dr/dt = delta2 * s + f,   ds/dt = -delta1 * r - g; forcing is linearly
    interpolated at half steps.
    """
    N = f_nodes.shape[1]
    r = np.empty((M + 1, N))
    s = np.empty((M + 1, N))
    r[0], s[0] = r0, s0

    def rhs(rk, sk, fk, gk):
        return delta2 * sk + fk, -delta1 * rk - gk

    for k in range(M):
        f0, f1 = f_nodes[k], f_nodes[k + 1]
        g0, g1 = g_nodes[k], g_nodes[k + 1]
        fm, gm = 0.5 * (f0 + f1), 0.5 * (g0 + g1)
        k1r, k1s = rhs(r[k], s[k], f0, g0)
        k2r, k2s = rhs(r[k] + 0.5 * h * k1r, s[k] + 0.5 * h * k1s, fm, gm)
        k3r, k3s = rhs(r[k] + 0.5 * h * k2r, s[k] + 0.5 * h * k2s, fm, gm)
        k4r, k4s = rhs(r[k] + h * k3r, s[k] + h * k3s, f1, g1)
        r[k + 1] = r[k] + (h / 6.0) * (k1r + 2 * k2r + 2 * k3r + k4r)
        s[k + 1] = s[k] + (h / 6.0) * (k1s + 2 * k2s + 2 * k3s + k4s)
    return r, s


def solve_linear_bvp(delta1: float, delta2: float, f_nodes, g_nodes, x, y,
                     T: float, M: int) -> PathGrid:
    """Shooting solution of dr = delta2 s + f, -ds = delta1 r + g, r(0)=x, s(T)=y.

    The terminal condition is met exactly in the discrete dynamics through the
    fundamental 2x2 propagator; |delta_i| < 1/(2T) keeps it nonsingular.
    """
    f_nodes = np.atleast_2d(np.asarray(f_nodes, dtype=float))
    g_nodes = np.atleast_2d(np.asarray(g_nodes, dtype=float))
    if f_nodes.shape[0] == 1 and f_nodes.shape[1] == M + 1:
        f_nodes = f_nodes.T
    if g_nodes.shape[0] == 1 and g_nodes.shape[1] == M + 1:
        g_nodes = g_nodes.T
    N = f_nodes.shape[1]
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    h = T / M
    lim = feedback_limit(T)
    if abs(delta1) >= lim or abs(delta2) >= lim:
        raise ResonanceError(
            f"feedback strengths ({delta1:g}, {delta2:g}) reach the solvability "
            f"limit 1/(2T) = {lim:g}")
    zeros = np.zeros((M + 1, 1))
    _, s_hom = _rk4_pass(delta1, delta2, zeros, zeros,
                         np.zeros(1), np.ones(1), h, M)
    shom_T = float(s_hom[-1, 0])
    if abs(shom_T) < 1e-10:
        raise ResonanceError(
            f"shooting matrix nearly singular at (delta1={delta1:g}, "
            f"delta2={delta2:g}, T={T:g})")
    _, s_part = _rk4_pass(delta1, delta2, f_nodes, g_nodes, x, np.zeros(N), h, M)
    sigma = (y - s_part[-1]) / shom_T
    r, s = _rk4_pass(delta1, delta2, f_nodes, g_nodes, x, sigma, h, M)
    s[-1] = y
    return PathGrid(T, r, s)
