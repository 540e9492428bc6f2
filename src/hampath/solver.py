"""Drive the discrete action to zero by smoothing continuation.

The optimal value of every assembled action is known to be zero, so the
attained value is itself the optimality certificate and no inner maximization
is needed.  Each continuation stage minimizes the action of a regularized
Hamiltonian, warm-starting from the previous stage; a final polish stage runs
on the unregularized problem whenever its Fenchel pair is smooth.

A stage whose Fenchel pair, and outside Cauchy mode both boundary pairs, are
closed-form quadratic pairs is exact: its action is an exactly convex
quadratic function of the nodes, and Newton's method on the block-tridiagonal
node system (the implicit midpoint rule) minimizes it in one step from any
start.  The node Hessian is factored once, and the step is refined once by a
back-substitution on the same factorization.  When the final stage is exact
it runs alone, so the schedules matter only for non-quadratic H.  Every other
stage runs a limited-memory quasi-Newton method.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

import numpy as np

from hampath.action import (
    Cauchy,
    ProblemSpec,
    SemiConvex,
    action_for,
    action_gradient,
    feedback_limit,
    pairing,
)
from hampath.certify import Certificate, certify
from hampath.conditions import CheckReport, run_checks
from hampath.convex import ConjugateUnavailableError, Hamiltonian, NotCoerciveError
from hampath.grid import PathGrid
from hampath.regularize import EpsPerturbed, InfConvolved

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
        for name in ("eps_schedule", "lambda_schedule"):
            sched = tuple(float(v) for v in getattr(self, name))
            object.__setattr__(self, name, sched)
            if any(v <= 0 for v in sched):
                raise ParamError(name, f"{name} entries must be positive")
            if any(b >= a for a, b in zip(sched, sched[1:])) and len(sched) > 1:
                raise ParamError(name, f"{name} must be strictly decreasing")
        if self.tol_zero <= 0:
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


# -- Newton stages on quadratic actions -------------------------------------


def _mm(a, b):
    """Blockwise a @ b; blocks are indexed by the last axis."""
    return np.einsum("ijb,jkb->ikb", a, b)


def _tmm(a, b):
    """Blockwise a' @ b."""
    return np.einsum("jib,jkb->ikb", a, b)


def _mv(a, v):
    """Blockwise a @ v for vectors v of shape (n, B)."""
    return np.einsum("ijb,jb->ib", a, v)


def _tmv(a, v):
    """Blockwise a' @ v."""
    return np.einsum("jib,jb->ib", a, v)


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


class BlockTridiagonalFactor:
    """Cyclic-reduction factorization of a symmetric positive definite block-tridiagonal
    matrix; ``solve`` is the back-substitution for one right-hand side.

    ``D`` (n, n, K) holds the diagonal blocks and ``U`` (n, n, K-1) the blocks
    (k, k+1), whose transposes are the blocks below the diagonal; the block
    index is the last axis.  Each level eliminates the odd-indexed blocks
    through their own diagonal blocks and halves the system
    (Buzbee-Golub-Nielson).  A level keeps the inverses of its odd blocks and
    their couplings, so every further right-hand side costs only block
    products.  The inputs are not modified.
    """

    def __init__(self, D, U):
        self.levels = []
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
            self.levels.append((Dinv, Ue, Uo))
            D = D2
        self.base = _invert(D.copy())

    def solve(self, r):
        """The solution x (n, K) of the factored system for the right-hand side ``r`` (n, K)."""
        odd = []
        for Dinv, Ue, Uo in self.levels:
            mo, me = Dinv.shape[-1], (r.shape[1] + 1) // 2
            xr = _mv(Dinv, r[:, 1::2])
            r2 = r[:, 0::2].copy()
            r2[:, :mo] -= _mv(Ue, xr)
            r2[:, 1:] -= _tmv(Uo, xr[:, :me - 1])
            odd.append(xr)
            r = r2
        x = _mv(self.base, r)
        for (Dinv, Ue, Uo), xr in zip(reversed(self.levels), reversed(odd)):
            mo, me = Dinv.shape[-1], x.shape[1]
            v = _tmv(Ue, x[:, :mo])
            v[:, :me - 1] += _mv(Uo, x[:, 1:])
            xe, x = x, np.empty((x.shape[0], mo + me))
            x[:, 0::2], x[:, 1::2] = xe, xr - _mv(Dinv, v)
        return x


def _quadratic_stage(spec: ProblemSpec, H: Hamiltonian) -> bool:
    """Whether the stage action is exactly quadratic: every Fenchel pair it reads is a
    closed-form quadratic pair."""
    pairs = [H.pair()]
    if not isinstance(spec.boundary, Cauchy):
        pairs += [spec.boundary.start_potential.conjugate_pair(),
                  spec.boundary.end_potential.conjugate_pair()]
    return all(primal.gap_factor(dual) is not None for primal, dual in pairs)


def _node_hessian(spec: ProblemSpec, H: Hamiltonian, g: PathGrid):
    """Diagonal and upper blocks of the stage action's Hessian in the nodes z_k = (p_k, q_k).

    Interval k contributes h J' W J, where J = (P, Q) is the Jacobian of
    F = y - grad H(x) in (z_k, z_{k+1}) and W the dual Hessian at y; each
    boundary gap contributes B' W B on its end node.  Cauchy mode drops the
    fixed node 0.
    """
    b = spec.boundary
    d1, d2 = (b.delta1, b.delta2) if isinstance(b, SemiConvex) else (0.0, 0.0)
    primal, dual = H.pair()
    _, x, y = pairing(g, d1, d2)
    N, h = g.N, g.h
    I, O = np.eye(N), np.zeros((N, N))
    E = np.block([[O, -I], [I, O]]) / h  # slope part of y: (-dq, dp)
    F = np.block([[-d2 * I, O], [O, -d1 * I]])  # feedback part of y, on the midpoint
    # per-interval Hessians broadcast along the last axis: constant ones have length 1
    P = 0.5 * (F[:, :, None] - np.moveaxis(primal._hess(x), 0, -1)) - E[:, :, None]
    Q = P + 2.0 * E[:, :, None]
    W = np.moveaxis(dual._hess(y), 0, -1)
    WQ = _mm(W, Q)
    D = np.zeros((2 * N, 2 * N, g.M + 1))
    D[:, :, :-1] = _tmm(P, _mm(W, P))
    D[:, :, 1:] += _tmm(Q, WQ)
    D *= h
    U = np.broadcast_to(h * _tmm(P, WQ), (2 * N, 2 * N, g.M))
    if isinstance(b, Cauchy):
        return D[:, :, 1:], U[:, :, 1:]
    sp, sd = b.start_potential.conjugate_pair()
    ep, ed = b.end_potential.conjugate_pair()
    p0, q0, pT, qT = g.p_nodes[0], g.q_nodes[0], g.p_nodes[-1], g.q_nodes[-1]
    # r0 = q0 - grad psi1(p0), rT = -pT - grad psi2(qT)
    B0 = np.hstack([-sp._hess(p0[None])[0], I])
    BT = np.hstack([-I, -ep._hess(qT[None])[0]])
    D[:, :, 0] += B0.T @ sd._hess(q0[None])[0] @ B0
    D[:, :, -1] += BT.T @ ed._hess(-pT[None])[0] @ BT
    return D, U


def newton_stage(spec: ProblemSpec, H: Hamiltonian, path: PathGrid, max_iters: int,
                 ftarget: float):
    """Minimize a quadratic stage action by Newton steps on the node system.

    The node Hessian of a quadratic action does not depend on the path, so it
    is assembled and factored once, at the first step.  The right-hand side is
    the exact node gradient from ``action_for`` and a step is kept only when
    ``action_for`` confirms a decrease.  The step that meets ``ftarget`` is
    followed by one refinement back-substitution on the same factorization:
    on a quadratic action the new gradient is exactly the linear residual the
    step left in rounding (iterative refinement), and the refined path is kept
    when it lowers the action again.  The refinement counts as part of the step
    it refines.  Returns (path, action, gradient, iterations, reason) with
    reason ``ftarget``, ``max_iters`` or ``no_decrease``; the gradient covers
    the free nodes.
    """
    free = slice(1, None) if isinstance(spec.boundary, Cauchy) else slice(None)

    def evaluate(g):
        ev = action_for(spec, g, H=H)
        gp, gq = ev.gradient()
        return ev.total, np.hstack([gp, gq])[free]

    def newton_step(g, grad):
        step = factor.solve(-grad.T).T
        z = np.hstack([g.p_nodes, g.q_nodes])
        z[free] += step
        if not np.all(np.isfinite(z)):
            return None
        return PathGrid(g.T, z[:, :g.N], z[:, g.N:])

    f, grad = evaluate(path)
    factor = None
    it = 0
    while f > ftarget:
        if it == max_iters:
            return path, f, grad, it, "max_iters"
        if factor is None:
            factor = BlockTridiagonalFactor(*_node_hessian(spec, H, path))
        trial = newton_step(path, grad)
        if trial is None:
            return path, f, grad, it, "no_decrease"
        ft, gt = evaluate(trial)
        if not ft < f:
            return path, f, grad, it, "no_decrease"
        path, f, grad, it = trial, ft, gt, it + 1
    if factor is not None:
        # the last step met the target: refine it once
        refined = newton_step(path, grad)
        if refined is not None:
            fr, gr = evaluate(refined)
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


def _stage_hamiltonians(base: Hamiltonian, params: SolveParams):
    """Continuation stages as (eps, lam, hamiltonian); a stage that cannot be built, such
    as a lambda-only stage over a non-coercive H, raises ``ScheduleError`` naming it."""
    eps_s, lam_s = params.eps_schedule, params.lambda_schedule
    n = max(len(eps_s), len(lam_s))
    stages = []
    for k in range(n):
        eps = eps_s[k] if k < len(eps_s) else (eps_s[-1] if eps_s else 0.0)
        lam = lam_s[k] if k < len(lam_s) else (lam_s[-1] if lam_s else 0.0)
        try:
            stages.append((eps, lam, _stage_hamiltonian(base, eps, lam, params.r)))
        except NotCoerciveError as exc:
            raise ScheduleError(f"stage (eps={eps:g}, lambda={lam:g}) cannot be built: "
                                f"{exc}") from exc
    return stages


def _stage_hamiltonian(H: Hamiltonian, eps: float, lam: float, r: float) -> Hamiltonian:
    """H perturbed by eps (when eps > 0), then inf-convolved at lam with exponent r
    (when lam > 0): the Hamiltonian of one continuation stage."""
    if eps > 0:
        H = EpsPerturbed(H, eps)
    if lam > 0:
        H = InfConvolved(H, lam, r)
    return H


def _pair_is_smooth(H: Hamiltonian) -> bool:
    try:
        primal, dual = H.pair()
    except NotCoerciveError:
        return False
    return bool(primal.smooth and dual.smooth)


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


def solve(spec: ProblemSpec, params: SolveParams, proceed_on_check_failure: bool = False,
          init: PathGrid | None = None) -> SolveResult:
    """Minimize the discrete action through the continuation schedule.

    The whole schedule is built and validated first.  When the final stage is
    exact (closed-form quadratic pairs throughout), it runs alone from the
    initial path, as one refined Newton step, and the earlier stages are not
    run or recorded; the schedules matter only for non-quadratic H.  Returns
    the best path with a certificate recomputed from scratch; the certificate
    is evaluated under the true Hamiltonian whenever its Fenchel pair exists,
    otherwise under the final stage's smoothing.
    """
    if isinstance(spec.boundary, SemiConvex):
        lim = feedback_limit(spec.T)
        b = spec.boundary
        if abs(b.delta1) >= lim or abs(b.delta2) >= lim:
            raise ValueError(
                f"feedback strengths ({b.delta1:g}, {b.delta2:g}) reach the "
                f"solvability limit 1/(2T) = {lim:g}")

    base = spec.hamiltonian
    try:
        stages = _stage_hamiltonians(base, params)
        if params.polish and _pair_is_smooth(base):
            stages.append((0.0, 0.0, base))
        smooth = [_pair_is_smooth(H) for _, _, H in stages]
    except ConjugateUnavailableError as exc:
        raise ScheduleError(f"the Hamiltonian's conjugate is unavailable: {exc}") from exc
    if not stages:
        raise ScheduleError("no usable continuation stage: supply eps or lambda schedules")
    if not isinstance(spec.boundary, Cauchy):
        # every boundary action reads both potentials' conjugates
        b = spec.boundary
        for name, psi in (("psi1", b.start_potential), ("psi2", b.end_potential)):
            try:
                psi.conjugate_pair()
            except NotCoerciveError as exc:
                raise ScheduleError(f"boundary potential {name} cannot be conjugated: "
                                    f"{exc}") from exc

    checks = None
    if spec.cert is not None:
        checks = run_checks(spec, seed=params.seed)
        if not checks.passed and not proceed_on_check_failure:
            path = _initial_path(spec, params.M, init)
            cert, cert_true, which = _certificates(spec, path, params, stages[-1][2])
            return SolveResult(path, cert, (), SolveStatus.HYPOTHESIS_FAILED, checks, which,
                               cert_true)
        if not checks.passed:
            logger.warning("hypothesis checks failed; proceeding on request")

    for (eps, lam, _), ok in zip(stages, smooth):
        if not ok:
            raise ScheduleError(
                f"stage (eps={eps:g}, lambda={lam:g}) has a nonsmooth Fenchel pair: the "
                "Hamiltonian's conjugate is tabulated (H is grid-backed, or has neither a "
                "closed-form nor a coordinatewise separable conjugate), and a tabulated "
                "conjugate needs both schedules nonempty"
            )
    if not isinstance(spec.boundary, Cauchy):
        b = spec.boundary
        for name, psi in (("psi1", b.start_potential), ("psi2", b.end_potential)):
            if not psi.smooth:
                raise ScheduleError(
                    f"boundary potential {name} is nonsmooth; the continuation smooths only "
                    "the Hamiltonian, so boundary potentials must be smooth kinds")

    if len(stages) > 1 and _quadratic_stage(spec, stages[-1][2]):
        # Newton reaches an exact stage's zero from any start: the ladder is wasted work
        logger.info("final stage is exactly quadratic: skipping %d smoothing stage(s)",
                    len(stages) - 1)
        stages = stages[-1:]
    path = _initial_path(spec, params.M, init)
    history = []
    for snum, (eps, lam, H) in enumerate(stages):
        final = snum == len(stages) - 1
        ftarget = params.tol_zero * 1e-3 if final else max(10.0 * params.tol_zero, 1e-8)
        iters, reason = 0, None
        if _quadratic_stage(spec, H):
            path, f, g, iters, reason = newton_stage(spec, H, path, params.max_iters, ftarget)
        if reason in (None, "no_decrease"):
            # every other stage, and a Newton stage that stopped decreasing, runs L-BFGS
            obj = _PathObjective(spec, H, params.M)
            z, f, g, more, reason = lbfgs(
                obj.fun_grad, obj.pack(path), max_iters=params.max_iters - iters,
                gtol=GTOL * path.scale(), ftarget=ftarget)
            path, iters = obj.unpack(z), iters + more
        if H is base:
            a_true = f  # the stage objective is the true action
        else:
            try:
                a_true = action_for(spec, path).total
            except (NotCoerciveError, ValueError):
                a_true = float("nan")
        history.append(StageRecord(eps, lam, iters, float(f), float(np.max(np.abs(g))), a_true,
                                   reason))
        logger.info("stage eps=%g lam=%g: objective %.3e after %d iters (%s)",
                    eps, lam, f, iters, reason)

    cert, cert_true, which = _certificates(spec, path, params, stages[-1][2])
    status = SolveStatus.CONVERGED if cert.action_value <= params.tol_zero else SolveStatus.STALLED
    return SolveResult(path, cert, tuple(history), status, checks, which, cert_true)


def _certificates(spec: ProblemSpec, path: PathGrid, params: SolveParams,
                  final_H: Hamiltonian):
    """Stage-level certificate plus the smoothing-removed one when it exists."""
    cert_stage = certify(spec, path, tol=params.tol_zero, H=final_H)
    if final_H is spec.hamiltonian:
        return cert_stage, cert_stage, "true"
    try:
        spec.hamiltonian.pair()
        cert_true = certify(spec, path, tol=params.tol_zero)
        return cert_stage, cert_true, "final_stage"
    except (NotCoerciveError, ValueError):
        return cert_stage, None, "final_stage"


def gradient_action(spec: ProblemSpec, g: PathGrid, eps: float = 0.0, lam: float = 0.0,
                    r: float = 4.0) -> PathGrid:
    """Exact gradient of the stage action, returned in path-node layout."""
    gp, gq = action_gradient(spec.boundary, _stage_hamiltonian(spec.hamiltonian, eps, lam, r), g)
    return PathGrid(g.T, gp, gq)


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
