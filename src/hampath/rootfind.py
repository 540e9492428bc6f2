"""Vectorized safeguarded Newton for increasing scalar residuals.

Three callers reduce a smooth inner problem over a coordinatewise separable
f(x) = sum_i f_i(x_i) to one strictly increasing scalar equation per
element of a (K, d) array, reading f_i' and f_i'' column by column from the
function's own ``_grad`` and ``_curvature``, and solve all of them in one
``newton_bisect`` call:

* derivative inversion for scalar conjugates (``ScalarConjugate._argsup``
  solves f_i'(u_i) = y_i),
* coordinatewise proximal maps (``convex._separable_prox``, behind the
  ``_prox`` of a separable kind and of ``ScalarConjugate``, solves
  u_i - x_i + step f_i'(u_i) = 0),
* inf-convolution inner solves (``_InfConvFn._attain_separable`` solves
  f_i'(u_i) + penalty'(u_i - x_i) = 0 in the penalty slope v_i, with
  u_i = x_i + sign(v_i)|v_i|^(r-1): rho(v) = f'(x + sign(v)|v|^(r-1)) + v / lam^s).

The first two bracket an element with ``newton_bracket`` from a half-width
of its own, 1 + |center| or 1 + |y|, so that an element's result does not
depend on the rest of its batch; the inf-convolution residual and facet
enumeration (``polyhedral``) know their brackets in closed form.

Newton starts each element at its bracket's midpoint, or at a caller's
per-element ``start`` where that lies strictly inside the bracket: the
derivative inversion of ``ScalarConjugate`` is started at the paired primal
point, which at zero Fenchel-Young gap is the root itself.  A start changes
how many iterations a root takes, never what counts as one: the bracket, the
tolerance, the bisection fallback and the stall check are the same with and
without it.

Elements stop independently: an element is done once its residual meets
``TOL * scale`` or its bracket has shrunk to rounding, and from then on its
iterate is left unchanged while the others keep iterating.  A batch of
coordinates therefore returns bitwise what one call per coordinate would.
"""

from __future__ import annotations

import numpy as np


# Newton iterations before a call falls back to pure bisection.  Where the
# residual's slope is unbounded at the root (|u|^(1/3) terms of power
# conjugates), in-bracket Newton steps can stay arbitrarily short; bisection
# then collapses any bracket to rounding within the remaining iterations.
# Well-conditioned calls finish far below this count (7 residual evaluations
# at most in the benchmark's lambda sweep), so they never reach it.
NEWTON_ITERS = 100

# A ``newton_bisect`` call's iterations and its residual tolerance relative to each
# element's scale; ``bracket_root``'s doublings
MAX_ITERS = 200
TOL = 1e-12
MAX_DOUBLINGS = 80


class RootFindError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def bracket_root(rho, center, init_width=1.0):
    """Expand symmetric brackets around ``center`` until rho changes sign.

    ``rho`` maps arrays to arrays elementwise and is nondecreasing per element.
    ``init_width`` is one half-width or one per element; with per-element
    widths, each element's bracket depends on that element alone.
    """
    center = np.asarray(center, dtype=float)
    w = np.broadcast_to(np.asarray(init_width, dtype=float), center.shape).copy()
    lo = center - w
    hi = center + w
    for _ in range(MAX_DOUBLINGS):
        need_lo = rho(lo) > 0
        need_hi = rho(hi) < 0
        if not (need_lo.any() or need_hi.any()):
            return lo, hi
        w = w * 2.0
        lo = np.where(need_lo, center - w, lo)
        hi = np.where(need_hi, center + w, hi)
    raise RootFindError("failed to bracket root after doubling cap")


def newton_bisect(rho_drho, lo, hi, scale=None, start=None):
    """Root of an increasing residual, bracketed in [lo, hi], elementwise.

    ``rho_drho(u) -> (rho, drho)``.  The first iterate is ``start`` (one per
    element, or one for all) where it lies strictly inside the bracket and the
    midpoint elsewhere.  Newton steps are taken when they stay inside the
    bracket, otherwise, and after ``NEWTON_ITERS`` iterations, the bracket is
    bisected; the bracket is updated from the residual sign each iteration.
    An element whose residual meets ``TOL * scale``, or whose bracket is below
    rounding, is frozen at its current iterate; the call returns once every
    element is.  Raises if after ``MAX_ITERS`` iterations any element's residual
    exceeds 1e-6 times its own scale.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    u = 0.5 * (lo + hi)
    if start is not None:
        # NaN compares false, so a non-finite start falls back to the midpoint
        start = np.broadcast_to(np.asarray(start, dtype=float), u.shape)
        u = np.where((start > lo) & (start < hi), start, u)
    if scale is None:
        scale = 1.0
    r = None
    for it in range(MAX_ITERS):
        r, dr = rho_drho(u)
        lo = np.where(r <= 0, u, lo)
        hi = np.where(r > 0, u, hi)
        done = (np.abs(r) <= TOL * scale) | (hi - lo <= 1e-15 * (1.0 + np.abs(u)))
        if np.all(done):
            return u
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where((dr > 0) & np.isfinite(dr), r / dr, np.nan)
            cand = u - step
        ok = np.isfinite(cand) & (cand > lo) & (cand < hi) & (it < NEWTON_ITERS)
        u = np.where(done, u, np.where(ok, cand, 0.5 * (lo + hi)))
    r, _ = rho_drho(u)
    # each element against its own scale, so that a stall does not hide behind
    # a larger-scale element of the same batch
    stalled = np.abs(r) > 1e-6 * np.asarray(scale)
    if np.any(stalled):
        worst = float(np.max(np.abs(r)[stalled]))
        raise RootFindError(f"inner minimization stalled, first-order residual {worst:.3e}", residual=worst)
    return u


def newton_bracket(rho, drho, center, width):
    """Arguments ``(rho_drho, lo, hi)`` of ``newton_bisect`` for the increasing ``rho``.

    Brackets each element around ``center`` from half-width ``width`` (one
    per element, or one for all) with ``bracket_root`` and pairs ``rho`` with
    its derivative ``drho``.  The Newton call itself stays with the caller, so
    call counts per calling module see it.
    """
    lo, hi = bracket_root(rho, center, init_width=width)
    return (lambda u: (rho(u), drho(u))), lo, hi
