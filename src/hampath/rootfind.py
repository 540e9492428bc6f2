"""Vectorized safeguarded Newton for increasing scalar residuals.

Three callers reduce a smooth inner problem to one strictly increasing
scalar equation per element and solve it as
``newton_bisect(*newton_bracket(rho, drho, center, width), scale=...)``:

* derivative inversion for scalar conjugates (``ScalarConjugate._argsup``
  solves f'(u) = y),
* coordinatewise proximal maps (``ConvexFn._prox`` of a separable kind
  solves u - x + step f'(u) = 0),
* inf-convolution inner solves (``_InfConvFn._minimizers_separable``
  solves f'(u) + penalty'(u - x) = 0).

Elements stop independently: an element is done once its residual meets
``tol * scale`` or its bracket has shrunk to rounding, and from then on its
iterate is left unchanged while the others keep iterating.
"""

from __future__ import annotations

import numpy as np


class RootFindError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def bracket_root(rho, center, init_width=1.0, max_doublings=80):
    """Expand symmetric brackets around ``center`` until rho changes sign.

    ``rho`` maps arrays to arrays elementwise and is nondecreasing per element.
    """
    center = np.asarray(center, dtype=float)
    w = np.full(center.shape, float(init_width))
    lo = center - w
    hi = center + w
    for _ in range(max_doublings):
        need_lo = rho(lo) > 0
        need_hi = rho(hi) < 0
        if not (need_lo.any() or need_hi.any()):
            return lo, hi
        w = w * 2.0
        lo = np.where(need_lo, center - w, lo)
        hi = np.where(need_hi, center + w, hi)
    raise RootFindError("failed to bracket root after doubling cap")


def newton_bisect(rho_drho, lo, hi, max_iters=200, tol=1e-12, scale=None):
    """Root of an increasing residual, bracketed in [lo, hi], elementwise.

    ``rho_drho(u) -> (rho, drho)``.  Newton steps are taken when they stay
    inside the bracket, otherwise the bracket is bisected; the bracket is
    updated from the residual sign each iteration.  An element whose
    residual meets ``tol * scale``, or whose bracket is below rounding, is
    frozen at its current iterate; the call returns once every element is.
    Raises if the residual tolerance is not met at the cap.
    """
    lo = np.array(lo, dtype=float)
    hi = np.array(hi, dtype=float)
    u = 0.5 * (lo + hi)
    if scale is None:
        scale = 1.0
    r = None
    for _ in range(max_iters):
        r, dr = rho_drho(u)
        lo = np.where(r <= 0, u, lo)
        hi = np.where(r > 0, u, hi)
        done = (np.abs(r) <= tol * scale) | (hi - lo <= 1e-15 * (1.0 + np.abs(u)))
        if np.all(done):
            return u
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where((dr > 0) & np.isfinite(dr), r / dr, np.nan)
            cand = u - step
        ok = np.isfinite(cand) & (cand > lo) & (cand < hi)
        u = np.where(done, u, np.where(ok, cand, 0.5 * (lo + hi)))
    r, _ = rho_drho(u)
    worst = float(np.max(np.abs(r)))
    if worst > 1e-6 * np.max(scale if np.ndim(scale) else [scale]):
        raise RootFindError(f"inner minimization stalled, first-order residual {worst:.3e}", residual=worst)
    return u


def newton_bracket(rho, drho, center, width):
    """Arguments ``(rho_drho, lo, hi)`` of ``newton_bisect`` for the increasing ``rho``.

    Brackets each element around ``center`` from half-width ``width`` with
    ``bracket_root`` and pairs ``rho`` with its derivative ``drho``.  The
    Newton call itself stays with the caller, so call counts per calling
    module see it.
    """
    lo, hi = bracket_root(rho, center, init_width=width)
    return (lambda u: (rho(u), drho(u))), lo, hi
