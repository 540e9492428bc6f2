"""Recompute, from a candidate path alone, every identity a solution must satisfy.

The certificate is built from pointwise Fenchel-Young gaps (always defined,
nonnegative by construction) and cross-checked by subdifferential inclusion
distances where the subdifferential is a singleton.  Certification never
throws; it reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hampath.action import Cauchy, ProblemSpec, SemiConvex, action_for, pairing
from hampath.convex import Hamiltonian, Quadratic
from hampath.grid import PathGrid


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable optimality evidence for a candidate path."""

    action_value: float
    interior_residuals: np.ndarray
    boundary_start_residual: float
    boundary_end_residual: float
    inclusion_residuals: np.ndarray | None
    energy_drift: float | None
    tol: float
    passed: bool
    h: float

    @property
    def max_weighted_interior(self) -> float:
        return float(self.h * np.max(self.interior_residuals)) if self.interior_residuals.size else 0.0

    def to_text(self) -> str:
        lines = [
            f"action_value: {self.action_value:.17g}",
            f"interior_residual_max: {float(np.max(self.interior_residuals)):.17g}",
            f"interior_residual_max_weighted: {self.max_weighted_interior:.17g}",
            f"boundary_start_residual: {self.boundary_start_residual:.17g}",
            f"boundary_end_residual: {self.boundary_end_residual:.17g}",
        ]
        if self.inclusion_residuals is not None:
            finite = self.inclusion_residuals[np.isfinite(self.inclusion_residuals)]
            if finite.size:
                lines.append(f"inclusion_residual_max: {float(np.max(finite)):.17g}")
        if self.energy_drift is not None:
            lines.append(f"energy_drift: {self.energy_drift:.17g}")
        lines.append(f"tolerance: {self.tol:.17g}")
        lines.append(f"passed: {self.passed}")
        return "\n".join(lines)


def _subgradient_inclusions(H: Hamiltonian, boundary, g: PathGrid):
    """Distance of the slope pair to the minimal-norm subgradient at the midpoints,
    for nonsmooth primals (smooth ones get theirs from ``action_for``).

    Entries are NaN on intervals where the subdifferential is not a singleton.
    """
    d1, d2 = (boundary.delta1, boundary.delta2) if isinstance(boundary, SemiConvex) else (0.0, 0.0)
    _, x, y = pairing(g, d1, d2)
    vals, unique = H.pair()[0]._subgradients(x)
    return np.where(unique, np.linalg.norm(y - vals, axis=1), np.nan)


def certify(spec: ProblemSpec, g: PathGrid, tol: float | None = None,
            H: Hamiltonian | None = None) -> Certificate:
    """Certificate of the path against the spec (or an explicit Hamiltonian).

    Pass criterion: every h-weighted interior gap and both boundary gaps are
    at most ``tol``; default tol is 1e-6 * (1 + path magnitude).  In Cauchy mode
    the energy drift max H - min H over the nodes is reported too, read from
    ``g.nodes`` when H is quadratic.
    """
    H = H if H is not None else spec.hamiltonian
    if tol is None:
        tol = 1e-6 * g.scale()
    breakdown = action_for(spec, g, H=H)
    inclusions = breakdown.inclusion
    if inclusions is None:
        inclusions = _subgradient_inclusions(H, spec.boundary, g)
    energy = None
    if isinstance(spec.boundary, Cauchy):
        if isinstance(H.fn, Quadratic):
            vals = H.fn._column_values(g.nodes)
        else:
            vals = H.value(np.concatenate([g.p_nodes, g.q_nodes], axis=1))
        energy = float(vals.max() - vals.min())
    ok = (breakdown.h * float(np.max(breakdown.interior, initial=0.0)) <= tol
          and breakdown.boundary_start <= tol
          and breakdown.boundary_end <= tol)
    return Certificate(
        action_value=breakdown.total,
        interior_residuals=breakdown.interior,
        boundary_start_residual=breakdown.boundary_start,
        boundary_end_residual=breakdown.boundary_end,
        inclusion_residuals=inclusions,
        energy_drift=energy,
        tol=tol,
        passed=bool(ok),
        h=breakdown.h,
    )


def fitted_order(M_values, errors) -> float:
    """Slope of -log(error) against log(M) by least squares."""
    M = np.asarray(M_values, dtype=float)
    e = np.asarray(errors, dtype=float)
    mask = e > 0
    if mask.sum() < 2:
        return float("nan")
    coef = np.polyfit(np.log(M[mask]), np.log(e[mask]), 1)
    return float(-coef[0])


def residual_order(spec: ProblemSpec, exact_path_sampler, M_list) -> dict:
    """Grid-convergence table on an exact solution sampler.

    ``exact_path_sampler(M) -> PathGrid``.  Returns per-M action values,
    max Fenchel gaps and max inclusion residuals, with fitted orders.  The
    inclusion residual tracks the scheme defect linearly and is the
    second-order quantity; the action and Fenchel gaps are quadratic in the
    defect and converge twice as fast.
    """
    rows = []
    for M in M_list:
        g = exact_path_sampler(M)
        cert = certify(spec, g)
        incl = cert.inclusion_residuals
        incl_max = float(np.nanmax(incl)) if incl is not None else float("nan")
        rows.append({
            "M": int(M),
            "action": cert.action_value,
            "max_fenchel_gap": float(np.max(cert.interior_residuals)),
            "max_inclusion_residual": incl_max,
        })
    Ms = [r["M"] for r in rows]
    return {
        "rows": rows,
        "order_action": fitted_order(Ms, [abs(r["action"]) for r in rows]),
        "order_fenchel": fitted_order(Ms, [r["max_fenchel_gap"] for r in rows]),
        "order_inclusion": fitted_order(Ms, [r["max_inclusion_residual"] for r in rows]),
    }
