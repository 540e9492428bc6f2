"""Sampled verification of the growth and coercivity hypotheses.

The solver's existence guarantees require growth bounds that cannot be
proved by evaluation, so every check reports VERIFIED-ON-SAMPLES rather
than a proof; failures always carry a concrete witness point.  Threshold
formulas themselves are evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hampath.action import BoundaryMode, Cauchy, Connecting, ProblemSpec, feedback_limit
from hampath.convex import Box, ConvexFn, Hamiltonian

VERIFIED = "VERIFIED-ON-SAMPLES"
FAILED = "FAILED"
EXACT = "EXACT"


@dataclass(frozen=True)
class GrowthCert:
    """User-certified growth constants; validated on samples only."""

    alpha: float
    beta: float
    gamma: float
    r: float = 2.0

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")
        if self.gamma < 0:
            raise ValueError("gamma must be nonnegative")
        if self.r <= 1:
            raise ValueError("growth exponent must exceed 1")


@dataclass(frozen=True)
class CheckItem:
    name: str
    status: str
    detail: str
    witness: np.ndarray | None = None
    values: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status != FAILED


@dataclass(frozen=True)
class CheckReport:
    items: tuple

    @property
    def passed(self) -> bool:
        return all(it.passed for it in self.items)

    def to_text(self) -> str:
        lines = []
        for it in self.items:
            lines.append(f"{it.name}: {it.status} ({it.detail})")
            if it.witness is not None:
                lines.append(f"  witness: {np.array2string(it.witness, precision=6)}")
        return "\n".join(lines)


def beta_threshold(T: float) -> float:
    """Largest admissible subquadratic constant, 1 / (2 max(2 T^2, 1))."""
    if T <= 0:
        raise ValueError("horizon must be positive")
    return 1.0 / (2.0 * max(2.0 * T * T, 1.0))


def _phase_box(H: Hamiltonian, box: Box | None) -> Box:
    return box if box is not None else H.fn.box


def _sampled_bounds(name: str, pts, vals, upper, alpha: float, verified) -> CheckItem:
    """Check -alpha <= vals <= upper on the sampled pts.  The first violated side fails
    with its worst point as the witness; else the item reads ``verified(up, low)`` of
    the worst upper and lower margins."""
    margins = {"upper": upper - vals, "lower": vals + alpha}
    values = {f"worst_{side}_margin": float(m.min()) for side, m in margins.items()}
    for side, m in margins.items():
        if m.min() < 0:
            return CheckItem(name, FAILED, f"{side} bound violated by {-m.min():.3e}",
                             pts[np.argmin(m)], values)
    return CheckItem(name, VERIFIED,
                     verified(margins["upper"].min(), margins["lower"].min()), None, values)


def check_subquadratic(H: Hamiltonian, cert: GrowthCert, box: Box | None = None,
                       samples: int = 2000, seed: int = 0) -> CheckItem:
    """Sample -alpha <= H <= (beta/2)(|p|^2 + |q|^2) + gamma over the box."""
    if samples < 1000:
        raise ValueError("need at least 1000 samples")
    box = _phase_box(H, box)
    rng = np.random.default_rng(seed)
    pts = box.sample(rng, samples)
    upper = 0.5 * cert.beta * np.sum(pts**2, axis=1) + cert.gamma
    return _sampled_bounds("subquadratic_growth", pts, H.value(pts), upper, cert.alpha,
                           lambda up, low: f"margins {up:.3e} (upper), {low:.3e} (lower) "
                                           f"on {samples} samples")


def check_power_growth(H: Hamiltonian, cert: GrowthCert, box: Box | None = None,
                       samples: int = 2000, seed: int = 0) -> CheckItem:
    """Sample -alpha <= H <= beta (|p|^r + |q|^r + 1) over the box."""
    box = _phase_box(H, box)
    rng = np.random.default_rng(seed)
    pts = box.sample(rng, samples)
    p, q = H.split(pts)
    pr = np.linalg.norm(p, axis=1) ** cert.r
    qr = np.linalg.norm(q, axis=1) ** cert.r
    upper = cert.beta * (pr + qr + 1.0)
    return _sampled_bounds("power_growth", pts, H.value(pts), upper, cert.alpha,
                           lambda up, low: f"r={cert.r:g}, margins {up:.3e}/{low:.3e} "
                                           f"on {samples} samples")


def check_beta_smallness(cert: GrowthCert, T: float) -> CheckItem:
    thr = beta_threshold(T)
    values = {"beta": cert.beta, "threshold": thr}
    if cert.beta < thr:
        return CheckItem("beta_smallness", EXACT,
                         f"beta={cert.beta:g} < threshold {thr:g}", None, values)
    return CheckItem("beta_smallness", FAILED,
                     f"beta={cert.beta:g} >= threshold {thr:g}", None, values)


def check_coercive_hamiltonian(H: Hamiltonian, box: Box | None = None,
                               samples: int = 400, seed: int = 0) -> CheckItem:
    """Directional proxy for H -> infinity: growth along every sampled ray.

    A flat direction (H constant along a ray towards the box edge) fails; for
    convex H that is exactly a loss of coercivity.
    """
    box = _phase_box(H, box)
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(samples, box.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    c = 0.5 * (box.lo + box.hi)
    hw = 0.5 * (box.hi - box.lo)
    far = c + 0.9 * dirs * hw
    near = c + 0.45 * dirs * hw
    growth = H.value(far) - H.value(near)
    margin = 1e-9 * (1.0 + np.abs(H.value(far)))
    worst = float(np.min(growth - margin))
    values = {"worst_directional_growth": float(growth.min())}
    if worst > 0:
        return CheckItem("hamiltonian_coercive", VERIFIED,
                         f"growth along all {samples} sampled rays, worst "
                         f"{growth.min():.3e}", None, values)
    k = int(np.argmin(growth - margin))
    return CheckItem("hamiltonian_coercive", FAILED,
                     f"no growth along a ray (increment {growth[k]:.3e})",
                     far[k], values)


def check_psi_coercivity(psi: ConvexFn, T: float, box: Box | None = None,
                         samples: int = 500, seed: int = 0,
                         threshold: float | None = None,
                         name: str = "potential_coercivity",
                         margin: float = 1.05) -> CheckItem:
    """Shell estimate of liminf psi(x)/|x|^2 against a threshold (default 2T).

    The liminf is only sampled on the outer 20 percent shell of the box; a
    5 percent pass margin stands in for the limit.
    """
    box = box if box is not None else psi.box
    thr = 2.0 * T if threshold is None else float(threshold)
    rng = np.random.default_rng(seed)
    shell = box.shell_sample(rng, samples)
    norms = np.sum(shell**2, axis=1)
    ratios = psi.value(shell) / norms
    est = float(ratios.min())
    values = {"ratio_estimate": est, "threshold": thr}
    if est > margin * thr:
        detail = (f"shell ratio estimate {est:.4g} > {margin:g} x threshold {thr:.4g}"
                  if thr > 0 else
                  f"positive shell ratio {est:.4g} (plain coercivity proxy)")
        return CheckItem(name, VERIFIED, detail + " (liminf sampled, not proved)",
                         None, values)
    return CheckItem(name, FAILED,
                     f"shell ratio estimate {est:.4g} fails threshold {thr:.4g}",
                     shell[np.argmin(ratios)], values)


def semiconvex_thresholds(delta1: float, delta2: float, T: float) -> dict:
    """The exact threshold quantities for the semi-convex hypotheses."""
    out = {}
    for i, d in ((1, delta1), (2, delta2)):
        eps_i = 1.0 - 4.0 * T * T * d * d
        A_i = max(2.0 * T * T, 1.0) - 2.0 * d * T * T
        out[f"eps_{i}"] = eps_i
        out[f"A_{i}"] = A_i
    out["beta_limit"] = 0.25 * min(out["eps_1"] / out["A_1"], out["eps_2"] / out["A_2"])
    out["delta_limit"] = feedback_limit(T)
    return out


def check_semiconvex(delta1: float, delta2: float, beta: float, T: float,
                     psi1: ConvexFn, psi2: ConvexFn,
                     samples: int = 500, seed: int = 0) -> CheckReport:
    """All semi-convex hypotheses: beta limit, feedback size, potential growth."""
    thr = semiconvex_thresholds(delta1, delta2, T)
    items = []

    note = ""
    if delta1 == 0.0 and delta2 == 0.0:
        note = ("; with zero feedback this limit is exactly half the plain "
                f"subquadratic threshold {beta_threshold(T):g}")
    status = EXACT if beta < thr["beta_limit"] else FAILED
    items.append(CheckItem(
        "semiconvex_beta_limit", status,
        f"beta={beta:g} vs limit {thr['beta_limit']:g} "
        f"(eps_1={thr['eps_1']:g}, A_1={thr['A_1']:g}, eps_2={thr['eps_2']:g}, A_2={thr['A_2']:g})"
        + note,
        None, thr))

    dl = thr["delta_limit"]
    ok = abs(delta1) < dl and abs(delta2) < dl
    items.append(CheckItem(
        "feedback_size", EXACT if ok else FAILED,
        f"|delta_1|={abs(delta1):g}, |delta_2|={abs(delta2):g} vs limit {dl:g}",
        None, {"delta_limit": dl}))

    psi1_thr = T * delta2 * delta2 / beta + 2.0 * T * (1.0 - delta2)
    psi2_thr = T * delta1 * delta1 / beta - 2.0 * T * delta1
    items.append(check_psi_coercivity(psi1, T, threshold=psi1_thr, samples=samples,
                                      seed=seed, name="start_potential_growth"))
    items.append(check_psi_coercivity(psi2, T, threshold=psi2_thr, samples=samples,
                                      seed=seed + 1, name="end_potential_growth"))
    return CheckReport(tuple(items))


def run_checks(spec: ProblemSpec, samples: int = 2000, seed: int = 0) -> CheckReport:
    """All hypothesis checks applicable to the problem's boundary mode."""
    H, T, b = spec.hamiltonian, spec.T, spec.boundary
    cert = spec.cert
    if not isinstance(b, BoundaryMode):
        raise TypeError(f"unknown boundary mode {type(b).__name__}")
    if cert is None:
        return CheckReport((CheckItem("growth_certificate", FAILED,
                                      "no growth certificate supplied"),))
    items: list[CheckItem] = []
    if isinstance(b, Connecting):
        items.append(check_subquadratic(H, cert, samples=samples, seed=seed))
        items.append(check_beta_smallness(cert, T))
        idx = b.coercivity_index
        carrier = b.start_potential if idx == 1 else b.end_potential
        other = b.end_potential if idx == 1 else b.start_potential
        items.append(check_psi_coercivity(
            carrier, T, samples=samples // 4 + 100, seed=seed,
            name=f"potential_{idx}_quadratic_growth"))
        items.append(check_psi_coercivity(
            other, T, samples=samples // 4 + 100, seed=seed + 1, threshold=0.0,
            name=f"potential_{3 - idx}_coercive", margin=0.0))
    elif isinstance(b, Cauchy):
        items.append(check_power_growth(H, cert, samples=samples, seed=seed))
        items.append(check_coercive_hamiltonian(H, samples=samples // 4 + 100, seed=seed))
    else:  # SemiConvex
        items.append(check_subquadratic(H, cert, samples=samples, seed=seed))
        items.extend(check_semiconvex(b.delta1, b.delta2, cert.beta, T,
                                      b.start_potential, b.end_potential,
                                      samples=samples // 4 + 100, seed=seed).items)
    return CheckReport(tuple(items))
