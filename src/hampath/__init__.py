"""Solvers for convex Hamiltonian boundary value problems.

The discrete actions assembled here are nonnegative by construction and
vanish exactly at solutions, so the attained action value doubles as an
optimality certificate.
"""

from hampath.convex import (
    Box,
    ConvexFn,
    GridConjugate,
    GridSampled,
    Hamiltonian,
    MoreauEnvelope,
    PowerNorm,
    Quadratic,
    ScalarConjugate,
    SeparableSum,
    SubgradientResult,
    Sum,
    affine,
    squared_norm,
)
from hampath.legendre import GridFn, convexity_defect, discrete_conjugate
from hampath.grid import PathGrid, IntervalData, interval_data, sbp_residual, sobolev_norm
from hampath.regularize import EpsPerturbed, InfConvolved, infconv, prox_points, quad_perturb
from hampath.action import (
    ActionBreakdown,
    Cauchy,
    Connecting,
    ProblemSpec,
    SemiConvex,
    cauchy_action,
    connecting_action,
    semiconvex_action,
    witness_lagrangian,
)
from hampath.conditions import GrowthCert, beta_threshold, check_psi_coercivity, check_semiconvex, check_subquadratic
from hampath.certify import Certificate, certify, residual_order
from hampath.solver import SolveParams, SolveResult, SolveStatus, gradient_action, solve, solve_linear_bvp

__all__ = [
    "ActionBreakdown",
    "Box",
    "Cauchy",
    "Certificate",
    "Connecting",
    "ConvexFn",
    "EpsPerturbed",
    "GridConjugate",
    "GridFn",
    "GridSampled",
    "GrowthCert",
    "Hamiltonian",
    "InfConvolved",
    "IntervalData",
    "MoreauEnvelope",
    "PathGrid",
    "PowerNorm",
    "ProblemSpec",
    "Quadratic",
    "ScalarConjugate",
    "SemiConvex",
    "SeparableSum",
    "SolveParams",
    "SolveResult",
    "SolveStatus",
    "SubgradientResult",
    "Sum",
    "affine",
    "beta_threshold",
    "cauchy_action",
    "certify",
    "check_psi_coercivity",
    "check_semiconvex",
    "check_subquadratic",
    "connecting_action",
    "convexity_defect",
    "discrete_conjugate",
    "gradient_action",
    "infconv",
    "interval_data",
    "prox_points",
    "quad_perturb",
    "residual_order",
    "sbp_residual",
    "semiconvex_action",
    "sobolev_norm",
    "solve",
    "solve_linear_bvp",
    "squared_norm",
    "witness_lagrangian",
]
