"""Solvers for convex Hamiltonian boundary value problems.

The discrete actions assembled here are nonnegative by construction and
vanish exactly at solutions, so the attained action value doubles as an
optimality certificate.
"""

from hampath.convex import (
    Box,
    ConvexFn,
    EnvelopeConjugate,
    GridConjugate,
    GridSampled,
    Hamiltonian,
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
from hampath.regularize import EpsPerturbed, InfConvolved
from hampath.action import (
    ActionBreakdown,
    Cauchy,
    Connecting,
    ProblemSpec,
    SemiConvex,
    action_for,
    action_gradient,
    witness_lagrangian,
)
from hampath.conditions import GrowthCert, beta_threshold, check_psi_coercivity, check_semiconvex, check_subquadratic
from hampath.certify import Certificate, certify, residual_order
from hampath.solver import SolveParams, SolveResult, SolveStatus, solve, solve_linear_bvp

__all__ = [
    "ActionBreakdown",
    "Box",
    "Cauchy",
    "Certificate",
    "Connecting",
    "ConvexFn",
    "EnvelopeConjugate",
    "EpsPerturbed",
    "GridConjugate",
    "GridFn",
    "GridSampled",
    "GrowthCert",
    "Hamiltonian",
    "InfConvolved",
    "IntervalData",
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
    "action_for",
    "action_gradient",
    "affine",
    "beta_threshold",
    "certify",
    "check_psi_coercivity",
    "check_semiconvex",
    "check_subquadratic",
    "convexity_defect",
    "discrete_conjugate",
    "interval_data",
    "residual_order",
    "sbp_residual",
    "sobolev_norm",
    "solve",
    "solve_linear_bvp",
    "squared_norm",
    "witness_lagrangian",
]
