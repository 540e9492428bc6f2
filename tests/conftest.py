import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from hampath.conditions import GrowthCert
from hampath.convex import GridSampled, Hamiltonian, PowerNorm, Quadratic, Sum, squared_norm
from hampath.legendre import GridFn
from hampath.action import Cauchy, Connecting, ProblemSpec


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def harmonic_hamiltonian(N=1):
    return Hamiltonian(Quadratic(np.eye(2 * N)), N)


def scaled_hamiltonian(beta, N=1):
    return Hamiltonian(Quadratic(beta * np.eye(2 * N)), N)


def quartic_hamiltonian(N=1, scale=0.25):
    return Hamiltonian(PowerNorm(4.0, scale, dim=2 * N), N)


def coupled_hamiltonian():
    A = np.array([
        [1.0, 0.2, 0.1, 0.0],
        [0.2, 0.8, 0.0, 0.1],
        [0.1, 0.0, 0.9, 0.15],
        [0.0, 0.1, 0.15, 1.1],
    ])
    return Hamiltonian(Quadratic(A), 2)


def mixed_hamiltonian():
    fn = Sum([Quadratic(0.5 * np.eye(2)), PowerNorm(4.0, 0.1, dim=2)])
    return Hamiltonian(fn, 1)


def grid_hamiltonian(n=21, half=4.0):
    """Tabulated (p^2 + q^2) / 2 on [-half, half]^2: a nonsmooth Fenchel pair."""
    x = np.linspace(-half, half, n)
    X1, X2 = np.meshgrid(x, x, indexing="ij")
    return Hamiltonian(GridSampled(GridFn([-half, -half], [half, half],
                                          0.5 * (X1**2 + X2**2))), 1)


def decline_march(*args, **kwargs):
    """Stands in for ``polyhedral.midpoint_march`` as a march whose first step finds no
    solution, so that a tabulated Cauchy solve runs its smoothed stages."""
    return None


def harmonic_cauchy_spec(T=1.0):
    return ProblemSpec(harmonic_hamiltonian(), T, Cauchy([1.0], [0.0]),
                       GrowthCert(0.01, 0.5, 0.01, r=2.0))


def p1_connecting_spec(beta=0.1, T=0.2):
    """Shifted start potential; the centered end potential carries the growth."""
    return ProblemSpec(
        scaled_hamiltonian(beta), T,
        Connecting(squared_norm(1, 0.5, [1.0]), squared_norm(1, 0.5), 2),
        GrowthCert(0.01, beta, 0.01, r=2.0),
    )
