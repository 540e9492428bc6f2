"""Independent reference solutions; nothing here imports hampath.

The solver's dynamics are dp/dt = dH/dq + delta1 q and dq/dt = -dH/dp - delta2 p
(delta1 = delta2 = 0 outside semiconvex mode).  Linear problems are solved
exactly through the matrix exponential of that flow; power-law problems are
integrated with a fine classical RK4.
"""

from __future__ import annotations

import numpy as np


def flow_matrix(A, delta1=0.0, delta2=0.0):
    """Generator K of dz/dt = K z for H(z) = z'Az/2 on z = (p, q)."""
    A = np.asarray(A, dtype=float)
    N = A.shape[0] // 2
    I = np.eye(N)
    J = np.block([[np.zeros((N, N)), I], [-I, np.zeros((N, N))]])
    D = np.block([[np.zeros((N, N)), delta1 * I], [-delta2 * I, np.zeros((N, N))]])
    return J @ A + D


def _sample(K, z0, T, M):
    from scipy.linalg import expm

    step = expm((T / M) * K)
    z = np.empty((M + 1, z0.size))
    z[0] = z0
    for k in range(M):
        z[k + 1] = step @ z[k]
    return z


def linear_cauchy(K, p0, q0, T, M):
    """Exact flow of dz/dt = K z from (p0, q0), at the M+1 grid nodes."""
    z0 = np.concatenate([np.atleast_1d(p0), np.atleast_1d(q0)]).astype(float)
    return _sample(K, z0, T, M)


def linear_connecting(K, S1, c1, S2, c2, T, M):
    """Shooting solution of dz/dt = K z with q(0) = S1 (p(0) - c1), -p(T) = S2 (q(T) - c2).

    The terminal condition is linear in the unknown p(0), so one solve of an
    N x N system through the exact propagator is the whole shooting method.
    """
    from scipy.linalg import expm

    N = K.shape[0] // 2
    S1, S2 = np.atleast_2d(S1), np.atleast_2d(S2)
    c1, c2 = np.atleast_1d(c1).astype(float), np.atleast_1d(c2).astype(float)
    Phi = expm(T * K)
    E = np.vstack([np.eye(N), S1])
    e = np.concatenate([np.zeros(N), -S1 @ c1])
    R = np.hstack([np.eye(N), S2])  # terminal residual: R z(T) - S2 c2 = 0
    p0 = np.linalg.solve(R @ Phi @ E, S2 @ c2 - R @ Phi @ e)
    return _sample(K, E @ p0 + e, T, M)


def power_field(quad, powers):
    """Vector field of H(z) = z'Az/2 + sum_j scale_j sum_i |z_i|^r_j, rows of z batched."""
    A = np.asarray(quad, dtype=float)
    N = A.shape[0] // 2

    def field(z):
        g = z @ A.T
        for r, scale in powers:
            g = g + scale * r * np.sign(z) * np.abs(z) ** (r - 1.0)
        return np.concatenate([g[..., N:], -g[..., :N]], axis=-1)
    return field


def power_lipschitz(quad, powers, zmax):
    """Bound on the field's Jacobian norm on the cube |z_i| <= zmax."""
    L = float(np.linalg.norm(quad, 2))
    for r, scale in powers:
        L += scale * r * (r - 1.0) * zmax ** (r - 2.0)
    return L


def rk4_nodes(field, z0, T, M, min_steps=8000):
    """Classical RK4 with at least ``min_steps`` steps, sampled at the M+1 nodes."""
    sub = max(1, -(-min_steps // M))
    h = T / (M * sub)
    z = np.asarray(z0, dtype=float)
    out = np.empty((M + 1, z.size))
    out[0] = z
    for k in range(M):
        for _ in range(sub):
            k1 = field(z)
            k2 = field(z + 0.5 * h * k1)
            k3 = field(z + 0.5 * h * k2)
            k4 = field(z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = z
    return out


def path_tolerance(ref, field, T, action, lipschitz):
    """Allowed sup distance between a certified discrete path and the exact one.

    Two sources: the implicit-midpoint scheme's defect on the exact path
    (order h^2) accumulated over the horizon, with a safety factor of 4, and
    the certified action itself: a Fenchel gap is a Bregman distance, so a
    path with action a has slope residuals of order sqrt(L a).  Boundary
    coupling amplifies the latter in connecting problems by up to about 1.3
    on the generated configs, hence its factor of 8.
    """
    h = T / (ref.shape[0] - 1)
    defect = (ref[1:] - ref[:-1]) / h - field(0.5 * (ref[1:] + ref[:-1]))
    worst = float(np.abs(defect).max())
    return 4.0 * T * worst + 8.0 * np.sqrt(max(lipschitz, 1.0) * max(action, 0.0) * T) \
        + 1e-12 * (1.0 + float(np.abs(ref).max()))
