"""Discrete trajectory pairs on a uniform time grid.

Difference quotients live on intervals and node values are averaged to
interval midpoints.  Under this pairing the summation-by-parts identity

    h * sum_k (dq_k . pbar_k + dp_k . qbar_k) = p_M . q_M - p_0 . q_0

telescopes exactly, which is what makes the discrete actions nonnegative
without quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PathGrid:
    """Paths (p, q) sampled at M+1 nodes over [0, T]; arrays are (M+1, N)."""

    T: float
    p_nodes: np.ndarray
    q_nodes: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p_nodes, dtype=float)
        q = np.asarray(self.q_nodes, dtype=float)
        if p.ndim == 1:
            p = p[:, None]
        if q.ndim == 1:
            q = q[:, None]
        object.__setattr__(self, "p_nodes", p)
        object.__setattr__(self, "q_nodes", q)
        if p.shape != q.shape or p.shape[0] < 2:
            raise ValueError("p and q need matching shapes (M+1, N) with M >= 1")
        if not self.T > 0:
            raise ValueError("horizon must be positive")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
            raise ValueError("path nodes must be finite")

    @property
    def M(self) -> int:
        return self.p_nodes.shape[0] - 1

    @property
    def N(self) -> int:
        return self.p_nodes.shape[1]

    @property
    def h(self) -> float:
        return self.T / self.M

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.M + 1)

    def scale(self) -> float:
        return 1.0 + max(np.abs(self.p_nodes).max(), np.abs(self.q_nodes).max())

    @staticmethod
    def zeros(T: float, N: int, M: int) -> "PathGrid":
        z = np.zeros((M + 1, N))
        return PathGrid(T, z, z.copy())

    @staticmethod
    def constant(T: float, p0, q0, M: int) -> "PathGrid":
        p0 = np.atleast_1d(np.asarray(p0, dtype=float))
        q0 = np.atleast_1d(np.asarray(q0, dtype=float))
        return PathGrid(T, np.tile(p0, (M + 1, 1)), np.tile(q0, (M + 1, 1)))

    def csv_text(self) -> str:
        """Columns t, p_1..p_N, q_1..q_N with 17 significant digits, one row per node."""
        N = self.N
        header = ",".join(["t"] + [f"p_{i+1}" for i in range(N)] + [f"q_{i+1}" for i in range(N)])
        rows = np.column_stack([self.times, self.p_nodes, self.q_nodes])
        fmt = ",".join(["%.17g"] * rows.shape[1])
        return "\n".join([header] + [fmt % tuple(row) for row in rows.tolist()]) + "\n"

    @staticmethod
    def from_csv(path) -> "PathGrid":
        raw = np.genfromtxt(path, delimiter=",", names=True)
        names = raw.dtype.names
        N = sum(1 for n in names if n.startswith("p_"))
        t = raw["t"]
        p = np.column_stack([raw[f"p_{i+1}"] for i in range(N)])
        q = np.column_stack([raw[f"q_{i+1}"] for i in range(N)])
        return PathGrid(float(t[-1]), p, q)


@dataclass(frozen=True)
class IntervalData:
    """Per-interval difference quotients and midpoint averages, arrays (M, N)."""

    dp: np.ndarray
    dq: np.ndarray
    pbar: np.ndarray
    qbar: np.ndarray
    h: float


def interval_data(g: PathGrid) -> IntervalData:
    h = g.h
    p, q = g.p_nodes, g.q_nodes
    return IntervalData(
        dp=(p[1:] - p[:-1]) / h,
        dq=(q[1:] - q[:-1]) / h,
        pbar=0.5 * (p[:-1] + p[1:]),
        qbar=0.5 * (q[:-1] + q[1:]),
        h=h,
    )


def sbp_residual(g: PathGrid) -> float:
    """Defect of the discrete integration-by-parts identity; zero up to rounding."""
    iv = interval_data(g)
    lhs = iv.h * float(np.sum(iv.dq * iv.pbar + iv.dp * iv.qbar))
    rhs = float(g.p_nodes[-1] @ g.q_nodes[-1] - g.p_nodes[0] @ g.q_nodes[0])
    return abs(lhs - rhs)


def _l2_nodes_sq(nodes: np.ndarray, h: float) -> float:
    w = np.full(nodes.shape[0], h)
    w[0] = w[-1] = 0.5 * h
    return float(np.sum(w * np.sum(nodes**2, axis=1)))


def _l2_intervals_sq(vals: np.ndarray, h: float) -> float:
    return float(h * np.sum(vals**2))


def sobolev_norm(g: PathGrid) -> float:
    """Discrete W^{1,2} norm of the pair: trapezoid on nodes, interval sums on slopes."""
    iv = interval_data(g)
    total = (_l2_nodes_sq(g.p_nodes, g.h) + _l2_intervals_sq(iv.dp, g.h)
             + _l2_nodes_sq(g.q_nodes, g.h) + _l2_intervals_sq(iv.dq, g.h))
    return float(np.sqrt(total))


def poincare_margin(g: PathGrid) -> float:
    """Slack in the discrete bound |p|_L2 <= T |dp|_L2 + sqrt(T) |p(0)|.

    Positive values mean the bound holds with room; checked with a 1.01
    slack factor in tests.  The margin is degree-1 homogeneous in p, so it is
    evaluated on p divided by its largest node magnitude and scaled back: the
    squares of tiny nodes would otherwise underflow.
    """
    top = float(np.abs(g.p_nodes).max())
    if top == 0.0:
        return 0.0
    p, T = g.p_nodes / top, g.T
    dp = np.diff(p, axis=0) / g.h
    lhs = np.sqrt(_l2_nodes_sq(p, g.h))
    rhs = T * np.sqrt(_l2_intervals_sq(dp, g.h)) + np.sqrt(T) * float(np.linalg.norm(p[0]))
    return top * (1.01 * rhs - lhs)


def random_path(rng: np.random.Generator, T: float, N: int, M: int,
                amplitude: float = 2.0, smooth: bool = False) -> PathGrid:
    """Random trajectory pair; smooth variant keeps difference quotients bounded."""
    if not smooth:
        p = rng.uniform(-amplitude, amplitude, size=(M + 1, N))
        q = rng.uniform(-amplitude, amplitude, size=(M + 1, N))
        return PathGrid(T, p, q)
    t = np.linspace(0.0, T, M + 1)[:, None]
    p = np.zeros((M + 1, N))
    q = np.zeros((M + 1, N))
    for k in range(1, 4):
        w = k * np.pi / T
        p += rng.uniform(-1, 1, N) * np.sin(w * t) + rng.uniform(-1, 1, N) * np.cos(w * t)
        q += rng.uniform(-1, 1, N) * np.sin(w * t) + rng.uniform(-1, 1, N) * np.cos(w * t)
    top = max(np.abs(p).max(), np.abs(q).max(), 1e-9)
    return PathGrid(T, amplitude * p / top, amplitude * q / top)
