"""Discrete trajectory pairs on a uniform time grid.

Difference quotients live on intervals and node values are averaged to
interval midpoints.  Under this pairing the summation-by-parts identity

    h * sum_k (dq_k . pbar_k + dp_k . qbar_k) = p_M . q_M - p_0 . q_0

telescopes exactly, which is what makes the discrete actions nonnegative
without quadrature error.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class PathGrid:
    """Paths (p, q) sampled at M+1 nodes over [0, T]; arrays are (M+1, N).

    ``nodes`` holds the same path component-major: a C-ordered (2N, M+1) array,
    p above q, that runs along time with unit stride.  A path built from p and
    q builds it once, at first use, and keeps it; ``from_nodes`` is handed it
    whole, and its ``p_nodes`` and ``q_nodes`` are views of it.  Either way it
    holds the same numbers in the same layout, whatever layout p and q had.
    A path is a value: its arrays are not to be written, and ``nodes`` is never
    rebuilt.
    """

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

    @staticmethod
    def from_nodes(T: float, nodes) -> "PathGrid":
        """The path whose component-major (2N, M+1) node array is ``nodes``; a C-ordered
        float array is kept as it is, not copied."""
        Z = np.ascontiguousarray(nodes, dtype=float)
        if Z.ndim != 2 or Z.shape[0] % 2:
            raise ValueError("nodes need the shape (2N, M+1)")
        N = Z.shape[0] // 2
        g = PathGrid(T, Z[:N].T, Z[N:].T)
        g.__dict__["nodes"] = Z  # the slot that cached_property fills
        return g

    @cached_property
    def nodes(self) -> np.ndarray:
        Z = np.empty((2 * self.N, self.M + 1))
        Z[:self.N] = self.p_nodes.T
        Z[self.N:] = self.q_nodes.T
        return Z

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
        return PathGrid.from_nodes(T, np.zeros((2 * N, M + 1)))

    @staticmethod
    def constant(T: float, p0, q0, M: int) -> "PathGrid":
        p0 = np.atleast_1d(np.asarray(p0, dtype=float))
        q0 = np.atleast_1d(np.asarray(q0, dtype=float))
        if p0.shape != q0.shape:
            raise ValueError("p and q need matching shapes (M+1, N) with M >= 1")
        return PathGrid.from_nodes(T, np.repeat(np.concatenate([p0, q0])[:, None], M + 1,
                                                axis=1))

    def csv_text(self) -> str:
        """Columns t, p_1..p_N, q_1..q_N with 17 significant digits, one row per node."""
        from hampath.csvfmt import csv_text  # loaded by the first write, not by import

        N = self.N
        header = ["t"] + [f"p_{i+1}" for i in range(N)] + [f"q_{i+1}" for i in range(N)]
        return csv_text(header, np.column_stack([self.times, self.p_nodes, self.q_nodes]))

    @staticmethod
    def from_csv(path) -> "PathGrid":
        """The path a ``csv_text`` file holds; its ``t`` column must start at 0 and
        step uniformly, since a grid has no other times."""
        # one data row reads as a 0-d record
        raw = np.atleast_1d(np.genfromtxt(path, delimiter=",", names=True))
        if raw.size < 2:
            raise ValueError(f"{path}: a trajectory needs at least two nodes")
        names = raw.dtype.names
        N = sum(1 for n in names if n.startswith("p_"))
        t = raw["t"]
        steps = np.diff(t)
        if t[0] != 0 or not np.allclose(steps, steps[0], rtol=1e-8, atol=1e-12):
            raise ValueError(f"{path}: the t column does not step uniformly from 0")
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
