"""Independent oracles: these never call the code paths they check."""

import numpy as np

from hampath.grid import PathGrid


def rk4(rhs, y0, T, steps):
    """Classical fourth-order integration of dy/dt = rhs(t, y)."""
    y = np.array(y0, dtype=float)
    h = T / steps
    t = 0.0
    out = np.empty((steps + 1, y.size))
    out[0] = y
    for k in range(steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = y
        t += h
    return out


def brute_conjugate_1d(f, y, lo=-10.0, hi=10.0, n=1_000_000):
    """sup_x (x y - f(x)) over a dense grid; f vectorized over a 1-D array."""
    x = np.linspace(lo, hi, n)
    fx = f(x)
    return float(np.max(x * y - fx))


def grid_argmin(f, lo, hi, n=1_000_001):
    """Dense 1-D minimization with three-point parabolic refinement."""
    x = np.linspace(lo, hi, n)
    fx = f(x)
    i = int(np.argmin(fx))
    if i == 0 or i == n - 1:
        return x[i]
    x0, x1, x2 = x[i - 1], x[i], x[i + 1]
    f0, f1, f2 = fx[i - 1], fx[i], fx[i + 1]
    denom = (f0 - 2 * f1 + f2)
    if denom <= 0:
        return x1
    return x1 + 0.5 * (x0 - x2) * (f0 - f2) / (2 * denom) * -1.0


def shooting_connecting(grad_H, grad_psi1, grad_psi2, T, steps=4000):
    """Shooting solution of the 1-D connecting problem.

    Dynamics dp = dH/dq, dq = -dH/dp from (a, grad_psi1(a)); secant iteration
    on the terminal condition -p(T) = grad_psi2(q(T)) over the scalar start
    value a (one step suffices for linear dynamics).  Returns (t, p, q) on
    the fine integration grid.
    """

    def rhs(t, y):
        gp, gq = grad_H(y[0], y[1])
        return np.array([gq, -gp])

    def terminal_gap(a):
        y = rk4(rhs, [a, grad_psi1(a)], T, steps)
        return -y[-1, 0] - grad_psi2(y[-1, 1])

    a0, a1 = 0.0, 1.0
    f0, f1 = terminal_gap(a0), terminal_gap(a1)
    for _ in range(30):
        if abs(f1) < 1e-13 or f1 == f0:
            break
        a0, a1, f0 = a1, a1 - f1 * (a1 - a0) / (f1 - f0), f1
        f1 = terminal_gap(a1)
    traj = rk4(rhs, [a1, grad_psi1(a1)], T, steps)
    t = np.linspace(0.0, T, steps + 1)
    return t, traj[:, 0], traj[:, 1]


def resample(t_fine, vals, t_coarse):
    return np.interp(t_coarse, t_fine, vals)


def qhull_lower_facets(f):
    """``legendre.lower_facets`` as qhull alone computes it: the lower facets of the lifted
    grid nodes, the two triangles of the box corners when the samples are coplanar, and
    the plane through each triangle's samples, flat triangles dropped."""
    from scipy.spatial import ConvexHull, QhullError

    x1 = f.axis_nodes(0)
    x2 = f.axis_nodes(1)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    nodes = np.column_stack([X1.ravel(), X2.ravel()])
    vals = f.values.ravel()
    try:
        hull = ConvexHull(np.column_stack([nodes, vals]))
        tri = hull.simplices[hull.equations[:, 2] < 0]
    except QhullError:
        n1, n2 = f.counts
        c00, c01, c10, c11 = 0, n2 - 1, (n1 - 1) * n2, n1 * n2 - 1
        tri = np.array([[c00, c10, c11], [c00, c11, c01]])
    p, v = nodes[tri], vals[tri]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    d1, d2 = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    keep = np.abs(det) > 0.5 * f.spacing(0) * f.spacing(1)
    tri, p, v, e1, e2, d1, d2, det = (a[keep] for a in (tri, p, v, e1, e2, d1, d2, det))
    grad = np.column_stack([(e2[:, 1] * d1 - e1[:, 1] * d2) / det,
                            (e1[:, 0] * d2 - e2[:, 0] * d1) / det])
    offset = v[:, 0] - grad[:, 0] * p[:, 0, 0] - grad[:, 1] * p[:, 0, 1]
    return tri, grad, offset


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
    p, T, h = g.p_nodes / top, g.T, g.h
    dp = np.diff(p, axis=0) / h
    # trapezoid weights on the nodes, interval sums on the slopes
    w = np.full(p.shape[0], h)
    w[0] = w[-1] = 0.5 * h
    lhs = np.sqrt(np.sum(w * np.sum(p**2, axis=1)))
    rhs = T * np.sqrt(h * np.sum(dp**2)) + np.sqrt(T) * float(np.linalg.norm(p[0]))
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
