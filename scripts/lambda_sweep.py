"""Inf-convolution sweep on the harmonic oscillator.

Solves the initial value problem with the power-penalty smoothing at several
lambda values and reports the proximal displacement max |(p,q) - (i(p), j(q))|
along each solved path, its bound constant c = displacement / lambda, and the
largest discrete slope norm.  The displacement decays like lambda^r (r = 4
here), comfortably inside the c * lambda bound.

Run:  python scripts/lambda_sweep.py
"""

import numpy as np

from hampath.action import Cauchy, ProblemSpec
from hampath.conditions import GrowthCert
from hampath.convex import Hamiltonian, Quadratic
from hampath.grid import interval_data
from hampath.regularize import infconv, prox_points
from hampath.solver import SolveParams, solve


def main():
    spec = ProblemSpec(Hamiltonian(Quadratic(np.eye(2)), 1), 1.0,
                       Cauchy([1.0], [0.0]), GrowthCert(0.01, 0.5, 0.01, r=2))
    print(f"{'lambda':>8} {'status':>12} {'action':>12} {'displacement':>14} "
          f"{'disp/lambda':>12} {'max slope':>10}")
    for lam in (0.4, 0.2, 0.1, 0.05):
        res = solve(spec, SolveParams(M=100, eps_schedule=(), lambda_schedule=(lam,),
                                      tol_zero=1e-6, polish=False))
        Hl = infconv(spec.hamiltonian, lam, 4.0)
        iv = interval_data(res.path)
        ip, jq = prox_points(Hl, iv.pbar, iv.qbar)
        disp = float(np.max(np.linalg.norm(iv.pbar - ip, axis=1)
                            + np.linalg.norm(iv.qbar - jq, axis=1)))
        slope = float(np.max(np.linalg.norm(iv.dp, axis=1)
                             + np.linalg.norm(iv.dq, axis=1)))
        print(f"{lam:>8.3g} {res.status.value:>12} "
              f"{res.certificate.action_value:>12.3e} {disp:>14.4e} "
              f"{disp / lam:>12.4e} {slope:>10.4f}")


if __name__ == "__main__":
    main()
