"""Dense primal simplex with Bland's rule and post-solve certification.

Solves  max c.x  subject to  A x <= b  with x free and b >= 0, by splitting
free variables and starting from the slack basis.  Problem sizes here are a
few hundred rows and columns, so a dense tableau is the simplest reliable
choice; every solve returns feasibility, dual feasibility and duality-gap
residuals so callers can certify the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CertificationError

FEAS_TOL = 1e-9
MAX_ITERS = 200000


@dataclass(frozen=True, eq=False)
class LPProblem:
    """max objective . x  subject to  inequalities @ x <= bounds, x free."""

    objective: np.ndarray
    inequalities: np.ndarray
    bounds: np.ndarray


@dataclass(frozen=True, eq=False)
class LPSolution:
    status: str                  # "optimal" | "unbounded"
    x: np.ndarray | None
    value: float
    dual: np.ndarray | None
    primal_residual: float
    dual_residual: float
    gap_residual: float
    iterations: int

    def certify(self) -> None:
        """Raise unless optimal with every scaled residual at most 1e-7."""
        if self.status != "optimal":
            raise CertificationError(f"LP did not reach an optimum (status {self.status})")
        worst = max(self.primal_residual, self.dual_residual, self.gap_residual)
        if worst > 1e-7:
            raise CertificationError(f"LP certificates exceed tolerance: {worst:.3e} > 1.0e-07")


def solve_lp(problem: LPProblem) -> LPSolution:
    c = np.asarray(problem.objective, dtype=float)
    a = np.asarray(problem.inequalities, dtype=float)
    b = np.asarray(problem.bounds, dtype=float)
    if a.ndim != 2 or a.shape != (len(b), len(c)):
        raise ValueError(f"inconsistent LP shapes A {a.shape}, b {b.shape}, c {c.shape}")
    if np.any(b < -FEAS_TOL):
        raise ValueError("solve_lp requires b >= 0 (the origin must be feasible)")
    m, k = a.shape

    # free x split as u - v; tableau over [u, v, slacks]
    full_a = np.hstack([a, -a, np.eye(m)])
    full_c = np.concatenate([c, -c, np.zeros(m)])
    ncols = 2 * k + m
    tab = np.zeros((m + 1, ncols + 1))
    tab[:m, :ncols] = full_a
    tab[:m, -1] = np.maximum(b, 0.0)
    tab[m, :ncols] = -full_c
    basis = list(range(2 * k, 2 * k + m))

    basis_arr = np.array(basis)
    iters = 0
    while True:
        if iters >= MAX_ITERS:
            raise CertificationError(f"simplex exceeded {MAX_ITERS} iterations")
        iters += 1
        eligible = np.nonzero(tab[m, :ncols] < -FEAS_TOL)[0]
        if len(eligible) == 0:
            break
        entering = int(eligible[0])       # Bland: smallest eligible index enters
        col = tab[:m, entering]
        rhs = tab[:m, -1]
        rows = np.nonzero(col > FEAS_TOL)[0]
        if len(rows) == 0:
            return LPSolution(status="unbounded", x=None, value=np.inf, dual=None,
                              primal_residual=np.inf, dual_residual=np.inf,
                              gap_residual=np.inf, iterations=iters)
        ratios = rhs[rows] / col[rows]
        best = np.min(ratios)
        ties = rows[ratios <= best + FEAS_TOL]
        leaving = int(ties[np.argmin(basis_arr[ties])])   # Bland: smallest basic index leaves
        pivot_row = tab[leaving] / tab[leaving, entering]
        factors = tab[:, entering].copy()
        tab -= np.outer(factors, pivot_row)
        tab[leaving] = pivot_row
        basis_arr[leaving] = entering
    basis = basis_arr.tolist()

    full_x = np.zeros(ncols)
    for i, j in enumerate(basis):
        full_x[j] = tab[i, -1]
    x = full_x[:k] - full_x[k:2 * k]
    value = float(c @ x)
    dual = tab[m, 2 * k:ncols].copy()     # multipliers of the slack columns

    scale = max(1.0, float(np.max(np.abs(b))), float(np.max(np.abs(c))) if len(c) else 1.0)
    primal_residual = float(np.max(np.maximum(a @ x - b, 0.0))) if m else 0.0
    dual_feas = np.min(dual) if m else 0.0
    stationarity = float(np.max(np.abs(a.T @ dual - c))) if m else float(np.max(np.abs(c)))
    dual_residual = max(stationarity, max(0.0, -dual_feas))
    gap_residual = abs(float(b @ dual) - value)
    return LPSolution(status="optimal", x=x, value=value, dual=dual,
                      primal_residual=primal_residual / scale,
                      dual_residual=dual_residual / scale,
                      gap_residual=gap_residual / scale,
                      iterations=iters)
