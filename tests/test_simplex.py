import numpy as np
import pytest

from cqms.errors import CertificationError
from cqms.simplex import LPProblem, solve_lp


def test_simple_box():
    # max x + y over |x| <= 1, |y| <= 2
    a = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    b = np.array([1.0, 1.0, 2.0, 2.0])
    sol = solve_lp(LPProblem(objective=np.array([1.0, 1.0]), inequalities=a, bounds=b))
    sol.certify()
    assert sol.value == pytest.approx(3.0, abs=1e-9)
    assert np.allclose(sol.x, [1.0, 2.0], atol=1e-9)


def test_unbounded_detected():
    a = np.array([[1.0, 0.0]])
    b = np.array([1.0])
    sol = solve_lp(LPProblem(objective=np.array([0.0, 1.0]), inequalities=a, bounds=b))
    assert sol.status == "unbounded"
    with pytest.raises(CertificationError):
        sol.certify()


def test_degenerate_polytope_with_bland():
    # many redundant constraints through the optimum; Bland must not cycle
    rng = np.random.default_rng(0)
    directions = rng.normal(size=(40, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    b = np.ones(40)
    c = directions[7]
    sol = solve_lp(LPProblem(objective=c, inequalities=directions, bounds=b))
    sol.certify()
    assert sol.value <= 1.0 + 1e-9 or sol.value >= 1.0 - 1e-9


def test_duality_certificates_random():
    rng = np.random.default_rng(1)
    for _ in range(25):
        m, k = int(rng.integers(3, 25)), int(rng.integers(2, 8))
        a = rng.normal(size=(m, k))
        a = np.vstack([a, -a])             # symmetric polytope keeps things bounded
        b = rng.uniform(0.5, 3.0, size=2 * m)
        b = np.concatenate([b[:m], b[:m]])
        c = rng.normal(size=k)
        sol = solve_lp(LPProblem(objective=c, inequalities=a, bounds=b))
        if sol.status != "optimal":
            continue
        sol.certify()
        assert sol.primal_residual <= 1e-7
        assert sol.gap_residual <= 1e-7


def test_against_scipy():
    from scipy.optimize import linprog

    rng = np.random.default_rng(2)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        m = int(rng.integers(k + 1, 20))
        a = rng.normal(size=(m, k))
        a = np.vstack([a, -np.eye(k), np.eye(k)])
        b = np.concatenate([rng.uniform(0.2, 2.0, size=m), np.full(2 * k, 5.0)])
        c = rng.normal(size=k)
        ours = solve_lp(LPProblem(objective=c, inequalities=a, bounds=b))
        ref = linprog(-c, A_ub=a, b_ub=b, bounds=(None, None), method="highs")
        assert ours.status == "optimal" and ref.status == 0
        assert ours.value == pytest.approx(-ref.fun, abs=1e-8)


def test_rejects_negative_rhs():
    with pytest.raises(ValueError):
        solve_lp(LPProblem(objective=np.array([1.0]),
                           inequalities=np.array([[1.0]]), bounds=np.array([-1.0])))
