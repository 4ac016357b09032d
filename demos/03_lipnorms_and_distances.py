"""Lip-norms, numerical radii and Monge-Kantorovich distances.

A bi-invariant metric on a finite group induces a Lip-norm whose state-space
distance is the Wasserstein-1 distance.  From a point mass it is the mean
distance to that point, and the diameter is the largest distance, both in
closed form by Kantorovich duality; between two general states the dual
linear program computes it exactly.  The numerical radius converts suprema
over states into certified eigenvalue maximization, which powers the induced
Lip-norms on truncations.
"""

import numpy as np

from cqms import (
    check_invariance,
    default_irreps,
    diameter_bracket,
    function_algebra,
    induced_coaction,
    induced_lip_bi,
    lip_from_metric,
    mk_distance,
    numerical_radius,
    pw_decompose,
    truncate,
)
from cqms import groups
from cqms.lipnorm import group_case_seminorms
from cqms.sampling import basis_vector_state, random_state

np.set_printoptions(precision=4, suppress=True)

g = function_algebra(groups.cyclic_table(8), metric=groups.arc_metric(8))
lip = lip_from_metric(g)
print("the Lipschitz seminorm of the arc metric on Z_8:")
chi1 = np.exp(2j * np.pi * np.arange(8) / 8)
print(f"  L(chi_1) = {lip.value(chi1):.6f}")
print(f"  L(1)     = {lip.value(g.unit):.1e}")
print(f"  bi-invariance violation (exact upgrade on sampled elements): "
      f"{check_invariance(lip, g, 'bi', samples=20, seed=0, tol=1e-8):.2e}")
print()

print("numerical radius: certified sup over states")
e12 = np.zeros((2, 2))
e12[0, 1] = 1.0
print(f"  w(nilpotent matrix unit) = {numerical_radius(e12, tol=1e-9):.9f}  (exactly 1/2)")
rng = np.random.default_rng(1)
m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
w = numerical_radius(m, tol=1e-8)
nrm = float(np.linalg.norm(m, 2))
print(f"  random 6x6: w = {w:.6f}, norm = {nrm:.6f},  w <= norm <= 2w holds: "
      f"{w <= nrm + 1e-8 <= 2 * w + 2e-8}")
print()

print("Monge-Kantorovich distances, in closed form from a point mass:")
d01 = mk_distance(g, lip, basis_vector_state(g, 0), basis_vector_state(g, 1))
d04 = mk_distance(g, lip, basis_vector_state(g, 0), basis_vector_state(g, 4))
print(f"  point masses recover the metric: d(0,1) = {d01:.6f} = pi/4 = {np.pi/4:.6f}")
print(f"                                   d(0,4) = {d04:.6f} = pi   = {np.pi:.6f}")
bracket = diameter_bracket(g, lip, samples=10, seed=2)
print(f"  state-space diameter: max distance in [{bracket.lower:.12f}, {bracket.upper:.12f}] "
      f"({bracket.method}), pi = {np.pi:.12f}")
mu, nu = random_state(g, rng), random_state(g, rng)
print(f"  by the dual LP, two random states sit at distance {mk_distance(g, lip, mu, nu):.6f}")
print()

print("induced Lip-norms on a truncation vs the regular-representation seminorms:")
irreps = default_irreps(g)
ts = truncate(g, irreps, (0, 1, 7), dec=pw_decompose(g, irreps))
alpha = induced_coaction(g, ts, "right")
beta = induced_coaction(g, ts, "left")
for _ in range(3):
    x = ts.tau(rng.normal(size=8) + 1j * rng.normal(size=8))
    value = induced_lip_bi(lip, alpha, beta, x, tol=1e-7)
    lam, rho, both = group_case_seminorms(g, ts, x)
    print(f"  L(x) = {value:8.4f}   in [{both/2:8.4f}, {both:8.4f}]  "
          f"(half the conjugation seminorm, the seminorm)")
