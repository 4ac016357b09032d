"""Peter-Weyl blocks, the multiplicative unitary W and truncated operator systems.

The GNS space of the invariant state splits into blocks spanned by matrix
coefficients of the irreducible corepresentations.  Compressing the algebra
by a block projection yields an operator system carrying ergodic left and
right coactions; for cyclic groups the compression is literally a Toeplitz
matrix of Fourier coefficients.
"""

import numpy as np

from cqms import (
    canonical_symbol_state,
    cocommutation_residual,
    default_irreps,
    function_algebra,
    induced_coaction,
    isometry_witness_residual,
    multiplicative_unitary,
    pw_decompose,
    symbol_map,
    truncate,
)
from cqms import groups
from cqms.corep import commutation_residual

np.set_printoptions(precision=4, suppress=True)

g = function_algebra(groups.cyclic_table(8), metric=groups.arc_metric(8))
irreps = default_irreps(g)
dec = pw_decompose(g, irreps)
print("F(Z_8): eight characters, blocks of dimension 1, sum d^2 =",
      sum(p.dim ** 2 for p in irreps))

w = multiplicative_unitary(g)
print(f"multiplicative unitary W: unitarity residual {w.unitarity_residual:.1e}, "
      f"implements the comultiplication to {w.implementation_residual:.1e}")
p = dec.projector([0, 1, 7])
print(f"W commutes with P (x) 1 to {commutation_residual(w.matrix, p, 8):.1e}")
print()

print("compression by the window {0, +-1} is a 3x3 matrix of Fourier")
print("coefficients, entry (a, b) carrying frequency a - b (Toeplitz once the")
print("window is listed in frequency order -1, 0, 1):")
ts = truncate(g, irreps, (0, 1, 7), dec=dec)
rng = np.random.default_rng(0)
f = rng.normal(size=8)
print(np.round(ts.tau(f), 4))
print()

alpha = induced_coaction(g, ts, "right")
beta = induced_coaction(g, ts, "left")
print("induced coactions on the truncation:")
print(f"  coaction identities hold to {max(alpha.coaction_residual, beta.coaction_residual):.1e}")
print(f"  cocommutation residual {cocommutation_residual(alpha, beta):.1e}")
print(f"  fixed-point spaces have dimension {alpha.fixed_space_dim} and {beta.fixed_space_dim}"
      " (ergodic)")
print(f"  compression is completely isometric after coacting: witness "
      f"{isometry_witness_residual(g, ts, samples=30, seed=1, amplified_every=6):.1e}")
print()

print("the canonical symbol state smooths by a Fejer-type kernel:")
density = canonical_symbol_state(g, ts)
sym = symbol_map(ts, alpha, density)
smoothed = sym(ts.expand(ts.tau(f))).real
print("  f         =", np.round(f, 3))
print("  sigma tau f =", np.round(smoothed, 3))
print("  (a convolution of f; compare the diminished oscillation)")
