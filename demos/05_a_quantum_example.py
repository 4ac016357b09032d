"""A quantum group that is neither a function algebra nor a group algebra.

Everything in this package runs on raw structure tensors, so nothing stops
us from feeding it an eight-dimensional Hopf *-algebra that is genuinely
quantum: noncommutative and noncocommutative at the same time.  Generators
x, y, z with

    x^2 = y^2 = 1,  xy = yx,  zx = yz,  zy = xz,  z^2 = (1 + x + y - xy)/2,

z unitary of order four, and the comultiplication

    Delta x = x (x) x,  Delta y = y (x) y,
    Delta z = (z (x) z + yz (x) z + z (x) xz - yz (x) xz)/2.

The antipode is solved from its convolution equation, the faithful
representation is bootstrapped from the invariant state's GNS frame, and
the irreducible corepresentations are read off the structure tensors by
``default_irreps``, as for any other input.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from kp8_example import build_kp8

from cqms import (
    check_axioms,
    cocommutation_residual,
    compress,
    default_irreps,
    haar_state,
    pw_decompose,
)

np.set_printoptions(precision=4, suppress=True)

g, _ = build_kp8()
print("dim 8 quantum group on the word basis x^a y^b z^c")
noncomm = np.max(np.abs(g.mult - g.mult.transpose(1, 0, 2)))
noncocomm = np.max(np.abs(g.comult - g.comult.transpose(0, 2, 1)))
print(f"noncommutativity {noncomm:.2f}, noncocommutativity {noncocomm:.2f}")
report = check_axioms(g)
print(f"every Hopf *-algebra axiom holds: max residual {report.max_residual:.1e}")
print(f"the invariant state is the trace at the identity word: "
      f"{np.round(haar_state(g).coeffs.real, 4)}")
print()

print("irreducible corepresentations: four group-likes and one 2-dim block")
irreps = default_irreps(g)
dec = pw_decompose(g, irreps)
for p, r in zip(dec.irreps, dec.reports):
    print(f"  {p.label}: dim {p.dim}, unitarity {r.unitarity_residual:.1e}, "
          f"corep identity {r.corep_residual:.1e}")
print(f"sum of squared dimensions = {sum(p.dim**2 for p in irreps)} = dim: "
      "the family is complete")
print()

print("truncating by the trivial block plus the 2-dim block:")
ts = compress.truncate(g, irreps, (0, 4), dec=dec)
alpha = compress.induced_coaction(g, ts, "right")
beta = compress.induced_coaction(g, ts, "left")
print(f"  rank {ts.rank}, system dimension {ts.dim_sys}")
print(f"  ergodic: fixed-point dims {alpha.fixed_space_dim}/{beta.fixed_space_dim}, "
      f"cocommutation {cocommutation_residual(alpha, beta):.1e}")
witness = compress.isometry_witness_residual(g, ts, samples=20, seed=0, amplified_every=5)
print(f"  complete-isometry witness {witness:.1e}")
print()

full = compress.truncate(g, irreps, range(5), dec=dec)
pulled = compress.pullback_state(full, compress.canonical_symbol_state(g, full))
print("at the full truncation the canonical state pulls back to the counit:")
print(f"  max deviation {np.max(np.abs(pulled.coeffs - g.counit)):.1e}")
