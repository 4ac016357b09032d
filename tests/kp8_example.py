"""A genuinely quantum example supplied through raw structure tensors.

An eight-dimensional Hopf *-algebra that is neither commutative nor
cocommutative: generators x, y, z with x^2 = y^2 = 1, xy = yx, zx = yz,
zy = xz, z^2 = (1 + x + y - xy)/2, z unitary of order four, and

    Delta x = x (x) x,   Delta y = y (x) y,
    Delta z = (z (x) z + yz (x) z + z (x) xz - yz (x) xz) / 2.

The basis is x^a y^b z^c with index a + 2b + 4c.  The antipode is solved
from its defining convolution equation and the faithful representation is
bootstrapped from the invariant state's GNS frame, so the construction only
relies on machinery the package certifies.  Its irreducible corepresentations,
four group-likes and one 2-dim block on the z-words, are found by
``corep.default_irreps`` from the structure tensors alone.
"""

import itertools

import numpy as np

from cqms import corep, hopf


def _idx(a, b, c):
    return a + 2 * b + 4 * c


def _word_product(a, b, c, a2, b2, c2):
    out = {}
    if c == 0:
        out[_idx((a + a2) % 2, (b + b2) % 2, c2)] = 1.0
        return out
    aa, bb = (a + b2) % 2, (b + a2) % 2        # z x = y z and z y = x z
    if c2 == 0:
        out[_idx(aa, bb, 1)] = 1.0
        return out
    for (da, db, coef) in [(0, 0, 0.5), (1, 0, 0.5), (0, 1, 0.5), (1, 1, -0.5)]:
        key = _idx((aa + da) % 2, (bb + db) % 2, 0)
        out[key] = out.get(key, 0.0) + coef
    return out


def build_kp8() -> tuple[hopf.FiniteQuantumGroup, list]:
    """The quantum group together with its complete irreducible family, as the finder reads it off."""
    n = 8
    mult = np.zeros((n, n, n), dtype=complex)
    for word in itertools.product((0, 1), repeat=6):
        a, b, c, a2, b2, c2 = word
        for k, coef in _word_product(a, b, c, a2, b2, c2).items():
            mult[_idx(a, b, c), _idx(a2, b2, c2), k] = coef

    unit = np.zeros(n, dtype=complex)
    unit[0] = 1.0
    counit = np.ones(n, dtype=complex)

    # x* = x, y* = y; z is unitary of order four, so z* = z^3 = u z with the
    # central element u = (1 + x + y - xy)/2
    star = np.zeros((n, n), dtype=complex)
    for a, b in itertools.product((0, 1), (0, 1)):
        star[_idx(a, b, 0), _idx(a, b, 0)] = 1.0
        for (da, db, coef) in [(0, 0, 0.5), (1, 0, 0.5), (0, 1, 0.5), (1, 1, -0.5)]:
            star[_idx(a, b, 1), _idx((b + da) % 2, (a + db) % 2, 1)] += coef

    def tensor_mult(t, s):
        return np.einsum("ik,jl,ijp,klq->pq", t, s, mult, mult)

    dx = np.zeros((n, n), dtype=complex)
    dx[_idx(1, 0, 0), _idx(1, 0, 0)] = 1.0
    dy = np.zeros((n, n), dtype=complex)
    dy[_idx(0, 1, 0), _idx(0, 1, 0)] = 1.0
    dz = np.zeros((n, n), dtype=complex)
    for (u, v, coef) in [((0, 0, 1), (0, 0, 1), 0.5), ((0, 1, 1), (0, 0, 1), 0.5),
                         ((0, 0, 1), (1, 0, 1), 0.5), ((0, 1, 1), (1, 0, 1), -0.5)]:
        dz[_idx(*u), _idx(*v)] += coef
    d_one = np.zeros((n, n), dtype=complex)
    d_one[0, 0] = 1.0

    comult = np.zeros((n, n, n), dtype=complex)
    for a, b, c in itertools.product((0, 1), repeat=3):
        t = d_one
        for _ in range(a):
            t = tensor_mult(t, dx)
        for _ in range(b):
            t = tensor_mult(t, dy)
        for _ in range(c):
            t = tensor_mult(t, dz)
        comult[_idx(a, b, c)] = t

    # antipode from m(S (x) id)Delta = counit(.)1, a linear system in S
    system = np.einsum("ijk,pkq->iqjp", comult, mult).reshape(n * n, n * n)
    rhs = np.outer(counit, unit).reshape(n * n)
    s_flat, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    antipode = s_flat.reshape(n, n)

    # representation bootstrapped from the invariant state's GNS frame
    haar = hopf._solve_haar(comult, unit, n)
    gram = np.einsum("ip,pjq,q->ij", star, mult, haar)
    onb = np.linalg.cholesky((gram + gram.conj().T) / 2).conj().T
    rep = np.einsum("pk,ikl,lq->ipq", onb, mult.transpose(0, 2, 1), np.linalg.inv(onb))

    algebra = hopf.FiniteQuantumGroup(
        dim=n, mult=mult, unit=unit, star=star, comult=comult, counit=counit,
        antipode=antipode, rep=rep, haar=haar, kind="custom", label="quantum-8")
    return algebra, corep.default_irreps(algebra)
