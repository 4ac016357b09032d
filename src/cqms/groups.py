"""Finite group tables, built-in irreducible representations, metrics and lengths.

Groups are handled as 0-based Cayley tables ``table[i, j] = index of g_i g_j``.
The built-ins ship the data the rest of the package needs: unitary irreps as
arrays of matrix values, bi-invariant metrics and symmetric word lengths.
"""

from __future__ import annotations

import numpy as np

from .errors import GroupTableError, LengthError, MetricError


def validate_cayley(table) -> tuple[int, np.ndarray]:
    """Check that ``table`` is a group law; return (identity index, inverse map)."""
    table = np.asarray(table)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise GroupTableError(f"table must be square, got shape {table.shape}")
    n = table.shape[0]
    if not np.issubdtype(table.dtype, np.integer):
        raise GroupTableError("table entries must be integers")
    if table.min() < 0 or table.max() >= n:
        raise GroupTableError("table entries must lie in 0..n-1")

    identity = None
    for e in range(n):
        if np.array_equal(table[e], np.arange(n)) and np.array_equal(table[:, e], np.arange(n)):
            identity = e
            break
    if identity is None:
        raise GroupTableError("table has no two-sided identity")

    inverse = np.full(n, -1, dtype=int)
    for g in range(n):
        hits = np.where(table[g] == identity)[0]
        if len(hits) != 1 or table[hits[0], g] != identity:
            raise GroupTableError(f"element {g} has no two-sided inverse")
        inverse[g] = hits[0]

    # associativity: (gh)k == g(hk) for all triples
    left = table[table, :]            # left[g, h, k] = (gh)k
    right = table[:, table]           # right[g, h, k] = g(hk)
    bad = np.argwhere(left != right)
    if len(bad):
        g, h, k = bad[0]
        raise GroupTableError(f"associativity fails at triple ({g}, {h}, {k})")
    return identity, inverse


def cyclic_table(n: int) -> np.ndarray:
    i = np.arange(n)
    return (i[:, None] + i[None, :]) % n


def is_cyclic_canonical(table) -> bool:
    table = np.asarray(table)
    return table.shape[0] == table.shape[1] and np.array_equal(table, cyclic_table(table.shape[0]))


def arc_metric(n: int) -> np.ndarray:
    """Geodesic distance between n-th roots of unity on the unit circle."""
    i = np.arange(n)
    steps = np.abs(i[:, None] - i[None, :])
    steps = np.minimum(steps, n - steps)
    return (2.0 * np.pi / n) * steps


def word_length(table, generators) -> np.ndarray:
    """Word length over ``generators`` by breadth-first search; inf if not generating."""
    identity, _ = validate_cayley(table)
    table = np.asarray(table)
    n = table.shape[0]
    length = np.full(n, np.inf)
    length[identity] = 0.0
    frontier = [identity]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for g in frontier:
            for s in generators:
                h = table[g, s]
                if not np.isfinite(length[h]):
                    length[h] = d
                    nxt.append(h)
        frontier = nxt
    if not np.all(np.isfinite(length)):
        raise GroupTableError("generators do not generate the group")
    return length


def symmetric_word_length(table, generators) -> np.ndarray:
    """Word length over the symmetrized generating set (so l(g) = l(g^-1))."""
    _, inverse = validate_cayley(table)
    gens = sorted(set(int(s) for s in generators) | set(int(inverse[s]) for s in generators))
    return word_length(table, gens)


def check_metric(table, metric) -> None:
    """Validate symmetry, vanishing diagonal, positivity, triangle inequality
    and bi-invariance; raise MetricError naming a violating pair or triple."""
    table = np.asarray(table)
    n = table.shape[0]
    d = np.asarray(metric, dtype=float)
    if d.shape != (n, n):
        raise MetricError(f"metric must be {n}x{n}, got {d.shape}")
    if np.any(d < 0):
        g, h = np.argwhere(d < 0)[0]
        raise MetricError(f"negative distance at pair ({g}, {h})")
    if not np.allclose(d, d.T, rtol=0, atol=1e-12):
        g, h = np.argwhere(~np.isclose(d, d.T, rtol=0, atol=1e-12))[0]
        raise MetricError(f"metric not symmetric at pair ({g}, {h})")
    if np.any(np.abs(np.diag(d)) > 1e-12):
        g = int(np.argmax(np.abs(np.diag(d))))
        raise MetricError(f"nonzero distance d({g}, {g})")
    off = d + np.eye(n)
    if np.any(off <= 0):
        g, h = np.argwhere(off <= 0)[0]
        raise MetricError(f"zero distance between distinct elements ({g}, {h})")
    tri = d[:, None, :] + d[None, :, :]       # tri[g,h,k] = d(g,k) + d(k,h) by symmetry
    viol = d[:, :, None] - tri > 1e-12
    if np.any(viol):
        g, h, k = np.argwhere(viol)[0]
        raise MetricError(f"triangle inequality fails at triple ({g}, {h}, {k})")
    # bi-invariance: d(gk, hk) = d(g, h) = d(kg, kh), exact loop over k
    for k in range(n):
        right = d[table[:, k][:, None], table[:, k][None, :]]
        if not np.allclose(right, d, rtol=0, atol=1e-12):
            g, h = np.argwhere(~np.isclose(right, d, rtol=0, atol=1e-12))[0]
            raise MetricError(f"right invariance fails at triple ({g}, {h}, {k})")
        left = d[table[k][:, None], table[k][None, :]]
        if not np.allclose(left, d, rtol=0, atol=1e-12):
            g, h = np.argwhere(~np.isclose(left, d, rtol=0, atol=1e-12))[0]
            raise MetricError(f"left invariance fails at triple ({g}, {h}, {k})")


def check_length(table, length) -> None:
    identity, _ = validate_cayley(table)
    ell = np.asarray(length, dtype=float)
    if ell.shape != (np.asarray(table).shape[0],):
        raise LengthError(f"length must have one value per element, got shape {ell.shape}")
    if abs(ell[identity]) > 1e-12:
        raise LengthError(f"length of the identity must be 0, got {ell[identity]}")
    bad = [g for g in range(len(ell)) if g != identity and ell[g] <= 0]
    if bad:
        raise LengthError(f"length must be positive off the identity, violated at {bad[0]}")


# ---------------------------------------------------------------------------
# stored nonabelian groups: S_3, D_4, Q_8
# ---------------------------------------------------------------------------

_S3_ELEMENTS = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]


def s3_table() -> np.ndarray:
    """Symmetric group on 3 letters; element order: e, (01), (12), (02), (012), (021)."""
    idx = {p: i for i, p in enumerate(_S3_ELEMENTS)}
    n = 6
    table = np.zeros((n, n), dtype=int)
    for i, p in enumerate(_S3_ELEMENTS):
        for j, q in enumerate(_S3_ELEMENTS):
            comp = tuple(p[q[a]] for a in range(3))
            table[i, j] = idx[comp]
    return table


def s3_irrep_matrices() -> list[np.ndarray]:
    """Unitary irreps of S_3 as arrays of shape (|G|, d, d): trivial, sign, standard."""
    n = 6
    triv = np.ones((n, 1, 1), dtype=complex)
    sign = np.array([[[(-1.0) ** _parity(p)]] for p in _S3_ELEMENTS], dtype=complex)
    basis = np.array([[1, 1], [-1, 1], [0, -2]], dtype=float)
    basis[:, 0] /= np.sqrt(2.0)
    basis[:, 1] /= np.sqrt(6.0)
    std = np.zeros((n, 2, 2), dtype=complex)
    for g, p in enumerate(_S3_ELEMENTS):
        perm = np.zeros((3, 3))
        for a in range(3):
            perm[p[a], a] = 1.0
        std[g] = basis.T @ perm @ basis
    return [triv, sign, std]


def _parity(p) -> int:
    inv = sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])
    return inv % 2


def s3_word_generators() -> list[int]:
    """Adjacent transpositions (01) and (12)."""
    return [1, 2]


def d4_table() -> np.ndarray:
    """Dihedral group of the square; order e, r, r2, r3, s, rs, r2s, r3s."""
    r = np.array([[0, -1], [1, 0]])
    s = np.array([[1, 0], [0, -1]])
    mats = [np.linalg.matrix_power(r, k) for k in range(4)]
    mats += [m @ s for m in mats]
    return _table_from_matrices(mats)


def d4_irrep_matrices() -> list[np.ndarray]:
    r = np.array([[0, -1], [1, 0]], dtype=complex)
    s = np.array([[1, 0], [0, -1]], dtype=complex)
    two = [np.linalg.matrix_power(r, k) for k in range(4)]
    two += [m @ s for m in two]
    out = []
    for cr, cs in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        vals = [cr ** k for k in range(4)] + [cr ** k * cs for k in range(4)]
        out.append(np.array(vals, dtype=complex).reshape(8, 1, 1))
    out.append(np.array(two))
    return out


def q8_table() -> np.ndarray:
    """Quaternion group; order 1, -1, i, -i, j, -j, k, -k."""
    i2 = np.array([[1j, 0], [0, -1j]])
    j2 = np.array([[0, 1], [-1, 0]], dtype=complex)
    k2 = i2 @ j2
    mats = [np.eye(2, dtype=complex), -np.eye(2, dtype=complex), i2, -i2, j2, -j2, k2, -k2]
    return _table_from_matrices(mats)


def q8_irrep_matrices() -> list[np.ndarray]:
    i2 = np.array([[1j, 0], [0, -1j]])
    j2 = np.array([[0, 1], [-1, 0]], dtype=complex)
    k2 = i2 @ j2
    two = np.array([np.eye(2), -np.eye(2), i2, -i2, j2, -j2, k2, -k2], dtype=complex)
    out = []
    for ci, cj in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
        vals = [1, 1, ci, ci, cj, cj, ci * cj, ci * cj]
        out.append(np.array(vals, dtype=complex).reshape(8, 1, 1))
    out.append(two)
    return out


def _table_from_matrices(mats) -> np.ndarray:
    n = len(mats)
    table = np.full((n, n), -1, dtype=int)
    for a in range(n):
        for b in range(n):
            prod = mats[a] @ mats[b]
            for c in range(n):
                if np.allclose(prod, mats[c], atol=1e-12):
                    table[a, b] = c
                    break
            if table[a, b] < 0:
                raise GroupTableError("matrix set not closed under products")
    return table


# ---------------------------------------------------------------------------
# characters of abelian groups
# ---------------------------------------------------------------------------

def cyclic_characters(n: int) -> list[np.ndarray]:
    """Characters of Z_n in frequency order, as (n, 1, 1) value arrays."""
    j = np.arange(n)
    return [np.exp(2j * np.pi * j * k / n).reshape(n, 1, 1) for k in range(n)]


def abelian_characters(table) -> list[np.ndarray]:
    """Characters of an arbitrary abelian Cayley table.

    Found as the common eigenvectors of the commuting regular representation,
    normalized to value 1 at the identity and sorted deterministically.
    """
    identity, _ = validate_cayley(table)
    table = np.asarray(table)
    n = table.shape[0]
    if not np.array_equal(table, table.T):
        raise GroupTableError("character construction requires an abelian table")
    if is_cyclic_canonical(table):
        return cyclic_characters(n)
    # generic weights split all joint eigenspaces of the regular representation
    rng = np.random.default_rng(1234)
    coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
    m = np.zeros((n, n), dtype=complex)
    for g in range(n):
        reg = np.zeros((n, n))
        reg[table[g], np.arange(n)] = 1.0
        m += coeffs[g] * reg
    _, vecs = np.linalg.eig(m)
    chars = []
    for v in vecs.T:
        if abs(v[identity]) < 1e-8:
            raise GroupTableError("degenerate character candidate; table may not be a group")
        chi = v / v[identity]
        mult_residual = np.max(np.abs(chi[table] - np.outer(chi, chi)))
        if mult_residual > 1e-8:
            raise GroupTableError("joint eigenvector is not multiplicative; table may not be abelian")
        chars.append(chi)
    order = sorted(range(n), key=lambda i: tuple(np.round(chars[i], 8).view(float)))
    return [chars[i].reshape(n, 1, 1) for i in order]
