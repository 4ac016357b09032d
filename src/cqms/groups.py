"""Finite group tables, metrics and lengths.

Groups are handled as 0-based Cayley tables ``table[i, j] = index of g_i g_j``.
The built-ins ship the data the rest of the package needs: bi-invariant
metrics and symmetric word lengths.
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
# the symmetric group S_3
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


def s3_word_generators() -> list[int]:
    """Adjacent transpositions (01) and (12)."""
    return [1, 2]
