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

    idx = np.arange(n)
    identities = np.flatnonzero(np.all(table == idx, axis=1) & np.all(table == idx[:, None], axis=0))
    if not len(identities):
        raise GroupTableError("table has no two-sided identity")
    identity = int(identities[0])

    hits = table == identity
    inverse = np.argmax(hits, axis=1)
    lacking = np.flatnonzero((hits.sum(axis=1) != 1) | (table[inverse, idx] != identity))
    if len(lacking):
        raise GroupTableError(f"element {lacking[0]} has no two-sided inverse")

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
    frontier, d = np.array([identity]), 0
    while len(frontier):
        length[frontier] = d
        d += 1
        frontier = np.unique(table[frontier][:, list(generators)])
        frontier = frontier[np.isinf(length[frontier])]
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
    viol = d[:, :, None] - (d[:, None, :] + d[None, :, :]) > 1e-12     # d(g,h) - d(g,k) - d(k,h) by symmetry
    if np.any(viol):
        g, h, k = np.argwhere(viol)[0]
        raise MetricError(f"triangle inequality fails at triple ({g}, {h}, {k})")
    # bi-invariance: moved[k] is d(gk, hk), then d(kg, kh); C order names the lowest k, right before left
    perms = np.stack([table.T, table], axis=1)
    moved = d[perms[..., :, None], perms[..., None, :]]
    moved -= d
    bad = np.abs(moved, out=moved) > 1e-12
    k, side, g, h = np.unravel_index(np.argmax(bad), bad.shape)
    if bad[k, side, g, h]:
        raise MetricError(f"{('right', 'left')[side]} invariance fails at triple ({g}, {h}, {k})")


def check_length(length, identity: int, n: int) -> None:
    """Validate a length on a group of order n whose identity (from ``validate_cayley``) is given."""
    ell = np.asarray(length, dtype=float)
    if ell.shape != (n,):
        raise LengthError(f"length must have one value per element, got shape {ell.shape}")
    if abs(ell[identity]) > 1e-12:
        raise LengthError(f"length of the identity must be 0, got {ell[identity]}")
    bad = np.flatnonzero((ell <= 0) & (np.arange(n) != identity))
    if len(bad):
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
