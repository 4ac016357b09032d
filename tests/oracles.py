"""Independent reference computations the tests check the library against.

Kept deliberately separate from the library code paths: transport problems go
through scipy's LP, numerical ranges through dense sampling, convolutions
through direct group sums.
"""

import numpy as np
from scipy.optimize import linprog


def transport_distance(p, q, cost):
    """Min-cost transport between probability vectors by scipy's LP solver."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    c = cost.reshape(-1)
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([p, q])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def brute_numerical_radius(m, trials=4000, seed=0):
    """Lower bound for w(M) from random unit vectors plus rotated eigenvectors."""
    rng = np.random.default_rng(seed)
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    best = 0.0
    for theta in np.linspace(0, 2 * np.pi, 181):
        h = (np.exp(1j * theta) * m + np.exp(-1j * theta) * m.conj().T) / 2
        _, vecs = np.linalg.eigh(h)
        v = vecs[:, -1]
        best = max(best, abs(np.vdot(v, m @ v)))
    for _ in range(trials):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        best = max(best, abs(np.vdot(v, m @ v)))
    return best


def fejer_truncation_bound(n, window):
    """Closed form 2 sum_j |xi(j)|^2 d(j, 0) for the canonical state on F(Z_n).

    xi is the normalized projection of the point mass at 0 onto the chosen
    frequency window; d is the arc metric.
    """
    j = np.arange(n)
    kernel = np.zeros(n, dtype=complex)
    for m in window:
        kernel += np.exp(2j * np.pi * j * m / n)
    weights = np.abs(kernel) ** 2
    total = weights.sum()
    dist = (2 * np.pi / n) * np.minimum(j, n - j)
    return 2.0 * float(np.dot(weights, dist) / total)


def fourier_coefficient_distance(w, lengths, inverse):
    """Decoupled closed form for the coefficient Lip-norm distance on C*(G).

    sup over the product of discs |x_g| <= 1/l(g) of a hermitian functional:
    the discs decouple, so the supremum is a weighted sum of moduli over
    inverse pairs.
    """
    w = np.asarray(w, dtype=complex)
    total = 0.0
    seen = set()
    for g in range(len(w)):
        if lengths[g] <= 0 or g in seen:
            continue
        gi = int(inverse[g])
        seen.add(g)
        seen.add(gi)
        factor = 1.0 if gi == g else 2.0
        total += factor * abs(w[g]) / lengths[g]
    return total


def toeplitz_compression(f, n, window):
    """Direct Toeplitz construction of the compression of f on F(Z_n)."""
    f = np.asarray(f, dtype=complex)
    freqs = sorted(window)
    fhat = {m: np.mean(f * np.exp(-2j * np.pi * np.arange(n) * m / n)) for m in range(-n, n)}
    size = len(freqs)
    out = np.zeros((size, size), dtype=complex)
    for a in range(size):
        for b in range(size):
            out[a, b] = fhat[freqs[a] - freqs[b]]
    return out


def loop_radius_brackets(stack, tols, prune_weights):
    """The numerical-radius arc refinement with per-matrix Python arc lists.

    Same waves, support values, arc bounds and decisions as
    ``lipnorm._radius_brackets``, one matrix and one arc at a time, so the
    batched bookkeeping must agree with it bit for bit.
    """
    from cqms.lipnorm import _arc_bounds, _support_values_batch

    count = len(stack)
    tols = np.broadcast_to(np.asarray(tols, dtype=float), (count,))
    lower, upper, dropped = np.zeros(count), np.zeros(count), np.full(count, -np.inf)
    grid = np.linspace(0.0, 2 * np.pi, 17)
    arcs = {}
    for b, m in enumerate(stack):
        nrm = float(np.linalg.norm(m, 2))
        mh = m.conj().T
        if nrm <= tols[b]:
            lower[b] = upper[b] = nrm
        elif np.max(np.abs(m @ mh - mh @ m)) <= 1e-13 * nrm ** 2:
            lower[b] = upper[b] = np.max(np.abs(np.linalg.eigvals(m)))
        else:
            v = _support_values_batch(stack, [b] * len(grid), grid)
            arcs[b] = [(grid[i], grid[i + 1], v[i], v[i + 1]) for i in range(len(grid) - 1)]
            lower[b] = max(v)
    while arcs:
        best = None if prune_weights is None else max(lower / prune_weights)
        requests = []
        for b in sorted(arcs):
            arc_list = arcs.pop(b)
            caps = _arc_bounds(*(np.array(col) for col in zip(*arc_list)))
            upper[b] = max(caps)
            if upper[b] - lower[b] <= tols[b]:
                continue
            if best is not None and upper[b] / prune_weights[b] <= best:
                continue
            for arc, cap in zip(arc_list, caps):
                if cap > lower[b] + tols[b] / 2:
                    requests.append((b, arc))
                else:
                    dropped[b] = max(dropped[b], cap)
        for b, (lo, hi, flo, fhi) in requests:
            mid = (lo + hi) / 2
            fmid = _support_values_batch(stack, [b], [mid])[0]
            arcs.setdefault(b, []).extend([(lo, mid, flo, fmid), (mid, hi, fmid, fhi)])
            lower[b] = max(lower[b], fmid)
    return lower, np.maximum(upper, dropped)
