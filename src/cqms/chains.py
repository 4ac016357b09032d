"""Increasing chains of irrep subsets used in truncation sweeps."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .hopf import FiniteQuantumGroup


def prefix_chain(count: int) -> list[tuple]:
    """{0}, {0,1}, ..., {0..count-1} in file order."""
    if count < 1:
        raise ConfigError("chain needs at least one irrep")
    return [tuple(range(k + 1)) for k in range(count)]


def frequency_chain(n: int) -> list[tuple]:
    """Symmetric frequency windows for the characters of Z_n in frequency order.

    Level k keeps frequencies {0, +-1, ..., +-k} (mod n); the last level is
    the full set.
    """
    chain = []
    top = n // 2 if n % 2 == 0 else (n - 1) // 2
    for k in range(top + 1):
        window = {0}
        for j in range(1, k + 1):
            window.add(j % n)
            window.add((-j) % n)
        chain.append(tuple(sorted(window)))
    if len(chain[-1]) != n:
        chain.append(tuple(range(n)))
    return chain


def length_chain(g: FiniteQuantumGroup) -> list[tuple]:
    """Word-length balls for a group algebra whose irreps are the group elements."""
    if g.kind != "group" or g.length is None:
        raise ConfigError("length chains need a group algebra with a stored length")
    ell = np.asarray(g.length, dtype=float)
    levels = sorted(set(float(v) for v in ell))
    chain = []
    for cutoff in levels:
        chain.append(tuple(int(i) for i in np.nonzero(ell <= cutoff + 1e-12)[0]))
    return chain


def check_chain(chain) -> None:
    """Validate that the chain is increasing under inclusion."""
    if not chain:
        raise ConfigError("empty chain")
    prev: set = set()
    for k, subset in enumerate(chain):
        current = set(subset)
        if not prev <= current:
            raise ConfigError(f"chain is not increasing at step {k}")
        if k > 0 and current == prev:
            raise ConfigError(f"chain repeats the subset at step {k}")
        prev = current
