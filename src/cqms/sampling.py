"""Seeded random generators for elements, states and matrix states.

All randomness in the package flows through numpy Generators passed or
seeded explicitly, so parallel runs stay reproducible.
"""

from __future__ import annotations

import numpy as np

from .hopf import FiniteQuantumGroup, State, certify_state


def random_elements(g: FiniteQuantumGroup, rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, n) elements with standard normal real and imaginary coefficients.

    One (count, 2, n) draw consumes the generator exactly as count pairs of
    size-n draws would (real parts, then imaginary parts, element by element).
    """
    parts = rng.normal(size=(count, 2, g.dim))
    return parts[:, 0] + 1j * parts[:, 1]


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(dim: int, rng: np.random.Generator, parts: int | None = None) -> np.ndarray:
    """Dirichlet-weighted convex mixture of Haar-random vector states."""
    if parts is None:
        parts = int(rng.integers(1, 4))
    if parts <= 1 or dim == 1:
        v = random_unit_vector(dim, rng)
        return np.outer(v, v.conj())
    weights = rng.dirichlet(np.ones(parts))
    density = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        v = random_unit_vector(dim, rng)
        density += w * np.outer(v, v.conj())
    return density


def random_state_density(g: FiniteQuantumGroup, rng: np.random.Generator) -> np.ndarray:
    """Density matrix on the representation space H0."""
    return random_density(g.rep.shape[1], rng)


def state_from_density(g: FiniteQuantumGroup, density: np.ndarray) -> State:
    """The state a -> tr(density rho(a)), certified."""
    coeffs = np.einsum("ab,iba->i", np.asarray(density, dtype=complex), g.rep)
    return certify_state(g, coeffs)


def random_state(g: FiniteQuantumGroup, rng: np.random.Generator) -> State:
    return state_from_density(g, random_state_density(g, rng))


def basis_vector_state(g: FiniteQuantumGroup, index: int) -> State:
    """Vector state at a coordinate vector of H0 (a point mass for F(G))."""
    d0 = g.rep.shape[1]
    density = np.zeros((d0, d0), dtype=complex)
    density[index, index] = 1.0
    return state_from_density(g, density)


def random_matrix_state(g: FiniteQuantumGroup, order: int, rng: np.random.Generator) -> np.ndarray:
    """A ucp map A -> M_order via a random isometry, as an (n, order, order) array."""
    d0 = g.rep.shape[1]
    if order > d0:
        raise ValueError(f"matrix state order {order} exceeds representation dimension {d0}")
    raw = rng.normal(size=(d0, order)) + 1j * rng.normal(size=(d0, order))
    q, _ = np.linalg.qr(raw)
    return q.conj().T @ g.rep @ q

