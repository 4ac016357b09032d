"""GNS construction, corepresentations, Peter-Weyl projectors, the multiplicative unitary.

The GNS space carries the inner product <a, b> = h(b* a) (antilinear in the
second slot).  Corepresentations are stored through their matrix coefficients:
an array u of shape (d, d, n) with u[i, j] the coefficient vector of the
(i, j) entry, satisfying Delta(u_ij) = sum_k u_ik (x) u_kj.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CompletenessError, InternalInconsistencyError, SchurError, StructureError
from .hopf import (RANK_RTOL, FiniteQuantumGroup, _maxabs, _orthonormalize, _positivity_witness, _readonly,
                   _rep_residuals, _unitarity_residual)

GNS_TOL = 1e-10
UNITARY_SAMPLES = 8      # random elements on which a multiplicative unitary must implement Delta


@dataclass(frozen=True, eq=False)
class GNSSpace:
    """GNS data for the invariant state: Gram matrix, orthonormal frame, left action.

    Coordinates of Lambda(a) in the orthonormal basis are ``onb @ a``; ``rep[i]``
    is left multiplication by e_i expressed in that basis.
    """

    gram: np.ndarray
    onb: np.ndarray
    onb_inv: np.ndarray
    rep: np.ndarray
    cyclic: np.ndarray

    def vector(self, a) -> np.ndarray:
        return self.onb @ np.asarray(a, dtype=complex)

    def act(self, a) -> np.ndarray:
        return np.einsum("i,ikl->kl", np.asarray(a, dtype=complex), self.rep)


def gns_build(g: FiniteQuantumGroup) -> GNSSpace:
    """Left regular representation on H = A with <a, b> = h(b* a)."""
    gram, onb = _haar_frame(g)
    onb_inv = np.linalg.inv(onb)
    left = g.mult.transpose(0, 2, 1)         # left[i] maps b-coords to (e_i b)-coords
    rep = onb @ left @ onb_inv
    cyclic = onb @ g.unit
    space = GNSSpace(gram=gram, onb=onb, onb_inv=onb_inv, rep=rep, cyclic=cyclic)
    _certify_gns(g, space)
    return space


def _haar_frame(g: FiniteQuantumGroup) -> tuple[np.ndarray, np.ndarray]:
    """(Gram matrix h(e_i* e_j), onb): coordinates v -> onb @ v carry the standard inner product."""
    gram = _positivity_witness(g, g.haar)
    gram = (gram + gram.conj().T) / 2
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= eigs[-1] * 1e-12:
        raise InternalInconsistencyError(
            f"Gram matrix is not positive definite (min eig {eigs[0]:.3e}); invariant state not faithful")
    return gram, np.linalg.cholesky(gram).conj().T          # gram = chol @ chol^H


def _certify_gns(g: FiniteQuantumGroup, s: GNSSpace) -> None:
    worst = max(*_rep_residuals(g, s.rep), abs(np.linalg.norm(s.cyclic) - 1.0))
    if worst > GNS_TOL:
        raise InternalInconsistencyError(f"GNS representation certificate failed (residual {worst:.3e})")


@dataclass(frozen=True, eq=False)
class Corepresentation:
    """Unitary corepresentation with entries given as coefficient vectors."""

    u: np.ndarray          # shape (d, d, n)
    label: str = ""

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        if u.ndim != 3 or u.shape[0] != u.shape[1]:
            raise StructureError(f"corepresentation array must have shape (d, d, n), got {u.shape}")
        u = np.ascontiguousarray(u)
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    @property
    def dim(self) -> int:
        return self.u.shape[0]


def default_irreps(g: FiniteQuantumGroup) -> list[Corepresentation]:
    """Every irreducible corepresentation of g, read off (A, Delta, h) alone.

    The characters span the cocommutative elements {a : Delta a = Delta^op a}.
    Convolution a -> (id (x) h(c* .))Delta a by a generic c among them acts on
    each Peter-Weyl block as a scalar, conj(h(c* chi_sigma)) / d_sigma by
    Woronowicz's orthogonality relations, and is normal in the GNS frame: its
    eigenspaces are the blocks.  This is the generic-element splitting of
    Murota, Kanno, Kojima & Kojima, Japan J. Indust. Appl. Math. 27 (2010).  A
    1-dim block is spanned by a group-like; a d^2-dim block is a matrix
    coalgebra (``_matrix_coalgebra_corep``).  The irreps are sorted by
    dimension, then by the angles of the coefficients of chi_sigma / d_sigma
    (``character_order``).
    ``pw_decompose`` certifies the family, as it certifies a supplied one.
    """
    n = g.dim
    gram, onb = _haar_frame(g)
    onb_inv = np.linalg.inv(onb)
    cocommutator = (g.comult - g.comult.transpose(0, 2, 1)).reshape(n, n * n).T
    _, sv, vh = np.linalg.svd(cocommutator, full_matrices=False)      # vh is n x n
    rank = int(np.sum(sv > RANK_RTOL * sv[0])) if sv[0] > 1e-12 else 0
    characters = vh[rank:].conj().T
    c = characters @ _generic_weights(characters.shape[1])
    conv = (g.comult @ (np.conj(c) @ gram)).T
    m = onb @ conv @ onb_inv
    scale = np.linalg.norm(m)
    skew = (m - m.conj().T) / 2j
    # a wide gap in the Hermitian part first, then the commuting skew part on each
    # cluster: one split at a gap narrow enough for both merges characters of F(Z_48)
    blocks = []
    herm_vals, herm_vecs = np.linalg.eigh((m + m.conj().T) / 2)
    for coarse in _clusters(herm_vals, 1e-3 * scale):
        x = herm_vecs[:, coarse]
        if len(coarse) == 1:
            blocks.append(x)
            continue
        skew_vals, skew_vecs = np.linalg.eigh(x.conj().T @ skew @ x)
        blocks += [x @ skew_vecs[:, fine] for fine in _clusters(skew_vals, 1e-9 * scale)]
    sizes = [b.shape[1] for b in blocks]
    if any(round(np.sqrt(k)) ** 2 != k for k in sizes):
        raise CompletenessError(f"the generic convolution splits A into blocks of dimensions {sizes}, "
                                "not all squares; supply irreps explicitly")
    grouplikes = _grouplikes(g, gram, onb_inv @ np.hstack([b for b in blocks if b.shape[1] == 1]))
    coreps = list(grouplikes.T.reshape(-1, 1, 1, n))
    coreps += [_matrix_coalgebra_corep(g, gram, onb_inv @ b) for b in blocks if b.shape[1] > 1]
    return [Corepresentation(u=coreps[k], label=f"irrep_{i}") for i, k in enumerate(character_order(coreps))]


def character_order(coreps) -> np.ndarray:
    """The indices that sort (d, d, n) corepresentation arrays as ``default_irreps`` lists them.

    By dimension, then by the angle in [0, 2 pi) of each coefficient of chi / d to 8 digits,
    zero coefficients last; rounding before reducing mod the rounded 2 pi puts the angle of
    1 - 1e-17j at 0 with that of 1.  The key reads only the character, not the frame.
    """
    dims = np.array([u.shape[0] for u in coreps])
    chis = np.array([np.trace(u) for u in coreps]) / dims[:, None]
    angles = np.round(np.angle(chis) % (2 * np.pi), 8) % np.round(2 * np.pi, 8)
    angles[np.abs(chis) < 1e-8] = np.inf
    return np.lexsort(np.vstack([angles.T[::-1], dims]))


def _generic_weights(k: int) -> np.ndarray:
    """k fixed weights with no rational relation among them: generic without a seeded generator."""
    j = np.arange(1, k + 1)
    return np.sqrt(j) * np.exp(1j * np.sqrt(2.0) * j)


def _clusters(sorted_values, gap) -> list:
    return np.split(np.arange(len(sorted_values)), np.flatnonzero(np.diff(sorted_values) > gap) + 1)


def _grouplikes(g: FiniteQuantumGroup, gram, vecs) -> np.ndarray:
    """Columns x = v / eps(v), each refined once by x -> (id (x) h(x* .))Delta x and renormalized.

    The map fixes a group-like and converges to it quadratically.  The unit is
    a group-like and distinct group-likes are independent, so the column
    nearest the unit is the unit itself, exactly.
    """
    x = vecs / _counits(g, vecs)
    refined = np.einsum("ijs,is->js", g.comult @ (gram.T @ x.conj()), x)
    refined /= _counits(g, refined)
    refined[:, np.argmin(np.linalg.norm(refined - g.unit[:, None], axis=0))] = g.unit
    return refined


def _counits(g: FiniteQuantumGroup, vecs) -> np.ndarray:
    eps = g.counit @ vecs
    if np.any(np.abs(eps) < 1e-8):
        raise CompletenessError("a one-dimensional block holds no group-like; supply irreps explicitly")
    return eps


def _matrix_coalgebra_corep(g: FiniteQuantumGroup, gram, block) -> np.ndarray:
    """The (d, d, n) irrep whose coefficients span the d^2 columns of ``block``.

    The block basis b_a is the one that reads 1 at its own pivot coordinate p_a
    and 0 at the others, so the dual basis is f_a = e_{p_a}^* and
    Delta b_a = sum t[a, b, c] b_b (x) b_c reads t off Delta b_a at the pivots.
    The dual basis multiplies as f_b f_c = sum_a t[a, b, c] f_a: a copy of M_d.
    An eigenvector of a generic element generates a minimal left ideal, on
    which the dual algebra acts by pi; then u_ij = sum_b pi(f_b)_ij b_b is a
    corepresentation, and Q_ij = sum_k h(u_ki* u_kj) unitarizes it.
    """
    n, k = block.shape
    d = round(np.sqrt(k))
    pivots = _pivot_rows(block)
    basis = block @ np.linalg.inv(block[pivots])
    delta = (basis.T @ g.comult.reshape(n, n * n)).reshape(k, n, n)
    left = delta[:, pivots][:, :, pivots].transpose(1, 0, 2)     # left[b][a, c] = t[a, b, c]
    _, vecs = np.linalg.eig(np.einsum("b,bac->ac", _generic_weights(k), left))
    ideal = np.linalg.svd((left @ vecs[:, 0]).T, full_matrices=False)[0][:, :d]
    u = np.einsum("bij,nb->ijn", ideal.conj().T @ left @ ideal, basis)
    eigs, vecs = np.linalg.eigh(np.einsum("kin,nm,kjm->ij", u.conj(), gram, u))
    half, inv_half = (vecs * np.sqrt(eigs)) @ vecs.conj().T, (vecs / np.sqrt(eigs)) @ vecs.conj().T
    return np.einsum("ik,kln,lj->ijn", half, u, inv_half)


def _pivot_rows(block) -> list:
    """The first rows of the (n, k) ``block``, in order, each independent of those before it.

    A row counts when it leaves a residual above 1e-3 of ||block||_2 against the rows before
    it, so block[pivots] stays well conditioned.  On F(G) and C*(G) the columns are
    orthogonal and of one length, so some row not yet visited always leaves 1/sqrt(n) of
    ||block||_2 and k rows are found; elsewhere a short count raises.
    """
    floor = 1e-3 * np.linalg.norm(block, 2)
    accepted = np.zeros((0, block.shape[1]), dtype=complex)
    pivots = []
    for r, row in enumerate(block):
        rest = row - (row @ accepted.conj().T) @ accepted
        if np.linalg.norm(rest) > floor:
            accepted = np.vstack([accepted, rest / np.linalg.norm(rest)])
            pivots.append(r)
            if len(pivots) == block.shape[1]:
                return pivots
    raise CompletenessError(f"a block of dimension {block.shape[1]} has only {len(pivots)} "
                            "well-conditioned pivot coordinates; supply irreps explicitly")


@dataclass(frozen=True)
class CorepReport:
    unitarity_residual: float
    corep_residual: float

    def passed(self, tol: float) -> bool:
        return max(self.unitarity_residual, self.corep_residual) < tol


def validate_corep(g: FiniteQuantumGroup, pi: Corepresentation) -> CorepReport:
    """Residuals of unitarity and the corepresentation identity."""
    unit_res = _unitarity_residual(amplified_corep(g, pi))
    lhs = np.einsum("ijn,npq->ijpq", pi.u, g.comult)
    rhs = np.einsum("ikp,kjq->ijpq", pi.u, pi.u)
    corep_res = _maxabs(lhs - rhs)
    return CorepReport(unitarity_residual=unit_res, corep_residual=corep_res)


def amplified_corep(g: FiniteQuantumGroup, pi: Corepresentation) -> np.ndarray:
    """(id (x) rho)(U) as a single (d*d0) x (d*d0) matrix."""
    d = pi.dim
    d0 = g.rep.shape[1]
    big = np.einsum("ijn,nkl->ikjl", pi.u, g.rep)
    return big.reshape(d * d0, d * d0)


@dataclass(frozen=True, eq=False)
class PWDecomposition:
    """Orthogonal blocks of the GNS space spanned by matrix coefficients."""

    gns: GNSSpace
    irreps: tuple
    blocks: tuple            # per irrep: (d^2, n) array, rows orthonormal in GNS coords
    reports: tuple           # per irrep: its CorepReport

    def projector(self, subset) -> np.ndarray:
        n = self.gns.onb.shape[0]
        p = np.zeros((n, n), dtype=complex)
        for k in subset:
            q = self.blocks[k]
            p += q.T @ q.conj()
        return p

    def frame(self, subset) -> np.ndarray:
        """Orthonormal basis of H_Lambda as columns of an (n, r) matrix."""
        return np.vstack([self.blocks[k] for k in subset]).T

    @cached_property
    def coefficients(self) -> tuple:
        """(rows u^sigma_ij stacked in (sigma, i, j) order, the irrep of each row, the dims)."""
        dims = np.array([pi.dim for pi in self.irreps])
        rows = np.vstack([pi.u.reshape(pi.dim ** 2, -1) for pi in self.irreps])
        return _readonly(rows), _readonly(np.repeat(np.arange(len(dims)), dims ** 2)), _readonly(dims)


def pw_decompose(g: FiniteQuantumGroup, irreps, tol: float = GNS_TOL) -> PWDecomposition:
    """Validate a complete irreducible family and orthonormalize its coefficient blocks.

    A unitary corepresentation is irreducible exactly when its d^2 matrix
    coefficients are linearly independent (Woronowicz): an intertwiner T != c 1
    gives the relation sum_k (T_ik u_kj - u_ik T_kj) = 0 among them.  So the
    rank of each orthonormalized block decides irreducibility.  Blocks of
    inequivalent irreps are orthogonal (Schur), equivalent ones coincide: one
    Gram matrix of all blocks certifies both.
    """
    gns = gns_build(g)
    irreps = tuple(irreps)
    blocks, reports = [], []
    for k, pi in enumerate(irreps):
        report = validate_corep(g, pi)
        if not report.passed(tol):
            raise StructureError(
                f"irrep {k} fails validation (unitarity {report.unitarity_residual:.2e}, "
                f"corep {report.corep_residual:.2e})")
        vecs = np.array([gns.vector(pi.u[i, j]) for i in range(pi.dim) for j in range(pi.dim)])
        q = _orthonormalize(vecs)
        if q.shape[0] != pi.dim ** 2:
            raise SchurError(f"irrep {k} is reducible: its d^2 = {pi.dim ** 2} coefficients "
                             f"span rank {q.shape[0]}")
        blocks.append(q)
        reports.append(report)

    owner = np.repeat(np.arange(len(blocks)), [len(q) for q in blocks])
    stacked = np.vstack(blocks) if blocks else np.zeros((0, g.dim), dtype=complex)
    overlap = np.zeros((len(blocks), len(blocks)))     # max |<q, q'>| per pair of blocks
    np.maximum.at(overlap, (owner[:, None], owner[None, :]), np.abs(stacked.conj() @ stacked.T))
    pairs = np.argwhere(np.triu(overlap > tol, 1))
    if len(pairs):
        a, b = pairs[0]
        raise SchurError(f"irreps {a} and {b} are equivalent: their coefficient blocks overlap "
                         f"({overlap[a, b]:.2e})")
    total = sum(pi.dim ** 2 for pi in irreps)
    if total != g.dim:
        raise CompletenessError(f"sum of squared dimensions is {total}, expected {g.dim}")
    return PWDecomposition(gns=gns, irreps=irreps, blocks=tuple(blocks), reports=tuple(reports))


# ---------------------------------------------------------------------------
# the multiplicative unitary
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MultiplicativeUnitary:
    matrix: np.ndarray           # W on H (x) H0
    unitarity_residual: float
    implementation_residual: float


def multiplicative_unitary(g: FiniteQuantumGroup) -> MultiplicativeUnitary:
    """Dense multiplicative unitary with certificates of its defining identities.

    W(Lambda(a) (x) xi) = (pi (x) rho)(Delta a)(Lambda(1) (x) xi) on H (x) H0,
    verified to implement the comultiplication by conjugation on
    UNITARY_SAMPLES seeded random elements.
    """
    gns = gns_build(g)
    n = g.dim
    d0 = g.rep.shape[1]
    acted = np.einsum("jpq,q->jp", gns.rep, gns.cyclic)      # pi(e_j) Lambda(1)
    mat = np.zeros((n * d0, n * d0), dtype=complex)
    for m in range(n):
        delta = g.coproduct(gns.onb_inv[:, m])
        # column (m, k): sum_{j,l} delta[j,l] (pi(e_j) cyclic) (x) (rho(e_l) e_k)
        cols = np.einsum("jl,jp,lqk->pqk", delta, acted, g.rep)
        mat[:, m * d0:(m + 1) * d0] = cols.reshape(n * d0, d0)
    unit_res = _unitarity_residual(mat)
    impl_res = _implementation_residual(g, gns, mat)
    return MultiplicativeUnitary(matrix=mat, unitarity_residual=unit_res, implementation_residual=impl_res)


def _implementation_residual(g, gns, mat) -> float:
    rng = np.random.default_rng(0)
    n, d0 = g.dim, g.rep.shape[1]
    worst = 0.0
    for _ in range(UNITARY_SAMPLES):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        delta = g.coproduct(a)
        lhs = mat @ np.kron(gns.act(a), np.eye(d0)) @ mat.conj().T
        rhs = np.einsum("jl,jpq,lab->paqb", delta, gns.rep, g.rep).reshape(n * d0, n * d0)
        worst = max(worst, _maxabs(lhs - rhs) / max(1.0, _maxabs(a)))
    return worst


def commutation_residual(mat: np.ndarray, projector: np.ndarray, d0: int) -> float:
    """Residual of [W, P (x) 1] = 0."""
    big = np.kron(projector, np.eye(d0))
    return _maxabs(mat @ big - big @ mat)
