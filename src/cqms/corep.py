"""GNS construction, corepresentations, Peter-Weyl projectors, the multiplicative unitary.

The GNS space carries the inner product <a, b> = h(b* a) (antilinear in the
second slot).  Corepresentations are stored through their matrix coefficients:
an array u of shape (d, d, n) with u[i, j] the coefficient vector of the
(i, j) entry, satisfying Delta(u_ij) = sum_k u_ik (x) u_kj.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .errors import CompletenessError, InternalInconsistencyError, SchurError, StructureError
from .hopf import (FiniteQuantumGroup, _maxabs, _orthonormalize, _positivity_witness,
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
    gram = _positivity_witness(g, g.haar)
    gram = (gram + gram.conj().T) / 2
    eigs = np.linalg.eigvalsh(gram)
    if eigs[0] <= eigs[-1] * 1e-12:
        raise InternalInconsistencyError(
            f"Gram matrix is not positive definite (min eig {eigs[0]:.3e}); invariant state not faithful")
    chol = np.linalg.cholesky(gram)          # gram = chol @ chol^H
    onb = chol.conj().T                      # coords v -> onb @ v carry the standard inner product
    onb_inv = np.linalg.inv(onb)
    left = g.mult.transpose(0, 2, 1)         # left[i] maps b-coords to (e_i b)-coords
    rep = onb @ left @ onb_inv
    cyclic = onb @ g.unit
    space = GNSSpace(gram=gram, onb=onb, onb_inv=onb_inv, rep=rep, cyclic=cyclic)
    _certify_gns(g, space)
    return space


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


def corep_from_group_rep(values, label: str = "") -> Corepresentation:
    """Corepresentation of F(G) from unitary representation values pi(g)_{ij}.

    ``values`` has shape (|G|, d, d); entry (i, j) of the corepresentation is
    the function g -> pi(g)_{ij}.
    """
    values = np.asarray(values, dtype=complex)
    return Corepresentation(u=values.transpose(1, 2, 0), label=label)


def group_element_coreps(g: FiniteQuantumGroup) -> list[Corepresentation]:
    """The one-dimensional corepresentations lambda_g of a group algebra."""
    out = []
    for k in range(g.dim):
        u = np.zeros((1, 1, g.dim), dtype=complex)
        u[0, 0, k] = 1.0
        out.append(Corepresentation(u=u, label=f"lambda_{k}"))
    return out


def default_irreps(g: FiniteQuantumGroup) -> list[Corepresentation]:
    """Built-in complete irreducible families.

    Group algebras get one corepresentation per group element.  Function
    algebras of abelian groups get their characters; the stored tables cover
    S_3, D_4 and Q_8.  Anything else must supply its own list.
    """
    if g.kind == "group":
        return group_element_coreps(g)
    if g.kind == "function" and g.group_table is not None:
        table = np.asarray(g.group_table)
        if np.array_equal(table, table.T):
            chars = groups.abelian_characters(table)
            return [corep_from_group_rep(c, label=f"chi_{k}") for k, c in enumerate(chars)]
        for name, maker, irreps in (
            ("S3", groups.s3_table, groups.s3_irrep_matrices),
            ("D4", groups.d4_table, groups.d4_irrep_matrices),
            ("Q8", groups.q8_table, groups.q8_irrep_matrices),
        ):
            ref = maker()
            if table.shape == ref.shape and np.array_equal(table, ref):
                return [corep_from_group_rep(v, label=f"{name}_{k}") for k, v in enumerate(irreps())]
        raise CompletenessError(
            "no stored irreducible family for this nonabelian group; supply irreps explicitly")
    raise CompletenessError("no built-in irreducible family for this algebra; supply irreps explicitly")


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
