"""Finite-dimensional Hopf *-algebra data model and validators.

A finite quantum group is stored through its structure tensors over a fixed
linear basis e_0..e_{n-1}: multiplication, unit, involution, comultiplication,
counit, antipode, a faithful *-representation and the invariant state.  The
two built-in families are the function algebra F(G) and the group algebra
C*(G) of a finite group G.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import groups
from .errors import (
    InternalInconsistencyError,
    NotAQuantumGroupError,
    StateCertificationError,
    StructureError,
)

DEFAULT_TOL = 1e-9


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Functional:
    """Linear functional in the dual basis: mu(a) = sum_i coeffs[i] * a[i]."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _readonly(np.asarray(self.coeffs, dtype=complex)))

    def __call__(self, a) -> complex:
        return complex(np.dot(self.coeffs, np.asarray(a, dtype=complex)))


@dataclass(frozen=True, eq=False)
class State(Functional):
    """Positive unital functional with its positivity witness.

    The witness is the matrix mu(e_i^* e_j); the state is certified by the
    witness being Hermitian PSD (up to tol) together with mu(1) = 1.
    """

    witness: np.ndarray = field(default=None)
    min_eig: float = 0.0


@dataclass(frozen=True, eq=False)
class FiniteQuantumGroup:
    """Structure tensors of a finite quantum group on basis e_0..e_{n-1}.

    mult[i, j, k]   coefficient of e_k in e_i e_j
    unit[i]         coefficients of 1
    star[i, j]      coefficient of e_j in (e_i)^*
    comult[i, j, k] coefficient of e_j (x) e_k in Delta(e_i)
    counit[i]       epsilon(e_i)
    antipode[i, j]  coefficient of e_j in S(e_i)
    rep[i]          rho(e_i) on the representation space H0
    haar[i]         h(e_i), the bi-invariant state
    """

    dim: int
    mult: np.ndarray
    unit: np.ndarray
    star: np.ndarray
    comult: np.ndarray
    counit: np.ndarray
    antipode: np.ndarray
    rep: np.ndarray
    haar: np.ndarray
    kind: str = "custom"          # "function" | "group" | "custom"
    group_table: np.ndarray | None = None
    metric: np.ndarray | None = None
    length: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        for name in ("mult", "unit", "star", "comult", "counit", "antipode", "rep", "haar"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=complex)))
        for name in ("group_table", "metric", "length"):
            val = getattr(self, name)
            if val is not None:
                object.__setattr__(self, name, _readonly(np.asarray(val)))
        _check_shapes(self)

    # -- basic algebra operations on coefficient vectors -------------------

    def product(self, a, b) -> np.ndarray:
        return np.einsum("i,j,ijk->k", np.asarray(a, complex), np.asarray(b, complex), self.mult)

    def star_of(self, a) -> np.ndarray:
        return self.star.T @ np.conj(np.asarray(a, complex))

    def coproduct(self, a) -> np.ndarray:
        """Delta(a) as an (n, n) coefficient matrix over e_j (x) e_k."""
        return np.einsum("i,ijk->jk", np.asarray(a, complex), self.comult)

    def counit_of(self, a) -> complex:
        return complex(np.dot(self.counit, np.asarray(a, complex)))

    def antipode_of(self, a) -> np.ndarray:
        return self.antipode.T @ np.asarray(a, complex)

    def rho_of(self, a) -> np.ndarray:
        return np.einsum("i,ikl->kl", np.asarray(a, complex), self.rep)

    def opnorm(self, a) -> float:
        """Operator norm, always evaluated through the faithful representation."""
        return float(np.linalg.norm(self.rho_of(a), 2))


def _check_shapes(g: FiniteQuantumGroup) -> None:
    n = g.dim
    expected = {
        "mult": (n, n, n),
        "unit": (n,),
        "star": (n, n),
        "comult": (n, n, n),
        "counit": (n,),
        "antipode": (n, n),
        "haar": (n,),
    }
    for name, shape in expected.items():
        if getattr(g, name).shape != shape:
            raise StructureError(f"tensor '{name}' must have shape {shape}, got {getattr(g, name).shape}")
    if g.rep.ndim != 3 or g.rep.shape[0] != n or g.rep.shape[1] != g.rep.shape[2]:
        raise StructureError(f"tensor 'rep' must have shape (n, d0, d0), got {g.rep.shape}")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def function_algebra(group_table, metric=None) -> FiniteQuantumGroup:
    """Function algebra F(G) of a finite group, with optional bi-invariant metric.

    Pointwise product, Delta f(g, h) = f(gh), counit = evaluation at the
    identity, antipode f(g) = f(g^-1), representation by diagonal
    multiplication on C^G.
    """
    table = np.asarray(group_table)
    identity, inverse = groups.validate_cayley(table)
    n = table.shape[0]

    mult = np.zeros((n, n, n), dtype=complex)
    idx = np.arange(n)
    mult[idx, idx, idx] = 1.0

    comult = np.zeros((n, n, n), dtype=complex)
    comult[table, idx[:, None], idx[None, :]] = 1.0

    counit = np.zeros(n, dtype=complex)
    counit[identity] = 1.0

    antipode = np.zeros((n, n), dtype=complex)
    antipode[idx, inverse] = 1.0

    rep = np.zeros((n, n, n), dtype=complex)
    rep[idx, idx, idx] = 1.0

    if metric is not None:
        groups.check_metric(table, metric)

    haar = _solve_haar(comult, np.ones(n, dtype=complex), n)
    return FiniteQuantumGroup(
        dim=n, mult=mult, unit=np.ones(n, dtype=complex), star=np.eye(n, dtype=complex),
        comult=comult, counit=counit, antipode=antipode, rep=rep, haar=haar,
        kind="function", group_table=table, metric=metric, label=f"F(G), |G|={n}",
    )


def group_algebra(group_table, length=None) -> FiniteQuantumGroup:
    """Group algebra C*(G) on basis lambda_g, with optional length function.

    Convolution product, Delta lambda_g = lambda_g (x) lambda_g, counit 1,
    antipode lambda_g -> lambda_{g^-1}, left regular representation.
    """
    table = np.asarray(group_table)
    identity, inverse = groups.validate_cayley(table)
    n = table.shape[0]
    idx = np.arange(n)

    mult = np.zeros((n, n, n), dtype=complex)
    mult[idx[:, None], idx[None, :], table] = 1.0

    unit = np.zeros(n, dtype=complex)
    unit[identity] = 1.0

    star = np.zeros((n, n), dtype=complex)
    star[idx, inverse] = 1.0

    comult = np.zeros((n, n, n), dtype=complex)
    comult[idx, idx, idx] = 1.0

    antipode = np.zeros((n, n), dtype=complex)
    antipode[idx, inverse] = 1.0

    rep = np.zeros((n, n, n), dtype=complex)
    for g in range(n):
        rep[g, table[g], idx] = 1.0

    if length is not None:
        groups.check_length(table, length)

    haar = _solve_haar(comult, unit, n)
    return FiniteQuantumGroup(
        dim=n, mult=mult, unit=unit, star=star, comult=comult,
        counit=np.ones(n, dtype=complex), antipode=antipode, rep=rep, haar=haar,
        kind="group", group_table=table, length=length, label=f"C*(G), |G|={n}",
    )


def _solve_haar(comult, unit, n, rank_rtol=1e-10) -> np.ndarray:
    """Unique normalized solution of the two-sided invariance system."""
    right = comult.reshape(n * n, n).copy()          # rows (i,j): sum_k comult[i,j,k] h_k
    right -= np.einsum("j,ik->ijk", unit, np.eye(n)).reshape(n * n, n)
    left = comult.transpose(0, 2, 1).reshape(n * n, n).copy()  # rows (i,k): sum_j comult[i,j,k] h_j
    left -= np.einsum("k,ij->ikj", unit, np.eye(n)).reshape(n * n, n)
    system = np.vstack([right, left])
    _, sv, vh = np.linalg.svd(system)
    null_dim = int(np.sum(sv <= rank_rtol * (sv[0] if len(sv) else 1.0)))
    if system.shape[1] > len(sv):
        null_dim += system.shape[1] - len(sv)
    if null_dim != 1:
        raise NotAQuantumGroupError(f"invariance system has solution space of dimension {null_dim}, expected 1")
    h = vh[-1].conj()
    scale = np.dot(h, unit)
    if abs(scale) < 1e-12:
        raise NotAQuantumGroupError("invariant functional vanishes on the unit")
    return h / scale


def haar_state(g: FiniteQuantumGroup, tol: float = DEFAULT_TOL) -> State:
    """Re-solve the invariance system and certify the result as a state."""
    h = _solve_haar(g.comult, g.unit, g.dim)
    return certify_state(g, h, tol=tol)


def counit_state(g: FiniteQuantumGroup, tol: float = DEFAULT_TOL) -> State:
    return certify_state(g, g.counit, tol=tol)


def certify_state(g: FiniteQuantumGroup, coeffs, tol: float = DEFAULT_TOL) -> State:
    """Certify positivity and normalization of a functional; raise otherwise."""
    coeffs = np.asarray(coeffs, dtype=complex)
    witness = np.einsum("ip,pjq,q->ij", g.star, g.mult, coeffs)
    herm = np.max(np.abs(witness - witness.conj().T))
    if herm > max(tol, 1e-10 * max(1.0, np.max(np.abs(witness)))):
        raise StateCertificationError(f"witness matrix not Hermitian (residual {herm:.2e})")
    eigvals, eigvecs = np.linalg.eigh((witness + witness.conj().T) / 2)
    min_eig = float(eigvals[0])
    if min_eig < -tol:
        vec = eigvecs[:, 0]
        raise StateCertificationError(
            f"functional is not positive: mu(a*a) = {min_eig:.3e} at witness vector {np.round(vec, 4)}")
    norm_residual = abs(np.dot(coeffs, g.unit) - 1.0)
    if norm_residual > tol:
        raise StateCertificationError(f"mu(1) = 1 fails with residual {norm_residual:.3e}")
    return State(coeffs=coeffs, witness=witness, min_eig=min_eig)


# ---------------------------------------------------------------------------
# axiom checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomReport:
    residuals: dict
    tol: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol

    def __str__(self) -> str:
        lines = [f"{name:<28s} {value:.3e}" for name, value in self.residuals.items()]
        status = "pass" if self.passed else "FAIL"
        lines.append(f"[{status}] max residual {self.max_residual:.3e} (tol {self.tol:.1e})")
        return "\n".join(lines)


def check_axioms(g: FiniteQuantumGroup, tol: float = DEFAULT_TOL) -> AxiomReport:
    """Evaluate every Hopf *-algebra axiom numerically and report residuals."""
    n = g.dim
    res: dict[str, float] = {}

    assoc = np.einsum("ijm,mkl->ijkl", g.mult, g.mult) - np.einsum("jkm,iml->ijkl", g.mult, g.mult)
    res["associativity"] = _maxabs(assoc)
    res["unit"] = max(
        _maxabs(np.einsum("i,ijk->jk", g.unit, g.mult) - np.eye(n)),
        _maxabs(np.einsum("j,ijk->ik", g.unit, g.mult) - np.eye(n)),
    )

    coassoc = np.einsum("iab,bcd->iacd", g.comult, g.comult) - np.einsum("iab,acd->icdb", g.comult, g.comult)
    res["coassociativity"] = _maxabs(coassoc)
    res["counit"] = max(
        _maxabs(np.einsum("ijk,j->ik", g.comult, g.counit) - np.eye(n)),
        _maxabs(np.einsum("ijk,k->ij", g.comult, g.counit) - np.eye(n)),
    )

    # Delta is a unital *-homomorphism
    hom = np.einsum("ijl,lpq->ijpq", g.mult, g.comult).astype(complex)
    hom -= np.einsum("iab,jcd,acp,bdq->ijpq", g.comult, g.comult, g.mult, g.mult, optimize=True)
    res["comult_multiplicative"] = _maxabs(hom)
    starhom = np.einsum("ij,jpq->ipq", g.star, g.comult)
    starhom -= np.einsum("ipq,pa,qb->iab", np.conj(g.comult), g.star, g.star)
    res["comult_star"] = _maxabs(starhom)
    res["comult_unital"] = _maxabs(np.einsum("i,ijk->jk", g.unit, g.comult) - np.outer(g.unit, g.unit))

    # antipode relation m(S (x) id)Delta = counit(.) 1 = m(id (x) S)Delta
    s_left = np.einsum("ijk,jp,pkq->iq", g.comult, g.antipode, g.mult)
    s_right = np.einsum("ijk,kp,jpq->iq", g.comult, g.antipode, g.mult)
    target = np.outer(g.counit, g.unit)
    res["antipode"] = max(_maxabs(s_left - target), _maxabs(s_right - target))

    res["star_involutive"] = _maxabs(np.conj(g.star) @ g.star - np.eye(n))
    anti = np.einsum("ijk,kp->ijp", np.conj(g.mult), g.star)
    anti -= np.einsum("jb,ia,bap->ijp", g.star, g.star, g.mult)
    res["star_antimultiplicative"] = _maxabs(anti)
    res["star_unit"] = _maxabs(g.star.T @ np.conj(g.unit) - g.unit)

    # representation: unital *-homomorphism, injective
    rep_hom = np.einsum("ikl,jlm->ijkm", g.rep, g.rep) - np.einsum("ijp,pkm->ijkm", g.mult, g.rep)
    res["rep_multiplicative"] = _maxabs(rep_hom)
    rep_star = np.einsum("ij,jkl->ikl", g.star, g.rep) - np.conj(np.transpose(g.rep, (0, 2, 1)))
    res["rep_star"] = _maxabs(rep_star)
    res["rep_unital"] = _maxabs(np.einsum("i,ikl->kl", g.unit, g.rep) - np.eye(g.rep.shape[1]))
    res["rep_faithful_rank_defect"] = float(n - _rank(g.rep.reshape(n, -1)))

    res["podles_right_rank_defect"] = float(n * n - _podles_rank(g, side="right"))
    res["podles_left_rank_defect"] = float(n * n - _podles_rank(g, side="left"))

    # Haar state: invariance and faithfulness of the GNS form
    right_inv = np.einsum("ijk,k->ij", g.comult, g.haar) - np.outer(g.haar, g.unit)
    left_inv = np.einsum("ijk,j->ik", g.comult, g.haar) - np.outer(g.haar, g.unit)
    res["haar_invariance"] = max(_maxabs(right_inv), _maxabs(left_inv))
    res["haar_normalization"] = abs(np.dot(g.haar, g.unit) - 1.0)
    gram = np.einsum("ip,pjq,q->ij", g.star, g.mult, g.haar)
    res["haar_gram_hermitian"] = _maxabs(gram - gram.conj().T)
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    res["haar_gram_definiteness"] = 1.0 if eigs[0] <= eigs[-1] * 1e-12 else 0.0

    return AxiomReport(residuals=res, tol=tol)


def _podles_rank(g: FiniteQuantumGroup, side: str) -> int:
    n = g.dim
    if side == "right":
        # span{(e_i (x) 1) Delta(e_j)}: (e_i e_a) (x) e_b over Delta e_j = sum_{a,b}
        vecs = np.einsum("jab,iap->jipb", g.comult, g.mult)
    else:
        vecs = np.einsum("jab,ibq->jiaq", g.comult, g.mult)
    return _rank(vecs.reshape(n * n, n * n))


def _rank(m: np.ndarray, rtol: float = 1e-10) -> int:
    sv = np.linalg.svd(m, compute_uv=False)
    # absolute floor so an all-zero matrix is not promoted to full rank by noise
    if len(sv) == 0 or sv[0] <= 1e-12:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


def _orthonormalize(vecs: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt with one re-orthogonalization pass."""
    out: list[np.ndarray] = []
    for v in np.asarray(vecs, dtype=complex):
        w = v.copy()
        for _ in range(2):
            for q in out:
                w = w - np.dot(q.conj(), w) * q
        norm = np.linalg.norm(w)
        if norm > 1e-8:
            out.append(w / norm)
    return np.array(out) if out else np.zeros((0, vecs.shape[1]), dtype=complex)


def _maxabs(x) -> float:
    x = np.asarray(x)
    return float(np.max(np.abs(x))) if x.size else 0.0


# ---------------------------------------------------------------------------
# convolution, slices, counit support
# ---------------------------------------------------------------------------

def convolve(mu: Functional, nu: Functional, g: FiniteQuantumGroup) -> Functional:
    """(mu * nu)(a) = (mu (x) nu) Delta(a)."""
    coeffs = np.einsum("ijk,j,k->i", g.comult, mu.coeffs, nu.coeffs)
    return Functional(coeffs=coeffs)


def slice_map(side: str, phi: Functional, t: np.ndarray) -> np.ndarray:
    """Slice a tensor t in A (x) A (an (n, n) coefficient matrix) to an element of A.

    side "left" applies phi to the first leg, "right" to the second.
    """
    t = np.asarray(t, dtype=complex)
    if side == "left":
        return phi.coeffs @ t
    if side == "right":
        return t @ phi.coeffs
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def counit_support_projection(g: FiniteQuantumGroup, tol: float = DEFAULT_TOL) -> np.ndarray:
    """The projection p with a p = counit(a) p for all a, normalized so p = p* = p^2."""
    n = g.dim
    mult_char = np.einsum("ijk,k->ij", g.mult, g.counit) - np.outer(g.counit, g.counit)
    star_char = g.star @ g.counit - np.conj(g.counit)
    # the defining system only makes sense when the counit is a *-character
    if _maxabs(mult_char) > tol or _maxabs(star_char) > tol:
        raise InternalInconsistencyError("counit is not a *-character; inputs are corrupt")

    system = np.concatenate([g.mult[i].T - g.counit[i] * np.eye(n) for i in range(n)], axis=0)
    _, sv, vh = np.linalg.svd(system, full_matrices=False)
    null_dim = int(np.sum(sv <= 1e-10 * sv[0])) + max(0, n - len(sv))
    if null_dim < 1:
        raise InternalInconsistencyError("counit has no support projection; inputs are corrupt")
    if null_dim > 1:
        raise InternalInconsistencyError(f"counit support space has dimension {null_dim}, expected 1")
    p = vh[-1].conj()
    scale = g.counit_of(p)
    if abs(scale) < 1e-12:
        raise InternalInconsistencyError("candidate support vector vanishes under the counit")
    p = p / scale
    idem = _maxabs(g.product(p, p) - p)
    selfadj = _maxabs(g.star_of(p) - p)
    if idem > tol or selfadj > tol:
        raise InternalInconsistencyError(
            f"support candidate fails p^2 = p = p* (residuals {idem:.2e}, {selfadj:.2e})")
    return p
