"""Finite-dimensional Hopf *-algebra data model and validators.

A finite quantum group is stored through its structure tensors over a fixed
linear basis e_0..e_{n-1}: multiplication, unit, involution, comultiplication,
counit, antipode, a faithful *-representation and the invariant state.  The
two built-in families are the function algebra F(G) and the group algebra
C*(G) of a finite group G.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import groups
from .errors import (
    InternalInconsistencyError,
    NotAQuantumGroupError,
    StateCertificationError,
    StructureError,
)

DEFAULT_TOL = 1e-9
RANK_RTOL = 1e-10             # singular values below this fraction of the largest count as zero
CHUNK_TERMS = 1 << 15         # products of nonzeros that a sum over nonzeros forms at a time


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

    def rho_of(self, a) -> np.ndarray:
        return np.einsum("i,ikl->kl", np.asarray(a, complex), self.rep)


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


def _solve_haar(comult, unit, n) -> np.ndarray:
    """Unique normalized solution of the two-sided invariance system."""
    system = _invariance_system(comult, unit, n)
    _, sv, vh = np.linalg.svd(system, full_matrices=False)     # 2n^2 >= n rows: vh is n x n
    null_dim = int(np.sum(sv <= RANK_RTOL * (sv[0] if len(sv) else 1.0)))
    if null_dim != 1:
        raise NotAQuantumGroupError(f"invariance system has solution space of dimension {null_dim}, expected 1")
    h = vh[-1].conj()
    scale = np.dot(h, unit)
    if abs(scale) < 1e-12:
        raise NotAQuantumGroupError("invariant functional vanishes on the unit")
    return h / scale


def _invariance_system(comult, unit, n) -> np.ndarray:
    """(id (x) h)Delta = h(.)1 in rows (i, j), then (h (x) id)Delta = h(.)1 in rows (i, k)."""
    system = np.concatenate([comult, comult.transpose(0, 2, 1)])
    idx = np.arange(n)
    system[idx, :, idx] -= unit                               # unit_j delta_ik
    system[n + idx, :, idx] -= unit
    return system.reshape(2 * n * n, n)


def haar_state(g: FiniteQuantumGroup, tol: float = DEFAULT_TOL) -> State:
    """Certify the stored invariant state: two-sided invariance within tol, then as a state."""
    residual = _maxabs(_invariance_system(g.comult, g.unit, g.dim) @ g.haar)
    if residual > tol:
        raise NotAQuantumGroupError(f"stored invariant state is not invariant (residual {residual:.2e})")
    return certify_state(g, g.haar, tol=tol)


@lru_cache(maxsize=32)
def counit_state(g: FiniteQuantumGroup) -> State:
    """The counit, certified once per algebra object (a state's arrays are read-only)."""
    return certify_state(g, g.counit)


def certify_state(g: FiniteQuantumGroup, coeffs, tol: float = DEFAULT_TOL) -> State:
    """Certify positivity and normalization of a functional; raise otherwise."""
    coeffs = np.asarray(coeffs, dtype=complex)
    witness = _positivity_witness(g, coeffs)
    herm = np.max(np.abs(witness - witness.conj().T))
    if herm > max(tol, 1e-10 * max(1.0, np.max(np.abs(witness)))):
        raise StateCertificationError(f"witness matrix not Hermitian (residual {herm:.2e})")
    min_eig = float(np.linalg.eigvalsh((witness + witness.conj().T) / 2)[0])
    if min_eig < -tol:
        vec = np.linalg.eigh((witness + witness.conj().T) / 2)[1][:, 0]
        raise StateCertificationError(
            f"functional is not positive: mu(a*a) = {min_eig:.3e} at witness vector {np.round(vec, 4)}")
    norm_residual = abs(np.dot(coeffs, g.unit) - 1.0)
    if norm_residual > tol:
        raise StateCertificationError(f"mu(1) = 1 fails with residual {norm_residual:.3e}")
    return State(coeffs=coeffs, witness=_readonly(witness), min_eig=min_eig)


# ---------------------------------------------------------------------------
# axiom checker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxiomReport:
    """Axiom residuals; passing needs all below tol and both Podles witnesses within their limit."""

    residuals: dict
    tol: float
    dim: int

    @property
    def max_residual(self) -> float:
        return float(np.max(list(self.residuals.values())))     # unlike max(), keeps a NaN: fails

    @property
    def passed(self) -> bool:
        podles = max(self.residuals["podles_right"], self.residuals["podles_left"])
        return self.max_residual < self.tol and podles <= _podles_limit(self.dim, self.dim)

    def __str__(self) -> str:
        lines = [f"{name:<28s} {value:.3e}" for name, value in self.residuals.items()]
        status = "pass" if self.passed else "FAIL"
        lines.append(f"[{status}] max residual {self.max_residual:.3e} (tol {self.tol:.1e})")
        return "\n".join(lines)


def check_axioms(g: FiniteQuantumGroup, tol: float = DEFAULT_TOL) -> AxiomReport:
    """Evaluate every Hopf *-algebra axiom numerically and report residuals.

    Delta is read as the coaction of A on itself, carrier leg first as in
    ``compress.comultiplication_coaction``: coassociativity and Podles density
    come from the full product (Delta (x) id)Delta of ``_coaction_certificates``,
    cached per algebra.  The left-side residuals are the right-side ones of A^cop
    (``_co_opposite``).
    """
    n = g.dim
    cop = _co_opposite(g)
    flat_mult = g.mult.reshape(n * n, n)
    res: dict[str, float] = {}

    res["associativity"] = _mult_parts(_ByIdentity(g.mult))[0]
    res["unit"] = max(_maxabs((g.unit @ g.mult.reshape(n, n * n)).reshape(n, n) - np.eye(n)),
                      _maxabs(g.unit @ g.mult - np.eye(n)))

    coassoc_right, podles_right = _comult_certificates(g)
    coassoc_left, podles_left = _comult_certificates(cop)
    res["coassociativity"] = max(coassoc_right, coassoc_left)
    res["counit"] = max(_counit_residual(g), _counit_residual(cop))

    # Delta is a unital *-homomorphism.  [i, j, p, q]: coefficient of e_p (x) e_q in
    # Delta(e_i e_j) - Delta(e_i) Delta(e_j), the product summed as
    # sum_{b, c} (sum_a Delta[i, a, b] mult[a, c, p]) (sum_d Delta[j, c, d] mult[b, d, q])
    mult, comult = _coo(g.mult), _coo(g.comult)
    first = _summed("iab,acp->ibcp", comult, mult)
    second = _summed("jcd,bdq->jcbq", comult, mult)
    res["comult_multiplicative"] = _difference_norms(("ijl,lpq->ijpq", mult, comult),
                                                     ("ibcp,jcbq->ijpq", first, second))[0]
    # [i, p, q]: coefficient of e_p (x) e_q in Delta(e_i^*) - (* (x) *)Delta(e_i)
    res["comult_star"] = _maxabs((g.star @ g.comult.reshape(n, n * n)).reshape(n, n, n)
                                 - g.star.T @ np.conj(g.comult) @ g.star)
    res["comult_unital"] = _maxabs((g.unit @ g.comult.reshape(n, n * n)).reshape(n, n)
                                   - np.outer(g.unit, g.unit))

    # antipode relation m(S (x) id)Delta = counit(.) 1 = m(id (x) S)Delta, with S applied
    # to one leg of Delta(e_i) and the legs then multiplied
    s_left = (g.antipode.T @ g.comult).reshape(n, n * n) @ flat_mult
    s_right = (g.comult @ g.antipode).reshape(n, n * n) @ flat_mult
    target = np.outer(g.counit, g.unit)
    res["antipode"] = max(_maxabs(s_left - target), _maxabs(s_right - target))

    res["star_involutive"] = _maxabs(np.conj(g.star) @ g.star - np.eye(n))
    # [i, j, p]: coefficient of e_p in (e_i e_j)^* - e_j^* e_i^*
    res["star_antimultiplicative"] = _maxabs(
        (np.conj(flat_mult) @ g.star).reshape(n, n, n)
        - (g.star @ (g.star @ g.mult.transpose(1, 0, 2)).reshape(n, n * n)).reshape(n, n, n))
    res["star_unit"] = _maxabs(g.star.T @ np.conj(g.unit) - g.unit)

    # representation: unital *-homomorphism, injective
    res["rep_multiplicative"], res["rep_star"], res["rep_unital"] = _rep_residuals(g, g.rep)
    res["rep_faithful_rank_defect"] = float(n - _rank(g.rep.reshape(n, -1)))

    res["podles_right"], res["podles_left"] = podles_right, podles_left

    # Haar state: invariance and faithfulness of the GNS form
    res["haar_invariance"] = _maxabs(_invariance_system(g.comult, g.unit, n) @ g.haar)
    res["haar_normalization"] = abs(np.dot(g.haar, g.unit) - 1.0)
    gram = _positivity_witness(g, g.haar)
    res["haar_gram_hermitian"] = _maxabs(gram - gram.conj().T)
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    res["haar_gram_definiteness"] = 1.0 if eigs[0] <= eigs[-1] * 1e-12 else 0.0

    return AxiomReport(residuals=res, tol=tol, dim=n)


@lru_cache(maxsize=32)
def _co_opposite(g: FiniteQuantumGroup) -> FiniteQuantumGroup:
    """A^cop: the same algebra with Delta's legs swapped and S^-1 as antipode.

    A left coaction of A is a right coaction of A^cop, so certificates are
    written for the right side only.  The other structure arrays are g's own,
    and no group data is carried, so nothing reads it as F(G^op).  A singular
    S gets the zero matrix as stand-in: both Podles witnesses read inf.
    Cached per algebra object.
    """
    try:
        antipode = np.linalg.inv(g.antipode)
    except np.linalg.LinAlgError:
        antipode = np.zeros_like(g.antipode)
    return FiniteQuantumGroup(dim=g.dim, mult=g.mult, unit=g.unit, star=g.star,
                              comult=g.comult.transpose(0, 2, 1), counit=g.counit,
                              antipode=antipode, rep=g.rep, haar=g.haar)


def _coaction_certificates(g: FiniteQuantumGroup, tensor) -> tuple[float, float]:
    """(coaction residual, Podles witness) of a carrier-first right coaction tensor, from one product."""
    rows = _coaction_parts(g, _coo(tensor))
    frobenius = float(np.sqrt(max(rows[:, 1].sum(), 0.0)))
    return (float(rows[:, 0].max(initial=0.0)),
            _podles_witness(g, frobenius, float(np.sqrt(rows[:, 2].sum())), tensor.shape[0]))


def _coaction_parts(g: FiniteQuantumGroup, t) -> np.ndarray:
    """One row per carrier row k of a carrier-first right coaction tensor, given as a COO ``t``.

    u[k, m, p, l] = sum_c t[k, c, l] t[c, m, p] is the coefficient of
    x_m (x) e_p (x) e_l in (alpha (x) id)alpha(x_k); E = u - (id (x) Delta)alpha,
    with (n, n) slice E_km at (k, m).

    Podles density: Phi(x (x) a) = (1 (x) a)alpha(x) has the inverse
    Psi(x (x) a) = x_(0) (x) a S^-1(x_(1)).  Both are left A-module maps, so
    D = Psi Phi - I has D(x (x) a) = a D(x (x) 1) and is fixed by its s columns
    c_k = D(x_k (x) 1) = sum u[k, m, p, l] x_m (x) e_l S^-1(e_p) - x_k (x) 1, and
    ||D||_F = sqrt(sum_k c_k* G c_k) through the Gram matrix G of left
    multiplication (W and G of ``_podles_parts``).

    Row k holds max|E_k..|, c_k* G c_k (inf for a singular S), sum|u_k..|^2 and
    max_m ||E_km||_F.  Row k reads only alpha(x_k), so the rows of a direct sum
    of coactions split by summand.  Both products and u W are formed in ``_pieces``;
    each total adds its terms in key order, across pieces, so no row depends on where one ends.
    """
    s, _, n = t[0]
    parts = _podles_parts(g)
    w = None if parts is None else _coo(parts[0])
    rows, slices, reached = np.zeros((s, 4)), np.zeros(s * s), np.zeros(s, dtype=bool)

    def close(columns, cols):
        """Add c_k* G c_k of finished columns (k, m) to their rows, the -1 of c_k on the diagonal."""
        if not len(columns):
            return
        diagonal = columns // s == columns % s
        cols[diagonal] -= g.unit
        reached[columns[diagonal] // s] = True
        np.add.at(rows[:, 1], columns // s,
                  np.einsum("ij,ij->i", cols.conj(), np.matmul(cols[:, None], parts[1].T)[:, 0]).real)

    columns, cols = np.zeros(0, dtype=np.int64), np.zeros((0, n), dtype=complex)    # the open column
    for piece in _pieces([("kcl,cmp->kmpl", t, t), ("kmc,cpl->kmpl", t, _coo(g.comult))]):
        _, at, (u, ud) = _sums(*(_product(*product) for product in piece))
        mags, km = np.abs(u - ud), at // (n * n)              # km: (k, m), nondecreasing
        np.maximum.at(rows[:, 0], km // s, mags)
        np.add.at(slices, km, mags * mags)
        np.add.at(rows[:, 2], km // s, u.real ** 2 + u.imag ** 2)
        if w is None or not len(km):
            continue
        opened = km[_run_starts(km)]
        if len(columns) and columns[0] == opened[0]:          # the open column goes on here
            cols = np.concatenate([cols, np.zeros((len(opened) - 1, n), dtype=complex)])
        else:
            close(columns, cols)
            cols = np.zeros((len(opened), n), dtype=complex)
        columns = opened
        for (product,) in _pieces([("cx,xr->cr", ((s * s, n * n), at, u), w)]):    # c = (k, m), x = (p, l)
            _, key, values = _product(*product)
            np.add.at(cols.reshape(-1), np.searchsorted(columns, key // n) * n + key % n, values)
        close(columns[:-1], cols[:-1])
        columns, cols = columns[-1:], cols[-1:]
    rows[:, 3] = np.sqrt(slices.reshape(s, s).max(axis=1, initial=0.0))
    if w is None:
        rows[:, 1] = np.inf
        return rows
    close(columns, cols)
    missing = np.flatnonzero(~reached)                     # diagonal columns that u W never reaches
    close(missing * (s + 1), np.zeros((len(missing), n), dtype=complex))
    return rows


def _podles_witness(g: FiniteQuantumGroup, frobenius: float, size: float, s: int) -> float:
    """||D||_F plus the terms of ``_podles_parts`` that bound what the module identity misses
    when mult is not exactly associative and unital, for a carrier of dimension s whose
    (alpha (x) id)alpha has Frobenius norm ``size``.  It bounds ||D||_2 from above; inf for a
    singular S."""
    parts = _podles_parts(g)
    if parts is None:
        return np.inf
    return frobenius + parts[2] * size + parts[3] * np.sqrt(s)


@lru_cache(maxsize=32)
def _comult_certificates(g: FiniteQuantumGroup) -> tuple[float, float]:
    """Delta's own (coaction residual, Podles witness) as the right coaction of A on itself.

    Cached per algebra object: ``check_axioms`` and ``compress.comultiplication_coaction`` share it.
    """
    return _coaction_certificates(g, g.comult)


@lru_cache(maxsize=32)
def _podles_parts(g: FiniteQuantumGroup) -> tuple | None:
    """(W, G, assoc_term, unit_term) for the Podles witness; None for a singular S.

    W[(p, l), r] is the coefficient of e_r in e_l S^-1(e_p), and
    G[p, q] = sum_{j, r} conj(mult[j, p, r]) mult[j, q, r] is the Hilbert-Schmidt Gram
    matrix of left multiplication.  Psi Phi - I differs from its module extension
    by the associator applied to (alpha (x) id)alpha (at most
    ||u||_F ||S^-1||_2 ||assoc||_F) and by e_j 1 - e_j on each of the s carrier
    vectors (at most sqrt(s) ||e_j 1 - e_j||_F): assoc_term is ||S^-1||_2 ||assoc||_F
    and unit_term ||e_j 1 - e_j||_F.  Both are 0 when mult is exactly associative
    and unital.  Cached per algebra object; G and the associator are formed once
    per ``mult`` array (``_mult_parts``), which A and A^cop share.
    """
    n = g.dim
    try:
        antipode = np.linalg.inv(g.antipode)
    except np.linalg.LinAlgError:
        return None
    _, assoc_frobenius, gram = _mult_parts(_ByIdentity(g.mult))
    by_right = g.mult.transpose(1, 0, 2).reshape(n, n * n)      # [q, (l, r)] = mult[l, q, r]
    w = (antipode @ by_right).reshape(n * n, n)
    assoc_term = float(np.linalg.norm(antipode, 2)) * assoc_frobenius
    unit_term = float(np.linalg.norm(g.unit @ g.mult - np.eye(n)))
    return w, gram, assoc_term, unit_term


class _ByIdentity:
    """A cache key that hashes and compares an object (such as an array) by identity.

    It holds the object, so no other object can take its id while a cache keeps the key.
    """

    __slots__ = ("obj",)

    def __init__(self, obj):
        self.obj = obj

    def __hash__(self) -> int:
        return id(self.obj)

    def __eq__(self, other) -> bool:
        return isinstance(other, _ByIdentity) and other.obj is self.obj


@lru_cache(maxsize=32)
def _mult_parts(key: _ByIdentity) -> tuple[float, float, np.ndarray]:
    """(max, Frobenius) of the associator (e_i e_j) e_k - e_i (e_j e_k), and the Gram matrix G.

    G is ``_podles_parts``'s.  Both read only the multiplication tensor
    ``key.obj``, so they are cached per array: A and A^cop (``_co_opposite``)
    share theirs.
    """
    mult = key.obj
    n = mult.shape[0]
    m = _coo(mult)
    top, frobenius = _difference_norms(("ijm,mkl->ijkl", m, m), ("jkm,iml->ijkl", m, m))
    by_right = mult.transpose(1, 0, 2).reshape(n, n * n)
    gram = _readonly(by_right.conj() @ by_right.T)
    return top, frobenius, gram


def _counit_residual(g: FiniteQuantumGroup) -> float:
    """max|(id (x) eps)Delta - id|, Delta read as the right coaction of A on itself."""
    return _maxabs(g.comult @ g.counit - np.eye(g.dim))


def _podles_limit(n: int, s: int) -> float:
    """A witness at most this (< 1) gives ||Psi Phi - I||_2 <= ||Psi Phi - I||_F < 1: Phi is invertible."""
    return 0.5 / (n * s)


def _rep_residuals(g: FiniteQuantumGroup, rep) -> tuple[float, float, float]:
    """Residuals of rep(e_i) rep(e_j) = rep(e_i e_j), rep(e_i^*) = rep(e_i)^* and rep(1) = 1.

    The first is summed over products of nonzeros at [i, j, k, m], entry (k, m) of both sides.
    """
    n, d = rep.shape[0], rep.shape[1]
    flat = rep.reshape(n, d * d)
    r = _coo(rep)
    multiplicative = _difference_norms(("ikl,jlm->ijkm", r, r), ("ijp,pkm->ijkm", _coo(g.mult), r))[0]
    star = _maxabs((g.star @ flat).reshape(n, d, d) - rep.conj().transpose(0, 2, 1))
    unital = _maxabs((g.unit @ flat).reshape(d, d) - np.eye(d))
    return multiplicative, star, unital


def _positivity_witness(g: FiniteQuantumGroup, coeffs) -> np.ndarray:
    """The matrix mu(e_i^* e_j) of the functional mu with these coefficients."""
    return g.star @ (g.mult @ coeffs)


def _unitarity_residual(u: np.ndarray) -> float:
    """max(|U^* U - I|, |U U^* - I|) for a square matrix U."""
    return max(_maxabs(u.conj().T @ u - np.eye(len(u))), _maxabs(u @ u.conj().T - np.eye(len(u))))


def _rank(m: np.ndarray) -> int:
    sv = np.linalg.svd(m, compute_uv=False)
    # absolute floor so an all-zero matrix is not promoted to full rank by noise
    if len(sv) == 0 or sv[0] <= 1e-12:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))


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
# sums over nonzeros
# ---------------------------------------------------------------------------
#
# A COO is (shape, keys, values): the C-order flat indices of an array's listed
# entries, sorted, and their values; a key may repeat, its values then add.  A product of
# two structure tensors is summed over pairs of nonzeros that meet on the shared
# indices, the sparse-operand iteration of Kjolstad et al., "The tensor algebra
# compiler" (OOPSLA 2017): the dense sum minus terms that are exactly zero.  A
# dense tensor is the COO that lists every entry.

def _coo(a) -> tuple:
    """The COO of a's nonzero entries."""
    keys = np.flatnonzero(a)
    return a.shape, keys, np.ravel(a)[keys]


def _join(lkey, rkey, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair (l, r) of positions with lkey[l] == rkey[r], for keys in [0, size)."""
    counts = np.bincount(rkey, minlength=size)
    per = counts[lkey]
    left = np.arange(len(lkey)).repeat(per)
    # the r of a pair is its rank within lkey[l]'s run of the stably sorted rkey
    runs = counts.cumsum() - counts
    rank = np.arange(len(left)) + (runs[lkey] + per - per.cumsum()).repeat(per)
    # a stable sort of keys below 2^16 is a radix sort in 16 bits
    return left, rkey.astype(np.uint16 if size <= 1 << 16 else rkey.dtype).argsort(kind="stable")[rank]


def _product(spec: str, x, y) -> tuple:
    """The einsum ``spec`` of two COOs, one term per pair of entries that agree on the shared letters;
    a term's output key adds its x entry's part to its y entry's, each formed once per entry."""
    out, at_x, at_y, dims, shared = _indices(spec, x, y)
    left, right = _join(*shared)
    shape = tuple(dims[c] for c in out)
    stride = dict(zip(out, np.cumprod((1,) + shape[:0:-1])[::-1].tolist()))
    part_x = sum((at_x[c] * stride[c] for c in out if c in at_x), np.zeros(len(x[1]), dtype=np.int64))
    part_y = sum((at_y[c] * stride[c] for c in out if c not in at_x), np.zeros(len(y[1]), dtype=np.int64))
    return shape, part_x[left] + part_y[right], x[2][left] * y[2][right]


def _indices(spec: str, x, y) -> tuple:
    """(output letters, x's and y's index arrays by letter, each letter's dimension, and
    (x's keys, y's keys, number of keys) over the letters the operands share)."""
    operands, out = spec.split("->")
    xs, ys = operands.split(",")
    at_x = dict(zip(xs, np.unravel_index(x[1], x[0])))
    at_y = dict(zip(ys, np.unravel_index(y[1], y[0])))
    dims = dict(zip(xs + ys, x[0] + y[0]))
    size = tuple(dims[c] for c in xs if c in ys)
    shared = (np.ravel_multi_index([at_x[c] for c in xs if c in ys], size),
              np.ravel_multi_index([at_y[c] for c in xs if c in ys], size), int(np.multiply.reduce(size)))
    return out, at_x, at_y, dims, shared


def _pieces(products, position: int = 0):
    """The products ``(spec, x, y)`` of one output shape restricted to pieces of that output,
    each holding about CHUNK_TERMS products of nonzeros in all.

    A piece is a run of values of the output index at ``position``; a single value that holds
    more is split along the next output index.  Restriction keeps the order of the terms, so
    every output entry is summed as in the whole product.
    """
    if sum(len(x[1]) * len(y[1]) for _, x, y in products) > CHUNK_TERMS:
        counts = sum(_terms_along(product, position) for product in products)
        if counts.sum() > CHUNK_TERMS:
            ends, a = np.cumsum(counts), 0
            while a < len(counts):
                b = max(a + 1, int(np.searchsorted(ends, ends[a] - counts[a] + CHUNK_TERMS, side="right")))
                piece = [_restrict(product, position, a, b) for product in products]
                if counts[a] > CHUNK_TERMS and position + 1 < len(products[0][0].split("->")[1]):
                    yield from _pieces(piece, position + 1)
                else:
                    yield piece
                a = b
            return
    yield products


def _terms_along(product, position: int) -> np.ndarray:
    """How many products of nonzeros each value of the output index at ``position`` receives."""
    out, at_x, at_y, dims, (lkey, rkey, size) = _indices(*product)
    c = out[position]
    if c in at_x:
        return np.bincount(at_x[c], np.bincount(rkey, minlength=size)[lkey], dims[c])
    return np.bincount(at_y[c], np.bincount(lkey, minlength=size)[rkey], dims[c])


def _restrict(product, position: int, lo: int, hi: int) -> tuple:
    """The product with the output index at ``position`` restricted to [lo, hi)."""
    spec = product[0]
    c = spec.split("->")[1][position]
    cut = []
    for letters, (shape, keys, values) in zip(spec.split("->")[0].split(","), product[1:]):
        if c in letters:
            axis = letters.index(c)
            stride = int(np.multiply.reduce(shape[axis + 1:]))
            if axis == 0:                                      # a run of the sorted keys
                keep = slice(*np.searchsorted(keys, (lo * stride, hi * stride)))
            else:
                at = keys // stride % shape[axis]
                keep = (at >= lo) & (at < hi)
            keys, values = keys[keep], values[keep]
        cut.append((shape, keys, values))
    return (spec, *cut)


def _difference_norms(plus, minus) -> tuple[float, float]:
    """(max|P - M|, ||P - M||_F) for P and M two einsum products ``(spec, x, y)`` of COOs with
    one output shape, formed in ``_pieces``; each entry of P and of M is summed in term order."""
    top, square = 0.0, 0.0
    for piece in _pieces([plus, minus]):
        _, _, (p, m) = _sums(*(_product(*product) for product in piece))
        p -= m
        top = max(top, _maxabs(p))
        square += float(p.real @ p.real + p.imag @ p.imag)
    return top, float(np.sqrt(square))


def _sums(*terms) -> tuple:
    """COOs of one shape, each summed by key in the order of its values on the union of their
    keys: (shape, keys, [sums]).

    Keys that span a range no longer than their count give that whole range, with no sort;
    other keys give their distinct values.
    """
    every = np.concatenate([t[1] for t in terms])
    if len(every) and every.max() - every.min() < len(every):
        keys, slots = np.arange(every.min(), every.max() + 1), every - every.min()
    else:
        order = every.argsort()
        first = _run_starts(every[order])
        slots = np.empty(len(order), dtype=np.int64)
        slots[order] = first.cumsum() - 1
        keys = every[order[first]]
    sums = [np.zeros(len(keys), dtype=t[2].dtype) for t in terms]
    for total, at, t in zip(sums, np.split(slots, np.cumsum([len(t[1]) for t in terms[:-1]])), terms):
        np.add.at(total, at, t[2])
    return terms[0][0], keys, sums


def _run_starts(ordered) -> np.ndarray:
    """True where a run of equal entries begins in a sorted array."""
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return first


def _summed(spec: str, x, y) -> tuple:
    """The einsum ``spec`` of two COOs summed by key, formed in ``_pieces``, its exact zeros dropped."""
    keys, values = [], []
    for (product,) in _pieces([(spec, x, y)]):
        shape, at, (total,) = _sums(_product(*product))
        nonzero = np.flatnonzero(total)
        keys.append(at[nonzero])
        values.append(total[nonzero])
    return shape, np.concatenate(keys), np.concatenate(values)


def spectral_norms(stack) -> np.ndarray:
    """||M_k||_2 for a (k, d, d) stack, from the top eigenvalue of the Gram matrix H = M^* M.

    Each matrix is first divided by a power of two near its largest entry
    modulus, which is exact and keeps H clear of overflow and underflow (a
    zero matrix gives 0).  d = 1 gives |m|; d = 2 takes the closed form
    (h11 + h22)/2 + hypot((h11 - h22)/2, |h12|), a sum of nonnegative terms;
    larger d takes eigvalsh.  The rounding is O(d eps) relative, as an SVD's.
    """
    stack = np.asarray(stack)
    d = stack.shape[-1]
    if d == 1 or not stack.size:
        return np.abs(stack).max(axis=(1, 2), initial=0.0)
    _, exponent = np.frexp(np.abs(stack).max(axis=(1, 2)))
    scale = np.ldexp(1.0, exponent)
    m = stack / scale[:, None, None]
    if d == 2:
        col = (m.real ** 2 + m.imag ** 2).sum(axis=1)
        h12 = np.abs((m[:, :, 0].conj() * m[:, :, 1]).sum(axis=1))
        top = (col[:, 0] + col[:, 1]) / 2 + np.hypot((col[:, 0] - col[:, 1]) / 2, h12)
    else:
        top = np.linalg.eigvalsh(m.conj().transpose(0, 2, 1) @ m)[:, -1]
    return np.sqrt(np.maximum(top, 0.0)) * scale


@lru_cache(maxsize=32)
def _rep_blocks(g: FiniteQuantumGroup) -> tuple:
    """rho's diagonal blocks, one read-only (count, b) index array per block size b.

    The blocks are the connected components of the exact nonzero pattern of
    sum_i |rho(e_i)|, so rho(y) is their direct sum for every y.  Cached per
    algebra object.
    """
    d = g.rep.shape[1]
    pattern = np.any(g.rep != 0, axis=0)
    reach = pattern | pattern.T | np.eye(d, dtype=bool)
    while True:                      # transitive closure by repeated squaring
        step = (reach.astype(np.int64) @ reach) > 0
        if np.array_equal(step, reach):
            break
        reach = step
    comps = {}
    for first in np.flatnonzero(reach.argmax(axis=1) == np.arange(d)):    # each component's least index
        comp = np.flatnonzero(reach[first])
        comps.setdefault(len(comp), []).append(comp)
    return tuple(_readonly(np.array(members)) for _, members in sorted(comps.items()))


def element_norms(g: FiniteQuantumGroup, coeffs) -> np.ndarray:
    """||rho(y_k)|| for a (k, q, q, n) stack of q x q matrices over A (q = 1: elements): the max
    of rho's block norms, the blocks taken about CHUNK_TERMS matrix entries at a time.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    k, q = coeffs.shape[:2]
    flat = coeffs.reshape(-1, g.dim)
    norms = np.zeros(k)
    for idx in _rep_blocks(g):
        b = idx.shape[1]
        step = max(1, CHUNK_TERMS // (k * q * q * b * b))
        for part in np.split(idx, range(step, len(idx), step)):
            gathered = g.rep[:, part[:, :, None], part[:, None, :]].reshape(g.dim, -1)   # row i: rho(e_i)'s blocks
            blocks = (flat @ gathered).reshape(k, q, q, -1, b, b).transpose(0, 3, 1, 4, 2, 5)
            norms = np.maximum(norms, spectral_norms(blocks.reshape(-1, q * b, q * b)).reshape(k, -1).max(axis=1))
    return norms


# ---------------------------------------------------------------------------
# convolution, counit support
# ---------------------------------------------------------------------------

def convolve(mu: Functional, nu: Functional, g: FiniteQuantumGroup) -> Functional:
    """(mu * nu)(a) = (mu (x) nu) Delta(a)."""
    coeffs = np.einsum("ijk,j,k->i", g.comult, mu.coeffs, nu.coeffs)
    return Functional(coeffs=coeffs)


@lru_cache(maxsize=32)
def counit_support_projection(g: FiniteQuantumGroup) -> np.ndarray:
    """The projection p with a p = counit(a) p for all a, normalized so p = p* = p^2.

    Cached per algebra object, so the array is read-only.
    """
    n = g.dim
    mult_char = np.einsum("ijk,k->ij", g.mult, g.counit) - np.outer(g.counit, g.counit)
    star_char = g.star @ g.counit - np.conj(g.counit)
    # the defining system only makes sense when the counit is a *-character
    if _maxabs(mult_char) > DEFAULT_TOL or _maxabs(star_char) > DEFAULT_TOL:
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
    if idem > DEFAULT_TOL or selfadj > DEFAULT_TOL:
        raise InternalInconsistencyError(
            f"support candidate fails p^2 = p = p* (residuals {idem:.2e}, {selfadj:.2e})")
    return _readonly(p)
