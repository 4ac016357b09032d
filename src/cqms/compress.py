"""Peter-Weyl truncation: compression maps, induced coactions, symbol maps,
liftable states and the canonical and optimized symbol states.

A truncated system stores the operator system P A P inside B(H_Lambda)
together with a Hilbert-Schmidt orthonormal basis of its image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .corep import GNSSpace, PWDecomposition, pw_decompose
from .errors import InternalInconsistencyError, StateCertificationError, StructureError
from .hopf import (DEFAULT_TOL, RANK_RTOL, FiniteQuantumGroup, State, _co_opposite, _coaction_parts,
                   _comult_certificates, _coo, _counit_residual, _difference_norms, _maxabs, _podles_limit,
                   _podles_parts, _podles_witness, _readonly, certify_state, counit_support_projection,
                   element_norms)
from .sampling import random_density

GAP_RTOL = 1e-12       # duality gap, relative to max(1, value), that stops the descent
DESCENT_STEP = 0.25    # first step length of the projected gradient, halved on each rejection
DESCENT_STARTS = 4     # the canonical state, then Frank-Wolfe vertices
DESCENT_ITERS = 60     # gradient steps per start


@dataclass(frozen=True, eq=False)
class TruncatedSystem:
    """The operator system tau(A) = P A P restricted to H_Lambda.

    frame        (n, r) orthonormal columns spanning H_Lambda in GNS coordinates
    kept         the irreps sigma whose coefficient block tau keeps, in order
    norms        c_sigma = ||tau(u^sigma)||_F / d_sigma for every irrep, kept or dropped
    sys_basis    (s, r, r) Hilbert-Schmidt orthonormal basis of tau(A): the
                 images tau(u^sigma_ij) / c_sigma of the kept blocks, in (sigma, i, j) order
    """

    g: FiniteQuantumGroup
    decomposition: PWDecomposition
    frame: np.ndarray
    tau_matrix: np.ndarray      # (r*r, n): a-coords -> vec(tau(a))
    kept: tuple
    norms: np.ndarray
    sys_basis: np.ndarray

    @property
    def gns(self) -> GNSSpace:
        return self.decomposition.gns

    @property
    def rank(self) -> int:
        return self.frame.shape[1]

    @property
    def dim_sys(self) -> int:
        return self.sys_basis.shape[0]

    def tau(self, a) -> np.ndarray:
        """Compression tau(a) = P pi(a) P as an r x r matrix on H_Lambda.

        A (k, n) stack of elements gives the (k, r, r) stack, by one product.
        """
        a = np.asarray(a, dtype=complex)
        return (self.tau_matrix @ a.T).T.reshape(a.shape[:-1] + (self.rank, self.rank))

    def expand(self, x) -> np.ndarray:
        """Coordinates of x in the system basis (valid for x in tau(A)).

        A (k, r, r) stack gives the (k, s) coordinate rows, by one product.
        """
        x = np.asarray(x, dtype=complex)
        flat = x.reshape(x.shape[:-2] + (-1,))
        return (self.sys_basis.reshape(self.dim_sys, -1).conj() @ flat.T).T

    def combine(self, coords) -> np.ndarray:
        return np.einsum("k,kab->ab", np.asarray(coords, dtype=complex), self.sys_basis)

    def membership_residual(self, x) -> float:
        return _maxabs(self.combine(self.expand(x)) - np.asarray(x, dtype=complex))


def truncate(g: FiniteQuantumGroup, irreps, subset,
             dec: PWDecomposition | None = None) -> TruncatedSystem:
    """Build the truncated operator system for the given irrep subset, in isotypic coordinates.

    ker tau is a sub-bicomodule and each coefficient block A_sigma = span{u^sigma_ij}
    a simple one, so tau is zero or injective on A_sigma; on a kept block the
    images tau(u^sigma_ij) are Hilbert-Schmidt orthogonal with one norm c_sigma.
    A block is dropped when its norm is below RANK_RTOL of the largest, and the
    dropped blocks span ker tau.  The normalized kept images are the system
    basis, certified by max|B B^* - I| together with tau(1) = 1.
    """
    dec = dec if dec is not None else pw_decompose(g, irreps)
    subset = tuple(sorted(set(int(k) for k in subset)))
    if any(k < 0 or k >= len(dec.irreps) for k in subset):
        raise StructureError(f"subset {subset} out of range for {len(dec.irreps)} irreps")
    if not subset:
        raise StructureError("subset must contain at least one irrep")
    frame = dec.frame(subset)
    n = g.dim
    r = frame.shape[1]
    tau_matrix = np.ascontiguousarray((frame.conj().T @ dec.gns.rep @ frame).reshape(n, r * r).T)
    coeffs, owner, dims = dec.coefficients
    images = (tau_matrix @ coeffs.T).T                              # rows vec tau(u^sigma_ij)
    norms = np.sqrt(np.bincount(owner, np.sum(np.abs(images) ** 2, axis=1)) / dims ** 2)   # c_sigma
    keep = norms > RANK_RTOL * norms.max()
    rows = keep[owner]
    basis = images[rows] / norms[owner[rows], None]
    ts = TruncatedSystem(g=g, decomposition=dec, frame=frame, tau_matrix=tau_matrix,
                         kept=tuple(int(k) for k in np.flatnonzero(keep)), norms=_readonly(norms),
                         sys_basis=basis.reshape(-1, r, r))
    unit_res = _maxabs(ts.tau(g.unit) - np.eye(r))
    basis_res = _maxabs(basis @ basis.conj().T - np.eye(len(basis)))
    if max(unit_res, basis_res) > 1e-9:
        raise InternalInconsistencyError(
            f"truncation certificates failed (unit {unit_res:.2e}, basis {basis_res:.2e})")
    return ts


# ---------------------------------------------------------------------------
# coactions
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class InducedCoaction:
    """A coaction on a finite-dimensional carrier in fixed bases.

    Both sides store the carrier leg first: tensor[k, m, l] is the coefficient
    of x_m (x) e_l in alpha(x_k) on the right and of e_l (x) x_m in beta(x_k)
    on the left, so applying and slicing read the tensor the same way on both
    sides; ``g`` is A on both.  The carrier is either a TruncatedSystem or the
    algebra itself.
    """

    side: str
    g: FiniteQuantumGroup
    system: TruncatedSystem | None
    well_definedness_residual: float
    coaction_residual: float
    counit_residual: float
    podles_residual: float

    @property
    def carrier_dim(self) -> int:
        return self.g.dim if self.system is None else self.system.dim_sys

    @cached_property
    def tensor(self) -> np.ndarray:
        """Formed on first read: Delta, legs oriented to the side, on the algebra itself, and on
        a truncation each kept coefficient u_ab scattered to its d places (``induced_coaction``)."""
        alg = self.g if self.side == "right" else _co_opposite(self.g)
        if self.system is None:
            return alg.comult
        ts = self.system
        coeffs, owner, dims = ts.decomposition.coefficients
        rows = np.flatnonzero(np.bincount(ts.kept, minlength=len(dims))[owner])   # kept u^sigma_ab, in order
        start, d = (np.cumsum(dims ** 2) - dims ** 2)[owner[rows]], dims[owner[rows]]   # u^sigma_00's row
        a, b = divmod(rows - start, d)
        flip = alg is _co_opposite(ts.g)        # beta(b_ac) holds u_ab (x) b_bc, alpha(b_cb) b_ca (x) u_ab
        key, val = (b, a) if flip else (a, b)   # the index a coaction keeps, and the one it moves
        x, y = np.nonzero((start[:, None] == start) & (key[:, None] == key))   # nonzeros: one block, one key
        tensor = np.zeros((ts.dim_sys, ts.dim_sys, self.g.dim), dtype=complex)
        tensor[x, y] = coeffs[start[x] + (val[x] * d[x] + val[y] if flip else val[y] * d[x] + val[x])]
        return tensor

    @property
    def fixed_space_dim(self) -> int:
        """dim {x : alpha(x) = x (x) 1} (1 (x) x on the left): the trace of
        E = (id (x) h)alpha, an idempotent onto that space because h is invariant."""
        return round(float(np.einsum("kkl,l->", self.tensor, self.g.haar).real))

    def realize(self, coords) -> np.ndarray:
        """The carrier elements with these coordinate rows, as concrete matrices."""
        basis = self.g.rep if self.system is None else self.system.sys_basis
        coords = np.asarray(coords, dtype=complex)
        flat = coords @ basis.reshape(basis.shape[0], -1)
        return flat.reshape(coords.shape[:-1] + basis.shape[1:])

    def apply(self, coords) -> np.ndarray:
        """The coaction as a (carrier, algebra) coefficient matrix, on either side.

        A stack of coordinate rows gives a stack of matrices.
        """
        coords = np.asarray(coords, dtype=complex)
        flat = coords @ self.tensor.reshape(self.carrier_dim, -1)
        return flat.reshape(coords.shape[:-1] + self.tensor.shape[1:])

    def slice_states(self, coords, functionals) -> np.ndarray:
        """Algebra-leg slices (id (x) l_i) or (l_i (x) id) for a family of functionals.

        ``functionals`` is an (m, n) array; returns (m, s) carrier coordinates,
        or (k, m, s) for a (k, s) stack of coordinate rows.
        """
        return np.asarray(functionals) @ np.swapaxes(self.apply(coords), -1, -2)


def comultiplication_coaction(g: FiniteQuantumGroup, side: str = "right") -> InducedCoaction:
    """The comultiplication viewed as the (right or left) coaction of A on itself, with its own residuals."""
    alg = g if side == "right" else _co_opposite(g)
    coaction_res, podles = _comult_certificates(alg)
    return InducedCoaction(side=side, g=g, system=None,
                           well_definedness_residual=0.0, coaction_residual=coaction_res,
                           counit_residual=_counit_residual(alg), podles_residual=podles)


def induced_coaction(g: FiniteQuantumGroup, ts: TruncatedSystem, side: str = "right",
                     tol: float = 1e-9) -> InducedCoaction:
    """Push the comultiplication through the compression map.

    Written for the right side: a left coaction of A is a right coaction of
    A^cop, so the left side runs on ``hopf._co_opposite(g)``, whose unitary
    corepresentations are the transposes u^T.  In the basis b_ij = tau(u_ij) / c
    of ``truncate``, Delta(u_ij) = sum_k u_ik (x) u_kj makes the coaction the
    irreps' own coefficients, relabelled: alpha(b_ij) = sum_k b_ik (x) u_kj on
    the right and beta(b_ij) = sum_k u_ik (x) b_kj on the left.  So the tensor
    is scattered on first read, with no arithmetic; its carrier is a direct sum
    of d copies of each kept irrep's (d, d, n) tensor, certified by their rows.

    Certificates:
      well-definedness  ker tau <= ker (tau (x) id) Delta over the dropped coefficients u_ij,
                        which span ker tau: with E_ij = Delta(u_ij) - sum_k u_ik (x) u_kj,
                        ||(tau (x) rho)Delta(u_ij)||_F <= sqrt(d) d c_sigma max_kj ||rho(u_kj)||_F
                        + ||T||_F ||R||_2 ||E_ij||_F, T the tau matrix and R rho's (n, d0^2)
                        matrix; d c_sigma = ||tau(u)||_F is charged 4 n eps ||T||_F ||U_sigma||_F;
      counit            max|T eps - I|, the kept irreps' largest max|t(eps) - I_d|;
      coaction          the largest of the kept irreps' residuals, each its own rows of
                        ``hopf._coaction_parts`` on the irreps' direct sum against this
                        algebra, charged with its rounding;
      Podles            the witness of ``hopf._podles_witness``, whose Frobenius
                        parts add over the summands as sqrt(sum_sigma d_sigma w_sigma^2),
                        each w_sigma charged with the rounding of its column sums.
    It must stay below ``hopf._podles_limit``; a singular S gives inf on both sides.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    alg = g if side == "right" else _co_opposite(g)
    flip = alg is _co_opposite(ts.g)          # corepresentations of A^cop: u^T
    table = _summand_certificates(alg, ts.decomposition.irreps, flip)
    dims, rho_norms, defects, sizes = table[:, [0, 4, 5, 6]].T
    tau_norm = float(np.linalg.norm(ts.tau_matrix))
    images = dims * ts.norms + 4 * g.dim * np.finfo(float).eps * tau_norm * sizes
    bounds = np.sqrt(dims) * images * rho_norms + tau_norm * defects
    well = float(np.delete(bounds, ts.kept).max(initial=0.0))
    if well > tol:
        raise InternalInconsistencyError(
            f"kernel of tau is not contained in the sliced kernel (residual {well:.3e}); "
            "input tensors are corrupt")

    copies, residual, frobenius, size = table[list(ts.kept), :4].T
    coaction_res, counit_res = float(residual.max()), float(table[list(ts.kept), 7].max())
    podles = _podles_witness(alg, float(np.sqrt(copies @ frobenius ** 2)),
                             float(np.sqrt(copies @ size ** 2)), ts.dim_sys)
    worst = max(coaction_res, counit_res, podles)
    if worst > tol or podles > _podles_limit(g.dim, ts.dim_sys):
        raise InternalInconsistencyError(
            f"induced coaction certificates failed (coaction {coaction_res:.2e}, "
            f"counit {counit_res:.2e}, Podles {podles:.2e})")
    return InducedCoaction(side=side, g=g, system=ts,
                           well_definedness_residual=well, coaction_residual=coaction_res,
                           counit_residual=counit_res, podles_residual=podles)


@lru_cache(maxsize=32)
def _summand_certificates(alg: FiniteQuantumGroup, irreps: tuple, flip: bool) -> np.ndarray:
    """One row per irrep: (d, coaction residual, charged Frobenius part, ||(alpha (x) id)alpha||_F,
    max_kj ||rho(u_kj)||_F, ||R||_2 max_ij ||E_ij||_F charged, ||U_sigma||_F, max|t(eps) - I_d|).

    The summand's tensor is t[j, k] = u_kj (u_jk for A^cop).  ``hopf._coaction_parts``
    of the summands' direct sum gives every residual against ``alg`` at once, E among
    them, split by summand; the charges below read each irrep's own (d^2, n^2) moduli
    |t||t| and |t||Delta|.  The Frobenius part is charged with the forward roundoff of
    its column sums, as ``duality_lower_bound`` charges its own:
    4 m eps sqrt(||G||) ||F||_F, F = (|t||t|)|W| + |1| on the diagonal columns, with
    m = d + (nonzeros in a column of W) + 2 roundings and ||G|| bounded by its
    largest absolute row sum.  E is charged 4 eps ((d + 2) |t||t| + (k + 2) |t||Delta|) at
    its largest rows, k the most nonzeros in a column of Delta, and the coaction residual
    max|E| at the largest entries of |t||t| and |t||Delta|, so it bounds any evaluation of
    max|E| in floating point.  Cached per (oriented algebra, irreps), so every level reads
    the same rows.
    """
    parts, n = _podles_parts(alg), alg.dim
    eps = np.finfo(float).eps
    dims = np.array([pi.dim for pi in irreps])
    first, starts = np.cumsum(dims) - dims, np.cumsum(dims ** 2) - dims ** 2     # each summand's rows
    s = int(dims.sum())
    # row (k, m) of the direct sum, summands stacked in order: t[k, m] of its own summand
    flat = np.concatenate([(pi.u if flip else pi.u.transpose(1, 0, 2)).reshape(-1, n) for pi in irreps])
    owner = np.repeat(np.arange(len(dims)), dims ** 2)
    local, d = np.arange(len(flat)) - starts[owner], dims[owner]
    counit = np.maximum.reduceat(np.abs(flat @ alg.counit - (local // d == local % d)), starts)
    row, l = np.nonzero(flat)
    keys = ((first[owner] + local // d)[row] * s + (first[owner] + local % d)[row]) * n + l
    rows = _coaction_parts(alg, ((s, s, n), keys, flat[row, l]))
    top, ssq = np.maximum.reduceat(rows, first), np.add.reduceat(rows, first)

    if parts is not None:
        abs_w = np.abs(parts[0])
        scale = 4 * eps * np.sqrt(np.abs(parts[1]).sum(axis=1).max())
        terms = int(np.count_nonzero(parts[0], axis=0).max()) + 2
    abs_comult = np.abs(alg.comult).reshape(n, n * n)
    comult_terms = int(np.count_nonzero(abs_comult, axis=0).max()) + 2
    residual, defect, frobenius = top[:, 0], top[:, 3], np.sqrt(np.maximum(ssq[:, 1], 0.0))
    for i, pi in enumerate(irreps):
        d = pi.dim
        grown = np.abs(pi.u if flip else pi.u.transpose(1, 0, 2))
        products = np.matmul(grown.reshape(d, d * n).T, grown).reshape(d * d, n * n)
        through = grown.reshape(d * d, n) @ abs_comult
        residual[i] += 4 * eps * ((d + 2) * products.max() + comult_terms * through.max())
        defect[i] += 4 * eps * ((d + 2) * np.linalg.norm(products, axis=1).max()
                                + comult_terms * np.linalg.norm(through, axis=1).max())
        if parts is not None:
            formed = products @ abs_w
            formed[::d + 1] += np.abs(alg.unit)
            frobenius[i] += (d + terms) * scale * np.linalg.norm(formed)
    reps = alg.rep.reshape(n, -1)
    rho_norms = np.maximum.reduceat(np.linalg.norm(flat @ reps, axis=1), starts)
    rep_norm = float(np.linalg.norm(reps, 2))
    return _readonly(np.column_stack([dims, residual, frobenius, np.sqrt(ssq[:, 2]), rho_norms, rep_norm * defect,
                                      [np.linalg.norm(pi.u) for pi in irreps], counit]))


def _tensor_opnorm(g: FiniteQuantumGroup, ts: TruncatedSystem, entries) -> float:
    """Operator norm of (tau (x) rho)Delta on a p x p matrix over A: ``hopf.element_norms`` of
    the (p r) x (p r) matrix (tau (x) id)Delta over A.  ``entries`` is a (p, p, n) block of elements.
    """
    p, r, n = entries.shape[0], ts.rank, g.dim
    delta = (entries.reshape(p * p, n) @ g.comult.reshape(n, n * n)).reshape(p, p, n, n)
    sliced = (ts.tau_matrix @ delta).reshape(p, p, r, r, n)          # [p, q, a, b, l]
    return float(element_norms(g, sliced.transpose(0, 2, 1, 3, 4).reshape(1, p * r, p * r, n))[0])


def cocommutation_residual(alpha: InducedCoaction, beta: InducedCoaction) -> float:
    """Residual of (beta (x) id) alpha = (id (x) alpha) beta, summed over nonzeros with alpha
    first on both sides, so that equal terms round alike."""
    if alpha.side != "right" or beta.side != "left":
        raise ValueError("cocommutation takes a right coaction and a left coaction")
    a, b = _coo(alpha.tensor), _coo(beta.tensor)
    return _difference_norms(("kml,mpj->kjpl", a, b), ("mpl,kmj->kjpl", a, b))[0]


def isometry_witness_residual(g: FiniteQuantumGroup, ts: TruncatedSystem, samples: int = 50,
                              seed: int = 0, amplified_every: int = 0) -> float:
    """Max relative gap between ||(tau (x) id)Delta(a)|| and ||tau(a)|| on samples.

    Every ``amplified_every``-th sample (if nonzero) is replaced by a 2 x 2
    matrix over A to witness the matrix-amplified equality.
    """
    rng = np.random.default_rng(seed)
    n = g.dim
    worst = 0.0
    for j in range(samples):
        p = 2 if amplified_every and (j + 1) % amplified_every == 0 else 1
        entries = rng.normal(size=(p, p, n)) + 1j * rng.normal(size=(p, p, n))
        lhs = _tensor_opnorm(g, ts, entries)
        rhs = float(np.linalg.norm(np.block([[ts.tau(a) for a in row] for row in entries]), 2))
        worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
    return worst


# ---------------------------------------------------------------------------
# symbol maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SymbolMap:
    """sigma(x) = (phi (x) id) alpha(x), a linear map from the system into A."""

    matrix: np.ndarray           # (n, s)

    def __call__(self, coords) -> np.ndarray:
        """sigma of a coordinate vector, or the (k, n) images of (k, s) coordinate rows."""
        return (self.matrix @ np.asarray(coords, dtype=complex).T).T


def state_values_on_basis(ts: TruncatedSystem, density: np.ndarray) -> np.ndarray:
    """phi(M_k) for the state with density matrix ``density`` on H_Lambda."""
    density = np.asarray(density, dtype=complex)
    return np.einsum("ba,kab->k", density, ts.sys_basis)


def certify_system_state(ts: TruncatedSystem, density: np.ndarray) -> np.ndarray:
    """Certify a density matrix against the containing matrix algebra's cone, within DEFAULT_TOL."""
    density = np.asarray(density, dtype=complex)
    if density.shape != (ts.rank, ts.rank):
        raise StateCertificationError(f"density must be {ts.rank} x {ts.rank}, got {density.shape}")
    herm = _maxabs(density - density.conj().T)
    low = np.linalg.eigvalsh((density + density.conj().T) / 2)[0]
    if herm > DEFAULT_TOL or low < -DEFAULT_TOL:
        vec = np.linalg.eigh((density + density.conj().T) / 2)[1][:, 0]
        raise StateCertificationError(
            f"density fails positivity (hermitian residual {herm:.2e}, min eig {low:.3e}) "
            f"at witness vector {np.round(vec, 4)}")
    if abs(np.trace(density) - 1.0) > DEFAULT_TOL:
        raise StateCertificationError(f"density trace is {np.trace(density):.6f}, expected 1")
    return density


def symbol_map(ts: TruncatedSystem, alpha: InducedCoaction, density: np.ndarray) -> SymbolMap:
    """Slice the right coaction by a state of the truncated system."""
    if alpha.side != "right" or alpha.system is not ts:
        raise ValueError("symbol map needs the right coaction of the same truncated system")
    density = certify_system_state(ts, density)
    phi = state_values_on_basis(ts, density)
    return SymbolMap(matrix=np.einsum("kml,m->lk", alpha.tensor, phi))


# ---------------------------------------------------------------------------
# states on truncations and their pullbacks
# ---------------------------------------------------------------------------

def pullback_state(ts: TruncatedSystem, density: np.ndarray) -> State:
    """tau^* phi as a certified state on A."""
    density = certify_system_state(ts, density)
    # tr(rho tau(e_i)) = sum_ab rho_ab tau(e_i)_ba = (T^t vec(rho^t))_i, T the tau matrix
    return certify_state(ts.g, ts.tau_matrix.T @ density.T.reshape(-1))


def liftable_states(ts: TruncatedSystem, samples: int, seed: int):
    """Pull back randomly generated states of the truncated system: (states, densities).

    Draws Haar-random vector states and Dirichlet-weighted convex mixtures of
    them; every pullback is certified as a state on A.
    """
    rng = np.random.default_rng(seed)
    r = ts.rank
    out, densities = [], []
    for j in range(samples):
        parts = 1 if j % 2 == 0 or r == 1 else int(rng.integers(2, 5))
        density = random_density(r, rng, parts)
        out.append(pullback_state(ts, density))
        densities.append(density)
    return out, densities


def restrict_state(ts_small: TruncatedSystem, ts_big: TruncatedSystem,
                   density: np.ndarray) -> np.ndarray:
    """Re-express a state of a smaller truncation on a larger one, same pullback.

    For nested subspaces H_small <= H_big the compression from the big system
    to the small one is ucp, and the transported density E rho E^H satisfies
    tau_big^* (restricted) = tau_small^* (original) exactly.
    """
    embed = ts_big.frame.conj().T @ ts_small.frame      # (r_big, r_small)
    gap = _maxabs(ts_small.frame - ts_big.frame @ embed)
    if gap > 1e-9:
        raise StructureError("truncations are not nested; cannot restrict the state")
    return embed @ np.asarray(density, dtype=complex) @ embed.conj().T


def canonical_symbol_state(g: FiniteQuantumGroup, ts: TruncatedSystem) -> np.ndarray:
    """Vector state at the normalized compression of the counit support vector.

    Reproduces the Fejer kernel construction for function algebras of cyclic
    groups and pulls back to the counit at the full truncation.
    """
    p = counit_support_projection(g)
    xi = ts.frame.conj().T @ ts.gns.vector(p)
    norm = np.linalg.norm(xi)
    if norm < 1e-12:
        raise InternalInconsistencyError(
            "counit support vector is orthogonal to the truncation; include the trivial block")
    xi = xi / norm
    return np.outer(xi, xi.conj())


def duality_lower_bound(ts: TruncatedSystem, slicer) -> float:
    """A lower bound on d^L(tau* rho, counit) that holds for every density rho.

    For self-adjoint x with L(x) <= 1 (``slicer``, such as ``MKResult.element``)
    d^L(tau* rho, eps) >= Re tr(rho tau(x)) - Re eps(x) >= lambda_min(H) - Re eps(x),
    with H the hermitian part of tau(x).  The forward roundoff of forming
    tau(x) and eps(x) (gamma_n |T| |x| entrywise, T the tau matrix) and of
    eigvalsh (r eps ||H||_2) is subtracted, with a safety factor of 4.
    """
    x = np.asarray(slicer, dtype=complex)
    tau_x = ts.tau(x)
    eigs = np.linalg.eigvalsh((tau_x + tau_x.conj().T) / 2)
    counit = ts.g.counit
    formed = np.linalg.norm(np.abs(ts.tau_matrix) @ np.abs(x)) + np.abs(counit) @ np.abs(x)
    size = formed + max(-eigs[0], eigs[-1])
    roundoff = 4 * (ts.g.dim + ts.rank) * np.finfo(float).eps * size
    return float(eigs[0] - np.dot(counit, x).real - roundoff)


def optimized_symbol_state(g: FiniteQuantumGroup, ts: TruncatedSystem, distance):
    """Projected gradient over vector states minimizing ``distance``, restarted at
    Frank-Wolfe vertices and stopped by a duality gap.

    ``distance(density)`` must return (value, slicer) where slicer is a
    self-adjoint optimizer of the distance with L(slicer) <= 1, such as
    ``MKResult.element``; the envelope gradient of the value at a vector
    state xi is then tau(slicer) xi, and the Frank-Wolfe vertex of a slicer,
    the density that attains ``duality_lower_bound`` for it, is the bottom
    eigenvector of the hermitian part of tau(slicer).  Every value is checked
    against that bound, which no density beats: once value - lower <=
    GAP_RTOL max(1, value), no further step can gain more than that gap and
    the best state found so far is returned.  Returns (density, value).

    The canonical state is evaluated first, then the vertex of its slicer,
    which is returned when its gap closes below the canonical value.  On F(G)
    with a pair family every state's slicer is sp(., e)
    (``mkdist.mk_distance``), so the distance is linear in the density and
    the vertex closes the gap at 2 lambda_min(K), K = tau(sp(., e)).
    Otherwise the descent runs up to DESCENT_ITERS steps from each start: the
    canonical state, that vertex, and then the vertex of the best slicer.  It
    stops when a gap closes, when a start after the first does not lower the
    best value, or after DESCENT_STARTS starts.  Nothing is random.
    """
    def closed(value, slicer) -> bool:
        return value - duality_lower_bound(ts, slicer) <= GAP_RTOL * max(1.0, value)

    def vertex(slicer):
        tau_x = ts.tau(slicer)
        v = np.linalg.eigh((tau_x + tau_x.conj().T) / 2)[1][:, 0]
        return (v, *distance(np.outer(v, v.conj())))

    best_density = canonical_symbol_state(g, ts)
    best_value, best_slicer = distance(best_density)
    if closed(best_value, best_slicer):
        return best_density, best_value
    starts = [(np.linalg.eigh(best_density)[1][:, -1], best_value, best_slicer), vertex(best_slicer)]
    v, value, slicer = starts[1]
    if value < best_value and closed(value, slicer):
        return np.outer(v, v.conj()), value
    for start in range(DESCENT_STARTS):
        v, value, slicer = starts[start] if start < 2 else vertex(best_slicer)
        eta = DESCENT_STEP
        done = closed(value, slicer)
        for _ in range(DESCENT_ITERS):
            if done:
                break
            grad = ts.tau(slicer) @ v
            cand = v - eta * grad
            norm = np.linalg.norm(cand)
            if norm < 1e-12:
                break
            cand /= norm
            cand_value, cand_slicer = distance(np.outer(cand, cand.conj()))
            if cand_value < value - 1e-14:
                v, value, slicer = cand, cand_value, cand_slicer
                done = closed(value, slicer)
            else:
                eta /= 2
                if eta < 1e-6:
                    break
        if value < best_value:
            best_density, best_value, best_slicer = np.outer(v, v.conj()), value, slicer
        elif start:
            break
        if done:
            break
    return best_density, best_value
