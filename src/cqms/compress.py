"""Peter-Weyl truncation: compression maps, induced coactions, symbol maps,
liftable states and the canonical and optimized symbol states.

A truncated system stores the operator system P A P inside B(H_Lambda)
together with a Hilbert-Schmidt orthonormal basis of its image and a fixed
linear right inverse of the compression map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corep import GNSSpace, PWDecomposition, pw_decompose
from .errors import InternalInconsistencyError, StateCertificationError, StructureError
from .hopf import (DEFAULT_TOL, RANK_RTOL, FiniteQuantumGroup, State, _co_opposite, _comult_bounds,
                   _comult_certificates, _counit_residual, _maxabs, _podles_limit, certify_state,
                   counit_support_projection)
from .sampling import random_density

GAP_RTOL = 1e-12       # duality gap, relative to max(1, value), that stops the descent
DESCENT_STEP = 0.25    # first step length of the projected gradient, halved on each rejection
DESCENT_STARTS = 4     # the canonical state and three random vectors
DESCENT_ITERS = 60     # gradient steps per start
SUM_BLOCK = 8          # terms per block of the blocked sums that form an induced tensor

_UNIT_ROUNDOFF = np.finfo(float).eps / 2


@dataclass(frozen=True, eq=False)
class TruncatedSystem:
    """The operator system tau(A) = P A P restricted to H_Lambda.

    frame        (n, r) orthonormal columns spanning H_Lambda in GNS coordinates
    sys_basis    (s, r, r) Hilbert-Schmidt orthonormal basis of tau(A)
    lift_matrix  (n, r*r) right inverse of tau, zero on the orthocomplement
    kernel       (n_ker, n) basis of ker tau in A-coordinates
    """

    g: FiniteQuantumGroup
    decomposition: PWDecomposition
    subset: tuple
    frame: np.ndarray
    tau_matrix: np.ndarray      # (r*r, n): a-coords -> vec(tau(a))
    sys_basis: np.ndarray
    lift_matrix: np.ndarray
    kernel: np.ndarray

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

    def lift(self, x) -> np.ndarray:
        return self.lift_matrix @ np.asarray(x, dtype=complex).reshape(-1)

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
    """Build the truncated operator system for the given irrep subset."""
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
    # the kernel needs all n rows of vh, which the reduced SVD has only when r*r >= n
    u, sv, vh = np.linalg.svd(tau_matrix, full_matrices=r * r < n)
    cutoff = RANK_RTOL * (sv[0] if len(sv) else 1.0)
    s = int(np.sum(sv > cutoff))
    sys_basis = u[:, :s].T.reshape(s, r, r)
    lift_matrix = vh[:s].conj().T @ np.diag(1.0 / sv[:s]) @ u[:, :s].conj().T
    kernel = vh[s:].conj()
    ts = TruncatedSystem(g=g, decomposition=dec, subset=subset, frame=frame,
                         tau_matrix=tau_matrix, sys_basis=sys_basis,
                         lift_matrix=lift_matrix, kernel=kernel)
    unit_res = _maxabs(ts.tau(g.unit) - np.eye(r))
    basis = sys_basis.reshape(s, r * r)
    lift_res = _maxabs(tau_matrix @ (lift_matrix @ basis.T) - basis.T)
    if unit_res > 1e-9 or lift_res > 1e-9:
        raise InternalInconsistencyError(
            f"truncation certificates failed (unit {unit_res:.2e}, lift {lift_res:.2e})")
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
    tensor: np.ndarray
    g: FiniteQuantumGroup
    system: TruncatedSystem | None
    well_definedness_residual: float
    coaction_residual: float
    counit_residual: float
    podles_residual: float

    @property
    def carrier_dim(self) -> int:
        return self.tensor.shape[0]

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
    return InducedCoaction(side=side, tensor=alg.comult, g=g, system=None,
                           well_definedness_residual=0.0, coaction_residual=coaction_res,
                           counit_residual=_counit_residual(alg), podles_residual=podles)


def induced_coaction(g: FiniteQuantumGroup, ts: TruncatedSystem, side: str = "right",
                     tol: float = 1e-9) -> InducedCoaction:
    """Push the comultiplication through the compression map.

    Written for the right side: a left coaction of A is a right coaction of
    A^cop, so the left side runs on ``hopf._co_opposite(g)``.

    Well-definedness is certified by ker tau <= ker (tau (x) id) Delta, and the
    counit identity directly, as max|T eps - I|.  The stored tensor is
    T~ = fl(P Delta(Lam)): P = fl(E tau) (s x n, E the system-basis expansion)
    on the compressed leg, and Lam (s x n) has the lifts L x_k as rows.  The
    coaction identity and Podles density of T~ are bounded without forming
    (alpha (x) id)alpha, from Delta's own residuals (``hopf._comult_bounds``,
    computed once per algebra) and from what the level already holds.  For
    the exact product T = P Delta(Lam) of the stored P and Lam

        (alpha (x) id)alpha(x_k) - (id (x) Delta)alpha(x_k)
          = (P (x) id (x) id)[(Delta (x) id)Delta - (id (x) Delta)Delta](L x_k)
            - ((P (x) id)Delta N (x) id)Delta(L x_k),   N = I - Lam^T P = pi_K - Xi,

    pi_K the projector on ker tau (spanned by the kernel rows) and Xi read
    off the stored matrices.  With d = ||Delta||_2, C the coassociator's
    Frobenius norm, p = ||P||_2 and

        kappa = ||w||_2 / sqrt(lambda_min(G_rho)) + dP d + p d ||Xi||_F

    (w the well-definedness residuals, rho-norms turned into coefficient norms
    through rho's Gram matrix G_rho, and dP >= ||P - E tau||_2; the first two
    terms only where ker tau != 0), the residual R_k at x_k has norm at most
    (p C + kappa d) ||L x_k||, and ||R||_F at most (p C + kappa d) ||Lam||_F.

    Rounding.  P and T~ are formed by ``_blocked_matmul``, which cuts every
    inner sum into blocks of ``SUM_BLOCK`` terms and adds the block sums
    pairwise, so its roundoff is at most g |a||b| entrywise with
    g = sqrt(2) gamma_{2 SUM_BLOCK + ceil(log2 blocks)}, far below the gamma
    of the whole sum.  That gives |P - E tau| <= g_P |E||tau| (dP its
    Frobenius norm) and

        |T~ - T| <= F = |P| (g_T |Delta(Lam)~| + g_D |Delta|(|Lam|)),

    g_D = sqrt(2) gamma_{2 m} for the sums of Delta(Lam), m the most nonzero
    entries of Delta that one of them meets.  T~ - T enters the residual
    through three products (with T~, T and Delta): entrywise they add at
    most products of the largest slice norms of F, T~ and Delta
    (Cauchy-Schwarz over the summed index), and in Frobenius norm at most
    f (||T~||_a + ||T~||_b + f + d), f = ||F||_F and ||T~||_a,b the spectral
    norms of T~ read as maps from the summed index.  The coaction residual
    reported is the largest entrywise bound.

    Podles density: Phi(x (x) a) = (1 (x) a)alpha(x) has the inverse
    Psi(x (x) a) = x_(0) (x) a S^-1(x_(1)), and Psi Phi - I is fixed
    by its columns c_k = (T eps - I)_k (x) 1 + T_k Z + R_k W, with W and the
    Gram norm ||.||_G of ``hopf._podles_parts`` and Z Delta's residual of
    b_(2) S^-1(b_(1)) = eps(b) 1.  The witness is at most

        ||T eps - I||_F ||1||_G + ||T||_F ||Z||_G + ||R||_F ||W||_G
          + assoc_term (||T||_F d + ||R||_F) + unit_term sqrt(s),

    the last two 0 for an exactly associative and unital mult; it must stay
    below ``hopf._podles_limit``.  A singular S gives inf on both sides.

    What enters as computed: the residuals w, Xi, C, Z and T eps - I, whose
    own rounding is of the order of their values, and the norms and sums that
    assemble the bounds, whose rounding is relative, O(n eps).
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    alg = g if side == "right" else _co_opposite(g)
    well_norms = _kernel_frobenius(alg, ts)
    well = float(well_norms.max(initial=0.0))
    if well > tol:
        raise InternalInconsistencyError(
            f"kernel of tau is not contained in the sliced kernel (residual {well:.3e}); "
            "input tensors are corrupt")

    s = ts.dim_sys
    basis = ts.sys_basis.reshape(s, -1)
    n = g.dim
    lifts = (ts.lift_matrix @ basis.T).T             # lift(x_k) as rows
    deltas = (lifts @ alg.comult.reshape(n, n * n)).reshape(s, n, n)   # Delta(lift(x_k))
    stacked = deltas.transpose(1, 0, 2).reshape(n, s * n)              # [i, (k, l)]
    expand, expand_gamma = _blocked_matmul(basis.conj(), ts.tau_matrix)    # P = E tau
    product, tensor_gamma = _blocked_matmul(expand, stacked)               # on the carrier leg
    tensor = np.ascontiguousarray(product.reshape(s, s, n).transpose(1, 0, 2))

    counit_defect = tensor @ g.counit - np.eye(s)
    counit_res = _maxabs(counit_defect)
    coaction_res, podles = _derived_residuals(alg, ts, expand, lifts, stacked, tensor, counit_defect,
                                              well_norms, (expand_gamma, tensor_gamma))
    worst = max(coaction_res, counit_res, podles)
    if worst > tol or podles > _podles_limit(g.dim, s):
        raise InternalInconsistencyError(
            f"induced coaction certificates failed (coaction {coaction_res:.2e}, "
            f"counit {counit_res:.2e}, Podles {podles:.2e})")
    return InducedCoaction(side=side, tensor=tensor, g=g, system=ts,
                           well_definedness_residual=well, coaction_residual=coaction_res,
                           counit_residual=counit_res, podles_residual=podles)


def _derived_residuals(g, ts, expand, lifts, stacked, tensor, counit_defect, well_norms,
                       gammas) -> tuple[float, float]:
    """(coaction bound, Podles bound) of an induced right coaction tensor; the terms are named
    in ``induced_coaction``, and ``gammas`` are the rounding constants (g_P, g_T) of P and T~."""
    delta = _comult_bounds(g)
    n, s, d = g.dim, ts.dim_sys, delta.norm
    basis = ts.sys_basis.reshape(s, -1)
    slip = gammas[0] * np.linalg.norm(np.abs(basis) @ np.abs(ts.tau_matrix))        # dP
    p = np.sqrt(max(np.linalg.eigvalsh(expand @ expand.conj().T)[-1], 0.0))
    xi = lifts.T @ expand + ts.kernel.T @ ts.kernel.conj()
    xi[np.diag_indices_from(xi)] -= 1.0
    kappa = p * d * np.linalg.norm(xi)
    if len(ts.kernel):
        kappa += (np.linalg.norm(well_norms) / np.sqrt(delta.rep_floor)
                  if delta.rep_floor > 0 else np.inf) + slip * d
    per_lift = p * delta.coassociator + kappa * d
    lift_norms = np.linalg.norm(lifts, axis=1)

    # |T~ - T| <= F entrywise; the residual moves by the three products with T~ - T
    meets = int(np.count_nonzero(g.comult.reshape(n, n * n), axis=0).max(initial=0))
    reach = (np.abs(lifts) @ np.abs(g.comult).reshape(n, n * n)).reshape(s, n, n)   # |Delta|(|Lam|)
    charged = (gammas[1] * np.abs(stacked)
               + _complex_gamma(2 * meets) * reach.transpose(1, 0, 2).reshape(n, s * n))
    formed = (np.abs(expand) @ charged).reshape(s, s, n).transpose(1, 0, 2)     # F
    slices = [np.linalg.norm(formed, axis=a).max() for a in (0, 1, 2)]
    entry = (slices[1] * np.linalg.norm(tensor, axis=0).max()
             + (np.linalg.norm(tensor, axis=1).max() + slices[1]) * slices[0]
             + slices[2] * np.linalg.norm(g.comult, axis=0).max())
    coaction = float(per_lift * lift_norms.max() + entry)
    if delta.podles is None:
        return coaction, np.inf
    f = np.linalg.norm(formed)
    spectral = [np.sqrt(max(np.linalg.eigvalsh(m.conj().T @ m)[-1], 0.0))
                for m in (tensor.reshape(s, s * n).T, tensor.transpose(0, 2, 1).reshape(s * n, s))]
    residual = per_lift * np.linalg.norm(lift_norms) + f * (sum(spectral) + f + d)
    unit_norm, antipode_norm, column_norm, assoc_term, unit_term = delta.podles
    size = np.linalg.norm(tensor)
    podles = (np.linalg.norm(counit_defect) * unit_norm + size * antipode_norm + residual * column_norm
              + assoc_term * (size * d + residual) + unit_term * np.sqrt(s))
    return coaction, float(podles)


def _complex_gamma(roundings: int) -> float:
    """sqrt(2) gamma_m, gamma_m = m u / (1 - m u): a complex sum whose real and imaginary
    parts each pass every real term through at most m roundings errs by at most this
    times the sum of the terms' moduli, in any order of operations."""
    m = roundings * _UNIT_ROUNDOFF
    return float(np.sqrt(2) * m / (1 - m))


def _blocked_matmul(a, b) -> tuple[np.ndarray, float]:
    """a @ b with each inner sum cut into blocks of ``SUM_BLOCK`` terms whose sums are
    then added pairwise, and g with |result - a b| <= g |a||b| entrywise.

    Within a block each real product meets 2 SUM_BLOCK roundings at most, then one
    per level of the pairwise tree.
    """
    (m, k), p = a.shape, b.shape[1]
    blocks = -(-k // SUM_BLOCK)
    a_blocks = np.zeros((m, blocks * SUM_BLOCK), dtype=complex)
    b_blocks = np.zeros((blocks * SUM_BLOCK, p), dtype=complex)
    a_blocks[:, :k], b_blocks[:k] = a, b
    parts = (a_blocks.reshape(m, blocks, SUM_BLOCK).transpose(1, 0, 2)
             @ b_blocks.reshape(blocks, SUM_BLOCK, p))                 # (blocks, m, p)
    depth = 0
    while len(parts) > 1:
        half = len(parts) // 2
        parts = np.concatenate([parts[:half] + parts[half:2 * half], parts[2 * half:]])
        depth += 1
    return parts[0], _complex_gamma(2 * SUM_BLOCK + depth)


def _kernel_frobenius(g: FiniteQuantumGroup, ts: TruncatedSystem) -> np.ndarray:
    """Frobenius norms of (tau (x) rho)Delta(v) for v in ker tau.

    Each bounds the operator norm from above.  With W[ab, l] the compressed
    coefficient of e_l, ||sum_l W_l (x) rho(e_l)||_F^2 = sum W*_l W_l' G[l, l']
    through the Hilbert-Schmidt Gram matrix G of rho.
    """
    n = g.dim
    deltas = (ts.kernel @ g.comult.reshape(n, n * n)).reshape(-1, n, n)
    taus = ts.tau_matrix @ deltas                  # (n_ker, r*r, n)
    reps = g.rep.reshape(n, -1)
    gram = reps.conj() @ reps.T
    squares = np.sum(taus.conj() * (taus @ gram.T), axis=(1, 2)).real
    return np.sqrt(np.maximum(squares, 0.0))


def _tensor_opnorm(g: FiniteQuantumGroup, ts: TruncatedSystem, entries) -> float:
    """Operator norm of (tau (x) rho)Delta on a p x p matrix over A.

    ``entries`` is a (p, p, n) block of elements; p = 1 is a single element.
    """
    p, r, d0 = entries.shape[0], ts.rank, g.rep.shape[1]
    delta = np.einsum("pqi,ijl->pqjl", entries, g.comult)
    taus = (ts.tau_matrix @ delta).reshape(p, p, r, r, g.dim)
    big = np.einsum("pqabl,lcd->pacqbd", taus, g.rep).reshape(p * r * d0, p * r * d0)
    return float(np.linalg.norm(big, 2))


def cocommutation_residual(alpha: InducedCoaction, beta: InducedCoaction) -> float:
    """Residual of (beta (x) id) alpha = (id (x) alpha) beta."""
    if alpha.side != "right" or beta.side != "left":
        raise ValueError("cocommutation takes a right coaction and a left coaction")
    lhs = np.einsum("kml,mpj->kjpl", alpha.tensor, beta.tensor)
    rhs = np.einsum("kmj,mpl->kjpl", beta.tensor, alpha.tensor)
    return _maxabs(lhs - rhs)


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
    eigs, vecs = np.linalg.eigh((density + density.conj().T) / 2)
    if herm > DEFAULT_TOL or eigs[0] < -DEFAULT_TOL:
        raise StateCertificationError(
            f"density fails positivity (hermitian residual {herm:.2e}, min eig {eigs[0]:.3e}) "
            f"at witness vector {np.round(vecs[:, 0], 4)}")
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


def optimized_symbol_state(g: FiniteQuantumGroup, ts: TruncatedSystem, distance, seed: int = 0):
    """Projected gradient over vector states minimizing ``distance``, stopped by a duality gap.

    ``distance(density)`` must return (value, slicer) where slicer is a
    self-adjoint optimizer of the distance with L(slicer) <= 1, such as
    ``MKResult.element``; the envelope gradient of the value at a vector
    state xi is then tau(slicer) xi.  The descent runs from the canonical
    state and from DESCENT_STARTS - 1 random vectors, up to DESCENT_ITERS steps each.
    Every accepted value is checked against ``duality_lower_bound`` at its
    slicer, which no density beats: once value - lower <= GAP_RTOL max(1,
    value), no further step can gain more than that gap and the best state
    found so far is returned.  Where no gap closes, the descent runs all its
    starts.  Returns (density, value).

    Before the descent, when the canonical state's gap is open, the bottom
    eigenvector of the hermitian part of tau(slicer) is tried: it is the
    density that attains ``duality_lower_bound`` for that slicer.  If its gap
    closes below the canonical value it is returned; otherwise the descent
    runs as if it had not been tried.  On F(G) with a pair family every
    state's slicer is sp(., e) (``mkdist.mk_distance``), so the distance is
    linear in the density and this closes the gap at 2 lambda_min(K),
    K = tau(sp(., e)), with no descent.
    """
    def closed(value, slicer) -> bool:
        return value - duality_lower_bound(ts, slicer) <= GAP_RTOL * max(1.0, value)

    rng = np.random.default_rng(seed)
    best_density = canonical_symbol_state(g, ts)
    best_value, slicer = distance(best_density)
    if not closed(best_value, slicer):
        tau_x = ts.tau(slicer)
        bottom = np.linalg.eigh((tau_x + tau_x.conj().T) / 2)[1][:, 0]
        density = np.outer(bottom, bottom.conj())
        value, bottom_slicer = distance(density)
        if value < best_value and closed(value, bottom_slicer):
            return density, value
    r = ts.rank
    for start in range(DESCENT_STARTS):
        if start:
            v = rng.normal(size=r) + 1j * rng.normal(size=r)
            v = v / np.linalg.norm(v)
            value, slicer = distance(np.outer(v, v.conj()))
        else:                  # the canonical state, already evaluated
            v = np.linalg.eigh(best_density)[1][:, -1]
            v, value = v / np.linalg.norm(v), best_value
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
            best_value = value
            best_density = np.outer(v, v.conj())
        if done:
            break
    return best_density, best_value
