"""Peter-Weyl truncation: compression maps, induced coactions, symbol maps,
conditional expectations, isotypical projections and liftable states.

A truncated system stores the operator system P A P inside B(H_Lambda)
together with a Hilbert-Schmidt orthonormal basis of its image and a fixed
linear right inverse of the compression map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corep import GNSSpace, PWDecomposition, pw_decompose
from .errors import InternalInconsistencyError, StateCertificationError, StructureError
from .hopf import FiniteQuantumGroup, State, _maxabs, _rank, certify_state, counit_support_projection
from .sampling import random_density

RANK_RTOL = 1e-10


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

    @property
    def unit_coords(self) -> np.ndarray:
        return self.expand(np.eye(self.rank, dtype=complex))

    def tau(self, a) -> np.ndarray:
        """Compression tau(a) = P pi(a) P as an r x r matrix on H_Lambda."""
        return (self.tau_matrix @ np.asarray(a, dtype=complex)).reshape(self.rank, self.rank)

    def lift(self, x) -> np.ndarray:
        return self.lift_matrix @ np.asarray(x, dtype=complex).reshape(-1)

    def expand(self, x) -> np.ndarray:
        """Coordinates of x in the system basis (valid for x in tau(A))."""
        flat = np.asarray(x, dtype=complex).reshape(-1)
        return self.sys_basis.reshape(self.dim_sys, -1).conj() @ flat

    def combine(self, coords) -> np.ndarray:
        return np.einsum("k,kab->ab", np.asarray(coords, dtype=complex), self.sys_basis)

    def membership_residual(self, x) -> float:
        return _maxabs(self.combine(self.expand(x)) - np.asarray(x, dtype=complex))


def truncate(g: FiniteQuantumGroup, irreps, subset, tol: float = 1e-10,
             dec: PWDecomposition | None = None) -> TruncatedSystem:
    """Build the truncated operator system for the given irrep subset."""
    dec = dec if dec is not None else pw_decompose(g, irreps, tol)
    subset = tuple(sorted(set(int(k) for k in subset)))
    if any(k < 0 or k >= len(dec.irreps) for k in subset):
        raise StructureError(f"subset {subset} out of range for {len(dec.irreps)} irreps")
    if not subset:
        raise StructureError("subset must contain at least one irrep")
    frame = dec.frame(subset)
    n = g.dim
    r = frame.shape[1]
    tau_matrix = np.zeros((r * r, n), dtype=complex)
    for i in range(n):
        tau_matrix[:, i] = (frame.conj().T @ dec.gns.rep[i] @ frame).reshape(-1)
    u, sv, vh = np.linalg.svd(tau_matrix, full_matrices=True)
    cutoff = RANK_RTOL * (sv[0] if len(sv) else 1.0)
    s = int(np.sum(sv > cutoff))
    sys_basis = u[:, :s].T.reshape(s, r, r)
    lift_matrix = vh[:s].conj().T @ np.diag(1.0 / sv[:s]) @ u[:, :s].conj().T
    kernel = vh[s:].conj()
    ts = TruncatedSystem(g=g, decomposition=dec, subset=subset, frame=frame,
                         tau_matrix=tau_matrix, sys_basis=sys_basis,
                         lift_matrix=lift_matrix, kernel=kernel)
    unit_res = _maxabs(ts.tau(g.unit) - np.eye(r))
    lift_res = max((_maxabs(ts.tau(ts.lift(m)) - m) for m in sys_basis), default=0.0)
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

    side "right": alpha(x_k) = sum_{m,l} tensor[k, m, l] x_m (x) e_l
    side "left":  beta(x_k)  = sum_{l,m} tensor[k, l, m] e_l (x) x_m
    The carrier is either a TruncatedSystem or the algebra itself.
    """

    side: str
    tensor: np.ndarray
    g: FiniteQuantumGroup
    system: TruncatedSystem | None
    well_definedness_residual: float
    coaction_residual: float
    counit_residual: float
    podles_rank_defect: int
    fixed_space_dim: int

    @property
    def carrier_dim(self) -> int:
        return self.tensor.shape[0]

    def carrier_unit(self) -> np.ndarray:
        if self.system is None:
            return np.asarray(self.g.unit, dtype=complex)
        return self.system.unit_coords

    def realize(self, coords) -> np.ndarray:
        """The carrier elements with these coordinate rows, as concrete matrices."""
        basis = self.g.rep if self.system is None else self.system.sys_basis
        return np.einsum("...k,kab->...ab", np.asarray(coords, dtype=complex), basis)

    def apply(self, coords) -> np.ndarray:
        """Coaction as a coefficient matrix: (carrier, algebra) or (algebra, carrier)."""
        coords = np.asarray(coords, dtype=complex)
        if self.side == "right":
            return np.einsum("k,kml->ml", coords, self.tensor)
        return np.einsum("k,klm->lm", coords, self.tensor)

    def slice_states(self, coords, functionals) -> np.ndarray:
        """Algebra-leg slices (id (x) l_i) or (l_i (x) id) for a family of functionals.

        ``functionals`` is an (m, n) array; returns (m, s) carrier coordinates.
        """
        coords = np.asarray(coords, dtype=complex)
        if self.side == "right":
            return np.einsum("k,kml,il->im", coords, self.tensor, functionals)
        return np.einsum("k,klm,il->im", coords, self.tensor, functionals)

    def slice_carrier(self, coords, phi_values) -> np.ndarray:
        """Carrier-leg slice (phi (x) id) alpha(x) (or (id (x) phi) beta(x)) as A-coefficients."""
        coords = np.asarray(coords, dtype=complex)
        if self.side == "right":
            return np.einsum("k,kml,m->l", coords, self.tensor, phi_values)
        return np.einsum("k,klm,m->l", coords, self.tensor, phi_values)


def comultiplication_coaction(g: FiniteQuantumGroup, side: str = "right") -> InducedCoaction:
    """The comultiplication viewed as the (right or left) coaction of A on itself."""
    fixed = _fixed_space_dim(g.comult, g.unit, side)
    return InducedCoaction(side=side, tensor=g.comult.copy(), g=g, system=None,
                           well_definedness_residual=0.0, coaction_residual=0.0,
                           counit_residual=0.0, podles_rank_defect=0,
                           fixed_space_dim=fixed)


def induced_coaction(g: FiniteQuantumGroup, ts: TruncatedSystem, side: str = "right",
                     tol: float = 1e-9) -> InducedCoaction:
    """Push the comultiplication through the compression map.

    Well-definedness is certified by ker tau <= ker (tau (x) id) Delta; the
    coaction, counit and Podles properties are certified numerically.
    """
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    n, s = g.dim, ts.dim_sys

    well = 0.0
    for v in ts.kernel:
        well = max(well, _tensor_opnorm(g, ts, v, side))
    if well > tol:
        raise InternalInconsistencyError(
            f"kernel of tau is not contained in the sliced kernel (residual {well:.3e}); "
            "input tensors are corrupt")

    if side == "right":
        tensor = np.zeros((s, s, n), dtype=complex)
        for k in range(s):
            delta = g.coproduct(ts.lift(ts.sys_basis[k]))
            for l in range(n):
                tensor[k, :, l] = ts.expand(ts.tau(delta[:, l]))
    else:
        tensor = np.zeros((s, n, s), dtype=complex)
        for k in range(s):
            delta = g.coproduct(ts.lift(ts.sys_basis[k]))
            for l in range(n):
                tensor[k, l, :] = ts.expand(ts.tau(delta[l, :]))

    coaction_res = _coaction_residual(g, tensor, side)
    counit_res = _counit_residual(g, tensor, side)
    podles = _podles_defect(g, tensor, side)
    fixed = _fixed_space_dim(tensor, g.unit, side)
    worst = max(coaction_res, counit_res)
    if worst > tol or podles > 0:
        raise InternalInconsistencyError(
            f"induced coaction certificates failed (coaction {coaction_res:.2e}, "
            f"counit {counit_res:.2e}, Podles defect {podles})")
    return InducedCoaction(side=side, tensor=tensor, g=g, system=ts,
                           well_definedness_residual=well, coaction_residual=coaction_res,
                           counit_residual=counit_res, podles_rank_defect=podles,
                           fixed_space_dim=fixed)


def _tensor_opnorm(g: FiniteQuantumGroup, ts: TruncatedSystem, a, side: str) -> float:
    """Operator norm of (tau (x) rho)Delta(a) or (rho (x) tau)Delta(a)."""
    delta = g.coproduct(a)
    r = ts.rank
    d0 = g.rep.shape[1]
    if side == "right":
        taus = np.stack([ts.tau(delta[:, l]) for l in range(g.dim)])
        big = np.einsum("lpq,lab->paqb", taus, g.rep).reshape(r * d0, r * d0)
    else:
        taus = np.stack([ts.tau(delta[l, :]) for l in range(g.dim)])
        big = np.einsum("lab,lpq->apbq", taus, g.rep).reshape(d0 * r, d0 * r)
    return float(np.linalg.norm(big, 2))


def _coaction_residual(g, tensor, side) -> float:
    if side == "right":
        lhs = np.einsum("kql,qmp->kmpl", tensor, tensor)    # (alpha (x) id) alpha
        rhs = np.einsum("kml,lpq->kmpq", tensor, g.comult)  # (id (x) Delta) alpha
        return _maxabs(lhs - rhs)
    lhs = np.einsum("kpq,qlm->kplm", tensor, tensor)        # (id (x) beta) beta
    rhs = np.einsum("kqm,qpl->kplm", tensor, g.comult)      # (Delta (x) id) beta
    return _maxabs(lhs - rhs)


def _counit_residual(g, tensor, side) -> float:
    s = tensor.shape[0]
    if side == "right":
        return _maxabs(np.einsum("kml,l->km", tensor, g.counit) - np.eye(s))
    return _maxabs(np.einsum("klm,l->km", tensor, g.counit) - np.eye(s))


def _podles_defect(g, tensor, side) -> int:
    n = g.dim
    s = tensor.shape[0]
    if side == "right":
        vecs = np.einsum("kml,jlq->jkmq", tensor, g.mult)
    else:
        vecs = np.einsum("klm,jlq->jkqm", tensor, g.mult)
    return int(s * n - _rank(vecs.reshape(n * s, s * n)))


def _fixed_space_dim(tensor, algebra_unit, side) -> int:
    """Dimension of {x : coaction(x) = x (x) 1_A} (or 1_A (x) x on the left)."""
    s = tensor.shape[0]
    if side == "right":
        system = tensor - np.einsum("km,l->kml", np.eye(s), algebra_unit)
    else:
        system = tensor - np.einsum("km,l->klm", np.eye(s), algebra_unit)
    system = system.transpose(1, 2, 0).reshape(-1, s)
    return int(s - _rank(system))


def cocommutation_residual(alpha: InducedCoaction, beta: InducedCoaction) -> float:
    """Residual of (beta (x) id) alpha = (id (x) alpha) beta."""
    if alpha.side != "right" or beta.side != "left":
        raise ValueError("cocommutation takes a right coaction and a left coaction")
    lhs = np.einsum("kml,mjp->kjpl", alpha.tensor, beta.tensor)
    rhs = np.einsum("kjm,mpl->kjpl", beta.tensor, alpha.tensor)
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
        if amplified_every and (j + 1) % amplified_every == 0:
            entries = rng.normal(size=(2, 2, n)) + 1j * rng.normal(size=(2, 2, n))
            lhs = _amplified_tensor_norm(g, ts, entries)
            rhs_mat = np.block([[ts.tau(entries[p, q]) for q in range(2)] for p in range(2)])
            rhs = float(np.linalg.norm(rhs_mat, 2))
        else:
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            lhs = _tensor_opnorm(g, ts, a, "right")
            rhs = float(np.linalg.norm(ts.tau(a), 2))
        worst = max(worst, abs(lhs - rhs) / max(1.0, rhs))
    return worst


def _amplified_tensor_norm(g, ts, entries) -> float:
    r = ts.rank
    d0 = g.rep.shape[1]
    blocks = []
    for p in range(2):
        row = []
        for q in range(2):
            delta = g.coproduct(entries[p, q])
            taus = np.stack([ts.tau(delta[:, l]) for l in range(g.dim)])
            row.append(np.einsum("lpq,lab->paqb", taus, g.rep).reshape(r * d0, r * d0))
        blocks.append(row)
    return float(np.linalg.norm(np.block(blocks), 2))


# ---------------------------------------------------------------------------
# symbol maps, conditional expectation, isotypical projections
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SymbolMap:
    """sigma(x) = (phi (x) id) alpha(x), a linear map from the system into A."""

    matrix: np.ndarray           # (n, s)
    phi_values: np.ndarray       # phi on the system basis

    def __call__(self, coords) -> np.ndarray:
        return self.matrix @ np.asarray(coords, dtype=complex)


def state_values_on_basis(ts: TruncatedSystem, density: np.ndarray) -> np.ndarray:
    """phi(M_k) for the state with density matrix ``density`` on H_Lambda."""
    density = np.asarray(density, dtype=complex)
    return np.einsum("ba,kab->k", density, ts.sys_basis)


def certify_system_state(ts: TruncatedSystem, density: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Certify a density matrix against the containing matrix algebra's cone."""
    density = np.asarray(density, dtype=complex)
    if density.shape != (ts.rank, ts.rank):
        raise StateCertificationError(f"density must be {ts.rank} x {ts.rank}, got {density.shape}")
    herm = _maxabs(density - density.conj().T)
    eigs, vecs = np.linalg.eigh((density + density.conj().T) / 2)
    if herm > tol or eigs[0] < -tol:
        raise StateCertificationError(
            f"density fails positivity (hermitian residual {herm:.2e}, min eig {eigs[0]:.3e}) "
            f"at witness vector {np.round(vecs[:, 0], 4)}")
    if abs(np.trace(density) - 1.0) > tol:
        raise StateCertificationError(f"density trace is {np.trace(density):.6f}, expected 1")
    return density


def symbol_map(ts: TruncatedSystem, alpha: InducedCoaction, density: np.ndarray,
               tol: float = 1e-9) -> SymbolMap:
    """Slice the right coaction by a state of the truncated system."""
    if alpha.side != "right" or alpha.system is not ts:
        raise ValueError("symbol map needs the right coaction of the same truncated system")
    density = certify_system_state(ts, density, tol)
    phi = state_values_on_basis(ts, density)
    matrix = np.einsum("kml,m->lk", alpha.tensor, phi)
    return SymbolMap(matrix=matrix, phi_values=phi)


@dataclass(frozen=True, eq=False)
class ExpectationReport:
    matrix: np.ndarray
    idempotency_residual: float
    invariant_state: np.ndarray | None    # functional on carrier coordinates, or None
    invariance_residual: float


def conditional_expectation(coaction: InducedCoaction, samples: int = 20,
                            seed: int = 0) -> ExpectationReport:
    """E(x) = (id (x) h) applied to the coaction; extracts the invariant state when ergodic."""
    g = coaction.g
    if coaction.side == "right":
        e = np.einsum("kml,l->mk", coaction.tensor, g.haar)
    else:
        e = np.einsum("klm,l->mk", coaction.tensor, g.haar)
    idem = _maxabs(e @ e - e)

    invariant = None
    inv_res = 0.0
    if coaction.fixed_space_dim == 1:
        unit = coaction.carrier_unit()
        scale = float(np.vdot(unit, unit).real)
        invariant = (unit.conj() @ e) / scale
        inv_res = _maxabs(e - np.outer(unit, invariant))
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            mu = rng.normal(size=g.dim) + 1j * rng.normal(size=g.dim)
            if coaction.side == "right":
                acted = np.einsum("kml,m,l->k", coaction.tensor, invariant, mu)
            else:
                acted = np.einsum("klm,m,l->k", coaction.tensor, invariant, mu)
            inv_res = max(inv_res, _maxabs(acted - np.dot(mu, g.unit) * invariant))
    return ExpectationReport(matrix=e, idempotency_residual=idem,
                             invariant_state=invariant, invariance_residual=inv_res)


def isotypical_projection(coaction: InducedCoaction, gamma) -> np.ndarray:
    """E_gamma(x) = d_gamma (id (x) h)((1 (x) chi*) . coaction(x)) on carrier coordinates."""
    g = coaction.g
    chi = gamma.u.trace(axis1=0, axis2=1)
    chi_star = g.star_of(chi)
    weights = np.einsum("p,plq,q->l", chi_star, g.mult, g.haar)
    if coaction.side == "right":
        return gamma.dim * np.einsum("kml,l->mk", coaction.tensor, weights)
    return gamma.dim * np.einsum("klm,l->mk", coaction.tensor, weights)


# ---------------------------------------------------------------------------
# states on truncations and their pullbacks
# ---------------------------------------------------------------------------

def pullback_state(ts: TruncatedSystem, density: np.ndarray, tol: float = 1e-9) -> State:
    """tau^* phi as a certified state on A."""
    density = certify_system_state(ts, density, tol)
    coeffs = np.array([np.trace(density @ ts.tau(e)) for e in np.eye(ts.g.dim, dtype=complex)])
    return certify_state(ts.g, coeffs, tol=tol)


def liftable_states(ts: TruncatedSystem, samples: int, seed: int, tol: float = 1e-9,
                    return_densities: bool = False):
    """Pull back randomly generated states of the truncated system.

    Draws Haar-random vector states and Dirichlet-weighted convex mixtures of
    them; every pullback is certified as a state on A.
    """
    rng = np.random.default_rng(seed)
    r = ts.rank
    out, densities = [], []
    for j in range(samples):
        parts = 1 if j % 2 == 0 or r == 1 else int(rng.integers(2, 5))
        density = random_density(r, rng, parts)
        out.append(pullback_state(ts, density, tol))
        densities.append(density)
    if return_densities:
        return out, densities
    return out


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


def optimized_symbol_state(g: FiniteQuantumGroup, ts: TruncatedSystem, distance,
                           seed: int = 0, starts: int = 4, iters: int = 60,
                           step: float = 0.25):
    """Multi-start projected gradient over vector states minimizing ``distance``.

    ``distance(density)`` must return (value, slicer) where slicer is the
    optimizer of the distance LP as an element of A; the envelope gradient of
    the value at a vector state xi is then tau(slicer) xi.  The result is a
    best-found vector state, reported without an optimality certificate.
    """
    rng = np.random.default_rng(seed)
    best_density = canonical_symbol_state(g, ts)
    best_value, _ = distance(best_density)
    r = ts.rank
    seeds = [best_density] + [None] * (starts - 1)
    for start in seeds:
        if start is None:
            v = rng.normal(size=r) + 1j * rng.normal(size=r)
        else:
            eigvals, eigvecs = np.linalg.eigh(start)
            v = eigvecs[:, -1]
        v = v / np.linalg.norm(v)
        eta = step
        value, slicer = distance(np.outer(v, v.conj()))
        for _ in range(iters):
            grad = ts.tau(slicer) @ v
            cand = v - eta * grad
            norm = np.linalg.norm(cand)
            if norm < 1e-12:
                break
            cand /= norm
            cand_value, cand_slicer = distance(np.outer(cand, cand.conj()))
            if cand_value < value - 1e-14:
                v, value, slicer = cand, cand_value, cand_slicer
            else:
                eta /= 2
                if eta < 1e-6:
                    break
        if value < best_value:
            best_value = value
            best_density = np.outer(v, v.conj())
    return best_density, best_value
