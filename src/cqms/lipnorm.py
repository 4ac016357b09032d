"""Seminorm representations and Lip-norm computations.

Two concrete seminorm families are supported.  Polyhedral seminorms
L(a) = max_i |l_i(a)| / c_i carry all exact computations: the supremum over
states that defines an induced Lip-norm reduces, after extending states to
the containing matrix algebra, to a numerical radius per functional, which is
certified by an adaptive eigenvalue maximization over rotation angles.
Commutator seminorms ||[D, pi(a)]|| only admit certified brackets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups
from .compress import InducedCoaction, TruncatedSystem, state_values_on_basis
from .errors import LengthError, MetricError, UnsupportedSeminormError
from .hopf import FiniteQuantumGroup, _maxabs, _rank
from .sampling import random_density, random_state_density

W_TOL = 1e-6


# ---------------------------------------------------------------------------
# seminorm types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PolyhedralSeminorm:
    """L(a) = max_i |functionals[i] . a| / weights[i] with 1 in the kernel."""

    functionals: np.ndarray      # (m, n)
    weights: np.ndarray          # (m,)
    label: str = ""

    def __post_init__(self):
        f = np.ascontiguousarray(np.asarray(self.functionals, dtype=complex))
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if f.ndim != 2 or w.shape != (f.shape[0],):
            raise ValueError(f"inconsistent family shapes {f.shape}, {w.shape}")
        if np.any(w <= 0):
            raise ValueError("weights must be positive")
        f.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "functionals", f)
        object.__setattr__(self, "weights", w)

    def value(self, a) -> float:
        vals = np.abs(self.functionals @ np.asarray(a, dtype=complex)) / self.weights
        return float(np.max(vals)) if len(vals) else 0.0

    def kernel_rank_defect(self, n: int | None = None) -> int:
        """0 iff ker L = C 1 (given that every functional kills the unit)."""
        n = n if n is not None else self.functionals.shape[1]
        return int((n - 1) - _rank(self.functionals))

    def unit_residual(self, unit) -> float:
        return _maxabs(self.functionals @ np.asarray(unit, dtype=complex))

    def star_closure_residual(self, g: FiniteQuantumGroup) -> float:
        """How far the family is from being closed under l -> conj(l o *)."""
        adj = np.conj(self.functionals @ g.star.T)
        worst = 0.0
        for i, f in enumerate(adj):
            gaps = np.max(np.abs(self.functionals - f), axis=1) + np.abs(self.weights - self.weights[i])
            worst = max(worst, float(np.min(gaps)))
        return worst


@dataclass(frozen=True, eq=False)
class CommutatorSeminorm:
    """L(a) = ||[D, pi(a)]|| with D Hermitian on the GNS space."""

    d_operator: np.ndarray
    gns_rep: np.ndarray          # (n, dim_H, dim_H)
    label: str = ""

    def value(self, a) -> float:
        mat = np.einsum("i,ikl->kl", np.asarray(a, dtype=complex), self.gns_rep)
        return float(np.linalg.norm(self.d_operator @ mat - mat @ self.d_operator, 2))


@dataclass(frozen=True)
class LipValueBracket:
    lower: float
    upper: float
    method: str = ""

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError(f"bracket is inverted: [{self.lower}, {self.upper}]")

    def contains(self, value: float, slack: float = 0.0) -> bool:
        return self.lower - slack <= value <= self.upper + slack


# ---------------------------------------------------------------------------
# constructors for the built-in families
# ---------------------------------------------------------------------------

def lip_from_metric(g: FiniteQuantumGroup, metric=None) -> PolyhedralSeminorm:
    """Lipschitz constant of a bi-invariant metric on a function algebra.

    Family {(ev_g - ev_h, d(g, h))} over unordered pairs; the kernel is the
    constants by connectedness of the metric.
    """
    if g.kind != "function" or g.group_table is None:
        raise UnsupportedSeminormError("metric Lip-norms require a function algebra F(G)")
    metric = g.metric if metric is None else metric
    if metric is None:
        raise MetricError("no metric stored on the algebra and none supplied")
    groups.check_metric(g.group_table, metric)
    n = g.dim
    funcs, weights = [], []
    for a in range(n):
        for b in range(a + 1, n):
            f = np.zeros(n, dtype=complex)
            f[a], f[b] = 1.0, -1.0
            funcs.append(f)
            weights.append(float(metric[a, b]))
    return PolyhedralSeminorm(functionals=np.array(funcs), weights=np.array(weights),
                              label="metric-lip")


def lip_fourier(g: FiniteQuantumGroup, length=None) -> PolyhedralSeminorm:
    """Coefficient Lip-norm L(x) = max_{g != e} l(g) |h(lambda_g^* x)| on C*(G)."""
    if g.kind != "group" or g.group_table is None:
        raise UnsupportedSeminormError("Fourier Lip-norms require a group algebra C*(G)")
    length = g.length if length is None else length
    if length is None:
        raise LengthError("no length stored on the algebra and none supplied")
    groups.check_length(g.group_table, length)
    identity, inverse = groups.validate_cayley(g.group_table)
    ell = np.asarray(length, dtype=float)
    asym = np.max(np.abs(ell - ell[inverse]))
    if asym > 1e-12:
        raise LengthError(f"length must satisfy l(g) = l(g^-1) for a *-invariant seminorm "
                          f"(max asymmetry {asym:.2e})")
    n = g.dim
    funcs, weights = [], []
    for k in range(n):
        if k == identity:
            continue
        f = np.zeros(n, dtype=complex)
        f[k] = 1.0                       # h(lambda_k^* x) = coefficient of lambda_k
        funcs.append(f)
        weights.append(1.0 / ell[k])
    return PolyhedralSeminorm(functionals=np.array(funcs), weights=np.array(weights),
                              label="fourier-lip")


# ---------------------------------------------------------------------------
# numerical radius
# ---------------------------------------------------------------------------

def numerical_radius(m: np.ndarray, tol: float = W_TOL) -> float:
    """w(M) = max over angles of lambda_max(Re(e^{i theta} M)), within tol.

    Adaptive refinement over arcs of rotation angles; on each arc the support
    function bound through the two endpoint values certifies the error.
    """
    return float(numerical_radius_many(np.asarray(m, dtype=complex)[None, :, :], tol)[0])


def numerical_radius_many(stack: np.ndarray, tol: float = W_TOL) -> np.ndarray:
    """Certified numerical radii of a stack of square matrices.

    Normal matrices are dispatched through their spectrum; the rest run the
    adaptive arc refinement, with all support values of one refinement wave
    batched into a single stacked eigensolve across matrices.
    """
    lower, upper = _radius_brackets(stack, tol, None)
    return (lower + upper) / 2


def max_numerical_radius(stack: np.ndarray, weights=None, tol: float = W_TOL) -> float:
    """max_i w(stack[i]) / weights[i] within tol.

    Refinement prunes every matrix whose certified upper bound already falls
    below the best lower bound, so only near-maximal matrices are resolved.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.shape[0] == 0:
        return 0.0
    weights = np.ones(stack.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    lower, upper = _radius_brackets(stack, tol * weights, weights)
    return float((np.max(lower / weights) + np.max(upper / weights)) / 2)


def _radius_brackets(stack, tols, prune_weights):
    """Per-matrix brackets [lower, upper] with upper - lower <= tols[i].

    lower is an attained support value; upper bounds the support function on
    every arc, including arcs dropped unrefined.  With ``prune_weights``,
    matrices that provably cannot attain max_i w_i / weights_i stop refining
    early; their brackets stay valid but wider.  Refinement state lives in
    parallel per-arc arrays, so each wave is one pass over the whole stack.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or (stack.shape[0] and stack.shape[1] != stack.shape[2]):
        raise ValueError(f"expected a stack of square matrices, got {stack.shape}")
    count = stack.shape[0]
    tols = np.broadcast_to(np.asarray(tols, dtype=float), (count,))
    if not stack.size:
        return np.zeros(count), np.zeros(count)
    nrm = np.linalg.norm(stack, 2, axis=(1, 2))
    small = nrm <= tols
    lower, upper = nrm.copy(), nrm.copy()
    mh = stack.conj().transpose(0, 2, 1)
    drift = np.max(np.abs(stack @ mh - mh @ stack), axis=(1, 2))
    normal = ~small & (drift <= 1e-13 * nrm ** 2)
    lower[normal] = upper[normal] = np.max(np.abs(np.linalg.eigvals(stack[normal])), axis=1)
    active = ~small & ~normal

    grid = np.linspace(0.0, 2 * np.pi, 17)
    todo = np.flatnonzero(active)
    vals = _support_values_batch(stack, np.repeat(todo, len(grid)),
                                 np.tile(grid, len(todo))).reshape(len(todo), len(grid))
    lower[todo] = np.max(vals, axis=1)
    owner = np.repeat(todo, len(grid) - 1)
    lo, hi = np.tile(grid[:-1], len(todo)), np.tile(grid[1:], len(todo))
    flo, fhi = vals[:, :-1].ravel(), vals[:, 1:].ravel()
    dropped = np.full(count, -np.inf)      # bounds of arcs left unrefined
    while active.any():
        caps = _arc_bounds(lo, hi, flo, fhi)
        cap = np.full(count, -np.inf)
        np.maximum.at(cap, owner, caps)
        upper[active] = cap[active]
        done = cap - lower <= tols
        if prune_weights is not None:      # cannot exceed the max; bracket stays valid
            done |= cap / prune_weights <= np.max(lower / prune_weights)
        active &= ~done
        live = active[owner]
        split = live & (caps > lower[owner] + tols[owner] / 2)
        np.maximum.at(dropped, owner[live & ~split], caps[live & ~split])
        owner, lo, hi, flo, fhi = owner[split], lo[split], hi[split], flo[split], fhi[split]
        mid = (lo + hi) / 2
        fmid = _support_values_batch(stack, owner, mid)
        np.maximum.at(lower, owner, fmid)
        owner = np.concatenate([owner, owner])
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        flo, fhi = np.concatenate([flo, fmid]), np.concatenate([fmid, fhi])
    return lower, np.maximum(upper, dropped)


def _support_values_batch(stack, owners, thetas) -> np.ndarray:
    """f(theta) = lambda_max(Re(e^{i theta} M_owner)) for paired (owner, theta)."""
    owners = np.asarray(owners, dtype=int)
    phases = np.exp(1j * np.asarray(thetas, dtype=float))
    mats = stack[owners]
    hs = 0.5 * (phases[:, None, None] * mats
                + np.conj(phases)[:, None, None] * np.conj(np.transpose(mats, (0, 2, 1))))
    return np.linalg.eigvalsh(hs)[:, -1]


def _arc_bounds(lo, hi, f_lo, f_hi) -> np.ndarray:
    """Exact support-function bound for max f over each arc from endpoint values.

    f restricted to an arc is dominated by the sinusoid through the two
    endpoint constraints; its amplitude over sin(width) is an upper bound.
    """
    width = hi - lo
    out = np.full(len(width), np.inf)
    sw = np.sin(width)
    tiny = sw < 1e-15
    narrow = (width < 0.9 * np.pi) & ~tiny
    amp = np.hypot(f_lo * sw, f_hi - f_lo * np.cos(width))
    with np.errstate(divide="ignore", invalid="ignore"):
        out[narrow] = (amp / sw)[narrow]
    out[tiny] = np.maximum(f_lo, f_hi)[tiny]
    return out


# ---------------------------------------------------------------------------
# induced Lip-norms on coaction carriers
# ---------------------------------------------------------------------------

def induced_lip(lip: PolyhedralSeminorm, coaction: InducedCoaction, x, tol: float = W_TOL) -> float:
    """The coaction-induced Lip-norm of a carrier element, within tol.

    The supremum over states of the carrier reduces to a numerical radius per
    family functional: every state of the operator system extends to a state
    of the containing matrix algebra, where the supremum of |phi(.)| is the
    numerical radius.
    """
    if not isinstance(lip, PolyhedralSeminorm):
        raise UnsupportedSeminormError(
            "exact induced values need a polyhedral seminorm; use induced_lip_bracket")
    coords = _carrier_coords(coaction, x)
    sliced = coaction.slice_states(coords, lip.functionals)     # (m, s)
    return max_numerical_radius(coaction.realize(sliced), lip.weights, tol)


def induced_lip_bi(lip: PolyhedralSeminorm, alpha: InducedCoaction, beta: InducedCoaction,
                   x, tol: float = W_TOL) -> float:
    """max of the right- and left-induced values; the bi-invariant Lip-norm."""
    return max(induced_lip(lip, alpha, x, tol), induced_lip(lip, beta, x, tol))


def _carrier_coords(coaction: InducedCoaction, x) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if coaction.system is not None and x.ndim == 2:
        residual = coaction.system.membership_residual(x)
        if residual > 1e-8:
            raise ValueError(f"matrix is not in the truncated system (residual {residual:.2e})")
        return coaction.system.expand(x)
    return x


def sampled_state_lower_bound(lip, coaction: InducedCoaction, x, densities) -> float:
    """max over supplied carrier states of L_A of the sliced element; a lower bound."""
    coords = _carrier_coords(coaction, x)
    best = 0.0
    for density in densities:
        density = np.asarray(density, dtype=complex)
        if coaction.system is None:
            phi = np.einsum("ab,iba->i", density, coaction.g.rep)
        else:
            phi = state_values_on_basis(coaction.system, density)
        element = coaction.slice_carrier(coords, phi)
        best = max(best, lip.value(element))
    return best


def induced_lip_bracket(lip: CommutatorSeminorm, coaction: InducedCoaction, x,
                        samples: int = 64, seed: int = 0) -> LipValueBracket:
    """Certified bracket on the induced value of a commutator seminorm.

    lower: best sampled-state slice value.  upper: expand the slice over the
    system basis; each basis coefficient is a state value bounded by the
    numerical radius of the basis element.
    """
    if coaction.system is None:
        raise UnsupportedSeminormError("brackets are computed on truncated systems")
    ts = coaction.system
    coords = _carrier_coords(coaction, x)
    rng = np.random.default_rng(seed)
    lower = 0.0
    for _ in range(samples):
        phi = state_values_on_basis(ts, random_density(ts.rank, rng))
        lower = max(lower, lip.value(coaction.slice_carrier(coords, phi)))

    if coaction.side == "right":
        slices = np.einsum("k,kml->ml", coords, coaction.tensor)    # per basis index m: element of A
    else:
        slices = np.einsum("k,klm->ml", coords, coaction.tensor)
    _, bounds = _radius_brackets(ts.sys_basis, 1e-8, None)
    upper = float(sum(bounds[m] * lip.value(slices[m]) for m in range(ts.dim_sys)))
    upper = max(upper, lower)
    return LipValueBracket(lower=float(lower), upper=upper, method="sampled-states/basis-expansion")


# ---------------------------------------------------------------------------
# invariance upgrades and checks on the algebra itself
# ---------------------------------------------------------------------------

def invariant_upgrade(lip: PolyhedralSeminorm, g: FiniteQuantumGroup, side: str = "right",
                      tol: float = W_TOL):
    """Evaluator of the invariant upgrade of a seminorm.

    side "right": a -> sup over states of L((id (x) mu) Delta a), computed as
    max_i w(rho((l_i (x) id) Delta a)) / c_i; "left" mirrors it; "bi" takes
    the max of both.
    """
    if side not in ("right", "left", "bi"):
        raise ValueError(f"side must be 'right', 'left' or 'bi', got {side!r}")

    def evaluate(a) -> float:
        delta = g.coproduct(a)
        vals = []
        if side in ("right", "bi"):
            sliced = lip.functionals @ delta              # (m, n): (l_i (x) id) Delta a
            mats = np.einsum("ml,lpq->mpq", sliced, g.rep)
            vals.append(max_numerical_radius(mats, lip.weights, tol))
        if side in ("left", "bi"):
            sliced = delta @ lip.functionals.T            # (n, m) -> transpose
            mats = np.einsum("lm,lpq->mpq", sliced, g.rep)
            vals.append(max_numerical_radius(mats, lip.weights, tol))
        return float(max(vals))

    return evaluate


def check_invariance(lip: PolyhedralSeminorm, g: FiniteQuantumGroup, side: str = "right",
                     samples: int = 50, seed: int = 0, tol: float = W_TOL) -> float:
    """Largest positive violation of coaction invariance found.

    Combines sampled-state slices L(slice) - L(a) with the exact check
    upgrade(a) <= L(a) on sampled elements (exact over states by the
    numerical-radius reduction).
    """
    rng = np.random.default_rng(seed)
    n = g.dim
    upgrade = invariant_upgrade(lip, g, side, tol)
    worst = 0.0
    for _ in range(samples):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        base = lip.value(a)
        density = random_state_density(g, rng)
        mu = np.array([np.trace(density @ g.rep[i]) for i in range(n)])
        delta = g.coproduct(a)
        if side in ("right", "bi"):
            worst = max(worst, lip.value(delta @ mu) - base)
        if side in ("left", "bi"):
            worst = max(worst, lip.value(mu @ delta) - base)
        worst = max(worst, upgrade(a) - base - 2 * tol)
    return float(worst)


# ---------------------------------------------------------------------------
# group-case seminorms on truncations of F(G)
# ---------------------------------------------------------------------------

def group_case_seminorms(g: FiniteQuantumGroup, ts: TruncatedSystem, x,
                         metric=None) -> tuple[float, float, float]:
    """(||x||_lambda, ||x||_rho, max) for a truncation of a function algebra.

    ||x||_lambda takes the finite max over group elements of
    ||U_g x U_g^* - x|| / d(g, e) with U the compressed left regular
    representation; ||x||_rho uses the right regular representation.
    """
    if g.kind != "function" or g.group_table is None:
        raise UnsupportedSeminormError("group-case seminorms require a function algebra F(G)")
    metric = g.metric if metric is None else metric
    if metric is None:
        raise MetricError("no metric stored on the algebra and none supplied")
    table = np.asarray(g.group_table)
    identity, inverse = groups.validate_cayley(table)
    n = g.dim
    x = np.asarray(x, dtype=complex)

    onb, frame = ts.gns.onb, ts.frame
    onb_inv = ts.gns.onb_inv
    lam_val, rho_val = 0.0, 0.0
    for k in range(n):
        if k == identity:
            continue
        left_perm = np.zeros((n, n))
        left_perm[table[k], np.arange(n)] = 1.0       # U_k Lambda(delta_h) ~ Lambda(delta_{kh})
        right_perm = np.zeros((n, n))
        right_perm[table[:, inverse[k]], np.arange(n)] = 1.0   # V_k: h -> h k^-1
        for perm, acc in ((left_perm, "lam"), (right_perm, "rho")):
            u_full = onb @ perm @ onb_inv
            u_c = frame.conj().T @ u_full @ frame
            block_res = _maxabs(u_full @ frame - frame @ u_c)
            if block_res > 1e-9:
                raise UnsupportedSeminormError(
                    f"regular representation does not preserve the truncation (residual {block_res:.2e})")
            moved = u_c @ x @ u_c.conj().T
            val = float(np.linalg.norm(moved - x, 2)) / float(metric[k, identity])
            if acc == "lam":
                lam_val = max(lam_val, val)
            else:
                rho_val = max(rho_val, val)
    return lam_val, rho_val, max(lam_val, rho_val)
