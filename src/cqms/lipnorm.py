"""Seminorm representations and Lip-norm computations.

Seminorms are polyhedral, L(a) = max_i |l_i(a)| / c_i: the supremum over
states that defines an induced Lip-norm reduces, after extending states to
the containing matrix algebra, to a numerical radius per functional.  Each
radius starts from Kittaneh's bracket ||M||/2 <= w(M) <= (||M|| +
||M^2||^{1/2})/2, which settles square-zero matrices, and is otherwise
certified by a cutting-plane maximization of the support function over
rotation angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import groups
from .compress import InducedCoaction, TruncatedSystem, comultiplication_coaction
from .errors import LengthError, MetricError, UnsupportedSeminormError
from .hopf import FiniteQuantumGroup, _maxabs, _rank, _readonly, spectral_norms
from .sampling import random_elements

W_TOL = 1e-6
EPS = float(np.finfo(float).eps)
RADIUS_BLOCK = 1 << 13         # complex entries per stacked eigensolve of the support values
ORBIT_RTOL = 1e-12             # translation drift up to which a pair family counts as bi-invariant


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

    def value(self, a):
        """L(a), or the (k,) values of a (k, n) stack of elements."""
        a = np.asarray(a, dtype=complex)
        return np.max(np.abs(self.functionals @ a.T).T / self.weights, axis=-1, initial=0.0)

    def kernel_rank_defect(self, n: int | None = None) -> int:
        """0 iff ker L = C 1 (given that every functional kills the unit)."""
        n = n if n is not None else self.functionals.shape[1]
        return int((n - 1) - _rank(self.functionals))

    def unit_residual(self, unit) -> float:
        return _maxabs(self.functionals @ np.asarray(unit, dtype=complex))


@dataclass(frozen=True)
class LipValueBracket:
    lower: float
    upper: float
    method: str = ""

    def __post_init__(self):
        if self.lower > self.upper + 1e-12:
            raise ValueError(f"bracket is inverted: [{self.lower}, {self.upper}]")


# ---------------------------------------------------------------------------
# constructors for the built-in families
# ---------------------------------------------------------------------------

def lip_from_metric(g: FiniteQuantumGroup) -> PolyhedralSeminorm:
    """Lipschitz constant of the bi-invariant metric stored on a function algebra.

    Family {(ev_g - ev_h, d(g, h))} over unordered pairs; the kernel is the
    constants by connectedness of the metric.
    """
    if g.kind != "function" or g.group_table is None:
        raise UnsupportedSeminormError("metric Lip-norms require a function algebra F(G)")
    if g.metric is None:
        raise MetricError("no metric stored on the algebra")
    groups.check_metric(g.group_table, g.metric)
    n = g.dim
    funcs, weights = [], []
    for a in range(n):
        for b in range(a + 1, n):
            f = np.zeros(n, dtype=complex)
            f[a], f[b] = 1.0, -1.0
            funcs.append(f)
            weights.append(float(g.metric[a, b]))
    return PolyhedralSeminorm(functionals=np.array(funcs), weights=np.array(weights),
                              label="metric-lip")


def lip_fourier(g: FiniteQuantumGroup) -> PolyhedralSeminorm:
    """Coefficient Lip-norm L(x) = max_{g != e} l(g) |h(lambda_g^* x)| on C*(G), l stored on g."""
    if g.kind != "group" or g.group_table is None:
        raise UnsupportedSeminormError("Fourier Lip-norms require a group algebra C*(G)")
    if g.length is None:
        raise LengthError("no length stored on the algebra")
    groups.check_length(g.group_table, g.length)
    identity, inverse = groups.validate_cayley(g.group_table)
    ell = np.asarray(g.length, dtype=float)
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
# reducing a family once for all consumers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def reduce_family(g: FiniteQuantumGroup, lip: PolyhedralSeminorm
                  ) -> tuple[PolyhedralSeminorm, PolyhedralSeminorm, np.ndarray | None, float]:
    """(lp_family, radius_family, metric, drift): the rows each consumer needs, built once.

    A pair row is a row equal to +-(e_a - e_b).  The LP family drops a pair
    row when the pair rows kept so far, taken in order of increasing weight,
    already join a and b by a path of total weight at most w_ab (1 + 4 eps)
    (for a metric family: some c has d(a, c) + d(c, b) = d(a, b)).  Then
    |f(a) - f(b)| is at most the sum along the path, so
    L_pruned <= L_full <= (1 + 4 eps) L_pruned, with path weights summed in
    floating point.  The unit ball {L <= 1} can only grow, so distances and
    bound_B computed over it stay rigorous upper bounds.  Other rows are kept
    as they are, and the family itself comes back when nothing is dropped.

    The radius family serves induced_lip.  On F(G) with a pure pair family
    whose kept pairs and weights are invariant under left and right
    translation (``drift``, the LP family's ``_translation_drift``, at most
    ORBIT_RTOL) it is the kept rows through the identity, one per {k, k^-1}:
    translations act on P A P by unitaries (P projects onto Peter-Weyl
    summands), so the slice at (a, b) is a unitary conjugate of the slice at
    (e, a^-1 b) on the right and at (e, b a^-1) on the left, and the
    numerical radius does not see the conjugation.  Otherwise it is the LP
    family.  The invariance gate reads only the drift, since the radius
    family assumes the invariance the gate checks.

    On C*(G), where Delta(lambda_g) = lambda_g (x) lambda_g and |mu(lambda_g)| <= 1,
    a slice of a by a state mu on either side is the Fourier multiplier
    sum_g a_g mu(lambda_g) lambda_g.  So a family whose every row reads one
    coordinate has L(slice) <= L(a) exactly on both sides, and its drift is 0.

    ``metric`` is the (n, n) read-only matrix of shortest kept-path weights
    when the LP family is a pure pair family on F(G), else None.  Its unit
    ball is then exactly the set of functions that are 1-Lipschitz for this
    metric, which ``mkdist`` turns into closed forms.  The matrix is the one
    the pruning builds, with the rounding bound of ``_triangle_kept``.
    Cached per (algebra, family) pair.
    """
    ends = _pair_ends(lip.functionals)
    keep, path = _triangle_kept(ends, lip.weights, g.dim)
    lp_family = lip if keep.all() else PolyhedralSeminorm(
        functionals=lip.functionals[keep], weights=lip.weights[keep], label=lip.label)
    pure = g.kind == "function" and keep.any() and np.all(ends[keep] >= 0)
    multiplier = g.kind == "group" and np.all(np.count_nonzero(lip.functionals, axis=1) <= 1)
    drift = 0.0 if multiplier else _translation_drift(g, lp_family)
    radius_family = _orbit_family(g, lp_family) if pure and drift <= ORBIT_RTOL else lp_family
    return lp_family, radius_family, _readonly(path) if pure else None, drift


def _pair_ends(functionals) -> np.ndarray:
    """(a, b) for each row equal to e_a - e_b, and (-1, -1) for every other row."""
    plus, minus = functionals == 1, functionals == -1
    pair = ((plus.sum(axis=1) == 1) & (minus.sum(axis=1) == 1)
            & np.all(plus | minus | (functionals == 0), axis=1))
    ends = np.stack([plus.argmax(axis=1), minus.argmax(axis=1)], axis=1)
    ends[~pair] = -1
    return ends


def _triangle_kept(ends, weights, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(keep, path): the rows to keep, every pair row not joined by a shorter kept path,
    and the shortest kept-path weight between every two points (inf if none).

    Each kept row relaxes ``path`` twice, and each relaxation adds three
    nonnegative terms, so an entry is a floating sum along a walk of kept rows
    with at most 4 m roundings (m kept rows): it is at least (1 - u)^{4m} times
    that walk's exact weight, and so at least that factor times the exact
    shortest kept path (u = eps / 2).
    """
    keep = np.ones(len(weights), dtype=bool)
    path = np.full((n, n), np.inf)
    np.fill_diagonal(path, 0.0)
    for i in np.argsort(weights, kind="stable"):
        a, b = ends[i]
        if a < 0:
            continue
        w = weights[i]
        if path[a, b] <= w * (1 + 4 * EPS):
            keep[i] = False
            continue
        np.minimum(path, path[:, [a]] + w + path[[b], :], out=path)
        np.minimum(path, path[:, [b]] + w + path[[a], :], out=path)
    return keep, path


def _translation_drift(g: FiniteQuantumGroup, family: PolyhedralSeminorm) -> float:
    """The largest relative change of a pair family's weights under translation of F(G).

    On F(G), every row e_a - e_b, each translation h -> kh and h -> hk
    permutes the pairs, and drift = max |w(ka, kb) - w(a, b)| / w(a, b) over
    kept pairs and both sides (inf if some translate of a kept pair is not
    kept).  Then L(T a) <= (1 + drift) L(a) for every translate T a, and a
    slice (id (x) mu)Delta a or (mu (x) id)Delta a by a state mu is a convex
    combination of translates, so L(slice) <= (1 + drift) L(a): Li's
    bi-invariance up to the relative violation drift.  Exactly invariant
    weights, such as ``groups.arc_metric`` or a word length, give 0.  inf
    when the family is not a pure pair family on a function algebra.
    """
    ends = _pair_ends(family.functionals)
    if g.kind != "function" or g.group_table is None or not len(ends) or np.any(ends < 0):
        return np.inf
    table = np.asarray(g.group_table)
    groups.validate_cayley(table)
    weight = np.zeros((g.dim, g.dim))
    weight[ends[:, 0], ends[:, 1]] = weight[ends[:, 1], ends[:, 0]] = family.weights
    drift = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for perm in np.concatenate([table, table.T]):       # h -> kh, then h -> hk
            moved = np.abs(weight[np.ix_(perm, perm)] - weight)
            drift = max(drift, float(np.max(np.where(moved > 0, moved / weight, 0.0))))
    return drift


def _orbit_family(g: FiniteQuantumGroup, lp_family: PolyhedralSeminorm) -> PolyhedralSeminorm:
    """One row per translation orbit of a bi-invariant pair family on F(G)."""
    ends = _pair_ends(lp_family.functionals)
    identity, inverse = groups.validate_cayley(np.asarray(g.group_table))
    rows, seen = [], set()
    for i in np.flatnonzero(np.any(ends == identity, axis=1)):
        k = int(ends[i].sum()) - identity
        if k not in seen:
            rows.append(i)
            seen.update((k, int(inverse[k])))
    return PolyhedralSeminorm(functionals=lp_family.functionals[rows],
                              weights=lp_family.weights[rows], label=lp_family.label)


# ---------------------------------------------------------------------------
# numerical radius
# ---------------------------------------------------------------------------

def numerical_radius(m: np.ndarray, tol: float = W_TOL) -> float:
    """w(M) = max over angles of lambda_max(Re(e^{i theta} M)), within tol.

    Adaptive refinement over arcs of rotation angles; on each arc the
    sinusoid through the two endpoint support lines bounds the support
    function and certifies the error (see ``_radius_brackets``).
    """
    return max_numerical_radius(np.asarray(m, dtype=complex)[None, :, :], tol=tol)


def max_numerical_radius(stack: np.ndarray, weights=None, tol: float = W_TOL, group_ids=None,
                         offsets=None, scale: float = 0.0):
    """max_i w(stack[i]) / weights[i] within tol.

    Refinement prunes every matrix whose certified upper bound already falls
    below the best lower bound, so only near-maximal matrices are resolved.
    With ``group_ids`` (one index in 0..k-1 per matrix, every index used) the
    maximum is taken per group and returned as a (k,) array; a group prunes
    only its own matrices, so each value is the one its own call returns.
    With ``group_ids`` and ``offsets`` (one per group) it returns the float
    max_k (offsets[k] - scale * value_k), scale >= 0, and resolves only the
    groups that can attain it (``_radius_brackets``): the value is the max of
    offsets - scale * (midpoint of each group's bracket), within scale * tol / 2
    of the true maximum and within scale * tol of the one from the (k,) values.
    """
    stack = np.asarray(stack, dtype=complex)
    if group_ids is None and stack.shape[0] == 0:
        return 0.0
    weights = np.ones(stack.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    if offsets is not None:
        offsets = np.asarray(offsets, dtype=float)
    lower, upper = _radius_brackets(stack, tol * weights, weights, group_ids, offsets, scale)
    if group_ids is None:
        return float((np.max(lower / weights) + np.max(upper / weights)) / 2)
    values = _group_mid(lower / weights, upper / weights, group_ids)
    if offsets is None:
        return values
    return float(np.max(offsets - scale * values, initial=-np.inf))


def _group_max(values, group_ids, count: int) -> np.ndarray:
    """The largest value of each group 0..count-1 (-inf for a group with no member)."""
    best = np.full(count, -np.inf)
    np.maximum.at(best, group_ids, values)
    return best


def _group_mid(lower, upper, group_ids) -> np.ndarray:
    """The midpoint of each group's bracket [max lower, max upper]."""
    count = int(np.max(group_ids, initial=-1)) + 1
    return (_group_max(lower, group_ids, count) + _group_max(upper, group_ids, count)) / 2


def _radius_brackets(stack, tols, prune_weights, group_ids=None, offsets=None, scale=0.0):
    """Per-matrix brackets [lower, upper] with upper - lower <= tols[i].

    Every matrix starts from Kittaneh's bracket (Studia Math. 158 (2003)
    11-17), ||M||/2 <= w(M) <= ceiling = min(||M||, (||M|| + ||M^2||^{1/2})/2),
    with ||M^2|| bounded by the Frobenius norm of the computed square plus
    its roundoff, so square-zero matrices settle without an eigensolve.  A
    matrix whose spectral radius is within tol of its norm also takes rho(M)
    as lower end, from rho(M) <= w(M) <= ||M||.  Every other matrix is
    refined over arcs of rotation angles.  The first wave has the 4 arcs
    between 0, pi/2, pi and 3 pi/2; every matrix still live after it takes
    the 4 odd multiples of pi/4, which gives 8 arcs of width pi/4.  Support
    values come in antipodal pairs, f(theta) and f(theta + pi) from one
    eigensolve (``_support_values_batch``), so that grid costs 4.  After it
    ``_arc_caps`` caps the support function on an arc, and a refined arc is
    split at the peak of its dominating sinusoid, kept within the middle
    three quarters of the arc.  lower is the largest of ||M||/2, rho(M) and
    the support values; upper is the largest arc cap clipped at ceiling,
    including arcs dropped unrefined, and never below lower.

    Pruning stops a matrix early, with a valid but wider bracket.  Within a
    group (``group_ids``, default one group) a matrix stops once it provably
    cannot attain the max of v_i = w_i / prune_weights_i over its group; a
    matrix alone in its group refines until its own bracket closes.  With
    ``offsets`` (one per group) the brackets serve max_k (offsets[k] -
    scale V_k), V_k the max of v_i over group k, scale >= 0: from Kittaneh's
    bracket on, and after every wave, group k stops once offsets[k] - scale
    (max lower v over k) falls below max_j (offsets[j] - scale (max upper v
    over j)), since it cannot attain that maximum (``_outranked``).  The
    group that attains it is never stopped this way, so its bracket closes
    as without offsets.  Refinement state lives in parallel per-arc arrays,
    so each wave is one pass over the whole stack.
    """
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim != 3 or (stack.shape[0] and stack.shape[1] != stack.shape[2]):
        raise ValueError(f"expected a stack of square matrices, got {stack.shape}")
    count = stack.shape[0]
    tols = np.broadcast_to(np.asarray(tols, dtype=float), (count,))
    group_ids = np.zeros(count, dtype=int) if group_ids is None else np.asarray(group_ids, dtype=int)
    if not stack.size:
        return np.zeros(count), np.zeros(count)
    groups_count = int(group_ids.max()) + 1
    nrm = spectral_norms(stack)
    frob = np.linalg.norm(stack, axis=(1, 2))
    # ||fl(M M) - M M||_F <= d eps ||M||_F^2 bounds the roundoff of the square
    square = np.linalg.norm(stack @ stack, axis=(1, 2)) + stack.shape[1] * EPS * frob ** 2
    ceiling = np.minimum(nrm, (nrm + np.sqrt(square)) / 2)
    lower, upper = nrm / 2, ceiling.copy()
    mh = stack.conj().transpose(0, 2, 1)
    drift = np.max(np.abs(stack @ mh - mh @ stack), axis=(1, 2))
    near = (nrm <= tols) | (drift <= 1e-13 * nrm ** 2)     # candidates for rho(M) ~ ||M||
    lower[near] = np.maximum(lower[near], np.max(np.abs(np.linalg.eigvals(stack[near])), axis=1))
    active = upper - lower > tols
    if offsets is not None:
        active &= ~_outranked(lower, upper, prune_weights, group_ids, offsets, scale)

    grid = np.linspace(0.0, 2 * np.pi, 9)
    todo = np.flatnonzero(active)
    vals = _grid_values(stack, todo, grid[[0, 2]])       # f at 0, pi/2, pi, 3 pi/2
    lower[todo] = np.maximum(lower[todo], np.max(vals, axis=1))
    owner = np.repeat(todo, 4)
    lo, hi = np.tile(grid[:-1:2], len(todo)), np.tile(grid[2::2], len(todo))
    flo, fhi = vals.ravel(), np.roll(vals, -1, axis=1).ravel()      # f(2 pi) = f(0)
    dropped = np.full(count, -np.inf)      # bounds of arcs left unrefined
    coarse = True                          # the arcs are the pi/2 grid
    while active.any():
        caps, peaks = _arc_caps(lo, hi, flo, fhi)
        caps = np.minimum(caps, ceiling[owner])
        cap = _group_max(caps, owner, count)
        upper[active] = cap[active]
        best = _group_max(lower / prune_weights, group_ids, groups_count)
        done = (cap - lower <= tols) | (cap / prune_weights <= best[group_ids])
        if offsets is not None:
            done |= _outranked(lower, np.maximum(upper, dropped), prune_weights, group_ids,
                               offsets, scale)
        active &= ~done
        live = active[owner]
        if coarse:              # a live matrix splits all 4 arcs at the odd multiples of pi/4
            split, coarse = live, False
            mats = owner[split][::4]
            cut = np.tile(grid[1::2], len(mats))
            fcut = _grid_values(stack, mats, grid[[1, 3]]).ravel()
        else:
            split = live & (caps > lower[owner] + tols[owner] / 2)
            np.maximum.at(dropped, owner[live & ~split], caps[live & ~split])
            margin = (hi[split] - lo[split]) / 8
            cut = np.clip(peaks[split], lo[split] + margin, hi[split] - margin)
            fcut = _support_values_batch(stack, owner[split], cut)[:, 0]
        owner, lo, hi, flo, fhi = owner[split], lo[split], hi[split], flo[split], fhi[split]
        np.maximum.at(lower, owner, fcut)
        owner = np.concatenate([owner, owner])
        lo, hi = np.concatenate([lo, cut]), np.concatenate([cut, hi])
        flo, fhi = np.concatenate([flo, fcut]), np.concatenate([fcut, fhi])
    return lower, np.maximum(np.maximum(upper, dropped), lower)


def _outranked(lower, upper, prune_weights, group_ids, offsets, scale) -> np.ndarray:
    """Per matrix: whether its group k provably cannot attain max_k (offsets[k] - scale V_k),
    V_k the max of w_i / prune_weights_i over group k, from brackets [lower, upper] on each w_i."""
    count = len(offsets)
    reach = offsets - scale * _group_max(lower / prune_weights, group_ids, count)
    floor = np.max(offsets - scale * _group_max(upper / prune_weights, group_ids, count))
    return (reach < floor)[group_ids]


def _grid_values(stack, mats, thetas) -> np.ndarray:
    """(len(mats), 2 len(thetas)): f at thetas, then at thetas + pi, for each listed matrix."""
    k, t = len(mats), len(thetas)
    pairs = _support_values_batch(stack, np.repeat(mats, t), np.tile(thetas, k))
    return pairs.reshape(k, t, 2).transpose(0, 2, 1).reshape(k, 2 * t)


def _support_values_batch(stack, owners, thetas) -> np.ndarray:
    """(f(theta), f(theta + pi)) for paired (owner, theta), as a (len, 2) array.

    f(theta) = lambda_max(Re(e^{i theta} M_owner)).  Re(e^{i (theta + pi)} M)
    = -Re(e^{i theta} M), so f(theta + pi) = -lambda_min, from the same
    eigensolve.  Evaluated in blocks of RADIUS_BLOCK matrix entries, so the
    temporaries stay small however many arcs a wave refines.
    """
    owners = np.asarray(owners, dtype=int)
    phases = np.exp(1j * np.asarray(thetas, dtype=float))
    out = np.empty((len(owners), 2))
    step = max(1, RADIUS_BLOCK // max(1, stack.shape[-1] ** 2))
    for start in range(0, len(owners), step):
        part = slice(start, start + step)
        rotated = phases[part, None, None] * stack[owners[part]]
        hs = 0.5 * (rotated + np.conj(np.transpose(rotated, (0, 2, 1))))
        eigs = np.linalg.eigvalsh(hs)
        out[part, 0], out[part, 1] = eigs[:, -1], -eigs[:, 0]
    return out


def _arc_caps(lo, hi, f_lo, f_hi) -> tuple[np.ndarray, np.ndarray]:
    """(cap, peak) per arc: a bound for max f over the arc, and where to split it.

    The support lines at the two endpoints meet at an apex z*.  On an arc
    narrower than pi, e^{i theta} is a nonnegative combination of the two
    endpoint directions, so f(theta) <= Re(e^{i theta} z*) = |z*| cos(theta
    - peak).  The cap is that sinusoid's maximum over the arc: |z*| when its
    peak lies inside, else the larger endpoint value.  Arcs narrower than
    about 1e-15 are capped by the larger endpoint value.
    """
    width = hi - lo
    sw = np.sin(width)
    rise = f_hi - f_lo * np.cos(width)
    offset = np.arctan2(rise, f_lo * sw)      # peak - lo
    inside = (offset >= 0) & (offset <= width) & (sw >= 1e-15)
    with np.errstate(divide="ignore", invalid="ignore"):
        caps = np.where(inside, np.hypot(f_lo * sw, rise) / sw, np.maximum(f_lo, f_hi))
    return caps, lo + offset


# ---------------------------------------------------------------------------
# induced Lip-norms on coaction carriers
# ---------------------------------------------------------------------------

def induced_lip(lip: PolyhedralSeminorm, coaction: InducedCoaction, x, tol: float = W_TOL) -> float:
    """The coaction-induced Lip-norm of a carrier element, within tol.

    The supremum over states of the carrier reduces to a numerical radius per
    functional of the family's radius family (see ``reduce_family``): every
    state of the operator system extends to a state of the containing matrix
    algebra, where the supremum of |phi(.)| is the numerical radius.
    """
    return float(induced_lip_many(lip, coaction, _carrier_coords(coaction, x)[None], tol)[0])


def induced_lip_many(lip: PolyhedralSeminorm, coaction: InducedCoaction, rows,
                     tol: float = W_TOL) -> np.ndarray:
    """``induced_lip`` of each row of a (k, s) stack of carrier coordinates.

    Takes coordinate rows only, never matrices.  All k * m slices go to one
    ``max_numerical_radius`` call with one group per row, so each value is
    the one ``induced_lip`` returns for that row.
    """
    mats, weights, group_ids = _row_slices(lip, coaction, rows)
    return max_numerical_radius(mats, weights, tol, group_ids=group_ids)


def induced_lip_excess(lip: PolyhedralSeminorm, coaction: InducedCoaction, rows, offsets,
                       scale: float, tol: float = W_TOL) -> float:
    """max_k (offsets[k] - scale * induced_lip(rows[k])), within scale * tol; scale >= 0.

    All slices go to one ``max_numerical_radius`` call with one group per
    row and these offsets, so a row stops refining once it provably cannot
    attain the maximum.  The row that attains it is resolved to tol, so the
    value is within scale * tol of the one ``induced_lip_many`` gives.
    """
    mats, weights, group_ids = _row_slices(lip, coaction, rows)
    return max_numerical_radius(mats, weights, tol, group_ids, offsets, scale)


def _row_slices(lip: PolyhedralSeminorm, coaction: InducedCoaction, rows):
    """(matrices, weights, group_ids): the radius-family slices of each coordinate row,
    realized as matrices, with one group per row."""
    if not isinstance(lip, PolyhedralSeminorm):
        raise UnsupportedSeminormError("induced Lip-norms need a polyhedral seminorm")
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] != coaction.carrier_dim:
        raise ValueError(f"expected (k, {coaction.carrier_dim}) coordinate rows, got {rows.shape}")
    return _family_slices(reduce_family(coaction.g, lip)[1], coaction, rows)


def _family_slices(family: PolyhedralSeminorm, coaction: InducedCoaction, rows):
    """(matrices, weights, group_ids): the slices of each coordinate row by each
    functional of ``family``, realized as matrices, with one group per row."""
    m = len(family.weights)
    sliced = coaction.slice_states(rows, family.functionals)       # (k, m, s)
    mats = coaction.realize(sliced.reshape(-1, coaction.carrier_dim))
    return mats, np.tile(family.weights, len(rows)), np.repeat(np.arange(len(rows)), m)


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


# ---------------------------------------------------------------------------
# invariance upgrades and checks on the algebra itself
# ---------------------------------------------------------------------------

def invariant_upgrade(lip: PolyhedralSeminorm, g: FiniteQuantumGroup, side: str = "right",
                      tol: float = W_TOL):
    """Evaluator of the invariant upgrade of a seminorm.

    side "right": a -> sup over states of L((id (x) mu) Delta a), computed as
    max_i w(rho((l_i (x) id) Delta a)) / c_i over the family's LP rows
    (``reduce_family``); "left" mirrors it; "bi" takes the max of both.
    A (k, n) stack of elements gives the (k,) values, from one
    ``max_numerical_radius`` call per view with one group per element, so
    each value is the one that element alone gives.
    """
    if side not in ("right", "left", "bi"):
        raise ValueError(f"side must be 'right', 'left' or 'bi', got {side!r}")
    # the right upgrade slices Delta's first leg: the algebra leg of Delta's left coaction view
    views = [comultiplication_coaction(g, view) for view in
             {"right": ("left",), "left": ("right",), "bi": ("left", "right")}[side]]

    family = reduce_family(g, lip)[0]

    def evaluate(a):
        rows = np.asarray(a, dtype=complex).reshape(-1, g.dim)
        values = np.max([max_numerical_radius(mats, weights, tol, ids) for mats, weights, ids in
                         (_family_slices(family, co, rows) for co in views)], axis=0)
        return values if np.ndim(a) == 2 else float(values[0])

    return evaluate


def check_invariance(lip: PolyhedralSeminorm, g: FiniteQuantumGroup, side: str = "right",
                     samples: int = 50, seed: int = 0, tol: float = W_TOL) -> float:
    """Largest positive violation upgrade(a) - L(a) of coaction invariance found.

    The upgrade is exact over all states (the numerical-radius reduction), so
    no slice by a single state can exceed it; only the elements are sampled.
    A positive value refutes invariance, but 0 proves nothing about elements
    the samples missed.  Reads the LP family only: the orbit-reduced radius
    family assumes the invariance checked here.
    """
    elements = random_elements(g, np.random.default_rng(seed), samples)
    base = reduce_family(g, lip)[0].value(elements)
    worst = invariant_upgrade(lip, g, side, tol)(elements) - base - 2 * tol
    return float(np.max(worst, initial=0.0))


# ---------------------------------------------------------------------------
# group-case seminorms on truncations of F(G)
# ---------------------------------------------------------------------------

def group_case_seminorms(g: FiniteQuantumGroup, ts: TruncatedSystem, x) -> tuple[float, float, float]:
    """(||x||_lambda, ||x||_rho, max) for a truncation of a function algebra.

    ||x||_lambda takes the finite max over group elements of
    ||U_g x U_g^* - x|| / d(g, e) with U the compressed left regular
    representation and d the metric stored on g; ||x||_rho uses the right
    regular representation.
    """
    if g.kind != "function" or g.group_table is None:
        raise UnsupportedSeminormError("group-case seminorms require a function algebra F(G)")
    if g.metric is None:
        raise MetricError("no metric stored on the algebra")
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
            val = float(np.linalg.norm(moved - x, 2)) / float(g.metric[k, identity])
            if acc == "lam":
                lam_val = max(lam_val, val)
            else:
                rho_val = max(rho_val, val)
    return lam_val, rho_val, max(lam_val, rho_val)
