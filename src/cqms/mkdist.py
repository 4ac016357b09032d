"""Monge-Kantorovich distances, exactly or by linear programming, and the distance bounds.

d^L(mu, nu) = sup{|mu(x) - nu(x)| : L(x) <= 1} is solved over the self-adjoint
part (enough, since L is *-invariant and mu - nu is hermitian) after fixing
the free direction along the unit.  Three unit balls have closed forms with
no LP:

- a pure pair family on F(G), every row e_a - e_b: the ball is the set of
  functions that are 1-Lipschitz for the shortest-path metric sp of the row
  graph (``reduce_family``), so by Kantorovich duality the distance from a
  measure mu to a point mass delta_b is sum_a |mu(a)| sp(a, b) and the
  diameter of the state space is max sp, each with a forward roundoff charge;
- a product of intervals and discs in some linear coordinates, as for the
  coefficient Lip-norm on C*(G): the supremum is a closed-form sum with a
  certified optimizer, and the box containment of the diameter takes it too.

Otherwise (two general measures on F(G), ``file:`` and mixed families)
real-valued family functionals give an exact polyhedral ball, and
complex-valued ones give disc constraints handled by certified outer tangent
cuts refined until the bracket closes.

Every Gromov-Hausdorff type output is a labeled bound: ``truncation_bound``
is an upper bound, sampled quantities are lower bounds.  Exact values of the
distance infima are never claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .compress import TruncatedSystem, pullback_state
from .errors import CertificationError, DegenerateKernelError
from .hopf import (FiniteQuantumGroup, Functional, State, _maxabs, _orthonormalize, _readonly,
                   counit_state, spectral_norms)
from .lipnorm import (EPS, ORBIT_RTOL, LipValueBracket, PolyhedralSeminorm, check_invariance,
                      reduce_family)
from .sampling import basis_vector_state, random_elements, random_state
from .simplex import LPProblem, solve_lp

LP_TOL = 1e-9


# ---------------------------------------------------------------------------
# self-adjoint coordinates
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def sa_basis(g: FiniteQuantumGroup) -> tuple[np.ndarray, np.ndarray]:
    """(unit, quotient) real-linear basis of the self-adjoint part.

    ``quotient`` has n - 1 rows, each self-adjoint with zero invariant-state
    value, so coordinates over it parametrize the self-adjoint part modulo
    the unit direction.  Cached per algebra object.
    """
    n = g.dim
    conj_mat = g.star.T
    a_re, a_im = conj_mat.real, conj_mat.imag
    # star(x + iy) = x + iy  <=>  [[A_re - I, A_im], [A_im, -A_re - I]] [x; y] = 0
    block = np.block([[a_re - np.eye(n), a_im], [a_im, -a_re - np.eye(n)]])
    _, sv, vh = np.linalg.svd(block)
    null_mask = sv <= 1e-10 * (sv[0] if len(sv) else 1.0)
    null = vh[int(np.sum(~null_mask)):].conj()
    basis = null[:, :n] + 1j * null[:, n:]
    if basis.shape[0] != n:
        raise CertificationError(f"self-adjoint space has real dimension {basis.shape[0]}, expected {n}")
    # project out the unit direction using the invariant state, then orthonormalize
    # over the reals by stacking [re | im]
    centered = np.array([b - complex(np.dot(g.haar, b)) * g.unit for b in basis])
    stacked = _orthonormalize(np.hstack([centered.real, centered.imag])).real
    if stacked.shape[0] != n - 1:
        raise CertificationError(
            f"unit-quotient of the self-adjoint part has dimension {stacked.shape[0]}, expected {n - 1}")
    return g.unit.astype(complex), stacked[:, :n] + 1j * stacked[:, n:]


@lru_cache(maxsize=32)
def _unit_ball(g: FiniteQuantumGroup, lip: PolyhedralSeminorm) -> tuple[np.ndarray, ...]:
    """(quotient, z, weights, product, radii, cuts, bounds, owner): the unit ball {L <= 1}.

    Built in quotient coordinates from the family's LP rows (``reduce_family``),
    whose ball contains the full family's and exceeds it by at most a factor
    1 + 4 eps.  Row i of ``z = functionals @ quotient.T`` bounds
    |z_i . t| <= weights[i].  A row is real when its imaginary part is zero up
    to roundoff, and a disc row otherwise.

    Product ball: drop each disc row that is the complex conjugate of an
    earlier disc row of equal weight (the same constraint), and stack
    ``product = [Re z_real; Re z_disc; Im z_disc]``.  When that matrix is
    square and well conditioned, s = product @ t is a change of coordinates in
    which the ball is the product of the intervals |s_i| <= radii[i] and the
    discs |(s_j, s_j')| <= radii[j], with ``radii = [w_real, w_disc]``.  This is
    the coefficient family of C*(G), one row per g != e: an involution gives
    an interval and a pair {g, g^-1} a disc.  Otherwise ``product`` is
    (0, n - 1) and ``radii`` empty.

    The outer polygon ``cuts @ t <= bounds`` serves the LP: each real row
    gives the cuts +-Re z_i, each disc row i gives 16 tangent cuts
    Re(e^{-i theta} z_i) <= weights[i].  ``owner`` names the disc row of each
    cut (-1 for real rows); cuts are grouped by increasing owner.  Checks the
    kernel and the unit once.  Cached per (algebra, family) pair, as
    read-only arrays.
    """
    family = reduce_family(g, lip)[0]
    defect = family.kernel_rank_defect(g.dim)
    if defect > 0:
        raise DegenerateKernelError(f"seminorm kernel exceeds the scalars (rank defect {defect})")
    unit_res = family.unit_residual(g.unit)
    if unit_res > 1e-10:
        raise CertificationError(f"seminorm family does not kill the unit (residual {unit_res:.2e})")
    _, quotient = sa_basis(g)
    z, weights = family.functionals @ quotient.T, family.weights
    size = np.maximum(1.0, np.max(np.abs(z), axis=1))
    real = np.max(np.abs(z.imag), axis=1) <= 1e-12 * size
    reals, discs = np.flatnonzero(real), np.flatnonzero(~real)

    # disc row i repeats an earlier disc row j when z_i = conj(z_j) and w_i = w_j
    gap = np.max(np.abs(z[discs, None, :] - z[None, discs, :].conj()), axis=2)
    repeat = (gap <= 1e-12 * size[discs, None]) & (weights[discs, None] == weights[None, discs])
    kept = discs[~np.any(np.tril(repeat, -1), axis=1)]
    product = np.vstack([z[reals].real, z[kept].real, z[kept].imag])
    radii = np.concatenate([weights[reals], weights[kept]])
    if product.shape[0] != quotient.shape[0] or not _well_conditioned(product):
        product, radii = product[:0], radii[:0]

    polygon = discs.repeat(16)
    signed = np.stack([z[reals].real, -z[reals].real], axis=1).reshape(2 * len(reals), z.shape[1])
    start = np.tile(np.arange(16) * np.pi / 8, len(discs))
    cuts = np.vstack([signed, _tangents(z[polygon], start)])
    bounds = np.concatenate([weights[reals].repeat(2), weights[polygon]])
    owner = np.concatenate([np.full(2 * len(reals), -1), polygon])
    return tuple(_readonly(np.array(a)) for a in (quotient, z, weights, product, radii,
                                                    cuts, bounds, owner))


def _well_conditioned(square: np.ndarray) -> bool:
    """Smallest singular value above 1e-8 of the largest."""
    sv = np.linalg.svd(square, compute_uv=False)
    return len(sv) > 0 and sv[-1] > 1e-8 * sv[0]


def _tangents(rows: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """The tangent cuts Re(e^{-i theta_k} z_k) of the discs |z_k . t| <= w_k."""
    return np.real(np.exp(-1j * angles)[:, None] * rows)


# ---------------------------------------------------------------------------
# the distance LP
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MKResult:
    value: float
    element: np.ndarray          # optimizer in A-coordinates, L(element) <= 1
    lp_iterations: int
    refinement_rounds: int
    gap: float                   # value - gap is a lower bound; 0 unless the disc bracket stays open


def mk_distance(g: FiniteQuantumGroup, lip: PolyhedralSeminorm, mu, nu,
                return_result: bool = False):
    """sup{|mu(x) - nu(x)| : L(x) <= 1} up to LP_TOL, exactly or by certified LP.

    As the simplex does, an objective with max|c| <= LP_TOL gives 0, so the
    full level of a chain reads exactly 0.  ``lp_iterations``,
    ``refinement_rounds`` and ``gap`` are 0 unless the LP runs.

    Point mass on F(G): when the LP family (``reduce_family``) is a pure pair
    family on a function algebra and one argument is a point mass delta_b,
    the value is ``_transport_to_point``'s, attained at sp(., b).

    Product ball (see ``_unit_ball``): solve product^T y = c once, and the
    value is the sum of |y_i| radii[i] over the intervals and
    |(y_j, y_j')| radii[j] over the discs, attained at t = product^-1 s* for
    the extreme point s* that y picks.  The certificate scales t into the
    ball of every LP row, max_i |z_i . t| / w_i <= 1, and requires c . t to
    match the value to 1e-12 max(1, value).

    Otherwise the dense LP runs over the outer polygon.  Purely polyhedral
    constraint families solve exactly (up to solver roundoff); disc
    constraints report the outer-approximation optimum, which never
    undershoots the supremum and exceeds it by at most a relative LP_TOL, or,
    when 80 rounds or a failed LP certificate leave the bracket open, by at
    most its width ``gap``.
    Every optimizer is rescaled until ``lip.value(element)`` is at most
    1 - 4 (n + 2) eps max_i (|f_i| . |element|) / w_i, a bound on the
    roundoff of ``lip.value``, so that L(element) <= 1 holds in exact
    arithmetic; rounding, and the LP's reduced family, can leave the raw
    optimizer a few ulps outside.  The last steps shrink the optimizer by a
    relative 2^-50, doubling each time: a fixed ulp step can leave the
    difference of two large, nearly equal entries (as in sp(., b)) unchanged.
    """
    mu_c = mu.coeffs if isinstance(mu, Functional) else np.asarray(mu, dtype=complex)
    nu_c = nu.coeffs if isinstance(nu, Functional) else np.asarray(nu, dtype=complex)
    quotient, z, weights, product, radii, cuts, bounds, owner = _unit_ball(g, lip)
    family, _, metric, _ = reduce_family(g, lip)
    w = mu_c - nu_c

    objective = np.real(quotient @ w)
    herm_res = _maxabs(np.imag(quotient @ w))
    if herm_res > 1e-8 * max(1.0, _maxabs(w)):
        raise CertificationError(f"mu - nu is not hermitian (imaginary part {herm_res:.2e})")

    iterations, rounds, gap = 0, 0, 0.0
    point = -1 if metric is None else max(_point_mass(nu_c), _point_mass(mu_c))
    if _maxabs(objective) <= LP_TOL:
        element = np.zeros(g.dim, dtype=complex)
        value = 0.0
    elif point >= 0:
        value = _transport_to_point(metric, len(family.weights), w, point)
        element = metric[:, point].astype(complex)
    else:
        if len(radii):
            value, t = _product_support(product, radii, z, weights, objective)
        else:
            value, t, iterations, rounds, gap = _refined_lp(z, weights, cuts, bounds, owner, objective)
        element = quotient.T @ t

    # lip.value errs by less than 1 - limit, so a value <= limit gives L(element) <= 1 exactly
    reach = np.abs(lip.functionals) @ np.abs(element) / lip.weights
    limit = 1.0 - 4 * (g.dim + 2) * EPS * float(np.max(reach, initial=0.0))
    scale = lip.value(element)
    if scale > limit:
        element = element * (limit / scale)
        step = 2.0 ** -50
        while lip.value(element) > limit:       # the product rounds; step down, doubling the step
            element = element * (1.0 - step)
            step *= 2
    if return_result:
        return MKResult(value=value, element=element, lp_iterations=iterations,
                        refinement_rounds=rounds, gap=gap)
    return value


def _point_mass(coeffs) -> int:
    """b when coeffs is exactly the point mass delta_b (e_b), else -1."""
    support = np.flatnonzero(coeffs)
    return int(support[0]) if len(support) == 1 and coeffs[support[0]] == 1 else -1


def _transport_to_point(metric, edges: int, w, b: int) -> float:
    """A certified upper end of sup{|w . f| : f 1-Lipschitz for the exact metric, h(f) = 0}.

    ``w`` is mu - delta_b, ``metric`` the computed shortest kept-path matrix
    over ``edges`` pair rows, and h the invariant state.  Writing
    f = (f - f(b)) + f(b), with |f(a) - f(b)| <= sp(a, b) and
    |f(b)| = |f(b) - h(f)| <= max_a sp(a, b), gives

        |w . f| <= sum_{a != b} |mu(a)| sp(a, b) + |sum_a w_a| max_a sp(a, b),

    attained by f = sp(., b) when mu >= 0 has mass 1 (Kantorovich duality).
    |mu| covers the tiny negative masses of a computed pullback.  Roundoff:
    a computed entry is at least (1 - u)^{4 edges} times the exact sp
    (``lipnorm._triangle_kept``), the n products and their sum of
    nonnegative terms add gamma_{n+1}, and ``math.fsum`` rounds the mass
    once; the sum is charged (n + 4 edges + 4) eps of itself, which covers
    these with a factor above 2 (u = eps / 2).
    """
    column = metric[:, b]
    mass = np.abs(w)
    mass[b] = 0.0
    defect = abs(math.fsum(w.real)) + abs(math.fsum(w.imag))
    total = float(mass @ column) + defect * float(np.max(column))
    return total * (1.0 + (len(w) + 4 * edges + 4) * EPS)


def _product_support(product, radii, z, weights, objective) -> tuple[float, np.ndarray]:
    """(value, t): the certified supremum of objective . t over a product ball, and its optimizer."""
    y = np.linalg.solve(product.T, objective)
    discs = len(product) - len(radii)
    reals = len(radii) - discs
    planar = y[reals:].reshape(2, discs)
    moduli = np.hypot(planar[0], planar[1])
    value = float(np.abs(y[:reals]) @ radii[:reals] + moduli @ radii[reals:])
    # the extreme point y picks: a sign per interval, the direction of y per disc
    unit = np.divide(planar, moduli, out=np.zeros_like(planar), where=moduli > 0)
    extreme = np.concatenate([np.sign(y[:reals]) * radii[:reals], (unit * radii[reals:]).ravel()])
    t = np.linalg.solve(product, extreme)
    t /= max(1.0, float(np.max(np.abs(z @ t) / weights)))
    primal = float(objective @ t)
    if abs(value - primal) > 1e-12 * max(1.0, value):
        raise CertificationError(f"product-ball certificate fails: primal {primal!r}, dual {value!r}")
    return value, t


def _refined_lp(z, weights, cuts, bounds, owner, objective):
    """(value, t, iterations, rounds, gap): the LP over the outer polygon, discs refined until
    closed or for 80 rounds; t / ratio lies in every disc, so value - gap = value / ratio.

    When a later round's LP fails its certificate, as near-parallel tangent cuts pile
    up, the last certified round's outer optimum comes back with its open bracket."""
    # the rows that own cuts; np.unique would import numpy.ma (~1.8 MB resident)
    discs = np.flatnonzero(np.bincount(owner + 1, minlength=len(weights) + 1)[1:])
    rounds = 0
    while True:
        solution = solve_lp(LPProblem(objective=objective, inequalities=cuts, bounds=bounds))
        if solution.status == "unbounded":
            raise DegenerateKernelError("distance LP is unbounded; the seminorm is degenerate")
        try:
            solution.certify()
        except CertificationError:
            if not rounds:
                raise
            rounds -= 1
            break
        certified, t = solution, solution.x
        vals = (z @ t)[discs]
        ratio = np.max(np.abs(vals) / weights[discs], initial=1.0)
        upper = solution.value
        gap = upper - upper / ratio
        if gap <= LP_TOL * max(1.0, abs(upper)):
            gap = 0.0
            break
        if rounds == 80:
            break
        rounds += 1
        # one tangent at the optimum per touched disc, kept after its disc's earlier cuts
        hit = np.abs(vals) > weights[discs] * (1 - 1e-12)
        touched = discs[hit]
        cuts = np.vstack([cuts, _tangents(z[touched], np.angle(vals[hit]))])
        bounds = np.concatenate([bounds, weights[touched]])
        owner = np.concatenate([owner, touched])
        order = np.argsort(owner, kind="stable")
        cuts, bounds, owner = cuts[order], bounds[order], owner[order]
    return max(certified.value, 0.0), t, certified.iterations, rounds, gap


# ---------------------------------------------------------------------------
# the truncation bound and the diameter
# ---------------------------------------------------------------------------

def truncation_bound(g: FiniteQuantumGroup, ts: TruncatedSystem, lip: PolyhedralSeminorm,
                     density: np.ndarray, check_invariant: bool = True, seed: int = 0) -> float:
    """B(Lambda, phi) = 2 d^L(tau* phi, counit), the certified truncation bound.

    The bi-invariance gate first takes the bound that ``reduce_family`` proves
    (its drift: 0 for exactly invariant pair weights on F(G) and for rows that
    each read one coordinate of C*(G)); any other family is checked by
    sampling (``check_invariance``), which can refute bi-invariance but never
    prove it.
    """
    if check_invariant:
        violation = reduce_family(g, lip)[3]
        if violation > ORBIT_RTOL:
            violation = check_invariance(lip, g, side="bi", samples=12, seed=seed, tol=1e-7)
        if violation > 1e-6:
            raise CertificationError(
                f"Lip-norm is not bi-invariant (sampled violation {violation:.2e})")
    pulled = pullback_state(ts, density)
    eps = counit_state(g)
    return 2.0 * mk_distance(g, lip, pulled, eps)


def diameter_bracket(g: FiniteQuantumGroup, lip: PolyhedralSeminorm, samples: int = 20,
                     seed: int = 0) -> LipValueBracket:
    """Bracket on the diameter of the state space under d^L.

    Pure pair family on F(G): point masses are the extreme states and
    d^L(delta_a, delta_b) = sp(a, b), so the diameter is max sp.  The bracket
    is the computed maximum scaled by 1 -+ (4 m + 8) eps, for m kept pair
    rows: an entry of ``reduce_family``'s metric is within a factor
    (1 +- u)^{4m} of a kept path's exact weight (``lipnorm._triangle_kept``),
    and the kept rows' ball exceeds the full family's by at most a factor
    1 + 4 eps.

    Otherwise, lower: max of value - gap over sampled state pairs (coordinate
    vector states first, then random states).  upper: twice a certified
    radius bound, by vertex enumeration of the unit ball in low dimension and
    by the coordinate-wise dual-norm box containment otherwise, whose support
    along each coordinate is ``_product_support``'s closed form on a product
    ball and an LP over the outer polygon elsewhere.
    """
    quotient, z, weights, product, radii, cuts, bounds, owner = _unit_ball(g, lip)
    family, _, metric, _ = reduce_family(g, lip)
    if metric is not None:
        diameter = float(np.max(metric))
        charge = (4 * len(family.weights) + 8) * EPS
        return LipValueBracket(lower=diameter * (1 - charge), upper=diameter * (1 + charge),
                               method="exact/shortest-path")
    rng = np.random.default_rng(seed)
    d0 = g.rep.shape[1]
    states: list[State] = [basis_vector_state(g, i) for i in range(min(d0, samples))]
    while len(states) < samples:
        states.append(random_state(g, rng))
    lower = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            result = mk_distance(g, lip, states[i], states[j], return_result=True)
            lower = max(lower, result.value - result.gap)

    q_dim = quotient.shape[0]
    upper = None
    method = ""
    if np.all(owner < 0) and q_dim <= 3 and len(bounds) <= 120:
        vertices = _enumerate_vertices(cuts, bounds)
        if vertices is not None and len(vertices):
            radius = 0.0
            for t in vertices:
                mat = g.rho_of(quotient.T @ t)
                eigs = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
                radius = max(radius, float(eigs[-1] - eigs[0]) / 2)
            upper = 2 * radius
            method = "sampled-pairs/vertex-enumeration"
    if upper is None:
        # box containment: |t_k| <= dual norm of the k-th coordinate functional
        radius = 0.0
        for k in range(q_dim):
            obj = np.zeros(q_dim)
            obj[k] = 1.0
            if len(radii):      # the product ball is symmetric: one support per coordinate
                reach = _product_support(product, radii, z, weights, obj)[0]
            else:
                reach = max(_support_lp(g, lip, obj), _support_lp(g, lip, -obj))
            mat = g.rho_of(quotient[k])
            eigs = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
            radius += reach * float(eigs[-1] - eigs[0]) / 2
        upper = 2 * radius
        method = "sampled-pairs/dual-norm-box"
    upper = max(upper, lower)
    return LipValueBracket(lower=lower, upper=upper, method=method)


def _support_lp(g, lip, objective) -> float:
    cuts, bounds = _unit_ball(g, lip)[5:7]
    solution = solve_lp(LPProblem(objective=objective, inequalities=cuts, bounds=bounds))
    if solution.status != "optimal":
        raise DegenerateKernelError("support LP unbounded; the seminorm is degenerate")
    solution.certify()
    return float(solution.value)


def _enumerate_vertices(rows: np.ndarray, rhs: np.ndarray):
    """All vertices of {t : rows t <= rhs} in dimension <= 3."""
    from itertools import combinations

    m, d = rows.shape
    vertices = []
    for combo in combinations(range(m), d):
        sub = rows[list(combo)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        t = np.linalg.solve(sub, rhs[list(combo)])
        if np.all(rows @ t <= rhs + 1e-9):
            vertices.append(t)
    return vertices


# ---------------------------------------------------------------------------
# matrix-state distances
# ---------------------------------------------------------------------------

def matrix_mk_lower_bound(g: FiniteQuantumGroup, lip: PolyhedralSeminorm, order: int,
                          mu_blocks, nu_blocks, samples: int = 100, seed=0) -> float:
    """Sampled lower bound of the matrix-state distance d^{L, order}.

    mu_blocks, nu_blocks: (n, order, order) arrays of the values on the basis,
    or (k, n, order, order) stacks of k pairs with one seed each in ``seed``.
    Returns max ||mu(x) - nu(x)|| / L(x) over ``samples`` self-adjoint
    elements drawn for each pair from its own seed, over all pairs.
    """
    if order < 1:
        raise ValueError("matrix order must be at least 1")
    seeds = np.atleast_1d(seed)
    gap_blocks = (np.asarray(mu_blocks, dtype=complex) - np.asarray(nu_blocks, dtype=complex)).reshape(
        len(seeds), g.dim, order * order)
    draws = np.stack([random_elements(g, np.random.default_rng(s), samples) for s in seeds])
    xs = (draws + draws.conj() @ g.star) / 2          # the self-adjoint parts, a* = star^t conj(a)
    lx = lip.value(xs.reshape(-1, g.dim)).reshape(xs.shape[:2])
    keep = lx >= 1e-12
    gaps = (xs @ gap_blocks)[keep].reshape(-1, order, order)
    return float(np.max(spectral_norms(gaps) / lx[keep], initial=0.0))
