"""Independent reference computations the tests check the library against.

Kept deliberately separate from the library code paths: transport problems go
through scipy's LP, numerical ranges through dense sampling, convolutions
through direct group sums.
"""

import itertools
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog


def transport_distance(p, q, cost):
    """Min-cost transport between probability vectors by scipy's LP solver."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    c = cost.reshape(-1)
    a_eq = np.zeros((n + m, n * m))
    for i in range(n):
        a_eq[i, i * m:(i + 1) * m] = 1.0
    for j in range(m):
        a_eq[n + j, j::m] = 1.0
    b_eq = np.concatenate([p, q])
    res = linprog(c, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def brute_numerical_radius(m, trials=4000, seed=0):
    """Lower bound for w(M) from random unit vectors plus rotated eigenvectors."""
    rng = np.random.default_rng(seed)
    m = np.asarray(m, dtype=complex)
    d = m.shape[0]
    best = 0.0
    for theta in np.linspace(0, 2 * np.pi, 181):
        h = (np.exp(1j * theta) * m + np.exp(-1j * theta) * m.conj().T) / 2
        _, vecs = np.linalg.eigh(h)
        v = vecs[:, -1]
        best = max(best, abs(np.vdot(v, m @ v)))
    for _ in range(trials):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        v /= np.linalg.norm(v)
        best = max(best, abs(np.vdot(v, m @ v)))
    return best


def fejer_truncation_bound(n, window):
    """Closed form 2 sum_j |xi(j)|^2 d(j, 0) for the canonical state on F(Z_n).

    xi is the normalized projection of the point mass at 0 onto the chosen
    frequency window; d is the arc metric.
    """
    j = np.arange(n)
    kernel = np.zeros(n, dtype=complex)
    for m in window:
        kernel += np.exp(2j * np.pi * j * m / n)
    weights = np.abs(kernel) ** 2
    total = weights.sum()
    dist = (2 * np.pi / n) * np.minimum(j, n - j)
    return 2.0 * float(np.dot(weights, dist) / total)


def fourier_coefficient_distance(w, lengths, inverse):
    """Decoupled closed form for the coefficient Lip-norm distance on C*(G).

    sup over the product of discs |x_g| <= 1/l(g) of a hermitian functional:
    the discs decouple, so the supremum is a weighted sum of moduli over
    inverse pairs.
    """
    w = np.asarray(w, dtype=complex)
    total = 0.0
    seen = set()
    for g in range(len(w)):
        if lengths[g] <= 0 or g in seen:
            continue
        gi = int(inverse[g])
        seen.add(g)
        seen.add(gi)
        factor = 1.0 if gi == g else 2.0
        total += factor * abs(w[g]) / lengths[g]
    return total


def toeplitz_compression(f, n, window):
    """Direct Toeplitz construction of the compression of f on F(Z_n)."""
    f = np.asarray(f, dtype=complex)
    freqs = sorted(window)
    fhat = {m: np.mean(f * np.exp(-2j * np.pi * np.arange(n) * m / n)) for m in range(-n, n)}
    size = len(freqs)
    out = np.zeros((size, size), dtype=complex)
    for a in range(size):
        for b in range(size):
            out[a, b] = fhat[freqs[a] - freqs[b]]
    return out


def loop_radius_brackets(stack, tols, prune_weights):
    """The numerical-radius arc refinement with per-matrix Python arc lists.

    Same Kittaneh bracket, staged grid (the pi/2 arcs, then their midpoints
    for every matrix still live), antipodal support pairs, waves, arc caps,
    peak splits and decisions as ``lipnorm._radius_brackets``, one matrix and
    one arc at a time, so the batched bookkeeping must agree with it bit for
    bit.  ||M|| comes from the engine's kernel ``hopf.spectral_norms``, which
    ``test_spectral_norms_match_the_svd`` checks against the SVD.
    """
    from cqms.hopf import spectral_norms
    from cqms.lipnorm import EPS, _arc_caps, _support_values_batch

    count = len(stack)
    tols = np.broadcast_to(np.asarray(tols, dtype=float), (count,))
    lower, upper, dropped = np.zeros(count), np.zeros(count), np.full(count, -np.inf)
    ceiling = np.zeros(count)
    grid = np.linspace(0.0, 2 * np.pi, 9)
    arcs = {}
    for b, m in enumerate(stack):
        nrm = float(spectral_norms(m[None])[0])
        frob, sq = np.sqrt(np.sum((m.conj() * m).real)), m @ m
        square = np.sqrt(np.sum((sq.conj() * sq).real)) + len(m) * EPS * frob ** 2
        ceiling[b] = upper[b] = min(nrm, (nrm + np.sqrt(square)) / 2)    # Kittaneh
        lower[b] = nrm / 2
        mh = m.conj().T
        if nrm <= tols[b] or np.max(np.abs(m @ mh - mh @ m)) <= 1e-13 * nrm ** 2:
            lower[b] = max(lower[b], np.max(np.abs(np.linalg.eigvals(m))))    # rho(M) <= w(M)
        if upper[b] - lower[b] <= tols[b]:
            continue
        (f0, f180), (f90, f270) = _support_values_batch(stack, [b, b], grid[[0, 2]])
        v = [f0, f90, f180, f270]           # f(theta + pi) from the eigensolve at theta
        arcs[b] = [(grid[2 * i], grid[2 * i + 2], v[i], v[(i + 1) % 4]) for i in range(4)]
        lower[b] = max(lower[b], max(v))
    coarse = True
    while arcs:
        best = None if prune_weights is None else max(lower / prune_weights)
        requests = []
        for b in sorted(arcs):
            arc_list = arcs.pop(b)
            caps, peaks = _arc_caps(*(np.array(col) for col in zip(*arc_list)))
            caps = np.minimum(caps, ceiling[b])
            upper[b] = max(caps)
            if upper[b] - lower[b] <= tols[b]:
                continue
            if best is not None and upper[b] / prune_weights[b] <= best:
                continue
            if coarse:       # the odd multiples of pi/4 split all 4 arcs
                (f45, f225), (f135, f315) = _support_values_batch(stack, [b, b], grid[[1, 3]])
                for arc, cut, fcut in zip(arc_list, grid[1::2], (f45, f135, f225, f315)):
                    requests.append((b, arc, cut, fcut))
                continue
            for arc, cap, peak in zip(arc_list, caps, peaks):
                if cap > lower[b] + tols[b] / 2:
                    lo, hi = arc[:2]
                    margin = (hi - lo) / 8
                    cut = min(max(peak, lo + margin), hi - margin)
                    requests.append((b, arc, cut, _support_values_batch(stack, [b], [cut])[0, 0]))
                else:
                    dropped[b] = max(dropped[b], cap)
        coarse = False
        for b, (lo, hi, flo, fhi), cut, fcut in requests:
            arcs.setdefault(b, []).extend([(lo, cut, flo, fcut), (cut, hi, fcut, fhi)])
            lower[b] = max(lower[b], fcut)
    return lower, np.maximum(np.maximum(upper, dropped), lower)


def svd_podles_defect(g, tensor):
    """Rank defect of the span of (1 (x) e_j) alpha(x_k) (or (e_j (x) 1) beta(x_k)), by SVD.

    ``tensor`` is a carrier-first coaction tensor as stored by
    ``compress.InducedCoaction``; the reference for its explicit-inverse
    Podles certificate.
    """
    n, s = g.dim, tensor.shape[0]
    vecs = np.einsum("kml,jlq->jkmq", tensor, g.mult).reshape(n * s, s * n)
    sv = np.linalg.svd(vecs, compute_uv=False)
    return int(s * n - np.sum(sv > 1e-10 * sv[0]))


def svd_fixed_space_dim(tensor, algebra_unit):
    """dim {x : coaction(x) = x (x) 1} of a carrier-first tensor, by the rank of an SVD;
    the reference for the trace form of ``InducedCoaction.fixed_space_dim``."""
    s = tensor.shape[0]
    system = tensor - np.einsum("km,l->kml", np.eye(s), algebra_unit)
    sv = np.linalg.svd(system.transpose(1, 2, 0).reshape(-1, s), compute_uv=False)
    return int(s - np.sum(sv > 1e-10 * sv[0])) if sv[0] > 1e-12 else s


def einsum_coaction_residual(g, tensor, side):
    """The coaction-identity residual of a carrier-first tensor, by explicit einsums.

    max|(alpha (x) id)alpha - (id (x) Delta)alpha| on the right and
    max|(id (x) beta)beta - (Delta (x) id)beta| on the left: the reference for
    the matrix-product form in ``compress``.
    """
    if side == "right":
        lhs = np.einsum("kql,qmp->kmpl", tensor, tensor)
        rhs = np.einsum("kml,lpq->kmpq", tensor, g.comult)
    else:
        lhs = np.einsum("kqp,qml->kplm", tensor, tensor)
        rhs = np.einsum("kmq,qpl->kplm", tensor, g.comult)
    return float(np.max(np.abs(lhs - rhs)))


def dense_cocommutation_residual(alpha, beta):
    """max|(beta (x) id) alpha - (id (x) alpha) beta| from the two dense (s^2, n^2) einsums;
    the reference for ``compress.cocommutation_residual``, which sums over nonzeros."""
    lhs = np.einsum("kml,mpj->kjpl", alpha.tensor, beta.tensor)
    rhs = np.einsum("kmj,mpl->kjpl", beta.tensor, alpha.tensor)
    return float(np.max(np.abs(lhs - rhs)))


def dense_tensor_opnorm(g, ts, entries):
    """||(tau (x) rho)Delta(a)|| for a (p, p, n) block a over A, the SVD of the dense
    (p r d0)^2 operator; the reference for ``compress._tensor_opnorm``, which goes block by block on rho."""
    p, r, d0 = entries.shape[0], ts.rank, g.rep.shape[1]
    delta = np.einsum("pqi,ijl->pqjl", entries, g.comult)
    taus = (ts.tau_matrix @ delta).reshape(p, p, r, r, g.dim)
    big = np.einsum("pqabl,lcd->pacqbd", taus, g.rep).reshape(p * r * d0, p * r * d0)
    return float(np.linalg.norm(big, 2))


def sliced_kernel_matrix(g, ts, v, side):
    """(tau (x) rho)Delta(v) (left: (rho (x) tau)Delta(v)) as a sum of Kronecker products."""
    delta = g.coproduct(v)
    basis = np.eye(g.dim, dtype=complex)
    total = 0.0
    for j in range(g.dim):
        for l in range(g.dim):
            if side == "right":
                total = total + delta[j, l] * np.kron(ts.tau(basis[j]), g.rep[l])
            else:
                total = total + delta[j, l] * np.kron(g.rep[j], ts.tau(basis[l]))
    return total


def full_family_distance(lip, mu, nu):
    """sup{(mu - nu)(x) : |l_i(x)| <= w_i for every family row} over real x, by scipy's LP.

    For a real family on a function algebra F(G), whose self-adjoint elements
    are the real vectors; x_0 = 0 fixes the free unit direction.  Every row of
    the family is a constraint: the reference for the pruned LP family.
    """
    rows = np.real(np.asarray(lip.functionals))
    diff = np.real(np.asarray(mu, dtype=complex) - np.asarray(nu, dtype=complex))
    weights = np.asarray(lip.weights, dtype=float)
    bounds = [(0.0, 0.0)] + [(None, None)] * (rows.shape[1] - 1)
    res = linprog(-diff, A_ub=np.vstack([rows, -rows]), b_ub=np.concatenate([weights, weights]),
                  bounds=bounds, method="highs")
    assert res.status == 0, res.message
    return float(-res.fun)


def full_family_induced_lip(lip, coaction, coords, tol):
    """The induced Lip-norm with one numerical radius per row of the whole family."""
    from cqms.lipnorm import max_numerical_radius

    sliced = coaction.slice_states(np.asarray(coords, dtype=complex), lip.functionals)
    return max_numerical_radius(coaction.realize(sliced), lip.weights, tol)


def loop_mk_distance(g, lip, mu, nu):
    """The disc refinement with a dict of angle lists and the cuts rebuilt before every LP.

    Real rows of the unit ball give the cuts +-Re z_i; disc row i gives one
    tangent Re(e^{-i theta} z_i) per angle in its list, which starts at 16
    equally spaced angles and gains the optimum's angle whenever the optimum
    touches the disc.  Same ball, LPs and decisions as ``mkdist.mk_distance``,
    so the array refinement must agree with it bit for bit.  The LPs go
    through ``mkdist.solve_lp``, where a test can record them.
    """
    from cqms import mkdist
    from cqms.simplex import LPProblem

    quotient, z, weights = mkdist._unit_ball(g, lip)[:3]
    real = np.max(np.abs(z.imag), axis=1) <= 1e-12 * np.maximum(1.0, np.max(np.abs(z), axis=1))
    objective = np.real(quotient @ (mu.coeffs - nu.coeffs))
    disc_angles = {i: [k * np.pi / 8 for k in range(16)] for i in np.flatnonzero(~real)}
    rounds = 0
    while True:
        a_mat, b_vec = [], []
        for i in np.flatnonzero(real):
            a_mat.extend([z[i].real, -z[i].real])
            b_vec.extend([weights[i], weights[i]])
        for i, angles in disc_angles.items():
            for theta in angles:
                a_mat.append(np.real(np.exp(-1j * theta) * z[i]))
                b_vec.append(weights[i])
        problem = LPProblem(objective=objective, inequalities=np.array(a_mat),
                            bounds=np.array(b_vec))
        solution = mkdist.solve_lp(problem)
        solution.certify()
        t = solution.x
        if not disc_angles:
            gap = 0.0
            break
        vals = z @ t
        ratio = max(float(np.max(np.abs(vals[i]) / weights[i])) for i in disc_angles)
        upper = solution.value
        gap = upper - upper / max(ratio, 1.0)
        if gap <= mkdist.LP_TOL * max(1.0, abs(upper)):
            gap = 0.0
            break
        if rounds == 80:
            break
        rounds += 1
        for i in disc_angles:
            if abs(vals[i]) > weights[i] * (1 - 1e-12):
                disc_angles[i].append(float(np.angle(vals[i])))
    element = quotient.T @ t
    reach = np.abs(lip.functionals) @ np.abs(element) / lip.weights
    limit = 1.0 - 4 * (g.dim + 2) * np.finfo(float).eps * float(np.max(reach))
    scale = lip.value(element)
    if scale > limit:
        element = element * (limit / scale)
        step = 2.0 ** -50
        while lip.value(element) > limit:
            element = element * (1.0 - step)
            step *= 2
    return mkdist.MKResult(value=max(solution.value, 0.0), element=element,
                           lp_iterations=solution.iterations, refinement_rounds=rounds, gap=gap)


def einsum_axiom_residuals(g):
    """Every Hopf *-algebra axiom residual by explicit einsums, with Podles density by SVD rank.

    The reference for ``hopf.check_axioms``: the same keys, except that Podles
    density is the rank defect of span{(e_i (x) 1)Delta(e_j)} (right) and
    span{(1 (x) e_i)Delta(e_j)} (left) instead of the inverse witness.
    """
    def maxabs(x):
        return float(np.max(np.abs(x))) if np.size(x) else 0.0

    def rank(m):
        sv = np.linalg.svd(m, compute_uv=False)
        return 0 if len(sv) == 0 or sv[0] <= 1e-12 else int(np.sum(sv > 1e-10 * sv[0]))

    n = g.dim
    res = {}
    assoc = np.einsum("ijm,mkl->ijkl", g.mult, g.mult) - np.einsum("jkm,iml->ijkl", g.mult, g.mult)
    res["associativity"] = maxabs(assoc)
    res["unit"] = max(maxabs(np.einsum("i,ijk->jk", g.unit, g.mult) - np.eye(n)),
                      maxabs(np.einsum("j,ijk->ik", g.unit, g.mult) - np.eye(n)))
    coassoc = np.einsum("iab,bcd->iacd", g.comult, g.comult) - np.einsum("iab,acd->icdb", g.comult, g.comult)
    res["coassociativity"] = maxabs(coassoc)
    res["counit"] = max(maxabs(np.einsum("ijk,j->ik", g.comult, g.counit) - np.eye(n)),
                        maxabs(np.einsum("ijk,k->ij", g.comult, g.counit) - np.eye(n)))
    res["comult_multiplicative"] = maxabs(einsum_comult_multiplicative(g))
    starhom = np.einsum("ij,jpq->ipq", g.star, g.comult)
    starhom -= np.einsum("ipq,pa,qb->iab", np.conj(g.comult), g.star, g.star)
    res["comult_star"] = maxabs(starhom)
    res["comult_unital"] = maxabs(np.einsum("i,ijk->jk", g.unit, g.comult) - np.outer(g.unit, g.unit))
    s_left = np.einsum("ijk,jp,pkq->iq", g.comult, g.antipode, g.mult)
    s_right = np.einsum("ijk,kp,jpq->iq", g.comult, g.antipode, g.mult)
    target = np.outer(g.counit, g.unit)
    res["antipode"] = max(maxabs(s_left - target), maxabs(s_right - target))
    res["star_involutive"] = maxabs(np.conj(g.star) @ g.star - np.eye(n))
    anti = np.einsum("ijk,kp->ijp", np.conj(g.mult), g.star)
    anti -= np.einsum("jb,ia,bap->ijp", g.star, g.star, g.mult)
    res["star_antimultiplicative"] = maxabs(anti)
    res["star_unit"] = maxabs(g.star.T @ np.conj(g.unit) - g.unit)
    res["rep_multiplicative"], res["rep_star"], res["rep_unital"] = einsum_rep_residuals(g, g.rep)
    res["rep_faithful_rank_defect"] = float(n - rank(g.rep.reshape(n, -1)))
    right = np.einsum("jab,iap->jipb", g.comult, g.mult)
    left = np.einsum("jab,ibq->jiaq", g.comult, g.mult)
    res["podles_right_rank_defect"] = float(n * n - rank(right.reshape(n * n, n * n)))
    res["podles_left_rank_defect"] = float(n * n - rank(left.reshape(n * n, n * n)))
    right_inv = np.einsum("ijk,k->ij", g.comult, g.haar) - np.outer(g.haar, g.unit)
    left_inv = np.einsum("ijk,j->ik", g.comult, g.haar) - np.outer(g.haar, g.unit)
    res["haar_invariance"] = max(maxabs(right_inv), maxabs(left_inv))
    res["haar_normalization"] = abs(np.dot(g.haar, g.unit) - 1.0)
    gram = np.einsum("ip,pjq,q->ij", g.star, g.mult, g.haar)
    res["haar_gram_hermitian"] = maxabs(gram - gram.conj().T)
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    res["haar_gram_definiteness"] = 1.0 if eigs[0] <= eigs[-1] * 1e-12 else 0.0
    return res


def einsum_comult_multiplicative(g):
    """[i, j, p, q]: coefficient of e_p (x) e_q in Delta(e_i e_j) - Delta(e_i) Delta(e_j), by einsums.

    The reference for the reshaped matmuls of ``hopf.check_axioms``.
    """
    hom = np.einsum("ijl,lpq->ijpq", g.mult, g.comult).astype(complex)
    hom -= np.einsum("iab,jcd,acp,bdq->ijpq", g.comult, g.comult, g.mult, g.mult, optimize=True)
    return hom


def einsum_rep_residuals(g, rep):
    """Multiplicative, star and unital residuals of a representation, by explicit einsums."""
    hom = np.einsum("ikl,jlm->ijkm", rep, rep) - np.einsum("ijp,pkm->ijkm", g.mult, rep)
    star = np.einsum("ij,jkl->ikl", g.star, rep) - np.conj(np.transpose(rep, (0, 2, 1)))
    unital = np.einsum("i,ikl->kl", g.unit, rep) - np.eye(rep.shape[1])
    return tuple(float(np.max(np.abs(x))) for x in (hom, star, unital))


def dense_rep_residuals(g, rep):
    """``einsum_rep_residuals`` by reshaped dense products: the reference for the sums over nonzeros
    of ``hopf._rep_residuals``."""
    n, d = rep.shape[0], rep.shape[1]
    flat = rep.reshape(n, d * d)
    # products[i, k, j, m] = (rep(e_i) rep(e_j))[k, m]
    products = (rep.reshape(n * d, d) @ rep.transpose(1, 0, 2).reshape(d, n * d)).reshape(n, d, n, d)
    images = (g.mult.reshape(n * n, n) @ flat).reshape(n, n, d, d)
    star = (g.star @ flat).reshape(n, d, d) - rep.conj().transpose(0, 2, 1)
    unital = (g.unit @ flat).reshape(d, d) - np.eye(d)
    return tuple(float(np.max(np.abs(x), initial=0.0))
                 for x in (products.transpose(0, 2, 1, 3) - images, star, unital))


def dense_mult_parts(mult):
    """(max, Frobenius norm) of the associator (e_i e_j) e_k - e_i (e_j e_k), from one dense n^4 array."""
    n = mult.shape[0]
    flat = mult.reshape(n * n, n)
    assoc = flat @ mult.reshape(n, n * n)                   # [(i, j), (k, l)]
    assoc -= np.matmul(flat, mult).reshape(n * n, n * n)     # [i, (j, k), l] read the same way
    return float(np.max(np.abs(assoc))), float(np.linalg.norm(assoc))


def dense_comult_multiplicative(g):
    """max |Delta(e_i e_j) - Delta(e_i) Delta(e_j)| from reshaped dense products, an n^6 product among them."""
    n = g.dim
    cop_comult = g.comult.transpose(0, 2, 1)
    hom = (g.mult.reshape(n * n, n) @ g.comult.reshape(n, n * n)).reshape(n, n, n, n)
    first = (cop_comult.reshape(n * n, n) @ g.mult.reshape(n, n * n)).reshape(n, n, n, n)  # [i, b, c, p]
    second = (g.comult.reshape(n * n, n) @ g.mult.transpose(1, 0, 2).reshape(n, n * n))  # [(j, c), (b, q)]
    second = second.reshape(n, n, n, n).transpose(2, 1, 0, 3).reshape(n * n, n * n)     # [(b, c), (j, q)]
    prod = first.transpose(0, 3, 1, 2).reshape(n * n, n * n) @ second                    # [(i, p), (j, q)]
    hom -= prod.reshape(n, n, n, n).transpose(0, 2, 1, 3)
    return float(np.max(np.abs(hom)))


def dense_coaction_parts(g, tensor, w, gram):
    """``hopf._coaction_parts`` of a carrier-first right coaction tensor from dense (s^2, n^2) arrays,
    its rows reduced: the largest of columns 0 and 3 and the sums of columns 1 and 2.

    W and G are ``hopf._podles_parts``' (n^2, n) matrix and Gram matrix.
    """
    n, s = g.dim, tensor.shape[0]
    u = np.matmul(tensor.reshape(s, s * n).T, tensor).reshape(s * s, n * n)
    cols = u @ w                           # [(k, m), r]: coefficient of x_m (x) e_r
    cols[::s + 1] -= g.unit
    defect = u - tensor.reshape(s * s, n) @ g.comult.reshape(n, n * n)
    return (float(np.max(np.abs(defect), initial=0.0)), float(np.vdot(cols, cols @ gram.T).real),
            float(np.linalg.norm(u)) ** 2, float(np.linalg.norm(defect, axis=1).max(initial=0.0)))


def loop_coaction_tensor(g, ts, side):
    """``InducedCoaction.tensor`` of ``induced_coaction(g, ts, side)``, one kept irrep at a time:
    each a (d^2, d^2, n) block on the diagonal, t[j, k] at [(i, j), (i, k)] (u^T for A^cop)."""
    from cqms.hopf import _co_opposite
    alg = g if side == "right" else _co_opposite(g)
    flip = alg is _co_opposite(ts.g)
    s, n = ts.dim_sys, g.dim
    tensor = np.zeros((s, s, n), dtype=complex)
    offset = 0
    for k in ts.kept:
        pi = ts.decomposition.irreps[k]
        d = pi.dim
        block = np.zeros((d, d, d, d, n), dtype=complex)      # [i, j, i', k]: t[j, k] if i = i'
        block[np.arange(d), :, np.arange(d)] = pi.u if flip else pi.u.transpose(1, 0, 2)
        if flip:                                               # b_ij is the A^cop coefficient (j, i)
            block = block.transpose(1, 0, 3, 2, 4)
        tensor[offset:offset + d * d, offset:offset + d * d] = block.reshape(d * d, d * d, n)
        offset += d * d
    return tensor


def dense_summand_certificates(alg, irreps, flip, w, gram):
    """``compress._summand_certificates`` one irrep at a time, from ``dense_coaction_parts``."""
    n, eps = alg.dim, np.finfo(float).eps
    scale = 4 * eps * np.sqrt(np.abs(gram).sum(axis=1).max())
    terms = int(np.count_nonzero(w, axis=0).max()) + 2
    comult_terms = int(np.count_nonzero(alg.comult.reshape(n, n * n), axis=0).max()) + 2
    reps = alg.rep.reshape(n, -1)
    rep_norm = np.linalg.norm(reps, 2)
    rows = []
    for pi in irreps:
        t, d = (pi.u if flip else pi.u.transpose(1, 0, 2)), pi.dim
        p = dense_coaction_parts(alg, t, w, gram)
        grown = np.abs(t)
        products = np.matmul(grown.reshape(d, d * n).T, grown).reshape(d * d, n * n)
        through = grown.reshape(d * d, n) @ np.abs(alg.comult).reshape(n, n * n)
        formed = products @ np.abs(w)
        formed[::d + 1] += np.abs(alg.unit)
        rows.append((d, p[0] + 4 * eps * ((d + 2) * products.max() + comult_terms * through.max()),
                     np.sqrt(max(p[1], 0.0)) + (d + terms) * scale * np.linalg.norm(formed), np.sqrt(p[2]),
                     np.linalg.norm(t.reshape(d * d, n) @ reps, axis=1).max(),
                     rep_norm * (p[3] + 4 * eps * ((d + 2) * np.linalg.norm(products, axis=1).max()
                                                   + comult_terms * np.linalg.norm(through, axis=1).max())),
                     np.linalg.norm(t), np.max(np.abs(t @ alg.counit - np.eye(d)))))
    return np.array(rows)


def einsum_podles_witness(g, side):
    """max|Psi Phi - I| for Delta as the coaction of A on itself, from the legs of Delta.

    Right: Phi(e_k (x) e_j) = (1 (x) e_j)Delta(e_k) and Psi(e_k (x) e_j) =
    e_k(1) (x) e_j S^-1(e_k(2)).  Left: Phi(e_j (x) e_k) = (e_j (x) 1)Delta(e_k)
    and Psi(e_j (x) e_k) = e_j S(e_k(1)) (x) e_k(2).  Maps are (out, in) matrices
    over pairs (first leg, second leg).
    """
    n = g.dim
    if side == "right":
        s_inv = np.linalg.inv(g.antipode)
        phi = np.einsum("kml,jlq->mqkj", g.comult, g.mult)
        psi = np.einsum("kml,lp,jpq->mqkj", g.comult, s_inv, g.mult)
    else:
        phi = np.einsum("kml,jmq->qljk", g.comult, g.mult)
        psi = np.einsum("kml,mp,jpq->qljk", g.comult, g.antipode, g.mult)
    phi, psi = phi.reshape(n * n, n * n), psi.reshape(n * n, n * n)
    return float(np.max(np.abs(psi @ phi - np.eye(n * n))))


def dense_podles_frobenius(g, tensor, side):
    """||Psi Phi - I||_F with Phi and Psi as dense (n s) x (n s) matrices.

    ``tensor`` is a carrier-first coaction tensor.  On the right
    Phi(x (x) a) = (1 (x) a)alpha(x) and Psi(x (x) a) = x_(0) (x) a S^-1(x_(1));
    on the left Phi(a (x) x) = (a (x) 1)beta(x) and Psi(a (x) x) = a S(x_(-1)) (x) x_(0).
    The reference for the column witness of ``hopf._coaction_certificates``.
    """
    n, s = g.dim, tensor.shape[0]
    antipode = np.linalg.inv(g.antipode) if side == "right" else g.antipode
    # phi_t[(j, k), (m, q)]: coefficient of x_m (x) e_q in Phi(x_k (x) e_j); on the left
    # read e_q (x) x_m and e_j (x) x_k
    phi_t = np.matmul(tensor.reshape(s * s, n), g.mult).reshape(n * s, s * n)
    # psi_t[(k, j), (q, m)]: coefficient of x_m (x) e_q in Psi(x_k (x) e_j), same reading
    mult_jq = g.mult.transpose(0, 2, 1).reshape(n * n, n)
    psi_t = np.matmul(mult_jq, (tensor @ antipode).transpose(0, 2, 1)).reshape(s * n, n * s)
    defect = phi_t @ psi_t                 # (Psi Phi)^T, both legs listed as (j, k)
    defect.flat[::n * s + 1] -= 1.0
    return float(np.linalg.norm(defect))


def exact_in_unit_ball(lip, x):
    """Whether |f_i . x| <= w_i holds for every row of a polyhedral family, in exact arithmetic.

    Every float is a rational, so Re^2 + Im^2 <= w^2 is decided over fractions.
    """
    coords = [(Fraction(v.real), Fraction(v.imag)) for v in np.asarray(x, dtype=complex)]
    for row, weight in zip(lip.functionals, lip.weights):
        re = im = Fraction(0)
        for c, (a, b) in zip(row, coords):
            if c:
                cr, ci = Fraction(c.real), Fraction(c.imag)
                re += cr * a - ci * b
                im += cr * b + ci * a
        if re * re + im * im > Fraction(float(weight)) ** 2:
            return False
    return True


def slice_map(side, phi, t):
    """Slice a tensor t in A (x) A (an (n, n) coefficient matrix) by a functional phi.

    side "left" applies phi to the first leg, "right" to the second.
    """
    t = np.asarray(t, dtype=complex)
    return phi.coeffs @ t if side == "left" else t @ phi.coeffs


def sampled_state_lower_bound(lip, coaction, x, densities):
    """max over the given states phi of the truncation of L((phi (x) id) alpha(x)).

    Every state gives a lower bound on the induced Lip-norm of x.
    """
    ts = coaction.system
    coords = ts.expand(x)
    best = 0.0
    for density in densities:
        phi = np.einsum("ba,kab->k", np.asarray(density, dtype=complex), ts.sys_basis)
        best = max(best, lip.value(np.einsum("k,kml,m->l", coords, coaction.tensor, phi)))
    return best


def conditional_expectation(coaction, samples=20, seed=0):
    """E = (id (x) h) applied to a coaction, on carrier coordinates.

    Returns (E, max|E^2 - E|, invariant state, invariance residual); when the
    fixed space is the scalars the invariant state is unit* E / |unit|^2,
    checked against E and against sampled functionals, and otherwise None.
    """
    g = coaction.g
    e = np.einsum("kml,l->mk", coaction.tensor, g.haar)
    idem = float(np.max(np.abs(e @ e - e)))
    invariant, inv_res = None, 0.0
    if coaction.fixed_space_dim == 1:
        ts = coaction.system
        unit = g.unit.astype(complex) if ts is None else ts.expand(np.eye(ts.rank))
        invariant = (unit.conj() @ e) / float(np.vdot(unit, unit).real)
        inv_res = float(np.max(np.abs(e - np.outer(unit, invariant))))
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            mu = rng.normal(size=g.dim) + 1j * rng.normal(size=g.dim)
            acted = np.einsum("kml,m,l->k", coaction.tensor, invariant, mu)
            inv_res = max(inv_res, float(np.max(np.abs(acted - np.dot(mu, g.unit) * invariant))))
    return e, idem, invariant, inv_res


def isotypical_projection(coaction, gamma):
    """E_gamma(x) = d_gamma (id (x) h)((1 (x) chi*) . coaction(x)) on carrier coordinates."""
    g = coaction.g
    chi_star = g.star_of(gamma.u.trace(axis1=0, axis2=1))
    weights = np.einsum("p,plq,q->l", chi_star, g.mult, g.haar)
    return gamma.dim * np.einsum("kml,l->mk", coaction.tensor, weights)


def star_closure_residual(lip, g):
    """How far a polyhedral family is from being closed under l -> conj(l o *)."""
    adj = np.conj(lip.functionals @ g.star.T)
    worst = 0.0
    for i, f in enumerate(adj):
        gaps = np.max(np.abs(lip.functionals - f), axis=1) + np.abs(lip.weights - lip.weights[i])
        worst = max(worst, float(np.min(gaps)))
    return worst


def matrix_group_table(mats):
    """Cayley table of the finite matrix group listed in ``mats``, by matching products."""
    index = [[next(c for c, m in enumerate(mats) if np.allclose(a @ b, m, atol=1e-12)) for b in mats]
             for a in mats]
    return np.array(index)


def d4_table():
    """Dihedral group of the square; order e, r, r2, r3, s, rs, r2s, r3s."""
    r = np.array([[0, -1], [1, 0]])
    s = np.array([[1, 0], [0, -1]])
    mats = [np.linalg.matrix_power(r, k) for k in range(4)]
    return matrix_group_table(mats + [m @ s for m in mats])


def q8_table():
    """Quaternion group; order 1, -1, i, -i, j, -j, k, -k."""
    i2 = np.array([[1j, 0], [0, -1j]])
    j2 = np.array([[0, 1], [-1, 0]], dtype=complex)
    k2 = i2 @ j2
    return matrix_group_table([np.eye(2), -np.eye(2), i2, -i2, j2, -j2, k2, -k2])


def permutation_group_table(perms):
    """Cayley table of a composition-closed list of permutations: p_i p_j = p_i o p_j."""
    perms = [tuple(p) for p in perms]
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[a] for a in q)] for q in perms] for p in perms])


def s4_table():
    """S_4 in the order of itertools.permutations, the identity first."""
    return permutation_group_table(itertools.permutations(range(4)))


def d5_table():
    """The dihedral group of the pentagon: the permutations of its vertices that keep
    neighbours neighbours, in the order of itertools.permutations."""
    return permutation_group_table(
        p for p in itertools.permutations(range(5))
        if {(p[(i + 1) % 5] - p[i]) % 5 for i in range(5)} in ({1}, {4}))


def s4_transposition_metric():
    """Bi-invariant word metric on S_4 from the conjugation-closed set of all transpositions."""
    perms = list(itertools.permutations(range(4)))
    return word_metric(s4_table(), [i for i, p in enumerate(perms)
                                    if sum(a != b for a, b in enumerate(p)) == 2])


def word_metric(table, generators):
    """d(g, h) = l(g h^-1) for the symmetrized word length.

    Bi-invariant iff the generating set is closed under conjugation.
    """
    from cqms import groups

    table = np.asarray(table)
    _, inverse = groups.validate_cayley(table)
    return groups.symmetric_word_length(table, generators)[table[:, inverse]]


def s3_transposition_metric():
    """Bi-invariant word metric on S_3 from the conjugation-closed set of all transpositions."""
    from cqms import groups

    return word_metric(groups.s3_table(), [1, 2, 3])


def loop_check_invariance(lip, g, side, samples, seed, tol):
    """``lipnorm.check_invariance`` one sample at a time: one element drawn and
    one ``max_numerical_radius`` call per view and sample, in the same draw order."""
    from cqms import lipnorm
    from cqms.compress import comultiplication_coaction

    rng = np.random.default_rng(seed)
    n = g.dim
    views = [comultiplication_coaction(g, view) for view in
             {"right": ("left",), "left": ("right",), "bi": ("left", "right")}[side]]
    lip = lipnorm.reduce_family(g, lip)[0]
    worst = 0.0
    for _ in range(samples):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        upgrade = max(lipnorm.max_numerical_radius(co.realize(co.slice_states(a, lip.functionals)),
                                                   lip.weights, tol) for co in views)
        worst = max(worst, upgrade - lip.value(a) - 2 * tol)
    return float(worst)


def sliced_frobenius_norms(g, ts, rows, side):
    """||(tau (x) rho)Delta(v)||_F (left: (rho (x) tau)) for each row v, by dense products.

    The Kronecker sum of ``sliced_kernel_matrix`` has the entries of
    T Delta(v) R, with T the tau matrix and R the (n, d0^2) matrix of rho.
    """
    n = g.dim
    comult = g.comult if side == "right" else g.comult.transpose(0, 2, 1)
    deltas = (np.asarray(rows, dtype=complex) @ comult.reshape(n, n * n)).reshape(-1, n, n)
    return np.linalg.norm(ts.tau_matrix @ deltas @ g.rep.reshape(n, -1), axis=(1, 2))


def loop_validate_cayley(table):
    """``groups.validate_cayley`` with its identity and inverses found one element at a time."""
    from cqms.errors import GroupTableError

    table = np.asarray(table)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise GroupTableError(f"table must be square, got shape {table.shape}")
    n = table.shape[0]
    if not np.issubdtype(table.dtype, np.integer):
        raise GroupTableError("table entries must be integers")
    if table.min() < 0 or table.max() >= n:
        raise GroupTableError("table entries must lie in 0..n-1")
    identity = None
    for e in range(n):
        if np.array_equal(table[e], np.arange(n)) and np.array_equal(table[:, e], np.arange(n)):
            identity = e
            break
    if identity is None:
        raise GroupTableError("table has no two-sided identity")
    inverse = np.full(n, -1, dtype=int)
    for g in range(n):
        hits = np.where(table[g] == identity)[0]
        if len(hits) != 1 or table[hits[0], g] != identity:
            raise GroupTableError(f"element {g} has no two-sided inverse")
        inverse[g] = hits[0]
    left, right = table[table, :], table[:, table]
    bad = np.argwhere(left != right)
    if len(bad):
        g, h, k = bad[0]
        raise GroupTableError(f"associativity fails at triple ({g}, {h}, {k})")
    return identity, inverse


def loop_check_metric(table, metric):
    """``groups.check_metric`` with bi-invariance checked one translation k at a time."""
    from cqms.errors import MetricError

    table = np.asarray(table)
    n = table.shape[0]
    d = np.asarray(metric, dtype=float)
    if d.shape != (n, n):
        raise MetricError(f"metric must be {n}x{n}, got {d.shape}")
    if np.any(d < 0):
        g, h = np.argwhere(d < 0)[0]
        raise MetricError(f"negative distance at pair ({g}, {h})")
    if not np.allclose(d, d.T, rtol=0, atol=1e-12):
        g, h = np.argwhere(~np.isclose(d, d.T, rtol=0, atol=1e-12))[0]
        raise MetricError(f"metric not symmetric at pair ({g}, {h})")
    if np.any(np.abs(np.diag(d)) > 1e-12):
        g = int(np.argmax(np.abs(np.diag(d))))
        raise MetricError(f"nonzero distance d({g}, {g})")
    off = d + np.eye(n)
    if np.any(off <= 0):
        g, h = np.argwhere(off <= 0)[0]
        raise MetricError(f"zero distance between distinct elements ({g}, {h})")
    viol = d[:, :, None] - (d[:, None, :] + d[None, :, :]) > 1e-12
    if np.any(viol):
        g, h, k = np.argwhere(viol)[0]
        raise MetricError(f"triangle inequality fails at triple ({g}, {h}, {k})")
    for k in range(n):
        right = d[table[:, k][:, None], table[:, k][None, :]]
        if not np.allclose(right, d, rtol=0, atol=1e-12):
            g, h = np.argwhere(~np.isclose(right, d, rtol=0, atol=1e-12))[0]
            raise MetricError(f"right invariance fails at triple ({g}, {h}, {k})")
        left = d[table[k][:, None], table[k][None, :]]
        if not np.allclose(left, d, rtol=0, atol=1e-12):
            g, h = np.argwhere(~np.isclose(left, d, rtol=0, atol=1e-12))[0]
            raise MetricError(f"left invariance fails at triple ({g}, {h}, {k})")


def loop_check_length(table, length):
    """``groups.check_length`` validating the table itself and scanning the elements in a loop."""
    from cqms.errors import LengthError

    identity, _ = loop_validate_cayley(table)
    ell = np.asarray(length, dtype=float)
    if ell.shape != (np.asarray(table).shape[0],):
        raise LengthError(f"length must have one value per element, got shape {ell.shape}")
    if abs(ell[identity]) > 1e-12:
        raise LengthError(f"length of the identity must be 0, got {ell[identity]}")
    bad = [g for g in range(len(ell)) if g != identity and ell[g] <= 0]
    if bad:
        raise LengthError(f"length must be positive off the identity, violated at {bad[0]}")


def loop_word_length(table, generators):
    """``groups.word_length`` by breadth-first search one element and generator at a time."""
    table = np.asarray(table)
    identity, _ = loop_validate_cayley(table)
    length = np.full(table.shape[0], np.inf)
    length[identity] = 0.0
    frontier, d = [identity], 0
    while frontier:
        d += 1
        nxt = []
        for g in frontier:
            for s in generators:
                h = table[g, s]
                if not np.isfinite(length[h]):
                    length[h] = d
                    nxt.append(h)
        frontier = nxt
    return length


def loop_validate_corep(g, pi):
    """The report ``corep.validate_coreps`` gives one corepresentation, by one dense einsum each."""
    from cqms.corep import CorepReport
    from cqms.hopf import _maxabs, _unitarity_residual

    d, d0 = pi.dim, g.rep.shape[1]
    amplified = np.einsum("ijn,nkl->ikjl", pi.u, g.rep).reshape(d * d0, d * d0)
    lhs = np.einsum("ijn,npq->ijpq", pi.u, g.comult)
    rhs = np.einsum("ikp,kjq->ijpq", pi.u, pi.u)
    return CorepReport(unitarity_residual=_unitarity_residual(amplified), corep_residual=_maxabs(lhs - rhs))
