import numpy as np
import pytest

from cqms import compress, corep, groups, hopf, lipnorm
from cqms.errors import LengthError, UnsupportedSeminormError
from cqms.sampling import random_density, random_elements

import oracles
from kp8_example import build_kp8


# -- constructors -----------------------------------------------------------

def test_lip_from_metric_z4(f_z4):
    lip = lipnorm.lip_from_metric(f_z4)
    chi1 = np.exp(2j * np.pi * np.arange(4) / 4)
    assert lip.value(chi1) == pytest.approx(2 * np.sqrt(2) / np.pi)
    assert lip.value(f_z4.unit) == pytest.approx(0.0, abs=1e-14)
    assert lip.kernel_rank_defect(4) == 0
    assert lip.unit_residual(f_z4.unit) < 1e-14
    assert oracles.star_closure_residual(lip, f_z4) < 1e-14


def test_lip_fourier_values(c_s3):
    lip = lipnorm.lip_fourier(c_s3)
    for g_idx in range(1, 6):
        lam = np.eye(6)[g_idx]
        assert lip.value(lam) == pytest.approx(c_s3.length[g_idx])
    assert lip.value(c_s3.unit) == pytest.approx(0.0, abs=1e-14)
    assert oracles.star_closure_residual(lip, c_s3) < 1e-14


def test_lip_fourier_rejects_asymmetric_length():
    g = hopf.group_algebra(groups.cyclic_table(3), length=np.array([0.0, 1.0, 2.0]))
    with pytest.raises(LengthError, match="l\\(g\\) = l\\(g\\^-1\\)"):
        lipnorm.lip_fourier(g)


# -- numerical radius --------------------------------------------------------

def test_numerical_radius_identity_and_hermitian():
    assert lipnorm.numerical_radius(np.eye(5), tol=1e-9) == pytest.approx(1.0, abs=1e-9)
    rng = np.random.default_rng(0)
    h = rng.normal(size=(6, 6))
    h = h + h.T
    spec = float(np.max(np.abs(np.linalg.eigvalsh(h))))
    assert lipnorm.numerical_radius(h, tol=1e-9) == pytest.approx(spec, abs=1e-8)


def test_numerical_radius_matrix_unit():
    e12 = np.zeros((2, 2))
    e12[0, 1] = 1.0
    w = lipnorm.numerical_radius(e12, tol=1e-7)
    assert w == pytest.approx(0.5, abs=1e-7)
    brute = oracles.brute_numerical_radius(e12, trials=500, seed=1)
    assert w >= brute - 1e-7


def test_numerical_radius_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(10):
        d = int(rng.integers(2, 7))
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        w = lipnorm.numerical_radius(m, tol=1e-8)
        brute = oracles.brute_numerical_radius(m, trials=200, seed=3)
        assert brute - 1e-7 <= w
        assert w <= float(np.linalg.norm(m, 2)) + 1e-8


def test_grouped_radius_dispatches_a_mixed_stack():
    rng = np.random.default_rng(6)
    tol = 1e-8
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    diag = np.diag(rng.normal(size=4) + 1j * rng.normal(size=4))
    e12 = np.zeros((4, 4))
    e12[0, 1] = 1.0
    rand = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    stack = np.concatenate([np.stack([np.zeros((4, 4)), h, diag, e12]), rand])

    w = lipnorm.max_numerical_radius(stack, tol=tol, group_ids=np.arange(len(stack)))
    assert w.shape == (len(stack),)
    assert w[0] == 0.0
    assert w[1] == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(h))), abs=tol)
    assert w[2] == pytest.approx(np.max(np.abs(np.diag(diag))), abs=tol)
    assert w[3] == pytest.approx(0.5, abs=tol)
    for m, value in zip(rand, w[4:]):
        assert oracles.brute_numerical_radius(m, trials=200, seed=7) <= value + tol

    weights = rng.uniform(1.0, 3.0, size=len(stack))
    expected = max(lipnorm.numerical_radius(m, tol=tol) / c for m, c in zip(stack, weights))
    assert lipnorm.max_numerical_radius(stack, weights, tol) == pytest.approx(expected, abs=tol)


def test_radius_brackets_match_the_loop_reference():
    rng = np.random.default_rng(8)
    for trial in range(60):
        d, count = int(rng.integers(1, 6)), int(rng.integers(1, 12))
        stack = rng.normal(size=(count, d, d)) + 1j * rng.normal(size=(count, d, d))
        stack[::3] += np.conj(np.transpose(stack[::3], (0, 2, 1)))
        stack[1::5] = 0.0
        for k in range(2, count, 7):     # square-zero u v*, v* u = 0: settled by Kittaneh's bound
            q, _ = np.linalg.qr(stack[k])
            stack[k] = stack[k, 0, 0] * np.outer(q[:, 0], q[:, -1].conj()) * (d > 1)
        weights = rng.uniform(0.5, 3.0, size=count) if trial % 2 else None
        tols = 1e-7 if weights is None else 1e-7 * weights
        if weights is None:      # each matrix its own group: the unpruned reference
            got = lipnorm._radius_brackets(stack, tols, np.ones(count), np.arange(count))
        else:
            got = lipnorm._radius_brackets(stack, tols, weights)
        want = oracles.loop_radius_brackets(stack, tols, weights)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_radius_brackets_contain_near_normal_and_tiny_radii():
    # w(I + e E12) = 1 + e/2 and w(e E12) = e/2: near-normal and below-tolerance matrices
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    for m, w in ((np.eye(2) + 3e-7 * e12, 1 + 1.5e-7), (1e-10 * e12, 5e-11)):
        lower, upper = lipnorm._radius_brackets(m[None], 1e-9, np.ones(1), np.arange(1))
        assert lower[0] <= w <= upper[0]
        assert upper[0] - lower[0] <= 1e-9


def _support(m, thetas):
    """lambda_max(Re(e^{i theta} M)) at each angle, one eigvalsh per angle."""
    rotated = np.exp(1j * np.asarray(thetas))[:, None, None] * m
    return np.linalg.eigvalsh((rotated + np.conj(np.transpose(rotated, (0, 2, 1)))) / 2)[:, -1]


def test_arc_caps_bound_the_support_function_on_the_arc():
    rng = np.random.default_rng(30)
    inside = outside = 0
    for _ in range(40):
        d = int(rng.integers(2, 7))
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m += rng.normal(size=2) @ [1, 1j] * np.eye(d)      # shift W(M) off the origin at times
        lo = rng.uniform(0, 2 * np.pi, size=5)
        hi = lo + rng.uniform(0.01, 0.95 * np.pi, size=5)
        f_lo, f_hi = _support(m, lo), _support(m, hi)
        caps, peaks = lipnorm._arc_caps(lo, hi, f_lo, f_hi)
        for a, b, cap, peak, fa, fb in zip(lo, hi, caps, peaks, f_lo, f_hi):
            sampled = _support(m, np.linspace(a, b, 2000))
            assert cap >= np.max(sampled) - 1e-12 * np.linalg.norm(m, 2)
            # never looser than the apex z* of the two endpoint support lines
            apex = np.linalg.solve([[np.cos(a), -np.sin(a)], [np.cos(b), -np.sin(b)]], [fa, fb])
            assert cap <= np.hypot(*apex) * (1 + 1e-12)
            if a <= peak <= b:
                inside += 1
            else:
                outside += 1
                assert cap == max(fa, fb)
    assert inside and outside


def _unitary(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q


def _counting_support(monkeypatch):
    calls = []
    original = lipnorm._support_values_batch

    def counted(stack, owners, thetas):
        calls.append(len(owners))
        return original(stack, owners, thetas)

    monkeypatch.setattr(lipnorm, "_support_values_batch", counted)
    return calls


def test_square_zero_slices_settle_without_an_eigensolve(monkeypatch):
    # w(c J_2 (+) 0) = |c|/2 = ||M||/2, and Kittaneh's upper end is ||M||/2 up to roundoff
    rng = np.random.default_rng(31)
    calls = _counting_support(monkeypatch)
    shift = np.zeros((3, 3))
    shift[0, 1] = 1.0
    for c in (1.0, 0.37 * np.exp(0.4j), 5.0 * np.exp(2.9j)):
        u = _unitary(rng, 3)
        m = c * u @ shift @ u.conj().T
        lower, upper = lipnorm._radius_brackets(m[None], 1e-7, np.ones(1))
        assert lower[0] <= abs(c) / 2 * (1 + 1e-12) and abs(c) / 2 <= upper[0]
        assert upper[0] - lower[0] <= 1e-7
        assert oracles.brute_numerical_radius(m, trials=300, seed=33) <= upper[0] * (1 + 1e-12)
    assert sum(calls) == 0


def test_triangle_slices_close_at_their_vertices(monkeypatch):
    # W(C_3 (+) J_2) is the triangle of cube roots of unity, so w(c U (C_3 (+) J_2) U*) = |c|
    rng = np.random.default_rng(32)
    block = np.zeros((5, 5))
    block[[1, 2, 0], [0, 1, 2]] = 1.0
    block[3, 4] = 1.0
    for c in (1.0, 0.8 * np.exp(0.3j), 2.5 * np.exp(-1.1j)):
        calls = _counting_support(monkeypatch)
        u = _unitary(rng, 5)
        m = c * u @ block @ u.conj().T
        lower, upper = lipnorm._radius_brackets(m[None], 1e-7, np.ones(1))
        assert sum(calls) <= 32
        assert lower[0] <= abs(c) * (1 + 1e-12) and abs(c) <= upper[0] * (1 + 1e-12)
        assert upper[0] - lower[0] <= 1e-7
        assert oracles.brute_numerical_radius(m, trials=300, seed=33) <= upper[0] * (1 + 1e-12)


def test_kadison_sandwich_sampled():
    rng = np.random.default_rng(4)
    for _ in range(60):
        d = int(rng.integers(1, 9))
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        w = lipnorm.numerical_radius(m, tol=1e-7)
        nrm = float(np.linalg.norm(m, 2))
        assert w <= nrm + 1e-6
        assert nrm <= 2 * w + 1e-6


def test_selfadjoint_state_sup_equals_norm(f_s3):
    # for hermitian elements the sampled state supremum approaches the norm
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = random_elements(f_s3, rng, 1)[0]
        x = (a + f_s3.star_of(a)) / 2
        mat = f_s3.rho_of(x)
        w = lipnorm.numerical_radius(mat, tol=1e-9)
        assert w == pytest.approx(np.linalg.norm(mat, 2), abs=1e-8)


# -- induced Lip-norms -------------------------------------------------------

def test_induced_lip_vanishes_on_unit(z8_mid):
    g, lip, ts, alpha, beta = z8_mid
    assert lipnorm.induced_lip(lip, alpha, np.eye(ts.rank), tol=1e-8) < 1e-8
    assert lipnorm.induced_lip(lip, beta, np.eye(ts.rank), tol=1e-8) < 1e-8


def test_induced_lip_full_equals_original(z8_setup):
    g, irreps, dec, lip = z8_setup
    ts = compress.truncate(g, irreps, range(8), dec=dec)
    alpha = compress.induced_coaction(g, ts, "right")
    beta = compress.induced_coaction(g, ts, "left")
    rng = np.random.default_rng(6)
    for _ in range(10):
        a = random_elements(g, rng, 1)[0]
        value = lipnorm.induced_lip_bi(lip, alpha, beta, ts.tau(a), tol=1e-8)
        assert value == pytest.approx(lip.value(a), abs=1e-6)


def test_induced_lip_dominates_sampled_states(z8_mid):
    g, lip, ts, alpha, _ = z8_mid
    rng = np.random.default_rng(7)
    densities = [random_density(ts.rank, rng) for _ in range(60)]
    for _ in range(8):
        x = ts.tau(random_elements(g, rng, 1)[0])
        exact = lipnorm.induced_lip(lip, alpha, x, tol=1e-7)
        lower = oracles.sampled_state_lower_bound(lip, alpha, x, densities)
        assert lower <= exact + 2e-7


def test_induced_lip_rejects_commutator_seminorm(z8_mid):
    g, _, ts, alpha, _ = z8_mid
    gns = corep.gns_build(g)
    d_op = np.diag(np.arange(8.0))

    class Commutator:
        """L(a) = ||[D, pi(a)]||, a seminorm with no polyhedral family."""

        def value(self, a):
            mat = gns.act(a)
            return float(np.linalg.norm(d_op @ mat - mat @ d_op, 2))

    with pytest.raises(UnsupportedSeminormError):
        lipnorm.induced_lip(Commutator(), alpha, np.eye(ts.rank))


# -- invariance --------------------------------------------------------------

def test_upgrade_of_invariant_is_identity(z8_setup):
    g, _, _, lip = z8_setup
    upgrade = lipnorm.invariant_upgrade(lip, g, "bi", tol=1e-8)
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = random_elements(g, rng, 1)[0]
        assert upgrade(a) == pytest.approx(lip.value(a), abs=1e-6)
    assert upgrade(g.unit) < 1e-8


def test_upgrade_is_right_invariant(f_z4):
    # start from a deliberately non-invariant seminorm and upgrade it
    funcs = np.zeros((2, 4), dtype=complex)
    funcs[0, 0], funcs[0, 1] = 1.0, -1.0
    funcs[1, 1], funcs[1, 2] = 1.0, -1.0
    lip = lipnorm.PolyhedralSeminorm(functionals=funcs, weights=np.array([1.0, 10.0]))
    upgraded = lipnorm.invariant_upgrade(lip, f_z4, "right", tol=1e-8)
    rng = np.random.default_rng(13)
    for _ in range(20):
        a = random_elements(f_z4, rng, 1)[0]
        base = upgraded(a)
        density = random_density(4, rng)
        mu = np.einsum("ab,iba->i", density, f_z4.rep)
        sliced = f_z4.coproduct(a) @ mu
        assert upgraded(sliced) <= base + 1e-6


def test_check_invariance_accepts_and_rejects(z8_setup, f_z4):
    g, _, _, lip = z8_setup
    assert lipnorm.check_invariance(lip, g, "bi", samples=25, seed=14, tol=1e-8) < 1e-10
    funcs = np.zeros((2, 4), dtype=complex)
    funcs[0, 0], funcs[0, 1] = 1.0, -1.0
    funcs[1, 1], funcs[1, 2] = 1.0, -1.0
    bad = lipnorm.PolyhedralSeminorm(functionals=funcs, weights=np.array([1.0, 10.0]))
    assert lipnorm.check_invariance(bad, f_z4, "right", samples=40, seed=15) > 0.1


def test_counit_slice_contributes_zero(z8_setup):
    g, _, _, lip = z8_setup
    rng = np.random.default_rng(16)
    for _ in range(5):
        a = random_elements(g, rng, 1)[0]
        sliced = g.coproduct(a) @ g.counit
        assert lip.value(sliced) == pytest.approx(lip.value(a), abs=1e-12)


# -- group-case seminorms ----------------------------------------------------

def test_group_case_zero_on_unit(z8_mid):
    g, _, ts, _, _ = z8_mid
    lam, rho, both = lipnorm.group_case_seminorms(g, ts, np.eye(ts.rank))
    assert lam == pytest.approx(0.0, abs=1e-12)
    assert rho == pytest.approx(0.0, abs=1e-12)
    assert both == pytest.approx(0.0, abs=1e-12)


def test_group_case_diagonal_closed_form(f_z8):
    # at the full truncation of F(Z_n) conjugation by translations acts on the
    # delta basis; for diagonal x the seminorm has the explicit difference form
    irreps = corep.default_irreps(f_z8)
    ts = compress.truncate(f_z8, irreps, range(8))
    metric = f_z8.metric
    rng = np.random.default_rng(17)
    table = np.asarray(f_z8.group_table)
    for _ in range(5):
        f = rng.normal(size=8)
        x = ts.tau(f.astype(complex))
        lam, rho, _ = lipnorm.group_case_seminorms(f_z8, ts, x)
        expected = max(
            max(abs(f[int(table[g, h])] - f[h]) for h in range(8)) / metric[g, 0]
            for g in range(1, 8))
        assert lam == pytest.approx(expected, abs=1e-10)
        assert rho == pytest.approx(expected, abs=1e-10)


def test_sandwich_on_z8_and_s3(z8_setup, f_s3):
    cases = []
    g8, irreps8, dec8, lip8 = z8_setup
    cases.append((g8, irreps8, dec8, lip8, (0, 1, 7)))
    irreps3 = corep.default_irreps(f_s3)
    dec3 = corep.pw_decompose(f_s3, irreps3)
    lip3 = lipnorm.lip_from_metric(f_s3)
    cases.append((f_s3, irreps3, dec3, lip3, (0, 2)))
    rng = np.random.default_rng(18)
    for g, irreps, dec, lip, lam_set in cases:
        ts = compress.truncate(g, irreps, lam_set, dec=dec)
        alpha = compress.induced_coaction(g, ts, "right")
        beta = compress.induced_coaction(g, ts, "left")
        for _ in range(10):
            x = ts.tau(random_elements(g, rng, 1)[0])
            value = lipnorm.induced_lip_bi(lip, alpha, beta, x, tol=1e-7)
            _, _, both = lipnorm.group_case_seminorms(g, ts, x)
            assert 0.5 * both - 1e-5 <= value <= both + 1e-5


def test_compression_and_symbol_contractivity(z8_mid):
    g, lip, ts, alpha, _ = z8_mid
    rng = np.random.default_rng(19)
    density = compress.canonical_symbol_state(g, ts)
    sym = compress.symbol_map(ts, alpha, density)
    for _ in range(10):
        a = random_elements(g, rng, 1)[0]
        tau_a = ts.tau(a)
        assert lipnorm.induced_lip(lip, alpha, tau_a, tol=1e-7) <= lip.value(a) + 1e-6
        x = ts.tau(random_elements(g, rng, 1)[0])
        assert lip.value(sym(ts.expand(x))) <= lipnorm.induced_lip(lip, alpha, x, tol=1e-7) + 1e-6


def test_induced_lip_two_sided_against_state_oracle(z8_mid):
    # the reduction sup over states -> numerical radius, cross-checked against
    # an explicit state supremum (rotated eigenvector states plus random ones)
    g, lip, ts, alpha, _ = z8_mid
    rng = np.random.default_rng(20)
    for _ in range(4):
        x = ts.tau(random_elements(g, rng, 1)[0])
        coords = ts.expand(x)
        sliced = alpha.slice_states(coords, lip.functionals)
        mats = np.array([ts.combine(row) for row in sliced])
        ratios = [oracles.brute_numerical_radius(m, trials=300, seed=21) / c
                  for m, c in zip(mats, lip.weights)]
        oracle = max(ratios)
        exact = lipnorm.induced_lip(lip, alpha, x, tol=1e-8)
        assert oracle - 1e-7 <= exact <= oracle + 1e-3 * max(1.0, oracle)


def test_induced_on_comultiplication_matches_upgrade(z8_setup, s3c_setup, f_s3):
    # the right upgrade slices Delta's first leg, the left one its second; a
    # non-invariant family on F(S_3), which is not cocommutative, tells them apart
    funcs = np.zeros((2, 6), dtype=complex)
    funcs[0, 0], funcs[0, 1] = 1.0, -1.0
    funcs[1, 1], funcs[1, 3] = 1.0, -1.0
    skew = lipnorm.PolyhedralSeminorm(functionals=funcs, weights=np.array([1.0, 3.0]))
    rng = np.random.default_rng(22)
    for g, lip in ((z8_setup[0], z8_setup[3]), (s3c_setup[0], s3c_setup[3]), (f_s3, skew)):
        for side, view in (("right", "left"), ("left", "right")):
            upgrade = lipnorm.invariant_upgrade(lip, g, side, tol=1e-8)
            co = compress.comultiplication_coaction(g, view)
            for _ in range(5):
                a = random_elements(g, rng, 1)[0]
                delta = g.coproduct(a)
                sliced = lip.functionals @ (delta if side == "right" else delta.T)
                mats = np.einsum("il,lpq->ipq", sliced, g.rep)
                direct = lipnorm.max_numerical_radius(mats, lip.weights, tol=1e-8)
                assert upgrade(a) == pytest.approx(direct, abs=1e-6)
                assert lipnorm.induced_lip(lip, co, a, tol=1e-8) == pytest.approx(direct, abs=1e-6)


# -- reduced families ---------------------------------------------------------

def _metric_algebra(name):
    if name == "F(S_3)":
        return hopf.function_algebra(groups.s3_table(), metric=oracles.s3_transposition_metric())
    n = int(name[4:-1])
    return hopf.function_algebra(groups.cyclic_table(n), metric=groups.arc_metric(n))


@pytest.mark.parametrize("name, full, pruned, orbits", [
    ("F(Z_8)", 28, 8, 1), ("F(Z_24)", 276, 24, 1), ("F(S_3)", 15, 9, 3), ("F(Z_3)", 3, 3, 1)])
def test_reduce_family_row_counts(name, full, pruned, orbits):
    g = _metric_algebra(name)
    lip = lipnorm.lip_from_metric(g)
    lp_family, radius_family, metric, drift = lipnorm.reduce_family(g, lip)
    assert (len(lip.weights), len(lp_family.weights), len(radius_family.weights)) == (full, pruned, orbits)
    assert drift == 0.0                                              # metrics of groups are bi-invariant
    assert lipnorm.reduce_family(g, lip)[0] is lp_family            # cached per (algebra, family)
    assert (lp_family is lip) == (pruned == full)
    # the kept rows are the nearest neighbours: every longer pair is a sum of steps
    assert np.max(lp_family.weights) <= np.min(lip.weights) * (1 + 1e-12)
    # their shortest paths give back the stored metric, in a read-only matrix
    assert not metric.flags.writeable
    np.testing.assert_allclose(metric, g.metric, rtol=1e-14, atol=0.0)


def test_reduce_family_leaves_fourier_and_non_pair_rows(s3c_setup, f_z4):
    g, _, _, lip = s3c_setup
    # one coordinate per row on C*(G): every slice is a Fourier multiplier, invariance is proven
    assert lipnorm.reduce_family(g, lip) == (lip, lip, None, 0.0)
    # a non-pair row is kept even where the pair rows are pruned, and stops the orbit reduction
    metric = lipnorm.lip_from_metric(f_z4)
    extra = np.array([[2.0, -1.0, 0.0, -1.0]], dtype=complex)
    mixed = lipnorm.PolyhedralSeminorm(functionals=np.vstack([metric.functionals, extra]),
                                       weights=np.append(metric.weights, 0.5))
    lp_family, radius_family, metric, _ = lipnorm.reduce_family(f_z4, mixed)
    assert len(lp_family.weights) == 5
    assert np.array_equal(lp_family.functionals[-1], extra[0])
    assert radius_family is lp_family and metric is None


def test_non_invariant_pair_family_keeps_the_lp_rows(f_z4):
    # the metric pairs of F(Z_4) with weights that break translation invariance
    metric = lipnorm.lip_from_metric(f_z4)
    lopsided = lipnorm.PolyhedralSeminorm(functionals=metric.functionals,
                                          weights=np.array([1, 2, 1.5, 1, 2, 1.0]))
    lp_family, radius_family, metric, drift = lipnorm.reduce_family(f_z4, lopsided)
    assert len(lp_family.weights) == 4
    assert radius_family is lp_family
    assert drift == lipnorm._translation_drift(f_z4, lp_family) == 0.5    # the 4-cycle, one side 1.5
    # a pure pair family still has its shortest-path metric over the kept rows
    assert (metric[0, 3], metric[1, 3], metric[0, 2]) == (1.5, 2.0, 2.0)


@pytest.mark.parametrize("name, subsets", [
    ("F(Z_8)", [(0,), (0, 1, 7), (0, 2, 6), (0, 1, 2, 6, 7), tuple(range(8))]),
    ("F(Z_12)", [(0, 1, 11), (0, 3, 9), (0, 1, 2, 10, 11), (0, 1, 5, 7)]),
    ("F(S_3)", [(0,), (0, 1), (0, 2), (1, 2), (0, 1, 2)])])
def test_orbit_radius_family_matches_the_full_family(name, subsets):
    g = _metric_algebra(name)
    lip = lipnorm.lip_from_metric(g)
    irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    tol = 1e-9
    rng = np.random.default_rng(23)
    coactions = [compress.comultiplication_coaction(g, side) for side in ("right", "left")]
    for subset in subsets:
        ts = compress.truncate(g, irreps, subset, dec=dec)
        coactions += [compress.induced_coaction(g, ts, side) for side in ("right", "left")]
    for co in coactions:
        for _ in range(3):
            a = random_elements(g, rng, 1)[0]
            x = a if co.system is None else co.system.tau(a)
            coords = x if co.system is None else co.system.expand(x)
            full = oracles.full_family_induced_lip(lip, co, coords, tol)
            assert abs(lipnorm.induced_lip(lip, co, x, tol) - full) <= tol * max(1.0, full)


@pytest.mark.parametrize("setup", ["z8_mid", "s3c_setup"])
def test_induced_lip_many_matches_single_calls(setup, request):
    if setup == "z8_mid":
        g, lip, ts, _, beta = request.getfixturevalue(setup)
    else:   # the 5-row Fourier family: several matrices per row, so grouping matters
        g, irreps, dec, lip = request.getfixturevalue(setup)
        ts = compress.truncate(g, irreps, (0, 1), dec=dec)
        beta = compress.induced_coaction(g, ts, "left")
    rng = np.random.default_rng(24)
    rows = ts.expand(ts.tau(random_elements(g, rng, 12)))
    rows[3] = 0.0
    many = lipnorm.induced_lip_many(lip, beta, rows, tol=1e-7)
    single = np.array([lipnorm.induced_lip(lip, beta, row, tol=1e-7) for row in rows])
    assert many.shape == (12,) and many[3] == 0.0
    np.testing.assert_allclose(many, single, rtol=1e-13, atol=0.0)
    assert lipnorm.induced_lip_many(lip, beta, np.zeros((0, ts.dim_sys)), tol=1e-7).shape == (0,)


def test_radius_brackets_prune_per_group():
    # group 1's maxima are 10x group 0's: one shared group would stop group 0 at once
    rng = np.random.default_rng(25)
    small = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    stack = np.concatenate([small, 10 * small[::-1]])
    weights = rng.uniform(0.5, 2.0, size=12)
    group_ids = np.repeat([0, 1], 6)
    lower, upper = lipnorm._radius_brackets(stack, 1e-7 * weights, weights, group_ids)
    for part in (slice(0, 6), slice(6, 12)):
        alone = lipnorm._radius_brackets(stack[part], 1e-7 * weights[part], weights[part])
        assert np.array_equal(lower[part], alone[0]) and np.array_equal(upper[part], alone[1])
    shared = lipnorm._radius_brackets(stack, 1e-7 * weights, weights)
    assert np.max(shared[1][:6] - shared[0][:6]) > 1e-3         # pruned, not resolved
    maxima = lipnorm.max_numerical_radius(stack, weights, 1e-7, group_ids=group_ids)
    assert maxima.tolist() == [lipnorm.max_numerical_radius(stack[:6], weights[:6], 1e-7),
                               lipnorm.max_numerical_radius(stack[6:], weights[6:], 1e-7)]


def _group_brackets(lower, upper, weights, group_ids, count):
    best_lower, best_upper = np.full(count, -np.inf), np.full(count, -np.inf)
    np.maximum.at(best_lower, group_ids, lower / weights)
    np.maximum.at(best_upper, group_ids, upper / weights)
    return best_lower, best_upper


@pytest.mark.parametrize("ties", [False, True])
def test_outranked_groups_keep_the_objective(monkeypatch, ties):
    # max_k (offsets_k - B V_k) over groups of m > 1 matrices: pruned across groups and not
    rng = np.random.default_rng(40 + ties)
    tol, scale, groups_count, m, d = 1e-7, 0.7, 40, 3, 4
    shape = (groups_count * m, d, d)
    for _ in range(5):
        stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        weights = rng.uniform(0.5, 2.0, size=len(stack))
        group_ids = np.repeat(np.arange(groups_count), m)
        values = lipnorm.max_numerical_radius(stack, weights, tol, group_ids=group_ids)
        offsets = rng.uniform(0.0, 1.0, size=groups_count)
        if ties:     # a third of the groups tie closer than B tol, the rest fall short
            offsets = scale * values + np.where(np.arange(groups_count) % 3 == 0,
                                                rng.uniform(0, scale * tol / 4, size=groups_count),
                                                -rng.uniform(0.01, 0.5, size=groups_count))
        unpruned = np.max(offsets - scale * values)
        calls = _counting_support(monkeypatch)
        lower, upper = lipnorm._radius_brackets(stack, tol * weights, weights, group_ids,
                                                offsets, scale)
        monkeypatch.undo()
        low, up = _group_brackets(lower, upper, weights, group_ids, groups_count)
        terms = offsets - scale * (low + up) / 2
        assert abs(np.max(terms) - unpruned) <= scale * tol
        # the group brackets stay valid: low <= V <= up, and V is within tol / 2 of values
        assert np.all(low <= up) and np.all(low <= values + tol) and np.all(up >= values - tol)
        resolved = up - low <= tol * (1 + 1e-9)
        assert resolved[np.argmax(terms)]
        # a group left unresolved provably falls below some other group's term
        assert np.all(offsets[~resolved] - scale * low[~resolved]
                      < np.max(offsets - scale * up))
        if not ties:
            assert resolved.sum() < groups_count / 4
            assert sum(calls) < 4 * len(stack)


@pytest.mark.parametrize("setup", ["z8_mid", "s3c_setup"])
def test_induced_lip_excess_matches_the_resolved_rows(setup, request):
    if setup == "z8_mid":
        g, lip, ts, _, beta = request.getfixturevalue(setup)
    else:   # the 5-row Fourier family: several matrices per row
        g, irreps, dec, lip = request.getfixturevalue(setup)
        ts = compress.truncate(g, irreps, (0, 1), dec=dec)
        beta = compress.induced_coaction(g, ts, "left")
    rng = np.random.default_rng(41)
    rows = ts.expand(ts.tau(random_elements(g, rng, 60)))
    tol = 1e-7
    many = lipnorm.induced_lip_many(lip, beta, rows, tol=tol)
    for scale in (0.0, 0.3, 2.0):
        offsets = rng.uniform(0.0, 1.0, size=len(rows))
        excess = lipnorm.induced_lip_excess(lip, beta, rows, offsets, scale, tol=tol)
        assert abs(excess - np.max(offsets - scale * many)) <= scale * tol
    assert lipnorm.induced_lip_excess(lip, beta, rows[:0], np.zeros(0), 1.0, tol=tol) == -np.inf


def test_grid_pairs_are_the_antipodal_support_values():
    rng = np.random.default_rng(42)
    stack = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
    thetas = rng.uniform(0, 2 * np.pi, size=3)
    pairs = lipnorm._support_values_batch(stack, np.arange(3), thetas)
    for m, theta, (f, antipode) in zip(stack, thetas, pairs):
        assert f == _support(m, [theta])[0]
        assert antipode == pytest.approx(_support(m, [theta + np.pi])[0], abs=1e-13)


def _gate_cases(s3c_setup):
    g6 = hopf.function_algebra(groups.cyclic_table(6))
    points = np.array([0.0, 1.0, 3.0, 4.0, 7.0, 9.0])        # a line metric: not translation invariant
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    funcs = np.zeros((len(pairs), 6), dtype=complex)
    for row, (a, b) in enumerate(pairs):
        funcs[row, a], funcs[row, b] = 1.0, -1.0
    line = lipnorm.PolyhedralSeminorm(functionals=funcs,
                                      weights=np.array([points[b] - points[a] for a, b in pairs]))
    kp8 = build_kp8()[0]
    rows = np.flatnonzero(kp8.unit == 0)
    coefficients = lipnorm.PolyhedralSeminorm(functionals=np.eye(8, dtype=complex)[rows],
                                              weights=1.0 + np.arange(len(rows)) / 4)
    return {"C*(S_3)": (s3c_setup[0], s3c_setup[3]), "kp8": (kp8, coefficients), "F(Z_6) line": (g6, line)}


@pytest.mark.parametrize("side", ["right", "left", "bi"])
def test_batched_invariance_gate_equals_the_sample_loop(s3c_setup, side):
    for name, (g, lip) in _gate_cases(s3c_setup).items():
        got = lipnorm.check_invariance(lip, g, side, samples=12, seed=5, tol=1e-7)
        assert got == oracles.loop_check_invariance(lip, g, side, 12, 5, 1e-7), name
        if name == "F(Z_6) line":
            assert got > 0.1
        upgrade = lipnorm.invariant_upgrade(lip, g, side, tol=1e-7)
        elements = random_elements(g, np.random.default_rng(6), 7)
        assert np.array_equal(upgrade(elements), [upgrade(a) for a in elements]), name
