import numpy as np
import pytest

from cqms import compress, corep, groups, hopf, lipnorm
from cqms.errors import LengthError, UnsupportedSeminormError
from cqms.sampling import random_density, random_element

import oracles


# -- constructors -----------------------------------------------------------

def test_lip_from_metric_z4(f_z4):
    lip = lipnorm.lip_from_metric(f_z4)
    chi1 = np.exp(2j * np.pi * np.arange(4) / 4)
    assert lip.value(chi1) == pytest.approx(2 * np.sqrt(2) / np.pi)
    assert lip.value(f_z4.unit) == pytest.approx(0.0, abs=1e-14)
    assert lip.kernel_rank_defect(4) == 0
    assert lip.unit_residual(f_z4.unit) < 1e-14
    assert lip.star_closure_residual(f_z4) < 1e-14


def test_lip_fourier_values(c_s3):
    lip = lipnorm.lip_fourier(c_s3)
    for g_idx in range(1, 6):
        lam = np.eye(6)[g_idx]
        assert lip.value(lam) == pytest.approx(c_s3.length[g_idx])
    assert lip.value(c_s3.unit) == pytest.approx(0.0, abs=1e-14)
    assert lip.star_closure_residual(c_s3) < 1e-14


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


def test_numerical_radius_many_dispatches_a_mixed_stack():
    rng = np.random.default_rng(6)
    tol = 1e-8
    h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = h + h.conj().T
    diag = np.diag(rng.normal(size=4) + 1j * rng.normal(size=4))
    e12 = np.zeros((4, 4))
    e12[0, 1] = 1.0
    rand = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
    stack = np.concatenate([np.stack([np.zeros((4, 4)), h, diag, e12]), rand])

    w = lipnorm.numerical_radius_many(stack, tol=tol)
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
        weights = rng.uniform(0.5, 3.0, size=count) if trial % 2 else None
        tols = 1e-7 if weights is None else 1e-7 * weights
        got = lipnorm._radius_brackets(stack, tols, weights)
        want = oracles.loop_radius_brackets(stack, tols, weights)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


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
        a = random_element(f_s3, rng)
        x = (a + f_s3.star_of(a)) / 2
        mat = f_s3.rho_of(x)
        w = lipnorm.numerical_radius(mat, tol=1e-9)
        assert w == pytest.approx(f_s3.opnorm(x), abs=1e-8)


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
        a = random_element(g, rng)
        value = lipnorm.induced_lip_bi(lip, alpha, beta, ts.tau(a), tol=1e-8)
        assert value == pytest.approx(lip.value(a), abs=1e-6)


def test_induced_lip_dominates_sampled_states(z8_mid):
    g, lip, ts, alpha, _ = z8_mid
    rng = np.random.default_rng(7)
    densities = [random_density(ts.rank, rng) for _ in range(60)]
    for _ in range(8):
        x = ts.tau(random_element(g, rng))
        exact = lipnorm.induced_lip(lip, alpha, x, tol=1e-7)
        lower = lipnorm.sampled_state_lower_bound(lip, alpha, x, densities)
        assert lower <= exact + 2e-7


def test_induced_lip_rejects_commutator_seminorm(z8_mid):
    g, _, ts, alpha, _ = z8_mid
    gns = corep.gns_build(g)
    d_op = np.diag(np.arange(8.0))
    comm = lipnorm.CommutatorSeminorm(d_operator=d_op, gns_rep=gns.rep)
    with pytest.raises(UnsupportedSeminormError):
        lipnorm.induced_lip(comm, alpha, np.eye(ts.rank))


# -- commutator seminorm brackets -------------------------------------------

def _diagonal_commutator_seminorm(g):
    gns = corep.gns_build(g)
    positions = np.arange(g.dim, dtype=float)
    return lipnorm.CommutatorSeminorm(d_operator=np.diag(positions), gns_rep=gns.rep)


def test_bracket_on_unit_is_zero(z8_mid):
    g, _, ts, alpha, _ = z8_mid
    comm = _diagonal_commutator_seminorm(g)
    bracket = lipnorm.induced_lip_bracket(comm, alpha, np.eye(ts.rank), samples=20, seed=8)
    assert bracket.lower == pytest.approx(0.0, abs=1e-10)
    assert bracket.upper == pytest.approx(0.0, abs=1e-8)


def test_bracket_contains_matching_polyhedral_value():
    # on F(Z_2) the operator diagonal in the Fourier basis reproduces the
    # metric Lipschitz constant exactly: ||[D, f]|| = |f(0) - f(1)| / 2
    g = hopf.function_algebra(groups.cyclic_table(2), metric=2.0 * (1 - np.eye(2)))
    gns = corep.gns_build(g)
    fourier = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    d_op = fourier.T @ np.diag([0.0, 1.0]) @ fourier
    comm = lipnorm.CommutatorSeminorm(d_operator=d_op, gns_rep=gns.rep)
    poly = lipnorm.lip_from_metric(g)
    rng = np.random.default_rng(9)
    for _ in range(10):
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert comm.value(f) == pytest.approx(poly.value(f), abs=1e-12)
    # bracket of the induced value on the full truncation contains the exact
    # polyhedral induced value, which agrees with the original seminorm there
    irreps = corep.default_irreps(g)
    ts = compress.truncate(g, irreps, (0, 1))
    alpha = compress.induced_coaction(g, ts, "right")
    for _ in range(5):
        f = rng.normal(size=2) + 1j * rng.normal(size=2)
        exact = lipnorm.induced_lip(poly, alpha, ts.tau(f), tol=1e-9)
        bracket = lipnorm.induced_lip_bracket(comm, alpha, ts.tau(f), samples=60, seed=10)
        assert bracket.contains(exact, slack=1e-7)


def test_bracket_lower_monotone_in_samples(z8_mid):
    g, _, ts, alpha, _ = z8_mid
    comm = _diagonal_commutator_seminorm(g)
    rng = np.random.default_rng(10)
    x = ts.tau(random_element(g, rng))
    b_small = lipnorm.induced_lip_bracket(comm, alpha, x, samples=10, seed=11)
    b_large = lipnorm.induced_lip_bracket(comm, alpha, x, samples=40, seed=11)
    assert b_small.lower <= b_large.lower + 1e-12
    assert b_large.lower <= b_large.upper + 1e-12


# -- invariance --------------------------------------------------------------

def test_upgrade_of_invariant_is_identity(z8_setup):
    g, _, _, lip = z8_setup
    upgrade = lipnorm.invariant_upgrade(lip, g, "bi", tol=1e-8)
    rng = np.random.default_rng(12)
    for _ in range(10):
        a = random_element(g, rng)
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
        a = random_element(f_z4, rng)
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
        a = random_element(g, rng)
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
            x = ts.tau(random_element(g, rng))
            value = lipnorm.induced_lip_bi(lip, alpha, beta, x, tol=1e-7)
            _, _, both = lipnorm.group_case_seminorms(g, ts, x)
            assert 0.5 * both - 1e-5 <= value <= both + 1e-5


def test_compression_and_symbol_contractivity(z8_mid):
    g, lip, ts, alpha, _ = z8_mid
    rng = np.random.default_rng(19)
    density = compress.canonical_symbol_state(g, ts)
    sym = compress.symbol_map(ts, alpha, density)
    for _ in range(10):
        a = random_element(g, rng)
        tau_a = ts.tau(a)
        assert lipnorm.induced_lip(lip, alpha, tau_a, tol=1e-7) <= lip.value(a) + 1e-6
        x = ts.tau(random_element(g, rng))
        assert lip.value(sym(ts.expand(x))) <= lipnorm.induced_lip(lip, alpha, x, tol=1e-7) + 1e-6


def test_induced_lip_two_sided_against_state_oracle(z8_mid):
    # the reduction sup over states -> numerical radius, cross-checked against
    # an explicit state supremum (rotated eigenvector states plus random ones)
    g, lip, ts, alpha, _ = z8_mid
    rng = np.random.default_rng(20)
    for _ in range(4):
        x = ts.tau(random_element(g, rng))
        coords = ts.expand(x)
        sliced = alpha.slice_states(coords, lip.functionals)
        mats = np.array([ts.combine(row) for row in sliced])
        ratios = [oracles.brute_numerical_radius(m, trials=300, seed=21) / c
                  for m, c in zip(mats, lip.weights)]
        oracle = max(ratios)
        exact = lipnorm.induced_lip(lip, alpha, x, tol=1e-8)
        assert oracle - 1e-7 <= exact <= oracle + 1e-3 * max(1.0, oracle)


def test_induced_on_comultiplication_matches_upgrade(z8_setup, s3c_setup):
    # the coaction view of Delta and the direct upgrade evaluator are two code
    # paths for the same supremum
    for g, _, _, lip in (z8_setup, s3c_setup):
        co = compress.comultiplication_coaction(g, "right")
        upgrade = lipnorm.invariant_upgrade(lip, g, "left", tol=1e-8)
        rng = np.random.default_rng(22)
        for _ in range(5):
            a = random_element(g, rng)
            via_coaction = lipnorm.induced_lip(lip, co, a, tol=1e-8)
            assert via_coaction == pytest.approx(upgrade(a), abs=1e-6)
