import collections
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from cqms import chains, cli, compress, corep, groups, hopf, io, lipnorm, mkdist
from cqms.errors import CertificationError, DegenerateKernelError
from cqms.sampling import basis_vector_state, random_density, random_matrix_state, random_state

import oracles


def test_identical_states_give_zero(z8_setup):
    g, _, _, lip = z8_setup
    rng = np.random.default_rng(0)
    mu = random_state(g, rng)
    assert mkdist.mk_distance(g, lip, mu, mu) == pytest.approx(0.0, abs=1e-9)


def test_point_masses_recover_metric(f_z4):
    lip = lipnorm.lip_from_metric(f_z4)
    d01 = mkdist.mk_distance(f_z4, lip, basis_vector_state(f_z4, 0), basis_vector_state(f_z4, 1))
    assert d01 == pytest.approx(np.pi / 2, abs=1e-9)


def test_transport_to_a_point(z8_setup):
    g, _, _, lip = z8_setup
    rng = np.random.default_rng(1)
    delta0 = basis_vector_state(g, 0)
    for _ in range(5):
        mu = random_state(g, rng)
        value = mkdist.mk_distance(g, lip, mu, delta0)
        expected = float(np.dot(mu.coeffs.real, g.metric[:, 0]))
        assert value == pytest.approx(expected, abs=1e-8)


def test_agreement_with_transport_oracle(z8_setup, f_s3):
    rng = np.random.default_rng(2)
    for g, lip in ((z8_setup[0], z8_setup[3]), (f_s3, lipnorm.lip_from_metric(f_s3))):
        for _ in range(10):
            mu = random_state(g, rng)
            nu = random_state(g, rng)
            lp_val = mkdist.mk_distance(g, lip, mu, nu)
            oracle = oracles.transport_distance(mu.coeffs.real, nu.coeffs.real, g.metric)
            assert lp_val == pytest.approx(oracle, abs=1e-8)



def _metric_algebra(name):
    if name == "F(S_3)":
        return hopf.function_algebra(groups.s3_table(), metric=oracles.s3_transposition_metric())
    n = int(name[4:-1])
    return hopf.function_algebra(groups.cyclic_table(n), metric=groups.arc_metric(n))


def _default_chain(g, irreps):
    return (chains.frequency_chain(g.dim) if groups.is_cyclic_canonical(g.group_table)
            else chains.prefix_chain(len(irreps)))


@pytest.mark.parametrize("name", ["F(Z_8)", "F(S_3)", "F(Z_24)", "F(Z_4) lopsided"])
def test_pruned_lp_family_matches_the_full_family(name):
    # the LP runs over the triangle-pruned rows; every full-family row is a constraint of the oracle
    g = _metric_algebra(name.split()[0])
    lip = lipnorm.lip_from_metric(g)
    if name.endswith("lopsided"):     # pair weights that are no metric's: 1.5 < 1 + 1 + 1 keeps (0, 3)
        lip = lipnorm.PolyhedralSeminorm(functionals=lip.functionals,
                                         weights=np.array([1, 2, 1.5, 1, 2, 1.0]))
    assert len(lipnorm.reduce_family(g, lip)[0].weights) < len(lip.weights)
    rng = np.random.default_rng(30)
    pairs = [(basis_vector_state(g, 0), basis_vector_state(g, g.dim // 2))]
    pairs += [(random_state(g, rng), random_state(g, rng)) for _ in range(6)]
    for mu, nu in pairs:
        value = mkdist.mk_distance(g, lip, mu, nu)
        assert abs(value - oracles.full_family_distance(lip, mu.coeffs, nu.coeffs)) <= 1e-12

    irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    eps = hopf.counit_state(g)
    for subset in _default_chain(g, irreps):
        ts = compress.truncate(g, irreps, subset, dec=dec)
        density = compress.canonical_symbol_state(g, ts)
        bound = mkdist.truncation_bound(g, ts, lip, density, check_invariant=False)
        pulled = compress.pullback_state(ts, density)
        assert abs(bound - 2 * oracles.full_family_distance(lip, pulled.coeffs, eps.coeffs)) <= 1e-12

def test_symmetry_and_triangle(z8_setup):
    g, _, _, lip = z8_setup
    rng = np.random.default_rng(3)
    states = [random_state(g, rng) for _ in range(4)]
    dist = {}
    for i in range(4):
        for j in range(4):
            if i != j:
                dist[i, j] = mkdist.mk_distance(g, lip, states[i], states[j])
    for i in range(4):
        for j in range(4):
            if i != j:
                assert dist[i, j] == pytest.approx(dist[j, i], abs=1e-8)
                for k in range(4):
                    if k not in (i, j):
                        assert dist[i, j] <= dist[i, k] + dist[k, j] + 1e-8


def test_degenerate_kernel_raises(f_z4):
    funcs = np.zeros((1, 4), dtype=complex)
    funcs[0, 0], funcs[0, 1] = 1.0, -1.0
    thin = lipnorm.PolyhedralSeminorm(functionals=funcs, weights=np.array([1.0]))
    mu = basis_vector_state(f_z4, 0)
    nu = basis_vector_state(f_z4, 2)
    with pytest.raises(DegenerateKernelError):
        mkdist.mk_distance(f_z4, thin, mu, nu)


def test_complex_disc_constraints_match_closed_form(s3c_setup):
    g, _, _, lip = s3c_setup
    eps = hopf.counit_state(g)
    _, inverse = groups.validate_cayley(g.group_table)
    rng = np.random.default_rng(4)
    for _ in range(6):
        mu = random_state(g, rng)
        lp_val = mkdist.mk_distance(g, lip, mu, eps)
        closed = oracles.fourier_coefficient_distance(mu.coeffs - eps.coeffs,
                                                      np.asarray(g.length), inverse)
        assert abs(lp_val - closed) <= 1e-12 * closed



def _lp_arrays(problem):
    return (problem.objective, problem.inequalities, problem.bounds)


def _mixed_disc_family(g, lip):
    """The C*(S_3) coefficient rows plus |x_(012) + x_(02)| <= 1: disc rows, but no product ball."""
    mixed = np.zeros((1, g.dim), dtype=complex)
    mixed[0, 4] = mixed[0, 3] = 1.0
    family = lipnorm.PolyhedralSeminorm(functionals=np.vstack([lip.functionals, mixed]),
                                        weights=np.append(lip.weights, 1.0))
    assert len(mkdist._unit_ball(g, family)[4]) == 0
    return family


def _interacting_disc_family(g, lip):
    """The C*(S_3) coefficient rows plus the real row x_(01) + x_(012), weight 1: its discs interact."""
    row = np.zeros((1, g.dim), dtype=complex)
    row[0, 1] = row[0, 4] = 1.0
    return lipnorm.PolyhedralSeminorm(functionals=np.vstack([lip.functionals, row]),
                                      weights=np.append(lip.weights, 1.0))


def test_stalled_refinement_reports_its_open_bracket(s3c_setup):
    # 80 rounds leave some brackets open, and on one pair the LP of round 8 fails its
    # certificate; the last certified outer optimum comes back with the bracket's width,
    # and its lower end is attained by the certified optimizer
    g, _, _, lip = s3c_setup
    family = _interacting_disc_family(g, lip)
    rng = np.random.default_rng(40)
    capped, fallback = 0, []
    for pair in range(24):
        mu, nu = random_state(g, rng), random_state(g, rng)
        result = mkdist.mk_distance(g, family, mu, nu, return_result=True)
        attained = abs(np.dot(mu.coeffs - nu.coeffs, result.element))
        assert family.value(result.element) <= 1.0
        slack = mkdist.LP_TOL * max(1.0, result.value)            # a closed bracket's width
        assert result.value - result.gap - slack <= attained <= result.value
        if 0 < result.refinement_rounds < 80 and result.gap > 0:
            fallback.append(pair)
            assert result.refinement_rounds == 7
            assert result.value == pytest.approx(1.5774613443, abs=1e-10)
            assert 1e-6 <= result.gap <= 2e-6
            continue
        assert (result.refinement_rounds == 80) == (result.gap > 0)
        capped += result.gap > 0
        assert result.gap <= 1e-6 * result.value
    assert capped > 0 and fallback == [5]
    bracket = mkdist.diameter_bracket(g, family, samples=10, seed=0)
    assert 0 < bracket.lower <= bracket.upper


@pytest.mark.parametrize("fail", [0, 3])
def test_failed_lp_certificate_returns_the_last_certified_round(fail, s3c_setup, monkeypatch):
    # a failed certificate in round 0 raises; in a later round the previous round's
    # certified outer optimum comes back with its open bracket
    g, _, _, lip = s3c_setup
    family = _interacting_disc_family(g, lip)
    rng = np.random.default_rng(40)
    mu, nu = [(random_state(g, rng), random_state(g, rng)) for _ in range(5)][4]     # 13 rounds
    solve, values = mkdist.solve_lp, []

    def flaky(problem):
        solution = solve(problem)
        values.append(solution.value)
        return dataclasses.replace(solution, gap_residual=1.0) if len(values) == fail + 1 else solution

    monkeypatch.setattr(mkdist, "solve_lp", flaky)
    if fail == 0:
        with pytest.raises(CertificationError, match="LP certificates"):
            mkdist.mk_distance(g, family, mu, nu)
        return
    result = mkdist.mk_distance(g, family, mu, nu, return_result=True)
    assert result.refinement_rounds == fail - 1 and result.value == values[fail - 1]
    assert result.gap > 0 and family.value(result.element) <= 1.0
    attained = abs(np.dot(mu.coeffs - nu.coeffs, result.element))
    assert result.value - result.gap - mkdist.LP_TOL * result.value <= attained <= result.value

@pytest.mark.parametrize("name", ["C*(S_3)", "F(Z_8)"])
def test_array_refinement_matches_the_angle_list_reference(name, s3c_setup, z8_setup, monkeypatch):
    # every LP and every result equal the dict-of-angles refinement's, bit for bit
    g, _, _, lip = s3c_setup if name == "C*(S_3)" else z8_setup
    if name == "C*(S_3)":
        lip = _mixed_disc_family(g, lip)
    solve, lps = mkdist.solve_lp, []

    def record(problem):
        lps.append(_lp_arrays(problem))
        return solve(problem)

    monkeypatch.setattr(mkdist, "solve_lp", record)
    rng = np.random.default_rng(40)
    rounds = 0
    for _ in range(24):
        mu, nu = random_state(g, rng), random_state(g, rng)
        result = mkdist.mk_distance(g, lip, mu, nu, return_result=True)
        ours, lps[:] = list(lps), []
        reference = oracles.loop_mk_distance(g, lip, mu, nu)
        assert len(ours) == len(lps) == reference.refinement_rounds + 1
        for mine, theirs in zip(ours, lps):
            for a, b in zip(mine, theirs):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        lps.clear()
        assert result.value == reference.value
        assert result.element.tobytes() == reference.element.tobytes()
        assert (result.lp_iterations, result.refinement_rounds) == \
            (reference.lp_iterations, reference.refinement_rounds)
        rounds += result.refinement_rounds
    assert (rounds > 0) == (name == "C*(S_3)")     # F(Z_8) has no disc rows


def test_refinement_leaves_the_cached_polygon_unchanged(s3c_setup):
    g, _, _, lip = s3c_setup
    lip = _mixed_disc_family(g, lip)
    ball = mkdist._unit_ball(g, lip)
    before = [a.copy() for a in ball]
    owner = ball[-1]
    discs = np.unique(owner[owner >= 0])
    assert len(discs) > 0 and np.all(np.diff(owner) >= 0)
    assert all(np.sum(owner == i) == 16 for i in discs)
    rng = np.random.default_rng(41)
    for _ in range(2):
        result = mkdist.mk_distance(g, lip, random_state(g, rng), random_state(g, rng),
                                    return_result=True)
        assert result.refinement_rounds > 0
    after = mkdist._unit_ball(g, lip)
    for a, b, old in zip(ball, after, before):
        assert a is b and not a.flags.writeable
        assert a.dtype == old.dtype and a.tobytes() == old.tobytes()


# -- product balls ------------------------------------------------------------

def test_product_ball_only_for_square_interval_and_disc_families(s3c_setup, c_z4, z8_setup):
    g, _, _, lip = s3c_setup
    _, _, _, product, radii = mkdist._unit_ball(g, lip)[:5]
    # (01), (12), (02) are intervals; the 3-cycles {(012), (021)} share one disc
    assert product.shape == (5, 5) and np.array_equal(radii, 1 / g.length[[1, 2, 3, 4]])
    _, _, _, product, radii = mkdist._unit_ball(c_z4, lipnorm.lip_fourier(c_z4))[:5]
    assert product.shape == (3, 3) and np.array_equal(radii, [0.5, 1.0])
    # a pair family of F(G) has more rows than dimensions, the mixed family a disc too many
    for family_g, family in ((z8_setup[0], z8_setup[3]), (g, _mixed_disc_family(g, lip))):
        _, _, _, product, radii = mkdist._unit_ball(family_g, family)[:5]
        assert product.shape == (0, family_g.dim - 1) and radii.shape == (0,)


@pytest.mark.parametrize("name", ["C*(S_3)", "C*(Z_6)"])
def test_product_ball_distance_is_the_closed_form(name, s3c_setup):
    # C*(Z_6): the involution 3 is an interval, {1, 5} and {2, 4} are discs of different radii
    g = s3c_setup[0] if name == "C*(S_3)" else hopf.group_algebra(
        groups.cyclic_table(6), length=np.array([0.0, 1.0, 2.0, 3.0, 2.0, 1.0]))
    lip = lipnorm.lip_fourier(g)
    assert len(mkdist._unit_ball(g, lip)[4]) == (4 if name == "C*(S_3)" else 3)
    _, inverse = groups.validate_cayley(g.group_table)
    rng = np.random.default_rng(42)
    for _ in range(200):
        mu, nu = random_state(g, rng), random_state(g, rng)
        result = mkdist.mk_distance(g, lip, mu, nu, return_result=True)
        closed = oracles.fourier_coefficient_distance(mu.coeffs - nu.coeffs,
                                                      np.asarray(g.length), inverse)
        assert abs(result.value - closed) <= 1e-13 * closed
        assert (result.lp_iterations, result.refinement_rounds) == (0, 0)
        # the optimizer lies in the unit ball and attains the value
        assert lip.value(result.element) <= 1 + 1e-12
        attained = np.dot(mu.coeffs - nu.coeffs, result.element)
        assert abs(abs(attained) - result.value) <= 1e-12 * result.value


@pytest.mark.parametrize("name", ["C*(S_3)", "F(Z_8)"])
def test_optimizer_lies_in_the_unit_ball(name, s3c_setup, z8_setup):
    # C*(S_3) takes the product ball, F(Z_8) the LP over its pruned pair family
    g, irreps, dec, lip = s3c_setup if name == "C*(S_3)" else z8_setup
    assert len(mkdist._unit_ball(g, lip)[4]) == (4 if name == "C*(S_3)" else 0)
    rng = np.random.default_rng(45)
    eps = hopf.counit_state(g)
    pairs = [(random_state(g, rng), random_state(g, rng)) for _ in range(40)]
    chain = chains.length_chain(g) if name == "C*(S_3)" else chains.frequency_chain(g.dim)
    for subset in chain:
        ts = compress.truncate(g, irreps, subset, dec=dec)
        pairs += [(compress.pullback_state(ts, random_density(ts.rank, rng)), eps)
                  for _ in range(10)]
    for mu, nu in pairs:
        result = mkdist.mk_distance(g, lip, mu, nu, return_result=True)
        assert lip.value(result.element) <= 1
        assert oracles.exact_in_unit_ball(lip, result.element)


def test_product_ball_distance_never_exceeds_the_lp(s3c_setup):
    g, _, _, lip = s3c_setup
    rng = np.random.default_rng(43)
    for _ in range(24):
        mu, nu = random_state(g, rng), random_state(g, rng)
        exact = mkdist.mk_distance(g, lip, mu, nu)
        lp_val = oracles.loop_mk_distance(g, lip, mu, nu).value
        assert exact <= lp_val <= exact * (1 + mkdist.LP_TOL)


def test_product_ball_certificate_rejects_a_wrong_ball(s3c_setup):
    g, _, _, lip = s3c_setup
    quotient, z, weights, product, radii = mkdist._unit_ball(g, lip)[:5]
    mu, nu = random_state(g, np.random.default_rng(44)), hopf.counit_state(g)
    objective = np.real(quotient @ (mu.coeffs - nu.coeffs))
    assert mkdist._product_support(product, radii, z, weights, objective)[0] > 0
    with pytest.raises(CertificationError, match="product-ball certificate"):
        mkdist._product_support(product, radii * (1 + 1e-9), z, weights, objective)


def test_product_ball_keeps_the_zero_objective_rule(s3c_setup, monkeypatch):
    g, irreps, dec, lip = s3c_setup
    eps = hopf.counit_state(g)
    tiny = eps.coeffs.copy()
    tiny[[4, 5]] += 1e-11              # hermitian: the 3-cycles are each other's inverses
    result = mkdist.mk_distance(g, lip, eps, tiny, return_result=True)
    assert result.value == 0.0 and not np.any(result.element)
    with monkeypatch.context() as patch:
        patch.setattr(mkdist, "LP_TOL", 1e-12)
        assert mkdist.mk_distance(g, lip, eps, tiny) > 0
    # the full level of the chain ends at exactly 0
    ts = compress.truncate(g, irreps, range(len(irreps)), dec=dec)
    density = compress.canonical_symbol_state(g, ts)
    assert mkdist.truncation_bound(g, ts, lip, density, check_invariant=False) == 0.0


# -- truncation bound ---------------------------------------------------------

def test_truncation_bound_zero_at_full(z8_setup):
    g, irreps, dec, lip = z8_setup
    ts = compress.truncate(g, irreps, range(8), dec=dec)
    density = compress.canonical_symbol_state(g, ts)
    bound = mkdist.truncation_bound(g, ts, lip, density, check_invariant=False)
    assert bound == pytest.approx(0.0, abs=1e-9)


def test_truncation_bound_matches_fejer_form(z8_setup):
    g, irreps, dec, lip = z8_setup
    for window in [(0,), (0, 1, 7), (0, 1, 2, 6, 7)]:
        ts = compress.truncate(g, irreps, window, dec=dec)
        density = compress.canonical_symbol_state(g, ts)
        bound = mkdist.truncation_bound(g, ts, lip, density, check_invariant=False)
        expected = oracles.fejer_truncation_bound(8, window)
        assert bound == pytest.approx(expected, abs=1e-8)


def test_trivial_truncation_bound_is_haar_distance(z8_setup):
    g, irreps, dec, lip = z8_setup
    ts = compress.truncate(g, irreps, (0,), dec=dec)
    density = compress.canonical_symbol_state(g, ts)
    bound = mkdist.truncation_bound(g, ts, lip, density, check_invariant=False)
    h = hopf.haar_state(g)
    eps = hopf.counit_state(g)
    assert bound == pytest.approx(2 * mkdist.mk_distance(g, lip, h, eps), abs=1e-9)


def test_truncation_bound_rejects_non_invariant(f_z4):
    irreps = corep.default_irreps(f_z4)
    ts = compress.truncate(f_z4, irreps, (0, 1))
    funcs = np.zeros((3, 4), dtype=complex)
    funcs[0, 0], funcs[0, 1] = 1.0, -1.0
    funcs[1, 1], funcs[1, 2] = 1.0, -1.0
    funcs[2, 2], funcs[2, 3] = 1.0, -1.0
    lopsided = lipnorm.PolyhedralSeminorm(functionals=funcs,
                                          weights=np.array([1.0, 10.0, 1.0]))
    density = compress.canonical_symbol_state(f_z4, ts)
    with pytest.raises((CertificationError, DegenerateKernelError)):
        mkdist.truncation_bound(f_z4, ts, lopsided, density)


# -- diameter -----------------------------------------------------------------

def test_diameter_bracket_z2():
    g = hopf.function_algebra(groups.cyclic_table(2), metric=1.0 * (1 - np.eye(2)))
    lip = lipnorm.lip_from_metric(g)
    bracket = mkdist.diameter_bracket(g, lip, samples=4, seed=8)
    assert bracket.lower == pytest.approx(1.0, abs=1e-9)
    assert bracket.upper == pytest.approx(1.0, abs=1e-9)


def test_diameter_bracket_point_masses_realize(f_z4):
    lip = lipnorm.lip_from_metric(f_z4)
    bracket = mkdist.diameter_bracket(f_z4, lip, samples=8, seed=9)
    assert bracket.lower == pytest.approx(np.pi, abs=1e-8)
    assert bracket.upper >= bracket.lower - 1e-12


def _loose_metric_family(g):
    """The arc-metric rows plus |x_0 + x_1 - x_2 - x_3| <= 100: neither a pure pair family nor
    a product ball.  The extra row never binds a 1-Lipschitz function, so the diameter is pi."""
    lip = lipnorm.lip_from_metric(g)
    extra = np.zeros((1, g.dim), dtype=complex)
    extra[0, :4] = [1.0, 1.0, -1.0, -1.0]
    family = lipnorm.PolyhedralSeminorm(functionals=np.vstack([lip.functionals, extra]),
                                        weights=np.append(lip.weights, 100.0))
    assert lipnorm.reduce_family(g, family)[2] is None
    assert len(mkdist._unit_ball(g, family)[4]) == 0
    return family


def _counting_lps(monkeypatch) -> list:
    solve, calls = mkdist.solve_lp, []
    monkeypatch.setattr(mkdist, "solve_lp", lambda *a, **k: calls.append(1) or solve(*a, **k))
    return calls


def test_diameter_bracket_box_fallback(z8_setup, monkeypatch):
    g = z8_setup[0]
    family = _loose_metric_family(g)
    calls = _counting_lps(monkeypatch)
    bracket = mkdist.diameter_bracket(g, family, samples=10, seed=10)
    assert bracket.lower <= bracket.upper
    assert bracket.lower == pytest.approx(np.pi, abs=1e-8)
    assert bracket.method == "sampled-pairs/dual-norm-box"
    assert len(calls) == 45 + 2 * 7          # the 45 sampled pairs and two LPs per coordinate


def test_diameter_bracket_vertex_fallback(f_z4, monkeypatch):
    # three quotient dimensions and no disc: the vertices of the ball give the exact radius
    family = _loose_metric_family(f_z4)
    calls = _counting_lps(monkeypatch)
    bracket = mkdist.diameter_bracket(f_z4, family, samples=6, seed=11)
    assert bracket.method == "sampled-pairs/vertex-enumeration"
    assert bracket.lower == pytest.approx(np.pi, abs=1e-8)
    assert bracket.upper == pytest.approx(np.pi, abs=1e-8)
    assert len(calls) == 15                  # the sampled pairs only


# -- closed forms on F(G) -------------------------------------------------------

def _no_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an LP ran")
    monkeypatch.setattr(mkdist, "solve_lp", refuse)


@pytest.mark.parametrize("name", ["F(Z_8)", "F(Z_24)", "F(S_3)"])
def test_distance_to_a_point_mass_is_the_transport_cost(name, monkeypatch):
    g = _metric_algebra(name)
    lip = lipnorm.lip_from_metric(g)
    _no_lp(monkeypatch)
    rng = np.random.default_rng(50)
    for _ in range(8):
        mu, point = random_state(g, rng), basis_vector_state(g, int(rng.integers(g.dim)))
        oracle = oracles.transport_distance(mu.coeffs.real, point.coeffs.real, g.metric)
        for pair in ((mu, point), (point, mu)):
            result = mkdist.mk_distance(g, lip, *pair, return_result=True)
            assert abs(result.value - oracle) <= 1e-12 * oracle
            assert (result.lp_iterations, result.refinement_rounds) == (0, 0)
            # the optimizer is sp(., b), scaled into the unit ball, and attains the value
            assert oracles.exact_in_unit_ball(lip, result.element)
            attained = abs(np.dot(pair[0].coeffs - pair[1].coeffs, result.element))
            assert abs(attained - result.value) <= 1e-12 * result.value


@pytest.mark.parametrize("n", [16, 24])
def test_closed_form_matches_the_lp_on_the_canonical_chain(n):
    g = _metric_algebra(f"F(Z_{n})")
    lip = lipnorm.lip_from_metric(g)
    irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    eps = hopf.counit_state(g)
    quotient, z, weights, _, _, cuts, bounds, owner = mkdist._unit_ball(g, lip)
    for subset in chains.frequency_chain(n):
        ts = compress.truncate(g, irreps, subset, dec=dec)
        pulled = compress.pullback_state(ts, compress.canonical_symbol_state(g, ts))
        result = mkdist.mk_distance(g, lip, pulled, eps, return_result=True)
        assert result.lp_iterations == 0
        if len(subset) == n:        # the full level reads exactly 0
            assert result.value == 0.0 and not np.any(result.element)
            continue
        objective = np.real(quotient @ (pulled.coeffs - eps.coeffs))
        lp_value = mkdist._refined_lp(z, weights, cuts, bounds, owner, objective)[0]
        assert lp_value <= result.value <= lp_value * (1 + 1e-12)


def _exact_shortest_paths(family, n):
    """Floyd-Warshall over the pair rows of a family, in fractions."""
    path = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    for (a, b), w in zip(lipnorm._pair_ends(family.functionals), family.weights):
        path[a][b] = path[b][a] = min(p for p in (path[a][b], Fraction(float(w))) if p is not None)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if path[i][k] is not None and path[k][j] is not None:
                    via = path[i][k] + path[k][j]
                    if path[i][j] is None or via < path[i][j]:
                        path[i][j] = via
    return path


def test_point_mass_distance_is_never_below_its_exact_value():
    # the exact value over the kept rows' ball is at most
    # sum_{a != b} |w_a| sp(a, b) + |sum_a w_a| max_a sp(a, b), with w = mu - delta_b;
    # the certified value is at least that, and without its roundoff charge it is not
    uncharged_below = 0
    for name in ("F(Z_8)", "F(Z_24)", "F(S_3)"):
        g = _metric_algebra(name)
        lip = lipnorm.lip_from_metric(g)
        family, _, metric, _ = lipnorm.reduce_family(g, lip)
        exact = _exact_shortest_paths(family, g.dim)
        irreps = corep.default_irreps(g)
        dec = corep.pw_decompose(g, irreps)
        rng = np.random.default_rng(51)
        measures = [random_state(g, rng).coeffs.real for _ in range(4)]
        for subset in _default_chain(g, irreps):
            ts = compress.truncate(g, irreps, subset, dec=dec)
            density = random_density(ts.rank, rng, 2)
            measures.append(compress.pullback_state(ts, density).coeffs.real)
        for mu in measures:
            for b in range(g.dim):
                w = mu - np.eye(g.dim)[b]
                value = mkdist.mk_distance(g, lip, mu, np.eye(g.dim)[b])
                reach = max(exact[a][b] for a in range(g.dim))
                bound = (sum(abs(Fraction(w[a])) * exact[a][b] for a in range(g.dim) if a != b)
                         + abs(sum(Fraction(x) for x in w)) * reach)
                assert Fraction(value) >= bound
                mass = np.abs(w)
                mass[b] = 0.0
                uncharged = float(mass @ metric[:, b]) + abs(math.fsum(w)) * np.max(metric[:, b])
                uncharged_below += Fraction(uncharged) < bound
    assert uncharged_below > 0


@pytest.mark.parametrize("n", [7, 8, 24])
def test_exact_diameter_on_cyclic_groups(n, monkeypatch):
    g = _metric_algebra(f"F(Z_{n})")
    _no_lp(monkeypatch)
    bracket = mkdist.diameter_bracket(g, lipnorm.lip_from_metric(g))
    exact = Fraction(2 * (n // 2), n) * Fraction(np.pi)       # max arc distance, pi for even n
    assert bracket.method == "exact/shortest-path"
    assert Fraction(bracket.lower) <= exact <= Fraction(bracket.upper)
    assert bracket.upper - bracket.lower <= 1e-12


@pytest.mark.parametrize("scale", [1 - 1e-3, 1 - 1e-11, 1 - 1e-13])
def test_perturbed_pair_weight_keeps_the_sampled_invariance_check(scale, z8_setup, monkeypatch):
    # one weight of the F(Z_8) metric scaled: the kept rows stay the nearest neighbours, but
    # translation moves the short pair, so only a drift within ORBIT_RTOL skips the sampling
    g, irreps, dec, lip = z8_setup
    weights = np.array(lip.weights)
    weights[0] *= scale                                # the pair (0, 1)
    family = lipnorm.PolyhedralSeminorm(functionals=lip.functionals, weights=weights)
    lp_family, _, _, drift = lipnorm.reduce_family(g, family)
    assert drift == lipnorm._translation_drift(g, lp_family)
    assert len(lp_family.weights) == 8 and drift == pytest.approx((1 - scale) / scale, rel=1e-2)
    sampled = []
    check = mkdist.check_invariance
    monkeypatch.setattr(mkdist, "check_invariance",
                        lambda *a, **k: sampled.append(1) or check(*a, **k))
    ts = compress.truncate(g, irreps, (0, 1, 7), dec=dec)
    density = compress.canonical_symbol_state(g, ts)
    if scale < 1 - 1e-6:
        with pytest.raises(CertificationError, match="not bi-invariant"):
            mkdist.truncation_bound(g, ts, family, density)
    else:
        assert mkdist.truncation_bound(g, ts, family, density) > 0
    assert len(sampled) == (drift > lipnorm.ORBIT_RTOL)



def test_group_algebra_gate_proves_one_coordinate_rows(s3c_setup, monkeypatch):
    # on C*(G) every slice by a state is a Fourier multiplier: rows that each read one
    # coordinate, with any weights and phases, are proven bi-invariant and sampled nowhere;
    # a row on two coordinates, x_(01) + x_(012), is not invariant and is still sampled
    g, irreps, dec, lip = s3c_setup
    sampled = []
    check = mkdist.check_invariance
    monkeypatch.setattr(mkdist, "check_invariance",
                        lambda *a, **k: sampled.append(1) or check(*a, **k))
    ts = compress.truncate(g, irreps, (0, 1, 2), dec=dec)
    density = compress.canonical_symbol_state(g, ts)
    phases = np.exp(1j * np.arange(len(lip.weights)))[:, None]
    odd = lipnorm.PolyhedralSeminorm(functionals=lip.functionals * phases,
                                     weights=np.random.default_rng(3).uniform(0.2, 3.0, len(lip.weights)))
    for family in (lip, odd):
        assert lipnorm.reduce_family(g, family)[3] == 0.0
        assert check(family, g, "bi", samples=30, seed=2, tol=1e-9) == 0.0    # the samples agree
        assert mkdist.truncation_bound(g, ts, family, density) > 0
    assert sampled == []
    family = _interacting_disc_family(g, lip)
    assert lipnorm.reduce_family(g, family)[3] == np.inf
    # a deterministic witness: a = x_(01) - x_(012) / 2 has L(a) = 1 and upgrade 3/2
    a = np.zeros(g.dim, dtype=complex)
    a[1], a[4] = 1.0, -0.5
    assert lipnorm.reduce_family(g, family)[0].value(a) == pytest.approx(1.0, abs=1e-12)
    for side in ("right", "left", "bi"):
        assert lipnorm.invariant_upgrade(family, g, side)(a) == pytest.approx(1.5, abs=1e-6)
    # the sampled gate can only refute: wherever it does, the bound is refused
    caught = [s for s in range(41) if check(family, g, "bi", samples=12, seed=s, tol=1e-7) > 1e-6]
    assert caught
    for seed in caught:
        with pytest.raises(CertificationError, match="not bi-invariant"):
            mkdist.truncation_bound(g, ts, family, density, seed=seed)
    assert sampled == [1] * len(caught)

def test_pair_families_and_product_balls_run_no_lp(tmp_path, monkeypatch):
    counts = collections.Counter()

    def counting(name, func):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(mkdist, "solve_lp", counting("lp", mkdist.solve_lp))
    monkeypatch.setattr(lipnorm, "max_numerical_radius",
                        counting("radius", lipnorm.max_numerical_radius))
    z8, s3 = str(tmp_path / "z8.json"), str(tmp_path / "s3.json")
    io.dump_group_file(z8, groups.cyclic_table(8), metric=groups.arc_metric(8))
    table = groups.s3_table()
    io.dump_group_file(s3, table, length=groups.symmetric_word_length(table, groups.s3_word_generators()))
    out = str(tmp_path / "out.csv")
    for argv in (["--input", z8], ["--input", s3], ["--input", s3, "--state", "optimized"]):
        assert cli.main(["sweep", *argv, "--samples", "5", "--output", out]) == 0
    assert counts["lp"] == 0

    # the certified chain of F(Z_24), the bi-invariance gate at level 0: no LP and no radius
    counts.clear()
    g = _metric_algebra("F(Z_24)")
    lip = lipnorm.lip_from_metric(g)
    irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    bounds = []
    for level, subset in enumerate(chains.frequency_chain(24)):
        ts = compress.truncate(g, irreps, subset, dec=dec)
        density = compress.canonical_symbol_state(g, ts)
        bounds.append(mkdist.truncation_bound(g, ts, lip, density, check_invariant=level == 0))
    assert bounds[0] == pytest.approx(np.pi, rel=1e-12) and bounds[-1] == 0.0
    assert counts == {}


# -- matrix states ------------------------------------------------------------

def test_matrix_lower_bound_zero_for_equal(z8_setup):
    g, _, _, lip = z8_setup
    rng = np.random.default_rng(11)
    blocks = random_matrix_state(g, 2, rng)
    assert mkdist.matrix_mk_lower_bound(g, lip, 2, blocks, blocks, samples=20, seed=12) == 0.0


@pytest.mark.parametrize("order", [1, 2, 3])
def test_matrix_lower_bound_matches_the_per_sample_loop(z8_setup, s3c_setup, order):
    from cqms.sampling import random_elements
    for g, lip in (z8_setup[0], z8_setup[3]), (s3c_setup[0], s3c_setup[3]):
        rng = np.random.default_rng(17 + order)
        mu, nu = random_matrix_state(g, order, rng), random_matrix_state(g, order, rng)
        lower = mkdist.matrix_mk_lower_bound(g, lip, order, mu, nu, samples=40, seed=18)
        sample_rng, best = np.random.default_rng(18), 0.0
        for _ in range(40):          # the same draws, one SVD and one L(x) at a time
            a = random_elements(g, sample_rng, 1)[0]
            x = (a + g.star_of(a)) / 2
            gap = np.einsum("i,iab->ab", x, mu - nu)
            best = max(best, float(np.linalg.norm(gap, 2)) / lip.value(x))
        assert lower > 0 and abs(lower - best) <= 1e-12 * best


def test_matrix_lower_bound_order_one_below_lp(z8_setup):
    g, _, _, lip = z8_setup
    rng = np.random.default_rng(13)
    for _ in range(5):
        mu = random_state(g, rng)
        nu = random_state(g, rng)
        lower = mkdist.matrix_mk_lower_bound(g, lip, 1, mu.coeffs.reshape(-1, 1, 1),
                                             nu.coeffs.reshape(-1, 1, 1),
                                             samples=60, seed=14)
        lp_val = mkdist.mk_distance(g, lip, mu, nu)
        assert lower <= lp_val + 1e-8


def test_pulled_back_matrix_states_obey_criterion(z8_setup):
    g, irreps, dec, lip = z8_setup
    ts = compress.truncate(g, irreps, (0, 1, 2, 6, 7), dec=dec)
    alpha = compress.induced_coaction(g, ts, "right")
    density = compress.canonical_symbol_state(g, ts)
    sym = compress.symbol_map(ts, alpha, density)
    bound = mkdist.truncation_bound(g, ts, lip, density, check_invariant=False)
    rng = np.random.default_rng(15)
    basis = np.eye(g.dim, dtype=complex)
    for order in (1, 2):
        for _ in range(3):
            blocks = random_matrix_state(g, order, rng)
            composed = np.stack([
                np.einsum("i,iab->ab", sym(ts.expand(ts.tau(basis[i]))), blocks)
                for i in range(g.dim)])
            lower = mkdist.matrix_mk_lower_bound(g, lip, order, blocks, composed,
                                                 samples=50, seed=16)
            assert lower <= bound + 1e-8
