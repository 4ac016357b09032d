import dataclasses

import numpy as np
import pytest

from cqms import groups, hopf
from cqms.errors import (
    NotAQuantumGroupError,
    StateCertificationError,
    StructureError,
)

import oracles
from kp8_example import build_kp8

REFERENCE_ALGEBRAS = {
    "F(Z_4)": lambda: hopf.function_algebra(groups.cyclic_table(4)),
    "F(Z_6)": lambda: hopf.function_algebra(groups.cyclic_table(6)),
    "F(S_3)": lambda: hopf.function_algebra(groups.s3_table()),
    "C*(S_3)": lambda: hopf.group_algebra(groups.s3_table()),
    "F(D_4)": lambda: hopf.function_algebra(oracles.d4_table()),
    "F(Q_8)": lambda: hopf.function_algebra(oracles.q8_table()),
    "C*(Q_8)": lambda: hopf.group_algebra(oracles.q8_table()),
    "kp8": lambda: build_kp8()[0],
}
# one entry per tensor; comult[1, 0, 1] sits on the identity's leg of Delta(e_1) in F(G),
# so only the left counit residual sees it
BUMPS = {"mult": (1, 1, 2), "comult": (1, 0, 1), "rep": (1, 0, 0), "antipode": (1, 1)}


def _bumped(g, name):
    tensor = np.array(getattr(g, name))
    tensor[BUMPS[name]] += 1e-3
    return dataclasses.replace(g, **{name: tensor})


def test_z2_comultiplication_of_delta0():
    g = hopf.function_algebra(groups.cyclic_table(2))
    delta = g.coproduct(np.array([1.0, 0.0]))
    expected = np.zeros((2, 2))
    expected[0, 0] = expected[1, 1] = 1.0       # delta_0 o mult = d0 x d0 + d1 x d1
    assert np.allclose(delta, expected)


def test_group_algebra_z2_comultiplication():
    g = hopf.group_algebra(groups.cyclic_table(2))
    delta = g.coproduct(np.array([0.0, 1.0]))
    expected = np.zeros((2, 2))
    expected[1, 1] = 1.0
    assert np.allclose(delta, expected)


def test_axioms_all_builtins():
    cases = [
        hopf.function_algebra(groups.s3_table()),
        hopf.group_algebra(groups.s3_table()),
        hopf.function_algebra(groups.cyclic_table(4)),
        hopf.group_algebra(groups.cyclic_table(4)),
        hopf.function_algebra(oracles.d4_table()),
        hopf.function_algebra(oracles.q8_table()),
        hopf.group_algebra(oracles.q8_table()),
    ]
    for g in cases:
        report = hopf.check_axioms(g)
        assert report.passed, str(report)
        assert report.max_residual < 1e-12


def test_injected_defect_is_detected(f_z4):
    mult = np.array(f_z4.mult)
    mult[1, 1, 2] += 1e-3
    broken = hopf.FiniteQuantumGroup(
        dim=4, mult=mult, unit=f_z4.unit, star=f_z4.star, comult=f_z4.comult,
        counit=f_z4.counit, antipode=f_z4.antipode, rep=f_z4.rep, haar=f_z4.haar)
    report = hopf.check_axioms(broken)
    assert report.residuals["associativity"] >= 1e-3
    assert not report.passed


def test_shape_error_names_tensor(f_z4):
    with pytest.raises(StructureError, match="antipode"):
        hopf.FiniteQuantumGroup(
            dim=4, mult=f_z4.mult, unit=f_z4.unit, star=f_z4.star, comult=f_z4.comult,
            counit=f_z4.counit, antipode=np.eye(3), rep=f_z4.rep, haar=f_z4.haar)


def test_haar_uniform_on_functions(f_s3):
    state = hopf.haar_state(f_s3)
    assert np.allclose(state.coeffs, np.full(6, 1 / 6))


def test_haar_trace_on_group_algebra(c_s3):
    state = hopf.haar_state(c_s3)
    expected = np.zeros(6)
    expected[0] = 1.0
    assert np.allclose(state.coeffs, expected)


@pytest.mark.parametrize("make", [lambda: hopf.function_algebra(groups.cyclic_table(12)),
                                  lambda: hopf.group_algebra(groups.s3_table()),
                                  lambda: build_kp8()[0]], ids=["F(Z_12)", "C*(S_3)", "kp8"])
def test_haar_state_certifies_the_solved_state_without_changing_it(make):
    g = make()
    solved = hopf._solve_haar(g.comult, g.unit, g.dim)
    assert hopf.haar_state(g).coeffs.tobytes() == solved.tobytes()


@pytest.mark.parametrize("make", [lambda: hopf.function_algebra(groups.cyclic_table(8)),
                                  lambda: hopf.function_algebra(groups.cyclic_table(24)),
                                  lambda: hopf.group_algebra(groups.s3_table()),
                                  lambda: build_kp8()[0]], ids=["F(Z_8)", "F(Z_24)", "C*(S_3)", "kp8"])
def test_haar_from_the_reduced_svd_is_bit_identical_to_the_full_svd(make):
    g = make()
    vh = np.linalg.svd(hopf._invariance_system(g.comult, g.unit, g.dim))[2]
    h = vh[-1].conj()
    assert g.haar.tobytes() == (h / np.dot(h, g.unit)).tobytes()


def test_haar_state_rejects_a_stored_state_that_is_not_invariant(f_z4):
    # the counit is a state, so only the invariance certificate can reject it
    g = dataclasses.replace(f_z4, haar=f_z4.counit)
    with pytest.raises(NotAQuantumGroupError, match="not invariant"):
        hopf.haar_state(g)


def test_haar_positive_definite(f_s3):
    rng = np.random.default_rng(11)
    for _ in range(20):
        f = rng.normal(size=6) + 1j * rng.normal(size=6)
        val = np.dot(f_s3.haar, f_s3.product(f, f_s3.star_of(f))).real
        assert val > 0


def test_haar_uniqueness_failure():
    # direct sum of two copies of F(Z_2): coassociative but no Podles density
    comult = np.zeros((4, 4, 4))
    for base in (0, 2):
        for i in range(2):
            for j in range(2):
                comult[base + (i + j) % 2, base + i, base + j] = 1.0
    unit = np.ones(4)
    with pytest.raises(NotAQuantumGroupError):
        hopf._solve_haar(comult.astype(complex), unit.astype(complex), 4)


def test_convolution_unit_and_translation(f_z4):
    rng = np.random.default_rng(3)
    eps = hopf.Functional(f_z4.counit)
    mu = hopf.Functional(rng.normal(size=4) + 1j * rng.normal(size=4))
    left = hopf.convolve(eps, mu, f_z4)
    right = hopf.convolve(mu, eps, f_z4)
    assert np.allclose(left.coeffs, mu.coeffs)
    assert np.allclose(right.coeffs, mu.coeffs)
    ev1 = hopf.Functional(np.eye(4)[1])
    assert np.allclose(hopf.convolve(ev1, ev1, f_z4).coeffs, np.eye(4)[2])


def test_convolution_haar_absorbs(f_z4):
    rng = np.random.default_rng(4)
    h = hopf.Functional(f_z4.haar)
    for _ in range(5):
        mu = hopf.Functional(rng.normal(size=4) + 1j * rng.normal(size=4))
        out = hopf.convolve(h, mu, f_z4)
        assert np.allclose(out.coeffs, mu(f_z4.unit) * h.coeffs, atol=1e-12)


def test_convolution_associative(c_s3):
    rng = np.random.default_rng(5)
    for _ in range(10):
        f1, f2, f3 = (hopf.Functional(rng.normal(size=6) + 1j * rng.normal(size=6))
                      for _ in range(3))
        left = hopf.convolve(hopf.convolve(f1, f2, c_s3), f3, c_s3)
        right = hopf.convolve(f1, hopf.convolve(f2, f3, c_s3), c_s3)
        assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)


def test_slice_counit_and_haar(f_z8):
    rng = np.random.default_rng(6)
    eps = hopf.Functional(f_z8.counit)
    h = hopf.Functional(f_z8.haar)
    for _ in range(5):
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        delta = f_z8.coproduct(a)
        assert np.allclose(oracles.slice_map("left", eps, delta), a, atol=1e-12)
        assert np.allclose(oracles.slice_map("right", h, delta),
                           np.dot(f_z8.haar, a) * f_z8.unit, atol=1e-12)


def test_slice_orders_commute(c_s3):
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        phi = hopf.Functional(rng.normal(size=6) + 1j * rng.normal(size=6))
        psi = hopf.Functional(rng.normal(size=6) + 1j * rng.normal(size=6))
        first = psi(oracles.slice_map("left", phi, t))
        second = phi(oracles.slice_map("right", psi, t))
        assert abs(first - second) < 1e-12 * max(1.0, abs(first))


def test_podles_ranks(c_z4):
    report = hopf.check_axioms(c_z4)
    assert report.residuals["podles_right"] <= 1e-12
    assert report.residuals["podles_left"] <= 1e-12
    reference = oracles.einsum_axiom_residuals(c_z4)
    assert reference["podles_right_rank_defect"] == 0.0
    assert reference["podles_left_rank_defect"] == 0.0


@pytest.mark.parametrize("bump", [None, *BUMPS])
@pytest.mark.parametrize("name", list(REFERENCE_ALGEBRAS))
def test_check_axioms_matches_the_einsum_reference(name, bump):
    g = REFERENCE_ALGEBRAS[name]()
    if bump is not None:
        g = _bumped(g, bump)
    got = hopf.check_axioms(g).residuals
    reference = oracles.einsum_axiom_residuals(g)
    shared = set(got) & set(reference)
    assert set(got) - shared == {"podles_right", "podles_left"}
    for key in shared:
        assert abs(got[key] - reference[key]) <= 1e-12 * abs(reference[key]) + 1e-15, key
    for side, tensor in (("right", g.comult), ("left", g.comult.transpose(0, 2, 1))):
        witness, dense = got[f"podles_{side}"], oracles.dense_podles_frobenius(g, tensor, side)
        assert witness >= oracles.einsum_podles_witness(g, side)
        if bump == "mult":         # the associator term keeps the witness above ||Psi Phi - I||_F
            assert witness >= dense
        else:
            assert witness == pytest.approx(dense, rel=1e-12, abs=1e-15)
    if bump is None:
        assert max(got["podles_right"], got["podles_left"]) <= 1e-12
        assert reference["podles_right_rank_defect"] == reference["podles_left_rank_defect"] == 0.0


@pytest.mark.parametrize("name", ["F(Z_8)", "C*(S_3)", "kp8", "F(Z_8) bumped"])
def test_comult_multiplicative_matmuls_match_the_einsum(name, f_z8, c_s3):
    g = build_kp8()[0] if name == "kp8" else c_s3 if name == "C*(S_3)" else f_z8
    if name.endswith("bumped"):
        g = _bumped(g, "comult")
    want = float(np.max(np.abs(oracles.einsum_comult_multiplicative(g))))
    got = hopf.check_axioms(g).residuals["comult_multiplicative"]
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert (want >= 1e-3) == name.endswith("bumped")


def _dense_random_algebra():
    """n = 4 with every entry of every tensor nonzero: no quantum group, only sums to check."""
    rng = np.random.default_rng(7)

    def entries(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    return hopf.FiniteQuantumGroup(dim=4, mult=entries(4, 4, 4), unit=entries(4), star=entries(4, 4),
                                   comult=entries(4, 4, 4), counit=entries(4), antipode=entries(4, 4),
                                   rep=entries(4, 3, 3), haar=entries(4))


SPARSE_SUM_ALGEBRAS = {**REFERENCE_ALGEBRAS, "C*(D_4)": lambda: hopf.group_algebra(oracles.d4_table()),
                       "dense n=4": _dense_random_algebra}


def _reduced(rows):
    """``hopf._coaction_parts``' rows reduced as ``oracles.dense_coaction_parts`` reduces them."""
    return tuple(float(rows[:, j].sum() if j in (1, 2) else rows[:, j].max()) for j in range(4))


@pytest.mark.parametrize("bump", [None, *BUMPS])
@pytest.mark.parametrize("name", list(SPARSE_SUM_ALGEBRAS))
def test_sums_over_nonzeros_match_the_dense_products(name, bump):
    g = SPARSE_SUM_ALGEBRAS[name]()
    if bump is not None:
        g = _bumped(g, bump)

    def close(got, want):
        return got == pytest.approx(want, rel=1e-12, abs=1e-15)

    assert close(hopf._mult_parts(hopf._ByIdentity(g.mult))[:2], oracles.dense_mult_parts(g.mult))
    assert close(hopf.check_axioms(g).residuals["comult_multiplicative"], oracles.dense_comult_multiplicative(g))
    assert close(hopf._rep_residuals(g, g.rep), oracles.dense_rep_residuals(g, g.rep))
    for alg in (g, hopf._co_opposite(g)):
        w, gram = hopf._podles_parts(alg)[:2]
        assert close(_reduced(hopf._coaction_parts(alg, hopf._coo(alg.comult))),
                     oracles.dense_coaction_parts(alg, alg.comult, w, gram))


def _sparse_sums(g):
    """Every sum over nonzeros of g, uncached: the associator's norms, Delta's multiplicativity
    residual and its intermediate product, the rep residuals and Delta's coaction rows."""
    mult, comult = hopf._coo(g.mult), hopf._coo(g.comult)
    first = hopf._summed("iab,acp->ibcp", comult, mult)
    return (hopf._mult_parts.__wrapped__(hopf._ByIdentity(g.mult))[:2],
            hopf.check_axioms(g).residuals["comult_multiplicative"], first,
            hopf._rep_residuals(g, g.rep), hopf._coaction_parts(g, comult))


@pytest.mark.parametrize("chunk", [1, 40])
@pytest.mark.parametrize("name", ["dense n=4", "C*(D_4)", "kp8"])
def test_sums_in_pieces_equal_the_whole_sums(name, chunk, monkeypatch):
    # a piece holds whole output entries, each summed in term order, so only the associator's
    # Frobenius norm, which adds up the pieces' squares, may move at roundoff
    g = SPARSE_SUM_ALGEBRAS[name]()
    (top, frobenius), comult_res, first, rep_res, rows = _sparse_sums(g)
    sizes = []
    product = hopf._product

    def counting(*args):
        terms = product(*args)
        sizes.append(len(terms[1]))
        return terms

    monkeypatch.setattr(hopf, "CHUNK_TERMS", chunk)
    monkeypatch.setattr(hopf, "_product", counting)
    (top_p, frobenius_p), comult_p, first_p, rep_p, rows_p = _sparse_sums(dataclasses.replace(g))
    assert (top_p, comult_p, rep_p) == (top, comult_res, rep_res)
    assert frobenius_p == pytest.approx(frobenius, rel=1e-12, abs=1e-300)
    assert first_p[0] == first[0] and np.array_equal(first_p[1], first[1]) and np.array_equal(first_p[2], first[2])
    assert np.array_equal(rows_p, rows)
    if name == "dense n=4":                # no output entry of it has more than 16 terms
        assert len(sizes) > 100 and max(sizes) <= max(chunk, 16)


def test_all_zero_operands_give_their_residuals(f_s3):
    # an empty COO joins to no terms: the residuals are those of the zero array
    zero_rep = np.zeros_like(f_s3.rep)
    got = hopf._rep_residuals(f_s3, zero_rep)
    assert got == (0.0, 0.0, 1.0) == oracles.dense_rep_residuals(f_s3, zero_rep)
    report = hopf.check_axioms(dataclasses.replace(f_s3, rep=zero_rep))
    assert report.residuals["rep_unital"] == 1.0 and not report.passed
    zero_tensor = np.zeros((2, 2, f_s3.dim), dtype=complex)
    w, gram = hopf._podles_parts(f_s3)[:2]
    assert _reduced(hopf._coaction_parts(f_s3, hopf._coo(zero_tensor))) == pytest.approx(
        oracles.dense_coaction_parts(f_s3, zero_tensor, w, gram), rel=1e-12, abs=1e-15)


def test_podles_witness_bounds_a_unital_but_non_associative_mult(f_s3):
    # the bump has zero row and column sums, so 1 stays a unit and only the
    # associator term keeps the witness above ||Psi Phi - I||_F
    mult = np.array(f_s3.mult)
    for j, q, sign in ((1, 2, 1), (1, 3, -1), (2, 2, -1), (2, 3, 1)):
        mult[j, q, 0] += sign * 1e-3
    g = dataclasses.replace(f_s3, mult=mult)
    got = hopf.check_axioms(g).residuals
    assert got["unit"] == 0.0 and got["associativity"] >= 1e-3
    for side, tensor in (("right", g.comult), ("left", g.comult.transpose(0, 2, 1))):
        assert got[f"podles_{side}"] >= oracles.dense_podles_frobenius(g, tensor, side)


@pytest.mark.parametrize("name", ["F(S_3)", "C*(S_3)", "kp8", "F(S_3) bumped"])
def test_left_residuals_are_the_right_residuals_of_the_co_opposite(name):
    g = REFERENCE_ALGEBRAS[name.split()[0]]()
    if name.endswith("bumped"):
        g = _bumped(g, "comult")
    cop = hopf._co_opposite(g)
    assert cop is hopf._co_opposite(g)
    assert all(getattr(cop, t) is getattr(g, t) for t in ("mult", "unit", "star", "counit", "rep", "haar"))
    assert np.array_equal(cop.comult, g.comult.transpose(0, 2, 1))
    assert np.allclose(cop.antipode @ g.antipode, np.eye(g.dim), atol=1e-12)
    assert (cop.kind, cop.group_table, cop.metric, cop.length) == ("custom", None, None, None)
    got, mirrored = hopf.check_axioms(g).residuals, hopf.check_axioms(cop).residuals
    assert got["podles_left"] == mirrored["podles_right"]
    assert mirrored["podles_left"] == pytest.approx(got["podles_right"], rel=1e-9, abs=1e-15)
    for key in ("coassociativity", "counit"):          # the larger of the two sides on both
        assert got[key] == pytest.approx(mirrored[key], rel=1e-12, abs=1e-15)


def test_podles_parts_belong_to_the_algebra_object():
    # the first replace frees the original, whose memory the second can reuse; parts
    # cached on anything but the live object would serve the original's antipode
    g = hopf.function_algebra(groups.cyclic_table(4))
    assert hopf.check_axioms(g).residuals["podles_right"] == 0.0
    for _ in range(2):
        g = _bumped(g, "antipode")
    got = hopf.check_axioms(g).residuals
    for side, tensor in (("right", g.comult), ("left", g.comult.transpose(0, 2, 1))):
        assert got[f"podles_{side}"] > 1e-3
        assert got[f"podles_{side}"] == pytest.approx(
            oracles.dense_podles_frobenius(g, tensor, side), rel=1e-12)


def test_podles_witness_above_its_limit_never_passes(f_z4):
    antipode = np.array(f_z4.antipode)
    antipode[1, 1] += 0.5
    bad = dataclasses.replace(f_z4, antipode=antipode)
    loose = hopf.check_axioms(bad, tol=10.0)
    assert loose.max_residual < loose.tol
    assert loose.residuals["podles_right"] > hopf._podles_limit(4, 4)
    assert not loose.passed
    assert "[FAIL]" in str(loose)


def test_singular_antipode_gives_an_infinite_witness(f_z4):
    antipode = np.array(f_z4.antipode)
    antipode[1] = 0.0
    report = hopf.check_axioms(dataclasses.replace(f_z4, antipode=antipode))
    assert report.residuals["podles_right"] == report.residuals["podles_left"] == np.inf
    assert not report.passed


def test_a_nan_residual_fails_the_report(f_z4):
    report = hopf.check_axioms(f_z4)
    assert report.passed
    nan_counit = dataclasses.replace(report, residuals={**report.residuals, "counit": np.nan})
    assert np.isnan(nan_counit.max_residual)
    assert not nan_counit.passed
    assert "[FAIL]" in str(nan_counit)


def test_counit_support_projection_function(f_z4):
    p = hopf.counit_support_projection(f_z4)
    assert np.allclose(p, np.eye(4)[0])
    assert abs(f_z4.counit_of(p) - 1.0) < 1e-12


def test_counit_support_projection_is_cached_and_read_only(f_z4):
    p = hopf.counit_support_projection(f_z4)
    assert p is hopf.counit_support_projection(f_z4)
    assert not p.flags.writeable


def test_counit_support_projection_group(c_s3):
    p = hopf.counit_support_projection(c_s3)
    assert np.allclose(p, np.full(6, 1 / 6))
    assert abs(c_s3.counit_of(p) - 1.0) < 1e-12
    assert np.allclose(c_s3.product(p, p), p, atol=1e-12)
    assert np.allclose(c_s3.star_of(p), p, atol=1e-12)


def test_state_certification(f_z4):
    state = hopf.certify_state(f_z4, np.full(4, 0.25))
    assert state.min_eig >= -1e-12
    with pytest.raises(StateCertificationError):
        hopf.certify_state(f_z4, np.array([1.5, -0.5, 0.0, 0.0]))
    with pytest.raises(StateCertificationError):
        hopf.certify_state(f_z4, np.full(4, 0.3))


def test_counit_is_a_state(c_s3, f_s3):
    for g in (c_s3, f_s3):
        state = hopf.counit_state(g)
        assert state.min_eig >= -1e-12


def test_rep_is_star_homomorphism(c_s3):
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        b = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.allclose(c_s3.rho_of(c_s3.product(a, b)),
                           c_s3.rho_of(a) @ c_s3.rho_of(b), atol=1e-12)
        assert np.allclose(c_s3.rho_of(c_s3.star_of(a)),
                           c_s3.rho_of(a).conj().T, atol=1e-12)


def _norm_stacks(d, rng):
    """Stacks that stress a spectral-norm kernel at size d."""
    k = 20
    dense = rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))
    rank_one = rng.normal(size=(k, d, 1)) @ (rng.normal(size=(k, 1, d)) + 1j * rng.normal(size=(k, 1, d)))
    unitary = np.linalg.qr(dense)[0] * np.exp(rng.normal(size=(k, 1, 1)))    # equal singular values
    stacks = [dense, rank_one, unitary, np.zeros((3, d, d)), np.zeros((0, d, d)),
              dense * 1e150, dense * 1e-150, rng.normal(size=(k, d, d))]
    if d == 2:
        stacks.append(np.array([[[1.0, 3e-7], [0.0, 1.0]]]))             # I + 3e-7 E12
    return stacks


@pytest.mark.parametrize("d", range(1, 10))
def test_spectral_norms_match_the_svd(d):
    rng = np.random.default_rng(60 + d)
    for stack in _norm_stacks(d, rng):
        want = np.linalg.svd(stack, compute_uv=False)[:, 0]
        got = hopf.spectral_norms(stack)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 8 * d * np.finfo(float).eps * want)


def _interleaved_s3():
    """C*(S_3) on the regular representation plus the sign and trivial ones, the
    8 coordinates shuffled so that the three blocks interleave."""
    g = hopf.group_algebra(groups.s3_table())
    sign = np.round(np.linalg.det(g.rep.real))
    rep = np.zeros((6, 8, 8), dtype=complex)
    rep[:, :6, :6] = g.rep
    rep[:, 6, 6], rep[:, 7, 7] = sign, 1.0
    perm = np.random.default_rng(4).permutation(8)
    assert not np.array_equal(perm[:6], np.arange(6))
    return dataclasses.replace(g, rep=rep[:, perm][:, :, perm])


@pytest.mark.parametrize("make", [lambda: hopf.function_algebra(groups.cyclic_table(8)),
                                  lambda: hopf.group_algebra(groups.s3_table()),
                                  lambda: build_kp8()[0], _interleaved_s3],
                         ids=["F(Z_8)", "C*(S_3)", "kp8", "interleaved"])
def test_element_norms_match_the_dense_representation(make, monkeypatch):
    g = make()
    rng = np.random.default_rng(61)
    coeffs = rng.normal(size=(30, g.dim)) + 1j * rng.normal(size=(30, g.dim))
    want = np.array([np.linalg.norm(g.rho_of(c), 2) for c in coeffs])
    assert np.allclose(hopf.element_norms(g, coeffs[:, None, None]), want, rtol=1e-13, atol=0)
    # 3 x 3 matrices over A against the dense block matrix [rho(y_ij)], with rho's blocks
    # taken all at once and one at a time
    mats = rng.normal(size=(5, 3, 3, g.dim)) + 1j * rng.normal(size=(5, 3, 3, g.dim))
    want = [np.linalg.norm(np.block([[g.rho_of(y) for y in row] for row in m]), 2) for m in mats]
    got = hopf.element_norms(g, mats)
    assert np.allclose(got, want, rtol=1e-12, atol=0)
    monkeypatch.setattr(hopf, "CHUNK_TERMS", 1)
    assert np.allclose(hopf.element_norms(g, mats), got, rtol=1e-13, atol=0)
    sizes = sorted(idx.shape[1] for idx in hopf._rep_blocks(g) for _ in idx)
    assert sum(sizes) == g.rep.shape[1]
    if make is _interleaved_s3:
        assert sizes == [1, 1, 6]


def test_no_batched_two_norm_outside_the_spectral_kernel():
    # every stacked spectral norm goes through hopf.spectral_norms: no
    # np.linalg.norm(..., 2, axis=...) or ord=2 with an axis anywhere in the package
    import ast
    from pathlib import Path

    offenders = []
    for path in sorted(Path(hopf.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "norm" and ast.unparse(node.func.value) in ("np.linalg", "linalg")):
                continue
            keywords = {kw.arg: kw.value for kw in node.keywords}
            order = node.args[1] if len(node.args) > 1 else keywords.get("ord")
            has_axis = len(node.args) > 2 or "axis" in keywords
            if has_axis and isinstance(order, ast.Constant) and order.value == 2:
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, offenders
