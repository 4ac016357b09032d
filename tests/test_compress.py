import collections
import dataclasses
import itertools
import re

import numpy as np
import pytest

from cqms import chains, compress, corep, groups, hopf, lipnorm, mkdist
from cqms.errors import InternalInconsistencyError, StateCertificationError
from cqms.sampling import random_density, random_elements

import oracles
from kp8_example import build_kp8


def _oriented(g, side):
    """The algebra whose right-side certificates are g's on this side: g, or A^cop on the left."""
    return g if side == "right" else hopf._co_opposite(g)


def test_full_truncation_is_isomorphic(z8_setup):
    g, irreps, dec, _ = z8_setup
    ts = compress.truncate(g, irreps, range(8), dec=dec)
    assert ts.dim_sys == 8 and ts.kept == tuple(range(8))
    rng = np.random.default_rng(0)
    a = random_elements(g, rng, 1)[0]
    recovered = np.linalg.lstsq(ts.tau_matrix, ts.tau(a).reshape(-1), rcond=None)[0]
    assert np.allclose(recovered, a, atol=1e-10)


def test_toeplitz_form_of_z4_truncation(f_z4):
    irreps = corep.default_irreps(f_z4)
    ts = compress.truncate(f_z4, irreps, (0, 1))
    rng = np.random.default_rng(1)
    for _ in range(5):
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        expected = oracles.toeplitz_compression(f, 4, [0, 1])
        assert np.allclose(ts.tau(f), expected, atol=1e-12)


def test_trivial_truncation_is_haar(f_z4):
    irreps = corep.default_irreps(f_z4)
    ts = compress.truncate(f_z4, irreps, (0,))
    rng = np.random.default_rng(2)
    a = random_elements(f_z4, rng, 1)[0]
    assert np.allclose(ts.tau(a), np.dot(f_z4.haar, a), atol=1e-12)
    assert ts.dim_sys == 1


@pytest.mark.parametrize("name", ["F(Z_8)", "F(D_4)", "C*(S_3)", "kp8"])
def test_system_basis_is_the_normalized_kept_coefficient_blocks(name, f_z8, c_s3):
    if name == "kp8":
        g, irreps = build_kp8()
    else:
        g = {"F(Z_8)": f_z8, "C*(S_3)": c_s3, "F(D_4)": hopf.function_algebra(oracles.d4_table())}[name]
        irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    for stop in range(1, len(irreps) + 1):
        ts = compress.truncate(g, irreps, range(stop), dec=dec)
        s = ts.dim_sys
        # tau keeps or drops whole blocks: the kept ranks add up to the rank of tau,
        # and the dropped blocks, whose norms c_sigma vanish, span its kernel
        assert sum(irreps[k].dim ** 2 for k in ts.kept) == s == np.linalg.matrix_rank(ts.tau_matrix)
        dropped = _dropped_rows(ts)
        assert len(dropped) == g.dim - s and np.abs(ts.tau(dropped)).max(initial=0.0) < 1e-12
        assert np.delete(ts.norms, ts.kept).max(initial=0.0) < 1e-12 < ts.norms[list(ts.kept)].min()
        basis = ts.sys_basis.reshape(s, -1)
        assert np.abs(basis @ basis.conj().T - np.eye(s)).max() < 1e-13
        rows = np.vstack([irreps[k].u.reshape(irreps[k].dim ** 2, -1) for k in ts.kept])
        images = ts.tau(rows).reshape(s, -1)
        scale = np.linalg.norm(images, axis=1)
        assert np.allclose(images, scale[:, None] * basis, rtol=0.0, atol=1e-13)
        kept_norms = np.repeat(ts.norms[list(ts.kept)], [irreps[k].dim ** 2 for k in ts.kept])
        assert np.allclose(scale, kept_norms, rtol=1e-13, atol=0.0)


def _dropped_rows(ts):
    """The coefficient rows u^sigma_ij of the irreps that ts drops, which span ker tau."""
    irreps = ts.decomposition.irreps
    rows = [irreps[k].u.reshape(irreps[k].dim ** 2, -1) for k in range(len(irreps)) if k not in ts.kept]
    return np.vstack(rows) if rows else np.zeros((0, ts.g.dim), dtype=complex)


def test_truncation_rejects_a_block_that_is_no_multiple_of_an_isometry(f_s3):
    # conjugating the 2-dim irrep by a non-unitary matrix keeps its block but skews the images
    irreps = corep.default_irreps(f_s3)
    dec = corep.pw_decompose(f_s3, irreps)
    k = next(k for k, pi in enumerate(irreps) if pi.dim == 2)
    a = np.diag([1.0, 2.0])
    skewed = corep.Corepresentation(u=np.einsum("ab,bcn,cd->adn", a, irreps[k].u, np.linalg.inv(a)))
    bad = dataclasses.replace(dec, irreps=dec.irreps[:k] + (skewed,) + dec.irreps[k + 1:])
    with pytest.raises(InternalInconsistencyError, match="truncation certificates failed"):
        compress.truncate(f_s3, irreps, range(len(irreps)), dec=bad)


def test_unit_of_system_is_projection(z8_mid):
    g, _, ts, _, _ = z8_mid
    assert np.allclose(ts.tau(g.unit), np.eye(ts.rank), atol=1e-12)


@pytest.mark.parametrize("side", ["right", "left"])
def test_full_coaction_is_comultiplication(f_z4, f_s3, side):
    # both sides give (carrier, algebra) coefficients; F(S_3) is not cocommutative
    rng = np.random.default_rng(3)
    for g in (f_z4, f_s3):
        irreps = corep.default_irreps(g)
        ts = compress.truncate(g, irreps, range(len(irreps)))
        co = compress.induced_coaction(g, ts, side)
        a = random_elements(g, rng, 1)[0]
        sliced = co.apply(ts.expand(ts.tau(a)))
        delta = g.coproduct(a)
        legs = [delta[:, l] if side == "right" else delta[l, :] for l in range(g.dim)]
        reconstructed = np.stack([ts.expand(ts.tau(leg)) for leg in legs], axis=1)
        assert np.allclose(sliced, reconstructed, atol=1e-10)


@pytest.mark.parametrize("side", ["right", "left"])
def test_corrupt_comultiplication_fails_the_coaction_certificates(z8_setup, side):
    g, irreps, dec, _ = z8_setup
    comult = g.comult.copy()
    comult[3, 1, 2] += 1e-3
    bad = dataclasses.replace(g, comult=comult)
    mid = compress.truncate(bad, irreps, (0, 1, 7), dec=dec)
    with pytest.raises(InternalInconsistencyError, match="kernel of tau is not contained"):
        compress.induced_coaction(bad, mid, side)
    full = compress.truncate(bad, irreps, range(8), dec=dec)
    with pytest.raises(InternalInconsistencyError, match="induced coaction certificates failed"):
        compress.induced_coaction(bad, full, side)


@pytest.mark.parametrize("name", ["F(Z_8)", "F(S_3)", "F(D_4)", "C*(S_3)", "kp8"])
def test_podles_witness_agrees_with_svd_rank(name, f_z8, f_s3, c_s3):
    # every subset that contains the trivial irrep; the level certificates charge the
    # rounding of their column sums, so they dominate the dense residuals rather than equal them
    if name == "kp8":
        g, irreps = build_kp8()
    else:
        g = {"F(Z_8)": f_z8, "F(S_3)": f_s3, "C*(S_3)": c_s3,
             "F(D_4)": hopf.function_algebra(oracles.d4_table())}[name]
        irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    others = range(1, len(irreps))
    for size in range(len(irreps)):
        for rest in itertools.combinations(others, size):
            ts = compress.truncate(g, irreps, (0,) + rest, dec=dec)
            for side in ("right", "left"):
                co = compress.induced_coaction(g, ts, side)
                assert oracles.dense_podles_frobenius(g, co.tensor, side) <= co.podles_residual < 1e-12
                assert oracles.svd_podles_defect(g, co.tensor) == 0
                assert oracles.einsum_coaction_residual(g, co.tensor, side) <= co.coaction_residual < 1e-12
                assert co.fixed_space_dim == oracles.svd_fixed_space_dim(co.tensor, g.unit)
                dense = oracles.sliced_frobenius_norms(g, ts, _dropped_rows(ts), side)
                assert dense.max(initial=0.0) <= co.well_definedness_residual < 1e-12


def _chain_algebra(name, f_z8, c_s3):
    if name == "kp8":
        g, irreps = build_kp8()
        return g, irreps, chains.prefix_chain(len(irreps))
    if name == "C*(S_3)":
        return c_s3, corep.default_irreps(c_s3), chains.length_chain(c_s3)
    g = f_z8 if name == "F(Z_8)" else hopf.function_algebra(groups.cyclic_table(24),
                                                             metric=groups.arc_metric(24))
    return g, corep.default_irreps(g), chains.frequency_chain(g.dim)


@pytest.mark.parametrize("name", ["F(Z_8)", "F(Z_24)", "C*(S_3)", "kp8"])
def test_derived_bounds_dominate_the_dense_residuals_on_every_chain_level(name, f_z8, c_s3):
    g, irreps, chain = _chain_algebra(name, f_z8, c_s3)
    dec = corep.pw_decompose(g, irreps)
    for subset in chain:
        ts = compress.truncate(g, irreps, subset, dec=dec)
        for side in ("right", "left"):
            co = compress.induced_coaction(g, ts, side)
            assert oracles.einsum_coaction_residual(g, co.tensor, side) <= co.coaction_residual < 1e-12
            assert oracles.dense_podles_frobenius(g, co.tensor, side) <= co.podles_residual < 1e-12
            assert co.podles_residual < hopf._podles_limit(g.dim, ts.dim_sys)
            assert co.fixed_space_dim == oracles.svd_fixed_space_dim(co.tensor, g.unit)
            # the charge for forming tau's images grows as n ||T||_F ||u||_F max ||rho(u_kj)||_F
            dense = oracles.sliced_frobenius_norms(g, ts, _dropped_rows(ts), side)
            assert dense.max(initial=0.0) <= co.well_definedness_residual < 1e-11


@pytest.mark.parametrize("name", ["F(Z_8)", "C*(S_3)", "kp8"])
def test_left_coaction_is_the_right_coaction_of_the_co_opposite(name, f_z8, c_s3):
    g, irreps, chain = _chain_algebra(name, f_z8, c_s3)
    cop = hopf._co_opposite(g)
    dec = corep.pw_decompose(g, irreps)
    for subset in chain:
        ts = compress.truncate(g, irreps, subset, dec=dec)
        left = compress.induced_coaction(g, ts, "left")
        right = compress.induced_coaction(cop, ts, "right")
        assert np.allclose(left.tensor, right.tensor, rtol=0.0, atol=1e-14)
        assert left.g is g


def test_singular_antipode_gives_an_infinite_podles_bound_on_both_sides(z8_setup):
    g, irreps, dec, _ = z8_setup
    antipode = np.array(g.antipode)
    antipode[1] = 0.0
    bad = dataclasses.replace(g, antipode=antipode)
    full = compress.truncate(bad, irreps, range(8), dec=dec)
    for side in ("right", "left"):
        with pytest.raises(InternalInconsistencyError, match="Podles inf"):
            compress.induced_coaction(bad, full, side)


def test_derived_bounds_stay_below_tol_on_the_f_z64_chain():
    # the rounding charges grow with n; the dense oracles' (s, s, n, n) products do not
    # stay affordable on the large levels (one such array of F(Z_128) takes 4.3 GB),
    # so they run only on the small ones
    g = hopf.function_algebra(groups.cyclic_table(64), metric=groups.arc_metric(64))
    irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    for subset in chains.frequency_chain(64):
        ts = compress.truncate(g, irreps, subset, dec=dec)
        for side in ("right", "left"):
            co = compress.induced_coaction(g, ts, side)
            assert max(co.coaction_residual, co.podles_residual, co.well_definedness_residual) < 1e-9
            if ts.dim_sys <= 9:
                assert oracles.einsum_coaction_residual(g, co.tensor, side) <= co.coaction_residual
                assert oracles.dense_podles_frobenius(g, co.tensor, side) <= co.podles_residual
                dense = oracles.sliced_frobenius_norms(g, ts, _dropped_rows(ts), side)
                assert dense.max() <= co.well_definedness_residual


def _failed_certificate(exc, name) -> float:
    return float(re.search(rf"{name} (\S+?)[,)]", str(exc.value)).group(1))


@pytest.mark.parametrize("side", ["right", "left"])
def test_full_level_fails_on_a_non_coassociative_comultiplication(z8_setup, side):
    # the bump avoids the identity's legs, so the counit identities of Delta still hold
    g, irreps, dec, _ = z8_setup
    comult = g.comult.copy()
    comult[3, 1, 2] += 1e-3
    bad = dataclasses.replace(g, comult=comult)
    assert hopf._counit_residual(bad) == hopf._counit_residual(hopf._co_opposite(bad)) == 0.0
    assert hopf._comult_certificates(_oriented(bad, side))[0] > 1e-4
    full = compress.truncate(bad, irreps, range(8), dec=dec)
    assert full.kept == tuple(range(8))
    with pytest.raises(InternalInconsistencyError, match="induced coaction certificates failed") as exc:
        compress.induced_coaction(bad, full, side)
    assert _failed_certificate(exc, "coaction") > 1e-9
    assert _failed_certificate(exc, "counit") < 1e-12


@pytest.mark.parametrize("side", ["right", "left"])
def test_full_level_fails_on_a_counit_off_the_identity(z8_setup, side):
    # eps(u) = I fails on every nontrivial character; Delta and S, and so the coaction and
    # Podles certificates, are intact, and the message names the dense max|T eps - I|
    g, irreps, dec, _ = z8_setup
    counit = g.counit.copy()
    counit[3] += 1e-6
    bad = dataclasses.replace(g, counit=counit)
    full = compress.truncate(bad, irreps, range(8), dec=dec)
    with pytest.raises(InternalInconsistencyError, match="induced coaction certificates failed") as exc:
        compress.induced_coaction(bad, full, side)
    tensor = oracles.loop_coaction_tensor(bad, full, side)
    dense = np.abs(tensor @ counit - np.eye(full.dim_sys)).max()
    assert _failed_certificate(exc, "counit") == pytest.approx(float(f"{dense:.2e}"), rel=1e-12)
    assert dense > 1e-7
    assert _failed_certificate(exc, "coaction") < 1e-12


@pytest.mark.parametrize("name", ["F(Z_8)", "F(S_3)", "C*(S_3)", "F(D_4)", "kp8", "F(S_4)"])
def test_scattered_tensor_is_the_per_irrep_loop(name, f_z8, f_s3, c_s3):
    # every prefix level on both sides, and the right coaction of A^cop, which forms the left one;
    # the counit residual read off the irreps' rows is the tensor's (F(S_4): a 2-dim irrep
    # between 1- and 3-dim ones)
    if name == "kp8":
        g, irreps = build_kp8()
    else:
        g = {"F(Z_8)": f_z8, "F(S_3)": f_s3, "C*(S_3)": c_s3,
             "F(D_4)": hopf.function_algebra(oracles.d4_table()),
             "F(S_4)": hopf.function_algebra(oracles.s4_table())}[name]
        irreps = corep.default_irreps(g)
    cop = hopf._co_opposite(g)
    dec = corep.pw_decompose(g, irreps)
    for subset in chains.prefix_chain(len(irreps)):
        ts = compress.truncate(g, irreps, subset, dec=dec)
        for alg, side in ((g, "right"), (g, "left"), (cop, "right")):
            co = compress.induced_coaction(alg, ts, side)
            assert co.carrier_dim == ts.dim_sys
            tensor = oracles.loop_coaction_tensor(alg, ts, side)
            assert np.array_equal(co.tensor, tensor)
            dense = np.abs(tensor @ g.counit - np.eye(ts.dim_sys)).max()
            assert co.counit_residual == pytest.approx(dense, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("side", ["right", "left"])
def test_full_level_fails_on_an_antipode_that_breaks_the_podles_identity(z8_setup, side):
    # Delta, and so the coaction and counit identities, are intact; only the Podles
    # witness, through S^-1 on the right or S on the left, sees the antipode
    g, irreps, dec, _ = z8_setup
    antipode = g.antipode.copy()
    antipode[1, 1] += 1e-3
    bad = dataclasses.replace(g, antipode=antipode)
    coassociativity, podles = hopf._comult_certificates(_oriented(bad, side))
    assert coassociativity == 0.0 and podles > 1e-4
    full = compress.truncate(bad, irreps, range(8), dec=dec)
    with pytest.raises(InternalInconsistencyError, match="induced coaction certificates failed") as exc:
        compress.induced_coaction(bad, full, side)
    assert _failed_certificate(exc, "coaction") < 1e-9
    assert _failed_certificate(exc, "Podles") > 1e-9


def test_induced_coactions_reuse_the_comultiplications_own_certificates(monkeypatch):
    # every level's certificates are its kept irreps' own, all 24 computed in one pass
    # over their direct sum per side, however many levels keep them
    calls = collections.Counter()
    original = compress._coaction_parts

    def counting(g, coo):
        calls[id(g), coo[0][0]] += 1          # the carrier dimension of the COO's shape
        return original(g, coo)

    monkeypatch.setattr(compress, "_coaction_parts", counting)
    g = hopf.function_algebra(groups.cyclic_table(24), metric=groups.arc_metric(24))
    irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    chain = chains.frequency_chain(24)
    for subset in chain:
        ts = compress.truncate(g, irreps, subset, dec=dec)
        for side in ("right", "left"):
            compress.induced_coaction(g, ts, side)
    assert len(chain) == 13
    assert calls == {(id(g), 24): 1, (id(hopf._co_opposite(g)), 24): 1}


@pytest.mark.parametrize("name", ["F(Z_8)", "F(D_4)", "C*(S_3)", "C*(D_4)", "kp8"])
def test_summand_rows_split_the_direct_sum_by_irrep(name, f_z8, c_s3):
    # one pass over the summands' direct sum gives each irrep's own row, charges included
    if name == "kp8":
        g, irreps = build_kp8()
    else:
        g = {"F(Z_8)": lambda: f_z8, "F(D_4)": lambda: hopf.function_algebra(oracles.d4_table()),
             "C*(S_3)": lambda: c_s3, "C*(D_4)": lambda: hopf.group_algebra(oracles.d4_table())}[name]()
        irreps = corep.default_irreps(g)
    for alg, flip in ((g, False), (hopf._co_opposite(g), True)):
        w, gram = hopf._podles_parts(alg)[:2]
        got = compress._summand_certificates(alg, tuple(irreps), flip)
        assert got == pytest.approx(oracles.dense_summand_certificates(alg, irreps, flip, w, gram),
                                    rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("side", ["right", "left"])
def test_rank_deficient_tensor_fails_the_podles_witness(z8_setup, side):
    g, irreps, dec, _ = z8_setup
    ts = compress.truncate(g, irreps, (0, 1, 7), dec=dec)
    tensor = compress.induced_coaction(g, ts, side).tensor.copy()
    tensor[1] = tensor[0]                      # alpha(x_1) := alpha(x_0)
    assert oracles.svd_podles_defect(g, tensor) > 0
    assert hopf._coaction_certificates(_oriented(g, side), tensor)[1] > 0.5 / (g.dim * ts.dim_sys)


@pytest.mark.parametrize("name", ["F(Z_8)", "C*(S_3)", "kp8"])
def test_podles_columns_give_the_dense_frobenius_norm_off_the_identity(name, f_z8, c_s3):
    # perturbed tensors put Psi Phi - I well away from 0 at every truncation level
    if name == "kp8":
        g, irreps = build_kp8()
    else:
        g = {"F(Z_8)": f_z8, "C*(S_3)": c_s3}[name]
        irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    last = len(irreps) - 1
    rng = np.random.default_rng(13)
    for subset in [(0, 1), (0, last), (0, 1, last), range(len(irreps))]:
        ts = compress.truncate(g, irreps, subset, dec=dec)
        for side in ("right", "left"):
            tensor = compress.induced_coaction(g, ts, side).tensor
            tensor = tensor + 1e-3 * (rng.normal(size=tensor.shape) + 1j * rng.normal(size=tensor.shape))
            dense = oracles.dense_podles_frobenius(g, tensor, side)
            assert dense > 1e-4
            assert hopf._coaction_certificates(_oriented(g, side), tensor)[1] == pytest.approx(
                dense, rel=1e-10)


@pytest.mark.parametrize("side", ["right", "left"])
def test_frobenius_well_definedness_bounds_the_operator_norm(z8_setup, side):
    # the bound covers the dense (tau (x) rho)Delta(v) on every dropped coefficient row v,
    # for the true comultiplication and for one bumped off the corepresentation identity
    g, irreps, dec, _ = z8_setup
    comult = g.comult.copy()
    comult[3, 1, 2] += 1e-3
    bumped = dataclasses.replace(g, comult=comult)
    for alg in (g, bumped):
        ts = compress.truncate(alg, irreps, (0, 1, 7), dec=dec)
        well = compress.induced_coaction(alg, ts, side, tol=np.inf).well_definedness_residual
        rows = _dropped_rows(ts)
        dense = [oracles.sliced_kernel_matrix(alg, ts, v, side) for v in rows]
        frobenius = [np.linalg.norm(m) for m in dense]
        assert frobenius == pytest.approx(oracles.sliced_frobenius_norms(alg, ts, rows, side), rel=1e-12)
        norms = [np.linalg.norm(m, 2) for m in dense]
        # ||M||_2 <= ||M||_F, with equality on the bumped algebra, whose slices are rank one in
        # exact arithmetic: the two floating results may then differ by a few ulps either way
        assert max(norms) <= max(frobenius) * (1 + 4 * np.finfo(float).eps)
        assert max(frobenius) <= well
        if side == "right":
            assert norms == pytest.approx([compress._tensor_opnorm(alg, ts, v[None, None])
                                           for v in rows], rel=1e-12)
        if alg is g:
            assert well < 1e-12
        else:
            assert max(norms) > 1e-5
            with pytest.raises(InternalInconsistencyError, match="kernel of tau is not contained"):
                compress.induced_coaction(alg, ts, side)


def test_trivial_coaction_is_unital(f_z4):
    irreps = corep.default_irreps(f_z4)
    ts = compress.truncate(f_z4, irreps, (0,))
    alpha = compress.induced_coaction(f_z4, ts, "right")
    unit = ts.expand(np.eye(ts.rank))
    out = alpha.apply(unit)
    assert np.allclose(out, unit[:, None] * f_z4.unit[None, :], atol=1e-12)


@dataclasses.dataclass(frozen=True, eq=False)
class _GivenTensor(compress.InducedCoaction):
    """A coaction whose tensor is given, where ``InducedCoaction`` forms its own."""

    tensor: np.ndarray = None


def test_trivial_coaction_fixes_its_whole_carrier(f_z4):
    s = 3
    tensor = np.eye(s)[:, :, None] * f_z4.unit          # x -> x (x) 1
    trivial = _GivenTensor(side="right", tensor=tensor, g=f_z4, system=None,
                           well_definedness_residual=0.0, coaction_residual=0.0,
                           counit_residual=0.0, podles_residual=0.0)
    assert trivial.fixed_space_dim == s


def test_coaction_certificates_and_ergodicity(z8_mid, s3c_setup):
    g, _, ts, alpha, beta = z8_mid
    for co in (alpha, beta):
        assert co.well_definedness_residual < 1e-9
        assert co.coaction_residual < 1e-9
        assert co.counit_residual < 1e-12
        assert co.podles_residual < 1e-9
        assert co.fixed_space_dim == 1
    assert compress.cocommutation_residual(alpha, beta) < 1e-9
    cg, irreps, dec, _ = s3c_setup
    ts2 = compress.truncate(cg, irreps, (0, 1, 2), dec=dec)
    a2 = compress.induced_coaction(cg, ts2, "right")
    b2 = compress.induced_coaction(cg, ts2, "left")
    assert a2.fixed_space_dim == 1 and b2.fixed_space_dim == 1
    assert compress.cocommutation_residual(a2, b2) < 1e-9


@pytest.mark.parametrize("name", ["F(Z_8)", "C*(S_3)", "F(D_4)", "kp8", "F(Z_8) bumped"])
def test_cocommutation_and_the_witness_norm_match_the_dense_forms(name, f_z8, c_s3):
    # cocommutation summed over nonzeros against the dense einsums, exactly where they read 0,
    # and the witness norm taken block by block on rho against the dense (p r d0)^2 operator, on
    # every prefix level with p = 1 and p = 2; Delta bumped off coassociativity makes its own
    # cocommutation (coassociativity itself) nonzero
    if name == "kp8":
        g, irreps = build_kp8()
    else:
        g = {"C*(S_3)": c_s3, "F(D_4)": hopf.function_algebra(oracles.d4_table())}.get(name, f_z8)
        irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    if name.endswith("bumped"):
        comult = g.comult.copy()
        comult[3, 1, 2] += 1e-3
        g = dataclasses.replace(g, comult=comult)
    rng = np.random.default_rng(29)
    pairs = [tuple(compress.comultiplication_coaction(g, side) for side in ("right", "left"))]
    for stop in range(1, len(irreps) + 1):
        ts = compress.truncate(g, irreps, range(stop), dec=dec)
        pairs.append(tuple(compress.induced_coaction(g, ts, side, tol=np.inf) for side in ("right", "left")))
        for p in (1, 2):
            entries = rng.normal(size=(p, p, g.dim)) + 1j * rng.normal(size=(p, p, g.dim))
            assert compress._tensor_opnorm(g, ts, entries) == pytest.approx(
                oracles.dense_tensor_opnorm(g, ts, entries), rel=1e-12)
    for alpha, beta in pairs:
        want = oracles.dense_cocommutation_residual(alpha, beta)
        got = compress.cocommutation_residual(alpha, beta)
        assert got == want if want == 0.0 else got == pytest.approx(want, rel=1e-12)
    assert (compress.cocommutation_residual(*pairs[0]) > 1e-4) == name.endswith("bumped")


def test_isometry_witness(z8_mid):
    g, _, ts, _, _ = z8_mid
    assert compress.isometry_witness_residual(g, ts, samples=30, seed=4, amplified_every=6) < 1e-10


def test_symbol_map_identity_at_full(f_z4):
    irreps = corep.default_irreps(f_z4)
    ts = compress.truncate(f_z4, irreps, range(4))
    alpha = compress.induced_coaction(f_z4, ts, "right")
    density = compress.canonical_symbol_state(f_z4, ts)
    sym = compress.symbol_map(ts, alpha, density)
    rng = np.random.default_rng(5)
    a = random_elements(f_z4, rng, 1)[0]
    assert np.allclose(sym(ts.expand(ts.tau(a))), a, atol=1e-10)


def test_symbol_unitality(z8_mid):
    g, _, ts, alpha, _ = z8_mid
    rng = np.random.default_rng(6)
    v = rng.normal(size=ts.rank) + 1j * rng.normal(size=ts.rank)
    v /= np.linalg.norm(v)
    sym = compress.symbol_map(ts, alpha, np.outer(v, v.conj()))
    assert np.allclose(sym(ts.expand(np.eye(ts.rank))), g.unit, atol=1e-10)


def test_symbol_rejects_non_state(z8_mid):
    g, _, ts, alpha, _ = z8_mid
    bad = np.eye(ts.rank, dtype=complex)
    bad[0, 0] = -0.5
    bad[1, 1] = 1.5 - ts.rank + 2  # trace 1 but not positive
    bad = bad / np.trace(bad)
    bad[0, 0] = -abs(bad[0, 0])
    with pytest.raises(StateCertificationError):
        compress.symbol_map(ts, alpha, bad)


def test_fejer_convolution_form(f_z4):
    # sigma tau acts by convolution with the squared kernel of the canonical state
    irreps = corep.default_irreps(f_z4)
    ts = compress.truncate(f_z4, irreps, (0, 1))
    alpha = compress.induced_coaction(f_z4, ts, "right")
    density = compress.canonical_symbol_state(f_z4, ts)
    sym = compress.symbol_map(ts, alpha, density)
    pulled = compress.pullback_state(ts, density)
    weights = pulled.coeffs.real                     # probability weights of tau* phi
    table = groups.cyclic_table(4)
    rng = np.random.default_rng(7)
    for _ in range(5):
        f = rng.normal(size=4) + 1j * rng.normal(size=4)
        smoothed = sym(ts.expand(ts.tau(f)))
        direct = np.array([sum(weights[j] * f[table[j, h]] for j in range(4)) for h in range(4)])
        assert np.allclose(smoothed, direct, atol=1e-10)


def test_down_up_and_up_down_identities(z8_mid):
    g, _, ts, alpha, _ = z8_mid
    rng = np.random.default_rng(8)
    v = rng.normal(size=ts.rank) + 1j * rng.normal(size=ts.rank)
    v /= np.linalg.norm(v)
    density = np.outer(v, v.conj())
    sym = compress.symbol_map(ts, alpha, density)
    pulled = compress.pullback_state(ts, density)
    for _ in range(5):
        a = random_elements(g, rng, 1)[0]
        down_up = sym(ts.expand(ts.tau(a)))
        direct = oracles.slice_map("left", pulled, g.coproduct(a))
        assert np.allclose(down_up, direct, atol=1e-10)
        x = ts.tau(a)
        up_down = ts.tau(sym(ts.expand(x)))
        kernel = _dropped_rows(ts)
        preimage = a + rng.normal(size=len(kernel)) @ kernel          # another preimage of x
        expected = np.stack(
            [ts.tau(g.coproduct(preimage)[:, l]) for l in range(g.dim)], axis=-1) @ pulled.coeffs
        assert np.allclose(up_down, expected, atol=1e-10)


def test_conditional_expectation_on_algebra(f_z4):
    co = compress.comultiplication_coaction(f_z4, "right")
    _, idem, invariant, inv_res = oracles.conditional_expectation(co)
    assert idem < 1e-12
    assert np.allclose(invariant, f_z4.haar, atol=1e-12)
    assert inv_res < 1e-12


def test_conditional_expectation_truncated(f_z4):
    irreps = corep.default_irreps(f_z4)
    ts = compress.truncate(f_z4, irreps, (0, 1))
    alpha = compress.induced_coaction(f_z4, ts, "right")
    _, idem, invariant, inv_res = oracles.conditional_expectation(alpha, samples=15, seed=9)
    assert idem < 1e-12
    assert invariant is not None
    assert inv_res < 1e-10
    # faithfulness on the positive cone: h_X(tau(a* a)) > 0 for a != 0
    rng = np.random.default_rng(10)
    for _ in range(10):
        a = random_elements(f_z4, rng, 1)[0]
        x = ts.tau(f_z4.product(a, f_z4.star_of(a)))
        val = np.dot(invariant, ts.expand(x)).real
        assert val > 1e-10


def test_isotypical_projections(f_s3):
    co = compress.comultiplication_coaction(f_s3, "right")
    irreps = corep.default_irreps(f_s3)
    expectation = oracles.conditional_expectation(co)[0]
    e_triv = oracles.isotypical_projection(co, irreps[0])
    assert np.allclose(e_triv, expectation, atol=1e-12)
    total = sum(oracles.isotypical_projection(co, p) for p in irreps)
    assert np.allclose(total, np.eye(6), atol=1e-10)
    for p in irreps:
        e = oracles.isotypical_projection(co, p)
        assert np.allclose(e @ e, e, atol=1e-10)
        assert np.linalg.matrix_rank(e, tol=1e-8) == p.dim ** 2


def test_liftable_states_full_and_trivial(f_z4):
    irreps = corep.default_irreps(f_z4)
    full = compress.truncate(f_z4, irreps, range(4))
    states, _ = compress.liftable_states(full, samples=10, seed=11)
    assert len(states) == 10
    trivial = compress.truncate(f_z4, irreps, (0,))
    only, _ = compress.liftable_states(trivial, samples=5, seed=12)
    for state in only:
        assert np.allclose(state.coeffs, f_z4.haar, atol=1e-10)


def test_liftable_density_decreases(z8_setup):
    g, irreps, dec, lip = z8_setup
    rng = np.random.default_rng(13)
    from cqms.sampling import random_state
    mu = random_state(g, rng)
    chain = [(0,), (0, 1, 7), (0, 1, 2, 6, 7), tuple(range(8))]
    systems = [compress.truncate(g, irreps, lam, dec=dec) for lam in chain]
    prev_best_density = None
    mins = []
    for k, ts in enumerate(systems):
        states, densities = compress.liftable_states(ts, samples=40, seed=100 + k)
        if prev_best_density is not None:
            moved = compress.restrict_state(systems[k - 1], ts, prev_best_density)
            states = states + [compress.pullback_state(ts, moved)]
            densities = densities + [moved]
        target = sqrt_vector_candidate(g, ts, mu)
        states = states + [compress.pullback_state(ts, target)]
        densities = densities + [target]
        dists = [mkdist.mk_distance(g, lip, mu, s) for s in states]
        best = int(np.argmin(dists))
        mins.append(dists[best])
        prev_best_density = densities[best]
    assert all(mins[k + 1] <= mins[k] + 1e-9 for k in range(len(mins) - 1))
    assert mins[-1] < 1e-6


def sqrt_vector_candidate(g, ts, mu):
    """Vector state on H_Lambda from the square root of a probability measure.

    For F(G) the GNS orthonormal basis is the delta basis of l^2(G), so the
    compressed square-root vector reproduces mu exactly at the full truncation.
    """
    weights = np.clip(np.asarray(mu.coeffs).real, 0.0, None)
    root = np.sqrt(weights / weights.sum())            # already ONB coordinates
    v = ts.frame.conj().T @ root
    norm = np.linalg.norm(v)
    assert norm > 1e-12
    v = v / norm
    return np.outer(v, v.conj())


def test_canonical_state_pullbacks(z8_setup, s3c_setup):
    for setup in (z8_setup, s3c_setup):
        g, irreps, dec, _ = setup
        full = compress.truncate(g, irreps, range(len(irreps)), dec=dec)
        density = compress.canonical_symbol_state(g, full)
        pulled = compress.pullback_state(full, density)
        assert np.allclose(pulled.coeffs, g.counit, atol=1e-10)


def test_positivity_of_tau_and_symbol(z8_mid):
    g, _, ts, alpha, _ = z8_mid
    rng = np.random.default_rng(14)
    v = rng.normal(size=ts.rank) + 1j * rng.normal(size=ts.rank)
    v /= np.linalg.norm(v)
    sym = compress.symbol_map(ts, alpha, np.outer(v, v.conj()))
    for _ in range(10):
        a = random_elements(g, rng, 1)[0]
        pos = g.product(a, g.star_of(a))
        tau_pos = ts.tau(pos)
        assert np.linalg.eigvalsh((tau_pos + tau_pos.conj().T) / 2)[0] > -1e-10
        back = sym(ts.expand(tau_pos))
        assert np.linalg.eigvalsh((g.rho_of(back) + g.rho_of(back).conj().T) / 2)[0] > -1e-10


def test_sweedler_counit_composition(z8_mid):
    g, _, ts, alpha, beta = z8_mid
    s = ts.dim_sys
    right = np.einsum("kml,l->km", alpha.tensor, g.counit)
    left = np.einsum("kml,l->km", beta.tensor, g.counit)
    assert np.allclose(right, np.eye(s), atol=1e-12)
    assert np.allclose(left, np.eye(s), atol=1e-12)


def test_optimized_symbol_state_not_worse(z8_setup):
    g, irreps, dec, lip = z8_setup
    ts = compress.truncate(g, irreps, (0, 1, 7), dec=dec)
    eps = hopf.counit_state(g)

    def objective(density):
        pulled = compress.pullback_state(ts, density)
        result = mkdist.mk_distance(g, lip, pulled, eps, return_result=True)
        return result.value, result.element

    canonical = compress.canonical_symbol_state(g, ts)
    base, _ = objective(canonical)
    density, value = compress.optimized_symbol_state(g, ts, objective)
    assert value <= base + 1e-12
    compress.certify_system_state(ts, density)


def _counit_objective(g, ts, lip):
    """The descent's objective, d^L(tau* rho, counit) with its slicer, counting its calls."""
    eps = hopf.counit_state(g)

    def objective(density):
        objective.calls += 1
        pulled = compress.pullback_state(ts, density)
        result = mkdist.mk_distance(g, lip, pulled, eps, return_result=True)
        return result.value, result.element

    objective.calls = 0
    return objective


@pytest.mark.parametrize("name", ["C*(S_3)", "F(Z_8)"])
def test_duality_lower_bound_is_below_every_density(name, s3c_setup, z8_setup):
    g, irreps, dec, lip = s3c_setup if name == "C*(S_3)" else z8_setup
    chain = chains.length_chain(g) if name == "C*(S_3)" else chains.frequency_chain(g.dim)
    rng = np.random.default_rng(31)
    for subset in chain:
        ts = compress.truncate(g, irreps, subset, dec=dec)
        objective = _counit_objective(g, ts, lip)
        results = [objective(random_density(ts.rank, rng, parts)) for parts in (1, 2, 1, 3, 1, 2)]
        lowers = [compress.duality_lower_bound(ts, slicer) for _, slicer in results]
        # the slicer of every density bounds every density's distance from below
        assert max(lowers) <= min(value for value, _ in results)


def test_descent_stops_once_the_duality_gap_closes(s3c_setup):
    g, irreps, dec, lip = s3c_setup
    calls = []
    for subset in chains.length_chain(g):
        ts = compress.truncate(g, irreps, subset, dec=dec)
        objective = _counit_objective(g, ts, lip)
        density, value = compress.optimized_symbol_state(g, ts, objective)
        calls.append(objective.calls)
        if ts.rank == 1 or ts.rank == g.dim:
            assert objective.calls == 1
            assert np.array_equal(density, compress.canonical_symbol_state(g, ts))
        again, slicer = objective(density)
        assert again == value
        gap = value - compress.duality_lower_bound(ts, slicer)
        assert 0.0 <= gap <= compress.GAP_RTOL * max(1.0, value)
    assert sum(calls) <= 80


def test_descent_runs_where_neither_start_closes_the_gap(z8_setup):
    # one row that is no pair makes the distance nonlinear in the density: the three
    # interior levels of F(Z_8) close no gap at the canonical state or its bottom
    # eigenvector, so the projected gradient runs, restarted at Frank-Wolfe vertices;
    # each value is at most the one that three random restarts reached (ranks 3, 5, 7)
    g, irreps, dec, lip = z8_setup
    random_restarts = {(0, 1, 2, 3): (0.571488939883, 0.320897768134, 0.134527951735),
                       (0, 1, 4, 5): (0.571956922966, 0.317356794188, 0.130182572940),
                       (0, 2, 4, 6): (0.579362551936, 0.325504191522, 0.150240222396)}
    for support, previous in random_restarts.items():
        row = np.zeros(g.dim, dtype=complex)
        row[list(support)] = [1, 1, -1, -1]
        family = lipnorm.PolyhedralSeminorm(functionals=np.vstack([lip.functionals, row]),
                                            weights=np.append(lip.weights, 1.0))
        descended = []
        for subset in chains.frequency_chain(g.dim):
            ts = compress.truncate(g, irreps, subset, dec=dec)
            objective = _counit_objective(g, ts, family)
            density, value = compress.optimized_symbol_state(g, ts, objective)
            if objective.calls > 2:            # more than the canonical state and its vertex
                descended.append(ts.rank)
                assert value <= previous[len(descended) - 1] + 1e-12
            compress.certify_system_state(ts, density)
            again, slicer = objective(density)
            assert again == value
            assert compress.duality_lower_bound(ts, slicer) <= value
            assert value <= objective(compress.canonical_symbol_state(g, ts))[0]
        assert descended == [3, 5, 7]


def test_bottom_eigenvector_closes_the_gap_on_a_function_algebra():
    # on F(G) every slicer is sp(., e), so the distance is linear in the density: the bottom
    # eigenvector of K = tau(sp(., e)) is optimal, found with at most one evaluation past the start
    from cqms import lipnorm
    g = hopf.function_algebra(groups.cyclic_table(12), metric=groups.arc_metric(12))
    lip = lipnorm.lip_from_metric(g)
    irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    sp = lipnorm.reduce_family(g, lip)[2][:, groups.validate_cayley(g.group_table)[0]]
    for subset in chains.frequency_chain(g.dim):
        ts = compress.truncate(g, irreps, subset, dec=dec)
        objective = _counit_objective(g, ts, lip)
        density, value = compress.optimized_symbol_state(g, ts, objective)
        assert objective.calls <= 2
        again, slicer = objective(density)
        assert again == value
        assert 0.0 <= value - compress.duality_lower_bound(ts, slicer) <= 1e-12 * max(1.0, value)
        exact = np.linalg.eigvalsh(ts.tau(sp))[0]
        assert abs(value - max(exact, 0.0)) <= 1e-12 * max(1.0, value)
        canonical = objective(compress.canonical_symbol_state(g, ts))[0]
        assert value <= canonical


def test_d4_function_algebra_pipeline():
    # bi-invariant word metric from the conjugation-closed set of reflections
    table = oracles.d4_table()
    metric = oracles.word_metric(table, [4, 5, 6, 7])
    g = hopf.function_algebra(table, metric=metric)
    irreps = corep.default_irreps(g)
    assert sorted(p.dim for p in irreps) == [1, 1, 1, 1, 2]
    dec = corep.pw_decompose(g, irreps)
    ts = compress.truncate(g, irreps, (0, 4), dec=dec)   # trivial + 2-dim block
    alpha = compress.induced_coaction(g, ts, "right")
    beta = compress.induced_coaction(g, ts, "left")
    assert alpha.fixed_space_dim == 1 and beta.fixed_space_dim == 1
    assert compress.cocommutation_residual(alpha, beta) < 1e-9
    from cqms import lipnorm
    lip = lipnorm.lip_from_metric(g)
    rng = np.random.default_rng(23)
    for _ in range(5):
        x = ts.tau(random_elements(g, rng, 1)[0])
        value = lipnorm.induced_lip_bi(lip, alpha, beta, x, tol=1e-7)
        _, _, both = lipnorm.group_case_seminorms(g, ts, x)
        assert 0.5 * both - 1e-5 <= value <= both + 1e-5


def test_q8_group_algebra_bound_chain():
    table = oracles.q8_table()
    length = groups.symmetric_word_length(table, [2, 4])     # i and j generate
    g = hopf.group_algebra(table, length=length)
    assert hopf.check_axioms(g).passed
    irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    from cqms import chains, lipnorm, mkdist
    lip = lipnorm.lip_fourier(g)
    bounds = []
    for lam in chains.length_chain(g):
        ts = compress.truncate(g, irreps, lam, dec=dec)
        density = compress.canonical_symbol_state(g, ts)
        bounds.append(mkdist.truncation_bound(g, ts, lip, density, check_invariant=False))
    assert all(bounds[k + 1] <= bounds[k] + 1e-9 for k in range(len(bounds) - 1))
    assert bounds[-1] == pytest.approx(0.0, abs=1e-9)
