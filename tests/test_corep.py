import numpy as np
import pytest

from cqms import corep, groups, hopf
from cqms.errors import CompletenessError, SchurError

import oracles
from kp8_example import build_kp8


def test_gns_gram_function_algebra(f_z4):
    gns = corep.gns_build(f_z4)
    assert np.allclose(gns.gram, np.eye(4) / 4)


def test_gns_gram_group_algebra(c_s3):
    gns = corep.gns_build(c_s3)
    assert np.allclose(gns.gram, np.eye(6))


def test_gns_cyclicity(c_s3):
    gns = corep.gns_build(c_s3)
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = rng.normal(size=6) + 1j * rng.normal(size=6)
        assert np.allclose(gns.act(a) @ gns.cyclic, gns.vector(a), atol=1e-12)


@pytest.mark.parametrize("name", ["F(Z_12)", "F(S_3)", "C*(S_3)", "kp8"])
def test_gns_residuals_match_the_einsum_reference(name, f_s3, c_s3):
    g = {"F(Z_12)": lambda: hopf.function_algebra(groups.cyclic_table(12)),
         "F(S_3)": lambda: f_s3, "C*(S_3)": lambda: c_s3, "kp8": lambda: build_kp8()[0]}[name]()
    gns = corep.gns_build(g)
    noise = np.random.default_rng(1).normal(size=gns.rep.shape)
    for rep in (gns.rep, gns.rep + 1e-3 * noise):
        got = hopf._rep_residuals(g, rep)
        assert got == pytest.approx(oracles.einsum_rep_residuals(g, rep), rel=0, abs=1e-14)


def test_validate_trivial_corep(f_z4):
    report = corep.validate_corep(f_z4, corep.Corepresentation(u=f_z4.unit.reshape(1, 1, 4)))
    assert report.unitarity_residual < 1e-12
    assert report.corep_residual < 1e-12


def test_validate_z4_character(f_z4):
    chi1 = corep.default_irreps(f_z4)[1]
    report = corep.validate_corep(f_z4, chi1)
    assert report.passed(1e-10) and chi1.dim == 1


def _direct_sum(*parts):
    d = sum(p.dim for p in parts)
    u = np.zeros((d, d, parts[0].u.shape[2]), dtype=complex)
    k = 0
    for p in parts:
        u[k:k + p.dim, k:k + p.dim] = p.u
        k += p.dim
    return corep.Corepresentation(u=u)


def test_s3_standard_rep_irreducible(f_s3):
    # its four coefficients are linearly independent: the block has full rank d^2
    irreps = corep.default_irreps(f_s3)
    std = irreps[2]
    assert std.dim == 2
    dec = corep.pw_decompose(f_s3, irreps)
    assert dec.blocks[2].shape == (4, 6)
    assert dec.reports[2].passed(1e-10)


def test_reducible_corep_detected(f_s3):
    # std + std is a unitary corepresentation whose 16 coefficients span rank 4
    irr = corep.default_irreps(f_s3)
    doubled = _direct_sum(irr[2], irr[2])
    assert corep.validate_corep(f_s3, doubled).passed(1e-10)
    with pytest.raises(SchurError, match="irrep 2 is reducible.*16 coefficients span rank 4"):
        corep.pw_decompose(f_s3, [irr[0], irr[1], doubled])


def test_pw_decompose_rejects_a_reducible_first_member(f_s3):
    irr = corep.default_irreps(f_s3)
    trivial_sign = _direct_sum(irr[0], irr[1])
    assert corep.validate_corep(f_s3, trivial_sign).passed(1e-10)
    with pytest.raises(SchurError, match="irrep 0 is reducible.*4 coefficients span rank 2"):
        corep.pw_decompose(f_s3, [trivial_sign, irr[2]])


def test_matrix_coefficients(f_z4, c_s3):
    trivial, chi1 = corep.default_irreps(f_z4)[:2]
    assert np.allclose(trivial.u[0, 0], f_z4.unit)
    assert np.allclose(chi1.u[0, 0], np.exp(2j * np.pi * np.arange(4) / 4))
    lam = corep.default_irreps(c_s3)[3]
    assert np.allclose(lam.u[0, 0], np.eye(6)[3])


@pytest.mark.parametrize("name, dims", [("F(S_4)", [1, 1, 2, 3, 3]), ("C*(S_4)", [1] * 24),
                                        ("F(D_5)", [1, 1, 2, 2])])
def test_default_irreps_decompose_groups_with_no_stored_irreps(name, dims):
    table = oracles.d5_table() if name == "F(D_5)" else oracles.s4_table()
    g = (hopf.group_algebra if name.startswith("C*") else hopf.function_algebra)(table)
    irreps = corep.default_irreps(g)
    assert [pi.dim for pi in irreps] == dims
    dec = corep.pw_decompose(g, irreps)
    assert all(report.passed(1e-12) for report in dec.reports)


def test_pw_projector_full_and_trivial(f_z4):
    dec = corep.pw_decompose(f_z4, corep.default_irreps(f_z4))
    full = dec.projector(range(4))
    assert np.allclose(full, np.eye(4))
    p0 = dec.projector([0])
    gns = corep.gns_build(f_z4)
    one = gns.vector(f_z4.unit)
    assert np.linalg.matrix_rank(p0) == 1
    assert np.allclose(p0 @ one, one, atol=1e-12)


def test_pw_projector_diagonal_in_fourier_basis(f_z4):
    p = corep.pw_decompose(f_z4, corep.default_irreps(f_z4)).projector([0, 1])
    fourier = np.array([np.exp(2j * np.pi * np.arange(4) * k / 4) / 2 for k in range(4)])
    diag = fourier.conj() @ p @ fourier.T
    assert np.allclose(diag, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-12)


def test_pw_completeness_error(f_z4):
    irreps = corep.default_irreps(f_z4)
    with pytest.raises(CompletenessError, match="2.*expected 4"):
        corep.pw_decompose(f_z4, irreps[:2])


def test_pw_duplicate_error(f_z4):
    irreps = corep.default_irreps(f_z4)
    with pytest.raises(SchurError):
        corep.pw_decompose(f_z4, list(irreps) + [irreps[1]])


def test_orthogonality_relations(f_s3):
    gns = corep.gns_build(f_s3)
    std = corep.default_irreps(f_s3)[2]
    vecs = [gns.vector(std.u[i, j]) for i in range(2) for j in range(2)]
    gram = np.array([[np.vdot(w, v) for v in vecs] for w in vecs])
    assert np.allclose(gram, np.eye(4) / 2, atol=1e-10)


def test_join_of_projectors(z8_setup):
    g, irreps, dec, _ = z8_setup
    p_a = dec.projector([0, 1])
    p_b = dec.projector([1, 2])
    joined = dec.projector([0, 1, 2])
    # join = projection onto range(p_a) + range(p_b)
    stacked = np.hstack([p_a, p_b])
    u, sv, _ = np.linalg.svd(stacked)
    basis = u[:, sv > 1e-10]
    join = basis @ basis.conj().T
    assert np.allclose(join, joined, atol=1e-10)


def test_multiplicative_unitary_z2():
    g = hopf.function_algebra(groups.cyclic_table(2))
    w = corep.multiplicative_unitary(g)
    assert w.matrix.shape == (4, 4)
    assert w.unitarity_residual < 1e-12
    assert w.implementation_residual < 1e-12


def test_multiplicative_unitary_commutes_with_projectors(f_z4, c_s3):
    for g in (f_z4, c_s3):
        irreps = corep.default_irreps(g)
        dec = corep.pw_decompose(g, irreps)
        d0 = g.rep.shape[1]
        w = corep.multiplicative_unitary(g)
        assert w.implementation_residual < 1e-11
        for subset in ([0], [0, 1], list(range(len(irreps)))):
            p = dec.projector(subset)
            assert corep.commutation_residual(w.matrix, p, d0) < 1e-12


def test_multiplicative_unitary_s3_nonabelian(f_s3):
    w = corep.multiplicative_unitary(f_s3)
    assert w.unitarity_residual < 1e-12
    assert w.implementation_residual < 1e-11


@pytest.mark.parametrize("name", ["F(Z_8)", "F(Z_24)", "F(S_3)", "C*(S_3)", "F(D_4)", "kp8"])
def test_the_trivial_irrep_is_exactly_the_unit(name, f_s3, c_s3):
    g = {"F(Z_8)": lambda: hopf.function_algebra(groups.cyclic_table(8)),
         "F(Z_24)": lambda: hopf.function_algebra(groups.cyclic_table(24)),
         "F(S_3)": lambda: f_s3, "C*(S_3)": lambda: c_s3,
         "F(D_4)": lambda: hopf.function_algebra(oracles.d4_table()), "kp8": lambda: build_kp8()[0]}[name]()
    trivial = corep.default_irreps(g)[0]
    assert trivial.dim == 1 and np.array_equal(trivial.u[0, 0], g.unit)
    report = corep.validate_corep(g, trivial)
    assert report.unitarity_residual == report.corep_residual == 0.0
