"""The full structural pipeline on a neither-commutative-nor-cocommutative
quantum group supplied as raw tensors."""

import numpy as np
import pytest

from cqms import chains, compress, corep, hopf
from cqms.sampling import random_elements

import oracles
from kp8_example import build_kp8


@pytest.fixture(scope="module")
def kp8():
    algebra, irreps = build_kp8()
    dec = corep.pw_decompose(algebra, irreps)
    return algebra, irreps, dec


def test_genuinely_quantum(kp8):
    g, _, _ = kp8
    noncomm = np.max(np.abs(g.mult - g.mult.transpose(1, 0, 2)))
    noncocomm = np.max(np.abs(g.comult - g.comult.transpose(0, 2, 1)))
    assert noncomm > 0.5 and noncocomm > 0.25


def test_axioms_pass(kp8):
    g, _, _ = kp8
    report = hopf.check_axioms(g, tol=1e-10)
    assert report.passed, str(report)


def test_irreps_validate_and_complete(kp8):
    g, irreps, dec = kp8
    assert [p.dim for p in irreps] == [1, 1, 1, 1, 2]
    assert all(r.passed(1e-10) for r in dec.reports)
    assert sum(pi.dim ** 2 for pi in dec.irreps) == g.dim


def test_haar_is_tracial_delta(kp8):
    g, _, _ = kp8
    state = hopf.haar_state(g)
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.allclose(state.coeffs, expected, atol=1e-12)


def test_counit_support_projection(kp8):
    g, _, _ = kp8
    p = hopf.counit_support_projection(g)
    assert np.allclose(g.product(p, p), p, atol=1e-10)
    assert abs(g.counit_of(p) - 1.0) < 1e-10


def test_multiplicative_unitaries(kp8):
    g, _, dec = kp8
    w = corep.multiplicative_unitary(g)
    assert w.unitarity_residual < 1e-10 and w.implementation_residual < 1e-10
    d0 = g.rep.shape[1]
    for subset in ([0], [0, 4]):
        p = dec.projector(subset)
        assert corep.commutation_residual(w.matrix, p, d0) < 1e-10


def test_truncation_chain_certificates(kp8):
    g, irreps, dec = kp8
    chain = [(0,), (0, 4), (0, 1, 2, 3, 4)]
    chains.check_chain(chain)
    for lam in chain:
        ts = compress.truncate(g, irreps, lam, dec=dec)
        alpha = compress.induced_coaction(g, ts, "right")
        beta = compress.induced_coaction(g, ts, "left")
        assert alpha.fixed_space_dim == 1 and beta.fixed_space_dim == 1
        assert compress.cocommutation_residual(alpha, beta) < 1e-10
        assert compress.isometry_witness_residual(g, ts, samples=25, seed=2,
                                                  amplified_every=8) < 1e-10


def test_canonical_state_and_liftables(kp8):
    g, irreps, dec = kp8
    full = compress.truncate(g, irreps, range(5), dec=dec)
    density = compress.canonical_symbol_state(g, full)
    pulled = compress.pullback_state(full, density)
    assert np.allclose(pulled.coeffs, g.counit, atol=1e-10)
    mid = compress.truncate(g, irreps, (0, 4), dec=dec)
    for state in compress.liftable_states(mid, samples=8, seed=3)[0]:
        assert state.min_eig >= -1e-9


def test_symbol_identities(kp8):
    g, irreps, dec = kp8
    ts = compress.truncate(g, irreps, (0, 4), dec=dec)
    alpha = compress.induced_coaction(g, ts, "right")
    density = compress.canonical_symbol_state(g, ts)
    sym = compress.symbol_map(ts, alpha, density)
    pulled = compress.pullback_state(ts, density)
    rng = np.random.default_rng(4)
    assert np.allclose(sym(ts.expand(np.eye(ts.rank))), g.unit, atol=1e-10)
    for _ in range(5):
        a = random_elements(g, rng, 1)[0]
        down_up = sym(ts.expand(ts.tau(a)))
        direct = oracles.slice_map("left", pulled, g.coproduct(a))
        assert np.allclose(down_up, direct, atol=1e-10)


def test_isotypical_completeness(kp8):
    g, irreps, _ = kp8
    co = compress.comultiplication_coaction(g, "right")
    total = sum(oracles.isotypical_projection(co, p) for p in irreps)
    assert np.allclose(total, np.eye(8), atol=1e-10)
    e_two = oracles.isotypical_projection(co, irreps[4])
    assert np.allclose(e_two @ e_two, e_two, atol=1e-10)
    assert np.linalg.matrix_rank(e_two, tol=1e-8) == 4


def test_conditional_expectation_ergodic(kp8):
    g, irreps, dec = kp8
    ts = compress.truncate(g, irreps, (0, 4), dec=dec)
    alpha = compress.induced_coaction(g, ts, "right")
    _, idem, invariant, inv_res = oracles.conditional_expectation(alpha, samples=10, seed=5)
    assert idem < 1e-10
    assert invariant is not None
    assert inv_res < 1e-9


def test_quantum_group_file_roundtrip_through_cli(kp8, tmp_path, capsys):
    from cqms import cli, io

    g, irreps, _ = kp8
    path = tmp_path / "quantum8.json"
    io.dump_quantum_group_file(str(path), g, irreps=irreps)
    code = cli.main(["check", "--input", str(path), "--pw"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "all axioms pass" in out
    assert "sum d^2 = 8" in out
    code = cli.main(["truncate", "--input", str(path), "--lambda", "0,4", "--samples", "15"])
    out = capsys.readouterr().out
    assert code == cli.EXIT_OK
    assert "dim_sys 8" in out
