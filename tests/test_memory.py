"""Peak memory of the per-algebra certificates, which sum over nonzeros and form no n^4 array.

One n^4 complex array at n = 48 is 85 MB, so a dense product put back into
any of them fails here.  On a dense algebra the sums run in pieces: at n = 16
the n^6 products of nonzeros in Delta's multiplicativity residual, formed at
once, would take over 1 GB.
"""

import tracemalloc

import numpy as np

import pytest

from cqms import chains, compress, corep, groups, hopf

import oracles

LIMIT_MB = 16


def _peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _f_z48():
    return hopf.function_algebra(groups.cyclic_table(48), metric=groups.arc_metric(48))


def test_certificates_on_f_z48_stay_below_the_limit():
    g = _f_z48()
    irreps = corep.default_irreps(g)
    built = {}
    peaks = {"pw_decompose": _peak_mb(lambda: built.update(dec=corep.pw_decompose(g, irreps)))}
    ts = compress.truncate(g, irreps, chains.frequency_chain(48)[1], dec=built["dec"])
    peaks["induced_coaction pair"] = _peak_mb(
        lambda: [compress.induced_coaction(g, ts, side) for side in ("right", "left")])
    fresh = _f_z48()                                   # nothing of it cached yet
    peaks["check_axioms"] = _peak_mb(lambda: hopf.check_axioms(fresh))
    assert max(peaks.values()) < LIMIT_MB, peaks


def _rotated_f_z(n):
    """F(Z_n) in a random unitary basis f = B e: every entry of mult and Delta nonzero."""
    g = hopf.function_algebra(groups.cyclic_table(n))
    rng = np.random.default_rng(n)
    b, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    c = np.linalg.inv(b)
    return hopf.FiniteQuantumGroup(
        dim=n, mult=np.einsum("ia,jb,abc,ck->ijk", b, b, g.mult, c), unit=g.unit @ c,
        star=np.conj(b) @ g.star @ c, comult=np.einsum("ia,abc,bj,ck->ijk", b, g.comult, c, c),
        counit=b @ g.counit, antipode=b @ g.antipode @ c, rep=np.einsum("ia,akl->ikl", b, g.rep),
        haar=b @ g.haar)


def test_certificates_on_a_dense_algebra_run_in_pieces():
    g = _rotated_f_z(16)
    assert np.count_nonzero(g.mult) == np.count_nonzero(g.comult) == 16 ** 3
    report = {}
    peaks = {"check_axioms": _peak_mb(lambda: report.update(axioms=hopf.check_axioms(g)))}
    irreps = corep.default_irreps(g)
    peaks["pw_decompose"] = _peak_mb(lambda: corep.pw_decompose(g, irreps))
    assert report["axioms"].passed
    assert max(peaks.values()) < LIMIT_MB, peaks


def test_coaction_rows_of_a_dense_algebra_split_a_carrier_row():
    # a carrier row of Delta's own certificate on the rotated F(Z_24) holds n^4 products of nonzeros
    g = _rotated_f_z(24)
    hopf._podles_parts(g)
    comult = hopf._coo(g.comult)
    assert _peak_mb(lambda: hopf._coaction_parts(g, comult)) < LIMIT_MB


def test_cocommutation_and_the_isometry_witness_stay_below_the_limit():
    # the full levels: cocommutation's dense form is two (s^2, n^2) arrays, and the witness's
    # dense operator is (p r d0)^2 with r = d0 = n
    g = hopf.function_algebra(groups.cyclic_table(48))
    ts = compress.truncate(g, corep.default_irreps(g), range(48))
    alpha, beta = (compress.induced_coaction(g, ts, side) for side in ("right", "left"))
    peaks = {"cocommutation_residual": _peak_mb(lambda: compress.cocommutation_residual(alpha, beta))}
    g = hopf.function_algebra(groups.cyclic_table(32))
    ts = compress.truncate(g, corep.default_irreps(g), range(32))
    # one plain sample and one 2 x 2 amplified one
    peaks["isometry_witness_residual"] = _peak_mb(
        lambda: compress.isometry_witness_residual(g, ts, samples=2, amplified_every=2))
    assert max(peaks.values()) < LIMIT_MB, peaks


def test_certifying_a_level_forms_no_coaction_tensor():
    # one (48, 48, 48) complex tensor is 1.77 MB; the certificates read per-irrep rows, cached by
    # the first level, and the tensor is formed only where it is read
    g = _f_z48()
    irreps = corep.default_irreps(g)
    dec = corep.pw_decompose(g, irreps)
    chain = chains.frequency_chain(48)
    first = compress.truncate(g, irreps, chain[0], dec=dec)
    for side in ("right", "left"):
        compress.induced_coaction(g, first, side)
    full = compress.truncate(g, irreps, chain[-1], dec=dec)
    pair = []
    peak = _peak_mb(lambda: pair.extend(compress.induced_coaction(g, full, side) for side in ("right", "left")))
    assert peak < 48 ** 3 * 16 / 1e6, peak
    for co, side in zip(pair, ("right", "left")):
        assert np.array_equal(co.tensor, oracles.loop_coaction_tensor(g, full, side))
    eps = hopf.counit_state(g)
    assert hopf.counit_state(g) is eps
    for array in (eps.coeffs, eps.witness):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
