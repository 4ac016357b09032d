import numpy as np
import pytest

from cqms import corep, groups, hopf
from cqms.errors import GroupTableError, LengthError, MetricError

import oracles


def test_validate_cayley_accepts_builtins():
    for table in (groups.cyclic_table(5), groups.s3_table(), oracles.d4_table(), oracles.q8_table()):
        identity, inverse = groups.validate_cayley(table)
        n = table.shape[0]
        assert all(table[g, inverse[g]] == identity for g in range(n))


def test_validate_cayley_rejects_non_group():
    bad = np.array([[0, 1], [0, 1]])
    with pytest.raises(GroupTableError):
        groups.validate_cayley(bad)
    not_assoc = np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])
    with pytest.raises(GroupTableError):
        groups.validate_cayley(not_assoc)


def test_arc_metric_values():
    d = groups.arc_metric(4)
    assert d[0, 1] == pytest.approx(np.pi / 2)
    assert d[0, 2] == pytest.approx(np.pi)
    groups.check_metric(groups.cyclic_table(4), d)


def test_metric_errors_carry_witness():
    table = groups.cyclic_table(3)
    bad = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 3.0], [1.0, 3.0, 0.0]])
    with pytest.raises(MetricError, match="triangle"):
        groups.check_metric(table, bad)
    asym = np.array([[0.0, 1.0, 2.0], [1.5, 0.0, 1.0], [2.0, 1.0, 0.0]])
    with pytest.raises(MetricError, match="symmetric"):
        groups.check_metric(table, asym)
    not_invariant = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    with pytest.raises(MetricError, match="invariance"):
        groups.check_metric(table, not_invariant)


def test_metric_invariance_has_no_relative_slack():
    # 5e-6 relative is far below numpy's default rtol of 1e-5, far above atol 1e-12
    d = groups.arc_metric(8)
    d[0, 1] = d[1, 0] = d[0, 1] * (1 + 5e-6)
    with pytest.raises(MetricError, match="invariance"):
        groups.check_metric(groups.cyclic_table(8), d)
    d[1, 0] = groups.arc_metric(8)[1, 0]
    with pytest.raises(MetricError, match="symmetric"):
        groups.check_metric(groups.cyclic_table(8), d)


def test_word_length_s3():
    ell = groups.symmetric_word_length(groups.s3_table(), groups.s3_word_generators())
    assert ell.tolist() == [0.0, 1.0, 1.0, 3.0, 2.0, 2.0]
    with pytest.raises(LengthError):
        groups.check_length(groups.s3_table(), np.zeros(6))


def test_transposition_metric_is_biinvariant():
    groups.check_metric(groups.s3_table(), oracles.s3_transposition_metric())


def test_cyclic_characters_multiplicative():
    # the finder reads the characters of F(Z_n) off (A, Delta, h) alone; closed forms pin its order
    for n in (6, 24):
        table = groups.cyclic_table(n)
        irreps = corep.default_irreps(hopf.function_algebra(table))
        chars = np.array([pi.u[0, 0] for pi in irreps])
        for flat in chars:
            assert np.allclose(flat[table], np.outer(flat, flat), rtol=0, atol=1e-12)
        j = np.arange(n)
        assert np.allclose(chars, np.exp(2j * np.pi * np.outer(j, j) / n), rtol=0, atol=1e-12)


def test_abelian_characters_klein_group():
    klein = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    irreps = corep.default_irreps(hopf.function_algebra(klein))
    assert [pi.dim for pi in irreps] == [1, 1, 1, 1]
    mat = np.array([pi.u[0, 0] for pi in irreps])
    assert np.allclose(np.abs(mat), 1.0)
    assert np.linalg.matrix_rank(mat) == 4
    assert np.allclose(mat, [[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]],
                       rtol=0, atol=1e-12)


def test_default_irreps_come_in_the_order_the_chains_index():
    # the finder reads the irreps off (A, Delta, h) alone; closed forms pin its order
    for table in (groups.cyclic_table(5), groups.s3_table()):
        irreps = corep.default_irreps(hopf.group_algebra(table))
        assert np.allclose([pi.u[0, 0] for pi in irreps], np.eye(len(table)), rtol=0, atol=1e-12)
    for table, signs, dims in [
            (groups.s3_table(), [[1] * 6, [1, -1, -1, -1, 1, 1]], [1, 1, 2]),
            (oracles.d4_table(), [[1] * 8, [1, 1, 1, 1, -1, -1, -1, -1], [1, -1, 1, -1, 1, -1, 1, -1],
                                  [1, -1, 1, -1, -1, 1, -1, 1]], [1, 1, 1, 1, 2]),
            (oracles.q8_table(), [[1] * 8, [1, 1, 1, 1, -1, -1, -1, -1], [1, 1, -1, -1, 1, 1, -1, -1],
                                  [1, 1, -1, -1, -1, -1, 1, 1]], [1, 1, 1, 1, 2])]:
        irreps = corep.default_irreps(hopf.function_algebra(table))
        assert [pi.dim for pi in irreps] == dims
        assert np.allclose([pi.u[0, 0] for pi in irreps if pi.dim == 1], signs, rtol=0, atol=1e-12)
    standard = corep.default_irreps(hopf.function_algebra(groups.s3_table()))[2]
    assert np.allclose(np.trace(standard.u), [2, 0, 0, 0, -1, -1], rtol=0, atol=1e-12)
