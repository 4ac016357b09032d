import numpy as np
import pytest

from cqms import corep, groups, hopf
from cqms.errors import CqmsError, GroupTableError, LengthError, MetricError

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
        groups.check_length(np.zeros(6), 0, 6)


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


def _outcome(call, *args):
    """What a validator does: its result, or the class and message of the error it raises."""
    try:
        result = call(*args)
    except CqmsError as exc:
        return type(exc), str(exc)
    return result if result is None else (int(result[0]), np.asarray(result[1]).tolist())


def _relabelled(table, perm):
    """The same group with element i renamed perm[i]: the identity need not be element 0."""
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def _builtin_tables():
    return {"Z_5": groups.cyclic_table(5), "Z_12": groups.cyclic_table(12), "S_3": groups.s3_table(),
            "D_4": oracles.d4_table(), "Q_8": oracles.q8_table(), "S_4": oracles.s4_table(),
            "D_5": oracles.d5_table(), "Z_7 shifted": (groups.cyclic_table(7) + 1) % 7,
            "S_3 relabelled": _relabelled(groups.s3_table(), np.array([3, 5, 0, 1, 4, 2]))}


def _corrupted_tables():
    tables = {"not square": np.zeros((2, 3), dtype=int), "floats": np.zeros((2, 2)),
              "out of range": np.array([[0, 1], [1, 2]]), "no identity": np.array([[0, 0], [0, 0]]),
              "row without identity": np.array([[0, 1, 2], [1, 1, 2], [2, 2, 0]]),
              "two inverses": np.array([[0, 1, 2], [1, 0, 0], [2, 0, 1]]),
              "not a group": np.array([[0, 1, 2], [1, 2, 0], [2, 1, 0]])}
    rng = np.random.default_rng(33)
    for trial in range(24):
        table = list(_builtin_tables().values())[trial % 9].copy()
        n = len(table)
        for _ in range(1 + trial % 3):
            table[rng.integers(n), rng.integers(n)] = rng.integers(n)
        tables[f"random {trial}"] = table
    return tables


@pytest.mark.parametrize("name, table", [*_builtin_tables().items(), *_corrupted_tables().items()])
def test_validate_cayley_matches_the_loop_reference(name, table):
    got = _outcome(groups.validate_cayley, table)
    assert got == _outcome(oracles.loop_validate_cayley, table)
    if name in _builtin_tables():
        assert got[0] == int(np.flatnonzero(np.all(table == np.arange(len(table)), axis=1))[0])


def _metrics():
    """(table, metric) pairs: bi-invariant ones, then corruptions of each check in order."""
    s3, z8 = groups.s3_table(), groups.cyclic_table(8)
    _, inverse = groups.validate_cayley(s3)
    ell = groups.symmetric_word_length(s3, [1, 4])       # (01) and (012): not conjugation-closed
    cases = {"Z_5 arc": (groups.cyclic_table(5), groups.arc_metric(5)), "Z_8 arc": (z8, groups.arc_metric(8)),
             "S_3 transpositions": (s3, oracles.s3_transposition_metric()),
             "S_4 transpositions": (oracles.s4_table(), oracles.s4_transposition_metric()),
             "S_3 right-invariant only": (s3, ell[s3[:, inverse]]),
             "S_3 left-invariant only": (s3, ell[s3[inverse, :]]),
             "wrong shape": (z8, np.zeros((3, 3)))}
    for name, edit in [("negative", lambda d: d.__setitem__((2, 3), -1.0)),
                       ("asymmetric", lambda d: d.__setitem__((1, 4), d[1, 4] + 1e-3)),
                       ("diagonal", lambda d: d.__setitem__((3, 3), 1e-6)),
                       ("zero distance", lambda d: d.__setitem__((5, 2), 0.0) or d.__setitem__((2, 5), 0.0)),
                       ("triangle", lambda d: d.__setitem__((0, 4), 9.0) or d.__setitem__((4, 0), 9.0))]:
        d = groups.arc_metric(8)
        edit(d)
        cases[name] = (z8, d)
    for a in (0, 3, 7):
        for slack in (5e-6, 2e-12, 5e-13):                # the last is within the 1e-12 tolerance
            d = groups.arc_metric(8)
            d[a, (a + 1) % 8] = d[(a + 1) % 8, a] = d[a, (a + 1) % 8] + slack
            cases[f"pair {a} + {slack}"] = (z8, d)
    rng = np.random.default_rng(33)          # one side invariant, the other failing first at some k
    for trial in range(8):
        table, d = cases[("S_3 right-invariant only", "S_3 left-invariant only")[trial % 2]]
        d = d.copy()
        g, h = rng.choice(6, size=2, replace=False)
        d[g, h] = d[h, g] = d[g, h] * (1 + 1e-3)
        cases[f"S_3 one-sided {trial}"] = (table, d)
    return cases


@pytest.mark.parametrize("name", list(_metrics()))
def test_check_metric_matches_the_loop_reference(name):
    table, metric = _metrics()[name]
    got = _outcome(groups.check_metric, table, metric)
    assert got == _outcome(oracles.loop_check_metric, table, metric)
    assert (got is None) == (name in ("Z_5 arc", "Z_8 arc", "S_3 transpositions", "S_4 transpositions")
                             or name.endswith("5e-13"))


def _lengths():
    s3, d4 = groups.s3_table(), oracles.d4_table()
    moved = _builtin_tables()["S_3 relabelled"]
    ell = groups.symmetric_word_length(s3, groups.s3_word_generators())
    cases = {"S_3 word": (s3, ell), "D_4 word": (d4, groups.symmetric_word_length(d4, [1, 4])),
             "S_3 relabelled word": (moved, groups.symmetric_word_length(moved, [0, 1])),
             "wrong shape": (s3, np.ones(7)), "identity nonzero": (s3, ell + 1e-6),
             "zeros": (s3, np.zeros(6)), "relabelled zeros": (moved, np.zeros(6)),
             "identity last": (np.array([[1, 0], [0, 1]]), np.zeros(2)),
             "bad table": (np.array([[0, 0], [0, 0]]), np.zeros(2))}
    for at in ((3,), (2, 4), (5, 1)):
        bad = ell.copy()
        bad[list(at)] = -1.0
        cases[f"nonpositive at {at}"] = (s3, bad)
    return cases


@pytest.mark.parametrize("name", list(_lengths()))
def test_check_length_matches_the_loop_reference(name):
    table, length = _lengths()[name]

    def check(table, length):
        identity, _ = groups.validate_cayley(table)
        return groups.check_length(length, identity, len(table))

    assert _outcome(check, table, length) == _outcome(oracles.loop_check_length, table, length)


@pytest.mark.parametrize("name, table", list(_builtin_tables().items()))
def test_word_length_matches_the_loop_reference(name, table):
    n = len(table)
    for generators in ([1, 2], list(range(n)), [n - 1], [2, n - 2]):
        try:
            expected = oracles.loop_word_length(table, generators)
        except CqmsError:
            continue
        if np.all(np.isfinite(expected)):
            assert np.array_equal(groups.word_length(table, generators), expected)
        else:
            with pytest.raises(GroupTableError, match="do not generate"):
                groups.word_length(table, generators)
