import numpy as np
import pytest

from cqms import compress, corep, groups, hopf, lipnorm

import oracles


@pytest.fixture(scope="session")
def f_z4():
    return hopf.function_algebra(groups.cyclic_table(4), metric=groups.arc_metric(4))


@pytest.fixture(scope="session")
def f_z8():
    return hopf.function_algebra(groups.cyclic_table(8), metric=groups.arc_metric(8))


@pytest.fixture(scope="session")
def f_s3():
    return hopf.function_algebra(groups.s3_table(), metric=oracles.s3_transposition_metric())


@pytest.fixture(scope="session")
def c_s3():
    table = groups.s3_table()
    length = groups.symmetric_word_length(table, groups.s3_word_generators())
    return hopf.group_algebra(table, length=length)


@pytest.fixture(scope="session")
def c_z4():
    return hopf.group_algebra(groups.cyclic_table(4), length=np.array([0.0, 1.0, 2.0, 1.0]))


@pytest.fixture(scope="session")
def z8_setup(f_z8):
    irreps = corep.default_irreps(f_z8)
    dec = corep.pw_decompose(f_z8, irreps)
    lip = lipnorm.lip_from_metric(f_z8)
    return f_z8, irreps, dec, lip


@pytest.fixture(scope="session")
def z8_mid(z8_setup):
    g, irreps, dec, lip = z8_setup
    ts = compress.truncate(g, irreps, (0, 1, 2, 6, 7), dec=dec)
    alpha = compress.induced_coaction(g, ts, "right")
    beta = compress.induced_coaction(g, ts, "left")
    return g, lip, ts, alpha, beta


@pytest.fixture(scope="session")
def s3c_setup(c_s3):
    irreps = corep.default_irreps(c_s3)
    dec = corep.pw_decompose(c_s3, irreps)
    lip = lipnorm.lip_fourier(c_s3)
    return c_s3, irreps, dec, lip
