import pytest

from cqms import chains
from cqms.errors import ConfigError


def test_prefix_chain():
    assert chains.prefix_chain(3) == [(0,), (0, 1), (0, 1, 2)]
    with pytest.raises(ConfigError):
        chains.prefix_chain(0)


def test_frequency_chain_even_and_odd():
    assert chains.frequency_chain(8) == [
        (0,), (0, 1, 7), (0, 1, 2, 6, 7), (0, 1, 2, 3, 5, 6, 7),
        (0, 1, 2, 3, 4, 5, 6, 7)]
    odd = chains.frequency_chain(5)
    assert odd[0] == (0,)
    assert odd[-1] == (0, 1, 2, 3, 4)
    for a, b in zip(odd, odd[1:]):
        assert set(a) < set(b)


def test_length_chain(c_s3):
    chain = chains.length_chain(c_s3)
    assert chain[0] == (0,)
    assert chain[-1] == (0, 1, 2, 3, 4, 5)
    chains.check_chain(chain)


def test_check_chain_rejections():
    with pytest.raises(ConfigError):
        chains.check_chain([])
    with pytest.raises(ConfigError):
        chains.check_chain([(0, 1), (0,)])
    with pytest.raises(ConfigError):
        chains.check_chain([(0,), (0,)])
