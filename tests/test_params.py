import pytest

from hyperphase.combinatorics import DEFAULT_MAX_JSETS, MAX_JSETS_ENV, max_jsets_cap
from hyperphase.components import JSetUnionFind
from hyperphase.errors import ResourceLimitError, ValidationError
from hyperphase.params import Params


def test_valid_params():
    p = Params(3, 2, 10)
    assert p.num_jsets == 45
    assert p.num_ksets == 120
    assert p.jsets_per_edge == 3


def test_graph_case_is_valid():
    p = Params(2, 1, 100)
    assert p.num_jsets == 100


@pytest.mark.parametrize("k,j,n", [(1, 1, 5), (3, 0, 5), (3, 3, 5), (2, 2, 5), (3, 2, 2)])
def test_invalid_params(k, j, n):
    with pytest.raises(ValidationError):
        Params(k, j, n)


def test_guardrail_default_cap():
    assert max_jsets_cap() == DEFAULT_MAX_JSETS


def test_guardrail_env_override(monkeypatch):
    monkeypatch.setenv(MAX_JSETS_ENV, "10")
    assert max_jsets_cap() == 10
    params = Params(3, 2, 10)  # a bare Params allocates nothing, so it checks no cap
    with pytest.raises(ResourceLimitError, match=r"C\(n=10, j=2\) = 45 exceeds the guardrail cap 10"):
        JSetUnionFind(params)
    monkeypatch.setenv(MAX_JSETS_ENV, "45")
    s = JSetUnionFind(params).summary()
    assert s.num_nontrivial + s.isolated_count == 45


def test_guardrail_env_must_be_positive_int(monkeypatch):
    monkeypatch.setenv(MAX_JSETS_ENV, "zero")
    with pytest.raises(ValidationError):
        max_jsets_cap()
    monkeypatch.setenv(MAX_JSETS_ENV, "0")
    with pytest.raises(ValidationError):
        max_jsets_cap()
