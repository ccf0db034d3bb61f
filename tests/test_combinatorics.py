import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperphase.combinatorics import (
    INT64_MAX,
    _binomial_columns,
    binomial,
    colex_rank,
    colex_unrank,
    colex_unrank_array,
    jset_rank_array,
    jset_ranks,
    validate_subset,
)
from hyperphase.errors import ResourceLimitError, ValidationError


def pascal_table(n_max):
    """Independent binomial oracle: Pascal's triangle by addition only."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        row = [1] + [prev[r - 1] + prev[r] for r in range(1, n)] + [1]
        rows.append(row)
    return rows


def colex_enumeration(n, r):
    """Independent ranking oracle: all r-subsets of [n] in colex order."""
    return sorted(combinations(range(1, n + 1), r), key=lambda t: t[::-1])


def test_binomial_small_cases():
    assert binomial(5, 2) == 10
    assert binomial(7, 0) == 1
    assert binomial(0, 0) == 1
    assert binomial(3, 7) == 0


def test_binomial_matches_pascal_oracle():
    rows = pascal_table(30)
    assert binomial(30, 3) == rows[30][3] == 4060


@given(st.integers(1, 60), st.integers(0, 60))
def test_binomial_pascal_rule(n, r):
    assert binomial(n, r) == binomial(n - 1, r) + (binomial(n - 1, r - 1) if r else 0)


def test_binomial_rejects_negative_arguments():
    with pytest.raises(ValidationError):
        binomial(-1, 2)
    with pytest.raises(ValidationError):
        binomial(5, -2)


def test_binomial_overflow_is_loud():
    assert binomial(66, 33) <= INT64_MAX
    with pytest.raises(OverflowError):
        binomial(67, 33)


def test_rank_examples():
    assert colex_rank((1, 2)) == 0
    assert colex_rank((1, 2, 3)) == 0
    # oracle: full colex enumeration of 2-subsets of [4]
    enum = colex_enumeration(4, 2)
    assert enum.index((3, 4)) == 5
    assert colex_rank((3, 4)) == 5


def test_unrank_examples():
    assert colex_unrank(0, 2, 5) == (1, 2)
    assert colex_unrank(5, 2, 4) == (3, 4)


def test_rank_matches_enumeration_oracle():
    for n, r in ((4, 2), (6, 3), (7, 1), (8, 3)):
        for idx, subset in enumerate(colex_enumeration(n, r)):
            assert colex_rank(subset) == idx
            assert colex_unrank(idx, r, n) == subset


def test_round_trip_all_3_subsets_of_8():
    seen = set()
    for rank in range(binomial(8, 3)):
        s = colex_unrank(rank, 3, 8)
        assert colex_rank(validate_subset(s, 3, 8)) == rank
        seen.add(s)
    assert len(seen) == 56


def test_rank_validation_errors():
    for bad in ((1, 2, 3), (2, 2), (2, 1), (5, 7)):  # length, duplicate, order, range
        with pytest.raises(ValidationError):
            validate_subset(bad, 2, 6)
    with pytest.raises(ValidationError, match="out of range"):
        colex_unrank(15, 2, 6)  # C(6,2) = 15
    with pytest.raises(ValidationError):
        colex_unrank(-1, 2, 6)


@st.composite
def subset_with_params(draw):
    n = draw(st.integers(2, 40))
    j = draw(st.integers(1, min(6, n - 1)))
    vertices = draw(st.sets(st.integers(1, n), min_size=j, max_size=j))
    return tuple(sorted(vertices)), j, n


@given(subset_with_params())
def test_rank_unrank_round_trip(case):
    s, j, n = case
    rank = colex_rank(s)
    assert 0 <= rank < binomial(n, j)
    assert colex_unrank(rank, j, n) == s
    ranks = [0, rank, binomial(n, j) - 1]
    assert colex_unrank_array(ranks, j, n).tolist() == [list(colex_unrank(r, j, n)) for r in ranks]


def test_array_kernels_saturate_without_overflow():
    # C(v, i) passes 2^63 for mid-sized i at v < 70, but C(70, 65) fits
    n, k = 70, 65
    last = binomial(n, k) - 1
    row = colex_unrank_array([last], k, n)
    assert row.tolist() == [list(range(6, 71))] == [list(colex_unrank(last, k, n))]
    assert jset_rank_array(row, 64, n).tolist() == [jset_ranks(tuple(range(6, 71)), 64)]
    # every column, saturated ones included, against math.comb
    for m in (2, 5, 33, 69, 70, 71):
        top = min(m, 70)
        rows = [[min(math.comb(v, i), INT64_MAX) for v in range(m)] for i in range(top + 1)]
        assert _binomial_columns(top, m).tolist() == rows, m


def test_rank_kernels_guard_their_allocations(monkeypatch):
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "20")
    with pytest.raises(ResourceLimitError, match="vertex count n = 21"):
        colex_unrank_array([0], 2, 21)
    rows = np.array([(1, 2, 3)] * 7)
    assert jset_rank_array(rows[:6], 2, 20).shape == (6, 3)
    with pytest.raises(ResourceLimitError, match=r"j-set rank count m \* C\(k=3, j=2\) = 21"):
        jset_rank_array(rows, 2, 20)


def test_binomial_table_is_cached_read_only_and_guarded_per_call(monkeypatch):
    table = _binomial_columns(3, 40)
    assert _binomial_columns(3, 40) is table and not table.flags.writeable
    monkeypatch.setenv("HYPERPHASE_MAX_JSETS", "39")  # lowered after the table was cached
    with pytest.raises(ResourceLimitError, match="vertex count n = 40"):
        _binomial_columns(3, 40)


@given(subset_with_params(), subset_with_params())
def test_colex_monotonicity(a, b):
    s, j, n = a
    t, j2, _ = b
    if j != j2 or s == t:
        return
    assert (s[::-1] < t[::-1]) == (colex_rank(s) < colex_rank(t))


def test_jset_ranks_examples():
    # combinations order, not colex order: lex order puts (1, 4) before (2, 3)
    assert jset_ranks((1, 2, 3, 4), 2) == [0, 1, 3, 2, 4, 5]
    assert jset_ranks((1, 2, 3, 4), 1) == [0, 1, 2, 3]
    # brute-force subset filter oracle
    edge = (2, 4, 5, 7)
    expected = [s for s in combinations(range(1, 8), 3) if set(s) <= set(edge)]
    assert jset_ranks(edge, 3) == [colex_rank(s) for s in expected]
    assert len(expected) == 4


def colex_sub_jsets(edge, j):
    """The j-subsets of an edge in colex order, read back from their ranks."""
    return [colex_unrank(r, j, edge[-1]) for r in sorted(jset_ranks(edge, j))]


def test_sub_jsets_examples():
    assert colex_sub_jsets((1, 2, 3), 2) == [(1, 2), (1, 3), (2, 3)]
    assert colex_sub_jsets((1, 2, 3, 4), 1) == [(1,), (2,), (3,), (4,)]
    # brute-force subset filter oracle
    edge = (2, 4, 5, 7)
    expected = sorted(
        (s for s in combinations(range(1, 8), 3) if set(s) <= set(edge)),
        key=lambda t: t[::-1],
    )
    assert colex_sub_jsets(edge, 3) == expected
    assert len(expected) == 4


def test_sub_jsets_colex_order_differs_from_lex():
    # lex order would put (1, 4) before (2, 3)
    assert colex_sub_jsets((1, 2, 3, 4), 2) == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]


@given(st.integers(2, 7), st.data())
def test_jset_ranks_properties(k, data):
    n = data.draw(st.integers(k, k + 8))
    edge = tuple(sorted(data.draw(st.sets(st.integers(1, n), min_size=k, max_size=k))))
    j = data.draw(st.integers(1, k - 1))
    ranks = jset_ranks(edge, j)
    assert len(ranks) == len(set(ranks)) == binomial(k, j)
    assert all(0 <= r < binomial(n, j) for r in ranks)
    assert [colex_unrank(r, j, n) for r in ranks] == list(combinations(edge, j))
    rows = [edge, tuple(range(1, k + 1)), tuple(range(n - k + 1, n + 1))]
    assert jset_rank_array(np.array(rows), j, n).tolist() == [jset_ranks(e, j) for e in rows]


def test_validate_subset_reports_what():
    with pytest.raises(ValidationError, match="edge"):
        validate_subset((1, 2, 9), 3, 5, "edge")


def test_bijection_for_medium_sizes():
    # every rank maps to a distinct valid subset and back, C(n, j) <= 1e5
    for n, j in ((30, 1), (25, 2), (20, 3), (14, 5)):
        total = binomial(n, j)
        seen = set()
        rows = colex_unrank_array(range(total), j, n).tolist()
        for rank in range(total):
            s = colex_unrank(rank, j, n)
            validate_subset(s, j, n)
            assert colex_rank(s) == rank
            assert rows[rank] == list(s)
            seen.add(s)
        assert len(seen) == total
