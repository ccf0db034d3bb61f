from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperphase.combinatorics import binomial, colex_unrank
from hyperphase.errors import ConfigError, ParseError, ValidationError
from hyperphase.experiments import ExperimentConfig
from hyperphase.hgio import (
    parse_config,
    parse_hypergraph,
    write_csv,
    write_hypergraph,
    write_json,
)
from hyperphase.models import Hypergraph, sample_binomial
from hyperphase.params import Params

TWO_EDGE_FILE = "3 4 2\n1 2 3\n2 3 4\n"


def test_parse_two_edge_example():
    h = parse_hypergraph(TWO_EDGE_FILE, j=2)
    assert h.params == Params(3, 2, 4)
    assert h.edges == ((1, 2, 3), (2, 3, 4))


def test_parse_empty_hypergraph():
    h = parse_hypergraph("3 4 0\n", j=2)
    assert h.m == 0 and h.params.n == 4


def test_parse_rejects_non_increasing_with_line_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_hypergraph("3 4 1\n3 2 1\n", j=2)


def test_parse_rejects_duplicates_and_range():
    with pytest.raises(ParseError, match="duplicate"):
        parse_hypergraph("3 4 2\n1 2 3\n1 2 3\n", j=2)
    with pytest.raises(ParseError, match="line 2"):
        parse_hypergraph("3 4 1\n2 3 9\n", j=2)


def test_parse_header_body_mismatch():
    with pytest.raises(ParseError, match="m=3"):
        parse_hypergraph("3 4 3\n1 2 3\n", j=2)
    with pytest.raises(ParseError, match="header"):
        parse_hypergraph("", j=2)


def test_parse_bad_tokens():
    with pytest.raises(ParseError, match="line 2"):
        parse_hypergraph("3 4 1\n1 x 3\n", j=2)
    with pytest.raises(ParseError, match="line 1"):
        parse_hypergraph("3 4\n", j=2)


def test_parse_body_faults_name_the_line_and_the_edge():
    for body, fault in (
        ("1 2 3\n0 2 3", r"edge \(0, 2, 3\) must be strictly increasing with vertices >= 1"),
        ("1 2 3\n1 3 2", r"edge \(1, 3, 2\) must be strictly increasing"),
        ("1 2 3\n2 3 5", r"edge \(2, 3, 5\) has vertices outside \[1, 4\]"),
    ):
        with pytest.raises(ParseError, match=r"^line 3: " + fault):
            parse_hypergraph("3 4 2\n" + body + "\n", j=2)
    with pytest.raises(ParseError) as info:
        parse_hypergraph("3 4 1\n1 x 3\n", j=2)
    assert str(info.value) == "line 2: expected an integer, got 'x'"


def test_parse_skips_comments_and_blanks():
    text = "# a comment\n\n3 4 1\n# another\n1 2 3\n"
    assert parse_hypergraph(text, j=2).m == 1


def test_write_round_trip_and_canonical_order():
    h = Hypergraph(Params(3, 2, 4), ((2, 3, 4), (1, 2, 3)))
    text = write_hypergraph(h)
    assert text == TWO_EDGE_FILE
    assert parse_hypergraph(text, j=2) == h


def test_write_empty():
    assert write_hypergraph(Hypergraph(Params(3, 2, 4))) == "3 4 0\n"


@st.composite
def hypergraphs(draw):
    k = draw(st.integers(2, 4))
    n = draw(st.integers(k, k + 6))
    j = draw(st.integers(1, k - 1))
    total = binomial(n, k)
    ranks = draw(st.sets(st.integers(0, total - 1), max_size=min(total, 10)))
    return Hypergraph(Params(k, j, n), tuple(colex_unrank(r, k, n) for r in ranks))


@given(hypergraphs())
@settings(max_examples=40)
def test_round_trip_identity(h):
    assert parse_hypergraph(write_hypergraph(h), j=h.params.j) == h


def test_csv_one_row_example():
    assert write_csv(["trial", "largest"], [[1, 3]]) == "trial,largest\n1,3\n"


def test_csv_empty_table_is_header_only():
    assert write_csv(["a", "b"], []) == "a,b\n"


def test_csv_real_round_trip():
    lines = write_csv(["x"], [[0.1], [1 / 3], [1e-17]]).strip().split("\n")[1:]
    assert [float(s) for s in lines] == [0.1, 1 / 3, 1e-17]


def test_csv_booleans_and_none():
    assert write_csv(["ok", "note"], [[True, None], [False, "x"]]) == "ok,note\ntrue,\nfalse,x\n"


def test_csv_quotes_when_needed():
    assert write_csv(["s"], [['a,"b"']]) == 's\n"a,""b"""\n'


def test_json_mirrors_columns():
    import json

    assert json.loads(write_json(["trial", "frac"], [[1, 0.5]])) == [{"trial": 1, "frac": 0.5}]


def test_table_shape_validation():
    for write in (write_csv, write_json):
        with pytest.raises(ConfigError, match=r"duplicate column names in \['a', 'a'\]"):
            write(["a", "a"], [])
        with pytest.raises(ConfigError, match="row width 1 does not match 2 columns"):
            write(["a", "b"], [[1, 2], [1]])


def test_parse_config_sweep_with_defaults():
    cfg = parse_config("k=3\nj=2\nn=150\neps_grid=0.1,0.2\n")
    assert cfg.params == Params(3, 2, 150)
    assert cfg.eps_grid == (0.1, 0.2)
    assert cfg.trials == 50
    assert cfg.base_seed == 1
    assert cfg.eps is None and cfg.gamma is None
    assert cfg.sample_cap == 10**6


def test_parse_config_defaults_are_the_dataclasses():
    cfg = parse_config("k=3\nj=2\nn=10\n")
    expected = ExperimentConfig(Params(3, 2, 10))
    for f in fields(ExperimentConfig):
        assert getattr(cfg, f.name) == getattr(expected, f.name), f.name


def test_parse_config_invalid_j():
    with pytest.raises(ValidationError, match="j must satisfy"):
        parse_config("k=3\nj=3\nn=10\n")


def test_parse_config_graph_case():
    cfg = parse_config("k=2\nj=1\nn=100\n")
    assert cfg.params == Params(2, 1, 100)


def test_parse_config_all_keys():
    text = (
        "k=3\nj=2\nn=60\ntrials=7\nseed=9\neps=0.2\ngamma=0.3\nomega=3\n"
        "s=1\nc=-2.5\neps_grid=-0.2,0.2\nell_list=0,1\nsample_cap=500\n"
    )
    cfg = parse_config(text)
    assert cfg.trials == 7 and cfg.base_seed == 9
    assert cfg.eps == 0.2 and cfg.gamma == 0.3 and cfg.omega == 3.0
    assert cfg.s == 1 and cfg.c == -2.5
    assert cfg.eps_grid == (-0.2, 0.2) and cfg.ell_list == (0, 1)
    assert cfg.sample_cap == 500


def test_parse_config_errors():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("k=3\nj=2\nn=10\nbogus=1\n")
    with pytest.raises(ConfigError, match="^line 4: unknown key 'delta'$"):  # a fixed constant of the advisory check
        parse_config("k=3\nj=2\nn=10\ndelta=0.25\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("k=3\nk=4\nj=2\nn=10\n")
    with pytest.raises(ConfigError, match="missing required"):
        parse_config("k=3\nj=2\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("k=three\nj=2\nn=10\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("k: 3\n")


def test_parse_config_comments_and_spaces():
    cfg = parse_config("# comment\nk = 3\nj = 2\nn = 12\n\n")
    assert cfg.params == Params(3, 2, 12)


def test_config_round_trip_through_sampler():
    cfg = parse_config("k=3\nj=2\nn=12\nseed=5\n")
    a = sample_binomial(cfg.params, 0.1, cfg.base_seed)
    b = sample_binomial(Params(3, 2, 12), 0.1, 5)
    assert a == b
