"""Hypergraph edge-list files, experiment configs, and result rows.

Edge-list format (UTF-8, LF):

    # optional comment lines
    k n m
    v1 v2 ... vk        (m lines, 1-based, strictly increasing)

Config format: flat ``key=value`` lines, ``#`` comments allowed.  Known
keys: k, j, n (required, making ``Params``); eps, gamma, omega, s, c,
trials, seed, eps_grid (comma-separated floats) and ell_list
(comma-separated ints), each an ``ExperimentConfig`` field (seed is
``base_seed``).  This module reads the syntax only: a key left out takes
its dataclass default, and the dataclasses check the values.

CSV cells: reals printed with 17 significant digits so they round-trip
exactly; booleans as true/false; missing values empty.  JSON output
mirrors the CSV columns, one object per row.
"""

from __future__ import annotations

import json

from .combinatorics import validate_subset
from .errors import ConfigError, ParseError, ValidationError
from .experiments import ExperimentConfig
from .models import Hypergraph
from .params import Params


def parse_hypergraph(text: str, j: int) -> Hypergraph:
    """Parse an edge-list file; j comes from the caller (the file stores
    only k, n, m).  Errors name the offending line."""
    header: tuple[int, int, int] | None = None
    edges: list[tuple[int, ...]] = []
    seen: dict[tuple[int, ...], int] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 3:
                raise ParseError(f"line {lineno}: header must be 'k n m', got {line!r}")
            k, n, m = (_parse_int(tok, lineno) for tok in tokens)
            if m < 0:
                raise ParseError(f"line {lineno}: edge count m must be >= 0, got {m}")
            header = (k, n, m)
            continue
        k, n, _ = header
        if len(tokens) != k:
            raise ParseError(f"line {lineno}: expected {k} vertices, got {len(tokens)}")
        vertices = tuple(_parse_int(tok, lineno) for tok in tokens)
        try:
            validate_subset(vertices, k, n, "edge")
        except ValidationError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if vertices in seen:
            raise ParseError(
                f"line {lineno}: duplicate edge {vertices} (first seen on line {seen[vertices]})"
            )
        seen[vertices] = lineno
        edges.append(vertices)
    if header is None:
        raise ParseError("line 1: missing 'k n m' header")
    k, n, m = header
    if len(edges) != m:
        raise ParseError(f"header declares m={m} edges but the body has {len(edges)}")
    return Hypergraph(Params(k, j, n), tuple(edges))


def write_hypergraph(h: Hypergraph) -> str:
    """Canonical serialization; edges come out sorted by edge rank."""
    lines = [f"{h.params.k} {h.params.n} {h.m}"]
    lines.extend(" ".join(map(str, e)) for e in h.edges)
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"line {lineno}: expected an integer, got {token!r}") from None


def _format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _check_shape(columns: list[str], rows: list[list[object]]) -> None:
    """Refuse duplicate column names and a row of the wrong width."""
    if len(set(columns)) != len(columns):
        raise ConfigError(f"duplicate column names in {columns}")
    for row in rows:
        if len(row) != len(columns):
            raise ConfigError(f"row width {len(row)} does not match {len(columns)} columns")


def write_csv(columns: list[str], rows: list[list[object]]) -> str:
    """CSV with a header row, cells formatted per the module contract."""
    _check_shape(columns, rows)
    lines = [",".join(_format_cell(c) for c in columns)]
    lines.extend(",".join(_format_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_json(columns: list[str], rows: list[list[object]]) -> str:
    """The same rows as a JSON list, one object per row."""
    _check_shape(columns, rows)
    return json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"


def _comma_list(item):
    return lambda value: tuple(item(tok) for tok in value.split(","))


_CONVERT = {
    **dict.fromkeys(("k", "j", "n", "trials", "seed", "s"), int),
    **dict.fromkeys(("eps", "gamma", "omega", "c"), float),
    "eps_grid": _comma_list(float),
    "ell_list": _comma_list(int),
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key=value experiment configuration."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONVERT:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONVERT[key](value)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for key {key!r}: {value!r}") from None

    for required in ("k", "j", "n"):
        if required not in values:
            raise ConfigError(f"missing required key {required!r}")
    params = Params(values.pop("k"), values.pop("j"), values.pop("n"))
    if "seed" in values:
        values["base_seed"] = values.pop("seed")
    return ExperimentConfig(params, **values)
