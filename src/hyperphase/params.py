"""Problem parameters (k, j, n) and the memory guardrail.

The guardrail (``check_cap``) caps C(n, j), the number of j-sets a dense
engine would have to index, and the edge count of a sample.  It exists so
oversized instances fail with a clear resource error instead of an
allocator death spiral.  The cap defaults to 2*10^8
and can be overridden via the HYPERPHASE_MAX_JSETS environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .combinatorics import binomial
from .errors import ResourceLimitError, ValidationError

DEFAULT_MAX_JSETS = 200_000_000
MAX_JSETS_ENV = "HYPERPHASE_MAX_JSETS"


def max_jsets_cap() -> int:
    """Current guardrail cap (env override wins)."""
    raw = os.environ.get(MAX_JSETS_ENV)
    if raw is None:
        return DEFAULT_MAX_JSETS
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"{MAX_JSETS_ENV} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValidationError(f"{MAX_JSETS_ENV} must be positive, got {cap}")
    return cap


def check_cap(what: str, count: int) -> None:
    """The guardrail: fail fast when `count` items would pass the cap."""
    cap = max_jsets_cap()
    if count > cap:
        raise ResourceLimitError(
            f"{what} = {count} exceeds the guardrail cap {cap} (override with {MAX_JSETS_ENV})"
        )


@dataclass(frozen=True)
class Params:
    """Uniformity k, connectivity order j, vertex count n."""

    k: int
    j: int
    n: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValidationError(f"k must satisfy k >= 2, got k={self.k}")
        if not 1 <= self.j <= self.k - 1:
            raise ValidationError(f"j must satisfy 1 <= j <= k-1, got j={self.j}, k={self.k}")
        if self.n < self.k:
            raise ValidationError(f"n must satisfy n >= k, got n={self.n}, k={self.k}")
        check_cap(f"C(n={self.n}, j={self.j})", binomial(self.n, self.j))

    @property
    def num_jsets(self) -> int:
        """C(n, j): number of j-sets over [n]."""
        return binomial(self.n, self.j)

    @property
    def num_ksets(self) -> int:
        """C(n, k): number of possible edges."""
        return binomial(self.n, self.k)

    @property
    def jsets_per_edge(self) -> int:
        """C(k, j): j-sets contained in one edge."""
        return binomial(self.k, self.j)
