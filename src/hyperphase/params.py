"""Problem parameters (k, j, n).

``Params.check_jsets`` applies the guardrail (``combinatorics.check_cap``)
to C(n, j), the number of j-sets the union-find engine indexes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .combinatorics import binomial, check_cap
from .errors import ValidationError


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

    def check_jsets(self) -> None:
        """The guardrail for a union-find over every j-set of [n]; the
        experiments that build one also call it before their first draw."""
        check_cap(f"C(n={self.n}, j={self.j})", self.num_jsets)

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
