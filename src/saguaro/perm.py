"""
Permutations of {1, ..., n} in one-line notation, with the interval reversals
that multi-strand crossings induce on their strands.

A permutation sends a strand (named by its starting position, 1 at the top) to
its final position.  Composition is in diagram order, left to right:
``(a * b)(i) = b(a(i))``.  Under this convention the strand permutation of a
concatenated diagram is the product of the permutations of its pieces.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Iterable, Sequence


@dataclasses.dataclass(frozen=True, order=True, slots=True)
class Permutation:
    """A permutation of {1, ..., n} stored as its one-line image table.

    >>> Permutation((2, 1, 3)).apply(1)
    2
    >>> str(Permutation((4, 1, 3, 2)))
    '(4,1,3,2)'
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {self.images!r}")

    @property
    def n(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(n: int) -> Permutation:
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def interval_reversal(n: int, p: int, q: int) -> Permutation:
        """The permutation reversing positions p..q and fixing the rest.

        >>> Permutation.interval_reversal(4, 2, 4).images
        (1, 4, 3, 2)
        """
        if not 1 <= p < q <= n:
            raise ValueError(f"interval [{p},{q}] out of bounds for n={n}")
        return Permutation(tuple(p + q - i if p <= i <= q else i for i in range(1, n + 1)))

    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self.images, start=1))

    def apply(self, i: int) -> int:
        return self.images[i - 1]

    def apply_set(self, labels: Iterable[int]) -> frozenset[int]:
        """Elementwise image of a label set; cardinality is preserved."""
        return frozenset(self.images[i - 1] for i in labels)

    def inverse(self) -> Permutation:
        inv = [0] * len(self.images)
        for i, x in enumerate(self.images, start=1):
            inv[x - 1] = i
        return Permutation(tuple(inv))

    def __mul__(self, other: Permutation) -> Permutation:
        """Left-to-right composition: apply self first, then other.

        >>> a = Permutation.interval_reversal(4, 1, 2)
        >>> b = Permutation.interval_reversal(4, 2, 4)
        >>> (a * b).images
        (4, 1, 3, 2)
        """
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return Permutation(tuple(other.images[x - 1] for x in self.images))

    def order(self) -> int:
        """Multiplicative order, the lcm of the cycle lengths."""
        return cycle_order(self.images)

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.images) + ")"


def cycle_order(images: Sequence[int]) -> int:
    """The order of i -> images[i - 1], a permutation of {1, ..., n} in
    one-line notation: the lcm of its cycle lengths."""
    result = 1
    seen = [False] * (len(images) + 1)
    for start in range(1, len(images) + 1):
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = images[i - 1]
            length += 1
        if length > 1:
            result = math.lcm(result, length)
    return result
