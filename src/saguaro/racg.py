"""
A right-angled Coxeter rewriting engine over an abstract alphabet.

Letters are orderable, hashable values and every letter is an involution; the
only other relations are commutations, supplied as a symmetric predicate.  On
such groups two facts drive everything here: a word is shortened exactly by
deleting two equal letters separated only by letters commuting with them, and
all shortest representatives of an element form a single commutation class.
Reduction pushes letters one at a time onto a reduced word; equality is one
reduction of u v^-1; the canonical form is the lexicographically least
linearization of an irreducible representative, found by Kahn's algorithm
over the transitive reduction of its non-commutation DAG (the lexicographic
normal form of a trace).

The concrete alphabet used throughout the package is the Gauss-diagram
alphabet: a letter carries a set of strand labels, and two letters commute
when their label sets are disjoint or nested, a test on two bit masks.  The
masks are an alphabet too: push_masks, push reduction with that test
inlined, is the kernel of every cactus decision.  The generic functions
serve GaussWords and, disjointness only, width-restricted diagram groups.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TypeVar

L = TypeVar("L")

CommutationPredicate = Callable[[L, L], bool]


@dataclasses.dataclass(frozen=True, order=True)
class GaussLetter:
    """An involution named by a label set of size >= 2, stored sorted.

    The same set is also kept as its label mask, the sum of 2**x, which the
    commutation predicates test; it takes no part in comparison, hashing or repr.

    The order on letters is the tuple order on the sorted labels, so a letter
    precedes its own extensions: t{1,2} < t{1,2,3} < t{1,3}.

    >>> GaussLetter((1, 2)) < GaussLetter((1, 2, 3)) < GaussLetter((1, 3))
    True
    """

    labels: tuple[int, ...]
    mask: int = dataclasses.field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = self.labels
        if (len(labels) < 2 or labels[0] < 0 or list(labels) != sorted(labels)
                or (mask := sum(1 << x for x in labels)).bit_count() != len(labels)):
            raise ValueError(f"labels must be >= 2 distinct sorted values: {labels!r}")
        object.__setattr__(self, "mask", mask)

    def __str__(self) -> str:
        return "t{" + ",".join(str(x) for x in self.labels) + "}"


def tau(*labels: int) -> GaussLetter:
    return GaussLetter(tuple(sorted(labels)))


@dataclasses.dataclass(frozen=True)
class GaussWord:
    """A word in Gauss letters over n strands."""

    n: int
    letters: tuple[GaussLetter, ...] = ()

    def __post_init__(self) -> None:
        for letter in self.letters:
            if letter.labels[0] < 1 or letter.labels[-1] > self.n:
                raise ValueError(f"letter {letter} out of bounds for n={self.n}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self) -> str:
        return " ".join(str(letter) for letter in self.letters)


def masks_commute(a: int, b: int) -> bool:
    """Gauss-diagram commutation on label masks, themselves an alphabet."""
    c = a & b
    return c == 0 or c == a or c == b


def commutes(a: GaussLetter, b: GaussLetter) -> bool:
    """Gauss-diagram commutation: label sets disjoint or nested.

    >>> commutes(tau(1, 2), tau(3, 4)), commutes(tau(1, 2), tau(1, 2, 3))
    (True, True)
    >>> commutes(tau(1, 2), tau(1, 3))
    False
    """
    return masks_commute(a.mask, b.mask)


def commutes_disjoint(a: GaussLetter, b: GaussLetter) -> bool:
    """Width-restricted commutation: label sets disjoint only."""
    return not a.mask & b.mask


def push_letter(out: list[L], letter: L, commute: CommutationPredicate) -> None:
    """Append one letter to a reduced word, keeping it reduced.

    Scanning backwards, an equal letter reachable through commuting letters
    annihilates with the new one; the first non-commuting letter blocks any
    earlier copy, so the scan may stop there.  Appending otherwise cannot
    create a new cancellable pair, hence the invariant.
    """
    for i in range(len(out) - 1, -1, -1):
        if out[i] == letter:
            del out[i]
            return
        if not commute(out[i], letter):
            break
    out.append(letter)


def push_masks(out: list[int], masks: Iterable[int]) -> list[int]:
    """push_letter under masks_commute, inlined, for each mask in turn."""
    for mask in masks:
        for i in range(len(out) - 1, -1, -1):
            other = out[i]
            if other == mask:
                del out[i]
                break
            common = other & mask
            if common and common != other and common != mask:
                out.append(mask)
                break
        else:
            out.append(mask)
    return out


def reduce_letters(letters: Sequence[L], commute: CommutationPredicate) -> tuple[L, ...]:
    """An irreducible word for the same element; its length is the geodesic length."""
    out: list[L] = []
    for letter in letters:
        push_letter(out, letter, commute)
    return tuple(out)


def reduction_dag(
    letters: Sequence[L], commute: CommutationPredicate
) -> tuple[list[list[int]], list[int]]:
    """The transitive reduction of the non-commutation DAG (i -> j for i < j
    whose letters do not commute): each letter's successors, in increasing
    index, and its number of predecessors.

    below[j] is the bit set of j and its ancestors.  The candidate
    predecessors of j are walked from the highest index down, and an edge
    i -> j clears every ancestor of i from the candidates untested, since
    each of them precedes j already.  An ancestor of j that is no
    predecessor lies below a predecessor of higher index, which the walk
    meets first, so the letters left to test are exactly the predecessors
    and the non-ancestors.
    """
    successors: list[list[int]] = [[] for _ in letters]
    blockers = [0] * len(letters)
    below: list[int] = []
    for j, b in enumerate(letters):
        ancestors = 1 << j
        candidates = ancestors - 1
        while candidates:
            i = candidates.bit_length() - 1
            if commute(letters[i], b):
                candidates ^= 1 << i
            else:
                successors[i].append(j)
                blockers[j] += 1
                candidates &= ~below[i]
                ancestors |= below[i]
        below.append(ancestors)
    return successors, blockers


def least_linearization(
    letters: Sequence[L], commute: CommutationPredicate, key: Callable[[L], object] | None = None
) -> Iterator[L]:
    """Yield a reduced word in the lexicographically least order, by key, that
    its commutation class allows.

    Kahn's algorithm over reduction_dag: each step emits the least source.
    Sources pairwise commute and, the word being reduced, are pairwise
    distinct, so the choice is unambiguous.  The key is evaluated lazily,
    after the consumer has handled the previous letter, so it may read state
    that the consumer updates as it goes.  A node is a source exactly when
    all its ancestors have been emitted, and the last of them to be emitted
    is a maximal one, an edge of the reduction; each emitted node releases
    its successors in increasing index.  So the reduction, having the
    reachability of the full DAG, yields the same sources in the same order
    for any predicate and key.
    """
    successors, blockers = reduction_dag(letters, commute)
    sources = [j for j, count in enumerate(blockers) if not count]
    by_key = letters.__getitem__ if key is None else lambda j: key(letters[j])
    while sources:
        best = min(sources, key=by_key) if len(sources) > 1 else sources[0]
        sources.remove(best)
        yield letters[best]
        for j in successors[best]:
            blockers[j] -= 1
            if not blockers[j]:
                sources.append(j)


def canonical_letters(letters: Sequence[L], commute: CommutationPredicate) -> tuple[L, ...]:
    """The least word, letter by letter, in the commutation class of a reduction.

    It depends only on the group element, since all reduced words of an
    element form one commutation class.
    """
    return tuple(least_linearization(reduce_letters(letters, commute), commute))


def racg_reduce(w: GaussWord) -> GaussWord:
    """Irreducible representative of a Gauss word.

    >>> str(racg_reduce(GaussWord(4, (tau(1, 2), tau(3, 4), tau(1, 2)))))
    't{3,4}'
    """
    return GaussWord(w.n, reduce_letters(w.letters, commutes))


def racg_canonical(w: GaussWord) -> GaussWord:
    """Canonical form: least linearization of the reduced commutation class.

    >>> str(racg_canonical(GaussWord(3, (tau(1, 2, 3), tau(1, 2)))))
    't{1,2} t{1,2,3}'
    """
    return GaussWord(w.n, canonical_letters(w.letters, commutes))


def racg_equal(u: GaussWord, v: GaussWord) -> bool:
    """Equality as one reduction: u = v iff u v^-1 reduces to the empty word.

    >>> racg_equal(GaussWord(4, (tau(3, 4), tau(1, 2))), GaussWord(4, (tau(1, 2), tau(3, 4))))
    True
    """
    if u.n != v.n:
        raise ValueError(f"size mismatch: {u.n} vs {v.n}")
    return not reduce_letters(u.letters + tuple(reversed(v.letters)), commutes)
