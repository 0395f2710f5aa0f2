"""
The Gauss-diagram group: a right-angled Coxeter group whose letters are
involutions named by sets of strand labels, two of them commuting when their
label sets are disjoint or nested.

Every computation runs on label masks, a label set stored as the sum of 2**x,
where that commutation is one test on the masks' intersection.  push_masks
reduces, and is the kernel of every cactus decision; equality is one
reduction of u v^-1; least_linearization emits both canonical forms, the
Gauss one here and the cactus one.  The Gauss-letter functions push the
letters' masks and map the result back.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Iterator, Sequence


@dataclasses.dataclass(frozen=True, order=True, slots=True)
class GaussLetter:
    """An involution named by a label set of size >= 2, stored sorted.

    The same set is also kept as its label mask, the sum of 2**x, which the
    engine computes on; it takes no part in comparison, hashing or repr.

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


@dataclasses.dataclass(frozen=True, slots=True)
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


def commutes(a: GaussLetter, b: GaussLetter) -> bool:
    """Gauss-diagram commutation: label sets disjoint or nested.

    >>> commutes(tau(1, 2), tau(3, 4)), commutes(tau(1, 2), tau(1, 2, 3))
    (True, True)
    >>> commutes(tau(1, 2), tau(1, 3))
    False
    """
    c = a.mask & b.mask
    return c == 0 or c == a.mask or c == b.mask


def push_masks(out: list[int], masks: Iterable[int]) -> list[int]:
    """Append masks one at a time to a reduced word, keeping it reduced.

    In a right-angled Coxeter group a word shortens exactly by deleting two
    equal letters separated only by letters commuting with them, and all
    reduced words of an element form one commutation class.  So, scanning
    backwards, an equal mask reachable through commuting masks annihilates
    with the new one; the first non-commuting mask blocks any earlier copy,
    so the scan may stop there.  Appending otherwise cannot create a new
    cancellable pair, hence the invariant.
    """
    for mask in masks:
        i = len(out)
        while i:
            i -= 1
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


def push_letter(out: list[int], mask: int) -> None:
    """push_masks for one mask."""
    push_masks(out, (mask,))


def reduction_dag(masks: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """The transitive reduction of the non-commutation DAG (i -> j for i < j
    whose masks do not commute): each mask's successors, in increasing
    index, and its number of predecessors.

    below[j] is the bit set of j and its ancestors.  The candidate
    predecessors of j are walked from the highest index down, and an edge
    i -> j clears every ancestor of i from the candidates untested, since
    each of them precedes j already.  An ancestor of j that is no
    predecessor lies below a predecessor of higher index, which the walk
    meets first, so the masks left to test are exactly the predecessors
    and the non-ancestors.
    """
    successors: list[list[int]] = [[] for _ in masks]
    blockers = [0] * len(masks)
    below: list[int] = []
    for j, b in enumerate(masks):
        ancestors = 1 << j
        candidates = ancestors - 1
        while candidates:
            i = candidates.bit_length() - 1
            a = masks[i]
            c = a & b
            if c == 0 or c == a or c == b:
                candidates ^= 1 << i
            else:
                successors[i].append(j)
                blockers[j] += 1
                candidates &= ~below[i]
                ancestors |= below[i]
        below.append(ancestors)
    return successors, blockers


def _masks(letters: Iterable[GaussLetter]) -> list[int]:
    return [letter.mask for letter in letters]


def reduce_letters(letters: Sequence[GaussLetter]) -> tuple[GaussLetter, ...]:
    """An irreducible word for the same element; its length is the geodesic length."""
    by_mask = {letter.mask: letter for letter in letters}
    return tuple(by_mask[mask] for mask in push_masks([], _masks(letters)))


def least_linearization(masks: Sequence[int], key: Callable, reflect: Callable) -> Iterator:
    """Kahn's algorithm over reduction_dag(masks), masks reduced: yield the
    least key among the sources at each step.

    Sources pairwise commute and, the word being reduced, are pairwise
    distinct, so distinct keys make the choice unambiguous.  A node is a
    source exactly when all its ancestors have been emitted, the last of
    them a maximal one, an edge of the reduction; so the reduction yields
    the sources of the full DAG.  key(j) is read once, when j becomes a
    source after the caller has handled the last yield, so it may read
    state the caller updates.  On resuming, each source whose mask is nested
    in the emitted one takes the key reflect(its key, the emitted key).
    """
    successors, blockers = reduction_dag(masks)
    sources = [(key(j), j) for j, count in enumerate(blockers) if not count]
    while sources:
        least, i = min(sources) if len(sources) > 1 else sources[0]
        yield least
        x = masks[i]
        sources = [(reflect(k, least), j) if masks[j] | x == x else (k, j)
                   for k, j in sources if j != i]
        for j in successors[i]:
            blockers[j] -= 1
            if not blockers[j]:
                sources.append((key(j), j))


def canonical_letters(letters: Sequence[GaussLetter]) -> tuple[GaussLetter, ...]:
    """The least word, letter by letter, in the commutation class of a reduction.

    It depends only on the group element, since all reduced words of an
    element form one commutation class: the least linearization with each
    letter as its own key, which no emission changes.
    """
    by_mask = {letter.mask: letter for letter in letters}
    masks = push_masks([], _masks(letters))
    reduced = [by_mask[mask] for mask in masks]
    return tuple(least_linearization(masks, reduced.__getitem__, lambda k, _: k))


def racg_reduce(w: GaussWord) -> GaussWord:
    """Irreducible representative of a Gauss word.

    >>> str(racg_reduce(GaussWord(4, (tau(1, 2), tau(3, 4), tau(1, 2)))))
    't{3,4}'
    """
    return GaussWord(w.n, reduce_letters(w.letters))


def racg_canonical(w: GaussWord) -> GaussWord:
    """Canonical form: least linearization of the reduced commutation class.

    >>> str(racg_canonical(GaussWord(3, (tau(1, 2, 3), tau(1, 2)))))
    't{1,2} t{1,2,3}'
    """
    return GaussWord(w.n, canonical_letters(w.letters))


def racg_equal(u: GaussWord, v: GaussWord) -> bool:
    """Equality as one reduction: u = v iff u v^-1 reduces to the empty word.

    >>> racg_equal(GaussWord(4, (tau(3, 4), tau(1, 2))), GaussWord(4, (tau(1, 2), tau(3, 4))))
    True
    """
    if u.n != v.n:
        raise ValueError(f"size mismatch: {u.n} vs {v.n}")
    return not push_masks([], _masks(u.letters + v.letters[::-1]))
