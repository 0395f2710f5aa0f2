"""
Complete generator subsets and eraser homomorphisms of cactus groups.

A collection of sub-intervals of [1, n] that is closed under reflecting
nested intervals generates a subgroup in which membership is decided from
one reduced spelling: every relation move between letters of the collection
stays inside the collection (see is_member).  The slice collections (leaf
number between i and j) are the motivating examples; the 2-leaf slice is the
twin group.

Two erasers project away small leaves: one keeps the word (a split surjection
onto the high-leaf slice), the other keeps only width-i crossing data plus
the strand permutation.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterable

from . import cactus, racg
from .cactus import CactusLetter, CactusWord, Interval, reflect
from .perm import Permutation
from .racg import GaussWord


@dataclasses.dataclass(frozen=True, slots=True)
class IntervalCollection:
    """A set of sub-intervals [p, q] of [1, n], and whether it is symmetric."""

    n: int
    intervals: frozenset[Interval]
    symmetric: bool = dataclasses.field(init=False, repr=False, compare=False)  # is_symmetric(self)

    def __post_init__(self) -> None:
        for p, q in self.intervals:
            if not 1 <= p < q <= self.n:
                raise ValueError(f"interval [{p},{q}] out of bounds for n={self.n}")
        object.__setattr__(self, "symmetric", is_symmetric(self))

    @staticmethod
    def of(n: int, intervals: Iterable[Interval]) -> IntervalCollection:
        return IntervalCollection(n, frozenset((p, q) for p, q in intervals))

    @staticmethod
    def slice(n: int, i: int, j: int) -> IntervalCollection:
        """All intervals with leaf number between i and j (inclusive)."""
        if not 2 <= i <= j <= n:
            raise ValueError(f"need 2 <= i <= j <= n, got i={i} j={j} n={n}")
        return IntervalCollection.of(
            n, ((p, p + k - 1) for k in range(i, j + 1) for p in range(1, n - k + 2))
        )

    def __len__(self) -> int:
        return len(self.intervals)


def _nested_pairs(intervals: Iterable[Interval]):
    """(inner, outer) for each interval inside another.  Sorted by (p, -q), the
    intervals inside [p, q] follow it and start before q, which ends each scan."""
    ordered = sorted(intervals, key=lambda pq: (pq[0], -pq[1]))
    for a, outer in enumerate(ordered):
        q = outer[1]
        for b in range(a + 1, len(ordered)):
            inner = ordered[b]
            if inner[0] >= q:
                break
            if inner[1] <= q:
                yield inner, outer


def is_symmetric(c: IntervalCollection) -> bool:
    """Closed under reflecting nested intervals inside enclosing members.

    >>> is_symmetric(IntervalCollection.of(4, [(1, 2), (1, 4)]))
    False
    >>> is_symmetric(IntervalCollection.of(4, [(1, 2), (1, 4), (3, 4)]))
    True
    """
    return all(reflect(inner, outer) in c.intervals for inner, outer in _nested_pairs(c.intervals))


def symmetric_closure(c: IntervalCollection) -> IntervalCollection:
    """Least symmetric superset, by iterating reflections to a fixpoint."""
    intervals = set(c.intervals)
    while added := {
        reflect(inner, outer)
        for inner, outer in _nested_pairs(intervals)
        if reflect(inner, outer) not in intervals
    }:
        intervals |= added
    return IntervalCollection(c.n, frozenset(intervals))


def is_member(w: CactusWord, c: IntervalCollection) -> bool:
    """Membership in the subgroup generated by a symmetric collection.

    Sound and complete from any reduced spelling, so from the spans of
    cactus.reduced_spans, read until the first one outside the collection.
    A member has a word over the collection, and reducing it by exchange
    moves and cancellations stays over the collection: a symmetric
    collection is closed under exchange moves.  Any two reduced Gauss words
    of one element are joined by commutations (Tits' solution of the word
    problem for Coxeter groups, Le probleme des mots dans les groupes de
    Coxeter, 1969), and re-spelled, each commutation of disjoint or nested
    label sets is an exchange move.  So every reduced spelling of a member
    uses only collection letters.

    >>> c22 = IntervalCollection.slice(4, 2, 2)
    >>> is_member(cactus.word(4, [(1, 3)]), c22)
    False
    """
    if w.n != c.n:
        raise ValueError(f"size mismatch: word n={w.n}, collection n={c.n}")
    if not c.symmetric:
        raise ValueError("membership test requires a symmetric collection")
    return all(span in c.intervals for span in cactus.reduced_spans(w))


def eraser_slice(i: int, w: CactusWord) -> CactusWord:
    """Erase every letter of leaf number < i.

    A surjective homomorphism onto the [i, n]-slice subgroup; the inclusion of
    that subgroup is a section, so applying it to a slice word is a no-op.

    >>> str(eraser_slice(3, cactus.word(4, [(1, 2), (1, 3)])))
    's(1,3)'
    """
    if not 2 <= i <= w.n:
        raise ValueError(f"need 2 <= i <= n, got i={i} n={w.n}")
    return CactusWord(w.n, tuple(letter for letter in w.letters if letter.leaf >= i))


def eraser_width(i: int, w: CactusWord) -> tuple[GaussWord, Permutation]:
    """Project to width-i data: the Gauss word of the leaf-i crossings (in the
    width-i diagram group, where letters commute only when disjoint) plus the
    permutation contributed by all leaves >= i.

    Letters of leaf < i vanish entirely, reversals included: the diagram of
    the other letters is read, and its Gauss letters with i labels are the
    leaf-i crossings.  Distinct label sets of one size are never nested, so
    the Gauss engine's commutation is disjointness on them.
    """
    read = cactus.read_diagram(eraser_slice(i, w))  # checks i
    letters = [letter for letter in read.gauss.letters if len(letter.labels) == i]
    return GaussWord(w.n, racg.canonical_letters(letters)), read.perm


def check_eraser_welldefined(i: int, n: int) -> bool:
    """Verify both erasers respect every defining relation instance of J_n:
    x x = 1, and each move cactus.exchange_left makes on two letters."""
    letters = [CactusLetter(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    instances = [((x, x), ()) for x in letters]
    for x, y in itertools.permutations(letters, 2):
        if moved := cactus.exchange_left(x, y):
            instances.append(((x, y), moved))
    for lhs_letters, rhs_letters in instances:
        lhs, rhs = CactusWord(n, lhs_letters), CactusWord(n, rhs_letters)
        if not cactus.equal(eraser_slice(i, lhs), eraser_slice(i, rhs)):
            return False
        lw, lp = eraser_width(i, lhs)
        rw, rp = eraser_width(i, rhs)
        if lw.letters != rw.letters or lp != rp:
            return False
    return True


def kernel_decompose(i: int, w: CactusWord) -> list[tuple[CactusWord, CactusLetter]]:
    """Factor the small-leaf content of w as conjugates of small letters.

    In the free group, w = (prod_k  b_k m_k b_k^-1) . (big letters of w in
    order), where m_k runs over the letters of leaf < i and b_k is the product
    of big letters before m_k.  The trailing factor is the section of the
    slice eraser, so the product of the returned conjugates represents
    w . erase(w)^-1, an element of the kernel.  Conjugators are trimmed to
    canonical form.
    """
    if not 2 <= i <= w.n:
        raise ValueError(f"need 2 <= i <= n, got i={i} n={w.n}")
    bigs: list[CactusLetter] = []
    out = []
    for letter in w.letters:
        if letter.leaf < i:
            conjugator = cactus.canonical(CactusWord(w.n, tuple(bigs)))
            out.append((conjugator, letter))
        else:
            bigs.append(letter)
    return out
