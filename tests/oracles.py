"""Independent brute-force oracles used to freeze expected values in tests.

These deliberately avoid the code paths they check: classes of words are
enumerated by breadth-first search over single relation moves, so canonical
forms and reductions can be validated against exhaustive ground truth at
small sizes.

The second half keeps the earlier implementations that the Gauss engine
replaced, as references for differential tests: the exchange-move reduction
and canonical form of cactus words (at least cubic in the word length), the
greedy canonical form of Gauss words, equality by comparing canonical forms,
and the width-i eraser with its own diagram loop.  The Gauss engine over any
alphabet with a commutation predicate (push reduction, the transitive
reduction of the non-commutation DAG and the least linearization under a
key) is kept too; the engine now runs on label masks only.  Commutation is tested on
label sets, not on the bit masks the package uses.  Also kept: the element
order that probes every power up to the bound with a length-based pruning
rule, the element order that read m from a second walk and pushed all m
powers, the reading that pushed integer strand labels one generic
push_letter call at a time (and the decisions built on it), the SVG
renderer that formatted float coordinates, the Tietze step that substitutes
into every relator for every candidate, with the simplification loop, cleanup and descending-name
tie-break wrapper around it, the dense textbook Smith normal form and the
unit-pivot sparse loop that handed it the remainder, the
Kahn linearization that tests every pair of letters for an edge, the cactus
canonical form whose key scans every position for a letter's strands, the
one whose key reads those positions for every source at every Kahn step and
spells the emitted letters in a second pass, the reduction that built a
letter object per span, membership read from the canonical form, the
interval slice and nested pairs filtered from all pairs, and the indexed
Tietze step, which rebuilds its occurrence index and re-costs every
candidate at each step, with the loop around it and the name-keyed
helpers it reads; the stateful Tietze loop that kept every candidate's
per-relator length changes, with the class key that built every rotation;
the Reidemeister-Schreier transversal, generator list and rewriting that
walked dicts keyed by generator name; and the tiny-word kernels that ran on
the generator walk of (letter, block) pairs: the push with an indexed
backward scan, the canonical form with dict-keyed Kahn sources, the order
that built a Permutation and the render that appended three strings per
strand at each crossing; the order that pushed c^m whatever m, before the
torsion theorem let it stop when m is not a power of two; the word
parsers that scanned each term with two regex calls, building a letter
object per term; the cyclic reduction of named words that stripped each
cancelling end pair with a slice, quadratic in the word, which the Tietze
intake ran before it reduced index words with the step's own loop; the
reduction, membership and canonical form that
spelled each letter from a strand -> position list, mirroring the
positions of its strands one by one; the exchange move that read the
interval relations through three single-use CactusLetter methods; and the
reading kernel whose walk kept every crossed block for its caller, writing
back a reversed copy of each, and whose push scanned back with a reversed()
iterator.

The last part holds helpers that only tests use: the cancellable pairs and
letter multiset of a Gauss word, and the matcher of one-relator
presentations up to renaming, rotation and inversion.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import re
from collections import Counter, deque
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from typing import TypeVar

from saguaro import cactus, racg
from saguaro.cactus import (  # noqa: F401
    CactusLetter,
    CactusWord,
    ReadResult,
    exchange_left,
    s_image,
    word,
)
from saguaro.perm import Permutation, cycle_order
from saguaro.presentation import (
    IndexWord,
    Presentation,
    SignedWord,
    SimplifiedPresentation,
    free_reduce,
    invert_word,
)
from saguaro.racg import GaussLetter, GaussWord
from saguaro.rschreier import RSGenerator
from saguaro.subgroups import IntervalCollection, reflect
from saguaro.syntax import MAX_EXPONENT, BoundsError, WordSyntaxError


def walk(letters: Iterable[CactusLetter],
         labels: list[int]) -> Iterator[tuple[CactusLetter, list[int]]]:
    """The diagram walk as a generator.  labels[pos - 1] labels the strand at
    position pos; for each letter, yield it with the block of labels at
    positions p..q, then reverse that block in place, so labels ends as the
    final label state."""
    for letter in letters:
        block = labels[letter.p - 1 : letter.q]
        yield letter, block
        labels[letter.p - 1 : letter.q] = block[::-1]


def exchange_class(w: CactusWord) -> set[tuple]:
    """All words reachable from w by adjacent exchange moves only."""
    seen = {w.letters}
    queue = deque([w.letters])
    while queue:
        letters = queue.popleft()
        for i in range(len(letters) - 1):
            ex = exchange_left(letters[i], letters[i + 1])
            if ex is None:
                continue
            neighbor = letters[:i] + ex + letters[i + 2 :]
            if neighbor not in seen:
                seen.add(neighbor)
                queue.append(neighbor)
    return seen


def commutation_class(w: GaussWord, commute) -> set[tuple]:
    """All words reachable from w by adjacent commutations."""
    seen = {w.letters}
    queue = deque([w.letters])
    while queue:
        letters = queue.popleft()
        for i in range(len(letters) - 1):
            a, b = letters[i], letters[i + 1]
            if a != b and commute(a, b):
                neighbor = letters[:i] + (b, a) + letters[i + 2 :]
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
    return seen


def commutes(a: GaussLetter, b: GaussLetter) -> bool:
    sa, sb = set(a.labels), set(b.labels)
    return sa.isdisjoint(sb) or sa <= sb or sb <= sa


def commutes_disjoint(a: GaussLetter, b: GaussLetter) -> bool:
    return set(a.labels).isdisjoint(b.labels)


def read_diagram(w: CactusWord) -> ReadResult:
    """Simulate the diagram: at each letter record the labels sitting at
    positions p..q, then reverse that block.

    >>> r = read_diagram(word(4, [(1, 2), (2, 4), (1, 3)]))
    >>> str(r.gauss), str(r.perm)
    ('t{1,2} t{1,3,4} t{2,3,4}', '(4,3,1,2)')
    """
    labels = list(range(1, w.n + 1))  # labels[pos - 1] = strand currently at pos
    out = []
    for letter in w.letters:
        block = labels[letter.p - 1 : letter.q]
        out.append(GaussLetter(tuple(sorted(block))))
        labels[letter.p - 1 : letter.q] = block[::-1]
    images = [0] * w.n
    for pos, strand in enumerate(labels, start=1):
        images[strand - 1] = pos
    return ReadResult(GaussWord(w.n, tuple(out)), Permutation(tuple(images)))


def _find_cancellation(letters: list[CactusLetter]) -> tuple[int, int] | None:
    # Walk each letter leftwards through exchange moves, transforming it as it
    # passes enclosing letters; it annihilates with the first equal letter met
    # and is blocked for good by an overlapping one.
    for j in range(1, len(letters)):
        moving = letters[j]
        for i in range(j - 1, -1, -1):
            if letters[i] == moving:
                return (i, j)
            ex = exchange_left(letters[i], moving)
            if ex is None:
                break
            moving = ex[0]
    return None


def _apply_cancellation(letters: list[CactusLetter], i: int, j: int) -> list[CactusLetter]:
    work = list(letters)
    for k in range(j, i + 1, -1):
        moved, stayed = exchange_left(work[k - 1], work[k])
        work[k - 1], work[k] = moved, stayed
    assert work[i] == work[i + 1]
    del work[i : i + 2]
    return work


def reduce(w: CactusWord) -> CactusWord:
    """An irreducible word for the same cactus; empty iff the cactus is trivial.

    Repeatedly exchange-moves a letter onto an equal earlier letter and kills
    the pair (the diagrammatic bigon killing).  The length of the result is
    the geodesic length of the element.

    >>> str(reduce(word(4, [(1, 4), (1, 2), (1, 4), (3, 4)])))
    ''
    """
    letters = list(w.letters)
    while True:
        hit = _find_cancellation(letters)
        if hit is None:
            return CactusWord(w.n, tuple(letters))
        letters = _apply_cancellation(letters, *hit)


def reduce_with_trace(w: CactusWord) -> tuple[CactusWord, frozenset[CactusLetter]]:
    """reduce(), also reporting every letter that appeared along the way
    (including intermediates created by conjugating exchanges)."""
    letters = list(w.letters)
    seen = set(letters)
    while True:
        hit = _find_cancellation(letters)
        if hit is None:
            return CactusWord(w.n, tuple(letters)), frozenset(seen)
        letters = _apply_cancellation(letters, *hit)
        seen.update(letters)


def canonical(w: CactusWord) -> CactusWord:
    """Canonical representative: greedily emit the least letter (in (p, q)
    order) that exchange moves can bring to the front.

    Front-reachable letters of an irreducible word are pairwise distinct once
    moved to the front, so the greedy choice is well defined and two words
    represent the same cactus iff their canonical forms coincide letterwise.

    >>> str(canonical(word(4, [(3, 4), (1, 2)])))
    's(1,2) s(3,4)'
    >>> str(canonical(word(4, [(1, 4), (1, 2)])))
    's(1,4) s(1,2)'
    """
    rest = list(reduce(w).letters)
    out = []
    while rest:
        best_j, best_letter = 0, rest[0]
        for j in range(1, len(rest)):
            moving = rest[j]
            for i in range(j - 1, -1, -1):
                ex = exchange_left(rest[i], moving)
                if ex is None:
                    moving = None
                    break
                moving = ex[0]
            if moving is not None and moving < best_letter:
                best_j, best_letter = j, moving
        for k in range(best_j, 0, -1):
            moved, stayed = exchange_left(rest[k - 1], rest[k])
            rest[k - 1], rest[k] = moved, stayed
        front = rest.pop(0)
        assert front == best_letter
        out.append(front)
    return CactusWord(w.n, tuple(out))


def equal(u: CactusWord, v: CactusWord) -> bool:
    """Decide equality in J_n on the Gauss side, where the reading map is
    injective and the word problem is a canonical-form comparison.

    >>> equal(word(3, [(1, 2), (2, 3), (1, 2)]), word(3, [(2, 3), (1, 2), (2, 3)]))
    False
    >>> equal(word(4, [(1, 4), (1, 2), (1, 4)]), word(4, [(3, 4)]))
    True
    """
    if u.n != v.n:
        raise ValueError(f"size mismatch: {u.n} vs {v.n}")
    cu = canonical_letters(read_diagram(u).gauss.letters, commutes)
    cv = canonical_letters(read_diagram(v).gauss.letters, commutes)
    return cu == cv


# The Gauss engine as it was when it took any alphabet with a commutation
# predicate, with the mask commutation test; names prefixed with generic_,
# bodies verbatim.

L = TypeVar("L")

CommutationPredicate = Callable[[L, L], bool]


def generic_masks_commute(a: int, b: int) -> bool:
    """Gauss-diagram commutation on label masks, themselves an alphabet."""
    c = a & b
    return c == 0 or c == a or c == b


def generic_push_letter(out: list[L], letter: L, commute: CommutationPredicate) -> None:
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


def generic_reduce_letters(letters: Sequence[L], commute: CommutationPredicate) -> tuple[L, ...]:
    """An irreducible word for the same element; its length is the geodesic length."""
    out: list[L] = []
    for letter in letters:
        generic_push_letter(out, letter, commute)
    return tuple(out)


def generic_reduction_dag(
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


def generic_least_linearization(
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
    successors, blockers = generic_reduction_dag(letters, commute)
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


def generic_canonical_letters(letters: Sequence[L], commute: CommutationPredicate) -> tuple[L, ...]:
    """The least word, letter by letter, in the commutation class of a reduction.

    It depends only on the group element, since all reduced words of an
    element form one commutation class.
    """
    return tuple(generic_least_linearization(generic_reduce_letters(letters, commute), commute))


def canonical_letters(letters: Sequence[L], commute: CommutationPredicate) -> tuple[L, ...]:
    """The least word, letter by letter, in the commutation class of a reduction.

    Greedily emits the smallest letter that commutes with everything before
    it.  In a reduced word no two equal letters are simultaneously movable to
    the front (they would cancel), so the choice is unambiguous and the result
    depends only on the group element.
    """
    rest = list(generic_reduce_letters(letters, commute))
    out: list[L] = []
    while rest:
        best = 0
        for j in range(1, len(rest)):
            if rest[j] < rest[best] and all(commute(rest[i], rest[j]) for i in range(j)):
                best = j
        out.append(rest.pop(best))
    return tuple(out)


def least_linearization(
    letters: Sequence[L], commute: CommutationPredicate, key: Callable[[L], object] | None = None
) -> Iterator[L]:
    """Yield a reduced word in the lexicographically least order, by key, that
    its commutation class allows.

    Kahn's algorithm over the non-commutation DAG (i -> j for i < j whose
    letters do not commute): each step emits the least source.  Sources
    pairwise commute and, the word being reduced, are pairwise distinct, so
    the choice is unambiguous.  The key is evaluated lazily, after the
    consumer has handled the previous letter, so it may read state that the
    consumer updates as it goes.
    """
    successors: list[list[int]] = [[] for _ in letters]
    blockers = [0] * len(letters)
    for j, b in enumerate(letters):
        for i in range(j):
            if not commute(letters[i], b):
                successors[i].append(j)
                blockers[j] += 1
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

# The cactus canonical form as it was when its key scanned every position for
# the strands of a letter; names prefixed with scan_, bodies verbatim.


def _scan_span(labels: list[int], mask: int) -> tuple[int, int]:
    """First and last position of the strands in a label mask."""
    inside = [pos for pos, strand in enumerate(labels, start=1) if mask >> strand & 1]
    return inside[0], inside[-1]


def _scan_respell(n: int, masks: Iterable[int], labels: list[int]) -> CactusWord:
    """Spell each Gauss letter, given by its label mask, as the interval its
    strands occupy, crossing it before the next is spelled."""
    out = []
    for mask in masks:
        p, q = _scan_span(labels, mask)
        assert q - p + 1 == mask.bit_count(), f"labels {mask:b} are not one block"
        out.append(CactusLetter(p, q))
        labels[p - 1 : q] = labels[p - 1 : q][::-1]
    return CactusWord(n, tuple(out))


def scan_canonical(w: CactusWord) -> CactusWord:
    """Canonical representative: greedily emit the least letter (in (p, q)
    order) that exchange moves can bring to the front.

    A letter can reach the front exactly when its Gauss letter is a source of
    the non-commutation DAG of the reduced reading, and there it is spelled
    under the current label state; the sources have distinct spellings, so
    the greedy choice is well defined and two words represent the same cactus
    iff their canonical forms coincide letterwise.

    >>> str(scan_canonical(word(4, [(3, 4), (1, 2)])))
    's(1,2) s(3,4)'
    >>> str(scan_canonical(word(4, [(1, 4), (1, 2)])))
    's(1,4) s(1,2)'
    """
    reduced = _push_reading(w.letters, list(range(1, w.n + 1)), [])
    labels = list(range(1, w.n + 1))
    front = generic_least_linearization(reduced, generic_masks_commute, key=lambda m: _scan_span(labels, m))
    return _scan_respell(w.n, front, labels)


# The cactus canonical form as it was when least_linearization evaluated its
# key, an itemgetter over the strand -> position list, for every source at
# every Kahn step, and the emitted masks were spelled by a second pass; names
# prefixed with key_, bodies verbatim.


def _key_strands(mask: int) -> list[int]:
    """The strands in a label mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _key_respell(n: int, masks: Iterable[int], where: list[int]) -> CactusWord:
    """Spell each Gauss letter, given by its label mask, as the interval its
    strands occupy, crossing it before the next is spelled.  where[s] is the
    position of strand s; crossing a block p..q moves each of its strands to
    the mirror position."""
    out = []
    for mask in masks:
        strands = _key_strands(mask)
        positions = [where[s] for s in strands]
        p, q = min(positions), max(positions)
        assert q - p + 1 == len(strands), f"labels {mask:b} are not one block"
        out.append(CactusLetter(p, q))
        for s in strands:
            where[s] = p + q - where[s]
    return CactusWord(n, tuple(out))


def key_canonical(w: CactusWord) -> CactusWord:
    """Canonical representative: greedily emit the least letter (in (p, q)
    order) that exchange moves can bring to the front.

    A letter can reach the front exactly when its Gauss letter is a source of
    the non-commutation DAG of the reduced reading, and there it is spelled
    under the current label state; the sources have distinct spellings, so
    the greedy choice is well defined and two words represent the same cactus
    iff their canonical forms coincide letterwise.  The key reads a source's
    spelling from the positions of its strands, which the re-spelling updates
    as it crosses each letter: one lookup per strand, not a scan of all n.

    >>> str(key_canonical(word(4, [(3, 4), (1, 2)])))
    's(1,2) s(3,4)'
    >>> str(key_canonical(word(4, [(1, 4), (1, 2)])))
    's(1,4) s(1,2)'
    """
    reduced = cactus._push_reading(w.letters, cactus._bits(w.n), [])
    where = list(range(w.n + 1))
    readers: dict[int, Callable] = {}  # mask -> reader of its strands' positions

    def span(mask: int) -> tuple[int, int]:
        if mask not in readers:
            readers[mask] = operator.itemgetter(*_key_strands(mask))
        positions = readers[mask](where)
        return min(positions), max(positions)

    front = generic_least_linearization(reduced, generic_masks_commute, key=span)
    return _key_respell(w.n, front, where)


# Reduction as it was when the re-spelling built a letter per span and a word,
# and membership as it was when it read the canonical form; names prefixed with
# object_ or canonical_, bodies verbatim (the strands helper is _key_strands).


def _object_span(strands: list[int], where: list[int]) -> tuple[int, int]:
    """The block p..q that the strands occupy, strand s at position where[s]."""
    positions = [where[s] for s in strands]
    p, q = min(positions), max(positions)
    assert q - p + 1 == len(strands), f"labels {strands} are not one block"
    return p, q


def _object_respell(n: int, masks: Iterable[int], where: list[int]) -> CactusWord:
    """Spell each Gauss letter, given by its label mask, as the interval its
    strands occupy, crossing it before the next is spelled.  where[s] is the
    position of strand s; crossing a block p..q moves each of its strands to
    the mirror position."""
    out = []
    for mask in masks:
        strands = _key_strands(mask)
        p, q = _object_span(strands, where)
        out.append(CactusLetter(p, q))
        for s in strands:
            where[s] = p + q - where[s]
    return CactusWord(n, tuple(out))


def object_reduce(w: CactusWord) -> CactusWord:
    """An irreducible word for the same cactus; empty iff the cactus is trivial.

    >>> str(object_reduce(word(4, [(1, 4), (1, 2), (1, 4), (3, 4)])))
    ''
    """
    reduced = cactus._push_reading(w.letters, cactus._bits(w.n), [])
    return _object_respell(w.n, reduced, list(range(w.n + 1)))


def canonical_is_member(w: CactusWord, c) -> bool:
    """Membership in the subgroup generated by a symmetric collection.

    Sound and complete because reductions and exchanges of words over the
    collection never leave it, so the canonical form of a member spells only
    collection letters.
    """
    if w.n != c.n:
        raise ValueError(f"size mismatch: word n={w.n}, collection n={c.n}")
    if not c.symmetric:
        raise ValueError("membership test requires a symmetric collection")
    return all((letter.p, letter.q) in c.intervals for letter in cactus.canonical(w))


def slice_intervals(n: int, i: int, j: int) -> frozenset[tuple[int, int]]:
    """The intervals of leaf number i..j, filtered from all n(n-1)/2 pairs."""
    return frozenset(
        (p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1) if i <= q - p + 1 <= j
    )


def nested_pairs(intervals) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Every (inner, outer) pair of distinct intervals with inner inside
    outer, tested over all ordered pairs."""
    return [
        (inner, outer)
        for inner, outer in itertools.permutations(intervals, 2)
        if outer[0] <= inner[0] and inner[1] <= outer[1]
    ]


def is_symmetric(c) -> bool:
    """Closed under reflecting nested intervals, over all ordered pairs."""
    return all(reflect(*pair) in c.intervals for pair in nested_pairs(c.intervals))


def symmetric_closure_intervals(c) -> frozenset[tuple[int, int]]:
    """The least symmetric superset's intervals, over all ordered pairs."""
    intervals = set(c.intervals)
    while added := {reflect(*pair) for pair in nested_pairs(intervals)} - intervals:
        intervals |= added
    return frozenset(intervals)


def eraser_width(i: int, w: CactusWord) -> tuple[GaussWord, Permutation]:
    """Project to width-i data: the Gauss word of the leaf-i crossings (in the
    width-i diagram group, where letters commute only when disjoint) plus the
    permutation contributed by all leaves >= i.

    Letters of leaf < i vanish entirely, reversals included.
    """
    if not 2 <= i <= w.n:
        raise ValueError(f"need 2 <= i <= n, got i={i} n={w.n}")
    labels = list(range(1, w.n + 1))
    letters = []
    for letter in w.letters:
        if letter.leaf < i:
            continue
        block = labels[letter.p - 1 : letter.q]
        if letter.leaf == i:
            letters.append(GaussLetter(tuple(sorted(block))))
        labels[letter.p - 1 : letter.q] = block[::-1]
    images = [0] * w.n
    for pos, strand in enumerate(labels, start=1):
        images[strand - 1] = pos
    reduced = canonical_letters(letters, commutes_disjoint)
    return GaussWord(w.n, reduced), Permutation(tuple(images))


def order(c: CactusWord, bound: int = 64) -> int | None:
    """Smallest k <= bound with c^k trivial, or None if there is none.

    Honest bounded probing: powers are accumulated on the Gauss side, where
    the k-th power is trivial iff its reduced reading is empty.  One sound
    shortcut prunes hopeless searches: geodesic length drops by at most the
    geodesic length of c per extra factor, so a long enough reduction cannot
    reach the empty word within the bound.

    >>> order(word(2, [(1, 2)]))
    2
    >>> order(word(4, [(1, 2), (1, 4)]))
    4
    """
    if bound < 1:
        raise ValueError(f"need bound >= 1, got {bound}")
    labels = list(range(1, c.n + 1))
    reduced: list[int] = []
    step = 0
    for k in range(1, bound + 1):
        _push_reading(c.letters, labels, reduced)
        if not reduced:
            return k
        if k == 1:
            step = len(reduced)
        elif len(reduced) > (bound - k) * step:
            return None
    return None


def m_power_order(c: CactusWord, bound: int = 64) -> int | None:
    """Smallest k <= bound with c^k trivial, or None if there is none: m,
    the order of the strand permutation read from the label state that
    pushing c leaves, if c^m is trivial after the other m - 1 copies are
    pushed, whether or not m is a power of two."""
    if bound < 1:
        raise ValueError(f"need bound >= 1, got {bound}")
    labels = cactus._bits(c.n)
    reduced = cactus._push_reading(c.letters, labels, [])
    m = cycle_order([x.bit_length() - 1 for x in labels])
    if m > bound:
        return None
    for _ in range(m - 1):
        cactus._push_reading(c.letters, labels, reduced)
    return None if reduced else m


_BIT = (1).__lshift__  # label x -> 2**x


def label_mask(labels: Iterable[int]) -> int:
    """The bit mask of a set of distinct labels: the sum of 2**x."""
    return sum(map(_BIT, labels))


def _push_reading(
    letters: Iterable[CactusLetter], labels: list[int], reduced: list[int]
) -> list[int]:
    """Push the Gauss letters that `letters` read from the label state, as
    label masks, onto a reduced word and return it."""
    for _, block in walk(letters, labels):
        generic_push_letter(reduced, label_mask(block), generic_masks_commute)
    return reduced


def label_reading(w: CactusWord) -> list[int]:
    """The reduced reading of w, read with integer strand labels."""
    return _push_reading(w.letters, list(range(1, w.n + 1)), [])


def label_reduce(w: CactusWord) -> CactusWord:
    return _scan_respell(w.n, label_reading(w), list(range(1, w.n + 1)))


def label_equal(u: CactusWord, v: CactusWord) -> bool:
    return not label_reading(u * v.inverse())


def one_power_order(c: CactusWord, bound: int = 64) -> int | None:
    """Smallest k <= bound with c^k trivial, or None if there is none: m,
    the order of the strand permutation, if c^m is trivial."""
    if bound < 1:
        raise ValueError(f"need bound >= 1, got {bound}")
    m = s_image(c).order()
    if m > bound:
        return None
    labels = list(range(1, c.n + 1))
    reduced: list[int] = []
    for _ in range(m):
        _push_reading(c.letters, labels, reduced)
    return None if reduced else m


TRACK = 24  # vertical distance between strand tracks
COLUMN = 36  # horizontal advance per letter
MARGIN = 12


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else f"{value:.1f}"


def render_svg(w: CactusWord, labels: bool = False) -> str:
    """Render a word as SVG text; one polyline per strand.

    With labels=True, strand numbers are printed at the left edge and the
    label set of each crossing underneath its column.
    """
    width = 2 * MARGIN + COLUMN * len(w.letters)
    height = 2 * MARGIN + TRACK * (w.n - 1) + (18 if labels and w.letters else 0)

    def y(pos: int) -> int:
        return MARGIN + TRACK * (pos - 1)

    tracks = list(range(1, w.n + 1))  # tracks[pos - 1] = strand on that track
    points: dict[int, list[tuple[float, float]]] = {
        strand: [(0, y(strand))] for strand in tracks
    }
    crossing_texts = []
    x = MARGIN
    for letter, block in walk(w.letters, tracks):
        meeting_y = (y(letter.p) + y(letter.q)) / 2
        for pos, strand in enumerate(block, start=letter.p):
            points[strand].append((x, y(pos)))
            points[strand].append((x + COLUMN / 2, meeting_y))
            points[strand].append((x + COLUMN, y(letter.p + letter.q - pos)))
        if labels:
            text = ",".join(str(s) for s in sorted(block))
            crossing_texts.append((x + COLUMN / 2, height - 4, "{" + text + "}"))
        x += COLUMN
    for pos, strand in enumerate(tracks, start=1):
        points[strand].append((width, y(pos)))

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
        f' viewBox="0 0 {width} {height}">'
    ]
    for strand in range(1, w.n + 1):
        path = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in points[strand])
        lines.append(
            f'<polyline fill="none" stroke="black" stroke-width="2" points="{path}"/>'
        )
    if labels:
        for strand in range(1, w.n + 1):
            lines.append(
                f'<text x="2" y="{y(strand) - 3}" font-family="monospace"'
                f' font-size="9">{strand}</text>'
            )
        for tx, ty, text in crossing_texts:
            lines.append(
                f'<text x="{_fmt(tx)}" y="{_fmt(ty)}" font-family="monospace"'
                f' font-size="9" text-anchor="middle">{text}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# The cactus re-spelling as it was when it kept a strand -> position list:
# where[s] is the position of strand s, a span is the least and greatest
# position of a letter's strands, and crossing a block moves each of its
# strands to the mirror position; names prefixed with where_ or _where_,
# bodies verbatim.


def _where_strands(mask: int) -> list[int]:
    """The strands in a label mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _where_span(strands: list[int], where: list[int]) -> tuple[int, int]:
    """The block p..q that the strands occupy, strand s at position where[s]."""
    positions = [where[s] for s in strands]
    p, q = min(positions), max(positions)
    assert q - p + 1 == len(strands), f"labels {strands} are not one block"
    return p, q


def where_reduced_spans(w: CactusWord) -> Iterator[tuple[int, int]]:
    """The spans (p, q) of the letters of reduce(w), lazily, after one push
    of the reading.  Each Gauss letter, given by its label mask, is spelled
    as the block its strands occupy and crossed before the next is spelled:
    where[s] is the position of strand s, and crossing a block p..q moves
    each of its strands to the mirror position."""
    where = list(range(w.n + 1))
    for mask in cactus._push_reading(w.letters, cactus._bits(w.n), []):
        strands = _where_strands(mask)
        p, q = _where_span(strands, where)
        yield p, q
        for s in strands:
            where[s] = p + q - where[s]


def where_reduce(w: CactusWord) -> CactusWord:
    return CactusWord(w.n, tuple(CactusLetter(p, q) for p, q in where_reduced_spans(w)))


def where_is_member(w: CactusWord, c: IntervalCollection) -> bool:
    return all(span in c.intervals for span in where_reduced_spans(w))


def where_canonical(w: CactusWord) -> CactusWord:
    """Canonical representative: greedily emit the least letter (in (p, q)
    order) that exchange moves can bring to the front, one Kahn pass over
    racg.reduction_dag with each source's strands and span kept in a tuple
    led by the span."""
    reduced = cactus._push_reading(w.letters, cactus._bits(w.n), [])
    successors, blockers = racg.reduction_dag(reduced)
    where = list(range(w.n + 1))
    sources = []  # (p, q, j, strands of reduced[j]) per source j
    for j, count in enumerate(blockers):
        if not count:
            strands = _where_strands(reduced[j])
            sources.append((*_where_span(strands, where), j, strands))
    spelled: dict[tuple[int, int], CactusLetter] = {}
    out = []
    while sources:
        p, q, best, strands = min(sources)
        x = reduced[best]
        sources = [(p + q - b, p + q - a, j, s) if reduced[j] | x == x else (a, b, j, s)
                   for a, b, j, s in sources if j != best]
        out.append(spelled.get((p, q)) or spelled.setdefault((p, q), CactusLetter(p, q)))
        for s in strands:
            where[s] = p + q - where[s]
        for j in successors[best]:
            blockers[j] -= 1
            if not blockers[j]:
                strands = _where_strands(reduced[j])
                sources.append((*_where_span(strands, where), j, strands))
    return CactusWord(w.n, tuple(out))


# The tiny-word kernels as they were when the walk above was a generator of
# (letter, block) pairs: the push that indexed its backward scan, the reading
# and re-spelling on them, the canonical form whose Kahn sources were a dict
# keyed by index over a strands table of every distinct mask, the order that
# built a Permutation, with the cycle loop of Permutation.order, and the
# render that appended three strings per strand at each crossing; names
# prefixed with gen_, bodies verbatim but for calling this file's copies of
# the helpers, with reduce and membership read from gen_reduced_spans.


def gen_push_masks(out: list[int], masks: Iterable[int]) -> list[int]:
    """Append masks one at a time to a reduced word, keeping it reduced."""
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


# The reading kernel as it was before the walk read each block as it went:
# the walk that kept every crossed block and wrote back a reversed copy, and
# the push that scanned back with a reversed() iterator; bodies verbatim,
# renamed.


def block_walk(letters: Iterable[CactusLetter], labels: list[int]) -> list[list[int]]:
    """The diagram walk.  labels[pos - 1] labels the strand at position pos;
    for each letter, record the block of labels at positions p..q and reverse
    it in place.  Returns the blocks; labels ends as the final label state."""
    blocks = []
    for letter in letters:
        block = labels[letter.p - 1 : letter.q]
        blocks.append(block)
        labels[letter.p - 1 : letter.q] = block[::-1]
    return blocks


def reversed_push_masks(out: list[int], masks: Iterable[int]) -> list[int]:
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
        for other in reversed(out):
            i -= 1
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


def _gen_bits(n: int) -> list[int]:
    return [1 << s for s in range(1, n + 1)]  # the start state, strand s labelled 2**s


def _gen_push_reading(letters: Iterable[CactusLetter], labels: list[int],
                      reduced: list[int]) -> list[int]:
    """Push the Gauss letters that `letters` read from a label state of bits,
    as label masks, onto a reduced word and return it."""
    return gen_push_masks(reduced, [sum(block) for _, block in walk(letters, labels)])


def gen_reduced_spans(w: CactusWord) -> Iterator[tuple[int, int]]:
    """The spans (p, q) of the letters of reduce(w), lazily, after one push
    of the reading."""
    where = list(range(w.n + 1))
    for mask in _gen_push_reading(w.letters, _gen_bits(w.n), []):
        strands = _key_strands(mask)
        p, q = _object_span(strands, where)
        yield p, q
        for s in strands:
            where[s] = p + q - where[s]


def gen_reduce(w: CactusWord) -> CactusWord:
    return CactusWord(w.n, tuple(CactusLetter(p, q) for p, q in gen_reduced_spans(w)))


def gen_is_member(w: CactusWord, c: IntervalCollection) -> bool:
    return all(span in c.intervals for span in gen_reduced_spans(w))


def gen_canonical(w: CactusWord) -> CactusWord:
    """Canonical representative: one Kahn pass over the reduction DAG of the
    reduced reading, each source's span kept in a dict keyed by its index."""
    reduced = _gen_push_reading(w.letters, _gen_bits(w.n), [])
    successors, blockers = generic_reduction_dag(reduced, generic_masks_commute)
    where = list(range(w.n + 1))
    strands = {mask: _key_strands(mask) for mask in set(reduced)}
    spelled: dict[tuple[int, int], CactusLetter] = {}
    sources = {j: _object_span(strands[reduced[j]], where)
               for j, count in enumerate(blockers) if not count}
    out = []
    while sources:
        best = min(sources, key=sources.__getitem__)
        p, q = span = sources.pop(best)
        x = reduced[best]
        for j, (a, b) in sources.items():
            if reduced[j] | x == x:
                sources[j] = (p + q - b, p + q - a)
        out.append(spelled.get(span) or spelled.setdefault(span, CactusLetter(p, q)))
        for s in strands[x]:
            where[s] = p + q - where[s]
        for j in successors[best]:
            blockers[j] -= 1
            if not blockers[j]:
                sources[j] = _object_span(strands[reduced[j]], where)
    return CactusWord(w.n, tuple(out))


def gen_permutation_order(perm: Permutation) -> int:
    """Multiplicative order, the lcm of the cycle lengths."""
    result = 1
    seen = [False] * perm.n
    for start in range(1, perm.n + 1):
        if seen[start - 1]:
            continue
        length = 0
        i = start
        while not seen[i - 1]:
            seen[i - 1] = True
            i = perm.images[i - 1]
            length += 1
        result = result * length // math.gcd(result, length)
    return result


def gen_order(c: CactusWord, bound: int = 64) -> int | None:
    """Smallest k <= bound with c^k trivial, or None if there is none: m,
    the order of the strand permutation read from the label state, if c^m
    is trivial."""
    if bound < 1:
        raise ValueError(f"need bound >= 1, got {bound}")
    labels = _gen_bits(c.n)
    reduced = _gen_push_reading(c.letters, labels, [])
    m = gen_permutation_order(Permutation(tuple(x.bit_length() - 1 for x in labels)))
    if m > bound:
        return None
    for _ in range(m - 1):
        _gen_push_reading(c.letters, labels, reduced)
    return None if reduced else m


def gen_render_svg(w: CactusWord, labels: bool = False) -> str:
    """Render a word as SVG text; one polyline per strand."""
    width = 2 * MARGIN + COLUMN * len(w.letters)
    height = 2 * MARGIN + TRACK * (w.n - 1) + (18 if labels and w.letters else 0)
    y = [MARGIN + TRACK * (pos - 1) for pos in range(w.n + 1)]  # y[pos] of track pos
    strands = range(1, w.n + 1)
    tracks = list(strands)  # tracks[pos - 1] = strand on that track
    points = [[f"0,{y[strand]}"] for strand in range(w.n + 1)]  # "x,y" per strand
    texts = []
    x = MARGIN
    for letter, block in walk(w.letters, tracks):
        p, q = letter.p, letter.q
        middle = f"{x + COLUMN // 2},{(y[p] + y[q]) // 2}"
        for pos, strand in enumerate(block, start=p):
            points[strand] += (f"{x},{y[pos]}", middle, f"{x + COLUMN},{y[p + q - pos]}")
        if labels:
            text = ",".join(map(str, sorted(block)))
            texts.append(f'<text x="{x + COLUMN // 2}" y="{height - 4}" font-family="monospace"'
                         f' font-size="9" text-anchor="middle">{{{text}}}</text>')
        x += COLUMN
    for pos, strand in enumerate(tracks, start=1):
        points[strand].append(f"{width},{y[pos]}")

    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}"'
             f' viewBox="0 0 {width} {height}">']
    lines += (f'<polyline fill="none" stroke="black" stroke-width="2"'
              f' points="{" ".join(points[strand])}"/>' for strand in strands)
    if labels:
        lines += (f'<text x="2" y="{y[strand] - 3}" font-family="monospace"'
                  f' font-size="9">{strand}</text>' for strand in strands)
        lines += texts
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


class _Descending:
    """Wrapper reversing the comparison order of its key."""

    __slots__ = ("key",)

    def __init__(self, key: tuple):
        self.key = key

    def __lt__(self, other: _Descending) -> bool:
        return other.key < self.key

    def __eq__(self, other) -> bool:
        return isinstance(other, _Descending) and self.key == other.key


def cyclic_reduce(w: SignedWord) -> SignedWord:
    """Free reduction, also cancelling across the ends.

    >>> cyclic_reduce((('x', -1), ('y', 1), ('x', 1)))
    (('y', 1),)
    """
    word = list(free_reduce(w))
    while len(word) >= 2 and word[0][0] == word[-1][0] and word[0][1] == -word[-1][1]:
        word = word[1:-1]
    return tuple(word)


def _substitute(w: SignedWord, name: str, replacement: SignedWord) -> SignedWord:
    inverse = invert_word(replacement)
    out: list[tuple[str, int]] = []
    for letter in w:
        if letter == (name, 1):
            out.extend(replacement)
        elif letter == (name, -1):
            out.extend(inverse)
        else:
            out.append(letter)
    return free_reduce(tuple(out))


def _cleanup(p: Presentation) -> Presentation:
    relators = []
    seen = set()
    for rel in p.relators:
        reduced = cyclic_reduce(rel)
        if not reduced:
            continue
        key = _relator_key(reduced)
        if key not in seen:
            seen.add(key)
            relators.append(reduced)
    return Presentation(p.generators, tuple(relators))


def tietze_step(p: Presentation) -> Presentation | None:
    """One generator elimination, or None when no relator offers one.

    Any generator occurring exactly once in some relator can be solved for
    and substituted away.  Among the eligible (generator, relator) pairs the
    one minimizing the total presentation length afterwards is applied; ties
    prefer a shorter pivot relator, then eliminate the generator latest in
    name order (digit runs compared numerically, so earlier names survive),
    then the earliest relator.  The input is cleaned up (cyclic reduction,
    duplicate relators dropped) before searching.
    """
    p = _cleanup(p)
    best = None
    for ri, name in _solvable(p):
        rel = p.relators[ri]
        pos = next(i for i, (g, _) in enumerate(rel) if g == name)
        before, after = rel[:pos], rel[pos + 1 :]
        if rel[pos][1] == 1:
            replacement = free_reduce(invert_word(before) + invert_word(after))
        else:
            replacement = free_reduce(after + before)
        total = 0
        new_relators = []
        for rj, other in enumerate(p.relators):
            if rj == ri:
                continue
            substituted = cyclic_reduce(_substitute(other, name, replacement))
            new_relators.append(substituted)
            total += len(substituted)
        candidate = ((total, len(rel), _Descending(_natural_key(name)), ri),
                     name, new_relators)
        if best is None or candidate[0] < best[0]:
            best = candidate
    if best is None:
        return None
    _, name, new_relators = best
    generators = tuple(g for g in p.generators if g != name)
    return _cleanup(Presentation(generators, tuple(new_relators)))


def tietze_simplify(p: Presentation, budget: int = 1000) -> SimplifiedPresentation:
    """Eliminate generators until a fixpoint or the step budget runs out.

    Only removals are performed (no generator additions), so the process
    terminates; the resulting presentation defines the same group.

    >>> p = Presentation(('x', 'y'), ((('y', 1), ('x', -1)),))
    >>> r = tietze_simplify(p)
    >>> r.presentation.generators, r.presentation.relators
    (('x',), ())
    """
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    current = _cleanup(p)
    steps = 0
    while steps < budget:
        next_p = tietze_step(current)
        if next_p is None:
            return SimplifiedPresentation(current, steps, False)
        current = next_p
        steps += 1
    exhausted = next(_solvable(current), None) is not None
    return SimplifiedPresentation(current, steps, exhausted)


def _relator_key(w: SignedWord) -> SignedWord:
    """Least rotation of the relator or its inverse; relators equal up to
    cyclic rotation and inversion share one key."""
    candidates = []
    for base in (w, invert_word(w)):
        for k in range(max(1, len(base))):
            candidates.append(base[k:] + base[:k])
    return min(candidates)


def _natural_key(name: str) -> tuple:
    """Name order with digit runs compared numerically, so g9 < g10."""
    runs = []
    for is_digit, group in itertools.groupby(name, str.isdigit):
        text = "".join(group)
        runs.append((1, int(text)) if is_digit else (0, text))
    return tuple(runs)


def _solvable(p: Presentation):
    """(relator index, generator) pairs where the generator occurs exactly once
    in the relator, so the relator can be solved for it."""
    for ri, rel in enumerate(p.relators):
        for name, count in Counter(name for name, _ in rel).items():
            if count == 1:
                yield ri, name


# The indexed Tietze step and its loop as they were before the loop kept its
# state between steps; names prefixed with indexed_, bodies verbatim.


def _indexed_substitute(
    w: SignedWord, name: str, replacement: SignedWord, inverse: SignedWord
) -> list[tuple[str, int]]:
    """w with name^1 spelled as replacement and name^-1 as its inverse,
    unreduced: callers reduce once, cyclically."""
    out: list[tuple[str, int]] = []
    for letter in w:
        if letter[0] != name:
            out.append(letter)
        else:
            out.extend(replacement if letter[1] == 1 else inverse)
    return out


def _indexed_classes(relators) -> dict[SignedWord, SignedWord]:
    """The non-empty cyclic reductions of the relators, first of each class up
    to rotation and inversion, keyed by _relator_key, in input order."""
    classes: dict[SignedWord, SignedWord] = {}
    for rel in relators:
        reduced = cyclic_reduce(rel)
        if reduced:
            classes.setdefault(_relator_key(reduced), reduced)
    return classes


def _indexed_cleanup(p: Presentation) -> Presentation:
    return Presentation(p.generators, tuple(_indexed_classes(p.relators).values()))


def _indexed_solution(rel: SignedWord, name: str) -> tuple[SignedWord, SignedWord]:
    """The words that a generator occurring once in a relator and its
    inverse equal by it, reduced."""
    pos = next(i for i, (g, _) in enumerate(rel) if g == name)
    word = free_reduce(rel[pos + 1 :] + rel[:pos])
    return (invert_word(word), word) if rel[pos][1] == 1 else (word, invert_word(word))


def indexed_tietze_step(p: Presentation) -> Presentation | None:
    """One generator elimination, or None when no relator offers one.

    Any generator occurring exactly once in some relator can be solved for
    and substituted away.  Among the eligible (generator, relator) pairs the
    one minimizing the total presentation length afterwards is applied; ties
    prefer a shorter pivot relator, then eliminate the generator latest in
    name order (digit runs compared numerically, so earlier names survive),
    then the earliest relator.  The input is cleaned up (cyclic reduction,
    duplicate relators dropped) before searching, and so is the result.

    The search reads an occurrence index, the relators containing each
    generator.  Clean relators are cyclically reduced, so substituting into
    one that lacks the generator leaves it unchanged: a candidate's total is
    the current one less its pivot relator plus the length change of the
    indexed relators, and only the winner's relators are rewritten.  The
    result's cleanup computes class keys for those rewritten relators only.
    """
    classes = _indexed_classes(p.relators)
    p = Presentation(p.generators, tuple(classes.values()))
    occurs: dict[str, list[int]] = {}
    for ri, rel in enumerate(p.relators):
        for name in dict.fromkeys(name for name, _ in rel):
            occurs.setdefault(name, []).append(ri)
    size = sum(map(len, p.relators))
    natural = {name: _natural_key(name) for name in occurs}
    rank = {key: i for i, key in enumerate(sorted(set(natural.values())))}
    best = None
    for ri, name in _solvable(p):
        rel = p.relators[ri]
        replacement, inverse = _indexed_solution(rel, name)
        total = size - len(rel)
        for rj in occurs[name]:
            if rj != ri:
                other = p.relators[rj]
                substituted = cyclic_reduce(_indexed_substitute(other, name, replacement, inverse))
                total += len(substituted) - len(other)
        key = (total, len(rel), -rank[natural[name]], ri)
        if best is None or key < best[0]:
            best = (key, name, replacement, inverse)
    if best is None:
        return None
    (_, _, _, ri), name, replacement, inverse = best
    touched = set(occurs[name])
    keys = list(classes)
    result: dict[SignedWord, SignedWord] = {}
    for rj, rel in enumerate(p.relators):
        if rj == ri:
            continue
        if rj in touched:
            rel = cyclic_reduce(_indexed_substitute(rel, name, replacement, inverse))
            if rel:
                result.setdefault(_relator_key(rel), rel)
        else:
            result.setdefault(keys[rj], rel)
    generators = tuple(g for g in p.generators if g != name)
    return Presentation(generators, tuple(result.values()))


def indexed_tietze_simplify(p: Presentation, budget: int = 1000) -> SimplifiedPresentation:
    """Eliminate generators until a fixpoint or the step budget runs out.

    Only removals are performed (no generator additions), so the process
    terminates; the resulting presentation defines the same group.

    >>> p = Presentation(('x', 'y'), ((('y', 1), ('x', -1)),))
    >>> r = indexed_tietze_simplify(p)
    >>> r.presentation.generators, r.presentation.relators
    (('x',), ())
    """
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    current, steps = p, 0
    while steps < budget:
        next_p = indexed_tietze_step(current)
        if next_p is None:
            break
        current, steps = next_p, steps + 1
    if steps == 0:
        # tietze_step cleans its result, so only an input never stepped on
        # needs cleaning here
        current = _indexed_cleanup(p)
    exhausted = steps == budget and next(_solvable(current), None) is not None
    return SimplifiedPresentation(current, steps, exhausted)


# The stateful Tietze loop as it was when every candidate kept the length
# change of each relator it rewrites, subtracted and re-costed after every
# step, and the class key built every rotation; names prefixed with costed_
# or Costed, bodies verbatim.


def _costed_substitute(w: IndexWord, g: int, replacement: IndexWord, inverse: IndexWord) -> IndexWord:
    """w with g spelled as replacement and -g as inverse, cyclically reduced."""
    out: list[int] = []
    for x in w:
        if x == g:
            spelled = replacement
        elif x == -g:
            spelled = inverse
        elif out and out[-1] == -x:
            out.pop()
            continue
        else:
            out.append(x)
            continue
        for y in spelled:
            if out and out[-1] == -y:
                out.pop()
            else:
                out.append(y)
    i, j = 0, len(out)
    while j - i >= 2 and out[i] == -out[j - 1]:
        i, j = i + 1, j - 1
    return tuple(out[i:j])


def costed_class_key(w: IndexWord) -> IndexWord:
    """Least rotation of the relator or its inverse; relators equal up to
    cyclic rotation and inversion share one key."""
    inverse = tuple(-x for x in reversed(w))
    return min(base[k:] + base[:k] for base in (w, inverse) for k in range(len(base)))


def _costed_solution(rel: IndexWord, pos: int) -> tuple[IndexWord, IndexWord]:
    """The words that the generator at rel[pos], occurring once in the
    cyclically reduced relator rel, and its inverse equal by it.  The rest of
    rel read from pos + 1 is a cyclic subword, so it is already reduced."""
    word = rel[pos + 1 :] + rel[:pos]
    inverse = tuple(-x for x in reversed(word))
    return (inverse, word) if rel[pos] > 0 else (word, inverse)


class CostedTietze:
    """The state of one greedy elimination loop, kept between its steps.

    Relators are index words under ids that follow their position, cyclically
    reduced, one per class up to rotation and inversion.  Besides them the
    loop keeps each relator's class key, the occurrence index (generator ->
    ids of the relators containing it) and every candidate, a (pivot
    relator, generator) pair with the generator occurring once in the pivot.
    A candidate's total is the presentation length after it is applied.  A
    relator lacking the generator is unchanged by it, so the total is the
    pivot's length removed plus the length change of each indexed relator,
    and each candidate keeps those changes.  After a step, the relators it
    rewrote or dropped are the only ones whose changes are computed again,
    for the candidates of the generators they contained; a rewritten pivot
    is costed afresh.  The keys live in a heap whose outdated entries are
    skipped when they surface.
    """

    def __init__(self, p: Presentation):
        self.names = p.generators
        natural = [_natural_key(name) for name in p.generators]
        order = {key: r for r, key in enumerate(sorted(set(natural)))}
        # rank[g]: the place of generator g in name order, equal names tied
        self.rank = [0] + [order[key] for key in natural]
        self.relators: dict[int, IndexWord] = {}
        self.keys: dict[int, IndexWord] = {}
        self.owner: dict[IndexWord, int] = {}  # class key -> id of its relator
        self.occurs: dict[int, set[int]] = {g: set() for g in range(1, len(natural) + 1)}
        # generator -> pivot id -> (key, {relator id: its length change})
        self.costs: dict[int, dict[int, tuple[tuple, dict[int, int]]]] = {}
        self.heap: list[tuple[tuple, int]] = []
        index = {name: g for g, name in enumerate(p.generators, start=1)}
        for rid, rel in enumerate(p.relators):
            w = tuple(index[name] * sign for name, sign in cyclic_reduce(rel))
            key = costed_class_key(w) if w else None
            if w and key not in self.owner:
                self._add(rid, w, key)
        for g, ids in self.occurs.items():
            self._cost(g, ids)

    def _add(self, rid: int, w: IndexWord, key: IndexWord) -> None:
        self.relators[rid] = w
        self.keys[rid] = key
        self.owner[key] = rid
        for g in set(map(abs, w)):
            self.occurs[g].add(rid)

    def _drop(self, rid: int) -> IndexWord:
        w = self.relators.pop(rid)
        del self.owner[self.keys.pop(rid)]
        for g in set(map(abs, w)):
            self.occurs[g].discard(rid)
        return w

    def _cost(self, g: int, changed: set[int]) -> None:
        """Key every candidate elimination of g: (total less the current
        length, pivot length, -name rank, pivot id, position of g in the
        pivot).  changed holds the ids of the relators containing g that were
        rewritten or dropped since g was last costed; only they are
        substituted into again, and only they can gain or lose a candidate."""
        old = self.costs.get(g, {})
        costs = {}
        occurs = self.occurs[g]
        redo = [rj for rj in changed if rj in occurs]
        for rid, (key, deltas) in old.items():
            if rid in changed:
                continue
            total = key[0] - sum(deltas.pop(rj, 0) for rj in changed)
            if redo:
                replacement, inverse = _costed_solution(self.relators[rid], key[4])
                total += self._deltas(g, replacement, inverse, redo, deltas)
            costs[rid] = ((total, *key[1:]), deltas)
            if total != key[0]:
                heapq.heappush(self.heap, (costs[rid][0], g))
        for rid in redo:
            rel = self.relators[rid]
            if rel.count(g) + rel.count(-g) != 1:
                continue
            pos = rel.index(g) if g in rel else rel.index(-g)
            replacement, inverse = _costed_solution(rel, pos)
            deltas = {}
            others = [rj for rj in occurs if rj != rid]
            total = self._deltas(g, replacement, inverse, others, deltas) - len(rel)
            key = (total, len(rel), -self.rank[g], rid, pos)
            costs[rid] = (key, deltas)
            heapq.heappush(self.heap, (key, g))
        if costs:
            self.costs[g] = costs
        else:
            self.costs.pop(g, None)

    def _deltas(self, g, replacement, inverse, ids, deltas: dict[int, int]) -> int:
        """Record in deltas the length change of each relator in ids when g
        is substituted away; return their sum.

        The common case needs no substitution.  Say g^e occurs once in a
        relator w of length >= 2, at position i, and its spelling S is not
        empty.  w with S in place of w[i] is A S B, where A = w[:i] and
        B = w[i + 1:].  A, B and S are reduced: the first two are subwords
        of the cyclically reduced w, and S or its inverse is a cyclic
        subword of the cyclically reduced pivot.  If w[i - 1] (cyclically) does not cancel
        against S[0], nor S[-1] against w[i + 1], then both joins are
        reduced, and so are the cyclic ends: they are those of w when i is
        inside w, and one of the two joins when i is at an end.  So A S B is
        _substitute's result, and the change is len(S) - 1.  Every other
        case is substituted.
        """
        total = 0
        size = len(replacement)
        for rj in ids:
            other = self.relators[rj]
            n = len(other)
            delta = None
            if size and n >= 2 and other.count(g) + other.count(-g) == 1:
                i = other.index(g) if g in other else other.index(-g)
                spelled = replacement if other[i] == g else inverse
                if other[i - 1] != -spelled[0] and spelled[-1] != -other[(i + 1) % n]:
                    delta = size - 1
            if delta is None:
                delta = len(_costed_substitute(other, g, replacement, inverse)) - n
            deltas[rj] = delta
            total += delta
        return total

    def _live(self, key: tuple, g: int) -> bool:
        """Whether a heap entry is the current key of its candidate."""
        entry = self.costs.get(g, {}).get(key[3])
        return entry is not None and entry[0] == key

    def step(self) -> bool:
        """Apply the least candidate; False when there is none."""
        heap = self.heap
        while heap and not self._live(*heap[0]):
            heapq.heappop(heap)
        if not heap:
            return False
        (_, _, _, rid, pos), g = heapq.heappop(heap)
        # generator -> ids of the relators containing it that change
        changed: dict[int, set[int]] = {}

        def touch(rj: int, w: IndexWord) -> None:
            for x in w:
                changed.setdefault(abs(x), set()).add(rj)

        pivot = self._drop(rid)
        touch(rid, pivot)
        replacement, inverse = _costed_solution(pivot, pos)
        rewritten = sorted(self.occurs[g])
        olds = [self._drop(rj) for rj in rewritten]
        del self.occurs[g], self.costs[g]
        for rj, old in zip(rewritten, olds):
            touch(rj, old)
            new = _costed_substitute(old, g, replacement, inverse)
            if not new:
                continue
            key = costed_class_key(new)
            holder = self.owner.get(key)
            if holder is not None and holder < rj:
                continue
            if holder is not None:
                touch(holder, self._drop(holder))
            self._add(rj, new, key)
            touch(rj, new)
        del changed[g]
        for h, ids in changed.items():
            self._cost(h, ids)
        return True

    def presentation(self) -> Presentation:
        names = self.names
        generators = tuple(name for g, name in enumerate(names, start=1) if g in self.occurs)
        relators = tuple(
            tuple((names[abs(x) - 1], 1 if x > 0 else -1) for x in self.relators[rid])
            for rid in sorted(self.relators)
        )
        return Presentation(generators, relators)


def costed_tietze_simplify(p: Presentation, budget: int = 1000) -> SimplifiedPresentation:
    """tietze_simplify on CostedTietze's loop."""
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    state = CostedTietze(p)
    steps = 0
    while steps < budget and state.step():
        steps += 1
    exhausted = steps == budget and bool(state.costs)
    return SimplifiedPresentation(state.presentation(), steps, exhausted)


# A relator's read for one generator as the stateful loop derived it on every
# count of that generator, before each relator was read once when stored;
# body verbatim from its count.


def counted_read(w: IndexWord, g: int) -> tuple[int, int, int, int] | None:
    """(length, position of g, left and right neighbour of g read at exponent
    +1) when w holds g once, else None."""
    n = len(w)
    if w.count(g) + w.count(-g) != 1:
        return None
    if g in w:
        i = w.index(g)
        a, b = w[i - 1], w[(i + 1) % n]
    else:
        i = w.index(-g)
        a, b = -w[(i + 1) % n], -w[i - 1]
    return (n, i, a, b)


def smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Nonnegative diagonal of the Smith normal form, d1 | d2 | ... .

    Row/column operations over the integers; matrices here are a handful of
    relators wide, so the textbook pivoting algorithm is plenty.

    >>> smith_diagonal([[0, 2, 2, -2, 2]])
    [2]
    """
    a = [row[:] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if a else 0
    diag: list[int] = []
    t = 0
    while t < min(rows, cols):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        dirty = False
        for i in range(t + 1, rows):
            if a[i][t] % a[t][t] != 0:
                dirty = True
            quotient = a[i][t] // a[t][t]
            for j in range(t, cols):
                a[i][j] -= quotient * a[t][j]
        for j in range(t + 1, cols):
            if a[t][j] % a[t][t] != 0:
                dirty = True
            quotient = a[t][j] // a[t][t]
            for i in range(t, rows):
                a[i][j] -= quotient * a[i][t]
        if dirty or any(a[i][t] for i in range(t + 1, rows)) or any(
            a[t][j] for j in range(t + 1, cols)
        ):
            continue
        diag.append(abs(a[t][t]))
        t += 1
    # Enforce the divisibility chain: diag(a, b) ~ diag(gcd, lcm) over Z.
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[i] and diag[j] % diag[i] != 0:
                g = math.gcd(diag[i], diag[j])
                diag[i], diag[j] = g, diag[i] * diag[j] // g
    return diag


def unit_pivot_smith_diagonal(matrix: list[dict[int, int]]) -> list[int]:
    """smith_diagonal as the package computed it before its single sparse
    loop: unit pivots on {column: value} rows, taken in a shortest row from
    the column with fewest entries, then smith_diagonal above on the dense
    remainder; the rows are consumed.  Body verbatim but for that call."""
    rows = {i: row for i, row in enumerate(matrix) if row}
    where: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            where.setdefault(j, set()).add(i)
    units = 0
    pivoted = True
    while pivoted:
        pivoted = False
        for i in sorted(rows, key=lambda i: len(rows[i])):
            row = rows.get(i, {})
            unit_columns = [j for j, v in row.items() if v in (1, -1)]
            if not unit_columns:
                continue
            j = min(unit_columns, key=lambda j: len(where[j]))
            for k in row:
                where[k].discard(i)
            unit = row.pop(j)
            del rows[i]
            for r in where.pop(j):
                target = rows[r]
                factor = target.pop(j) * unit
                for k, v in row.items():
                    value = target.get(k, 0) - factor * v
                    if value:
                        target[k] = value
                        where[k].add(r)
                    else:
                        del target[k]
                        where[k].discard(r)
                if not target:
                    del rows[r]
            units += 1
            pivoted = True
    columns = sorted(j for j, holders in where.items() if holders)
    return [1] * units + smith_diagonal(
        [[row.get(j, 0) for j in columns] for row in rows.values()]
    )


# The Reidemeister-Schreier transversal and rewriting as they were when they
# walked dicts keyed by generator name, built a Permutation per coset product
# and reduced every a_{k,x} with ambient_reduce; names prefixed with Named or
# named_, bodies verbatim.


class NamedTransversal:
    """Schreier transversal of the kernel of a finite-image homomorphism.

    Coset 0 is the subgroup itself; representatives are the breadth-first
    discovery words (generators tried in declaration order), hence positive
    and prefix-closed.
    """

    def __init__(
        self,
        generators: tuple[str, ...],
        images: Mapping[str, Permutation],
        involutive: frozenset[str] = frozenset(),
    ):
        missing = [g for g in generators if g not in images]
        if missing:
            raise ValueError(f"no image given for generators {missing}")
        sizes = {images[g].n for g in generators}
        if len(sizes) > 1:
            raise ValueError(f"images act on different sets: {sorted(sizes)}")
        self.generators = generators
        self.images = dict(images)
        self.involutive = involutive
        self.reps: list[SignedWord] = [()]
        self.perms: list[Permutation] = [Permutation.identity(sizes.pop() if sizes else 1)]
        self.action: list[dict[str, int]] = [{}]
        index = {self.perms[0]: 0}
        queue = deque([0])
        while queue:
            k = queue.popleft()
            for g in generators:
                target = self.perms[k] * self.images[g]
                t = index.get(target)
                if t is None:
                    t = len(self.reps)
                    index[target] = t
                    self.reps.append(self.reps[k] + ((g, 1),))
                    self.perms.append(target)
                    self.action.append({})
                    queue.append(t)
                self.action[k][g] = t
        self.inverse_action: list[dict[str, int]] = [{} for _ in self.reps]
        for k, row in enumerate(self.action):
            for g, t in row.items():
                self.inverse_action[t][g] = k
        # words[k][g] is a_{k,g} reduced; every reader of the RS generators
        # looks them up here rather than rewriting the ambient word again
        self.words: list[dict[str, SignedWord]] = [
            {g: self.ambient_reduce(self.reps[k] + ((g, 1),) + invert_word(self.reps[t]))
             for g, t in row.items()}
            for k, row in enumerate(self.action)
        ]
        self.word_of_name: dict[str, SignedWord] = {
            self.name(k, g): w for k, row in enumerate(self.words) for g, w in row.items()
        }

    def __len__(self) -> int:
        return len(self.reps)

    def ambient_reduce(self, w: SignedWord) -> SignedWord:
        """Reduced form in the ambient free product: involutive generators are
        spelled positively and cancel in equal adjacent pairs; the rest cancel
        only against their inverses."""
        out: list[tuple[str, int]] = []
        for name, sign in w:
            if name in self.involutive:
                sign = 1
                cancels = bool(out) and out[-1] == (name, 1)
            else:
                cancels = bool(out) and out[-1] == (name, -sign)
            if cancels:
                out.pop()
            else:
                out.append((name, sign))
        return tuple(out)

    def rs_word(self, k: int, g: str) -> SignedWord:
        """The kernel element a_{k,g} = (k g)(kg-bar)^-1, reduced."""
        return self.words[k][g]

    def is_trivial(self, k: int, g: str) -> bool:
        return not self.words[k][g]

    def name(self, k: int, g: str) -> str:
        return f"a_k{k + 1}_{g}"


def named_rs_generators(t: NamedTransversal) -> list[RSGenerator]:
    """All non-trivial subgroup generators a_{k,x}, with expanded words."""
    out = []
    for k in range(len(t)):
        for g in t.generators:
            w = t.rs_word(k, g)
            if w:
                out.append(RSGenerator(k, g, t.name(k, g), w))
    return out


def _named_rewrite_from(t: NamedTransversal, k: int, w: SignedWord) -> tuple[SignedWord, int]:
    """Rewrite w walking from coset k: the a_{k,x}-word and the end coset."""
    current = k
    out = []
    for name, sign in w:
        if sign == 1:
            k = current
            current = t.action[current][name]
        else:
            current = t.inverse_action[current][name]
            k = current
        if t.words[k][name]:
            out.append((t.name(k, name), sign))
    return tuple(out), current


def named_rewrite(t: NamedTransversal, w: SignedWord) -> SignedWord:
    """The rewriting function: spell a kernel word in the a_{k,x}.

    Each letter x^e contributes a_{k,x}^e, where k is the coset of the prefix
    before the letter for e = +1 and of the prefix through it for e = -1;
    trivial generators are dropped.  Only meaningful on kernel words, so
    anything else is rejected.
    """
    out, end = _named_rewrite_from(t, 0, w)
    if end != 0:
        raise ValueError("word is not in the kernel")
    return out


def named_rs_relators(p: Presentation, t: NamedTransversal) -> list[SignedWord]:
    """Rewritten conjugated relators tau(k r k^-1), freely reduced, non-empty.

    The transversal is prefix-closed, so every letter of k and of k^-1 crosses
    a transversal edge and rewrites to a trivial generator: tau(k r k^-1) is
    r rewritten from coset k, and it is a kernel word iff r returns to k.
    """
    out = []
    for k in range(len(t)):
        for rel in p.relators:
            rewritten, end = _named_rewrite_from(t, k, rel)
            if end != k:
                raise ValueError("word is not in the kernel")
            rewritten = free_reduce(rewritten)
            if rewritten:
                out.append(rewritten)
    return out


_CACTUS_TERM = re.compile(r"s\(\s*(\d+)\s*,\s*(\d+)\s*\)(?:\^(-?\d+))?")
_GAUSS_TERM = re.compile(r"t\{\s*(\d+(?:\s*,\s*\d+)*)\s*\}")
_SPACE = re.compile(r"\s+")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9.]*")
_REL_TERM = re.compile(r"([A-Za-z_][A-Za-z_0-9.]*)(?:\^(-?\d+))?|1")


def scan_tokens(text: str, term: re.Pattern) -> list[tuple[int, re.Match]]:
    """Tokenize a whitespace-separated word, reporting the first bad offset."""
    matches = []
    pos = 0
    while pos < len(text):
        space = _SPACE.match(text, pos)
        if space:
            pos = space.end()
            continue
        m = term.match(text, pos)
        if m is None:
            raise WordSyntaxError(f"unexpected {text[pos]!r}", pos)
        matches.append((pos, m))
        pos = m.end()
    return matches


def scan_parse_cactus_word(text: str, n: int) -> CactusWord:
    """Parse a cactus word over n strands.

    Generators are involutions: a term with exponent e contributes |e| mod 2
    copies of its letter.
    """
    if n < 2:
        raise BoundsError(f"need n >= 2, got {n}")
    letters = []
    for pos, m in scan_tokens(text, _CACTUS_TERM):
        p, q = int(m.group(1)), int(m.group(2))
        if not 1 <= p < q <= n:
            raise BoundsError(f"s({p},{q}) out of bounds for n={n}")
        exponent = 1 if m.group(3) is None else int(m.group(3))
        letters.extend([CactusLetter(p, q)] * (abs(exponent) % 2))
    return CactusWord(n, tuple(letters))


def scan_parse_gauss_word(text: str, n: int) -> GaussWord:
    """Parse a Gauss word over n strands, e.g. "t{1,2} t{1,3,4}"."""
    if n < 2:
        raise BoundsError(f"need n >= 2, got {n}")
    letters = []
    for pos, m in scan_tokens(text, _GAUSS_TERM):
        labels = tuple(int(x) for x in re.split(r"\s*,\s*", m.group(1)))
        if sorted(set(labels)) != list(labels) or len(labels) < 2:
            raise WordSyntaxError(f"labels must be distinct and ascending: {m.group(0)}", pos)
        if labels[0] < 1 or labels[-1] > n:
            raise BoundsError(f"{m.group(0)} out of bounds for n={n}")
        letters.append(GaussLetter(labels))
    return GaussWord(n, tuple(letters))


def _scan_relator_side(text: str, generators: set[str], offset: int) -> SignedWord:
    letters: list[tuple[str, int]] = []
    for pos, m in scan_tokens(text, _REL_TERM):
        if m.group(0) == "1":
            continue
        name = m.group(1)
        if name not in generators:
            raise WordSyntaxError(f"unknown generator {name!r}", offset + pos)
        digits = m.group(2) or "1"
        magnitude = digits.lstrip("-").lstrip("0")
        if len(magnitude) > len(str(MAX_EXPONENT)) or int(magnitude or 0) > MAX_EXPONENT:
            raise WordSyntaxError(
                f"exponent of {m.group(0)!r} exceeds {MAX_EXPONENT} in absolute value", offset + pos
            )
        exponent = int(digits)
        sign = 1 if exponent >= 0 else -1
        letters.extend([(name, sign)] * abs(exponent))
    return tuple(letters)


def scan_parse_presentation(text: str) -> Presentation:
    """Parse a presentation from the gens:/rels: chunk format."""
    generators: list[str] = []
    relators: list[SignedWord] = []
    offset = 0
    chunks: list[tuple[int, str]] = []
    for raw_line in text.split("\n"):
        line = raw_line.split("#", 1)[0]
        start = offset
        for piece in line.split(";"):
            chunks.append((start, piece))
            start += len(piece) + 1
        offset += len(raw_line) + 1
    for start, chunk in chunks:
        body = chunk.strip()
        if not body:
            continue
        indent = start + chunk.index(body[0])
        if body.startswith("gens:"):
            for name in body[len("gens:") :].split():
                if not _IDENT.fullmatch(name):
                    raise WordSyntaxError(f"bad generator name {name!r}", indent)
                generators.append(name)
        elif body.startswith("rels:"):
            start, sides = indent + len("rels:"), []
            for side in body[len("rels:") :].split("="):
                sides.append(_scan_relator_side(side, set(generators), start))
                start += len(side) + 1
            if len(sides) == 1:
                relators.append(free_reduce(sides[0]))
            else:
                # u1 = u2 = ... = uk: each side equals the last, typically "1".
                last = sides[-1]
                for side in sides[:-1]:
                    relators.append(free_reduce(side + invert_word(last)))
        else:
            raise WordSyntaxError("expected 'gens:' or 'rels:'", indent)
    return Presentation(tuple(generators), tuple(relators))


# The exchange move as it was when it read the interval relations through
# three CactusLetter methods; the methods are functions here, prefixed with
# _predicate_, and the move is predicate_exchange_left, bodies verbatim but
# for calling these functions in place of the methods.


def _predicate_reflect_in(self: CactusLetter, outer: CactusLetter) -> CactusLetter:
    """Mirror this interval across the midpoint of an enclosing one."""
    return CactusLetter(*reflect((self.p, self.q), (outer.p, outer.q)))


def _predicate_nested_in(self: CactusLetter, other: CactusLetter) -> bool:
    return other.p <= self.p and self.q <= other.q


def _predicate_disjoint_from(self: CactusLetter, other: CactusLetter) -> bool:
    return self.q < other.p or other.q < self.p


def predicate_exchange_left(x: CactusLetter, y: CactusLetter) -> tuple[CactusLetter, CactusLetter] | None:
    """Rewrite x.y as y'.x' by one commutation or commutation-conjugation.

    Disjoint intervals commute; a nested interval passes through the enclosing
    one reflected.  Overlapping, non-nested intervals admit no move: the
    result is None.  Equal letters return (x, x); callers that reduce must
    test equality first and annihilate instead.
    """
    if _predicate_disjoint_from(x, y):
        return (y, x)
    if _predicate_nested_in(y, x):
        return (_predicate_reflect_in(y, x), x)
    if _predicate_nested_in(x, y):
        return (y, _predicate_reflect_in(x, y))
    return None


def cancellable_pairs(letters: Sequence[L], commute: CommutationPredicate) -> list[tuple[int, int]]:
    """All pairs (i, j) of equal letters with everything strictly between commuting."""
    pairs = []
    for j, letter in enumerate(letters):
        for i in range(j - 1, -1, -1):
            if letters[i] == letter:
                pairs.append((i, j))
                break
            if not commute(letters[i], letter):
                break
    return pairs


def letter_multiset(letters: Sequence[L], commute: CommutationPredicate) -> Counter:
    """Multiset of letters of a reduction; independent of the reduction order."""
    return Counter(generic_reduce_letters(letters, commute))


def _rotations(w: SignedWord):
    for k in range(max(1, len(w))):
        yield w[k:] + w[:k]


def one_relator_equivalent(a: Presentation, b: Presentation) -> bool:
    """Whether two one-relator presentations differ only by renaming
    generators (possibly onto inverses), rotating the relator, or inverting
    it.  These moves never change the group."""
    if len(a.relators) != 1 or len(b.relators) != 1:
        return False
    if len(a.generators) != len(b.generators):
        return False
    target = set()
    for base in (b.relators[0], invert_word(b.relators[0])):
        target.update(_rotations(base))
    rel = a.relators[0]
    for names in itertools.permutations(b.generators):
        mapping = dict(zip(a.generators, names))
        for signs in itertools.product((1, -1), repeat=len(a.generators)):
            flip = dict(zip(a.generators, signs))
            image = tuple((mapping[g], e * flip[g]) for g, e in rel)
            if image in target:
                return True
    return False
