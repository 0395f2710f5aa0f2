"""
The cactus group J_n: words in the interval-reversal generators s_{p,q},
diagram reading, relation moves, canonical forms, and the decision procedures
built on them.

A word is a braid-like diagram read left to right; each letter crosses the
strands occupying positions p..q at a single point and reverses their order.
Reading the strand labels at each crossing yields a Gauss word, and the
resulting map into the Gauss-diagram group is an injective 1-cocycle.  So the
rewriting happens on the Gauss side only: a cactus is trivial iff its reading
reduces to the empty word, and u = v iff u v^-1 is trivial.  Reduced and
canonical cactus words are re-spellings of the reduced and canonical Gauss
words: replayed from the start, each Gauss letter finds its strands in one
block of positions p..q, is spelled s(p, q) and crosses it, reversing it.
walk reads the diagram once, reversing each crossed block in place, and
keeps only what its caller reads of each block.  The decisions label strand
s by the bit 2**s, so a crossing's label mask is the sum of its block, and
push the masks through racg.push_masks.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Iterator

from . import racg
from .perm import Permutation, cycle_order
from .racg import GaussLetter, GaussWord

Interval = tuple[int, int]


def reflect(inner: Interval, outer: Interval) -> Interval:
    """Mirror a nested interval across the midpoint of its enclosing one."""
    (m, r), (p, q) = inner, outer
    return (p + q - r, p + q - m)


@dataclasses.dataclass(frozen=True, order=True, slots=True)
class CactusLetter:
    """The generator s_{p,q}; it reverses positions p..q (its q-p+1 leaves)."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not 1 <= self.p < self.q:
            raise ValueError(f"need 1 <= p < q, got ({self.p},{self.q})")

    @property
    def leaf(self) -> int:
        return self.q - self.p + 1

    def __str__(self) -> str:
        return f"s({self.p},{self.q})"


@dataclasses.dataclass(frozen=True, slots=True)
class CactusWord:
    """A word in the generators of J_n.  Words multiply by concatenation and,
    all generators being involutions, invert by reversal."""

    n: int
    letters: tuple[CactusLetter, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        for letter in self.letters:
            if letter.q > self.n:
                raise ValueError(f"letter {letter} out of bounds for n={self.n}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other: CactusWord) -> CactusWord:
        if not isinstance(other, CactusWord):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        return CactusWord(self.n, self.letters + other.letters)

    def inverse(self) -> CactusWord:
        return CactusWord(self.n, tuple(reversed(self.letters)))

    def power(self, k: int) -> CactusWord:
        if k < 0:
            return self.inverse().power(-k)
        return CactusWord(self.n, self.letters * k)

    def __str__(self) -> str:
        return " ".join(str(letter) for letter in self.letters)


def word(n: int, pairs: Iterable[tuple[int, int]]) -> CactusWord:
    """Build a word from (p, q) pairs: word(4, [(1, 2), (2, 4)])."""
    return CactusWord(n, tuple(CactusLetter(p, q) for p, q in pairs))


@dataclasses.dataclass(frozen=True, slots=True)
class ReadResult:
    """The two diagram readings of one word: its Gauss word and its strand
    permutation.  The pair is a group morphism into the virtual cactus group;
    the Gauss part alone is an injective 1-cocycle."""

    gauss: GaussWord
    perm: Permutation


def walk(letters: Iterable[CactusLetter], labels: list[int], read: Callable = sum) -> list:
    """The diagram walk.  labels[pos - 1] labels the strand at position pos;
    for each letter, read the block of labels at positions p..q, then reverse
    it in place.  Returns the reads, by default each block's sum, and keeps
    no block; labels ends as the final label state."""
    reads = []
    for letter in letters:
        block = labels[letter.p - 1 : letter.q]
        reads.append(read(block))
        block.reverse()
        labels[letter.p - 1 : letter.q] = block
    return reads


def read_diagram(w: CactusWord) -> ReadResult:
    """Simulate the diagram: at each letter record the labels sitting at
    positions p..q, then reverse that block.

    >>> r = read_diagram(word(4, [(1, 2), (2, 4), (1, 3)]))
    >>> str(r.gauss), str(r.perm)
    ('t{1,2} t{1,3,4} t{2,3,4}', '(4,3,1,2)')
    """
    labels = list(range(1, w.n + 1))
    out = tuple(GaussLetter(tuple(block)) for block in walk(w.letters, labels, sorted))
    return ReadResult(GaussWord(w.n, out), Permutation(tuple(labels)).inverse())


def s_image(w: CactusWord) -> Permutation:
    """The strand permutation of a word (the morphism the diagram induces),
    read from the final label state of the walk alone."""
    labels = list(range(1, w.n + 1))
    walk(w.letters, labels, len)
    return Permutation(tuple(labels)).inverse()


def exchange_left(x: CactusLetter, y: CactusLetter) -> tuple[CactusLetter, CactusLetter] | None:
    """Rewrite x.y as y'.x' by one commutation or commutation-conjugation.

    Disjoint intervals commute; a nested interval passes through the enclosing
    one reflected.  Overlapping, non-nested intervals admit no move: the
    result is None.  Equal letters return (x, x); callers that reduce must
    test equality first and annihilate instead.

    >>> exchange_left(CactusLetter(1, 4), CactusLetter(1, 2))
    (CactusLetter(p=3, q=4), CactusLetter(p=1, q=4))
    >>> exchange_left(CactusLetter(1, 3), CactusLetter(2, 4)) is None
    True
    """
    (a, b), (c, d) = (x.p, x.q), (y.p, y.q)
    if b < c or d < a:
        return (y, x)
    if a <= c and d <= b:
        return (CactusLetter(*reflect((c, d), (a, b))), x)
    if c <= a and b <= d:
        return (y, CactusLetter(*reflect((a, b), (c, d))))
    return None


def _span(labels: list[int], mask: int) -> tuple[int, int]:
    """The block p..q of a label mask in labels, labels[0] = 0: one scan in C
    finds its lowest bit, and the block runs left while the bits are the mask's."""
    p = labels.index(mask & -mask)
    while labels[p - 1] & mask:
        p -= 1
    q = p + mask.bit_count() - 1
    assert sum(labels[p : q + 1]) == mask, f"label mask {mask} is not one block"
    return p, q


def _bits(n: int) -> list[int]:
    return [1 << s for s in range(1, n + 1)]  # the start state, strand s labelled 2**s


def _push_reading(letters: Iterable[CactusLetter], labels: list[int],
                  reduced: list[int]) -> list[int]:
    """Push the Gauss letters that `letters` read from a label state of bits,
    as label masks, onto a reduced word and return it."""
    return racg.push_masks(reduced, walk(letters, labels))


def reduced_spans(w: CactusWord) -> Iterator[tuple[int, int]]:
    """The spans (p, q) of the letters of reduce(w), lazily, after one push
    of the reading.  Each Gauss letter, given by its label mask, is spelled
    as the block its strands occupy in the label state and crossed, by
    reversing that block, before the next is spelled."""
    labels = [0, *_bits(w.n)]
    for mask in _push_reading(w.letters, _bits(w.n), []):
        p, q = _span(labels, mask)
        yield p, q
        labels[p : q + 1] = labels[q : p - 1 : -1]


def reduce(w: CactusWord) -> CactusWord:
    """An irreducible word for the same cactus; empty iff the cactus is trivial.

    The reading is reduced on the Gauss side, each cancellation being the
    bigon killing that exchange moves bring together, and re-spelled.  The
    length of the result is the geodesic length of the element.

    >>> str(reduce(word(4, [(1, 4), (1, 2), (1, 4), (3, 4)])))
    ''
    """
    return CactusWord(w.n, tuple(CactusLetter(p, q) for p, q in reduced_spans(w)))


def canonical(w: CactusWord) -> CactusWord:
    """Canonical representative: greedily emit the least letter (in (p, q)
    order) that exchange moves can bring to the front.

    The letters that can reach the front are the sources of the reduced
    reading in racg.least_linearization, keyed by their distinct spans, each
    found once under the label state, which each emitted letter reverses.
    So two words are equal iff their canonical forms coincide letterwise.  A
    remaining source commutes with the emitted letter: it is disjoint from
    it (its strands stay put), contains it (its span kept) or is nested in
    it (its span reflected).

    >>> str(canonical(word(4, [(3, 4), (1, 2)])))
    's(1,2) s(3,4)'
    >>> str(canonical(word(4, [(1, 4), (1, 2)])))
    's(1,4) s(1,2)'
    """
    reduced = _push_reading(w.letters, _bits(w.n), [])
    labels = [0, *_bits(w.n)]
    spelled: dict[Interval, CactusLetter] = {}
    out = []
    for span in racg.least_linearization(reduced, lambda j: _span(labels, reduced[j]), reflect):
        p, q = span
        out.append(spelled.get(span) or spelled.setdefault(span, CactusLetter(p, q)))
        labels[p : q + 1] = labels[q : p - 1 : -1]
    return CactusWord(w.n, tuple(out))


def equal(u: CactusWord, v: CactusWord) -> bool:
    """Decide equality in J_n as triviality of u v^-1, by one reduction on
    the Gauss side, where the reading map is injective.

    Only the part of the words that differs is read.  In any group
    p a s = p b s iff a = b, by left and right cancellation, so the longest
    common prefix of the two letter tuples is dropped, then the longest
    common suffix of what is left; the suffix scan stops where the prefix
    ends in the shorter word, so the two never overlap.  Letters compare by
    value, since separately parsed words share no letter objects.

    >>> equal(word(3, [(1, 2), (2, 3), (1, 2)]), word(3, [(2, 3), (1, 2), (2, 3)]))
    False
    >>> equal(word(4, [(1, 4), (1, 2), (1, 4)]), word(4, [(3, 4)]))
    True
    """
    if u.n != v.n:
        raise ValueError(f"size mismatch: {u.n} vs {v.n}")
    a, b = u.letters, v.letters
    short = min(len(a), len(b))
    i = 0
    while i < short and a[i] == b[i]:
        i += 1
    j = 0
    while j < short - i and a[-1 - j] == b[-1 - j]:
        j += 1
    return not _push_reading(a[i : len(a) - j] + b[i : len(b) - j][::-1], _bits(u.n), [])


def is_trivial(w: CactusWord) -> bool:
    return not _push_reading(w.letters, _bits(w.n), [])


def geodesic_length(w: CactusWord) -> int:
    """Minimal length of any word representing the same cactus."""
    return len(reduce(w))


def order(c: CactusWord, bound: int = 64) -> int | None:
    """Smallest k <= bound with c^k trivial, or None if there is none.

    Exact, from the torsion theorem and at most one power.  Let m be the
    order of the strand permutation of c.  If c has finite order d, then m
    divides d, and c^m is pure.  The pure cactus group is torsion-free, as
    the source paper shows; it is also the fundamental group of the real
    moduli space of stable curves, which is aspherical (Davis, Januszkiewicz
    and Scott, Fundamental groups of blow-ups, Adv. Math. 2003).  So c^m, of
    finite order, is trivial and d = m.  The source paper also shows that J_n
    has only even torsion: if c had order 2^a b with b odd and b > 1, then
    c^(2^a) would have odd order b.  So a finite order is a power of two,
    and when m is not one, c has infinite order.  m is read from the label
    state of one walk of c.  If m exceeds the bound or is not a power of
    two, nothing is pushed; otherwise c has finite order iff c^m is trivial,
    which the Gauss side decides, a power being trivial iff its reduced
    reading is empty.  The walk's masks give the first copy and the other
    m - 1 copies are pushed; a power of two that is the order of a
    permutation of n points is one of its cycle lengths, so m <= n.

    >>> order(word(2, [(1, 2)]))
    2
    >>> order(word(4, [(1, 2), (1, 4)]))
    4
    """
    if bound < 1:
        raise ValueError(f"need bound >= 1, got {bound}")
    m, masks, labels = _strand_order(c)
    return None if m > bound else _power_order(c, m, masks, labels)


def _strand_order(c: CactusWord) -> tuple[int, list[int], list[int]]:
    """From one walk of c: m, the walk's label masks and the final label state."""
    labels = _bits(c.n)
    masks = walk(c.letters, labels)
    return cycle_order([x.bit_length() - 1 for x in labels]), masks, labels


def _power_order(c: CactusWord, m: int, masks: list[int], labels: list[int]) -> int | None:
    """order(c) from what _strand_order(c) returned, whatever the bound."""
    if m & (m - 1):
        return None
    reduced = racg.push_masks([], masks)
    for _ in range(m - 1):
        _push_reading(c.letters, labels, reduced)
    return None if reduced else m


def torsion_witness(k: int) -> CactusWord:
    """The word s_{1,2} s_{1,4} ... s_{1,2^k} in J_{2^k}; it has order 2^k.

    >>> str(torsion_witness(2))
    's(1,2) s(1,4)'
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    return word(2**k, [(1, 2**j) for j in range(1, k + 1)])


def is_pure(w: CactusWord) -> bool:
    """A cactus is pure when its strand permutation is the identity."""
    return s_image(w).is_identity()


def commute(u: CactusWord, v: CactusWord) -> bool:
    return equal(u * v, v * u)


def conjugate(g: CactusWord, c: CactusWord) -> CactusWord:
    """g c g^{-1}; the inverse of a word is its reversal."""
    return g * c * g.inverse()


def pad(w: CactusWord, m: int) -> CactusWord:
    """Reinterpret over m >= n strands; the inclusion J_n -> J_m is injective."""
    if m < w.n:
        raise ValueError(f"cannot pad from n={w.n} down to {m}")
    return CactusWord(m, w.letters)


def cocycle_product(u: CactusWord, v: CactusWord) -> ReadResult:
    """Reading of u v assembled from the readings of u and v.

    The Gauss part of v is relabeled through the inverse strand permutation of
    u (a label sits at position i after u iff u sends it there), so the
    reading map satisfies the twisted product rule rather than being a
    morphism.  Must agree with read_diagram(u * v) letter by letter.
    """
    if u.n != v.n:
        raise ValueError(f"size mismatch: {u.n} vs {v.n}")
    ru, rv = read_diagram(u), read_diagram(v)
    inv = ru.perm.inverse()
    relabeled = tuple(GaussLetter(tuple(sorted(inv.apply_set(l.labels)))) for l in rv.gauss.letters)
    return ReadResult(GaussWord(u.n, ru.gauss.letters + relabeled), ru.perm * rv.perm)
