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
block of positions p..q and is spelled s(p, q).  The decisions label strand
s by the bit 2**s, so a crossing's label mask is the sum of its block, and
push the masks through racg.push_masks.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable, Iterator

from . import racg
from .perm import Permutation
from .racg import GaussLetter, GaussWord


@dataclasses.dataclass(frozen=True, order=True)
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

    def reflect_in(self, outer: CactusLetter) -> CactusLetter:
        """Mirror this interval across the midpoint of an enclosing one."""
        return CactusLetter(outer.p + outer.q - self.q, outer.p + outer.q - self.p)

    def nested_in(self, other: CactusLetter) -> bool:
        return other.p <= self.p and self.q <= other.q

    def disjoint_from(self, other: CactusLetter) -> bool:
        return self.q < other.p or other.q < self.p

    def __str__(self) -> str:
        return f"s({self.p},{self.q})"


@dataclasses.dataclass(frozen=True)
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


@dataclasses.dataclass(frozen=True)
class ReadResult:
    """The two diagram readings of one word: its Gauss word and its strand
    permutation.  The pair is a group morphism into the virtual cactus group;
    the Gauss part alone is an injective 1-cocycle."""

    gauss: GaussWord
    perm: Permutation


def walk(letters: Iterable[CactusLetter],
         labels: list[int]) -> Iterator[tuple[CactusLetter, list[int]]]:
    """The diagram walk.  labels[pos - 1] labels the strand at position pos;
    for each letter, yield it with the block of labels at positions p..q, then
    reverse that block in place, so labels ends as the final label state."""
    for letter in letters:
        block = labels[letter.p - 1 : letter.q]
        yield letter, block
        labels[letter.p - 1 : letter.q] = block[::-1]


def read_diagram(w: CactusWord) -> ReadResult:
    """Simulate the diagram: at each letter record the labels sitting at
    positions p..q, then reverse that block.

    >>> r = read_diagram(word(4, [(1, 2), (2, 4), (1, 3)]))
    >>> str(r.gauss), str(r.perm)
    ('t{1,2} t{1,3,4} t{2,3,4}', '(4,3,1,2)')
    """
    labels = list(range(1, w.n + 1))
    out = tuple(GaussLetter(tuple(sorted(block))) for _, block in walk(w.letters, labels))
    return ReadResult(GaussWord(w.n, out), Permutation(tuple(labels)).inverse())


def s_image(w: CactusWord) -> Permutation:
    """The strand permutation of a word (the morphism the diagram induces),
    read from the final label state of the walk alone."""
    labels = list(range(1, w.n + 1))
    for _ in walk(w.letters, labels):
        pass
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
    if x.disjoint_from(y):
        return (y, x)
    if y.nested_in(x):
        return (y.reflect_in(x), x)
    if x.nested_in(y):
        return (y, x.reflect_in(y))
    return None


def _strands(mask: int) -> list[int]:
    """The strands in a label mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _span(strands: list[int], where: list[int]) -> tuple[int, int]:
    """The block p..q that the strands occupy, strand s at position where[s]."""
    positions = [where[s] for s in strands]
    p, q = min(positions), max(positions)
    assert q - p + 1 == len(strands), f"labels {strands} are not one block"
    return p, q


def _respell(n: int, masks: Iterable[int], where: list[int]) -> CactusWord:
    """Spell each Gauss letter, given by its label mask, as the interval its
    strands occupy, crossing it before the next is spelled.  where[s] is the
    position of strand s; crossing a block p..q moves each of its strands to
    the mirror position."""
    out = []
    for mask in masks:
        strands = _strands(mask)
        p, q = _span(strands, where)
        out.append(CactusLetter(p, q))
        for s in strands:
            where[s] = p + q - where[s]
    return CactusWord(n, tuple(out))


def _bits(n: int) -> list[int]:
    return [1 << s for s in range(1, n + 1)]  # the start state, strand s labelled 2**s


def _push_reading(letters: Iterable[CactusLetter], labels: list[int],
                  reduced: list[int]) -> list[int]:
    """Push the Gauss letters that `letters` read from a label state of bits,
    as label masks, onto a reduced word and return it."""
    return racg.push_masks(reduced, [sum(block) for _, block in walk(letters, labels)])


def reduce(w: CactusWord) -> CactusWord:
    """An irreducible word for the same cactus; empty iff the cactus is trivial.

    The reading is reduced on the Gauss side, each cancellation being the
    bigon killing that exchange moves bring together, and re-spelled.  The
    length of the result is the geodesic length of the element.

    >>> str(reduce(word(4, [(1, 4), (1, 2), (1, 4), (3, 4)])))
    ''
    """
    reduced = _push_reading(w.letters, _bits(w.n), [])
    return _respell(w.n, reduced, list(range(w.n + 1)))


def canonical(w: CactusWord) -> CactusWord:
    """Canonical representative: greedily emit the least letter (in (p, q)
    order) that exchange moves can bring to the front.

    A letter can reach the front exactly when its Gauss letter is a source of
    the non-commutation DAG of the reduced reading (Kahn's algorithm over
    racg.reduction_dag), and there it is spelled under the current label
    state; the sources have distinct spellings, so the greedy choice is well
    defined and two words represent the same cactus iff their canonical forms
    coincide letterwise.  Each source's span is computed once, when it is
    released, and each letter is built as it is emitted.  Emitting x with
    span (p, q) mirrors x's strands in p..q and moves no other.  Sources are
    joined by no edge, so they commute, and a remaining source y is disjoint
    from x (its strands stay put), contains x (its positions are permuted
    among themselves, its span kept) or is nested in x, when its span (a, b)
    is reflected to (p + q - b, p + q - a).

    >>> str(canonical(word(4, [(3, 4), (1, 2)])))
    's(1,2) s(3,4)'
    >>> str(canonical(word(4, [(1, 4), (1, 2)])))
    's(1,4) s(1,2)'
    """
    reduced = _push_reading(w.letters, _bits(w.n), [])
    successors, blockers = racg.reduction_dag(reduced)
    where = list(range(w.n + 1))
    strands = {mask: _strands(mask) for mask in set(reduced)}
    spelled: dict[tuple[int, int], CactusLetter] = {}
    sources = {j: _span(strands[reduced[j]], where)
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
                sources[j] = _span(strands[reduced[j]], where)
    return CactusWord(w.n, tuple(out))


def equal(u: CactusWord, v: CactusWord) -> bool:
    """Decide equality in J_n as triviality of u v^-1, by one reduction on
    the Gauss side, where the reading map is injective.

    >>> equal(word(3, [(1, 2), (2, 3), (1, 2)]), word(3, [(2, 3), (1, 2), (2, 3)]))
    False
    >>> equal(word(4, [(1, 4), (1, 2), (1, 4)]), word(4, [(3, 4)]))
    True
    """
    if u.n != v.n:
        raise ValueError(f"size mismatch: {u.n} vs {v.n}")
    return not _push_reading(u.letters + v.letters[::-1], _bits(u.n), [])


def is_trivial(w: CactusWord) -> bool:
    return not _push_reading(w.letters, _bits(w.n), [])


def geodesic_length(w: CactusWord) -> int:
    """Minimal length of any word representing the same cactus."""
    return len(reduce(w))


def order(c: CactusWord, bound: int = 64) -> int | None:
    """Smallest k <= bound with c^k trivial, or None if there is none.

    Exact, from one power.  Let m be the order of the strand permutation of
    c.  If c has finite order d, then m divides d, and c^m is pure.  The pure
    cactus group is torsion-free, as the source paper shows; it is also the
    fundamental group of the real moduli space of stable curves, which is
    aspherical (Davis, Januszkiewicz and Scott, Fundamental groups of
    blow-ups, Adv. Math. 2003).  So c^m, of finite order, is trivial and
    d = m: c has finite order iff c^m is trivial, which the Gauss side
    decides, a power being trivial iff its reduced reading is empty.  m is
    read from the label state that pushing c leaves, then the other m - 1
    copies are pushed; m can be as large as Landau's function of n, so the
    bound guards them.

    >>> order(word(2, [(1, 2)]))
    2
    >>> order(word(4, [(1, 2), (1, 4)]))
    4
    """
    if bound < 1:
        raise ValueError(f"need bound >= 1, got {bound}")
    labels = _bits(c.n)
    reduced = _push_reading(c.letters, labels, [])
    m = Permutation(tuple(x.bit_length() - 1 for x in labels)).order()
    if m > bound:
        return None
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
