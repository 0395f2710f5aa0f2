"""
Finitely presented groups: free reduction, Tietze simplification,
abelianization via integer Smith normal form, and the builtin presentations
the package ships with (the 2- and 3-generator cactus groups on leftmost
generators, and the target one-relator presentation of the first non-abelian
pure cactus group).

Relator words live in a free group: letters are (generator, +-1) pairs and no
involutivity is assumed.  free_reduce can also treat given generators as
involutions, as the ambient words of Reidemeister-Schreier need.

Both simplifications are sized for Reidemeister-Schreier output, hundreds to
thousands of short relators.  Tietze simplification is one greedy loop over
state kept between its steps (Havas, Kenne, Richardson and Robertson, A
Tietze transformation program, 1984) that reads each relator once, when it
stores it, and costs a candidate exactly only when a lower bound puts it
first (Minoux, Accelerated greedy algorithms, 1978).  The Smith normal form
(smith_diagonal) takes the sparse exponent rows that exponent_matrix builds
straight from the relators and runs one sparse elimination, unit pivots
first.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import re

SignedWord = tuple[tuple[str, int], ...]


@dataclasses.dataclass(frozen=True, slots=True)
class Presentation:
    generators: tuple[str, ...]
    relators: tuple[SignedWord, ...]

    def __post_init__(self) -> None:
        declared = set(self.generators)
        if len(declared) != len(self.generators):
            raise ValueError("duplicate generator names")
        for rel in self.relators:
            for name, sign in rel:
                if name not in declared:
                    raise ValueError(f"relator uses undeclared generator {name!r}")
                if sign not in (1, -1):
                    raise ValueError(f"exponent must be +-1, got {sign}")


def positive_word(*names: str) -> SignedWord:
    return tuple((name, 1) for name in names)


def invert_word(w: SignedWord) -> SignedWord:
    return tuple((name, -sign) for name, sign in reversed(w))


def free_reduce(w: SignedWord, involutive: frozenset[str] = frozenset()) -> SignedWord:
    """Cancel adjacent x^e x^-e pairs.  A generator in involutive is its own
    inverse: it is spelled positively and cancels in equal adjacent pairs.

    >>> free_reduce((('x', 1), ('y', 1), ('y', -1), ('x', 1)))
    (('x', 1), ('x', 1))
    >>> free_reduce((('y', 1), ('x', -1), ('x', -1), ('x', -1)), frozenset({'x'}))
    (('y', 1), ('x', 1))
    """
    out: list[tuple[str, int]] = []
    for name, sign in w:
        if name in involutive:
            sign = inverse = 1
        else:
            inverse = -sign
        if out and out[-1] == (name, inverse):
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


def _natural_key(name: str) -> tuple:
    """Name order with digit runs compared numerically, so g9 < g10: the
    split leaves the digit runs at the odd places."""
    runs = re.split(r"(\d+)", name)
    return tuple((k % 2, int(run) if k % 2 else run) for k, run in enumerate(runs) if run)


# Inside the elimination loop a relator is a tuple of signed generator
# indices: +-(i + 1) for the i-th generator and its inverse.
IndexWord = tuple[int, ...]


def _substitute(w: IndexWord, g: int, replacement: IndexWord, inverse: IndexWord) -> IndexWord:
    """w with g spelled as replacement and -g as inverse, cyclically reduced,
    in one pass over w.  No letter is 0, so with g = 0 nothing is spelled
    and this is the cyclic reduction of w."""
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


def _reads(w: IndexWord) -> dict[int, tuple[int, int, int, int] | None]:
    """For each generator g that w holds, None if it holds g more than once,
    else (length of w, position of g, left and right neighbour of g), the
    neighbours read with g at exponent +1 (see _Tietze)."""
    n = len(w)
    reads: dict[int, tuple[int, int, int, int] | None] = {}
    for i, x in enumerate(w):
        if abs(x) in reads:
            reads[abs(x)] = None
        elif x > 0:
            reads[x] = (n, i, w[i - 1], w[(i + 1) % n])
        else:
            reads[-x] = (n, i, -w[(i + 1) % n], -w[i - 1])
    return reads


def _class_key(w: IndexWord) -> IndexWord:
    """Least rotation of w or its inverse, shared by its class up to rotation
    and inversion; it starts with their least letter, so only those are built."""
    inverse = tuple(-x for x in reversed(w))
    least = min(min(w), -max(w))
    return min(b[k:] + b[:k] for b in (w, inverse) for k, x in enumerate(b) if x == least)


def _solution(rel: IndexWord, pos: int) -> tuple[IndexWord, IndexWord]:
    """The words that the generator at rel[pos], occurring once in the
    cyclically reduced relator rel, and its inverse equal by it.  The rest of
    rel read from pos + 1 is a cyclic subword, so it is already reduced."""
    word = rel[pos + 1 :] + rel[:pos]
    inverse = tuple(-x for x in reversed(word))
    return (inverse, word) if rel[pos] > 0 else (word, inverse)


def _joined(w: IndexWord, i: int, spelled: IndexWord) -> int | None:
    """The length change of w when w[i], once in it, is replaced by the
    reduced word spelled (see _Tietze); None when the joins use up a piece."""
    n = len(w)
    if not spelled:
        k = 0
        while 2 * k + 2 < n and w[(i + 1 + k) % n] == -w[(i - 1 - k) % n]:
            k += 1
        return -1 - 2 * k
    limit = min(len(spelled), n - 1)
    k1 = k2 = 0
    while k1 < limit and spelled[-1 - k1] == -w[(i + 1 + k1) % n]:
        k1 += 1
    while k1 + k2 < limit and spelled[k2] == -w[(i - 1 - k2) % n]:
        k2 += 1
    return None if k1 + k2 == limit else len(spelled) - 1 - 2 * (k1 + k2)


class _Tietze:
    """The state of one greedy elimination loop, kept between its steps.

    Relators are index words under ids that follow their position, with their
    class keys and the occurrence index.  Each enters through _store, read
    from the input or rewritten by a step, cyclically reduced by _substitute;
    the lowest id of a class up to rotation and inversion survives.  A
    candidate is a pivot relator, of length l, and a generator g once in it;
    its total, the length change it makes, is -l plus the change of each
    other relator holding g.

    The neighbour argument.  Read a relator w of length n >= 2 holding g once
    as the cyclic word g C, g with exponent +1: C is reduced, and g's left
    and right neighbours are its last and first letters.  Read the pivot as
    g X: g is spelled S = X^-1, reduced, from the inverse of the pivot's left
    neighbour to that of its right one.  The cyclic word S C cancels at a
    join only if w shares its left or its right neighbour with the pivot;
    otherwise w changes by exactly l - 2.  If the joins cancel k1 and k2
    letters and leave some of S and C, the change is l - 2 - 2 (k1 + k2); if
    l = 1, C stays alone, its ends cancel in k pairs, never to nothing, and
    the change is -1 - 2k (_joined).  Any change is at least -n.

    Each relator is read once, when it is stored (_reads).  So _count
    tallies the relators holding g once by left neighbour, right neighbour
    and both, with their lengths.  Three lookups give a candidate's number
    of relators that cannot cancel and, with -n for each other relator, a
    lower bound of its total, exact if there is no other.
    Heap keys are (total or bound, l, -name rank, pivot id, position of g in
    the pivot, whether a bound, g, stamp).  A bound on top is replaced by the
    exact total (_exact); bound <= exact, so the first exact key on top is
    the least candidate.  A step counts again each generator of a relator it
    rewrote or dropped; keys stamped earlier are stale.
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
        self.held: dict[int, dict] = {}  # id -> the relator's _reads
        self.occurs: dict[int, set[int]] = {g: set() for g in range(1, len(natural) + 1)}
        # generator -> (step of its last count, {id of a relator holding it
        # once: its read}, ids of the other relators)
        self.counts: dict[int, tuple[int, dict[int, tuple[int, ...]], list[int]]] = {}
        self.clock = self.live = 0  # steps taken, candidates
        self.heap: list[tuple] = []
        index = {name: g for g, name in enumerate(p.generators, start=1)}
        seen: set[IndexWord] = set()  # exact repeats share a key: skip them unkeyed
        for rid, rel in enumerate(p.relators):
            w = _substitute(tuple(index[name] * sign for name, sign in rel), 0, (), ())
            if w not in seen:
                seen.add(w)
                self._store(rid, w, set())
        for g in self.occurs:
            self._count(g)

    def _store(self, rid: int, w: IndexWord, touched: set[int]) -> None:
        """Keep the cyclically reduced w as relator rid unless it is empty or
        a lower id holds its class; a higher-id holder is dropped (_drop)."""
        if not w:
            return
        key = _class_key(w)
        holder = self.owner.get(key)
        if holder is not None:
            if holder < rid:
                return
            self._drop(holder, touched)
        self.relators[rid] = w
        self.keys[rid] = key
        self.owner[key] = rid
        self.held[rid] = reads = _reads(w)
        for g in reads:
            self.occurs[g].add(rid)

    def _drop(self, rid: int, touched: set[int]) -> IndexWord:
        """Remove relator rid and add the generators it held to touched."""
        w = self.relators.pop(rid)
        del self.owner[self.keys.pop(rid)]
        for g in self.held[rid]:
            self.occurs[g].discard(rid)
        touched.update(self.held.pop(rid))
        return w

    def _count(self, g: int) -> None:
        """Tally the reads of the relators holding g; push a key for each
        candidate elimination of g."""
        once: dict[int, tuple[int, ...]] = {}
        others = []
        left, right, pair = {}, {}, {}  # neighbour(s) -> (relators, their length)
        plain = plain_length = rest = 0  # rest: length of the other relators
        for rid in self.occurs[g]:
            read = self.held[rid][g]
            if read is None:
                others.append(rid)
                rest += len(self.relators[rid])
                continue
            once[rid] = read
            n, _, a, b = read
            if n == 1:
                rest += 1
                continue
            plain, plain_length = plain + 1, plain_length + n
            for tally, key in ((left, a), (right, b), (pair, (a, b))):
                count, length = tally.get(key, (0, 0))
                tally[key] = (count + 1, length + n)
        stamp, rank = self.clock, -self.rank[g]
        for rid, (n, i, a, b) in once.items():
            if n == 1:
                fast, cancel = 0, plain_length + rest - 1
            else:
                (c1, s1), (c2, s2), (c3, s3) = left[a], right[b], pair[a, b]
                fast, cancel = plain - c1 - c2 + c3, s1 + s2 - s3 - n + rest
            bound = fast * (n - 2) - n - cancel
            heapq.heappush(self.heap, (bound, n, rank, rid, i, cancel > 0, g, stamp))
        self.live += len(once) - len(self.counts.get(g, (0, {}))[1])
        self.counts[g] = (stamp, once, others)

    def _exact(self, g: int, rid: int) -> int:
        """The total of eliminating g by the pivot rid."""
        _, once, others = self.counts[g]
        size, pos, a, b = once[rid]
        replacement, inverse = _solution(self.relators[rid], pos)
        total = -size
        for rj in others:
            w = self.relators[rj]
            total += len(_substitute(w, g, replacement, inverse)) - len(w)
        for rj, (n, i, left, right) in once.items():
            if rj == rid:
                continue
            if n > 1 and size > 1 and left != a and right != b:
                total += size - 2
                continue
            w = self.relators[rj]
            change = _joined(w, i, replacement if w[i] > 0 else inverse)
            total += len(_substitute(w, g, replacement, inverse)) - n if change is None else change
        return total

    def step(self) -> bool:
        """Apply the least candidate; False when there is none."""
        heap = self.heap
        while self.live:
            total, size, rank, rid, pos, is_bound, g, stamp = heapq.heappop(heap)
            if self.counts.get(g, (None,))[0] != stamp:
                continue
            if not is_bound:
                break
            heapq.heappush(heap, (self._exact(g, rid), size, rank, rid, pos, False, g, stamp))
        else:
            return False
        self.clock += 1
        touched: set[int] = set()  # every generator a new relator can hold
        replacement, inverse = _solution(self._drop(rid, touched), pos)
        rewritten = sorted(self.occurs[g])
        olds = [self._drop(rj, touched) for rj in rewritten]
        del self.occurs[g]
        self.live -= len(self.counts.pop(g)[1])
        for rj, old in zip(rewritten, olds):
            self._store(rj, _substitute(old, g, replacement, inverse), touched)
        touched.discard(g)
        for h in touched:
            self._count(h)
        if len(heap) > 2 * self.live + 64:  # mostly stale keys: keep the live ones
            self.heap = [e for e in heap if self.counts.get(e[6], (None,))[0] == e[7]]
            heapq.heapify(self.heap)
        return True

    def presentation(self) -> Presentation:
        names = self.names
        generators = tuple(name for g, name in enumerate(names, start=1) if g in self.occurs)
        relators = tuple(
            tuple((names[abs(x) - 1], 1 if x > 0 else -1) for x in self.relators[rid])
            for rid in sorted(self.relators)
        )
        return Presentation(generators, relators)


def tietze_step(p: Presentation) -> Presentation | None:
    """One generator elimination, or None when no relator offers one.

    Any generator occurring exactly once in some relator can be solved for
    and substituted away.  Among the eligible (generator, relator) pairs the
    one minimizing the total presentation length afterwards is applied; ties
    prefer a shorter pivot relator, then eliminate the generator latest in
    name order (digit runs compared numerically, so earlier names survive),
    then the earliest relator, then the generator earliest in it.  The input
    is cleaned up (cyclic reduction, duplicate relators up to rotation and
    inversion dropped, the first of each class kept) before searching, and so
    is the result.  This is one step of tietze_simplify's loop.
    """
    state = _Tietze(p)
    return state.presentation() if state.step() else None


@dataclasses.dataclass(frozen=True, slots=True)
class SimplifiedPresentation:
    presentation: Presentation
    steps: int
    budget_exhausted: bool


def tietze_simplify(p: Presentation, budget: int = 1000) -> SimplifiedPresentation:
    """Eliminate generators until a fixpoint or the step budget runs out.

    Only removals are performed (no generator additions), so the process
    terminates; the resulting presentation defines the same group.  Each
    step is tietze_step's, taken on state that persists between steps
    (_Tietze).  A rewritten relator keeps its id, so ids stay in position
    order and the tie-break key, which ends with the pivot's id and the
    generator's position in it, picks what a fresh search of the same
    presentation picks: every step, and the result, is that of tietze_step
    applied repeatedly.

    >>> p = Presentation(('x', 'y'), ((('y', 1), ('x', -1)),))
    >>> r = tietze_simplify(p)
    >>> r.presentation.generators, r.presentation.relators
    (('x',), ())
    """
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    state, steps = _Tietze(p), 0
    while steps < budget and state.step():
        steps += 1
    exhausted = steps == budget and state.live > 0
    return SimplifiedPresentation(state.presentation(), steps, exhausted)


def involutive_generators(p: Presentation) -> frozenset[str]:
    """Generators declared involutions by a relator spelling x^2 (or x^-2).

    >>> sorted(involutive_generators(builtin('J4')))
    ['s12', 's13', 's14']
    """
    names = set()
    for rel in p.relators:
        if len(rel) == 2 and rel[0][0] == rel[1][0] and rel[0][1] == rel[1][1]:
            names.add(rel[0][0])
    return frozenset(names)


def exponent_matrix(p: Presentation) -> list[dict[int, int]]:
    """The exponent sums of each relator, as a {generator index: sum} row
    without zeros, in index order: the sparse relator-by-generator matrix.

    >>> exponent_matrix(Presentation(('x', 'y'), ((('y', 1), ('x', 1), ('y', -1)),)))
    [{0: 1}]
    """
    index = {name: j for j, name in enumerate(p.generators)}
    rows = []
    for rel in p.relators:
        row: dict[int, int] = {}
        for name, sign in rel:
            j = index[name]
            row[j] = row.get(j, 0) + sign
        rows.append({j: v for j, v in sorted(row.items()) if v})
    return rows


def smith_diagonal(matrix: list[dict[int, int]]) -> list[int]:
    """Nonnegative diagonal of the Smith normal form, d1 | d2 | ..., of a
    matrix given as {column: value} rows without zeros, such as
    exponent_matrix builds from the relators; the caller's rows are left unchanged.

    >>> smith_diagonal([{1: 2, 2: 2, 3: -2, 4: 2}]), smith_diagonal([{0: 6, 1: 10, 2: 15}])
    ([2], [1])
    >>> smith_diagonal([{0: 1, 1: 2}, {0: 3, 1: 4}, {2: 1}])
    [1, 1, 2]

    Repeated rows are dropped, which keeps the row lattice.  Each sweep
    visits the rows shortest first and pivots on entries of the least
    absolute value, units first, in the column with fewest entries, to
    limit fill-in (structured elimination, LaMacchia and Odlyzko, CRYPTO
    1990).  The Smith form is unique, so the pivot order does not matter.
    """
    rows = dict(enumerate({tuple(row.items()): dict(row) for row in matrix if row}.values()))
    where: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            where.setdefault(j, set()).add(i)
    diagonal: list[int] = []
    least = 1
    while rows:
        pivots, done = (least, -least), len(diagonal)
        for i in sorted(rows, key=lambda i: len(rows[i])):
            columns = [j for j, v in rows[i].items() if v in pivots] if i in rows else []
            if columns:
                j = min(columns, key=lambda j: len(where[j]))
                diagonal.append(_eliminate(rows, where, i, j))
        least = 1 if len(diagonal) > done else min(
            abs(v) for row in rows.values() for v in row.values())
    diagonal.sort()
    # Enforce the divisibility chain: diag(a, b) ~ diag(gcd, lcm) over Z.
    for i in range(diagonal.count(1), len(diagonal)):
        for j in range(i + 1, len(diagonal)):
            if diagonal[j] % diagonal[i] != 0:
                g = math.gcd(diagonal[i], diagonal[j])
                diagonal[i], diagonal[j] = g, diagonal[i] * diagonal[j] // g
    return diagonal


def _eliminate(rows: dict[int, dict[int, int]], where: dict[int, set[int]], i: int, j: int) -> int:
    """Clear the column of the pivot rows[i][j] by row operations, then its
    row by column operations, which touch that row alone; drop both and
    return the pivot's absolute value.  A remainder moves the pivot to the
    least entry of its row and column: it shrinks, so the loop ends."""
    while True:
        row = rows.pop(i)
        for k in row:
            where[k].discard(i)
        p = row.pop(j)
        holders, where[j] = where[j], set()
        for r in holders:
            target = rows[r]
            value = target.pop(j)
            q = value // p
            rem = value - q * p
            if q:
                for k, v in row.items():
                    value = target.get(k, 0) - q * v
                    if value:
                        target[k] = value
                        where[k].add(r)
                    else:
                        del target[k]
                        where[k].discard(r)
            if rem:
                target[j] = rem
                where[j].add(r)
            elif not target:
                del rows[r]
        if not where[j]:
            if p == 1 or p == -1:
                return 1
            row = {k: v % p for k, v in row.items() if v % p}
            if not row:
                return abs(p)
        row[j] = p
        rows[i] = row
        for k in row:
            where[k].add(i)
        i, j = min([(r, j) for r in where[j]] + [(i, k) for k in row],
                   key=lambda entry: abs(rows[entry[0]][entry[1]]))


def abelianization(p: Presentation) -> tuple[int, tuple[int, ...]]:
    """(free rank, nontrivial invariant factors) of the abelianized group.

    >>> abelianization(Presentation(('x',), ((('x', 1), ('x', 1)),)))
    (0, (2,))
    >>> abelianization(Presentation(('x', 'y'), ()))
    (2, ())
    """
    diag = smith_diagonal(exponent_matrix(p))
    nonzero = [d for d in diag if d != 0]
    rank = len(p.generators) - len(nonzero)
    return rank, tuple(d for d in nonzero if d > 1)


# Builtin presentations of the cactus groups on 3 and 4 strands, on their
# leftmost generators s_{1,*}.  The two non-involution relators of the second
# are spelled exactly as consumed by the subgroup-presentation pipeline.
_J3 = Presentation(
    ("s12", "s13"),
    (positive_word("s12", "s12"), positive_word("s13", "s13")),
)

_J4 = Presentation(
    ("s12", "s13", "s14"),
    (
        positive_word("s12", "s12"),
        positive_word("s13", "s13"),
        positive_word("s14", "s14"),
        positive_word(*["s12", "s14"] * 4),
        positive_word(*["s12", "s13", "s14", "s13"] * 2),
    ),
)

_PJ4_TARGET = Presentation(
    ("alpha", "beta", "gamma", "delta", "epsilon"),
    ((("alpha", 1), ("gamma", 1), ("epsilon", 1), ("beta", 1), ("epsilon", 1),
      ("alpha", -1), ("delta", -1), ("beta", 1), ("gamma", 1), ("delta", -1)),),
)

_BUILTINS = {"J3": _J3, "J4": _J4, "PJ4_target": _PJ4_TARGET}

# Defining words of the five target generators inside the 4-strand cactus
# group, spelled in the leftmost generators s_{1,*}.
PJ4_GENERATOR_WORDS: dict[str, tuple[tuple[int, int], ...]] = {
    "alpha": ((1, 3), (1, 2), (1, 3), (1, 2), (1, 3), (1, 2)),
    "beta": ((1, 2), (1, 3), (1, 4), (1, 3), (1, 4), (1, 2), (1, 4)),
    "gamma": ((1, 2), (1, 4), (1, 2), (1, 3), (1, 4), (1, 3), (1, 4)),
    "delta": ((1, 3), (1, 2), (1, 4), (1, 2), (1, 4), (1, 3), (1, 4)),
    "epsilon": ((1, 4), (1, 2), (1, 3), (1, 2), (1, 4), (1, 2), (1, 3), (1, 2)),
}


def builtin(name: str) -> Presentation:
    """Builtin presentations: J3, J4, PJ4_target.

    >>> len(builtin('J3').relators), builtin('J4').generators
    (2, ('s12', 's13', 's14'))
    """
    try:
        return _BUILTINS[name]
    except KeyError:
        raise ValueError(f"unknown builtin {name!r}; have {sorted(_BUILTINS)}") from None
