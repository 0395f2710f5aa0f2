"""
Finitely presented groups: free and cyclic reduction, Tietze simplification,
abelianization via integer Smith normal form, and the builtin presentations
the package ships with (the 2- and 3-generator cactus groups on leftmost
generators, and the target one-relator presentation of the first non-abelian
pure cactus group).

Relator words live in a free group: letters are (generator, +-1) pairs and no
involutivity is assumed.

Both simplifications are sized for Reidemeister-Schreier output, hundreds to
thousands of short relators.  Tietze simplification is one greedy
elimination loop over state kept between its steps, as in Havas, Kenne,
Richardson and Robertson, A Tietze transformation program (1984): relators
as signed generator indices, their class keys, the occurrence index and the
cost of every candidate, each recomputed only where a step rewrote or
dropped a relator (tietze_simplify says why every step is still the one a
search from scratch would take).  The Smith normal form takes the exponent
sums as sparse rows built straight from the relators, removes unit pivots
first and leaves only a small remainder to the dense textbook algorithm.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math

SignedWord = tuple[tuple[str, int], ...]


@dataclasses.dataclass(frozen=True)
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


def free_reduce(w: SignedWord) -> SignedWord:
    """Cancel adjacent x^e x^-e pairs.

    >>> free_reduce((('x', 1), ('y', 1), ('y', -1), ('x', 1)))
    (('x', 1), ('x', 1))
    """
    out: list[tuple[str, int]] = []
    for name, sign in w:
        if out and out[-1] == (name, -sign):
            out.pop()
        else:
            out.append((name, sign))
    return tuple(out)


def cyclic_reduce(w: SignedWord) -> SignedWord:
    """Free reduction, also cancelling across the ends.

    >>> cyclic_reduce((('x', -1), ('y', 1), ('x', 1)))
    (('y', 1),)
    """
    word = list(free_reduce(w))
    while len(word) >= 2 and word[0][0] == word[-1][0] and word[0][1] == -word[-1][1]:
        word = word[1:-1]
    return tuple(word)


def _natural_key(name: str) -> tuple:
    """Name order with digit runs compared numerically, so g9 < g10."""
    runs = []
    for is_digit, group in itertools.groupby(name, str.isdigit):
        text = "".join(group)
        runs.append((1, int(text)) if is_digit else (0, text))
    return tuple(runs)


# Inside the elimination loop a relator is a tuple of signed generator
# indices: +-(i + 1) for the i-th generator and its inverse.
IndexWord = tuple[int, ...]


def _substitute(w: IndexWord, g: int, replacement: IndexWord, inverse: IndexWord) -> IndexWord:
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


def _class_key(w: IndexWord) -> IndexWord:
    """Least rotation of the relator or its inverse; relators equal up to
    cyclic rotation and inversion share one key."""
    inverse = tuple(-x for x in reversed(w))
    return min(base[k:] + base[:k] for base in (w, inverse) for k in range(len(base)))


def _solution(rel: IndexWord, pos: int) -> tuple[IndexWord, IndexWord]:
    """The words that the generator at rel[pos], occurring once in the
    cyclically reduced relator rel, and its inverse equal by it.  The rest of
    rel read from pos + 1 is a cyclic subword, so it is already reduced."""
    word = rel[pos + 1 :] + rel[:pos]
    inverse = tuple(-x for x in reversed(word))
    return (inverse, word) if rel[pos] > 0 else (word, inverse)


class _Tietze:
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
            key = _class_key(w) if w else None
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
                replacement, inverse = _solution(self.relators[rid], key[4])
                total += self._deltas(g, replacement, inverse, redo, deltas)
            costs[rid] = ((total, *key[1:]), deltas)
            if total != key[0]:
                heapq.heappush(self.heap, (costs[rid][0], g))
        for rid in redo:
            rel = self.relators[rid]
            if rel.count(g) + rel.count(-g) != 1:
                continue
            pos = rel.index(g) if g in rel else rel.index(-g)
            replacement, inverse = _solution(rel, pos)
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
                delta = len(_substitute(other, g, replacement, inverse)) - n
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
        replacement, inverse = _solution(pivot, pos)
        rewritten = sorted(self.occurs[g])
        olds = [self._drop(rj) for rj in rewritten]
        del self.occurs[g], self.costs[g]
        for rj, old in zip(rewritten, olds):
            touch(rj, old)
            new = _substitute(old, g, replacement, inverse)
            if not new:
                continue
            key = _class_key(new)
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
    is the result.

    This builds the state of tietze_simplify's loop from p and takes one
    step of it, so both share one code path.
    """
    state = _Tietze(p)
    return state.presentation() if state.step() else None


@dataclasses.dataclass(frozen=True)
class SimplifiedPresentation:
    presentation: Presentation
    steps: int
    budget_exhausted: bool


def tietze_simplify(p: Presentation, budget: int = 1000) -> SimplifiedPresentation:
    """Eliminate generators until a fixpoint or the step budget runs out.

    Only removals are performed (no generator additions), so the process
    terminates; the resulting presentation defines the same group.  Each
    step is tietze_step's, taken on state that persists between steps: the
    relators as index words, their class keys, the occurrence index and the
    candidate keys, which a step re-costs only where it rewrote or dropped a
    relator.  A rewritten relator keeps its id, so ids stay in position order
    and the tie-break key, which ends with the pivot's id and the
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
    state = _Tietze(p)
    steps = 0
    while steps < budget and state.step():
        steps += 1
    exhausted = steps == budget and bool(state.costs)
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


def _exponent_rows(p: Presentation) -> list[dict[int, int]]:
    """The exponent sums of each relator, as a {generator index: sum} row
    without zeros, in index order: the sparse relator-by-generator matrix.

    >>> _exponent_rows(Presentation(('x', 'y'), ((('y', 1), ('x', 1), ('y', -1)),)))
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


def exponent_matrix(p: Presentation) -> list[list[int]]:
    """Relator-by-generator matrix of exponent sums: _exponent_rows, dense."""
    matrix = []
    for sparse in _exponent_rows(p):
        row = [0] * len(p.generators)
        for j, v in sparse.items():
            row[j] = v
        matrix.append(row)
    return matrix


def smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Nonnegative diagonal of the Smith normal form, d1 | d2 | ... .

    Relator matrices are large and sparse, with mostly unit entries: the
    rows become {column: value} dicts, the form in which abelianization
    builds them from the relators, and while some entry is +-1 it is taken
    as a pivot, its column is cleared from the other rows, and its row and
    column are dropped with a 1 recorded.  The pivot is taken in a shortest
    row, from the column with fewest entries, to limit fill-in.  The textbook pivoting algorithm then runs on the
    small remainder.  The Smith form is unique, so the pivot order does not
    change the result.

    >>> smith_diagonal([[0, 2, 2, -2, 2]])
    [2]
    >>> smith_diagonal([[1, 2, 0], [3, 4, 0], [0, 0, 1]])
    [1, 1, 2]
    """
    return _sparse_smith_diagonal([{j: v for j, v in enumerate(row) if v} for row in matrix])


def _sparse_smith_diagonal(matrix: list[dict[int, int]]) -> list[int]:
    """smith_diagonal of a matrix given as {column: value} rows without
    zeros, such as _exponent_rows builds; the rows are consumed."""
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
    return [1] * units + _textbook_diagonal(
        [[row.get(j, 0) for j in columns] for row in rows.values()]
    )


def _textbook_diagonal(matrix: list[list[int]]) -> list[int]:
    """smith_diagonal by row and column operations on a dense matrix."""
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


def abelianization(p: Presentation) -> tuple[int, tuple[int, ...]]:
    """(free rank, nontrivial invariant factors) of the abelianized group.

    >>> abelianization(Presentation(('x',), ((('x', 1), ('x', 1)),)))
    (0, (2,))
    >>> abelianization(Presentation(('x', 'y'), ()))
    (2, ())
    """
    diag = _sparse_smith_diagonal(_exponent_rows(p))
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
    (
        (
            ("alpha", 1),
            ("gamma", 1),
            ("epsilon", 1),
            ("beta", 1),
            ("epsilon", 1),
            ("alpha", -1),
            ("delta", -1),
            ("beta", 1),
            ("gamma", 1),
            ("delta", -1),
        ),
    ),
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
