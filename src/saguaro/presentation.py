"""
Finitely presented groups: free and cyclic reduction, Tietze simplification,
abelianization via integer Smith normal form, and the builtin presentations
the package ships with (the 2- and 3-generator cactus groups on leftmost
generators, and the target one-relator presentation of the first non-abelian
pure cactus group).

Relator words live in a free group: letters are (generator, +-1) pairs and no
involutivity is assumed.

Both simplifications are sized for Reidemeister-Schreier output, hundreds to
thousands of short relators.  A Tietze step keeps an occurrence index, the
relators containing each generator, so a candidate elimination is costed on
the relators it rewrites and nowhere else.  The Smith normal form removes
unit pivots on sparse rows first and leaves only a small remainder to the
dense textbook algorithm.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter

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


def _substitute(
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


def _relator_key(w: SignedWord) -> SignedWord:
    """Least rotation of the relator or its inverse; relators equal up to
    cyclic rotation and inversion share one key."""
    candidates = []
    for base in (w, invert_word(w)):
        for k in range(max(1, len(base))):
            candidates.append(base[k:] + base[:k])
    return min(candidates)


def _classes(relators) -> dict[SignedWord, SignedWord]:
    """The non-empty cyclic reductions of the relators, first of each class up
    to rotation and inversion, keyed by _relator_key, in input order."""
    classes: dict[SignedWord, SignedWord] = {}
    for rel in relators:
        reduced = cyclic_reduce(rel)
        if reduced:
            classes.setdefault(_relator_key(reduced), reduced)
    return classes


def _cleanup(p: Presentation) -> Presentation:
    return Presentation(p.generators, tuple(_classes(p.relators).values()))


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


def _solution(rel: SignedWord, name: str) -> tuple[SignedWord, SignedWord]:
    """The words that a generator occurring once in a relator and its
    inverse equal by it, reduced."""
    pos = next(i for i, (g, _) in enumerate(rel) if g == name)
    word = free_reduce(rel[pos + 1 :] + rel[:pos])
    return (invert_word(word), word) if rel[pos][1] == 1 else (word, invert_word(word))


def tietze_step(p: Presentation) -> Presentation | None:
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
    classes = _classes(p.relators)
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
        replacement, inverse = _solution(rel, name)
        total = size - len(rel)
        for rj in occurs[name]:
            if rj != ri:
                other = p.relators[rj]
                substituted = cyclic_reduce(_substitute(other, name, replacement, inverse))
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
            rel = cyclic_reduce(_substitute(rel, name, replacement, inverse))
            if rel:
                result.setdefault(_relator_key(rel), rel)
        else:
            result.setdefault(keys[rj], rel)
    generators = tuple(g for g in p.generators if g != name)
    return Presentation(generators, tuple(result.values()))


@dataclasses.dataclass(frozen=True)
class SimplifiedPresentation:
    presentation: Presentation
    steps: int
    budget_exhausted: bool


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
    current, steps = p, 0
    while steps < budget:
        next_p = tietze_step(current)
        if next_p is None:
            break
        current, steps = next_p, steps + 1
    if steps == 0:
        # tietze_step cleans its result, so only an input never stepped on
        # needs cleaning here
        current = _cleanup(p)
    exhausted = steps == budget and next(_solvable(current), None) is not None
    return SimplifiedPresentation(current, steps, exhausted)


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


def exponent_matrix(p: Presentation) -> list[list[int]]:
    """Relator-by-generator matrix of exponent sums."""
    index = {name: i for i, name in enumerate(p.generators)}
    rows = []
    for rel in p.relators:
        row = [0] * len(p.generators)
        for name, sign in rel:
            row[index[name]] += sign
        rows.append(row)
    return rows


def smith_diagonal(matrix: list[list[int]]) -> list[int]:
    """Nonnegative diagonal of the Smith normal form, d1 | d2 | ... .

    Relator matrices are large and sparse, with mostly unit entries: the
    rows become {column: value} dicts indexed by column, and while some
    entry is +-1 it is taken as a pivot, its column is cleared from the
    other rows, and its row and column are dropped with a 1 recorded.  The
    pivot is taken in a shortest row, from the column with fewest entries,
    to limit fill-in.  The textbook pivoting algorithm then runs on the
    small remainder.  The Smith form is unique, so the pivot order does not
    change the result.

    >>> smith_diagonal([[0, 2, 2, -2, 2]])
    [2]
    >>> smith_diagonal([[1, 2, 0], [3, 4, 0], [0, 0, 1]])
    [1, 1, 2]
    """
    rows = {i: {j: v for j, v in enumerate(row) if v} for i, row in enumerate(matrix)}
    rows = {i: row for i, row in rows.items() if row}
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
