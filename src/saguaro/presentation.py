"""
Finitely presented groups: free and cyclic reduction, Tietze simplification,
abelianization via integer Smith normal form, and the builtin presentations
the package ships with (the 2- and 3-generator cactus groups on leftmost
generators, and the target one-relator presentation of the first non-abelian
pure cactus group).

Relator words live in a free group: letters are (generator, +-1) pairs and no
involutivity is assumed.
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


def _relator_key(w: SignedWord) -> SignedWord:
    """Least rotation of the relator or its inverse; relators equal up to
    cyclic rotation and inversion share one key."""
    candidates = []
    for base in (w, invert_word(w)):
        for k in range(max(1, len(base))):
            candidates.append(base[k:] + base[:k])
    return min(candidates)


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


def _natural_key(name: str) -> tuple:
    """Name order with digit runs compared numerically, so g9 < g10."""
    runs = []
    for is_digit, group in itertools.groupby(name, str.isdigit):
        text = "".join(group)
        runs.append((1, int(text)) if is_digit else (0, text))
    return tuple(runs)


class _Descending:
    """Wrapper reversing the comparison order of its key."""

    __slots__ = ("key",)

    def __init__(self, key: tuple):
        self.key = key

    def __lt__(self, other: _Descending) -> bool:
        return other.key < self.key

    def __eq__(self, other) -> bool:
        return isinstance(other, _Descending) and self.key == other.key


def _solvable(p: Presentation):
    """(relator index, generator) pairs where the generator occurs exactly once
    in the relator, so the relator can be solved for it."""
    for ri, rel in enumerate(p.relators):
        for name, count in Counter(name for name, _ in rel).items():
            if count == 1:
                yield ri, name


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
