"""Checks on the program's outputs, computed apart from the program.

Nothing here imports saguaro.  Words are tuples of ``(p, q)`` pairs, one per
interval reversal ``s(p,q)``; a presentation is a generator list plus
relators spelled as ``(name, +-1)`` pairs.

The diagram simulator gives the two invariants the checks rest on:

* the strand permutation, a homomorphism J_n -> S_n;
* the parity vector, the set of Gauss letters (label sets) read an odd number
  of times.  The reading is a 1-cocycle into the Gauss-diagram group D_n,
  and D_n abelianizes to one Z/2 per letter, so equal cacti have equal
  parity vectors.

Abelian invariants are ranks of the exponent matrix over Q (taken modulo a
large prime) and over small prime fields: the free rank is the number of
generators minus the rational rank, and the number of p-primary invariant
factors is the rational rank minus the rank over F_p.
"""

from __future__ import annotations

import math
import re

Word = tuple[tuple[int, int], ...]

_BIG_PRIME = (1 << 61) - 1


def simulate(n: int, word: Word) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Gauss letters read along the diagram and the one-line strand permutation.

    At each letter the strands at positions p..q are recorded as a sorted label
    set and their order is reversed; strand s ends at position perm[s - 1].
    """
    at = list(range(1, n + 1))  # at[pos - 1] = strand at that position
    gauss = []
    for p, q in word:
        if not 1 <= p < q <= n:
            raise ValueError(f"s({p},{q}) out of bounds for n={n}")
        block = at[p - 1 : q]
        gauss.append(tuple(sorted(block)))
        at[p - 1 : q] = block[::-1]
    perm = [0] * n
    for pos, strand in enumerate(at, start=1):
        perm[strand - 1] = pos
    return gauss, tuple(perm)


def permutation(n: int, word: Word) -> tuple[int, ...]:
    return simulate(n, word)[1]


def parity(n: int, word: Word) -> frozenset[tuple[int, ...]]:
    """Label sets read an odd number of times."""
    odd: set[tuple[int, ...]] = set()
    for letter in simulate(n, word)[0]:
        odd ^= {letter}
    return frozenset(odd)


def perm_order(perm: tuple[int, ...]) -> int:
    order, seen = 1, set()
    for start in range(1, len(perm) + 1):
        length, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i - 1]
            length += 1
        if length:
            order = order * length // math.gcd(order, length)
    return order


def check_decision(answer: bool, expected: bool) -> bool:
    """Equality and membership answers are known by construction."""
    return answer is expected


def check_canonical(n: int, word: Word, canon: Word, canon_again: Word,
                    partner_canon: Word | None = None) -> bool:
    """A canonical form is idempotent, keeps the strand permutation and the
    parity vector, is no longer than its input, and is shared by an equal
    partner word."""
    if canon_again != canon or len(canon) > len(word):
        return False
    if partner_canon is not None and partner_canon != canon:
        return False
    return (simulate(n, canon)[1] == simulate(n, word)[1]
            and parity(n, canon) == parity(n, word))


def check_order(n: int, word: Word, answer: int | None, expected: int | None = None) -> bool:
    """An order k of a non-trivial cactus is even, and m | k | 2m for the order
    m of its strand permutation.  A known order must be found exactly; an
    answer of None (no order within the bound) is otherwise not checkable."""
    if expected is not None and answer != expected:
        return False
    if answer is None:
        return True
    m = perm_order(permutation(n, word))
    return answer % 2 == 0 and answer % m == 0 and (2 * m) % answer == 0


_POINTS = re.compile(r'<polyline[^>]*points="([^"]*)"')


def check_render(n: int, word: Word, svg: str) -> bool:
    """One polyline per strand, in strand order; the track a strand ends on
    is its final position, read from the ranks of the starting heights."""
    lines = [[tuple(float(c) for c in point.split(",")) for point in pts.split()]
             for pts in _POINTS.findall(svg)]
    if len(lines) != n:
        return False
    rank = {y: pos for pos, y in enumerate(sorted(line[0][1] for line in lines), start=1)}
    if len(rank) != n:
        return False
    final = tuple(rank.get(line[-1][1]) for line in lines)
    return final == permutation(n, word)


def check_rs_counts(n: int, generators: int, relators: int,
                    cosets: int, raw_generators: int, raw_relators: int) -> bool:
    """Reidemeister-Schreier over the strand permutation of J_n: one coset per
    permutation, and each of the n! - 1 tree edges kills two generators (an
    involution and its reverse) and two rewritten x^2 relators."""
    index = math.factorial(n)
    return (cosets == index
            and raw_generators == index * generators - 2 * (index - 1)
            and raw_relators == index * relators - 2 * (index - 1))


def word_image(word, images: dict[str, tuple[int, ...]]) -> tuple[int, ...]:
    """Strand permutation of a signed word; applies letters left to right."""
    n = len(next(iter(images.values())))
    at = list(range(1, n + 1))  # at[s - 1] = current position of strand s
    for name, sign in word:
        image = images[name]
        if sign == -1:
            inverse = [0] * n
            for i, x in enumerate(image, start=1):
                inverse[x - 1] = i
            image = tuple(inverse)
        at = [image[x - 1] for x in at]
    return tuple(at)


def interval_images(names, n: int) -> dict[str, tuple[int, ...]]:
    """Images of generators named s<p><q> with single-digit p and q."""
    images = {}
    for name in names:
        p, q = int(name[1]), int(name[2])
        images[name] = tuple(p + q - i if p <= i <= q else i for i in range(1, n + 1))
    return images


def _rank_mod(rows: list[dict[int, int]], prime: int) -> int:
    """Rank over F_prime of sparse integer rows (column -> entry)."""
    pivots: dict[int, dict[int, int]] = {}
    rank = 0
    for row in rows:
        vec = {c: v % prime for c, v in row.items() if v % prime}
        while vec:
            col = min(vec)
            pivot = pivots.get(col)
            if pivot is None:
                inv = pow(vec[col], -1, prime)
                pivots[col] = {c: v * inv % prime for c, v in vec.items()}
                rank += 1
                break
            factor = vec[col]
            for c, v in pivot.items():
                x = (vec.get(c, 0) - factor * v) % prime
                if x:
                    vec[c] = x
                else:
                    vec.pop(c, None)
    return rank


def abelian_profile(generators, relators) -> tuple[int, dict[int, int]]:
    """(free rank, {p: number of p-primary invariant factors}) for p = 2, 3, 5, 7."""
    index = {name: i for i, name in enumerate(generators)}
    rows = []
    for rel in relators:
        row: dict[int, int] = {}
        for name, sign in rel:
            row[index[name]] = row.get(index[name], 0) + sign
        rows.append({c: v for c, v in row.items() if v})
    rational = _rank_mod(rows, _BIG_PRIME)
    return len(generators) - rational, {p: rational - _rank_mod(rows, p) for p in (2, 3, 5, 7)}


def check_pj4_abelian(generators, relators) -> bool:
    """Every presentation of PJ_4 abelianizes to Z^4 + Z/2."""
    return abelian_profile(generators, relators) == (4, {2: 1, 3: 0, 5: 0, 7: 0})
