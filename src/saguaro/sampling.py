"""
Random words, pure elements, and random relation moves, for property testing
at desk scale.  All functions take an explicit random.Random so batches are
reproducible from a seed.
"""

from __future__ import annotations

import random

from .cactus import CactusLetter, CactusWord, exchange_left, s_image
from .perm import Permutation


def random_letter(n: int, rng: random.Random) -> CactusLetter:
    p = rng.randint(1, n - 1)
    q = rng.randint(p + 1, n)
    return CactusLetter(p, q)


def random_word(n: int, max_length: int, rng: random.Random) -> CactusWord:
    length = rng.randint(0, max_length)
    return CactusWord(n, tuple(random_letter(n, rng) for _ in range(length)))


def purifying_tail(perm: Permutation) -> CactusWord:
    """A word of adjacent transpositions whose strand permutation inverts the
    given one, so w * purifying_tail(s_image(w)) is pure.

    Bubble-sorts the position-to-strand table back to the identity, recording
    each adjacent swap as a 2-leaf letter.
    """
    strands = list(perm.inverse().images)  # strands[pos - 1] = strand at pos
    letters = []
    changed = True
    while changed:
        changed = False
        for i in range(len(strands) - 1):
            if strands[i] > strands[i + 1]:
                strands[i], strands[i + 1] = strands[i + 1], strands[i]
                letters.append(CactusLetter(i + 1, i + 2))
                changed = True
    return CactusWord(perm.n, tuple(letters))


def random_pure_word(n: int, max_length: int, rng: random.Random) -> CactusWord:
    w = random_word(n, max_length, rng)
    return w * purifying_tail(s_image(w))


def applicable_moves(w: CactusWord) -> list[tuple]:
    """All single defining-relation moves applicable to a word: adjacent
    exchanges, deletions of adjacent equal pairs, and pair insertions
    (("insert", position, letter) instances are generated per position with
    the letter chosen by the caller)."""
    moves: list[tuple] = []
    for i in range(len(w.letters) - 1):
        x, y = w.letters[i], w.letters[i + 1]
        if x == y:
            moves.append(("delete", i))
        elif exchange_left(x, y) is not None:
            moves.append(("exchange", i))
    for i in range(len(w.letters) + 1):
        moves.append(("insert", i))
    return moves


def apply_move(w: CactusWord, move: tuple, letter: CactusLetter | None = None) -> CactusWord:
    letters = list(w.letters)
    if move[0] == "delete":
        del letters[move[1] : move[1] + 2]
    elif move[0] == "exchange":
        i = move[1]
        moved, stayed = exchange_left(letters[i], letters[i + 1])
        letters[i], letters[i + 1] = moved, stayed
    else:
        letters[move[1] : move[1]] = [letter, letter]
    return CactusWord(w.n, tuple(letters))


def random_move(w: CactusWord, rng: random.Random) -> CactusWord:
    """Apply one random defining-relation move; the result is equal in J_n."""
    move = rng.choice(applicable_moves(w))
    letter = random_letter(w.n, rng) if move[0] == "insert" else None
    return apply_move(w, move, letter)
