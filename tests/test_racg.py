import itertools
import random
from collections import Counter

import pytest

from oracles import cancellable_pairs, commutation_class, commutes_disjoint, letter_multiset
from saguaro import racg
from saguaro.racg import GaussLetter, GaussWord, tau


def gw(n, *label_sets):
    return GaussWord(n, tuple(tau(*labels) for labels in label_sets))


def random_gauss_word(n, max_len, rng):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        size = rng.randint(2, n)
        letters.append(tau(*rng.sample(range(1, n + 1), size)))
    return GaussWord(n, tuple(letters))


def test_letter_order():
    assert tau(1, 2) < tau(1, 2, 3) < tau(1, 3) < tau(2, 3)


def test_letter_validation():
    with pytest.raises(ValueError):
        GaussLetter((1,))
    with pytest.raises(ValueError):
        GaussLetter((2, 1))
    with pytest.raises(ValueError):
        GaussWord(3, (tau(1, 4),))


def test_commutes_examples():
    assert racg.commutes(tau(1, 2), tau(3, 4))
    assert racg.commutes(tau(1, 2), tau(1, 2, 3))
    assert not racg.commutes(tau(1, 2), tau(1, 3))


def test_commutes_disjoint_only():
    # Distinct label sets of one size are never nested, so letters of one
    # size commute exactly when disjoint (the width-i eraser relies on it).
    assert racg.commutes(tau(1, 2), tau(3, 4))
    assert not racg.commutes(tau(1, 2), tau(2, 3))
    for size in range(2, 6):
        letters = [GaussLetter(c) for c in itertools.combinations(range(1, 7), size)]
        for a in letters:
            for b in letters:
                if a != b:
                    assert racg.commutes(a, b) == commutes_disjoint(a, b)


def test_reduce_examples():
    assert racg.racg_reduce(gw(4, (1, 2), (3, 4), (1, 2))).letters == (tau(3, 4),)
    w = gw(4, (1, 2), (1, 3), (1, 2))
    assert racg.racg_reduce(w).letters == w.letters
    assert racg.racg_reduce(gw(4, (1, 2), (1, 2))).letters == ()


def test_canonical_examples():
    assert racg.racg_canonical(gw(3, (1, 2, 3), (1, 2))).letters == (tau(1, 2), tau(1, 2, 3))
    assert racg.racg_canonical(GaussWord(3)).letters == ()


def test_canonical_fixed_by_brute_force_class():
    # No commutation applies anywhere in this word, so its class is itself.
    w = gw(3, (1, 2), (1, 3), (2, 3))
    assert commutation_class(w, racg.commutes) == {w.letters}
    assert racg.racg_canonical(w).letters == w.letters


def test_canonical_is_least_in_class():
    rng = random.Random(3)
    for _ in range(100):
        w = racg.racg_reduce(random_gauss_word(4, 6, rng))
        cls = commutation_class(w, racg.commutes)
        assert racg.racg_canonical(w).letters == min(cls)


def test_equal_examples():
    assert racg.racg_equal(gw(4, (3, 4), (1, 2)), gw(4, (1, 2), (3, 4)))
    assert not racg.racg_equal(gw(3, (1, 2)), gw(3, (1, 3)))
    for n in range(3, 7):
        full = tuple(range(1, n + 1))
        assert racg.racg_equal(
            GaussWord(n, (GaussLetter(full), tau(1, 2))),
            GaussWord(n, (tau(1, 2), GaussLetter(full))),
        )


def test_equal_rejects_size_mismatch():
    with pytest.raises(ValueError):
        racg.racg_equal(GaussWord(3), GaussWord(4))


def test_letter_multiset():
    w = gw(4, (1, 2), (3, 4), (1, 2))
    irreducible = gw(4, (1, 2), (1, 3))
    expected = [Counter({tau(3, 4): 1}), Counter(irreducible.letters), Counter()]
    for v, counts in zip((w, irreducible, gw(2, (1, 2), (1, 2))), expected):
        assert letter_multiset(v.letters, racg.commutes) == counts
        assert Counter(racg.reduce_letters(v.letters)) == counts


def test_reduction_confluence_random_orders():
    rng = random.Random(4)
    for n in range(2, 6):
        for _ in range(100):
            w = random_gauss_word(n, 10, rng)
            reference = racg.reduce_letters(w.letters)
            for _ in range(3):
                current = list(w.letters)
                while True:
                    pairs = cancellable_pairs(current, racg.commutes)
                    if not pairs:
                        break
                    i, j = rng.choice(pairs)
                    del current[j], current[i]
                assert len(current) == len(reference)
                assert Counter(current) == Counter(reference)


def test_canonical_idempotent_and_move_invariant():
    rng = random.Random(5)
    for _ in range(200):
        w = random_gauss_word(4, 8, rng)
        canonical = racg.canonical_letters(w.letters)
        assert racg.canonical_letters(canonical) == canonical
        # one random legal move: insert a square, delete a pair, or commute
        letters = list(w.letters)
        moves = [("insert", i) for i in range(len(letters) + 1)]
        moves += [
            ("swap", i)
            for i in range(len(letters) - 1)
            if letters[i] != letters[i + 1] and racg.commutes(letters[i], letters[i + 1])
        ]
        moves += [
            ("delete", i) for i in range(len(letters) - 1) if letters[i] == letters[i + 1]
        ]
        kind, i = rng.choice(moves)
        if kind == "insert":
            letter = tau(*rng.sample(range(1, 5), rng.randint(2, 4)))
            letters[i:i] = [letter, letter]
        elif kind == "swap":
            letters[i], letters[i + 1] = letters[i + 1], letters[i]
        else:
            del letters[i : i + 2]
        assert racg.canonical_letters(letters) == canonical


def test_geodesic_property():
    rng = random.Random(6)
    for _ in range(200):
        w = random_gauss_word(4, 8, rng)
        canonical = racg.canonical_letters(w.letters)
        assert len(canonical) <= len(w.letters)
        irreducible = not cancellable_pairs(w.letters, racg.commutes)
        assert (len(canonical) == len(w.letters)) == irreducible
