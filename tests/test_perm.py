import itertools
import random

import pytest

import oracles
from saguaro.perm import Permutation, cycle_order


def reversal(n, p, q):
    return Permutation.interval_reversal(n, p, q)


def test_interval_reversal_examples():
    assert reversal(4, 2, 4).images == (1, 4, 3, 2)
    assert reversal(4, 1, 4).images == (4, 3, 2, 1)
    assert reversal(3, 1, 2).images == (2, 1, 3)


def test_interval_reversal_bounds():
    with pytest.raises(ValueError):
        reversal(4, 2, 2)
    with pytest.raises(ValueError):
        reversal(4, 0, 3)
    with pytest.raises(ValueError):
        reversal(4, 3, 5)


def test_compose_pins_diagram_order():
    assert (reversal(4, 1, 2) * reversal(4, 2, 4)).images == (4, 1, 3, 2)


def test_compose_identity_and_inverse():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(1, 8)
        images = list(range(1, n + 1))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert Permutation.identity(n) * p == p
        assert p * p.inverse() == Permutation.identity(n)


def test_compose_associative():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randint(2, 7)
        perms = []
        for _ in range(3):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perms.append(Permutation(tuple(images)))
        a, b, c = perms
        assert (a * b) * c == a * (b * c)


def test_reversals_are_involutions():
    for n in range(2, 7):
        for p in range(1, n):
            for q in range(p + 1, n + 1):
                r = reversal(n, p, q)
                assert r * r == Permutation.identity(n)


def test_apply_set_examples():
    assert Permutation((2, 1, 3, 4)).apply_set({2, 3, 4}) == frozenset({1, 3, 4})
    assert Permutation.identity(5).apply_set({1, 4}) == frozenset({1, 4})
    assert Permutation((4, 1, 3, 2)).inverse().apply_set({1, 2, 3}) == frozenset({2, 3, 4})


def test_apply_set_respects_composition():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(2, 7)
        perms = []
        for _ in range(2):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            perms.append(Permutation(tuple(images)))
        a, b = perms
        labels = frozenset(rng.sample(range(1, n + 1), rng.randint(1, n)))
        assert (a * b).apply_set(labels) == b.apply_set(a.apply_set(labels))


def test_order():
    assert Permutation.identity(4).order() == 1
    assert reversal(4, 1, 4).order() == 2
    assert Permutation((2, 3, 1)).order() == 3
    assert Permutation((3, 4, 2, 1)).order() == 4


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))


def test_cycle_order_matches_the_permutation_cycle_loop():
    # every permutation of up to 7 points, and larger random ones
    rng = random.Random(3)
    perms = [Permutation(images) for n in range(1, 8)
             for images in itertools.permutations(range(1, n + 1))]
    perms += [Permutation(tuple(rng.sample(range(1, n + 1), n))) for n in (20, 50) for _ in range(50)]
    for perm in perms:
        expected = oracles.gen_permutation_order(perm)
        assert cycle_order(perm.images) == perm.order() == expected
