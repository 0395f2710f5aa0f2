import random

import pytest

from saguaro import cactus, racg, sampling, subgroups
from saguaro.cactus import CactusLetter, CactusWord, word
from saguaro.perm import Permutation
from saguaro.racg import tau
from saguaro.subgroups import IntervalCollection


def test_is_symmetric_examples():
    assert subgroups.is_symmetric(IntervalCollection.slice(4, 2, 2))
    assert not subgroups.is_symmetric(IntervalCollection.of(4, [(1, 2), (1, 4)]))
    assert subgroups.is_symmetric(IntervalCollection.of(4, [(1, 2), (1, 4), (3, 4)]))


def test_symmetric_closure_examples():
    closed = subgroups.symmetric_closure(IntervalCollection.of(4, [(1, 2), (1, 4)]))
    assert closed.intervals == frozenset({(1, 2), (1, 4), (3, 4)})
    already = IntervalCollection.slice(5, 2, 3)
    assert subgroups.symmetric_closure(already).intervals == already.intervals
    no_nesting = IntervalCollection.of(4, [(1, 3), (2, 4)])
    assert subgroups.symmetric_closure(no_nesting).intervals == no_nesting.intervals


def test_reflection_closure_property():
    rng = random.Random(30)
    for _ in range(50):
        intervals = set()
        while len(intervals) < 4:
            p = rng.randint(1, 5)
            q = rng.randint(p + 1, 6)
            intervals.add((p, q))
        c = subgroups.symmetric_closure(IntervalCollection.of(6, intervals))
        for inner in c.intervals:
            for outer in c.intervals:
                if outer[0] <= inner[0] and inner[1] <= outer[1]:
                    assert subgroups.reflect(inner, outer) in c.intervals


def leaf_group_ball(n: int, k: int, radius: int) -> set[tuple[racg.GaussLetter, ...]]:
    """The ball of the right-angled Coxeter group on the letters t{i..i+k-1},
    two of them commuting when disjoint, by canonical forms, breadth-first;
    for k = 2 it is the twin group Tw_n."""
    letters = [tau(*range(i, i + k)) for i in range(1, n - k + 2)]
    ball, sphere = {()}, [()]
    for _ in range(radius):
        sphere = [g for g in {racg.canonical_letters(h + (x,)) for h in sphere for x in letters}
                  if g not in ball]
        ball.update(sphere)
    return ball


@pytest.mark.parametrize("n, k, radius, size", [
    (6, 2, 6, 677), (7, 2, 6, 1363), (7, 3, 6, 2893), (8, 4, 6, 5329)])
def test_k_leaf_groups_inject_into_the_cactus_group(n, k, radius, size):
    # The source paper: Tw_n, and its k-leaf generalisation, the right-angled
    # Coxeter group on the k-leaf letters commuting when disjoint, injects
    # into J_n by t{i..i+k-1} -> s(i, i+k-1).
    ball = leaf_group_ball(n, k, radius)
    assert len(ball) == size
    images = set()
    for g in ball:
        c = cactus.canonical(word(n, [(x.labels[0], x.labels[-1]) for x in g]))
        assert len(c) == len(g) and all(letter.leaf == k for letter in c)
        images.add(c)
    assert len(images) == len(ball)


def test_is_member_examples():
    c22 = IntervalCollection.slice(3, 2, 2)
    assert subgroups.is_member(word(3, [(1, 2), (2, 3), (1, 2)]), c22)
    assert not subgroups.is_member(word(4, [(1, 3)]), IntervalCollection.slice(4, 2, 2))
    c = IntervalCollection.of(4, [(1, 2), (1, 4), (3, 4)])
    assert subgroups.is_member(word(4, [(1, 4), (1, 2), (1, 4)]), c)


def test_is_member_requires_symmetric():
    with pytest.raises(ValueError):
        subgroups.is_member(word(4, [(1, 2)]), IntervalCollection.of(4, [(1, 2), (1, 4)]))


def test_is_member_checks_symmetry_once_per_collection(monkeypatch):
    calls = []

    def counted(c):
        calls.append(c)
        return original(c)

    original = subgroups.is_symmetric
    monkeypatch.setattr(subgroups, "is_symmetric", counted)
    c = IntervalCollection.slice(6, 2, 2)
    rng = random.Random(46)
    for _ in range(100):
        subgroups.is_member(sampling.random_word(6, 6, rng), c)
    assert len(calls) == 1
    bad = IntervalCollection.of(4, [(1, 2), (1, 4)])
    for _ in range(3):
        with pytest.raises(ValueError, match="symmetric"):
            subgroups.is_member(word(4, [(1, 2)]), bad)
    assert len(calls) == 2


def test_eraser_slice_examples():
    assert subgroups.eraser_slice(3, word(4, [(1, 2)])).letters == ()
    assert subgroups.eraser_slice(3, word(4, [(1, 2), (1, 3)])).letters == (
        CactusLetter(1, 3),
    )
    w = word(4, [(1, 2), (2, 4), (1, 3)])
    assert subgroups.eraser_slice(2, w).letters == w.letters


def test_eraser_width_examples():
    gauss, perm = subgroups.eraser_width(2, word(3, [(1, 2), (1, 3)]))
    assert gauss.letters == (tau(1, 2),)
    assert perm == cactus.s_image(word(3, [(1, 2), (1, 3)]))
    gauss, perm = subgroups.eraser_width(3, CactusWord(4))
    assert gauss.letters == () and perm == Permutation.identity(4)


def test_eraser_width_respects_nested_relation():
    # s(1,4) s(2,4) = s(1,3) s(1,4); at width 3 both sides project equally.
    lhs = subgroups.eraser_width(3, word(4, [(1, 4), (2, 4)]))
    rhs = subgroups.eraser_width(3, word(4, [(1, 3), (1, 4)]))
    assert lhs == rhs
    assert lhs[0].letters == (tau(1, 2, 3),)
    # width 2 across a big outer letter: s(1,4) s(1,2) = s(3,4) s(1,4)
    lhs = subgroups.eraser_width(2, word(4, [(1, 4), (1, 2)]))
    rhs = subgroups.eraser_width(2, word(4, [(3, 4), (1, 4)]))
    assert lhs == rhs
    assert lhs[0].letters == (tau(3, 4),)


def test_check_eraser_welldefined():
    assert subgroups.check_eraser_welldefined(3, 4)
    assert subgroups.check_eraser_welldefined(2, 4)
    assert subgroups.check_eraser_welldefined(4, 5)


def test_kernel_decompose_examples():
    pieces = subgroups.kernel_decompose(3, word(3, [(1, 3), (1, 2), (1, 3)]))
    assert pieces == [(word(3, [(1, 3)]), CactusLetter(1, 2))]
    assert subgroups.kernel_decompose(3, word(4, [(1, 3), (1, 4)])) == []


def test_kernel_decompose_verifies():
    rng = random.Random(31)
    for _ in range(50):
        w = sampling.random_word(4, 8, rng)
        i = rng.randint(2, 4)
        product = CactusWord(4)
        for conjugator, small in subgroups.kernel_decompose(i, w):
            product = product * conjugator * CactusWord(4, (small,)) * conjugator.inverse()
        assert cactus.equal(product * subgroups.eraser_slice(i, w), w)


def test_eraser_slice_is_section_and_homomorphism():
    rng = random.Random(32)
    for _ in range(100):
        i = rng.randint(2, 4)
        big = [
            (p, q)
            for p in range(1, 5)
            for q in range(p + 1, 5)
            if q - p + 1 >= i
        ]
        w = word(4, [rng.choice(big) for _ in range(rng.randint(0, 6))])
        assert subgroups.eraser_slice(i, w) == w
        u, v = sampling.random_word(4, 6, rng), sampling.random_word(4, 6, rng)
        assert cactus.equal(
            subgroups.eraser_slice(i, cactus.canonical(u * v)),
            subgroups.eraser_slice(i, u) * subgroups.eraser_slice(i, v),
        )


def test_filtration_quotients_via_erasers():
    # top quotient: erasing everything below the full leaf leaves s(1,n) only
    w = word(4, [(1, 2), (1, 4), (2, 3), (1, 4), (1, 3)])
    top = subgroups.eraser_slice(4, w)
    assert all(letter.leaf == 4 for letter in top.letters)
    assert cactus.order(top, bound=4) in (1, 2)
