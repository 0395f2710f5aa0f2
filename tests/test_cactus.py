import random
import tracemalloc

import pytest

import oracles
from oracles import exchange_class
from saguaro import cactus, racg, sampling
from saguaro.cactus import CactusLetter, CactusWord, word
from saguaro.perm import Permutation
from saguaro.racg import tau


def test_read_diagram_worked_example():
    r = cactus.read_diagram(word(4, [(1, 2), (2, 4), (1, 3)]))
    assert r.gauss.letters == (tau(1, 2), tau(1, 3, 4), tau(2, 3, 4))
    assert r.perm.images == (4, 3, 1, 2)


def test_read_diagram_empty():
    r = cactus.read_diagram(CactusWord(3))
    assert r.gauss.letters == ()
    assert r.perm == Permutation.identity(3)


def test_read_diagram_centralizer_word():
    # The full-twist-times-pure word used in the pure-centralizer argument;
    # its permutation is the full reversal, not the identity.
    r = cactus.read_diagram(word(4, [(1, 4), (1, 3), (1, 2), (2, 3), (1, 2)]))
    assert r.gauss.letters == (
        tau(1, 2, 3, 4), tau(2, 3, 4), tau(2, 3), tau(2, 4), tau(3, 4),
    )
    assert r.perm.images == (4, 3, 2, 1)


def test_exchange_left_cases():
    assert cactus.exchange_left(CactusLetter(1, 4), CactusLetter(1, 2)) == (
        CactusLetter(3, 4), CactusLetter(1, 4),
    )
    assert cactus.exchange_left(CactusLetter(1, 2), CactusLetter(3, 4)) == (
        CactusLetter(3, 4), CactusLetter(1, 2),
    )
    assert cactus.exchange_left(CactusLetter(1, 3), CactusLetter(2, 4)) is None
    assert cactus.exchange_left(CactusLetter(1, 2), CactusLetter(1, 4)) == (
        CactusLetter(1, 4), CactusLetter(3, 4),
    )


def test_reduce_examples():
    assert cactus.reduce(word(2, [(1, 2), (1, 2)])).letters == ()
    collapsed = cactus.reduce(word(4, [(1, 4), (1, 2), (1, 4), (3, 4)]))
    assert collapsed.letters == ()
    assert cactus.is_trivial(word(4, [(1, 4), (1, 2), (1, 4), (3, 4)]))
    w = word(3, [(1, 2), (2, 3), (1, 2)])
    assert cactus.reduce(w).letters == w.letters
    # irreducibility certified on the Gauss side by pairwise non-commutation
    d = cactus.read_diagram(w).gauss.letters
    assert all(not racg.commutes(a, b) for a, b in zip(d, d[1:]))


def test_canonical_examples():
    assert cactus.canonical(word(4, [(3, 4), (1, 2)])).letters == (
        CactusLetter(1, 2), CactusLetter(3, 4),
    )
    assert cactus.canonical(CactusWord(4)).letters == ()
    w = word(4, [(1, 4), (1, 2)])
    assert exchange_class(w) == {
        (CactusLetter(1, 4), CactusLetter(1, 2)),
        (CactusLetter(3, 4), CactusLetter(1, 4)),
    }
    assert cactus.canonical(w).letters == min(exchange_class(w))


def test_canonical_least_in_class():
    rng = random.Random(7)
    for _ in range(100):
        w = cactus.reduce(sampling.random_word(4, 6, rng))
        assert cactus.canonical(w).letters == min(exchange_class(w))


def test_equal_examples():
    assert not cactus.equal(
        word(3, [(1, 2), (2, 3), (1, 2)]), word(3, [(2, 3), (1, 2), (2, 3)])
    )
    assert cactus.equal(word(4, [(1, 4), (1, 2), (1, 4)]), word(4, [(3, 4)]))
    g = word(6, [(5, 6), (3, 4)])
    w = word(6, [(3, 4), (1, 2), (1, 4), (3, 6)])
    assert cactus.equal(cactus.conjugate(g, w), word(6, [(1, 4), (3, 6)]))


def test_equal_walks_only_the_middle(monkeypatch):
    # p a s = p b s iff a = b: the shared prefix and suffix are not read, and
    # the suffix scan stops where the prefix ends in the shorter word
    walked = []
    walk = cactus.walk

    def counted(letters, labels):
        walked.append(len(letters))
        return walk(letters, labels)

    monkeypatch.setattr(cactus, "walk", counted)
    p, s = [(1, 2), (2, 4), (1, 3)], [(3, 4), (1, 4)]
    for a, b, middle in (([(1, 2)], [(2, 3), (1, 3)], 3), ([], [(2, 3)], 1), ([(1, 4)], [(1, 4)], 0)):
        assert cactus.equal(word(4, p + a + s), word(4, p + b + s)) == (a == b)
        assert walked.pop() == middle
    assert cactus.equal(word(4, [(1, 2)] * 3), word(4, [(1, 2)] * 5))
    assert walked.pop() == 2
    assert not cactus.equal(word(4, p + s), word(4, p + [(2, 3)] + p + s))
    assert walked.pop() == 4


def test_equal_rejects_size_mismatch():
    with pytest.raises(ValueError):
        cactus.equal(CactusWord(3), CactusWord(4))


def test_geodesic_length():
    assert cactus.geodesic_length(word(3, [(1, 2), (1, 2), (1, 3)])) == 1
    assert cactus.geodesic_length(word(3, [(1, 2), (2, 3), (1, 2)])) == 3
    assert cactus.geodesic_length(CactusWord(3)) == 0


def test_geodesic_length_matches_gauss_side():
    rng = random.Random(8)
    for _ in range(100):
        w = sampling.random_word(5, 8, rng)
        gauss = cactus.read_diagram(w).gauss
        assert cactus.geodesic_length(w) == len(racg.reduce_letters(gauss.letters))


def test_order_examples():
    assert cactus.order(word(2, [(1, 2)])) == 2
    assert cactus.order(word(4, [(1, 2), (1, 4)])) == 4
    assert cactus.order(word(3, [(1, 2), (1, 3)]), bound=64) is None
    assert cactus.order(CactusWord(2)) == 1


def test_order_pushes_m_copies_whatever_the_bound(monkeypatch):
    # One walk reads m; the walk's masks are the first copy of c^m and each
    # further copy is one more walk.  s(1,2) s(1,3) has m = 3, not a power of
    # two, so it is decided infinite from that walk alone; s(1,2) s(1,4) has
    # m = 4 and takes four walks, however large the bound.
    walks = []
    walk = cactus.walk

    def counted(*args):
        walks.append(None)
        assert len(walks) <= 4, "more than m = 4 walks"
        return walk(*args)

    monkeypatch.setattr(cactus, "walk", counted)
    assert cactus.order(word(3, [(1, 2), (1, 3)]), bound=10**12) is None
    assert len(walks) == 1
    walks.clear()
    assert cactus.order(word(4, [(1, 2), (1, 4)]), bound=10**12) == 4
    assert len(walks) == 4


def test_decisions_keep_no_crossed_block():
    # s(1,n) repeated k times crosses k blocks of n labels; kept until the
    # push, their lists alone would hold k * n pointers of 8 bytes.  The walk
    # keeps one mask per letter, so the peak stays under half of that.
    n, k = 2_000, 200
    w = word(n, [(1, n)] * k)
    for decide in (cactus.canonical, lambda w: cactus.equal(w, CactusWord(n)), cactus.order):
        tracemalloc.start()
        try:
            decide(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < k * n * 8 // 2


def test_torsion_witnesses():
    assert cactus.torsion_witness(1).letters == (CactusLetter(1, 2),)
    assert cactus.torsion_witness(2).letters == (CactusLetter(1, 2), CactusLetter(1, 4))
    t3 = cactus.torsion_witness(3)
    assert t3.n == 8
    assert t3.letters == (CactusLetter(1, 2), CactusLetter(1, 4), CactusLetter(1, 8))
    assert cactus.order(t3, bound=64) == 8


def test_purity_and_centralizer_generator():
    b = word(3, [(1, 2), (1, 3)])
    a = b.power(3)
    assert cactus.is_pure(a)
    assert cactus.commute(b, a)
    assert cactus.equal(a, word(3, [(1, 2), (2, 3), (1, 2), (1, 3)]))


def test_conjugate_and_pad():
    g = word(4, [(1, 2), (1, 3)])
    c = word(4, [(2, 4)])
    conj = cactus.conjugate(g, c)
    assert conj.letters == g.letters + c.letters + tuple(reversed(g.letters))
    padded = cactus.pad(word(3, [(1, 2)]), 6)
    assert padded.n == 6 and padded.letters == (CactusLetter(1, 2),)
    with pytest.raises(ValueError):
        cactus.pad(word(4, [(1, 4)]), 3)


def test_cocycle_product_example():
    u = word(4, [(1, 2)])
    v = word(4, [(2, 4), (1, 3)])
    assembled = cactus.cocycle_product(u, v)
    direct = cactus.read_diagram(u * v)
    assert assembled.gauss.letters == direct.gauss.letters
    assert assembled.perm == direct.perm


def test_moves_preserve_element():
    rng = random.Random(9)
    for _ in range(300):
        w = sampling.random_word(5, 8, rng)
        assert cactus.equal(w, sampling.random_move(w, rng))


def test_exchange_lifts_to_commutation():
    # an exchange move transposes the two Gauss letters and changes no other
    rng = random.Random(10)
    checked = 0
    while checked < 200:
        w = sampling.random_word(5, 8, rng)
        spots = [m for m in sampling.applicable_moves(w) if m[0] == "exchange"]
        if not spots:
            continue
        i = rng.choice(spots)[1]
        moved = sampling.apply_move(w, ("exchange", i))
        before = cactus.read_diagram(w).gauss.letters
        after = cactus.read_diagram(moved).gauss.letters
        assert after == before[:i] + (before[i + 1], before[i]) + before[i + 2 :]
        assert racg.commutes(before[i], before[i + 1])
        checked += 1


def test_reduce_confluent_and_canonical_stable():
    rng = random.Random(11)
    for _ in range(200):
        w = sampling.random_word(4, 8, rng)
        reference = cactus.canonical(w)
        assert cactus.canonical(reference) == reference
        assert cactus.canonical(sampling.random_move(w, rng)) == reference
        assert len(cactus.reduce(w)) == len(reference.letters)


def all_cancellable_pairs(letters):
    pairs = []
    for j in range(1, len(letters)):
        moving = letters[j]
        for i in range(j - 1, -1, -1):
            if letters[i] == moving:
                pairs.append((i, j))
                break
            ex = cactus.exchange_left(letters[i], moving)
            if ex is None:
                break
            moving = ex[0]
    return pairs


def test_reduce_random_orders_agree_in_length():
    rng = random.Random(14)
    for _ in range(100):
        w = sampling.random_word(4, 8, rng)
        reference_length = len(cactus.reduce(w))
        for _ in range(3):
            letters = list(w.letters)
            while True:
                pairs = all_cancellable_pairs(letters)
                if not pairs:
                    break
                letters = oracles._apply_cancellation(letters, *rng.choice(pairs))
            assert len(letters) == reference_length


def test_identity_words_have_even_gauss_letter_counts():
    rng = random.Random(12)
    for _ in range(200):
        half = sampling.random_word(4, 6, rng)
        trivial = half * half.inverse()
        for _ in range(5):
            trivial = sampling.random_move(trivial, rng)
        counts = {}
        for letter in cactus.read_diagram(trivial).gauss.letters:
            counts[letter] = counts.get(letter, 0) + 1
        assert all(c % 2 == 0 for c in counts.values())


def test_purifying_tail():
    rng = random.Random(13)
    for _ in range(100):
        w = sampling.random_pure_word(5, 8, rng)
        assert cactus.is_pure(w)
