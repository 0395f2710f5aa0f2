"""Differential tests of the Gauss-engine procedures against the exchange-move
and greedy implementations they replaced, and of the word parsers against the
scanning parsers, all kept in oracles.py."""

import collections
import importlib
import pkgutil
import random
import re

import oracles
import saguaro
from saguaro import cactus, racg, render, sampling, selftest, subgroups, syntax
from saguaro.cactus import CactusLetter, word


def random_pairs(seed, count, sizes, max_length):
    """Word pairs, half of them equal (the second a relation-move scramble of
    the first) and half independent."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.choice(sizes)
        u = sampling.random_word(n, max_length, rng)
        if k % 2:
            v = sampling.random_word(n, max_length, rng)
        else:
            v = u
            for _ in range(rng.randint(0, 8)):
                v = sampling.random_move(v, rng)
        yield rng, u, v


def long_word(rng, n, length):
    starts = (rng.randint(1, n - 1) for _ in range(length))
    return word(n, [(p, rng.randint(p + 1, n)) for p in starts])


def test_reduce_canonical_equal_match_oracle():
    for _, u, v in random_pairs(31, 600, range(2, 9), 40):
        assert cactus.reduce(u) == oracles.reduce(u)
        assert cactus.canonical(u) == oracles.canonical(u)
        assert cactus.equal(u, v) == oracles.equal(u, v)


def test_long_words_match_oracle():
    rng = random.Random(32)
    for n in (4, 6, 8):
        u = long_word(rng, n, 200)
        v = u
        for _ in range(40):
            v = sampling.random_move(v, rng)
        assert cactus.reduce(u) == oracles.reduce(u)
        assert cactus.canonical(u) == oracles.canonical(u)
        assert cactus.equal(u, v) and oracles.equal(u, v)
        assert cactus.equal(u, u * v) == oracles.equal(u, u * v)


def shared_end_partners(rng, u):
    """Words sharing ends with u, spelled with letters of their own: u
    itself; one letter inserted, deleted or replaced, one cancelling pair
    inserted, and up to 8 letters replaced by random letters or scrambled by
    relation moves, at the start, the middle and the end; and the prefixes
    and suffixes of u."""
    letters, n = u.letters, u.n
    for i in sorted({0, len(letters) // 2, len(letters)}):
        x = sampling.random_letter(n, rng)
        yield letters[:i] + (x,) + letters[i:]
        yield letters[:i] + (x, x) + letters[i:]
        if i < len(letters):
            yield letters[:i] + letters[i + 1 :]
            yield letters[:i] + (x,) + letters[i + 1 :]
        block = cactus.CactusWord(n, letters[i : i + 8])
        yield letters[:i] + sampling.random_word(n, 8, rng).letters + letters[i + 8 :]
        for _ in range(6):
            block = sampling.random_move(block, rng)
        yield letters[:i] + block.letters + letters[i + 8 :]
    for k in sorted({0, 1, len(letters) // 2, len(letters)}):
        yield letters[:k]
        yield letters[len(letters) - k :]


def test_equal_matches_one_push_on_shared_ends():
    # equal cancels the words' common prefix and suffix before its one push;
    # the oracle pushes all of u v^-1
    rng = random.Random(33)
    answers = collections.Counter()
    for n in (2, 4, 12, 24):
        for length in (0, 1, 2, 3, 10, 200, 800):
            u = cactus.CactusWord(n, tuple(sampling.random_letter(n, rng) for _ in range(length)))
            for letters in shared_end_partners(rng, u):
                v = cactus.CactusWord(n, tuple(CactusLetter(x.p, x.q) for x in letters))
                for a, b in ((u, v), (v, u)):
                    answer = cactus.equal(a, b)
                    assert answer == oracles.label_equal(a, b), (str(a), str(b))
                    answers[answer] += 1
    assert answers[True] > 200 and answers[False] > 200, answers


def random_letters(rng, n, length, size=None):
    """Gauss letters on strands 1..n, of random sizes unless one is given."""
    return tuple(racg.tau(*rng.sample(range(1, n + 1), size or rng.randint(2, n)))
                 for _ in range(length))


def test_canonical_letters_match_greedy_scan():
    # Letters of one size commute exactly when disjoint, so on them the
    # engine also gives the canonical form of the width-i diagram group.
    for rng, u, _ in random_pairs(33, 600, range(2, 9), 40):
        gauss = cactus.read_diagram(u).gauss.letters
        n = u.n
        free = random_letters(rng, n, rng.randint(0, 30))
        same_size = random_letters(rng, n, rng.randint(0, 30), rng.randint(2, n))
        for letters in (gauss, free, same_size):
            assert racg.canonical_letters(letters) == oracles.canonical_letters(
                letters, oracles.commutes
            )
        assert racg.canonical_letters(same_size) == oracles.canonical_letters(
            same_size, oracles.commutes_disjoint
        )


def disjoint(a, b):
    return not a & b


def test_mask_engine_matches_generic_engine():
    # Each function against its old generic copy, under Gauss commutation.
    rng = random.Random(49)
    for _ in range(400):
        n = rng.randint(2, 10)
        length = rng.randint(0, 60)
        for letters in (random_letters(rng, n, length),
                        random_letters(rng, n, length, rng.randint(2, n))):
            masks = [letter.mask for letter in letters]
            mine, theirs = [], []
            for mask in masks:
                racg.push_letter(mine, mask)
                oracles.generic_push_letter(theirs, mask, oracles.generic_masks_commute)
                assert mine == theirs
            assert racg.push_masks([], masks) == theirs
            assert racg.reduce_letters(letters) == oracles.generic_reduce_letters(
                letters, oracles.commutes
            )
            assert racg.canonical_letters(letters) == oracles.generic_canonical_letters(
                letters, oracles.commutes
            )
            half = rng.randint(0, length)
            u, v = racg.GaussWord(n, letters[:half]), racg.GaussWord(n, letters[half:])
            for x, y in ((u, v), (u, u), (v, racg.racg_canonical(v))):
                assert racg.racg_equal(x, y) == (not oracles.generic_reduce_letters(
                    x.letters + tuple(reversed(y.letters)), oracles.commutes
                ))


def random_masks(rng, n, length, size=None):
    return [letter.mask for letter in random_letters(rng, n, length, size)]


def test_least_linearization_matches_all_pairs_kahn():
    # Reduced or not, the transitive reduction is the old one, and Kahn's
    # algorithm over it emits what it does over the full DAG.
    rng = random.Random(39)
    for _ in range(400):
        n = rng.randint(2, 10)
        letters = random_masks(rng, n, rng.randint(0, 60))
        for masks in (letters, racg.push_masks([], letters)):
            assert racg.reduction_dag(masks) == oracles.generic_reduction_dag(
                masks, oracles.generic_masks_commute
            )
            for key in (None, lambda m: -m):
                assert tuple(oracles.generic_least_linearization(
                    masks, oracles.generic_masks_commute, key
                )) == tuple(oracles.least_linearization(masks, oracles.generic_masks_commute, key))
        # on one size, reduction and DAG are those of disjointness
        same_size = random_masks(rng, n, rng.randint(0, 60), rng.randint(2, n))
        reduced = racg.push_masks([], same_size)
        assert reduced == list(oracles.generic_reduce_letters(same_size, disjoint))
        assert racg.reduction_dag(reduced) == oracles.generic_reduction_dag(reduced, disjoint)
        gauss = random_letters(rng, n, rng.randint(0, 40))
        assert racg.canonical_letters(gauss) == tuple(
            oracles.least_linearization(racg.reduce_letters(gauss), oracles.commutes)
        )


def span_linearizations(w):
    """The canonical form of w, linearized under the cactus key, the spelling
    of a mask under the running label state, by Kahn's algorithm over the old
    transitive reduction and over all pairs."""
    reduced = oracles.label_reading(w)
    out = []
    for impl in (oracles.generic_least_linearization, oracles.least_linearization):
        labels = list(range(1, w.n + 1))
        front = impl(reduced, oracles.generic_masks_commute,
                     key=lambda m: oracles._scan_span(labels, m))
        out.append(oracles._scan_respell(w.n, front, labels))
    return out


def test_least_linearization_matches_all_pairs_kahn_under_cactus_key():
    rng = random.Random(40)
    words = [long_word(rng, n, rng.randint(0, 200)) for n in range(2, 25) for _ in range(12)]
    words += [long_word(rng, 12, 2000), long_word(rng, 24, 2000)]
    for w in words:
        mine, theirs = span_linearizations(w)
        assert mine == theirs == cactus.canonical(w)



def test_canonical_matches_the_scanning_key():
    # The key reads the positions of a letter's strands from the strand ->
    # position list; the old one scanned every position for them.
    rng = random.Random(42)
    words = [long_word(rng, n, rng.randint(0, 200)) for n in range(2, 25) for _ in range(12)]
    words += [long_word(rng, 12, 2000)]
    for w in words:
        assert cactus.canonical(w) == oracles.scan_canonical(w)


def structured_words():
    """Words whose canonical forms reflect nested sources: towers of nested
    letters, the torsion witnesses and their powers, and chains."""
    for n in (4, 5, 8, 13, 24):
        tower = word(n, [(1, k) for k in range(n, 1, -1)])
        centred = word(n, [(k, n + 1 - k) for k in range(1, n // 2 + 1)])
        yield from (tower, tower.inverse(), tower * tower, centred, centred.inverse() * tower)
        yield word(n, [(1, n), (2, n - 1)] * n)
        yield word(n, [(p, p + 1) for p in range(1, n)] * 3)
        yield word(n, [(p, min(p + 2, n)) for p in range(1, n)] * 3)
    for k in range(1, 5):
        c = cactus.torsion_witness(k)
        yield from (c, c.power(3), c.power(2 ** k - 1), c * c.inverse().power(2))


def test_canonical_matches_key_canonical():
    # One Kahn pass with spans kept per source against the lazy key
    # re-evaluated for every source at every step and a second spelling pass.
    rng = random.Random(47)
    words = [long_word(rng, n, rng.choice((1, 5, 20, 80, 300)))
             for n in range(2, 25) for _ in range(10)]
    words += [long_word(rng, n, 2000) for n in (2, 5, 12, 24)]
    words += list(structured_words())
    for w in words:
        assert cactus.canonical(w) == oracles.key_canonical(w)


def test_canonical_computes_each_span_once(monkeypatch):
    calls = []

    def counted(strands, where):
        calls.append(None)
        return original(strands, where)

    original = cactus._span
    monkeypatch.setattr(cactus, "_span", counted)
    rng = random.Random(48)
    words = [long_word(rng, n, length) for n in (4, 12, 24) for length in (10, 200)]
    for w in words + list(structured_words()):
        calls.clear()
        reference = oracles.key_canonical(w)
        assert cactus.canonical(w) == reference
        assert len(calls) == len(reference)


def test_reduce_matches_object_reduce():
    # Spans spelled by a generator and wrapped into letters against the
    # re-spelling that built the letters and the word itself.
    rng = random.Random(49)
    words = [long_word(rng, n, rng.choice((0, 1, 5, 20, 80))) for n in range(2, 25) for _ in range(10)]
    words += list(structured_words())
    for w in words:
        assert cactus.reduce(w) == oracles.object_reduce(w)


def test_reduce_computes_each_span_once(monkeypatch):
    calls = []

    def counted(labels, mask):
        calls.append(None)
        return original(labels, mask)

    original = cactus._span
    monkeypatch.setattr(cactus, "_span", counted)
    rng = random.Random(64)
    words = [long_word(rng, n, length) for n in (4, 12, 24) for length in (10, 200)]
    for w in words + list(structured_words()):
        calls.clear()
        reference = oracles.where_reduce(w)
        assert cactus.reduce(w) == reference
        assert len(calls) == len(reference)


def narrow_word(rng, n, length, leaf=5):
    """A word of letters of at most `leaf` leaves, anywhere in 1..n."""
    starts = (rng.randint(1, n - 1) for _ in range(length))
    return word(n, [(p, rng.randint(p + 1, min(p + leaf - 1, n))) for p in starts])


def test_block_spelling_matches_the_where_spelling():
    # Each span found by one list.index on the label state and crossed by one
    # slice reversal, against the strand -> position list whose strands were
    # mirrored one by one: random words, nested structures, and narrow words
    # on many strands, where the scan for the lowest strand is longest.
    rng = random.Random(65)
    words = [long_word(rng, n, rng.choice((0, 1, 5, 20, 80, 300))) for n in range(2, 25) for _ in range(8)]
    words += [long_word(rng, n, 2000) for n in (2, 7, 12, 24)]
    words += list(structured_words())
    words += [narrow_word(rng, n, length) for n in (1000, 10_000) for length in (0, 1, 40, 300)]
    words += [word(n, [(1, n), (2, n - 1), (1, 2), (n - 1, n), (1, n)]) for n in (1000, 10_000)]
    for w in words:
        assert cactus.canonical(w) == oracles.where_canonical(w), w
        assert cactus.reduce(w) == oracles.where_reduce(w), w
        assert list(cactus.reduced_spans(w)) == list(oracles.where_reduced_spans(w))


def test_is_member_matches_the_where_spelling():
    rng = random.Random(66)
    for n in range(2, 25):
        for c in member_collections(rng, n):
            for w, expected in member_words(rng, c):
                got = subgroups.is_member(w, c)
                assert got == oracles.where_is_member(w, c), (w, sorted(c.intervals))
                assert expected is None or got == expected, (w, sorted(c.intervals))
    for n in (1000, 10_000):
        c = subgroups.IntervalCollection.slice(n, 2, 3)
        for _ in range(3):
            m = narrow_word(rng, n, 200, leaf=3)
            for _ in range(20):
                m = sampling.random_move(m, rng)
            p = rng.randint(1, n - 4)
            x = word(n, [(p, p + 4)])
            for w, expected in ((m, True), (x * m, False), (m * x * m.inverse(), False),
                                (narrow_word(rng, n, 200), None)):
                got = subgroups.is_member(w, c)
                assert got == oracles.where_is_member(w, c)
                assert expected is None or got == expected


def member_collections(rng, n):
    """Symmetric collections on n strands: random closures, slices and the twin slice."""
    yield subgroups.IntervalCollection.slice(n, 2, 2)
    for _ in range(3):
        i = rng.randint(2, n)
        yield subgroups.IntervalCollection.slice(n, i, rng.randint(i, n))
    for _ in range(3):
        seeds = [sampling.random_letter(n, rng) for _ in range(rng.randint(1, 3))]
        yield subgroups.symmetric_closure(subgroups.IntervalCollection.of(n, [(x.p, x.q) for x in seeds]))


def member_words(rng, c):
    """(word, expected membership or None) pairs: words over the collection
    scrambled by relation moves, which insert pairs x x of any letter; such a
    word times a letter outside the collection; and random words."""
    inside = sorted(c.intervals)
    outside = [(p, q) for p in range(1, c.n) for q in range(p + 1, c.n + 1)
               if (p, q) not in c.intervals]
    for _ in range(6):
        m = word(c.n, [rng.choice(inside) for _ in range(rng.randint(0, 12))])
        for _ in range(rng.randint(0, 10)):
            m = sampling.random_move(m, rng)
        yield m, True
        if outside:
            x = word(c.n, [rng.choice(outside)])
            yield x * m, False
            yield m * x * m.inverse(), False
    for _ in range(6):
        yield sampling.random_word(c.n, 12, rng), None


def test_is_member_matches_canonical_oracle():
    rng = random.Random(50)
    for n in range(2, 25):
        for c in member_collections(rng, n):
            for w, expected in member_words(rng, c):
                got = subgroups.is_member(w, c)
                assert got == oracles.canonical_is_member(w, c), (w, sorted(c.intervals))
                assert expected is None or got == expected, (w, sorted(c.intervals))


def test_is_member_refuses_what_the_oracle_refuses():
    rng = random.Random(51)
    for n in range(3, 9):
        for _ in range(20):
            c = subgroups.IntervalCollection.of(n, [(x.p, x.q) for x in
                                                   (sampling.random_letter(n, rng) for _ in range(3))])
            w = sampling.random_word(n, 6, rng)
            outcomes = []
            for decide in (subgroups.is_member, oracles.canonical_is_member):
                try:
                    outcomes.append(decide(w, c))
                except ValueError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]


def test_slice_matches_all_pairs_filter():
    for n in range(2, 13):
        for i in range(2, n + 1):
            for j in range(i, n + 1):
                got = subgroups.IntervalCollection.slice(n, i, j).intervals
                assert got == oracles.slice_intervals(n, i, j), (n, i, j)


def test_exchange_left_matches_the_predicate_exchange_on_every_pair():
    # Every ordered pair of intervals for n <= 8: no move exactly on crossing
    # pairs, otherwise the same element, spelled as the old method-based move.
    crossing = 0
    for n in range(2, 9):
        letters = [CactusLetter(p, q) for p in range(1, n) for q in range(p + 1, n + 1)]
        for x in letters:
            for y in letters:
                (a, b), (c, d) = (x.p, x.q), (y.p, y.q)
                moved = cactus.exchange_left(x, y)
                assert moved == oracles.predicate_exchange_left(x, y), (x, y)
                if a < c <= b < d or c < a <= d < b:
                    assert moved is None, (x, y)
                    crossing += 1
                else:
                    assert cactus.equal(cactus.CactusWord(n, (x, y)), cactus.CactusWord(n, moved)), (x, y)
    assert crossing > 0


def random_collection(n: int, rng: random.Random) -> subgroups.IntervalCollection:
    """Up to n + 3 intervals, about a third of them sharing a left end with an
    earlier one, so that ties in the left end are common."""
    intervals: list[tuple[int, int]] = []
    for _ in range(rng.randint(0, n + 3)):
        if intervals and rng.random() < 0.35:
            p = rng.choice(intervals)[0]
        else:
            p = rng.randint(1, n - 1)
        intervals.append((p, rng.randint(p + 1, n)))
    return subgroups.IntervalCollection.of(n, intervals)


def test_nested_pairs_match_all_ordered_pairs():
    rng = random.Random(59)
    symmetric = 0
    for _ in range(600):
        c = random_collection(rng.randint(2, 12), rng)
        pairs = list(subgroups._nested_pairs(c.intervals))
        assert len(pairs) == len(set(pairs))
        assert set(pairs) == set(oracles.nested_pairs(c.intervals)), sorted(c.intervals)
        assert subgroups.is_symmetric(c) == oracles.is_symmetric(c)
        closure = subgroups.symmetric_closure(c).intervals
        assert closure == oracles.symmetric_closure_intervals(c)
        symmetric += oracles.is_symmetric(c)
    for n in range(2, 13):
        for i in range(2, n + 1):
            c = subgroups.IntervalCollection.slice(n, i, n)
            assert sorted(subgroups._nested_pairs(c.intervals)) == sorted(oracles.nested_pairs(c.intervals))
    assert 0 < symmetric < 600


def test_least_linearization_matches_all_pairs_kahn_on_structured_words():
    tau = racg.tau
    disjoint_letters = [tau(2 * k + 1, 2 * k + 2) for k in range(12)]
    random.Random(41).shuffle(disjoint_letters)
    tower = [tau(*range(1, k + 1)) for k in range(2, 13)]
    chain = [tau(1, 2), tau(2, 3)] * 50
    for letters in (disjoint_letters, tower, tower[::-1], chain):
        masks = [letter.mask for letter in letters]
        assert racg.reduction_dag(masks) == oracles.generic_reduction_dag(
            masks, oracles.generic_masks_commute
        )
        mine = racg.canonical_letters(letters)
        assert mine == tuple(oracles.least_linearization(letters, oracles.commutes))
        assert mine == oracles.canonical_letters(letters, oracles.commutes)
        assert mine == oracles.generic_canonical_letters(letters, oracles.commutes)
    for letters in (disjoint_letters, chain):
        assert racg.canonical_letters(letters) == oracles.canonical_letters(
            letters, oracles.commutes_disjoint
        )
    assert racg.canonical_letters(disjoint_letters) == tuple(sorted(disjoint_letters))


class CountedReads(list):
    """A list that counts its reads by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_least_linearization_tests_only_the_chain_on_a_chain():
    # (t{1,2} t{2,3})^k: every letter's only direct predecessor is the one
    # before it, which already covers all the others.
    for k in (1, 2, 10, 500):
        chain = (racg.tau(1, 2), racg.tau(2, 3)) * k
        masks = CountedReads(letter.mask for letter in chain)
        successors, blockers = racg.reduction_dag(masks)
        assert successors == [[j] for j in range(1, 2 * k)] + [[]]
        assert blockers == [0] + [1] * (2 * k - 1)
        assert masks.reads == 2 * k - 1
        assert racg.canonical_letters(chain) == chain


def test_eraser_width_matches_oracle():
    for _, u, _ in random_pairs(34, 600, range(2, 9), 40):
        for i in range(2, u.n + 1):
            assert subgroups.eraser_width(i, u) == oracles.eraser_width(i, u)


def test_reduction_of_twin_words_stays_in_the_twin_alphabet():
    # Every letter an exchange-move reduction passes through is 2-leaf.
    rng = random.Random(35)
    adjacent = [(1, 2), (2, 3), (3, 4)]
    for _ in range(200):
        base = word(4, [rng.choice(adjacent) for _ in range(rng.randint(1, 6))])
        trivial = base * base.inverse()
        for _ in range(rng.randint(0, 12)):
            moves = [m for m in sampling.applicable_moves(trivial) if m[0] != "insert"]
            if rng.random() < 0.3 or not moves:
                pos = rng.randint(0, len(trivial.letters))
                trivial = sampling.apply_move(
                    trivial, ("insert", pos), CactusLetter(*rng.choice(adjacent))
                )
            else:
                trivial = sampling.apply_move(trivial, rng.choice(moves))
        reduced, touched = oracles.reduce_with_trace(trivial)
        assert reduced.letters == ()
        assert all(letter.leaf == 2 for letter in touched)


def test_strand_permutation_matches_diagram_reading():
    rng = random.Random(37)
    for _ in range(600):
        n = rng.randint(1, 8)
        w = long_word(rng, n, rng.randint(0, 40) if n > 1 else 0)
        perm = oracles.read_diagram(w).perm
        assert cactus.s_image(w) == perm
        assert cactus.is_pure(w) == perm.is_identity()
        pure = w * sampling.purifying_tail(perm)
        assert cactus.is_pure(pure) and oracles.read_diagram(pure).perm.is_identity()


def test_order_matches_bounded_probe():
    rng = random.Random(38)
    words = [
        sampling.random_word(n, 12, rng) if n > 1 else word(1, [])
        for n in range(1, 11)
        for _ in range(60)
    ]
    words += [sampling.random_pure_word(n, 8, rng) for n in (4, 5, 6) for _ in range(60)]
    words += [cactus.torsion_witness(k) for k in range(1, 5)]
    mismatches = [
        (str(w), w.n, bound)
        for w in words
        for bound in (1, 2, 3, 4, 6, 8, 12, 64)
        if cactus.order(w, bound) != oracles.order(w, bound)
    ]
    assert mismatches == []


def test_mask_kernel_matches_integer_label_reading():
    # Bit labels and racg.push_masks against integer labels pushed one generic
    # push_letter call at a time; equal pairs come from relation moves.
    rng = random.Random(44)
    words = [long_word(rng, n, rng.choice((0, 1, 3, 10, 40, 200)))
             for n in range(2, 25) for _ in range(6)]
    words += [long_word(rng, n, 800) for n in (2, 3, 6, 12, 24)]
    words += [cactus.torsion_witness(k) for k in range(1, 5)]
    for w in words:
        v = w
        for _ in range(rng.randint(0, 6)):
            v = sampling.random_move(v, rng)
        other = long_word(rng, w.n, len(w))
        assert cactus.is_trivial(w) == (not oracles.label_reading(w))
        assert cactus.is_trivial(w * v.inverse())
        for x in (v, other, w * w):
            assert cactus.equal(w, x) == oracles.label_equal(w, x)
        assert cactus.reduce(w) == oracles.label_reduce(w)
        assert cactus.canonical(w) == oracles.scan_canonical(w)
        for bound in (1, 2, 3, 8, 64):
            assert cactus.order(w, bound) == oracles.one_power_order(w, bound)


def test_integer_render_matches_float_render():
    rng = random.Random(45)
    words = [long_word(rng, n, rng.randint(0, 40)) for n in range(2, 25) for _ in range(10)]
    words += [word(n, []) for n in (1, 2, 24)]
    for w in words:
        for labels in (False, True):
            assert render.render_svg(w, labels) == oracles.render_svg(w, labels)


def container_sizes():
    sizes = {}
    for info in pkgutil.walk_packages(saguaro.__path__, "saguaro."):
        module = importlib.import_module(info.name)
        for name, value in vars(module).items():
            if not name.startswith("__") and isinstance(value, (dict, list, set, bytearray)):
                sizes[f"{info.name}.{name}"] = len(value)
    return sizes


def test_no_module_level_container_grows():
    before = container_sizes()
    rng = random.Random(36)
    for _ in range(100):
        u, v = long_word(rng, 12, 60), long_word(rng, 12, 60)
        cactus.equal(u, v)
        cactus.canonical(u)
        syntax.parse_cactus_word(syntax.format_cactus_word(u), 12)
        syntax.parse_gauss_word(syntax.format_gauss_word(cactus.read_diagram(v).gauss), 12)
    for text in presentation_texts(random.Random(37), 50):
        parse_outcome(syntax.parse_presentation, text)
    assert container_sizes() == before


def tiny_word_kernel_inputs():
    """Every element of the J4 ball of radius 5 and of the J5 ball of radius
    4, as canonical forms, then the seeded long and structured words."""
    for n, radius, sizes in ((4, 5, [1, 6, 20, 55, 145, 380]), (5, 4, [1, 10, 60, 305, 1481])):
        ball = selftest.spheres(n, radius)
        assert [len(sphere) for sphere in ball] == sizes
        for sphere in ball:
            yield from sphere
    rng = random.Random(60)
    yield from (long_word(rng, n, rng.choice((0, 1, 5, 20, 80, 300)))
                for n in range(2, 25) for _ in range(6))
    yield from (long_word(rng, n, 2000) for n in (2, 5, 12, 24))
    yield from structured_words()


def test_tiny_word_kernels_match_the_generator_walk_kernels():
    # The list walk, the reversed push scan, the list-based Kahn pass, the
    # permutation-free order and the one-string-per-crossing render against
    # the kernels they replaced.
    twins = {n: subgroups.IntervalCollection.slice(n, 2, 2) for n in range(2, 25)}
    for w in tiny_word_kernel_inputs():
        labels, old_labels = list(range(1, w.n + 1)), list(range(1, w.n + 1))
        assert cactus.walk(w.letters, labels, list) == [block for _, block in oracles.walk(w.letters, old_labels)]
        assert labels == old_labels
        masks = cactus.walk(w.letters, cactus._bits(w.n))
        assert racg.push_masks([], masks) == oracles.gen_push_masks([], masks)
        assert cactus.canonical(w) == oracles.gen_canonical(w)
        assert cactus.reduce(w) == oracles.gen_reduce(w)
        for bound in (1, 2, 4, 64):
            assert cactus.order(w, bound) == oracles.gen_order(w, bound)
        assert subgroups.is_member(w, twins[w.n]) == oracles.gen_is_member(w, twins[w.n])
        for with_labels in (False, True):
            assert render.render_svg(w, with_labels) == oracles.gen_render_svg(w, with_labels)


def test_reading_kernel_matches_the_block_keeping_kernel():
    # The walk that reads each block and reverses it in place, and the push
    # that scans back by index, against the walk that kept every block and
    # the push that scanned with reversed(), also pushing onto a reduced word.
    rng = random.Random(61)
    words = list(tiny_word_kernel_inputs())
    words += [long_word(rng, 1000, length) for length in (0, 1, 40, 300) for _ in range(3)]
    words += [narrow_word(rng, 1000, length) for length in (40, 300, 2000) for _ in range(3)]
    for w in words:
        labels, old_labels = list(range(1, w.n + 1)), list(range(1, w.n + 1))
        blocks = oracles.block_walk(w.letters, old_labels)
        assert cactus.walk(w.letters, labels, list) == blocks
        assert labels == old_labels
        labels = list(range(1, w.n + 1))
        assert cactus.walk(w.letters, labels, tuple) == list(map(tuple, blocks))
        assert labels == old_labels
        bits, old_bits = cactus._bits(w.n), cactus._bits(w.n)
        masks = cactus.walk(w.letters, bits)
        assert masks == list(map(sum, oracles.block_walk(w.letters, old_bits)))
        assert bits == old_bits
        reduced = racg.push_masks([], masks)
        assert reduced == oracles.reversed_push_masks([], masks)
        assert racg.push_masks(list(reduced), masks) == oracles.reversed_push_masks(list(reduced), masks)
        assert racg.push_masks(list(reduced), masks[::-1]) == oracles.reversed_push_masks(list(reduced), masks[::-1])


def test_ball_orders():
    # J4 ball of radius 5: orders 1, 2 (76 elements), 4 (8) and infinite (522)
    ball = [w for sphere in selftest.spheres(4, 5) for w in sphere]
    orders = collections.Counter(cactus.order(w) for w in ball)
    assert orders == {1: 1, 2: 76, 4: 8, None: 522}


def test_sphere_sizes_by_relation_moves():
    assert selftest._sphere_sizes_by_moves(4, 3) == [1, 6, 20, 55]
    assert selftest._sphere_sizes_by_moves(5, 3) == [1, 10, 60, 305]
    assert [len(sphere) for sphere in selftest.spheres(6, 3)] == [1, 15, 140, 1120]


def test_order_matches_the_m_power_order():
    # The torsion theorem decides a non-power-of-two m without a push; the
    # oracle pushes c^m whatever m is.
    words = [w for sphere in selftest.spheres(5, 5) for w in sphere]
    rng = random.Random(61)
    words += [sampling.random_word(n, 12, rng) for n in range(2, 13) for _ in range(300)]
    mismatches = [(str(w), w.n, bound) for w in words for bound in (1, 2, 3, 4, 64)
                  if cactus.order(w, bound) != oracles.m_power_order(w, bound)]
    assert mismatches == []


SPACES = ("", " ", "  ", "\t", "\n", " \n\t ", "\u00a0", "\u2003")


def exponent(rng):
    """Exponent text: absent, small, negative, zero, leading zeros, over 9 digits."""
    return rng.choice(("", "", "", "^2", "^-1", "^-3", "^0", "^-0", "^007", "^-0010",
                       f"^{rng.randint(10**9, 10**13)}", f"^-{rng.randint(10**9, 10**13)}"))


def garble(rng, text):
    """Sometimes insert one stray character into text."""
    if text and rng.random() < 0.2:
        i = rng.randrange(len(text) + 1)
        return text[:i] + rng.choice("x?^(,)-1}{;é") + text[i:]
    return text


def cactus_texts(rng, count):
    for _ in range(count):
        n = rng.randint(2, 9)
        terms = []
        for _ in range(rng.randint(0, 12)):
            p = rng.randint(1, n - 1)
            q = rng.randint(p + 1, n) if rng.random() > 0.05 else n + 1
            zeros = "0" * rng.choice((0, 0, 0, 1, 3))
            pad = [rng.choice(SPACES) for _ in range(4)]
            terms.append(f"s({pad[0]}{zeros}{p}{pad[1]},{pad[2]}{q}{pad[3]}){exponent(rng)}")
        text = rng.choice(SPACES) + "".join(t + rng.choice(SPACES[1:] + ("",)) for t in terms)
        yield garble(rng, text), n


def gauss_texts(rng, count):
    for _ in range(count):
        n = rng.randint(2, 8)
        terms = []
        for _ in range(rng.randint(0, 8)):
            labels = sorted(rng.sample(range(1, n + 2), rng.randint(2, min(n, 4))))
            if rng.random() < 0.05:
                labels.reverse()
            pad = rng.choice(SPACES)
            terms.append("t{" + pad + f"{pad},{pad}".join(map(str, labels)) + "}")
        yield garble(rng, rng.choice(SPACES).join(terms) + rng.choice(SPACES)), n


def presentation_texts(rng, count):
    for _ in range(count):
        names = rng.sample(["x", "y", "z1", "a.b", "_g"], rng.randint(1, 4))
        chunks = ["gens: " + " ".join(names)]
        for _ in range(rng.randint(0, 5)):
            sides = []
            for _ in range(rng.randint(1, 3)):
                terms = [rng.choice(names + ["1", "w"]) for _ in range(rng.randint(0, 5))]
                sides.append(" ".join(t + exponent(rng) if t != "1" else t for t in terms))
            chunks.append("rels: " + rng.choice(SPACES) + " = ".join(sides))
        if rng.random() < 0.2:
            chunks.append("# " + rng.choice(names))
        yield garble(rng, "".join(c + rng.choice(("\n", "; ", "\n\n")) for c in chunks))


MALFORMED = [
    ("cactus", "s(1,9) x", 4), ("cactus", "s(1,2", 4), ("cactus", "s(1,2)^", 4),
    ("cactus", "s(1,2)^+1", 4), ("cactus", "S(1,2)", 4), ("cactus", "s (1,2)", 4),
    ("cactus", "s(1;2)", 4), ("cactus", "s(3,2)", 4), ("cactus", "s(0,2)", 4),
    ("cactus", "s(1,2)s(2,3)", 4), ("cactus", "s(1,2) s(1,5)^2 s(", 4),
    ("cactus", "\n\n s(1,2)\t?", 4), ("cactus", "s(1,9)^2 s(1,2)", 4), ("cactus", "s(1,2) x", 1),
    ("cactus", "s(\u0661,\u0662)", 4), ("cactus", "s(1,2)^" + "1" * 5000, 4),
    ("cactus", "s(1,2)" + " " * 20_000, 4), ("cactus", "é" + " " * 20_000, 4),
    ("gauss", "t{1,9} t{2,1} t{", 4), ("gauss", "t{2,1}", 4), ("gauss", "t{1,1}", 4),
    ("gauss", "t{1}", 4), ("gauss", "t{1,5}", 4), ("gauss", "t{0,1}", 4), ("gauss", "t{1,2}x", 4),
    ("gauss", "t{ 1 , 2 }t{3,4}", 4), ("gauss", "t{1,2,}", 4), ("gauss", "t{1,2} t{2,1}", 1),
    ("gauss", "t{1,2} t{2,1}" + " " * 20_000, 4),
    ("presentation", "gens: x; rels: y x^", 0), ("presentation", "gens: x\nrels: x y", 0),
    ("presentation", "gens: x y\nrels: x^2 = y^-0003 = 1 # c", 0),
    ("presentation", "gens: x; rels: x^10001", 0), ("presentation", "gens: x; rels: x^" + "9" * 12, 0),
    ("presentation", "gens: 1x", 0), ("presentation", "rels: x", 0), ("presentation", "foo: x", 0),
    ("presentation", "gens: x; rels: 12", 0), ("presentation", "gens: x; rels: x 1 x^-1", 0),
    ("presentation", "gens: x.y _z; rels: x.y^2 _z^-1 = 1", 0),
    ("presentation", "gens: x; rels: x^2 = ", 0), ("presentation", "gens: x; rels: = x ?", 0),
    ("presentation", "gens: x\nrels: x^2 = x = y", 0), ("presentation", "gens: x; rels: x^-", 0),
]


def parse_outcome(parse, *args):
    """The parse result, or the class, message and position of its error."""
    try:
        return parse(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


PARSERS = {
    "cactus": (syntax.parse_cactus_word, oracles.scan_parse_cactus_word),
    "gauss": (syntax.parse_gauss_word, oracles.scan_parse_gauss_word),
    "presentation": (lambda text, _: syntax.parse_presentation(text),
                     lambda text, _: oracles.scan_parse_presentation(text)),
}


def scanner_outcome(grammar, text, n, got):
    """The scanning parser's outcome on text, with the two changes made since
    it was replaced.  A cactus exponent counts by its last digit, so where
    the scanner's int() refuses one (over 4,300 digits) the text is scanned
    with each exponent cut to its last digit.  An unexpected character in a
    relator is located in the whole text, not in its side: the side the
    scanner located it in must start right after the ':' of "rels:" or an
    '=' and hold no separator up to the character got reports."""
    old = parse_outcome(PARSERS[grammar][1], text, n)
    if grammar == "cactus" and isinstance(old, tuple) and "integer string conversion" in old[1]:
        return parse_outcome(PARSERS[grammar][1], re.sub(r"\^(-?)\d*(\d)", r"^\1\2", text), n)
    if grammar == "presentation" and isinstance(old, tuple) and old[1].startswith("unexpected"):
        cls, message, position = old
        at = got[2] if isinstance(got, tuple) and got[2] is not None else -1
        side = at - position
        assert side >= 1 and text[side - 1] in ":=", (text, at, position)
        assert not set(text[side:at]) & set(":=;#\n") and repr(text[at]) in message, (text, at, position)
        return cls, message.replace(f"(at position {position})", f"(at position {at})"), at
    return old


def test_parsers_match_the_scanning_parsers():
    # The one-findall tokenizer against the scanner that made two regex
    # calls per term: equal results, or errors of one class, message and
    # position, but for the changes scanner_outcome makes.
    rng = random.Random(62)
    corpus = list(MALFORMED)
    corpus += [("cactus", text, n) for text, n in cactus_texts(rng, 3000)]
    corpus += [("gauss", text, n) for text, n in gauss_texts(rng, 1500)]
    corpus += [("presentation", text, 0) for text in presentation_texts(rng, 1500)]
    outcomes = collections.Counter()
    for grammar, text, n in corpus:
        got = parse_outcome(PARSERS[grammar][0], text, n)
        assert got == scanner_outcome(grammar, text, n, got), (grammar, text, n)
        outcomes[grammar, got[0].__name__ if isinstance(got, tuple) else "ok"] += 1
    # the corpus reaches every kind of outcome in every grammar
    for grammar in PARSERS:
        for kind in ("ok", "WordSyntaxError"):
            assert outcomes[grammar, kind] > 20, (grammar, kind, outcomes)
    assert outcomes["cactus", "BoundsError"] > 20 and outcomes["gauss", "BoundsError"] > 20
