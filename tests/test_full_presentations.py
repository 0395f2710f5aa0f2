"""The Reidemeister-Schreier pipeline on the full presentations of J4 and J5
(every interval generator s<p><q>): the transversal and rewriting, Tietze and
Smith normal form checked against the earlier implementations kept in
oracles.py, and the pure cactus groups PJ4 and PJ5 checked against published
invariants and, relator by relator, against the cactus word problem."""

import itertools
import random

import pytest

import oracles
from saguaro import cactus, presentation
from saguaro.presentation import (
    Presentation,
    SimplifiedPresentation,
    abelianization,
    builtin,
    exponent_matrix,
    free_reduce,
    invert_word,
    involutive_generators,
    positive_word,
    smith_diagonal,
    tietze_simplify,
    tietze_step,
)
from saguaro.rschreier import (
    Transversal,
    build_transversal,
    expand_rs_word,
    rewrite,
    rs_generators,
    rs_relators,
    strand_images,
)
from saguaro.perm import Permutation
from saguaro.selftest import _rs_word_to_cactus


def full_presentation(n: int, seed: int) -> Presentation:
    """J_n on all s<p><q>: involutions, one commutator per disjoint pair, and
    s_x s_y s_x = s_y' for each y nested in x, y' its mirror image in x; the
    seed shuffles the relator order."""
    intervals = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    name = {pq: f"s{pq[0]}{pq[1]}" for pq in intervals}
    relators = [positive_word(name[x], name[x]) for x in intervals]
    for x, y in itertools.permutations(intervals, 2):
        if x[1] < y[0]:
            commuted = positive_word(name[y], name[x])
            relators.append(positive_word(name[x], name[y]) + invert_word(commuted))
        elif x[0] <= y[0] and y[1] <= x[1]:
            mirror = (x[0] + x[1] - y[1], x[0] + x[1] - y[0])
            relators.append(positive_word(name[x], name[y], name[x]) + ((name[mirror], -1),))
    random.Random(seed).shuffle(relators)
    return Presentation(tuple(name[x] for x in intervals), tuple(relators))


def rs_data(p: Presentation, n: int) -> tuple[Transversal, Presentation]:
    t = build_transversal(p, strand_images(p, n))
    generators = tuple(g.name for g in rs_generators(t))
    return t, Presentation(generators, tuple(rs_relators(p, t)))


def raw_rs(p: Presentation, n: int) -> Presentation:
    return rs_data(p, n)[1]


@pytest.fixture(scope="module")
def raw_j4():
    return raw_rs(full_presentation(4, 1), 4)


@pytest.fixture(scope="module")
def j5():
    return rs_data(full_presentation(5, 1), 5)


def test_rs_relators_are_the_rewritten_conjugates():
    for p, n in ((builtin("J4"), 4), (full_presentation(4, 2), 4)):
        t = build_transversal(p, strand_images(p, n))
        conjugates = (rep + rel + invert_word(rep) for rep in t.reps for rel in p.relators)
        expected = [w for w in map(free_reduce, (rewrite(t, c) for c in conjugates)) if w]
        assert rs_relators(p, t) == expected


def oracle_step(old: oracles.NamedTransversal, k: int, g: str, sign: int) -> tuple:
    """Where g^sign leads from coset k in the oracle's tables: (that coset,
    the letter it rewrites to or None, the inverse of that letter)."""
    j = old.action[k][g] if sign == 1 else old.inverse_action[k][g]
    edge = k if sign == 1 else j  # the coset whose a_{edge,g} this crosses
    if not old.words[edge][g]:
        return j, None, None
    name = old.name(edge, g)
    return j, (name, sign), (name, -sign)


def assert_rs_matches_oracle(p: Presentation, images) -> tuple:
    """The transversal, its step table in both directions, its a_{k,x}
    words, the RS generators and the rewritten relators, in order, equal
    those of the name-keyed oracle."""
    t = build_transversal(p, images)
    old = oracles.NamedTransversal(p.generators, images, involutive_generators(p))
    assert t.reps == old.reps
    for k in range(len(old)):
        assert [s[0] for s in t.steps[k][::2]] == [old.action[k][g] for g in p.generators]
        expected = [oracle_step(old, k, g, sign) for g in p.generators for sign in (1, -1)]
        assert t.steps[k] == expected
        # both directions of an edge share its letters, which rs_relators
        # compares by identity
        for i, (j, letter, inverse) in enumerate(t.steps[k][::2]):
            _, back, undo = t.steps[j][2 * i + 1]
            assert back is inverse and undo is letter
    assert t.word_of_name == old.word_of_name
    assert rs_generators(t) == oracles.named_rs_generators(old)
    assert rs_relators(p, t) == oracles.named_rs_relators(p, old)
    return t, old


@pytest.mark.parametrize("p,n", [(builtin("J3"), 3), (builtin("J4"), 4)]
                         + [(full_presentation(n, seed), n) for n in (4, 5) for seed in (1, 2, 3)])
def test_rs_matches_oracle_on_cactus_presentations(p, n):
    assert_rs_matches_oracle(p, strand_images(p, n))


def random_rs_input(rng: random.Random) -> tuple[Presentation, dict]:
    """Images in S_3 to S_5, some of them involutions declared by an x^2 or
    x^-2 relator, some of order 3 or more, some trivial; the other relators
    are powers of random signed words, raised to the order of their image."""
    m = rng.randint(3, 5)
    names = [f"x{i}" for i in range(rng.randint(1, 4))]
    images, relators = {}, []
    for name in names:
        if rng.random() < 0.5:
            points = rng.sample(range(1, m + 1), 2 * rng.randint(0, m // 2))
            image = list(range(1, m + 1))
            for a, b in zip(points[::2], points[1::2]):
                image[a - 1], image[b - 1] = b, a
            images[name] = Permutation(tuple(image))
            relators.append(((name, rng.choice((1, -1))),) * 2)
        else:
            images[name] = Permutation(tuple(rng.sample(range(1, m + 1), m)))
    for _ in range(rng.randint(0, 4)):
        w = tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(1, 4)))
        image = Permutation.identity(m)
        for name, sign in w:
            image = image * (images[name] if sign == 1 else images[name].inverse())
        relators.append(w * image.order())
    rng.shuffle(relators)
    return Presentation(tuple(names), tuple(relators)), images


def test_rs_matches_oracle_on_random_presentations():
    rng = random.Random(53)
    for _ in range(150):
        p, images = random_rs_input(rng)
        t, old = assert_rs_matches_oracle(p, images)
        for _ in range(5):
            w = tuple((rng.choice(p.generators), rng.choice((1, -1))) for _ in range(rng.randint(0, 8)))
            _, end = oracles._named_rewrite_from(old, 0, w)
            if end != 0:
                with pytest.raises(ValueError, match="not in the kernel"):
                    oracles.named_rewrite(old, w)
                with pytest.raises(ValueError, match="not in the kernel"):
                    rewrite(t, w)
            # w x x^-1 rep^-1 is a kernel word whose rewrite is not reduced
            x = (rng.choice(p.generators), 1)
            kernel = w + (x, (x[0], -1)) + invert_word(old.reps[end])
            assert rewrite(t, kernel) == oracles.named_rewrite(old, kernel)
            assert expand_rs_word(t, rewrite(t, kernel)) == free_reduce(kernel, t.involutive)


@pytest.mark.parametrize("name,n", [("J3", 3), ("J4", 4)])
def test_tietze_matches_oracle_on_builtin(name, n):
    raw = raw_rs(builtin(name), n)
    for budget in (0, 1, 2, 5, 1000):
        assert tietze_simplify(raw, budget) == oracles.tietze_simplify(raw, budget)


def test_tietze_tie_break_matches_oracle_on_equal_name_keys():
    # g1 and g01 (and x2, x02) have equal natural keys, so they tie on name
    names = ("g1", "g01", "g2", "g10", "x2", "x02")
    rng = random.Random(39)
    for _ in range(300):
        relators = tuple(
            tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(1, 4)))
            for _ in range(rng.randint(1, 5))
        )
        p = Presentation(names, relators)
        for budget in (1, 2, 1000):
            assert tietze_simplify(p, budget) == oracles.tietze_simplify(p, budget)



def test_tietze_matches_indexed_loop_on_random_presentations():
    # Duplicates, empty and unreduced relators, unused generators and equal
    # name keys, at every budget up to the fixpoint.
    rng = random.Random(43)
    for _ in range(200):
        p = random_presentation(rng)
        fixpoint = oracles.indexed_tietze_simplify(p).steps
        for budget in range(fixpoint + 2):
            assert tietze_simplify(p, budget) == oracles.indexed_tietze_simplify(p, budget)

def test_tietze_costing_edge_cases_match_indexed_loop():
    # The cases the costing without substitution must tell apart: relators
    # of one letter, a pivot of one letter (g = 1), a pivot whose spelling
    # of g is not cyclically reduced (x g x^-1 y gives g = x^-1 y^-1 x), both
    # neighbours of g equal, g twice, and neighbours that cancel against
    # either end of a spelling.
    fixed = (
        (("g", 1),),
        (("a", -1),),
        (("x", 1), ("g", 1), ("x", -1), ("y", 1)),
        (("a", 1), ("g", 1), ("a", 1)),
        (("g", 1), ("a", 1), ("g", 1), ("b", -1)),
        (("x", 1), ("g", -1), ("y", 1)),
        (("x", -1), ("g", 1), ("x", 1), ("b", 1)),
    )
    names = ("a", "b", "g", "x", "y")
    # here the relator g changes by 0 when g is spelled x^-1 y^-1 x, not by 2
    pinned = (fixed[2], (("y", -1), ("b", 1), ("a", -1), ("y", -1)), fixed[0],
              (("a", 1), ("y", 1), ("x", 1), ("g", 1)))
    rng = random.Random(47)
    for trial in range(200):
        relators = list(rng.sample(fixed, rng.randint(1, 4)))
        for _ in range(rng.randint(0, 4)):
            relators.append(tuple(
                (rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(1, 5))
            ))
        rng.shuffle(relators)
        p = Presentation(names, pinned if trial == 0 else tuple(relators))
        fixpoint = oracles.indexed_tietze_simplify(p).steps
        for budget in range(fixpoint + 2):
            assert tietze_simplify(p, budget) == oracles.indexed_tietze_simplify(p, budget)


def test_tietze_costing_substitutes_only_where_lengths_can_cancel(raw_j4, monkeypatch):
    # Substituting into every indexed relator for every candidate takes
    # 5,329 calls on full J4 and 835 on builtin J4; keeping each candidate's
    # per-relator changes between steps took 381 and 103.  Costing a
    # candidate exactly only when its bound surfaces, and then reading the
    # joins of the relators holding g once, takes 9 and 41, in 18 and 102
    # exact costings.  The intake reduces each input relator with one call
    # that substitutes for no generator (g = 0).
    calls, exact = [], []
    substitute, cost = presentation._substitute, presentation._Tietze._exact
    monkeypatch.setattr(
        presentation, "_substitute", lambda *args: calls.append(args) or substitute(*args)
    )
    monkeypatch.setattr(
        presentation._Tietze, "_exact", lambda *args: exact.append(args) or cost(*args)
    )
    builtin_j4 = raw_rs(builtin("J4"), 4)
    for p, budget, (intake, costing, costed) in (
        (raw_j4, 1, (338, 9, 18)), (builtin_j4, 1000, (74, 41, 102)),
    ):
        calls.clear()
        exact.clear()
        tietze_simplify(p, budget)
        at_intake = sum(g == 0 for _, g, _, _ in calls)
        assert at_intake == len(p.relators) == intake
        assert (len(calls) - at_intake, len(exact)) == (costing, costed)


def assert_bounds_hold(p: Presentation) -> None:
    """In the loop built from p, every candidate's key holds a lower bound of
    its total, the total itself when marked exact, and _exact gives the
    total that the loop kept in oracles.py costs it at."""
    loop, old = presentation._Tietze(p), oracles.CostedTietze(p)
    totals = {(g, rid): key for g, costs in old.costs.items() for rid, (key, _) in costs.items()}
    keys = {(e[6], e[3]): e for e in loop.heap}
    assert keys.keys() == totals.keys() and loop.live == len(keys)
    for (g, rid), (bound, size, rank, _, pos, is_bound, _, _) in keys.items():
        total = loop._exact(g, rid)
        assert totals[g, rid] == (total, size, rank, rid, pos)
        assert bound <= total and (is_bound or bound == total)


def assert_matches_costed_loop(p: Presentation) -> int:
    """The elimination loop and the one kept in oracles.py, stepped side by
    side from p to their fixpoint, pass through the same presentations and
    have candidates left at the same steps, so tietze_simplify and the old
    loop agree at every budget; the bounds hold at every state.  Returns the
    number of steps to the fixpoint.  Stale keys never fill the heap."""
    loop, old = presentation._Tietze(p), oracles.CostedTietze(p)
    steps = 0
    while True:
        state = loop.presentation()
        assert state == old.presentation() and (loop.live > 0) == bool(old.costs)
        assert len(loop.heap) <= 2 * loop.live + 64
        assert_bounds_hold(state)
        stepped = loop.step()
        assert stepped == old.step()
        if not stepped:
            return steps
        steps += 1


def random_presentation(rng: random.Random) -> Presentation:
    """Up to 8 relators of up to 7 letters on some of 8 names, among them
    names with equal natural keys (g1 and g01, x2 and x02)."""
    names = ("g1", "g01", "g2", "g10", "x2", "x02", "a", "b")
    generators = tuple(rng.sample(names, rng.randint(1, len(names))))
    relators = tuple(
        tuple((rng.choice(generators), rng.choice((1, -1))) for _ in range(rng.randint(0, 7)))
        for _ in range(rng.randint(0, 8))
    )
    return Presentation(generators, relators)


def test_tietze_matches_costed_loop_on_random_presentations():
    rng = random.Random(61)
    seen = set()
    for _ in range(300):
        p = random_presentation(rng)
        fixpoint = assert_matches_costed_loop(p)
        for budget in range(fixpoint + 2):
            assert tietze_simplify(p, budget) == oracles.costed_tietze_simplify(p, budget)
        words = [oracles.cyclic_reduce(rel) for rel in p.relators]
        features = {
            "empty relator": any(not w for w in words),
            "length-1 pivot": any(len(w) == 1 for w in words),
            "repeated generator": any(len({x for x, _ in w}) < len(w) for w in words),
            "equal name keys": {"g1", "g01"} <= set(p.generators),
        }
        seen.update(name for name, present in features.items() if present)
    assert seen == {"empty relator", "length-1 pivot", "repeated generator", "equal name keys"}


@pytest.mark.parametrize("name,n", [("J3", 3), ("J4", 4)])
def test_tietze_matches_costed_loop_on_builtin(name, n):
    raw = raw_rs(builtin(name), n)
    fixpoint = assert_matches_costed_loop(raw)
    for budget in range(fixpoint + 2):
        assert tietze_simplify(raw, budget) == oracles.costed_tietze_simplify(raw, budget)


def test_tietze_matches_costed_loop_on_full_j4(raw_j4):
    assert assert_matches_costed_loop(raw_j4) == 93
    for budget in (0, 1, 2, 5, 10, 92, 93, 94):
        assert tietze_simplify(raw_j4, budget) == oracles.costed_tietze_simplify(raw_j4, budget)


def test_class_key_matches_the_key_over_every_rotation():
    rng = random.Random(67)
    words = [(1,), (-1,), (1, 1), (1, -1), (1, -2) * 3, (2, 1) * 4, (-3,) * 3, (1, 2, -1, -2)]
    for _ in range(3000):
        length = rng.randint(1, 12)
        words.append(tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(length)))
    for w in words:
        assert presentation._class_key(w) == oracles.costed_class_key(w)


def test_reads_match_the_read_on_every_count():
    rng = random.Random(73)
    words = [(1,), (-1,), (1, 1), (1, -2), (2, 1, 2), (-1, 2, -3, 2)]
    for _ in range(3000):
        length = rng.randint(1, 10)
        words.append(tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(length)))
    for w in words:
        expected = {abs(x): oracles.counted_read(w, abs(x)) for x in w}
        assert presentation._reads(w) == expected, w


def test_natural_key_matches_the_run_grouping():
    names = ["", "a", "g1", "g01", "g10", "10", "1a", "a1b2", "x02y", "a_k12_s13", "ab12cd345"]
    keys = [presentation._natural_key(name) for name in names]
    assert keys == [oracles._natural_key(name) for name in names]
    assert sorted(names, key=presentation._natural_key) == sorted(names, key=oracles._natural_key)


def test_joined_matches_substitution():
    # w holds the generator 1 once and is cyclically reduced; spelled is reduced
    rng = random.Random(71)

    def reduced(length):
        out = []
        while len(out) < length:
            x = rng.choice((2, -2, 3, -3, 4, -4))
            if not out or out[-1] != -x:
                out.append(x)
        return tuple(out)

    outcomes = set()
    for _ in range(5000):
        w = reduced(rng.randint(0, 8))
        i = rng.randint(0, len(w))
        w = w[:i] + (rng.choice((1, -1)),) + w[i:]
        if len(w) > 1 and w[0] == -w[-1]:
            continue
        spelled = reduced(rng.randint(0, 6))
        inverse = tuple(-x for x in reversed(spelled))
        replacement, other = (spelled, inverse) if w[i] == 1 else (inverse, spelled)
        change = presentation._joined(w, i, spelled)
        if change is not None:
            assert change == len(presentation._substitute(w, 1, replacement, other)) - len(w)
        kept = change == len(spelled) - 1
        outcomes.add("none" if change is None else "kept" if kept else "cancelled")
    assert outcomes == {"none", "cancelled", "kept"}


def test_tietze_matches_oracle_on_full_j4(raw_j4):
    assert (len(raw_j4.generators), len(raw_j4.relators)) == (98, 338)
    states = [oracles._cleanup(raw_j4)]
    for _ in range(10):
        states.append(oracles.tietze_step(states[-1]))
        assert tietze_step(states[-2]) == states[-1]
    # the fixpoint is 93 steps away, so every one of these budgets runs out
    for budget in (0, 1, 2, 5, 10):
        expected = SimplifiedPresentation(states[budget], budget, True)
        assert tietze_simplify(raw_j4, budget) == expected


def indexed_steps(p: Presentation, limit: int) -> list[Presentation]:
    """The cleaned presentation and up to limit steps of the indexed Tietze
    step kept in oracles.py, which builds every step afresh."""
    states = [oracles._indexed_cleanup(p)]
    while len(states) <= limit:
        step = oracles.indexed_tietze_step(states[-1])
        if step is None:
            break
        states.append(step)
    return states


def assert_loop_follows(p: Presentation, states: list[Presentation]) -> None:
    """The elimination loop, stepping its own state, passes through states."""
    loop = presentation._Tietze(p)
    for state in states[:-1]:
        assert loop.presentation() == state
        assert loop.step()
    assert loop.presentation() == states[-1]


def test_tietze_matches_indexed_step_at_every_step_of_full_j4(raw_j4):
    states = indexed_steps(raw_j4, 1000)
    assert len(states) == 94
    assert_loop_follows(raw_j4, states)
    assert not presentation._Tietze(states[-1]).step()
    for before, after in zip(states, states[1:]):
        assert tietze_step(before) == after
    for budget in (0, 1, 2, 5, 10, 93, 1000):
        steps = min(budget, 93)
        expected = SimplifiedPresentation(states[steps], steps, budget < 93)
        assert tietze_simplify(raw_j4, budget) == expected


def test_tietze_matches_indexed_step_on_raw_j5(j5):
    _, raw = j5
    states = indexed_steps(raw, 5)
    assert_loop_follows(raw, states)
    assert tietze_simplify(raw, 5) == SimplifiedPresentation(states[5], 5, True)


# The fixpoint of raw PJ5 (full_presentation(5, 1)), byte-identical to what
# the indexed step reaches after 946 steps.
PJ5_GENERATORS = (
    "a_k3_s12", "a_k12_s14", "a_k13_s13", "a_k14_s13", "a_k19_s14", "a_k21_s12",
    "a_k21_s15", "a_k22_s14", "a_k28_s15", "a_k35_s34", "a_k37_s12", "a_k38_s24",
    "a_k40_s23", "a_k41_s25", "a_k75_s14", "a_k76_s25",
)
PJ5_RELATOR_LENGTHS = [
    4, 14, 18, 12, 8, 10, 12, 16, 16, 12, 26, 18, 24, 22, 12, 18, 14, 12, 8, 12, 16, 24,
    38, 24, 30, 22, 30, 22, 10, 16, 30, 22, 16, 18, 22, 20, 26, 18, 12, 32, 30, 14, 22, 30,
]


def test_pj5_reaches_a_tietze_fixpoint(j5):
    t, raw = j5
    result = tietze_simplify(raw)
    simplified = result.presentation
    assert (result.steps, result.budget_exhausted) == (946, False)
    assert simplified.generators == PJ5_GENERATORS
    assert [len(rel) for rel in simplified.relators] == PJ5_RELATOR_LENGTHS
    assert abelianization(simplified) == (10, (2,) * 6)
    for rel in simplified.relators:
        assert cactus.is_trivial(_rs_word_to_cactus(t, rel, 5))


def test_full_j4_simplifies_to_one_relator(raw_j4):
    result = tietze_simplify(raw_j4)
    simplified = result.presentation
    assert (result.steps, result.budget_exhausted) == (93, False)
    assert len(simplified.generators) == 5
    assert [len(rel) for rel in simplified.relators] == [10]
    assert abelianization(simplified) == abelianization(raw_j4) == (4, (2,))


def gf2_rank(matrix: list[list[int]]) -> int:
    """Rank mod 2 by plain elimination, rows as bit masks."""
    pivots: dict[int, int] = {}  # leading bit -> row
    for row in matrix:
        bits = sum(1 << j for j, v in enumerate(row) if v % 2)
        while bits:
            top = bits.bit_length() - 1
            if top not in pivots:
                pivots[top] = bits
                break
            bits ^= pivots[top]
    return len(pivots)


def test_pj5_abelianization(j5):
    _, raw = j5
    assert (len(raw.generators), len(raw.relators)) == (962, 4562)
    rank, factors = abelianization(raw)
    # b1(PJ5) = 10 and all torsion is 2-torsion (Etingof-Henriques-Kamnitzer-Rains)
    assert (rank, factors) == (10, (2, 2, 2, 2, 2, 2))
    # independently: dim H1(PJ5; F2) = rank + number of 2-primary factors
    h1_f2 = len(raw.generators) - gf2_rank(dense(exponent_matrix(raw), len(raw.generators)))
    assert h1_f2 == rank + sum(1 for d in factors if d % 2 == 0) == 16


def twin_presentation(n: int) -> Presentation:
    """The twin group Tw_n on s12, s23, ...: involutions, and a commutator
    for each pair of letters at distance 2 or more."""
    names = [f"s{i}{i + 1}" for i in range(1, n)]
    relators = [positive_word(x, x) for x in names]
    for (a, x), (b, y) in itertools.combinations(enumerate(names), 2):
        if b - a >= 2:
            relators.append(positive_word(x, y) + invert_word(positive_word(y, x)))
    return Presentation(tuple(names), tuple(relators))


@pytest.mark.parametrize("n, cosets, rank, steps", [(4, 24, 7, 19), (5, 120, 31, 211)])
def test_pure_twin_group_is_free(n, cosets, rank, steps):
    # PTw4 = F7 (Bardakov-Singh-Vesnin, Geom. Dedicata 2019); PTw5 = F31
    # (Gonzalez et al., Linear motion planning with controlled collisions
    # and pure planar braids)
    t, raw = rs_data(twin_presentation(n), n)
    assert len(t) == cosets
    result = tietze_simplify(raw)
    assert (result.steps, result.budget_exhausted) == (steps, False)
    assert len(result.presentation.generators) == rank
    assert result.presentation.relators == ()


def test_pure_twin_group_on_six_strands_abelianization():
    # PTw6 = F71 * 20 copies of Z^2 (Mostovoy-Roque-Marquez, Planar pure
    # braids on six strands), so its abelianization is Z^111
    t, raw = rs_data(twin_presentation(6), 6)
    assert len(t) == 720
    assert abelianization(raw) == (111, ())


def sparse(matrix: list[list[int]]) -> list[dict[int, int]]:
    """The rows as {column: value} dicts without zeros, as smith_diagonal takes them."""
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def dense(rows: list[dict[int, int]], width: int) -> list[list[int]]:
    return [[row.get(j, 0) for j in range(width)] for row in rows]


def random_matrix(rng: random.Random) -> list[list[int]]:
    rows, cols = rng.randint(0, 7), rng.randint(0, 7)
    kind = rng.randrange(4)
    if kind == 0:  # no unit entries
        values = [0, 0, 2, -2, 3, -4, 6, 9]
    elif kind == 1:  # mostly units, like relator matrices
        values = [0, 0, 0, 1, -1, 1, 2]
    else:
        values = list(range(-5, 6))
    matrix = [[rng.choice(values) for _ in range(cols)] for _ in range(rows)]
    if matrix and kind == 3:  # rank deficient: a combination of earlier rows
        a, b = rng.choice(matrix), rng.choice(matrix)
        matrix.append([rng.randint(-2, 2) * x + rng.randint(-2, 2) * y for x, y in zip(a, b)])
    return matrix


def large_random_matrix(rng: random.Random) -> list[list[int]]:
    """Up to 25 x 25, entries up to +-50, at a random density."""
    rows, cols = rng.randint(1, 25), rng.randint(1, 25)
    density = rng.random()
    return [[rng.randint(-50, 50) if rng.random() < density else 0 for _ in range(cols)]
            for _ in range(rows)]


# Repeated rows, a row with its negation, and matrices without a unit entry
# whose first pivot leaves a remainder in its column or in its row.
SMITH_CASES = [
    ([[1, 2], [1, 2]], [1]),
    ([[2, 4, 6], [2, 4, 6], [0, 3, 0]], [1, 6]),
    ([[1, -1, 2], [-1, 1, -2]], [1]),
    ([[3, 0], [-3, 0], [3, 0], [0, 2]], [1, 6]),
    ([[2, 3], [4, 5]], [1, 2]),
    ([[6, 10, 15]], [1]),
    ([[6], [10], [15]], [1]),
    ([[4, 6], [6, 9]], [1]),
    ([[12, 18], [18, 30], [30, 42]], [6, 6]),
]


def test_smith_diagonal_matches_oracle():
    rng = random.Random(41)
    shapes = set()
    for _ in range(400):
        matrix = random_matrix(rng)
        shapes.add((len(matrix), len(matrix[0]) if matrix else 0))
        assert smith_diagonal(sparse(matrix)) == oracles.smith_diagonal(matrix), matrix
    assert (0, 0) in shapes and any(r == 1 for r, _ in shapes)
    assert any(r and not c for r, c in shapes)
    for matrix in ([], [[]], [[], []], [[0, 0], [0, 0]], [[0, 2, 0], [0, 0, 0], [0, 4, 6]]):
        assert smith_diagonal(sparse(matrix)) == oracles.smith_diagonal(matrix)
    for matrix, expected in SMITH_CASES:
        assert smith_diagonal(sparse(matrix)) == oracles.smith_diagonal(matrix) == expected, matrix
    for _ in range(60):
        matrix = large_random_matrix(rng)
        assert smith_diagonal(sparse(matrix)) == oracles.smith_diagonal(matrix), matrix


def test_smith_diagonal_matches_oracle_on_rs_matrices(raw_j4):
    matrix = dense(exponent_matrix(raw_j4), len(raw_j4.generators))
    assert smith_diagonal(exponent_matrix(raw_j4)) == oracles.smith_diagonal(matrix)


def test_sparse_smith_diagonal_matches_the_unit_pivot_loop(raw_j4, j5):
    """The single sparse loop against the unit-pivot loop it replaced, which
    handed its remainder to the textbook algorithm, on the raw exponent rows
    of J4 and of PJ5 (4,562 rows)."""
    for raw, tail in ((raw_j4, [1, 2]), (j5[1], [1] + [2] * 6)):
        new = smith_diagonal(exponent_matrix(raw))
        old = oracles.unit_pivot_smith_diagonal(exponent_matrix(raw))
        assert new == old
        assert new[-len(tail):] == tail and set(new[:-len(tail)]) == {1}
