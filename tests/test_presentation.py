import random

import pytest

from saguaro import cactus, presentation, rschreier
from saguaro.cactus import word
from saguaro.presentation import (
    Presentation,
    abelianization,
    builtin,
    cyclic_reduce,
    free_reduce,
    involutive_generators,
    positive_word,
    smith_diagonal,
    tietze_simplify,
    tietze_step,
)


def test_free_reduce_examples():
    assert free_reduce((("x", 1), ("y", 1), ("y", -1), ("x", 1))) == (("x", 1), ("x", 1))
    assert cyclic_reduce((("x", -1), ("y", 1), ("x", 1))) == (("y", 1),)
    assert free_reduce(()) == ()


def test_reduces_idempotent_and_shorter():
    rng = random.Random(40)
    names = ["a", "b", "c"]
    for _ in range(200):
        w = tuple((rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, 12)))
        fr = free_reduce(w)
        assert free_reduce(fr) == fr and len(fr) <= len(w)
        cr = cyclic_reduce(w)
        assert cyclic_reduce(cr) == cr and len(cr) <= len(fr)


def test_tietze_substitution_example():
    p = Presentation(("x", "y"), ((("y", 1), ("x", -1)),))
    result = tietze_simplify(p)
    assert result.presentation == Presentation(("x",), ())
    assert not result.budget_exhausted


def test_tietze_budget_flag():
    p = Presentation(("x", "y"), ((("y", 1), ("x", -1)),))
    result = tietze_simplify(p, budget=0)
    assert result.budget_exhausted
    assert result.presentation.generators == ("x", "y")


def test_tietze_budget_spends_no_extra_step(monkeypatch):
    # tietze_simplify steps its own state, so count the steps of that loop
    calls = []
    step = presentation._Tietze.step

    def counted(state):
        calls.append(state)
        return step(state)

    monkeypatch.setattr(presentation._Tietze, "step", counted)
    p = Presentation(("x", "y", "z"), ((("x", 1), ("y", 1)), (("y", 1), ("z", -1))))
    result = tietze_simplify(p, budget=1)
    assert len(calls) == 1
    assert result.steps == 1 and result.budget_exhausted
    assert len(result.presentation.generators) == 2


def test_tietze_keys_each_distinct_relator_once(monkeypatch):
    # builtin J4's Reidemeister-Schreier relators repeat words: 74 relators, 57 distinct
    pres = builtin("J4")
    t = rschreier.build_transversal(pres, rschreier.strand_images(pres, 4))
    raw = Presentation(
        tuple(g.name for g in rschreier.rs_generators(t)), tuple(rschreier.rs_relators(pres, t))
    )
    distinct = {cyclic_reduce(rel) for rel in raw.relators} - {()}
    assert (len(raw.relators), len(distinct)) == (74, 57)
    keyed = []
    key = presentation._class_key

    def counted(w):
        keyed.append(w)
        return key(w)

    monkeypatch.setattr(presentation, "_class_key", counted)
    presentation._Tietze(raw)
    assert len(keyed) == len(set(keyed)) == len(distinct)


def test_tietze_preserves_abelianization_each_step():
    p = Presentation(
        ("a", "b", "c", "d"),
        (
            (("a", 1), ("b", 1), ("c", -1)),
            (("c", 1), ("c", 1), ("d", 1)),
            (("b", 1), ("b", 1)),
        ),
    )
    reference = abelianization(p)
    current = p
    while True:
        step = tietze_step(current)
        if step is None:
            break
        assert abelianization(step) == reference
        current = step


def test_abelianization_examples():
    assert abelianization(Presentation(("x",), (positive_word("x", "x"),))) == (0, (2,))
    five = Presentation(
        ("a", "b", "c", "d", "e"),
        (
            (
                ("b", 1), ("b", 1), ("c", 1), ("c", 1),
                ("d", -1), ("d", -1), ("e", 1), ("e", 1),
            ),
        ),
    )
    assert abelianization(five) == (4, (2,))
    assert abelianization(Presentation(("x", "y"), ())) == (2, ())


def test_smith_diagonal():
    assert smith_diagonal([{1: 2, 2: 2, 3: -2, 4: 2}]) == [2]
    assert smith_diagonal([{0: 2}, {1: 3}]) == [1, 6]
    assert smith_diagonal([{0: 1}, {}]) == [1]
    assert smith_diagonal([{0: 4}, {1: 6}]) == [2, 12]
    assert smith_diagonal([]) == []


def test_builtin_presentations():
    assert len(builtin("J3").relators) == 2
    assert builtin("J4").generators == ("s12", "s13", "s14")
    assert len(builtin("PJ4_target").relators[0]) == 10
    with pytest.raises(ValueError):
        builtin("J5")


def test_involutive_generators():
    assert involutive_generators(builtin("J4")) == frozenset({"s12", "s13", "s14"})
    free_abelian = Presentation(("a", "b"), ((("a", 1), ("b", 1), ("a", -1), ("b", -1)),))
    assert involutive_generators(free_abelian) == frozenset()


def test_j4_relators_hold_in_the_group():
    letters = {"s12": (1, 2), "s13": (1, 3), "s14": (1, 4)}
    for rel in builtin("J4").relators:
        w = word(4, [letters[name] for name, _ in rel])
        assert cactus.is_trivial(w)


def test_pj4_generator_words_are_pure():
    for pairs in presentation.PJ4_GENERATOR_WORDS.values():
        assert cactus.is_pure(word(4, pairs))
