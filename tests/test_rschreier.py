import pytest

from oracles import one_relator_equivalent
from saguaro import cactus, rschreier
from saguaro.cactus import word
from saguaro.perm import Permutation
from saguaro.presentation import (
    Presentation,
    abelianization,
    builtin,
    free_reduce,
    invert_word,
    positive_word,
)
from saguaro.rschreier import (
    build_transversal,
    expand_rs_word,
    rewrite,
    rs_generators,
    rs_presentation,
    rs_relators,
    strand_images,
    verify_pj4,
)

EXPECTED_TRANSVERSAL = [
    "",
    "s12", "s13", "s14",
    "s12 s13", "s12 s14", "s13 s12", "s13 s14", "s14 s12", "s14 s13",
    "s12 s13 s12", "s12 s13 s14", "s12 s14 s12", "s12 s14 s13",
    "s13 s12 s14", "s13 s14 s12", "s13 s14 s13", "s14 s12 s13",
    "s14 s12 s14", "s14 s13 s12", "s14 s13 s14",
    "s12 s13 s12 s14", "s12 s13 s14 s12", "s12 s14 s13 s12",
]


@pytest.fixture(scope="module")
def j4_transversal():
    p = builtin("J4")
    return build_transversal(p, strand_images(p, 4))


def tau_at(t, coset_index, relator_names):
    rep = t.reps[coset_index - 1]
    conjugated = rep + positive_word(*relator_names) + invert_word(rep)
    return rewrite(t, conjugated)


def test_transversal_counts():
    j3 = builtin("J3")
    assert len(build_transversal(j3, strand_images(j3, 3))) == 6
    x2 = Presentation(("x",), (positive_word("x", "x"),))
    assert len(build_transversal(x2, {"x": Permutation((1, 2))})) == 1
    assert len(build_transversal(x2, {"x": Permutation((2, 1))})) == 2


def test_transversal_stops_at_the_coset_cap(monkeypatch):
    j4 = builtin("J4")
    images = strand_images(j4, 4)
    monkeypatch.setattr(rschreier, "MAX_COSETS", 23)
    with pytest.raises(ValueError, match="more than MAX_COSETS = 23 cosets"):
        build_transversal(j4, images)
    monkeypatch.setattr(rschreier, "MAX_COSETS", 24)
    assert len(build_transversal(j4, images)) == 24


def test_transversal_rejects_non_homomorphism():
    x2 = Presentation(("x",), (positive_word("x", "x"),))
    with pytest.raises(ValueError, match=r"images do not satisfy relator \(\('x', 1\), \('x', 1\)\)"):
        build_transversal(x2, {"x": Permutation((2, 3, 1))})
    # the sets are compared before any relator is walked
    xy = Presentation(("x", "y"), (positive_word("x", "y"),))
    with pytest.raises(ValueError, match=r"images act on different sets: \[2, 3\]"):
        build_transversal(xy, {"x": Permutation((2, 1)), "y": Permutation((1, 2, 3))})


def test_transversal_multiplies_no_permutation(monkeypatch):
    def fail(*args):
        raise AssertionError("Permutation multiplied")

    monkeypatch.setattr(Permutation, "__mul__", fail)
    for p, n, cosets in ((builtin("J3"), 3, 6), (builtin("J4"), 4, 24)):
        assert len(build_transversal(p, strand_images(p, n))) == cosets
    x2 = Presentation(("x",), (positive_word("x", "x"),))
    with pytest.raises(ValueError, match="images do not satisfy relator"):
        build_transversal(x2, {"x": Permutation((2, 3, 1))})


def test_transversal_prefix_closed(j4_transversal):
    reps = {rep for rep in j4_transversal.reps}
    for rep in reps:
        for cut in range(len(rep)):
            assert rep[:cut] in reps
    assert j4_transversal.reps[0] == ()


def test_j4_transversal_is_pinned(j4_transversal):
    got = [" ".join(name for name, _ in rep) for rep in j4_transversal.reps]
    assert got == EXPECTED_TRANSVERSAL


def test_j4_nontrivial_generators(j4_transversal):
    gens = rs_generators(j4_transversal)
    assert len(gens) == 26
    by_name = {g.name: g.word for g in gens}
    assert by_name["a_k7_s13"] == positive_word("s13", "s12", "s13", "s12", "s13", "s12")
    assert by_name["a_k12_s13"] == positive_word(
        "s12", "s13", "s14", "s13", "s14", "s12", "s14"
    )
    assert by_name["a_k18_s12"] == positive_word(
        "s14", "s12", "s13", "s12", "s14", "s12", "s13", "s12"
    )
    # every expanded word lies in the kernel
    images = strand_images(builtin("J4"), 4)
    for g in gens:
        image = Permutation.identity(4)
        for name, _ in g.word:
            image = image * images[name]
        assert image.is_identity()


def test_rewrite_spot_checks(j4_transversal):
    t = j4_transversal
    quad = ["s12", "s14"] * 4
    octo = ["s12", "s13", "s14", "s13"] * 2
    assert tau_at(t, 1, quad) == positive_word("a_k13_s14", "a_k17_s12")
    assert tau_at(t, 2, quad) == positive_word("a_k19_s12", "a_k17_s14")
    assert tau_at(t, 3, quad) == positive_word("a_k15_s12", "a_k20_s14")
    assert tau_at(t, 2, octo) == positive_word("a_k17_s12", "a_k19_s13")
    assert tau_at(t, 13, ["s13", "s13"]) == positive_word("a_k13_s13", "a_k21_s13")
    assert tau_at(t, 8, octo) == positive_word(
        "a_k16_s13", "a_k23_s14", "a_k24_s13", "a_k15_s12", "a_k21_s13", "a_k13_s14"
    )


def test_rewrite_rejects_non_kernel(j4_transversal):
    with pytest.raises(ValueError):
        rewrite(j4_transversal, positive_word("s12"))


def test_rewrite_empty(j4_transversal):
    assert rewrite(j4_transversal, ()) == ()


def test_rewrite_round_trip(j4_transversal):
    t = j4_transversal
    for coset, relator in ((1, ["s12", "s14"] * 4), (5, ["s12", "s13", "s14", "s13"] * 2)):
        rep = t.reps[coset - 1]
        conjugated = rep + positive_word(*relator) + invert_word(rep)
        expanded = expand_rs_word(t, rewrite(t, conjugated))
        assert expanded == free_reduce(conjugated, t.involutive)


def test_rs_relator_count(j4_transversal):
    raw = rs_relators(builtin("J4"), j4_transversal)
    assert len(raw) == 74  # 24 cosets x 5 relators minus trivially-empty rewrites


def test_j3_pipeline():
    p = builtin("J3")
    result = rs_presentation(p, strand_images(p, 3))
    assert len(result.presentation.generators) == 1
    assert result.presentation.relators == ()
    t = build_transversal(p, strand_images(p, 3))
    generator_words = [g.word for g in rs_generators(t)]
    b_cubed = word(3, [(1, 2), (1, 3)]).power(3)
    for w in generator_words:
        as_cactus = word(3, [(1, int(name[2])) for name, _ in w])
        assert cactus.equal(as_cactus, b_cubed) or cactus.equal(
            as_cactus, b_cubed.inverse()
        )


def test_j4_pipeline_invariants(j4_transversal):
    p = builtin("J4")
    result = rs_presentation(p, strand_images(p, 4))
    simplified = result.presentation
    assert not result.budget_exhausted
    assert len(simplified.generators) == 5
    assert len(simplified.relators) == 1
    assert len(simplified.relators[0]) == 10
    assert abelianization(simplified) == (4, (2,))
    # soundness: the surviving generators are pure elements of the four-strand
    # group and the relator holds there
    def as_cactus(signed):
        letters = []
        for name, sign in signed:
            expanded = j4_transversal.word_of_name[name]
            if sign == -1:
                expanded = tuple(reversed(expanded))
            letters.extend((1, int(g[2])) for g, _ in expanded)
        return word(4, letters)

    for name in simplified.generators:
        assert cactus.is_pure(as_cactus(((name, 1),)))
    assert cactus.is_trivial(as_cactus(simplified.relators[0]))


def test_trivial_kernel_pipeline():
    x2 = Presentation(("x",), (positive_word("x", "x"),))
    result = rs_presentation(x2, {"x": Permutation((2, 1))})
    assert result.presentation.generators == ()
    assert result.presentation.relators == ()


def test_one_relator_matcher():
    target = builtin("PJ4_target")
    rel = target.relators[0]
    rotated = rel[3:] + rel[:3]
    inverted = tuple((g, -e) for g, e in reversed(rotated))
    renamed = {"alpha": "v", "beta": "w", "gamma": "x", "delta": "y", "epsilon": "z"}
    relabeled = tuple((renamed[g], e) for g, e in inverted)
    other = Presentation(tuple("vwxyz"), (relabeled,))
    assert one_relator_equivalent(target, other)
    flipped = tuple((g, -e) if g == "w" else (g, e) for g, e in relabeled)
    assert one_relator_equivalent(target, Presentation(tuple("vwxyz"), (flipped,)))
    cycle = Presentation(tuple("vwxyz"), (tuple((g, 1) for g in "vwxyz" * 2),))
    assert not one_relator_equivalent(target, cycle)


def test_verify_pj4_all_pass():
    report = verify_pj4()
    assert report.passed
    names = [name for name, _ in report.checks]
    assert "relator is trivial" in names
    assert "beta spellings agree" in names
    assert sum(1 for n in names if n.endswith("is pure")) == 9


def test_strand_images_split_names_uniquely():
    images = strand_images(Presentation(("s12", "s29", "s110"), ()), 10)
    assert images["s110"] == Permutation.interval_reversal(10, 1, 10)
    assert images["s29"] == Permutation.interval_reversal(10, 2, 9)
    for name, n in (("s1213", 213), ("s110", 9), ("s011", 11), ("s21", 4), ("t12", 4), ("s", 4)):
        with pytest.raises(ValueError, match=name):
            strand_images(Presentation((name,), ()), n)
    for name in ("J3", "J4"):
        p = builtin(name)
        n = int(name[1])
        assert strand_images(p, n) == {
            g: Permutation.interval_reversal(n, int(g[1]), int(g[2])) for g in p.generators
        }
