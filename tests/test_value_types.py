"""The library's 11 frozen value types, one instance each below, are slotted:
no per-instance __dict__, with the fields, equality, hashing, order, repr,
pickling and copying they had."""

import copy
import dataclasses
import pickle
import random

from saguaro import cactus, presentation, rschreier, subgroups
from saguaro.cactus import CactusLetter, CactusWord, word
from saguaro.perm import Permutation
from saguaro.racg import GaussLetter, GaussWord, tau
from saguaro.sampling import random_word


def instances():
    j3 = presentation.builtin("J3")
    images = rschreier.strand_images(j3, 3)
    return [
        CactusLetter(1, 3),
        word(4, [(1, 2), (2, 4)]),
        cactus.read_diagram(word(4, [(1, 2), (2, 4), (1, 3)])),
        tau(1, 3, 4),
        GaussWord(4, (tau(1, 2), tau(1, 3, 4))),
        Permutation((4, 1, 3, 2)),
        j3,
        presentation.tietze_simplify(j3),
        rschreier.rs_generators(rschreier.build_transversal(j3, images))[0],
        rschreier.Pj4Report((("relator is trivial", True),)),
        subgroups.IntervalCollection.slice(4, 2, 3),
    ]


def test_every_frozen_dataclass_is_slotted():
    types = {type(x) for x in instances()}
    assert len(types) == 11
    for t in types:
        assert dataclasses.is_dataclass(t) and "__slots__" in vars(t), t


def test_value_types_have_no_dict_and_refuse_assignment():
    for x in instances():
        assert not hasattr(x, "__dict__"), type(x)
        field = dataclasses.fields(x)[0].name
        try:
            setattr(x, field, getattr(x, field))
        except dataclasses.FrozenInstanceError:
            pass
        else:
            raise AssertionError(f"{type(x).__name__}.{field} was assigned")


def test_value_types_round_trip_through_pickle_and_deepcopy():
    for x in instances():
        for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert clone == x and hash(clone) == hash(x) and repr(clone) == repr(x)
            assert type(clone) is type(x)
    letter = pickle.loads(pickle.dumps(tau(2, 5)))
    assert letter.mask == 0b100100  # the mask is not compared, so check it alone
    lopsided = pickle.loads(pickle.dumps(subgroups.IntervalCollection.of(4, [(1, 2), (1, 4)])))
    assert lopsided.symmetric is False  # nor is symmetric


def test_sorting_letters_and_permutations_keeps_their_order():
    rng = random.Random(50)
    letters = [letter for _ in range(40) for letter in random_word(7, 6, rng).letters]
    assert sorted(letters) == [CactusLetter(p, q) for p, q in sorted((x.p, x.q) for x in letters)]
    gauss = [tau(*rng.sample(range(1, 8), rng.randint(2, 7))) for _ in range(200)]
    assert sorted(gauss) == [GaussLetter(labels) for labels in sorted(x.labels for x in gauss)]
    perms = [Permutation(tuple(rng.sample(range(1, 6), 5))) for _ in range(200)]
    assert sorted(perms) == [Permutation(images) for images in sorted(x.images for x in perms)]
    assert CactusLetter(1, 2) < CactusLetter(1, 3) < CactusLetter(2, 3)
    assert repr(CactusWord(2, (CactusLetter(1, 2),))) == \
        "CactusWord(n=2, letters=(CactusLetter(p=1, q=2),))"
