import random
import tracemalloc

import pytest

from saguaro import syntax
from saguaro.cactus import CactusLetter, CactusWord, word
from saguaro.perm import Permutation
from saguaro.presentation import Presentation, builtin
from saguaro.racg import GaussWord, tau
from saguaro.sampling import random_word
from saguaro.syntax import BoundsError, WordSyntaxError


def test_parse_cactus_word_examples():
    assert syntax.parse_cactus_word("s(1,2) s(2,4) s(1,3)", 4).letters == (
        CactusLetter(1, 2), CactusLetter(2, 4), CactusLetter(1, 3),
    )
    assert syntax.parse_cactus_word("", 3).letters == ()
    assert syntax.parse_cactus_word("s(1,2)^-3", 2).letters == (CactusLetter(1, 2),)


def test_exponents_mod_two():
    assert syntax.parse_cactus_word("s(1,2)^2", 2).letters == ()
    assert syntax.parse_cactus_word("s(1,2)^0", 2).letters == ()
    assert syntax.parse_cactus_word("s(1,2)^5", 2).letters == (CactusLetter(1, 2),)
    # past int()'s 4,300-digit limit: only the last digit counts, a sign never
    for exponent, letters in (("1" * 5000, (CactusLetter(1, 2),)), ("1" * 4999 + "2", ())):
        assert syntax.parse_cactus_word(f"s(1,2)^{exponent}", 2).letters == letters
        assert syntax.parse_cactus_word(f"s(1,2)^-{exponent}", 2).letters == letters


def test_parse_errors_located():
    with pytest.raises(WordSyntaxError) as info:
        syntax.parse_cactus_word("s(1,2) x", 4)
    assert info.value.position == 7
    with pytest.raises(BoundsError):
        syntax.parse_cactus_word("s(2,5)", 4)
    with pytest.raises(BoundsError):
        syntax.parse_cactus_word("s(3,2)", 4)
    with pytest.raises(BoundsError):
        syntax.parse_cactus_word("", 1)


def test_syntax_errors_come_before_bounds_errors():
    # the whole word is tokenized before any term is checked
    for text, position in (("s(1,9) x", 7), ("s(1,9)^2 s(2,3)\n  ?", 18), ("s(5,2) s(1,2", 7)):
        with pytest.raises(WordSyntaxError) as info:
            syntax.parse_cactus_word(text, 4)
        assert info.value.position == position
    with pytest.raises(WordSyntaxError) as info:
        syntax.parse_gauss_word("t{1,9} t{2,1} t{", 4)
    assert info.value.position == 14


def test_parsed_word_holds_one_letter_per_spelling():
    w = syntax.parse_cactus_word("s(1,2) s(2,4) s(01,2) s(2,4)^-3 s(1, 2)^0 s(3,4) s(1,002)", 4)
    assert str(w) == "s(1,2) s(2,4) s(1,2) s(2,4) s(3,4) s(1,2)"
    assert len({id(letter) for letter in w.letters}) == len(set(w.letters)) == 3
    rng = random.Random(21)
    for _ in range(200):
        w = syntax.parse_cactus_word(syntax.format_cactus_word(random_word(5, 12, rng)), 5)
        assert len({id(letter) for letter in w.letters}) == len(set(w.letters))


def test_huge_numbers_are_out_of_bounds_before_int_reads_them():
    huge = "7" * 5000
    for text in (f"s(1,{huge})", f"s({huge},2)", f"s(1,2) s(0{huge},3)^2"):
        with pytest.raises(BoundsError, match="out of bounds for n=4"):
            syntax.parse_cactus_word(text, 4)
    w = syntax.parse_cactus_word("s(01,2) s(1,2) s(" + "0" * 5000 + "1,2)", 4)
    assert len(w) == 3 and len({id(letter) for letter in w.letters}) == 1
    for text in (f"t{{1,{huge}}}", f"t{{1,2,{huge}}}"):
        with pytest.raises(BoundsError, match="out of bounds for n=4"):
            syntax.parse_gauss_word(text, 4)
    # order before bounds, as when labels were read with int()
    for text in (f"t{{{huge},1}}", f"t{{{huge},0{huge}}}", "t{100,1}", "t{01,1}"):
        with pytest.raises(WordSyntaxError, match="distinct and ascending"):
            syntax.parse_gauss_word(text, 4)
    for text in ("t{0,1}", "t{1,010}", "t{1,5}"):
        with pytest.raises(BoundsError):
            syntax.parse_gauss_word(text, 9 if text == "t{1,010}" else 4)
    assert syntax.parse_gauss_word("t{01,0004} t{3," + "0" * 5000 + "4}", 4) == GaussWord(4, (tau(1, 4), tau(3, 4)))


def test_format_word_examples():
    assert syntax.format_cactus_word(word(2, [(1, 2)])) == "s(1,2)"
    assert syntax.format_cactus_word(CactusWord(4)) == ""
    assert syntax.format_cactus_word(word(4, [(3, 4), (1, 2)])) == "s(3,4) s(1,2)"


def test_cactus_round_trip():
    rng = random.Random(20)
    for _ in range(200):
        w = random_word(6, 10, rng)
        assert syntax.parse_cactus_word(syntax.format_cactus_word(w), 6) == w


def test_gauss_round_trip():
    w = GaussWord(4, (tau(1, 2), tau(1, 3, 4)))
    text = syntax.format_gauss_word(w)
    assert text == "t{1,2} t{1,3,4}"
    assert syntax.parse_gauss_word(text, 4) == w
    with pytest.raises(BoundsError):
        syntax.parse_gauss_word("t{1,5}", 4)
    with pytest.raises(WordSyntaxError):
        syntax.parse_gauss_word("t{2,1}", 4)


def test_parse_presentation_examples():
    p = syntax.parse_presentation("gens: x; rels: x^2")
    assert p.generators == ("x",)
    assert p.relators == ((("x", 1), ("x", 1)),)
    q = syntax.parse_presentation("gens: a b; rels: a b a^-1 b^-1")
    assert q.relators == ((("a", 1), ("b", 1), ("a", -1), ("b", -1)),)


def test_parse_presentation_equations_and_comments():
    text = """
    # three generators
    gens: x y z
    rels: x^2 = y^2 = 1
    rels: x y = y x
    """
    p = syntax.parse_presentation(text)
    assert p.generators == ("x", "y", "z")
    assert p.relators == (
        (("x", 1), ("x", 1)),
        (("y", 1), ("y", 1)),
        (("x", 1), ("y", 1), ("x", -1), ("y", -1)),
    )


def test_parse_presentation_unknown_generator():
    with pytest.raises(WordSyntaxError):
        syntax.parse_presentation("gens: x; rels: y^2")
    # the offset is that of the term, on either side of an '='
    for text in ("gens: x\nrels: x y", "gens: x\nrels: x = y", "gens: x; rels: x^2 = 1 = y"):
        with pytest.raises(WordSyntaxError) as info:
            syntax.parse_presentation(text)
        assert info.value.position == text.index("y")


def test_parse_presentation_locates_an_unexpected_character_in_the_text():
    for text in ("gens: x; rels: x = x^", "gens: x\nrels: x^2 = 1 = x ?", "gens: x\nrels: y x^"):
        with pytest.raises(WordSyntaxError) as info:
            syntax.parse_presentation(text)
        assert info.value.position == len(text) - 1
    assert str(info.value) == "unexpected '^' (at position 17)"


@pytest.mark.parametrize(
    "term", ["x^1000000000", "x^-1000000000", "x^10001", "x^" + "9" * 5000], ids=len
)
def test_parse_presentation_refuses_huge_exponents_before_expanding(term):
    text = f"gens: x y\nrels: y x^2 {term}"
    tracemalloc.start()
    try:
        with pytest.raises(WordSyntaxError) as info:
            syntax.parse_presentation(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert repr(term) in str(info.value) and info.value.position == text.index(term)


def test_parse_presentation_exponents_up_to_the_cap():
    cap = syntax.MAX_EXPONENT
    p = syntax.parse_presentation(f"gens: x; rels: x^-{cap}; rels: x^000003 x^0 x^-0")
    assert p.relators == ((("x", -1),) * cap, (("x", 1),) * 3)


def test_parse_presentation_refuses_the_term_past_the_letter_cap(monkeypatch):
    monkeypatch.setattr(syntax, "MAX_PRESENTATION_LETTERS", 6)
    # every term counts as it is written, across relators and '=' sides
    p = syntax.parse_presentation("gens: x y; rels: x^2; rels: x y = y x^-1")
    assert len(p.relators) == 2
    text = "gens: x y\nrels: x^2 y^-2\nrels: y x^3 = 1"
    with pytest.raises(WordSyntaxError, match="'x\\^3' takes the relators past") as info:
        syntax.parse_presentation(text)
    assert info.value.position == text.index("x^3")
    monkeypatch.setattr(syntax, "MAX_PRESENTATION_LETTERS", 8)
    assert len(syntax.parse_presentation(text).relators) == 2


def test_parse_presentation_refuses_past_the_letter_cap_before_expanding(monkeypatch):
    monkeypatch.setattr(syntax, "MAX_PRESENTATION_LETTERS", 10)
    cap = syntax.MAX_EXPONENT
    text = f"gens: x\nrels: x^10\nrels: x^{cap}\n"
    tracemalloc.start()
    try:
        with pytest.raises(WordSyntaxError) as info:
            syntax.parse_presentation(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert info.value.position == text.rindex("x^")
    assert peak < 8 * cap  # less than a list of the refused term's letters


def test_builtin_j4_text_round_trip():
    # The builtin J4 presentation survives the text format: 3 generators and
    # 5 relators (three involutions plus the two braid-like relations).
    p = builtin("J4")
    text = syntax.format_presentation(p)
    assert syntax.parse_presentation(text) == p
    assert len(p.generators) == 3
    assert len(p.relators) == 5


def test_presentation_round_trip_generic():
    p = Presentation(
        ("a", "bb", "c1"),
        ((("a", 1), ("bb", -1)), (("c1", 1), ("c1", 1), ("a", -1))),
    )
    assert syntax.parse_presentation(syntax.format_presentation(p)) == p


def test_parse_permutation_and_images():
    assert syntax.parse_permutation("(4,1,3,2)") == Permutation((4, 1, 3, 2))
    assert syntax.parse_permutation(" 2, 1, 3 ") == Permutation((2, 1, 3))
    table = syntax.parse_images_file("# comment\ns12: (2,1,3)\ns13: (3,2,1)\n")
    assert table == {"s12": Permutation((2, 1, 3)), "s13": Permutation((3, 2, 1))}
    with pytest.raises(WordSyntaxError):
        syntax.parse_images_file("not a table")
