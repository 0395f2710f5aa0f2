"""
Text grammar, parsing, and serialization shared by the library, the test
suite, and the CLI.

Cactus words:   term*            term := s(p,q) [^ exponent]
Gauss words:    term*            term := t{a,b,...}
Presentations:  chunks separated by newlines or ';', '#' starts a comment.
                "gens:" followed by identifiers declares the generators;
                each "rels:" chunk contributes relators.  A relator is a
                sequence of ident[^exp] terms, |exp| <= MAX_EXPONENT; an '='
                chain "u = v = 1" adds the relators u, v (a side equal to
                "1" is the empty word), all terms together at most
                MAX_PRESENTATION_LETTERS letters once expanded.

All generators of cactus and Gauss words are involutions, so exponents there
are normalized modulo 2 at parse time.  Presentation relators live in a free
group and keep their signs.  The word grammars share one tokenizer, one
findall per word, which reports a syntax error before any term is checked.
"""

from __future__ import annotations

import re

from .cactus import CactusLetter, CactusWord
from .perm import Permutation
from .presentation import Presentation, SignedWord, free_reduce, invert_word
from .racg import GaussLetter, GaussWord


class WordSyntaxError(ValueError):
    """Malformed input text; position is a 0-based character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class BoundsError(ValueError):
    """Structurally valid input naming an out-of-range interval or label."""


_CACTUS_TOKEN = re.compile(r"\s*(?:s\(\s*(\d+)\s*,\s*(\d+)\s*\)(?:\^(-?\d+))?|(\S.*))", re.DOTALL)
_GAUSS_TOKEN = re.compile(r"\s*(?:(t\{\s*(\d+(?:\s*,\s*\d+)*)\s*\})|(\S.*))", re.DOTALL)
_REL_TOKEN = re.compile(r"\s*(?:([A-Za-z_][A-Za-z_0-9.]*)(?:\^(-?\d+))?|1|(\S.*))", re.DOTALL)


def _tokenize(token: re.Pattern, text: str, offset: int = 0) -> list[tuple[str, ...]]:
    """The group tuples of the terms of a word.  token is \\s*(?:TERM|(\\S.*)):
    its last group takes the rest of the text from the first character that
    starts no term, which is reported at offset plus its place in text.
    Right-stripping the text keeps the search from restarting at each
    trailing space."""
    terms = token.findall(text.rstrip())
    if terms and terms[-1][-1]:
        raise WordSyntaxError(f"unexpected {terms[-1][-1][0]!r}",
                              offset + _term_start(token, text, len(terms) - 1))
    return terms


def _term_start(token: re.Pattern, text: str, i: int) -> int:
    """The offset of term i of _tokenize(token, text), for error messages."""
    m = list(token.finditer(text.rstrip()))[i]
    return m.end() - len(m[0].lstrip())


def parse_cactus_word(text: str, n: int) -> CactusWord:
    """Parse a cactus word over n strands.

    Generators are involutions: a term with exponent e contributes |e| mod 2
    copies of its letter, read from e's last digit, so an exponent of any
    length is taken; one CactusLetter serves every term of one (p, q).  A p
    or q longer than n, leading zeros aside, is refused before int().

    >>> str(parse_cactus_word("s(1,2) s(2,4) s(1,3)", 4))
    's(1,2) s(2,4) s(1,3)'
    >>> len(parse_cactus_word("s(1,2)^-3", 2))
    1
    """
    if n < 2:
        raise BoundsError(f"need n >= 2, got {n}")
    letters = []
    spelled: dict[tuple[int, int], CactusLetter] = {}
    width = len(str(n))
    for p, q, exponent, _ in _tokenize(_CACTUS_TOKEN, text):
        if len(p) > width or len(q) > width:
            p, q = p.lstrip("0") or "0", q.lstrip("0") or "0"
            if len(p) > width or len(q) > width:
                raise BoundsError(f"s({p},{q}) out of bounds for n={n}")
        pq = int(p), int(q)
        if (letter := spelled.get(pq)) is None:
            if not 1 <= pq[0] < pq[1] <= n:
                raise BoundsError(f"s({pq[0]},{pq[1]}) out of bounds for n={n}")
            letter = spelled[pq] = CactusLetter(*pq)
        if not exponent or int(exponent[-1]) % 2:
            letters.append(letter)
    return CactusWord(n, tuple(letters))


def format_cactus_word(w: CactusWord) -> str:
    """Canonical spelling; round-trips through parse_cactus_word exactly."""
    return str(w)


def parse_gauss_word(text: str, n: int) -> GaussWord:
    """Parse a Gauss word over n strands, e.g. "t{1,2} t{1,3,4}"."""
    if n < 2:
        raise BoundsError(f"need n >= 2, got {n}")
    letters = []
    for i, (term, labels_text, _) in enumerate(_tokenize(_GAUSS_TOKEN, text)):
        digits = [x.lstrip("0") or "0" for x in re.split(r"\s*,\s*", labels_text)]
        keys = [(len(x), x) for x in digits]  # numeric order, without int()
        if sorted(set(keys)) != keys or len(keys) < 2:
            raise WordSyntaxError(f"labels must be distinct and ascending: {term}", _term_start(_GAUSS_TOKEN, text, i))
        if digits[0] == "0" or len(digits[-1]) > len(str(n)) or int(digits[-1]) > n:
            raise BoundsError(f"{term} out of bounds for n={n}")
        letters.append(GaussLetter(tuple(map(int, digits))))
    return GaussWord(n, tuple(letters))


def format_gauss_word(w: GaussWord) -> str:
    return str(w)


_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9.]*")

# Largest |e| of a presentation term x^e: the term becomes |e| letters, so a
# larger one is refused before anything is allocated for it.
MAX_EXPONENT = 10_000
# Most letters the terms of one presentation may expand to, all relators
# together: the term that would pass it is refused before it is expanded.
MAX_PRESENTATION_LETTERS = 1_000_000


def _parse_relator_side(text: str, generators: set[str], offset: int, room: int) -> SignedWord:
    """One side of a relator, at most room letters long once expanded."""
    letters: list[tuple[str, int]] = []
    for i, (name, digits, _) in enumerate(_tokenize(_REL_TOKEN, text, offset)):
        if not name:
            continue  # the empty word "1"
        if name not in generators:
            raise WordSyntaxError(f"unknown generator {name!r}", offset + _term_start(_REL_TOKEN, text, i))
        term = f"{name}^{digits}" if digits else name
        magnitude = digits.lstrip("-").lstrip("0")
        if len(magnitude) > len(str(MAX_EXPONENT)) or int(magnitude or 0) > MAX_EXPONENT:
            raise WordSyntaxError(f"exponent of {term!r} exceeds {MAX_EXPONENT} in absolute value",
                                  offset + _term_start(_REL_TOKEN, text, i))
        exponent = int(digits or 1)
        if len(letters) + abs(exponent) > room:
            raise WordSyntaxError(f"{term!r} takes the relators past MAX_PRESENTATION_LETTERS = "
                                  f"{MAX_PRESENTATION_LETTERS} letters", offset + _term_start(_REL_TOKEN, text, i))
        sign = 1 if exponent >= 0 else -1
        letters.extend([(name, sign)] * abs(exponent))
    return tuple(letters)


def parse_presentation(text: str) -> Presentation:
    """Parse a presentation from the gens:/rels: chunk format.

    >>> p = parse_presentation("gens: x; rels: x^2")
    >>> p.generators, p.relators
    (('x',), ((('x', 1), ('x', 1)),))
    """
    generators: list[str] = []
    relators: list[SignedWord] = []
    room = MAX_PRESENTATION_LETTERS
    offset = 0
    chunks: list[tuple[int, str]] = []
    for raw_line in text.split("\n"):
        line = raw_line.split("#", 1)[0]
        start = offset
        for piece in line.split(";"):
            chunks.append((start, piece))
            start += len(piece) + 1
        offset += len(raw_line) + 1
    for start, chunk in chunks:
        body = chunk.strip()
        if not body:
            continue
        indent = start + chunk.index(body[0])
        if body.startswith("gens:"):
            for name in body[len("gens:") :].split():
                if not _IDENT.fullmatch(name):
                    raise WordSyntaxError(f"bad generator name {name!r}", indent)
                generators.append(name)
        elif body.startswith("rels:"):
            start, sides = indent + len("rels:"), []
            for side in body[len("rels:") :].split("="):
                sides.append(_parse_relator_side(side, set(generators), start, room))
                room -= len(sides[-1])
                start += len(side) + 1
            if len(sides) == 1:
                relators.append(free_reduce(sides[0]))
            else:
                # u1 = u2 = ... = uk: each side equals the last, typically "1".
                last = sides[-1]
                for side in sides[:-1]:
                    relators.append(free_reduce(side + invert_word(last)))
        else:
            raise WordSyntaxError("expected 'gens:' or 'rels:'", indent)
    return Presentation(tuple(generators), tuple(relators))


def format_presentation(p: Presentation) -> str:
    """One gens: line then one rels: line per relator; round-trip exact."""
    lines = ["gens: " + " ".join(p.generators)]
    for rel in p.relators:
        lines.append("rels: " + format_signed_word(rel))
    return "\n".join(lines)


def format_signed_word(w: SignedWord) -> str:
    return " ".join(name if sign == 1 else f"{name}^-1" for name, sign in w)


_PERM_TEXT = re.compile(r"\(?\s*(\d+(?:\s*,\s*\d+)*)\s*\)?")


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation, with or without parentheses: "(4,1,3,2)".  An image
    with more digits than the image count, leading zeros aside, is refused before int()."""
    m = _PERM_TEXT.fullmatch(text.strip())
    if m is None:
        raise WordSyntaxError("expected one-line notation like (2,1,3)", 0)
    digits = [x.lstrip("0") or "0" for x in re.split(r"\s*,\s*", m.group(1))]
    if (longest := max(map(len, digits))) > len(str(len(digits))):
        raise BoundsError(f"not a permutation of 1..{len(digits)}: an image has {longest} digits")
    return Permutation(tuple(map(int, digits)))


def parse_images_file(text: str) -> dict[str, Permutation]:
    """Generator-image table: one "name: (2,1,3,4)" entry per line."""
    images: dict[str, Permutation] = {}
    for lineno, raw_line in enumerate(text.split("\n")):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise WordSyntaxError(f"expected 'name: (...)' on line {lineno + 1}", 0)
        name, _, rest = line.partition(":")
        name = name.strip()
        try:
            images[name] = parse_permutation(rest)
        except ValueError as exc:
            raise ValueError(f"image of {name} on line {lineno + 1}: {exc}") from None
    return images
