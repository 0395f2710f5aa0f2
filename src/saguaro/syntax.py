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
                "1" is the empty word).

All generators of cactus and Gauss words are involutions, so exponents there
are normalized modulo 2 at parse time.  Presentation relators live in a free
group and keep their signs.
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


_CACTUS_TERM = re.compile(r"s\(\s*(\d+)\s*,\s*(\d+)\s*\)(?:\^(-?\d+))?")
_GAUSS_TERM = re.compile(r"t\{\s*(\d+(?:\s*,\s*\d+)*)\s*\}")
_SPACE = re.compile(r"\s+")


def _scan(text: str, term: re.Pattern) -> list[tuple[int, re.Match]]:
    """Tokenize a whitespace-separated word, reporting the first bad offset."""
    matches = []
    pos = 0
    while pos < len(text):
        space = _SPACE.match(text, pos)
        if space:
            pos = space.end()
            continue
        m = term.match(text, pos)
        if m is None:
            raise WordSyntaxError(f"unexpected {text[pos]!r}", pos)
        matches.append((pos, m))
        pos = m.end()
    return matches


def parse_cactus_word(text: str, n: int) -> CactusWord:
    """Parse a cactus word over n strands.

    Generators are involutions: a term with exponent e contributes |e| mod 2
    copies of its letter.

    >>> str(parse_cactus_word("s(1,2) s(2,4) s(1,3)", 4))
    's(1,2) s(2,4) s(1,3)'
    >>> len(parse_cactus_word("s(1,2)^-3", 2))
    1
    """
    if n < 2:
        raise BoundsError(f"need n >= 2, got {n}")
    letters = []
    for pos, m in _scan(text, _CACTUS_TERM):
        p, q = int(m.group(1)), int(m.group(2))
        if not 1 <= p < q <= n:
            raise BoundsError(f"s({p},{q}) out of bounds for n={n}")
        exponent = 1 if m.group(3) is None else int(m.group(3))
        letters.extend([CactusLetter(p, q)] * (abs(exponent) % 2))
    return CactusWord(n, tuple(letters))


def format_cactus_word(w: CactusWord) -> str:
    """Canonical spelling; round-trips through parse_cactus_word exactly."""
    return str(w)


def parse_gauss_word(text: str, n: int) -> GaussWord:
    """Parse a Gauss word over n strands, e.g. "t{1,2} t{1,3,4}"."""
    if n < 2:
        raise BoundsError(f"need n >= 2, got {n}")
    letters = []
    for pos, m in _scan(text, _GAUSS_TERM):
        labels = tuple(int(x) for x in re.split(r"\s*,\s*", m.group(1)))
        if sorted(set(labels)) != list(labels) or len(labels) < 2:
            raise WordSyntaxError(f"labels must be distinct and ascending: {m.group(0)}", pos)
        if labels[0] < 1 or labels[-1] > n:
            raise BoundsError(f"{m.group(0)} out of bounds for n={n}")
        letters.append(GaussLetter(labels))
    return GaussWord(n, tuple(letters))


def format_gauss_word(w: GaussWord) -> str:
    return str(w)


_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9.]*")
_REL_TERM = re.compile(r"([A-Za-z_][A-Za-z_0-9.]*)(?:\^(-?\d+))?|1")

# Largest |e| of a presentation term x^e: the term becomes |e| letters, so a
# larger one is refused before anything is allocated for it.
MAX_EXPONENT = 10_000


def _parse_relator_side(text: str, generators: set[str], offset: int) -> SignedWord:
    letters: list[tuple[str, int]] = []
    for pos, m in _scan(text, _REL_TERM):
        if m.group(0) == "1":
            continue
        name = m.group(1)
        if name not in generators:
            raise WordSyntaxError(f"unknown generator {name!r}", offset + pos)
        digits = m.group(2) or "1"
        magnitude = digits.lstrip("-").lstrip("0")
        if len(magnitude) > len(str(MAX_EXPONENT)) or int(magnitude or 0) > MAX_EXPONENT:
            raise WordSyntaxError(
                f"exponent of {m.group(0)!r} exceeds {MAX_EXPONENT} in absolute value", offset + pos
            )
        exponent = int(digits)
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
                sides.append(_parse_relator_side(side, set(generators), start))
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
    """Parse one-line notation, with or without parentheses: "(4,1,3,2)"."""
    m = _PERM_TEXT.fullmatch(text.strip())
    if m is None:
        raise WordSyntaxError("expected one-line notation like (2,1,3)", 0)
    return Permutation(tuple(int(x) for x in re.split(r"\s*,\s*", m.group(1))))


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
        images[name.strip()] = parse_permutation(rest)
    return images
