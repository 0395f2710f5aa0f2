"""
Reidemeister-Schreier presentations of finite-index subgroups.

Given a presentation of G and a homomorphism onto a finite permutation group,
the kernel's cosets are enumerated breadth-first; the discovery words form a
prefix-closed (Schreier) transversal.  For a transversal word k and generator
x, the element a_{k,x} = (k x)(kx-bar)^-1 lies in the kernel; the non-trivial
ones generate it.  Rewriting the conjugated relators k r k^-1 through the
coset walk expresses a complete set of relations in these generators, which
Tietze simplification then shrinks.

Each transversal keeps one step table.  The coset search composes raw image
tuples into the coset action, by generator position.  One pass then reduces
each a_{k,x} once, by cancelling the common suffix of k x and kx-bar, and
writes both directions of its edge: x from k to kx, which rewrites to
(name, 1), and x^-1 back from kx, which rewrites to (name, -1).
Relators are coded as column indices once and walked from every coset through
that table, reducing freely by comparing letters by identity.  The rewriting
function, the generator list and the relators read the step table; expansion
back into ambient words reads the reduced a_{k,x} by name.

Generators carrying an x^2 relator are treated as involutions: ambient words
spell x^-1 as x and cancel adjacent equal copies (presentation.free_reduce
with the transversal's involutive set), so a_{k,x} counts as trivial when it
dies in the free product of Z_2's.  Dropping such generators
amounts to eliminating them with the rewritten x^2 relators, so the presented
subgroup is unchanged while the generator and relator lists match hand
computations done with involutive arithmetic.

The pipeline reproduces the presentations of the pure cactus groups on 3 and
4 strands from the strand-permutation homomorphisms of the builtin cactus
presentations; verify_pj4 checks the resulting one-relator data against its
defining words inside the 4-strand cactus group.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping

from . import cactus
from .perm import Permutation
from .presentation import (
    Presentation,
    PJ4_GENERATOR_WORDS,
    SignedWord,
    SimplifiedPresentation,
    free_reduce,
    invert_word,
    involutive_generators,
    tietze_simplify,
)


# Most cosets a transversal may have.  The search stops with an error naming
# it before the tables grow past it; PJ7 (5,040 cosets) and the symmetric
# group S_8 (40,320) fit.
MAX_COSETS = 50_000


class Transversal:
    """Schreier transversal of the kernel of a finite-image homomorphism.

    Coset 0 is the subgroup itself; representatives are the breadth-first
    discovery words (generators tried in declaration order), hence positive
    and prefix-closed.  action[k][i] is the coset k x_i.  steps[k][c] says
    where the letter coded c (see code) leads from k: (that coset, the letter
    it rewrites to or None, the inverse of that letter).  word_of_name maps
    the name a_k<k+1>_<x> of every a_{k,x}, trivial ones included, to its
    ambient word as free_reduce(..., involutive) reduces it.
    """

    def __init__(
        self,
        generators: tuple[str, ...],
        images: Mapping[str, Permutation],
        involutive: frozenset[str],
    ):
        sizes = {images[g].n for g in generators}
        if len(sizes) > 1:
            raise ValueError(f"images act on different sets: {sorted(sizes)}")
        self.generators = generators
        self.involutive = involutive
        self.position = {g: i for i, g in enumerate(generators)}
        # The images are valid Permutations, so the search composes their
        # 0-based image tuples directly; perms grows in discovery order.
        tables = [tuple(x - 1 for x in images[g].images) for g in generators]
        identity = tuple(range(sizes.pop() if sizes else 1))
        perms = [identity]
        index = {identity: 0}
        self.reps: list[SignedWord] = [()]
        self.action: list[list[int]] = []
        for k, perm in enumerate(perms):
            row = []
            for g, table in zip(generators, tables):
                target = tuple(map(table.__getitem__, perm))
                t = index.setdefault(target, len(perms))
                if t == len(perms):
                    if t == MAX_COSETS:
                        raise ValueError(f"more than MAX_COSETS = {MAX_COSETS} cosets")
                    perms.append(target)
                    self.reps.append(self.reps[k] + ((g, 1),))
                row.append(t)
            self.action.append(row)
        # the ambient inverse of each representative, involutions positive
        inverted = [
            tuple((g, 1 if g in involutive else -1) for g, _ in reversed(rep))
            for rep in self.reps
        ]
        # (k, x_i) fills column 2i of row k and column 2i + 1 of row t = k x_i;
        # each column of action permutes the cosets, so every inverse step is
        # written once.  Both share the letters rs_relators compares by identity.
        self.word_of_name: dict[str, SignedWord] = {}
        self.steps: list[list[tuple]] = [[()] * (2 * len(generators)) for _ in self.reps]
        for k, (rep, row) in enumerate(zip(self.reps, self.action)):
            for i, (g, t) in enumerate(zip(generators, row)):
                # rep x, with a final involutive x x cancelled
                left = rep[:-1] if g in involutive and rep[-1:] == ((g, 1),) else rep + ((g, 1),)
                w = _kernel_word(left, self.reps[t], inverted[t])
                name = f"a_k{k + 1}_{g}"
                self.word_of_name[name] = w
                letter, inverse = ((name, 1), (name, -1)) if w else (None, None)
                self.steps[k][2 * i] = (t, letter, inverse)
                self.steps[t][2 * i + 1] = (k, inverse, letter)

    def __len__(self) -> int:
        return len(self.reps)

    def code(self, w: SignedWord) -> tuple[int, ...]:
        """w as columns of steps: 2i for x_i, 2i + 1 for its inverse."""
        position = self.position
        return tuple(2 * position[name] + (sign < 0) for name, sign in w)


def _kernel_word(left: SignedWord, target: SignedWord, inverted: SignedWord) -> SignedWord:
    """a_{k,x} = (k x)(kx-bar)^-1, reduced: left is the representative of k
    times x, target that of kx, inverted the ambient inverse of target.

    This is free_reduce(left + inverted, involutive), without its scan.  Both
    representatives are positive breadth-first words, hence reduced: an
    involutive letter never repeats next to itself, or a shorter word would
    reach the same coset.  So left is reduced once a final involutive x x is
    cancelled, which the caller does.  The letters of left and of inverted
    then cancel in pairs across the join exactly while left and target end
    alike, and what is left is reduced on either side and at the join.
    """
    i, j = len(left), len(target)
    while i and j and left[i - 1] == target[j - 1]:
        i -= 1
        j -= 1
    return left[:i] + inverted[len(target) - j :]


@dataclasses.dataclass(frozen=True, slots=True)
class RSGenerator:
    coset: int
    gen: str
    name: str
    word: SignedWord


def build_transversal(p: Presentation, images: Mapping[str, Permutation]) -> Transversal:
    """Enumerate the cosets of the kernel; rejects non-homomorphisms.

    >>> from .presentation import builtin
    >>> from .perm import Permutation
    >>> t = build_transversal(builtin('J3'), {'s12': Permutation((2, 1, 3)),
    ...                                       's13': Permutation((3, 2, 1))})
    >>> len(t)
    6
    """
    missing = [g for g in p.generators if g not in images]
    if missing:
        raise ValueError(f"no image given for generators {missing}")
    for rel in p.relators:
        image = None
        for name, sign in rel:
            step = images[name] if sign == 1 else images[name].inverse()
            image = step if image is None else image * step
        if image is not None and not image.is_identity():
            raise ValueError(f"images do not satisfy relator {rel}")
    return Transversal(p.generators, images, involutive_generators(p))


def rs_generators(t: Transversal) -> list[RSGenerator]:
    """All non-trivial subgroup generators a_{k,x}, with expanded words."""
    return [
        RSGenerator(k, g, letter[0], t.word_of_name[letter[0]])
        for k, steps in enumerate(t.steps)
        for g, (_, letter, _) in zip(t.generators, steps[::2])
        if letter
    ]


def rewrite(t: Transversal, w: SignedWord) -> SignedWord:
    """The rewriting function: spell a kernel word in the a_{k,x}.

    Each letter x^e contributes a_{k,x}^e, where k is the coset of the prefix
    before the letter for e = +1 and of the prefix through it for e = -1;
    trivial generators are dropped.  Only meaningful on kernel words, so
    anything else is rejected.
    """
    steps = t.steps
    out = []
    k = 0
    for c in t.code(w):
        k, letter, _ = steps[k][c]
        if letter is not None:
            out.append(letter)
    if k != 0:
        raise ValueError("word is not in the kernel")
    return tuple(out)


def rs_relators(p: Presentation, t: Transversal) -> list[SignedWord]:
    """Rewritten conjugated relators tau(k r k^-1), freely reduced, non-empty.

    The transversal is prefix-closed, so every letter of k and of k^-1 crosses
    a transversal edge and rewrites to a trivial generator: tau(k r k^-1) is
    r rewritten from coset k, and it is a kernel word iff r returns to k.
    Each relator is coded once and walked from every coset; a letter cancels
    against the last one kept when that is its inverse, the same tuple.
    """
    steps = t.steps
    coded = [t.code(rel) for rel in p.relators]
    out = []
    for k in range(len(t)):
        for rel in coded:
            word: list[tuple[str, int]] = []
            end = k
            for c in rel:
                end, letter, undo = steps[end][c]
                if letter is not None:
                    if word and word[-1] is undo:
                        word.pop()
                    else:
                        word.append(letter)
            if end != k:
                raise ValueError("word is not in the kernel")
            if word:
                out.append(tuple(word))
    return out


def expand_rs_word(t: Transversal, w: SignedWord) -> SignedWord:
    """Spell a word in the a_{k,x} back in the ambient generators, reduced."""
    out: list[tuple[str, int]] = []
    for name, sign in w:
        word = t.word_of_name[name]
        out.extend(word if sign == 1 else invert_word(word))
    return free_reduce(tuple(out), t.involutive)


def rs_presentation(
    p: Presentation, images: Mapping[str, Permutation], budget: int = 1000
) -> SimplifiedPresentation:
    """Presentation of the kernel: RS generators and relators, then Tietze
    simplification with the given budget."""
    t = build_transversal(p, images)
    generators = tuple(g.name for g in rs_generators(t))
    raw = Presentation(generators, tuple(rs_relators(p, t)))
    return tietze_simplify(raw, budget)


def interval_of(name: str, n: int) -> tuple[int, int]:
    """The interval (p, q) that a generator name s<p><q> stands for in J_n.

    The digits are split as p and q with 1 <= p < q <= n and no leading zero;
    a name with no such split, or with more than one, is rejected.

    >>> interval_of('s110', 10), interval_of('s45', 5)
    ((1, 10), (4, 5))
    """
    digits = name[1:]
    splits = []
    # p and q have at most as many digits as n, which bounds the work
    short = len(digits) <= 2 * len(str(n))
    if name.startswith("s") and digits.isascii() and digits.isdigit() and short:
        for k in range(1, len(digits)):
            a, b = digits[:k], digits[k:]
            if a[0] != "0" and b[0] != "0" and 1 <= int(a) < int(b) <= n:
                splits.append((int(a), int(b)))
    if not splits:
        raise ValueError(f"cannot infer an interval from generator name {name!r} for n={n}")
    if len(splits) > 1:
        raise ValueError(f"generator name {name!r} is ambiguous for n={n}: {splits}")
    return splits[0]


def strand_images(p: Presentation, n: int) -> dict[str, Permutation]:
    """Interpret generator names s<p><q> as interval reversals of S_n, the
    intervals read by interval_of.

    >>> images = strand_images(Presentation(('s12', 's110'), ()), 10)
    >>> images['s110'] == Permutation.interval_reversal(10, 1, 10)
    True
    """
    return {name: Permutation.interval_reversal(n, *interval_of(name, n)) for name in p.generators}


# Spellings of the pure generators on 4 strands using inner generators as
# well; each must equal its defining word in the leftmost generators.
PJ4_MIXED_WORDS: dict[str, tuple[tuple[int, int], ...]] = {
    "alpha": ((1, 3), (1, 2), (2, 3), (1, 2)),
    "beta": ((1, 4), (2, 4), (1, 3), (1, 2), (3, 4)),
    "gamma": ((1, 2), (3, 4), (2, 4), (1, 3), (1, 4)),
    "delta": ((1, 3), (1, 2), (3, 4), (1, 3), (1, 4)),
    "epsilon": ((3, 4), (2, 3), (2, 4), (1, 2), (2, 3), (1, 3)),
    "zeta": ((2, 4), (2, 3), (3, 4), (2, 3)),
    "eta": ((1, 3), (2, 4), (1, 3), (2, 4)),
    "theta": ((1, 2), (2, 3), (3, 4), (1, 3), (1, 4)),
    "kappa": ((1, 2), (2, 3), (3, 4), (2, 3), (2, 4), (1, 2)),
}

_BETA_ALT = ((1, 3), (1, 4), (1, 3), (1, 2), (1, 4), (1, 2), (1, 4))


@dataclasses.dataclass(frozen=True, slots=True)
class Pj4Report:
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def verify_pj4() -> Pj4Report:
    """Exact identity suite for the one-relator data on 4 strands.

    Checks, all decided by the cactus word problem: the five defining words
    and the four derived ones are pure; both spellings of beta agree; every
    mixed-generator spelling equals its leftmost-generator form; the derived
    generators factor as claimed; and the relator with the defining words
    substituted is trivial.
    """
    defined = {name: cactus.word(4, pairs) for name, pairs in PJ4_GENERATOR_WORDS.items()}
    alpha, beta = defined["alpha"], defined["beta"]
    gamma, delta, epsilon = defined["gamma"], defined["delta"], defined["epsilon"]
    derived = {
        "zeta": epsilon * alpha.inverse(),
        "eta": beta * gamma,
        "theta": alpha.inverse() * delta,
    }
    derived["kappa"] = derived["theta"] * derived["eta"].inverse() * beta
    checks: list[tuple[str, bool]] = []
    for name, w in {**defined, **derived}.items():
        checks.append((f"{name} is pure", cactus.is_pure(w)))
    checks.append(("beta spellings agree", cactus.equal(beta, cactus.word(4, _BETA_ALT))))
    for name, pairs in PJ4_MIXED_WORDS.items():
        reference = defined.get(name) or derived[name]
        checks.append(
            (f"{name} mixed spelling", cactus.equal(cactus.word(4, pairs), reference))
        )
    relator = (
        alpha * gamma * epsilon * beta * epsilon * alpha.inverse()
        * delta.inverse() * beta * gamma * delta.inverse()
    )
    checks.append(("relator is trivial", cactus.is_trivial(relator)))
    return Pj4Report(tuple(checks))
