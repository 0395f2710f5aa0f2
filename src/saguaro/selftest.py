"""
The acceptance suite: one callable per criterion, runnable from the CLI
(`saguaro selftest`) or from pytest.  Each check returns a list of failure
messages; an empty list is a pass.  Batch sizes follow the stated criteria;
quick mode shrinks the random batches (never the exhaustive parts).

The random number generator is seeded (SAGUARO_SEED overrides the default),
so runs are reproducible.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import random
import time
from collections.abc import Callable

from . import cactus, racg, rschreier, sampling, subgroups
from .cactus import CactusWord, word
from .presentation import abelianization, builtin, positive_word
from .racg import GaussLetter, tau
from .rschreier import build_transversal, rs_generators, rs_presentation, strand_images
from .subgroups import IntervalCollection

DEFAULT_SEED = 20251

J4_LETTERS = [(p, q) for p in range(1, 5) for q in range(p + 1, 5)]


@dataclasses.dataclass(frozen=True)
class Sizes:
    pairs: int = 10_000
    perturbations: int = 10_000
    torsion_words: int = 1_000
    pure_words: int = 1_000
    eraser_pairs: int = 1_000
    decompositions: int = 100
    trivial_words: int = 1_000

    @staticmethod
    def quick() -> Sizes:
        return Sizes(
            pairs=500,
            perturbations=500,
            torsion_words=100,
            pure_words=100,
            eraser_pairs=100,
            decompositions=20,
            trivial_words=100,
        )


def check_fig2_reading(rng: random.Random, sizes: Sizes) -> list[str]:
    r = cactus.read_diagram(word(4, [(1, 2), (2, 4), (1, 3)]))
    failures = []
    if str(r.gauss) != "t{1,2} t{1,3,4} t{2,3,4}":
        failures.append(f"gauss reading was {r.gauss}")
    if r.perm.images != (4, 3, 1, 2):
        failures.append(f"permutation was {r.perm}")
    return failures


def check_braid_relation_fails(rng: random.Random, sizes: Sizes) -> list[str]:
    u = word(3, [(1, 2), (2, 3), (1, 2)])
    v = word(3, [(2, 3), (1, 2), (2, 3)])
    return [] if not cactus.equal(u, v) else ["braid relation unexpectedly holds"]


def check_conjugation_identities(rng: random.Random, sizes: Sizes) -> list[str]:
    failures = []
    if not cactus.equal(word(4, [(3, 4)]), word(4, [(1, 4), (1, 2), (1, 4)])):
        failures.append("s(3,4) != s(1,4) s(1,2) s(1,4)")
    g = word(6, [(5, 6), (3, 4)])
    w = word(6, [(3, 4), (1, 2), (1, 4), (3, 6)])
    if not cactus.equal(cactus.conjugate(g, w), word(6, [(1, 4), (3, 6)])):
        failures.append("six-strand conjugation chain did not shorten to s(1,4) s(3,6)")
    return failures


def check_torsion_witnesses(rng: random.Random, sizes: Sizes) -> list[str]:
    start = time.monotonic()
    failures = []
    for k, expected in ((1, 2), (2, 4), (3, 8)):
        got = cactus.order(cactus.torsion_witness(k), bound=64)
        if got != expected:
            failures.append(f"order(t_{k}) = {got}, expected {expected}")
    elapsed = time.monotonic() - start
    if elapsed >= 10:
        failures.append(f"witness orders took {elapsed:.1f}s (>= 10s)")
    return failures


def check_torsion_parity(rng: random.Random, sizes: Sizes) -> list[str]:
    failures = []
    for _ in range(sizes.torsion_words):
        w = sampling.random_word(4, 6, rng)
        got = cactus.order(w, bound=64)
        if got is not None and got & (got - 1):
            failures.append(f"odd-ish order {got} for {w}")
    for _ in range(sizes.pure_words):
        w = sampling.random_pure_word(4, 6, rng)
        # order() assumes PJ_n torsion-free; test it here directly: in a
        # right-angled Coxeter group, the only finite order besides 1 is 2.
        if not cactus.is_trivial(w) and cactus.is_trivial(w.power(2)):
            failures.append(f"pure element {w} has order 2")
    return failures


def check_centerless(rng: random.Random, sizes: Sizes) -> list[str]:
    failures = []
    gens = [word(4, [pq]) for pq in [(1, 2), (1, 3), (1, 4)]]
    elements = {}
    for length in range(4):
        for pairs in itertools.product(J4_LETTERS, repeat=length):
            c = cactus.canonical(word(4, pairs))
            elements[c.letters] = c
    central = [
        c for c in elements.values() if all(cactus.commute(c, g) for g in gens)
    ]
    if len(central) != 1 or central[0].letters != ():
        failures.append(f"central elements of length <= 3: {[str(c) for c in central]}")
    for n in range(3, 7):
        d1 = cactus.read_diagram(word(n, [(1, n), (1, 2)])).gauss
        d2 = cactus.read_diagram(word(n, [(1, 2), (1, n)])).gauss
        full = tuple(range(1, n + 1))
        if d1.letters != (GaussLetter(full), GaussLetter((n - 1, n))):
            failures.append(f"d(s(1,{n}) s(1,2)) read as {d1}")
        if racg.racg_equal(d1, d2):
            failures.append(f"s(1,{n}) commutes with s(1,2)")
    return failures


def check_j3_structure(rng: random.Random, sizes: Sizes) -> list[str]:
    failures = []
    b = word(3, [(1, 2), (1, 3)])
    if cactus.order(b, bound=64) is not None:
        failures.append("s(1,2) s(1,3) has finite order <= 64")
    a = b.power(3)
    if not cactus.is_pure(a):
        failures.append("(s(1,2) s(1,3))^3 is not pure")
    if not cactus.commute(b, a):
        failures.append("b does not commute with b^3")
    return failures


def check_pj4_identities(rng: random.Random, sizes: Sizes) -> list[str]:
    report = rschreier.verify_pj4()
    return [name for name, ok in report.checks if not ok]


def check_rs_j3(rng: random.Random, sizes: Sizes) -> list[str]:
    failures = []
    p = builtin("J3")
    t = build_transversal(p, strand_images(p, 3))
    if len(t) != 6:
        failures.append(f"expected 6 cosets, got {len(t)}")
    simplified = rs_presentation(p, strand_images(p, 3)).presentation
    if len(simplified.generators) != 1 or simplified.relators:
        failures.append(
            f"expected a free presentation on one generator, got {simplified}"
        )
    return failures


# Frozen rewriting values of conjugated relators, keyed by transversal index
# (1-based), relator, and expected output names.
_J4_SPOT_CHECKS = (
    (1, ["s12", "s14"] * 4, ("a_k13_s14", "a_k17_s12")),
    (3, ["s12", "s14"] * 4, ("a_k15_s12", "a_k20_s14")),
    (2, ["s12", "s13", "s14", "s13"] * 2, ("a_k17_s12", "a_k19_s13")),
    (13, ["s13", "s13"], ("a_k13_s13", "a_k21_s13")),
    (5, ["s12", "s14"] * 4, ("a_k22_s12", "a_k18_s14", "a_k24_s14")),
)

# Identification relations among the seven surviving generator classes; each
# maps to the identity of the four-strand cactus group.
_J4_IDENTIFICATIONS = (
    (
        ("a_k7_s13", 1),
        ("a_k23_s14", -1),
        ("a_k16_s13", -1),
        ("a_k12_s13", 1),
        ("a_k13_s13", 1),
        ("a_k15_s12", -1),
    ),
    (("a_k13_s13", 1), ("a_k18_s12", 1), ("a_k23_s14", 1)),
    (
        ("a_k7_s13", 1),
        ("a_k18_s12", -1),
        ("a_k12_s13", -1),
        ("a_k16_s13", -1),
        ("a_k15_s12", 1),
    ),
)

_EXPECTED_TRANSVERSAL = [
    "",
    "s12", "s13", "s14",
    "s12 s13", "s12 s14", "s13 s12", "s13 s14", "s14 s12", "s14 s13",
    "s12 s13 s12", "s12 s13 s14", "s12 s14 s12", "s12 s14 s13",
    "s13 s12 s14", "s13 s14 s12", "s13 s14 s13", "s14 s12 s13",
    "s14 s12 s14", "s14 s13 s12", "s14 s13 s14",
    "s12 s13 s12 s14", "s12 s13 s14 s12", "s12 s14 s13 s12",
]


def _rs_word_to_cactus(t: rschreier.Transversal, signed, n: int) -> CactusWord:
    """A word in the RS generators of a cactus presentation on generators
    s<p><q>, spelled in J_n; every s<p><q> is an involution there."""
    ambient = rschreier.expand_rs_word(t, signed)
    return word(n, [rschreier.interval_of(name, n) for name, _ in ambient])


def check_rs_j4(rng: random.Random, sizes: Sizes) -> list[str]:
    failures = []
    p = builtin("J4")
    images = strand_images(p, 4)
    t = build_transversal(p, images)
    if len(t) != 24:
        failures.append(f"expected 24 cosets, got {len(t)}")
    reps = [" ".join(name for name, _ in rep) for rep in t.reps]
    if reps != _EXPECTED_TRANSVERSAL:
        failures.append("transversal differs from the expected one")
    if len(rs_generators(t)) != 26:
        failures.append(f"expected 26 nontrivial generators, got {len(rs_generators(t))}")
    for coset, relator, expected in _J4_SPOT_CHECKS:
        rep = t.reps[coset - 1]
        conj = rep + positive_word(*relator) + tuple((g, -e) for g, e in reversed(rep))
        got = rschreier.rewrite(t, conj)
        if got != tuple((name, 1) for name in expected):
            failures.append(f"rewrite at coset {coset} gave {got}, expected {expected}")
    for relation in _J4_IDENTIFICATIONS:
        if not cactus.is_trivial(_rs_word_to_cactus(t, relation, 4)):
            failures.append(f"identification relation {relation} fails in J_4")
    simplified = rs_presentation(p, images).presentation
    if len(simplified.generators) != 5:
        failures.append(f"expected 5 generators, got {simplified.generators}")
    if len(simplified.relators) != 1 or len(simplified.relators[0]) != 10:
        failures.append(f"expected one relator of length 10, got {simplified.relators}")
    if abelianization(simplified) != (4, (2,)):
        failures.append(f"abelianization {abelianization(simplified)} != (4, (2,))")
    if abelianization(builtin("PJ4_target")) != (4, (2,)):
        failures.append("target presentation has the wrong abelianization")
    if simplified.relators and not cactus.is_trivial(
        _rs_word_to_cactus(t, simplified.relators[0], 4)
    ):
        failures.append("simplified relator does not hold in J_4")
    return failures


def _rewriting_graph_components(letters: list[GaussLetter], max_length: int) -> dict:
    """Union-find components of the (d1)/(d2) rewriting graph on all words up
    to max_length over the given alphabet (creation allowed up to the cap)."""
    commute = [[racg.commutes(a, b) for b in letters] for a in letters]
    index: dict[tuple[int, ...], int] = {}
    for length in range(max_length + 1):
        for w in itertools.product(range(len(letters)), repeat=length):
            index[w] = len(index)
    parent = list(range(len(index)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for w, i in index.items():
        for k in range(len(w) - 1):
            if w[k] == w[k + 1]:
                union(i, index[w[:k] + w[k + 2 :]])
            elif commute[w[k]][w[k + 1]]:
                union(i, index[w[:k] + (w[k + 1], w[k]) + w[k + 2 :]])
    return {w: find(i) for w, i in index.items()}


def check_racg_oracle(rng: random.Random, sizes: Sizes) -> list[str]:
    letters = [tau(1, 2), tau(1, 3), tau(3, 4), tau(1, 2, 3)]
    components = _rewriting_graph_components(letters, max_length=8)
    by_component: dict[int, tuple] = {}
    by_canonical: dict[tuple, int] = {}
    failures = []
    for length in range(5):
        for w in itertools.product(range(len(letters)), repeat=length):
            canonical = racg.canonical_letters([letters[i] for i in w])
            root = components[w]
            if by_component.setdefault(root, canonical) != canonical:
                failures.append(f"oracle merges distinct canonical forms at {w}")
            if by_canonical.setdefault(canonical, root) != root:
                failures.append(f"canonical form merges distinct oracle classes at {w}")
    return failures


def check_cocycle_and_moves(rng: random.Random, sizes: Sizes) -> list[str]:
    failures = []
    for _ in range(sizes.pairs):
        u = sampling.random_word(5, 8, rng)
        v = sampling.random_word(5, 8, rng)
        left = cactus.cocycle_product(u, v)
        right = cactus.read_diagram(u * v)
        if left.gauss.letters != right.gauss.letters or left.perm != right.perm:
            failures.append(f"cocycle product mismatch for {u} | {v}")
            break
        if cactus.s_image(u) * cactus.s_image(v) != right.perm:
            failures.append(f"permutation morphism mismatch for {u} | {v}")
            break
    for _ in range(sizes.perturbations):
        w = sampling.random_word(5, 8, rng)
        moved = sampling.random_move(w, rng)
        if not cactus.equal(w, moved):
            failures.append(f"single move changed the element: {w} -> {moved}")
            break
    return failures


def check_erasers(rng: random.Random, sizes: Sizes) -> list[str]:
    failures = []
    for n in range(2, 7):
        for i in range(2, n + 1):
            if not subgroups.check_eraser_welldefined(i, n):
                failures.append(f"eraser not well defined at i={i}, n={n}")
    for _ in range(sizes.eraser_pairs):
        n, i = 4, rng.randint(2, 4)
        slice_letters = [pq for pq in J4_LETTERS if pq[1] - pq[0] + 1 >= i]
        w = word(n, [rng.choice(slice_letters) for _ in range(rng.randint(0, 6))])
        if subgroups.eraser_slice(i, w).letters != w.letters:
            failures.append(f"section violated for {w} at i={i}")
            break
        u = sampling.random_word(n, 6, rng)
        v = sampling.random_word(n, 6, rng)
        image = subgroups.eraser_slice(i, cactus.canonical(u * v))
        split = subgroups.eraser_slice(i, u) * subgroups.eraser_slice(i, v)
        if not cactus.equal(image, split):
            failures.append(f"eraser homomorphism fails for {u} | {v} at i={i}")
            break
    for _ in range(sizes.decompositions):
        w = sampling.random_word(4, 8, rng)
        i = rng.randint(2, 4)
        product = CactusWord(4)
        for conjugator, small in subgroups.kernel_decompose(i, w):
            product = product * conjugator * CactusWord(4, (small,)) * conjugator.inverse()
        if not cactus.equal(product * subgroups.eraser_slice(i, w), w):
            failures.append(f"kernel decomposition fails for {w} at i={i}")
            break
    return failures


def check_subgroup_completeness(rng: random.Random, sizes: Sizes) -> list[str]:
    failures = []
    c22 = IntervalCollection.slice(4, 2, 2)
    adjacent = [(1, 2), (2, 3), (3, 4)]
    for _ in range(sizes.trivial_words):
        base = word(4, [rng.choice(adjacent) for _ in range(rng.randint(1, 6))])
        trivial = base * base.inverse()
        for _ in range(rng.randint(0, 12)):
            moves = [m for m in sampling.applicable_moves(trivial) if m[0] != "insert"]
            if rng.random() < 0.3 or not moves:
                pos = rng.randint(0, len(trivial.letters))
                trivial = sampling.apply_move(
                    trivial, ("insert", pos), cactus.CactusLetter(*rng.choice(adjacent))
                )
            else:
                trivial = sampling.apply_move(trivial, rng.choice(moves))
        if cactus.reduce(trivial).letters:
            failures.append(f"trivial twin word did not reduce: {trivial}")
            break
        shifted = base * trivial
        reduced, canonical = cactus.reduce(shifted), cactus.canonical(shifted)
        if any(letter.leaf != 2 for letter in reduced.letters + canonical.letters):
            failures.append(f"reduction left the 2-leaf alphabet on {shifted}")
            break
        if canonical != cactus.canonical(base):
            failures.append(f"canonical form of {shifted} differs from that of {base}")
            break
    if subgroups.is_member(word(4, [(1, 3)]), c22):
        failures.append("s(1,3) accepted as a twin-group member")
    return failures


CHECKS: tuple[tuple[int, str, Callable[[random.Random, Sizes], list[str]]], ...] = (
    (1, "diagram reading reproduces the worked example", check_fig2_reading),
    (2, "braid relation fails in J_3", check_braid_relation_fails),
    (3, "conjugation identities", check_conjugation_identities),
    (4, "torsion witness orders 2, 4, 8", check_torsion_witnesses),
    (5, "orders found are powers of two; pure elements torsion-free", check_torsion_parity),
    (6, "centerlessness at desk scale", check_centerless),
    (7, "three-strand structure", check_j3_structure),
    (8, "pure four-strand identity suite", check_pj4_identities),
    (9, "subgroup presentation pipeline, three strands", check_rs_j3),
    (10, "subgroup presentation pipeline, four strands", check_rs_j4),
    (11, "word problem agrees with the rewriting-graph oracle", check_racg_oracle),
    (12, "cocycle product and relation moves", check_cocycle_and_moves),
    (13, "erasers, sections, kernel decomposition", check_erasers),
    (14, "complete subsets reduce within themselves", check_subgroup_completeness),
)


def seed_from_env() -> int:
    return int(os.environ.get("SAGUARO_SEED", DEFAULT_SEED))


def run(quick: bool = False, seed: int | None = None, emit=print) -> bool:
    sizes = Sizes.quick() if quick else Sizes()
    seed = seed_from_env() if seed is None else seed
    all_ok = True
    for number, title, check in CHECKS:
        failures = check(random.Random(seed + number), sizes)
        status = "ok  " if not failures else "FAIL"
        emit(f"{status} {number:2d}  {title}")
        for message in failures:
            emit(f"         {message}")
        all_ok = all_ok and not failures
    return all_ok
