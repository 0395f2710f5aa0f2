"""
The acceptance suite: one callable per criterion, runnable from the CLI
(`saguaro selftest`) or from pytest.  Each check returns a list of failure
messages; an empty list is a pass.  The CLI and pytest run each criterion
through run_criterion, which times it and fails it at its time limit, if
any.  Each check takes (rng, quick) and states its quick and full batch sizes
inline; the full ones follow the stated criteria, and quick mode shrinks the
random batches and criterion 5's ball, never the other exhaustive parts.

The random number generator is seeded (SAGUARO_SEED overrides the default),
so runs are reproducible.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from collections.abc import Callable

from . import cactus, racg, rschreier, sampling, subgroups
from .cactus import CactusLetter, CactusWord, word
from .presentation import abelianization, builtin, positive_word
from .racg import GaussLetter, tau
from .rschreier import build_transversal, rs_generators, rs_presentation, strand_images
from .subgroups import IntervalCollection

DEFAULT_SEED = 20251

J4_LETTERS = [(p, q) for p in range(1, 5) for q in range(p + 1, 5)]


def check_fig2_reading(rng: random.Random, quick: bool) -> list[str]:
    r = cactus.read_diagram(word(4, [(1, 2), (2, 4), (1, 3)]))
    failures = []
    if str(r.gauss) != "t{1,2} t{1,3,4} t{2,3,4}":
        failures.append(f"gauss reading was {r.gauss}")
    if r.perm.images != (4, 3, 1, 2):
        failures.append(f"permutation was {r.perm}")
    return failures


def check_braid_relation_fails(rng: random.Random, quick: bool) -> list[str]:
    u = word(3, [(1, 2), (2, 3), (1, 2)])
    v = word(3, [(2, 3), (1, 2), (2, 3)])
    return [] if not cactus.equal(u, v) else ["braid relation unexpectedly holds"]


def check_conjugation_identities(rng: random.Random, quick: bool) -> list[str]:
    failures = []
    if not cactus.equal(word(4, [(3, 4)]), word(4, [(1, 4), (1, 2), (1, 4)])):
        failures.append("s(3,4) != s(1,4) s(1,2) s(1,4)")
    g = word(6, [(5, 6), (3, 4)])
    w = word(6, [(3, 4), (1, 2), (1, 4), (3, 6)])
    if not cactus.equal(cactus.conjugate(g, w), word(6, [(1, 4), (3, 6)])):
        failures.append("six-strand conjugation chain did not shorten to s(1,4) s(3,6)")
    return failures


def check_torsion_witnesses(rng: random.Random, quick: bool) -> list[str]:
    failures = []
    for k, expected in ((1, 2), (2, 4), (3, 8)):
        got = cactus.order(cactus.torsion_witness(k), bound=64)
        if got != expected:
            failures.append(f"order(t_{k}) = {got}, expected {expected}")
    return failures


def check_torsion_parity(rng: random.Random, quick: bool) -> list[str]:
    # order() returns None when m, the order of the strand permutation, is
    # not a power of two (J_n has only even torsion); test that theorem here
    # rather than assume it: c^m must then be non-trivial.  A finite order is m.
    failures = []
    n = 4 if quick else 5  # the ball of radius 5 in J_n
    ball = spheres(n, 5)
    words = (sampling.random_word(4, 6, rng) for _ in range(100 if quick else 1_000))
    for w in itertools.chain(words, *ball):
        m = cactus.s_image(w).order()
        if m & (m - 1) and cactus.is_trivial(w.power(m)):
            failures.append(f"c^{m} is trivial for {w}: an order that is not a power of two")
        if (got := cactus.order(w, bound=64)) is not None and got != m:
            failures.append(f"order {got} of {w} is not m = {m}")
    for _ in range(100 if quick else 1_000):
        w = sampling.random_pure_word(4, 6, rng)
        # order() assumes PJ_n torsion-free; test it here directly: in a
        # right-angled Coxeter group, the only finite order besides 1 is 2.
        if not cactus.is_trivial(w) and cactus.is_trivial(w.power(2)):
            failures.append(f"pure element {w} has order 2")
    if (counts := [len(sphere) for sphere in ball[:4]]) != _sphere_sizes_by_moves(n, 3):
        failures.append(f"J{n} sphere sizes {counts} differ from the relation-move closure's")
    return failures


def spheres(n: int, radius: int) -> list[list[CactusWord]]:
    """The spheres of J_n up to radius, breadth first over canonical forms:
    sphere r + 1 holds the new canonical forms of sphere r times a generator."""
    generators = [(CactusLetter(p, q),) for p in range(1, n) for q in range(p + 1, n + 1)]
    out = [[CactusWord(n)]]
    for r in range(radius):
        products = (cactus.canonical(CactusWord(n, w.letters + g))
                    for w in out[-1] for g in generators)
        out.append(list({c.letters: c for c in products if len(c) > r}.values()))
    return out


def _sphere_sizes_by_moves(n: int, radius: int) -> list[int]:
    """Sphere sizes of J_n up to radius, one element per component of the
    relation-move closure of the words up to radius, as long as its shortest
    word: cancellations and exchange moves reduce words and join reductions."""
    letters = [CactusLetter(p, q) for p in range(1, n) for q in range(p + 1, n + 1)]
    shortest: dict[int, int] = {}
    for w, root in _rewriting_graph_components(letters, radius, cactus.exchange_left).items():
        shortest.setdefault(root, len(w))  # the words come shortest first
    return [list(shortest.values()).count(r) for r in range(radius + 1)]


def check_centerless(rng: random.Random, quick: bool) -> list[str]:
    failures = []
    for n, radius, letters in ((4, 3, [(1, 2), (1, 3), (1, 4)]),
                               (5, 4, itertools.combinations(range(1, 6), 2))):
        gens = [word(n, [pq]) for pq in letters]
        central = [c for c in itertools.chain.from_iterable(spheres(n, radius))
                   if all(cactus.commute(c, g) for g in gens)]
        if len(central) != 1 or central[0].letters != ():
            failures.append(f"J{n} central elements of length <= {radius}: {[str(c) for c in central]}")
    for n in range(3, 7):
        d1 = cactus.read_diagram(word(n, [(1, n), (1, 2)])).gauss
        d2 = cactus.read_diagram(word(n, [(1, 2), (1, n)])).gauss
        full = tuple(range(1, n + 1))
        if d1.letters != (GaussLetter(full), GaussLetter((n - 1, n))):
            failures.append(f"d(s(1,{n}) s(1,2)) read as {d1}")
        if racg.racg_equal(d1, d2):
            failures.append(f"s(1,{n}) commutes with s(1,2)")
    return failures


def check_j3_structure(rng: random.Random, quick: bool) -> list[str]:
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


def check_pj4_identities(rng: random.Random, quick: bool) -> list[str]:
    report = rschreier.verify_pj4()
    return [name for name, ok in report.checks if not ok]


def check_rs_j3(rng: random.Random, quick: bool) -> list[str]:
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
    (("a_k7_s13", 1), ("a_k23_s14", -1), ("a_k16_s13", -1),
     ("a_k12_s13", 1), ("a_k13_s13", 1), ("a_k15_s12", -1)),
    (("a_k13_s13", 1), ("a_k18_s12", 1), ("a_k23_s14", 1)),
    (("a_k7_s13", 1), ("a_k18_s12", -1), ("a_k12_s13", -1),
     ("a_k16_s13", -1), ("a_k15_s12", 1)),
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


def check_rs_j4(rng: random.Random, quick: bool) -> list[str]:
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


def _rewriting_graph_components(letters: list, max_length: int, exchange: Callable) -> dict:
    """Union-find components of the rewriting graph on all words up to
    max_length over the given alphabet, words as tuples of letter indices:
    x x cancels (creation allowed up to the cap), and x y, x != y, may be
    rewritten to exchange(x, y) unless that is None."""
    position = {x: k for k, x in enumerate(letters)}
    moves = [[None if (e := exchange(a, b)) is None else tuple(position[x] for x in e)
              for b in letters] for a in letters]
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
            elif (move := moves[w[k]][w[k + 1]]) is not None:
                union(i, index[w[:k] + move + w[k + 2 :]])
    return {w: find(i) for w, i in index.items()}


def check_racg_oracle(rng: random.Random, quick: bool) -> list[str]:
    letters = [tau(1, 2), tau(1, 3), tau(3, 4), tau(1, 2, 3)]
    components = _rewriting_graph_components(
        letters, 8, lambda a, b: (b, a) if racg.commutes(a, b) else None
    )
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


def check_cocycle_and_moves(rng: random.Random, quick: bool) -> list[str]:
    failures = []
    for _ in range(500 if quick else 10_000):
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
    for _ in range(500 if quick else 10_000):
        w = sampling.random_word(5, 8, rng)
        moved = sampling.random_move(w, rng)
        if not cactus.equal(w, moved):
            failures.append(f"single move changed the element: {w} -> {moved}")
            break
    return failures


def check_erasers(rng: random.Random, quick: bool) -> list[str]:
    failures = []
    for n in range(2, 7):
        for i in range(2, n + 1):
            if not subgroups.check_eraser_welldefined(i, n):
                failures.append(f"eraser not well defined at i={i}, n={n}")
    for _ in range(100 if quick else 1_000):
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
    for _ in range(20 if quick else 100):
        w = sampling.random_word(4, 8, rng)
        i = rng.randint(2, 4)
        product = CactusWord(4)
        for conjugator, small in subgroups.kernel_decompose(i, w):
            product = product * conjugator * CactusWord(4, (small,)) * conjugator.inverse()
        if not cactus.equal(product * subgroups.eraser_slice(i, w), w):
            failures.append(f"kernel decomposition fails for {w} at i={i}")
            break
    return failures


def check_subgroup_completeness(rng: random.Random, quick: bool) -> list[str]:
    failures = []
    c22 = IntervalCollection.slice(4, 2, 2)
    adjacent = [(1, 2), (2, 3), (3, 4)]
    for _ in range(100 if quick else 1_000):
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
        if not subgroups.is_member(shifted, c22):
            failures.append(f"twin word {shifted} rejected as a twin-group member")
            break
        outside = shifted * word(4, [(1, 3)])
        if subgroups.is_member(outside, c22):
            failures.append(f"{outside} accepted as a twin-group member")
            break
    if subgroups.is_member(word(4, [(1, 3)]), c22):
        failures.append("s(1,3) accepted as a twin-group member")
    return failures


Check = Callable[[random.Random, bool], list[str]]

CHECKS: tuple[tuple[int, str, Check, float | None], ...] = (
    (1, "diagram reading reproduces the worked example", check_fig2_reading, None),
    (2, "braid relation fails in J_3", check_braid_relation_fails, None),
    (3, "conjugation identities", check_conjugation_identities, None),
    (4, "torsion witness orders 2, 4, 8", check_torsion_witnesses, 10),
    (5, "orders found are powers of two; pure elements torsion-free", check_torsion_parity, 10),
    (6, "centerlessness at desk scale", check_centerless, 10),
    (7, "three-strand structure", check_j3_structure, None),
    (8, "pure four-strand identity suite", check_pj4_identities, None),
    (9, "subgroup presentation pipeline, three strands", check_rs_j3, None),
    (10, "subgroup presentation pipeline, four strands", check_rs_j4, None),
    (11, "word problem agrees with the rewriting-graph oracle", check_racg_oracle, None),
    (12, "cocycle product and relation moves", check_cocycle_and_moves, None),
    (13, "erasers, sections, kernel decomposition", check_erasers, None),
    (14, "complete subsets reduce within themselves", check_subgroup_completeness, None),
)


def seed_from_env() -> int:
    value = os.environ.get("SAGUARO_SEED", str(DEFAULT_SEED))
    try:
        return int(value)
    except ValueError:  # not a literal, or over int()'s digit limit
        shown = repr(value) if len(value) <= 40 else f"{value[:20]!r}... ({len(value)} characters)"
        raise ValueError(f"SAGUARO_SEED={shown} is not an integer seed") from None


def run_criterion(number: int, check: Check, limit: float | None, quick: bool, seed: int):
    """The failures and wall time of one criterion, run once on
    random.Random(seed + number); taking limit seconds or longer fails it."""
    start = time.perf_counter()
    failures = check(random.Random(seed + number), quick)
    elapsed = time.perf_counter() - start
    if limit is not None and elapsed >= limit:
        failures.append(f"took {elapsed:.1f} s, not under its {limit} s limit")
    return failures, elapsed


def run(quick: bool = False, seed: int | None = None, emit=print) -> bool:
    seed = seed_from_env() if seed is None else seed
    all_ok = True
    for number, title, check, limit in CHECKS:
        failures, elapsed = run_criterion(number, check, limit, quick, seed)
        status = "ok  " if not failures else "FAIL"
        emit(f"{status} {number:2d}  {title} ({elapsed:.2f} s)")
        for message in failures:
            emit(f"         {message}")
        all_ok = all_ok and not failures
    return all_ok
