"""The benchmark's workloads: seeded input generation, the operations of one
round, and the checks of their outputs.

Inputs are generated here from the seed alone, without saguaro (in particular
without ``saguaro.sampling``), and handed to the program as text.  Every
answer is checked by ``checker``: equality and membership answers are known
by construction, the rest are checked against invariants the simulator
computes or properties the method must have.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random

import checker

# ---------------------------------------------------------------------------
# Word generation


def random_letter(rng: random.Random, n: int) -> tuple[int, int]:
    p = rng.randint(1, n - 1)
    return p, rng.randint(p + 1, n)


def random_word(rng: random.Random, n: int, length: int) -> list[tuple[int, int]]:
    return [random_letter(rng, n) for _ in range(length)]


def exchange(x: tuple[int, int], y: tuple[int, int]):
    """Rewrite x y as y' x' by a defining relation, or None if none applies:
    disjoint letters commute, and a nested letter passes its enclosing one
    reflected (s_x s_y s_x = s_y' for y inside x)."""
    (a, b), (c, d) = x, y
    if b < c or d < a:
        return y, x
    if a <= c and d <= b:
        return (a + b - d, a + b - c), x
    if c <= a and b <= d:
        return y, (c + d - b, c + d - a)
    return None


def relation_moves(rng: random.Random, n: int, word, moves: int, max_length: int):
    """Apply random defining-relation moves: exchanges, insertion of a pair
    s s, deletion of an adjacent equal pair.  The result equals the input."""
    w = list(word)
    for _ in range(moves):
        kind = rng.random()
        if kind < 0.1 and len(w) + 2 <= max_length:
            i = rng.randint(0, len(w))
            letter = random_letter(rng, n)
            w[i:i] = [letter, letter]
        elif kind < 0.15:
            pairs = [i for i in range(len(w) - 1) if w[i] == w[i + 1]]
            if pairs:
                i = rng.choice(pairs)
                del w[i : i + 2]
        elif len(w) >= 2:
            i = rng.randrange(len(w) - 1)
            moved = exchange(w[i], w[i + 1])
            if moved is not None:
                w[i], w[i + 1] = moved
    return w


def pure_odd_word(rng: random.Random, n: int, max_length: int):
    """A pure word (identity strand permutation) with a non-zero parity
    vector, hence a non-trivial pure cactus: a short random word followed by
    the adjacent transpositions that sort its strands back."""
    while True:
        w = random_word(rng, n, rng.randint(1, 3))
        perm = checker.permutation(n, w)
        at = [0] * n  # at[pos - 1] = strand at that position
        for strand, pos in enumerate(perm, start=1):
            at[pos - 1] = strand
        changed = True
        while changed:
            changed = False
            for i in range(n - 1):
                if at[i] > at[i + 1]:
                    at[i], at[i + 1] = at[i + 1], at[i]
                    w.append((i + 1, i + 2))
                    changed = True
        if len(w) <= max_length and checker.parity(n, w):
            return w


def unequal_partner(rng: random.Random, n: int, word, max_pure: int):
    """The word with a pure odd-parity word inserted: same strand permutation,
    different parity vector, so a different cactus."""
    pure = pure_odd_word(rng, n, max_pure)
    i = rng.randint(0, len(word))
    partner = list(word[:i]) + pure + list(word[i:])
    if checker.parity(n, partner) == checker.parity(n, word):
        raise AssertionError("inserted pure word left the parity vector unchanged")
    return partner


def text(word) -> str:
    return " ".join(f"s({p},{q})" for p, q in word)


def as_pairs(cactus_word) -> tuple[tuple[int, int], ...]:
    return tuple((letter.p, letter.q) for letter in cactus_word.letters)


# ---------------------------------------------------------------------------
# Workloads.  Each has:
#   generate(seed) -> spec    plain data; spec["texts"] is what set-up parses
#   operations(saguaro, spec, parsed) -> [(kind, fn)]   one round
#   check(saguaro, spec, parsed, i, output) -> bool     for operation i


class LongWords:
    """cactus.equal on word pairs and cactus.canonical on the first word of
    each pair, with as many equal as unequal pairs at every (n, L)."""

    # (n, L) -> number of equal pairs, and as many unequal ones.  With these
    # counts one round leaves about 1.0M entries in racg's commutation cache,
    # between the sizes at which the dict grows (0.7M and 1.4M); at about 0.7M,
    # as with one pair of each everywhere, peak RSS jumped by 40 MiB from seed
    # to seed.  L = 200 gets three times the pairs at n = 12 and 24, so that the
    # median latency falls in the middle of one large group of similar
    # operations rather than between two small ones.
    PAIRS = {(6, 50): 1, (6, 200): 1, (6, 800): 1,
             (12, 50): 2, (12, 200): 6, (12, 800): 2,
             (24, 50): 1, (24, 200): 3, (24, 800): 1}

    @staticmethod
    def generate(seed: int) -> dict:
        rng = random.Random(f"long_words:{seed}")
        pairs = []
        for (n, length), count in LongWords.PAIRS.items():
            for _ in range(count):
                u = random_word(rng, n, length)
                v = relation_moves(rng, n, u, moves=2 * length, max_length=length + length // 5)
                pairs.append({"n": n, "u": u, "v": v, "equal": True})
                u = random_word(rng, n, length)
                v = unequal_partner(rng, n, u, max_pure=max(8, length // 10))
                pairs.append({"n": n, "u": u, "v": v, "equal": False})
        texts = []
        for pair in pairs:
            texts += [("cactus", pair["n"], text(pair["u"])), ("cactus", pair["n"], text(pair["v"]))]
        return {"pairs": pairs, "texts": texts}

    @staticmethod
    def operations(saguaro, spec, parsed):
        cactus = saguaro.cactus
        ops = []
        for i in range(len(spec["pairs"])):
            u, v = parsed[2 * i], parsed[2 * i + 1]
            ops.append(("equal", lambda u=u, v=v: cactus.equal(u, v)))
            ops.append(("canonical", lambda u=u: cactus.canonical(u)))
        return ops

    @staticmethod
    def check(saguaro, spec, parsed, i, out) -> bool:
        pair = spec["pairs"][i // 2]
        if i % 2 == 0:
            return checker.check_decision(out, pair["equal"])
        cactus = saguaro.cactus
        again = as_pairs(cactus.canonical(out))
        partner = as_pairs(cactus.canonical(parsed[i])) if pair["equal"] else None
        return checker.check_canonical(pair["n"], tuple(pair["u"]), as_pairs(out), again, partner)


class ShortWords:
    """Many small queries: equal, canonical, order (bound 64), membership in
    the twin slice 2,2 and render_svg, at n in {4, 5, 6} and length <= 10."""

    GROUPS = 4000
    MAX_LENGTH = 10

    @staticmethod
    def generate(seed: int) -> dict:
        rng = random.Random(f"short_words:{seed}")
        top = ShortWords.MAX_LENGTH
        groups = []
        for g in range(ShortWords.GROUPS):
            n = (4, 5, 6)[g % 3]
            equal = (g // 3) % 2 == 0
            if equal:
                u = random_word(rng, n, rng.randint(1, 8))
                v = relation_moves(rng, n, u, moves=6, max_length=top)
            else:
                u = random_word(rng, n, rng.randint(1, 4))
                v = unequal_partner(rng, n, u, max_pure=top - len(u))
            if g % 10 == 0:
                order_word, order_known = [(1, 2), (1, 4)], 4
            else:
                order_word, order_known = [], None
                while not checker.parity(n, order_word):
                    order_word = random_word(rng, n, rng.randint(1, top))
            member = g % 2 == 0
            if member:
                m = [(p, p + 1) for p in (rng.randint(1, n - 1) for _ in range(rng.randint(1, top)))]
            else:
                m = []
                while not any(len(s) >= 3 for s in checker.parity(n, m)):
                    m = random_word(rng, n, rng.randint(1, top))
            r = random_word(rng, n, rng.randint(1, top))
            groups.append({"n": n, "u": u, "v": v, "equal": equal, "order": order_word,
                           "order_known": order_known, "member": m, "is_member": member, "render": r})
        texts = []
        for gr in groups:
            for key in ("u", "v", "order", "member", "render"):
                texts.append(("cactus", gr["n"], text(gr[key])))
        return {"groups": groups, "texts": texts}

    @staticmethod
    def operations(saguaro, spec, parsed):
        cactus, subgroups, render = saguaro.cactus, saguaro.subgroups, saguaro.render
        twins = {n: subgroups.IntervalCollection.slice(n, 2, 2) for n in (4, 5, 6)}
        ops = []
        for g, gr in enumerate(spec["groups"]):
            u, v, o, m, r = parsed[5 * g : 5 * g + 5]
            c = twins[gr["n"]]
            ops += [
                ("equal", lambda u=u, v=v: cactus.equal(u, v)),
                ("canonical", lambda u=u: cactus.canonical(u)),
                ("order", lambda o=o: cactus.order(o, 64)),
                ("is_member", lambda m=m, c=c: subgroups.is_member(m, c)),
                ("render_svg", lambda r=r: render.render_svg(r)),
            ]
        return ops

    @staticmethod
    def check(saguaro, spec, parsed, i, out) -> bool:
        gr = spec["groups"][i // 5]
        n, kind = gr["n"], i % 5
        if kind == 0:
            return checker.check_decision(out, gr["equal"])
        if kind == 1:
            cactus = saguaro.cactus
            again = as_pairs(cactus.canonical(out))
            partner = as_pairs(cactus.canonical(parsed[i])) if gr["equal"] else None
            return checker.check_canonical(n, tuple(gr["u"]), as_pairs(out), again, partner)
        if kind == 2:
            return checker.check_order(n, gr["order"], out, gr["order_known"])
        if kind == 3:
            return checker.check_decision(out, gr["is_member"])
        return checker.check_render(n, gr["render"], out)


def full_presentation(n: int, rng: random.Random) -> str:
    """The full presentation of J_n on all s<p><q>: involutions, commuting
    disjoint pairs, and one conjugation relator per nested (outer, inner)
    pair.  The seed only shuffles the relator order."""
    intervals = [(p, q) for p in range(1, n + 1) for q in range(p + 1, n + 1)]
    name = {pq: f"s{pq[0]}{pq[1]}" for pq in intervals}
    rels = [f"{name[x]}^2" for x in intervals]
    for x, y in itertools.permutations(intervals, 2):
        moved = exchange(x, y)
        if moved is None:
            continue
        if x[1] < y[0]:  # disjoint: once per unordered pair
            rels.append(f"{name[x]} {name[y]} = {name[y]} {name[x]}")
        elif y[0] >= x[0] and y[1] <= x[1]:  # y nested in x
            rels.append(f"{name[x]} {name[y]} {name[x]} = {name[moved[0]]}")
    rng.shuffle(rels)
    return "\n".join(["gens: " + " ".join(name[x] for x in intervals)] + [f"rels: {r}" for r in rels])


class Presentations:
    """The Reidemeister-Schreier pipeline over the strand permutation: the CLI
    rs command on builtin J4, RS plus abelianization and one Tietze step on
    the full J4 presentation, RS of the full J5 presentation, verify_pj4."""

    FULL = {4: (6, 16), 5: (10, 40)}  # n -> (generators, relators)
    # Three cheap CLI calls per round put the median latency inside one kind
    # of operation instead of on the boundary between two.
    ROUND = ("cli_rs_j4", "rs_full_j4", "cli_rs_j4", "rs_full_j5", "cli_rs_j4", "verify_pj4")

    @staticmethod
    def generate(seed: int) -> dict:
        rng = random.Random(f"presentations:{seed}")
        return {"texts": [("presentation", n, full_presentation(n, rng)) for n in (4, 5)]}

    @staticmethod
    def operations(saguaro, spec, parsed):
        cli, presentation, rschreier = saguaro.cli, saguaro.presentation, saguaro.rschreier
        j4, j5 = parsed

        def rs(p, n):
            t = rschreier.build_transversal(p, rschreier.strand_images(p, n))
            generators = tuple((g.name, g.word) for g in rschreier.rs_generators(t))
            return len(t), generators, tuple(rschreier.rs_relators(p, t))

        def cli_rs():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["rs", "--builtin", "J4", "--json"])
            return code, out.getvalue()

        def j4_full():
            cosets, generators, relators = rs(j4, 4)
            raw = presentation.Presentation(tuple(name for name, _ in generators), relators)
            simplified = presentation.tietze_simplify(raw, 1)
            return cosets, raw, presentation.abelianization(raw), simplified

        run = {"cli_rs_j4": cli_rs, "rs_full_j4": j4_full, "rs_full_j5": lambda: rs(j5, 5),
               "verify_pj4": lambda: rschreier.verify_pj4()}
        return [(kind, run[kind]) for kind in Presentations.ROUND]

    @staticmethod
    def check(saguaro, spec, parsed, i, out) -> bool:
        kind = Presentations.ROUND[i]
        if kind == "cli_rs_j4":
            code, stdout = out
            data = json.loads(stdout)
            return (code == 0
                    and checker.check_rs_counts(4, 3, 5, data["cosets"], len(data["raw_generators"]),
                                                data["raw_relator_count"])
                    and len(data["generators"]) == 5
                    and [len(rel) for rel in data["relators"]] == [10]
                    and data["abelianization"] == {"rank": 4, "factors": [2]}
                    and data["budget_exhausted"] is False
                    and checker.check_pj4_abelian(
                        data["generators"], [[(g, e) for g, e in rel] for rel in data["relators"]]))
        if kind == "rs_full_j4":
            cosets, raw, abel, simplified = out
            result = simplified.presentation
            return (checker.check_rs_counts(4, *Presentations.FULL[4], cosets,
                                            len(raw.generators), len(raw.relators))
                    and abel == (4, (2,))
                    and checker.check_pj4_abelian(raw.generators, raw.relators)
                    and simplified.steps == 1 and simplified.budget_exhausted is True
                    and len(result.generators) == len(raw.generators) - 1
                    and checker.check_pj4_abelian(result.generators, result.relators))
        if kind == "rs_full_j5":
            cosets, generators, relators = out
            images = checker.interval_images(parsed[1].generators, 5)
            identity = tuple(range(1, 6))
            return (checker.check_rs_counts(5, *Presentations.FULL[5], cosets,
                                            len(generators), len(relators))
                    and all(checker.word_image(w, images) == identity for _, w in generators))
        if kind == "verify_pj4":
            return out.passed and len(out.checks) > 0
        raise ValueError(f"unknown operation {kind!r}")


WORKLOADS = {"long_words": LongWords, "short_words": ShortWords, "presentations": Presentations}
