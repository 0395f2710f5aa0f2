"""
Command-line front end.

Decision subcommands (eq, pure, member) print true/false and exit 0 for true,
1 for false.  Usage errors and refusals (each a ValueError, which main prints
as "error: ...") exit 2.  Most subcommands accept --json for JSON output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import cactus, presentation, subgroups, syntax
from .presentation import abelianization, builtin
from .render import render_svg
from .rschreier import build_transversal, rs_generators, rs_relators, strand_images, verify_pj4
from .subgroups import IntervalCollection


# Largest -n a word subcommand accepts, checked before the word is read: each
# one allocates state per strand.  The library itself takes any n.
MAX_STRANDS = 10_000

# Largest collection `member` accepts, counted before it is built: checking
# its symmetry visits every nested pair of intervals, about 0.7 s at this size
# when nearly all pairs nest (the slice 2..71 at n = 71 has 2,485 intervals).
MAX_INTERVALS = 2_500

# Longest power c^m (m the order of the strand permutation) that `order`
# pushes, checked only when it pushes: m at most --bound and a power of two,
# so m <= n.  The push is quadratic in m * len(c) when little cancels: about
# 10 s at this size for the worst word found, n = 10,000 and c the 2,500
# blocks s(a,a+1) s(a+2,a+3) s(a,a+3) (m = 2), whose readings all commute.
MAX_POWER_LETTERS = 15_000

# Most crossed labels, the sum of q - p + 1 over the letters, that `image` and
# `render` accept, counted after the word is parsed and before the diagram is
# read: both write out every label of every crossing, so a short argument such
# as s(1,10000) repeated asks for output in proportion to its leaves.  At this
# size `render` takes about 0.25 s and 100 MiB and writes a 17 MB SVG.
MAX_CROSSED_LABELS = 500_000

# Most conjugator letters `decompose` may print: the sum, over the small
# letters, of the big letters before each, counted after the word is parsed.
# Output and time grow with the square of the word: s(1,3) s(1,2) s(2,4)
# s(1,2) repeated to 1,996 letters, -n 4 --min-leaf 3, sums to 498,501,
# takes about 1.4 s and prints 3.5 MB.
MAX_DECOMPOSE_LETTERS = 500_000

_BUILTIN_STRANDS = {"J3": 3, "J4": 4}  # the choices of `rs --builtin`, with their strands


def _refuse_over(cap: str, count: int, what: str) -> None:
    """Refuse `what` if count passes the cap named `cap`, read when called."""
    if count > (limit := globals()[cap]):
        raise ValueError(f"{what}, more than {cap} = {limit}")


def _word_argument(parser: argparse.ArgumentParser, count: int = 1) -> None:
    parser.add_argument(
        "-n", type=int, required=True, help=f"number of strands, at most {MAX_STRANDS}"
    )
    names = ["word"] if count == 1 else ["word1", "word2"]
    for name in names:
        parser.add_argument(name, help="cactus word, e.g. 's(1,2) s(2,4)'")


def _parse_word(args: argparse.Namespace, name: str = "word") -> cactus.CactusWord:
    """Parse the word argument `name`; an error in it names the argument."""
    try:
        return syntax.parse_cactus_word(getattr(args, name), args.n)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def _parse_diagram_word(args: argparse.Namespace) -> cactus.CactusWord:
    """Parse the word of `image` or `render`, refusing one with too many crossed labels."""
    w = _parse_word(args)
    crossed = sum(letter.leaf for letter in w.letters)
    _refuse_over("MAX_CROSSED_LABELS", crossed, f"word crosses {crossed} labels")
    return w


def _decision(value: bool) -> int:
    print("true" if value else "false")
    return 0 if value else 1


def _load_collection(args) -> IntervalCollection:
    if args.slice:
        try:
            i, j = (int(x) for x in args.slice.split(","))
        except ValueError:
            raise ValueError(f"--slice needs two integers i,j, got {args.slice!r}") from None
        if 2 <= i <= j <= args.n:  # leaf number k has n - k + 1 intervals
            count = (j - i + 1) * (2 * args.n + 2 - i - j) // 2
            _refuse_over("MAX_INTERVALS", count,
                         f"--slice {i},{j} at n={args.n} has {count} intervals")
        return IntervalCollection.slice(args.n, i, j)
    with open(args.collection, encoding="utf-8") as handle:
        try:
            pairs = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValueError(f"--collection {args.collection}: not JSON: {exc}") from None
        except ValueError as exc:  # an integer too long for int()
            raise ValueError(f"--collection {args.collection}: {exc}") from None
    pairs = pairs if isinstance(pairs, list) else [pairs]
    _refuse_over("MAX_INTERVALS", len(pairs),
                 f"--collection {args.collection} has {len(pairs)} intervals")
    for pq in pairs:
        if not (isinstance(pq, list) and len(pq) == 2 and all(type(x) is int for x in pq)):
            raise ValueError(f"--collection {args.collection}: expected a JSON list of"
                             f" [p,q] integer pairs, got {json.dumps(pq)}")
    try:
        return IntervalCollection.of(args.n, [tuple(pq) for pq in pairs])
    except ValueError as exc:  # an interval out of bounds for n
        raise ValueError(f"--collection {args.collection}: {exc}") from None


def _presentation_from_args(args):
    if getattr(args, "builtin", None):
        return builtin(args.builtin)
    with open(args.presentation, encoding="utf-8") as handle:
        return syntax.parse_presentation(handle.read())


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="saguaro", description="Exact computation in cactus groups."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    canon = sub.add_parser("canon", help="canonical representative of a word")
    _word_argument(canon)
    canon.add_argument("--json", action="store_true")

    eq = sub.add_parser("eq", help="decide equality of two words")
    _word_argument(eq, count=2)

    order = sub.add_parser(
        "order", help="order of an element, exact; 'infinite', or 'absent' if the order"
        " of its strand permutation exceeds --bound"
    )
    _word_argument(order)
    order.add_argument("--bound", type=int, default=64)

    image = sub.add_parser("image", help="Gauss word and strand permutation")
    _word_argument(image)
    image.add_argument("--json", action="store_true")

    pure = sub.add_parser("pure", help="decide whether a word is pure")
    _word_argument(pure)

    member = sub.add_parser("member", help="membership in a symmetric-collection subgroup")
    _word_argument(member)
    group = member.add_mutually_exclusive_group(required=True)
    group.add_argument("--collection", help="JSON file with a list of [p,q] intervals")
    group.add_argument("--slice", help="leaf-number slice, e.g. 2,2")

    erase = sub.add_parser("erase", help="erase letters of small leaf number")
    _word_argument(erase)
    erase.add_argument("--min-leaf", type=int, required=True)

    decompose = sub.add_parser(
        "decompose", help="factor small-leaf content as conjugates of small letters"
    )
    _word_argument(decompose)
    decompose.add_argument("--min-leaf", type=int, required=True)
    decompose.add_argument("--json", action="store_true")

    rs = sub.add_parser("rs", help="Reidemeister-Schreier subgroup presentation")
    source = rs.add_mutually_exclusive_group(required=True)
    source.add_argument("--presentation", help="presentation file (gens:/rels: format)")
    source.add_argument("--builtin", choices=_BUILTIN_STRANDS, help="builtin cactus presentation")
    images = rs.add_mutually_exclusive_group()
    images.add_argument("--images", help="generator image file, 'name: (2,1,3,4)' per line")
    images.add_argument(
        "--strands", type=int,
        help=f"derive images s<pq> -> interval reversal, 2 to {MAX_STRANDS} strands"
             " (a builtin's own strand count if absent)",
    )
    rs.add_argument("--budget", type=int, default=1000)
    rs.add_argument("--json", action="store_true")

    abel = sub.add_parser("abel", help="abelianization of a presentation")
    abel.add_argument("--presentation", required=True)
    abel.add_argument("--json", action="store_true")

    sub.add_parser("verify-pj4", help="identity suite for the pure four-strand data")

    render = sub.add_parser("render", help="render a word as SVG")
    _word_argument(render)
    render.add_argument("-o", "--output", required=True)
    render.add_argument("--labels", action="store_true")

    self_test = sub.add_parser("selftest", help="run the acceptance suite")
    self_test.add_argument("--quick", action="store_true", help="smaller random batches")

    return parser


def run(args: argparse.Namespace) -> int:
    if getattr(args, "n", 0) > MAX_STRANDS:
        raise ValueError(f"need n <= {MAX_STRANDS}, got {args.n}")
    if getattr(args, "n", 2) < 2:
        raise ValueError(f"need n >= 2, got {args.n}")
    if args.command == "canon":
        w = cactus.canonical(_parse_word(args))
        if args.json:
            print(json.dumps({"word": [[l.p, l.q] for l in w.letters]}))
        else:
            print(syntax.format_cactus_word(w))
        return 0
    if args.command == "eq":
        u = _parse_word(args, "word1")
        v = _parse_word(args, "word2")
        return _decision(cactus.equal(u, v))
    if args.command == "order":
        if args.bound < 1:
            raise ValueError(f"--bound must be >= 1, got {args.bound}")
        w = _parse_word(args)
        m, masks, labels = cactus._strand_order(w)
        if m <= args.bound and not m & (m - 1):
            _refuse_over("MAX_POWER_LETTERS", m * len(w), f"c^{m} has {m * len(w)} letters")
        print("absent" if m > args.bound else cactus._power_order(w, m, masks, labels) or "infinite")
        return 0
    if args.command == "image":
        r = cactus.read_diagram(_parse_diagram_word(args))
        if args.json:
            print(json.dumps({"gauss": [list(l.labels) for l in r.gauss.letters],
                              "perm": list(r.perm.images)}))
        else:
            print(f"d = {r.gauss}")
            print(f"s = {r.perm}")
        return 0
    if args.command == "pure":
        return _decision(cactus.is_pure(_parse_word(args)))
    if args.command == "member":
        w = _parse_word(args)
        return _decision(subgroups.is_member(w, _load_collection(args)))
    if args.command == "erase":
        w = _parse_word(args)
        print(syntax.format_cactus_word(subgroups.eraser_slice(args.min_leaf, w)))
        return 0
    if args.command == "decompose":
        w = _parse_word(args)
        bigs = letters = 0
        for letter in w.letters:
            if letter.leaf < args.min_leaf:
                letters += bigs
            else:
                bigs += 1
        _refuse_over("MAX_DECOMPOSE_LETTERS", letters,
                     f"the conjugators may have {letters} letters")
        pieces = subgroups.kernel_decompose(args.min_leaf, w)
        if args.json:
            print(json.dumps([
                {"conjugator": [[l.p, l.q] for l in g.letters], "small": [m.p, m.q]}
                for g, m in pieces
            ]))
        else:
            for g, m in pieces:
                print(f"{syntax.format_cactus_word(g) or '1'} | {m}")
        return 0
    if args.command == "rs":
        return _run_rs(args)
    if args.command == "abel":
        pres = _presentation_from_args(args)
        rank, factors = abelianization(pres)
        if args.json:
            print(json.dumps({"rank": rank, "factors": list(factors)}))
        else:
            print(f"rank {rank}, invariant factors {list(factors)}")
        return 0
    if args.command == "verify-pj4":
        report = verify_pj4()
        for name, ok in report.checks:
            print(f"{'ok  ' if ok else 'FAIL'} {name}")
        return 0 if report.passed else 1
    if args.command == "render":
        w = _parse_diagram_word(args)
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(render_svg(w, labels=args.labels))
        return 0
    if args.command == "selftest":
        from . import selftest  # imported on use, so no other command compiles it
        return 0 if selftest.run(quick=args.quick) else 1
    raise AssertionError(f"unhandled command {args.command}")


def _run_rs(args: argparse.Namespace) -> int:
    if args.budget < 0:
        raise ValueError(f"need budget >= 0, got {args.budget}")
    # checked before the presentation is read: the images allocate per strand
    if args.strands is not None and not 2 <= args.strands <= MAX_STRANDS:
        raise ValueError(f"need 2 <= --strands <= {MAX_STRANDS}, got {args.strands}")
    pres = _presentation_from_args(args)
    if args.images:
        with open(args.images, encoding="utf-8") as handle:
            images = syntax.parse_images_file(handle.read())
    elif strands := args.strands or _BUILTIN_STRANDS.get(args.builtin):
        images = strand_images(pres, strands)
    else:
        raise ValueError("rs needs --images or --strands (or --builtin)")
    transversal = build_transversal(pres, images)
    generators = tuple(g.name for g in rs_generators(transversal))
    raw = rs_relators(pres, transversal)
    # called through its module, so that per-layer tracing of presentation sees it
    result = presentation.tietze_simplify(
        presentation.Presentation(generators, tuple(raw)), args.budget
    )
    simplified = result.presentation
    rank, factors = abelianization(simplified)
    if args.json:
        print(json.dumps({
            "cosets": len(transversal),
            "raw_generators": list(generators),
            "raw_relator_count": len(raw),
            "generators": list(simplified.generators),
            "relators": [[[name, e] for name, e in rel] for rel in simplified.relators],
            "abelianization": {"rank": rank, "factors": list(factors)},
            "budget_exhausted": result.budget_exhausted,
        }))
    else:
        print(f"cosets: {len(transversal)}")
        print(f"nontrivial generators: {len(generators)}")
        print(f"relators before simplification: {len(raw)}")
        print(f"simplified generators: {', '.join(simplified.generators) or '(none)'}")
        for rel in simplified.relators:
            print(f"relator: {syntax.format_signed_word(rel)}")
        print(f"abelianization: rank {rank}, invariant factors {list(factors)}")
        if result.budget_exhausted:
            print("note: simplification budget exhausted")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
