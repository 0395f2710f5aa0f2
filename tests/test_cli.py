import itertools
import json
import pathlib

import pytest

from saguaro import cactus, cli, presentation, rschreier, selftest, syntax
from saguaro.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eq_false_exit_code(capsys):
    code, out, _ = run(capsys, "eq", "-n", "3", "s(1,2) s(2,3) s(1,2)", "s(2,3) s(1,2) s(2,3)")
    assert code == 1 and out.strip() == "false"


def test_eq_true_exit_code(capsys):
    code, out, _ = run(capsys, "eq", "-n", "4", "s(1,4) s(1,2) s(1,4)", "s(3,4)")
    assert code == 0 and out.strip() == "true"


def test_order_output(capsys):
    code, out, _ = run(capsys, "order", "-n", "4", "s(1,2) s(1,4)")
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(capsys, "order", "-n", "3", "s(1,2) s(1,3)", "--bound", "32")
    assert code == 0 and out.strip() == "infinite"


def test_order_huge_bound_decides_from_one_power(monkeypatch, capsys):
    # s(1,2) s(1,3) has strand permutation order m = 3, not a power of two,
    # so it has infinite order and no power of it is pushed
    calls = []
    push = cactus._push_reading

    def counted(*args):
        calls.append(None)
        return push(*args)

    monkeypatch.setattr(cactus, "_push_reading", counted)
    code, out, _ = run(capsys, "order", "-n", "3", "s(1,2) s(1,3)", "--bound", "1000000000000")
    assert code == 0 and out.strip() == "infinite"
    assert len(calls) == 0


def test_order_refuses_a_long_power_before_pushing(monkeypatch, capsys):
    monkeypatch.setattr(cactus.racg, "push_masks", None)
    # m = 4 is a power of two, and the even run of s(2,3) keeps it
    code, out, err = run(capsys, "order", "-n", "4", "s(1,2) s(1,4)" + " s(2,3)" * 7500)
    assert code == 2 and out == ""
    assert f"c^4 has {4 * 7502} letters, more than MAX_POWER_LETTERS = 15000" in err
    # s(1,2) s(1,4) has m = 4, so c^m has 8 letters
    monkeypatch.setattr(cli, "MAX_POWER_LETTERS", 7)
    code, out, err = run(capsys, "order", "-n", "4", "s(1,2) s(1,4)")
    assert code == 2 and out == ""
    assert "c^4 has 8 letters, more than MAX_POWER_LETTERS = 7" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_POWER_LETTERS", 8)
    code, out, _ = run(capsys, "order", "-n", "4", "s(1,2) s(1,4)")
    assert code == 0 and out.strip() == "4"


def test_order_walks_c_once_for_m_and_once_per_further_copy(monkeypatch, capsys):
    # s(1,2) s(1,4) has m = 4: one walk gives m, the cap check and the first
    # copy of c^4, and the three further copies take one walk each
    walks = []
    walk = cactus.walk

    def counted(*args):
        walks.append(None)
        return walk(*args)

    monkeypatch.setattr(cactus, "walk", counted)
    code, out, _ = run(capsys, "order", "-n", "4", "s(1,2) s(1,4)")
    assert code == 0 and out.strip() == "4"
    assert len(walks) == 4
    walks.clear()
    code, out, _ = run(capsys, "order", "-n", "4", "s(1,2) s(1,4)", "--bound", "2")
    assert code == 0 and out.strip() == "absent"
    assert len(walks) == 1


def test_word_commands_refuse_a_huge_interval_end_as_out_of_bounds(capsys):
    # a 5,000-digit p or q exceeds n whatever it is, and is refused before
    # int() reads it (which would fail past 4,300 digits naming no term)
    for term in ("s(1," + "2" * 5000 + ")", "s(" + "2" * 5000 + ",3)", "s(00" + "9" * 5000 + ",1)"):
        for argv in (["canon", "-n", "4", term], ["eq", "-n", "4", "s(1,2)", term],
                     ["order", "-n", "10000", "s(1,2) " + term]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert "out of bounds for n=" in err and "integer string conversion" not in err
    code, _, err = run(capsys, "canon", "-n", "4", "s(1,0005)")
    assert code == 2 and err == "error: word: s(1,5) out of bounds for n=4\n"
    # leading zeros past n's width still name the interval they spell
    zeros = "0" * 5000
    code, out, _ = run(capsys, "canon", "-n", "4", f"s({zeros}1,{zeros}2) s(1,2) s(3,{zeros}4)")
    assert code == 0 and out == "s(3,4)\n"
    code, out, _ = run(capsys, "canon", "-n", "10000", "s(01,2) s(1,2) s(9999,010000)")
    assert code == 0 and out == "s(9999,10000)\n"


def test_order_above_the_bound_stays_absent_whatever_the_cap(monkeypatch, capsys):
    # m = 3 exceeds --bound 2, so nothing is pushed and the cap does not apply
    monkeypatch.setattr(cli, "MAX_POWER_LETTERS", 1)
    code, out, _ = run(capsys, "order", "-n", "3", "s(1,2) s(1,3)", "--bound", "2")
    assert code == 0 and out.strip() == "absent"


def test_order_decides_a_huge_odd_strand_order_under_the_default_cap(monkeypatch, capsys):
    # strands cycle in blocks of 2, 3, 5, 7, 11 and 13: m = 30,030 is not a
    # power of two, so nothing is pushed and c^m, 330,330 letters, is no bar
    blocks = [(1, 2), (3, 5), (6, 10), (11, 17), (18, 28), (29, 41)]
    letters = [f"s({p},{q}) s({p},{q - 1})" if q - p > 1 else f"s({p},{q})" for p, q in blocks]
    monkeypatch.setattr(cactus.racg, "push_masks", None)
    code, out, err = run(capsys, "order", "-n", "41", " ".join(letters), "--bound", "100000")
    assert code == 0 and out.strip() == "infinite" and err == ""


def test_word_commands_reject_huge_n_before_parsing(tmp_path, monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("parse_cactus_word called")

    monkeypatch.setattr(syntax, "parse_cactus_word", fail)
    word = ["-n", "1000000000000", "s(1,2)"]
    for argv in (
        ["canon", *word],
        ["eq", *word, "s(1,2)"],
        ["order", *word],
        ["image", *word],
        ["pure", *word],
        ["member", *word, "--slice", "2,2"],
        ["erase", *word, "--min-leaf", "2"],
        ["decompose", *word, "--min-leaf", "2"],
        ["render", *word, "-o", str(tmp_path / "w.svg")],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "need n <= 10000, got 1000000000000" in err
    assert not (tmp_path / "w.svg").exists()


def test_image_text_and_json(capsys):
    code, out, _ = run(capsys, "image", "-n", "4", "s(1,2) s(2,4) s(1,3)")
    assert code == 0
    assert "d = t{1,2} t{1,3,4} t{2,3,4}" in out
    assert "s = (4,3,1,2)" in out
    code, out, _ = run(capsys, "image", "-n", "4", "s(1,2) s(2,4) s(1,3)", "--json")
    payload = json.loads(out)
    assert payload == {"gauss": [[1, 2], [1, 3, 4], [2, 3, 4]], "perm": [4, 3, 1, 2]}


def test_canon(capsys):
    code, out, _ = run(capsys, "canon", "-n", "4", "s(3,4) s(1,2)")
    assert code == 0 and out.strip() == "s(1,2) s(3,4)"


def test_pure(capsys):
    code, out, _ = run(capsys, "pure", "-n", "3", "s(1,2) s(1,3) s(1,2) s(1,3) s(1,2) s(1,3)")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "pure", "-n", "3", "s(1,2)")
    assert code == 1 and out.strip() == "false"


def test_member_slice_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "member", "-n", "4", "s(1,3)", "--slice", "2,2")
    assert code == 1 and out.strip() == "false"
    collection = tmp_path / "c.json"
    collection.write_text(json.dumps([[1, 2], [1, 4], [3, 4]]))
    code, out, _ = run(
        capsys, "member", "-n", "4", "s(1,4) s(1,2) s(1,4)", "--collection", str(collection)
    )
    assert code == 0 and out.strip() == "true"


@pytest.mark.parametrize("bad", ["x", "2", "2,x", "1,2,3"])
def test_member_bad_slice_names_the_option(capsys, bad):
    code, out, err = run(capsys, "member", "-n", "4", "s(1,3)", "--slice", bad)
    assert code == 2 and out == ""
    assert f"--slice needs two integers i,j, got {bad!r}" in err


@pytest.mark.parametrize("text, entry", [
    ("5", "5"),
    ('[[1,"a"]]', '[1, "a"]'),
    ("[[1,2],[3]]", "[3]"),
    ("[[1,2]", "not JSON"),
])
def test_member_bad_collection_names_file_and_entry(tmp_path, capsys, text, entry):
    collection = tmp_path / "c.json"
    collection.write_text(text)
    code, out, err = run(capsys, "member", "-n", "4", "s(1,2)", "--collection", str(collection))
    assert code == 2 and out == ""
    assert f"--collection {collection}: " in err and entry in err


def test_member_collection_out_of_bounds_names_the_file(tmp_path, capsys):
    collection = tmp_path / "c.json"
    collection.write_text("[[1,5]]")
    code, out, err = run(capsys, "member", "-n", "4", "s(1,2)", "--collection", str(collection))
    assert code == 2 and out == ""
    assert err == f"error: --collection {collection}: interval [1,5] out of bounds for n=4\n"


def test_member_collection_with_a_huge_integer_names_the_file(tmp_path, capsys):
    # json.load reads integers with int(), which fails past 4,300 digits
    collection = tmp_path / "c.json"
    collection.write_text("[[1, " + "2" * 5000 + "]]")
    code, out, err = run(capsys, "member", "-n", "4", "s(1,2)", "--collection", str(collection))
    assert code == 2 and out == ""
    assert err.startswith(f"error: --collection {collection}: ")


class _Unbuilt:
    """Stands in for IntervalCollection: building a collection fails the test."""

    @staticmethod
    def slice(*args):
        raise AssertionError("collection built")

    of = slice


def test_member_refuses_oversized_slice_before_building(monkeypatch, capsys):
    # slice 2,4 at n = 6 has 5 + 4 + 3 = 12 intervals
    monkeypatch.setattr(cli, "MAX_INTERVALS", 11)
    monkeypatch.setattr(cli, "IntervalCollection", _Unbuilt)
    code, out, err = run(capsys, "member", "-n", "6", "s(1,2)", "--slice", "2,4")
    assert code == 2 and out == ""
    assert "--slice 2,4 at n=6 has 12 intervals, more than the 11 allowed" in err
    code, _, err = run(capsys, "member", "-n", "10000", "s(1,2)", "--slice", "2,10000")
    assert code == 2 and "has 49995000 intervals" in err


def test_member_accepts_slice_at_the_cap(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_INTERVALS", 12)
    code, out, _ = run(capsys, "member", "-n", "6", "s(1,2) s(2,5)", "--slice", "2,4")
    assert code == 0 and out.strip() == "true"


def test_member_refuses_oversized_collection_file_before_building(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_INTERVALS", 2)
    collection = tmp_path / "c.json"
    collection.write_text(json.dumps([[1, 2], [1, 4], [3, 4]]))
    word = ["member", "-n", "4", "s(1,2)", "--collection", str(collection)]
    monkeypatch.setattr(cli, "IntervalCollection", _Unbuilt)
    code, out, err = run(capsys, *word)
    assert code == 2 and out == ""
    assert f"--collection {collection} has 3 intervals, more than the 2 allowed" in err
    monkeypatch.undo()
    monkeypatch.setattr(cli, "MAX_INTERVALS", 3)
    code, out, _ = run(capsys, *word)
    assert code == 0 and out.strip() == "true"


def test_erase_and_decompose(capsys):
    code, out, _ = run(capsys, "erase", "-n", "4", "s(1,2) s(1,3)", "--min-leaf", "3")
    assert code == 0 and out.strip() == "s(1,3)"
    code, out, _ = run(
        capsys, "decompose", "-n", "3", "s(1,3) s(1,2) s(1,3)", "--min-leaf", "3", "--json"
    )
    assert code == 0
    assert json.loads(out) == [{"conjugator": [[1, 3]], "small": [1, 2]}]


def test_rs_builtin_json(capsys):
    code, out, _ = run(capsys, "rs", "--builtin", "J4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["cosets"] == 24
    assert len(payload["raw_generators"]) == 26
    assert len(payload["generators"]) == 5
    assert len(payload["relators"][0]) == 10
    assert payload["abelianization"] == {"rank": 4, "factors": [2]}


def test_rs_builtin_j4_output_is_frozen(capsys):
    for argv, name in ((["rs", "--builtin", "J4"], "rs_J4.txt"),
                       (["rs", "--builtin", "J4", "--json"], "rs_J4.json")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_rs_rejects_negative_budget_before_any_work(monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("build_transversal called")

    monkeypatch.setattr(cli, "build_transversal", fail)
    code, out, err = run(capsys, "rs", "--builtin", "J4", "--budget", "-1")
    assert code == 2 and out == ""
    assert "need budget >= 0, got -1" in err


def test_rs_rejects_ambiguous_generator_name(tmp_path, capsys):
    pres = tmp_path / "p.txt"
    pres.write_text("gens: s1213\nrels: s1213^2\n")
    code, out, err = run(capsys, "rs", "--presentation", str(pres), "--strands", "213")
    assert code == 2 and out == ""
    assert "s1213" in err and "ambiguous" in err


@pytest.mark.parametrize("strands", ["0", "1", str(cli.MAX_STRANDS + 1), "300000"])
def test_rs_rejects_strands_out_of_range_before_reading(tmp_path, capsys, strands):
    absent = tmp_path / "absent.txt"  # an error reading it would name the file
    code, out, err = run(capsys, "rs", "--presentation", str(absent), "--strands", strands)
    assert code == 2 and out == ""
    assert f"--strands <= {cli.MAX_STRANDS}, got {strands}" in err


def test_rs_accepts_strands_at_both_limits(tmp_path, capsys):
    pres = tmp_path / "p.txt"
    pres.write_text("gens: s12\nrels: s12^2\n")
    for strands in ("2", str(cli.MAX_STRANDS)):
        code, out, _ = run(capsys, "rs", "--presentation", str(pres), "--strands", strands)
        assert code == 0 and out.startswith("cosets: 2\n")


def test_rs_from_files(tmp_path, capsys):
    pres = tmp_path / "j3.txt"
    pres.write_text("gens: s12 s13\nrels: s12^2\nrels: s13^2\n")
    images = tmp_path / "images.txt"
    images.write_text("s12: (2,1,3)\ns13: (3,2,1)\n")
    code, out, _ = run(
        capsys, "rs", "--presentation", str(pres), "--images", str(images), "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["cosets"] == 6
    assert payload["relators"] == []
    assert len(payload["generators"]) == 1


def test_rs_images_missing_a_generator_names_it(tmp_path, capsys):
    pres = tmp_path / "j3.txt"
    pres.write_text("gens: s12 s13\nrels: s12^2\nrels: s13^2\n")
    images = tmp_path / "images.txt"
    images.write_text("s12: (2,1,3)\n")
    code, out, err = run(capsys, "rs", "--presentation", str(pres), "--images", str(images))
    assert code == 2 and out == ""
    assert "no image given for generators ['s13']" in err


def test_rs_images_refuse_a_repeated_generator_naming_both_lines(tmp_path, capsys):
    pres = tmp_path / "j3.txt"
    pres.write_text("gens: s12 s13\nrels: s12^2\nrels: s13^2\n")
    images = tmp_path / "images.txt"
    images.write_text("s12: (2,1,3)\ns13: (3,2,1)\n# again\ns12: (1,2,3)\n")
    code, out, err = run(capsys, "rs", "--presentation", str(pres), "--images", str(images))
    assert code == 2 and out == ""
    assert err == "error: image of s12 on line 4: s12 already has an image on line 1\n"


def test_rs_images_refuse_a_huge_image_naming_the_generator_and_line(tmp_path, capsys):
    images = tmp_path / "images.txt"
    zeros = "0" * 5000
    for table, message in (
        (f"s12: ({'2' * 5000},1,3,4)", "image of s12 on line 1: not a permutation of 1..4:"
                                       " an image has 5000 digits"),
        (f"# J4\ns12: (2,1,3,4)\ns13: (3,2,1,{zeros}44)", "image of s13 on line 3: not a"
                                                        " permutation of 1..4: an image has 2 digits"),
        ("s12: (2,1,3,4)\ns13: (3,3,1,4)", "image of s13 on line 2: not a permutation of 1..4"),
    ):
        images.write_text(table)
        code, out, err = run(capsys, "rs", "--builtin", "J4", "--images", str(images))
        assert code == 2 and out == ""
        assert err.startswith(f"error: {message}") and "integer string conversion" not in err
    # leading zeros aside, an image has at most as many digits as the image count
    images.write_text(f"s12: ({zeros}2,1,3,4)\ns13: (3,2,1,{zeros}4)\ns14: (4,3,2,1)\n")
    code, out, _ = run(capsys, "rs", "--builtin", "J4", "--images", str(images))
    assert code == 0 and out.startswith("cosets: 24\n")


def test_rs_over_the_coset_cap_exits_2_naming_it(tmp_path, monkeypatch, capsys):
    # J4 has 24 cosets; every source of images stops at a cap below that
    monkeypatch.setattr(rschreier, "MAX_COSETS", 23)
    pres = tmp_path / "j4.txt"
    pres.write_text(syntax.format_presentation(presentation.builtin("J4")))
    images = tmp_path / "images.txt"
    images.write_text("s12: (2,1,3,4)\ns13: (3,2,1,4)\ns14: (4,3,2,1)\n")
    for argv in (["--images", str(images)], ["--strands", "4"]):
        code, out, err = run(capsys, "rs", "--presentation", str(pres), *argv)
        assert code == 2 and out == ""
        assert "more than MAX_COSETS = 23 cosets" in err
    code, out, err = run(capsys, "rs", "--builtin", "J4", "--json")
    assert code == 2 and "MAX_COSETS = 23" in err
    monkeypatch.setattr(rschreier, "MAX_COSETS", 24)
    assert run(capsys, "rs", "--builtin", "J4", "--json")[0] == 0


@pytest.mark.parametrize("command", [["abel"], ["rs", "--strands", "2"]])
def test_huge_presentation_exponent_exits_2_naming_the_term(tmp_path, capsys, command):
    pres = tmp_path / "p.txt"
    pres.write_text("gens: s12\nrels: s12^2\nrels: s12^1000000000\n")
    code, out, err = run(capsys, command[0], "--presentation", str(pres), *command[1:])
    assert code == 2 and out == ""
    assert "'s12^1000000000'" in err and str(syntax.MAX_EXPONENT) in err


@pytest.mark.parametrize("command", [["abel"], ["rs", "--strands", "2"]])
def test_long_presentation_exits_2_naming_the_term(tmp_path, monkeypatch, capsys, command):
    # 2 + 3 letters fit under a cap of 5; s12^4 would make 9
    monkeypatch.setattr(syntax, "MAX_PRESENTATION_LETTERS", 5)
    pres = tmp_path / "p.txt"
    pres.write_text("gens: s12\nrels: s12^2\nrels: s12^3 = 1\nrels: s12^4\n")
    code, out, err = run(capsys, command[0], "--presentation", str(pres), *command[1:])
    assert code == 2 and out == ""
    assert "'s12^4'" in err and "MAX_PRESENTATION_LETTERS = 5" in err


def test_abel(tmp_path, capsys):
    pres = tmp_path / "p.txt"
    pres.write_text("gens: x\nrels: x^2\n")
    code, out, _ = run(capsys, "abel", "--presentation", str(pres))
    assert code == 0 and out.strip() == "rank 0, invariant factors [2]"


def test_verify_pj4(capsys):
    code, out, _ = run(capsys, "verify-pj4")
    assert code == 0
    assert "FAIL" not in out
    assert "relator is trivial" in out


def test_render_writes_file(tmp_path, capsys):
    target = tmp_path / "out.svg"
    code, _, _ = run(capsys, "render", "-n", "4", "s(1,2) s(2,4) s(1,3)", "-o", str(target))
    assert code == 0
    content = target.read_text()
    assert content.startswith("<svg") and content.rstrip().endswith("</svg>")


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 0
    assert out.count("ok  ") == 14


def test_selftest_lines_end_with_the_criterion_time():
    lines = []
    assert selftest.run(quick=True, emit=lines.append)
    assert len(lines) == 14
    for line in lines:
        head, _, seconds = line.rpartition(" (")
        assert head.startswith("ok  ") and seconds.endswith(" s)") and float(seconds[:-3]) >= 0


def test_only_the_torsion_criteria_have_a_time_limit():
    limits = {number: limit for number, _, _, limit in selftest.CHECKS}
    assert limits == {number: 10 if number in (4, 5) else None for number in range(1, 15)}


def test_a_criterion_at_or_over_its_limit_fails_in_run_and_in_the_runner(monkeypatch):
    number, title, check, limit = selftest.CHECKS[3]
    monkeypatch.setattr(selftest, "CHECKS", ((number, title, check, limit),))
    sizes = selftest.Sizes.quick()
    for step, failures in ((9.99, []), (10, ["took 10.0 s, not under its 10 s limit"])):
        ticks = itertools.count()  # each reading of the clock is step seconds after the last
        monkeypatch.setattr(selftest.time, "perf_counter", lambda: next(ticks) * step)
        assert selftest.run_criterion(number, check, limit, sizes, 1) == (failures, step)
        lines = []
        assert selftest.run(quick=True, seed=1, emit=lines.append) == (not failures)
        status = "FAIL" if failures else "ok  "
        assert lines == [f"{status}  4  {title} ({step:.2f} s)"] + [f"         {m}" for m in failures]
    assert selftest.run_criterion(number, check, None, sizes, 1)[0] == []


def test_usage_errors_exit_2(capsys):
    assert main(["eq", "-n", "3", "s(1,2)"]) == 2  # missing second word
    code, _, err = run(capsys, "canon", "-n", "4", "s(1,2) nonsense")
    assert code == 2 and "position" in err
    code, _, err = run(capsys, "canon", "-n", "2", "s(1,3)")
    assert code == 2 and "out of bounds" in err


@pytest.mark.parametrize("argv, name", [
    (["canon", "-n", "4", "s(1,2) nonsense"], "word"),
    (["member", "-n", "2", "s(1,3)", "--slice", "2,2"], "word"),
    (["eq", "-n", "4", "s(1,2,3)", "s(1,2)"], "word1"),
    (["eq", "-n", "4", "s(1,2)", "s(1,2,3)"], "word2"),
])
def test_word_errors_name_the_argument(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name}: ")


def test_small_n_is_not_blamed_on_the_word(capsys):
    code, out, err = run(capsys, "canon", "-n", "1", "s(1,2)")
    assert code == 2 and out == ""
    assert err.strip() == "error: need n >= 2, got 1"


def test_order_bound_zero_names_the_value(capsys):
    code, out, err = run(capsys, "order", "-n", "4", "s(1,2)", "--bound", "0")
    assert code == 2 and out == ""
    assert err.strip() == "error: --bound must be >= 1, got 0"
