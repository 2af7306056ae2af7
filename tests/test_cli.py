import argparse
import json

import pytest

from carefulsync import cli, families, words
from carefulsync.cli import _build_parser, main
from carefulsync.core import Pfa
from carefulsync.families import FamilySpec, gen_grid, gen_witness
from carefulsync.io import automaton_to_json, load_document


def test_gen_to_stdout(capsys):
    assert main(["gen", "--family", "witness"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["states"] == 4
    assert doc["metadata"] == "witness"


def test_gen_to_file_then_solve(tmp_path, capsys):
    path = tmp_path / "witness.json"
    assert main(["gen", "--family", "witness", "--out", str(path)]) == 0
    assert main(["solve", str(path)]) == 0
    out = capsys.readouterr().out
    assert "length: 10" in out
    assert "state: 1" in out


def test_solve_family_spec_directly(capsys):
    assert main(["solve", "grid:d=2,k=2"]) == 0
    out = capsys.readouterr().out
    assert "length: 5" in out
    assert "word: a b1 b2 b1 c2" in out


def test_solve_with_oracle(capsys):
    assert main(["solve", "witness", "--max-wordlen", "10"]) == 0
    assert "oracle: length 10 (agree)" in capsys.readouterr().out


def test_solve_oracle_over_its_budget(capsys):
    # about 2^18 prefixes of 5 state steps each: over this budget, well
    # within the default one
    assert main(["solve", "cerny:n=5", "--max-wordlen", "16", "--max-subsets", "1000"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "budget exhausted" in captured.err
    assert captured.err.endswith("after visiting 1005 state steps\n")


def test_solve_oracle_finds_no_word_below_the_minimum(capsys):
    assert main(["solve", "cerny:n=4", "--max-wordlen", "5"]) == 0
    out = capsys.readouterr().out
    assert "length: 9" in out
    assert out.endswith("oracle: no word within length 5\n")


def test_solve_oracle_disagreement_fails(monkeypatch, capsys):
    # an oracle that finds nothing where the search found a word of length 9
    monkeypatch.setattr(cli, "brute_force_shortest", lambda pfa, max_len, budget: None)
    assert main(["solve", "cerny:n=4", "--max-wordlen", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out.endswith("oracle: no word within length 9\n")
    assert captured.err == "oracle disagrees with search\n"
    # an oracle whose word is longer than the search's
    monkeypatch.setattr(cli, "brute_force_shortest", lambda pfa, max_len, budget: (0,) * 10)
    assert main(["solve", "cerny:n=4", "--max-wordlen", "10"]) == 1
    assert capsys.readouterr().out.endswith("oracle: length 10 (DISAGREE)\n")


def test_solve_oracle_negative_length(capsys):
    # the second automaton is not carefully synchronizing
    for spec in ("witness", "random:n=3,l=1,p=0.5,seed=1"):
        assert main(["solve", spec, "--max-wordlen", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "negative" in captured.err


def test_negative_subset_budget(capsys):
    for args in (["solve", "cerny:n=5"], ["solve", "cerny:n=5", "--max-wordlen", "3"],
                 ["sweep", "--family", "cerny:n=5", "--family", "witness"]):
        assert main(args + ["--max-subsets", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: subset budget -3 is negative\n"


def test_zero_subset_budget(capsys):
    assert main(["solve", "cerny:n=5", "--max-subsets", "0"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: subset budget exhausted after visiting 1 subsets\n"
    assert main(["sweep", "--family", "cerny:n=5", "--max-subsets", "0"]) == 0
    assert "cerny:n=5,,5,5,CAP," in capsys.readouterr().out


def test_solve_not_synchronizing(capsys):
    assert main(["solve", "random:n=3,l=2,p=0.0,seed=5"]) == 3


def test_solve_cap_exceeded(capsys):
    assert main(["solve", "grid:d=2,k=3", "--max-subsets", "3"]) == 4


def test_solve_never_prints_a_word_over_the_word_budget(monkeypatch, capsys):
    # grid:d=2,k=4's shortest word has 29 letters
    monkeypatch.setattr(words, "MAX_WORD_LEN", 20)
    assert main(["solve", "grid:d=2,k=4"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: word budget of 20 letters exhausted after visiting 21 subsets\n"
    monkeypatch.setattr(words, "MAX_WORD_LEN", 29)
    assert main(["solve", "grid:d=2,k=4"]) == 0
    assert "length: 29" in capsys.readouterr().out


def test_bad_family_string(capsys):
    assert main(["solve", "nonsense:x=1"]) == 2


def test_missing_file(capsys):
    assert main(["solve", "no/such/file.json"]) == 2


def test_solve_refuses_a_deeply_nested_document(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text('{"format_version": 1, "letters": ["a"], "states": 1, "delta": '
                    + "[" * 3000 + "]" * 3000 + "}")
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot parse the document: maximum recursion depth")
    assert "Traceback" not in captured.err and captured.out == ""


def test_solve_refuses_an_oversized_document(tmp_path, capsys):
    # 38 MiB of text for a one-state table, refused before it is parsed
    path = tmp_path / "oversized.json"
    path.write_text('{"format_version":1,"letters":["a"],"states":1,"delta":[['
                    + "0," * 19_999_999 + "0]]}")
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: document has more than 33554432 characters\n"
    assert captured.out == ""


def test_solve_reads_at_most_one_character_past_the_document_bound(tmp_path, monkeypatch, capsys):
    # the bound is read when the file is: a 100 KB file under a bound of
    # 1,000 costs one bound of text, not the whole file
    path = tmp_path / "long.json"
    path.write_text(" " * 100_000)
    monkeypatch.setattr(families, "MAX_DOCUMENT_CHARS", 1000)
    received = []

    def record(text):
        received.append(len(text))
        return load_document(text)

    monkeypatch.setattr(cli, "load_document", record)
    assert main(["solve", str(path)]) == 2
    assert received == [1001]
    assert capsys.readouterr().err == "error: document has more than 1000 characters\n"


def test_verify_good_word(capsys):
    assert main(["verify", "grid:d=2,k=2", "--word", "a b1 b2 b1 c2"]) == 0
    assert "synchronizes to state q0^1" in capsys.readouterr().out


def test_verify_word_with_exponents(capsys):
    assert main(["verify", "cerny:n=4", "--word", "c1 c2^3 c1 c2^3 c1"]) == 0


def test_verify_incomplete_word(capsys):
    assert main(["verify", "grid:d=2,k=2", "--word", "a"]) == 3
    assert "final set" in capsys.readouterr().out


def test_verify_undefined_word(capsys):
    assert main(["verify", "witness", "--word", "b"]) == 3
    assert "undefined at position 0" in capsys.readouterr().out


def test_verify_unknown_letter(capsys):
    assert main(["verify", "witness", "--word", "q"]) == 2


def test_check_grid(capsys):
    assert main(["check", "grid:d=3,k=2"]) == 0
    out = capsys.readouterr().out
    assert "grid-pattern: PASS" in out
    assert "forced-path: PASS" in out


def test_check_failure_exit_code(capsys):
    assert main(["check", "random:n=2,l=1,p=0.0,seed=0"]) == 1


def test_check_grid_metadata_on_a_misfit_table(tmp_path, capsys):
    path = tmp_path / "witness.json"
    path.write_text(automaton_to_json(gen_witness(), family="grid:d=3,k=4"))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert ("grid-pattern: FAIL (expected 12 states and 8 letters, "
            "found 4 states and 3 letters)") in out
    assert "grid-word" not in out


def test_check_grid_metadata_the_generator_rejects(tmp_path, capsys):
    path = tmp_path / "witness.json"
    path.write_text(automaton_to_json(gen_witness(), family="grid:d=1,k=4"))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert ("grid-pattern: FAIL (expected 4 states and 8 letters, "
            "found 4 states and 3 letters)") in out
    assert "grid-word" not in out


@pytest.mark.parametrize("metadata", ["grid:d=2", "mystery:n=3", "grid:d=x,k=2",
                                      "random:n=2000000,l=0,p=0.5,seed=1"])
def test_check_document_whose_metadata_is_not_a_spec(tmp_path, capsys, metadata):
    # the document loads; without a family spec the grid checks are skipped
    path = tmp_path / "grid.json"
    path.write_text(automaton_to_json(gen_grid(2, 2), family=metadata))
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("table-valid: PASS")
    assert "grid-" not in out and "forced-path" not in out


def test_check_grid_over_the_word_budget(capsys):
    # 1 + 2^2 + ... + 2^30 letters: rejected before the word is built
    assert main(["check", "grid:d=2,k=30"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "the grid word for d=2, k=30 has 2147483645 letters" in captured.err


def test_letter_names_a_word_cannot_spell(tmp_path, capsys):
    # with these names the shortest word would print as "x y", which reads
    # back as two letters, the first unknown
    path = tmp_path / "names.json"
    path.write_text(automaton_to_json(Pfa(("x y", "c^2"), ((0, 0), (0, 1)))))
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("letter name 'x y' contains whitespace or '^'; "
            "letter name 'c^2' contains whitespace or '^'") in captured.err


def test_check_grid_whose_builder_word_fails(tmp_path, capsys):
    # b1 at q0^1 loops instead of moving to q1^1: the definedness pattern
    # still conforms, but the builder word no longer synchronizes
    g = gen_grid(2, 2)
    rows = [list(row) for row in g.delta]
    rows[0][1] = 0
    path = tmp_path / "grid.json"
    path.write_text(automaton_to_json(Pfa(g.letters, rows), family="grid:d=2,k=2"))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "grid-pattern: PASS (definedness pattern conforms)" in out
    assert out.endswith("grid-word: FAIL (builder word fails)\n")
    assert "forced-path" not in out


def test_check_one_state_automaton(capsys):
    assert main(["check", "random:n=1,l=1,p=1.0,seed=1"]) == 0
    out = capsys.readouterr().out
    assert "merging-letter: PASS (one state, synchronized by the empty word)" in out
    assert main(["solve", "random:n=1,l=1,p=1.0,seed=1"]) == 0
    assert "length: 0" in capsys.readouterr().out


def test_check_word_that_loops_is_not_forced(capsys):
    # synchronizes in 6 letters, where the shortest word has 5
    assert main(["check", "grid:d=2,k=2", "--word", "a a b1 b2 b1 c2"]) == 1
    out = capsys.readouterr().out
    assert "word-verifies: PASS (synchronizes to q0^1)" in out
    assert "word-forced-path: FAIL (path is not forced at step 1)" in out
    assert main(["check", "grid:d=2,k=2", "--word", "a b1 b2 b1 c2"]) == 0
    assert "word-forced-path: PASS (path is forced)" in capsys.readouterr().out


def test_check_word_through_an_early_singleton_is_not_forced(tmp_path, capsys):
    # a reaches {0}, so the shortest careful word is a; a b goes on to {1}
    path = tmp_path / "early.json"
    path.write_text(automaton_to_json(Pfa(("a", "b"), ((0, 1), (0, None)))))
    assert main(["check", str(path), "--word", "a b"]) == 1
    out = capsys.readouterr().out
    assert "word-verifies: PASS (synchronizes to 1)" in out
    assert out.endswith("word-forced-path: FAIL (path is not forced at step 1)\n")
    assert main(["check", str(path), "--word", "a"]) == 0
    assert "word-forced-path: PASS (path is forced)" in capsys.readouterr().out


def test_check_empty_word_is_checked(capsys):
    assert main(["check", "grid:d=2,k=2", "--word", ""]) == 1
    out = capsys.readouterr().out
    assert out.endswith("word-verifies: FAIL (does not carefully synchronize)\n")


def test_word_input_over_the_word_budget(capsys):
    for word, err in (("c1^1000001", "'c1^1000001' has 1000001"),
                      ("c1^600000 c1^600000", "'c1^600000' has 1200000")):
        for argv in (["verify", "cerny:n=4"], ["check", "cerny:n=4"],
                     ["transform", "cerny:n=4", "--d", "2"]):
            assert main(argv + ["--word", word]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: the word up to {err} letters, "
                                    "over the budget of 1000000\n")


def test_transform_over_the_table_limit(tmp_path, capsys):
    # 100000 * 4 states times 1 + 4 + 3 letters = 3,200,000 entries
    path = tmp_path / "big.json"
    assert main(["transform", "witness", "--d", "100000", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the 100000-expansion has 3200000 table entries "
                            "(states times letters), over the limit of 1048576\n")
    assert not path.exists()


def test_document_over_the_table_limit(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"format_version": 1, "letters": ["a"], "states": 1048577, "delta": []}')
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1048577 table entries" in captured.err


def test_transform_lifted_word_over_the_word_budget(capsys):
    # 100^3 + 4 + 3 * (100^2 - 1) = 1,030,001 letters
    assert main(["transform", "cerny:n=3", "--d", "100", "--word", "c1 c2 c2 c1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1030001 letters" in captured.err


def test_transform_lifts_before_it_expands(monkeypatch, capsys):
    # the lift's 131072^2 opening is refused before a 262,144-state table
    def _fail(d, base):
        raise AssertionError("built the expansion")

    monkeypatch.setattr(cli, "transform", _fail)
    assert main(["transform", "chain:k=2", "--d", "131072", "--word", "c2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the opening of every lifted word for d=131072, k=2 has "
                            "17179869184 letters, over the budget of 1000000\n")


def test_gen_rejects_oversized_family(tmp_path, capsys):
    path = tmp_path / "big.json"
    assert main(["gen", "--family", "random:n=1025,l=1024,p=0.5,seed=1", "--out", str(path)]) == 2
    assert "table entries" in capsys.readouterr().err
    assert not path.exists()


def test_words_over_the_word_budget(capsys):
    # 1 + 2^2 + ... + 2^20 = 2,097,149 letters
    assert main(["words", "--family", "grid:d=2,k=20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "2097149 letters" in captured.err
    # (524,288 - 1)^2 letters: the classic reset word refuses itself
    assert main(["words", "--family", "cerny:n=524288"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "274876858369 letters, over the budget of 1000000" in captured.err


def test_words_refuses_an_over_budget_word_before_building_the_automaton(monkeypatch, capsys):
    def _fail(spec):
        raise AssertionError("built the automaton")

    monkeypatch.setattr(FamilySpec, "build", _fail)
    assert main(["words", "--family", "cerny:n=524288"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the classic reset word for n=524288 has 274876858369 "
                            "letters, over the budget of 1000000\n")


def test_words_cerny_prints_nothing_when_one_word_is_over_the_budget(monkeypatch, capsys):
    # the classic word for n=6 has 25 letters, the two-phase word 34
    monkeypatch.setattr(words, "MAX_WORD_LEN", 25)
    assert main(["words", "--family", "cerny:n=6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "two-phase word for n=6, r=4 has 34 letters" in captured.err


def test_words_grid(capsys):
    assert main(["words", "--family", "grid:d=3,k=2"]) == 0
    out = capsys.readouterr().out
    assert "length: 10" in out
    assert "claimed-length: 11" in out


def test_words_cerny(capsys):
    assert main(["words", "--family", "cerny:n=4"]) == 0
    out = capsys.readouterr().out
    assert "classic-length: 9" in out
    assert "two-phase-minimal-r: 2" in out


def test_words_cerny_two_states_has_no_two_phase_word(capsys):
    assert main(["words", "--family", "cerny:n=2"]) == 0
    out = capsys.readouterr().out
    assert "classic-word: c1\n" in out
    assert out.endswith("two-phase-minimal-r: none\n")


def test_words_no_builder(capsys):
    assert main(["words", "--family", "witness"]) == 2
    # a padded spec's length divides by d, and a grid's length reads d and k:
    # d is checked first, with the message that check gives
    for spec in ("padded:d=0,n=5", "padded:d=-1,n=5", "grid:d=1,k=3", "grid:d=0,k=3"):
        capsys.readouterr()
        assert main(["words", "--family", spec]) == 2
        assert capsys.readouterr().err == "error: d must be at least 2\n"


def test_transform_document(capsys):
    assert main(["transform", "chain:k=2", "--d", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["letters"] == ["a", "b1", "b2", "c1"]
    assert doc["states"] == 4


def test_transform_lift(capsys):
    assert main(["transform", "chain:k=2", "--d", "2", "--word", "c2"]) == 0
    out = capsys.readouterr().out
    assert "lifted-word: a b1 b2 b1 c1" in out
    assert "verifies: yes" in out


def test_sweep_csv_output(tmp_path, capsys):
    out_file = tmp_path / "rows.csv"
    code = main([
        "sweep",
        "--family", "grid:d=2,k=2",
        "--family", "cerny:n=3",
        "--out", str(out_file),
    ])
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("#")
    assert "grid:d=2,k=2" in text and "cerny:n=3" in text


def test_sweep_deterministic(capsys):
    args = ["sweep", "--family", "grid:d=2,k=2", "--family", "witness"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_export_dot(capsys):
    assert main(["export-dot", "witness"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert '"2" -> "3" [label="b,c"];' in out


def test_export_dot_refuses_a_repeated_state_name(tmp_path, capsys):
    # DOT would merge the two states named x into one node
    path = tmp_path / "twins.json"
    path.write_text(automaton_to_json(Pfa(("a", "b"), ((0, 0), (0, 1)), state_names=("x", "x"))))
    assert main(["export-dot", str(path)]) == 2
    assert capsys.readouterr() == ("", "error: duplicate state name 'x'\n")


def test_errata_command(capsys):
    assert main(["errata"]) == 0
    assert "undefined at position 7" in capsys.readouterr().out


def test_removed_options_are_rejected(capsys):
    # The seed lives in the spec string; the errata's searches are fixed.
    assert main(["gen", "--family", "random:n=3,l=2,p=1.0,seed=1", "--seed", "9"]) == 2
    assert main(["errata", "--max-subsets", "5"]) == 2
    assert main(["words", "--family", "cerny:n=6", "--r-override", "3"]) == 2
    assert capsys.readouterr().out == ""


def test_option_surface():
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {
        name: {opt for a in sub._actions if not isinstance(a, argparse._HelpAction)
               for opt in a.option_strings}
        for name, sub in commands.choices.items()
    }
    assert surface == {
        "gen": {"--family", "--out"},
        "solve": {"--max-subsets", "--max-wordlen"},
        "verify": {"--word"},
        "check": {"--word"},
        "words": {"--family"},
        "transform": {"--d", "--word", "--out"},
        "sweep": {"--family", "--out", "--max-subsets", "--timings"},
        "export-dot": {"--out"},
        "errata": {"--out"},
    }


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 2


def test_no_command_prints_help(capsys):
    assert main([]) == 2
