from carefulsync import (
    FamilySpec,
    CheckResult,
    check_battery,
    errata_report,
    gen_grid,
    gen_witness,
    parse_family,
    parse_word,
    sweep,
    sweep_csv,
)
from carefulsync import core, reporting
from carefulsync.core import Pfa


def _specs(*texts):
    return [parse_family(t) for t in texts]


def test_sweep_grid_and_cerny():
    rows = sweep(_specs("grid:d=2,k=2", "cerny:n=4"))
    by_spec = {r.spec: r for r in rows}
    grid = by_spec["grid:d=2,k=2"]
    assert grid.bfs_length == 5
    assert grid.builder_length == 5
    assert grid.claimed_length == 6
    assert grid.agree_builder_bfs is True
    assert grid.agree_claimed_bfs is False
    cerny = by_spec["cerny:n=4"]
    assert cerny.bfs_length == 9
    assert cerny.agree_claimed_bfs is True
    assert all(r.visited_subsets > 0 for r in rows)


def test_sweep_not_sync_marker():
    rows = sweep(_specs("random:n=3,l=2,p=0.0,seed=1"))
    assert rows[0].bfs_status == "not-sync"
    assert rows[0].bfs_length is None
    assert "NOT_SYNC" in sweep_csv(rows)


def test_sweep_cap_marker():
    rows = sweep(_specs("grid:d=2,k=3"), max_subsets=3)
    assert rows[0].bfs_status == "cap"
    assert "CAP" in sweep_csv(rows)


def test_sweep_rows_sorted_by_spec():
    rows = sweep(_specs("grid:d=2,k=4", "grid:d=2,k=2", "cerny:n=3"))
    assert [r.spec for r in rows] == ["cerny:n=3", "grid:d=2,k=2", "grid:d=2,k=4"]


def test_csv_shape_and_determinism():
    import csv as csv_mod
    import io as io_mod

    specs = _specs("witness", "grid:d=3,k=2")
    first = sweep_csv(sweep(specs))
    second = sweep_csv(sweep(specs))
    assert first == second
    lines = first.strip().split("\n")
    assert lines[0].startswith("#")
    parsed = list(csv_mod.reader(io_mod.StringIO("\n".join(lines[1:]))))
    header = parsed[0]
    assert header[0] == "spec" and "wall_time_s" in header
    for row in parsed[1:]:
        assert len(row) == len(header)
        assert row[-1] == ""  # timings column stays blank by default
    assert parsed[1][0] == "grid:d=3,k=2"  # comma-bearing spec survives quoting


def test_csv_with_timings():
    import csv as csv_mod
    import io as io_mod

    rows = sweep(_specs("witness"))
    timed = sweep_csv(rows, include_timings=True)
    last = list(csv_mod.reader(io_mod.StringIO(timed.strip().split("\n")[-1])))[0]
    assert float(last[-1]) >= 0.0


def test_errata_report_content():
    report = errata_report()
    assert "undefined at position 7" in report
    assert "length claim holds" in report
    assert "claim off by +1" in report
    assert "minimal working r=2" in report
    assert "distance 3 = d^s - 1: PASS" in report
    assert "FAIL" not in report


def test_errata_report_deterministic():
    assert errata_report() == errata_report()


def test_check_battery_grid_passes():
    spec = parse_family("grid:d=3,k=2")
    results = check_battery(spec.build(), spec=spec)
    names = [r.name for r in results]
    assert "grid-pattern" in names and "forced-path" in names
    assert all(r.passed for r in results)


def test_check_battery_flags_non_synchronizing():
    identity = Pfa(("a",), ((0,), (1,)))
    results = check_battery(identity)
    merge = next(r for r in results if r.name == "merging-letter")
    assert not merge.passed


def test_check_battery_invalid_table_short_circuits():
    bad = Pfa(("a",), ((7,), (0,)))
    results = check_battery(bad)
    assert len(results) == 1
    assert not results[0].passed


def test_check_battery_with_word():
    pfa = gen_witness()
    word = parse_word(pfa.letters, "a b c a b a b b c a")
    results = check_battery(pfa, word=word)
    verdict = next(r for r in results if r.name == "word-verifies")
    assert verdict.passed


def test_check_battery_names_the_first_unforced_step():
    # b2 defined at q0^1 gives step 1 a second way to somewhere new
    g = gen_grid(2, 2)
    rows = [list(row) for row in g.delta]
    rows[0][2] = 0
    battery = check_battery(Pfa(g.letters, rows), spec=parse_family("grid:d=2,k=2"))
    results = {r.name: r for r in battery}
    assert results["grid-pattern"].detail == "b2 defined at q0^1"
    assert results["grid-word"].passed
    assert not results["forced-path"].passed
    assert results["forced-path"].detail == "step 1 is not forced"


def test_check_battery_walks_each_word_once(monkeypatch):
    # the certificate's walk alone gives each word's verdict, where it ends
    # and its forced path, so nothing runs the word a second time
    def ran(*args):
        raise AssertionError("the word was run a second time")

    for module, name in ((core, "run_word"), (core, "is_careful_sync_word"),
                         (reporting, "run_word"), (reporting, "is_careful_sync_word")):
        monkeypatch.setattr(module, name, ran)
    spec = parse_family("grid:d=2,k=3")
    assert check_battery(spec.build(), spec=spec) == [
        CheckResult("table-valid", True, "all invariants hold"),
        CheckResult("merging-letter", True, "letter 'a' is total and merging"),
        CheckResult("kernel(a)", True, "3 classes; preserving letters: a, b1, b2, b3"),
        CheckResult("grid-pattern", True, "definedness pattern conforms"),
        CheckResult("grid-word", True, "builder word of length 13 synchronizes to q0^1"),
        CheckResult("forced-path", True, "exactly one new subset at every step"),
    ]
    g = gen_grid(2, 2)
    head = check_battery(g)
    for text, tail in (
        ("a b1 b2 b1 c2", [CheckResult("word-verifies", True, "synchronizes to q0^1"),
                           CheckResult("word-forced-path", True, "path is forced")]),
        ("a a b1 b2 b1 c2", [CheckResult("word-verifies", True, "synchronizes to q0^1"),
                             CheckResult("word-forced-path", False,
                                         "path is not forced at step 1")]),
        ("a b1", [CheckResult("word-verifies", False, "does not carefully synchronize")]),
        ("b2", [CheckResult("word-verifies", False, "does not carefully synchronize")]),
    ):
        assert check_battery(g, word=parse_word(g.letters, text)) == head + tail
    w = gen_witness()
    assert check_battery(w, word=parse_word(w.letters, "a b c a b a b b c a"))[-2:] == [
        CheckResult("word-verifies", True, "synchronizes to 1"),
        CheckResult("word-forced-path", False, "path is not forced at step 7"),
    ]


def test_check_battery_fails_a_word_through_an_early_singleton():
    # a reaches {0}, and the shortest careful word is a; a b goes on to {1}
    pfa = Pfa(("a", "b"), ((0, 1), (0, None)))
    assert check_battery(pfa, word=(0, 1))[-2:] == [
        CheckResult("word-verifies", True, "synchronizes to 1"),
        CheckResult("word-forced-path", False, "path is not forced at step 1"),
    ]
    assert check_battery(pfa, word=(0,))[-1] == CheckResult("word-forced-path", True, "path is forced")


def test_check_battery_on_grid_metadata_the_generator_rejects():
    # 4 states and 8 letters fit d=1, k=4, but the grid needs d >= 2
    table = Pfa(("a", "b1", "b2", "b3", "b4", "c2", "c3", "c4"), [[0] * 8] * 4)
    results = check_battery(table, spec=FamilySpec("grid", d=1, k=4))
    pattern = next(r for r in results if r.name == "grid-pattern")
    assert not pattern.passed
    assert pattern.detail == "d must be at least 2"
    assert not {"grid-word", "forced-path"} & {r.name for r in results}
