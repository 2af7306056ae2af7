import ast
import hashlib
import itertools
import random
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

from carefulsync import (
    CapExceeded,
    ForcedStep,
    Pfa,
    bits_from_states,
    brute_force_shortest,
    cerny_alt_word,
    cerny_word,
    check_battery,
    digit_subset,
    forced_path_check,
    gen_cerny,
    gen_chain,
    gen_grid,
    gen_random,
    gen_witness,
    grid_word,
    is_careful_sync_word,
    reachable_subset_count,
    reporting,
    run_word,
    search,
    shortest_careful_word,
    states_from_bits,
    subset_distance,
    total_merging_letter,
    transform,
    words,
)
from carefulsync.core import image
from carefulsync.search import compile_letters


def test_witness_shortest_is_ten():
    res = shortest_careful_word(gen_witness())
    assert res.length == 10
    assert res.synchronized_state == 1
    assert is_careful_sync_word(gen_witness(), res.word) == (True, 1)
    assert res.visited_subsets <= 16


def test_witness_beats_quadratic_bound():
    assert shortest_careful_word(gen_witness()).length > (4 - 1) ** 2


def test_cerny_shortest():
    res = shortest_careful_word(gen_cerny(4))
    assert res.length == 9
    assert is_careful_sync_word(gen_cerny(4), res.word)[0]


def test_single_merging_letter():
    pfa = Pfa(("a",), ((0,), (0,)))
    res = shortest_careful_word(pfa)
    assert res.length == 1 and res.word == (0,)


def test_singleton_start_returns_empty_word():
    # the kernel path of subset_distance, whose source may be any subset
    singletons = {1 << q for q in range(4)}
    found = search._bfs(gen_witness(), 1 << 2, singletons, search.DEFAULT_MAX_SUBSETS)
    assert found == ((), 1 << 2, 1)


def test_single_state_automaton():
    pfa = Pfa(("a",), ((0,),))
    assert shortest_careful_word(pfa).word == ()
    assert brute_force_shortest(pfa, 3) == ()


def test_not_synchronizing_returns_none():
    identity = Pfa(("a", "b"), ((0, 0), (1, 1)))
    assert shortest_careful_word(identity) is None
    assert reachable_subset_count(identity) == 1


def test_lexicographic_tie_break():
    # both letters merge in one step; the lower index must win
    pfa = Pfa(("x", "y"), ((0, 0), (0, 0)))
    assert shortest_careful_word(pfa).word == (0,)


def test_empty_start_rejected():
    for src in (0, 1 << 4, -1):
        with pytest.raises(ValueError, match="start set"):
            subset_distance(gen_witness(), src, 1)
    # the full set of a stateless automaton is empty too
    with pytest.raises(ValueError, match="start set"):
        shortest_careful_word(Pfa(("a",), ()))


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        shortest_careful_word(gen_grid(2, 3), max_subsets=3)


def test_word_budget_stops_a_search_before_an_over_budget_level(monkeypatch):
    # grid:d=2,k=4's shortest word has 29 letters, and each of its BFS
    # levels holds one subset: 31 subsets in all, the last past the goal
    g = gen_grid(2, 4)
    monkeypatch.setattr(words, "MAX_WORD_LEN", 29)
    assert shortest_careful_word(g).length == 29
    assert subset_distance(g, g.full_set(), 1) == 29
    for budget in (28, 20, 0):
        monkeypatch.setattr(words, "MAX_WORD_LEN", budget)
        for goal_search in (shortest_careful_word, lambda p: subset_distance(p, p.full_set(), 1)):
            with pytest.raises(CapExceeded, match=f"^word budget of {budget} letters ") as err:
                goal_search(g)
            assert err.value.visited == budget + 1
        # without goals no word is rebuilt, so the word budget does not apply
        assert reachable_subset_count(g) == 31
        # a start that is a goal needs no letter
        assert search._bfs(g, 1, {1}, 1) == ((), 1, 1)


def test_negative_budget_rejected():
    # the one-state automaton's start is already a goal, and is rejected too
    for pfa in (gen_cerny(5), Pfa(("a",), ((0,),))):
        for search_fn in (shortest_careful_word, reachable_subset_count):
            with pytest.raises(ValueError, match="subset budget -1 is negative"):
                search_fn(pfa, max_subsets=-1)
        with pytest.raises(ValueError, match="subset budget -1 is negative"):
            search._bfs(pfa, pfa.full_set(), {1}, -1)
        with pytest.raises(ValueError, match="state-step budget -1 is negative"):
            brute_force_shortest(pfa, 3, max_subsets=-1)
    # a budget of 0 is still a budget, and the start subset counts against it
    for pfa in (gen_cerny(5), Pfa(("a",), ((0,),)), Pfa(("a",), ((0,), (1,)))):
        for search_fn in (shortest_careful_word, reachable_subset_count):
            with pytest.raises(CapExceeded) as err:
                search_fn(pfa, max_subsets=0)
            assert err.value.visited == 1
        with pytest.raises(CapExceeded) as err:
            search._bfs(pfa, 1, {1}, 0)
        assert err.value.visited == 1
    with pytest.raises(CapExceeded) as err:
        brute_force_shortest(gen_cerny(5), 3, max_subsets=0)
    assert err.value.visited == 5


def test_brute_force_agrees_on_witness():
    word = brute_force_shortest(gen_witness(), 12)
    assert word is not None and len(word) == 10
    assert is_careful_sync_word(gen_witness(), word)[0]


def test_brute_force_none_below_minimum():
    assert brute_force_shortest(gen_witness(), 9) is None


def test_brute_force_vs_bfs_on_random_corpus():
    # both sides return the lexicographically least shortest word, so the
    # words themselves must match, not just the lengths
    for n, l, p, seed in itertools.product((2, 3, 4), (1, 2, 3), (0.5, 0.9), (0, 1)):
        pfa = gen_random(n, l, p, seed)
        res = shortest_careful_word(pfa)
        if res is None:
            assert brute_force_shortest(pfa, 6) is None
        else:
            assert brute_force_shortest(pfa, res.length) == res.word


def test_brute_force_and_bfs_agree_on_witness_word():
    assert brute_force_shortest(gen_witness(), 12) == shortest_careful_word(gen_witness()).word


def test_brute_force_budget():
    with pytest.raises(CapExceeded) as err:
        brute_force_shortest(gen_cerny(6), 25, max_subsets=1000)
    # each prefix costs one step per state, 6 here
    assert err.value.visited == 1002
    assert str(err.value) == "subset budget exhausted after visiting 1002 state steps"


def test_brute_force_budget_bounds_time_on_many_states():
    # One letter moves every state of a path one step down.  Its word is
    # 1,099 letters long, and the 604,000 prefixes of the iterative deepening
    # up to that length stay under the default budget, but their state
    # steps do not.
    n = 1100
    path = Pfa(("a",), tuple((max(q - 1, 0),) for q in range(n)))
    with pytest.raises(CapExceeded) as err:
        brute_force_shortest(path, n)
    assert err.value.visited == 1100 * (search.DEFAULT_MAX_SUBSETS // 1100 + 1)


def test_brute_force_stops_at_the_first_length_without_a_careful_prefix():
    # ``a`` is undefined at state 0, so no word of length 1 is careful and
    # neither is any longer one; the bound of 10^9 is never enumerated
    assert brute_force_shortest(Pfa(("a",), ((None,), (0,))), 10**9) is None


def test_brute_force_negative_length_rejected():
    # and an automaton without states, whose empty full set every other search refuses
    for pfa, max_len in ((gen_witness(), -1), (Pfa((), ()), 3)):
        with pytest.raises(ValueError):
            brute_force_shortest(pfa, max_len)


def test_brute_force_needs_no_recursion():
    # One letter moves every state of a path one step down, so the only
    # word is n-1 letters long, deeper than the lowered recursion limit.
    n = 150
    path = Pfa(("a",), tuple((max(q - 1, 0),) for q in range(n)))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        word = brute_force_shortest(path, n)
    finally:
        sys.setrecursionlimit(limit)
    assert word == (0,) * (n - 1)


def test_bfs_word_always_verifies():
    for seed in range(10):
        pfa = gen_random(4, 2, 0.8, seed)
        res = shortest_careful_word(pfa)
        if res is not None:
            assert is_careful_sync_word(pfa, res.word)[0]


def test_merging_letter_exists_whenever_synchronizing():
    # one state has no merging letter, yet the empty word synchronizes it
    for n, l, seed in itertools.product((1, 2, 3, 4), (1, 2), range(10)):
        pfa = gen_random(n, l, 0.7, seed)
        if shortest_careful_word(pfa) is not None:
            assert (total_merging_letter(pfa) is None) == (n == 1)
            merge = next(r for r in check_battery(pfa) if r.name == "merging-letter")
            assert merge.passed


def test_start_set_monotonicity():
    for seed in range(12):
        pfa = gen_random(4, 2, 0.9, seed)
        full = shortest_careful_word(pfa)
        if full is None:
            continue
        singletons = {1 << q for q in range(pfa.n)}
        for sub in (0b0011, 0b0110, 0b1010, 0b0001):
            word = search._bfs(pfa, sub, singletons, search.DEFAULT_MAX_SUBSETS)[0]
            assert word is not None
            assert len(word) <= full.length


def test_subset_distance_same_set():
    g = gen_grid(2, 2)
    assert subset_distance(g, 0b0101, 0b0101) == 0


def test_subset_distance_in_expansions():
    auto2 = transform(2, gen_chain(2))
    assert (
        subset_distance(auto2, digit_subset(2, [1, 2], 0), digit_subset(2, [1, 2], 3))
        == 3
    )
    auto3 = transform(3, gen_chain(2))
    assert (
        subset_distance(auto3, digit_subset(3, [1, 2], 0), digit_subset(3, [1, 2], 8))
        == 8
    )


def test_subset_distance_sparse_classes():
    # non-contiguous class sets count the same way
    auto = transform(2, gen_chain(3))
    src = digit_subset(2, [1, 3], 0)
    dst = digit_subset(2, [1, 3], 3)
    assert subset_distance(auto, src, dst) == 3


def test_subset_distance_unreachable():
    identity = Pfa(("a",), ((0,), (1,)))
    assert subset_distance(identity, 0b01, 0b10) is None


def test_subset_distance_exact_arrival_only():
    # the target is a strict subset of a reachable set; inclusion must not count
    pfa = Pfa(("a",), ((1, ), (1,)))
    # from {0,1}: a -> {1}; asking distance to {0,1} from {1} is unreachable
    assert subset_distance(pfa, 0b10, 0b11) is None


def test_subset_distance_rejects_targets_beyond_the_states():
    g = gen_grid(2, 2)
    for dst in (0, 1 << g.n, g.full_set() | 1 << g.n, -1):
        with pytest.raises(ValueError, match="target set"):
            subset_distance(g, g.full_set(), dst)


def test_forced_path_on_grid_words():
    for d, k in ((2, 2), (3, 2), (2, 3)):
        # every step is forced, and the word ends at {q0^1}
        assert forced_path_check(gen_grid(d, k), grid_word(d, k)) == (1, None)


def test_forced_path_cerny_classic_not_forced():
    # informational only: the classic word's path branches at {q0,q1,q3}
    final, step = forced_path_check(gen_cerny(4), cerny_word(4))
    assert final == 0b0010
    assert step == ForcedStep(3, 0b1011, new_letters=(0, 1), undefined_letters=(),
                              visited_letters=())


def test_forced_path_requires_defined_word():
    # the published word is undefined at position 7, so it reaches no
    # subset; its path already loops back at position 4
    pfa = gen_witness()
    word = tuple("abc".index(ch) for ch in "a b c a a a b b c a".split())
    assert forced_path_check(pfa, word) == (
        None, ForcedStep(4, 0b1010, new_letters=(1,), undefined_letters=(2,), visited_letters=(0,)))
    # a step whose own letter is undefined is not forced
    assert forced_path_check(pfa, (1,)) == (
        None, ForcedStep(0, 0b1111, new_letters=(0,), undefined_letters=(1, 2), visited_letters=()))
    # the walk stops at the undefined letter, like run_word, before a bad letter
    assert forced_path_check(pfa, (1, 7))[0] is None


def test_forced_path_fails_a_step_from_an_early_singleton():
    # a reaches {0}, the shortest careful word; b then leads on to {1}
    pfa = Pfa(("a", "b"), ((0, 1), (0, None)))
    assert shortest_careful_word(pfa).word == (0,)
    assert forced_path_check(pfa, (0,)) == (0b01, None)
    assert forced_path_check(pfa, (0, 1)) == (
        0b10, ForcedStep(1, 0b01, new_letters=(1,), undefined_letters=(), visited_letters=(0,)))
    # on one state the empty word is the shortest, so no step is forced
    one = Pfa(("a",), ((0,),))
    assert forced_path_check(one, ()) == (1, None)
    assert forced_path_check(one, (0,)) == (
        1, ForcedStep(0, 1, new_letters=(), undefined_letters=(), visited_letters=(0,)))


def test_forced_path_rejects_out_of_range_letters_and_starts():
    g = gen_grid(2, 2)
    word = grid_word(2, 2)
    for bad in (-1, len(g.letters)):
        with pytest.raises(ValueError, match="out of range"):
            forced_path_check(g, word[:2] + (bad,) + word[2:])
    # the walk starts from the full set, which is empty without states
    for w in ((0,), ()):
        with pytest.raises(ValueError, match="no states"):
            forced_path_check(Pfa(("a",), ()), w)


def test_forced_path_compiles_no_table_for_a_walk_that_reads_none():
    # an empty word, or a first letter outside the alphabet, reads no row:
    # on a letterless 2^16-state table a compiled table would take about 100 MiB
    pfa = Pfa((), ((),) * (1 << 16))
    tracemalloc.start()
    try:
        assert forced_path_check(pfa, ()) == (pfa.full_set(), None)
        with pytest.raises(ValueError, match="letter index 0 out of range"):
            forced_path_check(pfa, (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_forced_path_compiles_nothing_when_its_first_letter_is_undefined(monkeypatch):
    # an unvalidated table: a is undefined on state 0, and b leads both
    # states to 0; row 1's 9 is read only by compile_letters, which a walk
    # whose first letter is b still needs
    bad = Pfa(("a", "b"), ((None, 0), (9, 0)))
    with pytest.raises(ValueError, match="^delta row 1 has a target outside 2 states$"):
        forced_path_check(bad, (1,))

    def _fail(pfa):
        raise AssertionError("compiled the chunk tables")

    monkeypatch.setattr(search, "compile_letters", _fail)
    assert forced_path_check(bad, (0,)) == (
        None, ForcedStep(0, 0b11, new_letters=(1,), undefined_letters=(0,), visited_letters=()))
    # no letter is defined on all 16,384 states: the chunk tables would take
    # about 670 MiB
    pfa = gen_random(16384, 8, 0.5, 1)
    assert forced_path_check(pfa, (0,)) == (
        None, ForcedStep(0, pfa.full_set(), new_letters=(), undefined_letters=tuple(range(8)),
                         visited_letters=()))


def test_forced_path_builds_at_most_one_step(monkeypatch):
    built = []

    def record(*args):
        built.append(args)
        return ForcedStep(*args)

    monkeypatch.setattr(search, "ForcedStep", record)
    forced_path_check(gen_grid(2, 3), grid_word(2, 3))
    assert built == []
    forced_path_check(gen_cerny(5), cerny_word(5))
    assert len(built) == 1


def test_forced_path_records_positions():
    # a a b1 b2 b1 c2 synchronizes, but its second a leads back to the set
    # the first one reached, where only b1 leads anywhere new
    g = gen_grid(2, 2)
    final, step = forced_path_check(g, (0, 0, 1, 2, 1, 3))
    assert final == 1
    assert step == ForcedStep(1, 0b0101, new_letters=(1,), undefined_letters=(2, 3),
                              visited_letters=(0,))


def _forced_path_reference(pfa, word):
    """The two-pass, per-letter forced-path definition: run the whole word
    from the full set first, then classify every letter's image at each
    position the run reached.  A step from a singleton is never forced."""
    run = run_word(pfa, pfa.full_set(), word)
    width = range(len(pfa.letters))
    seen = set()
    for pos, (s, letter) in enumerate(zip(run.trace, word)):
        seen.add(s)
        images = [image(pfa, a, s) for a in width]
        new = [a for a, t in enumerate(images) if t is not None and t not in seen]
        if new != [letter] or s.bit_count() == 1:
            return run.final, ForcedStep(pos, s, tuple(new),
                                         tuple(a for a, t in enumerate(images) if t is None),
                                         tuple(a for a, t in enumerate(images) if t in seen))
    return run.final, None


def _outcome(check, *args):
    try:
        return check(*args)
    except ValueError as err:
        return str(err)


def test_forced_path_matches_the_two_pass_definition():
    cases = []
    for d, k in itertools.product(range(2, 5), range(2, 6)):
        g, word = gen_grid(d, k), grid_word(d, k)
        cases += [(g, word), (g, word[:1] + word), (g, word + word[-1:]), (g, word[1:])]
    for n in range(3, 9):
        c = gen_cerny(n)
        cases += [(c, cerny_word(n)), (c, cerny_alt_word(n, n - 2)), (c, (1,) * n + cerny_word(n))]
    # looping and non-minimal grid words, and the errors: bad letters,
    # undefined steps
    g, word = gen_grid(2, 2), grid_word(2, 2)
    cases += [(g, (0, 0, 1, 2, 1, 3)), (g, (0, 0, 1, 1, 2, 1, 3)), (g, (0, 1, 2, 1, 0, 3)),
              (g, word[:2] + (-1,) + word[2:]), (g, word + (len(g.letters),)),
              (g, (3,) + word), (g, word[:2] + (5, 3) + word[2:]),
              (g, word[:2] + (3,) + word[2:]), (g, ())]
    # wide grids (34 and 33 states): the builder words, with and without a
    # looping first a or a first b1, which is undefined on the full set, and
    # a letter outside the alphabet right after a forced prefix and right
    # after an unforced step
    for d, k in ((17, 2), (11, 3)):
        w, ww = gen_grid(d, k), grid_word(d, k)
        bad = len(w.letters)
        cases += [(w, ww), (w, ww[:1] + ww), (w, (1,) + ww), (w, ww[:5] + (bad,) + ww[5:]),
                  (w, ww[:5] + (-1,)), (w, ww[:2] + (-1,) + ww[2:]),
                  (w, ww[:1] + ww[:1] + (-1,) + ww[1:]), (w, ww[:1] + ww[:9] + (bad,))]
    # a copy of a letter: where the word's letter leads somewhere new, so
    # does its copy, to the same subset
    def with_copy(pfa, a):
        return Pfa(pfa.letters + ("copy",), tuple(row + (row[a],) for row in pfa.delta))

    cases += [(with_copy(g, a), word) for a in range(len(g.letters))]
    # small automata, then 33 to 40 states (chunks past the first four) over
    # 9 to 30 letters, one of them a copy
    rng = random.Random(6)
    for seed in range(72):
        if seed < 60:
            pfa = gen_random(rng.randint(1, 9), rng.randint(1, 4), rng.choice((0.8, 0.95, 1.0)), seed)
        else:
            pfa = gen_random(rng.randint(33, 40), rng.randint(8, 29), rng.choice((0.9, 0.97, 1.0)), seed)
            pfa = with_copy(pfa, rng.randrange(len(pfa.letters)))
        for _ in range(4):
            # a random walk that mostly takes defined letters
            cur, word = pfa.full_set(), []
            for _ in range(rng.randint(0, 25)):
                defined = [a for a in range(len(pfa.letters)) if image(pfa, a, cur) is not None]
                if not defined or rng.random() < 0.03:
                    word.append(rng.randrange(-1, len(pfa.letters) + 1))
                    break
                word.append(rng.choice(defined))
                cur = image(pfa, word[-1], cur)
            cases.append((pfa, tuple(word)))
    outcomes = set()
    for pfa, word in cases:
        expect = _outcome(_forced_path_reference, pfa, word)
        assert _outcome(forced_path_check, pfa, word) == expect
        if isinstance(expect, str):
            outcomes.add(expect.split()[0])
            continue
        final, step = expect
        outcomes.add("undefined" if final is None else "defined")
        outcomes.add(type(step))
        if run_word(pfa, pfa.full_set(), word[:1]).final is None:
            outcomes.add("first letter undefined")
        if step is not None:
            if pfa.n > 32:
                outcomes.add("wide")
            new = [image(pfa, a, step.subset) for a in step.new_letters]
            if len(set(new)) < len(new):
                outcomes.add("two letters, one new subset")
            # how the word's own letter fails a step from two or more states
            letter = word[step.position]
            if step.subset.bit_count() == 1:
                outcomes.add("singleton")
            elif letter in step.visited_letters:
                outcomes.add("back, another letter new" if new else "back, nothing new")
            elif letter in step.new_letters and len(set(new)) > 1:
                outcomes.add("two new subsets")
    assert outcomes == {type(None), ForcedStep, "letter", "defined", "undefined", "wide",
                        "singleton", "two letters, one new subset", "first letter undefined",
                        "back, another letter new", "back, nothing new", "two new subsets"}


def test_reachable_count_witness():
    count = reachable_subset_count(gen_witness())
    assert 1 < count <= 16


def test_not_sync_iff_no_singleton_reachable():
    # every total letter permutes the states, and the others, where there
    # are any, merge but are undefined somewhere: the full set only maps to
    # itself
    for pfa in (Pfa(("a", "b"), ((1, 1), (0, 0))), Pfa(("a", "b"), ((1, None), (0, 0))),
                Pfa(("a", "b", "c"), ((1, 0, None), (2, None, 0), (0, 0, 1))),
                Pfa(("a", "b"), ((None, 1), (0, 2), (1, 0)))):
        assert total_merging_letter(pfa) is None
        levels, word = _naive_bfs(pfa)
        assert word is None and len(levels) == 1
        assert shortest_careful_word(pfa) is None
        assert reachable_subset_count(pfa) == 1


def test_search_from_a_start_without_letters_compiles_nothing(monkeypatch):
    def _fail(pfa):
        raise AssertionError("compiled the chunk tables")

    monkeypatch.setattr(search, "compile_letters", _fail)
    # no letter is defined on the full set: a is undefined on one state, b on
    # another; the third table is unvalidated, and row 2's targets lie outside
    # the states, but the search never reads them
    for pfa in (Pfa(("a", "b"), ((1, None), (None, 0))),
                Pfa(("a", "b"), ((None, 1), (0, None), (7, -1))), Pfa((), ((),) * 3)):
        assert shortest_careful_word(pfa) is None
        assert reachable_subset_count(pfa) == 1


def test_dead_start_check_leaves_a_bad_entry_to_compile_letters():
    # unvalidated tables whose bad entries the dead-start check reads: it
    # meets row 1's 9 first, where compile_letters, row by row, stops at
    # row 0 (its 5, or its missing b)
    for pfa, err, msg in ((Pfa(("a", "b"), ((0, 5), (9, 0))), ValueError,
                           "delta row 0 has a target outside 2 states"),
                          (Pfa(("a", "b"), ((0,), (9, 0))), IndexError, "tuple index out of range")):
        for f in (shortest_careful_word, reachable_subset_count, compile_letters):
            with pytest.raises(err) as info:
                f(pfa)
            assert str(info.value) == msg
        # a bad budget is refused before any entry is read, goals included
        for f in (shortest_careful_word, reachable_subset_count):
            with pytest.raises(ValueError, match="^subset budget -1 is negative$"):
                f(pfa, max_subsets=-1)
            with pytest.raises(CapExceeded) as info:
                f(pfa, max_subsets=0)
            assert type(info.value) is CapExceeded and info.value.visited == 1


def test_letterless_search_does_no_work_per_state():
    # Without letters only the full set is reachable.  A 2^20-state table
    # passes the table bound, and a goal per singleton would hold about
    # n^2 / 2 bits.
    pfa = Pfa((), ((),) * (1 << 20))
    tracemalloc.start()
    try:
        found = shortest_careful_word(pfa)
        count = reachable_subset_count(pfa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is None and count == 1
    assert peak < 4 << 20
    # nor with letters, none defined on every state: without a total merging
    # letter the singleton goals (about 277 MiB here) are never built
    wide = gen_random(1 << 16, 16, 0.5, 1)
    assert total_merging_letter(wide) is None
    tracemalloc.start()
    try:
        found = shortest_careful_word(wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found is None and peak < 8 << 20
    one = Pfa((), ((),))
    for p in (one, Pfa(("a",), ((None,),)), Pfa(("a", "b"), ((0, None),))):
        # one state is its own singleton, though no letter merges two states
        assert total_merging_letter(p) is None
        assert shortest_careful_word(p) == search.SearchResult((), 1, 0)
    for p in (pfa, one):
        with pytest.raises(ValueError):
            shortest_careful_word(p, max_subsets=-1)
        with pytest.raises(CapExceeded):
            reachable_subset_count(p, max_subsets=0)


def _naive_bfs(pfa):
    """BFS level of every subset reachable from the full set, by set arithmetic.

    Returns ``(levels, word)``: levels in discovery order, and the word to
    the first singleton discovered (letters tried in ascending order), or
    None.
    """
    first = frozenset(range(pfa.n))
    levels = {first: 0}
    parent = {}
    frontier = [first]
    while frontier:
        nxt = []
        for s in frontier:
            for a in range(len(pfa.letters)):
                targets = [pfa.delta[q][a] for q in s]
                if None in targets:
                    continue
                t = frozenset(targets)
                if t not in levels:
                    levels[t] = levels[s] + 1
                    parent[t] = (s, a)
                    nxt.append(t)
        frontier = nxt
    goal = next((t for t in levels if len(t) == 1), None)
    if goal is None:
        return levels, None
    word = []
    while goal != first:
        goal, a = parent[goal]
        word.append(a)
    return levels, tuple(reversed(word))


def test_kernel_matches_naive_closure_on_small_random_pfas():
    for n, letters, density, seed in itertools.product(
        range(1, 5), range(1, 4), (0.6, 0.9, 1.0), range(8)
    ):
        pfa = gen_random(n, letters, density, seed)
        levels, word = _naive_bfs(pfa)
        full = pfa.full_set()
        assert reachable_subset_count(pfa) == len(levels)
        for t, level in levels.items():
            assert subset_distance(pfa, full, bits_from_states(t)) == level
        found = shortest_careful_word(pfa)
        assert (found and found.word) == word


def test_subset_distance_matches_naive_levels_for_every_target():
    # every nonempty target: reachable or not, singleton or not
    kinds = set()
    for n, letters, seed in itertools.product(range(1, 6), (1, 2, 3), range(4)):
        pfa = gen_random(n, letters, 0.8, seed)
        levels = _naive_bfs(pfa)[0]
        for dst in range(1, 1 << n):
            level = levels.get(frozenset(states_from_bits(dst)))
            assert subset_distance(pfa, pfa.full_set(), dst) == level
            kinds.add((level is None, dst.bit_count() == 1))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}


def test_failed_search_visits_every_reachable_subset(monkeypatch):
    # marking the singletons as goals must not change what a failed search
    # counts; two disjoint copies of one table never merge, yet reach many
    # subsets
    corpus = []
    for pfa in [gen_cerny(5), gen_cerny(13)] + [
        gen_random(n, letters, density, seed)
        for n, letters, density, seed in itertools.product(
            (2, 3, 5, 13), (2, 3), (0.9, 1.0), range(3))
    ]:
        copies = Pfa(pfa.letters, [[None if t is None else t + pfa.n * half for t in row]
                                   for half in (0, 1) for row in pfa.delta])
        corpus += [p for p in (pfa, copies) if shortest_careful_word(p) is None]
    assert max(map(reachable_subset_count, corpus)) > 1000
    assert max(pfa.n for pfa in corpus) > search.FLAT_TABLE_LIMIT
    for limit in (search.FLAT_TABLE_LIMIT, 0):
        monkeypatch.setattr(search, "FLAT_TABLE_LIMIT", limit)
        for pfa in corpus:
            singletons = {1 << q for q in range(pfa.n)}
            visited = search._bfs(pfa, pfa.full_set(), singletons, search.DEFAULT_MAX_SUBSETS)[2]
            assert visited == reachable_subset_count(pfa)


def _with_boundary_holes(pfa):
    """``pfa`` with letter 0 kept total and the other letters undefined on
    both sides of every chunk start of the letter tables, and on the top
    state."""
    b = compile_letters(pfa)[0]
    holes = {q for lo in range(b, pfa.n, b) for q in (lo - 1, lo)} | {pfa.n - 1}
    delta = [list(row) for row in pfa.delta]
    for i, q in enumerate(sorted(holes)):
        delta[q][1 + i % (len(pfa.letters) - 1)] = None
    return Pfa(pfa.letters, delta)


def test_kernel_and_run_word_match_naive_images_across_chunks():
    # Up to 32 states the chunks hold 1 (n = 4) to 8 (n = 31, 32) states;
    # above, 8 each.  64 states fill the 64 bits of a packed subset; 65 and
    # 72 do not fit.  Their seeds pick searches of at most 25,000 subsets,
    # some not synchronizing.
    synchronizing = set()
    sizes = (4, 7, 8, 9, 13, 18, 21, 27, 31, 32, 33, 40)
    cases = list(itertools.product(sizes, range(20)))
    cases += [(64, 0), (64, 6), (64, 8), (65, 0), (65, 6), (72, 2), (72, 5)]
    for n, seed in cases:
        pfa = _with_boundary_holes(gen_random(n, 3 if n < 10 else 2, 1.0, seed))
        assert 4 + len(compile_letters(pfa)[2]) == max(4, (n + 7) // 8)  # n > 32: chunks beyond the unrolled four
        levels, word = _naive_bfs(pfa)
        assert reachable_subset_count(pfa) == len(levels)
        for s in levels:
            for a in range(len(pfa.letters)):
                targets = [pfa.delta[q][a] for q in s]
                expect = None if None in targets else bits_from_states(targets)
                assert image(pfa, a, bits_from_states(s)) == expect
        found = shortest_careful_word(pfa)
        assert (found and found.word) == word
        if word is not None:
            synchronizing.add(n)
            # the naive levels are in discovery order too
            assert found.visited_subsets == 1 + next(
                i for i, t in enumerate(levels) if len(t) == 1)
            trace = run_word(pfa, pfa.full_set(), word).trace
            assert [levels[frozenset(states_from_bits(t))] for t in trace] == list(
                range(len(word) + 1)
            )
    assert synchronizing == {*sizes, 64, 65, 72}


def _first_letter_total(pfa, seed):
    """``pfa`` with letter 0's undefined transitions sent to random states."""
    rng = random.Random(seed)
    delta = [list(row) for row in pfa.delta]
    for row in delta:
        if row[0] is None:
            row[0] = rng.randrange(pfa.n)
    return Pfa(pfa.letters, delta)


def test_kernel_matches_naive_bfs_on_sparse_many_letter_automata():
    # Most letters are undefined on most subsets, so the kernel expands only
    # the few its chunk domains leave.  With 33 and 40 states the domains of
    # the wide chunks beyond state 32 count too; with letter 0 made total,
    # the searches go past the full set, on which few letters are defined.
    # With 300 letters the words use letter indices above 255, and the
    # 70-state chain's subsets need more than 64 bits.
    corpus = [gen_random(n, letters, density, seed)
              for n, letters, density, seed in itertools.product(
                  range(5, 10), (8, 20, 30), (0.3, 0.5, 0.7), range(2))]
    corpus += [gen_random(n, letters, density, 0)
               for n, letters, density in itertools.product((33, 40), (8, 20, 30), (0.3, 0.7))]
    corpus += [_first_letter_total(gen_random(n, letters, density, seed), seed)
               for n, letters, density, seed in (
                   (33, 8, 0.7, 4), (33, 20, 0.3, 35), (33, 30, 0.3, 7), (40, 8, 0.3, 3),
                   (40, 8, 0.5, 2), (40, 20, 0.3, 19), (40, 30, 0.3, 19),
                   (33, 8, 0.3, 5), (33, 20, 0.5, 0), (40, 20, 0.7, 4), (40, 30, 0.5, 1))]
    corpus += [gen_random(5, 300, 0.4, seed) for seed in range(30)]
    corpus += [gen_random(7, 300, 0.6, seed) for seed in range(10)]
    corpus += [_relabel(gen_grid(2, 5), 5), _relabel(gen_grid(3, 3), 6), Pfa((), ((),) * 3),
               gen_chain(70)]
    rng = random.Random(14)
    stuck = synchronizing = wide_letters = 0
    for pfa in corpus:
        levels, word = _naive_bfs(pfa)
        full = pfa.full_set()
        singletons = {1 << q for q in range(pfa.n)}
        assert reachable_subset_count(pfa) == len(levels)
        found = shortest_careful_word(pfa)
        assert (found and found.word) == word
        visited = search._bfs(pfa, full, singletons, search.DEFAULT_MAX_SUBSETS)[2]
        if word is None:
            assert visited == len(levels)
        else:
            synchronizing += pfa.n > 32
            wide_letters += max(word) > 255
            assert visited == found.visited_subsets == 1 + next(
                i for i, t in enumerate(levels) if len(t) == 1)
        # no letter defined on the full set: nothing past it
        if len(levels) == 1:
            stuck += 1
            assert found is None and visited == 1
        for t in rng.sample(list(levels), min(len(levels), 8)):
            assert subset_distance(pfa, full, bits_from_states(t)) == levels[t]
    assert stuck > 20 and synchronizing == 8 and wide_letters == 6


def test_small_alphabets_index_one_letter_table_per_width(monkeypatch):
    list_letters, letter_lists = search._list_letters, search._letter_lists

    def bit_scan(mask):
        return [a for a in range(mask.bit_length()) if mask >> a & 1]

    # the one listing rule, on every mask up to 10 letters and on random
    # masks across the switch to four-byte letters past 256
    rng = random.Random(26)
    for width in range(11):
        for mask in range(1 << width):
            listed = list_letters(mask, width)
            assert type(listed) is bytes and list(listed) == bit_scan(mask)
    for width in (255, 256, 257, 300):
        masks = [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(40)]
        for mask in masks:
            listed = list_letters(mask, width)
            assert type(listed) is (bytes if width <= 256 else array)
            assert list(listed) == bit_scan(mask)
    # up to 8 letters one tuple per width lists every mask by that rule
    for width in range(9):
        table = letter_lists(width)
        assert type(table) is tuple
        assert list(table) == [list_letters(mask, width) for mask in range(1 << width)]
    # once a width's table is built, searches, the certificate and later
    # calls share it and list no letters anew
    calls, handed = [], []

    def recording_list(mask, width):
        calls.append(width)
        return list_letters(mask, width)

    def recording_lists(width):
        handed.append(letter_lists(width))
        return handed[-1]

    monkeypatch.setattr(search, "_list_letters", recording_list)
    monkeypatch.setattr(search, "_letter_lists", recording_lists)
    tables = {width: letter_lists(width) for width in (2, 6)}
    shortest_careful_word(gen_cerny(8))
    reachable_subset_count(gen_grid(2, 3))
    forced_path_check(gen_grid(2, 3), grid_word(2, 3))
    assert calls == [] and list(map(id, handed)) == [id(tables[2]), id(tables[6]), id(tables[6])]
    assert all(letter_lists(width) is table for width, table in tables.items())
    # beyond 8 letters each search and walk gets a fresh, exact dict that it
    # fills as it meets masks, listing each mask once
    handed.clear()
    wide = [gen_random(5, 9, 0.8, 0), gen_random(5, 9, 0.8, 0), gen_random(4, 28, 0.8, 1),
            gen_random(4, 300, 0.7, 2)]
    for pfa in wide:
        reachable_subset_count(pfa)
    found = shortest_careful_word(gen_grid(2, 5))
    forced_path_check(gen_grid(2, 5), found.word)
    widths = [9, 9, 28, 300, 10, 10]
    assert len({id(lists) for lists in handed}) == len(handed) == len(widths)
    for lists, width in zip(handed, widths):
        assert type(lists) is dict and lists
        assert all(listed == list_letters(mask, width) for mask, listed in lists.items())
    assert calls == [width for lists, width in zip(handed, widths) for _ in lists]


def test_search_subclasses_no_builtin_container():
    # CPython 3.11 specialises subscripts only on exact dict, list and tuple,
    # so the search module keeps no subclass of a container on its hot path
    tree = ast.parse(Path(search.__file__).read_text())
    containers = {"dict", "list", "tuple", "set", "frozenset", "bytearray"}
    containers |= {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "collections"
                   for alias in node.names}
    bases = [(node.name, ast.unparse(base)) for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) for base in node.bases]
    assert bases and not [(name, base) for name, base in bases
                          if base in containers or base.startswith("collections.")]


def test_no_module_imports_dataclasses_or_string():
    # importing either costs milliseconds that every CLI command pays at
    # start-up: dataclasses loads inspect and compiles each record's methods,
    # string compiles a regex for string.Template
    imported = []
    for path in sorted(Path(search.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name.partition(".")[0]) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.append((path.name, node.module.partition(".")[0]))
    assert ("search.py", "typing") in imported
    assert not [(name, module) for name, module in imported
                if module in ("dataclasses", "string")]


def test_only_core_tests_a_final_subset_for_one_state():
    # one verdict rule, core.synchronized_state: no other module restates
    # "a single state" as a comparison of bit_count() with 1
    def is_one_state_test(node):
        operands = [node.left, *node.comparators]
        return (all(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                and any(isinstance(x, ast.Constant) and x.value == 1 for x in operands)
                and any(isinstance(x, ast.Call) and isinstance(x.func, ast.Attribute)
                        and x.func.attr == "bit_count" for x in operands))

    found = [path.name for path in sorted(Path(search.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Compare) and is_one_state_test(node)]
    assert found == ["core.py"]


def test_each_raised_message_has_one_site():
    # one raise per input rule: a message template raised as a string or an
    # f-string is raised from one place, which the other callers call; this
    # list of pairs still restated may only shrink
    restated = {
        "word length bound {} is negative": ["cli.py", "search.py"],
        "n must be at least 2": ["families.py", "words.py"],
        "class indices are 1-based": ["words.py", "words.py"],
        "requires d >= 2 and k >= 2": ["words.py", "words.py"],
    }
    sites = {}
    for path in sorted(Path(search.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) and node.exc.args:
                arg = node.exc.args[0]
                if isinstance(arg, ast.JoinedStr):
                    template = "".join(part.value if isinstance(part, ast.Constant) else "{}"
                                       for part in arg.values)
                elif isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                    template = arg.value
                else:
                    continue
                sites.setdefault(template, []).append(path.name)
    assert sites["d must be at least 2"] == ["families.py"]
    assert sites["letter index {} out of range"] == ["core.py"]
    assert sites["delta row {} has a target outside {} states"] == ["core.py"]
    assert {template: where for template, where in sites.items() if len(where) > 1} == restated


def test_search_catches_only_the_letter_lists_key_error():
    # the start rule reads only whether entries are defined, and a bad entry
    # raises from compile_letters: no handler in the search module may
    # swallow the errors of a bad table
    tree = ast.parse(Path(search.__file__).read_text())
    caught = [ast.unparse(node.type) for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler)]
    assert caught == ["KeyError", "KeyError"]  # the BFS's and the forced walk's letter lists


def test_definedness_is_read_before_any_table_is_compiled():
    # core.defined_letters is the one rule for the letters defined on every
    # state of a subset: the BFS and the forced walk read it before they
    # compile a table, and the check battery reads no transition table
    tree = ast.parse(Path(search.__file__).read_text())
    order = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in ("_bfs", "forced_path_check"):
            calls = sorted((call.lineno, call.col_offset, call.func.id) for call in ast.walk(node)
                           if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                           and call.func.id in ("defined_letters", "compile_letters"))
            order[node.name] = [name for *_, name in calls]
    assert sorted(order) == ["_bfs", "forced_path_check"]
    for calls in order.values():
        assert calls[0] == "defined_letters" and "compile_letters" in calls
    tree = ast.parse(Path(reporting.__file__).read_text())
    assert not [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "delta"]


def test_searches_and_forced_walk_match_references_at_8_and_9_letters():
    # 8 letters index the per-process table, 9 the lazy lists; sparse and
    # total tables, with random walks and the BFS word for the certificate
    rng = random.Random(25)
    synchronizing, outcomes = set(), set()
    for letters, density, seed in itertools.product((8, 9), (0.3, 0.6, 0.9, 1.0), range(6)):
        pfa = gen_random(rng.randint(2, 8), letters, density, seed)
        levels, word = _naive_bfs(pfa)
        assert reachable_subset_count(pfa) == len(levels)
        found = shortest_careful_word(pfa)
        assert (found and found.word) == word
        walks = [] if word is None else [word]
        if word is not None:
            synchronizing.add((letters, density == 1.0))
            assert found.visited_subsets == 1 + next(
                i for i, t in enumerate(levels) if len(t) == 1)
        for _ in range(3):
            cur, walk = pfa.full_set(), []
            for _ in range(rng.randint(1, 12)):
                defined = [a for a in range(letters) if image(pfa, a, cur) is not None]
                if not defined:
                    walk.append(rng.randrange(letters))
                    break
                walk.append(rng.choice(defined))
                cur = image(pfa, walk[-1], cur)
            walks.append(tuple(walk))
        for walk in walks:
            expect = _outcome(_forced_path_reference, pfa, walk)
            assert _outcome(forced_path_check, pfa, walk) == expect
            outcomes.add((letters, type(expect[1])))
    assert synchronizing == {(8, False), (8, True), (9, False), (9, True)}
    assert outcomes == {(w, kind) for w in (8, 9) for kind in (type(None), ForcedStep)}


def test_flat_and_hash_tables_agree(monkeypatch):
    corpus = [
        gen_random(n, l, p, seed)
        for n, l, p, seed in itertools.product((2, 3, 4), (1, 2, 3), (0.5, 0.8), (0, 1, 2))
    ] + [gen_cerny(10)]
    # cerny:n=10 moves to the flat table on discovering its 17th subset, the
    # fourth of the six on level 7; the 17th and 18th as goals are found on
    # the probe that moves and on the one after it
    levels = _naive_bfs(gen_cerny(10))[0]
    order = list(levels)
    assert levels[order[13]] == levels[order[16]] == levels[order[18]] == 7
    moving_goals = [bits_from_states(order[16]), bits_from_states(order[17])]

    def capped(search_fn, pfa, cap):
        try:
            return search_fn(pfa, max_subsets=cap)
        except CapExceeded as e:
            return ("cap", e.visited)

    def outcomes():
        out = []
        for pfa in corpus:
            found = shortest_careful_word(pfa)
            out.append((found, reachable_subset_count(pfa)))
            # marked goals that are reached, unreachable, or not singletons
            full = pfa.full_set()
            out.append([subset_distance(pfa, full, dst) for dst in range(1, 1 << min(pfa.n, 4))])
            # cerny:n=10 moves once it holds 2^10 / 64 = 16 subsets, so caps
            # of 16, 17 and 18 stop the search just before and just after
            for cap in (1, 3, 16, 17, 18, 100):
                out.append(capped(shortest_careful_word, pfa, cap))
                out.append(capped(reachable_subset_count, pfa, cap))
        cerny = corpus[-1]
        out.append([subset_distance(cerny, cerny.full_set(), dst) for dst in moving_goals])
        return out

    flat = outcomes()
    monkeypatch.setattr(search, "FLAT_TABLE_LIMIT", 0)
    assert outcomes() == flat


def _relabel(pfa, seed):
    perm = list(range(pfa.n))
    random.Random(seed).shuffle(perm)
    delta = [None] * pfa.n
    for q, row in enumerate(pfa.delta):
        delta[perm[q]] = tuple(None if t is None else perm[t] for t in row)
    return Pfa(pfa.letters, delta)


@pytest.mark.parametrize(
    "pfa, digest, visited",
    [
        (gen_cerny(14), "085858fee69563a12a3a217e5886e586716a11d781ce7b5f37f0c2b4bf30ba87", 16370),
        (_relabel(gen_grid(2, 10), 7),
         "d44da882371c169c9014ba85f1c696c3854c2defe0f0eb21b49ef8ddb929bd59", 2046),
        # 25 states: above FLAT_TABLE_LIMIT, so the hash table
        (_relabel(gen_grid(5, 5), 7),
         "5cfcfff9f18d101c4f9aacc7255d33134e273a7ea64452c292e6568572fc52dd", 3902),
    ],
    ids=["cerny:n=14", "grid:d=2,k=10 renumbered", "grid:d=5,k=5 renumbered"],
)
def test_kernel_golden_words(pfa, digest, visited):
    # pins the lexicographic tie-break and the visited count
    found = shortest_careful_word(pfa)
    assert hashlib.sha256(bytes(found.word)).hexdigest() == digest
    assert found.visited_subsets == visited


def _poisoned_wide_rows(compile_letters):
    """``compile_letters`` with row 0 of every wide chunk all -1 and mask 0,
    so a kernel that reads the row of a chunk holding none of its subset's
    states finds no letter defined there."""
    def compile_poisoned(pfa):
        b, unrolled, wide = compile_letters(pfa)
        row = (-1,) * len(pfa.letters) + (0,)
        return b, unrolled, [([row] + chunk[1:], shift) for chunk, shift in wide]

    return compile_poisoned


@pytest.mark.parametrize(
    "pfa, digest, visited, reachable",
    [
        (gen_grid(17, 2), "0ba7608df1e0ec1d1ab70288be483f6d369ec2e10acdfd39e2783eccf2715609", 291, 307),
        (gen_grid(11, 3), "8304d8e07dbc25b3302af46ddd32a47e51ff140cc54b2ba22261cd99dd28131e",
         1454, 1464),
        (gen_random(40, 3, 0.95, 1),
         "b0aa6f7f446e600a3a35a62ac27c5725d3a8ec4807988ecb7a2833f3395af4d8", 1083, 67756),
    ],
    ids=["grid:d=17,k=2", "grid:d=11,k=3", "random:n=40,l=3,p=0.95,seed=1"],
)
def test_kernel_reads_no_row_of_an_unoccupied_wide_chunk(monkeypatch, pfa, digest, visited,
                                                         reachable):
    monkeypatch.setattr(search, "compile_letters", _poisoned_wide_rows(search.compile_letters))
    found = shortest_careful_word(pfa)
    assert hashlib.sha256(bytes(found.word)).hexdigest() == digest
    assert found.visited_subsets == visited
    assert reachable_subset_count(pfa) == reachable


def test_wide_grid_search_visits_one_subset_per_letter():
    # 400 states, so 46 wide chunks, and each subset on the path holds states
    # of only a few of them
    found = shortest_careful_word(gen_grid(200, 2))
    assert found.word == grid_word(200, 2)
    assert found.visited_subsets == found.length + 1


def test_reachable_count_keeps_only_two_levels():
    tracemalloc.start()
    try:
        reachable_subset_count(gen_cerny(14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_budget_bounds_visited_table():
    # 24 states may move to the flat table, but a budget of 3 subsets stops
    # the search on the hash table, long before 2^24 bytes would pay
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded) as err:
            shortest_careful_word(gen_grid(2, 12), max_subsets=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err.value.visited == 4
    assert peak < 1 << 20


def test_search_packs_parent_links_and_flat_table():
    # 65,520 subsets: 4 bytes each in the parent links and 1 in the flat
    # table, against about 50 as boxed ints
    pfa = gen_cerny(16)
    tracemalloc.start()
    try:
        found = shortest_careful_word(pfa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.visited_subsets == 65_520
    assert peak < 8 * found.visited_subsets


def test_budgets_past_32_bits_agree_with_the_default(monkeypatch):
    # a parent link is the parent's index times the letter count plus the
    # letter, so links take 8 bytes instead of 4 once the budget times the
    # letter count passes 2^32: from a budget of 2^32 on with 2 letters,
    # from 2^29 on with 12
    itemsizes = []

    def spy(typecode, *args):
        made = array(typecode, *args)
        itemsizes.append(made.itemsize)
        return made

    monkeypatch.setattr(search, "array", spy)
    for pfa, last_narrow in ((gen_cerny(10), 1 << 31), (_relabel(gen_grid(2, 6), 3), 1 << 28)):
        full = pfa.full_set()
        targets = [1 << q for q in range(pfa.n)] + [full]

        def outcomes(cap):
            itemsizes.clear()
            return (shortest_careful_word(pfa, max_subsets=cap),
                    reachable_subset_count(pfa, max_subsets=cap),
                    [search._bfs(pfa, full, {dst}, cap) for dst in targets])

        wide = outcomes(1 << 40)
        assert set(itemsizes) == {8}
        for cap, itemsize in ((search.DEFAULT_MAX_SUBSETS, 4), (last_narrow, 4),
                              (2 * last_narrow, 8)):
            assert outcomes(cap) == wide
            assert set(itemsizes) == {itemsize}


def test_table_moves_once_it_would_be_as_big(monkeypatch):
    sizes = []

    def spy(size):
        sizes.append(size)
        return bytearray(size)

    monkeypatch.setattr(search, "bytearray", spy, raising=False)

    def tables(pfa, cap=search.DEFAULT_MAX_SUBSETS):
        sizes.clear()
        try:
            shortest_careful_word(pfa, max_subsets=cap)
        except CapExceeded:
            pass
        return list(sizes)

    # cerny:n=10 holds 16 subsets before the 17th moves it
    assert tables(gen_cerny(10), 16) == []
    assert tables(gen_cerny(10), 17) == [1 << 10]
    assert tables(gen_cerny(10)) == [1 << 10]
    # 8,190 of 2^24 subsets: too few to move
    assert tables(gen_grid(2, 12)) == []
    # 25 states stay hashed however many subsets they visit
    assert tables(gen_grid(5, 5)) == []


def test_sparse_search_stays_hashed_whatever_the_budget():
    # 24 states but 8,190 subsets: a flat table would add 16 MiB.  The
    # peaks differ only by a few bytes of first-call allocations.
    peaks = []
    for cap in (10_000, 1 << 24, 1 << 30):
        tracemalloc.start()
        try:
            found = shortest_careful_word(gen_grid(2, 12), max_subsets=cap)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert found.visited_subsets == 8190
    assert max(peaks) < 2 << 20
    assert max(peaks) - min(peaks) < 64 << 10
