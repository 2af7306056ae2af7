import itertools

import pytest

from carefulsync import (
    CapExceeded,
    Pfa,
    bits_from_states,
    brute_force_shortest,
    cerny_word,
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
    shortest_careful_word,
    subset_distance,
    total_merging_letter,
    transform,
)


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
    res = shortest_careful_word(gen_witness(), start=1 << 2)
    assert res.word == () and res.synchronized_state == 2


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
    with pytest.raises(ValueError):
        shortest_careful_word(gen_witness(), start=0)


def test_cap_exceeded():
    with pytest.raises(CapExceeded):
        shortest_careful_word(gen_grid(2, 3), max_subsets=3)


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


def test_bfs_word_always_verifies():
    for seed in range(10):
        pfa = gen_random(4, 2, 0.8, seed)
        res = shortest_careful_word(pfa)
        if res is not None:
            assert is_careful_sync_word(pfa, res.word)[0]


def test_merging_letter_exists_whenever_synchronizing():
    for n, l, seed in itertools.product((2, 3, 4), (1, 2), range(10)):
        pfa = gen_random(n, l, 0.7, seed)
        if shortest_careful_word(pfa) is not None:
            assert total_merging_letter(pfa) is not None


def test_start_set_monotonicity():
    for seed in range(12):
        pfa = gen_random(4, 2, 0.9, seed)
        full = shortest_careful_word(pfa)
        if full is None:
            continue
        for sub in (0b0011, 0b0110, 0b1010, 0b0001):
            res = shortest_careful_word(pfa, start=sub)
            assert res is not None
            assert res.length <= full.length


def test_subset_distance_same_set():
    g = gen_grid(2, 2)
    assert subset_distance(g, 0b0101, 0b0101) == 0


def test_subset_distance_in_expansions():
    rec2 = transform(2, gen_chain(2))
    assert (
        subset_distance(rec2.result, digit_subset(2, [1, 2], 0), digit_subset(2, [1, 2], 3))
        == 3
    )
    rec3 = transform(3, gen_chain(2))
    assert (
        subset_distance(rec3.result, digit_subset(3, [1, 2], 0), digit_subset(3, [1, 2], 8))
        == 8
    )


def test_subset_distance_sparse_classes():
    # non-contiguous class sets count the same way
    rec = transform(2, gen_chain(3))
    src = digit_subset(2, [1, 3], 0)
    dst = digit_subset(2, [1, 3], 3)
    assert subset_distance(rec.result, src, dst) == 3


def test_subset_distance_unreachable():
    identity = Pfa(("a",), ((0,), (1,)))
    assert subset_distance(identity, 0b01, 0b10) is None


def test_subset_distance_exact_arrival_only():
    # the target is a strict subset of a reachable set; inclusion must not count
    pfa = Pfa(("a",), ((1, ), (1,)))
    # from {0,1}: a -> {1}; asking distance to {0,1} from {1} is unreachable
    assert subset_distance(pfa, 0b10, 0b11) is None


def test_forced_path_on_grid_words():
    for d, k in ((2, 2), (3, 2), (2, 3)):
        g = gen_grid(d, k)
        report = forced_path_check(g, grid_word(d, k))
        assert report.passed
        assert len(report.steps) == len(grid_word(d, k))
        for step in report.steps:
            assert len(step.new_letters) == 1


def test_forced_path_cerny_classic_not_forced():
    # informational only: the classic word's path branches
    report = forced_path_check(gen_cerny(4), cerny_word(4))
    assert report.passed is False


def test_forced_path_requires_defined_word():
    pfa = gen_witness()
    word = tuple("abc".index(ch) for ch in "a b c a a a b b c a".split())
    with pytest.raises(ValueError):
        forced_path_check(pfa, word)


def test_forced_path_records_positions():
    g = gen_grid(2, 2)
    report = forced_path_check(g, grid_word(2, 2))
    assert [s.position for s in report.steps] == list(range(5))
    assert report.steps[0].subset == g.full_set()


def test_reachable_count_witness():
    count = reachable_subset_count(gen_witness())
    assert 1 < count <= 16


def test_not_sync_iff_no_singleton_reachable():
    # two-state automaton whose reachable power-set nodes are all doubletons
    pfa = Pfa(("a", "b"), ((1, 1), (0, 0)))
    assert shortest_careful_word(pfa) is None
    assert reachable_subset_count(pfa) == 1  # {0,1} only maps to itself


def _naive_levels(pfa):
    """BFS level of every subset reachable from the full set, by set arithmetic."""
    full = frozenset(range(pfa.n))
    levels = {full: 0}
    frontier = [full]
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
                    nxt.append(t)
        frontier = nxt
    return levels


def test_kernel_matches_naive_closure_on_small_random_pfas():
    for n, letters, density, seed in itertools.product(
        range(1, 5), range(1, 4), (0.6, 0.9, 1.0), range(8)
    ):
        pfa = gen_random(n, letters, density, seed)
        levels = _naive_levels(pfa)
        full = pfa.full_set()
        assert reachable_subset_count(pfa) == len(levels)
        for t, level in levels.items():
            assert subset_distance(pfa, full, bits_from_states(t)) == level
        singleton_levels = [lv for t, lv in levels.items() if len(t) == 1]
        found = shortest_careful_word(pfa)
        if singleton_levels:
            assert found.length == min(singleton_levels)
        else:
            assert found is None
