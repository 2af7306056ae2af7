import itertools
import random

import pytest

from carefulsync import (
    SweepRow,
    bits_from_states,
    cerny_alt_word,
    cerny_word,
    counting_word,
    digit_subset,
    format_word,
    gen_cerny,
    gen_grid,
    grid_word,
    grid_word_claimed_length,
    grid_word_length,
    is_careful_sync_word,
    min_alt_reps,
    parse_family,
    parse_word,
    run_word,
    words,
)
from carefulsync.words import FAMILY_WORDS, MAX_WORD_LEN


def test_counting_word_unrolls():
    # b1 b1 b2 b1 b1 b2 b1 b1 under letter indexing b_i = i
    assert counting_word(3, [1, 2]) == (1, 1, 2, 1, 1, 2, 1, 1)
    assert counting_word(2, [1]) == (1,)
    assert counting_word(2, []) == ()
    assert counting_word(2, [1, 3]) == (1, 3, 1)


def test_counting_word_lengths():
    for d in range(2, 6):
        for size in range(5):
            assert len(counting_word(d, range(1, size + 1))) == d**size - 1


def test_counting_word_validation():
    for d in (1, 0, -2):
        with pytest.raises(ValueError, match="d must be at least 2"):
            counting_word(d, [1])
        # the padded word and its length divide by d, which is checked first
        for build in FAMILY_WORDS["padded"][:2]:
            with pytest.raises(ValueError, match="d must be at least 2"):
                build(d, 5)
    with pytest.raises(ValueError):
        counting_word(2, [0, 1])


def test_grid_word_small():
    assert grid_word(2, 2) == (0, 1, 2, 1, 3)  # a b1 b2 b1 c2
    g = gen_grid(2, 2)
    assert format_word(g.letters, grid_word(2, 2)) == "a b1 b2 b1 c2"


def test_grid_word_lengths_match_builder():
    for d, k in itertools.product((2, 3, 4), (2, 3, 4)):
        assert len(grid_word(d, k)) == grid_word_length(d, k)
        assert grid_word_length(d, k) == 1 + sum(d**i for i in range(2, k + 1))


def test_grid_word_synchronizes():
    for d, k in ((2, 2), (3, 2), (3, 3)):
        ok, state = is_careful_sync_word(gen_grid(d, k), grid_word(d, k))
        assert ok and state == 0  # q0^1


def test_claimed_length_values():
    assert grid_word_claimed_length(3, 2) == 11
    assert grid_word_claimed_length(2, 2) == 6


def test_claimed_exceeds_builder_by_k_minus_1():
    for d, k in itertools.product((2, 3, 4), (2, 3, 4)):
        assert grid_word_claimed_length(d, k) - grid_word_length(d, k) == k - 1


def test_claimed_length_is_the_exact_quotient():
    for d, k in itertools.product(range(2, 13), range(2, 13)):
        assert (d - 1) * grid_word_claimed_length(d, k) == d ** (k + 1) + (d - 1) * k - d * d


def test_word_builder_params():
    # d is checked first, by families.check_digits, then k
    with pytest.raises(ValueError, match="the grid word requires k >= 2"):
        grid_word(2, 1)
    for d, k in ((1, 2), (1, 1)):
        with pytest.raises(ValueError, match="d must be at least 2"):
            grid_word_claimed_length(d, k)
    with pytest.raises(ValueError, match="n must be at least 2"):
        cerny_word(1)


def test_grid_word_within_the_word_budget():
    # 1 + 2^2 + ... + 2^18 = 524,285 letters fit the budget, 1,048,573 at
    # k = 19 do not; the padded builder is checked through grid_word
    assert len(grid_word(2, 18)) == grid_word_length(2, 18) == 524_285
    build_padded = FAMILY_WORDS["padded"][0]
    for build, args in ((grid_word, (2, 19)), (grid_word, (2, 30)), (build_padded, (2, 39))):
        with pytest.raises(ValueError, match="letters, over the budget of 1000000"):
            build(*args)


def test_grid_word_checks_its_closed_form_before_it_builds_the_chain(monkeypatch):
    # 2^31 - 3 letters: no chain is built or run for a word over the budget
    def _fail(*args):
        raise AssertionError("called before the budget check")

    monkeypatch.setattr(words, "gen_chain", _fail)
    monkeypatch.setattr(words, "run_word", _fail)
    with pytest.raises(ValueError, match="the grid word for d=2, k=30 has 2147483645 letters"):
        grid_word(2, 30)


def test_word_builders_within_the_word_budget():
    # each builder's longest word within the budget, and a word over it;
    # the lengths are d^|S| - 1, (n-1)^2 and 3 * 2 + 3r + 1
    for build, fits, over in ((counting_word, (1_000_001, [1]), (2, range(1, 40))),
                              (cerny_word, (1001,), (524_288,)),
                              (cerny_alt_word, (3, 333_331), (3, 333_332))):
        assert len(build(*fits)) == MAX_WORD_LEN
        with pytest.raises(ValueError, match="letters, over the budget of 1000000"):
            build(*over)


def test_cerny_word():
    assert cerny_word(4) == (0, 1, 1, 1, 0, 1, 1, 1, 0)
    assert len(cerny_word(4)) == 9
    assert cerny_word(2) == (0,)
    for n in range(2, 9):
        assert len(cerny_word(n)) == (n - 1) ** 2
        assert is_careful_sync_word(gen_cerny(n), cerny_word(n))[0]


def test_alt_word_shape():
    w = cerny_alt_word(4, 1)
    assert w == (0, 1, 1) * 2 + (0, 1, 1, 1) + (0,)
    assert len(w) == 11
    assert len(cerny_alt_word(6, 4)) == 3 * 3 + 4 * 6 + 1


def test_alt_word_default_fails_even_n4():
    auto = gen_cerny(4)
    res = run_word(auto, auto.full_set(), cerny_alt_word(4, 1))  # the published tail count
    assert res.final is not None
    assert res.final == bits_from_states([1, 2])  # two states left, no reset


def test_alt_word_repaired_n4():
    auto = gen_cerny(4)
    assert is_careful_sync_word(auto, cerny_alt_word(4, 2)) == (True, 1)


def test_alt_word_negative_reps():
    with pytest.raises(ValueError):
        cerny_alt_word(3, -1)  # the published tail count for n = 3
    with pytest.raises(ValueError):
        cerny_alt_word(2, 0)  # no two-phase word below three states
    assert len(cerny_alt_word(3, 0)) == 7


def test_min_alt_reps_values():
    assert min_alt_reps(4) == 2
    assert min_alt_reps(6) == 4
    assert min_alt_reps(3) == 0
    assert min_alt_reps(2) is None


def test_min_alt_reps_matches_the_per_r_definition():
    for n in range(3, 31):
        auto = gen_cerny(n)
        expected = next((r for r in range(2 * n + 1)
                         if is_careful_sync_word(auto, cerny_alt_word(n, r))[0]), None)
        assert min_alt_reps(n) == expected, n
        assert expected <= n - 2, n


def test_min_alt_reps_closed_form():
    for n in range(4, 80):
        assert min_alt_reps(n) == (n - 2 if n % 2 == 0 else n - 3), n


def test_min_alt_reps_at_the_largest_cyclic_spec():
    # cerny:n=1000 is the largest cyclic spec whose classic word fits the
    # word budget
    assert min_alt_reps(1000) == 998


def test_digit_subset_base3_example():
    # value 10 over four base-3 classes: digits 1,0,1,0 from class 1 up
    mask = digit_subset(3, [1, 2, 3, 4], 10)
    assert mask == bits_from_states([1, 3, 7, 9])


def test_digit_subset_sparse_classes():
    assert digit_subset(2, [1, 3], 0) == bits_from_states([0, 4])
    assert digit_subset(2, [1, 3], 3) == bits_from_states([1, 5])


def test_digit_subset_validation():
    with pytest.raises(ValueError):
        digit_subset(2, [], 0)
    with pytest.raises(ValueError):
        digit_subset(2, [1], 2)
    with pytest.raises(ValueError):
        digit_subset(2, [1], -1)
    with pytest.raises(ValueError, match="class indices are 1-based"):
        digit_subset(2, [0], 0)
    # d is checked first, as by counting_word
    for d, value in ((0, 0), (-2, 3)):
        with pytest.raises(ValueError, match="d must be at least 2"):
            digit_subset(d, [1], value)


def test_odometer_trace_exact():
    # the counting word's trace enumerates every digit assignment in order
    for d in (2, 3):
        g = gen_grid(d, 3)
        for i in (1, 2, 3):
            classes = range(1, i + 1)
            res = run_word(g, digit_subset(d, classes, 0), counting_word(d, classes))
            assert res.final is not None
            expected = tuple(digit_subset(d, classes, t) for t in range(d**i))
            assert res.trace == expected


def test_odometer_trace_sparse_classes():
    g = gen_grid(2, 3)
    res = run_word(g, digit_subset(2, [1, 3], 0), counting_word(2, [1, 3]))
    assert res.trace == tuple(digit_subset(2, [1, 3], t) for t in range(4))


def test_sweep_row_agreement_flags():
    row = SweepRow("grid:d=2,k=3", 2, 3, 6, "ok", 10, 10, 11, 100, 0.0)
    assert row.agree_builder_bfs is True
    assert row.agree_claimed_bfs is False
    partial = SweepRow("chain:k=6", None, 6, 6, "cap", None, 5, None, 100, 0.0)
    assert partial.agree_builder_bfs is None
    assert partial.agree_claimed_bfs is None


def test_word_text_round_trip():
    letters = ("a", "b1", "c2")
    word = (0, 1, 1, 2, 0)
    assert parse_word(letters, format_word(letters, word)) == word


@pytest.mark.parametrize("text", ["witness", "grid:d=3,k=3", "cerny:n=5", "chain:k=4",
                                  "padded:d=3,n=7", "random:n=3,l=40,p=0.9,seed=2"])
def test_words_spell_back_from_their_text(text):
    # the builder word, if the kind has one, every letter once, and a
    # random word; the random spec names its letters past z x26..x39
    spec = parse_family(text)
    letters = spec.build().letters
    build = FAMILY_WORDS[spec.kind][0]
    words = [tuple(range(len(letters))), tuple(random.Random(3).choices(range(len(letters)), k=50))]
    words += [build(*spec.args)] if build else []
    for word in words:
        assert parse_word(letters, format_word(letters, word)) == word


def test_word_text_exponents():
    letters = ("c1", "c2")
    assert parse_word(letters, "c1 c2^3 c1") == (0, 1, 1, 1, 0)
    assert parse_word(letters, "c2^0") == ()
    assert parse_word(letters, "") == ()


def test_word_text_errors():
    letters = ("a", "b")
    with pytest.raises(ValueError):
        parse_word(letters, "a z")
    with pytest.raises(ValueError):
        parse_word(letters, "a^x")
    with pytest.raises(ValueError):
        parse_word(letters, "a^-2")


def test_word_text_length_bound():
    letters = ("c1", "c2")
    assert len(parse_word(letters, f"c1^{MAX_WORD_LEN}")) == MAX_WORD_LEN == 1_000_000
    assert len(parse_word(letters, "c1^500000 c2^499999 c1")) == MAX_WORD_LEN
    for text, token, length in (("c1^1000001", "c1^1000001", 1000001),
                                ("c1^600000 c1^600000", "c1^600000", 1200000),
                                ("c1^1000000 c2", "c2", 1000001)):
        with pytest.raises(ValueError) as err:
            parse_word(letters, text)
        assert str(err.value) == (f"the word up to {token!r} has {length} letters, "
                                  "over the budget of 1000000")
