import itertools

import pytest

from carefulsync import (
    Pfa,
    cerny_word,
    gen_cerny,
    gen_chain,
    gen_grid,
    gen_random,
    grid_word,
    is_careful_sync_word,
    is_class_preserving,
    kernel_partition,
    lift_word,
    lifted_cerny_measurement,
    shortest_careful_word,
    transform,
    transforms,
    words,
)


def test_kernel_partition_grid_letter_a():
    g = gen_grid(3, 2)
    assert kernel_partition(g, 0) == (0, 0, 0, 1, 1, 1)


def test_kernel_partition_cerny():
    c = gen_cerny(4)
    assert kernel_partition(c, 1) == (0, 1, 2, 3)  # permutation letter: all singletons
    assert kernel_partition(c, 0) == (0, 0, 1, 2)


def test_kernel_partition_needs_total_letter():
    with pytest.raises(ValueError):
        kernel_partition(gen_grid(3, 2), 1)  # b1 undefined at q2^1
    # a letter outside the alphabet is refused as by core.image, not read
    # from a row's end or past it
    c = gen_cerny(4)
    for letter in (-1, len(c.letters)):
        with pytest.raises(ValueError, match=f"letter index {letter} out of range"):
            kernel_partition(c, letter)
        with pytest.raises(ValueError, match=f"letter index {letter} out of range"):
            is_class_preserving(c, letter, (0, 1, 2, 3))


def test_class_preserving_letters():
    g = gen_grid(3, 2)
    class_of = kernel_partition(g, 0)
    for name in ("a", "b1", "b2"):
        assert is_class_preserving(g, g.letters.index(name), class_of)
    assert not is_class_preserving(g, g.letters.index("c2"), class_of)


def test_identity_letter_preserves_any_partition():
    pfa = Pfa(("i",), ((0,), (1,), (2,)))
    assert is_class_preserving(pfa, 0, (0, 0, 1))


def test_transform_reproduces_grid():
    # the grid is the chain's d-expansion in its table and in its word: the
    # chain's word c_k .. c_2 lifts to the grid's builder word; the letters
    # differ only in name, the transform's c{l} being the grid's c{l+1}
    chain_word = words.FAMILY_WORDS["chain"][0]
    for d, k in itertools.product(range(2, 6), range(2, 7)):
        auto = transform(d, gen_chain(k))
        grid = gen_grid(d, k)
        assert auto.delta == grid.delta
        assert auto.state_names == grid.state_names
        assert auto.n == d * k
        renamed = tuple(f"c{int(x[1:]) + 1}" if x[0] == "c" else x for x in auto.letters)
        assert renamed == grid.letters
        assert lift_word(d, gen_chain(k), chain_word(k)) == grid_word(d, k)


def test_transform_of_cerny_shape():
    auto = transform(2, gen_cerny(3))
    assert auto.n == 6
    assert auto.letters == ("a", "b1", "b2", "b3", "c1", "c2")
    # base letter b lifts to c-letter k + 1 + b
    lifted = lift_word(2, gen_cerny(3), cerny_word(3))
    assert [a for a in lifted if a >= 4] == [3 + 1 + b for b in cerny_word(3)]


def test_transform_c_rules_follow_base():
    auto = transform(2, gen_cerny(3))
    # base c2 shifts class i to class i+1 mod 3; fires only from top digits
    c2 = auto.letters.index("c2")
    assert auto.delta[1][c2] == 2  # q1^1 -> q0^2
    assert auto.delta[5][c2] == 0  # q1^3 -> q0^1
    assert auto.delta[0][c2] is None
    assert auto.delta[2][c2] is None


def test_transform_partial_base_leaves_holes():
    base = gen_chain(3)  # base letter c2 is undefined at its top state
    auto = transform(2, base)
    col = base.n + 1 + base.letters.index("c2")  # named c1 in the expansion
    assert auto.delta[1][col] == 0  # class 1 top follows the base self-loop
    assert auto.delta[3][col] == 0  # class 2 top steps down to class 1
    assert auto.delta[5][col] is None  # base transition missing, so is the lift


def test_transform_param_validation():
    for d in (1, 0, -2):
        with pytest.raises(ValueError, match="d must be at least 2"):
            transform(d, gen_chain(2))
    with pytest.raises(ValueError):
        transform(2, Pfa((), ((),)))


def test_transform_preserving_letters():
    auto = transform(2, gen_cerny(3))
    class_of = kernel_partition(auto, 0)
    assert class_of == (0, 0, 1, 1, 2, 2)
    for name in ("a", "b1", "b2", "b3"):
        assert is_class_preserving(auto, auto.letters.index(name), class_of)
    for name in ("c1", "c2"):
        assert not is_class_preserving(auto, auto.letters.index(name), class_of)


def test_non_synchronizing_base_transforms_to_non_synchronizing():
    identity = Pfa(("u",), ((0,), (1,)))
    assert shortest_careful_word(transform(2, identity)) is None


def test_lift_coincides_with_grid_word():
    assert lift_word(2, gen_chain(2), (0,)) == grid_word(2, 2)
    assert lift_word(3, gen_chain(2), (0,)) == grid_word(3, 2)


def test_lift_classic_cerny_word():
    lifted = lift_word(2, gen_cerny(3), cerny_word(3))
    ok, _ = is_careful_sync_word(transform(2, gen_cerny(3)), lifted)
    assert ok


def test_lift_rejects_bad_base_word():
    base = gen_cerny(3)
    with pytest.raises(ValueError):
        lift_word(2, base, ())  # empty word does not synchronize a 3-state base
    with pytest.raises(ValueError):
        lift_word(2, base, (0,))
    for d in (1, 0, -2):
        with pytest.raises(ValueError, match="d must be at least 2"):
            lift_word(d, base, cerny_word(3))


def test_lift_single_state_base():
    base = Pfa(("u",), ((0,),))
    lifted = lift_word(3, base, ())
    assert is_careful_sync_word(transform(3, base), lifted)[0]


def test_lift_length_accounting():
    base = gen_cerny(3)
    base_word = cerny_word(3)
    lifted = lift_word(2, base, base_word)
    # a + full odometer + one c per base letter + odometer over survivors
    from carefulsync import run_word

    trace = run_word(base, base.full_set(), base_word).trace
    expected = 1 + (2**3 - 1) + len(base_word)
    for img in trace[1:-1]:
        expected += 2 ** img.bit_count() - 1
    assert len(lifted) == expected


def test_transform_iff_random_corpus():
    hits = 0
    for n, l, seed in itertools.product((2, 3), (1, 2, 3), range(6)):
        base = gen_random(n, l, 0.7, seed)
        base_res = shortest_careful_word(base)
        auto = transform(2, base)
        lifted_res = shortest_careful_word(auto)
        assert (base_res is None) == (lifted_res is None)
        if base_res is not None:
            hits += 1
            lifted = lift_word(2, base, base_res.word)
            assert is_careful_sync_word(auto, lifted)[0]
            assert lifted_res.length >= 2**n
    assert hits > 0


def test_lifted_cerny_measurement():
    m = lifted_cerny_measurement(2, 4)
    assert m.synchronizes
    assert m.lower_bound_ok
    assert 2**4 <= m.word_length <= (m.base_word_length + 1) * 2**4


def test_lifted_cerny_budget():
    with pytest.raises(ValueError, match="over the budget of 1000000"):
        lifted_cerny_measurement(2, 20)  # the first odometer alone has 2^20 letters
    for d in (1, 0, -2):
        with pytest.raises(ValueError, match="d must be at least 2"):
            lifted_cerny_measurement(d, 4)
    with pytest.raises(ValueError, match="n must be at least 3"):
        lifted_cerny_measurement(2, 2)


def test_lift_word_budget_is_the_exact_length(monkeypatch):
    for d, n in itertools.product((2, 3, 4), (3, 4, 5, 6)):
        base = gen_cerny(n)
        length = len(lift_word(d, base, cerny_word(n)))
        monkeypatch.setattr(words, "MAX_WORD_LEN", length)
        assert len(lift_word(d, base, cerny_word(n))) == length
        monkeypatch.setattr(words, "MAX_WORD_LEN", length - 1)
        with pytest.raises(ValueError, match=f"{length} letters"):
            lift_word(d, base, cerny_word(n))
        monkeypatch.undo()


def _fail(*args):
    raise AssertionError("called before the budget check")


def test_lift_word_checks_the_floor_before_it_simulates(monkeypatch):
    # the first odometer alone has 2^30 letters, so the base is never run
    monkeypatch.setattr(words, "run_word", _fail)
    with pytest.raises(ValueError, match="has 1073741824 letters, over the budget"):
        lift_word(2, gen_cerny(30), cerny_word(30))


def test_lifted_cerny_measurement_checks_the_floor_first(monkeypatch):
    monkeypatch.setattr(transforms, "min_alt_reps", _fail)
    with pytest.raises(ValueError, match="over the budget of 1000000"):
        lifted_cerny_measurement(2, 2000)
