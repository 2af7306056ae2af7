import itertools

import pytest

from carefulsync import (
    FamilySpec,
    Pfa,
    gen_cerny,
    gen_chain,
    gen_grid,
    gen_padded,
    gen_random,
    gen_witness,
    grid_fact_violations,
    is_careful_sync_word,
    parse_family,
    shortest_careful_word,
)

# hand-derived from the transition rules: letters a, b1, b2, c2
GRID_3_2_DELTA = (
    (0, 1, None, None),   # q0^1
    (0, 2, None, None),   # q1^1
    (0, None, 0, 0),      # q2^1
    (3, 3, 4, None),      # q0^2
    (3, 4, 5, None),      # q1^2
    (3, 5, None, 0),      # q2^2
)

GRID_2_2_DELTA = (
    (0, 1, None, None),   # q0^1
    (0, None, 0, 0),      # q1^1
    (2, 2, 3, None),      # q0^2
    (2, 3, None, 0),      # q1^2
)


def test_grid_3_2_table():
    g = gen_grid(3, 2)
    assert g.letters == ("a", "b1", "b2", "c2")
    assert g.delta == GRID_3_2_DELTA
    assert g.state_names == ("q0^1", "q1^1", "q2^1", "q0^2", "q1^2", "q2^2")


def test_grid_2_2_table():
    g = gen_grid(2, 2)
    assert g.letters == ("a", "b1", "b2", "c2")
    assert g.delta == GRID_2_2_DELTA


def test_grid_spot_rules():
    g = gen_grid(3, 2)
    # class 2's top digit steps down one class on c2: q2^2 -> q0^1
    assert g.delta[5][g.letters.index("c2")] == 0
    # lower class, non-top digit has no b2 transition
    assert g.delta[0][g.letters.index("b2")] is None


def test_grid_letters_for_larger_k():
    g = gen_grid(2, 4)
    assert g.letters == ("a", "b1", "b2", "b3", "b4", "c2", "c3", "c4")
    assert g.n == 8


def test_grid_degenerate_k1():
    g = gen_grid(2, 1)
    assert g.letters == ("a", "b1")
    res = shortest_careful_word(g)
    assert res.length == 1


def test_grid_param_validation():
    for d in (1, 0, -2):
        with pytest.raises(ValueError, match="d must be at least 2"):
            gen_grid(d, 2)
    with pytest.raises(ValueError):
        gen_grid(2, 0)
    with pytest.raises(ValueError, match="k must be at least 2"):
        gen_chain(1)
    with pytest.raises(ValueError, match="n must be at least 2"):
        gen_cerny(1)


def _rule_defined(d, k, q, col):
    """Definedness of grid entry (q, col), re-derived from the rules."""
    i, j = divmod(q, d)
    i += 1
    if col == 0:
        return True
    if col <= k:  # b_l
        l = col
        if i == l:
            return j < d - 1
        return i > l or j == d - 1
    l = col - k + 1  # c_l
    return j == d - 1 and i <= l


def test_grid_undefined_pattern_exhaustive():
    # re-derive the expected definedness of every entry from the rules
    for d, k in itertools.product(range(2, 5), range(1, 5)):
        g = gen_grid(d, k)
        assert grid_fact_violations(g, d, k) == []
        for q in range(g.n):
            for col in range(2 * k):
                assert (g.delta[q][col] is not None) == _rule_defined(d, k, q, col)


def test_grid_pattern_flags_each_forbidden_flip():
    # The rules forbid `a` undefined anywhere and any letter defined where
    # they leave it undefined; removing any other transition is allowed.
    for d, k in itertools.product(range(2, 5), range(1, 6)):
        g = gen_grid(d, k)
        for q, col in itertools.product(range(g.n), range(2 * k)):
            rows = [list(row) for row in g.delta]
            rows[q][col] = q if rows[q][col] is None else None
            got = grid_fact_violations(Pfa(g.letters, rows), d, k)
            forbidden = col == 0 or not _rule_defined(d, k, q, col)
            assert len(got) == forbidden, (d, k, q, col, got)
    g = gen_grid(3, 2)
    rows = [list(row) for row in g.delta]
    rows[0][2], rows[4][0] = 0, None
    assert grid_fact_violations(Pfa(g.letters, rows), 3, 2) == [
        "b2 defined at q0^1", "a undefined at q1^2"]


def test_only_a_is_total_in_grid():
    for d, k in ((2, 2), (3, 2), (2, 3), (3, 3)):
        g = gen_grid(d, k)
        for a, name in enumerate(g.letters):
            column_total = all(g.delta[q][a] is not None for q in range(g.n))
            assert column_total == (name == "a")


def test_cerny_table():
    c = gen_cerny(4)
    assert c.letters == ("c1", "c2")
    assert c.delta == ((1, 1), (1, 2), (2, 3), (3, 0))
    assert all(None not in row for row in c.delta)
    assert c.delta[0][0] == 1
    assert c.delta[3][1] == 0
    assert c.delta[2][0] == 2


def test_cerny_total_and_synchronizing_range():
    for n in range(2, 11):
        c = gen_cerny(n)
        assert all(None not in row for row in c.delta)
        assert shortest_careful_word(c) is not None


def test_chain_tables():
    c2 = gen_chain(2)
    assert c2.letters == ("c2",)
    assert c2.delta == ((0,), (0,))
    c3 = gen_chain(3)
    assert c3.letters == ("c2", "c3")
    assert c3.delta == ((0, 0), (0, 1), (None, 1))
    # i > l rule
    assert c3.delta[2][c3.letters.index("c2")] is None


def test_chain_word_synchronizes():
    for k in (2, 3, 4):
        c = gen_chain(k)
        word = tuple(range(len(c.letters) - 1, -1, -1))  # c_k .. c_2
        assert is_careful_sync_word(c, word) == (True, 0)


def test_padded_structure():
    p = gen_padded(3, 7)
    assert p.n == 7
    assert p.letters == ("a", "b1", "b2", "c2", "p")
    core = gen_grid(3, 2)
    pad = p.letters.index("p")
    for q in range(core.n):
        assert p.delta[q][:4] == core.delta[q]
        assert p.delta[q][pad] == q
    # extra state: only p defined, landing on q0^2
    assert p.delta[6] == (None, None, None, None, 3)
    assert p.state_names[6] == "x0"


def test_padded_two_extras():
    p = gen_padded(3, 8)
    assert p.n == 8
    assert p.delta[6][4] == 3 and p.delta[7][4] == 3


def test_padded_param_validation():
    with pytest.raises(ValueError):
        gen_padded(3, 6)  # divisible
    with pytest.raises(ValueError):
        gen_padded(3, 3)  # not above d
    with pytest.raises(ValueError, match="d must be at least 2"):
        gen_padded(1, 3)


def test_random_determinism():
    a = gen_random(4, 3, 0.7, 42)
    b = gen_random(4, 3, 0.7, 42)
    assert a.delta == b.delta
    c = gen_random(4, 3, 0.7, 43)
    assert a.delta != c.delta


def test_random_letter_names_run_past_z():
    letters = gen_random(2, 28, 0.5, 1).letters
    assert letters == (*"abcdefghijklmnopqrstuvwxyz", "x26", "x27")


def test_random_density_extremes():
    total = gen_random(5, 2, 1.0, 7)
    assert all(None not in row for row in total.delta)
    empty = gen_random(3, 2, 0.0, 7)
    assert all(t is None for row in empty.delta for t in row)
    assert shortest_careful_word(empty) is None


def test_random_param_validation():
    with pytest.raises(ValueError):
        gen_random(0, 1, 0.5, 0)
    with pytest.raises(ValueError):
        gen_random(2, 0, 0.5, 0)
    with pytest.raises(ValueError):
        gen_random(2, 1, 1.5, 0)


def test_family_spec_round_trip():
    for text in (
        "witness",
        "grid:d=3,k=4",
        "cerny:n=5",
        "chain:k=3",
        "padded:d=3,n=7",
        "random:n=4,l=3,p=0.8,seed=42",
    ):
        spec = parse_family(text)
        assert spec.to_string() == text
        assert spec.build().n >= 1


def test_family_spec_build_matches_generators():
    assert parse_family("grid:d=3,k=2").build().delta == gen_grid(3, 2).delta
    assert parse_family("witness").build().delta == gen_witness().delta


def test_family_spec_errors():
    with pytest.raises(ValueError):
        parse_family("mystery:n=3")
    with pytest.raises(ValueError):
        parse_family("grid:d=3")  # missing k
    with pytest.raises(ValueError):
        parse_family("grid:d=3,k=2,z=1")
    with pytest.raises(ValueError):
        parse_family("cerny:n=abc")
    with pytest.raises(ValueError):
        parse_family("cerny:n=3,n=4")


def test_family_spec_sort_key_orders_numerically():
    specs = [parse_family(f"grid:d=2,k={k}") for k in (10, 2, 3)]
    ordered = sorted(specs, key=FamilySpec.sort_key)
    assert [s.k for s in ordered] == [2, 3, 10]


def test_family_spec_rejects_oversized_tables():
    for text, entries in (("grid:d=100000,k=100", 2000000000), ("grid:d=2,k=725", 2102500),
                          ("random:n=1025,l=1024,p=0.5,seed=1", 1049600)):
        with pytest.raises(ValueError) as err:
            parse_family(text)
        assert str(err.value) == (f"family {text} has {entries} table entries "
                                  "(states times letters), over the limit of 1048576")
    assert parse_family("random:n=1024,l=1024,p=0.5,seed=1").n == 1024  # exactly the limit


def test_random_spec_counts_one_entry_per_state_without_letters():
    # as in documents, each state counts as at least one table entry, so a
    # letterless spec over the limit fails when parsed
    with pytest.raises(ValueError) as err:
        parse_family("random:n=2000000,l=0,p=0.5,seed=1")
    assert str(err.value) == ("family random:n=2000000,l=0,p=0.5,seed=1 has 2000000 table "
                              "entries (states times letters), over the limit of 1048576")
    spec = parse_family("random:n=3,l=0,p=0.5,seed=1")
    with pytest.raises(ValueError, match="letter_count must be at least 1"):
        spec.build()
