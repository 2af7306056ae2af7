import itertools
import random
import tracemalloc
from operator import or_

import pytest

from carefulsync import (
    Pfa,
    bits_from_states,
    cerny_word,
    format_state_set,
    gen_cerny,
    gen_grid,
    gen_random,
    gen_witness,
    is_careful_sync_word,
    lift_word,
    min_alt_reps,
    reachable_subset_count,
    run_word,
    search,
    shortest_careful_word,
    states_from_bits,
    total_merging_letter,
    transform,
    validate,
)
from carefulsync.cli import main
from carefulsync.core import defined_letters, image
from carefulsync.search import compile_letters

WITNESS_DELTA = (
    (1, None, 1),
    (1, 2, None),
    (2, 3, 3),
    (3, 0, 0),
)


def test_witness_table():
    pfa = gen_witness()
    assert pfa.letters == ("a", "b", "c")
    assert pfa.delta == WITNESS_DELTA
    assert pfa.n == 4
    assert any(None in row for row in pfa.delta)


def test_validate_well_formed():
    assert validate(gen_witness()) == []
    assert validate(gen_grid(3, 2)) == []


def test_validate_target_out_of_range():
    pfa = Pfa(("a",), ((7,), (0,), (1,), (2,)))
    diags = validate(pfa)
    assert len(diags) == 1
    assert "out of range" in diags[0]


def test_validate_duplicate_letter():
    pfa = Pfa(("a", "a"), ((0, 0),))
    diags = validate(pfa)
    assert len(diags) == 1
    assert "duplicate" in diags[0]


def test_validate_duplicate_state_name():
    pfa = Pfa(("a", "b"), ((0, 0), (0, 1)), state_names=("x", "x"))
    assert validate(pfa) == ["duplicate state name 'x'"]


def test_validate_state_name_that_is_not_a_string():
    pfa = Pfa(("a",), ((0,), (1,), (2,)), state_names=(5, ["x"], "5"))
    assert validate(pfa) == ["state name 5 is not a string", "state name ['x'] is not a string"]


def test_validate_row_arity_and_names():
    pfa = Pfa(("a", "b"), ((0,), (0, 1)), state_names=("x",))
    diags = validate(pfa)
    assert any("row 0" in d for d in diags)
    assert any("state_names" in d for d in diags)


def test_validate_no_states():
    assert validate(Pfa(("a",), ())) == ["automaton must have at least one state"]


@pytest.mark.parametrize("letters, delta, diag", [
    (("a", ""), ((0, 0),), "letter 1 has an empty name"),
    (("a",), ((True,),), "delta[0]['a'] = True is not a state index"),
    (("a",), (("0",),), "delta[0]['a'] = '0' is not a state index"),
    (("a",), ((0.0,),), "delta[0]['a'] = 0.0 is not a state index"),
    # a word could not spell these names: parse_word splits on whitespace
    # and reads "^" as an exponent
    (("x y",), ((0,),), "letter name 'x y' contains whitespace or '^'"),
    (("a\t",), ((0,),), "letter name 'a\\t' contains whitespace or '^'"),
    (("c^2",), ((0,),), "letter name 'c^2' contains whitespace or '^'"),
    # a name that is not a string gets no other name check: ["a"] cannot hash
    ((5,), ((0,),), "letter 0 name 5 is not a string"),
    ((None,), ((0,),), "letter 0 name None is not a string"),
    ((["a"],), ((0,),), "letter 0 name ['a'] is not a string"),
])
def test_validate_rejections(letters, delta, diag):
    assert validate(Pfa(letters, delta)) == [diag]


def test_bits_round_trip():
    assert bits_from_states([0, 2, 5]) == 0b100101
    assert states_from_bits(0b100101) == (0, 2, 5)
    assert states_from_bits(0) == ()
    # a negative mask has no lowest-bit end: refused before the loop
    with pytest.raises(ValueError):
        states_from_bits(-1)
    with pytest.raises(ValueError):
        format_state_set(gen_witness(), -1)


def test_run_word_one_letter_from_the_full_set():
    pfa = gen_witness()
    assert run_word(pfa, pfa.full_set(), (0,)).final == bits_from_states([1, 2, 3])


def test_run_word_one_undefined_letter():
    pfa = gen_witness()
    # b has no transition from state 0
    assert run_word(pfa, bits_from_states([0, 2]), (1,)).final is None


def test_run_word_self_loop_keeps_a_singleton():
    pfa = gen_witness()
    assert run_word(pfa, 1 << 1, (0,)).final == 1 << 1


def test_run_word_usage_errors():
    pfa = gen_witness()
    with pytest.raises(ValueError):
        run_word(pfa, 0, (0,))
    with pytest.raises(ValueError):
        run_word(pfa, 1, (5,))


def test_run_word_trace():
    pfa = gen_witness()
    word = tuple("abc".index(ch) for ch in "a b c".split())
    res = run_word(pfa, pfa.full_set(), word)
    assert res.final is not None
    assert res.final == bits_from_states([0, 1, 3])
    assert len(res.trace) == 4
    assert res.trace[0] == pfa.full_set()


def test_run_word_published_word_is_undefined():
    # the published 10-letter word dies at position 7 (b undefined at 0)
    pfa = gen_witness()
    word = tuple("abc".index(ch) for ch in "a b c a a a b b c a".split())
    res = run_word(pfa, pfa.full_set(), word)
    assert res.final is None
    assert res.undefined_at == 7
    assert res.trace[-1] == bits_from_states([0, 2])


def test_run_word_empty():
    pfa = gen_witness()
    s = bits_from_states([1, 3])
    res = run_word(pfa, s, ())
    assert res.final == s
    assert res.trace == (s,)


def test_run_word_empty_start_rejected():
    with pytest.raises(ValueError):
        run_word(gen_witness(), 0, (0,))


def test_run_word_rejects_out_of_range_letters():
    pfa = gen_witness()
    for letter in (-1, len(pfa.letters)):
        with pytest.raises(ValueError):
            run_word(pfa, pfa.full_set(), (0, letter))
        # image itself refuses it: -1 does not read the last letter's row
        with pytest.raises(ValueError, match="out of range"):
            image(pfa, letter, 0b1011)


def test_run_word_reads_only_the_rows_it_meets():
    # an unvalidated table: row 2 has targets outside the states and row 3
    # has no entry for b, so it cannot be compiled as a whole
    pfa = Pfa(("a", "b"), ((1, 2), (1, None), (7, -1), (0,)))
    with pytest.raises((IndexError, ValueError)):
        compile_letters(pfa)
    # walks that never read rows 2 and 3 run
    assert run_word(pfa, 0b0011, (0, 0)).final == 0b0010
    assert run_word(pfa, 0b0011, (1,)).undefined_at == 0
    assert run_word(pfa, 0b1000, (0,)).final == 0b0001
    # a bad entry the walk reads raises, at the start or on the way
    for s, word in ((0b0100, (0,)), (0b0100, (1,)), (0b0001, (1, 0)), (0b1000, (0, 1, 1))):
        with pytest.raises(ValueError, match="delta row 2 has a target outside 4 states"):
            run_word(pfa, s, word)
    for s, word in ((0b1000, (1,)), (0b1001, (1,))):
        with pytest.raises(IndexError):
            run_word(pfa, s, word)
    with pytest.raises(ValueError):
        is_careful_sync_word(pfa, (0,))


def test_run_word_on_a_wide_table_stays_small():
    # 1024 states and 1024 letters: compiling every letter's chunk tables
    # takes about 3.2 GiB of RSS, while a walk reads only the rows it meets
    pfa = gen_random(1024, 1024, 0.9, 1)
    column = [row[0] for row in pfa.delta]
    domain = bits_from_states(q for q, t in enumerate(column) if t is not None)
    tracemalloc.start()
    try:
        full = run_word(pfa, pfa.full_set(), (0,))
        part = run_word(pfa, domain, (0,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 << 20
    assert full.final is None and full.undefined_at == 0
    assert part.final == bits_from_states(t for t in column if t is not None)


def test_walks_compile_no_chunk_tables(monkeypatch, capsys):
    def _fail(pfa):
        raise AssertionError("compiled the chunk tables")

    monkeypatch.setattr(search, "compile_letters", _fail)
    witness = gen_witness()
    with pytest.raises(AssertionError):  # the search still compiles
        search.shortest_careful_word(witness)
    word = tuple("abc".index(ch) for ch in "a b c a b a b b c a".split())
    assert run_word(witness, witness.full_set(), word).final == 1 << 1
    assert is_careful_sync_word(witness, word) == (True, 1)
    lifted = lift_word(2, gen_cerny(4), cerny_word(4))
    assert is_careful_sync_word(transform(2, gen_cerny(4)), lifted)[0]
    assert min_alt_reps(9) == 6
    assert main(["verify", "witness", "--word", "a b c a b a b b c a"]) == 0
    assert capsys.readouterr().out == "verified: synchronizes to state 1\n"


def test_careful_word_length_ten():
    pfa = gen_witness()
    word = tuple("abc".index(ch) for ch in "a b c a b a b b c a".split())
    assert is_careful_sync_word(pfa, word) == (True, 1)


def test_empty_word_not_careful_on_multiple_states():
    assert is_careful_sync_word(gen_witness(), ()) == (False, None)


def test_careful_word_prefixes_defined():
    pfa = gen_witness()
    word = tuple("abc".index(ch) for ch in "a b c a b a b b c a".split())
    for cut in range(len(word) + 1):
        assert run_word(pfa, pfa.full_set(), word[:cut]).final is not None


def test_total_merging_letter():
    assert total_merging_letter(gen_grid(3, 2)) == 0
    assert total_merging_letter(gen_witness()) == 0
    identity = Pfa(("a", "b"), ((0, 0), (1, 1)))
    assert total_merging_letter(identity) is None


def test_defined_letters_matches_the_naive_definition():
    # seeded random tables over seeded subsets, with one-state, letterless
    # and permutation-only tables: a letter is listed when no member's entry
    # for it is None
    rng = random.Random(28)
    pfas = [gen_random(rng.randint(1, 40), rng.randint(1, 12), rng.choice((0.5, 0.9, 1.0)), seed)
            for seed in range(40)]
    pfas += [Pfa(("a", "b"), ((None, 0),)), Pfa(("a",), ((0,),)), Pfa((), ((),) * 5),
             Pfa(("a", "b"), ((1, 0), (2, 2), (0, 1))), gen_cerny(5)]
    sizes = set()
    for pfa in pfas:
        width = len(pfa.letters)
        subsets = {pfa.full_set(), 1 << pfa.n - 1} | {rng.getrandbits(pfa.n) or 1 for _ in range(20)}
        for s in subsets:
            listed = defined_letters(pfa, s)
            assert listed == [a for a in range(width)
                              if all(pfa.delta[q][a] is not None for q in states_from_bits(s))]
            sizes.add("none" if not listed else "all" if len(listed) == width else "some")
    assert sizes == {"none", "some", "all"}
    # the pass stops once no letter is left: row 1 is never read
    assert defined_letters(Pfa(("a", "b"), ((None, None), ())), 0b11) == []
    with pytest.raises(IndexError):
        defined_letters(Pfa(("a", "b"), ((None, 0), ())), 0b11)


def test_format_state_set():
    pfa = gen_grid(2, 2)
    assert format_state_set(pfa, bits_from_states([0, 2])) == "{q0^1,q0^2}"


def test_image_never_grows():
    for n, l, seed in itertools.product((2, 3, 4), (1, 2, 3), range(5)):
        pfa = gen_random(n, l, 0.8, seed)
        for s in range(1, 1 << n):
            for a in range(l):
                img = run_word(pfa, s, (a,)).final
                if img is not None:
                    assert img.bit_count() <= s.bit_count()
                    assert img != 0


def test_run_word_is_pure():
    pfa = gen_witness()
    assert run_word(pfa, 0b1111, (0,)).final == run_word(pfa, 0b1111, (0,)).final


def test_domains_match_image_for_every_letter():
    # every n puts members on both sides of chunk boundaries: up to 32
    # states the four chunks hold 1, 2, 3 or 8 states here, and n = 33, 40
    # need the 8-state chunks beyond the first four; the letterless
    # automata have an empty domain everywhere.
    rng = random.Random(6)
    pfas = [gen_random(n, 1 + seed * 9, 0.97, seed)
            for n, seed in itertools.product((1, 7, 8, 9, 31, 32, 33, 40), range(4))]
    pfas += [Pfa((), ((),) * n) for n in (1, 9, 33)]
    undefined = defined = 0
    for pfa in pfas:
        n = pfa.n
        b, unrolled, wide = compile_letters(pfa)
        chunks = unrolled + [chunk for chunk, _ in wide]
        assert [shift for _, shift in wide] == [b * j for j in range(4, len(chunks))]
        # the -1 mark of a chunk row and the bit of its domain mask, the
        # row's last entry, agree on every row of every chunk
        for chunk in chunks:
            for *images, mask in chunk:
                assert len(images) == len(pfa.letters)
                assert [t == -1 for t in images] == [not mask >> a & 1 for a in range(len(images))]
        subsets = {pfa.full_set(), 1 << (n - 1)}
        subsets |= {rng.getrandbits(n) or 1 for _ in range(50)}
        subsets |= {sum(1 << q for q in rng.sample(range(n), rng.randint(1, min(n, 4))))
                    for _ in range(50)}
        for s in subsets:
            mask = -1
            for j, chunk in enumerate(chunks):
                mask &= chunk[s >> b * j & (1 << b) - 1][-1]
            assert 0 <= mask < 1 << len(pfa.letters)
            for a in range(len(pfa.letters)):
                expect = image(pfa, a, s) is not None  # the definition, from delta
                assert bool(mask >> a & 1) == expect
                undefined += not expect
                defined += expect
    assert undefined and defined


def _compile_letters_by_rows(pfa):
    """Reference letter tables, built a whole row record at a time by
    doubling: four equal chunks up to 32 states, 8-state chunks beyond, and
    each row's images followed by its domain mask."""
    n = pfa.n
    b = 8 if n > 32 else max(1, (n + 3) // 4)
    width = range(len(pfa.letters))
    tables = []
    for lo in range(0, max(n, 4 * b), b):
        tab = [(0,) * len(width) + ((1 << len(width)) - 1,)]
        for q in range(lo, min(lo + b, n)):
            row = [pfa.delta[q][a] for a in width]
            if any(t is not None and not 0 <= t < n for t in row):
                raise ValueError(f"delta row {q} has a target outside {n} states")
            bits = [-1 if t is None else 1 << t for t in row]
            defined = sum(1 << a for a in width if row[a] is not None)
            tab += [(*map(or_, rec, bits), rec[-1] & defined) for rec in tab]
        tables.append(tab)
    return b, tables[:4], [(tab, b * j) for j, tab in enumerate(tables[4:], 4)]


def _compiled(compile, pfa):
    try:
        return compile(pfa)
    except (IndexError, ValueError) as err:
        return type(err), str(err)


def test_letter_tables_match_the_row_doubling_reference():
    # == on lists of tuples also fails where a row is a list, not a tuple
    undefined = 0
    pfas = [gen_random(n, 1 + seed, 0.9, seed)
            for n, seed in itertools.product((1, 7, 8, 9, 31, 32, 33, 40), range(4))]
    # wide alphabets: the bench's counter grids (10 to 28 letters) and random
    # tables of 9 and 29 letters, on both sides of 32 states
    pfas += [gen_grid(d, k) for d, k in ((2, 14), (3, 8), (4, 6), (5, 5))]
    pfas += [gen_random(n, l, 0.9, n + l) for n, l in itertools.product((24, 28, 33, 40), (9, 29))]
    for pfa in pfas:
        undefined += sum(row.count(None) for row in pfa.delta)
        assert compile_letters(pfa) == _compile_letters_by_rows(pfa)
    assert undefined
    # ragged rows and targets out of range, alone and in either order
    rng = random.Random(9)
    errors = set()
    for n, seed in itertools.product((3, 9, 33), range(12)):
        delta = [list(row) for row in gen_random(n, 3, 0.9, seed).delta]
        for _ in range(1 + seed % 3):
            q = rng.randrange(n)
            if rng.random() < 0.5:
                delta[q].pop()
            else:
                delta[q][rng.randrange(len(delta[q]))] = rng.choice((n, n + 7, -1))
        pfa = Pfa(("a", "b", "c"), delta)
        outcome = _compiled(compile_letters, pfa)
        assert outcome == _compiled(_compile_letters_by_rows, pfa)
        errors.add(outcome[0])
    assert errors == {IndexError, ValueError}


def test_letter_tables_are_sized_to_the_automaton():
    # up to 32 states exactly four chunks of at most ceil(n/4) states, and
    # 8-state chunks beyond; a chunk of m states has 2^m row records, each
    # two images and a domain mask
    total = {}
    for n in range(1, 41):
        b, unrolled, wide = compile_letters(gen_random(n, 2, 0.9, n))
        assert len(unrolled) == 4
        chunks = unrolled + [chunk for chunk, _ in wide]
        assert {len(row) for chunk in chunks for row in chunk} == {3}
        sizes = [len(chunk) for chunk in chunks]
        states = [size.bit_length() - 1 for size in sizes]
        assert sizes == [1 << m for m in states] and sum(states) == n
        assert b == max(states)
        if n <= 32:
            assert not wide and b <= (n + 3) // 4
        else:
            assert states == [8] * (n // 8) + [n % 8] * (n % 8 > 0)
        total[n] = sum(sizes)
    assert (total[20], total[24], total[28], total[32]) == (128, 256, 512, 1024)


def test_letterless_pfa():
    pfa = Pfa((), ((), ()))
    tables = compile_letters(pfa)
    assert tables == _compile_letters_by_rows(pfa)
    b, unrolled, wide = tables
    # one state per chunk, and each row record is its empty domain mask alone
    assert (b, unrolled[0], wide) == (1, [(0,)] * 2, [])
    assert shortest_careful_word(pfa) is None
    assert reachable_subset_count(pfa) == 1
