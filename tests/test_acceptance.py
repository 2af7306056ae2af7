"""Acceptance gate: each test checks one headline claim end to end.

Every test prints a single pass/fail line (visible with ``pytest -s`` or on
failure); assertions carry the details.
"""

import itertools

from carefulsync import (
    brute_force_shortest,
    cerny_alt_word,
    cerny_word,
    counting_word,
    digit_subset,
    forced_path_check,
    gen_cerny,
    gen_chain,
    gen_grid,
    gen_padded,
    gen_random,
    gen_witness,
    grid_word,
    grid_word_claimed_length,
    grid_word_length,
    is_careful_sync_word,
    lift_word,
    lifted_cerny_measurement,
    min_alt_reps,
    parse_family,
    run_word,
    shortest_careful_word,
    subset_distance,
    sweep,
    transform,
)


def _finish(num: int, label: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {num:02d}] {label}: {status}")
    assert not failures, f"criterion {num} ({label}): " + "; ".join(failures)


def test_c01_witness_minimality():
    failures = []
    pfa = gen_witness()
    bfs = shortest_careful_word(pfa)
    if bfs is None or bfs.length != 10:
        failures.append(f"search length {None if bfs is None else bfs.length} != 10")
    oracle = brute_force_shortest(pfa, 12)
    if oracle is None or len(oracle) != 10:
        failures.append("enumeration oracle disagrees")
    if not 10 > (4 - 1) ** 2:
        failures.append("quadratic bound not beaten")
    _finish(1, "4-state witness has exact shortest length 10 > 9", failures)


def test_c02_grid_word_validity():
    failures = []
    pairs = [(d, k) for d in (2, 3, 4) for k in (2, 3)] + [(2, 4), (3, 4), (2, 5)]
    for d, k in pairs:
        ok, state = is_careful_sync_word(gen_grid(d, k), grid_word(d, k))
        if not ok or state != 0:
            failures.append(f"grid word fails for d={d}, k={k}")
    _finish(2, "grid words synchronize to q0^1 on all listed sizes", failures)


def test_c03_odometer_enumeration():
    failures = []
    for d in (2, 3):
        auto = gen_grid(d, 3)
        for i in (1, 2, 3):
            classes = range(1, i + 1)
            res = run_word(auto, digit_subset(d, classes, 0), counting_word(d, classes))
            expected = tuple(digit_subset(d, classes, t) for t in range(d**i))
            if res.final is None or res.trace != expected:
                failures.append(f"trace mismatch at d={d}, i={i}")
    _finish(3, "counting word enumerates all digit sets in base-d order", failures)


def test_c04_grid_minimality_arbitration():
    failures = []
    for d, k in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)):
        auto = gen_grid(d, k)
        word = grid_word(d, k)
        built = grid_word_length(d, k)
        if len(word) != built:
            failures.append(f"builder length formula off at d={d}, k={k}")
        bfs = shortest_careful_word(auto)
        if bfs is None or bfs.length != built:
            failures.append(
                f"search {None if bfs is None else bfs.length} != builder {built} at d={d}, k={k}"
            )
        final, step = forced_path_check(auto, word)
        if step is not None:
            failures.append(f"path not forced at d={d}, k={k}")
        if final != 1:  # {q0^1}
            failures.append(f"builder word ends at {final} at d={d}, k={k}")
        # recorded erratum: published closed form overshoots by exactly k-1
        if grid_word_claimed_length(d, k) - built != k - 1:
            failures.append(f"claimed-form gap changed at d={d}, k={k}")
    _finish(4, "search equals builder length, path is forced, claim gap is k-1", failures)


def test_c05_growth_floor():
    failures = []
    specs = [parse_family(f"grid:d=2,k={k}") for k in range(2, 7)]
    specs += [parse_family(f"grid:d=3,k={k}") for k in range(2, 5)]
    rows = sweep(specs)
    for row in rows:
        spec = parse_family(row.spec)
        if row.bfs_length is None or row.bfs_length < spec.d**spec.k:
            failures.append(f"{row.spec}: length {row.bfs_length} below {spec.d**spec.k}")
    d2 = [r.bfs_length for r in rows if r.spec.startswith("grid:d=2")]
    if d2 != sorted(d2) or len(set(d2)) != len(d2):
        failures.append("d=2 column not strictly increasing")
    _finish(5, "every grid instance meets the d^k floor", failures)


def test_c06_padding():
    failures = []
    for n in (7, 8):
        auto = gen_padded(3, n)
        bfs = shortest_careful_word(auto)
        if bfs is None:
            failures.append(f"padded(3,{n}) not synchronizing")
            continue
        if bfs.length < 9:
            failures.append(f"padded(3,{n}) length {bfs.length} below 9")
        word = (auto.letters.index("p"),) + grid_word(3, 2)
        if not is_careful_sync_word(auto, word)[0]:
            failures.append(f"pad-letter word fails for n={n}")
    _finish(6, "padded grids stay synchronizing with the d^2 floor", failures)


def test_c07_expansion_iff():
    failures = []
    checked = 0
    for n, l, p, seed in itertools.product(
        (2, 3, 4), (1, 2, 3), (0.6, 0.8, 1.0), range(8)
    ):
        base = gen_random(n, l, p, seed)
        base_res = shortest_careful_word(base)
        auto = transform(2, base)
        lifted_res = shortest_careful_word(auto)
        if (base_res is None) != (lifted_res is None):
            failures.append(f"iff broken at n={n}, l={l}, p={p}, seed={seed}")
            continue
        if base_res is not None:
            lifted = lift_word(2, base, base_res.word)
            if not is_careful_sync_word(auto, lifted)[0]:
                failures.append(f"lift fails at n={n}, l={l}, p={p}, seed={seed}")
            if lifted_res.length < 2**n:
                failures.append(f"floor broken at n={n}, l={l}, p={p}, seed={seed}")
        checked += 1
    if checked < 200:
        failures.append(f"only {checked} corpus instances")
    _finish(7, "base synchronizability iff expansion synchronizability (216 cases)", failures)


def test_c08_odometer_distances():
    failures = []
    for d in (2, 3):
        auto = transform(d, gen_chain(3))
        for s in (1, 2, 3):
            classes = range(1, s + 1)
            dist = subset_distance(
                auto, digit_subset(d, classes, 0), digit_subset(d, classes, d**s - 1)
            )
            if dist != d**s - 1:
                failures.append(f"d={d}, s={s}: distance {dist} != {d**s - 1}")
    _finish(8, "all-zeros to all-tops distance is exactly d^s - 1", failures)


def test_c09_cyclic_baseline():
    failures = []
    for n in range(3, 9):
        auto = gen_cerny(n)
        bfs = shortest_careful_word(auto)
        if bfs is None or bfs.length != (n - 1) ** 2:
            failures.append(f"n={n}: length {None if bfs is None else bfs.length}")
        if not is_careful_sync_word(auto, cerny_word(n))[0]:
            failures.append(f"n={n}: classic word fails")
    _finish(9, "cyclic DFA shortest reset length is (n-1)^2 for n=3..8", failures)


def test_c10_two_phase_word_arbitration():
    failures = []
    for n in (4, 5, 6, 7, 8, 9, 10):
        auto = gen_cerny(n)
        literal = n - 3 if n % 2 == 0 else n - 4
        minimal = min_alt_reps(n)
        # report the literal tail count's outcome; simulation is ground truth
        if literal >= 0:
            ok, _ = is_careful_sync_word(auto, cerny_alt_word(n, literal))
            verdict = "works" if ok else "fails"
        else:
            verdict = "ill-formed"
        print(f"  n={n}: literal tail r={literal} {verdict}; minimal working r={minimal}")
        if minimal is None:
            failures.append(f"n={n}: no working tail count up to {2 * n}")
            continue
        if not is_careful_sync_word(auto, cerny_alt_word(n, minimal))[0]:
            failures.append(f"n={n}: repaired word fails")
        if n in (4, 6) and minimal != n - 2:
            failures.append(f"n={n}: minimal tail {minimal} != {n - 2}")
    _finish(10, "two-phase reset word repairs to a verified minimal tail count", failures)


def test_c11_expanded_cyclic_measurements():
    failures = []
    for n in (3, 4, 5):
        m = lifted_cerny_measurement(2, n)
        if not m.synchronizes:
            failures.append(f"n={n}: lifted word fails")
        if not (2**n <= m.word_length <= (m.base_word_length + 1) * 2**n):
            failures.append(f"n={n}: length {m.word_length} outside sandwich")
    exact = shortest_careful_word(transform(2, gen_cerny(3)))
    print(f"  exact shortest for the expanded 3-state cyclic DFA (d=2): {exact.length}")
    if exact.length < 2**3:
        failures.append(f"exact value {exact.length} below the 2^3 floor")
    _finish(11, "lifted words verify inside the d^n sandwich", failures)


def test_c12_oracle_equivalence():
    failures = []
    checked = 0
    for n, l, p, seed in itertools.product((2, 3, 4), (1, 2, 3), (0.5, 0.8), (0, 1, 2)):
        pfa = gen_random(n, l, p, seed)
        res = shortest_careful_word(pfa)
        if res is None:
            if brute_force_shortest(pfa, 6) is not None:
                failures.append(f"n={n}, l={l}, p={p}, seed={seed}: oracle found a word")
        else:
            oracle = brute_force_shortest(pfa, res.length)
            if oracle is None or len(oracle) != res.length:
                failures.append(f"n={n}, l={l}, p={p}, seed={seed}: lengths differ")
        checked += 1
    if checked < 50:
        failures.append(f"only {checked} corpus instances")
    _finish(12, "power-set search and enumeration oracle agree (54 cases)", failures)
