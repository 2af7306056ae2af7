"""Expanding any synchronizable automaton into a hard careful instance.

The class expansion replaces each state of a base automaton by d digit
states.  The expansion is carefully synchronizing exactly when the base
synchronizes, and any base reset word lifts mechanically: run the full
odometer, then alternate base letters (as top-digit c-letters) with
odometers over the surviving classes.  Applied to the classic cyclic DFA
this yields instances with measured word lengths between d^n and
(|base word| + 1) * d^n.
"""

from carefulsync import (
    cerny_alt_word,
    cerny_word,
    format_word,
    gen_cerny,
    is_careful_sync_word,
    kernel_partition,
    is_class_preserving,
    lift_word,
    lifted_cerny_measurement,
    min_alt_reps,
    shortest_careful_word,
    transform,
)

n = 3
base = gen_cerny(n)
print(f"base: cyclic DFA with {n} states, classic reset word", format_word(base.letters, cerny_word(n)))

auto = transform(2, base)
print(f"\nexpansion by d=2: {auto.n} states, letters {auto.letters}")

class_of = kernel_partition(auto, 0)
keep = [name for a, name in enumerate(auto.letters) if is_class_preserving(auto, a, class_of)]
print(f"letter 'a' induces {max(class_of) + 1} classes; class-preserving letters: {keep}")

lifted = lift_word(2, base, cerny_word(n))
ok, state = is_careful_sync_word(auto, lifted)
print(f"\nlifted classic word ({len(lifted)} letters) verifies: {ok}")
print(" ", format_word(auto.letters, lifted))

exact = shortest_careful_word(auto)
print(f"exact shortest careful length for the expansion: {exact.length} (floor 2^{n} = {2**n})")

print("\nthe two-phase base word is shorter to lift; its published tail count needs repair:")
for m in (4, 6):
    literal = m - 3
    works, _ = is_careful_sync_word(gen_cerny(m), cerny_alt_word(m, literal))
    repaired = min_alt_reps(m)
    print(f"  n={m}: literal r={literal} works={works}; minimal working r={repaired}")

print("\nmeasurements for the expanded cyclic family (d=2):")
for m in (3, 4, 5):
    meas = lifted_cerny_measurement(2, m)
    print(
        f"  n={m}: lifted length {meas.word_length}, base length {meas.base_word_length},"
        f" verified={meas.synchronizes}, floor 2^{m}={2**m} ok={meas.lower_bound_ok}"
    )
