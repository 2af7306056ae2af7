"""Counter grids: automata whose shortest careful word grows like d^(n/d).

The (d, k) grid splits n = d*k states into k classes of d digit-states.
Any careful word must run a base-d odometer across all k classes before
the first merge is even possible, which forces exponential length.  The
odometer trace, the builder word, the forced-path minimality certificate,
and the published length claim are all shown below.
"""

from carefulsync import (
    cerny_word,
    counting_word,
    digit_subset,
    forced_path_check,
    format_state_set,
    format_word,
    gen_cerny,
    gen_grid,
    grid_word,
    grid_word_claimed_length,
    is_careful_sync_word,
    run_word,
    shortest_careful_word,
)

d, k = 3, 2
auto = gen_grid(d, k)
print(f"grid d={d}, k={k}: {auto.n} states, letters {auto.letters}")

print("\nodometer walk over both classes (state sets read as base-3 numbers):")
word = counting_word(d, [1, 2])
res = run_word(auto, digit_subset(d, [1, 2], 0), word)
for t, subset in enumerate(res.trace):
    print(f"  {t}: {format_state_set(auto, subset)}")

print("\nthe full builder word and what the search says:")
w = grid_word(d, k)
ok, state = is_careful_sync_word(auto, w)
print(f"  builder: {format_word(auto.letters, w)}  (length {len(w)})")
print(f"  synchronizes: {ok}, to {auto.state_name(state)}")
found = shortest_careful_word(auto)
print(f"  exact shortest length: {found.length}")
print(f"  published closed form says: {grid_word_claimed_length(d, k)} (overcounts by k-1)")

print("\nminimality certificate: at every step the word's letter alone leads anywhere new")
final, step = forced_path_check(auto, w)
print(f"  builder word's path is forced: {step is None}, to {format_state_set(auto, final)}")
cerny = gen_cerny(4)
_, step = forced_path_check(cerny, cerny_word(4))
print(f"  classic cerny:n=4 word first branches at step {step.position},"
      f" from {format_state_set(cerny, step.subset)}")

print("\ngrowth across k (d=2):")
for kk in range(2, 7):
    g = gen_grid(2, kk)
    print(f"  k={kk}: {g.n} states, shortest careful length {shortest_careful_word(g).length}")
