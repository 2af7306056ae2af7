"""Careful synchronization basics on the 4-state witness automaton.

A partial automaton may lack transitions, so a synchronizing word must be
*careful*: defined on every state the whole way down from the full state
set.  This walks the small witness automaton whose shortest careful word
has length 10, beating the (n-1)^2 bound that holds for total DFAs.
"""

from carefulsync import (
    bits_from_states,
    brute_force_shortest,
    export_dot,
    format_state_set,
    format_word,
    gen_witness,
    parse_word,
    run_word,
    shortest_careful_word,
)

pfa = gen_witness()
print("letters:", pfa.letters)
for q in range(pfa.n):
    row = {pfa.letters[a]: t for a, t in enumerate(pfa.delta[q])}
    print(f"  state {q}: {row}")

print("\nsubset images (None = some member lacks the transition):")
full = pfa.full_set()
print("  full set under a:", format_state_set(pfa, run_word(pfa, full, (0,)).final))
print("  {0,2} under b:   ", run_word(pfa, bits_from_states([0, 2]), (1,)).final)

print("\nthe published shortest word dies halfway:")
quoted = parse_word(pfa.letters, "a b c a a a b b c a")
res = run_word(pfa, full, quoted)
print(f"  'a b c a a a b b c a' is undefined at position {res.undefined_at}")

print("\nexact search over the power automaton:")
found = shortest_careful_word(pfa)
print(f"  shortest careful word: {format_word(pfa.letters, found.word)}")
print(f"  length {found.length} > (4-1)^2 = 9, synchronizes to state {found.synchronized_state}")

oracle = brute_force_shortest(pfa, 12)
print(f"  enumeration oracle agrees: length {len(oracle)}")
print(f"  nothing shorter exists: {brute_force_shortest(pfa, 9)}")

print("\nGraphviz view:")
print(export_dot(pfa))
