"""Class expansion: blowing each state of a base automaton into a d-counter.

The expansion of a base automaton with k states replaces state i by a class
of d digit-states.  Letters ``a`` and ``b1..bk`` drive the digit odometer
inside classes; one c-letter per base letter fires only from top digits and
applies the base transition to whole classes.  The expansion is carefully
synchronizing exactly when the base is, and any (careful) synchronizing
base word lifts to a careful word for the expansion.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

from .core import Pfa, bits_from_states, is_careful_sync_word, run_word, states_from_bits
from .families import MAX_TABLE_ENTRIES, expand, gen_cerny
from .words import MAX_WORD_LEN, cerny_alt_word, counting_word, min_alt_reps


@dataclass(frozen=True)
class Partition:
    """Disjoint state classes covering all states, with a reverse index."""

    classes: tuple[int, ...]
    class_of: tuple[int, ...]

    @classmethod
    def from_classes(cls, n: int, classes: Sequence[int]) -> "Partition":
        class_of = [-1] * n
        union = 0
        for idx, mask in enumerate(classes):
            if union & mask:
                raise ValueError("classes overlap")
            union |= mask
            for q in states_from_bits(mask):
                class_of[q] = idx
        if union != (1 << n) - 1:
            raise ValueError("classes do not cover all states")
        return cls(tuple(classes), tuple(class_of))

    @property
    def size(self) -> int:
        return len(self.classes)


def kernel_partition(pfa: Pfa, letter: int) -> Partition:
    """Partition states by equal image under a total letter.

    Two states are equivalent when the letter sends them to the same
    target.  The letter must be defined everywhere, otherwise the relation
    is partial and a ValueError is raised.  Classes are ordered by their
    smallest member.
    """
    groups: dict[int, list[int]] = defaultdict(list)
    for q in range(pfa.n):
        t = pfa.delta[q][letter]
        if t is None:
            raise ValueError(
                f"letter {pfa.letters[letter]!r} is not total; kernel undefined"
            )
        groups[t].append(q)
    classes = sorted(groups.values(), key=min)
    return Partition.from_classes(pfa.n, [bits_from_states(c) for c in classes])


def is_class_preserving(pfa: Pfa, letter: int, partition: Partition) -> bool:
    """True when every defined transition of the letter stays inside its class."""
    for q in range(pfa.n):
        t = pfa.delta[q][letter]
        if t is not None and partition.class_of[t] != partition.class_of[q]:
            return False
    return True


@dataclass(frozen=True)
class TransformRecord:
    """A base automaton together with its d-counter expansion.

    ``letter_map[b]`` is the expansion's c-letter index for base letter b.
    """

    base: Pfa
    d: int
    result: Pfa
    letter_map: tuple[int, ...]


def transform(d: int, base: Pfa) -> TransformRecord:
    """Expand each base state into a class of d digit-states.

    The result has ``d * k`` states under the canonical layout and alphabet
    ``a``, ``b1..bk``, then one c-letter per base letter (named ``c1..cs``
    positionally), as built by :func:`carefulsync.families.expand`.  An
    expansion of more than :data:`~carefulsync.families.MAX_TABLE_ENTRIES`
    table entries raises ValueError before it is built.
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    k, s = base.n, len(base.letters)
    if k < 1 or s < 1:
        raise ValueError("base automaton needs at least one state and one letter")
    entries = d * k * (1 + k + s)
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(f"the {d}-expansion has {entries} table entries "
                         f"(states times letters), over the limit of {MAX_TABLE_ENTRIES}")
    result = expand(d, base, [f"c{l}" for l in range(1, s + 1)])
    return TransformRecord(base=base, d=d, result=result, letter_map=tuple(range(k + 1, k + 1 + s)))


def lift_word(rec: TransformRecord, base_word: Sequence[int]) -> tuple[int, ...]:
    """Lift a (careful) synchronizing base word to the expansion.

    Emits ``a``, the odometer over all classes, then for each base letter
    its c-letter followed by the odometer over the classes still active in
    the base (recomputed by simulating the base, not trusted from the
    caller); nothing follows the final c-letter.  The base word must
    carefully synchronize the base automaton, and the lifted word must have
    at most :data:`~carefulsync.words.MAX_WORD_LEN` letters, else ValueError.
    """
    base = rec.base
    res = run_word(base, base.full_set(), base_word)
    if res.final is None or res.final.bit_count() != 1:
        raise ValueError("base word does not carefully synchronize the base automaton")
    k, d = base.n, rec.d
    length = d**k + len(base_word) + sum(d ** t.bit_count() - 1 for t in res.trace[1:-1])
    if length > MAX_WORD_LEN:
        raise ValueError(f"the lifted word has {length} letters, over the budget of {MAX_WORD_LEN}")
    word: list[int] = [0]
    word.extend(counting_word(d, range(1, k + 1)))
    last = len(base_word) - 1
    for pos, letter in enumerate(base_word):
        word.append(rec.letter_map[letter])
        if pos == last:
            break
        active = [q + 1 for q in states_from_bits(res.trace[pos + 1])]
        word.extend(counting_word(d, active))
    return tuple(word)


@dataclass(frozen=True)
class LiftedCernyMeasurement:
    """Measured size of the lifted reset word for an expanded cyclic DFA.

    ``lower_bound_ok`` records whether the lifted length clears the d^n
    floor that the initial odometer segment forces on any careful word.
    """

    d: int
    n: int
    base_word_length: int
    word_length: int
    synchronizes: bool
    lower_bound_ok: bool


def lifted_cerny_measurement(d: int, n: int) -> LiftedCernyMeasurement:
    """Expand the n-state cyclic DFA by d and measure the lifted word.

    The base word is the two-phase reset word with the smallest working
    tail count.  Raises ValueError when the lifted word would exceed the
    budget of :func:`lift_word`.
    """
    if d < 2 or n < 3:
        raise ValueError("requires d >= 2 and n >= 3")
    base_word = cerny_alt_word(n, min_alt_reps(n))
    rec = transform(d, gen_cerny(n))
    lifted = lift_word(rec, base_word)
    ok, _ = is_careful_sync_word(rec.result, lifted)
    return LiftedCernyMeasurement(
        d=d,
        n=n,
        base_word_length=len(base_word),
        word_length=len(lifted),
        synchronizes=ok,
        lower_bound_ok=len(lifted) >= d**n,
    )
