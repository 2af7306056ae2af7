"""Class expansion: blowing each state of a base automaton into a d-counter.

The expansion of a base automaton with k states replaces state i by a class
of d digit-states.  Letters ``a`` and ``b1..bk`` drive the digit odometer
inside classes; one c-letter per base letter fires only from top digits and
applies the base transition to whole classes.  The expansion is carefully
synchronizing exactly when the base is, and any (careful) synchronizing
base word lifts to a careful word for the expansion.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .core import Pfa, image, is_careful_sync_word
from .families import check_digits, check_table_size, expand, gen_cerny
from .words import _lift, cerny_alt_word, check_word_budget, min_alt_reps


def _column(pfa: Pfa, letter: int) -> list[int | None]:
    image(pfa, letter, 0)  # core.image's check of the letter: the empty subset reads no row
    return [row[letter] for row in pfa.delta]


def kernel_partition(pfa: Pfa, letter: int) -> tuple[int, ...]:
    """Each state's class index under the kernel of a total letter.

    Two states share a class when the letter sends them to the same
    target.  Classes are numbered 0, 1, ... by their smallest member.  The
    letter must be defined everywhere, otherwise the relation is partial
    and a ValueError is raised, as for a letter outside the alphabet.
    """
    column = _column(pfa, letter)
    if None in column:
        raise ValueError(f"letter {pfa.letters[letter]!r} is not total; kernel undefined")
    index: dict[int, int] = {}
    return tuple(index.setdefault(t, len(index)) for t in column)


def is_class_preserving(pfa: Pfa, letter: int, class_of: Sequence[int]) -> bool:
    """True when every defined transition of the letter stays inside its class.

    A letter outside the alphabet raises ValueError.
    """
    return all(t is None or class_of[t] == class_of[q] for q, t in enumerate(_column(pfa, letter)))


def transform(d: int, base: Pfa) -> Pfa:
    """Expand each base state into a class of d digit-states.

    The result has ``d * k`` states under the canonical layout and alphabet
    ``a``, ``b1..bk``, then one c-letter per base letter (named ``c1..cs``
    positionally, so base letter b is letter ``k + 1 + b``), as built by
    :func:`carefulsync.families.expand`.  An expansion of more than
    :data:`~carefulsync.families.MAX_TABLE_ENTRIES` table entries raises
    ValueError before it is built.
    """
    check_digits(d)
    k, s = base.n, len(base.letters)
    if k < 1 or s < 1:
        raise ValueError("base automaton needs at least one state and one letter")
    check_table_size(f"the {d}-expansion", d * k, 1 + k + s)
    return expand(d, base, [f"c{l}" for l in range(1, s + 1)])


def _check_lift_floor(d: int, k: int) -> None:
    # every lifted word of a k-state base opens with ``a`` and the odometer
    # over all k classes: d^k letters
    check_digits(d)
    check_word_budget(f"opening of every lifted word for d={d}, k={k}", d**k)


def lift_word(d: int, base: Pfa, base_word: Sequence[int]) -> tuple[int, ...]:
    """Lift a (careful) synchronizing base word to the d-expansion of ``base``.

    Emits ``a``, the odometer over all classes, then for each base letter b
    its c-letter ``k + 1 + b`` followed by the odometer over the classes
    still active in the base (recomputed by simulating the base, not
    trusted from the caller); nothing follows the final c-letter.  The base
    word must carefully synchronize the base automaton, and the lifted word
    must have at most :data:`~carefulsync.words.MAX_WORD_LEN` letters, else
    ValueError; the d^k floor is checked before the base is simulated.
    """
    _check_lift_floor(d, base.n)
    return _lift(d, base, base_word)


class LiftedCernyMeasurement(NamedTuple):
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
    tail count.  Raises ValueError for d below 2, n below 3, or a lifted word
    over the budget of :func:`lift_word`, from its d^n floor before any is built.
    """
    _check_lift_floor(d, n)
    base_word = cerny_alt_word(n, min_alt_reps(n))
    base = gen_cerny(n)
    lifted = lift_word(d, base, base_word)
    ok, _ = is_careful_sync_word(transform(d, base), lifted)
    return LiftedCernyMeasurement(
        d=d,
        n=n,
        base_word_length=len(base_word),
        word_length=len(lifted),
        synchronizes=ok,
        lower_bound_ok=len(lifted) >= d**n,
    )
