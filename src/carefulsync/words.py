"""Closed-form word builders and length bookkeeping.

Words are tuples of letter indices.  The builders that target counter-style
automata (grids and expanded automata from :mod:`carefulsync.transforms`)
assume the canonical letter layout ``a``, ``b1..bk``, c-letters; under that
layout letter ``b_i`` has index ``i``, which is what :func:`counting_word`
emits.  The grid word is the chain word's lift, made by the one lift builder
that :func:`carefulsync.transforms.lift_word` also calls.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .core import Pfa, image, run_word, states_from_bits, synchronized_state
from .families import check_digits, gen_cerny, gen_chain

# The longest word a builder here (or :func:`carefulsync.transforms.lift_word`)
# builds, and the longest word :func:`parse_word` accepts.  Each builder
# checks its closed-form length with :func:`check_word_budget` first.
MAX_WORD_LEN = 1_000_000


def check_word_budget(what: str, length: int) -> None:
    """Raise ValueError when ``what`` has more than MAX_WORD_LEN letters."""
    if length > MAX_WORD_LEN:
        raise ValueError(f"the {what} has {length} letters, over the budget of {MAX_WORD_LEN}")


def counting_word(d: int, indices: Iterable[int]) -> tuple[int, ...]:
    """Odometer word over the given 1-based class indices.

    With W(empty) the empty word and m the largest index,
    ``W(S) = (W(S') b_m)^(d-1) W(S')`` where S' drops m.  Applied to one
    state per listed class, all at digit 0, it steps through every base-d
    assignment of digits to those classes in increasing numeric order.
    Length is exactly ``d^|S| - 1``.
    """
    check_digits(d)
    idx = sorted(set(indices))
    if idx and idx[0] < 1:
        raise ValueError("class indices are 1-based")
    check_word_budget(f"odometer word over {len(idx)} classes", d ** len(idx) - 1)
    word: tuple[int, ...] = ()
    for m in idx:
        word = (word + (m,)) * (d - 1) + word
    return word


def _lift(d: int, base: Pfa, base_word: Sequence[int]) -> tuple[int, ...]:
    # the lift builder, documented at transforms.lift_word
    k = base.n
    res = run_word(base, base.full_set(), base_word)
    if synchronized_state(res.final) is None:
        raise ValueError("base word does not carefully synchronize the base automaton")
    length = d**k + len(base_word) + sum(d ** t.bit_count() - 1 for t in res.trace[1:-1])
    check_word_budget("lifted word", length)
    word = [0, *counting_word(d, range(1, k + 1))]
    for letter, active in zip(base_word, res.trace[1:-1]):
        word.append(k + 1 + letter)
        word.extend(counting_word(d, [q + 1 for q in states_from_bits(active)]))
    word.extend(k + 1 + letter for letter in base_word[-1:])
    return tuple(word)


def grid_word(d: int, k: int) -> tuple[int, ...]:
    """Carefully synchronizing word for the (d, k) counter grid.

    The lift of the chain word c_k .. c_2: ``a``, then for i = k down to 2 the
    odometer over classes 1..i and ``c_i``.  Synchronizes to q_0^1.  Length
    is ``1 + sum(d^i, i=2..k)``, checked before the chain is built.
    """
    check_word_budget(f"grid word for d={d}, k={k}", grid_word_length(d, k))
    return _lift(d, gen_chain(k), FAMILY_WORDS["chain"][0](k))


def grid_word_length(d: int, k: int) -> int:
    if d < 2 or k < 2:
        raise ValueError("requires d >= 2 and k >= 2")
    return 1 + sum(d**i for i in range(2, k + 1))


def grid_word_claimed_length(d: int, k: int) -> int:
    """Published closed-form length claim for the grid word.

    Evaluates ``(d^(k+1) + (d-1)k - d^2) / (d-1)``, exact since d = 1 (mod
    d-1).  The claim exceeds the constructed word's length by k-1 (the
    per-class c-letter is counted twice in the published derivation); kept
    verbatim so reports can show the discrepancy.
    """
    if d < 2 or k < 2:
        raise ValueError("requires d >= 2 and k >= 2")
    return (d ** (k + 1) + (d - 1) * k - d * d) // (d - 1)


def cerny_word(n: int) -> tuple[int, ...]:
    """Classic reset word (c1 c2^(n-1))^(n-2) c1 of length (n-1)^2."""
    if n < 2:
        raise ValueError("n must be at least 2")
    check_word_budget(f"classic reset word for n={n}", (n - 1) ** 2)
    return ((0,) + (1,) * (n - 1)) * (n - 2) + (0,)


def cerny_alt_word(n: int, r: int) -> tuple[int, ...]:
    """Two-phase reset word (c1 c2^2)^h (c1 c2^(n-1))^r c1 for the cyclic DFA.

    The head count h is (n+1)//2 for either parity; :func:`min_alt_reps`
    gives the least tail count r that resets.
    """
    if n < 3:
        raise ValueError("n must be at least 3")
    if r < 0:
        raise ValueError(f"tail repetition count {r} is negative")
    check_word_budget(f"two-phase word for n={n}, r={r}", 3 * ((n + 1) // 2) + n * r + 1)
    return (0, 1, 1) * ((n + 1) // 2) + ((0,) + (1,) * (n - 1)) * r + (0,)


def min_alt_reps(n: int) -> int | None:
    """Smallest tail count r making the two-phase word reset the cyclic DFA.

    Found in one walk: the head once, then per r the final ``c1`` and one
    more tail block, composed once into a one-letter automaton.  At r = n-2
    the word is the head then :func:`cerny_word`, which resets the total DFA
    from any set.  ``None`` when n < 3.
    """
    if n < 3:
        return None
    cerny = gen_cerny(n)
    word = cerny_alt_word(n, 1)
    s = (1 << n) - 1
    for a in word[:-n - 1]:  # the head
        s = image(cerny, a, s)
    block = list(range(n))
    for a in word[-n - 1:-1]:  # the tail block c1 c2^(n-1), per state
        block = [cerny.delta[q][a] for q in block]
    tail = Pfa(("tail",), [(q,) for q in block])
    for r in range(n - 2):
        if synchronized_state(image(cerny, 0, s)) is not None:  # the final c1
            return r
        s = image(tail, 0, s)
    return n - 2


# Per family kind, three functions of the spec's generator arguments: the
# builder word, its length and the published claimed length.  A function is
# None, or returns None, where the family has no such word or claim.  The
# lengths are closed forms, so neither builds the word.  Builders are named
# inside lambdas, so a wrapped module function is the one that runs.
FAMILY_WORDS = {
    "witness": (None, None, lambda: 10),
    "grid": (lambda d, k: grid_word(d, k),
             lambda d, k: grid_word_length(d, k) if k >= 2 else None,
             lambda d, k: grid_word_claimed_length(d, k) if k >= 2 else None),
    "cerny": (lambda n: cerny_word(n), lambda n: (n - 1) ** 2, lambda n: (n - 1) ** 2),
    "chain": (lambda k: tuple(range(k - 2, -1, -1)), lambda k: k - 1, None),
    # ``p`` is the padded automaton's last letter, index 2(n // d), d checked first.
    "padded": (lambda d, n: (2 * (n // check_digits(d)),) + grid_word(d, n // d),
               lambda d, n: 1 + grid_word_length(d, n // d) if n // check_digits(d) >= 2 else None,
               None),
    "random": (None, None, None),
}


def digit_subset(d: int, indices: Iterable[int], value: int) -> int:
    """State mask encoding ``value`` in base d across the given classes.

    Classes are 1-based and sorted ascending; the smallest listed class
    holds the least significant digit.  Uses the canonical state layout
    (class i's digit j is state ``(i-1)*d + j``).
    """
    check_digits(d)
    idx = sorted(set(indices))
    if not idx:
        raise ValueError("need at least one class index")
    if idx[0] < 1:
        raise ValueError("class indices are 1-based")
    if value < 0:
        raise ValueError("value must be non-negative")
    mask = 0
    v = value
    for i in idx:
        mask |= 1 << ((i - 1) * d + v % d)
        v //= d
    if v:
        raise ValueError(f"value {value} does not fit in {len(idx)} base-{d} digits")
    return mask


def format_word(letters: Sequence[str], word: Sequence[int]) -> str:
    """Render a word as space-separated letter names."""
    return " ".join(letters[a] for a in word)


def parse_word(letters: Sequence[str], text: str) -> tuple[int, ...]:
    """Parse space-separated letter names, each optionally with a ^N exponent.

    ``"c1 c2^3"`` expands to c1 c2 c2 c2.  Unknown names, malformed
    exponents and words longer than :data:`MAX_WORD_LEN` raise ValueError.
    """
    index = {name: a for a, name in enumerate(letters)}
    out: list[int] = []
    for token in text.split():
        name, caret, exp = token.partition("^")
        if name not in index:
            raise ValueError(f"unknown letter {name!r}")
        count = 1
        if caret:
            try:
                count = int(exp)
            except ValueError:
                raise ValueError(f"bad exponent in {token!r}") from None
            if count < 0:
                raise ValueError(f"negative exponent in {token!r}")
        check_word_budget(f"word up to {token!r}", len(out) + count)
        out.extend([index[name]] * count)
    return tuple(out)
