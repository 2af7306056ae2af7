"""Partial finite automata and careful-synchronization semantics.

A partial finite automaton (PFA) is a deterministic automaton whose
transition table may leave some (state, letter) pairs undefined.  A word is
*carefully synchronizing* when every one of its letters is defined on the
whole current state set, starting from the full set, and the final image is
a single state.  A PFA with a total table is an ordinary DFA, and careful
synchronization coincides with ordinary synchronization.

State subsets are plain ints used as bitmasks (bit q set = state q in the
subset), which keeps subset images cheap inside power-automaton loops.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, NamedTuple, Sequence


# A NamedTuple class may not define __new__, so Pfa normalises its input in
# a subclass of its fields.
class _PfaFields(NamedTuple):
    letters: tuple[str, ...]
    delta: tuple[tuple[int | None, ...], ...]
    state_names: tuple[str, ...] | None = None


class Pfa(_PfaFields):
    """A partial finite automaton over named letters.

    ``delta[state][letter]`` is the target state index or ``None`` when the
    transition is undefined.  Instances are immutable values; construction
    turns the letters, the table rows and the state names into tuples but
    does not validate (use :func:`validate`), so ill-formed tables can be
    built and diagnosed.
    """

    __slots__ = ()

    def __new__(
        cls,
        letters: tuple[str, ...],
        delta: tuple[tuple[int | None, ...], ...],
        state_names: tuple[str, ...] | None = None,
    ) -> Pfa:
        return super().__new__(
            cls, tuple(letters), tuple(tuple(row) for row in delta),
            None if state_names is None else tuple(state_names),
        )

    @property
    def n(self) -> int:
        """Number of states."""
        return len(self.delta)

    def full_set(self) -> int:
        return (1 << self.n) - 1

    def state_name(self, q: int) -> str:
        if self.state_names is not None:
            return self.state_names[q]
        return str(q)


def validate(pfa: Pfa) -> list[str]:
    """Check all structural invariants, returning one diagnostic per violation.

    An empty list means the automaton is well formed.  Diagnostics name the
    violated invariant and its location; nothing is raised.
    """
    diags: list[str] = []
    n = pfa.n
    if n < 1:
        diags.append("automaton must have at least one state")
    seen: set[str] = set()
    for i, name in enumerate(pfa.letters):
        if not isinstance(name, str):  # no other check reads it: it may not even hash
            diags.append(f"letter {i} name {name!r} is not a string")
            continue
        if not name:
            diags.append(f"letter {i} has an empty name")
        elif "^" in name or name.split() != [name]:  # a word could not spell it
            diags.append(f"letter name {name!r} contains whitespace or '^'")
        if name in seen:
            diags.append(f"duplicate letter name {name!r}")
        seen.add(name)
    width = len(pfa.letters)
    for q, row in enumerate(pfa.delta):
        if len(row) != width:
            diags.append(f"delta row {q} has {len(row)} entries, expected {width}")
            continue
        for a, t in enumerate(row):
            if t is None:
                continue
            if not isinstance(t, int) or isinstance(t, bool):
                diags.append(f"delta[{q}][{pfa.letters[a]!r}] = {t!r} is not a state index")
            elif not 0 <= t < n:
                diags.append(f"delta[{q}][{pfa.letters[a]!r}] = {t} is out of range for {n} states")
    if pfa.state_names is not None:
        if len(pfa.state_names) != n:
            diags.append(f"state_names has {len(pfa.state_names)} entries, expected {n}")
        seen = set()
        for name in pfa.state_names:
            if not isinstance(name, str):
                diags.append(f"state name {name!r} is not a string")
            elif name in seen:
                diags.append(f"duplicate state name {name!r}")
            else:
                seen.add(name)
    return diags


def bits_from_states(states: Iterable[int]) -> int:
    """Pack state indices into a subset mask."""
    mask = 0
    for q in states:
        mask |= 1 << q
    return mask


def states_from_bits(mask: int) -> tuple[int, ...]:
    """Unpack a subset mask into sorted state indices."""
    if mask < 0:
        raise ValueError(f"cannot unpack the negative mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def format_state_set(pfa: Pfa, mask: int) -> str:
    return "{" + ",".join(pfa.state_name(q) for q in states_from_bits(mask)) + "}"


def image(pfa: Pfa, letter: int, s: int) -> int | None:
    """Image of the subset ``s`` under ``letter``, read from ``pfa.delta``.

    Returns ``None`` (the power automaton's "undefined" outcome) when the
    letter is undefined on some member of ``s``.  Only the rows of the
    members are read: a letter outside the alphabet or a target outside the
    states there raises ValueError, and a row too short for ``letter`` IndexError.
    """
    if not 0 <= letter < len(pfa.letters):
        raise ValueError(f"letter index {letter} out of range")
    delta, n, out = pfa.delta, pfa.n, 0
    while s:
        low = s & -s
        q = low.bit_length() - 1
        t = delta[q][letter]
        if t is None:
            return None
        if not 0 <= t < n:
            raise ValueError(f"delta row {q} has a target outside {n} states")
        out |= 1 << t
        s ^= low
    return out


def check_subset(pfa: Pfa, s: int, what: str) -> int:
    """Return ``s``, a nonempty subset of the states, or raise ValueError naming it ``what``."""
    if not 0 < s < 1 << pfa.n:
        raise ValueError(f"{what} {s:#x} must be a nonempty subset of {pfa.n} states")
    return s


class RunResult(NamedTuple):
    """Outcome of folding a word over a state subset.

    ``trace`` starts with the initial subset and records the image after
    each applied letter.  On failure ``final`` is None and ``undefined_at``
    is the 0-based position of the first letter undefined on the current
    subset (the trace then stops just before that letter).
    """

    final: int | None
    trace: tuple[int, ...]
    undefined_at: int | None = None


def run_word(pfa: Pfa, s: int, word: Sequence[int]) -> RunResult:
    """Apply a word letter by letter from subset ``s``, keeping the trace.

    Each step is one :func:`image`, so only the rows of the states the walk
    meets are read, and a bad entry there or a letter outside the alphabet
    raises as :func:`image` says; ``s`` must pass :func:`check_subset`.
    """
    trace = [check_subset(pfa, s, "start set")]
    cur = s
    for pos, letter in enumerate(word):
        cur = image(pfa, letter, cur)
        if cur is None:
            return RunResult(None, tuple(trace), undefined_at=pos)
        trace.append(cur)
    return RunResult(cur, tuple(trace))


def is_careful_sync_word(pfa: Pfa, word: Sequence[int]) -> tuple[bool, int | None]:
    """Does ``word`` carefully synchronize the automaton from the full set?

    Returns ``(True, state)`` with the :func:`synchronized_state`, else ``(False, None)``.
    """
    state = synchronized_state(run_word(pfa, pfa.full_set(), word).final)
    return state is not None, state


def synchronized_state(final: int | None) -> int | None:
    """The one verdict rule: the state a walk ending at subset ``final`` synchronizes
    to, or ``None`` when a letter was undefined or ``final`` holds two or more states."""
    if final is None or final.bit_count() != 1:
        return None
    return final.bit_length() - 1


def defined_letters(pfa: Pfa, s: int) -> list[int]:
    """The letters defined on every state of ``s``, in ascending order: the one
    rule for which letters a subset steps by, read before any table is compiled.

    Only definedness is read, stopping once no letter is left, so a short row
    raises IndexError and a bad target is left to whatever reads it next."""
    live = list(range(len(pfa.letters)))
    for row in compress(pfa.delta, map("1".__eq__, bin(s)[:1:-1])):  # bit 0 is bin()'s last
        live = [a for a in live if row[a] is not None]
        if not live:
            break
    return live


def total_merging_letter(pfa: Pfa) -> int | None:
    """First letter defined on every state that merges two distinct states.

    Without one, every letter defined on every state permutes the states,
    so a full set of two or more states reaches only itself: every
    carefully synchronizing PFA with at least two states has such a letter,
    and ``None`` is a cheap "cannot synchronize" preflight (the converse
    does not hold).  A one-state PFA has none, yet the empty word
    synchronizes it.
    """
    for a in defined_letters(pfa, pfa.full_set()):
        if len({row[a] for row in pfa.delta}) < pfa.n:
            return a
    return None
