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

from dataclasses import dataclass
from itertools import repeat
from operator import or_
from typing import Iterable, Sequence


@dataclass(frozen=True)
class Pfa:
    """A partial finite automaton over named letters.

    ``delta[state][letter]`` is the target state index or ``None`` when the
    transition is undefined.  Instances are immutable values; construction
    does not validate (use :func:`validate`), so ill-formed tables can be
    built and diagnosed.
    """

    letters: tuple[str, ...]
    delta: tuple[tuple[int | None, ...], ...]
    state_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        object.__setattr__(self, "delta", tuple(tuple(row) for row in self.delta))
        if self.state_names is not None:
            object.__setattr__(self, "state_names", tuple(self.state_names))

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
                diags.append(
                    f"delta[{q}][{pfa.letters[a]!r}] = {t} is out of range for {n} states"
                )
    if pfa.state_names is not None and len(pfa.state_names) != n:
        diags.append(f"state_names has {len(pfa.state_names)} entries, expected {n}")
    return diags


def bits_from_states(states: Iterable[int]) -> int:
    """Pack state indices into a subset mask."""
    mask = 0
    for q in states:
        mask |= 1 << q
    return mask


def states_from_bits(mask: int) -> tuple[int, ...]:
    """Unpack a subset mask into sorted state indices."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def format_state_set(pfa: Pfa, mask: int) -> str:
    return "{" + ",".join(pfa.state_name(q) for q in states_from_bits(mask)) + "}"


def compile_letters(pfa: Pfa) -> list[tuple[list[tuple[int, ...]], list[int]]]:
    """Every letter's transitions as 8-bit chunk lookup tables.

    ``compile_letters(pfa)[j]`` is a pair ``(rows, domains)`` for the states
    ``8j + i`` whose bit ``i`` is set in a row index ``c``.  ``rows[c][a]``
    is their image under letter ``a``, or -1 (every bit set, so it survives
    the OR of chunk images) when ``a`` is undefined on one of them; the mark
    is one shared small int, so undefined entries cost no memory.  Bit ``a``
    of ``domains[c]`` is set when ``a`` is defined on all of them, so the
    AND of a subset's chunk domains is the set of letters defined on it:
    the BFS kernel and the forced-path certificate in ``search`` compute
    images only for those letters.  There are at least four chunks, so a
    kernel can unroll states 0..31.  A ragged table raises IndexError and a
    target outside the states ValueError; nothing is truncated.
    """
    n = pfa.n
    width = range(len(pfa.letters))
    chunks = []
    for lo in range(0, max(n, 32), 8):
        states = range(lo, min(lo + 8, n))
        # One column of images per letter and the domain rows, doubled once
        # per state; the columns are then transposed into rows, and without
        # letters every row is ().
        cols = [[0] for _ in width]
        domains = [(1 << len(width)) - 1]
        for q in states:
            row = [pfa.delta[q][a] for a in width]
            if any(t is not None and not 0 <= t < n for t in row):
                raise ValueError(f"delta row {q} has a target outside {n} states")
            for col, t in zip(cols, row):
                col += list(map(or_, col, repeat(-1 if t is None else 1 << t)))
            defined = sum(1 << a for a, t in enumerate(row) if t is not None)
            domains += [dom & defined for dom in domains]
        chunks.append((list(zip(*cols)) or [()] * (1 << len(states)), domains))
    return chunks


def image(chunks: list[tuple[list[tuple[int, ...]], list[int]]], letter: int, s: int) -> int | None:
    """Image of the subset ``s`` under ``letter``, from :func:`compile_letters`.

    Returns ``None`` (the power automaton's "undefined" outcome) when the
    letter is undefined on some member of ``s``.
    """
    out = 0
    for rows, _ in chunks:
        out |= rows[s & 255][letter]
        s >>= 8
    return None if out < 0 else out


@dataclass(frozen=True)
class RunResult:
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
    """Apply a word letter by letter from subset ``s``, keeping the trace."""
    if not 0 < s < 1 << pfa.n:
        raise ValueError(f"cannot run a word from {s:#x}: not a nonempty subset of the states")
    tables = compile_letters(pfa)
    trace = [s]
    cur = s
    for pos, letter in enumerate(word):
        if not 0 <= letter < len(pfa.letters):
            raise ValueError(f"letter index {letter} out of range")
        cur = image(tables, letter, cur)
        if cur is None:
            return RunResult(None, tuple(trace), undefined_at=pos)
        trace.append(cur)
    return RunResult(cur, tuple(trace))


def is_careful_sync_word(pfa: Pfa, word: Sequence[int]) -> tuple[bool, int | None]:
    """Does ``word`` carefully synchronize the automaton from the full set?

    Returns ``(True, state)`` with the synchronized state on success and
    ``(False, None)`` otherwise.
    """
    res = run_word(pfa, pfa.full_set(), word)
    if res.final is None or res.final.bit_count() != 1:
        return False, None
    return True, res.final.bit_length() - 1


def total_merging_letter(pfa: Pfa) -> int | None:
    """First letter defined on every state that merges two distinct states.

    Every carefully synchronizing PFA with at least two states has such a
    letter, so there ``None`` is a cheap "cannot synchronize" preflight (the
    converse does not hold).  A one-state PFA has none, yet the empty word
    synchronizes it.
    """
    n = pfa.n
    for a in range(len(pfa.letters)):
        targets = [pfa.delta[q][a] for q in range(n)]
        if None not in targets and len(set(targets)) < n:
            return a
    return None
