"""Exact shortest-word search over the power automaton.

The power automaton of a PFA has one node per nonempty state subset; a
subset steps by a letter only when the letter is defined on every member.
A shortest carefully synchronizing word is a shortest path from the full
set to any singleton, so breadth-first search is exact.  A naive
word-enumeration oracle is included to arbitrate minimality claims at
small sizes.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

from .core import Pfa, image, letter_columns, run_word

DEFAULT_MAX_SUBSETS = 1 << 24

# Below this many states the visited table is a flat bytearray over all
# 2^n subsets; above it, a hash set.
FLAT_TABLE_LIMIT = 24


class CapExceeded(RuntimeError):
    """Raised when a search would visit more subsets than its budget."""

    def __init__(self, visited: int):
        super().__init__(f"subset budget exhausted after visiting {visited} subsets")
        self.visited = visited


@dataclass(frozen=True)
class SearchResult:
    """A shortest carefully synchronizing word found by BFS.

    ``word`` is lexicographically least (by letter index) among all words
    of minimal length; ``visited_subsets`` counts subsets discovered before
    the search stopped.
    """

    word: tuple[int, ...]
    visited_subsets: int
    synchronized_state: int

    @property
    def length(self) -> int:
        return len(self.word)


class _Visited:
    """Visited-subset table: flat byte table for small n, set above."""

    def __init__(self, n: int):
        self._flat = bytearray(1 << n) if n <= FLAT_TABLE_LIMIT else None
        self._set: set[int] = set()

    def add(self, s: int) -> bool:
        """Mark s visited; True if it was new."""
        if self._flat is not None:
            if self._flat[s]:
                return False
            self._flat[s] = 1
            return True
        if s in self._set:
            return False
        self._set.add(s)
        return True


def _bfs(
    pfa: Pfa, start: int, goal: Callable[[int], bool], max_subsets: int
) -> tuple[tuple[int, ...] | None, int | None, int]:
    """Breadth-first search over the power automaton from ``start``.

    Returns ``(word, final, visited)``: a shortest word leading from
    ``start`` to the first discovered subset ``final`` with ``goal(final)``,
    or ``(None, None, visited)`` once every reachable subset has been seen.
    ``visited`` counts subsets discovered so far.  Letters are expanded in
    ascending index order, so ``word`` is the lexicographically least among
    the shortest.  Raises :class:`CapExceeded` once more than
    ``max_subsets`` subsets have been discovered.
    """
    if start == 0:
        raise ValueError("start set must be nonempty")
    if goal(start):
        return (), start, 1
    cols = letter_columns(pfa)
    add = _Visited(pfa.n).add  # bound once: it runs for every image below
    add(start)
    count = 1
    parent: dict[int, tuple[int, int]] = {}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for a, col in enumerate(cols):
            t = image(col, s)
            if t is None or not add(t):
                continue
            count += 1
            if count > max_subsets:
                raise CapExceeded(count)
            parent[t] = (s, a)
            if goal(t):
                word = []
                cur = t
                while cur != start:
                    cur, letter = parent[cur]
                    word.append(letter)
                word.reverse()
                return tuple(word), t, count
            queue.append(t)
    return None, None, count


def shortest_careful_word(
    pfa: Pfa,
    start: int | None = None,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> SearchResult | None:
    """BFS for the shortest carefully synchronizing word from ``start``.

    ``start`` defaults to the full state set.  Returns ``None`` when no
    singleton is reachable (the automaton is not carefully synchronizing
    from ``start``).  Letters are expanded in ascending index order, so the
    returned word is the lexicographically least among the shortest.

    Raises :class:`CapExceeded` once more than ``max_subsets`` subsets have
    been discovered.
    """
    if start is None:
        start = pfa.full_set()
    word, final, visited = _bfs(pfa, start, lambda t: t.bit_count() == 1, max_subsets)
    if word is None:
        return None
    return SearchResult(word, visited, final.bit_length() - 1)


def reachable_subset_count(
    pfa: Pfa,
    start: int | None = None,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> int:
    """Number of subsets reachable from ``start`` in the power automaton."""
    if start is None:
        start = pfa.full_set()
    return _bfs(pfa, start, lambda t: False, max_subsets)[2]


def subset_distance(
    pfa: Pfa,
    src: int,
    dst: int,
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> int | None:
    """Length of the shortest power-automaton path from ``src`` to exactly ``dst``.

    Arrival means mask equality, not inclusion.  Returns ``None`` when
    ``dst`` is unreachable.
    """
    if dst == 0:
        raise ValueError("target set must be nonempty")
    word = _bfs(pfa, src, lambda t: t == dst, max_subsets)[0]
    return None if word is None else len(word)


def brute_force_shortest(pfa: Pfa, max_len: int) -> tuple[int, ...] | None:
    """Naive minimality oracle: first careful synchronizing word by enumeration.

    Words are enumerated in order of increasing length and, within a
    length, lexicographically by letter index, simulating every state
    individually.  Returns ``None`` when no word of length at most
    ``max_len`` works.  Intended for tiny instances only; agrees with
    :func:`shortest_careful_word` wherever both apply.
    """
    n = pfa.n
    nletters = len(pfa.letters)
    delta = pfa.delta
    start = tuple(range(n))
    if n == 1:
        return ()

    def extend(vec: tuple[int, ...], remaining: int, prefix: list[int]):
        if remaining == 0:
            if all(q == vec[0] for q in vec):
                return tuple(prefix)
            return None
        for a in range(nletters):
            nxt = []
            for q in vec:
                t = delta[q][a]
                if t is None:
                    break
                nxt.append(t)
            else:
                prefix.append(a)
                found = extend(tuple(nxt), remaining - 1, prefix)
                if found is not None:
                    return found
                prefix.pop()
        return None

    for depth in range(max_len + 1):
        found = extend(start, depth, [])
        if found is not None:
            return found
    return None


@dataclass(frozen=True)
class ForcedStep:
    """Letter classification at one position along a word's subset trace."""

    position: int
    subset: int
    new_letters: tuple[int, ...]
    undefined_letters: tuple[int, ...]
    visited_letters: tuple[int, ...]


@dataclass(frozen=True)
class ForcedPathReport:
    """Step-by-step record of how constrained a word's path is.

    The path is *forced* when at every position exactly one letter leads to
    a subset not seen earlier on the path; all other letters are undefined
    or lead back to already-visited subsets.  A forced path from the full
    set to a singleton is a machine-checkable minimality certificate.
    """

    steps: tuple[ForcedStep, ...]

    @property
    def passed(self) -> bool:
        return all(len(step.new_letters) == 1 for step in self.steps)


def forced_path_check(
    pfa: Pfa, word: Sequence[int], start: int | None = None
) -> ForcedPathReport:
    """Classify every letter at every position of ``word``'s trace.

    The word must be defined along its whole application from ``start``
    (default: full set); otherwise a ValueError is raised.
    """
    if start is None:
        start = pfa.full_set()
    res = run_word(pfa, start, word)
    if res.final is None:
        raise ValueError(
            f"word is not defined from the start set (undefined at {res.undefined_at})"
        )
    cols = letter_columns(pfa)
    seen = set()
    steps = []
    for pos in range(len(word)):
        cur = res.trace[pos]
        seen.add(cur)
        new, undef, old = [], [], []
        for a, col in enumerate(cols):
            img = image(col, cur)
            if img is None:
                undef.append(a)
            elif img in seen:
                old.append(a)
            else:
                new.append(a)
        steps.append(
            ForcedStep(pos, cur, tuple(new), tuple(undef), tuple(old))
        )
    return ForcedPathReport(tuple(steps))
