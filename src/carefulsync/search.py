"""Exact shortest-word search over the power automaton.

The power automaton of a PFA has one node per nonempty state subset; a
subset steps by a letter only when the letter is defined on every member.
A shortest carefully synchronizing word is a shortest path from the full
set to any singleton, so breadth-first search is exact.  A naive
word-enumeration oracle is included to arbitrate minimality claims at
small sizes.
"""

from __future__ import annotations

from array import array
from functools import cache
from operator import or_
from typing import AbstractSet, NamedTuple, Sequence

from . import words
from .core import (Pfa, check_subset, defined_letters, image, synchronized_state,
                   total_merging_letter)

DEFAULT_MAX_SUBSETS = 1 << 24

# A search starts on a hash table.  Up to this many states it moves to a
# flat bytearray over all 2^n subsets once the hash table would take as many
# bytes; above it, it stays hashed.
FLAT_TABLE_LIMIT = 24


class CapExceeded(RuntimeError):
    """Raised when a search would visit more subsets than its budget.

    The BFS also raises it, naming the word budget, when the word it
    rebuilds would pass :data:`~carefulsync.words.MAX_WORD_LEN` letters.
    ``visited`` counts what the search counted against the budget, named by
    ``unit``: subsets for the BFS, state steps (one per state of each
    extended prefix) for the enumeration oracle.
    """

    def __init__(self, visited: int, unit: str = "subsets"):
        super().__init__(f"subset budget exhausted after visiting {visited} {unit}")
        self.visited = visited


class _WordBudgetExceeded(CapExceeded):
    """The BFS's :class:`CapExceeded` for a word over the word budget."""

    def __init__(self, visited: int, budget: int):
        RuntimeError.__init__(
            self, f"word budget of {budget} letters exhausted after visiting {visited} subsets")
        self.visited = visited


class SearchResult(NamedTuple):
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


def compile_letters(
    pfa: Pfa,
) -> tuple[int, list[list[tuple[int, ...]]], list[tuple[list[tuple[int, ...]], int]]]:
    """Every letter's transitions as chunk lookup tables: ``(b, unrolled, wide)``.

    A chunk holds ``b`` states, ``n`` / 4 rounded up and at most 8: up to
    32 states there are four equal chunks, beyond that 8-state ones.
    Chunk ``j`` holds the states from ``b*j`` on: ``unrolled`` is chunks 0
    to 3, so a kernel can unroll four, and ``wide`` the rest as
    ``(chunk, b*j)`` pairs.  Row ``c`` of chunk ``j`` is a record for the
    states ``b*j + i`` whose bit ``i`` is set in ``c``: entry ``a`` is
    their image under letter ``a``, or -1 (every bit set, so it survives
    the OR of chunk images) when ``a`` is undefined on one of them; the
    mark is one shared small int, so undefined entries cost no memory.  The
    last entry, ``k`` for ``k`` letters, is the row's domain mask, whose
    bit ``a`` is set when ``a`` is defined on all of them, so the AND of a
    subset's row masks is the set of letters defined on it: the BFS kernel
    and the forced-path certificate in ``search`` compute images only for
    those letters.  A ragged table raises IndexError, before any target of
    the short row is checked, and a target outside the states
    :func:`~carefulsync.core.image`'s ValueError; nothing is truncated.
    """
    n = pfa.n
    b = min(8, max(1, -(-n // 4)))
    width = len(pfa.letters)
    everywhere = (1 << width) - 1
    chunks = []
    for lo in range(0, max(n, 4 * b), b):
        # The chunk's rows, ``width`` images each, one after another in one flat
        # list, and their domain masks, doubled once per state: row ``c + 2^i``
        # is row ``c`` ORed with the images of state ``lo + i``, each ``1 << t``
        # or -1 (the map stops with ``entries``, so it reads only the old rows).
        # The rows and the masks are then zipped into row records.
        flat = [0] * width
        domains = [everywhere]
        for q in range(lo, min(lo + b, n)):
            row, defined, outside, entries = pfa.delta[q], everywhere, None, []
            for a in range(width):
                t = row[a]
                if t is None:
                    entries.append(-1)
                    defined ^= 1 << a
                elif 0 <= t < n:
                    entries.append(1 << t)
                else:
                    outside = a
            if outside is not None:  # after the whole row, so a short row raises IndexError first
                image(pfa, outside, 1 << q)  # core.image's ValueError for the bad target
            flat += map(or_, flat, entries * len(domains))
            domains += [dom & defined for dom in domains]
        chunks.append(list(zip(*[iter(flat)] * width, domains)))
    return b, chunks[:4], [(chunk, b * j) for j, chunk in enumerate(chunks[4:], 4)]


def _list_letters(mask: int, width: int) -> bytes | array:
    """The letters of ``mask`` in ascending order: the one rule that lists them.

    A search can meet a new mask at every subset it expands, so the list is
    packed: one byte per letter while every index fits in a byte, else four.
    """
    # bin() writes bit 0 last; reading its digits beats shifting a wide mask
    listed = [a for a, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]
    return bytes(listed) if width <= 256 else array("I", listed)


@cache
def _letter_table(width: int) -> tuple[bytes, ...]:
    """Every domain mask's letter list for up to 8 letters, indexed by the mask."""
    return tuple(_list_letters(mask, width) for mask in range(1 << width))


def _letter_lists(width: int) -> tuple[bytes, ...] | dict:
    """The letter lists a search or walk indexes by domain mask: up to 8
    letters one tuple per process, beyond a new plain dict that the search
    fills on a miss.  Both are exact built-in containers, the only kind whose
    subscripts CPython specialises."""
    return _letter_table(width) if width <= 8 else {}


def _rebuild(parent: Sequence[int], shift: int) -> tuple[int, ...]:
    """The word along the parent links from the start to the last subset found.

    Link ``j`` is ``i << shift | a``: subset ``j`` was first reached from
    subset ``i`` by letter ``a``, the least letter mapping one to the other
    since subsets are expanded in BFS order and letters in ascending order.
    """
    word, j, mask = [], len(parent) - 1, (1 << shift) - 1
    while j:
        link = parent[j]
        j = link >> shift
        word.append(link & mask)
    return tuple(reversed(word))


def _bfs(
    pfa: Pfa, start: int, goals: AbstractSet[int] | None, max_subsets: int
) -> tuple[tuple[int, ...] | None, int | None, int]:
    """Breadth-first search over the power automaton from ``start``.

    Returns ``(word, final, visited)``: a shortest word leading from
    ``start`` to the first discovered subset ``final`` in ``goals``, or
    ``(None, None, visited)`` once every reachable subset has been seen.
    ``visited`` counts subsets discovered so far, ``start`` included.
    Letters are expanded in ascending index order, so ``word`` is the
    lexicographically least among the shortest.  Raises
    :class:`CapExceeded` once more than ``max_subsets`` subsets have been
    discovered (so always for a budget of 0), or, when there are goals,
    before expanding a level whose subsets need more than
    :data:`~carefulsync.words.MAX_WORD_LEN` letters; and ValueError for a negative
    ``max_subsets`` or a ``start`` that is not a nonempty subset of the
    states.  ``goals`` None means the singletons, from the full set.
    """
    if max_subsets < 0:
        raise ValueError(f"subset budget {max_subsets} is negative")
    n = pfa.n
    check_subset(pfa, start, "start set")
    if not max_subsets:
        raise CapExceeded(1)
    if goals is None:  # with no total merging letter, a full set of 2+ states reaches only itself
        goals = {1 << q for q in range(n)} if total_merging_letter(pfa) is not None else {1}
    if start in goals:
        return (), start, 1
    if not defined_letters(pfa, start):  # no letter leaves the start, the one subset reached
        return None, None, 1
    width = len(pfa.letters)
    b, (t0, t1, t2, t3), wide = compile_letters(pfa)
    b2, b3, b4, m = 2 * b, 3 * b, 4 * b, (1 << b) - 1
    letters = _letter_lists(width)
    # The visited table reads 1 for a discovered subset, 2 for a goal not
    # yet discovered and 0 otherwise, so a probe is one lookup.  Only the
    # letters defined on a subset are probed, so every probe is a nonempty
    # subset.  It starts as a plain dict probed by ``get``, at about 64
    # bytes per entry: CPython specialises only exact built-in containers,
    # and a defaultdict would insert each miss.  The budget check also moves
    # it to the flat table of 2^n bytes once it holds 2^n / 64 subsets, and
    # sets ``get`` to None.
    seen = dict.fromkeys(goals, 2)
    seen[start] = 1
    get = seen.get
    limit = min(max_subsets, (1 << n) >> 6) if n <= FLAT_TABLE_LIMIT else max_subsets
    count = 1
    # The link of each discovered subset in BFS order: its parent's index times
    # ``stride``, ``width`` rounded up to a power of two, ORed with the letter
    # that first reached it, in 4 bytes while every link fits, else 8.  ``base``
    # is the index of the subset being expanded times ``stride``, one add per
    # subset.  Without goals no word is rebuilt, so each level's links are
    # dropped, and no word budget applies: ``depth`` never reaches ``stop``.
    shift = (width - 1).bit_length()
    stride = 1 << shift
    parent = array("I" if max_subsets * stride <= 1 << 32 else "Q", [0])
    push_parent = parent.append
    level, base = [start], 0
    depth, stop = 0, words.MAX_WORD_LEN if goals else -1
    while level:
        if depth == stop:  # the next level's subsets need stop + 1 letters
            raise _WordBudgetExceeded(count, stop)
        depth += 1
        nxt = []
        for s in level:
            # The AND of the chunk rows' domain masks lists the letters
            # defined on ``s``; only their images are ORed, from the rows.
            # A row's mask is its last entry, read as entry ``width``:
            # CPython specialises only nonnegative tuple subscripts.
            r0, r1, r2, r3 = t0[s & m], t1[s >> b & m], t2[s >> b2 & m], t3[s >> b3 & m]
            defined = r0[width] & r1[width] & r2[width] & r3[width]
            if wide:  # states 32 and up, in 8-state chunks
                hi = s >> b4
                while hi:  # the wide chunks that hold a state of ``s``, lowest first
                    j = (hi & -hi).bit_length() - 1 >> 3
                    row = wide[j][0][hi >> 8 * j & 255]
                    defined &= row[width]
                    # this ORs the domain masks too, a slot no probe reads: the
                    # letters probed are all below the alphabet size
                    r3 = tuple(map(or_, r3, row))
                    hi &= -256 << 8 * j
            try:
                listed = letters[defined]
            except KeyError:
                listed = letters[defined] = _list_letters(defined, width)
            for a in listed:
                t = r0[a] | r1[a] | r2[a] | r3[a]
                v = get(t, 0) if get else seen[t]
                if v == 1:
                    continue
                seen[t] = 1
                count += 1
                if count > limit:
                    if count > max_subsets:
                        raise CapExceeded(count)
                    flat = bytearray(1 << n)
                    for u, w in seen.items():
                        flat[u] = w
                    seen, limit, get = flat, max_subsets, None
                nxt.append(t)
                push_parent(base + a)
                if v:
                    return _rebuild(parent, shift), t, count
            base += stride
        if not goals:
            del parent[:]
        level = nxt
    return None, None, count


def shortest_careful_word(
    pfa: Pfa, *, max_subsets: int = DEFAULT_MAX_SUBSETS
) -> SearchResult | None:
    """BFS for the shortest carefully synchronizing word from the full set.

    Returns ``None`` when no singleton is reachable (the automaton is not
    carefully synchronizing).  Letters are expanded in ascending index
    order, so the returned word is the lexicographically least among the
    shortest.

    Raises :class:`CapExceeded` once more than ``max_subsets`` subsets have
    been discovered, the full set included, and before a level whose words
    would pass :data:`~carefulsync.words.MAX_WORD_LEN` letters.
    """
    word, final, visited = _bfs(pfa, pfa.full_set(), None, max_subsets)
    return None if word is None else SearchResult(word, visited, synchronized_state(final))


def reachable_subset_count(pfa: Pfa, *, max_subsets: int = DEFAULT_MAX_SUBSETS) -> int:
    """Number of subsets reachable from the full set in the power automaton.

    No word is rebuilt, so the word budget does not apply.
    """
    return _bfs(pfa, pfa.full_set(), set(), max_subsets)[2]


def subset_distance(pfa: Pfa, src: int, dst: int) -> int | None:
    """Length of the shortest power-automaton path from ``src`` to exactly ``dst``.

    Arrival means mask equality, not inclusion.  Returns ``None`` when
    ``dst`` is unreachable.  Both sets must be nonempty subsets of the states.
    Raises :class:`CapExceeded` past :data:`DEFAULT_MAX_SUBSETS` subsets,
    or past :data:`~carefulsync.words.MAX_WORD_LEN` levels.
    """
    word = _bfs(pfa, src, {check_subset(pfa, dst, "target set")}, DEFAULT_MAX_SUBSETS)[0]
    return None if word is None else len(word)


def check_max_len(max_len: int) -> None:
    """Raise ValueError when the oracle's word length bound ``max_len`` is negative."""
    if max_len < 0:
        raise ValueError(f"word length bound {max_len} is negative")


def brute_force_shortest(
    pfa: Pfa, max_len: int, max_subsets: int = DEFAULT_MAX_SUBSETS
) -> tuple[int, ...] | None:
    """Naive minimality oracle: first careful synchronizing word by enumeration.

    Words are enumerated in order of increasing length and, within a
    length, lexicographically by letter index, simulating every state
    individually.  Returns ``None`` when no word of length at most
    ``max_len`` works, or once some length has no careful prefix at all,
    since no longer word can then be careful.  Intended for tiny instances
    only; agrees with :func:`shortest_careful_word` wherever both apply.
    A negative ``max_len`` raises ValueError.  Each extended prefix costs
    one state step per state, and :class:`CapExceeded` is raised once more
    than ``max_subsets`` state steps have been taken, so the budget bounds
    the time whatever the number of states.  A negative ``max_subsets``
    raises ValueError too.
    """
    check_max_len(max_len)
    if max_subsets < 0:
        raise ValueError(f"state-step budget {max_subsets} is negative")
    check_subset(pfa, pfa.full_set(), "start set")  # empty without states, as in the searches
    # Each letter's column of the table, highest letter first, so that the
    # least letter's extension is pushed last and popped first.
    columns = [(a, tuple(row[a] for row in pfa.delta)) for a in range(len(pfa.letters))][::-1]
    n, count = pfa.n, 0
    for depth in range(max_len + 1):
        # Depth-first over the words of this length.  An entry is a prefix's
        # state vector, its length k and its last letter, kept in ``word[k]``.
        word = [0] * (depth + 1)
        stack = [(list(range(n)), 0, 0)]
        reached = False
        while stack:
            vec, k, last = stack.pop()
            word[k] = last
            if k == depth:
                if all(q == vec[0] for q in vec):
                    return tuple(word[1:])
                reached = True
                continue
            k += 1
            for a, col in columns:
                nxt = [col[q] for q in vec]
                if None not in nxt:
                    count += n
                    if count > max_subsets:
                        raise CapExceeded(count, "state steps")
                    stack.append((nxt, k, a))
        if not reached:
            break
    return None


class ForcedStep(NamedTuple):
    """The first step of a word's subset trace that is not forced: its position and subset."""

    position: int
    subset: int


def forced_path_check(pfa: Pfa, word: Sequence[int]) -> tuple[int | None, ForcedStep | None]:
    """Walk ``word`` from the full set once: where it ends and its first unforced step.

    A step is *forced* when it starts from a subset of two or more states
    and the word's own letter is the only letter that leads to a subset not
    yet on the path; every other letter is undefined or leads back to a
    subset already seen.  Returns ``(final, step)``: ``final`` is the subset
    the word reaches, or ``None`` where a letter is undefined on the subset
    it meets (as in :func:`~carefulsync.core.run_word`), and ``step`` the
    first step that is not forced, or ``None``.  When every step is forced,
    each BFS level from the full set before the last is the one subset on
    the path, so a forced path to a singleton certifies that no shorter
    careful word exists: the certificate is sound.  It is stricter than
    minimality needs, since two letters leading to the same new subset
    fail a step.

    The automaton must have a state, and the word must use letters of the
    alphabet only up to where it stops; otherwise a ValueError is raised.
    """
    full = check_subset(pfa, pfa.full_set(), "start set")
    last = len(pfa.letters)  # the index of a row's domain mask, as in the kernel
    if not word:  # a walk that reads no letter compiles no table
        return full, None
    # The subsets on the path up to the first unforced step, which reads ``letter``: a first
    # letter outside the alphabet or undefined on the full set compiles no table.
    cur, letter = full, word[0]
    seen = {cur: None}  # an ordered set: a subscript store is cheaper than ``set.add``
    if letter in defined_letters(pfa, cur):
        b, (t0, t1, t2, t3), wide = compile_letters(pfa)
        b2, b3, m = 2 * b, 3 * b, (1 << b) - 1
        letters = _letter_lists(last)
        rows = ()  # the occupied wide chunks' rows: states 32 and up, none when n <= 32
        for letter in word:
            # The letters defined on ``cur`` and its chunk rows, unrolled over
            # the first four chunks as in the kernel; a wide chunk row is kept
            # only when ``cur`` has a state in it.
            r0, r1, r2, r3 = t0[cur & m], t1[cur >> b & m], t2[cur >> b2 & m], t3[cur >> b3 & m]
            defined = r0[last] & r1[last] & r2[last] & r3[last]
            if wide:
                rows = []
                for tab, shift in wide:
                    c = cur >> shift & m
                    if c:
                        row = tab[c]
                        defined &= row[last]
                        rows.append(row)
            try:
                listed = letters[defined]
            except KeyError:
                listed = letters[defined] = _list_letters(defined, last)
            # Each image is tested against ``seen`` once: a new image under
            # any letter but the word's ends the forced prefix at this step.
            nxt = None
            for a in listed:
                t = r0[a] | r1[a] | r2[a] | r3[a]
                if rows:
                    for row in rows:
                        t |= row[a]
                if t not in seen:
                    if a != letter:
                        break
                    nxt = t
            else:
                if nxt is not None and cur.bit_count() > 1:
                    cur = nxt
                    seen[cur] = None
                    continue
            break
        else:
            return cur, None
    step = ForcedStep(len(seen) - 1, cur)  # the start and each forced step added one subset
    cur = image(pfa, letter, cur)  # raises for a letter outside the alphabet
    if cur is None:
        return None, step
    for letter in word[step.position + 1:]:  # only the -1 mark says a letter is undefined
        if not 0 <= letter < last:
            image(pfa, letter, 0)  # raises: the empty subset reads no row
        nxt = (t0[cur & m][letter] | t1[cur >> b & m][letter] | t2[cur >> b2 & m][letter]
               | t3[cur >> b3 & m][letter])
        if wide:
            for tab, shift in wide:  # an unoccupied chunk's row maps every letter to 0
                nxt |= tab[cur >> shift & m][letter]
        if nxt < 0:
            return None, step
        cur = nxt
    return cur, step
