"""Deterministic generators for the automaton families under study.

Canonical indexing convention for the counter-style families: class
``i`` (1-based) occupies states ``(i-1)*d .. (i-1)*d + d-1``; state
``q_j^i`` (digit j of class i) has index ``(i-1)*d + j``.  Letters are
ordered ``a``, ``b1..bk``, then c-letters ascending.  This makes a state
subset holding one digit per class read as a base-d number, which the
counting words in :mod:`carefulsync.words` increment.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Sequence

from .core import Pfa


def gen_witness() -> Pfa:
    """4-state, 3-letter PFA whose shortest careful word has length 10.

    Since 10 > (4-1)^2, it witnesses that the quadratic reset-word bound
    for DFAs does not carry over to careful synchronization of PFAs.
    """
    delta = (
        (1, None, 1),
        (1, 2, None),
        (2, 3, 3),
        (3, 0, 0),
    )
    return Pfa(("a", "b", "c"), delta)


def expand(d: int, base: Pfa, c_letters: Sequence[str]) -> Pfa:
    """Expand each of the k base states into a class of d digit-states.

    The result has ``d * k`` states in the canonical layout and the letters
    ``a``, ``b1..bk``, then one c-letter per base letter, named by
    ``c_letters``.  Writing q_j^i for digit j of class i:

    * ``a``    resets every class to digit 0 (the only total letter),
    * ``b_i``  increments class i's digit (undefined at the top digit),
      acts as identity on classes above i, and on classes below i is
      defined only at the top digit, which it resets to 0,
    * the c-letter of base letter ``x`` is defined only on top digits: it
      sends class i's top to digit 0 of the class of ``x``'s target from
      base state i, wherever that target is defined.

    Callers validate the parameters, d by :func:`check_digits`.
    """
    k, top = base.n, d - 1
    table = []
    for i, base_row in enumerate(base.delta):
        lo = i * d
        for j in range(d):
            table.append(
                [lo]  # a
                + [lo + j] * i  # b_1 .. b_i
                + [lo + j + 1 if j < top else None]  # b_{i+1}
                + [lo if j == top else None] * (k - 1 - i)  # b_{i+2} .. b_k
                + [None if j < top or t is None else t * d for t in base_row]
            )
    letters = ("a",) + tuple(f"b{i}" for i in range(1, k + 1)) + tuple(c_letters)
    names = tuple(f"q{j}^{i}" for i in range(1, k + 1) for j in range(d))
    return Pfa(letters, table, names)


def check_digits(d: int) -> int:
    """Return ``d``, the digits per class, or raise ValueError when it is below 2."""
    if d < 2:
        raise ValueError("d must be at least 2")
    return d


def gen_grid(d: int, k: int) -> Pfa:
    """Counter grid: the d-expansion (:func:`expand`) of the k-state chain.

    The c-letters keep the chain's names ``c2..ck``.  ``k = 1`` is permitted
    as a degenerate boundary case: one state with no letters, expanded.
    """
    check_digits(d)
    if k < 1:
        raise ValueError("k must be at least 1")
    base = gen_chain(k) if k > 1 else Pfa((), ((),))
    return expand(d, base, base.letters)


def gen_cerny(n: int) -> Pfa:
    """The classic n-state cyclic DFA with shortest reset word (n-1)^2.

    Letter ``c1`` sends state 0 to 1 and fixes everything else; ``c2`` is
    the cyclic shift.  The table is total.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    table = []
    for m in range(n):
        table.append((1 if m == 0 else m, (m + 1) % n))
    names = tuple(f"q{m}" for m in range(n))
    return Pfa(("c1", "c2"), table, names)


def gen_chain(k: int) -> Pfa:
    """k-state descending chain, carefully synchronized by c_k c_{k-1} .. c_2.

    State q_i (index i-1) steps down to q_{i-1} on letter c_i, is fixed by
    c_l for i < l, and has no transition on c_l for i > l.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    letters = tuple(f"c{l}" for l in range(2, k + 1))
    table: list[list[int | None]] = [[None] * len(letters) for _ in range(k)]
    for l in range(2, k + 1):
        col = l - 2
        table[l - 1][col] = l - 2
        for i in range(1, l):
            table[i - 1][col] = i - 1
    names = tuple(f"q{i}" for i in range(1, k + 1))
    return Pfa(letters, table, names)


def gen_padded(d: int, n: int) -> Pfa:
    """Counter grid padded with n mod d extra states and one reset letter.

    Builds the grid on ``d * (n // d)`` states and appends the leftover
    states, plus a new letter ``p`` that fixes every grid state and sends
    every extra state to q_0^k (the top class's digit 0).  No other letter
    is defined on the extra states, so every careful word must start
    with ``p``.
    """
    check_digits(d)
    if n <= d:
        raise ValueError("n must exceed d")
    if n % d == 0:
        raise ValueError("n must not be divisible by d")
    core = gen_grid(d, n // d)
    extras = n - core.n
    table = [row + (q,) for q, row in enumerate(core.delta)]
    table += [(None,) * len(core.letters) + (core.n - d,)] * extras  # p sends to q_0^k
    names = core.state_names + tuple(f"x{j}" for j in range(extras))
    return Pfa(core.letters + ("p",), table, names)


def gen_random(n: int, letter_count: int, density: float, seed: int) -> Pfa:
    """Seeded random PFA: each entry defined with probability ``density``.

    Targets are uniform over states.  The same seed always yields the same
    table.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if letter_count < 1:
        raise ValueError("letter_count must be at least 1")
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must be within [0, 1]")
    rng = random.Random(seed)
    letters = tuple(chr(ord("a") + a) if a < 26 else f"x{a}" for a in range(letter_count))
    table = []
    for _ in range(n):
        row = []
        for _ in range(letter_count):
            if rng.random() < density:
                row.append(rng.randrange(n))
            else:
                row.append(None)
        table.append(row)
    return Pfa(letters, table)


def grid_fact_violations(pfa: Pfa, d: int, k: int) -> list[str]:
    """Check a table against the definedness pattern of :func:`gen_grid`.

    ``a`` must be defined everywhere, and no letter may be defined where
    the grid leaves it undefined.  Returns one message per violating entry,
    named after the grid's states, or a single message when the table is
    not d*k states by 2k letters or the generator rejects d and k.
    """
    if (pfa.n, len(pfa.letters)) != (d * k, 2 * k):
        return [f"expected {d * k} states and {2 * k} letters, "
                f"found {pfa.n} states and {len(pfa.letters)} letters"]
    try:
        grid = gen_grid(d, k)
    except ValueError as e:
        return [str(e)]
    return [f"{name} {'defined' if want is None else 'undefined'} at {grid.state_name(q)}"
            for q, (row, grid_row) in enumerate(zip(pfa.delta, grid.delta))
            for name, t, want in zip(grid.letters, row, grid_row)
            if (t is None) != (want is None) and (want is None or name == "a")]


class _Kind(NamedTuple):
    keys: tuple[str, ...]  # spec parameters, in generator-argument order
    build: Callable[..., Pfa]
    # the table's (states, letters), before the generator's checks
    shape: Callable[..., tuple[int, int]]


# Generators are named inside lambdas, so a wrapped module function is the
# one that runs.
_KINDS = {
    "witness": _Kind((), lambda: gen_witness(), lambda: (4, 3)),
    "grid": _Kind(("d", "k"), lambda d, k: gen_grid(d, k), lambda d, k: (d * k, 2 * k)),
    "cerny": _Kind(("n",), lambda n: gen_cerny(n), lambda n: (n, 2)),
    "chain": _Kind(("k",), lambda k: gen_chain(k), lambda k: (k, k - 1)),
    "padded": _Kind(("d", "n"), lambda d, n: gen_padded(d, n),
                    lambda d, n: (n, 2 * (n // max(d, 2)) + 1)),
    "random": _Kind(("n", "l", "p", "seed"), lambda n, l, p, seed: gen_random(n, l, p, seed),
                    lambda n, l, p, seed: (n, l)),
}

_FIELD_NAMES = {"l": "letter_count", "p": "density"}

# Specs, expansions and documents over this many table entries are refused
# before building or reading; 2^25 entries take seconds and about 1 GiB.
MAX_TABLE_ENTRIES = 1 << 20


def check_table_size(what: str, states: int, letters: int) -> None:
    """Raise ValueError when ``what``, a table of ``states`` rows of ``letters``
    entries, holds more than MAX_TABLE_ENTRIES entries, at least one per state."""
    entries = states * max(letters, 1)
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(f"{what} has {entries} table entries "
                         f"(states times letters), over the limit of {MAX_TABLE_ENTRIES}")


# A document's text may hold 32 characters per table entry: ``gen`` writes at
# most 27.2 at the table bound (cerny:n=524288, one target per indented line
# and a name per state).
MAX_DOCUMENT_CHARS = 32 * MAX_TABLE_ENTRIES


def check_document_size(chars: int) -> None:
    """Raise ValueError when a document text of ``chars`` characters is
    longer than MAX_DOCUMENT_CHARS, before it is parsed."""
    if chars > MAX_DOCUMENT_CHARS:
        raise ValueError(f"document has more than {MAX_DOCUMENT_CHARS} characters")


class FamilySpec(NamedTuple):
    """Parsed family-instance description with a canonical string form.

    Kinds and their parameters:

    * ``witness``                        the fixed 4-state example
    * ``grid:d=3,k=4``                   counter grid
    * ``cerny:n=5``                      cyclic DFA
    * ``chain:k=3``                      descending chain
    * ``padded:d=3,n=7``                 padded grid
    * ``random:n=4,l=3,p=0.8,seed=42``   seeded random PFA
    """

    kind: str
    d: int | None = None
    k: int | None = None
    n: int | None = None
    letter_count: int | None = None
    density: float | None = None
    seed: int | None = None

    @property
    def args(self) -> tuple:
        """The parameters in generator-argument order."""
        return tuple(getattr(self, _FIELD_NAMES.get(key, key)) for key in _KINDS[self.kind].keys)

    def to_string(self) -> str:
        parts = ",".join(f"{key}={value}" for key, value in zip(_KINDS[self.kind].keys, self.args))
        return f"{self.kind}:{parts}" if parts else self.kind

    def sort_key(self) -> tuple:
        return (self.kind, *self.args)

    def build(self) -> Pfa:
        return _KINDS[self.kind].build(*self.args)


def parse_family(text: str) -> FamilySpec:
    """Parse the canonical family string form, e.g. ``grid:d=3,k=4``.

    Raises ValueError for a malformed spec and for one whose table would
    exceed :data:`MAX_TABLE_ENTRIES`.
    """
    kind, sep, rest = text.strip().partition(":")
    kind = kind.strip()
    if kind not in _KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    wanted = _KINDS[kind].keys
    given: dict[str, int | float] = {}
    if sep:
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in wanted:
                raise ValueError(f"unexpected parameter {item!r} for family {kind!r}")
            if key in given:
                raise ValueError(f"duplicate parameter {key!r}")
            try:
                given[key] = float(value) if key == "p" else int(value)
            except ValueError:
                raise ValueError(f"bad value in {item!r}") from None
    missing = [key for key in wanted if key not in given]
    if missing:
        raise ValueError(f"family {kind!r} is missing parameters: {', '.join(missing)}")
    spec = FamilySpec(kind, **{_FIELD_NAMES.get(key, key): value for key, value in given.items()})
    check_table_size(f"family {spec.to_string()}", *_KINDS[kind].shape(*spec.args))
    return spec
