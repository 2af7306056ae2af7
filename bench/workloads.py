"""The benchmark's workloads: inputs made from a seed, one timed pass, output checks.

Each workload is a closed loop with one caller and no threads, like a
researcher running ``solve``, ``sweep``, ``check`` and ``errata`` one after
another.  A workload object is built from ``--seed`` (that is the set-up),
hands out the inputs of pass ``i`` with :meth:`inputs`, runs one pass with
:meth:`run` and checks its output with :meth:`check`.  Only :meth:`run` is
timed.  The library receives nothing but family specs and automata.

Library functions are always called through their module objects
(``search.shortest_careful_word``), so the tracer in ``tracing.py`` can
swap in timed wrappers without touching this file.
"""

from __future__ import annotations

import hashlib
import random

from carefulsync import core, families, reporting, search, transforms, words
from carefulsync import io as docio

DEFAULT_SEED = 1
# Distinct inputs each seed makes; pass i runs input i mod CYCLE, and a run is
# a whole number of cycles.  The work of one input depends on the seed (the
# renumbering of states moves where the search finds an undefined letter;
# one sweep corpus holds a few heavy specs), so the median over a cycle
# varies less from seed to seed than one input does, and every commit's
# median covers the same inputs, however fast it is.
CYCLE = 16


def relabel(pfa: core.Pfa, rng: random.Random) -> core.Pfa:
    """An isomorphic copy of ``pfa`` with its states renumbered at random.

    Letters keep their order, so the lexicographically least shortest word,
    its length and the BFS visited count are unchanged, while every subset
    mask the search touches is different.
    """
    n = pfa.n
    perm = list(range(n))
    rng.shuffle(perm)
    delta: list[tuple[int | None, ...]] = [()] * n
    names: list[str] = [""] * n
    for q in range(n):
        delta[perm[q]] = tuple(None if t is None else perm[t] for t in pfa.delta[q])
        names[perm[q]] = pfa.state_name(q)
    return core.Pfa(pfa.letters, delta, names)


def word_digest(word) -> str:
    return hashlib.sha256(bytes(word)).hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class CernyDense:
    """``shortest_careful_word`` on the n=18 cyclic DFA, its states renumbered by the seed.

    Why: one BFS visits 262,126 subsets over 2 letters with the flat visited
    table, so the BFS inner loop is nearly the whole pass.  It is the
    target of kernel work on the power-automaton search.
    """

    name = "cerny_dense"
    N = 18
    LENGTH = 289
    VISITED = 262_126
    DIGEST = "47649906b3d3570a80b40660a539239506d2a2716ea48ae30651f1c0540b1859"

    def __init__(self, seed: int):
        pfa = families.gen_cerny(self.N)
        rng = random.Random(f"{self.name}:{seed}")
        self.pfas = [relabel(pfa, rng) for _ in range(CYCLE)]

    def inputs(self, i: int) -> core.Pfa:
        return self.pfas[i % CYCLE]

    def ops(self, inputs) -> int:
        return 1

    def run(self, pfa: core.Pfa) -> search.SearchResult:
        return search.shortest_careful_word(pfa)

    def visited(self, out: search.SearchResult) -> int:
        return out.visited_subsets

    def check(self, pfa: core.Pfa, out: search.SearchResult, i: int) -> list[tuple[str, str]]:
        if out is None:
            return [("solve", "search found no word")]
        bad = []
        if out.length != self.LENGTH:
            bad.append(f"length {out.length} != {self.LENGTH}")
        if out.visited_subsets != self.VISITED:
            bad.append(f"visited {out.visited_subsets} != {self.VISITED}")
        if word_digest(out.word) != self.DIGEST:
            bad.append("word digest differs from the pinned one")
        ok, state = core.is_careful_sync_word(pfa, out.word)
        if not ok or state != out.synchronized_state:
            bad.append("word does not verify")
        return [("solve", msg) for msg in bad]


class RandomSweep:
    """``sweep`` then ``sweep_csv`` over a corpus of 300 seeded random specs.

    Why: many short searches (about 1,000 visited subsets each), so per-call
    set-up counts; sizes n = 20..28 straddle the flat/hash visited-table
    switch at n = 24; and about a quarter of the rows are not carefully
    synchronizing and pay the rescan in ``sweep``.  Each corpus is balanced
    (each n, l, p cell gets the same number of specs); the subsets visited
    by one corpus still vary from 300,000 to 520,000 from corpus to corpus.
    """

    name = "random_sweep"
    SIZES = (20, 22, 24, 26, 28)
    LETTERS = (2, 3)
    DENSITIES = (0.95, 0.98, 1.0)
    PER_CELL = 10
    SAMPLE = 8  # rows re-solved and verified after every pass
    # CSV of the first corpus of the default seed.
    DIGEST = "147013940c430af6a276fb283b8ff3de2b583171c2cc43409c35fffda725064c"

    def __init__(self, seed: int):
        self.seed = seed
        self.corpora = [self._make_corpus(j) for j in range(CYCLE)]

    def _make_corpus(self, j: int) -> list[families.FamilySpec]:
        rng = random.Random(f"{self.name}:{self.seed}:{j}")
        return [
            families.FamilySpec("random", n=n, letter_count=l, density=p,
                                seed=rng.randrange(1 << 31))
            for n in self.SIZES
            for l in self.LETTERS
            for p in self.DENSITIES
            for _ in range(self.PER_CELL)
        ]

    def inputs(self, i: int) -> list[families.FamilySpec]:
        return self.corpora[i % CYCLE]

    def ops(self, specs) -> int:
        return len(specs) + 1  # one per row, one for the CSV

    def run(self, specs):
        rows = reporting.sweep(specs)
        return rows, reporting.sweep_csv(rows)

    def visited(self, out) -> int:
        """Subsets per row; a not-sync row's rescan visits the same subsets and counts once."""
        rows, _ = out
        return sum(r.visited_subsets for r in rows)

    def check(self, specs, out, i: int) -> list[tuple[str, str]]:
        rows, text = out
        bad = []
        by_spec = {r.spec: r for r in rows}
        if len(rows) != len(specs) or len(by_spec) != len(specs):
            bad.append(("csv", f"{len(rows)} rows for {len(specs)} specs"))
        if text.count("\n") != len(specs) + 2:
            bad.append(("csv", "CSV row count differs from the spec count"))
        if i % CYCLE == 0 and self.seed == DEFAULT_SEED and text_digest(text) != self.DIGEST:
            bad.append(("csv", "CSV digest differs from the pinned one"))
        for r in rows:
            if r.bfs_status not in ("ok", "not-sync"):
                bad.append((r.spec, f"status {r.bfs_status}"))
        rng = random.Random(f"{self.name}:check:{self.seed}:{i}")
        for spec in rng.sample(specs, min(self.SAMPLE, len(specs))):
            key = spec.to_string()
            row = by_spec.get(key)
            if row is None:
                bad.append((key, "no row"))
                continue
            bad.extend((key, msg) for msg in self._resolve(spec, row))
        return bad

    @staticmethod
    def _resolve(spec: families.FamilySpec, row: reporting.SweepRow) -> list[str]:
        """Solve one spec again and hold the sweep's row against the result."""
        pfa = spec.build()
        if row.states != pfa.n:
            return [f"states {row.states} != {pfa.n}"]
        found = search.shortest_careful_word(pfa)
        if found is None:
            if row.bfs_status != "not-sync":
                return [f"status {row.bfs_status}, but no careful word exists"]
            reach = search.reachable_subset_count(pfa)
            if row.visited_subsets != reach:
                return [f"visited {row.visited_subsets} != reachable {reach}"]
            return []
        bad = []
        if (row.bfs_status, row.bfs_length) != ("ok", found.length):
            bad.append(f"row says {row.bfs_status}/{row.bfs_length}, search finds length {found.length}")
        if row.visited_subsets != found.visited_subsets:
            bad.append(f"visited {row.visited_subsets} != {found.visited_subsets}")
        ok, _ = core.is_careful_sync_word(pfa, found.word)
        if not ok:
            bad.append("word does not verify")
        return bad


class GridCertify:
    """The ``check`` pipeline over four counter grids, two lifted measurements and the errata.

    Why: BFS on a grid visits one subset per level (visited = length + 1)
    over 2k letters and wide subsets, the opposite shape to ``cerny_dense``.
    ``forced_path_check`` and word verification dominate, and this is the
    only workload that exercises ``core``, ``words``, ``transforms`` and
    ``io``.  Grids sit on both sides of the n = 24 table switch.  The seed
    renumbers the states of the automaton that BFS runs on.
    """

    name = "grid_certify"
    GRIDS = ((2, 14), (3, 8), (4, 6), (5, 5))
    LIFTS = (7, 8)
    # Lifted word lengths of the expanded n-state cyclic DFA with d = 2.
    LIFTED_LENGTHS = {7: 657, 8: 1425}
    ERRATA_DIGEST = "de590aee1dc9be7cbf38ad6316771fafa92ae03b02b6942888d2b49b87d20c08"

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        specs = [families.FamilySpec("grid", d=d, k=k) for d, k in self.GRIDS]
        grids = [(spec.to_string(), spec.build()) for spec in specs]
        self.variants = [[(text, pfa, relabel(pfa, rng)) for text, pfa in grids]
                         for _ in range(CYCLE)]

    def inputs(self, i: int):
        return self.variants[i % CYCLE]

    def ops(self, grids) -> int:
        return len(grids) + len(self.LIFTS) + 1

    def run(self, grids):
        certified = []
        for spec_text, pfa, renumbered in grids:
            loaded, meta = docio.load_document(docio.automaton_to_json(pfa, spec_text))
            battery = reporting.check_battery(loaded, families.parse_family(meta))
            found = search.shortest_careful_word(renumbered)
            certified.append((loaded, meta, battery, found))
        lifted = [transforms.lifted_cerny_measurement(2, n) for n in self.LIFTS]
        return certified, lifted, reporting.errata_report()

    def visited(self, out) -> int:
        """Subsets of the four grid searches.

        The small searches inside ``errata_report`` are not counted: it
        returns only text, and ``subset_distance`` reports no visited count.
        """
        certified, _, _ = out
        return sum(found.visited_subsets for *_, found in certified)

    def check(self, grids, out, i: int) -> list[tuple[str, str]]:
        certified, lifted, errata = out
        bad = []
        for (spec_text, pfa, _), (loaded, meta, battery, found) in zip(grids, certified):
            bad.extend((spec_text, msg) for msg in
                       self._check_grid(spec_text, pfa, loaded, meta, battery, found))
        for n, m in zip(self.LIFTS, lifted):
            if not (m.synchronizes and m.lower_bound_ok and m.word_length == self.LIFTED_LENGTHS.get(n)):
                bad.append((f"lift n={n}", str(m)))
        if text_digest(errata) != self.ERRATA_DIGEST:
            bad.append(("errata", "errata digest differs from the pinned one"))
        return bad

    @staticmethod
    def _check_grid(spec_text, pfa, loaded, meta, battery, found) -> list[str]:
        spec = families.parse_family(spec_text)
        d, k = spec.d, spec.k
        bad = []
        if loaded != pfa or meta != spec_text:
            bad.append("document round trip changed the automaton")
        bad.extend(f"check {c.name} failed: {c.detail}" for c in battery if not c.passed)
        missing = {"table-valid", "grid-pattern", "grid-word", "forced-path"} - {c.name for c in battery}
        if missing:
            bad.append(f"check battery lacks {sorted(missing)}")
        if found is None:
            return bad + ["search found no word"]
        if found.length != words.grid_word_length(d, k):
            bad.append(f"length {found.length} != builder length {words.grid_word_length(d, k)}")
        if words.grid_word_claimed_length(d, k) - found.length != k - 1:
            bad.append("claimed length is not off by exactly k-1")
        if found.visited_subsets != found.length + 1:
            bad.append(f"visited {found.visited_subsets} != length + 1")
        if found.word != words.grid_word(d, k):
            bad.append("search word differs from the builder word")
        return bad


WORKLOADS = {w.name: w for w in (CernyDense, RandomSweep, GridCertify)}
