"""Instance sweeps, CSV emission, check batteries, and the errata report.

Everything here is deterministic for a fixed input (seeds included), so
repeated runs produce byte-identical CSV and report text.  Wall times are
measured but left out of the CSV unless explicitly requested.
"""

from __future__ import annotations

import io
import time
from typing import NamedTuple, Sequence

from .core import (
    Pfa,
    defined_letters,
    format_state_set,
    is_careful_sync_word,
    run_word,
    synchronized_state,
    total_merging_letter,
    validate,
)
from .families import FamilySpec, gen_chain, gen_cerny, gen_grid, gen_witness, grid_fact_violations
from .search import (
    CapExceeded,
    DEFAULT_MAX_SUBSETS,
    forced_path_check,
    reachable_subset_count,
    shortest_careful_word,
    subset_distance,
)
from .transforms import is_class_preserving, kernel_partition, transform
from .words import (
    FAMILY_WORDS,
    cerny_alt_word,
    digit_subset,
    format_word,
    grid_word,
    grid_word_claimed_length,
    grid_word_length,
    min_alt_reps,
    parse_word,
)

CSV_FORMAT_COMMENT = "# carefulsync sweep csv v1"
CSV_COLUMNS = (
    "spec",
    "d",
    "size",
    "states",
    "bfs_length",
    "builder_length",
    "claimed_length",
    "agree_builder_bfs",
    "agree_claimed_bfs",
    "visited_subsets",
    "wall_time_s",
)


class SweepRow(NamedTuple):
    """One solved instance: search outcome next to builder and claimed lengths."""

    spec: str
    d: int | None
    size: int | None
    states: int
    bfs_status: str  # "ok" | "not-sync" | "cap"
    bfs_length: int | None
    builder_length: int | None
    claimed_length: int | None
    visited_subsets: int
    wall_time_s: float

    @property
    def agree_builder_bfs(self) -> bool | None:
        if self.builder_length is None or self.bfs_length is None:
            return None
        return self.builder_length == self.bfs_length

    @property
    def agree_claimed_bfs(self) -> bool | None:
        if self.claimed_length is None or self.bfs_length is None:
            return None
        return self.claimed_length == self.bfs_length


def _sweep_one(spec: FamilySpec, max_subsets: int) -> SweepRow:
    pfa = spec.build()
    start = time.perf_counter()
    try:
        found = shortest_careful_word(pfa, max_subsets=max_subsets)
        status = "not-sync" if found is None else "ok"
    except CapExceeded as e:
        found, status, visited = None, "cap", e.visited
    elapsed = time.perf_counter() - start
    if found is not None:
        visited = found.visited_subsets
    elif status == "not-sync":
        visited = reachable_subset_count(pfa, max_subsets=max_subsets)
    _, builder, claimed = FAMILY_WORDS[spec.kind]
    return SweepRow(
        spec.to_string(), spec.d, spec.k if spec.k is not None else spec.n, pfa.n, status,
        None if found is None else found.length, builder and builder(*spec.args),
        claimed and claimed(*spec.args), visited, elapsed,
    )


def sweep(
    specs: Sequence[FamilySpec],
    max_subsets: int = DEFAULT_MAX_SUBSETS,
) -> list[SweepRow]:
    """Solve every instance and report one row each, sorted by spec."""
    ordered = sorted(specs, key=FamilySpec.sort_key)
    return [_sweep_one(s, max_subsets) for s in ordered]


def _agree_cell(flag: bool | None) -> str:
    if flag is None:
        return ""
    return "yes" if flag else "no"


def sweep_csv(rows: Sequence[SweepRow], include_timings: bool = False) -> str:
    """Render sweep rows as CSV with a versioned header comment.

    Spec strings contain commas, so cells are quoted as needed; a missing
    value is an empty cell.  Wall times are blanked unless
    ``include_timings`` is set, keeping the default output byte-identical
    across runs.
    """
    import csv  # deferred: importing the package or the CLI loads no CSV module

    buf = io.StringIO()
    buf.write(CSV_FORMAT_COMMENT + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        if r.bfs_status == "ok":
            bfs = r.bfs_length
        elif r.bfs_status == "not-sync":
            bfs = "NOT_SYNC"
        else:
            bfs = "CAP"
        writer.writerow([r.spec, r.d, r.size, r.states, bfs, r.builder_length, r.claimed_length,
                         _agree_cell(r.agree_builder_bfs), _agree_cell(r.agree_claimed_bfs),
                         r.visited_subsets, f"{r.wall_time_s:.6f}" if include_timings else ""])
    return buf.getvalue()


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def check_battery(
    pfa: Pfa, spec: FamilySpec | None = None, word: Sequence[int] | None = None
) -> list[CheckResult]:
    """Structural and semantic checks for one automaton.

    Always checks table validity, the merging-letter precondition, and the
    kernel/preservation relations of every total letter.  When the instance
    is a counter grid, additionally checks the definedness pattern and the
    forced path along the builder word; a table whose shape does not fit
    the grid, or metadata the grid generator rejects, fails the pattern
    check and skips the word checks; a builder word over the word budget
    raises ValueError (see :func:`~carefulsync.words.grid_word`).  When
    ``word`` is given, checks it and reports its forced-path status.  Each
    word is walked once, by :func:`~carefulsync.search.forced_path_check`,
    which gives both its final subset and its first unforced step.  A
    passing forced path is a sound minimality certificate: no step of it
    starts from a singleton, so a word that passes through an earlier
    singleton fails it.
    """
    results = []
    diags = validate(pfa)
    results.append(
        CheckResult("table-valid", not diags, "; ".join(diags) or "all invariants hold")
    )
    if diags:
        return results
    merge = total_merging_letter(pfa)
    if merge is not None:
        detail = f"letter {pfa.letters[merge]!r} is total and merging"
    elif pfa.n == 1:
        detail = "one state, synchronized by the empty word"
    else:
        detail = "no total merging letter, cannot carefully synchronize"
    results.append(CheckResult("merging-letter", merge is not None or pfa.n == 1, detail))
    for a in defined_letters(pfa, pfa.full_set()):
        class_of = kernel_partition(pfa, a)
        preserving = [
            pfa.letters[b]
            for b in range(len(pfa.letters))
            if is_class_preserving(pfa, b, class_of)
        ]
        results.append(
            CheckResult(
                f"kernel({pfa.letters[a]})",
                True,
                f"{max(class_of) + 1} classes; "
                f"preserving letters: {', '.join(preserving) or 'none'}",
            )
        )
    if spec is not None and spec.kind == "grid":
        fits = (pfa.n, len(pfa.letters)) == (spec.d * spec.k, 2 * spec.k)
        violations = grid_fact_violations(pfa, spec.d, spec.k)
        results.append(
            CheckResult(
                "grid-pattern",
                not violations,
                "; ".join(violations) or "definedness pattern conforms",
            )
        )
        if fits and min(spec.d, spec.k) >= 2:  # the builder word's domain
            w = grid_word(spec.d, spec.k)
            final, step = forced_path_check(pfa, w)
            state = synchronized_state(final)
            ok = state is not None
            detail = (f"builder word of length {len(w)} synchronizes to {pfa.state_name(state)}"
                      if ok else "builder word fails")
            results.append(CheckResult("grid-word", ok, detail))
            if ok:
                detail = ("exactly one new subset at every step" if step is None
                          else f"step {step.position} is not forced")
                results.append(CheckResult("forced-path", step is None, detail))
    if word is not None:
        final, step = forced_path_check(pfa, word)
        state = synchronized_state(final)
        ok = state is not None
        detail = (f"synchronizes to {pfa.state_name(state)}" if ok
                  else "does not carefully synchronize")
        results.append(CheckResult("word-verifies", ok, detail))
        if ok:
            detail = ("path is forced" if step is None
                      else f"path is not forced at step {step.position}")
            results.append(CheckResult("word-forced-path", step is None, detail))
    return results


def _witness_section(lines: list[str]) -> None:
    pfa = gen_witness()
    claimed = "a b c a a a b b c a"
    word = parse_word(pfa.letters, claimed)
    res = run_word(pfa, pfa.full_set(), word)
    lines.append("[1] 4-state witness: published shortest careful word")
    lines.append(f'    published word "{claimed}", claimed length 10')
    lines.append(
        f"    -> word is undefined at position {res.undefined_at} "
        f"(no transition from {format_state_set(pfa, res.trace[-1])})"
    )
    found = shortest_careful_word(pfa)
    lines.append(
        f"    measured shortest length {found.length}: "
        f'"{format_word(pfa.letters, found.word)}"'
    )
    verdict = "length claim holds, quoted word does not run" if found.length == 10 else "length claim fails"
    lines.append(f"    verdict: {verdict}")


def _grid_section(lines: list[str]) -> None:
    lines.append("[2] grid word length: claimed closed form vs constructed word vs search")
    for d, k in ((2, 2), (3, 2), (2, 3), (3, 3)):
        built = grid_word_length(d, k)
        claimed = grid_word_claimed_length(d, k)
        found = shortest_careful_word(gen_grid(d, k))
        lines.append(
            f"    d={d} k={k}: constructed {built}, claimed {claimed}, "
            f"search {found.length}; claim off by {claimed - found.length:+d}"
        )
    lines.append("    verdict: closed form overcounts by exactly k-1; constructed word is optimal")


def _alt_word_section(lines: list[str]) -> None:
    lines.append("[3] two-phase cyclic reset word: published tail repetition count")
    for n in (4, 5, 6, 7):
        auto = gen_cerny(n)
        literal = n - 3 if n % 2 == 0 else n - 4
        ok, _ = is_careful_sync_word(auto, cerny_alt_word(n, literal))
        lines.append(f"    n={n}: literal r={literal} {'works' if ok else 'fails'}; "
                     f"minimal working r={min_alt_reps(n)}")
    lines.append("    verdict: published tail counts undershoot; repaired counts verified by simulation")


def _distance_section(lines: list[str]) -> None:
    lines.append("[4] odometer distances in expanded automata (all-zeros to all-tops)")
    for d in (2, 3):
        auto = transform(d, gen_chain(3))
        for s in (1, 2, 3):
            classes = range(1, s + 1)
            src = digit_subset(d, classes, 0)
            dst = digit_subset(d, classes, d**s - 1)
            dist = subset_distance(auto, src, dst)
            expected = d**s - 1
            status = "PASS" if dist == expected else f"FAIL (got {dist})"
            lines.append(f"    d={d} s={s}: distance {dist} = d^s - 1: {status}")


def errata_report() -> str:
    """Fixed battery comparing published claims against measured ground truth."""
    lines = [
        "careful synchronization: claims vs measurements",
        "===============================================",
    ]
    for section in (_witness_section, _grid_section, _alt_word_section, _distance_section):
        lines.append("")
        section(lines)
    return "\n".join(lines) + "\n"
