"""Spans around calls into carefulsync's public functions, and per-layer metrics.

While a :class:`Tracer` is active, every listed public function is replaced,
in every carefulsync module that holds it, by a wrapper that records a span
(name, start, end, parent, pass) in memory.  Calls between library modules
go through module globals, so calls that ``sweep`` or ``check_battery``
make inside the library are seen too.  Nothing is patched while the
tracer is inactive, so untraced passes run the library unchanged.

A layer is a module of the package.  A span's self time is its duration
minus the durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import statistics
import sys
import time
from dataclasses import dataclass, field

from carefulsync import search

# Public functions wrapped per layer.  Tiny per-subset helpers such as
# core.apply_set are left out: they run millions of times per pass, and a
# wrapper would cost more than the work it measures.
TRACED = {
    "core": ("validate", "total_merging_letter", "run_word", "is_careful_sync_word"),
    "search": ("shortest_careful_word", "reachable_subset_count", "subset_distance",
               "forced_path_check"),
    "families": ("gen_witness", "gen_grid", "gen_cerny", "gen_chain", "gen_padded",
                 "gen_random", "grid_fact_violations", "parse_family"),
    "words": ("counting_word", "grid_word", "grid_word_length", "grid_word_claimed_length",
              "cerny_word", "cerny_alt_word", "min_alt_reps", "digit_subset"),
    "transforms": ("kernel_partition", "is_class_preserving", "transform", "lift_word",
                   "lifted_cerny_measurement"),
    "io": ("automaton_to_json", "load_document", "automaton_from_json"),
    "reporting": ("sweep", "sweep_csv", "check_battery", "errata_report"),
}
LAYERS = tuple(TRACED)


# Builders whose output size is counted: automata (states) and words (letters).
FAMILY_BUILDERS = tuple(f"families.{f}" for f in TRACED["families"] if f.startswith("gen_"))
WORD_BUILDERS = tuple(f"words.{f}" for f in ("counting_word", "grid_word", "cerny_word",
                                             "cerny_alt_word"))


def _search(args, result):
    return {"visited": result.visited_subsets, "letters": result.length} if result else {}


def _states(args, result):
    return {"states": result.n}


def _letters(args, result):
    return {"letters": len(result)}


# Work counts taken from a call's arguments and result, after its span ends.
COUNTERS = {
    "search.shortest_careful_word": _search,
    "search.reachable_subset_count": lambda args, result: {"visited": result},
    "search.forced_path_check": lambda args, result: {"images": len(args[1]) * len(args[0].letters)},
    "core.run_word": lambda args, result: {"letters": len(args[2])},
    "transforms.lift_word": _letters,
    "io.automaton_to_json": lambda args, result: {"bytes": len(result)},
    **{name: _states for name in FAMILY_BUILDERS},
    **{name: _letters for name in WORD_BUILDERS},
}


@dataclass
class Span:
    id: int
    name: str  # "layer.function"
    start: int  # perf_counter_ns
    end: int
    parent: int | None
    trace: int  # the pass this span belongs to
    states: int | None = None  # states of the automaton argument, if any
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.partition(".")[0]


class Tracer:
    """Records spans in memory; :meth:`active` patches the library for one pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._trace = 0
        self._originals = []  # (module, attribute, original function)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            pfa = args[0] if args else None
            span = Span(sid, name, start, end, parent, self._trace,
                        getattr(pfa, "n", None) if hasattr(pfa, "delta") else None)
            if counter is not None:
                span.counts = counter(args, result)
            spans.append(span)
            return result

        return traced

    def _patch(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "carefulsync" or key.startswith("carefulsync."))]
        for layer, names in TRACED.items():
            home = sys.modules[f"carefulsync.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._originals.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def _unpatch(self) -> None:
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()

    @contextlib.contextmanager
    def active(self, trace: int):
        """Patch the library for one pass whose spans carry ``trace``; restore after."""
        self._trace = trace
        self._patch()
        try:
            yield self
        finally:
            self._unpatch()

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"trace": s.trace, "id": s.id, "parent": s.parent,
                                     "name": s.name, "start_ns": s.start, "end_ns": s.end,
                                     "states": s.states, **s.counts}) + "\n")


def pass_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``wall_s`` seconds.

    Times are self times in seconds, except the ``reporting`` function
    metrics (``sweep_s``, ``csv_s``, ``check_s``, ``errata_s``), which are
    inclusive: they time the report a caller waits for, searches included,
    so that ``rescan_share`` is the rescan's part of the whole sweep.
    ``families.states_built`` and ``words.letters`` count only the outermost
    span of their layer, so a builder that calls another is not counted twice.
    """
    by_id = {s.id: s for s in spans}
    child_ns: dict[int, int] = {}
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] = child_ns.get(s.parent, 0) + s.end - s.start
    self_s = {s.id: (s.end - s.start - child_ns.get(s.id, 0)) / 1e9 for s in spans}

    def total(names, key=None, outer_only=False, inclusive=False):
        out = 0
        for s in spans:
            if s.name not in names:
                continue
            if outer_only and s.parent is not None and by_id[s.parent].layer == s.layer:
                continue
            if key is not None:
                out += s.counts.get(key, 0)
            elif inclusive:
                out += (s.end - s.start) / 1e9
            else:
                out += self_s[s.id]
        return out

    bfs = {"search.shortest_careful_word"}
    flat = [s for s in spans if s.name in bfs and s.states is not None
            and s.states <= search.FLAT_TABLE_LIMIT]
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total({f"{layer}.{f}" for f in TRACED[layer]})

    m["search.bfs_s"] = total(bfs)
    m["search.bfs_calls"] = sum(1 for s in spans if s.name in bfs)
    m["search.bfs_flat_s"] = sum(self_s[s.id] for s in flat)
    m["search.bfs_hash_s"] = m["search.bfs_s"] - m["search.bfs_flat_s"]
    m["search.reachable_s"] = total({"search.reachable_subset_count"})
    m["search.reachable_calls"] = sum(1 for s in spans if s.name == "search.reachable_subset_count")
    # A BFS that finds no word has visited exactly the subsets that the
    # reachable count after it (the rescan in sweep) counts again.
    m["search.visited"] = total(bfs, "visited") + total({"search.reachable_subset_count"}, "visited")
    m["search.us_per_visited"] = _ratio(m["search.bfs_s"] * 1e6, m["search.visited"])
    m["search.visited_per_len"] = _ratio(total(bfs, "visited"), total(bfs, "letters"))
    m["search.forced_s"] = total({"search.forced_path_check"})
    m["search.forced_images"] = total({"search.forced_path_check"}, "images")

    verify = {"core.run_word", "core.is_careful_sync_word"}
    m["core.verify_s"] = total(verify)
    m["core.verify_letters"] = total({"core.run_word"}, "letters")
    m["core.ns_per_letter"] = _ratio(m["core.verify_s"] * 1e9, m["core.verify_letters"])

    for metric, fname in (("sweep_s", "sweep"), ("csv_s", "sweep_csv"),
                          ("check_s", "check_battery"), ("errata_s", "errata_report")):
        m[f"reporting.{metric}"] = total({f"reporting.{fname}"}, inclusive=True)
    m["reporting.rescan_share"] = _ratio(m["search.reachable_s"], m["reporting.sweep_s"])

    m["families.build_s"] = total(FAMILY_BUILDERS)
    m["families.states_built"] = total(FAMILY_BUILDERS, "states", outer_only=True)
    m["words.build_s"] = total(WORD_BUILDERS)
    m["words.letters"] = total(WORD_BUILDERS, "letters", outer_only=True)
    m["transforms.transform_s"] = total({"transforms.transform"})
    m["transforms.lift_s"] = total({"transforms.lift_word"})
    m["transforms.lifted_letters"] = total({"transforms.lift_word"}, "letters")
    m["io.dump_s"] = total({"io.automaton_to_json"})
    m["io.load_s"] = total({"io.load_document", "io.automaton_from_json"})
    m["io.bytes"] = total({"io.automaton_to_json"}, "bytes")

    attributed = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = len(spans)
    m["trace.attributed_share"] = _ratio(attributed, wall_s)
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of every metric over the traced passes."""
    return {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
