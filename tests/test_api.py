"""The library's public surface: each exported function's and class's signature.

An added, removed or renamed parameter changes this table, so it shows up in
review.  A class is listed with its constructor's signature, and ``None``
marks an exception class that keeps its builtin constructor.
"""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import carefulsync

SRC = Path(__file__).resolve().parent.parent / "src"

SIGNATURES = {
    "automaton_from_json": "(text: 'str') -> 'Pfa'",
    "automaton_to_json": "(pfa: 'Pfa', family: 'str | None' = None) -> 'str'",
    "bits_from_states": "(states: 'Iterable[int]') -> 'int'",
    "brute_force_shortest": "(pfa: 'Pfa', max_len: 'int', max_subsets: 'int' = 16777216)"
                            " -> 'tuple[int, ...] | None'",
    "CapExceeded": "(visited: 'int', unit: 'str' = 'subsets')",
    "cerny_alt_word": "(n: 'int', r: 'int') -> 'tuple[int, ...]'",
    "cerny_word": "(n: 'int') -> 'tuple[int, ...]'",
    "check_battery": "(pfa: 'Pfa', spec: 'FamilySpec | None' = None,"
                     " word: 'Sequence[int] | None' = None) -> 'list[CheckResult]'",
    "CheckResult": "(name: ForwardRef('str'), passed: ForwardRef('bool'),"
                   " detail: ForwardRef('str'))",
    "counting_word": "(d: 'int', indices: 'Iterable[int]') -> 'tuple[int, ...]'",
    "digit_subset": "(d: 'int', indices: 'Iterable[int]', value: 'int') -> 'int'",
    "errata_report": "() -> 'str'",
    "export_dot": "(pfa: 'Pfa') -> 'str'",
    "FamilySpec": "(kind: ForwardRef('str'), d: ForwardRef('int | None') = None,"
                  " k: ForwardRef('int | None') = None, n: ForwardRef('int | None') = None,"
                  " letter_count: ForwardRef('int | None') = None,"
                  " density: ForwardRef('float | None') = None,"
                  " seed: ForwardRef('int | None') = None)",
    "forced_path_check": "(pfa: 'Pfa', word: 'Sequence[int]')"
                         " -> 'tuple[int | None, ForcedStep | None]'",
    "ForcedStep": "(position: ForwardRef('int'), subset: ForwardRef('int'))",
    "format_state_set": "(pfa: 'Pfa', mask: 'int') -> 'str'",
    "format_word": "(letters: 'Sequence[str]', word: 'Sequence[int]') -> 'str'",
    "gen_cerny": "(n: 'int') -> 'Pfa'",
    "gen_chain": "(k: 'int') -> 'Pfa'",
    "gen_grid": "(d: 'int', k: 'int') -> 'Pfa'",
    "gen_padded": "(d: 'int', n: 'int') -> 'Pfa'",
    "gen_random": "(n: 'int', letter_count: 'int', density: 'float', seed: 'int') -> 'Pfa'",
    "gen_witness": "() -> 'Pfa'",
    "grid_fact_violations": "(pfa: 'Pfa', d: 'int', k: 'int') -> 'list[str]'",
    "grid_word": "(d: 'int', k: 'int') -> 'tuple[int, ...]'",
    "grid_word_claimed_length": "(d: 'int', k: 'int') -> 'int'",
    "grid_word_length": "(d: 'int', k: 'int') -> 'int'",
    "is_careful_sync_word": "(pfa: 'Pfa', word: 'Sequence[int]') -> 'tuple[bool, int | None]'",
    "is_class_preserving": "(pfa: 'Pfa', letter: 'int', class_of: 'Sequence[int]') -> 'bool'",
    "kernel_partition": "(pfa: 'Pfa', letter: 'int') -> 'tuple[int, ...]'",
    "lift_word": "(d: 'int', base: 'Pfa', base_word: 'Sequence[int]') -> 'tuple[int, ...]'",
    "lifted_cerny_measurement": "(d: 'int', n: 'int') -> 'LiftedCernyMeasurement'",
    "LiftedCernyMeasurement": "(d: ForwardRef('int'), n: ForwardRef('int'),"
                              " base_word_length: ForwardRef('int'),"
                              " word_length: ForwardRef('int'),"
                              " synchronizes: ForwardRef('bool'),"
                              " lower_bound_ok: ForwardRef('bool'))",
    "load_document": "(text: 'str') -> 'tuple[Pfa, str | None]'",
    "min_alt_reps": "(n: 'int') -> 'int | None'",
    "parse_family": "(text: 'str') -> 'FamilySpec'",
    "parse_word": "(letters: 'Sequence[str]', text: 'str') -> 'tuple[int, ...]'",
    "ParseError": None,
    "Pfa": "(letters: 'tuple[str, ...]', delta: 'tuple[tuple[int | None, ...], ...]',"
           " state_names: 'tuple[str, ...] | None' = None) -> 'Pfa'",
    "reachable_subset_count": "(pfa: 'Pfa', *, max_subsets: 'int' = 16777216) -> 'int'",
    "run_word": "(pfa: 'Pfa', s: 'int', word: 'Sequence[int]') -> 'RunResult'",
    "RunResult": "(final: ForwardRef('int | None'), trace: ForwardRef('tuple[int, ...]'),"
                 " undefined_at: ForwardRef('int | None') = None)",
    "SearchResult": "(word: ForwardRef('tuple[int, ...]'), visited_subsets: ForwardRef('int'),"
                    " synchronized_state: ForwardRef('int'))",
    "shortest_careful_word": "(pfa: 'Pfa', *,"
                             " max_subsets: 'int' = 16777216) -> 'SearchResult | None'",
    "states_from_bits": "(mask: 'int') -> 'tuple[int, ...]'",
    "subset_distance": "(pfa: 'Pfa', src: 'int', dst: 'int') -> 'int | None'",
    "sweep": "(specs: 'Sequence[FamilySpec]', max_subsets: 'int' = 16777216) -> 'list[SweepRow]'",
    "sweep_csv": "(rows: 'Sequence[SweepRow]', include_timings: 'bool' = False) -> 'str'",
    "SweepRow": "(spec: ForwardRef('str'), d: ForwardRef('int | None'),"
                " size: ForwardRef('int | None'), states: ForwardRef('int'),"
                " bfs_status: ForwardRef('str'), bfs_length: ForwardRef('int | None'),"
                " builder_length: ForwardRef('int | None'),"
                " claimed_length: ForwardRef('int | None'), visited_subsets: ForwardRef('int'),"
                " wall_time_s: ForwardRef('float'))",
    "total_merging_letter": "(pfa: 'Pfa') -> 'int | None'",
    "transform": "(d: 'int', base: 'Pfa') -> 'Pfa'",
    "validate": "(pfa: 'Pfa') -> 'list[str]'",
    "ValidationError": "(diagnostics: 'list[str]')",
}


def _signature(obj) -> str | None:
    try:
        return str(inspect.signature(obj))
    except ValueError:  # no signature: a builtin constructor
        return None


def test_public_signatures():
    exported = {name: obj for name, obj in vars(carefulsync).items()
                if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))}
    assert {name: _signature(obj) for name, obj in exported.items()} == SIGNATURES


def test_import_loads_no_dataclasses_inspect_or_string():
    # a fresh interpreter, so that no earlier test has imported them
    code = ("import sys; before = set(sys.modules); import carefulsync, carefulsync.cli; "
            "print(*sorted(set(sys.modules) - before))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert {"carefulsync.core", "carefulsync.cli"} <= added
    assert not added & {"csv", "dataclasses", "inspect", "json", "string"}
