"""Toolkit for partial finite automata and carefully synchronizing words.

Construction of extremal PFA families, exact shortest-word computation via
power-automaton search, closed-form word builders, class expansions, and
reporting that arbitrates published length claims against measured ground
truth.
"""

from .core import (
    Pfa,
    RunResult,
    bits_from_states,
    format_state_set,
    is_careful_sync_word,
    run_word,
    states_from_bits,
    total_merging_letter,
    validate,
)
from .families import (
    FamilySpec,
    gen_cerny,
    gen_chain,
    gen_grid,
    gen_padded,
    gen_random,
    gen_witness,
    grid_fact_violations,
    parse_family,
)
from .io import (
    ParseError,
    ValidationError,
    automaton_from_json,
    automaton_to_json,
    export_dot,
    load_document,
)
from .reporting import (
    CheckResult,
    SweepRow,
    check_battery,
    errata_report,
    sweep,
    sweep_csv,
)
from .search import (
    CapExceeded,
    ForcedStep,
    SearchResult,
    brute_force_shortest,
    forced_path_check,
    reachable_subset_count,
    shortest_careful_word,
    subset_distance,
)
from .transforms import (
    LiftedCernyMeasurement,
    is_class_preserving,
    kernel_partition,
    lift_word,
    lifted_cerny_measurement,
    transform,
)
from .words import (
    cerny_alt_word,
    cerny_word,
    counting_word,
    digit_subset,
    format_word,
    grid_word,
    grid_word_claimed_length,
    grid_word_length,
    min_alt_reps,
    parse_word,
)

__version__ = "0.1.0"
