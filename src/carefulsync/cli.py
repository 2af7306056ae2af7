"""Command-line interface.

Exit codes: 0 success, 1 failed checks, 2 invalid input, 3 instance not
carefully synchronizing when a word was requested, 4 resource cap exceeded.
Subcommands that take an automaton accept either a document path or a
family spec string such as ``grid:d=3,k=2``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import families, search
from .core import Pfa, format_state_set, is_careful_sync_word, run_word, synchronized_state
from .families import FamilySpec, parse_family
from .io import ParseError, automaton_to_json, export_dot, load_document
from .reporting import check_battery, errata_report, sweep, sweep_csv
from .search import CapExceeded, DEFAULT_MAX_SUBSETS, brute_force_shortest, shortest_careful_word
from .transforms import lift_word, transform
from .words import (
    FAMILY_WORDS,
    cerny_alt_word,
    cerny_word,
    format_word,
    min_alt_reps,
    parse_word,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID = 2
EXIT_NOT_SYNC = 3
EXIT_CAP = 4


def _load_automaton(target: str) -> tuple[Pfa, FamilySpec | None]:
    """Resolve a positional automaton argument: file path or family spec."""
    looks_like_path = os.path.exists(target) or os.sep in target or target.endswith(".json")
    if looks_like_path:
        try:
            with open(target) as f:  # one character past the bound is enough to refuse
                text = f.read(families.MAX_DOCUMENT_CHARS + 1)
        except OSError as e:
            raise ParseError(f"cannot read {target}: {e}") from None
        pfa, metadata = load_document(text)
        spec = None
        if metadata:
            try:
                spec = parse_family(metadata)
            except ValueError:
                spec = None
        return pfa, spec
    spec = parse_family(target)
    return spec.build(), spec


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _cmd_gen(args) -> int:
    spec = parse_family(args.family)
    _emit(automaton_to_json(spec.build(), family=spec.to_string()), args.out)
    return EXIT_OK


def _cmd_solve(args) -> int:
    pfa, _ = _load_automaton(args.automaton)
    if args.max_wordlen is not None:  # whether or not a word exists
        search.check_max_len(args.max_wordlen)
    found = shortest_careful_word(pfa, max_subsets=args.max_subsets)
    if found is None:
        print("not carefully synchronizing", file=sys.stderr)
        return EXIT_NOT_SYNC
    if args.max_wordlen is not None:  # first, so an oracle over its budget prints nothing
        oracle = brute_force_shortest(pfa, args.max_wordlen, args.max_subsets)
    print(f"word: {format_word(pfa.letters, found.word)}")
    print(f"length: {found.length}")
    print(f"state: {pfa.state_name(found.synchronized_state)}")
    print(f"visited-subsets: {found.visited_subsets}")
    if args.max_wordlen is not None:
        if oracle is None:
            print(f"oracle: no word within length {args.max_wordlen}")
            if args.max_wordlen >= found.length:
                print("oracle disagrees with search", file=sys.stderr)
                return EXIT_CHECK_FAILED
        else:
            agree = len(oracle) == found.length
            print(f"oracle: length {len(oracle)} ({'agree' if agree else 'DISAGREE'})")
            if not agree:
                return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_verify(args) -> int:
    pfa, _ = _load_automaton(args.automaton)
    word = parse_word(pfa.letters, args.word)
    res = run_word(pfa, pfa.full_set(), word)
    if res.final is None:
        print(f"not careful: undefined at position {res.undefined_at}")
        return EXIT_NOT_SYNC
    state = synchronized_state(res.final)
    if state is None:
        print(f"not synchronizing: final set {format_state_set(pfa, res.final)}")
        return EXIT_NOT_SYNC
    print(f"verified: synchronizes to state {pfa.state_name(state)}")
    return EXIT_OK


def _cmd_check(args) -> int:
    pfa, spec = _load_automaton(args.automaton)
    word = None if args.word is None else parse_word(pfa.letters, args.word)
    results = check_battery(pfa, spec=spec, word=word)
    for r in results:
        print(f"{r.name}: {'PASS' if r.passed else 'FAIL'} ({r.detail})")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


def _cmd_words(args) -> int:
    spec = parse_family(args.family)
    build_word, length, claimed = FAMILY_WORDS[spec.kind]
    if length is None or length(*spec.args) is None:
        raise ValueError(f"no word builder for family {spec.to_string()}")
    # every word is built, each within the word budget, before the automaton
    # is built for its letter names and anything is printed
    if spec.kind == "cerny":
        classic = cerny_word(spec.n)
        minimal = min_alt_reps(spec.n)
        alt = None if minimal is None else cerny_alt_word(spec.n, minimal)
        letters = spec.build().letters
        print(f"classic-word: {format_word(letters, classic)}")
        print(f"classic-length: {len(classic)}")
        print(f"two-phase-minimal-r: {minimal if minimal is not None else 'none'}")
        if alt is not None:
            print(f"two-phase-word: {format_word(letters, alt)}")
            print(f"two-phase-length: {len(alt)}")
        return EXIT_OK
    word = build_word(*spec.args)
    print(f"word: {format_word(spec.build().letters, word)}")
    print(f"length: {len(word)}")
    claimed = claimed and claimed(*spec.args)
    if claimed is not None:
        print(f"claimed-length: {claimed}")
    return EXIT_OK


def _cmd_transform(args) -> int:
    base, _ = _load_automaton(args.automaton)
    if args.word is not None:
        # the lift checks its d^k floor before the expansion is built
        lifted = lift_word(args.d, base, parse_word(base.letters, args.word))
        auto = transform(args.d, base)
        ok, _ = is_careful_sync_word(auto, lifted)
        _emit(f"lifted-word: {format_word(auto.letters, lifted)}\n"
              f"length: {len(lifted)}\n"
              f"verifies: {'yes' if ok else 'no'}\n", args.out)
        return EXIT_OK if ok else EXIT_NOT_SYNC
    _emit(automaton_to_json(transform(args.d, base)), args.out)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    specs = [parse_family(f) for f in args.family]
    rows = sweep(specs, max_subsets=args.max_subsets)
    _emit(sweep_csv(rows, include_timings=args.timings), args.out)
    return EXIT_OK


def _cmd_export_dot(args) -> int:
    pfa, _ = _load_automaton(args.automaton)
    _emit(export_dot(pfa), args.out)
    return EXIT_OK


def _cmd_errata(args) -> int:
    _emit(errata_report(), args.out)
    return EXIT_OK


def _add_automaton_arg(sub) -> None:
    sub.add_argument("automaton", help="automaton document path or family spec string")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carefulsync",
        description="Construct, solve, and verify carefully synchronizing PFAs.",
    )
    commands = parser.add_subparsers(dest="command")

    p = commands.add_parser("gen", help="generate a family instance as a document")
    p.add_argument("--family", required=True)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_gen)

    p = commands.add_parser("solve", help="shortest carefully synchronizing word")
    _add_automaton_arg(p)
    p.add_argument("--max-subsets", type=int, default=DEFAULT_MAX_SUBSETS)
    p.add_argument("--max-wordlen", type=int, help="also run the enumeration oracle")
    p.set_defaults(handler=_cmd_solve)

    p = commands.add_parser("verify", help="check a word on an automaton")
    _add_automaton_arg(p)
    p.add_argument("--word", required=True)
    p.set_defaults(handler=_cmd_verify)

    p = commands.add_parser("check", help="run the structural check battery")
    _add_automaton_arg(p)
    p.add_argument("--word")
    p.set_defaults(handler=_cmd_check)

    p = commands.add_parser("words", help="print builder words for a family")
    p.add_argument("--family", required=True)
    p.set_defaults(handler=_cmd_words)

    p = commands.add_parser("transform", help="expand an automaton into digit classes")
    _add_automaton_arg(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--word", help="base word to lift instead of emitting the document")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_transform)

    p = commands.add_parser("sweep", help="solve many instances and emit CSV")
    p.add_argument("--family", action="append", required=True)
    p.add_argument("--out")
    p.add_argument("--max-subsets", type=int, default=DEFAULT_MAX_SUBSETS)
    p.add_argument("--timings", action="store_true")
    p.set_defaults(handler=_cmd_sweep)

    p = commands.add_parser("export-dot", help="render an automaton as Graphviz DOT")
    _add_automaton_arg(p)
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_export_dot)

    p = commands.add_parser("errata", help="claims vs measurements report")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_errata)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_INVALID
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return EXIT_INVALID
    try:
        return args.handler(args)
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
