"""Automaton document serialization and DOT export.

The document format is JSON: an object with ``format_version``,
``letters``, ``states``, ``delta`` (one array per state, ``null`` marking
undefined entries), optional ``state_names``, and an optional ``metadata``
string carrying a family spec.  Round-trips are lossless.
"""

from __future__ import annotations

from collections import defaultdict

from .core import Pfa, validate
from .families import check_document_size, check_table_size

FORMAT_VERSION = 1


class ParseError(ValueError):
    """Document is syntactically or structurally malformed."""


class ValidationError(ValueError):
    """Document parsed but the automaton violates its invariants."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


def automaton_to_json(pfa: Pfa, family: str | None = None) -> str:
    import json  # deferred: importing the package or the CLI loads no JSON codec

    doc = {
        "format_version": FORMAT_VERSION,
        "letters": pfa.letters,
        "states": pfa.n,
        "delta": pfa.delta,
    }
    if pfa.state_names is not None:
        doc["state_names"] = pfa.state_names
    if family is not None:
        doc["metadata"] = family
    return json.dumps(doc, indent=2) + "\n"


def load_document(text: str) -> tuple[Pfa, str | None]:
    """Parse a document; returns the automaton and its metadata string.

    ParseError is raised for a text over
    :func:`~carefulsync.families.check_document_size`'s bound, before it is
    parsed; for text that ``json.loads`` refuses; and for a table over
    :func:`~carefulsync.families.check_table_size`'s bound, before its rows
    are read.  Row lengths and targets are left to
    :func:`~carefulsync.core.validate`, whose diagnostics raise ValidationError.
    """
    try:
        check_document_size(len(text))
    except ValueError as e:
        raise ParseError(str(e)) from None
    import json

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: line {e.lineno}, column {e.colno}") from None
    except (RecursionError, ValueError) as e:  # nesting or a number past Python's limits
        raise ParseError(f"cannot parse the document: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:  # JSON true and 1.0 equal 1
        raise ParseError(f"unsupported format_version {version!r}")
    letters = doc.get("letters")
    if not isinstance(letters, list) or not all(isinstance(x, str) for x in letters):
        raise ParseError("field 'letters' must be a list of strings")
    states = doc.get("states")
    if not isinstance(states, int) or isinstance(states, bool):
        raise ParseError("field 'states' must be an integer")
    try:
        check_table_size("document", states, len(letters))
    except ValueError as e:
        raise ParseError(str(e)) from None
    delta = doc.get("delta")
    if not isinstance(delta, list):
        raise ParseError("field 'delta' must be a list of per-state rows")
    if len(delta) != states:
        raise ParseError(f"delta has {len(delta)} rows, 'states' says {states}")
    for q, row in enumerate(delta):
        if not isinstance(row, list):
            raise ParseError(f"delta row {q} is not a list")
    state_names = doc.get("state_names")
    if state_names is not None:
        if not isinstance(state_names, list) or not all(
            isinstance(x, str) for x in state_names
        ):
            raise ParseError("field 'state_names' must be a list of strings")
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, str):
        raise ParseError("field 'metadata' must be a string")
    pfa = Pfa(letters, delta, state_names)
    diags = validate(pfa)
    if diags:
        raise ValidationError(diags)
    return pfa, metadata


def automaton_from_json(text: str) -> Pfa:
    pfa, _ = load_document(text)
    return pfa


def _dot_quote(text: str) -> str:
    """A DOT quoted string, with backslashes and double quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(pfa: Pfa) -> str:
    """Render the automaton as Graphviz DOT.

    One edge per (source, target) pair, labelled with the comma-joined
    letters that realize it; undefined entries contribute nothing.  Output
    ordering is deterministic.
    """
    lines = ["digraph pfa {", "  rankdir=LR;", "  node [shape=circle];"]
    for q in range(pfa.n):
        lines.append(f"  {_dot_quote(pfa.state_name(q))};")
    edges: dict[tuple[int, int], list[str]] = defaultdict(list)
    for q in range(pfa.n):
        for a, name in enumerate(pfa.letters):
            t = pfa.delta[q][a]
            if t is not None:
                edges[(q, t)].append(name)
    for (q, t) in sorted(edges):
        src, dst = _dot_quote(pfa.state_name(q)), _dot_quote(pfa.state_name(t))
        label = _dot_quote(",".join(edges[(q, t)]))
        lines.append(f"  {src} -> {dst} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
