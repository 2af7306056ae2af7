import json
import tracemalloc

import pytest

from carefulsync import (
    ParseError,
    Pfa,
    ValidationError,
    automaton_from_json,
    automaton_to_json,
    export_dot,
    gen_cerny,
    gen_grid,
    gen_witness,
    load_document,
)
from carefulsync.families import MAX_DOCUMENT_CHARS, parse_family


def test_round_trip_witness():
    text = automaton_to_json(gen_witness())
    assert automaton_from_json(text).delta == gen_witness().delta


def test_round_trip_preserves_names_and_metadata():
    g = gen_grid(3, 2)
    text = automaton_to_json(g, family="grid:d=3,k=2")
    pfa, metadata = load_document(text)
    assert pfa == g
    assert metadata == "grid:d=3,k=2"


def test_round_trip_twice_is_stable():
    text = automaton_to_json(gen_cerny(5))
    assert automaton_to_json(automaton_from_json(text)) == text


def test_document_fields():
    doc = json.loads(automaton_to_json(gen_witness()))
    assert doc["format_version"] == 1
    assert doc["letters"] == ["a", "b", "c"]
    assert doc["states"] == 4
    assert doc["delta"][0] == [1, None, 1]


def test_parse_rejects_bad_json():
    with pytest.raises(ParseError):
        automaton_from_json("{not json")


def test_parse_refuses_what_json_refuses_as_a_parse_error():
    # a syntax error names its place; nesting past the recursion limit and a
    # number past Python's limit on integer digits raise ParseError too
    with pytest.raises(ParseError, match=r"^not valid JSON: line 2, column 1$"):
        load_document('{"states": 1,\n}')
    nested = '{"format_version": 1, "letters": ["a"], "states": 1, "delta": '
    with pytest.raises(ParseError, match="maximum recursion depth exceeded"):
        load_document(nested + "[" * 3000 + "]" * 3000 + "}")
    with pytest.raises(ParseError, match="5000 digits"):
        load_document('{"format_version": 1, "letters": ["a"], "states": ' + "9" * 5000 + "}")


def test_parse_rejects_wrong_version():
    doc = json.loads(automaton_to_json(gen_witness()))
    doc["format_version"] = 99
    with pytest.raises(ParseError):
        automaton_from_json(json.dumps(doc))


def test_parse_rejects_bad_arity():
    doc = json.loads(automaton_to_json(gen_witness()))
    doc["delta"][2] = [1, 2]
    with pytest.raises(ValidationError) as err:
        automaton_from_json(json.dumps(doc))
    assert str(err.value) == "delta row 2 has 2 entries, expected 3"


def test_parse_rejects_row_count_mismatch():
    doc = json.loads(automaton_to_json(gen_witness()))
    doc["delta"].append([0, 0, 0])
    with pytest.raises(ParseError):
        automaton_from_json(json.dumps(doc))


def test_parse_rejects_a_table_over_the_limit_before_its_rows():
    # 2^19 states times 2 letters is the limit; past it the rows are not read
    header = {"format_version": 1, "letters": ["a", "b"], "delta": None}
    with pytest.raises(ParseError, match="must be a list of per-state rows"):
        load_document(json.dumps({**header, "states": 1 << 19}))
    with pytest.raises(ParseError) as err:
        load_document(json.dumps({**header, "states": (1 << 19) + 1}))
    assert str(err.value) == ("document has 1048578 table entries (states times letters), "
                              "over the limit of 1048576")
    # without letters each state still counts as one entry
    with pytest.raises(ParseError, match="over the limit"):
        load_document(json.dumps({"format_version": 1, "letters": [], "states": 2**20 + 1,
                                  "delta": None}))


def test_parse_refuses_an_oversized_text_before_json_loads():
    # a one-state, one-letter header over a 20,000,000-entry row: 38 MiB
    text = '{"format_version":1,"letters":["a"],"states":1,"delta":[[' + "0," * 19_999_999 + "0]]}"
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            load_document(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "document has more than 33554432 characters"
    assert peak < 3 * len(text)


def test_the_longest_gen_document_at_the_table_bound_fits_the_text_bound():
    # one target per indented line and a name per state: 27.2 characters per entry
    spec = parse_family("cerny:n=524288")
    longest = len(automaton_to_json(spec.build(), family=spec.to_string()))
    assert longest == 28502667 < MAX_DOCUMENT_CHARS


@pytest.mark.parametrize("field, value, message", [
    ("letters", ["a", 1, "c"], "field 'letters' must be a list of strings"),
    ("letters", "abc", "field 'letters' must be a list of strings"),
    ("states", "4", "field 'states' must be an integer"),
    ("states", True, "field 'states' must be an integer"),
    ("delta", [[1, None, 1], "x", [2, 3, 3], [3, 0, 0]], "delta row 1 is not a list"),
    ("state_names", ["s0", 1, "s2", "s3"], "field 'state_names' must be a list of strings"),
    ("state_names", "s0", "field 'state_names' must be a list of strings"),
    ("metadata", 7, "field 'metadata' must be a string"),
    ("format_version", True, "unsupported format_version True"),
    ("format_version", 1.0, "unsupported format_version 1.0"),
])
def test_parse_rejects_malformed_fields(field, value, message):
    doc = json.loads(automaton_to_json(gen_witness()))
    doc[field] = value
    with pytest.raises(ParseError) as err:
        load_document(json.dumps(doc))
    assert str(err.value) == message


def test_parse_rejects_non_object():
    with pytest.raises(ParseError):
        automaton_from_json("[1, 2]")


def test_validation_error_for_bad_target():
    doc = json.loads(automaton_to_json(gen_witness()))
    doc["delta"][1][0] = 9
    with pytest.raises(ValidationError) as err:
        automaton_from_json(json.dumps(doc))
    assert any("out of range" in d for d in err.value.diagnostics)


def test_dot_groups_letters():
    dot = export_dot(gen_witness())
    assert '"2" -> "3" [label="b,c"];' in dot
    assert '"1" -> "1" [label="a"];' in dot
    assert dot.startswith("digraph")


def test_dot_skips_undefined_letters():
    pfa = Pfa(("a", "dead"), ((0, None), (0, None)))
    dot = export_dot(pfa)
    assert "dead" not in dot


def test_dot_deterministic():
    assert export_dot(gen_grid(3, 2)) == export_dot(gen_grid(3, 2))


def test_dot_escapes_quotes_and_backslashes():
    pfa = Pfa(('a"', "b\\"), ((1, 0), (1, None)), ('s"0', "s\\"))
    lines = export_dot(pfa).splitlines()
    assert lines[3:] == [
        '  "s\\"0";',
        '  "s\\\\";',
        '  "s\\"0" -> "s\\"0" [label="b\\\\"];',
        '  "s\\"0" -> "s\\\\" [label="a\\""];',
        '  "s\\\\" -> "s\\\\" [label="a\\""];',
        "}",
    ]


def test_dot_uses_state_names():
    dot = export_dot(gen_grid(2, 2))
    assert '"q0^1"' in dot
