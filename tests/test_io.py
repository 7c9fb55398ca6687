"""Serialization: canonical documents, byte-exact round trips, diagnostics."""

import json
import os
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from hopfcyclic import QQ, GF
from hopfcyclic.io import (serialize, save, parse_string, parse_input,
                           to_document, parse_document, ParseError,
                           ValidationError)
from hopfcyclic.cli import fixture_library
from hopfcyclic import fixtures as fx
from hopfcyclic.fields import MR_BOUND


def test_round_trip_is_byte_identical_for_every_fixture():
    for fname, obj in fixture_library(QQ):
        text = serialize(obj)
        back = parse_string(text, what=fname)
        assert serialize(back) == text, fname


def test_round_trip_over_a_prime_field():
    for fname, obj in fixture_library(GF(5)):
        text = serialize(obj)
        assert serialize(parse_string(text, what=fname)) == text, fname


def test_files_round_trip(tmp_path):
    h = fx.group_algebra(QQ, 2)
    path = tmp_path / "h.json"
    save(h, path)
    first = path.read_bytes()
    back = parse_input(path)
    save(back, path)
    assert path.read_bytes() == first


def test_document_shape():
    doc = to_document(fx.group_algebra(QQ, 2))
    assert doc["kind"] == "hopf"
    assert doc["field"] == "Q"
    assert doc["basis"] == ["1", "g^1"]
    # sparse tensor entries are [indices..., numerator, denominator]
    for row in doc["mul"]:
        assert len(row) == 5
        assert isinstance(row[-1], int) and isinstance(row[-2], int)
    for row in doc["comul"]:
        assert len(row) == 5


def test_canonical_serialization_is_sorted_and_stable():
    obj = fx.dual_numbers_module_algebra(fx.group_algebra(QQ, 2))
    a, b = serialize(obj), serialize(obj)
    assert a == b
    assert a.endswith("\n")
    json.loads(a)  # valid JSON


def test_fractions_survive():
    from hopfcyclic.hopf import AlgebraData
    f = QQ
    a = AlgebraData(f, 1, {(0, 0): {0: f(2, 3)}}, {0: f(3, 2)}, labels=["e"])
    back = parse_string(serialize(a), validate=False)
    assert back.mul[(0, 0)] == {0: f(2, 3)}
    assert back.unit == {0: f(3, 2)}


def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as err:
        parse_string("{\n  \"kind\": \"hopf\",,\n}")
    assert "line" in str(err.value)


def test_unknown_kind_and_missing_fields():
    # no command reads a covector file, so `trace` is not a kind
    for kind in ("widget", "trace"):
        with pytest.raises(ParseError, match="unknown kind %r" % kind):
            parse_string(json.dumps({"kind": kind, "field": "Q",
                                     "entries": [[0, 1, 1]]}))
    with pytest.raises(ParseError):
        parse_string(json.dumps({"kind": "algebra", "field": "Q"}))


def test_validation_failure_names_the_defect():
    doc = to_document(fx.dual_numbers_algebra())
    # break the unit law: make 1*x = 0
    doc["mul"] = [r for r in doc["mul"] if r[:2] != [0, 1]]
    text = json.dumps(doc, sort_keys=True, indent=2)
    with pytest.raises(ValidationError):
        parse_string(text)
    # without validation the same document parses fine
    broken = parse_string(text, validate=False)
    assert broken.mul[(0, 1)] == {}


def test_nested_hopf_documents_embed(tmp_path):
    ma = fx.dual_numbers_module_algebra(fx.group_algebra(QQ, 2))
    doc = to_document(ma)
    assert doc["kind"] == "module-algebra"
    assert doc["hopf"]["kind"] == "hopf"
    back = parse_document(doc)
    assert serialize(back) == serialize(ma)


def test_missing_file_is_a_parse_error(tmp_path):
    with pytest.raises(ParseError):
        parse_input(tmp_path / "nope.json")


FIXTURES = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "fixtures")


def _fixture_doc(name):
    with open(os.path.join(FIXTURES, name)) as fh:
        return json.load(fh)


BENCH_INPUTS = os.path.join(os.path.dirname(FIXTURES), "bench", "inputs")
SHIPPED = [os.path.join(d, n) for d in (FIXTURES, BENCH_INPUTS)
           for n in sorted(os.listdir(d))]


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_every_shipped_file_reserializes_to_its_own_bytes(path):
    with open(path) as fh:
        text = fh.read()
    assert serialize(parse_input(path, validate=False)) == text


def test_the_fixture_library_serializes_to_the_committed_fixtures():
    library = fixture_library(QQ)
    assert sorted(name for name, _ in library) == sorted(os.listdir(FIXTURES))
    for name, obj in library:
        with open(os.path.join(FIXTURES, name)) as fh:
            assert serialize(obj) == fh.read(), name


MALFORMED = [
    # (fixture, key, replacement, reason)
    ("hopf-kz2.json", "unit", [[0, 1, 0]], "zero denominator"),
    ("hopf-kz2.json", "unit", [["0", 1, 1]], "string index"),
    ("hopf-kz2.json", "field", 4, "non-prime field"),
    ("hopf-kz2.json", "unit", 5, "entries not a list"),
    ("hopf-kz2.json", "unit", [[0, 1.5, 1]], "float numerator"),
    ("hopf-kz2.json", "unit", [[2, 1, 1]], "unit index out of range"),
    ("hopf-kz2.json", "unit", [[True, 1, 1]], "bool index"),
    ("hopf-kz2.json", "unit", [[0, 1]], "short row"),
    ("hopf-kz2.json", "antipode", [[0, 5, 1, 1]], "antipode out of range"),
    ("hopf-kz2.json", "mul", [[5, 0, 0, 1, 1]], "mul index out of range"),
    # a second row for g.g would silently replace the first
    ("hopf-kz2.json", "mul", [[0, 0, 0, 1, 1], [0, 1, 1, 1, 1], [1, 0, 1, 1, 1],
                              [1, 1, 0, 5, 1], [1, 1, 0, 1, 1]], "repeated index"),
    ("modcomodule-trivial-kz2.json", "dim", "two", "dim not an integer"),
]


@pytest.mark.parametrize("name,key,value,reason", MALFORMED,
                         ids=[case[3] for case in MALFORMED])
def test_malformed_entries_are_parse_errors(name, key, value, reason):
    doc = _fixture_doc(name)
    doc[key] = value
    with pytest.raises(ParseError) as err:
        parse_string(json.dumps(doc), what="doc")
    assert str(err.value).startswith("doc")


def test_a_denominator_zero_mod_p_names_the_path_and_the_entry():
    doc = _fixture_doc("hopf-kz2.json")
    doc["field"] = 7
    doc["unit"] = [[0, 1, 7]]
    with pytest.raises(ParseError) as err:
        parse_string(json.dumps(doc), what="doc")
    assert str(err.value) == ("doc.unit entry [0, 1, 7]: denominator 7 is "
                              "zero mod 7")


def test_nested_document_over_another_field_is_a_parse_error():
    doc = _fixture_doc("module-algebra-dual-numbers.json")
    doc["hopf"]["field"] = 7
    with pytest.raises(ParseError) as err:
        parse_string(json.dumps(doc), what="doc")
    assert str(err.value).startswith("doc.hopf")


@pytest.mark.parametrize("tag,reason", [(561, "not prime"),
                                        (3215031751, "not prime"),
                                        (MR_BOUND, "too large"),
                                        (10**30 + 57, "too large")])
def test_unusable_prime_field_tag_is_a_parse_error(tag, reason):
    doc = _fixture_doc("hopf-kz2.json")
    doc["field"] = tag
    with pytest.raises(ParseError, match=reason):
        parse_string(json.dumps(doc), what="doc")


def test_large_prime_field_tag_is_read(tmp_path):
    from hopfcyclic.cli import main, EXIT_OK, EXIT_USAGE
    path = tmp_path / "hopf.json"
    save(fx.group_algebra(GF(10**19 + 51), 2), str(path))
    assert parse_input(str(path)).field == GF(10**19 + 51)
    assert main(["check", str(path), "--field", str(10**19 + 51)]) == EXIT_OK
    assert main(["check", str(path), "--field", str(MR_BOUND)]) == EXIT_USAGE


def test_malformed_entry_is_a_usage_error_on_the_command_line(tmp_path):
    from hopfcyclic.cli import main, EXIT_USAGE
    doc = _fixture_doc("hopf-kz2.json")
    doc["unit"] = [[0, 1, 0]]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    report = tmp_path / "report.json"
    assert main(["check", str(bad), "--output", str(report)]) == EXIT_USAGE
    rep = json.loads(report.read_text())
    assert rep["ok"] is False and "denominator" in rep["error"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(-2, 2)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)


def _paths(node, prefix=()):
    """Every (container, key) position inside a JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(os.listdir(FIXTURES))), data=st.data())
def test_mutated_documents_raise_only_parse_or_validation_errors(name, data):
    doc = _fixture_doc(name)
    paths = list(_paths(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(paths))
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            if data.draw(st.booleans()) and isinstance(parent, dict):
                del parent[path[-1]]
            else:
                parent[path[-1]] = data.draw(JSON_VALUES)
        except (KeyError, IndexError, TypeError):
            continue    # an earlier mutation removed or replaced this path
    try:
        parse_string(json.dumps(doc))
    except (ParseError, ValidationError):
        pass


@pytest.mark.parametrize("data", [
    b"\xff\xfe{",
    b"[" * 200000 + b"]" * 200000,
    # an integer with more digits than int() converts from a string
    b'{"kind": "hopf", "field": %s}' % (b"1" * (sys.get_int_max_str_digits() + 1))],
    ids=["undecodable bytes", "nested too deeply", "too many digits"])
def test_input_the_decoder_cannot_read_is_a_parse_error(tmp_path, data):
    from hopfcyclic.cli import main, EXIT_USAGE
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    with pytest.raises(ParseError, match="^%s: " % re.escape(str(path))):
        parse_input(str(path))
    assert main(["check", str(path)]) == EXIT_USAGE
