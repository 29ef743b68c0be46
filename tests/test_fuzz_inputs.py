"""Fuzzing of the file loaders through the command line: whatever a ring,
group or restriction file holds, the CLI ends with exit code 0, 1 or 2 and
never with a traceback.

Commands run in-process through `cli._main`; hypothesis draws arbitrary
JSON and schema-shaped documents with one value replaced by arbitrary
JSON."""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from test_cli_golden import DATA, run_cli

RING_DOC = json.loads((DATA / "reps3.json").read_text())
GROUP_DOC = json.loads((DATA / "z3_group.json").read_text())
RESTRICTION_DOCS = [json.loads((DATA / f"{name}.json").read_text())
                    for name in ("parity", "genmap", "trivial")]
IDENT_DOC = json.loads((DATA / "ident.json").read_text())

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10) | st.floats(allow_nan=False)
    | st.sampled_from(["", "1", "e", "g1", "V0", "rho", "zn:2", "su2", "reps3", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["", "e", "g1", "1", "rho", "a", "label", "n"]),
                      inner, max_size=3),
    max_leaves=6)

RING_COMMANDS = [["validate", "--ring", "{f}"], ["info", "--ring", "{f}"],
                 ["chain-group", "--ring", "{f}"]]
GROUP_COMMANDS = [["chain-group", "--catalog", "group:{f}"]]
RESTRICTION_COMMANDS = [["is-normal", "--restriction", "{f}", "--depth", "3"],
                        ["is-central", "--restriction", "{f}", "--depth", "3"]]


@st.composite
def documents(draw, schema_docs):
    """Arbitrary JSON, or a schema document with the value at one drawn
    path replaced by arbitrary JSON."""
    if draw(st.booleans()):
        return draw(json_values)
    doc = copy.deepcopy(draw(st.sampled_from(schema_docs)))
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict)
                                   else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child) or draw(st.booleans()):
            node[key] = draw(json_values)
            return doc
        node = child


def _run_on_file(commands, doc):
    """(exit code, stdout) of each command, its {f} naming a file holding
    `doc`; a traceback is an exception raised here."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc))
        return [run_cli([a.replace("{f}", str(path)) for a in command])[:2]
                for command in commands]


def _assert_clean_exit(commands, doc):
    codes = [code for code, _ in _run_on_file(commands, doc)]
    assert set(codes) <= {0, 1, 2}, (doc, codes)


@settings(max_examples=200, deadline=None)
@given(documents([RING_DOC]))
def test_fuzzed_ring_file(doc):
    _assert_clean_exit(RING_COMMANDS, doc)


@settings(max_examples=200, deadline=None)
@given(documents([GROUP_DOC]))
def test_fuzzed_group_file(doc):
    _assert_clean_exit(GROUP_COMMANDS, doc)


@settings(max_examples=200, deadline=None)
@given(documents(RESTRICTION_DOCS))
def test_fuzzed_restriction_file(doc):
    _assert_clean_exit(RESTRICTION_COMMANDS, doc)


def _with(doc, path, value):
    """A copy of `doc` with the value at `path` replaced."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("commands, doc", [
    (RING_COMMANDS, 5),
    (RING_COMMANDS, None),
    (RING_COMMANDS, _with(RING_DOC, ["basis", 1, "label"], {"x": 1})),
    (RING_COMMANDS, _with(RING_DOC, ["unit"], {"x": 1})),
    (RING_COMMANDS, _with(RING_DOC, ["dual", "sgn"], {"x": 1})),
    (RING_COMMANDS, _with(RING_DOC, ["fusion", 0, "c"], {"x": 1})),
    (RING_COMMANDS, _with(RING_DOC, ["truncated_at"], "x")),
    (RING_COMMANDS, _with(RING_DOC, ["truncated_at"], -1)),
    (GROUP_COMMANDS, _with(GROUP_DOC, ["identity"], {"x": 1})),
    (GROUP_COMMANDS, _with(GROUP_DOC, ["table", "g1"], ["g1", "g2", "e"])),
    (RESTRICTION_COMMANDS, _with(RESTRICTION_DOCS[0], ["source"], "reps3")),
    (RESTRICTION_COMMANDS, {"source": "su2", "target": "su2",
                            "map": [{"from": "V0", "to": [{"label": 1.5, "n": 1}]}]}),
    (RESTRICTION_COMMANDS, _with(RESTRICTION_DOCS[1], ["map", 0, "to", 0, "n"], float("inf"))),
    (RING_COMMANDS, _with(RING_DOC, ["basis", 1, "dim"], 1.9)),
    (RING_COMMANDS, _with(RING_DOC, ["basis", 1, "dim"], "1")),
    (RING_COMMANDS, _with(RING_DOC, ["fusion", 0, "n"], True)),
    (RING_COMMANDS, _with(RING_DOC, ["fusion", 0, "n"], 1.5)),
    (RESTRICTION_COMMANDS, _with(IDENT_DOC, ["map", 0, "to", 0, "n"], True)),
    (RESTRICTION_COMMANDS, _with(IDENT_DOC, ["map", 0, "to", 0, "n"], 1.5)),
], ids=["ring-int", "ring-null", "basis-label-dict", "unit-dict", "dual-entry-dict",
        "fusion-label-dict", "truncated-at-str", "truncated-at-negative",
        "group-identity-dict", "group-row-list", "su2-rule-on-reps3",
        "restricted-label-float", "multiplicity-infinite", "dim-float", "dim-str",
        "multiplicity-bool", "multiplicity-float", "restricted-multiplicity-bool",
        "restricted-multiplicity-float"])
def test_wrong_type_is_input_error(commands, doc):
    assert _run_on_file(commands, doc) == [(2, "")] * len(commands)
