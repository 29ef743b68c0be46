"""Command-line checks that a golden transcript cannot hold.

`data/cli_golden.json` pins every invocation that is arguments alone.  The
checks here write a file at test time or patch the program, and run the
CLI in-process through `run_cli`.  The few that only a fresh process can
show run through `run_fresh`: output under several hash seeds, the
modules the CLI imports, and paths resolved from another working
directory."""

import json

import pytest

import fusionrings as fr
from fusionrings import cli as cli_module
from test_cli_golden import DATA, run_cli, run_fresh

ROOT = DATA.parents[1]


class TestOtherCommands:
    def test_sigma_labels_with_commas_match_the_sigma_file(self, tmp_path):
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(["(e,e)", "(g1,e)"]))
        assert (run_cli(["cosets", "--catalog", "prod:zn:2+zn:2", "--sigma-file", str(path)])
                == run_cli(["cosets", "--catalog", "prod:zn:2+zn:2", "--sigma", "(e,e),(g1,e)"]))

    @pytest.mark.parametrize("seed", ["1", "5"])
    @pytest.mark.parametrize("sigma, message", [
        ("e,g1,g5", "not dual-closed at 'g1'"),
        ("e,g1,g11", "not fusion-closed: 'g2' in 'g1' x 'g1'"),
    ])
    def test_subobject_errors_name_the_first_failure_in_ring_order(self, seed, sigma, message):
        # the members are walked in ring order, not in the hash order of their set
        assert run_fresh(["-m", "fusionrings.cli", "cosets", "--catalog", "zn:12",
                          "--sigma", sigma], env={"PYTHONHASHSEED": seed}) == (
            2, "", f"error: {message}\n")

    @pytest.mark.parametrize("args", [("chain-group",), ("center",), ("cosets", "--sigma", "e")])
    def test_dot_escapes_quotes_and_backslashes_in_labels(self, tmp_path, args):
        path = tmp_path / "z3.json"  # relabeled: g1 is a"b and g2 is c\d
        text = (DATA / "z3_group.json").read_text()
        path.write_text(text.replace("g1", 'a\\"b').replace("g2", "c\\\\d"))
        _, stdout, _ = run_cli([*args, "--catalog", f"group:{path}", "--format", "dot"])
        assert stdout == ('graph merge {\n  "e" [label="e (dim 1)"];\n'
                          '  "a\\"b" [label="a\\"b (dim 1)"];\n'
                          '  "c\\\\d" [label="c\\\\d (dim 1)"];\n}\n')

    def test_dot_escapes_labels_on_edges(self, tmp_path):
        path = tmp_path / "reps3.json"  # relabeled: rho is r\h"o
        fr.save_ring(fr.rep_s3_ring(), path)
        path.write_text(path.read_text().replace('"rho"', '"r\\\\h\\"o"'))
        _, stdout, _ = run_cli(["chain-group", "--ring", str(path), "--format", "dot"])
        assert stdout.splitlines()[-3:] == [
            '  "1" -- "r\\\\h\\"o";', '  "sgn" -- "r\\\\h\\"o";', "}"]

    def test_validate_file_ring(self, tmp_path):
        path = tmp_path / "ring.json"
        fr.save_ring(fr.rep_s3_ring(), path)
        code, stdout, _ = run_cli(["validate", "--ring", str(path)])
        assert code == 0
        assert json.loads(stdout)["valid"] is True


class TestRestrictions:
    def test_parity_normal_and_central(self, tmp_path):
        rfile = tmp_path / "parity.json"
        rfile.write_text(json.dumps(
            {"source": "su2", "target": "zn:2", "rule": "su2_parity"}))
        assert run_cli(["is-normal", "--catalog", "su2", "--restriction", str(rfile)])[0] == 0
        assert run_cli(["is-central", "--catalog", "su2", "--restriction", str(rfile)])[0] == 0

    def test_weights_negative_with_witness(self, tmp_path):
        rfile = tmp_path / "weights.json"
        rfile.write_text(json.dumps(
            {"source": "su2", "target": "z", "rule": "su2_weights"}))
        code, stdout, _ = run_cli(["is-normal", "--catalog", "su2", "--restriction", str(rfile)])
        assert code == 1
        assert json.loads(stdout)["witness"][0] == "V2"
        code, stdout, _ = run_cli(["is-central", "--catalog", "su2", "--restriction", str(rfile)])
        assert code == 1
        assert json.loads(stdout)["witness"][0] == "V1"

    def test_explicit_map_file(self, tmp_path):
        rfile = tmp_path / "ident.json"
        rfile.write_text(json.dumps(
            {"source": "reps3_src", "target": "reps3_tgt", "map": [
                {"from": "1", "to": [{"label": "1", "n": 1}]},
                {"from": "sgn", "to": [{"label": "sgn", "n": 1}]},
                {"from": "rho", "to": [{"label": "rho", "n": 1}]}]}
        ).replace("reps3_src", "reps3").replace("reps3_tgt", "reps3"))
        assert run_cli(["is-normal", "--catalog", "reps3", "--restriction", str(rfile)])[0] == 0


class TestExitCodes:
    def test_invalid_ring_is_domain_negative(self, tmp_path):
        path = tmp_path / "bad.json"
        fr.save_ring(fr.rep_s3_ring(), path)
        doc = json.loads(path.read_text())
        doc["dual"]["sgn"] = "rho"
        doc["dual"]["rho"] = "sgn"
        path.write_text(json.dumps(doc))
        code, stdout, _ = run_cli(["validate", "--ring", str(path)])
        assert code == 1
        assert json.loads(stdout)["valid"] is False

    @pytest.mark.parametrize("args, edit, message", [
        (("validate", "--ring", "{file}"), ("ring", "unit", ["1"]), None),
        (("validate", "--ring", "{file}"), ("ring", "dual", ["1", "sgn", "rho"]), None),
        (("is-normal", "--catalog", "su2", "--restriction", "{file}"),
         ("restriction", "source", 5), None),
        (("is-normal", "--catalog", "reps3", "--restriction", "{file}"),
         ("restriction", "map", [{"from": "1", "to": [{"label": "1", "n": "x"}]}]), None),
        (("validate", "--ring", "{file}"), ("ring", "dual", lambda d: {**d, "rho": "ghost"}),
         "dual map has dangling label ('rho', 'ghost')"),
        (("validate", "--ring", "{file}"), ("ring", "dual", {"1": "1", "sgn": "sgn"}),
         "dual map does not cover the basis"),
        (("validate", "--ring", "{file}"),
         ("ring", "fusion", lambda f: f + [{"a": "ghost", "b": "1", "c": "1", "n": 1}]),
         "fusion entry with dangling pair ('ghost', '1')"),
        (("validate", "--ring", "{file}"),
         ("ring", "fusion", lambda f: f + [{"a": "1", "b": "1", "c": "ghost", "n": 1}]),
         "fusion entry ('1','1') -> dangling 'ghost'"),
        (("validate", "--ring", "{file}"), ("ring", "fusion", lambda f: f + f[:1]),
         "duplicate fusion entry {'a': '1', 'b': '1', 'c': '1', 'n': 1}"),
        (("chain-group", "--catalog", "group:{file}"), ("group", "elements", ["e", "g1", "g1"]),
         "duplicate element labels"),
        (("chain-group", "--catalog", "group:{file}"),
         ("group", "table", lambda t: {**t, "e": {"e": "e", "g1": "g2", "g2": "g1"}}),
         "identity law fails at 'g1'"),
        (("cosets", "--catalog", "repz4", "--sigma", "chi0", "--sigma-file", "{file}"),
         ("json", None, ["chi0"]), "exactly one of --sigma/--sigma-file is required"),
        (("cosets", "--catalog", "repz4", "--sigma-file", "{file}"), ("json", None, {"chi0": 1}),
         "sigma file must hold a JSON list of labels"),
        (("info", "--ring", "{file}"), ("text", None, "not json"),
         "Expecting value: line 1 column 1 (char 0)"),
        (("chain-group", "--catalog", "group:{file}"),
         ("group", "table", lambda t: {**t, "g1": {**t["g1"], "g1": "x"}}),
         "table not total at ('g1','g1')"),
        # a malformed entry or key is named with the shape it must have
        (("validate", "--ring", "{file}"),
         ("ring", "fusion", lambda f: [{k: v for k, v in f[0].items() if k != "n"}] + f[1:]),
         "fusion entry must be an object with keys a, b, c, n, "
         "got {'a': '1', 'b': '1', 'c': '1'}"),
        (("validate", "--ring", "{file}"),
         ("ring", "basis", lambda b: b[:1] + [{"label": "sgn"}] + b[2:]),
         "basis entry must be an object with keys label, dim, got {'label': 'sgn'}"),
        (("validate", "--ring", "{file}"), ("ring", "fusion", {"a": "1", "b": "1"}),
         "fusion must be a list of objects"),
        (("chain-group", "--catalog", "group:{file}"),
         ("group", "table", lambda t: {**t, "g1": {"g1": "g2", "g2": "e"}}),
         "table row 'g1' must be an object with keys e, g1, g2, got {'g1': 'g2', 'g2': 'e'}"),
        (("chain-group", "--catalog", "group:{file}"),
         ("group", "table", lambda t: {"e": t["e"], "g1": t["g1"]}),
         "table must be an object with keys e, g1, g2, got "
         "{'e': {'e': 'e', 'g1': 'g1', 'g2': 'g2'}, 'g1': {'e': 'g1', 'g1': 'g2', 'g2': 'e'}}"),
        (("chain-group", "--catalog", "group:{file}"), ("group", "elements", "eg"),
         "elements must be a list of labels"),
        (("chain-group", "--catalog", "group:{file}"),
         ("json", None, {"elements": ["e"], "table": {"e": {"e": "e"}}}),
         "missing key 'identity'"),
        (("is-normal", "--restriction", "{file}", "--depth", "3"),
         ("restriction", "map", [{"from": "1", "to": [{"label": "1"}]}]),
         "to entry must be an object with keys label, n, got {'label': '1'}"),
        (("is-normal", "--restriction", "{file}", "--depth", "3"),
         ("restriction", "map", {"from": "1", "to": [{"label": "1", "n": 1}]}),
         "map must be a list of objects"),
        (("is-normal", "--restriction", "{file}", "--depth", "3"), ("restriction", "rule", "nope"),
         "unknown rule 'nope'; the rules are su2_parity, su2_weights, identity, trivial"),
        (("is-normal", "--restriction", "{file}", "--depth", "3"),
         ("json", None, {"target": "reps3", "rule": "identity"}), "missing key 'source'"),
        (("is-normal", "--restriction", "{file}", "--depth", "3"),
         ("json", None, {"source": "su2", "target": "zn:1", "rule": "su2_parity"}),
         "su2 parity needs a target with a label other than the unit"),
    ], ids=["unit-list", "dual-list", "source-int", "multiplicity-str",
            "dual-unknown-label", "dual-missing-label", "fusion-unknown-pair",
            "fusion-unknown-constituent", "fusion-duplicate", "group-duplicate-label",
            "group-identity-law", "sigma-both", "sigma-file-not-list", "ring-not-json",
            "group-product-not-an-element", "fusion-entry-without-n", "basis-entry-without-dim", "fusion-object", "group-row-without-column",
            "group-table-without-row", "group-elements-string", "group-without-identity",
            "restriction-to-without-n", "restriction-map-object", "restriction-unknown-rule",
            "restriction-without-source", "restriction-parity-without-nontrivial"])
    def test_malformed_file_or_option_is_input_error(self, tmp_path, args, edit, message):
        path = tmp_path / "input.json"
        kind, key, value = edit
        if kind in ("json", "text"):
            doc = value
        else:
            if kind == "ring":
                fr.save_ring(fr.rep_s3_ring(), path)
                doc = json.loads(path.read_text())
            elif kind == "group":
                doc = json.loads((DATA / "z3_group.json").read_text())
            else:
                doc = {"source": "reps3", "target": "reps3", "map": []}
            doc[key] = value(doc[key]) if callable(value) else value
        path.write_text(doc if kind == "text" else json.dumps(doc))
        code, stdout, stderr = run_cli([a.replace("{file}", str(path)) for a in args])
        assert code == 2
        assert any(l.startswith("error:") for l in stderr.splitlines())
        if message is not None:
            assert stderr == f"error: {message}\n"
        assert "Traceback" not in stderr
        assert stdout == ""

    def test_oracle_disagreement_exits_3(self, monkeypatch):
        # an oracle that merges nothing disagrees with the closure, which
        # puts every label of Rep(S3) in one chain class
        monkeypatch.setattr(cli_module, "chain_oracle", lambda ring, max_len: (
            fr.CosetPartition.from_classes(ring, lambda label: label, ring.labels())))
        assert run_cli(["chain-group", "--catalog", "reps3", "--oracle-check"]) == (
            3, "", "oracle-check failed: (1, sgn) merged=True brute-force=False\n")

    def test_zero_multiplicity_in_map_file_rejected(self, tmp_path):
        rfile = tmp_path / "zero.json"
        rfile.write_text(json.dumps(
            {"source": "zn:2", "target": "zn:2",
             "map": [{"from": "e", "to": [{"label": "e", "n": 1}]},
                     {"from": "g1", "to": [{"label": "g1", "n": 1},
                                           {"label": "e", "n": 0}]}]}))
        code, stdout, stderr = run_cli(["is-central", "--catalog", "zn:2",
                                        "--restriction", str(rfile)])
        assert code == 2
        assert any(l.startswith("error:") and "multiplicity" in l
                   for l in stderr.splitlines())
        assert "Traceback" not in stderr
        assert stdout == ""

    def test_generated_source_with_map_file_rejected(self, tmp_path):
        rfile = tmp_path / "bad.json"
        rfile.write_text(json.dumps(
            {"source": "su2", "target": "zn:2",
             "map": [{"from": "V0", "to": [{"label": "e", "n": 1}]}]}))
        assert run_cli(["is-normal", "--catalog", "su2", "--restriction", str(rfile)])[0] == 2


def test_cli_imports_no_click():
    # the command line runs on the standard library alone
    code, _, stderr = run_fresh(["-c", "import sys, fusionrings.cli; "
                                 "sys.exit('click' in sys.modules)"])
    assert code == 0, stderr


def test_cli_imports_no_dataclasses_or_inspect():
    # records are plain classes and errors go to stderr by `print`: a CLI
    # process loads none of these modules
    assert run_fresh(["-c", "import sys, fusionrings.cli; print(sorted("
                      "{'dataclasses', 'inspect', 'logging'} & set(sys.modules)))"]) == (
        0, "[]\n", "")


@pytest.mark.parametrize("where", ["root", "elsewhere"])
def test_restriction_paths_resolve_beside_the_restriction_file(where, tmp_path):
    # ident.json names its source "reps3.json", the file beside it, and its
    # target "reps3", which is no file there and so a catalog name
    cwd, path = ((ROOT, "tests/data/ident.json") if where == "root"
                 else (tmp_path, str(DATA / "ident.json")))
    assert run_fresh(["-m", "fusionrings.cli", "is-normal", "--restriction", path], cwd=cwd) == (
        0, '{"checked_depth":null,"normal":true,"witness":null}\n', "")
