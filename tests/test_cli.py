"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fusionrings as fr
from fusionrings import cli as cli_module

RUN = [sys.executable, "-m", "fusionrings.cli"]
DATA = Path(__file__).parent / "data"
ROOT = DATA.parents[1]


def cli(*args, **kw):
    return subprocess.run(RUN + list(args), capture_output=True, text=True, **kw)


class TestChainGroup:
    def test_su2_json(self):
        out = cli("chain-group", "--catalog", "su2")
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["order"] == 2
        assert doc["invariants"] == [2]
        assert doc["flag"] == "stable_at_depth(6)"

    def test_so3_trivial(self):
        doc = json.loads(cli("chain-group", "--catalog", "so3").stdout)
        assert doc["order"] == 1

    def test_oracle_check_passes(self):
        out = cli("chain-group", "--catalog", "s3", "--oracle-check")
        assert out.returncode == 0

    def test_au_presentation(self):
        doc = json.loads(cli("chain-group", "--catalog", "au", "--depth", "4").stdout)
        assert doc["name"] == "Z"
        assert doc["presentation"]["generators"] == ["[u]"]


class TestOtherCommands:
    def test_center_table(self):
        out = cli("center", "--catalog", "reps3", "--format", "table")
        assert "entire explored basis" in out.stdout
        assert "trivial" in out.stdout

    def test_product(self):
        doc = json.loads(cli("product", "--catalog", "su2", "V1", "V2").stdout)
        assert doc["support"] == {"V1": 1, "V3": 1}

    def test_info(self):
        doc = json.loads(cli("info", "--catalog", "repz4").stdout)
        assert doc["size"] == 4 and doc["unit"] == "chi0"

    def test_cosets(self):
        doc = json.loads(cli("cosets", "--catalog", "repz4",
                             "--sigma", "chi0,chi2").stdout)
        assert len(doc["blocks"]) == 2

    def test_cosets_of_a_subobject_beyond_the_unit_class(self):
        out = cli("cosets", "--catalog", "z", "--depth", "3", "--sigma", "z0,z5,z-5")
        assert out.returncode == 0
        assert out.stdout == ('{"blocks":[["z0"],["z1"],["z-1"],["z2","z-3"],["z-2","z3"]],'
                              '"explored":["z0","z1","z-1","z2","z-2","z3","z-3"],'
                              '"identity_block":0}\n')

    def test_cosets_table_on_a_complete_table(self):
        out = cli("cosets", "--catalog", "zn:6", "--sigma", "e,g3", "--format", "table")
        assert out.returncode == 0
        assert out.stdout.splitlines()[:3] == ["block 0 (identity): e, g3",
                                               "block 1: g1, g4", "block 2: g2, g5"]

    def test_sigma_labels_with_commas_match_the_sigma_file(self, tmp_path):
        want = [["(e,e)", "(g1,e)"], ["(e,g1)", "(g1,g1)"]]
        out = cli("cosets", "--catalog", "prod:zn:2+zn:2", "--sigma", "(e,e),(g1,e)")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["blocks"] == want
        path = tmp_path / "sigma.json"
        path.write_text(json.dumps(["(e,e)", "(g1,e)"]))
        from_file = cli("cosets", "--catalog", "prod:zn:2+zn:2", "--sigma-file", str(path))
        assert from_file.stdout == out.stdout

    @pytest.mark.parametrize("seed", ["1", "5"])
    @pytest.mark.parametrize("sigma, message", [
        ("e,g1,g5", "not dual-closed at 'g1'"),
        ("e,g1,g11", "not fusion-closed: 'g2' in 'g1' x 'g1'"),
    ])
    def test_subobject_errors_name_the_first_failure_in_ring_order(self, seed, sigma, message):
        # the members are walked in ring order, not in the hash order of their set
        out = cli("cosets", "--catalog", "zn:12", "--sigma", sigma,
                  env=dict(os.environ, PYTHONHASHSEED=seed))
        assert out.returncode == 2
        assert out.stderr == f"error: {message}\n"
        assert out.stdout == ""

    def test_cosets_of_an_inconsistent_window_is_input_error(self):
        out = cli("cosets", "--catalog", "su2", "--depth", "4", "--sigma", "V0,V2,V4,V5")
        assert out.returncode == 2
        assert "unit block" in out.stderr

    def test_central_subobjects(self):
        doc = json.loads(cli("central-subobjects", "--catalog", "repz4").stdout)
        assert doc == [["chi0"], ["chi0", "chi2"],
                       ["chi0", "chi1", "chi2", "chi3"]]

    def test_grouplikes(self):
        doc = json.loads(cli("grouplikes", "--catalog", "free:su2+zn:2",
                             "--depth", "4").stdout)
        assert doc["group"]["order"] == 2

    def test_automorphisms(self):
        doc = json.loads(cli("automorphisms", "--catalog", "reps3").stdout)
        assert doc["count"] == 1

    @pytest.mark.parametrize("catalog, depth, count", [
        ("su2", 40, 1), ("au", 5, 2), ("z", 25, 2)])
    def test_automorphisms_on_large_windows(self, catalog, depth, count):
        # windows of more than 31 labels once overflowed the recursion limit
        out = cli("automorphisms", "--catalog", catalog, "--depth", str(depth))
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert (doc["count"], doc["depth"]) == (count, depth)

    def test_automorphism_budget_is_input_error(self):
        env = dict(os.environ, FUSIONRING_SEARCH_BUDGET="1")
        out = cli("automorphisms", "--catalog", "reps3", env=env)
        assert out.returncode == 2
        assert "error: automorphism search budget exhausted" in out.stderr
        assert "Traceback" not in out.stderr

    def test_dot_output(self):
        out = cli("chain-group", "--catalog", "repz4", "--format", "dot")
        assert out.returncode == 0
        assert out.stdout.lstrip().startswith("graph")

    @pytest.mark.parametrize("args", [("chain-group",), ("center",), ("cosets", "--sigma", "e")])
    def test_dot_escapes_quotes_and_backslashes_in_labels(self, tmp_path, args):
        path = tmp_path / "z3.json"  # relabeled: g1 is a"b and g2 is c\d
        text = (DATA / "z3_group.json").read_text()
        path.write_text(text.replace("g1", 'a\\"b').replace("g2", "c\\\\d"))
        out = cli(*args, "--catalog", f"group:{path}", "--format", "dot")
        assert out.stdout == ('graph merge {\n  "e" [label="e (dim 1)"];\n'
                              '  "a\\"b" [label="a\\"b (dim 1)"];\n'
                              '  "c\\\\d" [label="c\\\\d (dim 1)"];\n}\n')

    def test_dot_escapes_labels_on_edges(self, tmp_path):
        path = tmp_path / "reps3.json"  # relabeled: rho is r\h"o
        fr.save_ring(fr.rep_s3_ring(), path)
        path.write_text(path.read_text().replace('"rho"', '"r\\\\h\\"o"'))
        out = cli("chain-group", "--ring", str(path), "--format", "dot")
        assert out.stdout.splitlines()[-3:] == [
            '  "1" -- "r\\\\h\\"o";', '  "sgn" -- "r\\\\h\\"o";', "}"]

    def test_validate_file_ring(self, tmp_path):
        path = tmp_path / "ring.json"
        fr.save_ring(fr.rep_s3_ring(), path)
        out = cli("validate", "--ring", str(path))
        assert out.returncode == 0
        assert json.loads(out.stdout)["valid"] is True


class TestRestrictions:
    def test_parity_normal_and_central(self, tmp_path):
        rfile = tmp_path / "parity.json"
        rfile.write_text(json.dumps(
            {"source": "su2", "target": "zn:2", "rule": "su2_parity"}))
        assert cli("is-normal", "--catalog", "su2",
                   "--restriction", str(rfile)).returncode == 0
        assert cli("is-central", "--catalog", "su2",
                   "--restriction", str(rfile)).returncode == 0

    def test_weights_negative_with_witness(self, tmp_path):
        rfile = tmp_path / "weights.json"
        rfile.write_text(json.dumps(
            {"source": "su2", "target": "z", "rule": "su2_weights"}))
        out = cli("is-normal", "--catalog", "su2", "--restriction", str(rfile))
        assert out.returncode == 1
        assert json.loads(out.stdout)["witness"][0] == "V2"
        out = cli("is-central", "--catalog", "su2", "--restriction", str(rfile))
        assert out.returncode == 1
        assert json.loads(out.stdout)["witness"][0] == "V1"

    def test_explicit_map_file(self, tmp_path):
        rfile = tmp_path / "ident.json"
        rfile.write_text(json.dumps(
            {"source": "reps3_src", "target": "reps3_tgt", "map": [
                {"from": "1", "to": [{"label": "1", "n": 1}]},
                {"from": "sgn", "to": [{"label": "sgn", "n": 1}]},
                {"from": "rho", "to": [{"label": "rho", "n": 1}]}]}
        ).replace("reps3_src", "reps3").replace("reps3_tgt", "reps3"))
        out = cli("is-normal", "--catalog", "reps3", "--restriction", str(rfile))
        assert out.returncode == 0


class TestExitCodes:
    def test_unknown_catalog_is_input_error(self):
        assert cli("chain-group", "--catalog", "nope").returncode == 2

    def test_missing_source_is_input_error(self):
        assert cli("chain-group").returncode == 2

    def test_invalid_ring_is_domain_negative(self, tmp_path):
        path = tmp_path / "bad.json"
        fr.save_ring(fr.rep_s3_ring(), path)
        doc = json.loads(path.read_text())
        doc["dual"]["sgn"] = "rho"
        doc["dual"]["rho"] = "sgn"
        path.write_text(json.dumps(doc))
        out = cli("validate", "--ring", str(path))
        assert out.returncode == 1
        assert json.loads(out.stdout)["valid"] is False

    @pytest.mark.parametrize("args", [
        ("chain-group", "--catalog", "zn:abc"),
        ("cosets", "--catalog", "repz4", "--sigma-file", "{missing}"),
        ("product", "--catalog", "su2", "V1", "X3"),
        # malformed command lines, rejected by the parser itself
        (),
        ("bogus",),
        ("chain-group", "--cat", "su2"),  # no option name may be abbreviated
        ("product", "--catalog", "su2", "V1"),
        ("catalog", "extra"),
        ("chain-group", "--catalog", "su2", "--format", "xml"),
        ("chain-group", "--catalog", "su2", "--depth", "abc"),
    ])
    def test_malformed_input_is_input_error(self, tmp_path, args):
        missing = str(tmp_path / "missing.json")
        out = cli(*(a.replace("{missing}", missing) for a in args))
        assert out.returncode == 2
        assert any(l.startswith("error:") for l in out.stderr.splitlines())
        if "X3" in args:
            assert "error: unknown label 'X3'" in out.stderr.splitlines()
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("args, edit, message", [
        (("chain-group", "--catalog", "su2", "--depth", "-1"), None, None),
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
        (("cosets", "--catalog", "repz4"), None,
         "exactly one of --sigma/--sigma-file is required"),
        (("cosets", "--catalog", "repz4", "--sigma-file", "{file}"), ("json", None, {"chi0": 1}),
         "sigma file must hold a JSON list of labels"),
        (("info", "--catalog", "repz4", "--format", "dot"), None,
         "dot format not available for this command"),
        (("info", "--ring", "{file}"), ("text", None, "not json"),
         "Expecting value: line 1 column 1 (char 0)"),
        (("chain-group", "--catalog", "group:{file}"),
         ("group", "table", lambda t: {**t, "g1": {**t["g1"], "g1": "x"}}),
         "table not total at ('g1','g1')"),
        (("chain-group", "--catalog", "au:1"), None, "au_word_ring needs dim parameter n >= 2"),
        # every generator's square is read before any other product
        (("automorphisms", "--ring", str(DATA / "su2_depth4.json")), None,
         "truncated table has no entry for ('V3','V3')"),
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
    ], ids=["negative-depth", "unit-list", "dual-list", "source-int", "multiplicity-str",
            "dual-unknown-label", "dual-missing-label", "fusion-unknown-pair",
            "fusion-unknown-constituent", "fusion-duplicate", "group-duplicate-label",
            "group-identity-law", "sigma-both", "sigma-neither", "sigma-file-not-list",
            "info-dot", "ring-not-json", "group-product-not-an-element", "au-dim-below-two",
            "automorphisms-truncated-table", "fusion-entry-without-n",
            "basis-entry-without-dim", "fusion-object", "group-row-without-column",
            "group-table-without-row", "group-elements-string", "group-without-identity",
            "restriction-to-without-n", "restriction-map-object", "restriction-unknown-rule",
            "restriction-without-source", "restriction-parity-without-nontrivial"])
    def test_malformed_file_or_option_is_input_error(self, tmp_path, args, edit, message):
        path = tmp_path / "input.json"
        if edit is not None:
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
        out = cli(*(a.replace("{file}", str(path)) for a in args))
        assert out.returncode == 2
        assert any(l.startswith("error:") for l in out.stderr.splitlines())
        if message is not None:
            assert out.stderr == f"error: {message}\n"
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("command", ["automorphisms", "automorphism-group",
                                         "central-subobjects"])
    @pytest.mark.parametrize("budget", ["abc", "", "1e3"])
    def test_malformed_search_budget_is_input_error(self, command, budget):
        out = cli(command, "--catalog", "klein",
                  env=dict(os.environ, FUSIONRING_SEARCH_BUDGET=budget))
        assert out.returncode == 2
        assert out.stderr == ("error: FUSIONRING_SEARCH_BUDGET must be a non-negative "
                              f"decimal integer, got {budget!r}\n")
        assert out.stdout == ""

    @pytest.mark.parametrize("args, names", [
        (("--help",), ["validate", "info", "product", "chain-group", "center", "cosets",
                       "central-subobjects", "is-normal", "is-central", "grouplikes",
                       "automorphisms", "automorphism-group", "catalog"]),
        (("chain-group", "--help"), ["--ring", "--catalog", "--depth", "--format"]),
    ])
    def test_help_exits_0(self, args, names):
        out = cli(*args)
        assert out.returncode == 0, out.stderr
        assert all(name in out.stdout for name in names)

    def test_oracle_disagreement_exits_3(self, monkeypatch, capsys):
        # an oracle that merges nothing disagrees with the closure, which
        # puts every label of Rep(S3) in one chain class
        monkeypatch.setattr(cli_module, "chain_oracle", lambda ring, max_len: (
            fr.CosetPartition.from_classes(ring, lambda label: label, ring.labels())))
        monkeypatch.setattr(sys, "argv", ["fusionrings", "chain-group", "--catalog", "reps3",
                                          "--oracle-check"])
        with pytest.raises(SystemExit) as exc:
            cli_module._main()
        assert exc.value.code == 3
        out = capsys.readouterr()
        assert out.err == "oracle-check failed: (1, sgn) merged=True brute-force=False\n"
        assert out.out == ""

    @pytest.mark.parametrize("catalog, code, message", [
        ("free:(free:zn:2+zn:3)+zn:2", 0, None),
        ("free:(prod:zn:2+zn:2)+zn:3", 0, None),
        ("free:su2", 2, "its second factor is missing"),
        ("prod:+zn:2", 2, "its first factor is missing"),
        ("free:zn:2+free:zn:2+zn:3", 0, None),  # the first top-level + splits
        ("free:+", 2, "its first factor is missing"),
        ("prod:(zn:2+zn:3", 2, "catalog name 'prod:(zn:2+zn:3' has an unmatched '('"),
        ("prod:((zn:2)+zn:3", 2, "catalog name 'prod:((zn:2)+zn:3' has an unmatched '('"),
        ("free:zn:2)+zn:3", 2, "catalog name 'free:zn:2)+zn:3' has an unmatched ')'"),
        ("prod:[zn:2+zn:3", 2, "catalog name 'prod:[zn:2+zn:3' has an unmatched '['"),
        ("prod:zn:2]+zn:3", 2, "catalog name 'prod:zn:2]+zn:3' has an unmatched ']'"),
    ])
    def test_nested_product_names(self, catalog, code, message):
        out = cli("validate", "--catalog", catalog, "--depth", "2", "--format", "table")
        assert out.returncode == code, out.stderr
        if message is None:
            assert out.stdout == "valid (checked to depth 2)\n"
        else:
            assert message in out.stderr and "Traceback" not in out.stderr

    @pytest.mark.parametrize("n", [0, -3])
    def test_cyclic_order_below_one_is_input_error(self, n):
        out = cli("chain-group", "--catalog", f"zn:{n}")
        assert out.returncode == 2
        assert out.stderr == f"error: Z/nZ needs n >= 1, got {n}\n"

    @pytest.mark.parametrize("args, message", [
        (("--catalog", "zn:1_0"), "catalog name 'zn:1_0': '1_0' is not an integer"),
        (("--catalog", "zn:\u0663"), "catalog name 'zn:\u0663': '\u0663' is not an integer"),
        (("--catalog", "zn: 4"), "catalog name 'zn: 4': ' 4' is not an integer"),
        (("--catalog", "au:+3"), "catalog name 'au:+3': '+3' is not an integer"),
        (("--catalog", "su2", "--depth", "1_0"),
         "argument --depth: invalid non_negative_int value: '1_0'"),
        (("--catalog", "su2", "--depth", "+4"),
         "argument --depth: invalid non_negative_int value: '+4'"),
    ], ids=["zn-underscore", "zn-arabic-indic", "zn-space", "au-plus", "depth-underscore",
            "depth-plus"])
    def test_integers_are_ascii_digits(self, args, message):
        # as labels and FUSIONRING_SEARCH_BUDGET are: no sign but a catalog
        # parameter's `-`, no `_`, no space and no other script's digits
        out = cli("chain-group", *args)
        assert out.returncode == 2
        assert out.stderr == f"error: {message}\n"
        assert out.stdout == ""

    def test_nested_free_product_labels(self):
        out = cli("product", "--catalog", "free:(free:zn:2+zn:3)+zn:2",
                  "1:[1:g1*2:g1]", "1:[2:g2*1:g1]")
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["support"] == {"e": 1}
        out = cli("product", "--catalog", "free:(free:zn:2+zn:3)+zn:2", "1:[1:g1]", "2:g1")
        assert out.returncode == 2 and "unknown label" in out.stderr

    def test_zero_multiplicity_in_map_file_rejected(self, tmp_path):
        rfile = tmp_path / "zero.json"
        rfile.write_text(json.dumps(
            {"source": "zn:2", "target": "zn:2",
             "map": [{"from": "e", "to": [{"label": "e", "n": 1}]},
                     {"from": "g1", "to": [{"label": "g1", "n": 1},
                                           {"label": "e", "n": 0}]}]}))
        out = cli("is-central", "--catalog", "zn:2", "--restriction", str(rfile))
        assert out.returncode == 2
        assert any(l.startswith("error:") and "multiplicity" in l
                   for l in out.stderr.splitlines())
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("command", ["is-normal", "is-central"])
    def test_ring_option_must_be_the_restriction_source(self, command):
        parity = str(DATA / "parity.json")
        out = cli(command, "--catalog", "reps3", "--restriction", parity)
        assert out.returncode == 2
        assert "error: --catalog 'reps3' is not the restriction's source 'su2'" in out.stderr
        assert "Traceback" not in out.stderr
        assert out.stdout == ""
        out = cli(command, "--catalog", "su2", "--restriction", parity)
        assert out.returncode == 0, out.stderr
        out = cli(command, "--ring", str(DATA / "reps3.json"),
                  "--restriction", str(DATA / "trivial.json"))
        assert out.returncode == 0, out.stderr

    def test_generated_source_with_map_file_rejected(self, tmp_path):
        rfile = tmp_path / "bad.json"
        rfile.write_text(json.dumps(
            {"source": "su2", "target": "zn:2",
             "map": [{"from": "V0", "to": [{"label": "e", "n": 1}]}]}))
        out = cli("is-normal", "--catalog", "su2", "--restriction", str(rfile))
        assert out.returncode == 2


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("chain-group", "--catalog", "su2"),
        ("center", "--catalog", "repz4"),
        ("cosets", "--catalog", "repz4", "--sigma", "chi0,chi2"),
        ("automorphisms", "--catalog", "klein"),
    ])
    def test_byte_identical_runs(self, args):
        outs = {cli(*args).stdout for _ in range(3)}
        assert len(outs) == 1


def test_cli_imports_no_click():
    # the command line runs on the standard library alone
    out = subprocess.run([sys.executable, "-c", "import sys, fusionrings.cli; "
                          "sys.exit('click' in sys.modules)"], capture_output=True)
    assert out.returncode == 0, out.stderr


def test_cli_imports_no_dataclasses_or_inspect():
    # records are plain classes and errors go to stderr by `print`: a CLI
    # process loads none of these modules
    out = subprocess.run([sys.executable, "-c", "import sys, fusionrings.cli; print(sorted("
                          "{'dataclasses', 'inspect', 'logging'} & set(sys.modules)))"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("where", ["root", "elsewhere"])
def test_restriction_paths_resolve_beside_the_restriction_file(where, tmp_path):
    # ident.json names its source "reps3.json", the file beside it, and its
    # target "reps3", which is no file there and so a catalog name
    cwd, path = ((ROOT, "tests/data/ident.json") if where == "root"
                 else (tmp_path, str(DATA / "ident.json")))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    out = cli("is-normal", "--restriction", path, cwd=cwd, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stdout == '{"checked_depth":null,"normal":true,"witness":null}\n'
