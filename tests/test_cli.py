"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys

import pytest

import fusionrings as fr

RUN = [sys.executable, "-m", "fusionrings.cli"]


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
    ])
    def test_malformed_input_is_input_error(self, tmp_path, args):
        missing = str(tmp_path / "missing.json")
        out = cli(*(a.replace("{missing}", missing) for a in args))
        assert out.returncode == 2
        assert any(l.startswith("error:") for l in out.stderr.splitlines())
        if args[0] == "product":
            assert "error: unknown label 'X3'" in out.stderr.splitlines()
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("args, edit", [
        (("chain-group", "--catalog", "su2", "--depth", "-1"), None),
        (("validate", "--ring", "{file}"), ("ring", "unit", ["1"])),
        (("validate", "--ring", "{file}"), ("ring", "dual", ["1", "sgn", "rho"])),
        (("is-normal", "--catalog", "su2", "--restriction", "{file}"),
         ("restriction", "source", 5)),
        (("is-normal", "--catalog", "reps3", "--restriction", "{file}"),
         ("restriction", "map", [{"from": "1", "to": [{"label": "1", "n": "x"}]}])),
    ], ids=["negative-depth", "unit-list", "dual-list", "source-int", "multiplicity-str"])
    def test_malformed_file_or_option_is_input_error(self, tmp_path, args, edit):
        path = tmp_path / "input.json"
        if edit is not None:
            kind, key, value = edit
            if kind == "ring":
                fr.save_ring(fr.rep_s3_ring(), path)
                doc = json.loads(path.read_text())
            else:
                doc = {"source": "reps3", "target": "reps3", "map": []}
            doc[key] = value
            path.write_text(json.dumps(doc))
        out = cli(*(a.replace("{file}", str(path)) for a in args))
        assert out.returncode == 2
        assert any(l.startswith("error:") for l in out.stderr.splitlines())
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    @pytest.mark.parametrize("catalog, code, message", [
        ("free:(free:zn:2+zn:3)+zn:2", 0, None),
        ("free:(prod:zn:2+zn:2)+zn:3", 0, None),
        ("free:su2", 2, "its second factor is missing"),
        ("prod:+zn:2", 2, "its first factor is missing"),
        ("free:zn:2+free:zn:2+zn:3", 0, None),  # the first top-level + splits
        ("free:+", 2, "its first factor is missing"),
    ])
    def test_nested_product_names(self, catalog, code, message):
        out = cli("validate", "--catalog", catalog, "--depth", "2", "--format", "table")
        assert out.returncode == code, out.stderr
        if message is None:
            assert out.stdout == "valid (checked to depth 2)\n"
        else:
            assert message in out.stderr and "Traceback" not in out.stderr

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
