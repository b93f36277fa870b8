"""End-to-end command-line runs: exit codes, report schemas, determinism."""
from __future__ import annotations

import json

import numpy as np
import pytest

from bimodfusion import mtc
from bimodfusion.catalog import CATALOG_NAMES
from bimodfusion.cli import main

from conftest import fixture_path, load_golden


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


# -- the documented happy paths ------------------------------------------------

def test_verify_o_trivial_fibonacci(capsys):
    code, doc = run_json(capsys, "verify-o", "--cat", "catalog:fibonacci",
                         "--alg", "trivial")
    assert code == 0
    assert set(doc) == {"P", "n", "K", "z", "fusion_direct",
                        "fusion_blockdiag", "residuals", "pass"}
    assert doc["pass"] is True
    assert doc["K"] == 2
    assert doc["z"] == [[1, 0], [0, 1]]
    assert doc["fusion_direct"] == doc["fusion_blockdiag"]


def test_z_matrix_toric(capsys):
    code, doc = run_json(capsys, "z", "--cat", "catalog:toric_code",
                         "--alg", fixture_path("ze.alg.json"))
    assert code == 0
    gold = load_golden("bimod_toric_ze.json")
    assert doc["z"] == gold["z"]
    assert doc["trace"] == gold["tr_z"]
    assert doc["pair_count"] == gold["pair_count"]


def test_validate_catalog_entry(capsys):
    code, out, _ = run(capsys, "validate", "--cat", "catalog:ising")
    assert code == 0
    assert "pass: True" in out
    assert "modular: True" in out


def test_smatrix_reports_entries_and_modularity(capsys):
    code, doc = run_json(capsys, "smatrix", "--cat", "catalog:toric_code")
    assert code == 0
    assert doc["modular"] is True
    s = doc["s"]
    assert s[0][0] == [1.0, 0.0]
    assert len(s) == 4 and all(len(row) == 4 for row in s)
    flat = np.array(s, dtype=float)
    assert np.allclose(flat, np.transpose(flat, (1, 0, 2)), atol=1e-12)


def test_algebra_check_good_doc(capsys):
    code, doc = run_json(capsys, "algebra-check", "--cat", "catalog:toric_code",
                         "--alg", fixture_path("ze.alg.json"))
    assert code == 0
    assert doc["pass"] is True
    assert max(doc["residuals"].values()) < 1e-9


def test_simples_match_golden_profiles(capsys):
    code, doc = run_json(capsys, "simples", "--cat", "catalog:toric_code",
                         "--alg", fixture_path("ze.alg.json"))
    assert code == 0
    gold = load_golden("bimod_toric_ze.json")
    assert doc["count"] == len(gold["simple_profiles"])
    assert [s["profile"] for s in doc["simples"]] == gold["simple_profiles"]


def test_fusion_routes_agree_with_golden(capsys):
    gold = load_golden("fusion_toric_ze.json")
    code, direct = run_json(capsys, "fusion", "--cat", "catalog:toric_code",
                            "--alg", fixture_path("ze.alg.json"))
    assert code == 0
    assert direct["pass"] is True
    assert direct["table"] == gold["table"]
    assert direct["unit"] == gold["unit"]
    code, bd = run_json(capsys, "blockdiag", "--cat", "catalog:toric_code",
                        "--alg", fixture_path("ze.alg.json"))
    assert code == 0
    assert bd["table"] == gold["table"]
    assert bd["sigma_min"] > 1e-6
    assert set(bd["axioms"].values()) == {0}


def test_defect_check_exhausts_small_cases(capsys):
    code, doc = run_json(capsys, "defect-check", "--cat", "catalog:fibonacci",
                         "--alg", "trivial")
    assert code == 0
    assert doc["pass"] is True
    assert doc["count"] == 2 * 2 * 2
    assert doc["max_residual"] < 1e-9


def test_defect_check_sampled(capsys):
    code, doc = run_json(capsys, "defect-check", "--cat", "catalog:toric_code",
                         "--alg", fixture_path("ze.alg.json"),
                         "--triples", "5", "--seed", "11")
    assert code == 0
    assert doc["count"] == 5
    assert doc["pass"] is True


def test_catalog_lists_builtins(capsys):
    code, doc = run_json(capsys, "catalog")
    assert code == 0
    assert [e["name"] for e in doc["entries"]] == list(CATALOG_NAMES)
    assert all(e["rank"] == len(e["labels"]) for e in doc["entries"])


def test_out_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "z", "--cat", "catalog:toric_code",
                       "--alg", fixture_path("ze.alg.json"),
                       "--format", "json", "--out", str(target))
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["trace"] == 2


# -- injected violations ---------------------------------------------------------

def test_validate_detects_injected_pentagon_violation(capsys):
    code, doc = run_json(capsys, "validate",
                         fixture_path("broken_pentagon.cat.json"))
    assert code == 1
    assert doc["pass"] is False
    assert doc["error"] == "AxiomViolation"
    assert doc["residuals"]["pentagon"] > 1e-3


def test_algebra_check_detects_injected_associativity_violation(capsys):
    code, doc = run_json(capsys, "algebra-check", "--cat", "catalog:toric_code",
                         "--alg", fixture_path("broken_assoc.alg.json"))
    assert code == 1
    assert doc["pass"] is False
    assert doc["residuals"]["associativity"] > 1e-3


def test_algebra_check_detects_injected_frobenius_violation(capsys):
    code, doc = run_json(capsys, "algebra-check", "--cat", "catalog:toric_code",
                         "--alg", fixture_path("broken_frobenius.alg.json"))
    assert code == 1
    assert doc["pass"] is False
    assert doc["residuals"]["frobenius"] > 1e-3


@pytest.mark.parametrize("argv, axiom", [
    (["validate", fixture_path("broken_pentagon.cat.json")], "pentagon"),
    (["algebra-check", "--cat", "catalog:toric_code",
      "--alg", fixture_path("broken_assoc.alg.json")], "associativity"),
    (["algebra-check", "--cat", "catalog:toric_code",
      "--alg", fixture_path("broken_frobenius.alg.json")], "frobenius"),
])
def test_injected_violations_fail_at_the_largest_tolerance(capsys, argv, axiom):
    code, doc = run_json(capsys, *argv, "--tol", str(mtc.MAX_TOL))
    assert code == 1
    assert doc["pass"] is False
    assert doc["residuals"][axiom] > 1e-3


# -- usage errors -----------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["no-such-command"],
    ["z", "--cat", "catalog:toric_code"],                      # --alg missing
    ["z", "--alg", "trivial"],                                 # --cat missing
    ["smatrix", "--cat", "catalog:atlantis"],                  # unknown builtin
    ["validate", "/definitely/not/here.json"],                 # unreadable path
    ["validate", "--cat", "catalog:ising", "--tol", "-1"],     # bad tolerance
    ["defect-check", "--cat", "catalog:fibonacci", "--alg", "trivial",
     "--triples", "sometimes"],                                # bad sample spec
    ["validate", fixture_path("broken_pentagon.cat.json"), "--tol", "nan"],
    ["validate", fixture_path("broken_pentagon.cat.json"), "--tol", "inf"],
    ["validate", fixture_path("broken_pentagon.cat.json"), "--tol", "1e-3"],  # above MAX_TOL
])
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2


def test_malformed_document_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "error" in err


# -- determinism -------------------------------------------------------------------

def test_reports_are_byte_identical_across_runs(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(capsys, "verify-o", "--cat", "catalog:fibonacci",
                         "--alg", "trivial", "--seed", "7",
                         "--format", "json", "--out", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sampled_reports_are_byte_identical_across_runs(capsys, tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(capsys, "defect-check", "--cat", "catalog:toric_code",
                         "--alg", fixture_path("ze.alg.json"),
                         "--triples", "6", "--seed", "3",
                         "--format", "json", "--out", str(p))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
