"""End-to-end command-line runs: exit codes, report schemas, determinism."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest

from bimodfusion import mtc, reports
from bimodfusion.catalog import CATALOG_NAMES, catalog_document
from bimodfusion.cli import main

from conftest import FIXTURES, fixture_path, load_fixture, load_golden, overflowing_fibonacci_doc


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


def triples_of(doc):
    return [(row["kappa"], row["kappa_p"], row["j"]) for row in doc["triples"]]


def test_defect_check_samples_distinct_triples(capsys):
    """Seed 2 draws (6, 4, 0) twice among su2_4 D-even's 320 triples: the
    repeat is replaced by a further draw, and the other 19 keep their
    draws and their order."""
    code, doc = run_json(capsys, "defect-check", "--cat", "catalog:su2_4",
                         "--alg", fixture_path("su2_4_deven.alg.json"), "--seed", "2")
    assert code == 0
    triples = triples_of(doc)
    assert doc["count"] == len(set(triples)) == 20
    draws = np.random.default_rng(2).integers(0, 8 * 8 * 5, size=20)
    first = list(dict.fromkeys(np.unravel_index(t, (8, 8, 5)) for t in draws.tolist()))
    assert len(first) == 19
    assert triples[:19] == first


@pytest.mark.parametrize("count", ["5", "8", "20"])
def test_defect_check_sample_count_caps_at_every_triple(capsys, count):
    """fibonacci with A = 1 has 8 triples: a count of 8 or more checks
    them all, in the order of --triples all."""
    argv = ["defect-check", "--cat", "catalog:fibonacci", "--alg", "trivial"]
    _, every = run_json(capsys, *argv, "--triples", "all")
    code, doc = run_json(capsys, *argv, "--triples", count)
    assert code == 0
    triples = triples_of(doc)
    assert len(set(triples)) == len(triples) == min(int(count), 8)
    if int(count) >= 8:
        assert doc == every


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


def _unit_channel_for_t(doc):
    doc["fusion"].append({"a": "1", "b": "t", "c": "1", "mult": 1})


def _singular_f_block(doc):
    for ent in doc["F"]:
        if [ent[k] for k in "abcd"] == ["t", "t", "t", "t"]:
            ent["val"] = [1.0, 0.0]


@pytest.mark.parametrize("edit, identity", [
    (_unit_channel_for_t, "fusion-unit"),
    (_singular_f_block, "f-invertibility"),
])
def test_fibonacci_edits_fail_their_identity(capsys, tmp_path, edit, identity):
    doc = catalog_document("fibonacci")
    edit(doc)
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "validate", str(path))
    assert code == 1
    assert rep["error"] == "AxiomViolation"
    assert rep["identity"] == identity


# -- the table format ---------------------------------------------------------------

@pytest.mark.parametrize("command, rows", [
    ("validate", ["labels:", "  [1, e, m, f]", "rank: 4"]),
    ("smatrix", ["s:", "  1+0j   1+0j   1+0j   1+0j", "  1+0j   1+0j  -1+0j  -1+0j",
                 "  1+0j  -1+0j   1+0j  -1+0j", "  1+0j  -1+0j  -1+0j   1+0j",
                 "symmetry_residual: 0"]),
    ("algebra-check", ["residuals:", "  associativity: 0"]),
    ("z", ["z:", "  1  1  0  0", "  1  1  0  0", "  0  0  0  0", "  0  0  0  0",
           "trace: 2"]),
    ("simples", ["  [2]", "    index: 2", "    profile:", "      [1, 1, 0, 0]"]),
    ("fusion", ["unit: 2", "table:", "  [0]", "    0  0  1  0", "    0  0  0  1",
                "    1  0  0  0", "    0  1  0  0", "  [1]"]),
    ("blockdiag", ["route: blockdiag", "sigma_min: 2"]),
    ("verify-o", ["P:", "  0  0", "  0  1", "  1  0", "  1  1", "n:", "  0,0: 1"]),
    ("defect-check", ["  [1]", "    kappa: 0", "    kappa_p: 0", "    j: 1",
                      "    lhs: 2+0j", "    rhs: 2+0j", "    residual: 0"]),
    ("catalog", ["entries:", "  [0]", "    name: trivial", "    rank: 1", "    labels:",
                 "      [1]"]),
])
def test_table_format_renders_grids_and_complex_numbers(capsys, command, rows):
    """Every subcommand on toric_code 1⊕e in the default table format: the
    report holds the given consecutive rows, and a second run prints the
    same bytes."""
    argv = [command, "--cat", "catalog:toric_code", "--alg", fixture_path("ze.alg.json")]
    # validate and smatrix read no algebra, catalog neither input
    argv = argv[:{"validate": 3, "smatrix": 3, "catalog": 1}.get(command, 5)]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert "\n" + "\n".join(rows) + "\n" in "\n" + out
    assert run(capsys, *argv) == (0, out, "")


def test_table_format_of_arrays_and_numpy_scalars():
    doc = {"m": np.array([[1, -20], [300, 4]]), "x": np.float64(0.25),
           "c": np.complex128(1 - 2j), "rows": [[True, None], ["ab", 1.5, 7]]}
    assert reports.render_table(doc) == (
        "m:\n    1  -20\n  300    4\nx: 0.25\nc: 1-2j\n"
        "rows:\n  True  None\n    ab   1.5  7\n")


def test_reports_reject_unknown_values():
    with pytest.raises(TypeError, match="cannot serialize a object"):
        reports.plain({"x": [object()]})


# -- usage errors -----------------------------------------------------------------

#: stands for a document of 200,000 "[" written by the test
DEEP = "<deeply nested document>"


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
    ["z", "--cat", "catalog:fibonacci", "--alg", "/definitely/not/here.alg.json"],
    ["z", "--cat", "catalog:fibonacci", "--alg", FIXTURES],   # a directory
    *[["defect-check", "--cat", "catalog:su2_4", "--alg", fixture_path("su2_4_deven.alg.json"),
       "--triples", count] for count in ("abc", "0", "-3")],
    *[["verify-o", "--cat", "catalog:fibonacci", "--alg", "trivial", "--seed", seed]
      for seed in ("-1", "abc")],                              # bad seed
    ["validate", fixture_path("not_utf8.json")],               # not UTF-8
    ["z", "--cat", "catalog:fibonacci", "--alg", fixture_path("not_utf8.json")],
    ["validate", DEEP],                                        # nested too deeply
    ["z", "--cat", "catalog:fibonacci", "--alg", DEEP],
    ["validate", "catalog:fibonacci", "--cat", "catalog:ising"],  # two categories
    ["smatrix", "--cat", "catalog:fibonacci", "--alg", "/no/such/file"],  # unread option
    ["catalog", "--cat", "/no", "--alg", "/no", "--seed", "3"],
])
def test_usage_errors_exit_2(capsys, tmp_path, argv):
    if DEEP in argv:
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000)
        argv = [str(deep) if arg == DEEP else arg for arg in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""


#: subcommand -> the shared options it does not read
UNREAD = {
    "validate": ("--alg", "--seed"),
    "smatrix": ("--alg", "--seed"),
    "algebra-check": ("--seed",),
    "z": ("--seed",),
    "catalog": ("--cat", "--alg", "--seed"),
}


@pytest.mark.parametrize("command, option",
                         [(c, o) for c, options in UNREAD.items() for o in options])
def test_unread_options_are_usage_errors(capsys, command, option):
    """An option that a subcommand does not read is rejected, not ignored,
    and its ``--help`` does not list it."""
    category = {"validate": ["catalog:fibonacci"], "catalog": []}.get(
        command, ["--cat", "catalog:fibonacci"])
    code, out, err = run(capsys, command, *category, option, "1")
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {option} 1" in err
    assert f"{option} " not in run(capsys, command, "--help")[1]


def test_validate_takes_its_category_once(capsys):
    """The positional document and --cat name the same input."""
    code, out, err = run(capsys, "validate", "catalog:fibonacci", "--cat", "catalog:ising")
    assert (code, out) == (2, "")
    assert "argument --cat: not allowed with argument doc" in err
    assert run(capsys, "validate", "catalog:ising")[:2] == run(
        capsys, "validate", "--cat", "catalog:ising")[:2]


def strict_loads(text):
    """``json.loads`` that rejects the bare tokens Infinity and NaN, as
    strict JSON parsers do."""
    def reject(token):
        raise ValueError(f"not JSON: {token}")

    return json.loads(text, parse_constant=reject)


def test_non_finite_numbers_are_named():
    text = reports.to_json({"x": [math.inf, -np.inf, np.float64("nan")], "f": 0.5,
                            "z": complex(math.inf, math.nan)})
    assert strict_loads(text) == {"f": 0.5, "x": ["Infinity", "-Infinity", "NaN"],
                                  "z": ["Infinity", "NaN"]}


def test_non_finite_residuals_are_strict_json(capsys, tmp_path):
    """An overflowing pentagon is reported as the string "Infinity"."""
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(overflowing_fibonacci_doc()))
    code, out, _ = run(capsys, "validate", str(path), "--format", "json")
    doc = strict_loads(out)
    assert code == 1
    assert doc["residuals"]["pentagon"] == "Infinity"
    assert doc["max_residual"] == "Infinity"


def test_bad_triples_exit_2_before_reading_documents(capsys):
    code, out, err = run(capsys, "defect-check", "--cat", "/definitely/not/here.json",
                         "--alg", "trivial", "--triples", "0")
    assert code == 2
    assert out == ""
    assert "--triples" in err


@pytest.mark.parametrize("section, key, value", [
    ("m", "j", None),          # missing label field
    ("m", "mu", 0.5),          # non-integer channel
    ("delta", "a", "0"),       # copy index given as a string
    ("eta", "c", None),
    ("eps", "val", None),
])
def test_malformed_algebra_entry_exits_2(capsys, tmp_path, section, key, value):
    doc = load_fixture("broken_frobenius.alg.json")
    if value is None:
        del doc[section][0][key]
    else:
        doc[section][0][key] = value
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "algebra-check", "--cat", "catalog:toric_code",
                         "--alg", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {section} entry 0")
    assert key in err


def test_boolean_algebra_multiplicity_exits_2(capsys, tmp_path):
    doc = load_fixture("ze.alg.json")
    doc["mult"]["1"] = True
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "z", "--cat", "catalog:toric_code", "--alg", str(path))
    assert code == 2
    assert out == ""
    assert "multiplicity" in err


def test_algebra_multiplicity_beyond_its_product_entries_exits_2(capsys, tmp_path):
    """Each copy needs an m entry for the unit law, so 10**30 copies of e
    are a parse error, found before one word per copy is built."""
    doc = load_fixture("ze.alg.json")
    doc["mult"]["e"] = 10**30
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "z", "--cat", "catalog:toric_code", "--alg", str(path))
    assert code == 2
    assert out == ""
    assert "multiplicities total" in err


@pytest.mark.parametrize("mult", [0, 1])
def test_unknown_algebra_label_exits_2_whatever_its_multiplicity(capsys, tmp_path, mult):
    doc = load_fixture("ze.alg.json")
    doc["mult"]["q"] = mult
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "algebra-check", "--cat", "catalog:toric_code",
                         "--alg", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: unknown label 'q'")


def test_fusion_mult_beyond_integer_range_exits_2(capsys, tmp_path):
    doc = catalog_document("fibonacci")
    doc["fusion"][0]["mult"] = 10**30
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", "--cat", str(path), "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: fusion: mult must be at most 9223372036854775807, "
                          f"got {10**30}")


def _nan_f_cell(cat, alg):
    ent = next(ent for ent in cat["F"]
               if [ent[k] for k in "abcdef"] == ["t", "t", "t", "1", "t", "t"])
    ent["val"] = [float("nan"), 0.0]


def _nan_twist(cat, alg):
    cat["twist"]["t"] = [float("nan"), 0.0]


def _inf_m_value(cat, alg):
    alg["m"][3]["val"] = [1.0, float("-inf")]


def _huge_int_twist(cat, alg):
    cat["twist"]["t"] = [10**400, 0]


@pytest.mark.parametrize("name, edit, command, where", [
    ("fibonacci", _nan_f_cell, "validate", "F[t,t,t;1]"),
    ("fibonacci", _nan_twist, "validate", "twist[t]"),
    ("toric_code", _inf_m_value, "algebra-check", "m entry"),
    ("fibonacci", _huge_int_twist, "validate", "twist[t]"),
])
def test_non_finite_value_exits_2(capsys, tmp_path, name, edit, command, where):
    """A NaN or infinite part of a complex value is a parse error."""
    cat, alg = catalog_document(name), load_fixture("ze.alg.json")
    edit(cat, alg)
    cat_path, alg_path = tmp_path / "cat.json", tmp_path / "alg.json"
    cat_path.write_text(json.dumps(cat))
    alg_path.write_text(json.dumps(alg))
    algebra = ["--alg", str(alg_path)] if command == "algebra-check" else []
    code, out, err = run(capsys, command, "--cat", str(cat_path), *algebra, "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {where}: complex values must be finite")


@pytest.mark.parametrize("argv", [
    ["validate", "--cat", "catalog:fibonacci"],
    ["validate", fixture_path("broken_pentagon.cat.json")],   # an error report
])
def test_unwritable_out_exits_2(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, *argv, "--format", "json", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write report to {target}: ")
    assert not target.exists()


@pytest.mark.parametrize("section, edit, message", [
    ("m", lambda ents: ents.insert(0, dict(ents[0], val=[5.0, 0.0])),
     "m entry 1 gives the cell of m entry 0 again"),
    ("eta", lambda ents: ents.append(dict(ents[0])),
     "eta entry 1 gives the cell of eta entry 0 again"),
], ids=["m", "eta"])
def test_repeated_algebra_cell_exits_2(capsys, tmp_path, section, edit, message):
    """A repeated cell is a parse error, not last-wins, even with an equal value."""
    doc = load_fixture("ze.alg.json")
    edit(doc[section])
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "algebra-check", "--cat", "catalog:toric_code",
                         "--alg", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_category_section_not_a_list_of_objects_exits_2(capsys, tmp_path):
    doc = catalog_document("fibonacci")
    doc["F"] = [1]
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", "--cat", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: F entry 0 must be an object")


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
