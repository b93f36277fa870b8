from __future__ import annotations

import copy
import math

import numpy as np
import pytest

from bimodfusion import mtc
from bimodfusion.catalog import CATALOG_NAMES, catalog, catalog_document
from bimodfusion.errors import (
    AxiomViolation,
    InvalidTolerance,
    MissingSymbol,
    ParseError,
    UnknownCatalogName,
)
from conftest import get_catalog

RANKS = {
    "trivial": 1, "vec_z2": 2, "vec_z3": 3, "vec_z4": 4, "vec_z5": 5,
    "fibonacci": 2, "ising": 3, "toric_code": 4,
    "su2_1": 2, "su2_2": 3, "su2_3": 4, "su2_4": 5,
}


def test_catalog_names_and_ranks():
    assert set(RANKS) == set(CATALOG_NAMES)
    for name in CATALOG_NAMES:
        entry = get_catalog(name)
        assert entry.name == name
        assert entry.data.rank == RANKS[name]
        assert entry.provenance


def test_unknown_catalog_name():
    with pytest.raises(UnknownCatalogName):
        catalog("su2_9000")


def test_trivial_category():
    data = get_catalog("trivial").data
    assert data.rank == 1
    assert data.N[0, 0, 0] == 1
    assert data.twist[0] == 1.0


def test_loaded_data_is_immutable():
    data = catalog("fibonacci").data
    with pytest.raises(ValueError):
        data.N[0, 0, 0] = 7
    with pytest.raises(ValueError):
        data.twist[1] = 0.0
    with pytest.raises(ValueError):
        data.fmat(1, 1, 1, 1)[0, 0] = 2.0


def test_fibonacci_f_values():
    data = get_catalog("fibonacci").data
    phi = (1 + math.sqrt(5)) / 2
    got = data.fmat(1, 1, 1, 1)
    want = np.array([
        [1 / phi, 1 / math.sqrt(phi)],
        [1 / math.sqrt(phi), -1 / phi],
    ])
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert abs(data.f(1, 1, 1, 0, 1, 1) - 1.0) < 1e-12
    # unit-gauge F-matrices materialize as identities
    np.testing.assert_allclose(data.fmat(0, 1, 1, 0), np.eye(1), atol=0)


def test_ising_r_values():
    data = get_catalog("ising").data
    s, p = 1, 2
    assert abs(data.r(s, s, 0) - np.exp(-1j * np.pi / 8)) < 1e-12
    assert abs(data.r(s, s, p) - np.exp(3j * np.pi / 8)) < 1e-12
    assert abs(data.r(s, p, s) - (-1j)) < 1e-12
    assert abs(data.r(p, p, 0) - (-1.0)) < 1e-12


def test_perturbed_f_raises_pentagon_violation():
    doc = catalog_document("fibonacci")
    for ent in doc["F"]:
        if ent["e"] == "1" and ent["f"] == "1" and ent["d"] == "t":
            ent["val"][0] += 0.1
    with pytest.raises(AxiomViolation) as exc:
        mtc.load_mtc(doc)
    assert exc.value.identity == "pentagon"
    assert exc.value.max_residual > 1e-3
    assert "pentagon" in exc.value.residuals


def test_perturbed_r_raises_hexagon_violation():
    doc = catalog_document("fibonacci")
    doc["R"][0]["val"] = [1.0, 0.0]
    with pytest.raises(AxiomViolation) as exc:
        mtc.load_mtc(doc)
    assert exc.value.identity in ("hexagon", "hexagon-inverse", "ribbon")
    assert exc.value.max_residual > 1e-3


def test_wrong_twist_raises_ribbon_violation():
    doc = catalog_document("ising")
    doc["twist"]["psi"] = [1.0, 0.0]
    with pytest.raises(AxiomViolation) as exc:
        mtc.load_mtc(doc)
    assert exc.value.identity == "ribbon"


def test_non_modulus_twist_rejected():
    doc = catalog_document("fibonacci")
    doc["twist"]["t"] = [2.0, 0.0]
    with pytest.raises(AxiomViolation) as exc:
        mtc.load_mtc(doc)
    assert exc.value.identity == "twist-modulus"


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 1e-3])
def test_non_finite_tolerance_rejected(tol):
    # every `residual > tol` comparison is False at nan and inf, so all data
    # would pass; above MAX_TOL the derived thresholds make checks vacuous
    with pytest.raises(InvalidTolerance):
        mtc.load_mtc(catalog_document("ising"), tol=tol)


def test_missing_f_entry_raises():
    doc = catalog_document("fibonacci")
    doc["F"] = [ent for ent in doc["F"] if not (ent["e"] == "1" and ent["f"] == "1")]
    with pytest.raises(MissingSymbol):
        mtc.load_mtc(doc)


def test_missing_r_entry_raises():
    doc = catalog_document("ising")
    doc["R"] = doc["R"][1:]
    with pytest.raises(MissingSymbol):
        mtc.load_mtc(doc)


@pytest.mark.parametrize("mangle", [
    lambda d: d.pop("labels"),
    lambda d: d.__setitem__("labels", ["1", "1"]),
    lambda d: d.__setitem__("unit", "t"),
    lambda d: d["dual"].__setitem__("t", "nope"),
    lambda d: d["fusion"].append({"a": "t", "b": "t", "c": "zzz", "mult": 1}),
    lambda d: d["fusion"].__setitem__(0, {"a": "1", "b": "1", "c": "1", "mult": -2}),
    lambda d: d["F"][0].__setitem__("val", [1.0]),
    lambda d: d["F"][0].__setitem__("mu", 3),
    lambda d: d["R"].append(
        {"a": "t", "b": "t", "c": "t", "mu": 1, "nu": 0, "val": [1.0, 0.0]}
    ),
    lambda d: d["twist"].pop("t"),
])
def test_malformed_documents_raise_parse_error(mangle):
    doc = catalog_document("fibonacci")
    mangle(doc)
    with pytest.raises(ParseError):
        mtc.load_mtc(doc)


def test_entries_for_zero_channels_rejected():
    doc = catalog_document("ising")
    doc["F"].append({
        "a": "psi", "b": "psi", "c": "psi", "d": "sigma",
        "e": "1", "f": "1", "val": [1.0, 0.0],
    })
    with pytest.raises(ParseError):
        mtc.load_mtc(doc)


def test_explicit_unit_gauge_entries_accepted_if_identity():
    doc = catalog_document("fibonacci")
    doc["F"].append({
        "a": "1", "b": "t", "c": "t", "d": "1", "e": "t", "f": "1", "val": [1.0, 0.0],
    })
    data = mtc.load_mtc(doc)
    assert data.rank == 2
    doc["F"][-1]["val"] = [0.3, 0.0]
    with pytest.raises(AxiomViolation) as exc:
        mtc.load_mtc(doc)
    assert exc.value.identity == "unit-gauge"


def test_document_round_trip():
    for name in ("fibonacci", "ising", "su2_2", "vec_z4"):
        data = get_catalog(name).data
        doc = mtc.to_document(data)
        again = mtc.load_mtc(doc, tol=data.tol)
        assert again.labels == data.labels
        np.testing.assert_array_equal(again.N, data.N)
        for quad in data._fmats:
            np.testing.assert_allclose(again.fmat(*quad), data.fmat(*quad), atol=1e-14)


def test_gauge_transform_identity_is_noop():
    data = get_catalog("ising").data
    same = mtc.gauge_transform(data, {})
    for quad in data._fmats:
        np.testing.assert_allclose(same.fmat(*quad), data.fmat(*quad), atol=1e-14)


def test_random_gauge_preserves_axioms_and_changes_f():
    rng = np.random.default_rng(11)
    data = get_catalog("fibonacci").data
    moved = mtc.random_gauge(data, rng)  # load_mtc inside revalidates all axioms
    assert moved.rank == data.rank
    assert np.max(np.abs(moved.fmat(1, 1, 1, 1) - data.fmat(1, 1, 1, 1))) > 1e-3


# ---------------------------------------------------------------------------
# S-matrix (diagram-engine backed)
# ---------------------------------------------------------------------------

def test_smatrix_trivial():
    s = mtc.s_matrix(get_catalog("trivial").data).entries
    np.testing.assert_allclose(s, [[1.0]], atol=1e-12)


def test_smatrix_fibonacci():
    phi = (1 + math.sqrt(5)) / 2
    s = mtc.s_matrix(get_catalog("fibonacci").data).entries
    np.testing.assert_allclose(s, [[1, phi], [phi, -1]], atol=1e-9)


def test_smatrix_toric_code():
    s = mtc.s_matrix(get_catalog("toric_code").data).entries
    want = np.array([
        [1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1],
    ], dtype=float)
    np.testing.assert_allclose(s, want, atol=1e-9)


def test_smatrix_ising():
    s = mtc.s_matrix(get_catalog("ising").data).entries
    r2 = math.sqrt(2)
    want = np.array([[1, r2, 1], [r2, 0, -r2], [1, -r2, 1]], dtype=float)
    np.testing.assert_allclose(s, want, atol=1e-9)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_smatrix_su2k_closed_form(k):
    s = mtc.s_matrix(get_catalog(f"su2_{k}").data).entries
    n = k + 1
    want = np.array([
        [math.sin(math.pi * (a + 1) * (b + 1) / (k + 2)) / math.sin(math.pi / (k + 2))
         for b in range(n)]
        for a in range(n)
    ])
    np.testing.assert_allclose(s, want, atol=1e-9)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_smatrix_vec_zn_closed_form(n):
    s = mtc.s_matrix(get_catalog(f"vec_z{n}").data).entries
    q = np.exp((4j if n % 2 else 2j) * np.pi / n)
    want = np.array([[q ** (a * b) for b in range(n)] for a in range(n)])
    np.testing.assert_allclose(s, want, atol=1e-9)


def test_verify_modular_all_catalog(catalog_entry):
    rep = mtc.verify_modular(catalog_entry.data)
    assert rep["symmetry_residual"] < 1e-9
    assert rep["max_dim_residual"] < 1e-9
    assert rep["modular"] is True


def _symmetric_z2_doc():
    """Z2 data with the symmetric (trivial) braiding: valid but not modular."""
    doc = catalog_document("vec_z2")
    doc["R"] = [{"a": "1", "b": "1", "c": "0", "val": [1.0, 0.0]}]
    doc["F"] = [{"a": "1", "b": "1", "c": "1", "d": "1", "e": "0", "f": "0",
                 "val": [1.0, 0.0]}]
    doc["twist"] = {"0": [1.0, 0.0], "1": [1.0, 0.0]}
    return doc


def test_verify_modular_degenerate_case():
    data = mtc.load_mtc(_symmetric_z2_doc())
    rep = mtc.verify_modular(data)
    assert rep["modular"] is False
    s = mtc.s_matrix(data).entries
    np.testing.assert_allclose(s, [[1, 1], [1, 1]], atol=1e-9)
