"""Algebra axioms, counit normalization, and the nondegeneracy pairing."""
from __future__ import annotations

import re
from dataclasses import replace

import numpy as np
import pytest

from bimodfusion import engine as E
from bimodfusion import frobenius as F
from bimodfusion.errors import NotSpecial, ParseError, ShapeError

import oracles
from conftest import get_catalog, load_fixture


@pytest.fixture(scope="module")
def toric():
    return get_catalog("toric_code").data


@pytest.fixture(scope="module")
def ze_doc():
    return load_fixture("ze.alg.json")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_shapes(toric, ze_doc):
    A = F.parse_algebra(toric, ze_doc)
    assert A.obj == ((), (1,))
    assert A.mult == {0: 1, 1: 1}
    assert abs(A.dim - 2.0) < 1e-12


def test_parse_rejects_bad_channel(toric, ze_doc):
    doc = dict(ze_doc, m=ze_doc["m"] + [
        {"i": "e", "a": 0, "j": "e", "b": 0, "k": "e", "c": 0, "mu": 0,
         "val": [1.0, 0.0]}
    ])
    with pytest.raises(ShapeError):
        F.parse_algebra(toric, doc)


@pytest.mark.parametrize("mangle, message", [
    (lambda d: [d], "algebra document must be a JSON object"),
    (lambda d: dict(d, mult={}), "algebra document needs a nonempty 'mult' mapping"),
    (lambda d: dict(d, mult={"1": 0, "e": 0}), "algebra has no nonzero multiplicities"),
    (lambda d: {k: v for k, v in d.items() if k != "eta"},
     "algebra document needs a nonempty 'eta'"),
], ids=["non-object", "empty-mult", "all-zero-mult", "no-eta"])
def test_parse_rejects_malformed_documents(toric, ze_doc, mangle, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        F.parse_algebra(toric, mangle(ze_doc))


def test_parse_rejects_bad_copy_index(toric, ze_doc):
    doc = dict(ze_doc, eta=[{"k": "1", "c": 3, "val": [1.0, 0.0]}])
    with pytest.raises(ShapeError):
        F.parse_algebra(toric, doc)


def test_parse_rejects_eta_off_unit(toric, ze_doc):
    doc = dict(ze_doc, eta=[{"k": "e", "c": 0, "val": [1.0, 0.0]}])
    with pytest.raises(ShapeError):
        F.parse_algebra(toric, doc)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["trivial", "fibonacci", "ising", "su2_3"])
def test_trivial_algebra_everywhere(name):
    C = get_catalog(name).data
    A = F.trivial_algebra(C)
    rep = F.validate_algebra(C, A)
    assert rep["pass"]
    assert max(rep["residuals"].values()) < 1e-12
    An = F.normalize_counit(C, A)
    assert abs((An.eps @ An.eta).scalar() - 1.0) < 1e-12
    assert oracles.nondegeneracy(E, F, C, An).passed


def test_toric_ze_algebra_valid(toric, ze_doc):
    A = F.parse_algebra(toric, ze_doc)
    rep = F.validate_algebra(toric, A)
    assert rep["pass"]
    assert max(rep["residuals"].values()) < 1e-12
    assert rep["simple_dim"] == 1


def test_su2_4_deven_algebra_valid():
    C = get_catalog("su2_4").data
    A = F.parse_algebra(C, load_fixture("su2_4_deven.alg.json"))
    rep = F.validate_algebra(C, A)
    assert rep["pass"]
    assert max(rep["residuals"].values()) < 1e-12
    assert rep["simple_dim"] == 1


def test_perturbed_unit_component_fails(toric, ze_doc):
    doc = dict(ze_doc)
    doc["m"] = [dict(ent) for ent in ze_doc["m"]]
    doc["m"][1]["val"] = [1.1, 0.0]  # the 1·e -> e component
    A = F.parse_algebra(toric, doc)
    rep = F.validate_algebra(toric, A)
    assert not rep["pass"]
    assert rep["residuals"]["associativity"] > 1e-3
    assert rep["residuals"]["unit"] > 1e-3


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_counit_gives_dim(toric, ze_doc):
    A = F.normalize_counit(toric, F.parse_algebra(toric, ze_doc))
    assert abs((A.eps @ A.eta).scalar() - 2.0) < 1e-12
    md = A.m @ A.delta
    assert (md - E.identity(toric, A.obj)).norm() < 1e-12


def test_normalize_counit_idempotent(toric, ze_doc):
    A1 = F.normalize_counit(toric, F.parse_algebra(toric, ze_doc))
    A2 = F.normalize_counit(toric, A1)
    assert (A1.delta - A2.delta).norm() < 1e-14
    assert (A1.eps - A2.eps).norm() < 1e-14


def test_normalized_counit_is_trace_form(toric, ze_doc):
    A = F.normalize_counit(toric, F.parse_algebra(toric, ze_doc))
    assert (A.eps - F.derived_counit(toric, A)).norm() < 1e-12


def test_zero_product_not_special(toric):
    # one explicit zero entry into each copy: fewer entries do not parse
    zero = {"a": 0, "b": 0, "c": 0, "mu": 0, "val": [0.0, 0.0]}
    doc = {
        "mult": {"1": 1, "e": 1},
        "m": [dict(zero, i="1", j="1", k="1"), dict(zero, i="1", j="e", k="e")],
        "eta": [{"k": "1", "c": 0, "val": [1.0, 0.0]}],
    }
    A = F.parse_algebra(toric, doc)
    assert A.m.norm() == 0
    with pytest.raises(NotSpecial):
        F.normalize_counit(toric, A)


def test_zero_scale_fails_both_checks(toric, ze_doc):
    """m∘Δ = 1e-8·id is not special: algebra-check and the counit
    normalization apply one rule to the scale of m∘Δ."""
    A = F.normalize_counit(toric, F.parse_algebra(toric, ze_doc))
    A = replace(A, delta=1e-8 * A.delta, eps=1e8 * A.eps)
    rep = F.validate_algebra(toric, A)
    assert rep["residuals"]["special"] == 1.0
    assert not rep["pass"]
    with pytest.raises(NotSpecial):
        F.normalize_counit(toric, A)


@pytest.mark.parametrize("entries", [0, 3])
def test_parse_rejects_more_copies_than_product_entries(toric, ze_doc, entries):
    """The unit law puts an m entry into each copy, so two copies need
    two entries and 1 ⊕ 3·e needs four."""
    mult = {"1": 1, "e": 1} if entries == 0 else {"1": 1, "e": 3}
    doc = dict(ze_doc, mult=mult, m=ze_doc["m"][:entries])
    with pytest.raises(ParseError, match="multiplicities total"):
        F.parse_algebra(toric, doc)


# ---------------------------------------------------------------------------
# nondegeneracy of the induced pairing
# ---------------------------------------------------------------------------

def test_nondegeneracy_toric(toric, ze_doc):
    A = F.normalize_counit(toric, F.parse_algebra(toric, ze_doc))
    rep = oracles.nondegeneracy(E, F, toric, A)
    assert rep.passed
    assert rep.iso_residual < 1e-9
    assert rep.rank == E.hom_dim(toric, A.obj, E.dual_obj(toric, A.obj))


def test_null_generator_breaks_nondegeneracy(toric, ze_doc):
    # keep associativity and unit, but make the e-component pairing vanish
    doc = dict(ze_doc)
    doc["m"] = [dict(ent) for ent in ze_doc["m"]]
    doc["m"][3]["val"] = [0.0, 0.0]  # e·e -> 1
    A = F.parse_algebra(toric, doc)
    rep = F.validate_algebra(toric, A)
    assert rep["residuals"]["associativity"] < 1e-12
    assert rep["residuals"]["unit"] < 1e-12
    nd = oracles.nondegeneracy(E, F, toric, A)
    assert not nd.passed
    assert nd.rank == 1


@pytest.mark.parametrize("name,fixture", [
    ("toric_code", "ze.alg.json"),
    ("su2_4", "su2_4_deven.alg.json"),
])
def test_ssf_implies_nondegenerate_under_basis_change(name, fixture):
    C = get_catalog(name).data
    A = F.parse_algebra(C, load_fixture(fixture))
    rng = np.random.default_rng(2024)
    for _ in range(3):
        Ag = F.random_basis_change(C, A, rng)
        rep = F.validate_algebra(C, Ag)
        assert rep["pass"], rep
        nd = oracles.nondegeneracy(E, F, C, F.normalize_counit(C, Ag))
        assert nd.passed
        assert nd.iso_residual < 1e-9
