from __future__ import annotations

import itertools
import math
import os
import re

import numpy as np
import pytest

from bimodfusion import frobenius as F
from bimodfusion import fusion_algebra as FA
from bimodfusion import mtc
import oracles
from bimodfusion.catalog import CATALOG_NAMES, _su2_k_doc, catalog, catalog_document
from bimodfusion.errors import (
    AxiomViolation,
    InvalidTolerance,
    MissingSymbol,
    ParseError,
    UnknownCatalogName,
)
from conftest import get_catalog, load_fixture, overflowing_fibonacci_doc, rep_a4_fusion

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


@pytest.mark.parametrize("name", ["trivial", "vec_z2", "vec_z3", "vec_z4", "vec_z5",
                                  "toric_code"])
def test_pointed_documents_hold_group_data(name):
    """A pointed document's fusion rules are a group law, each row of N a
    permutation, with every dual the inverse; its F values are ±1; and each
    non-unit theta_a is its one entry R^{aa}_{a·a}."""
    cat = oracles.RawCat(catalog_document(name))
    n = len(cat.labels)
    for a in range(n):
        row = cat.N[a]
        assert set(row.flat) <= {0, 1}
        assert (row.sum(axis=0) == 1).all() and (row.sum(axis=1) == 1).all()
        assert cat.N[a, cat.dual[a], 0] == 1
    assert len(cat.F) == (n - 1) ** 3
    assert all(val in (1, -1) for val in cat.F.values())
    for a in range(1, n):
        assert [val for (x, y, *_), val in cat.R.items() if x == y == a] == [cat.twist[a]]


def test_loaded_data_is_immutable():
    data = catalog("fibonacci").data
    with pytest.raises(ValueError):
        data.N[0, 0, 0] = 7
    with pytest.raises(ValueError):
        data.twist[1] = 0.0
    # every accessor returns a read-only view, on unit blocks too
    for view in (data.fmat(1, 1, 1, 1), data.fmat(0, 1, 1, 0), data.finv(1, 1, 1, 1),
                 data.finv(1, 0, 1, 0), data.rmat(1, 1, 1), data.rmat(0, 1, 1),
                 data.rinv(1, 1, 0), data.rinv(1, 0, 1),
                 data.left_channels(1, 1, 1, 1), data.right_channels(0, 1, 1, 0)):
        with pytest.raises(ValueError):
            view[0, 0] = 2.0


def test_fibonacci_f_values():
    data = get_catalog("fibonacci").data
    phi = (1 + math.sqrt(5)) / 2
    got = data.fmat(1, 1, 1, 1)
    want = np.array([
        [1 / phi, 1 / math.sqrt(phi)],
        [1 / math.sqrt(phi), -1 / phi],
    ])
    np.testing.assert_allclose(got, want, atol=1e-12)
    # F[t,t,t;1] has one channel each side: e = f = t
    assert abs(data.fmat(1, 1, 1, 0)[0, 0] - 1.0) < 1e-12
    # unit-gauge F-matrices materialize as identities
    np.testing.assert_allclose(data.fmat(0, 1, 1, 0), np.eye(1), atol=0)


def test_ising_r_values():
    data = get_catalog("ising").data
    s, p = 1, 2
    assert abs(data.rmat(s, s, 0)[0, 0] - np.exp(-1j * np.pi / 8)) < 1e-12
    assert abs(data.rmat(s, s, p)[0, 0] - np.exp(3j * np.pi / 8)) < 1e-12
    assert abs(data.rmat(s, p, s)[0, 0] - (-1j)) < 1e-12
    assert abs(data.rmat(p, p, 0)[0, 0] - (-1.0)) < 1e-12


def _perturbed_f_doc():
    doc = catalog_document("fibonacci")
    for ent in doc["F"]:
        if ent["e"] == "1" and ent["f"] == "1" and ent["d"] == "t":
            ent["val"][0] += 0.1
    return doc


def _perturbed_r_doc():
    doc = catalog_document("fibonacci")
    doc["R"][0]["val"] = [1.0, 0.0]
    return doc


def test_perturbed_f_raises_pentagon_violation():
    with pytest.raises(AxiomViolation) as exc:
        mtc.load_mtc(_perturbed_f_doc())
    assert exc.value.identity == "pentagon"
    assert exc.value.max_residual > 1e-3
    assert "pentagon" in exc.value.residuals


def test_perturbed_r_raises_hexagon_violation():
    with pytest.raises(AxiomViolation) as exc:
        mtc.load_mtc(_perturbed_r_doc())
    assert exc.value.identity in ("hexagon", "hexagon-inverse", "ribbon")
    assert exc.value.max_residual > 1e-3


def test_overflowing_pentagon_reports_inf():
    """F values scaled by 1e160 overflow the pentagon's products: each
    such equation is reported as an inf residual, without a warning,
    instead of a NaN that the running maximum would drop."""
    with pytest.raises(AxiomViolation) as exc:
        mtc.load_mtc(overflowing_fibonacci_doc())
    assert exc.value.residuals["pentagon"] == math.inf
    assert exc.value.identity == "pentagon"


def _random_rep_a4_doc():
    """The fusion rules of Rep(A4) with seeded random complex F-matrices on
    every non-unit quad with channels and random R-matrices: the pentagon
    and hexagons fail, and N[3,3,3] = 2 gives the moves multiplicity blocks."""
    base = rep_a4_fusion()
    rng = np.random.default_rng(0)
    N, labels = base.N, base.labels
    doc = oracles.to_document(mtc, base)
    doc["F"], doc["R"] = [], []
    for a, b, c, d in itertools.product(range(1, 4), range(1, 4), range(1, 4), range(4)):
        left, right = base.left_channels(a, b, c, d), base.right_channels(a, b, c, d)
        if not len(left):
            continue
        real, imag = (rng.standard_normal((len(left), len(right))) for _ in range(2))
        doc["F"] += [
            {"a": labels[a], "b": labels[b], "c": labels[c], "d": labels[d],
             "e": labels[e], "f": labels[f], "mu": mu, "nu": nu, "rho": rho, "sigma": sigma,
             "val": [real[i, j], imag[i, j]]}
            for i, (e, mu, nu) in enumerate(left.tolist())
            for j, (f, rho, sigma) in enumerate(right.tolist())
        ]
    for a, b, c in itertools.product(range(1, 4), range(1, 4), range(4)):
        if N[a, b, c]:
            real, imag = (rng.standard_normal((N[b, a, c], N[a, b, c])) for _ in range(2))
            doc["R"] += [{"a": labels[a], "b": labels[b], "c": labels[c], "mu": mu, "nu": nu,
                          "val": [real[mu, nu], imag[mu, nu]]}
                         for mu in range(N[b, a, c]) for nu in range(N[a, b, c])]
    return doc


COHERENCE_INPUTS = {
    **{name: (lambda name=name: catalog_document(name)) for name in CATALOG_NAMES},
    "su2_5": lambda: _su2_k_doc(5),
    "rep_a4_random": _random_rep_a4_doc,
    "broken_pentagon": lambda: load_fixture("broken_pentagon.cat.json"),
    "perturbed_f": _perturbed_f_doc,
    "perturbed_r": _perturbed_r_doc,
}


@pytest.mark.parametrize("name", sorted(COHERENCE_INPUTS))
def test_coherence_residuals_match_oracles(name):
    doc = COHERENCE_INPUTS[name]()
    try:
        data = mtc.load_mtc(doc)
    except AxiomViolation as exc:
        got = exc.residuals
    else:
        got = {
            "pentagon": mtc._pentagon_residual(data),
            "hexagon": mtc._hexagon_residual(data, inverse=False),
            "hexagon-inverse": mtc._hexagon_residual(data, inverse=True),
        }
    raw = oracles.RawCat(doc)
    want = {
        "pentagon": oracles.pentagon_residual(raw),
        "hexagon": oracles.hexagon_residual(raw, inverse=False),
        "hexagon-inverse": oracles.hexagon_residual(raw, inverse=True),
    }
    for identity, value in want.items():
        assert abs(got[identity] - value) < 1e-13, (identity, got[identity], value)


def test_su2_8_passes_and_a_perturbed_f_fails():
    """The rank-9 category passes, and a 1e-3 violation in an F-matrix
    whose first letter is the last label fails the pentagon."""
    doc = _su2_k_doc(8)
    data = mtc.load_mtc(doc)
    assert mtc._pentagon_residual(data) < 1e-13
    assert mtc._hexagon_residual(data, inverse=False) < 1e-13
    assert mtc._hexagon_residual(data, inverse=True) < 1e-13
    last = doc["labels"][-1]
    ent = next(ent for ent in doc["F"] if ent["a"] == last)
    ent["val"][0] += 1e-3
    with pytest.raises(AxiomViolation) as exc:
        mtc.load_mtc(doc)
    assert exc.value.identity == "pentagon"
    assert exc.value.max_residual > 1e-4


def _checked_pentagon(doc, monkeypatch):
    """The category that ``load_mtc(doc)`` checks the pentagon of, and the
    residual it finds, whether or not the load then fails."""
    seen, check = [], mtc._pentagon_residual

    def spy(C):
        seen.append((C, check(C)))
        return seen[-1][1]

    monkeypatch.setattr(mtc, "_pentagon_residual", spy)
    try:
        mtc.load_mtc(doc)
    except AxiomViolation:
        pass
    (data, got), = seen
    return data, got


PENTAGON_INPUTS = {
    **{name: (lambda name=name: catalog_document(name)) for name in CATALOG_NAMES},
    "su2_5": lambda: _su2_k_doc(5),
    "su2_6": lambda: _su2_k_doc(6),
    "rep_a4_random": _random_rep_a4_doc,
    "fibonacci_f_1e160": overflowing_fibonacci_doc,
}


@pytest.mark.parametrize("name", sorted(PENTAGON_INPUTS))
def test_pentagon_passes_match_the_per_pair_reference(name, monkeypatch):
    """Batching pairs of first letters into one pass forms and sums every
    equation's terms as one pass per pair did: the residuals are equal."""
    data, got = _checked_pentagon(PENTAGON_INPUTS[name](), monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        assert got == oracles.pentagon_by_pairs(mtc, data)
    want = {"rep_a4_random": 52.811151219724614, "fibonacci_f_1e160": math.inf}
    assert got == want.get(name, got)


@pytest.mark.parametrize("name", [name for name in CATALOG_NAMES if RANKS[name] >= 3])
def test_gauged_pentagon_passes_match_the_per_pair_reference(name):
    for seed in range(6):
        data = oracles.random_gauge(mtc, get_catalog(name).data,
                                    np.random.default_rng(seed))
        assert mtc._pentagon_residual(data) == oracles.pentagon_by_pairs(mtc, data), seed


@pytest.mark.parametrize("budget, passes", [(1, 16), (100, 14), (300, 4)])
def test_pentagon_budget_splits_passes_at_pairs(budget, passes, monkeypatch):
    """With a smaller budget the 16 pairs of first letters of su2_4 (26
    to 104 start trees each) fall into more passes, a pair above the
    budget alone, and the residual stays the same."""
    data = oracles.random_gauge(mtc, get_catalog("su2_4").data, np.random.default_rng(0))
    calls, worst = [], mtc._worst_difference
    monkeypatch.setattr(mtc, "_worst_difference", lambda *args: calls.append(1) or worst(*args))
    monkeypatch.setattr(mtc, "_PENTAGON_TREES", budget)
    got = mtc._pentagon_residual(data)
    assert len(calls) == passes
    assert got == oracles.pentagon_by_pairs(mtc, data)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_pentagon_runs_one_pass(name, monkeypatch):
    data = get_catalog(name).data
    calls, worst = [], mtc._worst_difference
    monkeypatch.setattr(mtc, "_worst_difference", lambda *args: calls.append(1) or worst(*args))
    mtc._pentagon_residual(data)
    assert len(calls) <= 1


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


def test_tolerance_table_names_every_threshold():
    """The Tolerances table of docs/reports.md lists exactly the attributes
    of ``mtc.Thresholds`` (``null_rtol`` and ``null_atol`` share a row)."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "reports.md")
    with open(path, encoding="utf-8") as fh:
        section = fh.read().split("## Tolerances", 1)[1].split("\n## ", 1)[0]
    names = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            names.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    assert names == set(vars(mtc.Thresholds(1e-9)))


def test_missing_f_entry_raises():
    doc = catalog_document("fibonacci")
    doc["F"] = [ent for ent in doc["F"] if not (ent["e"] == "1" and ent["f"] == "1")]
    with pytest.raises(MissingSymbol, match=re.escape(
            "F[t,t,t;t] entry (e=1,mu=0,nu=0;f=1,rho=0,sigma=0) required by a nonzero "
            "fusion channel is absent")):
        mtc.load_mtc(doc)


def test_missing_r_entry_raises():
    doc = catalog_document("ising")
    doc["R"] = doc["R"][1:]
    with pytest.raises(MissingSymbol, match=re.escape(
            "R[sigma,sigma;1] entry (mu=0,nu=0) required by a nonzero fusion channel "
            "is absent")):
        mtc.load_mtc(doc)


@pytest.mark.parametrize("section, pick, wrong, message", [
    ("F", lambda ent: (ent["a"], ent["b"], ent["c"], ent["d"], ent["e"], ent["f"])
     == ("t", "t", "t", "t", "1", "1"), {"val": [5.0, 0.0]},
     "F[t,t,t;t] entry (e=1,mu=0,nu=0;f=1,rho=0,sigma=0) is given twice"),
    ("R", lambda ent: (ent["a"], ent["b"], ent["c"]) == ("t", "t", "1"), {"val": [5.0, 0.0]},
     "R[t,t;1] entry (mu=0,nu=0) is given twice"),
    ("fusion", lambda ent: (ent["a"], ent["b"], ent["c"]) == ("t", "t", "t"), {"mult": 2},
     "fusion entry (t,t,t) is given twice"),
    ("fusion", lambda ent: (ent["a"], ent["b"], ent["c"]) == ("t", "t", "t"), {},
     "fusion entry (t,t,t) is given twice"),
], ids=["F", "R", "fusion", "fusion-same-value"])
def test_duplicate_cells_rejected(section, pick, wrong, message):
    """A cell given twice is an error, not last-wins: here a wrong copy
    (or an equal one) comes first and the right one after it."""
    doc = catalog_document("fibonacci")
    cells = doc[section]
    i = next(i for i, ent in enumerate(cells) if pick(ent))
    cells.insert(i, dict(cells[i], **wrong))
    with pytest.raises(ParseError, match=re.escape(message)):
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
    # JSON booleans are not integers or numbers
    lambda d: d["fusion"].__setitem__(0, {"a": "1", "b": "1", "c": "1", "mult": True}),
    lambda d: d["F"][0].__setitem__("mu", False),
    lambda d: d["R"][0].__setitem__("nu", False),
    lambda d: d["F"][0].__setitem__("val", [True, 0.0]),
    lambda d: d["R"][0].__setitem__("val", [0.5, False]),
    # a section that is not a list of objects, or a label that is no string
    lambda d: d.__setitem__("F", [1]),
    lambda d: d.__setitem__("R", "x"),
    lambda d: d.__setitem__("F", {"a": 1}),
    lambda d: d.__setitem__("fusion", [1]),
    lambda d: d["fusion"][0].__setitem__("a", [1]),
    lambda d: d["dual"].__setitem__("t", ["t"]),
])
def test_malformed_documents_raise_parse_error(mangle):
    doc = catalog_document("fibonacci")
    mangle(doc)
    with pytest.raises(ParseError):
        mtc.load_mtc(doc)


def _not_an_involution(doc):
    one, sigma, psi = doc["labels"]
    return dict(doc, dual={one: one, sigma: psi, psi: psi})


@pytest.mark.parametrize("mangle, message", [
    (lambda d: [d], "category document must be a JSON object"),
    (lambda d: dict(d, labels=[]), "labels must be a non-empty list of strings"),
    (lambda d: dict(d, dual={d["unit"]: d["unit"]}), "dual must map every label to a label"),
    (_not_an_involution, "dual must be an involution fixing the unit"),
], ids=["non-object", "empty-labels", "dual-misses-a-label", "dual-not-involution"])
def test_structural_errors_name_their_rule(mangle, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        mtc.load_mtc(mangle(catalog_document("ising")))


def test_entries_for_zero_channels_rejected():
    for section, cell in [
        ("F", {"a": "psi", "b": "psi", "c": "psi", "d": "sigma", "e": "1", "f": "1"}),
        ("R", {"a": "psi", "b": "psi", "c": "sigma"}),
    ]:
        doc = catalog_document("ising")
        doc[section].append({**cell, "val": [1.0, 0.0]})
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
        doc = oracles.to_document(mtc, data)
        again = mtc.load_mtc(doc, tol=data.tol)
        assert again.labels == data.labels
        np.testing.assert_array_equal(again.N, data.N)
        for table in ("_F", "_Finv", "_R", "_Rinv"):
            assert getattr(again, table).tobytes() == getattr(data, table).tobytes(), table


@pytest.mark.parametrize("name, alg", [("ising", None), ("su2_4", "su2_4_deven.alg.json")])
def test_symbol_tables_hold_only_document_entries(name, alg):
    """Use makes no symbol matrix and changes no table: the cache holds no
    F or R matrices, no channel lists and no word-level inverse merge
    matrices, and the four tables equal those of a fresh load."""
    data = catalog(name).data
    mtc.s_matrix(data)
    A = F.trivial_algebra(data) if alg is None else F.parse_algebra(data, load_fixture(alg))
    assert FA.verify_theorem_o(data, F.normalize_counit(data, A)).passed
    assert not set(data._cache) & {"Fmat", "Finv", "Rmat", "Rinv", "L", "R", "mergeinv"}
    fresh = catalog(name).data
    for table in ("_F", "_Finv", "_R", "_Rinv"):
        assert getattr(data, table).tobytes() == getattr(fresh, table).tobytes(), table


def test_gauge_transform_identity_is_noop():
    data = get_catalog("ising").data
    same = oracles.gauge_transform(mtc, data, {})
    for table in ("_F", "_R"):
        np.testing.assert_allclose(getattr(same, table), getattr(data, table), atol=1e-14)


@pytest.mark.parametrize("name", ["ising", "su2_3"])
def test_gauge_convention_on_one_dimensional_vertices(name):
    data = get_catalog(name).data
    n, N = data.rank, data.N
    rng = np.random.default_rng(5)
    g = {
        (a, b, e): np.array([[rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())]])
        for a, b, e in itertools.product(range(1, n), range(1, n), range(n)) if N[a, b, e]
    }

    def gs(a, b, e):
        return 1.0 if 0 in (a, b) else g[(a, b, e)][0, 0]

    moved = oracles.gauge_transform(mtc, data, g)
    fmats = {q: data.fmat(*q)
             for q in itertools.product(range(1, n), range(1, n), range(1, n), range(n))}
    rmats = {t: data.rmat(*t) for t in itertools.product(range(1, n), range(1, n), range(n))
             if N[t]}
    for (a, b, c, d), old in fmats.items():
        new = moved.fmat(a, b, c, d)
        for i, (e, _, _) in enumerate(data.left_channels(a, b, c, d)):
            for j, (f, _, _) in enumerate(data.right_channels(a, b, c, d)):
                want = gs(a, b, e) * gs(e, c, d) * old[i, j] / (gs(b, c, f) * gs(a, f, d))
                assert abs(new[i, j] - want) < 1e-12
    for (a, b, c), old in rmats.items():
        assert abs(moved.rmat(a, b, c)[0, 0] - gs(a, b, c) / gs(b, a, c) * old[0, 0]) < 1e-12
    back = oracles.gauge_transform(mtc, moved,
                                   {key: np.linalg.inv(mat) for key, mat in g.items()})
    for quad, old in fmats.items():
        np.testing.assert_allclose(back.fmat(*quad), old, rtol=0, atol=1e-12)
    for triple, old in rmats.items():
        np.testing.assert_allclose(back.rmat(*triple), old, rtol=0, atol=1e-12)


def test_random_gauge_preserves_axioms_and_changes_f():
    rng = np.random.default_rng(11)
    data = get_catalog("fibonacci").data
    moved = oracles.random_gauge(mtc, data, rng)  # load_mtc inside revalidates all axioms
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
