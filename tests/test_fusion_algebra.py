"""Defect operators, block diagonalization, and the bimodule fusion ring."""
from __future__ import annotations

import copy
import dataclasses
import json

import numpy as np
import pytest

from bimodfusion import bimodules as B
from bimodfusion import engine as E
from bimodfusion import frobenius as F
from bimodfusion import fusion_algebra as FA
from bimodfusion import mtc
from bimodfusion.catalog import CATALOG_NAMES, catalog
from bimodfusion.errors import (
    NonIntegerStructureConstant,
    NotIntertwiner,
    SingularD,
)
from bimodfusion.mtc import s_matrix

from conftest import get_catalog, load_fixture, load_golden


@pytest.fixture(scope="module")
def toric():
    return get_catalog("toric_code").data


@pytest.fixture(scope="module")
def ze(toric):
    return F.normalize_counit(toric, F.parse_algebra(toric, load_fixture("ze.alg.json")))


@pytest.fixture(scope="module")
def ze_simples(toric, ze):
    return B.simple_bimodules(toric, ze, seed=0)


@pytest.fixture(scope="module")
def ze_d(toric, ze, ze_simples):
    return FA.d_matrix(toric, ze, ze_simples)


@pytest.fixture(scope="module")
def ze_direct(toric, ze, ze_simples):
    return FA.fusion_table_direct(toric, ze, ze_simples)


@pytest.fixture(scope="module")
def ze_report(toric, ze):
    return FA.verify_theorem_o(toric, ze, seed=0)


@pytest.fixture(scope="module")
def su24():
    return get_catalog("su2_4").data


@pytest.fixture(scope="module")
def deven(su24):
    return F.normalize_counit(
        su24, F.parse_algebra(su24, load_fixture("su2_4_deven.alg.json"))
    )


@pytest.fixture(scope="module")
def deven_simples(su24, deven):
    return B.simple_bimodules(su24, deven, seed=0)


@pytest.fixture(scope="module")
def deven_d(su24, deven, deven_simples):
    return FA.d_matrix(su24, deven, deven_simples)


@pytest.fixture(scope="module")
def deven_table(su24, deven_d):
    return FA.fusion_table_blockdiag(su24, deven_d)


@pytest.fixture(scope="module")
def deven_report(su24, deven):
    return FA.verify_theorem_o(su24, deven, seed=0)


@pytest.fixture(scope="module")
def fib():
    return get_catalog("fibonacci").data


@pytest.fixture(scope="module")
def fib_triv(fib):
    return F.normalize_counit(fib, F.trivial_algebra(fib))


@pytest.fixture(scope="module")
def fib_simples(fib, fib_triv):
    return B.simple_bimodules(fib, fib_triv, seed=0)


@pytest.fixture(scope="module")
def fib_direct(fib, fib_triv, fib_simples):
    return FA.fusion_table_direct(fib, fib_triv, fib_simples)


def _label_map(C, simples):
    """For the trivial algebra each simple bimodule is a simple object;
    return the object label under each simple."""
    out = []
    for S in simples:
        hits = [i for i in range(C.rank) if E.hom_dim(C, E.obj(i), S.obj)]
        assert len(hits) == 1
        out.append(hits[0])
    return out


# -- the trivial algebra must give back the category -------------------------

@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_trivial_algebra_reproduces_category_fusion(name):
    C = get_catalog(name).data
    A = F.normalize_counit(C, F.trivial_algebra(C))
    simples = B.simple_bimodules(C, A, seed=0)
    assert len(simples) == C.rank
    d = FA.d_matrix(C, A, simples)
    assert d.sigma_min > 1e-6
    bd = FA.fusion_table_blockdiag(C, d)
    perm = _label_map(C, simples)
    assert sorted(perm) == list(range(C.rank))
    assert np.array_equal(bd.table, C.N[np.ix_(perm, perm, perm)])
    # the defect matrices collapse to the character table s_{ik}/s_{i0}
    s = s_matrix(C).entries
    cols = sorted(d.blocks)
    chars = np.array([[s[i, perm[t]] / s[i, 0] for (i, _) in cols]
                      for t in range(C.rank)])
    assert np.max(np.abs(d.matrix - chars)) < 1e-10


def test_fibonacci_defect_matrix_closed_form(fib, fib_triv, fib_simples):
    phi = (1.0 + np.sqrt(5.0)) / 2.0
    d = FA.d_matrix(fib, fib_triv, fib_simples)
    assert d.unit == 1
    expect = np.array([[phi, -1.0 / phi], [1.0, 1.0]])
    assert np.max(np.abs(d.matrix - expect)) < 1e-12


# -- frozen fusion tables -----------------------------------------------------

def test_fusion_table_golden_toric(toric, ze_d, ze_direct):
    gold = load_golden("fusion_toric_ze.json")
    assert ze_direct.unit == gold["unit"]
    assert np.array_equal(ze_direct.table, np.array(gold["table"]))
    bd = FA.fusion_table_blockdiag(toric, ze_d)
    assert bd.unit == ze_direct.unit
    assert np.array_equal(bd.table, ze_direct.table)
    assert set(ze_direct.check().values()) == {0}


def test_fusion_table_golden_su24(deven_table, deven_report):
    gold = load_golden("fusion_su2_4_deven.json")
    assert deven_table.unit == gold["unit"]
    assert np.array_equal(deven_table.table, np.array(gold["table"]))
    assert np.array_equal(deven_report.fusion_direct, np.array(gold["table"]))
    assert np.array_equal(deven_report.fusion_blockdiag, np.array(gold["table"]))
    assert set(deven_table.check().values()) == {0}


def test_table_check_flags_broken_tables():
    t = np.zeros((2, 2, 2), dtype=np.int64)
    t[0] = np.eye(2)
    t[:, 0, :] = np.eye(2)
    t[1, 1, 0] = 1
    good = FA.FusionTable(t, 0)
    assert set(good.check().values()) == {0}
    bad = FA.FusionTable(t.copy(), 1)
    assert bad.check()["unit-left"] > 0
    t2 = t.copy()
    t2[1, 1, 0] = -1
    assert FA.FusionTable(t2, 0).check()["negative"] == 1


# -- structure of the defect matrices ----------------------------------------

def test_blocks_follow_the_z_matrix(toric, ze, ze_d, su24, deven, deven_d):
    for C, A, d in [(toric, ze, ze_d), (su24, deven, deven_d)]:
        z = B.z_matrix(C, A).entries
        pairs = {(i, j) for i in range(C.rank) for j in range(C.rank) if z[i, j]}
        assert set(d.blocks) == pairs
        total = 0
        for (i, j), blk in d.blocks.items():
            n = int(z[i, C.dual[j]])
            assert blk.shape == (len(d.matrix), n, n)
            total += n * n
        assert d.matrix.shape == (total, total)


def test_unit_defect_acts_as_identity_on_blocks(ze_d, deven_d):
    for d in (ze_d, deven_d):
        for blk in d.blocks.values():
            n = blk.shape[1]
            assert np.max(np.abs(blk[d.unit] - np.eye(n))) < 1e-10


def test_defect_action_is_linear(su24, deven, deven_simples, deven_d):
    h0, h1 = deven_d.h[(2, 2)]
    X = deven_simples[4]
    lhs = FA.D_map(su24, deven, X, 2, 2, h0 + (2.0 - 0.5j) * h1)
    rhs = FA.D_map(su24, deven, X, 2, 2, h0) \
        + (2.0 - 0.5j) * FA.D_map(su24, deven, X, 2, 2, h1)
    assert (lhs - rhs).norm() < 1e-10


def test_defect_matrix_depends_only_on_iso_class(toric, ze, ze_simples, ze_d):
    rng = np.random.default_rng(3)
    t = 1
    X = ze_simples[t]
    gb, gi = {}, {}
    for k in E.obj_sectors(toric, X.obj):
        n = E.obj_dim(toric, X.obj, k)
        g = np.eye(n) + 0.3 * (rng.standard_normal((n, n))
                               + 1j * rng.standard_normal((n, n)))
        gb[k], gi[k] = g, np.linalg.inv(g)
    g = E.Morphism(toric, X.obj, X.obj, gb)
    ginv = E.Morphism(toric, X.obj, X.obj, gi)
    id_a = E.identity(toric, ze.obj)
    Xc = B.Bimodule(
        toric, ze, X.obj,
        g @ X.rho_l @ E.tensor(toric, id_a, ginv),
        g @ X.rho_r @ E.tensor(toric, ginv, id_a),
    )
    assert max(B.module_residuals(toric, Xc).values()) < 1e-10
    for (i, j), blk in ze_d.blocks.items():
        n = blk.shape[1]
        got = np.zeros((n, n), dtype=complex)
        for b in range(n):
            img = FA.D_map(toric, ze, Xc, i, j, ze_d.h[(i, j)][b], check=False)
            for a in range(n):
                got[a, b] = (ze.eps @ img @ ze_d.hbar[(i, j)][a] @ ze.eta).scalar()
        assert np.max(np.abs(got - blk[t])) < 1e-9


def _assert_loop_closures_agree(C, A, X, d):
    """The trace-closed matrices of D_X equal ε ∘ D_map(h_β) ∘ h̄_α ∘ η,
    where D_map closes the X-loop with a cup and a cap̃."""
    got = FA.defect_matrices(C, A, X, d.h, d.hbar)
    assert set(got) == set(d.h)
    for (i, j), hs in d.h.items():
        want = np.array([[(A.eps @ FA.D_map(C, A, X, i, j, hb, check=False)
                           @ g @ A.eta).scalar() for hb in hs]
                         for g in d.hbar[(i, j)]])
        assert np.max(np.abs(got[(i, j)] - want)) < 1e-10, (i, j)


def test_trace_closed_defect_matrices_match_cup_cap_loop(
        toric, ze, ze_simples, ze_d, su24, deven, deven_simples, deven_d,
        deven_table):
    for C, A, simples, d in [(toric, ze, ze_simples, ze_d),
                             (su24, deven, deven_simples, deven_d)]:
        for X in simples:
            _assert_loop_closures_agree(C, A, X, d)
    # relative products that are not simple and sit on several words
    k = len(deven_simples)
    pairs = [(a, b) for a in range(k) for b in range(k)
             if deven_table.table[a, b].sum() >= 2][:3]
    assert len(pairs) == 3
    for a, b in pairs:
        T, _ = B.tensor_over_A(su24, deven_simples[a], deven_simples[b])
        assert len(T.obj) > 1
        _assert_loop_closures_agree(su24, deven, T, deven_d)
    # A = 1 on a rank-5 category
    A1 = F.normalize_counit(su24, F.trivial_algebra(su24))
    simples = B.simple_bimodules(su24, A1, seed=0)
    d = FA.d_matrix(su24, A1, simples)
    for X in simples:
        _assert_loop_closures_agree(su24, A1, X, d)


# -- rejected inputs ----------------------------------------------------------

def test_defect_map_rejects_wrong_signature(toric, ze, ze_simples):
    with pytest.raises(NotIntertwiner):
        FA.D_map(toric, ze, ze_simples[0], 0, 0, E.identity(toric, ze.obj))


def test_defect_map_rejects_non_intertwiner(toric, ze, ze_simples):
    reg = B.regular_bimodule(toric, ze)
    W = B.sandwich(toric, 1, reg, 1)
    plain = E.nullspace_morphisms(toric, W.obj, ze.obj, [])
    cons = B._hom_constraints(toric, W, reg)
    assert len(plain) > len(B.hom_bimodule(toric, W, reg))
    res = [max(c(f).norm() for c in cons) for f in plain]
    worst = plain[int(np.argmax(res))]
    with pytest.raises(NotIntertwiner):
        FA.D_map(toric, ze, ze_simples[0], 1, 1, worst)


def test_blockdiag_rejects_non_integer_constants(toric, ze_d):
    blocks = {k: v.copy() for k, v in ze_d.blocks.items()}
    key = next(iter(blocks))
    blocks[key][0, 0, 0] += 0.5
    matrix = np.concatenate(
        [b.reshape(b.shape[0], -1) for b in blocks.values()], axis=1)
    assert np.array_equal(
        np.concatenate([b.reshape(b.shape[0], -1) for b in ze_d.blocks.values()],
                       axis=1),
        ze_d.matrix,
    )
    bad = dataclasses.replace(ze_d, blocks=blocks, matrix=matrix)
    with pytest.raises(NonIntegerStructureConstant):
        FA.fusion_table_blockdiag(toric, bad)


def test_direct_table_requires_the_regular_bimodule(fib, fib_triv, fib_simples):
    unit = FA._unit_index(fib, fib_triv, fib_simples)
    sub = [S for t, S in enumerate(fib_simples) if t != unit]
    with pytest.raises(SingularD):
        FA.fusion_table_direct(fib, fib_triv, sub)


# -- the aggregated verification report ---------------------------------------

def test_report_passes_toric(ze_report):
    r = ze_report
    assert r.passed
    assert r.K == 4
    assert sorted(r.P) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert all(v == 1 for v in r.n.values())
    assert r.residuals["K_vs_tr_ztz"] == 0.0
    assert r.residuals["left_modules_vs_tr_z"] == 0.0
    assert r.residuals["table_mismatch"] == 0.0
    assert r.residuals["table_axioms"] == 0.0
    assert r.residuals["unit_map"] < 1e-9
    assert r.residuals["homomorphism"] < 1e-6
    assert r.residuals["sigma_min"] > 1e-6
    assert r.residuals["z_s_commutator"] < 1e-6
    assert r.residuals["z_t_commutator"] < 1e-6


def test_report_passes_su24(deven_report):
    r = deven_report
    assert r.passed
    assert r.K == 8
    assert sorted(r.P) == [(0, 0), (0, 4), (2, 2), (4, 0), (4, 4)]
    assert r.n[(2, 2)] == 2
    assert sum(v * v for v in r.n.values()) == 8
    assert r.residuals["homomorphism"] < 1e-6
    assert r.residuals["unit_map"] < 1e-9


def test_report_passes_fibonacci(fib, fib_triv):
    r = FA.verify_theorem_o(fib, fib_triv, seed=0)
    assert r.passed
    assert r.K == 2
    assert np.array_equal(r.z, np.eye(2, dtype=r.z.dtype))


def test_report_serializes_to_json(ze_report):
    doc = ze_report.to_dict()
    text = json.dumps(doc, sort_keys=True)
    back = json.loads(text)
    assert back["pass"] is True
    assert back["K"] == 4
    assert set(back) == {"P", "n", "K", "z", "fusion_direct",
                         "fusion_blockdiag", "residuals", "pass"}
    assert back["n"]["0,1"] == 1
    assert back["z"] == ze_report.z.tolist()


def test_report_content_independent_of_seed(toric, ze, ze_report):
    other = FA.verify_theorem_o(toric, ze, seed=3)
    assert other.passed
    assert np.array_equal(other.z, ze_report.z)
    assert np.array_equal(other.fusion_direct, ze_report.fusion_direct)
    assert other.P == ze_report.P and other.n == ze_report.n


# -- the linked-loop identity --------------------------------------------------

def test_defect_identity_fibonacci_all_triples(fib, fib_triv, fib_simples, fib_direct):
    for kappa in range(2):
        for kappa_p in range(2):
            for j in range(2):
                out = FA.defect_identity(
                    fib, fib_triv, kappa, kappa_p, j, fib_simples, fib_direct)
                assert out["residual"] < 1e-9, out


def test_defect_identity_ising_all_triples():
    C = get_catalog("ising").data
    A = F.normalize_counit(C, F.trivial_algebra(C))
    simples = B.simple_bimodules(C, A, seed=0)
    table = FA.fusion_table_direct(C, A, simples)
    for kappa in range(3):
        for kappa_p in range(3):
            for j in range(3):
                out = FA.defect_identity(C, A, kappa, kappa_p, j, simples, table)
                assert out["residual"] < 1e-9, out


def test_defect_identity_toric_sampled(toric, ze, ze_simples, ze_direct):
    rng = np.random.default_rng(17)
    for _ in range(20):
        kappa, kappa_p = rng.integers(0, len(ze_simples), size=2)
        j = int(rng.integers(0, toric.rank))
        out = FA.defect_identity(
            toric, ze, int(kappa), int(kappa_p), j, ze_simples, ze_direct)
        assert out["residual"] < 1e-9, out


def test_defect_identity_su24_sampled(su24, deven, deven_simples, deven_table):
    rng = np.random.default_rng(17)
    for _ in range(8):
        kappa, kappa_p = rng.integers(0, len(deven_simples), size=2)
        j = int(rng.integers(0, su24.rank))
        out = FA.defect_identity(
            su24, deven, int(kappa), int(kappa_p), j, deven_simples, deven_table)
        assert out["residual"] < 1e-9, out


def test_defect_identity_builds_one_s_matrix(monkeypatch):
    C = catalog("ising").data  # a fresh category: nothing cached yet
    A = F.normalize_counit(C, F.trivial_algebra(C))
    simples = B.simple_bimodules(C, A, seed=0)
    table = FA.fusion_table_direct(C, A, simples)
    monodromies = []
    trace = E.trace

    def counted(C, f):
        if len(f.src) == 1 and len(f.src[0]) == 2:  # c_{U_j,U_i} ∘ c_{U_i,U_j}
            monodromies.append(f.src)
        return trace(C, f)

    monkeypatch.setattr(E, "trace", counted)
    triples = [(0, 0, 0), (1, 2, 1), (2, 1, 2), (1, 1, 1)]
    for kappa, kappa_p, j in triples:
        out = FA.defect_identity(C, A, kappa, kappa_p, j, simples, table)
        assert out["residual"] < 1e-9, out
    assert len(monodromies) == C.rank ** 2
    assert FA.s_matrix(C) is FA.s_matrix(C)


# -- basis independence --------------------------------------------------------

def test_results_invariant_under_gauge_change(toric, ze, ze_direct):
    g = {
        (1, 1, 0): np.array([[0.8 - 0.45j]]),
        (2, 2, 0): np.array([[1.3 + 0.2j]]),
        (3, 3, 0): np.array([[0.7 + 0.6j]]),
        (1, 2, 3): np.array([[1.1 - 0.3j]]),
    }
    assert all(toric.N[key] == 1 for key in g)
    gauged = mtc.gauge_transform(toric, g)
    doc = copy.deepcopy(load_fixture("ze.alg.json"))
    labels = list(toric.labels)
    for ent in doc["m"]:
        key = (labels.index(ent["i"]), labels.index(ent["j"]),
               labels.index(ent["k"]))
        mat = g.get(key)
        if mat is not None:
            w = complex(ent["val"][0], ent["val"][1]) * complex(mat[0, 0])
            ent["val"] = [w.real, w.imag]
    Ag = F.normalize_counit(gauged, F.parse_algebra(gauged, doc))
    assert F.validate_algebra(gauged, Ag)["pass"]
    assert np.array_equal(B.z_matrix(gauged, Ag).entries,
                          B.z_matrix(toric, ze).entries)
    simples = B.simple_bimodules(gauged, Ag, seed=0)
    table = FA.fusion_table_direct(gauged, Ag, simples)
    assert table.unit == ze_direct.unit
    assert np.array_equal(table.table, ze_direct.table)
