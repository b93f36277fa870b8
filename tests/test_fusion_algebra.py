"""Defect operators, block diagonalization, and the bimodule fusion ring."""
from __future__ import annotations

import copy
import dataclasses
import json
import re
import sys

import numpy as np
import pytest

from bimodfusion import bimodules as B
from bimodfusion import engine as E
from bimodfusion import frobenius as F
from bimodfusion import fusion_algebra as FA
from bimodfusion import mtc, reports
from bimodfusion.catalog import CATALOG_NAMES, catalog
from bimodfusion.errors import (
    NonIntegerStructureConstant,
    NotIntertwiner,
    SingularD,
)
from bimodfusion.mtc import s_matrix

import oracles
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
    assert FA.fusion_table_blockdiag(fib, d).unit == 1
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


def test_blockdiag_route_finds_its_unit_without_hom_solves(monkeypatch, toric, ze, ze_simples,
                                                          su24, deven, deven_simples):
    """d_matrix and fusion_table_blockdiag ask no isomorphism question: with
    the unit search and is_isomorphic raising, they still give the golden
    table and unit."""
    def refuse(*args, **kwargs):
        raise AssertionError("the block-diagonal route made an isomorphism search")

    monkeypatch.setattr(FA, "_unit_index", refuse)
    monkeypatch.setattr(B, "is_isomorphic", refuse)
    for C, A, simples, golden in [(toric, ze, ze_simples, "fusion_toric_ze.json"),
                                  (su24, deven, deven_simples, "fusion_su2_4_deven.json")]:
        gold = load_golden(golden)
        bd = FA.fusion_table_blockdiag(C, FA.d_matrix(C, A, simples))
        assert bd.unit == gold["unit"]
        assert np.array_equal(bd.table, np.array(gold["table"]))


@pytest.mark.parametrize("seed", [0, 12])
def test_blockdiag_unit_is_the_regular_bimodule(seed):
    """On the benchmark's 14 pairs, each algebra in a random basis, the row
    of d nearest the identity is that of the simple the Hom solves find
    isomorphic to A: within 1e-12 of it, and every other row at least 1
    away."""
    jobs = ([("su2_4", "su2_4_deven.alg.json")] + [(name, None) for name in CATALOG_NAMES]
            + [("toric_code", "ze.alg.json")])
    assert len(jobs) == 14
    for t, (name, alg) in enumerate(jobs):
        C = get_catalog(name).data
        A = F.trivial_algebra(C) if alg is None else F.parse_algebra(C, load_fixture(alg))
        A = F.random_basis_change(C, A, np.random.default_rng([seed, t]))
        A = F.normalize_counit(C, A)
        simples = B.simple_bimodules(C, A, seed=seed)
        d = FA.d_matrix(C, A, simples)
        unit = FA._unit_index(C, A, simples)
        assert FA.fusion_table_blockdiag(C, d).unit == unit, name
        far = np.max([np.max(np.abs(blk - np.eye(blk.shape[1])), axis=(1, 2))
                      for blk in d.blocks.values()], axis=0)
        assert far[unit] < 1e-12, name
        assert np.min(np.delete(far, unit), initial=np.inf) >= 1.0, name


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


def test_unit_defect_acts_as_identity_on_blocks(toric, ze, ze_simples, ze_d,
                                                su24, deven, deven_simples, deven_d):
    """D_A = id on every Hom block, for the simple that the Hom solves find
    isomorphic to A."""
    for C, A, simples, d in [(toric, ze, ze_simples, ze_d),
                             (su24, deven, deven_simples, deven_d)]:
        unit = FA._unit_index(C, A, simples)
        for blk in d.blocks.values():
            n = blk.shape[1]
            assert np.max(np.abs(blk[unit] - np.eye(n))) < 1e-10


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
    assert max(oracles.module_residuals(E, toric, Xc).values()) < 1e-10
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


# -- stacks: one engine pass per object --------------------------------------

def _assert_morphisms_equal(f, g):
    assert (f.src, f.tgt) == (g.src, g.tgt) and f.blocks.keys() == g.blocks.keys()
    assert all(np.array_equal(f.blocks[k], g.blocks[k]) for k in f.blocks)


@pytest.mark.parametrize("which", ["toric", "deven"])
def test_stacked_relative_products_match_each_pair(which, request):
    """relative_products stacks the pairs on the same two objects and splits
    them at once; each result is bitwise what tensor_over_A gives for its
    pair alone, also in a group whose products lie on different objects
    (on su2_4 D-even).  tensor_over_A returns (bimodule, RetractPair) with
    restrict∘embed = id."""
    C, A, simples = (request.getfixturevalue(n) for n in (
        ("toric", "ze", "ze_simples") if which == "toric" else ("su24", "deven", "deven_simples")))
    pairs = [(X, Y) for X in simples for Y in simples]
    got = B.relative_products(C, pairs)
    groups: dict = {}
    for (X, Y), (T, _) in zip(pairs, got):
        groups.setdefault((X.obj, Y.obj), set()).add(T.obj)
    # on toric_code 1⊕e each group has a single image object
    assert any(len(objs) > 1 for objs in groups.values()) == (which == "deven")
    for (X, Y), (T, pair) in zip(pairs, got):
        T1, pair1 = B.tensor_over_A(C, X, Y)
        assert isinstance(T1, B.Bimodule) and isinstance(pair1, B.RetractPair)
        assert pair1.target is T1 and pair.target is T
        assert (pair1.restrict @ pair1.embed - E.identity(C, T1.obj)).norm() < 1e-10
        assert T.obj == T1.obj
        for f, g in ((T.rho_l, T1.rho_l), (T.rho_r, T1.rho_r),
                     (pair.embed, pair1.embed), (pair.restrict, pair1.restrict)):
            _assert_morphisms_equal(f, g)


@pytest.mark.parametrize("which", ["toric", "deven"])
def test_stacked_defect_matrices_match_each_bimodule(which, request):
    """defect_matrices of a stack of bimodules on one object (simples and
    relative products) is bitwise, item by item, that of each bimodule."""
    C, A, simples, d = (request.getfixturevalue(n) for n in (
        ("toric", "ze", "ze_simples", "ze_d") if which == "toric"
        else ("su24", "deven", "deven_simples", "deven_d")))
    mods = simples + [T for T, _ in B.relative_products(
        C, [(X, Y) for X in simples for Y in simples])]
    stacks = B.stacks(C, mods)
    assert any(len(idx) > 1 for idx, _ in stacks)
    for idx, X in stacks:
        got = FA.defect_matrices(C, A, X, d.h, d.hbar)
        for j, t in enumerate(idx):
            want = FA.defect_matrices(C, A, mods[t], d.h, d.hbar)
            assert got.keys() == want.keys()
            assert all(np.array_equal(got[key][j], want[key]) for key in want)


def test_verify_runs_the_engine_once_per_object(monkeypatch):
    """On su2_4 D-even (fresh category, seed 12) the relative products, their
    Hom counts and the defect operators are built once per object: at most
    1,000 tensor products (3,653 when each bimodule took its own pass), and
    the Hom solves stay exactly one per Hom space, 326."""
    C = catalog("su2_4").data
    A = F.normalize_counit(C, F.parse_algebra(C, load_fixture("su2_4_deven.alg.json")))
    calls = {"tensor": 0, "nullspace_morphisms": 0}

    def counting(name):
        fn = getattr(E, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(E, name, counting(name))
    assert FA.verify_theorem_o(C, A, seed=12).passed
    assert calls["tensor"] <= 1000
    assert calls["nullspace_morphisms"] == 326


@pytest.mark.parametrize("name, alg", [("ising", None), ("toric_code", "ze.alg.json"),
                                       ("su2_4", "su2_4_deven.alg.json")])
def test_d_matrix_with_products_keeps_every_bit(name, alg):
    """d_matrix given the relative products of every pair stacks them with
    the simples on their objects: the simples' blocks, the matrix and σ_min
    are bitwise those without products, and each product's blocks are
    bitwise defect_matrices of that product alone."""
    C = catalog(name).data
    A = F.trivial_algebra(C) if alg is None else F.parse_algebra(C, load_fixture(alg))
    A = F.normalize_counit(C, A)
    simples = B.simple_bimodules(C, A, seed=0)
    products = [T for T, _ in B.relative_products(C, [(X, Y) for X in simples for Y in simples])]
    k = len(simples)
    # some object carries a simple and a product, so they share a stack
    assert any(min(idx) < k <= max(idx) for idx, _ in B.stacks(C, simples + products))
    alone = FA.d_matrix(C, A, simples)
    both = FA.d_matrix(C, A, simples, products)
    assert alone.product_blocks.keys() == alone.blocks.keys()
    assert all(blk.shape[0] == 0 for blk in alone.product_blocks.values())
    assert list(both.blocks) == list(alone.blocks) == list(both.product_blocks)
    assert both.matrix.tobytes() == alone.matrix.tobytes()
    assert both.sigma_min == alone.sigma_min
    assert FA.fusion_table_blockdiag(C, both).unit == FA.fusion_table_blockdiag(C, alone).unit
    for key, blk in alone.blocks.items():
        assert both.blocks[key].tobytes() == blk.tobytes()
        assert both.product_blocks[key].shape == (len(products),) + blk.shape[1:]
    for t, T in enumerate(products):
        want = FA.defect_matrices(C, A, T, alone.h, alone.hbar)
        assert all(both.product_blocks[key][t].tobytes() == want[key].tobytes() for key in want)


@pytest.mark.parametrize("alg, passes", [(None, 9), ("su2_4_deven.alg.json", 6)])
def test_verify_runs_one_defect_pass_per_object(alg, passes, monkeypatch):
    """verify_theorem_o evaluates defect_matrices once per distinct object
    of the simples and the sampled relative products together: 9 passes on
    su2_4 with A = 1 (where each simple has its own object) and 6 with
    D-even."""
    C = catalog("su2_4").data
    A = F.trivial_algebra(C) if alg is None else F.parse_algebra(C, load_fixture(alg))
    A = F.normalize_counit(C, A)
    simples = B.simple_bimodules(C, A, seed=12)
    pairs = FA._sampled_pairs(len(simples), 12)
    products = B.relative_products(C, [(simples[a], simples[b]) for a, b in pairs])
    objects = {X.obj for X in simples} | {T.obj for T, _ in products}
    assert len(objects) == passes
    calls = []
    real = FA.defect_matrices

    def counting(*args):
        calls.append(args[2].obj)
        return real(*args)

    monkeypatch.setattr(FA, "defect_matrices", counting)
    assert FA.verify_theorem_o(C, A, seed=12).passed
    assert len(calls) == len(set(calls)) == passes and set(calls) == objects


# -- rejected inputs ----------------------------------------------------------

def test_defect_map_rejects_wrong_signature(toric, ze, ze_simples):
    # U_e ⊗ A ⊗ U_1 is not A; the pair (0, 0) would give A itself
    W = B.sandwich(toric, 1, B.regular_bimodule(toric, ze), 0)
    assert W.obj != ze.obj
    with pytest.raises(NotIntertwiner, match="must map"):
        FA.D_map(toric, ze, ze_simples[0], 1, 0, E.identity(toric, ze.obj))


def test_defect_map_rejects_non_intertwiner(toric, ze, ze_simples):
    reg = B.regular_bimodule(toric, ze)
    W = B.sandwich(toric, 1, reg, 1)
    n = E.hom_dim(toric, W.obj, ze.obj)
    plain, _ = E.nullspace_morphisms(toric, W.obj, ze.obj, np.zeros((0, n)))
    M = B.intertwiner_matrix(toric, W, reg)
    assert len(plain) > len(B.hom_bimodule(toric, W, reg))
    res = [np.max(np.abs(M @ E.vec(f))) for f in plain]
    worst = plain[int(np.argmax(res))]
    with pytest.raises(NotIntertwiner):
        FA.D_map(toric, ze, ze_simples[0], 1, 1, worst)


def _first_off_unit_block(d):
    return next(key for key in d.h if key != (0, 0))


def test_defect_map_check_ignores_the_scale_of_phi(su24, deven, deven_simples, deven_d):
    """The intertwiner check is relative to φ: a basis map of a Hom block
    passes at any scale, and a map that fails it fails at any scale."""
    i, j = _first_off_unit_block(deven_d)
    X = deven_simples[1]
    h0 = deven_d.h[(i, j)][0]
    for scale in (1e-6, 1.0, 1e11):
        FA.D_map(su24, deven, X, i, j, scale * h0)
    reg = B.regular_bimodule(su24, deven)
    W = B.sandwich(su24, i, reg, j)
    M = B.intertwiner_matrix(su24, W, reg)
    v = np.random.default_rng(0).standard_normal(E.hom_dim(su24, W.obj, deven.obj))
    bad = E.from_vec(su24, W.obj, deven.obj, v.astype(complex))
    assert np.max(np.abs(M @ E.vec(bad))) > 1e-3 * bad.norm()
    for scale in (1e-6, 1.0, 1e11):
        with pytest.raises(NotIntertwiner, match="intertwiner check"):
            FA.D_map(su24, deven, X, i, j, scale * bad)


def test_sandwiches_are_built_once_per_algebra(monkeypatch, su24):
    """simple_bimodules, then d_matrix, then a checked D_map on su2_4 D-even
    build each sandwich U_i ⊗⁺ A ⊗⁻ U_j once: rank² calls in all."""
    A = F.normalize_counit(su24, F.parse_algebra(su24, load_fixture("su2_4_deven.alg.json")))
    built = []
    sandwich = B.sandwich

    def counting(*args):
        built.append((args[1], args[3]))
        return sandwich(*args)

    monkeypatch.setattr(B, "sandwich", counting)
    simples = B.simple_bimodules(su24, A, seed=0)
    d = FA.d_matrix(su24, A, simples)
    key = _first_off_unit_block(d)
    FA.D_map(su24, A, simples[1], *key, d.h[key][0], check=True)
    assert len(built) == len(set(built)) == su24.rank ** 2 == 25


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


def test_blockdiag_rejects_negative_constants(toric, ze_d):
    """With d⁻¹ negated every structure constant changes sign: integers,
    but negative."""
    bad = dataclasses.replace(ze_d, matrix=-ze_d.matrix)
    with pytest.raises(NonIntegerStructureConstant, match="is negative"):
        FA.fusion_table_blockdiag(toric, bad)


def test_d_matrix_rejects_singular_values_below_d_rtol(monkeypatch, toric, ze, ze_simples):
    monkeypatch.setattr(toric.thresholds, "d_rtol", 1.0)
    with pytest.raises(SingularD, match="smallest singular value"):
        FA.d_matrix(toric, ze, ze_simples)


def test_sampled_pairs_draw_100_distinct_pairs_above_12_simples():
    pairs = FA._sampled_pairs(13, 4)
    assert len(pairs) == len(set(pairs)) == 100
    assert set(pairs) <= set(FA._pairs(13))
    assert FA._sampled_pairs(13, 4) == pairs
    assert FA._sampled_pairs(12, 4) == FA._pairs(12)


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


@pytest.mark.parametrize("name, alg", [("toric_code", "ze.alg.json"),
                                       ("su2_4", "su2_4_deven.alg.json")])
def test_json_report_independent_of_cache_history(name, alg):
    """The --format json report on a category whose engine cache an A = 1
    run filled first is byte-identical to the report on a fresh category."""
    def report(C):
        A = F.normalize_counit(C, F.parse_algebra(C, load_fixture(alg)))
        return reports.to_json(FA.verify_theorem_o(C, A, seed=0).to_dict())

    used = catalog(name).data
    FA.verify_theorem_o(used, F.normalize_counit(used, F.trivial_algebra(used)), seed=0)
    assert report(used) == report(catalog(name).data)


def _pair_words(key) -> list:
    """The words of the two objects that begin the key."""
    return [w for X in key[:2] for w in X]


#: kind of the engine cache -> the words in one key of its store
_KEY_WORDS = {
    "wdims": lambda w: [w],
    "dims": list,
    "dimslayout": lambda key: [],
    "layout": _pair_words,
    "eye": list,
    "sumgroups": lambda key: [],
    "merge": lambda key: [key[1]],
    "sumdims": list,
    "sumorder": lambda key: [],
    "summerge": lambda key: list(key[1]),
    "braid": _pair_words,
    "cup": lambda w: [w],
    "cap": lambda w: [w],
    "cupt": lambda w: [w],
    "capt": lambda w: [w],
    "smatrix": lambda key: [],
}


@pytest.mark.parametrize("name, alg", [("ising", None), ("toric_code", "ze.alg.json")])
def test_cache_keys_hold_no_unit_letters(name, alg):
    """After verify-o, no word in a key of the engine cache contains the
    unit label: the unit is the empty word, so padded words never arise."""
    C = catalog(name).data
    A = F.trivial_algebra(C) if alg is None else F.parse_algebra(C, load_fixture(alg))
    FA.verify_theorem_o(C, F.normalize_counit(C, A), seed=0)
    words = [w for kind, store in C._cache.items() for key in store
             for w in _KEY_WORDS[kind](key)]
    assert words and any(len(w) > 2 for w in words)
    assert not [w for w in words if 0 in w]


def test_cache_kinds_are_stores():
    """Every engine cache kind is one dict store under its name, and the
    grouped bases stored are those of word pairs with trees: none is empty.
    The engine module docstring lists exactly the kinds the run filled."""
    C = catalog("su2_4").data
    A = F.parse_algebra(C, load_fixture("su2_4_deven.alg.json"))
    FA.verify_theorem_o(C, F.normalize_counit(C, A), seed=12)
    assert set(C._cache) == set(_KEY_WORDS)
    listed = [kind for head in re.findall(r"^\* (.+?):", E.__doc__, re.M)
              for kind in re.findall(r"``(\w+)``", head)]
    assert sorted(listed) == sorted(C._cache)
    assert all(type(store) is dict and store for store in C._cache.values())
    assert all(C._cache["sumgroups"].values())


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
        # the traces of c_{U_j,U_i} ∘ c_{U_i,U_j} are the ones s_matrix takes
        if sys._getframe(1).f_code is mtc.s_matrix.__code__:
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

@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_verify_o_invariant_under_random_gauge(name):
    """A = 1 on a random gauge of the category's splitting spaces gives
    the same K, z, verdict and direct fusion table."""
    C = get_catalog(name).data
    want, got = (FA.verify_theorem_o(D, F.normalize_counit(D, F.trivial_algebra(D)), seed=12)
                 for D in (C, oracles.random_gauge(mtc, C, np.random.default_rng(5))))
    assert got.passed and want.passed
    assert got.K == want.K
    assert np.array_equal(got.z, want.z)
    assert np.array_equal(got.fusion_direct, want.fusion_direct)

def test_results_invariant_under_gauge_change(toric, ze, ze_direct):
    g = {
        (1, 1, 0): np.array([[0.8 - 0.45j]]),
        (2, 2, 0): np.array([[1.3 + 0.2j]]),
        (3, 3, 0): np.array([[0.7 + 0.6j]]),
        (1, 2, 3): np.array([[1.1 - 0.3j]]),
    }
    assert all(toric.N[key] == 1 for key in g)
    gauged = oracles.gauge_transform(mtc, toric, g)
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
