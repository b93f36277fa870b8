"""Bimodule induction, hom counting, and decomposition into simples."""
from __future__ import annotations

import collections.abc
import dataclasses
import gc
import itertools
import re
import weakref

import numpy as np
import pytest

from bimodfusion import bimodules as B
from bimodfusion import engine as E
from bimodfusion import frobenius as F
from bimodfusion import mtc
from bimodfusion import fusion_algebra as FA
from bimodfusion.catalog import catalog
from bimodfusion.errors import (
    DecompositionIncomplete,
    IdempotentSplitFailure,
    NonIntegerDim,
    NotSpecial,
    TypeMismatch,
)

import oracles
from conftest import get_catalog, load_fixture, load_golden


@pytest.fixture(scope="module")
def toric():
    return get_catalog("toric_code").data


@pytest.fixture(scope="module")
def ze(toric):
    return F.normalize_counit(toric, F.parse_algebra(toric, load_fixture("ze.alg.json")))


@pytest.fixture(scope="module")
def su24():
    return get_catalog("su2_4").data


@pytest.fixture(scope="module")
def deven(su24):
    return F.normalize_counit(
        su24, F.parse_algebra(su24, load_fixture("su2_4_deven.alg.json"))
    )


# -- induction ---------------------------------------------------------------

def test_regular_bimodule_axioms(toric, ze):
    res = oracles.module_residuals(E, toric, B.regular_bimodule(toric, ze))
    assert max(res.values()) < 1e-12


@pytest.mark.parametrize("sign", [+1, -1])
def test_alpha_induce_axioms(toric, ze, sign):
    for i in range(toric.rank):
        X = B.alpha_induce(toric, ze, i, sign)
        res = oracles.module_residuals(E, toric, X)
        assert max(res.values()) < 1e-12, (i, res)


@pytest.mark.parametrize("sign", [+1, -1])
def test_alpha_induce_axioms_su24(su24, deven, sign):
    for i in range(su24.rank):
        X = B.alpha_induce(su24, deven, i, sign)
        assert max(oracles.module_residuals(E, su24, X).values()) < 1e-11


def test_alpha_of_unit_is_regular(toric, ze):
    reg = B.regular_bimodule(toric, ze)
    for sign in (+1, -1):
        X = B.alpha_induce(toric, ze, 0, sign)
        assert B.is_isomorphic(toric, X, reg)


def test_alpha_induce_rejects_bad_sign(toric, ze):
    with pytest.raises(ValueError):
        B.alpha_induce(toric, ze, 1, 0)


def test_sandwich_axioms(su24, deven):
    reg = B.regular_bimodule(su24, deven)
    for i, j in [(0, 0), (1, 2), (2, 2), (4, 1)]:
        W = B.sandwich(su24, i, reg, j)
        assert max(oracles.module_residuals(E, su24, W).values()) < 1e-11, (i, j)


def test_left_induce_has_no_right_action(toric, ze):
    X = B.left_induce(toric, ze, 2)
    assert X.rho_r is None
    res = oracles.module_residuals(E, toric, X)
    assert set(res) == {"left-assoc", "left-unit"}
    assert max(res.values()) < 1e-12


# -- the commutation matrix --------------------------------------------------

def test_z_matrix_toric_golden(toric, ze):
    golden = load_golden("bimod_toric_ze.json")
    z = B.z_matrix(toric, ze)
    assert z.entries.tolist() == golden["z"]
    assert z.trace == golden["tr_z"]
    assert z.pair_count == golden["pair_count"]


def test_z_matrix_su24_golden(su24, deven):
    golden = load_golden("bimod_su2_4_deven.json")
    z = B.z_matrix(su24, deven)
    assert z.entries.tolist() == golden["z"]
    assert z.trace == golden["tr_z"]
    assert z.pair_count == golden["pair_count"]


@pytest.mark.parametrize("name", ["fibonacci", "ising", "toric_code"])
def test_z_matrix_trivial_algebra_is_identity(name):
    C = get_catalog(name).data
    z = B.z_matrix(C, F.trivial_algebra(C))
    assert np.array_equal(z.entries, np.eye(C.rank, dtype=np.int64))


def test_z_unit_entry_is_one(toric, ze, su24, deven):
    assert B.z_matrix(toric, ze).entries[0, 0] == 1
    assert B.z_matrix(su24, deven).entries[0, 0] == 1


@pytest.mark.parametrize("which", ["toric", "su24"])
def test_z_commutes_with_s_and_twist(which, toric, ze, su24, deven):
    C, A = (toric, ze) if which == "toric" else (su24, deven)
    z = B.z_matrix(C, A).entries.astype(complex)
    s = mtc.s_matrix(C).entries
    t = np.diag(C.twist)
    scale = np.max(np.abs(s))
    assert np.max(np.abs(s @ z - z @ s)) < 1e-9 * scale
    assert np.max(np.abs(t @ z - z @ t)) < 1e-9


def test_z_invariant_under_algebra_basis_change(toric, ze):
    rng = np.random.default_rng(7)
    Ag = F.random_basis_change(toric, ze, rng)
    z0 = B.z_matrix(toric, ze).entries
    z1 = B.z_matrix(toric, Ag).entries
    assert np.array_equal(z0, z1)


# -- the algebra's store -----------------------------------------------------

def test_algebra_store_keeps_z_and_the_sandwiches(toric):
    """z is computed once per algebra and kept with read-only entries; each
    sandwich U_i ⊗⁺ A ⊗⁻ U_j is built once, and every read gives a new
    Bimodule on the stored parts, equal to a freshly built sandwich."""
    A = F.normalize_counit(toric, F.parse_algebra(toric, load_fixture("ze.alg.json")))
    assert len(A._cache) == 0
    z = B.z_matrix(toric, A)
    assert B.z_matrix(toric, A) is z and A._cache["z"] == {(): z}
    assert not z.entries.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        z.entries[0, 0] = 7
    reg = B.regular_bimodule(toric, A)
    for i in range(toric.rank):
        for j in range(toric.rank):
            W = B.regular_sandwich(toric, A, i, j)
            again = B.regular_sandwich(toric, A, i, j)
            assert again is not W and again.alg is A
            assert again.rho_l is W.rho_l and again.rho_r is W.rho_r
            fresh = B.sandwich(toric, i, reg, j)
            assert W.obj == fresh.obj
            assert (W.rho_l - fresh.rho_l).norm() == (W.rho_r - fresh.rho_r).norm() == 0.0
    assert set(A._cache["sandwich"]) == {(i, j) for i in range(toric.rank)
                                         for j in range(toric.rank)}


def test_algebra_copies_start_with_an_empty_store(toric):
    A = F.normalize_counit(toric, F.parse_algebra(toric, load_fixture("ze.alg.json")))
    B.z_matrix(toric, A)
    B.regular_sandwich(toric, A, 1, 2)
    assert set(A._cache) == {"z", "sandwich"}
    copies = [
        F.normalize_counit(toric, A),
        dataclasses.replace(A),
        F.basis_change(toric, A, E.identity(toric, A.obj)),
        F.random_basis_change(toric, A, np.random.default_rng(3)),
    ]
    for copy in copies:
        assert copy is not A and len(copy._cache) == 0
    assert copies[1] == A


def test_equality_on_values_that_hold_arrays_is_a_bool(toric, ze):
    """Values that hold arrays compare by identity, so ``==`` gives a bool
    instead of numpy's "truth value ... is ambiguous" error; algebras and
    bimodules compare field by field through them."""
    e = B.z_matrix(toric, ze).entries
    s = mtc.s_matrix(toric).entries
    cases = [
        (ze.m, ze.m + 0 * ze.m),
        (ze, F.basis_change(toric, ze, E.identity(toric, ze.obj))),
        (B.ZMatrix(e), B.ZMatrix(e.copy())),
        (mtc.SMatrix(s), mtc.SMatrix(s.copy())),
        (FA.FusionTable(np.eye(2), 0), FA.FusionTable(np.eye(2), 0)),
    ]
    for x, y in cases:
        assert (x == y) is False and (x == x) is True
    assert dataclasses.replace(ze) == ze


def test_algebras_and_bimodules_are_unhashable(toric, ze):
    """Algebras and bimodules compare field by field through a dict, so they
    declare no hash: hash() names the class, and neither is Hashable."""
    for value in (ze, B.regular_bimodule(toric, ze)):
        cls = type(value).__name__
        with pytest.raises(TypeError, match=f"unhashable type: '{cls}'"):
            hash(value)
        assert not isinstance(value, collections.abc.Hashable)


def test_algebra_store_holds_no_reference_to_its_algebra(toric):
    """With the cyclic garbage collector off, dropping the last reference
    to A frees it after a full verification: nothing A's store keeps, nor
    anything the category's caches keep, points back to A."""
    A = F.normalize_counit(toric, F.parse_algebra(toric, load_fixture("ze.alg.json")))
    gc.collect()
    gc.disable()
    try:
        assert FA.verify_theorem_o(toric, A, seed=0).passed
        assert set(A._cache) == {"z", "sandwich"}
        ref = weakref.ref(A)
        del A
        assert ref() is None
    finally:
        gc.enable()


# -- relative tensor product -------------------------------------------------

def test_tensor_unit_constraint_left(toric, ze):
    reg = B.regular_bimodule(toric, ze)
    for i in range(toric.rank):
        X = B.alpha_induce(toric, ze, i, +1)
        T, _ = B.tensor_over_A(toric, reg, X)
        assert B.is_isomorphic(toric, T, X) or len(B.hom_bimodule(toric, T, X)) > 0
        assert E.obj_dims(toric, T.obj) == E.obj_dims(toric, X.obj)


def test_tensor_unit_constraint_right(toric, ze):
    reg = B.regular_bimodule(toric, ze)
    X = B.alpha_induce(toric, ze, 2, -1)
    T, _ = B.tensor_over_A(toric, X, reg)
    assert B.is_isomorphic(toric, T, X)


def test_tensor_retract_is_split(su24, deven):
    Xp = B.alpha_induce(su24, deven, 1, +1)
    Xm = B.alpha_induce(su24, deven, 3, -1)
    T, pair = B.tensor_over_A(su24, Xp, Xm)
    r_e = pair.restrict @ pair.embed
    assert (r_e - E.identity(su24, T.obj)).norm() < 1e-10
    P = pair.embed @ pair.restrict
    assert (P @ P - P).norm() < 1e-10
    assert max(oracles.module_residuals(E, su24, T).values()) < 1e-10


def test_tensor_requires_normalized_algebra(toric):
    A = F.parse_algebra(toric, load_fixture("ze.alg.json"))  # no coproduct yet
    reg = B.regular_bimodule(toric, A)
    with pytest.raises(NotSpecial, match="relative product"):
        B.tensor_over_A(toric, reg, reg)


def test_split_rejects_non_idempotent(toric, ze):
    X = B.regular_bimodule(toric, ze)
    half = 0.5 * E.identity(toric, X.obj)
    with pytest.raises(IdempotentSplitFailure):
        B.split_idempotent(toric, X, half)


def test_split_rejects_a_map_off_the_object(toric, ze):
    """P must be an endomorphism of X's object: the identity of a smaller
    object is idempotent, but not a map on X."""
    X = B.regular_bimodule(toric, ze)
    with pytest.raises(TypeMismatch, match="not an endomorphism"):
        B.split_idempotent(toric, X, E.identity(toric, X.obj[:1]))


# -- simple decomposition ----------------------------------------------------

def test_simples_toric(toric, ze):
    golden = load_golden("bimod_toric_ze.json")
    simples = B.simple_bimodules(toric, ze, seed=0)
    assert len(simples) == 4
    profiles = [list(map(int, E.obj_dims(toric, S.obj))) for S in simples]
    assert profiles == golden["simple_profiles"]
    for S in simples:
        assert len(B.hom_bimodule(toric, S, S)) == 1
    for a in range(len(simples)):
        for b in range(a + 1, len(simples)):
            assert not B.is_isomorphic(toric, simples[a], simples[b])


def test_simples_count_checked_against_z(toric, ze, monkeypatch):
    monkeypatch.setattr(B, "z_matrix", lambda C, A: B.ZMatrix(np.array([[3]])))
    with pytest.raises(DecompositionIncomplete):
        B.simple_bimodules(toric, ze, seed=0)


def test_simples_su24(su24, deven):
    golden = load_golden("bimod_su2_4_deven.json")
    simples = B.simple_bimodules(su24, deven, seed=0)
    assert len(simples) == 8
    profiles = [list(map(int, E.obj_dims(su24, S.obj))) for S in simples]
    assert profiles == golden["simple_profiles"]


def test_alpha_m_chiralities_not_isomorphic(toric, ze):
    Xp = B.alpha_induce(toric, ze, 2, +1)
    Xm = B.alpha_induce(toric, ze, 2, -1)
    assert len(B.hom_bimodule(toric, Xp, Xp)) == 1
    assert len(B.hom_bimodule(toric, Xm, Xm)) == 1
    assert len(B.hom_bimodule(toric, Xp, Xm)) == 0
    assert not B.is_isomorphic(toric, Xp, Xm)


def test_isomorphism_test_makes_at_most_one_hom_solve(toric, ze, monkeypatch):
    """For a simple X, Schur's lemma decides X ≅ Y from Hom(X, Y) alone:
    one solve on an isomorphic pair, none when the sector profiles differ."""
    calls = []
    solve = E.nullspace_morphisms
    monkeypatch.setattr(E, "nullspace_morphisms",
                        lambda *args: calls.append(args) or solve(*args))
    reg = B.regular_bimodule(toric, ze)
    Xp = B.alpha_induce(toric, ze, 2, +1)
    Xm = B.alpha_induce(toric, ze, 2, -1)
    for X, Y, iso, solves in [
        (B.alpha_induce(toric, ze, 0, +1), reg, True, 1),
        (B.alpha_induce(toric, ze, 0, -1), reg, True, 1),
        (Xp, reg, False, 0),
        (Xp, Xm, False, 1),
        (Xm, Xp, False, 1),
    ]:
        calls.clear()
        assert B.is_isomorphic(toric, X, Y) is iso
        assert len(calls) == solves
    assert E.obj_dims(toric, Xp.obj) != E.obj_dims(toric, reg.obj)


def test_artin_wedderburn_count(toric, ze, su24, deven, monkeypatch):
    """One random endomorphism splits a sandwich into simple pieces with no
    Hom solve of its own, and the pieces satisfy Σm² = dim End."""
    calls = []
    solve = E.nullspace_morphisms
    monkeypatch.setattr(E, "nullspace_morphisms",
                        lambda *args: calls.append(args) or solve(*args))
    ising = get_catalog("ising").data
    for C, A, i, dim_end, n_pieces in [
        (toric, ze, 2, 1, 1),     # dim End 1: never split
        (su24, deven, 2, 6, 4),   # 1 + 1 + 2², an m = 2 pair among the pieces
        (ising, F.normalize_counit(ising, F.trivial_algebra(ising)), 1, 2, 2),  # 1 ⊕ ψ
    ]:
        W = B.sandwich(C, i, B.regular_bimodule(C, A), i)
        ends = B.hom_bimodule(C, W, W)
        assert len(ends) == dim_end
        calls.clear()
        pieces = B._decompose(C, W, ends, np.random.default_rng(3))
        assert calls == []
        assert len(pieces) == n_pieces
        assert all(len(B.hom_bimodule(C, S, S)) == 1 for S in pieces)
        # group the pieces by isomorphism and compare against dim End
        groups: list = []
        counts: list = []
        for S in pieces:
            for t, R in enumerate(groups):
                if B.is_isomorphic(C, S, R):
                    counts[t] += 1
                    break
            else:
                groups.append(S)
                counts.append(1)
        assert sum(m * m for m in counts) == len(ends)


def test_artin_wedderburn_count_catches_an_unsplit_piece(monkeypatch):
    """A piece that is not simple makes Σm² fall short of dim End."""
    C = get_catalog("ising").data
    A = F.normalize_counit(C, F.trivial_algebra(C))
    monkeypatch.setattr(B, "_decompose", lambda C, G, *args, **kwargs: [G])
    with pytest.raises(DecompositionIncomplete, match="Σm² = 1 but dim End = 2"):
        B.simple_bimodules(C, A)


def test_left_module_count_equals_z_trace(toric, ze, su24, deven):
    for C, A in [(toric, ze), (su24, deven)]:
        left = B.simple_left_modules(C, A, seed=0)
        assert len(left) == B.z_matrix(C, A).trace


def test_left_module_counts_golden(toric, ze, su24, deven):
    assert len(B.simple_left_modules(toric, ze)) == \
        load_golden("bimod_toric_ze.json")["left_module_count"]
    assert len(B.simple_left_modules(su24, deven)) == \
        load_golden("bimod_su2_4_deven.json")["left_module_count"]


def _dynkin(edges, k):
    adj = np.zeros((k, k), dtype=int)
    for a, b in edges:
        adj[a, b] = adj[b, a] = 1
    return adj


@pytest.mark.parametrize("alg, diagram", [
    (None, _dynkin([(0, 1), (1, 2), (2, 3), (3, 4)], 5)),   # A5
    ("su2_4_deven.alg.json", _dynkin([(0, 1), (0, 2), (0, 3)], 4)),   # D4
])
def test_left_module_nimrep_is_the_dynkin_diagram(su24, alg, diagram):
    """Tensoring the simple left modules of su2_4 with U_1 gives A's Dynkin
    diagram, A5 for A = 1 and D4 for D-even, up to the order of the modules;
    its spectrum is {2cos(π(j+1)/6)}, each j taken z_jj times."""
    A = F.trivial_algebra(su24) if alg is None else F.parse_algebra(su24, load_fixture(alg))
    A = F.normalize_counit(su24, A)
    n = oracles.nimrep(E, B, su24, A, 1)
    k = len(diagram)
    assert any(np.array_equal(n[np.ix_(p, p)], diagram)
               for p in itertools.permutations(range(k)))
    z = B.z_matrix(su24, A).entries
    exponents = [2 * np.cos(np.pi * (j + 1) / 6) for j in range(su24.rank)
                 for _ in range(z[j, j])]
    assert np.max(np.abs(np.linalg.eigvalsh(n) - np.sort(exponents))) < 1e-12


def test_hom_dims_invariant_under_conjugation(toric, ze):
    rng = np.random.default_rng(11)
    X = B.alpha_induce(toric, ze, 2, +1)
    Y = B.alpha_induce(toric, ze, 2, -1)
    gb, gi = {}, {}
    for k in E.obj_sectors(toric, X.obj):
        d = E.obj_dim(toric, X.obj, k)
        g = np.eye(d) + 0.3 * (rng.standard_normal((d, d))
                               + 1j * rng.standard_normal((d, d)))
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
    for target in (X, Y):
        assert len(B.hom_bimodule(toric, Xc, target)) == \
            len(B.hom_bimodule(toric, X, target))


def test_simples_deterministic_across_seeds(toric, ze):
    p0 = [E.obj_dims(toric, S.obj) for S in B.simple_bimodules(toric, ze, seed=0)]
    p5 = [E.obj_dims(toric, S.obj) for S in B.simple_bimodules(toric, ze, seed=5)]
    assert p0 == p5


# -- Hom solves ----------------------------------------------------------------

def module_pairs(C, A):
    """(X, Y) for every kind of Hom solve: α⁺U_i -> α⁻U_j, the sandwiches
    U_i⊗A⊗U_j to A, from A and to themselves, the free left modules A⊗U_i,
    the simples, and the first three relative products X_a ⊗_A X_b of more
    than one word (ising with A = 1 has only σ ⊗ σ) into every simple.  The
    simples, which take Hom solves to find, come last."""
    r = range(C.rank)
    plus = [B.alpha_induce(C, A, i, +1) for i in r]
    minus = [B.alpha_induce(C, A, i, -1) for i in r]
    yield from ((X, Y) for X in plus for Y in minus)
    reg = B.regular_bimodule(C, A)
    for W in (B.sandwich(C, i, reg, j) for i in r for j in r):
        yield from ((W, reg), (reg, W), (W, W))
    left = [B.left_induce(C, A, i) for i in r]
    yield from ((X, Y) for X in left for Y in left)
    simples = B.simple_bimodules(C, A, seed=0)
    products = [T for T in (B.tensor_over_A(C, Xa, Xb)[0] for Xa in simples for Xb in simples)
                if len(T.obj) > 1][:3]
    assert products
    yield from ((X, Y) for X in simples + products for Y in simples)


@pytest.mark.parametrize("which", ["toric", "su24", "ising"])
def test_intertwiner_matrix_matches_unit_evaluation(which, toric, ze, su24, deven):
    """The assembled matrix equals the module-map equations evaluated on
    every matrix unit of Hom(X, Y), left and right actions alike."""
    if which == "ising":
        C = get_catalog("ising").data
        A = F.normalize_counit(C, F.trivial_algebra(C))
    else:
        C, A = (toric, ze) if which == "toric" else (su24, deven)
    for X, Y in module_pairs(C, A):
        M = B.intertwiner_matrix(C, X, Y)
        if E.hom_dim(C, X.obj, Y.obj) == 0:
            assert M.shape[1] == 0
            continue
        ref = oracles.intertwiner_by_units(E, C, X, Y)
        assert M.shape == ref.shape
        assert np.max(np.abs(M - ref)) <= 1e-13


def test_ambiguous_hom_dimension_raises(monkeypatch):
    """Every Hom solve checks its singular-value gap, which is finite unless
    the equations are all zero: with hom_gap = inf no gap passes, in the
    left-module decomposition and the End(A) count of validate_algebra (on
    toric_code 1⊕e) as in the direct table
    (on toric_code 1⊕e and su2_4 D-even), whose stacked count names the
    relative product and the simple of the Hom space it could not count."""
    C = catalog("toric_code").data
    A = F.normalize_counit(C, F.parse_algebra(C, load_fixture("ze.alg.json")))
    monkeypatch.setattr(C.thresholds, "hom_gap", np.inf)
    with pytest.raises(NonIntegerDim) as err:
        B.simple_left_modules(C, A)
    generator = B.left_induce(C, A, 0).obj
    assert f"Hom({generator}, {generator})" in str(err.value)
    with pytest.raises(NonIntegerDim, match=re.escape(f"Hom({A.obj}, {A.obj})")):
        F.validate_algebra(C, A)
    for name, fixture in (("toric_code", "ze.alg.json"), ("su2_4", "su2_4_deven.alg.json")):
        C = catalog(name).data
        A = F.normalize_counit(C, F.parse_algebra(C, load_fixture(fixture)))
        simples = B.simple_bimodules(C, A, seed=0)
        products = {T.obj for T, _ in B.relative_products(
            C, [(X, Y) for X in simples for Y in simples])}
        monkeypatch.setattr(C.thresholds, "hom_gap", np.inf)
        with pytest.raises(NonIntegerDim) as err:
            FA.fusion_table_direct(C, A, simples)
        assert any(f"Hom({P}, {X.obj})" in str(err.value) for P in products for X in simples)
