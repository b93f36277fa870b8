"""Bimodule induction, hom counting, and decomposition into simples."""
from __future__ import annotations

import numpy as np
import pytest

from bimodfusion import bimodules as B
from bimodfusion import engine as E
from bimodfusion import frobenius as F
from bimodfusion import mtc
from bimodfusion.errors import DecompositionIncomplete, IdempotentSplitFailure, NotSpecial

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
    res = B.module_residuals(toric, B.regular_bimodule(toric, ze))
    assert max(res.values()) < 1e-12


@pytest.mark.parametrize("sign", [+1, -1])
def test_alpha_induce_axioms(toric, ze, sign):
    for i in range(toric.rank):
        X = B.alpha_induce(toric, ze, i, sign)
        res = B.module_residuals(toric, X)
        assert max(res.values()) < 1e-12, (i, res)


@pytest.mark.parametrize("sign", [+1, -1])
def test_alpha_induce_axioms_su24(su24, deven, sign):
    for i in range(su24.rank):
        X = B.alpha_induce(su24, deven, i, sign)
        assert max(B.module_residuals(su24, X).values()) < 1e-11


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
        assert max(B.module_residuals(su24, W).values()) < 1e-11, (i, j)


def test_left_induce_has_no_right_action(toric, ze):
    X = B.left_induce(toric, ze, 2)
    assert X.rho_r is None
    res = B.module_residuals(toric, X)
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


# -- relative tensor product -------------------------------------------------

def test_tensor_unit_constraint_left(toric, ze):
    reg = B.regular_bimodule(toric, ze)
    for i in range(toric.rank):
        X = B.alpha_induce(toric, ze, i, +1)
        T, _ = B.tensor_over_A(toric, reg, X)
        assert B.is_isomorphic(toric, T, X) or len(B.hom_bimodule(toric, T, X)) > 0
        assert B._sector_profile(toric, T) == B._sector_profile(toric, X)


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
    assert max(B.module_residuals(su24, T).values()) < 1e-10


def test_tensor_requires_normalized_algebra(toric):
    A = F.parse_algebra(toric, load_fixture("ze.alg.json"))  # no coproduct yet
    reg = B.regular_bimodule(toric, A)
    with pytest.raises(NotSpecial):
        B.tensor_over_A(toric, reg, reg)


def test_split_rejects_non_idempotent(toric, ze):
    X = B.regular_bimodule(toric, ze)
    half = 0.5 * E.identity(toric, X.obj)
    with pytest.raises(IdempotentSplitFailure):
        B.split_idempotent(toric, X, half)


# -- simple decomposition ----------------------------------------------------

def test_simples_toric(toric, ze):
    golden = load_golden("bimod_toric_ze.json")
    simples = B.simple_bimodules(toric, ze, seed=0)
    assert len(simples) == 4
    profiles = [list(map(int, B._sector_profile(toric, S))) for S in simples]
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
    profiles = [list(map(int, B._sector_profile(su24, S))) for S in simples]
    assert profiles == golden["simple_profiles"]


def test_alpha_m_chiralities_not_isomorphic(toric, ze):
    Xp = B.alpha_induce(toric, ze, 2, +1)
    Xm = B.alpha_induce(toric, ze, 2, -1)
    assert len(B.hom_bimodule(toric, Xp, Xp)) == 1
    assert len(B.hom_bimodule(toric, Xm, Xm)) == 1
    assert len(B.hom_bimodule(toric, Xp, Xm)) == 0
    assert not B.is_isomorphic(toric, Xp, Xm)


def test_artin_wedderburn_count(toric, ze):
    reg = B.regular_bimodule(toric, ze)
    W = B.sandwich(toric, 2, reg, 2)
    ends = B.hom_bimodule(toric, W, W)
    rng = np.random.default_rng(3)
    pieces = B._decompose(toric, W, rng, _ends=ends)
    # group the pieces by isomorphism and compare against dim End
    groups: list = []
    counts: list = []
    for S in pieces:
        for t, R in enumerate(groups):
            if B.is_isomorphic(toric, S, R):
                counts[t] += 1
                break
        else:
            groups.append(S)
            counts.append(1)
    assert sum(m * m for m in counts) == len(ends)


def test_left_module_count_equals_z_trace(toric, ze, su24, deven):
    for C, A in [(toric, ze), (su24, deven)]:
        left = B.simple_left_modules(C, A, seed=0)
        assert len(left) == B.z_matrix(C, A).trace


def test_left_module_counts_golden(toric, ze, su24, deven):
    assert len(B.simple_left_modules(toric, ze)) == \
        load_golden("bimod_toric_ze.json")["left_module_count"]
    assert len(B.simple_left_modules(su24, deven)) == \
        load_golden("bimod_su2_4_deven.json")["left_module_count"]


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
    assert max(B.module_residuals(toric, Xc).values()) < 1e-10
    for target in (X, Y):
        assert len(B.hom_bimodule(toric, Xc, target)) == \
            len(B.hom_bimodule(toric, X, target))


def test_simples_deterministic_across_seeds(toric, ze):
    p0 = [B._sector_profile(toric, S) for S in B.simple_bimodules(toric, ze, seed=0)]
    p5 = [B._sector_profile(toric, S) for S in B.simple_bimodules(toric, ze, seed=5)]
    assert p0 == p5
