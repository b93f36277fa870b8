"""Structural laws of the fusion-tree morphism calculus."""
from __future__ import annotations

import numpy as np
import pytest

from bimodfusion import engine as E
from bimodfusion import frobenius as F
from bimodfusion.errors import TypeMismatch

from conftest import get_catalog, load_fixture

CATS = ["vec_z3", "fibonacci", "ising", "toric_code", "su2_2"]

#: multi-word sum objects: the objects of the algebras 1 ⊕ e (toric code)
#: and D-even (su2_4)
ALGEBRA_OBJECTS = {"toric_code-ze": ("toric_code", "ze.alg.json"),
                   "su2_4-deven": ("su2_4", "su2_4_deven.alg.json")}


def rand_morph(C, S, T, rng):
    blocks = {}
    for k in E.obj_sectors(C, S):
        dt = E.obj_dim(C, T, k)
        if dt:
            ds = E.obj_dim(C, S, k)
            blocks[k] = rng.standard_normal((dt, ds)) + 1j * rng.standard_normal((dt, ds))
    return E.Morphism(C, S, T, blocks)


def duality_objects(name):
    """(C, objects): a letter, a word and a two-word sum of a catalog
    category, or the object of an algebra in ALGEBRA_OBJECTS."""
    if name in ALGEBRA_OBJECTS:
        cat, alg = ALGEBRA_OBJECTS[name]
        C = get_catalog(cat).data
        return C, [F.parse_algebra(C, load_fixture(alg)).obj]
    C = get_catalog(name).data
    r = C.rank
    return C, [((r - 1,),), ((r - 1, min(1, r - 1)),), ((0,), (r - 1,))]


def top_words(C, n=2):
    """A couple of interesting words: the highest label and a mixed pair."""
    r = C.rank
    return [(r - 1,), (r - 1, min(1, r - 1)), (min(1, r - 1),)][:n + 1]


# ---------------------------------------------------------------------------
# composition and tensor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CATS)
def test_identity_tensor_identity(name):
    C = get_catalog(name).data
    r = C.rank
    for S, T in [(((r - 1,),), ((r - 1,),)), (((0,), (r - 1,)), ((r - 1, r - 1),))]:
        t = E.tensor(C, E.identity(C, S), E.identity(C, T))
        assert (t - E.identity(C, E.tensor_obj(S, T))).norm() < 1e-12


@pytest.mark.parametrize("name", CATS + list(ALGEBRA_OBJECTS))
def test_interchange_law(name):
    if name in ALGEBRA_OBJECTS:
        C, (A,) = duality_objects(name)
        r = C.rank
        S0, S1, S2 = A, E.tensor_obj(A, ((r - 1,),)), A + ((),)
        T0, T1 = ((min(1, r - 1),), ()), A
    else:
        C = get_catalog(name).data
        r = C.rank
        S0, S1, S2 = ((r - 1,),), ((r - 1, r - 1),), ((r - 1,), ())
        T0, T1 = ((min(1, r - 1),),), ((r - 1,),)
    rng = np.random.default_rng(7)
    f1 = rand_morph(C, S0, S1, rng)
    f2 = rand_morph(C, S1, S2, rng)
    g1 = rand_morph(C, T0, T1, rng)
    g2 = rand_morph(C, T1, T0, rng)
    lhs = E.tensor(C, f2 @ f1, g2 @ g1)
    rhs = E.tensor(C, f2, g2) @ E.tensor(C, f1, g1)
    assert (lhs - rhs).norm() < 1e-10


@pytest.mark.parametrize("name", CATS + list(ALGEBRA_OBJECTS))
def test_tensor_associative(name):
    if name in ALGEBRA_OBJECTS:
        C, (A,) = duality_objects(name)
        a, b = C.rank - 1, min(1, C.rank - 1)
        signatures = [(A, A + ((),)), (((a, b), ()), A), (A, ((b,), (a, a)))]
    else:
        C = get_catalog(name).data
        a, b = C.rank - 1, min(1, C.rank - 1)
        signatures = [(((a,),), ((a,),)), (((a, b),), ((b,),)), (((b,),), ((a, a),))]
    rng = np.random.default_rng(11)
    f, g, h = [rand_morph(C, S, T, rng) for S, T in signatures]
    lhs = E.tensor(C, E.tensor(C, f, g), h)
    rhs = E.tensor(C, f, E.tensor(C, g, h))
    assert (lhs - rhs).norm() < 1e-10


@pytest.mark.parametrize("name", list(ALGEBRA_OBJECTS))
def test_tensor_matches_word_pair_sum(name):
    """f ⊗ g on sum objects is the sum over word pairs of the tensor
    products of the single-word restrictions of f and g."""
    C, (A,) = duality_objects(name)
    rng = np.random.default_rng(13)
    r = C.rank
    f = rand_morph(C, A + ((),), E.tensor_obj(A, A), rng)
    g = rand_morph(C, A + ((),), ((r - 1,), (min(1, r - 1), r - 1), ()), rng)
    src, tgt = E.tensor_obj(f.src, g.src), E.tensor_obj(f.tgt, g.tgt)
    want = E.zero(C, src, tgt)
    for ip in range(len(f.tgt)):
        for i in range(len(f.src)):
            fw = E.project(C, f.tgt, ip) @ f @ E.inject(C, f.src, i)
            for jp in range(len(g.tgt)):
                for j in range(len(g.src)):
                    gw = E.project(C, g.tgt, jp) @ g @ E.inject(C, g.src, j)
                    want = want + (E.inject(C, tgt, ip * len(g.tgt) + jp)
                                   @ E.tensor(C, fw, gw)
                                   @ E.project(C, src, i * len(g.src) + j))
    assert (E.tensor(C, f, g) - want).norm() < 1e-10


def test_compose_type_mismatch():
    C = get_catalog("fibonacci").data
    f = E.identity(C, ((1,),))
    g = E.identity(C, ((0,),))
    with pytest.raises(TypeMismatch):
        g @ f
    with pytest.raises(TypeMismatch):
        f + E.zero(C, ((1,),), ((0,),))


def test_vertex_covertex_duality():
    C = get_catalog("su2_2").data
    for e in range(C.rank):
        for a in range(C.rank):
            for b in range(C.rank):
                if C.N[a, b, e] == 0:
                    continue
                y = E.y_vertex(C, a, b, e, 0)
                yc = E.y_covertex(C, a, b, e, 0)
                assert ((yc @ y) - E.identity(C, E.obj(e))).norm() < 1e-12


def test_project_inject_partition():
    C = get_catalog("ising").data
    S = ((1,), (0, 2), (1, 1))
    total = E.zero(C, S, S)
    for i in range(len(S)):
        inj = E.inject(C, S, i)
        prj = E.project(C, S, i)
        assert ((prj @ inj) - E.identity(C, (S[i],))).norm() < 1e-12
        total = total + inj @ prj
    assert (total - E.identity(C, S)).norm() < 1e-12


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CATS)
def test_braid_two_letters_is_r_matrix(name):
    C = get_catalog(name).data
    r = C.rank
    for a in range(r):
        for b in range(r):
            m = E.braid_words(C, (a,), (b,))
            for k, blk in m.blocks.items():
                assert np.allclose(blk, C.rmat(a, b, k), atol=1e-12)


@pytest.mark.parametrize("name", CATS)
def test_braid_inverse_roundtrip(name):
    C = get_catalog(name).data
    r = C.rank
    S = ((r - 1,), (min(1, r - 1),))
    T = ((r - 1, min(1, r - 1)),)
    fwd = E.braid(C, S, T)
    back = E.braid(C, T, S, inverse=True)
    # back is (c_{S,T})^{-1} as a map T⊗S -> S⊗T
    assert ((back @ fwd) - E.identity(C, E.tensor_obj(S, T))).norm() < 1e-10
    assert ((fwd @ back) - E.identity(C, E.tensor_obj(T, S))).norm() < 1e-10


@pytest.mark.parametrize("name", CATS)
def test_braid_naturality(name):
    C = get_catalog(name).data
    rng = np.random.default_rng(23)
    r = C.rank
    S, Sp = ((r - 1,),), ((r - 1, min(1, r - 1)),)
    T, Tp = ((min(1, r - 1),),), ((r - 1,), (0,))
    f = rand_morph(C, S, Sp, rng)
    g = rand_morph(C, T, Tp, rng)
    lhs = E.braid(C, Sp, Tp) @ E.tensor(C, f, g)
    rhs = E.tensor(C, g, f) @ E.braid(C, S, T)
    assert (lhs - rhs).norm() < 1e-10
    lhs = E.braid(C, Sp, Tp, inverse=True) @ E.tensor(C, f, g)
    rhs = E.tensor(C, g, f) @ E.braid(C, S, T, inverse=True)
    assert (lhs - rhs).norm() < 1e-10


@pytest.mark.parametrize("name", CATS)
def test_braid_hexagon_splitting(name):
    """c_{u,v+w} and c_{u+v,w} factor through adjacent braidings."""
    C = get_catalog(name).data
    r = C.rank
    u, v, w = (r - 1,), (min(1, r - 1),), (r - 1,)
    lhs = E.braid_words(C, u, v + w)
    rhs = E.tensor(C, E.identity(C, (v,)), E.braid_words(C, u, w)) @ E.tensor(
        C, E.braid_words(C, u, v), E.identity(C, (w,))
    )
    assert (lhs - rhs).norm() < 1e-10
    lhs = E.braid_words(C, u + v, w)
    rhs = E.tensor(C, E.braid_words(C, u, w), E.identity(C, (v,))) @ E.tensor(
        C, E.identity(C, (u,)), E.braid_words(C, v, w)
    )
    assert (lhs - rhs).norm() < 1e-10


@pytest.mark.parametrize("name", CATS)
def test_braid_with_unit_is_identity(name):
    C = get_catalog(name).data
    r = C.rank
    for w in [(r - 1,), (r - 1, min(1, r - 1))]:
        # a unit strand braids trivially on either side, in either direction
        for m in (
            E.braid_words(C, (0,), w),
            E.braid_words(C, w, (0,)),
            E.braid_words(C, (0,), w, inverse=True),
            E.braid_words(C, (), w),
        ):
            for blk in m.blocks.values():
                assert np.allclose(blk, np.eye(blk.shape[0]), atol=1e-12)


# ---------------------------------------------------------------------------
# duality and traces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CATS + ["su2_4", "vec_z4"])
def test_duality_coherence(name):
    C = get_catalog(name).data
    dd = E.duality(C)
    assert dd.zigzag_residual < 1e-10
    assert dd.sovereignty_residual < 1e-10


@pytest.mark.parametrize("name", CATS + list(ALGEBRA_OBJECTS))
def test_word_zigzags(name):
    C, objects = duality_objects(name)
    for S in objects:
        ids, idd = E.identity(C, S), E.identity(C, E.dual_obj(C, S))
        b, d = E.cup_obj(C, S), E.cap_obj(C, S)
        bt, dt = E.cup_tilde_obj(C, S), E.cap_tilde_obj(C, S)
        for zigzag, want in [
            (E.tensor(C, ids, d) @ E.tensor(C, b, ids), ids),
            (E.tensor(C, d, idd) @ E.tensor(C, idd, b), idd),
            (E.tensor(C, dt, ids) @ E.tensor(C, ids, bt), ids),
            (E.tensor(C, idd, dt) @ E.tensor(C, bt, idd), idd),
        ]:
            assert (zigzag - want).norm() < 1e-10


@pytest.mark.parametrize("name", CATS + ["su2_4"] + list(ALGEBRA_OBJECTS))
def test_traces_agree(name):
    C, objects = duality_objects(name)
    rng = np.random.default_rng(5)
    for S in objects:
        f = rand_morph(C, S, S, rng)
        tl = E.trace_left(C, f)
        tr = E.trace_right(C, f)
        tf = E.trace(C, f)
        assert abs(tl - tr) < 1e-9
        assert abs(tf - tl) < 1e-9


@pytest.mark.parametrize("name", CATS)
def test_quantum_dims_positive(name):
    C = get_catalog(name).data
    dims = np.array([E.dim(C, i) for i in range(C.rank)])
    pf = np.array(
        [max(abs(x) for x in np.linalg.eigvals(C.N[i])) for i in range(C.rank)]
    )
    np.testing.assert_allclose(dims.imag, 0, atol=1e-10)
    np.testing.assert_allclose(dims.real, pf, atol=1e-9)


def test_trace_of_projector_counts_unit():
    C = get_catalog("fibonacci").data
    # tr over (t,t) of the projector onto the unit channel = dim(unit) = 1
    y = E.y_vertex(C, 1, 1, 0)
    yc = E.y_covertex(C, 1, 1, 0)
    proj = y @ yc
    assert abs(E.trace(C, proj) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CATS)
def test_hom_dims_match_fusion_counts(name):
    C = get_catalog(name).data
    r = C.rank
    for a in range(r):
        for b in range(r):
            hb = E.hom_space(C, ((a,),), ((b,),))
            assert hb.dim == (1 if a == b else 0)
    a, b = r - 1, min(1, r - 1)
    hb = E.hom_space(C, ((a, b),), ((a, b),))
    expected = int(np.sum(C.N[a, b] ** 2))
    assert hb.dim == expected


def test_vec_roundtrip():
    C = get_catalog("ising").data
    rng = np.random.default_rng(3)
    S, T = ((1, 1),), ((0,), (2,))
    f = rand_morph(C, S, T, rng)
    g = E.from_vec(C, S, T, E.vec(f))
    assert (f - g).norm() < 1e-14


def test_nullspace_finds_central_morphisms():
    """Endomorphisms of s⊗s commuting with the braiding = channel scalars."""
    C = get_catalog("ising").data
    S = ((1, 1),)
    bm = E.braid(C, ((1,),), ((1,),))
    sols = E.nullspace_morphisms(
        C, S, S, [lambda f: (bm @ f) - (f @ bm)]
    )
    # End(s⊗s) is 2-dim and the braiding is diagonal in the channel basis,
    # with distinct eigenvalues, so the commutant is the full diagonal
    assert len(sols) == 2
    for f in sols:
        assert ((bm @ f) - (f @ bm)).norm() < 1e-9
