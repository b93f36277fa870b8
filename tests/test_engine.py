"""Structural laws of the fusion-tree morphism calculus."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from bimodfusion import engine as E
from bimodfusion import frobenius as F
from bimodfusion import mtc
from bimodfusion.catalog import catalog
from bimodfusion.errors import NonSovereignGauge, TypeMismatch

import oracles
from conftest import get_catalog, load_fixture, rep_a4_fusion

CATS = ["vec_z3", "fibonacci", "ising", "toric_code", "su2_2"]

#: multi-word sum objects: the objects of the algebras 1 ⊕ e (toric code)
#: and D-even (su2_4)
ALGEBRA_OBJECTS = {"toric_code-ze": ("toric_code", "ze.alg.json"),
                   "su2_4-deven": ("su2_4", "su2_4_deven.alg.json")}


def rep_a4_random():
    """The fusion rules of Rep(A4) (N[3, 3, 3] = 2) with seeded random
    invertible F- and R-blocks on the non-unit quads and triples,
    identities on the unit ones, and F⁻¹: not a category (the pentagon and
    hexagons fail), but data on which every multiplicity index of the
    merge matrices and of the braiding is used."""
    C = rep_a4_fusion()
    rng = np.random.default_rng(29)

    def fill(blk, unit):
        m = len(blk)
        blk[:] = np.eye(m) if unit else rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))

    for quad in itertools.product(range(C.rank), repeat=4):
        fill(C.fmat(*quad), 0 in quad[:3])
    for triple in itertools.product(range(C.rank), repeat=3):
        fill(C.rmat(*triple), 0 in triple[:2])
    mtc._inverses(C._F, C._Finv, C._fpos, C._left.count, C._right.count, "f-invertibility")
    return C


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
# tree bookkeeping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["su2_4", "ising", "rep_a4"])
def test_tree_index_matches_enumeration(name):
    """word_dims counts the enumerated trees of every word up to length 3,
    and tree_starts puts each extended tree where the enumeration does."""
    C = rep_a4_fusion() if name == "rep_a4" else get_catalog(name).data
    r, N = C.rank, C.N
    for n in range(4):
        for w in itertools.product(range(r), repeat=n):
            assert E.word_dims(C, w) == tuple(
                len(oracles.fusion_trees(N, w, k)) for k in range(r))
            if n in (0, 3):  # a letter's tree has no vertex; extended words stop at 3
                continue
            for b, k in itertools.product(range(r), repeat=2):
                pos = {t: i for i, t in enumerate(oracles.fusion_trees(N, w + (b,), k))}
                starts = E.tree_starts(C, w, b, k)
                for e in range(r):
                    for i, t in enumerate(oracles.fusion_trees(N, w, e)):
                        for mu in range(N[e, b, k]):
                            assert pos.pop(t + ((k, mu),)) == starts[e] + i * N[e, b, k] + mu
                assert not pos


@pytest.mark.parametrize("u", ["3", "33", "13"])
@pytest.mark.parametrize("v", ["3", "33", "32", "333"])
def test_merge_matrix_at_multiplicity_two(u, v):
    """merge_matrix against F⁻¹ moves on tree tuples, where N[3, 3, 3] = 2
    makes the joining vertex mu and the last vertex nu of v run to 2."""
    C = rep_a4_random()
    u, v = tuple(map(int, u)), tuple(map(int, v))
    for k in range(C.rank):
        if E.word_dims(C, u + v)[k]:
            want = oracles.merge_by_moves(C.N, C.finv, u, v, k)
            np.testing.assert_allclose(E.merge_matrix(C, u, v, k), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("v", ["3", "33", "32", "333"])
def test_merge_matrix_depends_on_u_only_through_its_dimensions(v):
    """u = (3,) and the unit-padded (0, 3, 0) have the same word_dims: built
    on separate categories their merge matrices are bitwise equal, each
    matches the F⁻¹ moves on its own word's trees, and on one category they
    are one cached matrix."""
    v = tuple(map(int, v))
    u, padded = (3,), (0, 3, 0)
    first, second = rep_a4_random(), rep_a4_random()
    assert E.word_dims(first, u) == E.word_dims(first, padded)
    for k in range(first.rank):
        if not E.word_dims(first, u + v)[k]:
            continue
        plain, pad = E.merge_matrix(first, u, v, k), E.merge_matrix(second, padded, v, k)
        assert np.array_equal(plain, pad)
        for word, got in ((u, plain), (padded, pad)):
            want = oracles.merge_by_moves(first.N, first.finv, word, v, k)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert E.merge_matrix(first, padded, v, k) is plain


# ---------------------------------------------------------------------------
# composition and tensor
# ---------------------------------------------------------------------------

def test_unit_label_is_dropped_from_words():
    """The tensor unit is strict: obj leaves the unit label out of a word,
    so U_0 is the empty word, and the trivial algebra's object is UNIT."""
    C = get_catalog("ising").data
    assert E.obj(0) == E.UNIT == ((),)
    assert E.obj(0, 1, 0, 2, 0) == E.obj(1, 2) == ((1, 2),)
    assert F.trivial_algebra(C).obj == E.UNIT


@pytest.mark.parametrize("name", CATS + list(ALGEBRA_OBJECTS))
def test_tensor_with_unit_identity_is_bitwise_unchanged(name):
    """f ⊗ id_1 and id_1 ⊗ f are f itself, bit for bit: tensoring with the
    empty word leaves the words, and the sum merges are identities."""
    C, objects = duality_objects(name)
    if name not in ALGEBRA_OBJECTS:
        r = C.rank
        objects = [E.UNIT + E.obj(r - 1), E.obj(r - 1, min(1, r - 1))]
    S, T = objects[-1], objects[0]
    f = rand_morph(C, S, T, np.random.default_rng(8))
    unit = E.identity(C, E.UNIT)
    for g in (E.tensor(C, f, unit), E.tensor(C, unit, f)):
        assert (g.src, g.tgt) == (f.src, f.tgt) and g.blocks.keys() == f.blocks.keys()
        assert all(np.array_equal(g.blocks[k], f.blocks[k]) for k in f.blocks)


@pytest.mark.parametrize("name", CATS + list(ALGEBRA_OBJECTS))
def test_tensor_with_a_unit_endomorphism_makes_no_plan(name, monkeypatch):
    """f ⊗ z·id_1 and z·id_1 ⊗ f, for z ≠ 1 and with a stack on either side,
    build no sum merge, and equal bit for bit, blocks in the same order, the
    route through the sum merges: _through_merge with kron(f_k1, g_k2) on
    each group, as tensor takes it for any other pair of factors."""
    C, objects = duality_objects(name)
    if name not in ALGEBRA_OBJECTS:
        r = C.rank
        objects = [E.UNIT + E.obj(r - 1), E.obj(r - 1, min(1, r - 1))]
    S, T = objects[-1], objects[0]
    rng = np.random.default_rng(9)
    f = rand_morph(C, S, T, rng)
    fs = stacked([f] + [rand_morph(C, S, T, rng) for _ in range(2)])
    z = (0.3 - 1.2j) * E.identity(C, E.UNIT)
    zs = E.Morphism(C, E.UNIT, E.UNIT, {0: np.array([[[0.3 - 1.2j]], [[2.5 + 0.5j]], [[-1.0]]])})
    cases = [(f, z), (z, f), (fs, z), (z, fs), (f, zs), (zs, f), (fs, zs), (zs, z)]

    def through_merge(a, b):
        def pieces(k, group):
            k1, k2 = group[:2]
            if k1 not in a.blocks or k2 not in b.blocks:
                return []
            return [(group, E._kron(a.blocks[k1], b.blocks[k2]))]
        return E._through_merge(C, a.src, b.src, a.tgt, b.tgt, pieces,
                                lead=max(a.batch, b.batch, key=len))

    want = [through_merge(a, b) for a, b in cases]
    merges = []
    real_merge = E.sum_merge
    monkeypatch.setattr(E, "sum_merge",
                        lambda *args, **kw: merges.append(args) or real_merge(*args, **kw))
    got = [E.tensor(C, a, b) for a, b in cases]
    assert not merges
    for g, w in zip(got, want):
        assert (g.src, g.tgt, g.batch) == (w.src, w.tgt, w.batch)
        assert list(g.blocks) == list(w.blocks)
        assert all(g.blocks[k].tobytes() == w.blocks[k].tobytes() for k in w.blocks)


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
    want = E.Morphism(C, src, tgt, {})
    for ip in range(len(f.tgt)):
        for i in range(len(f.src)):
            fw = oracles.project(E, C, f.tgt, ip) @ f @ oracles.inject(E, C, f.src, i)
            for jp in range(len(g.tgt)):
                for j in range(len(g.src)):
                    gw = oracles.project(E, C, g.tgt, jp) @ g @ oracles.inject(E, C, g.src, j)
                    want = want + (oracles.inject(E, C, tgt, ip * len(g.tgt) + jp)
                                   @ E.tensor(C, fw, gw)
                                   @ oracles.project(E, C, src, i * len(g.src) + j))
    assert (E.tensor(C, f, g) - want).norm() < 1e-10


def test_compose_type_mismatch():
    C = get_catalog("fibonacci").data
    f = E.identity(C, ((1,),))
    g = E.identity(C, ((0,),))
    with pytest.raises(TypeMismatch):
        g @ f
    with pytest.raises(TypeMismatch):
        f + E.Morphism(C, ((1,),), ((0,),), {})


def test_scalar_and_trace_reject_wrong_signatures():
    C = get_catalog("fibonacci").data
    t = E.identity(C, ((1,),))
    with pytest.raises(TypeMismatch, match="closed"):
        t.scalar()
    with pytest.raises(TypeMismatch, match="endomorphism"):
        E.trace(C, E.Morphism(C, ((1,),), ((1,), (1,)), {}))


def test_mixed_categories_rejected():
    """Two loads of one category are two categories: composing, adding or
    tensoring morphisms of both raises, and so does tensoring in a category
    other than the morphisms' own."""
    C1, C2 = catalog("fibonacci").data, catalog("fibonacci").data
    assert C1 is not C2
    f, g = E.identity(C1, E.obj(1)), E.identity(C2, E.obj(1))
    for op in [lambda: f @ g, lambda: f + g, lambda: f - g,
               lambda: E.tensor(C1, f, g), lambda: E.tensor(C2, f, f)]:
        with pytest.raises(TypeMismatch, match="different categories"):
            op()


def test_vertex_covertex_duality():
    C = get_catalog("su2_2").data
    for e in range(C.rank):
        for a in range(C.rank):
            for b in range(C.rank):
                if C.N[a, b, e] == 0:
                    continue
                y = oracles.y_vertex(E, C, a, b, e, 0)
                yc = oracles.y_covertex(E, C, a, b, e, 0)
                assert ((yc @ y) - E.identity(C, E.obj(e))).norm() < 1e-12


def test_project_inject_partition():
    C = get_catalog("ising").data
    S = ((1,), (0, 2), (1, 1))
    total = E.Morphism(C, S, S, {})
    for i in range(len(S)):
        inj = oracles.inject(E, C, S, i)
        prj = oracles.project(E, C, S, i)
        assert ((prj @ inj) - E.identity(C, (S[i],))).norm() < 1e-12
        total = total + inj @ prj
    assert (total - E.identity(C, S)).norm() < 1e-12


def fresh_deven():
    """A freshly loaded su2_4, with an empty engine cache, and the object
    of its D-even algebra."""
    C = catalog("su2_4").data
    return C, F.parse_algebra(C, load_fixture("su2_4_deven.alg.json")).obj


def test_cached_layouts_hold_no_data():
    """tensor on a signature already used with other blocks, and braid on a
    signature already used by tensor, equal the results on a fresh category:
    the cached sum merges and layouts hold no block data.  A cached braiding
    is returned as a new Morphism on read-only blocks."""
    rng = np.random.default_rng(5)
    used, A = fresh_deven()
    W = ((1,), (3, 1))
    f1, f2 = rand_morph(used, A, W, rng), rand_morph(used, A, W, rng)
    g1, g2 = rand_morph(used, W, A, rng), rand_morph(used, W, A, rng)
    E.tensor(used, f1, g1)   # the same signature as braid(A, W)
    got = [E.tensor(used, f2, g2), E.braid(used, A, W)]
    fresh, _ = fresh_deven()
    want = [E.tensor(fresh, *(E.Morphism(fresh, h.src, h.tgt, dict(h.blocks)) for h in (f2, g2))),
            E.braid(fresh_deven()[0], A, W)]
    for m, w in zip(got, want):
        assert (m.src, m.tgt) == (w.src, w.tgt) and m.blocks.keys() == w.blocks.keys()
        assert all(np.array_equal(m.blocks[k], w.blocks[k]) for k in m.blocks)
    braided = got[1]
    k = next(iter(braided.blocks))
    with pytest.raises(ValueError):
        braided.blocks[k][0, 0] = 1.0
    braided.blocks.clear()
    again = E.braid(used, A, W)
    assert again is not braided and again.blocks.keys() == want[1].blocks.keys()


def test_sum_merges_are_shared_by_word_dims():
    """Objects whose words have equal sector dimensions share one stored sum
    merge and one inverse, bit for bit equal to a fill for either object on
    a fresh category; a repeat call returns the same array."""
    C, A = fresh_deven()
    padded = ((4, 4), (4,))   # 4 ⊗ 4 = 0 in su2_4, so (4, 4) has the dims of ()
    assert A == ((), (4,)) and E._word_dims_key(C, padded) == E._word_dims_key(C, A)
    T = ((1,), (3, 1))
    fresh, _ = fresh_deven()
    for k in E.obj_sectors(C, E.tensor_obj(A, T)):
        for inverse in (False, True):
            M = E.sum_merge(C, A, T, k, inverse)
            assert E.sum_merge(C, A, T, k, inverse) is M
            assert E.sum_merge(C, padded, T, k, inverse) is M
            assert E.sum_merge(fresh, padded, T, k, inverse).tobytes() == M.tobytes()
        # one word by one word: the merge matrix itself
        assert E.sum_merge(C, T[1:], A[1:], k) is E.merge_matrix(C, (3, 1), (4,), k)


def test_morphism_keeps_only_present_sectors():
    """Blocks of sectors that src or tgt lacks are dropped, whatever their
    shape; a present sector's block of the wrong shape raises, also next to
    such blocks; blocks of present sectors only are kept as given."""
    C = get_catalog("ising").data
    S = T = ((1,),)   # sigma: sector 1 only
    blk = np.ones((1, 1), dtype=complex)
    f = E.Morphism(C, S, T, {0: np.ones((2, 2)), 1: blk, 2: np.ones(3)})
    assert list(f.blocks) == [1] and f.blocks[1] is blk
    with pytest.raises(TypeMismatch):
        E.Morphism(C, S, T, {0: np.ones((1, 1)), 1: np.ones((1, 2))})
    blocks = {1: blk}
    g = E.Morphism(C, S, T, blocks)
    assert g.blocks is blocks and list(blocks) == [1] and blocks[1] is blk


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------

def braid_objects(name):
    """(C, S, T): two sum objects to braid, one of them multi-word."""
    if name in ALGEBRA_OBJECTS:
        C, (A,) = duality_objects(name)
        return C, A, ((C.rank - 1,), ())
    C = get_catalog(name).data
    r = C.rank
    return C, ((r - 1,), (min(1, r - 1),)), ((r - 1, min(1, r - 1)),)


@pytest.mark.parametrize("name", CATS + ["rep_a4_random"])
def test_braid_two_letters_is_r_matrix(name):
    C = rep_a4_random() if name == "rep_a4_random" else get_catalog(name).data
    r = C.rank
    for a in range(r):
        for b in range(r):
            m = E.braid(C, ((a,),), ((b,),))
            for k, blk in m.blocks.items():
                assert np.allclose(blk, C.rmat(a, b, k), atol=1e-12)


@pytest.mark.parametrize("name", CATS + list(ALGEBRA_OBJECTS))
def test_braid_inverse_roundtrip(name):
    C, S, T = braid_objects(name)
    fwd = E.braid(C, S, T)
    back = E.braid(C, T, S, inverse=True)
    # back is (c_{S,T})^{-1} as a map T⊗S -> S⊗T
    assert ((back @ fwd) - E.identity(C, E.tensor_obj(S, T))).norm() < 1e-10
    assert ((fwd @ back) - E.identity(C, E.tensor_obj(T, S))).norm() < 1e-10


@pytest.mark.parametrize("name", CATS + list(ALGEBRA_OBJECTS))
def test_braid_naturality(name):
    rng = np.random.default_rng(23)
    if name in ALGEBRA_OBJECTS:
        C, (A,) = duality_objects(name)
        r = C.rank
        S, Sp = A, A + ((),)
        T, Tp = ((r - 1,), ()), E.tensor_obj(A, ((r - 1,),))
    else:
        C = get_catalog(name).data
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
    """c_{u,v+w} and c_{u+v,w} factor through braidings of the parts, for
    the braiding and for the inverse braiding, on every letter triple and
    on triples with a two-letter word."""
    C = get_catalog(name).data
    r = C.rank
    a, b = r - 1, min(1, r - 1)
    triples = [((x,), (y,), (z,)) for x in range(r) for y in range(r) for z in range(r)]
    triples += [((a, b), (b,), (a,)), ((a,), (b,), (b, a))]

    def c(u, v, inverse):
        return E.braid(C, (u,), (v,), inverse=inverse)

    def ident(u):
        return E.identity(C, (u,))

    for inverse in (False, True):
        for u, v, w in triples:
            lhs = c(u, v + w, inverse)
            rhs = E.tensor(C, ident(v), c(u, w, inverse)) @ E.tensor(C, c(u, v, inverse), ident(w))
            assert (lhs - rhs).norm() < 1e-10
            lhs = c(u + v, w, inverse)
            rhs = E.tensor(C, c(u, w, inverse), ident(v)) @ E.tensor(C, ident(u), c(v, w, inverse))
            assert (lhs - rhs).norm() < 1e-10


@pytest.mark.parametrize("name", CATS + list(ALGEBRA_OBJECTS))
def test_braid_matches_word_pair_sum(name):
    """The braiding of sum objects is the sum over word pairs of the
    braidings of the single words, each moved to its summand."""
    if name in ALGEBRA_OBJECTS:
        C, (A,) = duality_objects(name)
        r = C.rank
        pairs = [(A, A), (A + ((),), ((r - 1,), (min(1, r - 1), r - 1), ()))]
    else:
        C = get_catalog(name).data
        r = C.rank
        rng = np.random.default_rng(17)

        def rand_sum():
            words = [tuple(int(x) for x in rng.integers(0, r, size=n)) for n in (1, 2)]
            words.insert(int(rng.integers(0, 3)), ())
            return tuple(words)

        pairs = [(rand_sum(), rand_sum()) for _ in range(2)]
    for S, T in pairs:
        ST, TS = E.tensor_obj(S, T), E.tensor_obj(T, S)
        for inverse in (False, True):
            want = E.Morphism(C, ST, TS, {})
            for i, wi in enumerate(S):
                for j, wj in enumerate(T):
                    want = want + (oracles.inject(E, C, TS, j * len(S) + i)
                                   @ E.braid(C, (wi,), (wj,), inverse=inverse)
                                   @ oracles.project(E, C, ST, i * len(T) + j))
            assert (E.braid(C, S, T, inverse=inverse) - want).norm() < 1e-10


@pytest.mark.parametrize("name", CATS)
def test_braid_with_unit_is_identity(name):
    C = get_catalog(name).data
    r = C.rank
    for w in [(r - 1,), (r - 1, min(1, r - 1))]:
        # a unit strand braids trivially on either side, in either direction
        for m in (
            E.braid(C, ((0,),), (w,)),
            E.braid(C, (w,), ((0,),)),
            E.braid(C, ((0,),), (w,), inverse=True),
            E.braid(C, ((),), (w,)),
        ):
            for blk in m.blocks.values():
                assert np.allclose(blk, np.eye(blk.shape[0]), atol=1e-12)


# ---------------------------------------------------------------------------
# duality and traces
# ---------------------------------------------------------------------------

def letters(C):
    """The single-letter objects of every label, the unit's being UNIT."""
    return [E.obj(a) for a in range(C.rank)]


def assert_zigzags(C, S):
    """The four zig-zags of S's duality maps are identities."""
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


@pytest.mark.parametrize("name", CATS + ["su2_4", "vec_z4"])
def test_duality_coherence(name):
    """Every letter's duality maps satisfy the zig-zags, and its left and
    right traces of the identity (its dimension) agree."""
    C = get_catalog(name).data
    for S in letters(C):
        assert_zigzags(C, S)
        ident = E.identity(C, S)
        assert abs(oracles.trace_left(E, C, ident) - oracles.trace_right(E, C, ident)) < 1e-10


@pytest.mark.parametrize("name", CATS + ["su2_4", "vec_z4"] + list(ALGEBRA_OBJECTS))
def test_word_zigzags(name):
    C, objects = duality_objects(name)
    for S in objects:
        assert_zigzags(C, S)


@pytest.mark.parametrize("name", CATS + ["su2_4", "vec_z4"] + list(ALGEBRA_OBJECTS))
def test_traces_agree(name):
    C, objects = duality_objects(name)
    rng = np.random.default_rng(5)
    for S in objects:
        f = rand_morph(C, S, S, rng)
        tl = oracles.trace_left(E, C, f)
        tr = oracles.trace_right(E, C, f)
        tf = E.trace(C, f)
        assert abs(tl - tr) < 1e-9
        assert abs(tf - tl) < 1e-9


def test_vanishing_unit_channel_is_non_sovereign():
    """Z2 fusion rules that were never loaded: F^{a ā a}_a is all zero, so
    the duality maps of a, and its dimension, do not exist."""
    N = np.zeros((2, 2, 2), dtype=int)
    for a, b in itertools.product(range(2), repeat=2):
        N[a, b, (a + b) % 2] = 1
    C = mtc.MtcData(labels=("1", "e"), dual=np.array([0, 1]), N=N,
                    twist=np.ones(2, dtype=complex), tol=1e-9)
    with pytest.raises(NonSovereignGauge):
        E.dim(C, 1)


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
    y = oracles.y_vertex(E, C, 1, 1, 0)
    yc = oracles.y_covertex(E, C, 1, 1, 0)
    proj = y @ yc
    assert abs(E.trace(C, proj) - 1.0) < 1e-12


@pytest.mark.parametrize("name, label, want", [
    ("fibonacci", "t", (1 + np.sqrt(5)) / 2),
    ("ising", "sigma", np.sqrt(2)),
], ids=["fibonacci", "ising"])
def test_closed_loop_gives_quantum_dimension(name, label, want):
    """The loop d~ ∘ b on a letter is its quantum dimension."""
    C = get_catalog(name).data
    S = E.obj(C.index(label))
    assert abs((E.cap_tilde_obj(C, S) @ E.cup_obj(C, S)).scalar() - want) < 1e-12


@pytest.mark.parametrize("name", CATS)
def test_monodromy_diagram_matches_s_matrix(name):
    """The closed diagram of two loops a and b linked once, cups, the double
    braiding c_{b,a} ∘ c_{a,b} on the strands a ⊗ b, and the two caps d~, is
    S[a, b] of mtc.s_matrix; in fibonacci S[t, t] = −1."""
    C = get_catalog(name).data
    ident = lambda S: E.identity(C, S)

    def linked_loops(a, b):
        A, B = E.obj(a), E.obj(b)
        Ad, Bd = E.dual_obj(C, A), E.dual_obj(C, B)
        cups = E.tensor(C, ident(A), E.tensor(C, E.cup_obj(C, B), ident(Ad))) @ E.cup_obj(C, A)
        monodromy = E.tensor(C, E.braid(C, B, A) @ E.braid(C, A, B),
                             ident(E.tensor_obj(Bd, Ad)))
        caps = (E.cap_tilde_obj(C, A)
                @ E.tensor(C, ident(A), E.tensor(C, E.cap_tilde_obj(C, B), ident(Ad))))
        return (caps @ monodromy @ cups).scalar()

    got = np.array([[linked_loops(a, b) for b in range(C.rank)] for a in range(C.rank)])
    np.testing.assert_allclose(got, mtc.s_matrix(C).entries, rtol=0, atol=1e-10)
    if name == "fibonacci":
        assert abs(got[1, 1] - (-1.0)) < 1e-10


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", CATS)
def test_hom_dims_match_fusion_counts(name):
    C = get_catalog(name).data
    r = C.rank
    for a in range(r):
        for b in range(r):
            assert E.hom_dim(C, ((a,),), ((b,),)) == (1 if a == b else 0)
    a, b = r - 1, min(1, r - 1)
    expected = int(np.sum(C.N[a, b] ** 2))
    assert E.hom_dim(C, ((a, b),), ((a, b),)) == expected


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
    units = [E.from_vec(C, S, S, e) for e in np.eye(E.hom_dim(C, S, S))]
    commutator = np.array([E.vec((bm @ f) - (f @ bm)) for f in units]).T
    sols, _ = E.nullspace_morphisms(C, S, S, commutator)
    # End(s⊗s) is 2-dim and the braiding is diagonal in the channel basis,
    # with distinct eigenvalues, so the commutant is the full diagonal
    assert len(sols) == 2
    for f in sols:
        assert ((bm @ f) - (f @ bm)).norm() < 1e-9


def test_nullspace_returns_basis_and_gap():
    """nullspace_morphisms(C, S, T, M) returns a (list, float) pair, also for
    an empty Hom space: the benchmark's trace reads C, S and T from the first
    three positional arguments and the smallest gap from the pair."""
    C = get_catalog("ising").data
    S = ((1, 1),)
    for T, M in [(S, np.diag([1.0, 1e-20])), (((1,),), np.zeros((0, 0)))]:
        result = E.nullspace_morphisms(C, S, T, M)
        assert isinstance(result, tuple) and len(result) == 2
        basis, gap = result
        assert isinstance(basis, list) and isinstance(gap, float)
        assert len(basis) == (1 if T == S else 0)
    assert E.nullspace_morphisms(C, S, S, np.diag([1.0, 1e-20]))[1] == 1e20


# ---------------------------------------------------------------------------
# stacks: blocks with a leading batch axis
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def deven_stacks():
    """su2_4, its normalized D-even algebra, and the actions (ρ_l, ρ_r) of
    the simple bimodules on each object that carries two or more of them."""
    from bimodfusion import bimodules as B
    C = get_catalog("su2_4").data
    A = F.normalize_counit(C, F.parse_algebra(C, load_fixture("su2_4_deven.alg.json")))
    groups: dict = {}
    for X in B.simple_bimodules(C, A, seed=0):
        groups.setdefault(X.obj, []).append((X.rho_l, X.rho_r))
    stacks = [list(zip(*g)) for g in groups.values() if len(g) > 1]
    assert stacks
    return C, A, stacks


def stacked(fs):
    f = fs[0]
    return E.Morphism(f.cat, f.src, f.tgt,
                      {k: np.stack([g.blocks[k] for g in fs]) for k in f.blocks})


def assert_items_equal(stack, items):
    """Item t of the stack is bitwise the morphism items[t]."""
    assert stack.batch == (len(items),)
    for t, f in enumerate(items):
        assert (stack.src, stack.tgt) == (f.src, f.tgt)
        assert stack.blocks.keys() == f.blocks.keys()
        assert all(np.array_equal(stack.blocks[k][t], f.blocks[k]) for k in f.blocks)


def test_stacked_tensor_matches_items(deven_stacks):
    """tensor of a stack with a stack, with a single morphism on either side,
    and of a stack of one, gives item by item what tensor gives on the items."""
    C, A, stacks = deven_stacks
    id_a = E.identity(C, A.obj)
    for rls, rrs in stacks:
        assert_items_equal(E.tensor(C, stacked(rls), stacked(rrs)),
                           [E.tensor(C, f, g) for f, g in zip(rls, rrs)])
        assert_items_equal(E.tensor(C, stacked(rls), id_a), [E.tensor(C, f, id_a) for f in rls])
        assert_items_equal(E.tensor(C, id_a, stacked(rrs)), [E.tensor(C, id_a, g) for g in rrs])
        one = stacked(rls[:1])
        assert_items_equal(E.tensor(C, one, stacked(rrs[:1])), [E.tensor(C, rls[0], rrs[0])])
        assert_items_equal(E.tensor(C, one, id_a), [E.tensor(C, rls[0], id_a)])
        assert_items_equal(E.tensor(C, id_a, one), [E.tensor(C, id_a, rls[0])])


def test_stack_of_one_tensor_rounds_as_its_item():
    """numpy picks its complex-product loop, and so the rounding, by the
    operands' layout; a stack of one 1×1 block against a single 1×1 block
    is the case where a plain broadcast would take another loop."""
    C = get_catalog("ising").data
    rng = np.random.default_rng(17)
    S, T = E.obj(1), E.obj(2)
    for _ in range(20):
        f, g = rand_morph(C, S, S, rng), rand_morph(C, T, T, rng)
        assert_items_equal(E.tensor(C, stacked([f]), g), [E.tensor(C, f, g)])
        assert_items_equal(E.tensor(C, g, stacked([f])), [E.tensor(C, g, f)])


def test_stacked_algebra_and_trace_match_items(deven_stacks):
    """Composition (stack with stack and with a single morphism), sums,
    scalar multiples and the trace of a stack, item by item."""
    C, A, stacks = deven_stacks
    id_a = E.identity(C, A.obj)
    rng = np.random.default_rng(11)
    for rls, rrs in stacks:
        X = rls[0].tgt
        id_x = E.identity(C, X)
        u = rand_morph(C, E.UNIT, A.obj, rng)
        rev = rls[::-1]
        sl = stacked(rls)
        assert_items_equal(sl @ E.tensor(C, id_a, sl),
                           [f @ E.tensor(C, id_a, f) for f in rls])
        assert_items_equal(sl @ E.tensor(C, A.m, id_x), [f @ E.tensor(C, A.m, id_x) for f in rls])
        assert_items_equal(id_x @ sl, [id_x @ f for f in rls])
        assert_items_equal(sl + stacked(rev), [f + g for f, g in zip(rls, rev)])
        counit = E.tensor(C, A.eps, id_x)
        assert_items_equal(sl - counit, [f - counit for f in rls])
        z = complex(rng.standard_normal(), rng.standard_normal())
        assert_items_equal(z * sl, [z * f for f in rls])
        ends = [g @ E.tensor(C, id_x, u) @ f @ E.tensor(C, u, id_x) for f, g in zip(rls, rrs)]
        got = E.trace(C, stacked(ends))
        assert isinstance(got, np.ndarray) and got.shape == (len(ends),)
        assert np.array_equal(got, np.array([E.trace(C, f) for f in ends]))
        assert isinstance(E.trace(C, ends[0]), complex)


def test_stacked_action_matrix_matches_items(deven_stacks):
    """A stack ρ_X gives one intertwiner matrix per item, for left and right
    actions, against the actions of another simple."""
    C, A, stacks = deven_stacks
    rho_y = stacks[-1][0][0], stacks[-1][1][0]
    for rls, rrs in stacks:
        for left, fs, ry in ((True, rls, rho_y[0]), (False, rrs, rho_y[1])):
            got = E.action_matrix(C, A.obj, stacked(fs), ry, left)
            want = [E.action_matrix(C, A.obj, f, ry, left) for f in fs]
            assert got.shape == (len(fs),) + want[0].shape
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_stacked_scalar_matches_items():
    """scalar() of a stack of closed morphisms is one value per item, as
    trace is: here the right traces of a stack of endomorphisms."""
    C = get_catalog("ising").data
    rng = np.random.default_rng(23)
    S = E.obj(1, 1)
    fs = [rand_morph(C, S, S, rng) for _ in range(3)]
    got = oracles.trace_right(E, C, stacked(fs))
    assert isinstance(got, np.ndarray) and got.shape == (3,)
    assert np.array_equal(got, [oracles.trace_right(E, C, f) for f in fs])


def test_morphism_checks_only_the_matrix_axes():
    """A block may carry leading axes; the last two must fit the sectors, and
    a missing block is a zero of the stack's shape."""
    C = get_catalog("ising").data
    S, T = ((1, 1),), ((0,), (2,))
    f = E.Morphism(C, S, T, {0: np.ones((3, 1, 1))})
    assert f.batch == (3,) and f.blocks[2].shape == (3, 1, 1) and not f.blocks[2].any()
    with pytest.raises(TypeMismatch):
        E.Morphism(C, S, T, {0: np.ones((1, 3))})
    assert E.Morphism(C, S, T, {}).batch == ()


# ---------------------------------------------------------------------------
# open diagrams written as engine calls: zig-zags, braid round trips, unit
# strands, reassociation and boundary mismatches
# ---------------------------------------------------------------------------

def _letter(C, label):
    return E.obj(C.index(label))


def test_evaluation_drops_unit_letters():
    """Words are built without the unit label: a unit strand in an identity,
    a duality map or a braiding leaves the word and the map unchanged."""
    C = get_catalog("ising").data
    one, sigma = C.index("1"), C.index("sigma")
    m = E.identity(C, E.obj(one, sigma))
    assert (m.src, m.tgt) == (((1,),), ((1,),))
    assert (m - E.identity(C, E.obj(sigma))).norm() == 0
    U = E.obj(one)
    for d in (E.cup_obj(C, U), E.cap_obj(C, U), E.cup_tilde_obj(C, U),
              E.cap_tilde_obj(C, U), E.identity(C, E.obj(one, one))):
        assert (d - E.identity(C, E.UNIT)).norm() == 0
    S = E.obj(sigma)
    for m in (E.braid(C, U, S), E.braid(C, S, U, inverse=True)):
        assert (m - E.identity(C, S)).norm() < 1e-12
    f = E.braid(C, S, S)
    assert (E.identity(C, E.obj(one, sigma, sigma)) @ f - f).norm() == 0


def test_evaluate_runtime_type_mismatch():
    """d_ψ ∘ b_σ: the cup's target σσ∨ is not the cap's source ψ∨ψ."""
    C = get_catalog("ising").data
    with pytest.raises(TypeMismatch):
        E.cap_obj(C, _letter(C, "psi")) @ E.cup_obj(C, _letter(C, "sigma"))


def test_zigzag_diagram_is_identity():
    """(id_t ⊗ d_t) ∘ (b_t ⊗ id_t) = id_t in fibonacci."""
    C = get_catalog("fibonacci").data
    T = _letter(C, "t")
    ident = E.identity(C, T)
    m = E.tensor(C, ident, E.cap_obj(C, T)) @ E.tensor(C, E.cup_obj(C, T), ident)
    assert (m - ident).norm() < 1e-12


def test_braid_inverse_roundtrip_diagram():
    """c⁻¹ ∘ c_{σ,ψ} = id_{σψ} in ising."""
    C = get_catalog("ising").data
    S, P = _letter(C, "sigma"), _letter(C, "psi")
    m = E.braid(C, P, S, inverse=True) @ E.braid(C, S, P)
    assert (m - E.identity(C, ((1, 2),))).norm() < 1e-12


def test_evaluation_is_reassociation_stable():
    """Regrouping a composite or a tensor product of a random f on su2_2
    leaves the result unchanged."""
    C = get_catalog("su2_2").data
    rng = np.random.default_rng(1)
    S = ((1,),)
    blocks = {k: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
              for k in range(C.rank) if (d := E.obj_dim(C, S, k))}
    f = E.Morphism(C, S, S, blocks)
    assert ((f @ f) @ f - f @ (f @ f)).norm() < 1e-12
    a = E.tensor(C, E.tensor(C, f, f), f)
    b = E.tensor(C, f, E.tensor(C, f, f))
    assert (a - b).norm() < 1e-10


def test_digit_labels_evaluate():
    """vec_z3 names its simples by digits; c_{1,2} is R^{12}_0 = ω²."""
    C = get_catalog("vec_z3").data
    m = E.braid(C, _letter(C, "1"), _letter(C, "2"))
    assert abs(m.blocks[0][0, 0] - np.exp(2j * np.pi * 2 / 3)) < 1e-12
