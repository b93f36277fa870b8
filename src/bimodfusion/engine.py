"""Morphism calculus in fusion-tree bases.

Objects are formal direct sums of tensor words of simple labels: a ``Word``
is a tuple of label indices and a ``SumObject`` is a tuple of words.  The
tensor unit is strict: words never contain the unit label 0, because
:func:`obj` drops it, so the unit is the empty word and ``obj(0)`` is
``UNIT``; concatenating or dualizing such words gives such words again.
A morphism between sum objects is stored as one complex block per total
sector k: the matrix of the map on Hom(U_k, -) in the canonical fusion-tree
bases.

The canonical basis of Hom(U_k, x_1 ⊗ ... ⊗ x_n) is the set of left-comb
fusion trees, and both its size and its order follow from the fusion rules
N alone, so trees are never built: :func:`word_dims` counts them per sector,
dims(w + (b,)) = dims(w) · N[:, b, :], and the tree of w + (b,) in sector k
through tree i of w in sector e and vertex mu has index
start[e] + i·N[e, b, k] + mu (:func:`tree_starts`).  All structural
morphisms (tensor products of morphisms, braidings, cups/caps) are expressed
in these bases via the F and R tables of the category; the key internal
object is the merge matrix :func:`merge_matrix`, which rewrites the "pair of
trees plus joining vertex" basis of Hom(k, u ⊗ v) in the plain tree basis of
the concatenated word.  Its sum-object form :func:`sum_merge` does the same
for Hom(k, S ⊗ T) of two sum objects, from a grouped basis with one kron
block Hom(k1, S) ⊗ Hom(k2, T) per joining vertex (k1, k2, mu); the pair
basis is that layout for two words, and :func:`sum_groups` builds both from
the sector dimensions.  The sum merge is assembled from the word-level
merge matrices, and its inverse is the matrix inverse of that forward sum
merge (no word-level inverses are made).  :func:`tensor` and :func:`braid`
both multiply whole sector blocks through them and never loop over word
pairs: a braiding is read off by naturality from the R-matrices of the
joining vertices, c_{S,T} ∘ (t1 ⊗ t2) ∘ y = (t2 ⊗ t1) ∘ c_{k1,k2} ∘ y.
Two cases need no merge: the forward sum merge of one word by one word is
their merge matrix itself, and a tensor factor that is an endomorphism of
UNIT leaves the other factor's objects as they are (S ⊗ 1 = S), so the
blocks are krons with its one sector-0 block.

The cup or cap of a sum object S is summand-diagonal: its one sector-0
block holds each word's map, built one letter at a time, at the offset of
that word's pair in S ⊗ S∨ (or S∨ ⊗ S), and zeros elsewhere.

A morphism's blocks may carry leading batch axes: a stack of morphisms
with one signature, such as the actions of several modules on one object.
Composition, sums, scalar multiples, :func:`tensor` and the ρ_X side of
:func:`action_matrix` broadcast over them, so the structural maps are read
once for the whole stack, and :func:`trace` of a stack, like ``scalar()``
of a stack of closed morphisms, is one value per item.  A single morphism
is the case with no batch axes.

Each structural map is cached once per category, in the store
``C._cache[kind]``, a dict keyed by what the map depends on:

* ``wdims``, ``dims``: sector dimensions per word, per object.
* ``dimslayout``: sector layouts per pair of sector dims.
* ``layout``: the same layouts per (src, tgt).
* ``eye``: read-only identity blocks per object.
* ``sumgroups``: grouped bases per (sector dims of S, of T, k).
* ``merge``: merge matrices per (word_dims(u), v, k).
* ``sumdims``: the word dims of the words of S, per S.
* ``sumorder``: forward sum merge column orders per (sumdims of S, of T, k).
* ``summerge``: sum merges and their inverses per (sumdims of S, T, k,
  inverse), so objects with equal word dims share one fill.
* ``braid``: braidings per (S, T, inverse).
* ``cup``, ``cap``, ``cupt``, ``capt``: duality maps per word.
* ``smatrix``: the S-matrix of :func:`mtc.s_matrix`, under the key ().
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import NonSovereignGauge, TypeMismatch
from .mtc import MtcData

Word = tuple
SumObject = tuple

UNIT: SumObject = ((),)


def obj(*letters: int) -> SumObject:
    """Sum object with a single word: the letters without the unit label."""
    return (tuple(x for x in letters if x),)


def dual_word(C: MtcData, w: Word) -> Word:
    return tuple(int(C.dual[x]) for x in reversed(w))


def dual_obj(C: MtcData, S: SumObject) -> SumObject:
    return tuple(dual_word(C, w) for w in S)


def tensor_obj(S: SumObject, T: SumObject) -> SumObject:
    return tuple(wi + wj for wi in S for wj in T)


# ---------------------------------------------------------------------------
# tree bookkeeping
# ---------------------------------------------------------------------------

def word_dims(C: MtcData, w: Word) -> tuple:
    """Number of fusion trees of w in every sector:
    dims(()) = e_0 and dims(w + (b,)) = dims(w) · N[:, b, :]."""
    store = C._cache["wdims"]
    out = store.get(w)
    if out is None:
        if w:
            out = tuple(np.dot(word_dims(C, w[:-1]), C.N[:, w[-1], :]).tolist())
        else:
            out = (1,) + (0,) * (C.rank - 1)
        store[w] = out
    return out


def tree_starts(C: MtcData, w: Word, b: int, k: int) -> list:
    """First index, per sector e of w, of the trees of w + (b,) in sector k
    that go through e: the tree through tree i of w in e and vertex mu of
    N[e, b, k] has index start[e] + i·N[e, b, k] + mu."""
    counts = (d * n for d, n in zip(word_dims(C, w), C.N[:, b, k].tolist()))
    return list(itertools.accumulate(counts, initial=0))[:-1]


def obj_dims(C: MtcData, S: SumObject) -> tuple:
    """Dimension of every sector of S: (dim Hom(U_k, S) for k in 0..rank-1)."""
    store = C._cache["dims"]
    out = store.get(S)
    if out is None:
        out = store[S] = tuple(sum(word_dims(C, w)[k] for w in S) for k in range(C.rank))
    return out


def obj_dim(C: MtcData, S: SumObject, k: int) -> int:
    return obj_dims(C, S)[k]


def obj_offsets(C: MtcData, S: SumObject, k: int) -> list:
    """Start offset of each summand word inside the sector-k basis of S."""
    return list(itertools.accumulate((word_dims(C, w)[k] for w in S), initial=0))


def obj_sectors(C: MtcData, S: SumObject) -> list:
    return [k for k, d in enumerate(obj_dims(C, S)) if d > 0]


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class Morphism:
    """A morphism src -> tgt, one block per total sector.

    blocks[k] has shape batch + (dim_k(tgt), dim_k(src)); every sector with
    both dimensions positive has an entry (possibly a zero matrix).  The
    leading ``batch`` axes, () for a single morphism, hold a stack of
    morphisms with one signature; every operation broadcasts over them.
    """

    cat: MtcData = field(repr=False)
    src: SumObject
    tgt: SumObject
    blocks: dict
    batch: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        present, absent = _layout(self.cat, self.src, self.tgt)
        blocks = self.blocks
        missing = []
        lead = ()
        for k, shape in present:
            blk = blocks.get(k)
            if blk is None:
                missing.append((k, shape))
                continue
            blk = np.asarray(blk, dtype=complex)
            if blk.shape[-2:] != shape:
                raise TypeMismatch(
                    f"sector {k} block has shape {blk.shape}, expected {shape}"
                )
            lead = blk.shape[:-2]
            blocks[k] = blk
        # blocks beyond the present sectors' can only be of absent ones
        if len(blocks) > len(present) - len(missing):
            for k in absent:
                blocks.pop(k, None)
        for k, shape in missing:
            blocks[k] = np.zeros(lead + shape, dtype=complex)
        self.batch = lead

    # -- algebra ----------------------------------------------------------
    def __matmul__(self, other: "Morphism") -> "Morphism":
        """Mathematical composition self ∘ other."""
        if not isinstance(other, Morphism):
            return NotImplemented
        if other.cat is not self.cat:
            raise TypeMismatch("morphisms live in different categories")
        if other.tgt != self.src:
            raise TypeMismatch(
                f"cannot compose: intermediate objects differ ({other.tgt} vs {self.src})"
            )
        blocks = {}
        for k, blk in self.blocks.items():
            oblk = other.blocks.get(k)
            if oblk is not None:
                blocks[k] = blk @ oblk
        return Morphism(self.cat, other.src, self.tgt, blocks)

    def __add__(self, other: "Morphism") -> "Morphism":
        if other.cat is not self.cat:
            raise TypeMismatch("morphisms live in different categories")
        if (other.src, other.tgt) != (self.src, self.tgt):
            raise TypeMismatch("cannot add morphisms with different signatures")
        return Morphism(
            self.cat, self.src, self.tgt,
            {k: blk + other.blocks[k] for k, blk in self.blocks.items()},
        )

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self + (-1.0) * other

    def __rmul__(self, z) -> "Morphism":
        return Morphism(
            self.cat, self.src, self.tgt,
            {k: z * blk for k, blk in self.blocks.items()},
        )

    def __neg__(self) -> "Morphism":
        return (-1.0) * self

    def norm(self) -> float:
        """Max absolute entry over all blocks."""
        vals = [np.max(np.abs(blk)) for blk in self.blocks.values() if blk.size]
        return float(max(vals)) if vals else 0.0

    def scalar(self):
        """The value of an endomorphism of the tensor unit: a complex
        number, or for a stack an array of one value per item."""
        if self.src != UNIT or self.tgt != UNIT:
            raise TypeMismatch("scalar() requires a closed (unit-to-unit) morphism")
        blk = self.blocks[0]
        if self.batch:
            return blk[..., 0, 0].copy()
        return complex(blk[0, 0])


def _layout(C: MtcData, src: SumObject, tgt: SumObject) -> tuple:
    """Sector layout of the morphisms src -> tgt: ``(present, absent)``, the
    (k, (dim_k(tgt), dim_k(src))) of each sector with both dimensions
    positive and the other sectors k, both in ascending order.  It is read
    in one lookup per (src, tgt); a miss finds it under the sector
    dimensions of the two objects, on which alone it depends."""
    store = C._cache["layout"]
    out = store.get((src, tgt))
    if out is not None:
        return out
    dims = (obj_dims(C, src), obj_dims(C, tgt))
    by_dims = C._cache["dimslayout"]
    out = by_dims.get(dims)
    if out is None:
        present, absent = [], []
        for k, (ds, dt) in enumerate(zip(*dims)):
            if ds and dt:
                present.append((k, (dt, ds)))
            else:
                absent.append(k)
        out = by_dims[dims] = (tuple(present), tuple(absent))
    store[src, tgt] = out
    return out


def identity(C: MtcData, S: SumObject) -> Morphism:
    """id_S, on read-only identity blocks shared per S."""
    store = C._cache["eye"]
    blocks = store.get(S)
    if blocks is None:
        blocks = store[S] = {}
        for k in obj_sectors(C, S):
            blocks[k] = np.eye(obj_dim(C, S, k), dtype=complex)
            blocks[k].setflags(write=False)
    return Morphism(C, S, S, dict(blocks))


# ---------------------------------------------------------------------------
# merge matrices: Hom(k, u ⊗ v) pair basis -> tree basis of the joined word
# ---------------------------------------------------------------------------

def sum_groups(C: MtcData, dS: tuple, dT: tuple, k: int) -> dict:
    """Layout of the grouped basis of Hom(k, S ⊗ T), for S and T with the
    sector dimensions dS and dT (:func:`obj_dims`, or :func:`word_dims` of
    two words, where it is the pair basis of :func:`merge_matrix`).

    For each (k1, k2, mu) with both sectors present, in canonical order, the
    group is the kron basis of Hom(k1, S) ⊗ Hom(k2, T) joined by vertex mu:
    column g + i1·dT[k2] + i2, with g the group's first column, which is
    what the returned dict maps (k1, k2, mu) to.
    """
    store = C._cache["sumgroups"]
    out = store.get((dS, dT, k))
    if out is None:
        out = store[dS, dT, k] = {}
        acc = 0
        for k1, k2 in itertools.product(range(C.rank), repeat=2):
            n = dS[k1] * dT[k2]
            if n == 0:
                continue
            for mu in range(C.N[k1, k2, k]):
                out[(k1, k2, mu)] = acc
                acc += n
    return out


def _strided(start: int, count: int, stride: int) -> slice:
    return slice(start, start + count * stride, stride)


def merge_matrix(C: MtcData, u: Word, v: Word, k: int) -> np.ndarray:
    """Matrix taking pair-basis coordinates (:func:`sum_groups` of the two
    words) to tree-basis coordinates of u+v (:func:`tree_starts`).

    With v = v1 + (b,), tree i2 of v in sector k2 goes through sector q of
    v1, tree i2p of v1 there and vertex nu of N[q, b, k2], in that order.
    The inverse F-move at (k1, q, b; k) rewrites each pair-basis column as
    columns of merge_matrix(u, v1, e), each extended by a vertex (e, b; k).

    Nothing here reads the letters of u, only its sector dimensions, so the
    cache is keyed by (word_dims(u), v, k): words with equal dimensions share
    one matrix.  The empty u is no exception, because F-matrices with a unit
    letter are identities.
    """
    store = C._cache["merge"]
    key = (word_dims(C, u), v, k)
    M = store.get(key)
    if M is not None:
        return M
    dim = word_dims(C, u + v)[k]
    if len(u) == 0 or len(v) == 0:
        M = np.eye(dim, dtype=complex)
    else:
        M = np.zeros((dim, dim), dtype=complex)
        N = C.N
        v1, b = v[:-1], v[-1]
        du, dv, dv1, duv1 = (word_dims(C, w) for w in (u, v, v1, u + v1))
        starts = tree_starts(C, u + v1, b, k)
        for (k1, k2, mu), g in sum_groups(C, du, dv, k).items():
            n1, n2 = du[k1], dv[k2]
            if not v1:
                M[_strided(starts[k1] + mu, n1, N[k1, b, k]), g:g + n1] = np.eye(n1)
                continue
            i2 = 0
            for q in range(C.rank):
                nq, nb = dv1[q], N[q, b, k2]
                if nq == 0 or nb == 0:
                    continue
                finv = C.finv(k1, q, b, k)
                # the F⁻¹ row of the right channel (k2, nu, mu), for each nu
                coeff_rows = [finv[C.right_index(k1, q, b, k, k2, nu, mu)] for nu in range(nb)]
                # (index, sector, rows of the extended trees, first column in
                # the pair basis of (u, v1, e)) of each left channel
                moves = [(lidx, e, _strided(starts[e] + sigp, duv1[e], N[e, b, k]),
                          sum_groups(C, du, dv1, e)[(k1, q, rhop)])
                         for lidx, (e, rhop, sigp)
                         in enumerate(C.left_channels(k1, q, b, k).tolist())]
                for i2p in range(nq):
                    for coeffs in coeff_rows:
                        for lidx, e, rows, gp in moves:
                            coeff = coeffs[lidx]
                            if coeff == 0:
                                continue
                            sub = merge_matrix(C, u, v1, e)
                            for i1 in range(n1):
                                M[rows, g + i1 * n2 + i2] += coeff * sub[:, gp + i1 * nq + i2p]
                        i2 += 1
    M.setflags(write=False)
    store[key] = M
    return M


# ---------------------------------------------------------------------------
# merge matrices of sum objects: grouped basis -> tree basis of S ⊗ T
# ---------------------------------------------------------------------------

def _word_dims_key(C: MtcData, S: SumObject) -> tuple:
    """word_dims of each word of S: what the sum merges read of S."""
    store = C._cache["sumdims"]
    out = store.get(S)
    if out is None:
        out = store[S] = tuple(word_dims(C, w) for w in S)
    return out


def _sum_order(C: MtcData, wS: tuple, wT: tuple, k: int) -> tuple:
    """``(bounds, cols)`` of the forward sum merge of S ⊗ T in sector k, for
    S and T with the word dims wS and wT (:func:`_word_dims_key`): word pair
    p has the rows bounds[p]:bounds[p + 1], and its pair-basis column c is
    grouped column cols[bounds[p] + c] (the order in :func:`sum_merge`)."""
    store = C._cache["sumorder"]
    out = store.get((wS, wT, k))
    if out is not None:
        return out
    # row i of each is the offset of word i in every sector of its object
    offS, offT = (list(itertools.accumulate(w, lambda acc, d: tuple(map(operator.add, acc, d)),
                                            initial=(0,) * C.rank)) for w in (wS, wT))
    dT = offT[-1]
    groups = sum_groups(C, offS[-1], dT, k)
    bounds, cols = [0], []
    for (du, oS), (dv, oT) in itertools.product(zip(wS, offS), zip(wT, offT)):
        # the pair basis of (u, v) has, in the same order, the groups of
        # S ⊗ T whose sector k1 of u and sector k2 of v both have trees
        for (k1, k2, _), g in groups.items():
            if du[k1] and dv[k2]:
                step = dT[k2]
                first = g + oS[k1] * step + oT[k2]
                cols += [first + i1 * step + i2 for i1 in range(du[k1]) for i2 in range(dv[k2])]
        bounds.append(len(cols))
    out = store[wS, wT, k] = (bounds, np.array(cols, dtype=np.intp))
    return out


def sum_merge(C: MtcData, S: SumObject, T: SumObject, k: int,
              inverse: bool = False) -> np.ndarray:
    """Matrix taking grouped coordinates (:func:`sum_groups`) to tree-basis
    coordinates of S ⊗ T in sector k, or its inverse.

    Up to a column order it is block diagonal over the word pairs, one
    merge_matrix block each: pair-basis column g + i1·n2 + i2 of words
    (S[i], T[j]) is grouped column G + (o_i + i1)·dT[k2] + o_j + i2, with G
    the group's first column in S ⊗ T and o_i, o_j the offsets of the words
    in sectors k1 of S and k2 of T.  That order reads only sector
    dimensions (:func:`_sum_order`).  For one word by one word it is the
    identity, so the forward matrix is their merge_matrix itself, and the
    store holds no copy of it.  The inverse is the inverse of the forward
    matrix.  Like :func:`merge_matrix`, both depend on S only through the
    sector dimensions of its words, so both are filled once per (word_dims
    of each word of S, T, k, inverse) in one store.
    """
    if not inverse and len(S) == 1 and len(T) == 1:
        return merge_matrix(C, S[0], T[0], k)
    store = C._cache["summerge"]
    wS = _word_dims_key(C, S)
    M = store.get((wS, T, k, inverse))
    if M is None:
        if inverse:
            M = np.linalg.inv(sum_merge(C, S, T, k))
        else:
            bounds, cols = _sum_order(C, wS, _word_dims_key(C, T), k)
            M = np.zeros((bounds[-1], bounds[-1]), dtype=complex)
            for p, (wi, wj) in enumerate(itertools.product(S, T)):
                lo, hi = bounds[p], bounds[p + 1]
                if lo < hi:
                    M[lo:hi, cols[lo:hi]] = merge_matrix(C, wi, wj, k)
        M.setflags(write=False)
        store[wS, T, k, inverse] = M
    return M


# ---------------------------------------------------------------------------
# tensor product of morphisms
# ---------------------------------------------------------------------------

def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes, broadcast over the leading ones.

    numpy rounds a complex product by one of several loops, chosen by the
    operands' layout; given equal ranks, each item of a stack is formed by
    the loop its own pair of matrices would take."""
    if a.ndim != b.ndim:
        rank = max(a.ndim, b.ndim)
        a, b = (x.reshape((1,) * (rank - x.ndim) + x.shape) for x in (a, b))
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


def _through_merge(C: MtcData, S: SumObject, T: SumObject, Sp: SumObject,
                   Tp: SumObject, pieces, lead: tuple = ()) -> Morphism:
    """The morphism S ⊗ T -> Sp ⊗ Tp whose sector-k block is
    M_tgt · middle · M_src⁻¹, with the sum merge matrices of Sp ⊗ Tp and S ⊗ T;
    middle, and so the result, carries the batch axes ``lead`` of the pieces.

    ``pieces(k, group)`` lists, for a source group (k1, k2, mu) of
    :func:`sum_groups`, the (target, block) pairs that middle holds in the
    rows of the target group of Sp ⊗ Tp and the columns of the source group.
    A sector where no block lands is left to the zero fill of :class:`Morphism`.
    """
    src, tgt = tensor_obj(S, T), tensor_obj(Sp, Tp)
    dS, dT, dSp, dTp = (obj_dims(C, X) for X in (S, T, Sp, Tp))
    blocks = {}
    for k, shape in _layout(C, src, tgt)[0]:
        tgroups = sum_groups(C, dSp, dTp, k)
        middle = None
        for group, col in sum_groups(C, dS, dT, k).items():
            for target, blk in pieces(k, group):
                row = tgroups[target]
                if middle is None:
                    middle = np.zeros(lead + shape, dtype=complex)
                h, w = blk.shape[-2:]
                middle[..., row:row + h, col:col + w] = blk
        if middle is not None:
            blocks[k] = (sum_merge(C, Sp, Tp, k) @ middle
                         @ sum_merge(C, S, T, k, inverse=True))
    return Morphism(C, src, tgt, blocks)


def tensor(C: MtcData, f: Morphism, g: Morphism) -> Morphism:
    """Tensor product f ⊗ g on sum objects (summand pairs in row-major order).

    In :func:`_through_merge`, middle pairs each source group (k1, k2, mu)
    with the target group of the same key by kron(f_k1, g_k2); f or g has
    no block exactly where the target lacks the group.  A factor that is an
    endomorphism of UNIT skips the merge: f ⊗ g has the other factor's
    objects and blocks kron(f_k, g_0) (kron(f_0, g_k)).  A stack broadcasts
    against a single morphism or a stack of the same batch shape.
    """
    if f.cat is not C or g.cat is not C:
        raise TypeMismatch("morphisms live in different categories")
    # S ⊗ 1 = S and 1 ⊗ T = T, and the sum merges of both are identities;
    # the blocks come in ascending sector order, as _through_merge makes them
    if g.src == UNIT == g.tgt:
        g0 = g.blocks[0]
        return Morphism(C, f.src, f.tgt, {k: _kron(f.blocks[k], g0)
                                          for k, _ in _layout(C, f.src, f.tgt)[0]})
    if f.src == UNIT == f.tgt:
        f0 = f.blocks[0]
        return Morphism(C, g.src, g.tgt, {k: _kron(f0, g.blocks[k])
                                          for k, _ in _layout(C, g.src, g.tgt)[0]})
    krons = {}

    def pieces(k, group):
        k1, k2 = group[:2]
        if k1 not in f.blocks or k2 not in g.blocks:
            return ()
        kr = krons.get((k1, k2))
        if kr is None:
            kr = krons[(k1, k2)] = _kron(f.blocks[k1], g.blocks[k2])
        return ((group, kr),)

    return _through_merge(C, f.src, g.src, f.tgt, g.tgt, pieces,
                          lead=max(f.batch, g.batch, key=len))


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------

def braid(C: MtcData, S: SumObject, T: SumObject, inverse: bool = False) -> Morphism:
    """Sum-object braiding c_{S,T}: S⊗T -> T⊗S; inverse gives (c_{T,S})^{-1}.

    By naturality, c_{S,T} ∘ (t1 ⊗ t2) ∘ y^mu = (t2 ⊗ t1) ∘ c_{k1,k2} ∘ y^mu
    for t1 in Hom(k1, S) and t2 in Hom(k2, T), so middle sends the group
    (k1, k2, mu) of S ⊗ T to each group (k2, k1, nu) of T ⊗ S as
    R^{k1 k2}_k[nu, mu] (Rinv^{k2 k1}_k for the inverse) times the swap of
    the two kron factors.  The result is cached per (S, T, inverse) as its
    objects and read-only blocks; each call returns a new Morphism on them.
    """
    store = C._cache["braid"]
    hit = store.get((S, T, inverse))
    if hit is not None:
        src, tgt, blocks = hit
        return Morphism(C, src, tgt, dict(blocks))
    dS, dT = obj_dims(C, S), obj_dims(C, T)
    swaps = {}

    def pieces(k, group):
        k1, k2, mu = group
        sw = swaps.get((k1, k2))
        if sw is None:
            n1, n2 = dS[k1], dT[k2]
            # row b*n1 + a of T ⊗ S takes column a*n2 + b of S ⊗ T
            cols = np.arange(n1 * n2).reshape(n1, n2).T.ravel()
            sw = swaps[(k1, k2)] = np.eye(n1 * n2)[cols]
        Rm = C.rinv(k2, k1, k) if inverse else C.rmat(k1, k2, k)
        return [((k2, k1, nu), Rm[nu, mu] * sw) for nu in range(Rm.shape[0])]

    out = _through_merge(C, S, T, T, S, pieces)
    for blk in out.blocks.values():
        blk.setflags(write=False)
    # the parts, not the Morphism: see _word_duality
    store[S, T, inverse] = (out.src, out.tgt, dict(out.blocks))
    return out


# ---------------------------------------------------------------------------
# duality: cups, caps, traces, dimensions
# ---------------------------------------------------------------------------

def _letter_duality(C: MtcData, a: int):
    """Coefficients (b, d, bt, dt) of the four single-letter duality maps."""
    abar = int(C.dual[a])
    # the unit channels come first in both channel bases
    Fa = complex(C.fmat(a, abar, a, a)[0, 0])
    if Fa == 0:
        raise NonSovereignGauge(
            f"F[{C.labels[a]},{C.labels[abar]},{C.labels[a]}] unit channel vanishes"
        )
    phase = C.twist[a] * complex(C.rmat(a, abar, 0)[0, 0])
    return (1.0 + 0j, 1.0 / Fa, phase, phase / Fa)


def dim(C: MtcData, a: int) -> complex:
    """Quantum dimension of a simple label (categorical trace of id)."""
    _, _, _, dt = _letter_duality(C, a)
    return complex(dt)


#: kind (also its cache store's name) -> (index into _letter_duality, dual
#: word on the left, last letter peeled); a cup nests the word's map inside
#: the peeled letter's, a cap the letter's inside the word's
_DUALITY_KINDS = {
    "cup": (0, False, False),   # b_w  : 1 -> w ⊗ w∨
    "cap": (1, True, False),    # d_w  : w∨ ⊗ w -> 1
    "cupt": (2, True, True),    # b~_w : 1 -> w∨ ⊗ w
    "capt": (3, False, True),   # d~_w : w ⊗ w∨ -> 1
}


def _word_duality(C: MtcData, kind: str, w: Word) -> Morphism:
    """The duality map of ``kind`` on a word, built one letter at a time."""
    store = C._cache[kind]
    hit = store.get(w)
    if hit is not None:
        src, tgt, blocks = hit
        return Morphism(C, src, tgt, dict(blocks))
    index, dual_left, peel_last = _DUALITY_KINDS[kind]
    is_cup = kind.startswith("cup")

    def pair(x: Word) -> tuple:
        xd = dual_word(C, x)
        return (xd, x) if dual_left else (x, xd)

    if len(w) == 0:
        out = identity(C, UNIT)
    elif len(w) == 1:
        word = sum(pair(w), ())
        blocks = {0: np.array([[_letter_duality(C, w[0])[index]]], dtype=complex)}
        out = Morphism(C, UNIT, (word,), blocks) if is_cup else Morphism(C, (word,), UNIT, blocks)
    else:
        letter, rest = (w[-1:], w[:-1]) if peel_last else (w[:1], w[1:])
        inner, outer = (rest, letter) if is_cup else (letter, rest)
        left, right = pair(outer)
        step = tensor(C, identity(C, (left,)),
                      tensor(C, _word_duality(C, kind, inner), identity(C, (right,))))
        outer_map = _word_duality(C, kind, outer)
        out = step @ outer_map if is_cup else outer_map @ step
    # the cache holds the parts, not the Morphism: its reference to C would
    # put C in a reference cycle, which only a full garbage collection frees
    store[w] = (out.src, out.tgt, out.blocks)
    return out


def _sum_duality(C: MtcData, S: SumObject, kind: str) -> Morphism:
    """The summand-diagonal cup/cap over a sum object, word by word."""
    _, dual_left, _ = _DUALITY_KINDS[kind]
    Sd = dual_obj(C, S)
    pair_obj = tensor_obj(Sd, S) if dual_left else tensor_obj(S, Sd)
    is_cup = kind.startswith("cup")
    offsets = obj_offsets(C, pair_obj, 0)
    blk = np.zeros((offsets[-1], 1) if is_cup else (1, offsets[-1]), dtype=complex)
    for i, w in enumerate(S):
        pair = i * len(S) + i
        span = slice(offsets[pair], offsets[pair + 1])
        blk[(span, 0) if is_cup else (0, span)] += _word_duality(C, kind, w).blocks[0].ravel()
    src, tgt = (UNIT, pair_obj) if is_cup else (pair_obj, UNIT)
    return Morphism(C, src, tgt, {0: blk})


def cup_obj(C: MtcData, S: SumObject) -> Morphism:
    return _sum_duality(C, S, "cup")


def cap_obj(C: MtcData, S: SumObject) -> Morphism:
    return _sum_duality(C, S, "cap")


def cup_tilde_obj(C: MtcData, S: SumObject) -> Morphism:
    return _sum_duality(C, S, "cupt")


def cap_tilde_obj(C: MtcData, S: SumObject) -> Morphism:
    return _sum_duality(C, S, "capt")


def trace(C: MtcData, f: Morphism):
    """Categorical trace of an endomorphism (fast sector-sum form): a complex
    number, or for a stack an array of one value per item."""
    if f.src != f.tgt:
        raise TypeMismatch("trace requires an endomorphism")
    re = im = 0.0
    for k, blk in f.blocks.items():
        d, t = dim(C, k), np.trace(blk, axis1=-2, axis2=-1)
        # d·t by parts: numpy's vectorized complex product rounds otherwise
        # (fused multiply-adds) than its scalar one, and each item of a stack
        # must trace exactly as it would on its own
        re = re + (d.real * t.real - d.imag * t.imag)
        im = im + (d.real * t.imag + d.imag * t.real)
    if not f.batch:
        return complex(re, im)
    out = np.empty(f.batch, dtype=complex)
    out.real, out.imag = re, im
    return out


# ---------------------------------------------------------------------------
# hom spaces and linear solves
# ---------------------------------------------------------------------------

def hom_dim(C: MtcData, S: SumObject, T: SumObject) -> int:
    return sum(ds * dt for ds, dt in zip(obj_dims(C, S), obj_dims(C, T)))


def vec(f: Morphism) -> np.ndarray:
    """Flatten blocks in canonical order (sector-major, target-major)."""
    parts = [f.blocks[k].ravel() for k in sorted(f.blocks)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)


def from_vec(C: MtcData, S: SumObject, T: SumObject, v: np.ndarray) -> Morphism:
    blocks = {}
    pos = 0
    for k, (dt, ds) in _layout(C, S, T)[0]:
        blocks[k] = np.array(v[pos:pos + dt * ds]).reshape(dt, ds)
        pos += dt * ds
    return Morphism(C, S, T, blocks)


def action_matrix(C: MtcData, A: SumObject, rho_x: Morphism, rho_y: Morphism,
                  left: bool) -> np.ndarray:
    """Matrix on vec(f), f in Hom(S, T), of f∘ρ_X − ρ_Y∘(id_A⊗f) for the
    left actions ρ_X : A⊗S -> S, ρ_Y : A⊗T -> T, or of f∘ρ_X − ρ_Y∘(f⊗id_A)
    for right actions; its rows are :func:`vec` of the result.

    In sector k the first term is kron(I, ρ_X,kᵀ) and the second, as in
    :func:`tensor`, ρ_Y,k · M_tgt · middle · M_src⁻¹ with middle kron(I, f_k2)
    (kron(f_k1, I)) on each group (k1, k2, mu): one einsum per group.  A
    stack ρ_X gives one matrix per item, sharing the second term.
    """
    S, T = rho_x.tgt, rho_y.tgt
    pair = (lambda X: (A, X)) if left else (lambda X: (X, A))
    spec = "rij,ilc->rcjl" if left else "rji,lic->rcjl"
    dS, dT, dsrc = obj_dims(C, S), obj_dims(C, T), obj_dims(C, rho_x.src)
    dSL, dSR = (obj_dims(C, X) for X in pair(S))
    dTL, dTR = (obj_dims(C, X) for X in pair(T))
    cols = list(itertools.accumulate((t * s for t, s in zip(dT, dS)), initial=0))
    rows = list(itertools.accumulate((t * s for t, s in zip(dT, dsrc)), initial=0))
    M = np.zeros(rho_x.batch + (rows[-1], cols[-1]), dtype=complex)
    for k, blk in rho_x.blocks.items():
        blk_t = np.swapaxes(blk, -1, -2)
        M[..., rows[k]:rows[k + 1], cols[k]:cols[k + 1]] = _kron(np.eye(dT[k]), blk_t)
    for k, blk in rho_y.blocks.items():
        out = M[..., rows[k]:rows[k + 1], :]
        if not out.size:
            continue
        P = blk @ sum_merge(C, *pair(T), k)
        Q = sum_merge(C, *pair(S), k, inverse=True)
        tgroups = sum_groups(C, dTL, dTR, k)
        for grp, g in sum_groups(C, dSL, dSR, k).items():
            tg = tgroups.get(grp)
            if tg is None:
                continue
            k1, k2 = grp[:2]
            kf = k2 if left else k1
            p = P[:, tg:tg + dTL[k1] * dTR[k2]].reshape(-1, dTL[k1], dTR[k2])
            q = Q[g:g + dSL[k1] * dSR[k2]].reshape(dSL[k1], dSR[k2], -1)
            out[..., cols[kf]:cols[kf + 1]] -= np.einsum(spec, p, q).reshape(out.shape[-2], -1)
    return M


def nullspace_morphisms(C: MtcData, S: SumObject, T: SumObject, M: np.ndarray):
    """``(basis, gap)``: a basis of {f in Hom(S,T) : M·vec(f) = 0},
    orthonormal in :func:`vec` coordinates, with the singular values of M at
    or below the null-space cutoff of ``C.thresholds`` counted as zero, and
    the gap: the smallest kept singular value over the largest positive
    dropped one, either replaced by the cutoff when there is none, so that
    the gap is inf only when M is all zero.  A small gap means the
    dimension is numerically ambiguous."""
    gap = np.inf
    if not M.any():
        combos = np.eye(M.shape[1], dtype=complex)
    else:
        _, sv, vh = np.linalg.svd(M)
        th = C.thresholds
        cutoff = max(th.null_atol, th.null_rtol * sv[0])
        rank = int(np.sum(sv > cutoff))
        kept = sv[rank - 1] if rank else cutoff
        dropped = sv[rank] if rank < sv.size and sv[rank] > 0 else cutoff
        gap = float(kept / dropped)
        combos = vh[rank:].conj()
    return [from_vec(C, S, T, row) for row in combos], gap
