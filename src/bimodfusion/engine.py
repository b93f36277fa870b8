"""Morphism calculus in fusion-tree bases.

Objects are formal direct sums of tensor words of simple labels: a ``Word``
is a tuple of label indices (the empty tuple is the tensor unit) and a
``SumObject`` is a tuple of words.  A morphism between sum objects is stored
as one complex block per total sector k: the matrix of the map on
Hom(U_k, -) in the canonical fusion-tree bases.

The canonical basis of Hom(U_k, x_1 ⊗ ... ⊗ x_n) is indexed by trees: tuples
of (sector, multiplicity) pairs for the prefixes of length 2..n, i.e. the
left-comb fusion paths.  All structural morphisms (tensor products of
morphisms, braidings, cups/caps) are expressed in these bases via the F and R
tables of the category; the key internal object is the merge matrix
:func:`merge_matrix`, which rewrites the "pair of trees plus joining vertex"
basis of Hom(k, u ⊗ v) in the plain tree basis of the concatenated word.
Its sum-object form :func:`sum_merge` does the same for Hom(k, S ⊗ T) of
two sum objects, from a grouped basis with one kron block
Hom(k1, S) ⊗ Hom(k2, T) per joining vertex (k1, k2, mu); it is assembled
from the word-level blocks and cached per (S, T, k), so :func:`tensor`
multiplies whole sector blocks and never loops over word pairs.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NonSovereignGauge, TypeMismatch
from .mtc import MtcData

Word = tuple
SumObject = tuple

UNIT: SumObject = ((),)


def obj(*letters: int) -> SumObject:
    """Sum object with a single word."""
    return (tuple(letters),)


def dual_word(C: MtcData, w: Word) -> Word:
    return tuple(int(C.dual[x]) for x in reversed(w))


def dual_obj(C: MtcData, S: SumObject) -> SumObject:
    return tuple(dual_word(C, w) for w in S)


def tensor_obj(S: SumObject, T: SumObject) -> SumObject:
    return tuple(wi + wj for wi in S for wj in T)


# ---------------------------------------------------------------------------
# tree bookkeeping
# ---------------------------------------------------------------------------

def trees(C: MtcData, w: Word, k: int) -> list:
    """Canonical fusion trees of word w with total sector k.

    A tree is a tuple of (sector, multiplicity) pairs for prefixes 2..n,
    enumerated prefix-sector-major, recursively, multiplicity-minor.
    """
    key = ("trees", w, k)
    out = C._cache.get(key)
    if out is not None:
        return out
    n = len(w)
    if n == 0:
        out = [()] if k == 0 else []
    elif n == 1:
        out = [()] if k == w[0] else []
    else:
        out = []
        last = w[-1]
        for e in range(C.rank):
            sub = trees(C, w[:-1], e)
            if not sub:
                continue
            for T in sub:
                for mu in range(C.N[e, last, k]):
                    out.append(T + ((k, mu),))
    C._cache[key] = out
    return out


def tree_pos(C: MtcData, w: Word, k: int) -> dict:
    key = ("treepos", w, k)
    out = C._cache.get(key)
    if out is None:
        out = {T: i for i, T in enumerate(trees(C, w, k))}
        C._cache[key] = out
    return out


def word_dim(C: MtcData, w: Word, k: int) -> int:
    return len(trees(C, w, k))


def obj_dims(C: MtcData, S: SumObject) -> tuple:
    """Dimension of every sector of S: (dim Hom(U_k, S) for k in 0..rank-1)."""
    key = ("dims", S)
    out = C._cache.get(key)
    if out is None:
        out = tuple(sum(word_dim(C, w, k) for w in S) for k in range(C.rank))
        C._cache[key] = out
    return out


def obj_dim(C: MtcData, S: SumObject, k: int) -> int:
    return obj_dims(C, S)[k]


def obj_offsets(C: MtcData, S: SumObject, k: int) -> list:
    """Start offset of each summand word inside the sector-k basis of S."""
    key = ("offsets", S, k)
    out = C._cache.get(key)
    if out is None:
        out = []
        acc = 0
        for w in S:
            out.append(acc)
            acc += word_dim(C, w, k)
        out.append(acc)
        C._cache[key] = out
    return out


def obj_sectors(C: MtcData, S: SumObject) -> list:
    return [k for k, d in enumerate(obj_dims(C, S)) if d > 0]


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

@dataclass
class Morphism:
    """A morphism src -> tgt, one block per total sector.

    blocks[k] has shape (dim_k(tgt), dim_k(src)); every sector with both
    dimensions positive has an entry (possibly a zero matrix).
    """

    cat: MtcData = field(repr=False)
    src: SumObject
    tgt: SumObject
    blocks: dict

    def __post_init__(self):
        dims = zip(obj_dims(self.cat, self.src), obj_dims(self.cat, self.tgt))
        for k, (ds, dt) in enumerate(dims):
            if ds == 0 or dt == 0:
                self.blocks.pop(k, None)
                continue
            blk = self.blocks.get(k)
            if blk is None:
                self.blocks[k] = np.zeros((dt, ds), dtype=complex)
            else:
                blk = np.asarray(blk, dtype=complex)
                if blk.shape != (dt, ds):
                    raise TypeMismatch(
                        f"sector {k} block has shape {blk.shape}, expected {(dt, ds)}"
                    )
                self.blocks[k] = blk

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

    def scalar(self) -> complex:
        """The value of an endomorphism of the tensor unit."""
        if self.src != UNIT or self.tgt != UNIT:
            raise TypeMismatch("scalar() requires a closed (unit-to-unit) morphism")
        blk = self.blocks.get(0)
        return complex(blk[0, 0]) if blk is not None else 0j


def identity(C: MtcData, S: SumObject) -> Morphism:
    return Morphism(
        C, S, S, {k: np.eye(obj_dim(C, S, k), dtype=complex) for k in obj_sectors(C, S)}
    )


def zero(C: MtcData, S: SumObject, T: SumObject) -> Morphism:
    return Morphism(C, S, T, {})


def inject(C: MtcData, S: SumObject, i: int) -> Morphism:
    """Inclusion of the i-th summand word into S."""
    w = (S[i],)
    blocks = {}
    for k in obj_sectors(C, w):
        d = word_dim(C, S[i], k)
        mat = np.zeros((obj_dim(C, S, k), d), dtype=complex)
        off = obj_offsets(C, S, k)[i]
        mat[off:off + d, :] = np.eye(d)
        blocks[k] = mat
    return Morphism(C, w, S, blocks)


def project(C: MtcData, S: SumObject, i: int) -> Morphism:
    """Projection of S onto its i-th summand word."""
    w = (S[i],)
    blocks = {}
    for k in obj_sectors(C, w):
        d = word_dim(C, S[i], k)
        mat = np.zeros((d, obj_dim(C, S, k)), dtype=complex)
        off = obj_offsets(C, S, k)[i]
        mat[:, off:off + d] = np.eye(d)
        blocks[k] = mat
    return Morphism(C, S, w, blocks)


def compose(*factors: Morphism) -> Morphism:
    """Compose in diagram order: compose(f, g) applies f first, then g."""
    if not factors:
        raise TypeMismatch("compose() needs at least one morphism")
    out = factors[0]
    for f in factors[1:]:
        out = f @ out
    return out


def y_vertex(C: MtcData, a: int, b: int, e: int, mu: int = 0) -> Morphism:
    """The splitting vertex Hom(e, a ⊗ b), multiplicity mu."""
    col = np.zeros((C.N[a, b, e], 1), dtype=complex)
    col[mu, 0] = 1.0
    return Morphism(C, obj(e), obj(a, b), {e: col})


def y_covertex(C: MtcData, a: int, b: int, e: int, mu: int = 0) -> Morphism:
    """The fusion covertex (a ⊗ b) -> e dual to y_vertex (y' ∘ y = delta)."""
    row = np.zeros((1, C.N[a, b, e]), dtype=complex)
    row[0, mu] = 1.0
    return Morphism(C, obj(a, b), obj(e), {e: row})


# ---------------------------------------------------------------------------
# merge matrices: Hom(k, u ⊗ v) pair basis -> tree basis of the joined word
# ---------------------------------------------------------------------------

def split_groups(C: MtcData, u: Word, v: Word, k: int) -> list:
    """(k1, k2, mu, n1, n2) groups of the pair basis, in canonical order."""
    out = []
    for k1 in range(C.rank):
        n1 = word_dim(C, u, k1)
        if n1 == 0:
            continue
        for k2 in range(C.rank):
            n2 = word_dim(C, v, k2)
            if n2 == 0:
                continue
            for mu in range(C.N[k1, k2, k]):
                out.append((k1, k2, mu, n1, n2))
    return out


def split_pos(C: MtcData, u: Word, v: Word, k: int) -> dict:
    """(k1, i1, k2, i2, mu) -> column index in the pair basis."""
    key = ("splitpos", u, v, k)
    out = C._cache.get(key)
    if out is None:
        out = {}
        col = 0
        for k1, k2, mu, n1, n2 in split_groups(C, u, v, k):
            for i1 in range(n1):
                for i2 in range(n2):
                    out[(k1, i1, k2, i2, mu)] = col
                    col += 1
        C._cache[key] = out
    return out


def merge_matrix(C: MtcData, u: Word, v: Word, k: int) -> np.ndarray:
    """Matrix taking pair-basis coordinates to tree-basis coordinates of u+v."""
    key = ("merge", u, v, k)
    M = C._cache.get(key)
    if M is not None:
        return M
    joint = trees(C, u + v, k)
    dim = len(joint)
    M = np.zeros((dim, dim), dtype=complex)
    if len(u) == 0 or len(v) == 0:
        M = np.eye(dim, dtype=complex)
    elif len(v) == 1:
        jpos = tree_pos(C, u + v, k)
        spos = split_pos(C, u, v, k)
        for (k1, i1, k2, i2, mu), col in spos.items():
            T1 = trees(C, u, k1)[i1]
            M[jpos[T1 + ((k, mu),)], col] = 1.0
    else:
        v1, b = v[:-1], v[-1]
        jpos = tree_pos(C, u + v, k)
        spos = split_pos(C, u, v, k)
        for (k1, i1, k2, i2, mu), col in spos.items():
            T2 = trees(C, v, k2)[i2]
            nu = T2[-1][1]
            q = T2[-2][0] if len(v) >= 3 else v[0]
            T2p = T2[:-1]
            i2p = tree_pos(C, v1, q)[T2p]
            finv = C.finv(k1, q, b, k)
            rc = C.right_channels(k1, q, b, k)
            row_r = rc.index((k2, nu, mu))
            lc = C.left_channels(k1, q, b, k)
            for lidx, (e, rhop, sigp) in enumerate(lc):
                coeff = finv[row_r, lidx]
                if coeff == 0:
                    continue
                sub = merge_matrix(C, u, v1, e)
                col_p = split_pos(C, u, v1, e)[(k1, i1, q, i2p, rhop)]
                colvec = sub[:, col_p]
                emb = _suffix_embedding(C, u + v1, b, e, k, sigp)
                M[emb, col] += coeff * colvec
    M.setflags(write=False)
    C._cache[key] = M
    return M


def _suffix_embedding(C: MtcData, w: Word, b: int, e: int, k: int,
                      sigma: int) -> np.ndarray:
    """Row indices in trees(w+(b,), k) of the trees(w, e) extended by (k, sigma)."""
    key = ("sufemb", w, b, e, k, sigma)
    out = C._cache.get(key)
    if out is None:
        jpos = tree_pos(C, w + (b,), k)
        out = np.array(
            [jpos[T + ((k, sigma),)] for T in trees(C, w, e)], dtype=np.intp
        )
        C._cache[key] = out
    return out


def merge_inv(C: MtcData, u: Word, v: Word, k: int) -> np.ndarray:
    key = ("mergeinv", u, v, k)
    M = C._cache.get(key)
    if M is None:
        fwd = merge_matrix(C, u, v, k)
        M = np.linalg.inv(fwd) if fwd.size else fwd.copy()
        M.setflags(write=False)
        C._cache[key] = M
    return M


# ---------------------------------------------------------------------------
# merge matrices of sum objects: grouped basis -> tree basis of S ⊗ T
# ---------------------------------------------------------------------------

def sum_groups(C: MtcData, S: SumObject, T: SumObject, k: int) -> tuple:
    """Layout of the grouped basis of Hom(k, S ⊗ T).

    For each (k1, k2, mu) with both sectors present, in canonical order, the
    group is the kron basis of Hom(k1, S) ⊗ Hom(k2, T) joined by vertex mu.
    Returns ``(groups, pos)``: groups maps (k1, k2, mu) to the group's first
    column, and pos[r] is the grouped column of the pair-basis vector that
    merge_matrix of r's word pair sends to tree-basis row r of S ⊗ T.
    """
    key = ("sumgroups", S, T, k)
    out = C._cache.get(key)
    if out is not None:
        return out
    dS, dT = obj_dims(C, S), obj_dims(C, T)
    groups = {}
    acc = 0
    for k1 in range(C.rank):
        for k2 in range(C.rank):
            n = dS[k1] * dT[k2]
            if n == 0:
                continue
            for mu in range(C.N[k1, k2, k]):
                groups[(k1, k2, mu)] = acc
                acc += n
    pos = []
    off = obj_offsets(C, tensor_obj(S, T), k)
    for p, ((i, wi), (j, wj)) in enumerate(itertools.product(enumerate(S), enumerate(T))):
        if off[p] == off[p + 1]:
            continue
        # split_pos iterates in pair-basis column order
        for k1, i1, k2, i2, mu in split_pos(C, wi, wj, k):
            a = obj_offsets(C, S, k1)[i] + i1
            b = obj_offsets(C, T, k2)[j] + i2
            pos.append(groups[(k1, k2, mu)] + a * dT[k2] + b)
    out = (groups, np.array(pos, dtype=np.intp))
    C._cache[key] = out
    return out


def sum_merge(C: MtcData, S: SumObject, T: SumObject, k: int,
              inverse: bool = False) -> np.ndarray:
    """Matrix taking grouped coordinates (:func:`sum_groups`) to tree-basis
    coordinates of S ⊗ T in sector k, or its inverse.

    Up to the column order of pos it is block diagonal over the word pairs,
    one merge_matrix block each, so the inverse is assembled from the
    merge_inv blocks.
    """
    key = ("summergeinv" if inverse else "summerge", S, T, k)
    M = C._cache.get(key)
    if M is not None:
        return M
    _, pos = sum_groups(C, S, T, k)
    off = obj_offsets(C, tensor_obj(S, T), k)
    M = np.zeros((len(pos), len(pos)), dtype=complex)
    for p, (wi, wj) in enumerate(itertools.product(S, T)):
        lo, hi = off[p], off[p + 1]
        if lo == hi:
            continue
        if inverse:
            M[pos[lo:hi], lo:hi] = merge_inv(C, wi, wj, k)
        else:
            M[lo:hi, pos[lo:hi]] = merge_matrix(C, wi, wj, k)
    M.setflags(write=False)
    C._cache[key] = M
    return M


# ---------------------------------------------------------------------------
# tensor product of morphisms
# ---------------------------------------------------------------------------

def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices, without its generic-rank overhead."""
    out = a[:, None, :, None] * b[None, :, None, :]
    return out.reshape(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def tensor(C: MtcData, f: Morphism, g: Morphism) -> Morphism:
    """Tensor product f ⊗ g on sum objects (summand pairs in row-major order).

    In sector k the block is M_tgt · middle · M_src⁻¹ with the sum merge
    matrices of the targets and sources; middle pairs each target group
    (k1, k2, mu) with the source group of the same key by kron(f_k1, g_k2).
    """
    src = tensor_obj(f.src, g.src)
    tgt = tensor_obj(f.tgt, g.tgt)
    ds_all, dt_all = obj_dims(C, src), obj_dims(C, tgt)
    krons = {}
    blocks = {}
    for k in range(C.rank):
        if ds_all[k] == 0 or dt_all[k] == 0:
            continue
        tgroups, _ = sum_groups(C, f.tgt, g.tgt, k)
        sgroups, _ = sum_groups(C, f.src, g.src, k)
        middle = None
        for grp, col in sgroups.items():
            row = tgroups.get(grp)
            if row is None:
                continue
            k1, k2 = grp[:2]
            kr = krons.get((k1, k2))
            if kr is None:
                kr = krons[(k1, k2)] = _kron(f.blocks[k1], g.blocks[k2])
            if middle is None:
                middle = np.zeros((dt_all[k], ds_all[k]), dtype=complex)
            middle[row:row + kr.shape[0], col:col + kr.shape[1]] = kr
        if middle is not None:
            blocks[k] = (sum_merge(C, f.tgt, g.tgt, k) @ middle
                         @ sum_merge(C, f.src, g.src, k, inverse=True))
    return Morphism(C, src, tgt, blocks)


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------

def braid_adjacent(C: MtcData, w: Word, p: int, inverse: bool = False) -> Morphism:
    """Braid letters p and p+1 (1-based) of the word w.

    Forward: the braiding c_{x_p, x_{p+1}}.  Inverse: (c_{x_{p+1}, x_p})^{-1}.
    Both map w to the transposed word.
    """
    n = len(w)
    if not 1 <= p <= n - 1:
        raise TypeMismatch(f"braid position {p} out of range for a word of length {n}")
    key = ("badj", w, p, inverse)
    cached = C._cache.get(key)
    if cached is not None:
        return cached
    a, b = w[p - 1], w[p]
    w2 = w[:p - 1] + (b, a) + w[p + 1:]
    blocks = {}
    for k in obj_sectors(C, (w,)):
        src_t = trees(C, w, k)
        tpos = tree_pos(C, w2, k)
        B = np.zeros((len(tpos), len(src_t)), dtype=complex)
        for col, T in enumerate(src_t):
            if p == 1:
                k2, mu = T[0]
                Rm = C.rinv(b, a, k2) if inverse else C.rmat(a, b, k2)
                for mup in range(Rm.shape[0]):
                    if Rm[mup, mu] != 0:
                        T2 = ((k2, mup),) + T[1:]
                        B[tpos[T2], col] += Rm[mup, mu]
            else:
                e = T[p - 3][0] if p >= 3 else w[0]
                g, mup = T[p - 2]
                d, nup = T[p - 1]
                F = C.fmat(e, a, b, d)
                lidx = C.left_channels(e, a, b, d).index((g, mup, nup))
                rc = C.right_channels(e, a, b, d)
                finv2 = C.finv(e, b, a, d)
                rc2 = C.right_channels(e, b, a, d)
                lc2 = C.left_channels(e, b, a, d)
                for ridx, (f1, rho, sig) in enumerate(rc):
                    fcoef = F[lidx, ridx]
                    if fcoef == 0:
                        continue
                    Rm = C.rinv(b, a, f1) if inverse else C.rmat(a, b, f1)
                    for rhop in range(Rm.shape[0]):
                        rcoef = Rm[rhop, rho]
                        if rcoef == 0:
                            continue
                        r2idx = rc2.index((f1, rhop, sig))
                        for l2idx, (g2, mu2, nu2) in enumerate(lc2):
                            coef = finv2[r2idx, l2idx] * rcoef * fcoef
                            if coef == 0:
                                continue
                            T2 = T[:p - 2] + ((g2, mu2), (d, nu2)) + T[p:]
                            B[tpos[T2], col] += coef
        blocks[k] = B
    out = Morphism(C, (w,), (w2,), blocks)
    C._cache[key] = out
    return out


def _adjacent_schedule(u: Word, v: Word) -> list:
    """Adjacent-transposition schedule realizing c_{u,v}: u+v -> v+u."""
    word = list(u + v)
    steps = []
    for i in range(len(u), 0, -1):
        for j in range(i, i + len(v)):
            steps.append((tuple(word), j))
            word[j - 1], word[j] = word[j], word[j - 1]
    return steps


def braid_words(C: MtcData, u: Word, v: Word, inverse: bool = False) -> Morphism:
    """Braiding c_{u,v} (or (c_{v,u})^{-1} for inverse=True): u+v -> v+u."""
    key = ("bword", u, v, inverse)
    out = C._cache.get(key)
    if out is not None:
        return out
    out = identity(C, (u + v,))
    if not inverse:
        for w, p in _adjacent_schedule(u, v):
            out = braid_adjacent(C, w, p, False) @ out
    else:
        for w, p in reversed(_adjacent_schedule(v, u)):
            w_after = w[:p - 1] + (w[p], w[p - 1]) + w[p + 1:]
            out = braid_adjacent(C, w_after, p, True) @ out
    C._cache[key] = out
    return out


def braid(C: MtcData, S: SumObject, T: SumObject, inverse: bool = False) -> Morphism:
    """Sum-object braiding S⊗T -> T⊗S; inverse gives (c_{T,S})^{-1}."""
    ST = tensor_obj(S, T)
    TS = tensor_obj(T, S)
    out = zero(C, ST, TS)
    for i, wi in enumerate(S):
        for j, wj in enumerate(T):
            pair_in = i * len(T) + j
            pair_out = j * len(S) + i
            out = out + (
                inject(C, TS, pair_out)
                @ braid_words(C, wi, wj, inverse)
                @ project(C, ST, pair_in)
            )
    return out


# ---------------------------------------------------------------------------
# duality: cups, caps, traces, dimensions
# ---------------------------------------------------------------------------

def _letter_duality(C: MtcData, a: int):
    """Coefficients (b, d, bt, dt) of the four single-letter duality maps."""
    key = ("dualcoef", a)
    out = C._cache.get(key)
    if out is None:
        abar = int(C.dual[a])
        Fa = C.f(a, abar, a, a, 0, 0)
        if abs(Fa) < C.thresholds.unit_channel:
            raise NonSovereignGauge(
                f"F[{C.labels[a]},{C.labels[abar]},{C.labels[a]}] unit channel vanishes"
            )
        phase = C.twist[a] * C.r(a, abar, 0)
        out = (1.0 + 0j, 1.0 / Fa, phase, phase / Fa)
        C._cache[key] = out
    return out


def dim(C: MtcData, a: int) -> complex:
    """Quantum dimension of a simple label (categorical trace of id)."""
    _, _, _, dt = _letter_duality(C, a)
    return complex(dt)


#: kind (also the cache key) -> (index into _letter_duality, dual word on
#: the left, last letter peeled); a cup nests the word's map inside the
#: peeled letter's, a cap the letter's inside the word's
_DUALITY_KINDS = {
    "cup": (0, False, False),
    "cap": (1, True, False),
    "cupt": (2, True, True),
    "capt": (3, False, True),
}


def _word_duality(C: MtcData, kind: str, w: Word) -> Morphism:
    """The duality map of ``kind`` on a word, built one letter at a time."""
    key = (kind, w)
    out = C._cache.get(key)
    if out is not None:
        return out
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
    C._cache[key] = out
    return out


def cup(C: MtcData, w: Word) -> Morphism:
    """b_w : 1 -> w ⊗ w∨."""
    return _word_duality(C, "cup", w)


def cap(C: MtcData, w: Word) -> Morphism:
    """d_w : w∨ ⊗ w -> 1."""
    return _word_duality(C, "cap", w)


def cup_tilde(C: MtcData, w: Word) -> Morphism:
    """b~_w : 1 -> w∨ ⊗ w."""
    return _word_duality(C, "cupt", w)


def cap_tilde(C: MtcData, w: Word) -> Morphism:
    """d~_w : w ⊗ w∨ -> 1."""
    return _word_duality(C, "capt", w)


def _sum_duality(C: MtcData, S: SumObject, kind: str) -> Morphism:
    """Assemble a summand-diagonal cup/cap over a sum object."""
    _, dual_left, _ = _DUALITY_KINDS[kind]
    Sd = dual_obj(C, S)
    pair_obj = tensor_obj(Sd, S) if dual_left else tensor_obj(S, Sd)
    is_cup = kind.startswith("cup")
    out = zero(C, UNIT, pair_obj) if is_cup else zero(C, pair_obj, UNIT)
    n = len(S)
    for i in range(n):
        f = _word_duality(C, kind, S[i])
        pair = i * n + i
        out = out + (inject(C, pair_obj, pair) @ f if is_cup else f @ project(C, pair_obj, pair))
    return out


def cup_obj(C: MtcData, S: SumObject) -> Morphism:
    return _sum_duality(C, S, "cup")


def cap_obj(C: MtcData, S: SumObject) -> Morphism:
    return _sum_duality(C, S, "cap")


def cup_tilde_obj(C: MtcData, S: SumObject) -> Morphism:
    return _sum_duality(C, S, "cupt")


def cap_tilde_obj(C: MtcData, S: SumObject) -> Morphism:
    return _sum_duality(C, S, "capt")


def trace(C: MtcData, f: Morphism) -> complex:
    """Categorical trace of an endomorphism (fast sector-sum form)."""
    if f.src != f.tgt:
        raise TypeMismatch("trace requires an endomorphism")
    total = 0j
    for k, blk in f.blocks.items():
        total += dim(C, k) * np.trace(blk)
    return complex(total)


def trace_right(C: MtcData, f: Morphism) -> complex:
    """tr(f) via the closed diagram d~ ∘ (f ⊗ id) ∘ b."""
    S = f.src
    m = cap_tilde_obj(C, S) @ tensor(C, f, identity(C, dual_obj(C, S))) @ cup_obj(C, S)
    return m.scalar()


def trace_left(C: MtcData, f: Morphism) -> complex:
    """tr(f) via the closed diagram d ∘ (id ⊗ f) ∘ b~."""
    S = f.src
    m = cap_obj(C, S) @ tensor(C, identity(C, dual_obj(C, S)), f) @ cup_tilde_obj(C, S)
    return m.scalar()


@dataclass
class DualityData:
    """Single-label duality maps with their coherence diagnostics."""

    b: dict
    d: dict
    b_tilde: dict
    d_tilde: dict
    zigzag_residual: float
    sovereignty_residual: float


def duality(C: MtcData) -> DualityData:
    """All single-label cups/caps; raises NonSovereignGauge on bad input data."""
    bs, ds, bts, dts = {}, {}, {}, {}
    zig = 0.0
    sov = 0.0
    for a in range(C.rank):
        w = (a,)
        bs[a], ds[a] = cup(C, w), cap(C, w)
        bts[a], dts[a] = cup_tilde(C, w), cap_tilde(C, w)
        ida = identity(C, obj(a))
        idabar = identity(C, obj(int(C.dual[a])))
        z1 = tensor(C, ida, ds[a]) @ tensor(C, bs[a], ida)
        z2 = tensor(C, ds[a], idabar) @ tensor(C, idabar, bs[a])
        z3 = tensor(C, dts[a], ida) @ tensor(C, ida, bts[a])
        z4 = tensor(C, idabar, dts[a]) @ tensor(C, bts[a], idabar)
        zig = max(zig, (z1 - ida).norm(), (z2 - idabar).norm(),
                  (z3 - ida).norm(), (z4 - idabar).norm())
        sov = max(sov, abs(trace_left(C, ida) - trace_right(C, ida)))
    if max(zig, sov) > C.thresholds.residual:
        raise NonSovereignGauge(
            f"duality data inconsistent: zig-zag residual {zig:.3e}, "
            f"left/right trace residual {sov:.3e}"
        )
    return DualityData(bs, ds, bts, dts, zigzag_residual=zig, sovereignty_residual=sov)


# ---------------------------------------------------------------------------
# hom spaces and linear solves
# ---------------------------------------------------------------------------

@dataclass
class HomBasis:
    """Matrix-unit basis of Hom(src, tgt), orthonormal under the flat pairing."""

    src: SumObject
    tgt: SumObject
    keys: list
    elements: list

    @property
    def dim(self) -> int:
        return len(self.elements)


def hom_dim(C: MtcData, S: SumObject, T: SumObject) -> int:
    return sum(obj_dim(C, S, k) * obj_dim(C, T, k) for k in range(C.rank))


def hom_space(C: MtcData, S: SumObject, T: SumObject) -> HomBasis:
    keys = []
    elements = []
    for k in obj_sectors(C, S):
        dt = obj_dim(C, T, k)
        ds = obj_dim(C, S, k)
        if dt == 0:
            continue
        for i in range(dt):
            for j in range(ds):
                mat = np.zeros((dt, ds), dtype=complex)
                mat[i, j] = 1.0
                keys.append((k, i, j))
                elements.append(Morphism(C, S, T, {k: mat}))
    return HomBasis(S, T, keys, elements)


def vec(f: Morphism) -> np.ndarray:
    """Flatten blocks in canonical order (sector-major, target-major)."""
    parts = [f.blocks[k].ravel() for k in sorted(f.blocks)]
    return np.concatenate(parts) if parts else np.zeros(0, dtype=complex)


def from_vec(C: MtcData, S: SumObject, T: SumObject, v: np.ndarray) -> Morphism:
    blocks = {}
    pos = 0
    for k in obj_sectors(C, S):
        dt = obj_dim(C, T, k)
        ds = obj_dim(C, S, k)
        if dt == 0:
            continue
        blocks[k] = np.array(v[pos:pos + dt * ds]).reshape(dt, ds)
        pos += dt * ds
    return Morphism(C, S, T, blocks)


def nullspace_morphisms(C: MtcData, S: SumObject, T: SumObject, constraints,
                        with_gap: bool = False):
    """Basis of {f in Hom(S,T) : L(f) = 0 for all linear maps L}.

    ``constraints`` is an iterable of callables Morphism -> Morphism; each
    must be linear in its argument.  Returns orthonormal coefficient combos
    of the matrix-unit basis as morphisms; singular values of the stacked
    constraints at or below the null-space cutoff of ``C.thresholds`` count
    as zero.

    With ``with_gap`` the return value is ``(basis, gap)`` where gap is the
    ratio between the smallest retained and largest discarded singular value
    (inf when one of the two sides is empty) — a small gap means the
    dimension of the space is numerically ambiguous.
    """
    basis = hom_space(C, S, T)
    gap = np.inf
    if basis.dim == 0:
        return ([], gap) if with_gap else []
    rows = []
    for e in basis.elements:
        cols = [vec(c(e)) for c in constraints]
        rows.append(np.concatenate(cols) if cols else np.zeros(0, dtype=complex))
    A = np.array(rows).T
    if A.shape[0] == 0 or not A.any():
        combos = np.eye(basis.dim, dtype=complex)
    else:
        _, sv, vh = np.linalg.svd(A)
        th = C.thresholds
        cutoff = max(th.null_atol, th.null_rtol * (sv[0] if sv.size else 0.0))
        rank = int(np.sum(sv > cutoff))
        kept = sv[:rank]
        dropped = sv[rank:]
        if kept.size and dropped.size and dropped[0] > 0:
            gap = float(kept[-1] / dropped[0])
        combos = vh[rank:].conj()
    out = []
    for row in combos:
        f = zero(C, S, T)
        for coeff, e in zip(row, basis.elements):
            if coeff != 0:
                f = f + complex(coeff) * e
        out.append(f)
    return (out, gap) if with_gap else out
