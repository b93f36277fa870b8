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


def obj_dim(C: MtcData, S: SumObject, k: int) -> int:
    return sum(word_dim(C, w, k) for w in S)


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
    return [k for k in range(C.rank) if obj_dim(C, S, k) > 0]


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
        for k in range(self.cat.rank):
            ds = obj_dim(self.cat, self.src, k)
            dt = obj_dim(self.cat, self.tgt, k)
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
# tensor product of morphisms
# ---------------------------------------------------------------------------

def _word_block(C, f: Morphism, S_idx: int, T_idx: int, k: int):
    """Sub-block of f.blocks[k] for target word T_idx, source word S_idx."""
    blk = f.blocks.get(k)
    if blk is None:
        return None
    soff = obj_offsets(C, f.src, k)
    toff = obj_offsets(C, f.tgt, k)
    sub = blk[toff[T_idx]:toff[T_idx + 1], soff[S_idx]:soff[S_idx + 1]]
    if sub.size == 0:
        return None
    return sub


def tensor(C: MtcData, f: Morphism, g: Morphism) -> Morphism:
    """Tensor product f ⊗ g on sum objects (summand pairs in row-major order)."""
    src = tensor_obj(f.src, g.src)
    tgt = tensor_obj(f.tgt, g.tgt)
    blocks = {}
    for k in obj_sectors(C, src):
        if obj_dim(C, tgt, k) == 0:
            continue
        B = np.zeros((obj_dim(C, tgt, k), obj_dim(C, src, k)), dtype=complex)
        soff = obj_offsets(C, src, k)
        toff = obj_offsets(C, tgt, k)
        for (ip, wip), (jp, wjp) in itertools.product(
            enumerate(f.tgt), enumerate(g.tgt)
        ):
            prow = ip * len(g.tgt) + jp
            if word_dim(C, wip + wjp, k) == 0:
                continue
            for (i, wi), (j, wj) in itertools.product(
                enumerate(f.src), enumerate(g.src)
            ):
                pcol = i * len(g.src) + j
                if word_dim(C, wi + wj, k) == 0:
                    continue
                sub = _pair_tensor_block(C, f, g, i, j, ip, jp, k)
                if sub is not None:
                    B[toff[prow]:toff[prow + 1], soff[pcol]:soff[pcol + 1]] = sub
        blocks[k] = B
    return Morphism(C, src, tgt, blocks)


def _pair_tensor_block(C, f, g, i, j, ip, jp, k):
    wi, wj = f.src[i], g.src[j]
    wip, wjp = f.tgt[ip], g.tgt[jp]
    src_groups = split_groups(C, wi, wj, k)
    tgt_groups = split_groups(C, wip, wjp, k)
    if not src_groups or not tgt_groups:
        return None
    ncol = sum(n1 * n2 for _, _, _, n1, n2 in src_groups)
    nrow = sum(n1 * n2 for _, _, _, n1, n2 in tgt_groups)
    middle = np.zeros((nrow, ncol), dtype=complex)
    col_off = {}
    acc = 0
    for k1, k2, mu, n1, n2 in src_groups:
        col_off[(k1, k2, mu)] = acc
        acc += n1 * n2
    acc = 0
    wrote = False
    for k1, k2, mu, n1, n2 in tgt_groups:
        if (k1, k2, mu) in col_off:
            fsub = _word_block(C, f, i, ip, k1)
            gsub = _word_block(C, g, j, jp, k2)
            if fsub is not None and gsub is not None:
                co = col_off[(k1, k2, mu)]
                ncells = fsub.shape[1] * gsub.shape[1]
                middle[acc:acc + n1 * n2, co:co + ncells] = np.kron(fsub, gsub)
                wrote = True
        acc += n1 * n2
    if not wrote:
        return None
    return merge_matrix(C, wip, wjp, k) @ middle @ merge_inv(C, wi, wj, k)


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
        if abs(Fa) < 1e-30:
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


def cup(C: MtcData, w: Word) -> Morphism:
    """b_w : 1 -> w ⊗ w∨."""
    key = ("cup", w)
    out = C._cache.get(key)
    if out is not None:
        return out
    if len(w) == 0:
        out = identity(C, UNIT)
    elif len(w) == 1:
        a = w[0]
        coeff, _, _, _ = _letter_duality(C, a)
        col = np.array([[coeff]], dtype=complex)
        out = Morphism(C, UNIT, obj(a, int(C.dual[a])), {0: col})
    else:
        a, u = w[0], w[1:]
        abar = (int(C.dual[a]),)
        step = tensor(
            C, identity(C, obj(a)), tensor(C, cup(C, u), identity(C, (abar,)))
        )
        out = step @ cup(C, (a,))
    C._cache[key] = out
    return out


def cap(C: MtcData, w: Word) -> Morphism:
    """d_w : w∨ ⊗ w -> 1."""
    key = ("cap", w)
    out = C._cache.get(key)
    if out is not None:
        return out
    if len(w) == 0:
        out = identity(C, UNIT)
    elif len(w) == 1:
        a = w[0]
        _, coeff, _, _ = _letter_duality(C, a)
        out = Morphism(
            C, obj(int(C.dual[a]), a), UNIT, {0: np.array([[coeff]], dtype=complex)}
        )
    else:
        a, u = w[0], w[1:]
        udual = dual_word(C, u)
        step = tensor(
            C, identity(C, (udual,)), tensor(C, cap(C, (a,)), identity(C, (u,)))
        )
        out = cap(C, u) @ step
    C._cache[key] = out
    return out


def cup_tilde(C: MtcData, w: Word) -> Morphism:
    """b~_w : 1 -> w∨ ⊗ w."""
    key = ("cupt", w)
    out = C._cache.get(key)
    if out is not None:
        return out
    if len(w) == 0:
        out = identity(C, UNIT)
    elif len(w) == 1:
        a = w[0]
        _, _, coeff, _ = _letter_duality(C, a)
        out = Morphism(
            C, UNIT, obj(int(C.dual[a]), a), {0: np.array([[coeff]], dtype=complex)}
        )
    else:
        u, a = w[:-1], w[-1]
        abar = (int(C.dual[a]),)
        step = tensor(
            C, identity(C, (abar,)), tensor(C, cup_tilde(C, u), identity(C, obj(a)))
        )
        out = step @ cup_tilde(C, (a,))
    C._cache[key] = out
    return out


def cap_tilde(C: MtcData, w: Word) -> Morphism:
    """d~_w : w ⊗ w∨ -> 1."""
    key = ("capt", w)
    out = C._cache.get(key)
    if out is not None:
        return out
    if len(w) == 0:
        out = identity(C, UNIT)
    elif len(w) == 1:
        a = w[0]
        _, _, _, coeff = _letter_duality(C, a)
        out = Morphism(
            C, obj(a, int(C.dual[a])), UNIT, {0: np.array([[coeff]], dtype=complex)}
        )
    else:
        u, a = w[:-1], w[-1]
        udual = dual_word(C, u)
        step = tensor(
            C, identity(C, (u,)), tensor(C, cap_tilde(C, (a,)), identity(C, (udual,)))
        )
        out = cap_tilde(C, u) @ step
    C._cache[key] = out
    return out


def _sum_duality(C: MtcData, S: SumObject, factory, flip: bool):
    """Assemble a summand-diagonal cup/cap over a sum object."""
    Sd = dual_obj(C, S)
    left, right = (Sd, S) if flip else (S, Sd)
    pair_obj = tensor_obj(left, right)
    n = len(S)
    if factory in (cup, cup_tilde):
        out = zero(C, UNIT, pair_obj)
        for i in range(n):
            pair = i * n + i
            out = out + inject(C, pair_obj, pair) @ factory(C, S[i])
    else:
        out = zero(C, pair_obj, UNIT)
        for i in range(n):
            pair = i * n + i
            out = out + factory(C, S[i]) @ project(C, pair_obj, pair)
    return out


def cup_obj(C: MtcData, S: SumObject) -> Morphism:
    return _sum_duality(C, S, cup, flip=False)


def cap_obj(C: MtcData, S: SumObject) -> Morphism:
    return _sum_duality(C, S, cap, flip=True)


def cup_tilde_obj(C: MtcData, S: SumObject) -> Morphism:
    return _sum_duality(C, S, cup_tilde, flip=True)


def cap_tilde_obj(C: MtcData, S: SumObject) -> Morphism:
    return _sum_duality(C, S, cap_tilde, flip=False)


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
    if max(zig, sov) > max(C.tol * 1e3, 1e-6):
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
                        rtol: float = None, with_gap: bool = False):
    """Basis of {f in Hom(S,T) : L(f) = 0 for all linear maps L}.

    ``constraints`` is an iterable of callables Morphism -> Morphism; each
    must be linear in its argument.  Returns orthonormal coefficient combos
    of the matrix-unit basis as morphisms.

    With ``with_gap`` the return value is ``(basis, gap)`` where gap is the
    ratio between the smallest retained and largest discarded singular value
    (inf when one of the two sides is empty) — a small gap means the
    dimension of the space is numerically ambiguous.
    """
    if rtol is None:
        rtol = max(C.tol, 1e-12)
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
        cutoff = max(1e-10, rtol * (sv[0] if sv.size else 0.0))
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
