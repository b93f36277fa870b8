"""The fusion ring of the bimodule category and its block-diagonalization.

Two independent routes to the same structure constants:

* the direct route counts bimodule maps out of relative tensor products
  of simples;
* the spectral route represents each class [X] by the defect operator
  D_X acting on the spaces Hom(U_i ⊗⁺ A ⊗⁻ U_j, A); the matrices of
  these operators form an invertible matrix d that conjugates the
  fusion ring into a sum of full matrix blocks, one block per label
  pair (i, j) with a nonzero commutation-matrix entry.

Each matrix element of D_X is the categorical trace of an endomorphism
of X, the X-loop closed as a trace (``defect_matrices``); ``D_map`` is
the full-morphism form, with the loop opened by a cup and closed by a cap̃.

Both routes must produce the same non-negative integer table; checking
that (plus the dimension bookkeeping against the z-matrix) is what
``verify_theorem_o`` reports.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import bimodules as B
from . import engine as E
from .errors import (
    NonIntegerDim,
    NonIntegerStructureConstant,
    NotIntertwiner,
    SingularD,
)
from .frobenius import AlgebraSpec
from .mtc import MtcData, s_matrix


# ---------------------------------------------------------------------------
# fusion tables
# ---------------------------------------------------------------------------

@dataclass
class FusionTable:
    """Structure constants table[a, b, c] = multiplicity of X_c in X_a ∗ X_b."""

    table: np.ndarray
    unit: int

    def check(self) -> dict:
        """Deviations from the ring axioms (all zero for a valid table)."""
        t = self.table.astype(np.int64)
        k = t.shape[0]
        eye = np.eye(k, dtype=np.int64)
        lhs = np.einsum("abm,mcd->abcd", t, t)
        rhs = np.einsum("bcm,amd->abcd", t, t)
        return {
            "unit-left": int(np.max(np.abs(t[self.unit] - eye))),
            "unit-right": int(np.max(np.abs(t[:, self.unit, :] - eye))),
            "assoc": int(np.max(np.abs(lhs - rhs))),
            "negative": int(np.sum(t < 0)),
        }


def _unit_index(C: MtcData, A: AlgebraSpec, simples: list) -> int:
    reg = B.regular_bimodule(C, A)
    for t, S in enumerate(simples):
        if B.is_isomorphic(C, S, reg):
            return t
    raise SingularD("the regular bimodule does not appear among the simples")


def _relative_products(C: MtcData, simples: list):
    """(a, b) -> X_a ⊗_A X_b, each product computed once, on first use."""
    return functools.cache(lambda a, b: B.tensor_over_A(C, simples[a], simples[b])[0])


def fusion_table_direct(C: MtcData, A: AlgebraSpec, simples: list, *,
                        _products=None, _unit: int | None = None) -> FusionTable:
    """table[a, b, c] = dim Hom(X_a ⊗_A X_b, X_c), counted one pair at a time.

    ``_products`` shares the relative products with the homomorphism
    residual; ``_unit`` passes in the unit index the d-matrix already found.
    """
    products = _products or _relative_products(C, simples)
    k = len(simples)
    table = np.zeros((k, k, k), dtype=np.int64)
    for a in range(k):
        for b in range(k):
            for c in range(k):
                sols, gap = B.hom_bimodule(C, products(a, b), simples[c], with_gap=True)
                if gap < C.thresholds.hom_gap:
                    raise NonIntegerDim(
                        f"table[{a},{b},{c}]: singular-value gap {gap:.3g} "
                        f"leaves the hom dimension ambiguous"
                    )
                table[a, b, c] = len(sols)
    return FusionTable(table, _unit_index(C, A, simples) if _unit is None else _unit)


# ---------------------------------------------------------------------------
# the defect operator D_X
# ---------------------------------------------------------------------------

def _open_strand(C: MtcData, A: AlgebraSpec, X: B.Bimodule):
    """The open X-strand of D_X(φ) is Φ_φ = (emit ⊗ ε∘φ) ∘ pre(i, j), a map
    U_i⊗A⊗U_j⊗X -> A⊗X.  Returns its φ-independent parts (pre, emit).

    pre(i, j) : U_i⊗A⊗U_j⊗X -> X⊗U_i⊗A⊗U_j slides X under U_j, multiplies
    A into X from both sides (emitting a fresh A) and passes U_i over X.
    emit : X -> A⊗X inserts Δ∘η and absorbs one leg into X.
    """
    id_a, id_x, sep = E.identity(C, A.obj), E.identity(C, X.obj), A.delta @ A.eta
    both = X.rho_r @ E.tensor(C, X.rho_l, id_a)
    id_ax = E.identity(C, E.tensor_obj(A.obj, X.obj))
    multiply = E.tensor(C, both, id_a) @ E.tensor(C, id_ax, sep)
    emit = E.tensor(C, id_a, X.rho_l) @ E.tensor(C, sep, id_x)

    def pre(i: int, j: int) -> E.Morphism:
        U, V = E.obj(i), E.obj(j)
        inner = (E.tensor(C, multiply, E.identity(C, V))
                 @ E.tensor(C, id_a, E.braid(C, V, X.obj, inverse=True)))
        cross = E.tensor(C, E.braid(C, U, X.obj), E.identity(C, E.tensor_obj(A.obj, V)))
        return cross @ E.tensor(C, E.identity(C, U), inner)
    return pre, emit


def D_map(C: MtcData, A: AlgebraSpec, X: B.Bimodule, i: int, j: int,
          phi: E.Morphism, check: bool = True) -> E.Morphism:
    """Drag a closed X-loop through the defect phi: U_i ⊗ A ⊗ U_j -> A.

    The input must intertwine the twisted bimodule structure on
    U_i ⊗⁺ A ⊗⁻ U_j; the output is again such an intertwiner, and as an
    operator on that Hom space this action depends only on the
    isomorphism class of X.

    Full-morphism form D_X(φ) = (id_A ⊗ d̃_X)∘(Φ_φ ⊗ id_X∨)∘(id ⊗ b_X),
    the loop opened by a cup and closed by a cap̃; :func:`defect_matrices`
    closes the same open strand Φ_φ as a trace to get D_X's matrix.
    """
    if check:
        reg = B.regular_bimodule(C, A)
        W = B.sandwich(C, i, reg, j)
        if phi.src != W.obj or phi.tgt != A.obj:
            raise NotIntertwiner(
                f"phi must map U_{i}⊗A⊗U_{j} to A, got {phi.src} -> {phi.tgt}"
            )
        worst = max(c(phi).norm() for c in B._hom_constraints(C, W, reg))
        if worst > C.thresholds.identity:
            raise NotIntertwiner(
                f"phi fails the bimodule-intertwiner check by {worst:.3g}"
            )
    pre, emit = _open_strand(C, A, X)
    strand = E.tensor(C, emit, A.eps @ phi) @ pre(i, j)
    return (E.tensor(C, E.identity(C, A.obj), E.cap_tilde_obj(C, X.obj))
            @ E.tensor(C, strand, E.identity(C, E.dual_obj(C, X.obj)))
            @ E.tensor(C, E.identity(C, phi.src), E.cup_obj(C, X.obj)))


def defect_matrices(C: MtcData, A: AlgebraSpec, X: B.Bimodule,
                    h: dict, hbar: dict) -> dict:
    """The matrix of D_X on each Hom block, {(i, j): M}, in the dual bases
    h, hbar of DMatrix: M[α, β] = ε ∘ D_X(h_β) ∘ h̄_α ∘ η.  Each element is
    the categorical trace of an endomorphism of X (see _open_strand),
    tr((absorb ⊗ ε∘h_β) ∘ pre(i, j) ∘ (h̄_α∘η ⊗ id_X)), absorb = (ε ⊗ id_X) ∘ emit.
    """
    pre, emit = _open_strand(C, A, X)
    id_x = E.identity(C, X.obj)
    absorb = E.tensor(C, A.eps, id_x) @ emit
    out = {}
    for key, hs in h.items():
        strand = pre(*key)
        opened = [strand @ E.tensor(C, hb @ A.eta, id_x) for hb in hbar[key]]
        closes = [E.tensor(C, absorb, A.eps @ hb) for hb in hs]
        out[key] = np.array([[E.trace(C, c @ o) for c in closes] for o in opened])
    return out


# ---------------------------------------------------------------------------
# the block-diagonalization matrix
# ---------------------------------------------------------------------------

@dataclass
class DMatrix:
    """Matrices of the defect operators in dual bases of the Hom blocks.

    ``blocks[(i, j)]`` has shape (|K|, n, n) with n the dimension of the
    (i, j) Hom space; ``matrix`` is the same data flattened to
    |K| × Σn², rows indexed by simples, columns by (i, j, α, β) in the
    order of ``col_index``.
    """

    blocks: dict
    col_index: list
    matrix: np.ndarray
    sigma_min: float
    h: dict = field(repr=False)
    hbar: dict = field(repr=False)
    unit: int


def _hom_block_bases(C: MtcData, A: AlgebraSpec, i: int, j: int):
    """Deterministic basis of Hom(U_i⊗⁺A⊗⁻U_j, A) and its dual basis of
    Hom(A, U_i⊗⁺A⊗⁻U_j) under the pairing (f, g) -> ε∘f∘g∘η."""
    reg = B.regular_bimodule(C, A)
    W = B.sandwich(C, i, reg, j)
    h = B.hom_bimodule(C, W, reg)
    hbar_raw = B.hom_bimodule(C, reg, W)
    if len(h) != len(hbar_raw):
        raise SingularD(
            f"hom blocks ({i},{j}) have mismatched dimensions "
            f"{len(h)} vs {len(hbar_raw)}"
        )
    n = len(h)
    if n == 0:
        return [], []
    gram = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            gram[a, b] = (A.eps @ h[a] @ hbar_raw[b] @ A.eta).scalar()
    try:
        ginv = np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise SingularD(f"degenerate pairing on hom block ({i},{j})") from exc
    hbar = []
    for b in range(n):
        g = 0.0 * hbar_raw[0]
        for c in range(n):
            g = g + complex(ginv[c, b]) * hbar_raw[c]
        hbar.append(g)
    return h, hbar


def d_matrix(C: MtcData, A: AlgebraSpec, simples: list) -> DMatrix:
    """Matrix elements ε ∘ D_X(h_β) ∘ h̄_α ∘ η of every defect operator
    (see :func:`defect_matrices`)."""
    k = len(simples)
    hs: dict = {}
    hbars: dict = {}
    for i in range(C.rank):
        for j in range(C.rank):
            h, hbar = _hom_block_bases(C, A, i, j)
            if h:
                hs[(i, j)], hbars[(i, j)] = h, hbar
    mats = [defect_matrices(C, A, X, hs, hbars) for X in simples]
    blocks = {key: np.array([m[key] for m in mats], dtype=complex).reshape(k, len(h), len(h))
              for key, h in hs.items()}
    col_index = [(i, j, alpha, beta) for (i, j), h in hs.items()
                 for alpha in range(len(h)) for beta in range(len(h))]
    cols = [blk.reshape(k, -1) for blk in blocks.values()]
    matrix = np.concatenate(cols, axis=1) if cols else np.zeros((k, 0))
    if matrix.shape[1] != k:
        raise SingularD(
            f"d is {matrix.shape[0]}×{matrix.shape[1]}, but invertibility "
            f"needs Σ(block dims)² = |K|"
        )
    sv = np.linalg.svd(matrix, compute_uv=False)
    sigma_min = float(sv[-1]) if sv.size else 0.0
    if sigma_min <= C.thresholds.d_rtol * (float(sv[0]) if sv.size else 1.0):
        raise SingularD(f"d has smallest singular value {sigma_min:.3g}")
    return DMatrix(
        blocks=blocks, col_index=col_index, matrix=matrix,
        sigma_min=sigma_min, h=hs, hbar=hbars,
        unit=_unit_index(C, A, simples),
    )


def fusion_table_blockdiag(C: MtcData, d: DMatrix) -> FusionTable:
    """Reassemble the structure constants from the defect-operator matrices.

    N[a, b, c] = Σ_{(i,j)} Σ_{αβγ} d^a_{αβ} d^b_{βγ} (d⁻¹)_{(i,j,α,γ), c}.
    """
    k = d.matrix.shape[0]
    dinv = np.linalg.inv(d.matrix)
    out = np.zeros((k, k, k), dtype=complex)
    row = 0
    for (i, j), blk in d.blocks.items():
        n = blk.shape[1]
        dinv_blk = dinv[row:row + n * n, :].reshape(n, n, k)
        prod = np.einsum("xab,ybg->xyag", blk, blk)
        out += np.einsum("xyag,agz->xyz", prod, dinv_blk)
        row += n * n
    table = np.zeros((k, k, k), dtype=np.int64)
    window = C.thresholds.integer
    for idx in np.ndindex(k, k, k):
        val = out[idx]
        n = int(round(float(np.real(val))))
        if abs(val - n) > window:
            raise NonIntegerStructureConstant(
                f"structure constant {idx} = {val:.8g} is not an integer within {window:.3g}"
            )
        if n < 0:
            raise NonIntegerStructureConstant(
                f"structure constant {idx} = {n} is negative"
            )
        table[idx] = n
    return FusionTable(table, d.unit)


# ---------------------------------------------------------------------------
# the aggregated verification report
# ---------------------------------------------------------------------------

@dataclass
class TheoremOReport:
    """Aggregate verdict on the ring isomorphism and its bookkeeping."""

    K: int
    P: list
    n: dict
    z: np.ndarray
    fusion_direct: np.ndarray
    fusion_blockdiag: np.ndarray
    residuals: dict
    passed: bool

    def to_dict(self) -> dict:
        return {
            "P": [list(p) for p in self.P],
            "n": {f"{i},{j}": int(v) for (i, j), v in self.n.items()},
            "K": self.K,
            "z": self.z.tolist(),
            "fusion_direct": self.fusion_direct.tolist(),
            "fusion_blockdiag": self.fusion_blockdiag.tolist(),
            "residuals": {key: float(val) for key, val in self.residuals.items()},
            "pass": self.passed,
        }


def _lemma2_residual(C: MtcData, A: AlgebraSpec, simples: list, d: DMatrix,
                     seed: int, products=None) -> float:
    """Worst deviation of D_X ∘ D_Y from D_{X⊗_A Y} over sampled pairs."""
    products = products or _relative_products(C, simples)
    k = len(simples)
    pairs = [(a, b) for a in range(k) for b in range(k)]
    if k > 12:
        rng = np.random.default_rng(seed)
        idx = rng.choice(len(pairs), size=100, replace=False)
        pairs = [pairs[t] for t in idx]
    worst = 0.0
    for a, b in pairs:
        mats = defect_matrices(C, A, products(a, b), d.h, d.hbar)
        for key, blk in d.blocks.items():
            diff = blk[a] @ blk[b] - mats[key]
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def verify_theorem_o(C: MtcData, A: AlgebraSpec, seed: int = 0) -> TheoremOReport:
    """Run every check of the ring isomorphism and collect the residuals."""
    z = B.z_matrix(C, A)
    simples = B.simple_bimodules(C, A, seed=seed, _z=z)
    k = len(simples)
    left = B.simple_left_modules(C, A, seed=seed)
    d = d_matrix(C, A, simples)
    products = _relative_products(C, simples)
    direct = fusion_table_direct(C, A, simples, _products=products, _unit=d.unit)
    blockdiag = fusion_table_blockdiag(C, d)

    reg = B.regular_bimodule(C, A)
    unit_res = max((D_map(C, A, reg, i, j, phi, check=False) - phi).norm()
                   for (i, j), h in d.h.items() for phi in h)

    lemma2 = _lemma2_residual(C, A, simples, d, seed, products)

    s = s_matrix(C).entries
    zc = z.entries.astype(complex)
    t = np.diag(C.twist)
    scale = float(np.max(np.abs(s)))
    residuals = {
        "K_vs_tr_ztz": float(abs(k - z.pair_count)),
        "left_modules_vs_tr_z": float(abs(len(left) - z.trace)),
        "unit_map": unit_res,
        "homomorphism": lemma2,
        "sigma_min": d.sigma_min,
        "table_mismatch": float(np.max(np.abs(direct.table - blockdiag.table))),
        "table_axioms": float(max(max(direct.check().values()),
                                  max(blockdiag.check().values()))),
        "z_s_commutator": float(np.max(np.abs(s @ zc - zc @ s))) / scale,
        "z_t_commutator": float(np.max(np.abs(t @ zc - zc @ t))),
    }
    th = C.thresholds
    passed = (
        residuals["K_vs_tr_ztz"] == 0.0
        and residuals["left_modules_vs_tr_z"] == 0.0
        and residuals["unit_map"] < th.unit_map
        and residuals["homomorphism"] < th.residual
        and residuals["sigma_min"] > th.sigma_min
        and residuals["table_mismatch"] == 0.0
        and residuals["table_axioms"] == 0.0
        and residuals["z_s_commutator"] < th.residual
        and residuals["z_t_commutator"] < th.residual
    )
    pset = [(i, j) for i in range(C.rank) for j in range(C.rank)
            if z.entries[i, j] != 0]
    n_map = {(i, j): int(z.entries[i, j]) for (i, j) in pset}
    return TheoremOReport(
        K=k, P=pset, n=n_map, z=z.entries,
        fusion_direct=direct.table, fusion_blockdiag=blockdiag.table,
        residuals=residuals, passed=passed,
    )


# ---------------------------------------------------------------------------
# the linked-loop identity
# ---------------------------------------------------------------------------

def defect_identity(C: MtcData, A: AlgebraSpec, kappa: int, kappa_p: int,
                    j: int, simples: list, table: FusionTable) -> dict:
    """Close two simple bimodule loops, joined by the separability
    idempotent, around a U_j ribbon, and compare the trace against
    Σ_{κ″,i} N[κ,κ′,κ″]·dim Hom(U_i, Ẋ_κ″)·s_{ij}."""
    X, Y = simples[kappa], simples[kappa_p]
    sep = A.delta @ A.eta
    P = (E.tensor(C, X.rho_r, Y.rho_l)
         @ E.tensor(C, E.identity(C, X.obj),
                    E.tensor(C, sep, E.identity(C, Y.obj))))
    W = E.tensor_obj(X.obj, Y.obj)
    U = E.obj(j)
    mono = E.braid(C, U, W) @ E.braid(C, W, U)
    lhs = E.trace(C, E.tensor(C, P, E.identity(C, U)) @ mono)
    s = s_matrix(C).entries
    rhs = 0j
    for c, Zc in enumerate(simples):
        mult = int(table.table[kappa, kappa_p, c])
        if mult == 0:
            continue
        for i in range(C.rank):
            n_i = E.hom_dim(C, E.obj(i), Zc.obj)
            if n_i:
                rhs += mult * n_i * s[i, j]
    return {
        "kappa": kappa,
        "kappa_p": kappa_p,
        "j": j,
        "lhs": complex(lhs),
        "rhs": complex(rhs),
        "residual": float(abs(lhs - rhs)),
    }
