"""Algebras inside a category: axioms, counit normalization, nondegeneracy.

An algebra is presented in a decomposition basis A ≅ ⊕_i n_i·U_i: the
underlying sum object lists one single-letter word per multiplicity copy
(label-ascending, copies consecutive), and the product/unit/coproduct are
morphisms between the corresponding sum objects.  The document schema gives
the product componentwise: an ``m`` entry with fields (i, a, j, b, k, c, mu)
is the coefficient of the channel-mu fusion U_i ⊗ U_j -> U_k from copies
(a, b) into copy c.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import engine as E
from .errors import NotSpecial, ParseError, ShapeError
from .mtc import MtcData, _as_complex


@dataclass(frozen=True)
class AlgebraSpec:
    """An algebra (A, m, η) with optional (Δ, ε), in a fixed copy basis."""

    cat: MtcData = field(repr=False)
    mult: dict
    obj: tuple
    m: E.Morphism
    eta: E.Morphism
    delta: E.Morphism | None = None
    eps: E.Morphism | None = None

    @property
    def dim(self) -> complex:
        """Quantum dimension of the underlying object."""
        return sum(E.dim(self.cat, w[0]) for w in self.obj)


@dataclass
class NondegReport:
    """Outcome of the duality-pairing invertibility check."""

    iso_residual: float
    rank: int
    passed: bool


def algebra_object(C: MtcData, mult: dict) -> tuple:
    """Sum object of an algebra: one single-letter word per copy."""
    words = []
    for i in sorted(mult):
        for _ in range(mult[i]):
            words.append((i,))
    return tuple(words)


def _copy_position(C: MtcData, mult: dict, i: int, a: int) -> int:
    if i not in mult or not 0 <= a < mult[i]:
        raise ShapeError(
            f"copy index {a} out of range for label {C.labels[i]!r} "
            f"(multiplicity {mult.get(i, 0)})"
        )
    return sum(mult[j] for j in sorted(mult) if j < i) + a


def parse_algebra(C: MtcData, doc: dict) -> AlgebraSpec:
    """Build an AlgebraSpec from its document form."""
    if not isinstance(doc, dict):
        raise ParseError("algebra document must be a JSON object")
    raw_mult = doc.get("mult")
    if not isinstance(raw_mult, dict) or not raw_mult:
        raise ParseError("algebra document needs a nonempty 'mult' mapping")
    mult = {}
    for lab, n in raw_mult.items():
        if not isinstance(n, int) or n < 0:
            raise ParseError(f"multiplicity of {lab!r} must be a non-negative integer")
        if n:
            mult[C.index(lab)] = n
    if not mult:
        raise ParseError("algebra has no nonzero multiplicities")
    obj = algebra_object(C, mult)
    n_words = len(obj)

    m_blocks = {}
    for k in E.obj_sectors(C, obj):
        m_blocks[k] = np.zeros(
            (E.obj_dim(C, obj, k), E.obj_dim(C, E.tensor_obj(obj, obj), k)),
            dtype=complex,
        )
    for ent in doc.get("m", []):
        i, j, k = (C.index(str(ent[key])) for key in ("i", "j", "k"))
        a, b, c, mu = (int(ent[key]) for key in ("a", "b", "c", "mu"))
        if not 0 <= mu < C.N[i, j, k]:
            raise ShapeError(
                f"m entry uses channel {mu} of "
                f"{C.labels[i]}×{C.labels[j]}→{C.labels[k]} "
                f"(multiplicity {C.N[i, j, k]})"
            )
        pi = _copy_position(C, mult, i, a)
        pj = _copy_position(C, mult, j, b)
        pk = _copy_position(C, mult, k, c)
        pair = pi * n_words + pj
        src2 = E.tensor_obj(obj, obj)
        col = E.obj_offsets(C, src2, k)[pair] + mu
        row = E.obj_offsets(C, obj, k)[pk]
        m_blocks[k][row, col] = _as_complex(ent["val"], "m entry")
    m = E.Morphism(C, E.tensor_obj(obj, obj), obj, m_blocks)

    eta_entries = doc.get("eta", [])
    if not eta_entries:
        raise ParseError("algebra document needs a nonempty 'eta'")
    eta_vec = np.zeros((E.obj_dim(C, obj, 0), 1), dtype=complex)
    for ent in eta_entries:
        k = C.index(str(ent["k"]))
        if k != 0:
            raise ShapeError("eta components live on unit-label copies only")
        pk = _copy_position(C, mult, k, int(ent["c"]))
        eta_vec[E.obj_offsets(C, obj, 0)[pk], 0] = _as_complex(ent["val"], "eta entry")
    eta = E.Morphism(C, E.UNIT, obj, {0: eta_vec})

    delta = eps = None
    if "delta" in doc:
        d_blocks = {}
        tgt2 = E.tensor_obj(obj, obj)
        for ent in doc["delta"]:
            i, j, k = (C.index(str(ent[key])) for key in ("i", "j", "k"))
            a, b, c, mu = (int(ent[key]) for key in ("a", "b", "c", "mu"))
            pi = _copy_position(C, mult, i, a)
            pj = _copy_position(C, mult, j, b)
            pk = _copy_position(C, mult, k, c)
            if not 0 <= mu < C.N[i, j, k]:
                raise ShapeError("delta entry channel index out of range")
            blk = d_blocks.setdefault(
                k,
                np.zeros((E.obj_dim(C, tgt2, k), E.obj_dim(C, obj, k)), dtype=complex),
            )
            row = E.obj_offsets(C, tgt2, k)[pi * n_words + pj] + mu
            blk[row, E.obj_offsets(C, obj, k)[pk]] = _as_complex(ent["val"], "delta entry")
        delta = E.Morphism(C, obj, tgt2, d_blocks)
    if "eps" in doc:
        e_vec = np.zeros((1, E.obj_dim(C, obj, 0)), dtype=complex)
        for ent in doc["eps"]:
            k = C.index(str(ent["k"]))
            if k != 0:
                raise ShapeError("eps components live on unit-label copies only")
            pk = _copy_position(C, mult, k, int(ent["c"]))
            e_vec[0, E.obj_offsets(C, obj, 0)[pk]] = _as_complex(
                ent["val"], "eps entry"
            )
        eps = E.Morphism(C, obj, E.UNIT, {0: e_vec})
    return AlgebraSpec(C, mult, obj, m, eta, delta, eps)


def load_algebra(C: MtcData, path) -> AlgebraSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}") from None
    return parse_algebra(C, doc)


def trivial_algebra(C: MtcData) -> AlgebraSpec:
    """The unit object with its canonical algebra structure."""
    doc = {
        "mult": {C.labels[0]: 1},
        "m": [{"i": C.labels[0], "a": 0, "j": C.labels[0], "b": 0,
               "k": C.labels[0], "c": 0, "mu": 0, "val": [1.0, 0.0]}],
        "eta": [{"k": C.labels[0], "c": 0, "val": [1.0, 0.0]}],
    }
    return parse_algebra(C, doc)


# ---------------------------------------------------------------------------
# derived costructure
# ---------------------------------------------------------------------------

def derived_counit(C: MtcData, A: AlgebraSpec) -> E.Morphism:
    """The trace form ε_♮ = d ∘ (id ⊗ m) ∘ (b~ ⊗ id)."""
    Ad = E.dual_obj(C, A.obj)
    step1 = E.tensor(C, E.cup_tilde_obj(C, A.obj), E.identity(C, A.obj))
    step2 = E.tensor(C, E.identity(C, Ad), A.m)
    return E.cap_obj(C, A.obj) @ step2 @ step1


def _pairing(C: MtcData, A: AlgebraSpec, eps: E.Morphism) -> E.Morphism:
    """Φ = ((ε∘m) ⊗ id) ∘ (id ⊗ b) : A -> A∨."""
    Ad = E.dual_obj(C, A.obj)
    step1 = E.tensor(C, E.identity(C, A.obj), E.cup_obj(C, A.obj))
    step2 = E.tensor(C, eps @ A.m, E.identity(C, Ad))
    return step2 @ step1


def _pairing_flipped(C: MtcData, A: AlgebraSpec, eps: E.Morphism) -> E.Morphism:
    """Φ' = (id ⊗ (ε∘m)) ∘ (b~ ⊗ id) : A -> A∨ (symmetry partner)."""
    Ad = E.dual_obj(C, A.obj)
    step1 = E.tensor(C, E.cup_tilde_obj(C, A.obj), E.identity(C, A.obj))
    step2 = E.tensor(C, E.identity(C, Ad), eps @ A.m)
    return step2 @ step1


def _blockwise_inv(f: E.Morphism, pinv: bool = True) -> E.Morphism:
    rcond = f.cat.thresholds.pinv_rcond
    inv = functools.partial(np.linalg.pinv, rcond=rcond) if pinv else np.linalg.inv
    return E.Morphism(
        f.cat, f.tgt, f.src, {k: inv(blk) for k, blk in f.blocks.items()}
    )


def with_costructure(C: MtcData, A: AlgebraSpec) -> AlgebraSpec:
    """Fill in (Δ, ε) where absent: ε is the trace form, Δ its dual product.

    Δ := (m ⊗ id) ∘ (id ⊗ coev) with coev = (id ⊗ Φ⁻¹) ∘ b, so that the
    Frobenius and counit axioms hold automatically whenever the pairing Φ is
    invertible; all axioms are re-checked downstream either way.
    """
    if A.delta is not None and A.eps is not None:
        return A
    eps = A.eps if A.eps is not None else derived_counit(C, A)
    delta = A.delta
    if delta is None:
        phi = _pairing(C, A, eps)
        psi = _blockwise_inv(phi)
        coev = E.tensor(C, E.identity(C, A.obj), psi) @ E.cup_obj(C, A.obj)
        delta = E.tensor(C, A.m, E.identity(C, A.obj)) @ E.tensor(
            C, E.identity(C, A.obj), coev
        )
    return replace(A, delta=delta, eps=eps)


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------

def validate_algebra(C: MtcData, A: AlgebraSpec) -> dict:
    """Residuals of the algebra axioms; overall pass flag.

    Keys: associativity, unit, frobenius, symmetric, special, simple (the
    last is |dim End - 1|), plus 'simple_dim' and 'pass'.
    """
    A = with_costructure(C, A)
    idA = E.identity(C, A.obj)
    m, eta, delta, eps = A.m, A.eta, A.delta, A.eps

    assoc = (m @ E.tensor(C, m, idA)) - (m @ E.tensor(C, idA, m))
    unit_l = (m @ E.tensor(C, eta, idA)) - idA
    unit_r = (m @ E.tensor(C, idA, eta)) - idA

    lhs = E.tensor(C, idA, m) @ E.tensor(C, delta, idA)
    mid = delta @ m
    rhs = E.tensor(C, m, idA) @ E.tensor(C, idA, delta)
    frob = max((lhs - mid).norm(), (rhs - mid).norm())

    sym = (_pairing(C, A, eps) - _pairing_flipped(C, A, eps)).norm()

    md = m @ delta
    total_dim = sum(blk.shape[0] for blk in md.blocks.values())
    lam = sum(np.trace(blk) for blk in md.blocks.values()) / total_dim
    special = (md - complex(lam) * idA).norm()
    if abs(lam) < C.thresholds.special_scale:
        special = max(special, 1.0)

    sols = E.nullspace_morphisms(
        C, A.obj, A.obj,
        [
            lambda f: (f @ m) - (m @ E.tensor(C, idA, f)),
            lambda f: (f @ m) - (m @ E.tensor(C, f, idA)),
        ],
    )
    simple_dim = len(sols)

    residuals = {
        "associativity": assoc.norm(),
        "unit": max(unit_l.norm(), unit_r.norm()),
        "frobenius": frob,
        "symmetric": sym,
        "special": special,
        "simple": float(abs(simple_dim - 1)),
    }
    return {
        "residuals": residuals,
        "simple_dim": simple_dim,
        "pass": bool(max(residuals.values()) <= C.thresholds.algebra),
    }


def normalize_counit(C: MtcData, A: AlgebraSpec) -> AlgebraSpec:
    """Rescale (ε, Δ) so that m∘Δ = id and ε∘η = dim(A)."""
    tol = C.thresholds.identity
    A = with_costructure(C, A)
    idA = E.identity(C, A.obj)
    md = A.m @ A.delta
    total_dim = sum(blk.shape[0] for blk in md.blocks.values())
    lam = sum(np.trace(blk) for blk in md.blocks.values()) / total_dim
    if abs(lam) < tol or (md - complex(lam) * idA).norm() > tol * max(1.0, abs(lam)):
        raise NotSpecial(
            f"m∘Δ is not an invertible multiple of the identity "
            f"(scale {abs(lam):.3e}, residual {(md - complex(lam) * idA).norm():.3e})"
        )
    lam = complex(lam)
    out = replace(A, delta=(1.0 / lam) * A.delta, eps=lam * A.eps)
    pairing = (out.eps @ out.eta).scalar()
    dim_a = complex(out.dim)
    if abs(pairing - dim_a) > tol * max(1.0, abs(dim_a)):
        raise NotSpecial(
            f"ε∘η = {pairing:.6g} but dim(A) = {dim_a:.6g}; "
            "not a special Frobenius algebra in this normalization"
        )
    return out


def nondegeneracy(C: MtcData, A: AlgebraSpec) -> NondegReport:
    """Invertibility of the duality pairing A -> A∨, with explicit inverse."""
    th = C.thresholds
    A = with_costructure(C, A)
    Ad = E.dual_obj(C, A.obj)
    phi = _pairing(C, A, A.eps)
    coprod_unit = A.delta @ A.eta
    psi = E.tensor(C, E.cap_obj(C, A.obj), E.identity(C, A.obj)) @ E.tensor(
        C, E.identity(C, Ad), coprod_unit
    )
    res = max(
        ((psi @ phi) - E.identity(C, A.obj)).norm(),
        ((phi @ psi) - E.identity(C, Ad)).norm(),
    )
    rank = sum(
        int(np.linalg.matrix_rank(blk, tol=th.pairing_rank)) for blk in phi.blocks.values()
    )
    full = E.hom_dim(C, A.obj, Ad)
    return NondegReport(iso_residual=res, rank=rank, passed=bool(res < th.identity and rank == full))


# ---------------------------------------------------------------------------
# basis changes
# ---------------------------------------------------------------------------

def basis_change(C: MtcData, A: AlgebraSpec, g: E.Morphism) -> AlgebraSpec:
    """Transport the algebra structure along an isomorphism g: A -> A."""
    ginv = _blockwise_inv(g, pinv=False)
    gg_inv = E.tensor(C, ginv, ginv)
    out = AlgebraSpec(
        C, A.mult, A.obj,
        m=g @ A.m @ gg_inv,
        eta=g @ A.eta,
        delta=None if A.delta is None else E.tensor(C, g, g) @ A.delta @ ginv,
        eps=None if A.eps is None else A.eps @ ginv,
    )
    return out


def random_basis_change(C: MtcData, A: AlgebraSpec, rng) -> AlgebraSpec:
    """Conjugate by a random label-preserving isomorphism of A."""
    blocks = {}
    for k in E.obj_sectors(C, A.obj):
        d = E.obj_dim(C, A.obj, k)
        while True:
            mat = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            mat = np.eye(d) + 0.3 * mat
            if np.linalg.cond(mat) < 20:
                break
        blocks[k] = mat
    return basis_change(C, A, E.Morphism(C, A.obj, A.obj, blocks))
