"""Algebras inside a category: axioms, counit normalization, basis changes.

An algebra is presented in a decomposition basis A ≅ ⊕_i n_i·U_i: the
underlying sum object lists one word per multiplicity copy (label-ascending,
copies consecutive), the single letter i for a copy of U_i and the empty
word for a copy of the unit, and the product/unit/coproduct are morphisms
between the corresponding sum objects.  The document schema gives
the product componentwise: an ``m`` entry with fields (i, a, j, b, k, c, mu)
is the coefficient of the channel-mu fusion U_i ⊗ U_j -> U_k from copies
(a, b) into copy c.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import engine as E
from .errors import NotSpecial, ParseError, ShapeError
from .mtc import MtcData, _as_complex, _entry_list, read_document


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
        mult = self.mult
        return sum(E.dim(self.cat, i) for i in sorted(mult) for _ in range(mult[i]))


def algebra_object(C: MtcData, mult: dict) -> tuple:
    """Sum object of an algebra: one word per copy, the letter of its label
    or, for a copy of the unit, the empty word."""
    return tuple(E.obj(i)[0] for i in sorted(mult) for _ in range(mult[i]))


def _copy_position(C: MtcData, mult: dict, i: int, a: int) -> int:
    if i not in mult or not 0 <= a < mult[i]:
        raise ShapeError(
            f"copy index {a} out of range for label {C.labels[i]!r} "
            f"(multiplicity {mult.get(i, 0)})"
        )
    return sum(mult[j] for j in sorted(mult) if j < i) + a


def _entries(C: MtcData, doc: dict, name: str, labels: tuple, ints: tuple):
    """Each entry of the section ``name``: its label fields as indices, then
    its integer fields, then its raw ``val``.  A cell (all fields but
    ``val``) given twice raises ParseError."""
    first: dict = {}
    for pos, ent in enumerate(_entry_list(doc.get(name, []), name)):
        where = f"{name} entry {pos}"
        for key in (*labels, *ints, "val"):
            if key not in ent:
                raise ParseError(f"{where} is missing the field {key!r}")
        for key in ints:
            if not isinstance(ent[key], int) or isinstance(ent[key], bool):
                raise ParseError(f"{where}: field {key}={ent[key]!r} is not an integer")
        cell = (*(C.index(str(ent[key])) for key in labels), *(ent[key] for key in ints))
        if cell in first:
            raise ParseError(f"{where} gives the cell of {name} entry {first[cell]} again")
        first[cell] = pos
        yield (*cell, ent["val"])


def _product_blocks(C: MtcData, mult: dict, obj: tuple, doc: dict, name: str) -> dict:
    """Sector blocks of the map A ⊗ A -> A given by a product-shaped section
    (``m``; ``delta`` is its transpose, read as k -> i ⊗ j)."""
    src = E.tensor_obj(obj, obj)
    blocks = {k: np.zeros((E.obj_dim(C, obj, k), E.obj_dim(C, src, k)), dtype=complex)
              for k in E.obj_sectors(C, obj)}
    for i, j, k, a, b, c, mu, val in _entries(C, doc, name, ("i", "j", "k"),
                                              ("a", "b", "c", "mu")):
        if not 0 <= mu < C.N[i, j, k]:
            raise ShapeError(
                f"{name} entry uses channel {mu} of "
                f"{C.labels[i]}×{C.labels[j]}→{C.labels[k]} "
                f"(multiplicity {C.N[i, j, k]})"
            )
        pair = _copy_position(C, mult, i, a) * len(obj) + _copy_position(C, mult, j, b)
        row = E.obj_offsets(C, obj, k)[_copy_position(C, mult, k, c)]
        col = E.obj_offsets(C, src, k)[pair] + mu
        blocks[k][row, col] = _as_complex(val, f"{name} entry")
    return blocks


def _unit_vector(C: MtcData, mult: dict, obj: tuple, doc: dict, name: str) -> np.ndarray:
    """Coefficients on the sector-0 basis of A of a unit-shaped section
    (``eta``, read as 1 -> A; ``eps``, read as A -> 1)."""
    out = np.zeros(E.obj_dim(C, obj, 0), dtype=complex)
    for k, c, val in _entries(C, doc, name, ("k",), ("c",)):
        if k != 0:
            raise ShapeError(f"{name} components live on unit-label copies only")
        out[E.obj_offsets(C, obj, 0)[_copy_position(C, mult, k, c)]] = _as_complex(
            val, f"{name} entry"
        )
    return out


def parse_algebra(C: MtcData, doc: dict) -> AlgebraSpec:
    """Build an AlgebraSpec from its document form."""
    if not isinstance(doc, dict):
        raise ParseError("algebra document must be a JSON object")
    raw_mult = doc.get("mult")
    if not isinstance(raw_mult, dict) or not raw_mult:
        raise ParseError("algebra document needs a nonempty 'mult' mapping")
    mult = {}
    for lab, n in raw_mult.items():
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ParseError(f"multiplicity of {lab!r} must be a non-negative integer")
        i = C.index(lab)
        if n:
            mult[i] = n
    if not mult:
        raise ParseError("algebra has no nonzero multiplicities")
    # the unit law m∘(η⊗id) = id puts an m entry into every copy
    entries = len(_entry_list(doc.get("m", []), "m"))
    if sum(mult.values()) > entries:
        raise ParseError(f"algebra multiplicities total {sum(mult.values())}, more than "
                         f"the {entries} entries of 'm': no unit law is possible")
    obj = algebra_object(C, mult)
    obj2 = E.tensor_obj(obj, obj)

    m = E.Morphism(C, obj2, obj, _product_blocks(C, mult, obj, doc, "m"))
    if not doc.get("eta"):
        raise ParseError("algebra document needs a nonempty 'eta'")
    eta = E.Morphism(C, E.UNIT, obj, {0: _unit_vector(C, mult, obj, doc, "eta")[:, None]})
    delta = eps = None
    if "delta" in doc:
        blocks = _product_blocks(C, mult, obj, doc, "delta")
        delta = E.Morphism(C, obj, obj2, {k: blk.T.copy() for k, blk in blocks.items()})
    if "eps" in doc:
        eps = E.Morphism(C, obj, E.UNIT, {0: _unit_vector(C, mult, obj, doc, "eps")[None, :]})
    return AlgebraSpec(C, mult, obj, m, eta, delta, eps)


def load_algebra(C: MtcData, path) -> AlgebraSpec:
    return parse_algebra(C, read_document(path))


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
    inv = np.linalg.pinv if pinv else np.linalg.inv
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

def _md_scale(C: MtcData, A: AlgebraSpec) -> tuple:
    """(λ, ‖m∘Δ − λ·id‖) with λ = tr(m∘Δ)/dim, for A with its costructure."""
    md = A.m @ A.delta
    total_dim = sum(blk.shape[0] for blk in md.blocks.values())
    lam = complex(sum(np.trace(blk) for blk in md.blocks.values()) / total_dim)
    return lam, (md - lam * E.identity(C, A.obj)).norm()


def validate_algebra(C: MtcData, A: AlgebraSpec) -> dict:
    """Residuals of the algebra axioms; overall pass flag.

    Keys: associativity, unit, frobenius, symmetric, special, simple (the
    last is |dim End - 1|, NonIntegerDim when that dimension is ambiguous),
    plus 'simple_dim' and 'pass'.
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

    lam, special = _md_scale(C, A)
    if abs(lam) < C.thresholds.identity:
        special = max(special, 1.0)

    from . import bimodules

    reg = bimodules.regular_bimodule(C, A)
    simple_dim = len(bimodules.hom_bimodule(C, reg, reg))

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
        "pass": bool(max(residuals.values()) <= C.thresholds.identity),
    }


def normalize_counit(C: MtcData, A: AlgebraSpec) -> AlgebraSpec:
    """Rescale (ε, Δ) so that m∘Δ = id and ε∘η = dim(A)."""
    tol = C.thresholds.identity
    A = with_costructure(C, A)
    lam, residual = _md_scale(C, A)
    if abs(lam) < tol or residual > tol * max(1.0, abs(lam)):
        raise NotSpecial(
            f"m∘Δ is not an invertible multiple of the identity "
            f"(scale {abs(lam):.3e}, residual {residual:.3e})"
        )
    out = replace(A, delta=(1.0 / lam) * A.delta, eps=lam * A.eps)
    pairing = (out.eps @ out.eta).scalar()
    dim_a = complex(out.dim)
    if abs(pairing - dim_a) > tol * max(1.0, abs(dim_a)):
        raise NotSpecial(
            f"ε∘η = {pairing:.6g} but dim(A) = {dim_a:.6g}; "
            "not a special Frobenius algebra in this normalization"
        )
    return out


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
