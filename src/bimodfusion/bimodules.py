"""Two-sided modules over an algebra in a braided category.

A bimodule is an object X with commuting actions ρ_l : A⊗X -> X and
ρ_r : X⊗A -> X.  Because the ambient category is braided there are two
inequivalent ways to induce a bimodule from a plain object U — pass A
over U or under it — and the mismatch between the two is exactly what
the commutation matrix z measures.

Left modules reuse the same container with ``rho_r=None``; every
function that touches the right action skips it in that case.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import engine as E
from .errors import (
    DecompositionIncomplete,
    IdempotentSplitFailure,
    NonIntegerDim,
    NotSpecial,
)
from .frobenius import AlgebraSpec
from .mtc import MtcData


@dataclass(frozen=True)
class Bimodule:
    """An object with a left (and optionally right) action of a fixed algebra."""

    cat: MtcData = field(repr=False)
    alg: AlgebraSpec = field(repr=False)
    obj: tuple
    rho_l: E.Morphism
    rho_r: E.Morphism | None = None


@dataclass
class RetractPair:
    """A split idempotent: restrict ∘ embed = id on ``target``."""

    embed: E.Morphism
    restrict: E.Morphism
    target: Bimodule


@dataclass
class ZMatrix:
    """Integer matrix z[i, j] = dim Hom(α⁺U_i, α⁻U_j)."""

    entries: np.ndarray

    @property
    def trace(self) -> int:
        return int(np.trace(self.entries))

    @property
    def pair_count(self) -> int:
        """tr(zᵗz), the number of simple bimodules."""
        return int(np.sum(self.entries * self.entries))


def regular_bimodule(C: MtcData, A: AlgebraSpec) -> Bimodule:
    """A acting on itself by multiplication on both sides."""
    return Bimodule(C, A, A.obj, A.m, A.m)


def alpha_induce(C: MtcData, A: AlgebraSpec, i: int, sign: int) -> Bimodule:
    """Free bimodule on U_i: left action by m, right action braided past U_i.

    ``sign=+1`` brings the algebra over the strand, ``sign=-1`` under it;
    the two give genuinely different bimodules unless U_i is transparent
    to A.
    """
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    U = E.obj(i)
    rho_l = E.tensor(C, A.m, E.identity(C, U))
    sigma = E.braid(C, U, A.obj, inverse=(sign < 0))
    rho_r = rho_l @ E.tensor(C, E.identity(C, A.obj), sigma)
    return Bimodule(C, A, E.tensor_obj(A.obj, U), rho_l, rho_r)


def left_induce(C: MtcData, A: AlgebraSpec, i: int) -> Bimodule:
    """Free left module A⊗U_i (no right action)."""
    U = E.obj(i)
    rho_l = E.tensor(C, A.m, E.identity(C, U))
    return Bimodule(C, A, E.tensor_obj(A.obj, U), rho_l, None)


def sandwich(C: MtcData, i: int, X: Bimodule, j: int) -> Bimodule:
    """U_i ⊗ X ⊗ U_j with the actions threaded through by inverse braidings."""
    A = X.alg
    U, V = E.obj(i), E.obj(j)
    id_u = E.identity(C, U)
    id_v = E.identity(C, V)
    sig_l = E.braid(C, A.obj, U, inverse=True)      # A⊗U -> U⊗A
    sig_r = E.braid(C, V, A.obj, inverse=True)      # V⊗A -> A⊗V
    rho_l = (
        E.tensor(C, id_u, E.tensor(C, X.rho_l, id_v))
        @ E.tensor(C, sig_l, E.identity(C, E.tensor_obj(X.obj, V)))
    )
    rho_r = (
        E.tensor(C, id_u, E.tensor(C, X.rho_r, id_v))
        @ E.tensor(C, E.identity(C, E.tensor_obj(U, X.obj)), sig_r)
    )
    return Bimodule(C, A, E.tensor_obj(U, E.tensor_obj(X.obj, V)), rho_l, rho_r)


def module_residuals(C: MtcData, X: Bimodule) -> dict:
    """Max-entry residuals of the module axioms (and action commutation)."""
    A = X.alg
    id_a = E.identity(C, A.obj)
    id_x = E.identity(C, X.obj)
    res = {
        "left-assoc": (X.rho_l @ E.tensor(C, A.m, id_x)
                       - X.rho_l @ E.tensor(C, id_a, X.rho_l)).norm(),
        "left-unit": (X.rho_l @ E.tensor(C, A.eta, id_x) - id_x).norm(),
    }
    if X.rho_r is not None:
        res["right-assoc"] = (X.rho_r @ E.tensor(C, id_x, A.m)
                              - X.rho_r @ E.tensor(C, X.rho_r, id_a)).norm()
        res["right-unit"] = (X.rho_r @ E.tensor(C, id_x, A.eta) - id_x).norm()
        res["commute"] = (X.rho_l @ E.tensor(C, id_a, X.rho_r)
                          - X.rho_r @ E.tensor(C, X.rho_l, id_a)).norm()
    return res


def _hom_constraints(C: MtcData, X: Bimodule, Y: Bimodule) -> list:
    id_a = E.identity(C, X.alg.obj)
    cons = [lambda f: f @ X.rho_l - Y.rho_l @ E.tensor(C, id_a, f)]
    if X.rho_r is not None and Y.rho_r is not None:
        cons.append(lambda f: f @ X.rho_r - Y.rho_r @ E.tensor(C, f, id_a))
    return cons


def hom_bimodule(C: MtcData, X: Bimodule, Y: Bimodule, with_gap: bool = False):
    """Basis of maps intertwining both actions (left action only for
    left modules)."""
    return E.nullspace_morphisms(
        C, X.obj, Y.obj, _hom_constraints(C, X, Y), with_gap=with_gap
    )


def z_matrix(C: MtcData, A: AlgebraSpec) -> ZMatrix:
    """dim Hom(α⁺U_i, α⁻U_j) for all label pairs.

    Dimensions are singular-value counts; if the spectrum has no clean
    gap at the cutoff the entry is unreliable and NonIntegerDim is
    raised rather than returning a guess.
    """
    n = C.rank
    plus = [alpha_induce(C, A, i, +1) for i in range(n)]
    minus = [alpha_induce(C, A, j, -1) for j in range(n)]
    z = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            sols, gap = hom_bimodule(C, plus[i], minus[j], with_gap=True)
            if gap < C.thresholds.hom_gap:
                raise NonIntegerDim(
                    f"z[{i},{j}]: singular-value gap {gap:.3g} leaves the "
                    f"hom dimension ambiguous"
                )
            z[i, j] = len(sols)
    return ZMatrix(z)


def split_idempotent(C: MtcData, X: Bimodule, P: E.Morphism) -> RetractPair:
    """Split a bimodule idempotent P on X into embed/restrict maps.

    P must commute with the actions (callers produce it as a polynomial
    in endomorphisms, or from the separability element, so this holds by
    construction).  Eigenvalues are required to cluster at 0 and 1; an
    eigenvalue stuck in between means P was not actually idempotent to
    working precision.
    """
    band = C.thresholds.residual
    idem = (P @ P - P).norm()
    if idem > band:
        raise IdempotentSplitFailure(f"not idempotent: ||P∘P - P|| = {idem:.3g}")
    emb_blocks: dict = {}
    res_blocks: dict = {}
    mults: dict = {}
    for k in E.obj_sectors(C, X.obj):
        blk = P.blocks.get(k)
        if blk is None:
            continue
        w, V = np.linalg.eig(blk)
        off = np.minimum(np.abs(w), np.abs(w - 1.0))
        if np.any(off > band):
            bad = w[int(np.argmax(off))]
            raise IdempotentSplitFailure(
                f"sector {k}: idempotent eigenvalue {bad:.6g} is neither 0 nor 1"
            )
        sel = np.abs(w - 1.0) < C.thresholds.image
        if not np.any(sel):
            continue
        emb_blocks[k] = V[:, sel]
        res_blocks[k] = np.linalg.inv(V)[sel, :]
        mults[k] = int(np.sum(sel))
    new_obj = tuple((k,) for k in sorted(mults) for _ in range(mults[k]))
    embed = E.Morphism(C, new_obj, X.obj, emb_blocks)
    restrict = E.Morphism(C, X.obj, new_obj, res_blocks)
    id_a = E.identity(C, X.alg.obj)
    rho_l = restrict @ X.rho_l @ E.tensor(C, id_a, embed)
    rho_r = None
    if X.rho_r is not None:
        rho_r = restrict @ X.rho_r @ E.tensor(C, embed, id_a)
    target = Bimodule(C, X.alg, new_obj, rho_l, rho_r)
    return RetractPair(embed=embed, restrict=restrict, target=target)


def tensor_over_A(C: MtcData, X: Bimodule, Y: Bimodule) -> tuple:
    """Relative tensor product X ⊗_A Y as a split idempotent on X⊗Y.

    The idempotent inserts the separability element Δ∘η between the two
    factors and multiplies it in; this is a projection exactly when the
    algebra is normalized so that m∘Δ = id, which we verify up front.

    Returns ``(X ⊗_A Y, RetractPair)``.
    """
    A = X.alg
    if A.delta is None:
        raise NotSpecial("tensor_over_A needs an algebra with a coproduct "
                         "(normalize the counit first)")
    special = (A.m @ A.delta - E.identity(C, A.obj)).norm()
    if special > C.thresholds.identity:
        raise NotSpecial(f"m∘Δ deviates from id by {special:.3g}; "
                         "normalize the counit first")
    sep = A.delta @ A.eta            # 1 -> A⊗A
    id_x = E.identity(C, X.obj)
    id_y = E.identity(C, Y.obj)
    P = (E.tensor(C, X.rho_r, Y.rho_l)
         @ E.tensor(C, id_x, E.tensor(C, sep, id_y)))
    outer = Bimodule(
        C, A, E.tensor_obj(X.obj, Y.obj),
        E.tensor(C, X.rho_l, id_y),
        E.tensor(C, id_x, Y.rho_r),
    )
    pair = split_idempotent(C, outer, P)
    return pair.target, pair


def _sector_profile(C: MtcData, X: Bimodule) -> tuple:
    return tuple(E.obj_dim(C, X.obj, k) for k in range(C.rank))


def is_isomorphic(C: MtcData, X: Bimodule, Y: Bimodule) -> bool:
    """Isomorphism test for simple modules: one-dimensional hom spaces in
    both directions and an invertible intertwiner."""
    if _sector_profile(C, X) != _sector_profile(C, Y):
        return False
    fwd = hom_bimodule(C, X, Y)
    if len(fwd) != 1 or len(hom_bimodule(C, Y, X)) != 1:
        return False
    f = fwd[0]
    for k in E.obj_sectors(C, X.obj):
        blk = f.blocks.get(k)
        if blk is None or np.linalg.matrix_rank(blk, tol=C.thresholds.iso_rank) < blk.shape[0]:
            return False
    return True


def _random_endomorphism(C: MtcData, ends: list, rng) -> E.Morphism:
    f = 0.0 * ends[0]
    for e in ends:
        f = f + complex(rng.standard_normal() + 1j * rng.standard_normal()) * e
    return f


def _eigenvalue_clusters(T: E.Morphism) -> list:
    vals = np.concatenate(
        [np.linalg.eigvals(blk) for blk in T.blocks.values()]
    )
    vals = vals[np.lexsort((vals.imag, vals.real))]
    centers: list = []
    for v in vals:
        if centers and abs(v - centers[-1][-1]) < T.cat.thresholds.cluster:
            centers[-1].append(v)
        else:
            centers.append([v])
    return [complex(np.mean(c)) for c in centers]


def _spectral_projector(C: MtcData, X: Bimodule, T: E.Morphism,
                        center: complex, centers: list) -> E.Morphism:
    """Lagrange interpolation of the indicator of one eigenvalue cluster."""
    P = E.identity(C, X.obj)
    for mu in centers:
        if mu == center:
            continue
        P = P @ ((1.0 / (center - mu)) * (T - mu * E.identity(C, X.obj)))
    return P


def _decompose(C: MtcData, X: Bimodule, rng, depth: int = 0,
               _ends: list | None = None) -> list:
    """Split X into simple pieces by refining along random endomorphisms."""
    if not X.obj:
        return []
    ends = hom_bimodule(C, X, X) if _ends is None else _ends
    if len(ends) == 0:
        raise DecompositionIncomplete(
            "nonzero module with zero-dimensional endomorphism algebra"
        )
    if len(ends) == 1:
        return [X]
    if depth > 8:
        raise DecompositionIncomplete(
            f"refinement did not terminate (dim End = {len(ends)})"
        )
    for _ in range(3):
        T = _random_endomorphism(C, ends, rng)
        centers = _eigenvalue_clusters(T)
        if len(centers) >= 2:
            break
    else:
        raise DecompositionIncomplete(
            f"no splitting endomorphism found (dim End = {len(ends)})"
        )
    pieces = []
    for c in centers:
        pair = split_idempotent(C, X, _spectral_projector(C, X, T, c, centers))
        pieces.extend(_decompose(C, pair.target, rng, depth + 1))
    return pieces


def _collect_simples(C: MtcData, generators, rng) -> list:
    """Decompose each generator, dedup up to isomorphism, and check the
    Artin–Wedderburn count Σ m² = dim End per generator."""
    reps: list = []
    for G in generators:
        ends = hom_bimodule(C, G, G)
        pieces = _decompose(C, G, rng, _ends=ends)
        local: dict = {}
        for S in pieces:
            for t, R in enumerate(reps):
                if is_isomorphic(C, S, R):
                    local[t] = local.get(t, 0) + 1
                    break
            else:
                reps.append(S)
                local[len(reps) - 1] = 1
        square_sum = sum(m * m for m in local.values())
        if square_sum != len(ends):
            raise DecompositionIncomplete(
                f"multiplicities {sorted(local.values())} give Σm² = "
                f"{square_sum} but dim End = {len(ends)}"
            )
    order = sorted(range(len(reps)), key=lambda t: (_sector_profile(C, reps[t]), t))
    return [reps[t] for t in order]


def simple_bimodules(C: MtcData, A: AlgebraSpec, seed: int = 0, *,
                     _z: ZMatrix | None = None) -> list:
    """All simple A-A bimodules, canonically ordered.

    Every simple occurs inside some sandwich U_i ⊗ A ⊗ U_j, so we
    decompose those.  The total count must come out equal to tr(zᵗz);
    anything else means the decomposition silently missed a summand.
    ``_z`` passes in a z-matrix the caller has already computed.
    """
    rng = np.random.default_rng(seed)
    reg = regular_bimodule(C, A)
    gens = [sandwich(C, i, reg, j) for i in range(C.rank) for j in range(C.rank)]
    reps = _collect_simples(C, gens, rng)
    expected = (z_matrix(C, A) if _z is None else _z).pair_count
    if len(reps) != expected:
        raise DecompositionIncomplete(
            f"found {len(reps)} simple bimodules but tr(zᵗz) = {expected}"
        )
    return reps


def simple_left_modules(C: MtcData, A: AlgebraSpec, seed: int = 0) -> list:
    """All simple left A-modules, from decomposing the free modules A⊗U_i.

    No completeness cross-check here: comparing the count against tr(z)
    is exactly the claim the verification report is for.
    """
    rng = np.random.default_rng(seed)
    gens = [left_induce(C, A, i) for i in range(C.rank)]
    return _collect_simples(C, gens, rng)
