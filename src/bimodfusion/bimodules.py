"""Two-sided modules over an algebra in a braided category.

A bimodule is an object X with commuting actions ρ_l : A⊗X -> X and
ρ_r : X⊗A -> X.  Because the ambient category is braided there are two
inequivalent ways to induce a bimodule from a plain object U — pass A
over U or under it — and the mismatch between the two is exactly what
the commutation matrix z measures.

Left modules reuse the same container with ``rho_r=None``; every
function that touches the right action skips it in that case.

Modules on one object can be stacked (:func:`stack`): one container whose
action blocks carry a leading batch axis, which the engine broadcasts
over.  :func:`relative_products` and the defect layer use this to build
each structural map once per object rather than once per module.
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
    TypeMismatch,
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
    # the generated field-wise hash would hash the algebra's dict and always raise
    __hash__ = None


@dataclass
class RetractPair:
    """A split idempotent: restrict ∘ embed = id on ``target``."""

    embed: E.Morphism
    restrict: E.Morphism
    target: Bimodule


@dataclass(eq=False)
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


def _items(f: E.Morphism, t) -> E.Morphism:
    """Item t of a stack of morphisms, or the stack of items t for a list t."""
    return E.Morphism(f.cat, f.src, f.tgt, {k: blk[t] for k, blk in f.blocks.items()})


def _stack_maps(C: MtcData, fs: list) -> E.Morphism:
    f = fs[0]
    return E.Morphism(C, f.src, f.tgt, {k: np.stack([g.blocks[k] for g in fs]) for k in f.blocks})


def stack(C: MtcData, modules: list) -> Bimodule:
    """The modules, which share one object, as one whose action blocks
    carry a leading batch axis: item t is ``modules[t]``."""
    X = modules[0]
    rho_r = None if X.rho_r is None else _stack_maps(C, [Y.rho_r for Y in modules])
    return Bimodule(C, X.alg, X.obj, _stack_maps(C, [Y.rho_l for Y in modules]), rho_r)


def stacks(C: MtcData, modules: list) -> list:
    """``[(indices, stack)]``: the modules grouped by object, in order of
    first appearance, each group stacked by :func:`stack`."""
    groups: dict = {}
    for t, X in enumerate(modules):
        groups.setdefault(X.obj, []).append(t)
    return [(idx, stack(C, [modules[t] for t in idx])) for idx in groups.values()]


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


def intertwiner_matrix(C: MtcData, X: Bimodule, Y: Bimodule) -> np.ndarray:
    """Matrix on vec(f), f in Hom(X, Y), whose null space is the module
    maps: the rows of f∘ρ_l − ρ_l∘(id_A⊗f) and, when both have a right
    action, of f∘ρ_r − ρ_r∘(f⊗id_A) below them (:func:`engine.action_matrix`)."""
    A = X.alg.obj
    M = E.action_matrix(C, A, X.rho_l, Y.rho_l, left=True)
    if X.rho_r is not None and Y.rho_r is not None:
        M = np.concatenate([M, E.action_matrix(C, A, X.rho_r, Y.rho_r, left=False)], axis=-2)
    return M


def module_maps(C: MtcData, S: tuple, T: tuple, M: np.ndarray) -> list:
    """Basis of the maps S -> T in the null space of an intertwiner matrix
    M; NonIntegerDim when its singular-value gap leaves the dimension
    ambiguous."""
    sols, gap = E.nullspace_morphisms(C, S, T, M)
    if gap < C.thresholds.hom_gap:
        raise NonIntegerDim(
            f"Hom({S}, {T}): singular-value gap {gap:.3g} leaves the "
            f"hom dimension ambiguous"
        )
    return sols


def hom_bimodule(C: MtcData, X: Bimodule, Y: Bimodule) -> list:
    """Basis of maps intertwining both actions (left action only for left
    modules): the null space of :func:`intertwiner_matrix`, by :func:`module_maps`."""
    if E.hom_dim(C, X.obj, Y.obj) == 0:
        return []
    return module_maps(C, X.obj, Y.obj, intertwiner_matrix(C, X, Y))


def z_matrix(C: MtcData, A: AlgebraSpec) -> ZMatrix:
    """dim Hom(α⁺U_i, α⁻U_j) for all label pairs (NonIntegerDim when one of
    them is ambiguous, see :func:`hom_bimodule`), kept read-only in A's store."""
    store = A._cache["z"]
    if () not in store:
        plus = [alpha_induce(C, A, i, +1) for i in range(C.rank)]
        minus = [alpha_induce(C, A, j, -1) for j in range(C.rank)]
        entries = np.array([[len(hom_bimodule(C, p, m)) for m in minus] for p in plus],
                           dtype=np.int64)
        entries.setflags(write=False)
        store[()] = ZMatrix(entries)
    return store[()]


def regular_sandwich(C: MtcData, A: AlgebraSpec, i: int, j: int) -> Bimodule:
    """U_i ⊗⁺ A ⊗⁻ U_j: a new Bimodule on the parts A's store keeps per (i, j)."""
    store = A._cache["sandwich"]
    if (i, j) not in store:
        W = sandwich(C, i, regular_bimodule(C, A), j)
        store[i, j] = (W.obj, W.rho_l, W.rho_r)
    return Bimodule(C, A, *store[i, j])


def split_idempotent(C: MtcData, X: Bimodule, P: E.Morphism):
    """Split a bimodule idempotent P on X into embed/restrict maps.

    P must be an endomorphism of X's object (else :class:`TypeMismatch`)
    and commute with the actions (callers produce it as a polynomial
    in endomorphisms, or from the separability element, so this holds by
    construction).  Eigenvalues are required to lie within ``residual`` of
    0 or 1, and those nearer 1 span the image; an eigenvalue stuck in between
    means P was not actually idempotent to working precision.

    A stack P on a stack X (:func:`stack`) is split as a whole and gives
    one RetractPair per item: one eigendecomposition per sector, then the
    items are grouped by the multiplicities of their image, and the actions
    are restricted once per group.  A single P is split as a stack of one.
    """
    if P.src != X.obj or P.tgt != X.obj:
        raise TypeMismatch(f"P is not an endomorphism of {X.obj}")
    band = C.thresholds.residual
    idem = (P @ P - P).norm()
    if idem > band:
        raise IdempotentSplitFailure(f"not idempotent: ||P∘P - P|| = {idem:.3g}")
    eigs: dict = {}
    for k in E.obj_sectors(C, X.obj):
        blk = P.blocks[k]
        w, V = np.linalg.eig(blk.reshape(-1, *blk.shape[-2:]))
        off = np.minimum(np.abs(w), np.abs(w - 1.0))
        if np.any(off > band):
            bad = w.flat[int(np.argmax(off))]
            raise IdempotentSplitFailure(
                f"sector {k}: idempotent eigenvalue {bad:.6g} is neither 0 nor 1"
            )
        sel = np.abs(w - 1.0) < np.abs(w)
        if np.any(sel):
            eigs[k] = (V, sel, np.linalg.inv(V))
    items = P.batch[0] if P.batch else 1
    groups: dict = {}
    for t in range(items):
        mults = tuple((k, int(np.sum(sel[t]))) for k, (_, sel, _) in eigs.items() if sel[t].any())
        groups.setdefault(mults, []).append(t)
    id_a = E.identity(C, X.alg.obj)
    out: list = [None] * items
    for mults, idx in groups.items():
        new_obj = tuple(E.obj(k)[0] for k, m in mults for _ in range(m))
        emb_blocks, res_blocks = {}, {}
        for k, _ in mults:
            V, sel, Vinv = eigs[k]
            emb_blocks[k] = np.stack([V[t][:, sel[t]] for t in idx])
            res_blocks[k] = np.stack([Vinv[t][sel[t], :] for t in idx])
        embed = E.Morphism(C, new_obj, X.obj, emb_blocks)
        restrict = E.Morphism(C, X.obj, new_obj, res_blocks)
        def group(f: E.Morphism) -> E.Morphism:
            return _items(f, idx) if f.batch else f

        rho_l = restrict @ group(X.rho_l) @ E.tensor(C, id_a, embed)
        rho_r = None
        if X.rho_r is not None:
            rho_r = restrict @ group(X.rho_r) @ E.tensor(C, embed, id_a)
        for j, t in enumerate(idx):
            target = Bimodule(C, X.alg, new_obj, _items(rho_l, j),
                              None if rho_r is None else _items(rho_r, j))
            out[t] = RetractPair(_items(embed, j), _items(restrict, j), target)
    return out if P.batch else out[0]


def separability_idempotent(C: MtcData, X: Bimodule, Y: Bimodule) -> E.Morphism:
    """P = (ρ_r ⊗ ρ_l) ∘ (id_X ⊗ Δ∘η ⊗ id_Y) on X⊗Y, whose image is X ⊗_A Y;
    an idempotent when the algebra is special (m∘Δ = id)."""
    sep = X.alg.delta @ X.alg.eta            # 1 -> A⊗A
    return (E.tensor(C, X.rho_r, Y.rho_l)
            @ E.tensor(C, E.identity(C, X.obj),
                       E.tensor(C, sep, E.identity(C, Y.obj))))


def relative_products(C: MtcData, pairs: list) -> list:
    """Relative tensor products X ⊗_A Y, each as a split idempotent on X⊗Y:
    ``(X ⊗_A Y, RetractPair)`` for each pair (X, Y).

    The idempotent inserts the separability element Δ∘η between the two
    factors and multiplies it in; this is a projection exactly when the
    algebra is normalized so that m∘Δ = id, which we verify up front.  The
    pairs on the same two objects are stacked, so that their idempotent is
    built and split once (:func:`split_idempotent`).
    """
    A = pairs[0][0].alg
    if A.delta is None:
        raise NotSpecial("the relative product X ⊗_A Y needs an algebra with a "
                         "coproduct (normalize the counit first)")
    special = (A.m @ A.delta - E.identity(C, A.obj)).norm()
    if special > C.thresholds.identity:
        raise NotSpecial(f"m∘Δ deviates from id by {special:.3g}; "
                         "normalize the counit first")
    groups: dict = {}
    for t, (X, Y) in enumerate(pairs):
        groups.setdefault((X.obj, Y.obj), []).append(t)
    out: list = [None] * len(pairs)
    for idx in groups.values():
        X = stack(C, [pairs[t][0] for t in idx])
        Y = stack(C, [pairs[t][1] for t in idx])
        outer = Bimodule(
            C, A, E.tensor_obj(X.obj, Y.obj),
            E.tensor(C, X.rho_l, E.identity(C, Y.obj)),
            E.tensor(C, E.identity(C, X.obj), Y.rho_r),
        )
        split = split_idempotent(C, outer, separability_idempotent(C, X, Y))
        for t, pair in zip(idx, split):
            out[t] = (pair.target, pair)
    return out


def tensor_over_A(C: MtcData, X: Bimodule, Y: Bimodule) -> tuple:
    """Relative tensor product X ⊗_A Y as a split idempotent on X⊗Y:
    ``(X ⊗_A Y, RetractPair)``, :func:`relative_products` of one pair."""
    return relative_products(C, [(X, Y)])[0]


def is_isomorphic(C: MtcData, X: Bimodule, Y: Bimodule) -> bool:
    """Whether Y ≅ X, for a simple X.  Modules over a special algebra form a
    semisimple category, so by Schur's lemma dim Hom(X, Y) = 1 makes Y ≅ X ⊕ Z,
    and equal sector profiles leave Z = 0: one Hom solve, none if they differ."""
    return (E.obj_dims(C, X.obj) == E.obj_dims(C, Y.obj)
            and len(hom_bimodule(C, X, Y)) == 1)


def _random_endomorphism(ends: list, rng) -> E.Morphism:
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


def _decompose(C: MtcData, X: Bimodule, ends: list, rng) -> list:
    """Split X, with End basis ``ends``, into simple pieces along one random
    endomorphism.  Modules over a special algebra are semisimple, so End(X) ≅
    ⊕ M_{m_i}(ℂ) (Artin–Wedderburn) and a generic element has Σ m_i distinct
    eigenvalues, each cluster's projector splitting off one simple summand;
    the Σm² count of :func:`_collect_simples` checks that it did."""
    if len(ends) == 0:
        raise DecompositionIncomplete(
            "nonzero module with zero-dimensional endomorphism algebra"
        )
    if len(ends) == 1:
        return [X]
    T = _random_endomorphism(ends, rng)
    centers = _eigenvalue_clusters(T)
    if len(centers) < 2:
        raise DecompositionIncomplete(
            f"no splitting endomorphism found (dim End = {len(ends)})"
        )
    return [split_idempotent(C, X, _spectral_projector(C, X, T, c, centers)).target
            for c in centers]


def _collect_simples(C: MtcData, generators, rng) -> list:
    """Decompose each generator, dedup up to isomorphism, and check the
    Artin–Wedderburn count Σ m² = dim End per generator.

    The count certifies the pieces of :func:`_decompose`.  A piece that is
    not simple (two eigenvalues in one cluster) is isomorphic to no simple
    piece, so it leaves Σ m² short of dim End and the check raises; only
    several such pieces with equal sector profiles could make up the
    shortfall.  A generator that passes has thus met the "X simple"
    precondition of :func:`is_isomorphic` for each piece.
    """
    reps: list = []
    for G in generators:
        ends = hom_bimodule(C, G, G)
        local: dict = {}
        for S in _decompose(C, G, ends, rng):
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
    order = sorted(range(len(reps)), key=lambda t: (E.obj_dims(C, reps[t].obj), t))
    return [reps[t] for t in order]


def simple_bimodules(C: MtcData, A: AlgebraSpec, seed: int = 0) -> list:
    """All simple A-A bimodules, canonically ordered.

    Every simple occurs inside some sandwich U_i ⊗ A ⊗ U_j, so we
    decompose those.  The total count must come out equal to tr(zᵗz);
    anything else means the decomposition silently missed a summand.
    """
    rng = np.random.default_rng(seed)
    gens = [regular_sandwich(C, A, i, j) for i in range(C.rank) for j in range(C.rank)]
    reps = _collect_simples(C, gens, rng)
    expected = z_matrix(C, A).pair_count
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
