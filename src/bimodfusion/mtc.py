"""Skeletal category data: loading, validation, S-matrix, gauge moves.

A category is described by a plain JSON-able document (see ``docs/formats.md``)
holding fusion multiplicities and F/R/twist symbol tables.  :func:`load_mtc`
parses one of these, checks the coherence axioms (pentagon, hexagons, ribbon)
to a tolerance, and returns an immutable :class:`MtcData`.

Conventions baked into the symbol tables:

* labels are indexed in document order and the unit label is listed first;
* ``[F^{abc}_d]_{(e,mu,nu),(f,rho,sigma)}`` rewrites the left-comb splitting
  tree through the channel ``e`` (with vertex multiplicities ``mu, nu``) in
  terms of the right-comb tree through ``f``;
* ``[R^{ab}_c]_{mu,nu}`` expands the braided splitting vertex
  ``c_{a,b} ∘ Y^nu`` in the vertices ``Y^mu`` of ``Hom(c, b ⊗ a)``;
* any F whose first three labels include the unit is the identity matrix in
  the canonical channel bases (fixed unit gauge), and is not stored.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AxiomViolation, InvalidTolerance, MissingSymbol, ParseError

__all__ = [
    "MtcData",
    "Thresholds",
    "SMatrix",
    "CatalogEntry",
    "load_mtc",
    "read_document",
    "to_document",
    "s_matrix",
    "verify_modular",
    "gauge_transform",
    "random_gauge",
]

DEFAULT_TOL = 1e-9

#: largest accepted tolerance: it keeps ``residual`` (10³·tol, here 0.1)
#: below ``image`` (0.5), so ½·id is not taken for an idempotent, and keeps
#: axiom violations of order 0.1 failing
MAX_TOL = 1e-4


class Thresholds:
    """Every numerical threshold of the package, derived from one tolerance.

    Each integer the package reports (a Hom dimension, an entry of z, a
    structure constant, a pass flag) comes from comparing a float with one
    of these; ``MtcData.thresholds`` holds the set for the category's
    ``tol``.  The floors keep a threshold meaningful at a tiny ``tol``, so
    formulas that agree at the default are kept apart.  The "Tolerances"
    section of docs/reports.md says what each one decides.
    """

    def __init__(self, tol: float):
        if not (math.isfinite(tol) and 0 < tol <= MAX_TOL):
            raise InvalidTolerance(
                f"tolerance must be finite, positive and at most {MAX_TOL:g}, got {tol!r}")
        self.coherence = tol                  # category axioms; S invertible (modular)
        self.integer = 100.0 * tol            # structure constant vs its nearest integer
        self.algebra = tol * 1e3              # algebra-check residuals
        self.identity = max(tol * 1e3, 1e-9)  # m∘Δ = id, ε∘η = dim A, pairing inverse, D_map input
        self.residual = max(tol * 1e3, 1e-6)  # report gates, zig-zags, idempotent eigenvalues
        self.null_rtol = max(tol, 1e-12)      # Hom solve: σ ≤ max(null_atol, null_rtol·σ_max) is 0
        self.null_atol = 1e-10
        self.d_rtol = max(tol * 1e2, 1e-10)   # d singular: σ_min ≤ d_rtol·σ_max
        # fixed, the same at every tol
        self.hom_gap = 10.0         # kept/dropped σ ratio below it: Hom dimension ambiguous
        self.unit_map = 1e-9        # verify-o: ‖D_A − id‖ below it
        self.sigma_min = 1e-6       # verify-o: σ_min(d) above it
        self.cluster = 1e-6         # eigenvalues closer than it form one cluster
        self.image = 0.5            # idempotent eigenvalue this close to 1: in the image
        self.special_scale = 1e-12  # |scale of m∘Δ| below it: not special
        self.unit_channel = 1e-30   # |F^{aāa}_a unit entry| below it: no duality maps
        self.pairing_rank = 1e-9    # rank cutoff of the duality pairing (nondegeneracy)
        self.iso_rank = None        # rank cutoff of an intertwiner: numpy's σ_max·max(M,N)·eps
        self.pinv_rcond = 1e-15     # numpy's pinv cutoff, relative to σ_max (derived Δ)


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MtcData:
    """Validated category symbol tables, immutable after :func:`load_mtc`.

    F and R matrices are stored per label quad/triple in the canonical
    channel bases enumerated by :meth:`left_channels` / :meth:`right_channels`
    (label-major, multiplicity-minor).  ``_fmats`` and ``_rmats`` hold
    exactly the quads and triples of non-unit letters with non-empty
    channels, as in the document; the accessors synthesize the unit-gauge
    identities and the empty matrices of the others on demand and keep them
    in ``_cache``.
    """

    labels: tuple[str, ...]
    dual: np.ndarray
    N: np.ndarray
    twist: np.ndarray
    tol: float
    _fmats: dict = field(repr=False)
    _rmats: dict = field(repr=False)
    _cache: dict = field(default_factory=dict, repr=False)
    thresholds: Thresholds = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "thresholds", Thresholds(self.tol))

    # -- bookkeeping -----------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ParseError(f"unknown label {label!r}") from None

    def left_channels(self, a: int, b: int, c: int, d: int) -> list[tuple[int, int, int]]:
        """Canonical basis (e, mu, nu) of trees a(b) -> e -> d fusing c."""
        key = ("L", a, b, c, d)
        out = self._cache.get(key)
        if out is None:
            out = [
                (e, mu, nu)
                for e in range(self.rank)
                for mu in range(self.N[a, b, e])
                for nu in range(self.N[e, c, d])
            ]
            self._cache[key] = out
        return out

    def right_channels(self, a: int, b: int, c: int, d: int) -> list[tuple[int, int, int]]:
        """Canonical basis (f, rho, sigma) of trees with b(c) -> f fused first."""
        key = ("R", a, b, c, d)
        out = self._cache.get(key)
        if out is None:
            out = [
                (f, rho, sigma)
                for f in range(self.rank)
                for rho in range(self.N[b, c, f])
                for sigma in range(self.N[a, f, d])
            ]
            self._cache[key] = out
        return out

    # -- symbol access ---------------------------------------------------
    def fmat(self, a: int, b: int, c: int, d: int) -> np.ndarray:
        """F-matrix of the quad, rows = left channels, cols = right channels."""
        mat = self._fmats.get((a, b, c, d))
        if mat is None:
            mat = self._cache.get(("Fmat", a, b, c, d))
        if mat is None:
            nl = len(self.left_channels(a, b, c, d))
            if 0 in (a, b, c):
                mat = np.eye(nl, dtype=complex)
            else:
                # validated data: absent quad means the hom space is zero
                mat = np.zeros((nl, len(self.right_channels(a, b, c, d))), dtype=complex)
            mat.setflags(write=False)
            self._cache[("Fmat", a, b, c, d)] = mat
        return mat

    def finv(self, a: int, b: int, c: int, d: int) -> np.ndarray:
        """Inverse F-matrix, rows = right channels, cols = left channels."""
        key = ("Finv", a, b, c, d)
        mat = self._cache.get(key)
        if mat is None:
            fwd = self.fmat(a, b, c, d)
            if fwd.size == 0:
                mat = fwd.T.copy()
            else:
                try:
                    mat = np.linalg.inv(fwd)
                except np.linalg.LinAlgError:
                    raise AxiomViolation(
                        "f-invertibility", float("inf"),
                        {"f-invertibility": float("inf")},
                    ) from None
            mat.setflags(write=False)
            self._cache[key] = mat
        return mat

    def rmat(self, a: int, b: int, c: int) -> np.ndarray:
        mat = self._rmats.get((a, b, c))
        if mat is None:
            mat = self._cache.get(("Rmat", a, b, c))
        if mat is None:
            mat = np.eye(self.N[a, b, c], dtype=complex)
            mat.setflags(write=False)
            self._cache[("Rmat", a, b, c)] = mat
        return mat

    def rinv(self, a: int, b: int, c: int) -> np.ndarray:
        key = ("Rinv", a, b, c)
        mat = self._cache.get(key)
        if mat is None:
            fwd = self.rmat(a, b, c)
            try:
                mat = np.linalg.inv(fwd) if fwd.size else fwd.copy()
            except np.linalg.LinAlgError:
                raise AxiomViolation(
                    "r-invertibility", float("inf"),
                    {"r-invertibility": float("inf")},
                ) from None
            mat.setflags(write=False)
            self._cache[key] = mat
        return mat

    def f(self, a, b, c, d, e, f, mu=0, nu=0, rho=0, sigma=0) -> complex:
        left = self.left_channels(a, b, c, d)
        right = self.right_channels(a, b, c, d)
        try:
            i = left.index((e, mu, nu))
            j = right.index((f, rho, sigma))
        except ValueError:
            return 0j
        return complex(self.fmat(a, b, c, d)[i, j])

    def r(self, a, b, c, mu=0, nu=0) -> complex:
        if mu >= self.N[a, b, c] or nu >= self.N[a, b, c]:
            return 0j
        return complex(self.rmat(a, b, c)[mu, nu])


@dataclass(frozen=True)
class SMatrix:
    """Unnormalized S-matrix: entries[i, j] = tr(c_{U_i,U_j} ∘ c_{U_j,U_i})."""

    entries: np.ndarray


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    data: MtcData
    provenance: str


# ---------------------------------------------------------------------------
# document parsing
# ---------------------------------------------------------------------------

def read_document(path) -> dict:
    """Read a JSON document from a filesystem path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read document {path}: {exc}") from exc


def _as_complex(val, where: str) -> complex:
    if (
        not isinstance(val, (list, tuple))
        or len(val) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in val)
    ):
        raise ParseError(f"{where}: complex values must be [re, im] pairs, got {val!r}")
    return complex(val[0], val[1])


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"document is missing the {key!r} section")
    return doc[key]


def _mult_index(ent: dict, key: str, bound: int, where: str) -> int:
    v = ent.get(key, 0)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ParseError(f"{where}: multiplicity index {key}={v!r} is not a non-negative integer")
    if v >= bound:
        raise ParseError(f"{where}: {key}={v} exceeds the fusion multiplicity {bound}")
    return v


def load_mtc(doc: dict, tol: float = DEFAULT_TOL) -> MtcData:
    """Parse and validate a category document.

    Raises ParseError for structural problems, MissingSymbol when an F/R
    entry required by a nonzero fusion channel is absent, and AxiomViolation
    (with all residuals attached) when a coherence identity fails ``tol``,
    and InvalidTolerance unless ``tol`` is finite, positive and at most
    ``MAX_TOL``.
    """
    if not isinstance(doc, dict):
        raise ParseError("category document must be a JSON object")
    labels = _require(doc, "labels")
    if (
        not isinstance(labels, list) or not labels
        or not all(isinstance(s, str) for s in labels)
    ):
        raise ParseError("labels must be a non-empty list of strings")
    if len(set(labels)) != len(labels):
        raise ParseError("labels must be unique")
    if _require(doc, "unit") != labels[0]:
        raise ParseError("the unit label must be listed first in labels")
    n = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}

    def lab_index(ent, key, where):
        lab = ent.get(key)
        if lab not in index:
            raise ParseError(f"{where}: unknown label {lab!r}")
        return index[lab]

    dual_map = _require(doc, "dual")
    if not isinstance(dual_map, dict) or set(dual_map) != set(labels):
        raise ParseError("dual must map every label to a label")
    dual = np.zeros(n, dtype=int)
    for lab, dlab in dual_map.items():
        if dlab not in index:
            raise ParseError(f"dual: unknown label {dlab!r}")
        dual[index[lab]] = index[dlab]
    if dual[0] != 0 or any(dual[dual[i]] != i for i in range(n)):
        raise ParseError("dual must be an involution fixing the unit")

    N = np.zeros((n, n, n), dtype=int)
    for ent in _require(doc, "fusion"):
        a, b, c = (lab_index(ent, k, "fusion") for k in ("a", "b", "c"))
        mult = ent.get("mult")
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 0:
            raise ParseError(f"fusion: mult must be a non-negative integer, got {mult!r}")
        N[a, b, c] = mult

    data = MtcData(
        labels=tuple(labels), dual=dual, N=N,
        twist=np.ones(n, dtype=complex), tol=float(tol),
        _fmats={}, _rmats={},
    )

    residuals: dict[str, float] = {}
    eye = np.eye(n, dtype=int)
    residuals["fusion-unit"] = float(
        max(np.max(np.abs(N[0] - eye)), np.max(np.abs(N[:, 0, :] - eye)))
    )
    want_dual = np.zeros((n, n), dtype=int)
    for i in range(n):
        want_dual[i, dual[i]] = 1
    residuals["fusion-duality"] = float(np.max(np.abs(N[:, :, 0] - want_dual)))
    assoc = np.einsum("abe,ecd->abcd", N, N) - np.einsum("bcf,afd->abcd", N, N)
    residuals["fusion-associativity"] = float(np.max(np.abs(assoc)))
    if max(residuals.values()) > data.thresholds.coherence:
        worst = max(residuals, key=residuals.get)
        raise AxiomViolation(worst, residuals[worst], residuals)

    unit_gauge_res = 0.0
    f_cells: dict[tuple, dict] = {}
    for ent in _require(doc, "F"):
        a, b, c, d, e, f = (
            lab_index(ent, k, "F") for k in ("a", "b", "c", "d", "e", "f")
        )
        where = f"F[{labels[a]},{labels[b]},{labels[c]};{labels[d]}]"
        mu = _mult_index(ent, "mu", N[a, b, e], where)
        nu = _mult_index(ent, "nu", N[e, c, d], where)
        rho = _mult_index(ent, "rho", N[b, c, f], where)
        sigma = _mult_index(ent, "sigma", N[a, f, d], where)
        val = _as_complex(ent.get("val"), where)
        if 0 in (a, b, c):
            left = data.left_channels(a, b, c, d)
            right = data.right_channels(a, b, c, d)
            want = 1.0 if left.index((e, mu, nu)) == right.index((f, rho, sigma)) else 0.0
            unit_gauge_res = max(unit_gauge_res, abs(val - want))
            continue
        f_cells.setdefault((a, b, c, d), {})[(e, mu, nu, f, rho, sigma)] = val

    fmats = data._fmats
    for a, b, c, d in itertools.product(range(1, n), range(1, n), range(1, n), range(n)):
        left = data.left_channels(a, b, c, d)
        right = data.right_channels(a, b, c, d)
        if not left or not right:
            if (a, b, c, d) in f_cells:
                raise ParseError(
                    f"F[{labels[a]},{labels[b]},{labels[c]};{labels[d]}]: "
                    "entries given for a zero fusion channel"
                )
            continue
        cells = f_cells.pop((a, b, c, d), None)
        mat = np.zeros((len(left), len(right)), dtype=complex)
        for i, (e, mu, nu) in enumerate(left):
            for j, (f, rho, sigma) in enumerate(right):
                if cells is None or (e, mu, nu, f, rho, sigma) not in cells:
                    raise MissingSymbol(
                        f"F[{labels[a]},{labels[b]},{labels[c]};{labels[d]}] entry "
                        f"(e={labels[e]},mu={mu},nu={nu};f={labels[f]},rho={rho},"
                        f"sigma={sigma}) required by a nonzero fusion channel is absent"
                    )
                mat[i, j] = cells[(e, mu, nu, f, rho, sigma)]
        mat.setflags(write=False)
        fmats[(a, b, c, d)] = mat

    r_cells: dict[tuple, dict] = {}
    for ent in _require(doc, "R"):
        a, b, c = (lab_index(ent, k, "R") for k in ("a", "b", "c"))
        where = f"R[{labels[a]},{labels[b]};{labels[c]}]"
        mu = _mult_index(ent, "mu", N[b, a, c], where)
        nu = _mult_index(ent, "nu", N[a, b, c], where)
        val = _as_complex(ent.get("val"), where)
        if a == 0 or b == 0:
            unit_gauge_res = max(unit_gauge_res, abs(val - (1.0 if mu == nu else 0.0)))
            continue
        r_cells.setdefault((a, b, c), {})[(mu, nu)] = val

    rmats = data._rmats
    for a, b, c in itertools.product(range(1, n), range(1, n), range(n)):
        if N[a, b, c] == 0:
            if (a, b, c) in r_cells:
                raise ParseError(
                    f"R[{labels[a]},{labels[b]};{labels[c]}]: "
                    "entries given for a zero fusion channel"
                )
            continue
        cells = r_cells.pop((a, b, c), None)
        mat = np.zeros((N[b, a, c], N[a, b, c]), dtype=complex)
        for mu in range(N[b, a, c]):
            for nu in range(N[a, b, c]):
                if cells is None or (mu, nu) not in cells:
                    raise MissingSymbol(
                        f"R[{labels[a]},{labels[b]};{labels[c]}] entry (mu={mu},nu={nu}) "
                        "required by a nonzero fusion channel is absent"
                    )
                mat[mu, nu] = cells[(mu, nu)]
        mat.setflags(write=False)
        rmats[(a, b, c)] = mat

    twist_map = _require(doc, "twist")
    if not isinstance(twist_map, dict) or set(twist_map) != set(labels):
        raise ParseError("twist must map every label to a complex [re, im] value")
    twist = np.array(
        [_as_complex(twist_map[lab], f"twist[{lab}]") for lab in labels], dtype=complex
    )
    data.twist[:] = twist

    residuals["unit-gauge"] = unit_gauge_res
    residuals["twist-modulus"] = float(np.max(np.abs(np.abs(twist) - 1.0)))
    if residuals["twist-modulus"] > data.thresholds.coherence:
        # a non-unimodular twist is structurally broken; report it directly
        # rather than whichever downstream identity it wrecks hardest
        raise AxiomViolation("twist-modulus", residuals["twist-modulus"], dict(residuals))
    residuals["pentagon"] = _pentagon_residual(data)
    residuals["hexagon"] = _hexagon_residual(data, inverse=False)
    residuals["hexagon-inverse"] = _hexagon_residual(data, inverse=True)
    residuals["ribbon"] = _ribbon_residual(data)

    if max(residuals.values()) > data.thresholds.coherence:
        worst = max(residuals, key=residuals.get)
        raise AxiomViolation(worst, residuals[worst], residuals)

    for arr in (data.dual, data.N, data.twist):
        arr.setflags(write=False)
    return data


# ---------------------------------------------------------------------------
# coherence residuals
# ---------------------------------------------------------------------------

def _move(src: list, dst: list, blocks) -> np.ndarray:
    """Matrix of one move between two bases of labelled tree tuples.

    ``src`` and ``dst`` list the tree tuples of the two bases.  A move is an
    F-move, or a change of basis of vertices (an R-matrix or gauge blocks),
    and holds the other labels fixed, so it is a sum of blocks: ``blocks``
    yields ``(rows, cols, mat)``, where ``mat[i, j]`` is the coefficient of
    the tuple ``cols[j]`` in the image of ``rows[i]``.  For an F-move the
    rows come from ``C.left_channels``, the columns from
    ``C.right_channels`` and ``mat`` is the ``C.fmat`` of the quad.
    """
    at_src = {t: i for i, t in enumerate(src)}
    at_dst = {u: j for j, u in enumerate(dst)}
    i, j, vals = [], [], []
    for rows, cols, mat in blocks:
        js = [at_dst[u] for u in cols]
        for t in rows:
            i += [at_src[t]] * len(js)
            j += js
        vals += mat.ravel().tolist()
    out = np.zeros((len(src), len(dst)), dtype=complex)
    out[i, j] = vals
    return out


def _pentagon_residual(C: MtcData) -> float:
    """Max entry of P1·P2·P3 − Q1·Q2 over the quads of non-unit letters.

    Both products change the basis of Hom(E, a⊗b⊗c⊗d), for every E at
    once, from the left comb ((ab)c)d to the right comb a(b(cd)): P1·P2·P3
    through (a(bc))d and a((bc)d), Q1·Q2 through (ab)(cd).  The tree
    tuples of the five bases, with the vertex each index counts:

    * ((ab)c)d: (f1, m1, m2, g, m3, E) for ab→f1, f1c→g, gd→E;
    * (a(bc))d: (h, r1, r2, g, m3, E) for bc→h, ah→g, gd→E;
    * a((bc)d): (h, r1, k, s1, s2, E) for bc→h, hd→k, ak→E;
    * a(b(cd)): (l, t1, t2, k, s2, E) for cd→l, bl→k, ak→E;
    * (ab)(cd): (f1, m1, l, t1, n2, E) for ab→f1, cd→l, f1l→E.

    With a unit letter the identity compares a matrix with itself,
    because unit F-matrices are identities.
    """
    n, N = C.rank, C.N
    L, R, F = C.left_channels, C.right_channels, C.fmat
    pairs = list(itertools.product(range(n), repeat=2))
    worst = 0.0
    for a, b, c, d in itertools.product(range(1, n), repeat=4):
        p1 = [([(f1, m1, m2, g, m3, E) for f1, m1, m2 in L(a, b, c, g)],
               [(h, r1, r2, g, m3, E) for h, r1, r2 in R(a, b, c, g)], F(a, b, c, g))
              for g, E in pairs for m3 in range(N[g, d, E]) if L(a, b, c, g)]
        p2 = [([(h, r1, r2, g, m3, E) for g, r2, m3 in L(a, h, d, E)],
               [(h, r1, s1, k, s2, E) for k, s1, s2 in R(a, h, d, E)], F(a, h, d, E))
              for h, E in pairs for r1 in range(N[b, c, h]) if L(a, h, d, E)]
        p3 = [([(h, r1, s1, k, s2, E) for h, r1, s1 in L(b, c, d, k)],
               [(l, t1, t2, k, s2, E) for l, t1, t2 in R(b, c, d, k)], F(b, c, d, k))
              for k, E in pairs for s2 in range(N[a, k, E]) if L(b, c, d, k)]
        q1 = [([(f1, m1, m2, g, m3, E) for g, m2, m3 in L(f1, c, d, E)],
               [(f1, m1, l, t1, n2, E) for l, t1, n2 in R(f1, c, d, E)], F(f1, c, d, E))
              for f1, E in pairs for m1 in range(N[a, b, f1]) if L(f1, c, d, E)]
        q2 = [([(f1, m1, l, t1, n2, E) for f1, m1, n2 in L(a, b, l, E)],
               [(l, t1, t2, k, s2, E) for k, t2, s2 in R(a, b, l, E)], F(a, b, l, E))
              for l, E in pairs for t1 in range(N[c, d, l]) if L(a, b, l, E)]
        b0, b1, b2, b3, b4 = ([t for blk in blocks for t in blk[side]] for blocks, side
                              in ((p1, 0), (p1, 1), (p2, 1), (p3, 1), (q1, 1)))
        if not b0:
            continue
        lhs = _move(b0, b1, p1) @ _move(b1, b2, p2) @ _move(b2, b3, p3)
        rhs = _move(b0, b4, q1) @ _move(b4, b3, q2)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _hexagon_residual(C: MtcData, inverse: bool) -> float:
    """Max entry of Ra·F^{bca}_d − (F^{abc}_d)⁻¹·Rb·F^{bac}_d·Rc over the
    quads with non-unit letters a, b, c, per chirality.

    Rows are the right channels of F^{abc}_d, columns those of F^{bca}_d;
    Ra, Rb and Rc braid the letter a past f, b and c.  With ``inverse``
    every R^{xy}_z is replaced by (R^{yx}_z)⁻¹.  With a unit letter both
    sides are the same identity.
    """
    n, N = C.rank, C.N
    L, R = C.left_channels, C.right_channels

    def braid(x, y, z):
        # rows: vertices of Hom(z, x⊗y), columns: those of Hom(z, y⊗x)
        return (C.rinv(y, x, z) if inverse else C.rmat(x, y, z)).T

    worst = 0.0
    for a, b, c, d in itertools.product(range(1, n), range(1, n), range(1, n), range(n)):
        src = R(a, b, c, d)
        if not src:
            continue
        # channel tuples: m counts the braided vertex, v the fixed one
        ra = _move(src, L(b, c, a, d), (
            ([(f, v, m) for m in range(N[a, f, d])],
             [(f, v, m) for m in range(N[f, a, d])], braid(a, f, d))
            for f in range(n) if N[a, f, d] for v in range(N[b, c, f])))
        rb = _move(L(a, b, c, d), L(b, a, c, d), (
            ([(e, m, v) for m in range(N[a, b, e])],
             [(e, m, v) for m in range(N[b, a, e])], braid(a, b, e))
            for e in range(n) if N[a, b, e] for v in range(N[e, c, d])))
        rc = _move(R(b, a, c, d), R(b, c, a, d), (
            ([(g, m, v) for m in range(N[a, c, g])],
             [(g, m, v) for m in range(N[c, a, g])], braid(a, c, g))
            for g in range(n) if N[a, c, g] for v in range(N[b, g, d])))
        lhs = ra @ C.fmat(b, c, a, d)
        rhs = C.finv(a, b, c, d) @ rb @ C.fmat(b, a, c, d) @ rc
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _ribbon_residual(C: MtcData) -> float:
    """Twist consistency: R^{ba}_c R^{ab}_c = theta_c/(theta_a theta_b)."""
    worst = abs(C.twist[0] - 1.0)
    for i in range(C.rank):
        worst = max(worst, abs(C.twist[C.dual[i]] - C.twist[i]))
    for a, b, c in itertools.product(range(C.rank), repeat=3):
        m = C.N[a, b, c]
        if m == 0:
            continue
        prod = C.rmat(b, a, c) @ C.rmat(a, b, c)
        target = (C.twist[c] / (C.twist[a] * C.twist[b])) * np.eye(m)
        worst = max(worst, float(np.max(np.abs(prod - target))))
    return worst


# ---------------------------------------------------------------------------
# serialization and gauge moves
# ---------------------------------------------------------------------------

def to_document(C: MtcData) -> dict:
    """Serialize back to the JSON document shape accepted by load_mtc."""
    labels = C.labels
    fusion = [
        {"a": labels[a], "b": labels[b], "c": labels[c], "mult": int(C.N[a, b, c])}
        for a, b, c in itertools.product(range(C.rank), repeat=3)
        if C.N[a, b, c] > 0
    ]
    f_entries = []
    for (a, b, c, d), mat in sorted(C._fmats.items()):
        left = C.left_channels(a, b, c, d)
        right = C.right_channels(a, b, c, d)
        for i, (e, mu, nu) in enumerate(left):
            for j, (f, rho, sigma) in enumerate(right):
                f_entries.append({
                    "a": labels[a], "b": labels[b], "c": labels[c], "d": labels[d],
                    "e": labels[e], "f": labels[f],
                    "mu": mu, "nu": nu, "rho": rho, "sigma": sigma,
                    "val": [mat[i, j].real, mat[i, j].imag],
                })
    r_entries = []
    for (a, b, c), mat in sorted(C._rmats.items()):
        for mu in range(mat.shape[0]):
            for nu in range(mat.shape[1]):
                r_entries.append({
                    "a": labels[a], "b": labels[b], "c": labels[c],
                    "mu": mu, "nu": nu,
                    "val": [mat[mu, nu].real, mat[mu, nu].imag],
                })
    return {
        "labels": list(labels),
        "unit": labels[0],
        "dual": {labels[i]: labels[C.dual[i]] for i in range(C.rank)},
        "fusion": fusion,
        "F": f_entries,
        "R": r_entries,
        "twist": {labels[i]: [C.twist[i].real, C.twist[i].imag] for i in range(C.rank)},
    }


def gauge_transform(C: MtcData, g: dict) -> MtcData:
    """Change the basis of every splitting space Hom(e, a ⊗ b).

    ``g`` maps (a, b, e) label triples to invertible matrices of size
    N[a,b,e]; absent triples (and all unit triples) keep the identity.
    Each F^{abc}_d becomes Lᵀ·F·R⁻ᵀ, where L and R act on its left and
    right channels by the gauge blocks of their two vertices, so entry by
    entry it is the sum over μ′, ν′, ρ′, σ′ of
    g_ab_e[μ′,μ]·g_ec_d[ν′,ν]·F[(e,μ′,ν′),(f,ρ′,σ′)]·g_bc_f⁻¹[ρ,ρ′]·g_af_d⁻¹[σ,σ′];
    each R^{ab}_c becomes g(b,a;c)⁻¹·R·g(a,b;c).
    The result is re-validated, so a non-invertible input surfaces as an
    AxiomViolation rather than silent nonsense.
    """

    def gm(a, b, e):
        mat = None if 0 in (a, b) else g.get((a, b, e))
        return np.eye(C.N[a, b, e], dtype=complex) if mat is None else np.asarray(mat, dtype=complex)

    def channel_gauge(chans, first, second):
        # the channels (x, m1, m2) of one label x take kron(g(first(x)), g(second(x)))
        by_label = [list(grp) for _, grp in itertools.groupby(chans, key=lambda ch: ch[0])]
        return _move(chans, chans, (
            (rows, rows, np.kron(gm(*first(rows[0][0])), gm(*second(rows[0][0]))))
            for rows in by_label))

    fmats = {}
    for (a, b, c, d), old in C._fmats.items():
        lg = channel_gauge(C.left_channels(a, b, c, d), lambda e: (a, b, e), lambda e: (e, c, d))
        rg = channel_gauge(C.right_channels(a, b, c, d), lambda f: (b, c, f), lambda f: (a, f, d))
        fmats[(a, b, c, d)] = lg.T @ old @ np.linalg.inv(rg).T
    rmats = {(a, b, c): np.linalg.inv(gm(b, a, c)) @ old @ gm(a, b, c)
             for (a, b, c), old in C._rmats.items()}
    moved = MtcData(labels=C.labels, dual=C.dual, N=C.N, twist=C.twist, tol=C.tol,
                    _fmats=fmats, _rmats=rmats)
    return load_mtc(to_document(moved), tol=C.tol)


def random_gauge(C: MtcData, rng: np.random.Generator, spread: float = 0.4) -> MtcData:
    """Apply a random, well-conditioned basis change to every splitting space."""
    g = {}
    for a, b, e in itertools.product(range(1, C.rank), range(1, C.rank), range(C.rank)):
        m = C.N[a, b, e]
        if m == 0:
            continue
        while True:
            mat = np.eye(m) + spread * (
                rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            )
            if np.linalg.cond(mat) < 20.0:
                break
        g[(a, b, e)] = mat
    return gauge_transform(C, g)


# ---------------------------------------------------------------------------
# S-matrix
# ---------------------------------------------------------------------------

def s_matrix(C: MtcData) -> SMatrix:
    """The unnormalized S-matrix, via the diagram-engine double-braiding
    trace; computed once per category and kept, read-only, in its cache."""
    from . import engine

    out = C._cache.get(("smatrix",))
    if out is not None:
        return out
    n = C.rank
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            wi, wj = ((i,),), ((j,),)
            monodromy = engine.braid(C, wi, wj) @ engine.braid(C, wj, wi)
            s[j, i] = engine.trace(C, monodromy)
    s.setflags(write=False)
    out = C._cache[("smatrix",)] = SMatrix(entries=s)
    return out


def verify_modular(C: MtcData) -> dict:
    """Diagnostic report: s symmetry, dims on row 0, and invertibility."""
    from . import engine

    s = s_matrix(C).entries
    dims = np.array([engine.dim(C, i) for i in range(C.rank)])
    sym = float(np.max(np.abs(s - s.T)))
    dim_res = [float(abs(s[0, i] - dims[i])) for i in range(C.rank)]
    sigma_min = float(np.linalg.svd(s, compute_uv=False)[-1])
    return {
        "symmetry_residual": sym,
        "dim_residuals": dim_res,
        "max_dim_residual": max(dim_res),
        "sigma_min": sigma_min,
        "modular": bool(sigma_min > C.thresholds.coherence),
    }
