"""Skeletal category data: loading, validation, S-matrix, gauge moves.

A category is described by a plain JSON-able document (see ``docs/formats.md``)
holding fusion multiplicities and F/R/twist symbol tables.  :func:`load_mtc`
parses one of these, checks the coherence axioms (pentagon, hexagons, ribbon)
to a tolerance, and returns an immutable :class:`MtcData`.  The pentagon
and hexagon residuals are the largest |lhs − rhs| over their equations;
both sides are computed as numpy joins of arrays of fusion trees with one
table of F entries (and of R entries), never quad by quad.

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

import functools
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

def _split(counts: np.ndarray):
    """``(owner, offset)`` of the entries that ``counts`` hands out in turn:
    row ``i`` owns ``counts[i]`` consecutive entries, offsets 0, 1, ..."""
    owner = np.repeat(np.arange(counts.size), counts)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(counts) - counts, counts)


def _inverses(mats: list, identity: str) -> list:
    """``np.linalg.inv`` of each matrix, one batched call per shape; a
    singular one raises AxiomViolation(``identity``)."""
    out = [None] * len(mats)
    by_shape: dict = {}
    for i, mat in enumerate(mats):
        by_shape.setdefault(mat.shape, []).append(i)
    for idx in by_shape.values():
        try:
            inv = np.linalg.inv(np.stack([mats[i] for i in idx]))
        except np.linalg.LinAlgError:
            raise AxiomViolation(identity, float("inf"), {identity: float("inf")}) from None
        for i, mat in zip(idx, inv):
            out[i] = mat
    return out


def _blocks(nin, nout, stored, mats) -> tuple:
    """Entries of a family of block matrices of shapes ``(nin, nout)``,
    block by block and row-major: arrays ``(block, row, col, val)``.  The
    blocks flagged in ``stored`` are ``mats`` in order; the others are
    identities."""
    blk, off = _split(nin * nout)
    row, col = off // nout[blk], off % nout[blk]
    val = (row == col).astype(complex)
    val[stored[blk]] = np.concatenate([mat.ravel() for mat in mats] or [[]])
    return blk, row, col, val


def _channel_code(n: int, m: int, a, b, c, d, x, i, j):
    """Integer code of the channel (x, i, j) of the quad (a, b, c, d), for
    labels below ``n`` and vertex indices below ``m``; it increases along
    ``left_channels`` and ``right_channels``, quad by quad."""
    return (((((a * n + b) * n + c) * n + d) * n + x) * m + i) * m + j


def _vertex_code(n: int, m: int, x, y, z, i):
    """Integer code of the vertex i of Hom(z, x⊗y), as :func:`_channel_code`."""
    return ((x * n + y) * n + z) * m + i


def _quad_channels(N: np.ndarray, left: bool) -> tuple:
    """Every channel of every quad as arrays (a, b, c, d, x, i, j), ordered
    as by ``left_channels`` (x, i, j = e, μ, ν) or ``right_channels``
    (f, ρ, σ), quad by quad."""
    n = len(N)
    if left:   # ab→e (μ), ec→d (ν), indexed [a, b, c, d, e]
        n1, n2 = N[:, :, None, None, :], N.transpose(1, 2, 0)[None, None]
    else:      # bc→f (ρ), af→d (σ), indexed [a, b, c, d, f]
        n1, n2 = N[None, :, :, None, :], N.transpose(0, 2, 1)[:, None, None]
    n1, n2 = (arr.ravel() for arr in np.broadcast_arrays(n1, n2))
    owner, off = _split(n1 * n2)
    return (*np.unravel_index(owner, (n,) * 5), off // n2[owner], off % n2[owner])


def _f_table(C: MtcData, inverse: bool) -> tuple:
    """Every F-move, or every inverse one, as a join table
    ``(key, out, val)``: row t maps the channel coded ``key[t]`` (a left
    channel, or a right one with ``inverse``) to the channel ``out[:, t]``
    (its x, i, j) of the other basis of the same quad with coefficient
    ``val[t]``; ``key`` is sorted.  Unit quads contribute identities."""
    n, N = C.rank, C.N
    m = max(int(N.max()), 1)
    chans = _quad_channels(N, left=True), _quad_channels(N, left=False)
    src, dst = chans[::-1] if inverse else chans
    nin, nout = (np.bincount(np.ravel_multi_index(ch[:4], (n,) * 4), minlength=n ** 4)
                 for ch in (src, dst))
    a, b, c, _ = np.unravel_index(np.arange(n ** 4), (n,) * 4)
    mats = [C._fmats[q] for q in sorted(C._fmats)]
    if inverse:
        mats = _inverses(mats, "f-invertibility")
    quad, row, col, val = _blocks(nin, nout, (a > 0) & (b > 0) & (c > 0), mats)
    row += (np.cumsum(nin) - nin)[quad]
    col += (np.cumsum(nout) - nout)[quad]
    return _channel_code(n, m, *src)[row], np.stack(dst[4:])[:, col], val


def _r_table(C: MtcData, inverse: bool) -> tuple:
    """Every braided vertex as a join table ``(key, out, val)``, as
    :func:`_f_table`: row t maps the vertex i of Hom(z, x⊗y) to the vertex
    o = ``out[0, t]`` of Hom(z, y⊗x) with coefficient R^{xy}_z[o, i], or
    (R^{yx}_z)⁻¹[o, i] with ``inverse``.  Unit letters contribute
    identities."""
    n, N = C.rank, C.N
    m = max(int(N.max()), 1)
    x, y, z = np.nonzero(N)
    keys = sorted(C._rmats)
    if inverse:
        mats = _inverses([C._rmats[(b, a, c)] for a, b, c in keys], "r-invertibility")
    else:
        mats = [C._rmats[k] for k in keys]
    trip, row, col, val = _blocks(N[x, y, z], N[y, x, z], (x > 0) & (y > 0),
                                  [mat.T for mat in mats])
    return _vertex_code(n, m, x[trip], y[trip], z[trip], row), col[None], val


def _join(state: dict, table: tuple, key, consumed: str, produced: str) -> dict:
    """Apply one move to a sum of channel tuples: each row of ``state`` (a
    dict of equal-length arrays, ``coef`` among them) meets every row of
    ``table`` with its ``key``, multiplies its ``coef`` by the table's value
    and trades the fields named in ``consumed`` for those in ``produced``."""
    tkey, out, val = table
    lo = np.searchsorted(tkey, key, "left")
    owner, off = _split(np.searchsorted(tkey, key, "right") - lo)
    hit = lo[owner] + off
    drop = consumed.split()
    new = {k: v[owner] for k, v in state.items() if k not in drop}
    new["coef"] = new["coef"] * val[hit]
    new.update(zip(produced.split(), out[:, hit]))
    return new


def _worst_difference(tag, lhs, rhs) -> float:
    """Largest |lhs − rhs| over the equations: ``tag`` maps a state to the
    integer of its equation; terms of one equation are summed after one
    stable sort."""
    keys = np.concatenate([tag(lhs), tag(rhs)])
    if not keys.size:
        return 0.0
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = np.concatenate([lhs["coef"], -rhs["coef"]])[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    return float(np.max(np.abs(np.add.reduceat(vals, starts))))


def _pentagon_residual(C: MtcData) -> float:
    """Largest |lhs − rhs| of the pentagon equations of non-unit letters.

    Both sides change the basis of Hom(E, a⊗b⊗c⊗d), for every E at once,
    from the left comb ((ab)c)d to the right comb a(b(cd)): P1·P2·P3
    through (a(bc))d and a((bc)d), Q1·Q2 through (ab)(cd).  The trees of
    the five bases, with the vertex each index counts:

    * ((ab)c)d: (f1, m1, m2, g, m3, E) for ab→f1, f1c→g, gd→E;
    * (a(bc))d: (h, r1, r2, g, m3, E) for bc→h, ah→g, gd→E;
    * a((bc)d): (h, r1, k, s1, s2, E) for bc→h, hd→k, ak→E;
    * a(b(cd)): (l, t1, t2, k, s2, E) for cd→l, bl→k, ak→E;
    * (ab)(cd): (f1, m1, l, t1, n2, E) for ab→f1, cd→l, f1l→E.

    Each side is a sum over trees, kept as arrays: it starts from every
    ((ab)c)d tree of the letters, and each F-move is a join of those
    arrays with one table of F entries (:func:`_f_table`).  The terms are
    then summed per pair of a source tree and an a(b(cd)) tree.  One pass
    runs per pair of first letters a, b, which bounds the size of the
    arrays.  With a unit letter the identity compares a sum with itself,
    because unit F-matrices are identities.
    """
    n, N = C.rank, C.N
    m = max(int(N.max()), 1)
    table = _f_table(C, inverse=False)
    left = _quad_channels(N, left=True)
    x, y, z = np.nonzero(N[:, 1:])     # the vertices gd→E of non-unit d, sorted by g
    own, m3 = _split(N[x, y + 1, z])
    vertices = x[own], np.stack([y[own] + 1, z[own], m3]), np.ones(own.size)
    key = functools.partial(_channel_code, n, m)

    def tag(s):  # equation: the source tree and the a(b(cd)) tree it reaches
        return (((((s["tree"] * n + s["l"]) * m + s["t1"]) * m + s["t2"]) * n + s["k"])
                * m + s["s2"])

    worst = 0.0
    for a, b in itertools.product(range(1, n), repeat=2):
        rows = np.flatnonzero((left[0] == a) & (left[1] == b) & (left[2] > 0))
        tops = dict(zip("c g f1 m1 m2".split(), (ch[rows] for ch in left[2:])))
        tops["coef"] = np.ones(rows.size, dtype=complex)
        start = _join(tops, vertices, tops["g"], "", "d E m3")
        start["tree"] = np.arange(start["coef"].size)
        s = start
        s = _join(s, table, key(a, b, s["c"], s["g"], s["f1"], s["m1"], s["m2"]),
                  "f1 m1 m2", "h r1 r2")
        s = _join(s, table, key(a, s["h"], s["d"], s["E"], s["g"], s["r2"], s["m3"]),
                  "g r2 m3", "k s1 s2")
        lhs = _join(s, table, key(b, s["c"], s["d"], s["k"], s["h"], s["r1"], s["s1"]),
                    "h r1 s1", "l t1 t2")
        s = start
        s = _join(s, table, key(s["f1"], s["c"], s["d"], s["E"], s["g"], s["m2"], s["m3"]),
                  "g m2 m3", "l t1 n2")
        rhs = _join(s, table, key(a, b, s["l"], s["E"], s["f1"], s["m1"], s["n2"]),
                    "f1 m1 n2", "k t2 s2")
        worst = max(worst, _worst_difference(tag, lhs, rhs))
    return worst


def _hexagon_residual(C: MtcData, inverse: bool) -> float:
    """Largest |lhs − rhs| of Ra·F^{bca}_d = (F^{abc}_d)⁻¹·Rb·F^{bac}_d·Rc
    over the quads with non-unit letters a, b, c, per chirality.

    Each side maps the right channels (f, ρ, σ) of F^{abc}_d to the right
    channels (g, τ, κ) of F^{bca}_d; Ra, Rb and Rc braid the letter a past
    f, b and c.  With ``inverse`` every R^{xy}_z is replaced by
    (R^{yx}_z)⁻¹.  As in :func:`_pentagon_residual`, each side is a sum
    over channels kept as arrays, and each move is a join with a table of
    F, F⁻¹ or R entries.  With a unit letter both sides are the same
    identity.
    """
    n, N = C.rank, C.N
    m = max(int(N.max()), 1)
    f_tab, finv_tab = _f_table(C, inverse=False), _f_table(C, inverse=True)
    r_tab = _r_table(C, inverse)
    a, b, c, d, f, rho, sigma = _quad_channels(N, left=False)
    rows = np.flatnonzero((a > 0) & (b > 0) & (c > 0))
    start = {"a": a[rows], "b": b[rows], "c": c[rows], "d": d[rows], "f": f[rows],
             "rho": rho[rows], "sigma": sigma[rows], "tree": np.arange(rows.size),
             "coef": np.ones(rows.size, dtype=complex)}
    key = functools.partial(_channel_code, n, m)
    vertex = functools.partial(_vertex_code, n, m)

    def tag(s):  # equation: the source channel and the channel (g, τ, κ) it reaches
        return ((s["tree"] * n + s["g"]) * m + s["tau"]) * m + s["kappa"]

    s = start
    s = _join(s, r_tab, vertex(s["a"], s["f"], s["d"], s["sigma"]), "sigma", "sigma")
    lhs = _join(s, f_tab, key(s["b"], s["c"], s["a"], s["d"], s["f"], s["rho"], s["sigma"]),
                "f rho sigma", "g tau kappa")
    s = start
    s = _join(s, finv_tab, key(s["a"], s["b"], s["c"], s["d"], s["f"], s["rho"], s["sigma"]),
              "f rho sigma", "e mu nu")
    s = _join(s, r_tab, vertex(s["a"], s["b"], s["e"], s["mu"]), "mu", "mu")
    s = _join(s, f_tab, key(s["b"], s["a"], s["c"], s["d"], s["e"], s["mu"], s["nu"]),
              "e mu nu", "g tau kappa")
    rhs = _join(s, r_tab, vertex(s["a"], s["c"], s["g"], s["tau"]), "tau", "tau")
    return _worst_difference(tag, lhs, rhs)


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
        # block diagonal: the consecutive channels (x, m1, m2) of one label x
        # take kron(g(first(x)), g(second(x)))
        out = np.zeros((len(chans), len(chans)), dtype=complex)
        i = 0
        for x, _ in itertools.groupby(chans, key=lambda ch: ch[0]):
            blk = np.kron(gm(*first(x)), gm(*second(x)))
            out[i:i + len(blk), i:i + len(blk)] = blk
            i += len(blk)
        return out

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
