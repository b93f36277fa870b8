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
    (label-major, multiplicity-minor).  Unit-gauge F/R matrices are not
    stored; the accessors synthesize identities for them on demand.
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
            nl = len(self.left_channels(a, b, c, d))
            if 0 in (a, b, c):
                mat = np.eye(nl, dtype=complex)
            else:
                # validated data: absent quad means the hom space is zero
                mat = np.zeros((nl, len(self.right_channels(a, b, c, d))), dtype=complex)
            mat.setflags(write=False)
            self._fmats[(a, b, c, d)] = mat
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
            mat = np.eye(self.N[a, b, c], dtype=complex)
            mat.setflags(write=False)
            self._rmats[(a, b, c)] = mat
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
        or not all(isinstance(x, (int, float)) for x in val)
    ):
        raise ParseError(f"{where}: complex values must be [re, im] pairs, got {val!r}")
    return complex(val[0], val[1])


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"document is missing the {key!r} section")
    return doc[key]


def _mult_index(ent: dict, key: str, bound: int, where: str) -> int:
    v = ent.get(key, 0)
    if not isinstance(v, int) or v < 0:
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
        if not isinstance(mult, int) or mult < 0:
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

def _pentagon_residual(C: MtcData) -> float:
    """Max residual of the two recoupling routes on four-letter words.

    For the left comb of (a,b,c,d) with total E, moving the bracket via
    (abc)-then-(a,*,d) recouplings must agree with the (f c d)-then-(a b *)
    route, summed over the intermediate channel h resp. the multiplicity
    on (f, l) -> E.
    """
    n = C.rank
    worst = 0.0
    for a, b, c, d in itertools.product(range(n), repeat=4):
        for f1, g in itertools.product(range(n), repeat=2):
            if C.N[a, b, f1] == 0 or C.N[f1, c, g] == 0:
                continue
            for E in range(n):
                if C.N[g, d, E] == 0:
                    continue
                for l, k in itertools.product(range(n), repeat=2):
                    if C.N[c, d, l] == 0 or C.N[b, l, k] == 0 or C.N[a, k, E] == 0:
                        continue
                    mults = itertools.product(
                        range(C.N[a, b, f1]), range(C.N[f1, c, g]), range(C.N[g, d, E]),
                        range(C.N[c, d, l]), range(C.N[b, l, k]), range(C.N[a, k, E]),
                    )
                    for mu1, mu2, mu3, tau1, tau2, sig2 in mults:
                        lhs = 0j
                        for h in range(n):
                            for r1 in range(C.N[b, c, h]):
                                for r2 in range(C.N[a, h, g]):
                                    fa = C.f(a, b, c, g, f1, h, mu1, mu2, r1, r2)
                                    if fa == 0:
                                        continue
                                    for s1 in range(C.N[h, d, k]):
                                        lhs += (
                                            fa
                                            * C.f(a, h, d, E, g, k, r2, mu3, s1, sig2)
                                            * C.f(b, c, d, k, h, l, r1, s1, tau1, tau2)
                                        )
                        rhs = 0j
                        for n2 in range(C.N[f1, l, E]):
                            rhs += (
                                C.f(f1, c, d, E, g, l, mu2, mu3, tau1, n2)
                                * C.f(a, b, l, E, f1, k, mu1, n2, tau2, sig2)
                            )
                        worst = max(worst, abs(lhs - rhs))
    return worst


def _hexagon_residual(C: MtcData, inverse: bool) -> float:
    """Max residual of the braid-through-F hexagon, per chirality."""
    n = C.rank

    def rmat_of(x, y, z):
        return C.rinv(y, x, z) if inverse else C.rmat(x, y, z)

    worst = 0.0
    for a, b, c, d in itertools.product(range(n), repeat=4):
        lb = C.left_channels(a, b, c, d)
        rb = C.right_channels(a, b, c, d)
        if not lb or not rb:
            continue
        finv = C.finv(a, b, c, d)
        for f1 in range(n):
            if C.N[b, c, f1] == 0 or C.N[a, f1, d] == 0:
                continue
            r_af = rmat_of(a, f1, d)
            for g in range(n):
                if C.N[c, a, g] == 0 or C.N[b, g, d] == 0:
                    continue
                r_ac = rmat_of(a, c, g)
                pairs = itertools.product(
                    range(C.N[b, c, f1]), range(C.N[a, f1, d]),
                    range(C.N[c, a, g]), range(C.N[b, g, d]),
                )
                for rho, sig, tp, kap in pairs:
                    lhs = 0j
                    for sp in range(C.N[f1, a, d]):
                        lhs += r_af[sp, sig] * C.f(b, c, a, d, f1, g, rho, sp, tp, kap)
                    rhs = 0j
                    j_right = rb.index((f1, rho, sig))
                    for i_left, (e, mu, nu) in enumerate(lb):
                        coeff = finv[j_right, i_left]
                        if coeff == 0:
                            continue
                        r_ab = rmat_of(a, b, e)
                        for mup in range(C.N[b, a, e]):
                            for tau in range(C.N[a, c, g]):
                                rhs += (
                                    coeff
                                    * r_ab[mup, mu]
                                    * C.f(b, a, c, d, e, g, mup, nu, tau, kap)
                                    * r_ac[tp, tau]
                                )
                    worst = max(worst, abs(lhs - rhs))
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
        if 0 in (a, b, c):
            continue
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
        if a == 0 or b == 0:
            continue
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
    The result is re-validated, so a non-invertible input surfaces as an
    AxiomViolation rather than silent nonsense.
    """

    def gm(a, b, e):
        if 0 in (a, b):
            return np.eye(C.N[a, b, e], dtype=complex)
        mat = g.get((a, b, e))
        return np.eye(C.N[a, b, e], dtype=complex) if mat is None else np.asarray(mat, dtype=complex)

    n = C.rank
    doc = to_document(C)
    f_entries = []
    for a, b, c, d in itertools.product(range(1, n), range(1, n), range(1, n), range(n)):
        left = C.left_channels(a, b, c, d)
        right = C.right_channels(a, b, c, d)
        if not left or not right:
            continue
        old = C.fmat(a, b, c, d)
        new = np.zeros_like(old)
        for i, (e, mu, nu) in enumerate(left):
            g_ab_e = gm(a, b, e)
            g_ec_d = gm(e, c, d)
            for j, (f, rho, sigma) in enumerate(right):
                ginv_bc_f = np.linalg.inv(gm(b, c, f))
                ginv_af_d = np.linalg.inv(gm(a, f, d))
                acc = 0j
                for ip, (ep, mup, nup) in enumerate(left):
                    if ep != e:
                        continue
                    for jp, (fp, rhop, sigmap) in enumerate(right):
                        if fp != f:
                            continue
                        acc += (
                            g_ab_e[mup, mu] * g_ec_d[nup, nu]
                            * old[ip, jp]
                            * ginv_bc_f[rho, rhop] * ginv_af_d[sigma, sigmap]
                        )
                new[i, j] = acc
        for i, (e, mu, nu) in enumerate(left):
            for j, (f, rho, sigma) in enumerate(right):
                f_entries.append({
                    "a": C.labels[a], "b": C.labels[b], "c": C.labels[c], "d": C.labels[d],
                    "e": C.labels[e], "f": C.labels[f],
                    "mu": mu, "nu": nu, "rho": rho, "sigma": sigma,
                    "val": [new[i, j].real, new[i, j].imag],
                })
    r_entries = []
    for a, b, c in itertools.product(range(1, n), range(1, n), range(n)):
        if C.N[a, b, c] == 0:
            continue
        new = np.linalg.inv(gm(b, a, c)) @ C.rmat(a, b, c) @ gm(a, b, c)
        for mu in range(new.shape[0]):
            for nu in range(new.shape[1]):
                r_entries.append({
                    "a": C.labels[a], "b": C.labels[b], "c": C.labels[c],
                    "mu": mu, "nu": nu,
                    "val": [new[mu, nu].real, new[mu, nu].imag],
                })
    doc["F"] = f_entries
    doc["R"] = r_entries
    return load_mtc(doc, tol=C.tol)


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
