"""Skeletal category data: loading, validation, S-matrix.

A category is described by a plain JSON-able document (see ``docs/formats.md``)
holding fusion multiplicities and F/R/twist symbol tables.  :func:`load_mtc`
parses one of these, checks the coherence axioms (pentagon, hexagons, ribbon)
to a tolerance, and returns an immutable :class:`MtcData`.  Its symbols are
held once, in four flat tables (F, F⁻¹, R, R⁻¹) that the load fills and
nothing changes or extends afterwards.  The pentagon and hexagon residuals
are the largest |lhs − rhs| over their equations; both sides are computed
as numpy joins of arrays of fusion trees with those tables, never quad by
quad.

Conventions baked into the symbol tables:

* labels are indexed in document order and the unit label is listed first;
* ``[F^{abc}_d]_{(e,mu,nu),(f,rho,sigma)}`` rewrites the left-comb splitting
  tree through the channel ``e`` (with vertex multiplicities ``mu, nu``) in
  terms of the right-comb tree through ``f``;
* ``[R^{ab}_c]_{mu,nu}`` expands the braided splitting vertex
  ``c_{a,b} ∘ Y^nu`` in the vertices ``Y^mu`` of ``Hom(c, b ⊗ a)``;
* any F whose first three labels include the unit, and any R with a unit
  letter, is the identity matrix in the canonical channel bases (fixed unit
  gauge); the document may omit it.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import AxiomViolation, InvalidTolerance, MissingSymbol, ParseError

DEFAULT_TOL = 1e-9

#: largest accepted tolerance: it keeps ``residual`` (10³·tol, here 0.1)
#: below ½, so an idempotent's eigenvalue bands at 0 and 1 stay disjoint,
#: and keeps axiom violations of order 0.1 failing
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
        self.identity = max(tol * 1e3, 1e-9)  # algebra-check, m∘Δ = id, ε∘η = dim A, D_map
        self.residual = max(tol * 1e3, 1e-6)  # report gates, idempotent eigenvalues
        self.null_rtol = max(tol, 1e-12)      # Hom solve: σ ≤ max(null_atol, null_rtol·σ_max) is 0
        self.null_atol = 1e-10
        self.d_rtol = max(tol * 1e2, 1e-10)   # d singular: σ_min ≤ d_rtol·σ_max
        # fixed, the same at every tol
        self.hom_gap = 10.0         # kept/dropped σ ratio below it: Hom dimension ambiguous
        self.unit_map = 1e-9        # verify-o: ‖D_A − id‖ below it
        self.sigma_min = 1e-6       # verify-o: σ_min(d) above it
        self.cluster = 1e-6         # eigenvalues closer than it form one cluster


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

class _Channels(NamedTuple):
    """One basis of the channels of every quad (a, b, c, d), the quad
    numbered q = ((a·n + b)·n + c)·n + d: the left channels (x, i, j) =
    (e, μ, ν) of :meth:`MtcData.left_channels`, for ab→x (i) and xc→d (j),
    or the right ones (f, ρ, σ), for bc→x (i) and ax→d (j)."""

    count: np.ndarray   # [q]: number of channels of quad q
    start: np.ndarray   # [q, x]: index in quad q of its first channel through x
    inner: np.ndarray   # [q, x]: multiplicity of the vertex j of those channels
    first: np.ndarray   # [q]: column of quad q's first channel in ``chans``
    chans: np.ndarray   # [7, t]: (a, b, c, d, x, i, j) of every channel, quad by quad

    def index(self, q, x, i, j):
        """Index of the channel (x, i, j) among the channels of quad q."""
        return self.start[q, x] + i * self.inner[q, x] + j

    def rows(self, q) -> np.ndarray:
        """The channels (x, i, j) of quad q, as a (count, 3) view of ``chans``."""
        return self.chans[4:, self.first[q]:self.first[q] + self.count[q]].T


def _channels(N: np.ndarray, left: bool) -> _Channels:
    """The left (or right) channels of every quad of the fusion rules N."""
    n = len(N)
    if left:   # [a, b, c, d, x]: N[a, b, x], N[x, c, d]
        n1, n2 = N[:, :, None, None, :], N.transpose(1, 2, 0)[None, None]
    else:      # [a, b, c, d, x]: N[b, c, x], N[a, x, d]
        n1, n2 = N[None, :, :, None, :], N.transpose(0, 2, 1)[:, None, None]
    n1, n2 = (arr.reshape(n ** 4, n) for arr in np.broadcast_arrays(n1, n2))
    per = n1 * n2
    count = per.sum(axis=1)
    owner, off = _split(per.ravel())
    inner = n2.ravel()[owner]
    chans = np.stack([*np.unravel_index(owner, (n,) * 5), off // inner, off % inner])
    chans.setflags(write=False)
    return _Channels(count, np.cumsum(per, axis=1) - per, n2, np.cumsum(count) - count, chans)


def _quad(n: int, a, b, c, d):
    return ((a * n + b) * n + c) * n + d


def _f_channels(C: MtcData, q, row, col) -> np.ndarray:
    """(a, b, c, d, e, μ, ν, f, ρ, σ) of the entry (row, col) of the F block
    of quad q: its quad, left channel and right channel."""
    left, right = C._left, C._right
    return np.concatenate([left.chans[:, left.first[q] + row],
                           right.chans[4:, right.first[q] + col]])


def _block(table: np.ndarray, first, rows, cols) -> np.ndarray:
    """The rows × cols block of ``table`` from entry ``first``, as a view."""
    return table[first:first + rows * cols].reshape(rows, cols)


@dataclass(frozen=True, eq=False)
class MtcData:
    """Validated category symbol tables, immutable after :func:`load_mtc`.

    The symbols are held once, in four flat complex tables ``_F``,
    ``_Finv``, ``_R`` and ``_Rinv``.  Each holds every entry of every quad
    (a, b, c, d), or triple (a, b, c), in canonical order: quad-major, then
    row, then column, in the channel bases enumerated by
    :meth:`left_channels` / :meth:`right_channels` (label-major,
    multiplicity-minor), with block offsets from N.  Unit blocks are
    identities and empty ones are empty.  The tables are allocated from N
    on construction and filled once by :func:`load_mtc`.  The accessors
    return read-only views of them, and the channel accessors read-only
    (count, 3) int array views of the channel bases, so nothing is made or
    cached later.
    """

    labels: tuple[str, ...]
    dual: np.ndarray
    N: np.ndarray
    twist: np.ndarray
    tol: float
    _cache: dict = field(default_factory=lambda: defaultdict(dict), repr=False)
    thresholds: Thresholds = field(init=False, repr=False)
    _left: _Channels = field(init=False, repr=False)
    _right: _Channels = field(init=False, repr=False)
    _fpos: np.ndarray = field(init=False, repr=False)   # [q]: first entry of quad q
    _rpos: np.ndarray = field(init=False, repr=False)   # [a, b, c]: first entry
    _F: np.ndarray = field(init=False, repr=False)      # rows: left channels
    _Finv: np.ndarray = field(init=False, repr=False)   # rows: right channels
    _R: np.ndarray = field(init=False, repr=False)      # R^{ab}_c: N[b,a,c] × N[a,b,c]
    _Rinv: np.ndarray = field(init=False, repr=False)   # (R^{ab}_c)⁻¹: N[a,b,c] × N[b,a,c]

    def __post_init__(self):
        N = self.N
        left, right = _channels(N, left=True), _channels(N, left=False)
        fsize, rsize = left.count * right.count, (N.transpose(1, 0, 2) * N).ravel()
        for name, value in [
            ("thresholds", Thresholds(self.tol)), ("_left", left), ("_right", right),
            ("_fpos", np.cumsum(fsize) - fsize),
            ("_rpos", (np.cumsum(rsize) - rsize).reshape(N.shape)),
            ("_F", np.zeros(fsize.sum(), dtype=complex)),
            ("_Finv", np.zeros(fsize.sum(), dtype=complex)),
            ("_R", np.zeros(rsize.sum(), dtype=complex)),
            ("_Rinv", np.zeros(rsize.sum(), dtype=complex)),
        ]:
            object.__setattr__(self, name, value)

    # -- bookkeeping -----------------------------------------------------
    @property
    def rank(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ParseError(f"unknown label {label!r}") from None

    def left_channels(self, a: int, b: int, c: int, d: int) -> np.ndarray:
        """Canonical basis (e, mu, nu) of trees a(b) -> e -> d fusing c: a
        read-only (count, 3) int array view of the stored channels."""
        return self._left.rows(_quad(self.rank, a, b, c, d))

    def right_channels(self, a: int, b: int, c: int, d: int) -> np.ndarray:
        """Canonical basis (f, rho, sigma) of trees with b(c) -> f fused
        first: a read-only (count, 3) int array view of the stored channels."""
        return self._right.rows(_quad(self.rank, a, b, c, d))

    def right_index(self, a: int, b: int, c: int, d: int, f: int, rho: int, sigma: int) -> int:
        """Row of the right channel (f, rho, sigma) in :meth:`finv` of the quad."""
        return int(self._right.index(_quad(self.rank, a, b, c, d), f, rho, sigma))

    # -- symbol access ---------------------------------------------------
    def fmat(self, a: int, b: int, c: int, d: int) -> np.ndarray:
        """F-matrix of the quad, rows = left channels, cols = right channels."""
        q = _quad(self.rank, a, b, c, d)
        return _block(self._F, self._fpos[q], self._left.count[q], self._right.count[q])

    def finv(self, a: int, b: int, c: int, d: int) -> np.ndarray:
        """Inverse F-matrix, rows = right channels, cols = left channels."""
        q = _quad(self.rank, a, b, c, d)
        return _block(self._Finv, self._fpos[q], self._right.count[q], self._left.count[q])

    def rmat(self, a: int, b: int, c: int) -> np.ndarray:
        return _block(self._R, self._rpos[a, b, c], self.N[b, a, c], self.N[a, b, c])

    def rinv(self, a: int, b: int, c: int) -> np.ndarray:
        return _block(self._Rinv, self._rpos[a, b, c], self.N[a, b, c], self.N[b, a, c])


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
    """Read a JSON document from a filesystem path; a document that cannot
    be opened, decoded or parsed, or nests too deeply to parse, raises
    ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot read document {path}: {exc}") from exc


def _as_complex(val, where: str) -> complex:
    if (
        not isinstance(val, (list, tuple))
        or len(val) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in val)
    ):
        raise ParseError(f"{where}: complex values must be [re, im] pairs, got {val!r}")
    try:
        z = complex(val[0], val[1])
    except OverflowError:  # an integer beyond the float range
        z = cmath.inf
    if not cmath.isfinite(z):
        raise ParseError(f"{where}: complex values must be finite, got {val!r}")
    return z


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"document is missing the {key!r} section")
    return doc[key]


def _entry_list(entries, name: str) -> list:
    """``entries``, the section ``name`` of a document, checked to be a list of objects."""
    if not isinstance(entries, list):
        raise ParseError(f"section {name!r} must be a list of entries")
    for pos, ent in enumerate(entries):
        if not isinstance(ent, dict):
            raise ParseError(f"{name} entry {pos} must be an object, got {ent!r}")
    return entries


def _mult_index(ent: dict, key: str, bound: int, where: str) -> int:
    v = ent.get(key, 0)
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ParseError(f"{where}: multiplicity index {key}={v!r} is not a non-negative integer")
    if v >= bound:
        raise ParseError(f"{where}: {key}={v} exceeds the fusion multiplicity {bound}")
    return v


def load_mtc(doc: dict, tol: float = DEFAULT_TOL) -> MtcData:
    """Parse and validate a category document.

    Raises ParseError for structural problems (an F/R cell given twice
    among them), MissingSymbol when an F/R entry required by a nonzero
    fusion channel is absent, and AxiomViolation
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
        if lab not in labels:
            raise ParseError(f"{where}: unknown label {lab!r}")
        return index[lab]

    dual_map = _require(doc, "dual")
    if not isinstance(dual_map, dict) or set(dual_map) != set(labels):
        raise ParseError("dual must map every label to a label")
    dual = np.zeros(n, dtype=int)
    for lab, dlab in dual_map.items():
        if dlab not in labels:
            raise ParseError(f"dual: unknown label {dlab!r}")
        dual[index[lab]] = index[dlab]
    if dual[0] != 0 or any(dual[dual[i]] != i for i in range(n)):
        raise ParseError("dual must be an involution fixing the unit")

    N = np.zeros((n, n, n), dtype=int)
    given = np.zeros((n, n, n), dtype=bool)
    top = int(np.iinfo(N.dtype).max)
    for ent in _entry_list(_require(doc, "fusion"), "fusion"):
        a, b, c = (lab_index(ent, k, "fusion") for k in ("a", "b", "c"))
        if given[a, b, c]:
            raise ParseError(f"fusion entry ({labels[a]},{labels[b]},{labels[c]}) is given twice")
        mult = ent.get("mult")
        if not isinstance(mult, int) or isinstance(mult, bool) or mult < 0:
            raise ParseError(f"fusion: mult must be a non-negative integer, got {mult!r}")
        if mult > top:
            raise ParseError(f"fusion: mult must be at most {top}, got {mult!r}")
        N[a, b, c] = mult
        given[a, b, c] = True

    coherence = Thresholds(float(tol)).coherence
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
    if max(residuals.values()) > coherence:
        worst = max(residuals, key=residuals.get)
        raise AxiomViolation(worst, residuals[worst], residuals)

    data = MtcData(labels=tuple(labels), dual=dual, N=N,
                   twist=np.ones(n, dtype=complex), tol=float(tol))
    left, right = data._left, data._right
    cells, vals = [], []
    for ent in _entry_list(_require(doc, "F"), "F"):
        a, b, c, d, e, f = (
            lab_index(ent, k, "F") for k in ("a", "b", "c", "d", "e", "f")
        )
        where = f"F[{labels[a]},{labels[b]},{labels[c]};{labels[d]}]"
        cells.append((_quad(n, a, b, c, d), e, _mult_index(ent, "mu", N[a, b, e], where),
                      _mult_index(ent, "nu", N[e, c, d], where), f,
                      _mult_index(ent, "rho", N[b, c, f], where),
                      _mult_index(ent, "sigma", N[a, f, d], where)))
        vals.append(_as_complex(ent.get("val"), where))
    q, e, mu, nu, f, rho, sigma = np.array(cells, dtype=int).reshape(-1, 7).T

    def f_entry(q, i, j):
        a, b, c, d, e, mu, nu, f, rho, sigma = _f_channels(data, q, i, j)
        return (f"F[{labels[a]},{labels[b]},{labels[c]};{labels[d]}] entry "
                f"(e={labels[e]},mu={mu},nu={nu};f={labels[f]},rho={rho},sigma={sigma})")

    quads = np.indices((n,) * 4).reshape(4, -1)
    unit_gauge_res = _fill(
        data._F, data._fpos, left.count, right.count, (quads[:3] == 0).any(axis=0),
        (q, left.index(q, e, mu, nu), right.index(q, f, rho, sigma)),
        np.array(vals, dtype=complex), f_entry)

    cells, vals = [], []
    for ent in _entry_list(_require(doc, "R"), "R"):
        a, b, c = (lab_index(ent, k, "R") for k in ("a", "b", "c"))
        where = f"R[{labels[a]},{labels[b]};{labels[c]}]"
        cells.append(((a * n + b) * n + c, _mult_index(ent, "mu", N[b, a, c], where),
                      _mult_index(ent, "nu", N[a, b, c], where)))
        vals.append(_as_complex(ent.get("val"), where))

    def r_entry(t, mu, nu):
        a, b, c = (labels[x] for x in np.unravel_index(t, (n,) * 3))
        return f"R[{a},{b};{c}] entry (mu={mu},nu={nu})"

    triples = np.indices((n,) * 3).reshape(3, -1)
    r_rows, r_cols = N.transpose(1, 0, 2).ravel(), N.ravel()
    unit_gauge_res = max(unit_gauge_res, _fill(
        data._R, data._rpos.ravel(), r_rows, r_cols, (triples[:2] == 0).any(axis=0),
        np.array(cells, dtype=int).reshape(-1, 3).T, np.array(vals, dtype=complex), r_entry))

    twist_map = _require(doc, "twist")
    if not isinstance(twist_map, dict) or set(twist_map) != set(labels):
        raise ParseError("twist must map every label to a complex [re, im] value")
    twist = np.array(
        [_as_complex(twist_map[lab], f"twist[{lab}]") for lab in labels], dtype=complex
    )
    data.twist[:] = twist

    residuals["unit-gauge"] = unit_gauge_res
    residuals["twist-modulus"] = float(np.max(np.abs(np.abs(twist) - 1.0)))
    if residuals["twist-modulus"] > coherence:
        # a non-unimodular twist is structurally broken; report it directly
        # rather than whichever downstream identity it wrecks hardest
        raise AxiomViolation("twist-modulus", residuals["twist-modulus"], dict(residuals))
    _inverses(data._F, data._Finv, data._fpos, left.count, right.count, "f-invertibility")
    _inverses(data._R, data._Rinv, data._rpos.ravel(), r_rows, r_cols, "r-invertibility")
    # products of huge F or R values may overflow; _worst_difference
    # reports such an equation as inf instead of warning
    with np.errstate(over="ignore", invalid="ignore"):
        residuals["pentagon"] = _pentagon_residual(data)
        residuals["hexagon"] = _hexagon_residual(data, inverse=False)
        residuals["hexagon-inverse"] = _hexagon_residual(data, inverse=True)
    residuals["ribbon"] = _ribbon_residual(data)

    if max(residuals.values()) > coherence:
        worst = max(residuals, key=residuals.get)
        raise AxiomViolation(worst, residuals[worst], residuals)

    for arr in (data.dual, data.N, data.twist, data._F, data._Finv, data._R, data._Rinv):
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


def _fill(table, first, rows, cols, unit, cells, vals, entry) -> float:
    """Fill ``table`` from the cells of one document section.

    Block t of the table is the ``rows[t]`` × ``cols[t]`` matrix from entry
    ``first[t]``, row-major; cell k puts ``vals[k]`` at the block, row and
    column given by the arrays ``cells``.  The blocks flagged in ``unit``
    are identities, and their cells are only compared with them: the
    largest |cell − identity| is returned.  A cell given twice raises
    ParseError, and the first entry of another block that no cell gives
    raises MissingSymbol; ``entry(t, row, col)`` names the entry.
    """
    blk, off = _split(rows * cols)
    row, col = off // cols[blk], off % cols[blk]
    t, i, j = cells
    pos = first[t] + i * cols[t] + j
    order = np.argsort(pos, kind="stable")
    again = order[1:][pos[order[1:]] == pos[order[:-1]]]
    if again.size:
        p = pos[again.min()]
        raise ParseError(f"{entry(blk[p], row[p], col[p])} is given twice")
    ident = (row == col).astype(complex)
    given = unit[blk]
    table[given] = ident[given]
    on_unit = unit[t]
    table[pos[~on_unit]] = vals[~on_unit]
    given[pos] = True
    missing = np.flatnonzero(~given)
    if missing.size:
        p = missing[0]
        raise MissingSymbol(f"{entry(blk[p], row[p], col[p])} required by a nonzero "
                            "fusion channel is absent")
    return float(np.max(np.abs(vals[on_unit] - ident[pos[on_unit]]), initial=0.0))


def _inverses(table, out, first, rows, cols, identity: str) -> None:
    """Write into ``out`` the inverse of every block of ``table``: the
    ``rows[t]`` × ``cols[t]`` block from entry ``first[t]`` becomes its
    inverse in the same place, by one batched ``np.linalg.inv`` per shape.
    A singular or non-square block raises AxiomViolation(``identity``)."""
    for r, c in set(zip(rows.tolist(), cols.tolist())):
        if r * c == 0:
            continue
        at = first[(rows == r) & (cols == c), None] + np.arange(r * c)
        try:
            out[at] = np.linalg.inv(table[at].reshape(-1, r, c)).reshape(at.shape)
        except np.linalg.LinAlgError:
            raise AxiomViolation(identity, float("inf"), {identity: float("inf")}) from None


def _expand(state: dict, count, consumed: str = "") -> tuple:
    """Repeat row r of ``state`` (a dict of equal-length arrays) ``count[r]``
    times, without the fields named in ``consumed``: the new state, and
    for each new row its old row and its place 0, 1, ... in the run."""
    owner, off = _split(count)
    drop = consumed.split()
    return {k: v[owner] for k, v in state.items() if k not in drop}, owner, off


def _f_move(C: MtcData, state: dict, quad, consumed: str, produced: str,
            inverse: bool = False) -> dict:
    """Apply F^{abc}_d to a sum of channel tuples, for the quad (a, b, c, d).

    Each row of ``state`` (``coef`` among its fields) holds the left
    channel named by ``consumed`` (a right one with ``inverse``, which
    applies (F^{abc}_d)⁻¹).  It meets every entry of that channel's row of
    the quad's block in the stored table, multiplies its ``coef`` by the
    entry and takes the entry's column channel as ``produced``.
    """
    src, dst = (C._right, C._left) if inverse else (C._left, C._right)
    table = C._Finv if inverse else C._F
    q = _quad(C.rank, *quad)
    size = dst.count[q]
    first = C._fpos[q] + src.index(q, *(state[k] for k in consumed.split())) * size
    new, owner, col = _expand(state, size, consumed)
    new["coef"] = new["coef"] * table[first[owner] + col]
    new.update(zip(produced.split(), dst.chans[4:, dst.first[q][owner] + col]))
    return new


def _r_move(C: MtcData, state: dict, triple, vertex: str, inverse: bool) -> dict:
    """Braid the vertex ``vertex`` of Hom(z, x⊗y), (x, y, z) = ``triple``,
    into Hom(z, y⊗x): row by row as :func:`_f_move`, with R^{xy}_z, or
    (R^{yx}_z)⁻¹ with ``inverse``."""
    x, y, z = triple
    N = C.N
    first = (C._rpos[y, x, z] if inverse else C._rpos[x, y, z]) + state[vertex]
    new, owner, o = _expand(state, N[y, x, z])
    table = C._Rinv if inverse else C._R
    new["coef"] = new["coef"] * table[first[owner] + o * N[x, y, z][owner]]
    new[vertex] = o
    return new


def _worst_difference(tag, lhs, rhs) -> float:
    """Largest |lhs − rhs| over the equations: ``tag`` maps a state to the
    integer of its equation; terms of one equation are summed after one
    stable sort.  An equation whose sum is not finite (its terms overflowed)
    counts as inf."""
    keys = np.concatenate([tag(lhs), tag(rhs)])
    if not keys.size:
        return 0.0
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = np.concatenate([lhs["coef"], -rhs["coef"]])[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    sums = np.add.reduceat(vals, starts)
    return float(np.max(np.where(np.isfinite(sums), np.abs(sums), np.inf)))


#: most start trees that one pass of :func:`_pentagon_residual` holds
_PENTAGON_TREES = 2048


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

    Each side is a sum over trees, kept as arrays: it starts from
    ((ab)c)d trees, and each F-move is a join of those arrays with the
    stored F table (:func:`_f_move`).  The terms are then summed per pair
    of a source tree and an a(b(cd)) tree; a term finds its letters a and
    b through its source tree.  One pass takes the trees of consecutive
    pairs of first letters (a, b) while they number at most
    ``_PENTAGON_TREES``; a pair with more runs alone.  Fewer passes cost
    less per-call overhead, and the budget bounds the arrays, whose terms
    per tree grow with the rank: 2,048 trees hold every catalog category
    (at most 1,086) in one pass, and keep su2_8 and su2_10 (up to 3,934
    trees in one pair) at the peak memory of one pass per pair.  Each
    equation's terms are formed and summed in the same order whatever the
    passes.  With a unit letter the identity compares a sum with itself,
    because unit F-matrices are identities.
    """
    n, N = C.rank, C.N
    m = max(int(N.max()), 1)
    left = C._left.chans
    x, y, z = np.nonzero(N[:, 1:])     # the vertices gd→E of non-unit d, sorted by g
    own, m3 = _split(N[x, y + 1, z])
    per_g = np.bincount(x[own], minlength=n)
    vertices = np.stack([y[own] + 1, z[own], m3])
    rows = np.flatnonzero((left[:3] > 0).all(axis=0))   # sorted by (a, b)
    starts = np.flatnonzero(np.diff(left[0, rows] * n + left[1, rows], prepend=-1))
    cuts, held = [], 0   # a pass ends before each cut, a row that starts a pair
    for at, trees in zip(starts.tolist(), np.add.reduceat(per_g[left[3, rows]], starts).tolist()):
        if held and held + trees > _PENTAGON_TREES:
            cuts.append(at)
            held = 0
        held += trees

    def tag(s):  # equation: the source tree and the a(b(cd)) tree it reaches
        return (((((s["tree"] * n + s["l"]) * m + s["t1"]) * m + s["t2"]) * n + s["k"])
                * m + s["s2"])

    worst = 0.0
    for part in np.split(rows, cuts):
        tops = dict(zip("c g f1 m1 m2".split(), left[2:, part]))
        tops["coef"] = np.ones(part.size, dtype=complex)
        start, owner, off = _expand(tops, per_g[tops["g"]])
        start.update(zip("d E m3".split(),
                         vertices[:, (np.cumsum(per_g) - per_g)[tops["g"]][owner] + off]))
        start["tree"] = np.arange(owner.size)
        a, b = left[:2, part[owner]]
        s = _f_move(C, start, (a, b, start["c"], start["g"]), "f1 m1 m2", "h r1 r2")
        s = _f_move(C, s, (a[s["tree"]], s["h"], s["d"], s["E"]), "g r2 m3", "k s1 s2")
        lhs = _f_move(C, s, (b[s["tree"]], s["c"], s["d"], s["k"]), "h r1 s1", "l t1 t2")
        s = _f_move(C, start, (start["f1"], start["c"], start["d"], start["E"]),
                    "g m2 m3", "l t1 n2")
        rhs = _f_move(C, s, (a[s["tree"]], b[s["tree"]], s["l"], s["E"]), "f1 m1 n2", "k t2 s2")
        worst = max(worst, _worst_difference(tag, lhs, rhs))
    return worst


def _hexagon_residual(C: MtcData, inverse: bool) -> float:
    """Largest |lhs − rhs| of Ra·F^{bca}_d = (F^{abc}_d)⁻¹·Rb·F^{bac}_d·Rc
    over the quads with non-unit letters a, b, c, per chirality.

    Each side maps the right channels (f, ρ, σ) of F^{abc}_d to the right
    channels (g, τ, κ) of F^{bca}_d; Ra, Rb and Rc braid the letter a past
    f, b and c.  With ``inverse`` every R^{xy}_z is replaced by
    (R^{yx}_z)⁻¹.  As in :func:`_pentagon_residual`, each side is a sum
    over channels kept as arrays, and each move is a join with the stored
    F, F⁻¹, R or R⁻¹ table.  With a unit letter both sides are the same
    identity.
    """
    n, N = C.rank, C.N
    m = max(int(N.max()), 1)
    right = C._right.chans
    rows = np.flatnonzero((right[:3] > 0).all(axis=0))
    start = dict(zip("a b c d f rho sigma".split(), right[:, rows]))
    start["tree"] = np.arange(rows.size)
    start["coef"] = np.ones(rows.size, dtype=complex)

    def tag(s):  # equation: the source channel and the channel (g, τ, κ) it reaches
        return ((s["tree"] * n + s["g"]) * m + s["tau"]) * m + s["kappa"]

    s = _r_move(C, start, (start["a"], start["f"], start["d"]), "sigma", inverse)
    lhs = _f_move(C, s, (s["b"], s["c"], s["a"], s["d"]), "f rho sigma", "g tau kappa")
    s = _f_move(C, start, (start["a"], start["b"], start["c"], start["d"]), "f rho sigma",
                "e mu nu", inverse=True)
    s = _r_move(C, s, (s["a"], s["b"], s["e"]), "mu", inverse)
    s = _f_move(C, s, (s["b"], s["a"], s["c"], s["d"]), "e mu nu", "g tau kappa")
    rhs = _r_move(C, s, (s["a"], s["c"], s["g"]), "tau", inverse)
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
# S-matrix
# ---------------------------------------------------------------------------

def s_matrix(C: MtcData) -> SMatrix:
    """The unnormalized S-matrix, via the diagram-engine double-braiding
    trace; computed once per category and kept, read-only, in its cache."""
    from . import engine

    store = C._cache["smatrix"]
    out = store.get(())
    if out is not None:
        return out
    n = C.rank
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            wi, wj = engine.obj(i), engine.obj(j)
            monodromy = engine.braid(C, wi, wj) @ engine.braid(C, wj, wi)
            s[j, i] = engine.trace(C, monodromy)
    s.setflags(write=False)
    out = store[()] = SMatrix(entries=s)
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
