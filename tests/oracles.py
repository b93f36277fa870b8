"""Independent reference implementations used to pin expected values.

Everything in this module is written with explicit loops over raw symbol
tables and its own tiny JSON reader -- no imports from ``bimodfusion`` -- so
that the main code paths are cross-checked against genuinely independent
arithmetic.  The exceptions are handed the engine module:
:func:`intertwiner_by_units` evaluates the module-map equations as
composites of morphisms, one matrix unit at a time; :func:`y_vertex`
and :func:`y_covertex` write a single fusion vertex as a morphism;
:func:`inject` and :func:`project` write the inclusion of a summand word
into a sum object and the projection onto it;
:func:`trace_right` and :func:`trace_left` close a morphism with cups and
caps; :func:`module_residuals` evaluates the module axioms of a bimodule;
and :func:`nondegeneracy`, also handed the frobenius module, inverts an
algebra's duality pairing by its coproduct.  :func:`merge_by_moves` is
handed the inverse F-matrices only, and finds their channels itself.
:func:`pentagon_by_pairs` is handed the mtc module and runs its moves
with one pass per pair of first letters, as the package once did.
:func:`to_document`, :func:`gauge_transform` and :func:`random_gauge` are
handed the mtc module too: they write a category back as a document, and
load it again in another gauge of its splitting spaces.
Frozen expected values live in ``test_oracles.py`` and in the
fixture/golden files.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np


class RawCat:
    """A category symbol table parsed straight from the JSON document format.

    Deliberately minimal: arrays plus two dicts, with 0 returned for absent
    F/R entries.
    """

    def __init__(self, doc):
        self.labels = list(doc["labels"])
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        n = len(self.labels)
        if doc["unit"] != self.labels[0]:
            raise ValueError("oracle assumes the unit is listed first")
        self.dual = np.array([self.index[doc["dual"][lab]] for lab in self.labels])
        self.N = np.zeros((n, n, n), dtype=int)
        for ent in doc["fusion"]:
            self.N[self.index[ent["a"]], self.index[ent["b"]], self.index[ent["c"]]] = ent["mult"]
        self.F = {}
        for ent in doc["F"]:
            key = (
                self.index[ent["a"]], self.index[ent["b"]], self.index[ent["c"]],
                self.index[ent["d"]], self.index[ent["e"]], self.index[ent["f"]],
                ent.get("mu", 0), ent.get("nu", 0), ent.get("rho", 0), ent.get("sigma", 0),
            )
            self.F[key] = complex(ent["val"][0], ent["val"][1])
        self.R = {}
        for ent in doc["R"]:
            key = (
                self.index[ent["a"]], self.index[ent["b"]], self.index[ent["c"]],
                ent.get("mu", 0), ent.get("nu", 0),
            )
            self.R[key] = complex(ent["val"][0], ent["val"][1])
        self.twist = np.array(
            [complex(*doc["twist"][lab]) for lab in self.labels], dtype=complex
        )

    @classmethod
    def from_path(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls(json.load(fh))

    # -- symbol accessors ------------------------------------------------
    def f(self, a, b, c, d, e, f, mu=0, nu=0, rho=0, sigma=0):
        # any unit label makes the F-move trivial (fixed unit gauge)
        if 0 in (a, b, c):
            left = self._left_basis(a, b, c, d)
            right = self._right_basis(a, b, c, d)
            if (e, mu, nu) in left and (f, rho, sigma) in right:
                return 1.0 + 0j if left.index((e, mu, nu)) == right.index((f, rho, sigma)) else 0j
            return 0j
        return self.F.get((a, b, c, d, e, f, mu, nu, rho, sigma), 0j)

    def r(self, a, b, c, mu=0, nu=0):
        if a == 0 or b == 0:
            return (1.0 + 0j) if mu == nu else 0j
        return self.R.get((a, b, c, mu, nu), 0j)

    # -- tree-channel bookkeeping ----------------------------------------
    def _left_basis(self, a, b, c, d):
        return left_basis(self.N, a, b, c, d)

    def _right_basis(self, a, b, c, d):
        return right_basis(self.N, a, b, c, d)

    def fmat(self, a, b, c, d):
        left = self._left_basis(a, b, c, d)
        right = self._right_basis(a, b, c, d)
        mat = np.zeros((len(left), len(right)), dtype=complex)
        for i, (e, mu, nu) in enumerate(left):
            for j, (f, rho, sigma) in enumerate(right):
                mat[i, j] = self.f(a, b, c, d, e, f, mu, nu, rho, sigma)
        return left, right, mat

    def rmat(self, a, b, c):
        m = self.N[a, b, c]
        mat = np.zeros((m, m), dtype=complex)
        for mu in range(m):
            for nu in range(m):
                mat[mu, nu] = self.r(a, b, c, mu, nu)
        return mat


def left_basis(N, a, b, c, d):
    """Left channels (e, mu, nu) of the quad: ab -> e via mu, ec -> d via nu."""
    out = []
    for e in range(N.shape[0]):
        for mu in range(N[a, b, e]):
            for nu in range(N[e, c, d]):
                out.append((e, mu, nu))
    return out


def right_basis(N, a, b, c, d):
    """Right channels (f, rho, sigma) of the quad: bc -> f via rho, af -> d
    via sigma."""
    out = []
    for f in range(N.shape[0]):
        for rho in range(N[b, c, f]):
            for sigma in range(N[a, f, d]):
                out.append((f, rho, sigma))
    return out


# ---------------------------------------------------------------------------
# fusion-ring level checks
# ---------------------------------------------------------------------------

def pf_dims(N):
    """Perron-Frobenius dimensions of a fusion ring given its multiplicities."""
    n = N.shape[0]
    dims = np.zeros(n)
    for a in range(n):
        w = np.linalg.eigvals(N[a].astype(float))
        dims[a] = max(w.real)
    return dims


def fusion_trees(N, w, k):
    """Left-comb fusion trees of the word w (a tuple of labels) with total
    sector k, as tuples of (sector, multiplicity) pairs for the prefixes of
    length 2..n: prefix-sector-major, recursively, multiplicity-minor."""
    if len(w) <= 1:
        return [()] if k == (w[0] if w else 0) else []
    out = []
    for e in range(N.shape[0]):
        for tree in fusion_trees(N, w[:-1], e):
            for mu in range(N[e, w[-1], k]):
                out.append(tree + ((k, mu),))
    return out


def _pair_vector(N, finv, u, v, t1, k1, t2, k2, mu, k):
    """The pair vector (t1 ⊗ t2) ∘ y^mu of Hom(k, u ⊗ v), for the trees t1
    of u in sector k1 and t2 of v in k2 (:func:`fusion_trees`), as a dict
    from left-comb trees of u + v to coefficients.

    With v = v1 + (b,), t2 fuses v1 to q and then q ⊗ b -> k2 by its last
    vertex nu: together with y^mu that is the right-comb channel
    (k2, nu, mu) of the quad (k1, q, b; k).  Its row of ``finv`` turns it
    into left-comb channels (e, rho, sigma): the pair vector of
    (t1, t2 without its last vertex) in Hom(e, u ⊗ v1), joined to b by
    vertex sigma."""
    if len(v) == 1:
        return {t1 + ((k, mu),): 1.0}
    v1, b = v[:-1], v[-1]
    q = t2[-2][0] if len(v1) > 1 else v1[0]
    nu = t2[-1][1]
    row = finv(k1, q, b, k)[right_basis(N, k1, q, b, k).index((k2, nu, mu))]
    out = {}
    for (e, rho, sigma), coeff in zip(left_basis(N, k1, q, b, k), row):
        for tree, val in _pair_vector(N, finv, u, v1, t1, k1, t2[:-1], q, rho, e).items():
            key = tree + ((k, sigma),)
            out[key] = out.get(key, 0j) + coeff * val
    return out


def merge_by_moves(N, finv, u, v, k):
    """The matrix from the pair basis of Hom(k, u ⊗ v) to the left-comb
    trees of u + v in sector k, one column per pair vector
    (:func:`_pair_vector`): columns by (k1, k2, mu) in label order, then
    trees of u in k1, then trees of v in k2.  ``finv(a, b, c, d)`` is the
    inverse F-matrix of the quad, rows right channels, columns left ones,
    each in the order of :func:`right_basis` / :func:`left_basis`."""
    rows = {t: i for i, t in enumerate(fusion_trees(N, u + v, k))}
    cols = []
    for k1, k2 in itertools.product(range(N.shape[0]), repeat=2):
        for mu, t1, t2 in itertools.product(range(N[k1, k2, k]), fusion_trees(N, u, k1),
                                            fusion_trees(N, v, k2)):
            col = np.zeros(len(rows), dtype=complex)
            for tree, val in _pair_vector(N, finv, u, v, t1, k1, t2, k2, mu, k).items():
                col[rows[tree]] += val
            cols.append(col)
    return np.array(cols, dtype=complex).reshape(len(cols), len(rows)).T


def backspin_smatrix(N, twist, dims):
    """Unnormalized S-matrix from the twist/fusion data alone.

    s_ij = sum_k N[i][j][k] d_k theta_k / (theta_i theta_j); this is the
    standard encircling evaluation and uses no F/R symbols, which makes it a
    good oracle for the diagrammatic double-braiding trace.
    """
    n = N.shape[0]
    s = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = 0j
            for k in range(n):
                acc += N[i, j, k] * dims[k] * twist[k]
            s[i, j] = acc / (twist[i] * twist[j])
    return s


# ---------------------------------------------------------------------------
# axiom residuals, explicit-loop versions
# ---------------------------------------------------------------------------

def pentagon_equations(cat: RawCat):
    """All pentagon residuals (lhs - rhs), one complex number per equation.

    Convention: [F^{abc}_d]_{(e,mu,nu),(f,rho,sigma)} rewrites the left-comb
    pair of splitting vertices ((ab)e, (ec)d) in terms of ((bc)f, (af)d).
    The identity compares the two F-move routes from the left comb of a
    four-letter word to its right comb.
    """
    n = len(cat.labels)
    out = []
    rng_lab = range(n)
    for a, b, c, d in itertools.product(rng_lab, repeat=4):
        for big_e in rng_lab:
            # left tree data: (ab)->f' via mu1, (f'c)->g via mu2, (gd)->E via mu3
            for f1 in rng_lab:
                if cat.N[a, b, f1] == 0:
                    continue
                for g in rng_lab:
                    if cat.N[f1, c, g] == 0 or cat.N[g, d, big_e] == 0:
                        continue
                    # right tree data: (cd)->l via tau1, (bl)->k via tau2, (ak)->E via sig2
                    for l in rng_lab:
                        if cat.N[c, d, l] == 0:
                            continue
                        for k in rng_lab:
                            if cat.N[b, l, k] == 0 or cat.N[a, k, big_e] == 0:
                                continue
                            for mu1, mu2, mu3, tau1, tau2, sig2 in itertools.product(
                                range(cat.N[a, b, f1]), range(cat.N[f1, c, g]),
                                range(cat.N[g, d, big_e]), range(cat.N[c, d, l]),
                                range(cat.N[b, l, k]), range(cat.N[a, k, big_e]),
                            ):
                                lhs = 0j
                                for h in rng_lab:
                                    for r1 in range(cat.N[b, c, h]):
                                        for r2 in range(cat.N[a, h, g]):
                                            for s1 in range(cat.N[h, d, k]):
                                                lhs += (
                                                    cat.f(a, b, c, g, f1, h, mu1, mu2, r1, r2)
                                                    * cat.f(a, h, d, big_e, g, k, r2, mu3, s1, sig2)
                                                    * cat.f(b, c, d, k, h, l, r1, s1, tau1, tau2)
                                                )
                                rhs = 0j
                                for n2 in range(cat.N[f1, l, big_e]):
                                    rhs += (
                                        cat.f(f1, c, d, big_e, g, l, mu2, mu3, tau1, n2)
                                        * cat.f(a, b, l, big_e, f1, k, mu1, n2, tau2, sig2)
                                    )
                                out.append(lhs - rhs)
    return np.array(out, dtype=complex)


def pentagon_residual(cat: RawCat):
    """Max residual of the pentagon identity over all label assignments."""
    eqs = pentagon_equations(cat)
    return float(np.max(np.abs(eqs))) if eqs.size else 0.0


def _finv(cat, a, b, c, d):
    left, right, mat = cat.fmat(a, b, c, d)
    if mat.size == 0:
        return left, right, mat.T
    return left, right, np.linalg.inv(mat)


def hexagon_residual(cat: RawCat, inverse=False):
    """Max residual of the hexagon identity (braiding vs two half-braids).

    With ``inverse=True`` every R-matrix is replaced by the inverse braiding's
    matrix (R^{yx})^{-1}, giving the second hexagon.
    """
    n = len(cat.labels)

    def rmat_of(x, y, z):
        if inverse:
            return np.linalg.inv(cat.rmat(y, x, z))
        return cat.rmat(x, y, z)

    worst = 0.0
    for a, b, c, d in itertools.product(range(n), repeat=4):
        # right-comb source data (f, rho, sigma) on word (a,b,c);
        # target data (g, tau', kappa) on word (b,c,a)
        for f1 in range(n):
            if cat.N[b, c, f1] == 0 or cat.N[a, f1, d] == 0:
                continue
            r_af = rmat_of(a, f1, d)
            for g in range(n):
                if cat.N[c, a, g] == 0 or cat.N[b, g, d] == 0:
                    continue
                r_ac = rmat_of(a, c, g)
                _, _, finv_abc = _finv(cat, a, b, c, d)
                lb_abc = cat._left_basis(a, b, c, d)
                rb_abc = cat._right_basis(a, b, c, d)
                for rho, sig in itertools.product(range(cat.N[b, c, f1]), range(cat.N[a, f1, d])):
                    for tp, kap in itertools.product(range(cat.N[c, a, g]), range(cat.N[b, g, d])):
                        lhs = 0j
                        for sp in range(cat.N[f1, a, d]):
                            lhs += r_af[sp, sig] * cat.f(b, c, a, d, f1, g, rho, sp, tp, kap)
                        rhs = 0j
                        i_right = rb_abc.index((f1, rho, sig))
                        for e, mu, nu in lb_abc:
                            r_ab = rmat_of(a, b, e)
                            for mup in range(cat.N[b, a, e]):
                                for tau in range(cat.N[a, c, g]):
                                    rhs += (
                                        finv_abc[i_right, lb_abc.index((e, mu, nu))]
                                        * r_ab[mup, mu]
                                        * cat.f(b, a, c, d, e, g, mup, nu, tau, kap)
                                        * r_ac[tp, tau]
                                    )
                        worst = max(worst, abs(lhs - rhs))
    return worst


def ribbon_residual(cat: RawCat):
    """Max residual of R^{ba}_c R^{ab}_c = theta_c/(theta_a theta_b) 1."""
    n = len(cat.labels)
    worst = abs(cat.twist[0] - 1.0)
    for a in range(n):
        worst = max(worst, abs(cat.twist[cat.dual[a]] - cat.twist[a]))
    for a, b, c in itertools.product(range(n), repeat=3):
        m = cat.N[a, b, c]
        if m == 0:
            continue
        prod = cat.rmat(b, a, c) @ cat.rmat(a, b, c)
        target = (cat.twist[c] / (cat.twist[a] * cat.twist[b])) * np.eye(m)
        worst = max(worst, float(np.max(np.abs(prod - target))))
    return worst


# ---------------------------------------------------------------------------
# independent mini-solvers
# ---------------------------------------------------------------------------

def fib_rawcat(F2, G, r1=None, rt=None):
    """Raw rank-2 category table: unknowns F2 = F^{ttt}_t (2x2) and G = F^{ttt}_1."""
    labels = ["1", "t"]
    f_entries = [
        {"a": "t", "b": "t", "c": "t", "d": "t", "e": labels[e], "f": labels[f],
         "val": [complex(F2[e, f]).real, complex(F2[e, f]).imag]}
        for e, f in itertools.product(range(2), repeat=2)
    ]
    f_entries.append({"a": "t", "b": "t", "c": "t", "d": "1", "e": "t", "f": "t",
                      "val": [complex(G).real, complex(G).imag]})
    r_entries = []
    if r1 is not None:
        r_entries = [
            {"a": "t", "b": "t", "c": "1", "val": [complex(r1).real, complex(r1).imag]},
            {"a": "t", "b": "t", "c": "t", "val": [complex(rt).real, complex(rt).imag]},
        ]
    doc = {
        "labels": labels,
        "unit": "1",
        "dual": {"1": "1", "t": "t"},
        "fusion": [
            {"a": "1", "b": "1", "c": "1", "mult": 1},
            {"a": "1", "b": "t", "c": "t", "mult": 1},
            {"a": "t", "b": "1", "c": "t", "mult": 1},
            {"a": "t", "b": "t", "c": "1", "mult": 1},
            {"a": "t", "b": "t", "c": "t", "mult": 1},
        ],
        "F": f_entries,
        "R": r_entries,
        "twist": {"1": [1.0, 0.0], "t": [1.0, 0.0]},
    }
    return RawCat(doc)


def solve_fibonacci_pentagon(n_starts=40, seed=20240817):
    """Solve the pentagon from scratch for the rank-2 ring t*t = 1 + t.

    Unknowns: the 2x2 block F^{ttt}_t and the scalar F^{ttt}_1, all real
    (the ring admits a real gauge).  Gauss-Newton with numerical Jacobian on
    the full pentagon equation vector, from random starting points.  Returns
    the list of distinct gauge-invariant tuples
    (F00, F11, F01*F10, G) over the solutions found.
    """

    def eqs(v):
        cat = fib_rawcat(np.array([[v[0], v[1]], [v[2], v[3]]]), v[4])
        e = pentagon_equations(cat)
        return np.concatenate([e.real, e.imag])

    invariants = []
    rng = np.random.default_rng(seed)
    for _ in range(n_starts):
        v = rng.normal(scale=1.5, size=5)
        for _ in range(80):
            r0 = eqs(v)
            if np.max(np.abs(r0)) < 1e-13:
                break
            jac = np.zeros((r0.size, 5))
            h = 1e-7
            for i in range(5):
                vp = v.copy()
                vp[i] += h
                jac[:, i] = (eqs(vp) - r0) / h
            dv, *_ = np.linalg.lstsq(jac, -r0, rcond=None)
            v = v + dv
            if not np.all(np.isfinite(v)):
                break
        if not np.all(np.isfinite(v)) or np.max(np.abs(eqs(v))) > 1e-10:
            continue
        # skip the degenerate solutions where the t-channel collapses
        if abs(v[1] * v[2]) < 1e-8 or abs(v[4]) < 1e-8:
            continue
        inv = (round(v[0], 8), round(v[3], 8), round(v[1] * v[2], 8), round(v[4], 8))
        if inv not in invariants:
            invariants.append(inv)
    return sorted(invariants)


def solve_hexagon_rank2(F2, G):
    """Given a rank-2 pentagon solution, scan for hexagon-consistent (R1, Rt).

    Both braiding chiralities are returned; phases are found on a fine grid
    (the true solutions are 10th/20th roots of unity, which the grid hits
    exactly).
    """
    sols = []
    for k1 in range(40):
        for k2 in range(40):
            r1 = cmath.exp(2j * cmath.pi * k1 / 40)
            rt = cmath.exp(2j * cmath.pi * k2 / 40)
            cat = fib_rawcat(F2, G, r1, rt)
            res = max(hexagon_residual(cat, inverse=False),
                      hexagon_residual(cat, inverse=True))
            if res < 1e-8:
                sols.append((r1, rt))
    return sols


# ---------------------------------------------------------------------------
# algebra oracles: explicit contraction of associativity/unit laws
# ---------------------------------------------------------------------------

def parse_algebra_doc(doc, cat: RawCat):
    """Read mult / m / eta components into plain dicts keyed by label ids."""
    mult = {cat.index[lab]: int(v) for lab, v in doc["mult"].items()}
    m = {}
    for ent in doc["m"]:
        key = (
            cat.index[ent["i"]], ent.get("a", 0),
            cat.index[ent["j"]], ent.get("b", 0),
            cat.index[ent["k"]], ent.get("c", 0),
            ent.get("mu", 0),
        )
        m[key] = complex(ent["val"][0], ent["val"][1])
    eta = {}
    for ent in doc["eta"]:
        eta[(cat.index[ent["k"]], ent.get("c", 0))] = complex(ent["val"][0], ent["val"][1])
    return mult, m, eta


def algebra_assoc_residual(cat: RawCat, mult, m, eta):
    """Brute-force associativity check of m over the F-symbols.

    Expands m(m(x,y),z) in the right-comb tree basis of Hom(U_x U_y U_z, U_w)
    and compares with m(x,m(y,z)) componentwise:

        sum_{e,ce,mu,nu} m[(x,ax),(y,ay)->(e,ce),mu] m[(e,ce),(z,az)->(w,cw),nu]
                         F^{xyz}_w[(e,mu,nu),(f,rho,sigma)]
          = sum_{cf} m[(y,ay),(z,az)->(f,cf),rho] m[(x,ax),(f,cf)->(w,cw),sigma]
    """
    labs = [i for i, n_i in mult.items() if n_i > 0]
    worst = 0.0
    for (x, y, z) in itertools.product(labs, repeat=3):
        for ax, ay, az in itertools.product(range(mult[x]), range(mult[y]), range(mult[z])):
            for w in labs:
                for cw in range(mult[w]):
                    for f1 in range(len(cat.labels)):
                        for rho in range(cat.N[y, z, f1]):
                            for sigma in range(cat.N[x, f1, w]):
                                lhs = 0j
                                for e in labs:
                                    for ce in range(mult[e]):
                                        for mu in range(cat.N[x, y, e]):
                                            for nu in range(cat.N[e, z, w]):
                                                lhs += (
                                                    m.get((x, ax, y, ay, e, ce, mu), 0j)
                                                    * m.get((e, ce, z, az, w, cw, nu), 0j)
                                                    * cat.f(x, y, z, w, e, f1, mu, nu, rho, sigma)
                                                )
                                rhs = 0j
                                if f1 in mult:
                                    for cf in range(mult[f1]):
                                        rhs += (
                                            m.get((y, ay, z, az, f1, cf, rho), 0j)
                                            * m.get((x, ax, f1, cf, w, cw, sigma), 0j)
                                        )
                                worst = max(worst, abs(lhs - rhs))
    return worst


def algebra_unit_residual(cat: RawCat, mult, m, eta):
    """Brute-force check of m(eta (x) id) = id = m(id (x) eta)."""
    labs = [i for i, n_i in mult.items() if n_i > 0]
    worst = 0.0
    for j in labs:
        for b in range(mult[j]):
            for k in labs:
                for c in range(mult[k]):
                    left = 0j
                    right = 0j
                    for (u, cu), v in eta.items():
                        # vertex (u j)->k exists only for u = unit, k = j, mu = 0
                        left += v * m.get((u, cu, j, b, k, c, 0), 0j)
                        right += v * m.get((j, b, u, cu, k, c, 0), 0j)
                    want = 1.0 if (j == k and b == c) else 0.0
                    worst = max(worst, abs(left - want), abs(right - want))
    return worst


def solve_su2_4_dtype(cat: RawCat):
    """Brute-force associativity solve for the 1 (+) U_4 algebra in su2_4.

    Components with a unit factor are forced to 1 by the unit law.  The only
    remaining component t = m[(4,0),(4,0)->(0,0),0] satisfies, from the
    (4,4,4) associativity contraction, t*(F0 - 1) = 0 with
    F0 = [F^{444}_4]_{(0,0,0),(0,0,0)}; so a unital associative structure
    exists iff F0 = 1, and t is then fixed to 1 by rescaling the (4,4)->0
    vertex (gauge).  Returns the solved component dict.
    """
    four = cat.index["4"]
    F0 = cat.f(four, four, four, four, 0, 0)
    assert abs(F0 - 1.0) < 1e-9, f"[F^444_4]_00 = {F0}, no unital algebra on 1(+)4"
    mult = {0: 1, four: 1}
    m = {}
    for (x, y) in itertools.product([0, four], repeat=2):
        # z2 fusion inside {0, 4}: 4 (x) 4 = 0
        z = 0 if x == y else four
        m[(x, 0, y, 0, z, 0, 0)] = 1.0 + 0j
    eta = {(0, 0): 1.0 + 0j}
    assert algebra_unit_residual(cat, mult, m, eta) < 1e-12
    assert algebra_assoc_residual(cat, mult, m, eta) < 1e-12
    return mult, m, eta


def toric_group_algebra(cat: RawCat):
    """The C[Z2] structure on 1 (+) e in the toric-code category.

    All structure constants are 1 (group algebra of the Z2 generated by e,
    whose associator restricts trivially).  Verified by explicit contraction.
    """
    e = cat.index["e"]
    mult = {0: 1, e: 1}
    m = {}
    for (x, y) in itertools.product([0, e], repeat=2):
        z = 0 if x == y else e
        m[(x, 0, y, 0, z, 0, 0)] = 1.0 + 0j
    eta = {(0, 0): 1.0 + 0j}
    assert algebra_unit_residual(cat, mult, m, eta) < 1e-12
    assert algebra_assoc_residual(cat, mult, m, eta) < 1e-12
    return mult, m, eta


# ---------------------------------------------------------------------------
# closed-form S-matrices for catalog entries
# ---------------------------------------------------------------------------

def smatrix_su2k(k):
    n = k + 1
    s = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            s[a, b] = math.sin(math.pi * (a + 1) * (b + 1) / (k + 2)) / math.sin(math.pi / (k + 2))
    return s


def smatrix_fibonacci():
    phi = (1 + math.sqrt(5)) / 2
    return np.array([[1.0, phi], [phi, -1.0]])


def smatrix_toric():
    return np.array([
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, 1, -1],
        [1, -1, -1, 1],
    ], dtype=float)


def smatrix_vec_zn(n):
    if n % 2 == 1:
        q = cmath.exp(4j * cmath.pi / n)
    else:
        q = cmath.exp(2j * cmath.pi / n)
    return np.array([[q ** (a * b) for b in range(n)] for a in range(n)])


# ---------------------------------------------------------------------------
# fusion vertices
# ---------------------------------------------------------------------------

def y_vertex(E, C, a, b, e, mu=0):
    """The splitting vertex Hom(e, a ⊗ b), multiplicity mu."""
    col = np.zeros((C.N[a, b, e], 1), dtype=complex)
    col[mu, 0] = 1.0
    return E.Morphism(C, E.obj(e), E.obj(a, b), {e: col})


def y_covertex(E, C, a, b, e, mu=0):
    """The fusion covertex (a ⊗ b) -> e dual to y_vertex (y' ∘ y = delta)."""
    row = np.zeros((1, C.N[a, b, e]), dtype=complex)
    row[0, mu] = 1.0
    return E.Morphism(C, E.obj(a, b), E.obj(e), {e: row})


def inject(E, C, S, i):
    """Inclusion of the i-th summand word into the sum object S."""
    w = (S[i],)
    blocks = {}
    for k in E.obj_sectors(C, w):
        d = E.obj_dim(C, w, k)
        mat = np.zeros((E.obj_dim(C, S, k), d), dtype=complex)
        off = E.obj_offsets(C, S, k)[i]
        mat[off:off + d, :] = np.eye(d)
        blocks[k] = mat
    return E.Morphism(C, w, S, blocks)


def project(E, C, S, i):
    """Projection of the sum object S onto its i-th summand word."""
    inj = inject(E, C, S, i)
    return E.Morphism(C, S, inj.src, {k: blk.T.copy() for k, blk in inj.blocks.items()})


# ---------------------------------------------------------------------------
# module maps
# ---------------------------------------------------------------------------

def intertwiner_by_units(E, C, X, Y):
    """The module-map equations f∘ρ_l − ρ_l∘(id_A⊗f) and, when X and Y both
    have a right action, f∘ρ_r − ρ_r∘(f⊗id_A), applied to E.from_vec of each
    row of eye(hom_dim): column u holds the E.vec of both results for the
    u-th matrix unit of Hom(X, Y), the left equation's entries first."""
    id_a = E.identity(C, X.alg.obj)
    equations = [lambda f: f @ X.rho_l - Y.rho_l @ E.tensor(C, id_a, f)]
    if X.rho_r is not None and Y.rho_r is not None:
        equations.append(lambda f: f @ X.rho_r - Y.rho_r @ E.tensor(C, f, id_a))
    cols = []
    for e in np.eye(E.hom_dim(C, X.obj, Y.obj), dtype=complex):
        f = E.from_vec(C, X.obj, Y.obj, e)
        cols.append(np.concatenate([E.vec(eq(f)) for eq in equations]))
    return np.array(cols).T


# ---------------------------------------------------------------------------
# traces, module axioms and the duality pairing as composites
# ---------------------------------------------------------------------------

def trace_right(E, C, f):
    """tr(f) via the closed diagram d~ ∘ (f ⊗ id) ∘ b."""
    S = f.src
    m = E.cap_tilde_obj(C, S) @ E.tensor(C, f, E.identity(C, E.dual_obj(C, S))) @ E.cup_obj(C, S)
    return m.scalar()


def trace_left(E, C, f):
    """tr(f) via the closed diagram d ∘ (id ⊗ f) ∘ b~."""
    S = f.src
    m = E.cap_obj(C, S) @ E.tensor(C, E.identity(C, E.dual_obj(C, S)), f) @ E.cup_tilde_obj(C, S)
    return m.scalar()


def module_residuals(E, C, X):
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


@dataclass
class NondegReport:
    """Outcome of the duality-pairing invertibility check."""

    iso_residual: float
    rank: int
    passed: bool


def nondegeneracy(E, F, C, A):
    """Invertibility of the duality pairing Φ = ((ε∘m) ⊗ id) ∘ (id ⊗ b):
    A -> A∨, against the explicit inverse (d ⊗ id) ∘ (id ⊗ Δ∘η)."""
    A = F.with_costructure(C, A)
    Ad = E.dual_obj(C, A.obj)
    phi = E.tensor(C, A.eps @ A.m, E.identity(C, Ad)) @ E.tensor(
        C, E.identity(C, A.obj), E.cup_obj(C, A.obj)
    )
    psi = E.tensor(C, E.cap_obj(C, A.obj), E.identity(C, A.obj)) @ E.tensor(
        C, E.identity(C, Ad), A.delta @ A.eta
    )
    res = max(
        ((psi @ phi) - E.identity(C, A.obj)).norm(),
        ((phi @ psi) - E.identity(C, Ad)).norm(),
    )
    rank = sum(int(np.linalg.matrix_rank(blk)) for blk in phi.blocks.values())
    full = E.hom_dim(C, A.obj, Ad)
    return NondegReport(iso_residual=res, rank=rank,
                        passed=bool(res < C.thresholds.identity and rank == full))


def pentagon_by_pairs(M, C):
    """The pentagon residual of ``C`` as ``M._pentagon_residual`` found it
    with one pass per pair of first letters (a, b), handed the mtc module
    ``M`` for its moves: every pass forms and sums each equation's terms
    in the order of a batched pass, so the two must agree bit for bit."""
    n, N = C.rank, C.N
    m = max(int(N.max()), 1)
    left = C._left.chans
    x, y, z = np.nonzero(N[:, 1:])
    own, m3 = M._split(N[x, y + 1, z])
    per_g = np.bincount(x[own], minlength=n)
    vertices = np.stack([y[own] + 1, z[own], m3])

    def tag(s):
        return (((((s["tree"] * n + s["l"]) * m + s["t1"]) * m + s["t2"]) * n + s["k"])
                * m + s["s2"])

    worst = 0.0
    for a, b in itertools.product(range(1, n), repeat=2):
        rows = np.flatnonzero((left[0] == a) & (left[1] == b) & (left[2] > 0))
        tops = dict(zip("c g f1 m1 m2".split(), left[2:, rows]))
        tops["coef"] = np.ones(rows.size, dtype=complex)
        start, owner, off = M._expand(tops, per_g[tops["g"]])
        start.update(zip("d E m3".split(),
                         vertices[:, (np.cumsum(per_g) - per_g)[tops["g"]][owner] + off]))
        start["tree"] = np.arange(owner.size)
        s = M._f_move(C, start, (a, b, start["c"], start["g"]), "f1 m1 m2", "h r1 r2")
        s = M._f_move(C, s, (a, s["h"], s["d"], s["E"]), "g r2 m3", "k s1 s2")
        lhs = M._f_move(C, s, (b, s["c"], s["d"], s["k"]), "h r1 s1", "l t1 t2")
        s = M._f_move(C, start, (start["f1"], start["c"], start["d"], start["E"]),
                      "g m2 m3", "l t1 n2")
        rhs = M._f_move(C, s, (a, b, s["l"], s["E"]), "f1 m1 n2", "k t2 s2")
        worst = max(worst, M._worst_difference(tag, lhs, rhs))
    return worst


# ---------------------------------------------------------------------------
# serialization and gauge moves
# ---------------------------------------------------------------------------

def to_document(M, C):
    """Serialize ``C`` back to the JSON document shape that ``M.load_mtc``
    accepts, handed the mtc module ``M`` for its channel tables."""
    labels = C.labels
    fusion = [
        {"a": labels[a], "b": labels[b], "c": labels[c], "mult": int(C.N[a, b, c])}
        for a, b, c in itertools.product(range(C.rank), repeat=3)
        if C.N[a, b, c] > 0
    ]
    ncol = C._right.count
    q, off = M._split(C._left.count * ncol)
    cells = M._f_channels(C, q, off // ncol[q], off % ncol[q])
    keep = (cells[:3] > 0).all(axis=0)
    f_entries = [
        {"a": labels[a], "b": labels[b], "c": labels[c], "d": labels[d],
         "e": labels[e], "f": labels[f], "mu": mu, "nu": nu, "rho": rho, "sigma": sigma,
         "val": [v.real, v.imag]}
        for (a, b, c, d, e, mu, nu, f, rho, sigma), v in zip(cells[:, keep].T.tolist(),
                                                            C._F[keep])
    ]
    r_entries = [
        {"a": labels[a], "b": labels[b], "c": labels[c], "mu": mu, "nu": nu,
         "val": [v.real, v.imag]}
        for a, b, c in itertools.product(range(1, C.rank), range(1, C.rank), range(C.rank))
        for (mu, nu), v in np.ndenumerate(C.rmat(a, b, c))
    ]
    return {
        "labels": list(labels),
        "unit": labels[0],
        "dual": {labels[i]: labels[C.dual[i]] for i in range(C.rank)},
        "fusion": fusion,
        "F": f_entries,
        "R": r_entries,
        "twist": {labels[i]: [C.twist[i].real, C.twist[i].imag] for i in range(C.rank)},
    }


def gauge_transform(M, C, g):
    """Change the basis of every splitting space Hom(e, a ⊗ b) of ``C``,
    handed the mtc module ``M``.

    ``g`` maps (a, b, e) label triples to invertible matrices of size
    N[a,b,e]; absent triples (and all unit triples) keep the identity.
    Each F^{abc}_d becomes Lᵀ·F·R⁻ᵀ, where L and R act on its left and
    right channels by the gauge blocks of their two vertices, so entry by
    entry it is the sum over μ′, ν′, ρ′, σ′ of
    g_ab_e[μ′,μ]·g_ec_d[ν′,ν]·F[(e,μ′,ν′),(f,ρ′,σ′)]·g_bc_f⁻¹[ρ,ρ′]·g_af_d⁻¹[σ,σ′];
    each R^{ab}_c becomes g(b,a;c)⁻¹·R·g(a,b;c).
    The result is re-validated by ``M.load_mtc``, so a non-invertible input
    surfaces as an AxiomViolation rather than silent nonsense.
    """

    def gm(a, b, e):
        mat = None if 0 in (a, b) else g.get((a, b, e))
        return np.eye(C.N[a, b, e], dtype=complex) if mat is None else np.asarray(mat, dtype=complex)

    def channel_gauge(chans, first, second):
        # block diagonal: the consecutive channels (x, m1, m2) of one label x
        # take kron(g(first(x)), g(second(x)))
        out = np.zeros((len(chans), len(chans)), dtype=complex)
        i = 0
        for x, _ in itertools.groupby(chans[:, 0].tolist()):
            blk = np.kron(gm(*first(x)), gm(*second(x)))
            out[i:i + len(blk), i:i + len(blk)] = blk
            i += len(blk)
        return out

    n = C.rank
    # the moved data is never loaded, so its tables are still writable
    moved = M.MtcData(labels=C.labels, dual=C.dual, N=C.N, twist=C.twist, tol=C.tol)
    for a, b, c, d in itertools.product(range(1, n), range(1, n), range(1, n), range(n)):
        if not C.fmat(a, b, c, d).size:
            continue
        lg = channel_gauge(C.left_channels(a, b, c, d), lambda e: (a, b, e), lambda e: (e, c, d))
        rg = channel_gauge(C.right_channels(a, b, c, d), lambda f: (b, c, f), lambda f: (a, f, d))
        moved.fmat(a, b, c, d)[:] = lg.T @ C.fmat(a, b, c, d) @ np.linalg.inv(rg).T
    for a, b, c in itertools.product(range(1, n), range(1, n), range(n)):
        moved.rmat(a, b, c)[:] = np.linalg.inv(gm(b, a, c)) @ C.rmat(a, b, c) @ gm(a, b, c)
    return M.load_mtc(to_document(M, moved), tol=C.tol)


def random_gauge(M, C, rng):
    """Apply a random, well-conditioned basis change to every splitting
    space of ``C`` (:func:`gauge_transform`, handed the mtc module ``M``)."""
    g = {}
    for a, b, e in itertools.product(range(1, C.rank), range(1, C.rank), range(C.rank)):
        m = C.N[a, b, e]
        if m == 0:
            continue
        while True:
            mat = np.eye(m) + 0.4 * (
                rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
            )
            if np.linalg.cond(mat) < 20.0:
                break
        g[(a, b, e)] = mat
    return gauge_transform(M, C, g)
