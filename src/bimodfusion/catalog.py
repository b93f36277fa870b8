"""Built-in example categories.

Each builder returns a plain document dict in the schema accepted by
:func:`bimodfusion.mtc.load_mtc`; :func:`catalog` loads and validates it.
The numeric tables were fixed by solving the pentagon/hexagon equations for
the respective fusion rings (rank-2 and rank-3 cases by independent
brute-force searches; the su2 levels from the closed q-deformed recoupling
formula) and are re-verified against the coherence axioms on every load.
"""
from __future__ import annotations

import cmath
import itertools
import math

from .errors import UnknownCatalogName
from .mtc import DEFAULT_TOL, CatalogEntry, MtcData, load_mtc

__all__ = ["CATALOG_NAMES", "catalog", "catalog_document"]

CATALOG_NAMES = (
    "trivial",
    "vec_z2", "vec_z3", "vec_z4", "vec_z5",
    "fibonacci",
    "ising",
    "toric_code",
    "su2_1", "su2_2", "su2_3", "su2_4",
)


def _c2(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _fusion_entries(labels, nmap):
    return [
        {"a": a, "b": b, "c": c, "mult": m}
        for (a, b, c), m in sorted(nmap.items())
        if m > 0
    ]


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def _trivial_doc() -> dict:
    return {
        "labels": ["1"],
        "unit": "1",
        "dual": {"1": "1"},
        "fusion": [{"a": "1", "b": "1", "c": "1", "mult": 1}],
        "F": [],
        "R": [],
        "twist": {"1": [1.0, 0.0]},
    }


def _vec_zn_doc(n: int) -> dict:
    """Pointed category on Z_n from a quadratic form.

    Odd n: trivial associator, theta_a = exp(2 pi i a^2/n) and
    R(a,b) = exp(2 pi i ab/n).  Even n: theta_a = exp(pi i a^2/n),
    R(a,b) = exp(pi i ab/n), and the associator is the carry sign
    F(a,b,c) = (-1)^(a * floor((b+c)/n)).
    """
    labels = [str(a) for a in range(n)]
    nmap = {(labels[a], labels[b], labels[(a + b) % n]): 1
            for a in range(n) for b in range(n)}
    F = []
    for a, b, c in itertools.product(range(1, n), repeat=3):
        if n % 2 == 1:
            val = 1.0
        else:
            val = float((-1) ** (a * ((b + c) // n)))
        F.append({
            "a": labels[a], "b": labels[b], "c": labels[c],
            "d": labels[(a + b + c) % n],
            "e": labels[(a + b) % n], "f": labels[(b + c) % n],
            "val": [val, 0.0],
        })
    if n % 2 == 1:
        braid_phase = 2j * math.pi / n
        twist_phase = 2j * math.pi / n
    else:
        braid_phase = 1j * math.pi / n
        twist_phase = 1j * math.pi / n
    R = [
        {"a": labels[a], "b": labels[b], "c": labels[(a + b) % n],
         "val": _c2(cmath.exp(braid_phase * a * b))}
        for a in range(1, n) for b in range(1, n)
    ]
    return {
        "labels": labels,
        "unit": "0",
        "dual": {labels[a]: labels[(n - a) % n] for a in range(n)},
        "fusion": _fusion_entries(labels, nmap),
        "F": F,
        "R": R,
        "twist": {labels[a]: _c2(cmath.exp(twist_phase * a * a)) for a in range(n)},
    }


def _fibonacci_doc() -> dict:
    """Rank-2 category with t*t = 1 + t; the golden-ratio pentagon solution."""
    phi = (1 + math.sqrt(5)) / 2
    s = 1 / math.sqrt(phi)
    f_t = {("1", "1"): 1 / phi, ("1", "t"): s, ("t", "1"): s, ("t", "t"): -1 / phi}
    F = [
        {"a": "t", "b": "t", "c": "t", "d": "t", "e": e, "f": f, "val": [val, 0.0]}
        for (e, f), val in f_t.items()
    ]
    F.append({"a": "t", "b": "t", "c": "t", "d": "1", "e": "t", "f": "t", "val": [1.0, 0.0]})
    R = [
        {"a": "t", "b": "t", "c": "1", "val": _c2(cmath.exp(-4j * math.pi / 5))},
        {"a": "t", "b": "t", "c": "t", "val": _c2(cmath.exp(3j * math.pi / 5))},
    ]
    return {
        "labels": ["1", "t"],
        "unit": "1",
        "dual": {"1": "1", "t": "t"},
        "fusion": _fusion_entries(None, {
            ("1", "1", "1"): 1, ("1", "t", "t"): 1, ("t", "1", "t"): 1,
            ("t", "t", "1"): 1, ("t", "t", "t"): 1,
        }),
        "F": F,
        "R": R,
        "twist": {"1": [1.0, 0.0], "t": _c2(cmath.exp(4j * math.pi / 5))},
    }


def _ising_doc() -> dict:
    """Rank-3 category 1, sigma, psi with sigma^2 = 1 + psi.

    Signs below are the unique pentagon solution (up to gauge) with the
    normalized [F^{sss}_s] block; the R phases are the hexagon branch with
    theta_sigma = exp(i pi/8).
    """
    s, p = "sigma", "psi"
    nmap = {
        ("1", "1", "1"): 1, ("1", s, s): 1, ("1", p, p): 1,
        (s, "1", s): 1, (p, "1", p): 1,
        (s, s, "1"): 1, (s, s, p): 1, (s, p, s): 1, (p, s, s): 1, (p, p, "1"): 1,
    }
    isq = 1 / math.sqrt(2)
    F = []

    def fe(a, b, c, d, e, f, val):
        F.append({"a": a, "b": b, "c": c, "d": d, "e": e, "f": f,
                  "val": [float(val), 0.0]})

    fe(s, s, s, s, "1", "1", isq)
    fe(s, s, s, s, "1", p, isq)
    fe(s, s, s, s, p, "1", isq)
    fe(s, s, s, s, p, p, -isq)
    fe(s, s, p, "1", p, s, 1)
    fe(s, p, s, "1", s, s, 1)
    fe(p, s, s, "1", s, p, 1)
    fe(s, s, p, p, "1", s, 1)
    fe(s, p, s, p, s, s, -1)
    fe(p, s, s, p, s, "1", 1)
    fe(s, p, p, s, s, "1", 1)
    fe(p, s, p, s, s, s, -1)
    fe(p, p, s, s, "1", s, 1)
    fe(p, p, p, p, "1", "1", 1)
    R = [
        {"a": s, "b": s, "c": "1", "val": _c2(cmath.exp(-1j * math.pi / 8))},
        {"a": s, "b": s, "c": p, "val": _c2(cmath.exp(3j * math.pi / 8))},
        {"a": s, "b": p, "c": s, "val": [0.0, -1.0]},
        {"a": p, "b": s, "c": s, "val": [0.0, -1.0]},
        {"a": p, "b": p, "c": "1", "val": [-1.0, 0.0]},
    ]
    return {
        "labels": ["1", s, p],
        "unit": "1",
        "dual": {"1": "1", s: s, p: p},
        "fusion": _fusion_entries(None, nmap),
        "F": F,
        "R": R,
        "twist": {"1": [1.0, 0.0], s: _c2(cmath.exp(1j * math.pi / 8)), p: [-1.0, 0.0]},
    }


def _toric_code_doc() -> dict:
    """Rank-4 pointed category on Z2 x Z2; e and m bosons braiding to -1."""
    comp = {"1": (0, 0), "e": (1, 0), "m": (0, 1), "f": (1, 1)}
    labels = ["1", "e", "m", "f"]
    inv = {v: k for k, v in comp.items()}

    def mul(x, y):
        return inv[((comp[x][0] + comp[y][0]) % 2, (comp[x][1] + comp[y][1]) % 2)]

    nmap = {(a, b, mul(a, b)): 1 for a in labels for b in labels}
    F = [
        {"a": a, "b": b, "c": c, "d": mul(mul(a, b), c), "e": mul(a, b), "f": mul(b, c),
         "val": [1.0, 0.0]}
        for a, b, c in itertools.product(labels[1:], repeat=3)
    ]
    R = [
        {"a": a, "b": b, "c": mul(a, b),
         "val": [float((-1) ** (comp[a][1] * comp[b][0])), 0.0]}
        for a in labels[1:] for b in labels[1:]
    ]
    return {
        "labels": labels,
        "unit": "1",
        "dual": {lab: lab for lab in labels},
        "fusion": _fusion_entries(None, nmap),
        "F": F,
        "R": R,
        "twist": {"1": [1.0, 0.0], "e": [1.0, 0.0], "m": [1.0, 0.0], "f": [-1.0, 0.0]},
    }


def _su2_qint(k: int, m: int) -> float:
    return math.sin(m * math.pi / (k + 2)) / math.sin(math.pi / (k + 2))


def _su2_qfact(k: int, m: int) -> float:
    out = 1.0
    for i in range(1, m + 1):
        out *= _su2_qint(k, i)
    return out


def _su2_admissible(k: int, a: int, b: int, c: int) -> bool:
    return (
        (a + b + c) % 2 == 0
        and abs(a - b) <= c <= a + b
        and a + b + c <= 2 * k
    )


def _su2_delta(k: int, a: int, b: int, c: int) -> float:
    num = (
        _su2_qfact(k, (-a + b + c) // 2)
        * _su2_qfact(k, (a - b + c) // 2)
        * _su2_qfact(k, (a + b - c) // 2)
    )
    return math.sqrt(num / _su2_qfact(k, (a + b + c) // 2 + 1))


def _su2_recoupling(k: int, a: int, b: int, e: int, c: int, d: int, f: int) -> float:
    """q-deformed 6j symbol for doubled-spin labels, Racah sum form."""
    for x, y, z in ((a, b, e), (a, d, f), (c, b, f), (c, d, e)):
        if not _su2_admissible(k, x, y, z):
            return 0.0
    start = max(a + b + e, e + c + d, b + c + f, a + f + d) // 2
    stop = min(a + b + c + d, a + e + c + f, b + e + d + f) // 2
    total = 0.0
    for z in range(start, stop + 1):
        denom = (
            _su2_qfact(k, z - (a + b + e) // 2)
            * _su2_qfact(k, z - (e + c + d) // 2)
            * _su2_qfact(k, z - (b + c + f) // 2)
            * _su2_qfact(k, z - (a + f + d) // 2)
            * _su2_qfact(k, (a + b + c + d) // 2 - z)
            * _su2_qfact(k, (a + e + c + f) // 2 - z)
            * _su2_qfact(k, (b + e + d + f) // 2 - z)
        )
        total += (-1) ** z * _su2_qfact(k, z + 1) / denom
    return total * (
        _su2_delta(k, a, b, e) * _su2_delta(k, e, c, d)
        * _su2_delta(k, b, c, f) * _su2_delta(k, a, f, d)
    )


def _su2_f(k: int, a: int, b: int, c: int, d: int, e: int, f: int) -> float:
    pref = (-1) ** ((a + b + c + d) // 2)
    pref *= math.sqrt(_su2_qint(k, e + 1) * _su2_qint(k, f + 1))
    return pref * _su2_recoupling(k, a, b, e, c, d, f)


def _su2_k_doc(k: int) -> dict:
    """Level-k quantum-deformed spin category on doubled labels 0..k."""
    labels = [str(a) for a in range(k + 1)]
    q_phase = 2 * math.pi / (k + 2)
    nmap = {}
    for a, b, c in itertools.product(range(k + 1), repeat=3):
        if _su2_admissible(k, a, b, c):
            nmap[(labels[a], labels[b], labels[c])] = 1
    F = []
    for a, b, c in itertools.product(range(1, k + 1), repeat=3):
        for d in range(k + 1):
            es = [e for e in range(k + 1)
                  if _su2_admissible(k, a, b, e) and _su2_admissible(k, e, c, d)]
            fs = [f for f in range(k + 1)
                  if _su2_admissible(k, b, c, f) and _su2_admissible(k, a, f, d)]
            for e, f in itertools.product(es, fs):
                F.append({
                    "a": labels[a], "b": labels[b], "c": labels[c], "d": labels[d],
                    "e": labels[e], "f": labels[f],
                    "val": [_su2_f(k, a, b, c, d, e, f), 0.0],
                })
    R = []
    for a, b in itertools.product(range(1, k + 1), repeat=2):
        for c in range(k + 1):
            if not _su2_admissible(k, a, b, c):
                continue
            val = (-1) ** ((c - a - b) // 2) * cmath.exp(
                1j * q_phase * (c * (c + 2) - a * (a + 2) - b * (b + 2)) / 8
            )
            R.append({"a": labels[a], "b": labels[b], "c": labels[c], "val": _c2(val)})
    twist = {
        labels[a]: _c2(cmath.exp(1j * q_phase * a * (a + 2) / 4))
        for a in range(k + 1)
    }
    return {
        "labels": labels,
        "unit": "0",
        "dual": {lab: lab for lab in labels},
        "fusion": _fusion_entries(None, nmap),
        "F": F,
        "R": R,
        "twist": twist,
    }


_BUILDERS = {
    "trivial": (_trivial_doc, "one-object category; all structure maps trivial"),
    "fibonacci": (
        _fibonacci_doc,
        "golden-ratio pentagon solution for the rank-2 ring t*t=1+t, braiding from "
        "the hexagon branch with twist exp(4 pi i/5)",
    ),
    "ising": (
        _ising_doc,
        "pentagon sign solution for the rank-3 ring sigma^2=1+psi with normalized "
        "[F^{sss}_s]; hexagon branch with twist exp(i pi/8) on sigma",
    ),
    "toric_code": (
        _toric_code_doc,
        "pointed Z2 x Z2 data with trivial associator and the e/m mutual -1 braiding",
    ),
}
for _n in (2, 3, 4, 5):
    _BUILDERS[f"vec_z{_n}"] = (
        (lambda n: lambda: _vec_zn_doc(n))(_n),
        f"pointed Z_{_n} category from the standard quadratic form "
        f"(carry-sign associator for even n)",
    )
for _k in (1, 2, 3, 4):
    _BUILDERS[f"su2_{_k}"] = (
        (lambda k: lambda: _su2_k_doc(k))(_k),
        f"level-{_k} quantum-deformed spin category from the closed q-6j "
        f"recoupling formula at q = exp(2 pi i/{_k + 2})",
    )


def catalog_document(name: str) -> dict:
    """The raw document for a built-in category (before validation)."""
    if name not in _BUILDERS:
        raise UnknownCatalogName(
            f"unknown catalog name {name!r}; choose from {', '.join(CATALOG_NAMES)}"
        )
    return _BUILDERS[name][0]()


def catalog(name: str, tol: float = DEFAULT_TOL) -> CatalogEntry:
    """Load, validate, and wrap a built-in category."""
    doc = catalog_document(name)
    data: MtcData = load_mtc(doc, tol=tol)
    return CatalogEntry(name=name, data=data, provenance=_BUILDERS[name][1])
