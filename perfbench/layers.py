"""Which package functions are traced, and the per-layer metrics made
from their spans.

The six layers are the package modules ``mtc``, ``frobenius``, ``engine``
(including the Hom solves in ``engine.nullspace_morphisms``),
``bimodules``, ``fusion_algebra`` and ``reports``. README.md lists which
end-to-end metric each of these numbers should move, on which workload.
"""
from __future__ import annotations

import math
from collections import Counter

from spans import Tracer, outer_totals, self_times

PACKAGE = "bimodfusion"
LAYERS = ("mtc", "frobenius", "engine", "bimodules", "fusion_algebra", "reports")

#: key kinds of ``MtcData._cache`` (the first element of each key tuple);
#: keys of any other kind are counted under ``engine.cache.other``.
CACHE_KINDS = (
    "L", "R", "Finv", "Rinv", "trees", "treepos", "offsets", "splitpos",
    "merge", "mergeinv", "sufemb", "badj", "bword", "dualcoef",
    "cup", "cap", "cupt", "capt",
)

#: (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = [
    ("mtc.load_s", "s", "lower"),
    ("mtc.load_calls", "count", "lower"),
    ("frobenius.normalize_s", "s", "lower"),
    ("engine.tensor_calls", "count", "lower"),
    ("engine.tensor_s", "s", "lower"),
    ("engine.braid_calls", "count", "lower"),
    ("engine.braid_s", "s", "lower"),
    *[(f"engine.cache.{kind}", "count", "lower") for kind in CACHE_KINDS],
    ("engine.cache.other", "count", "lower"),
    ("engine.nullspace_calls", "count", "lower"),
    ("engine.nullspace_s", "s", "lower"),
    ("engine.nullspace_cols", "count", "lower"),
    ("engine.nullspace_max_cols", "count", "lower"),
    ("bimodules.z_s", "s", "lower"),
    ("bimodules.z_calls", "count", "lower"),
    ("bimodules.simples_s", "s", "lower"),
    ("bimodules.left_modules_s", "s", "lower"),
    ("bimodules.tensor_over_A_calls", "count", "lower"),
    ("bimodules.tensor_over_A_s", "s", "lower"),
    ("bimodules.split_idempotent_calls", "count", "lower"),
    ("bimodules.iso_hit_ratio", "ratio", "higher"),
    ("fusion_algebra.d_matrix_s", "s", "lower"),
    ("fusion_algebra.direct_s", "s", "lower"),
    ("fusion_algebra.blockdiag_s", "s", "lower"),
    ("fusion_algebra.residual_s", "s", "lower"),
    ("fusion_algebra.D_map_calls", "count", "lower"),
    ("fusion_algebra.D_map_s", "s", "lower"),
    ("fusion_algebra.D_map_per_operator", "ratio", "lower"),
    ("fusion_algebra.unit_index_calls", "count", "lower"),
    ("reports.render_s", "s", "lower"),
    ("reports.bytes", "bytes", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    ("trace.overhead", "ratio", "lower"),
    ("margin.nullspace_min_gap", "ratio", "higher"),
    ("margin.sigma_min", "sv", "higher"),
    ("margin.homomorphism", "norm", "lower"),
    ("margin.unit_map", "norm", "lower"),
]

#: per-layer metrics that are times; the rest repeat exactly at one seed.
TIMED = {name for name, unit, _ in PER_LAYER if unit == "s"} | {"trace.overhead"}


class LayerStats:
    """Spans and call observations of one traced iteration."""

    def __init__(self, engine):
        self.engine = engine
        self.tracer = Tracer()
        self.nullspace_cols = 0
        self.nullspace_max_cols = 0
        self.min_gap = math.inf
        self.iso_true = 0
        self.operators: dict = {}  # (id(X), i, j) -> X, held so ids stay distinct
        self.sigma_min = math.inf
        self.homomorphism = 0.0
        self.unit_map = 0.0
        self.report_bytes = 0
        self.cache = Counter()

    # -- observers: fn(args, kwargs, result) ---------------------------------
    def _nullspace(self, args, kwargs, result):
        E = self.engine
        C, S, T = args[:3]
        # the same obj_dim lookups hom_space makes, so no cache entry is added
        cols = sum(E.obj_dim(C, S, k) * E.obj_dim(C, T, k)
                   for k in E.obj_sectors(C, S))
        self.nullspace_cols += cols
        self.nullspace_max_cols = max(self.nullspace_max_cols, cols)
        if isinstance(result, tuple) and math.isfinite(result[1]):
            self.min_gap = min(self.min_gap, result[1])

    def _is_isomorphic(self, args, kwargs, result):
        self.iso_true += bool(result)

    def _d_map(self, args, kwargs, result):
        X, i, j = args[2:5]
        self.operators[(id(X), i, j)] = X

    def _d_matrix(self, args, kwargs, result):
        self.sigma_min = min(self.sigma_min, result.sigma_min)

    def _verify(self, args, kwargs, result):
        self.homomorphism = max(self.homomorphism, result.residuals["homomorphism"])
        self.unit_map = max(self.unit_map, result.residuals["unit_map"])

    def _to_json(self, args, kwargs, result):
        self.report_bytes += len(result.encode("utf-8"))

    def targets(self) -> list:
        return [
            ("mtc", "load_mtc", None),
            ("mtc", "s_matrix", None),
            ("frobenius", "parse_algebra", None),
            ("frobenius", "trivial_algebra", None),
            ("frobenius", "normalize_counit", None),
            ("engine", "tensor", None),
            ("engine", "braid", None),
            ("engine", "nullspace_morphisms", self._nullspace),
            ("bimodules", "z_matrix", None),
            ("bimodules", "simple_bimodules", None),
            ("bimodules", "simple_left_modules", None),
            ("bimodules", "tensor_over_A", None),
            ("bimodules", "split_idempotent", None),
            ("bimodules", "is_isomorphic", self._is_isomorphic),
            ("fusion_algebra", "verify_theorem_o", self._verify),
            ("fusion_algebra", "d_matrix", self._d_matrix),
            ("fusion_algebra", "fusion_table_direct", None),
            ("fusion_algebra", "fusion_table_blockdiag", None),
            ("fusion_algebra", "D_map", self._d_map),
            ("fusion_algebra", "_unit_index", None),
            ("reports", "to_json", self._to_json),
        ]

    def count_cache(self, C) -> None:
        """Add the entries of one category's engine cache, by key kind."""
        for key in C._cache:
            kind = key[0] if isinstance(key, tuple) and key else None
            self.cache[kind if kind in CACHE_KINDS else "other"] += 1

    def metrics(self) -> dict:
        """Every per-layer metric except ``trace.overhead``; a layer that
        did not run reads 0."""
        spans = self.tracer.spans
        calls = Counter(s.name for s in spans)
        total = outer_totals(spans)
        own = self_times(spans)
        layer_self = Counter()
        for s in spans:
            layer_self[s.name.split(".")[0]] += own[s.id]
        # the unit-map and homomorphism loops: verify_theorem_o after the
        # block-diagonal table is back
        residual = 0
        ends = {}
        for s in spans:
            if s.name == "fusion_algebra.fusion_table_blockdiag" and s.parent is not None:
                ends[s.parent] = max(ends.get(s.parent, 0), s.end)
        for s in spans:
            if s.name == "fusion_algebra.verify_theorem_o" and s.id in ends:
                residual += s.end - ends[s.id]

        def sec(name):
            return total[name] / 1e9

        out = {
            "mtc.load_s": sec("mtc.load_mtc"),
            "mtc.load_calls": calls["mtc.load_mtc"],
            "frobenius.normalize_s": sec("frobenius.normalize_counit"),
            "engine.tensor_calls": calls["engine.tensor"],
            "engine.tensor_s": sec("engine.tensor"),
            "engine.braid_calls": calls["engine.braid"],
            "engine.braid_s": sec("engine.braid"),
        }
        for kind in (*CACHE_KINDS, "other"):
            out[f"engine.cache.{kind}"] = self.cache[kind]
        out.update({
            "engine.nullspace_calls": calls["engine.nullspace_morphisms"],
            "engine.nullspace_s": sec("engine.nullspace_morphisms"),
            "engine.nullspace_cols": self.nullspace_cols,
            "engine.nullspace_max_cols": self.nullspace_max_cols,
            "bimodules.z_s": sec("bimodules.z_matrix"),
            "bimodules.z_calls": calls["bimodules.z_matrix"],
            "bimodules.simples_s": sec("bimodules.simple_bimodules"),
            "bimodules.left_modules_s": sec("bimodules.simple_left_modules"),
            "bimodules.tensor_over_A_calls": calls["bimodules.tensor_over_A"],
            "bimodules.tensor_over_A_s": sec("bimodules.tensor_over_A"),
            "bimodules.split_idempotent_calls": calls["bimodules.split_idempotent"],
            "bimodules.iso_hit_ratio": _ratio(self.iso_true, calls["bimodules.is_isomorphic"]),
            "fusion_algebra.d_matrix_s": sec("fusion_algebra.d_matrix"),
            "fusion_algebra.direct_s": sec("fusion_algebra.fusion_table_direct"),
            "fusion_algebra.blockdiag_s": sec("fusion_algebra.fusion_table_blockdiag"),
            "fusion_algebra.residual_s": residual / 1e9,
            "fusion_algebra.D_map_calls": calls["fusion_algebra.D_map"],
            "fusion_algebra.D_map_s": sec("fusion_algebra.D_map"),
            "fusion_algebra.D_map_per_operator": _ratio(calls["fusion_algebra.D_map"],
                                                        len(self.operators)),
            "fusion_algebra.unit_index_calls": calls["fusion_algebra._unit_index"],
            "reports.render_s": sec("reports.to_json"),
            "reports.bytes": self.report_bytes,
        })
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer] / 1e9
        out.update({
            "margin.nullspace_min_gap": _finite(self.min_gap),
            "margin.sigma_min": _finite(self.sigma_min),
            "margin.homomorphism": self.homomorphism,
            "margin.unit_map": self.unit_map,
        })
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _finite(x: float) -> float:
    return x if math.isfinite(x) else 0.0
