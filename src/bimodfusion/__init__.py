"""Bimodule categories over Frobenius algebras in modular tensor categories.

The pieces, bottom to top:

- :mod:`bimodfusion.mtc` — skeletal category data (fusion rules, F, R,
  twists), document parsing, axiom checks, the S-matrix.
- :mod:`bimodfusion.engine` — morphisms between sums of tensor words and
  the string-diagram moves on them (compose, tensor, braid, duals, traces).
- :mod:`bimodfusion.frobenius` — symmetric special Frobenius algebras:
  parsing, validation, costructure derivation, basis changes.
- :mod:`bimodfusion.bimodules` — two-sided modules, induction, Hom
  counting, the z-matrix, and decomposition into simples.
- :mod:`bimodfusion.fusion_algebra` — defect operators, the d-matrix, the
  fusion table by two independent routes, and the aggregated verification.
- :mod:`bimodfusion.catalog` — built-in example categories.
- :mod:`bimodfusion.cli` / :mod:`bimodfusion.reports` — the command-line
  surface and deterministic report rendering.
"""
from __future__ import annotations

from .bimodules import (
    Bimodule,
    ZMatrix,
    alpha_induce,
    hom_bimodule,
    regular_bimodule,
    simple_bimodules,
    simple_left_modules,
    tensor_over_A,
    z_matrix,
)
from .catalog import CATALOG_NAMES, catalog
from .errors import BimodfusionError
from .frobenius import (
    AlgebraSpec,
    load_algebra,
    normalize_counit,
    parse_algebra,
    trivial_algebra,
    validate_algebra,
)
from .fusion_algebra import (
    DMatrix,
    FusionTable,
    TheoremOReport,
    D_map,
    d_matrix,
    defect_identity,
    fusion_table_blockdiag,
    fusion_table_direct,
    verify_theorem_o,
)
from .mtc import MtcData, load_mtc, s_matrix, verify_modular

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpec",
    "Bimodule",
    "BimodfusionError",
    "CATALOG_NAMES",
    "DMatrix",
    "D_map",
    "FusionTable",
    "MtcData",
    "TheoremOReport",
    "ZMatrix",
    "alpha_induce",
    "catalog",
    "d_matrix",
    "defect_identity",
    "fusion_table_blockdiag",
    "fusion_table_direct",
    "hom_bimodule",
    "load_algebra",
    "load_mtc",
    "normalize_counit",
    "parse_algebra",
    "regular_bimodule",
    "s_matrix",
    "simple_bimodules",
    "simple_left_modules",
    "tensor_over_A",
    "trivial_algebra",
    "validate_algebra",
    "verify_modular",
    "verify_theorem_o",
    "z_matrix",
    "__version__",
]
