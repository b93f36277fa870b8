"""Command-line interface wiring documents to computations.

Exit status: 0 when the requested check passes, 1 when a computation fails
or an axiom is violated, 2 for usage and document-parse errors and for an
``--out`` file that cannot be written.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import bimodules as B
from . import engine as E
from . import frobenius as F
from . import fusion_algebra as FA
from . import mtc
from . import reports
from .catalog import CATALOG_NAMES, catalog
from .errors import (
    AxiomViolation,
    BimodfusionError,
    InvalidTolerance,
    MissingSymbol,
    ParseError,
    ShapeError,
    UnknownCatalogName,
)

_DOCUMENT_ERRORS = (
    InvalidTolerance,
    ParseError,
    ShapeError,
    MissingSymbol,
    UnknownCatalogName,
)


def _category(args) -> mtc.MtcData:
    ref = getattr(args, "doc", None) or args.cat
    if ref is None:
        raise ParseError("no category given: pass --cat PATH or --cat catalog:<name>")
    if ref.startswith("catalog:"):
        return catalog(ref[len("catalog:"):], tol=args.tol).data
    return mtc.load_mtc(mtc.read_document(ref), tol=args.tol)


def _algebra(args, C: mtc.MtcData, normalized: bool = True) -> F.AlgebraSpec:
    if args.alg is None:
        raise ParseError("no algebra given: pass --alg PATH or --alg trivial")
    if args.alg == "trivial":
        A = F.trivial_algebra(C)
    else:
        A = F.load_algebra(C, args.alg)
    return F.normalize_counit(C, A) if normalized else A


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_validate(args):
    C = _category(args)
    rep = {"kind": "validate", "labels": list(C.labels), "rank": C.rank}
    rep.update(mtc.verify_modular(C))
    rep["pass"] = True
    return 0, rep


def _cmd_smatrix(args):
    C = _category(args)
    rep = {"kind": "smatrix", "labels": list(C.labels),
           "s": mtc.s_matrix(C).entries}
    rep.update(mtc.verify_modular(C))
    return 0, rep


def _cmd_algebra_check(args):
    C = _category(args)
    A = _algebra(args, C, normalized=False)
    rep = {"kind": "algebra-check"}
    rep.update(F.validate_algebra(C, A))
    return (0 if rep["pass"] else 1), rep


def _cmd_z(args):
    C = _category(args)
    A = _algebra(args, C)
    z = B.z_matrix(C, A)
    rep = {
        "kind": "z",
        "labels": list(C.labels),
        "z": z.entries,
        "trace": z.trace,
        "pair_count": z.pair_count,
    }
    return 0, rep


def _cmd_simples(args):
    C = _category(args)
    A = _algebra(args, C)
    simples = B.simple_bimodules(C, A, seed=args.seed)
    rep = {
        "kind": "simples",
        "count": len(simples),
        "labels": list(C.labels),
        "simples": [
            {"index": t, "profile": E.obj_dims(C, X.obj)}
            for t, X in enumerate(simples)
        ],
    }
    return 0, rep


def _table_report(kind: str, table: FA.FusionTable, extra: dict) -> tuple:
    axioms = table.check()
    rep = {"kind": kind, "unit": table.unit, "table": table.table}
    rep.update(extra)
    rep["axioms"] = axioms
    rep["pass"] = max(axioms.values()) == 0
    return (0 if rep["pass"] else 1), rep


def _cmd_fusion(args):
    C = _category(args)
    A = _algebra(args, C)
    simples = B.simple_bimodules(C, A, seed=args.seed)
    table = FA.fusion_table_direct(C, A, simples)
    return _table_report("fusion", table, {"route": "direct"})


def _cmd_blockdiag(args):
    C = _category(args)
    A = _algebra(args, C)
    simples = B.simple_bimodules(C, A, seed=args.seed)
    d = FA.d_matrix(C, A, simples)
    table = FA.fusion_table_blockdiag(C, d)
    return _table_report(
        "blockdiag", table, {"route": "blockdiag", "sigma_min": d.sigma_min}
    )


def _cmd_verify_o(args):
    C = _category(args)
    A = _algebra(args, C)
    report = FA.verify_theorem_o(C, A, seed=args.seed)
    rep = report.to_dict()
    return (0 if report.passed else 1), rep


def _cmd_defect_check(args):
    C = _category(args)
    A = _algebra(args, C)
    simples = B.simple_bimodules(C, A, seed=args.seed)
    table = FA.fusion_table_direct(C, A, simples)
    k = len(simples)
    exhaustive = [
        (a, b, j) for a in range(k) for b in range(k) for j in range(C.rank)
    ]
    if args.triples == "all" or (args.triples == "auto" and len(exhaustive) <= 256):
        triples = exhaustive
    else:
        count = 20 if args.triples == "auto" else args.triples
        rng = np.random.default_rng(args.seed)
        idx = rng.integers(0, len(exhaustive), size=count)
        triples = [exhaustive[t] for t in idx]
    rows = [
        FA.defect_identity(C, A, a, b, j, simples, table) for a, b, j in triples
    ]
    tol = C.thresholds.residual
    worst = max(row["residual"] for row in rows)
    rep = {
        "kind": "defect-check",
        "count": len(rows),
        "max_residual": worst,
        "tol": tol,
        "triples": rows,
        "pass": worst < tol,
    }
    return (0 if rep["pass"] else 1), rep


def _triples(value: str):
    """--triples: 'all', 'auto', or a positive sample count."""
    if value in ("all", "auto"):
        return value
    try:
        count = int(value)
    except ValueError:
        count = 0
    if count <= 0:
        raise argparse.ArgumentTypeError(
            f"must be 'all', 'auto', or a positive count, got {value!r}")
    return count


def _seed(value: str) -> int:
    """--seed: a non-negative integer."""
    try:
        seed = int(value)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value!r}")
    return seed


def _cmd_catalog(args):
    entries = []
    for name in CATALOG_NAMES:
        C = catalog(name, tol=args.tol).data
        entries.append({"name": name, "rank": C.rank, "labels": list(C.labels)})
    return 0, {"kind": "catalog", "entries": entries}


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bimodfusion",
        description="Bimodule categories over Frobenius algebras in modular "
                    "tensor categories: z-matrices, simple objects, and "
                    "defect fusion rules.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=mtc.DEFAULT_TOL,
                        help="numerical tolerance, positive and at most 1e-4 (default 1e-9)")
    common.add_argument("--seed", type=_seed, default=0,
                        help="seed for all randomized steps, a non-negative integer (default 0)")
    common.add_argument("--format", choices=("table", "json"), default="table",
                        help="output format (default table)")
    common.add_argument("--cat",
                        help="category document path or catalog:<name>")
    common.add_argument("--alg",
                        help="algebra document path or 'trivial'")
    common.add_argument("--out",
                        help="write the report to this file instead of stdout")

    sub = top.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="parse a category document and check its axioms")
    p.add_argument("doc", nargs="?", help="category document (same as --cat)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("smatrix", parents=[common],
                       help="print the S-matrix and the modularity diagnostic")
    p.set_defaults(func=_cmd_smatrix)

    p = sub.add_parser("algebra-check", parents=[common],
                       help="residuals of the Frobenius-algebra axioms")
    p.set_defaults(func=_cmd_algebra_check)

    p = sub.add_parser("z", parents=[common],
                       help="the induction multiplicity matrix z")
    p.set_defaults(func=_cmd_z)

    p = sub.add_parser("simples", parents=[common],
                       help="decompose the bimodule category into simples")
    p.set_defaults(func=_cmd_simples)

    p = sub.add_parser("fusion", parents=[common],
                       help="fusion table by direct Hom counting")
    p.set_defaults(func=_cmd_fusion)

    p = sub.add_parser("blockdiag", parents=[common],
                       help="fusion table from the defect-matrix formula")
    p.set_defaults(func=_cmd_blockdiag)

    p = sub.add_parser("verify-o", parents=[common],
                       help="run every check of the ring isomorphism")
    p.set_defaults(func=_cmd_verify_o)

    p = sub.add_parser("defect-check", parents=[common],
                       help="closed-diagram identity for linked defect loops")
    p.add_argument("--triples", default="auto", type=_triples,
                   help="'all', 'auto', or a sampled count (default auto)")
    p.set_defaults(func=_cmd_defect_check)

    p = sub.add_parser("catalog", parents=[common],
                       help="list the built-in categories")
    p.set_defaults(func=_cmd_catalog)

    return top


def _emit(rep: dict, args, status: int) -> int:
    """Write the report; return ``status``, or 2 if ``--out`` cannot be written."""
    text = reports.to_json(rep) if args.format == "json" else reports.render_table(rep)
    if not args.out:
        sys.stdout.write(text)
        return status
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        sys.stderr.write(f"error: cannot write report to {args.out}: {exc}\n")
        return 2
    return status


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        status, rep = args.func(args)
    except _DOCUMENT_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BimodfusionError as exc:
        rep = {
            "kind": "error",
            "error": type(exc).__name__,
            "message": str(exc),
            "pass": False,
        }
        if isinstance(exc, AxiomViolation):
            rep["identity"] = exc.identity
            rep["max_residual"] = exc.max_residual
            rep["residuals"] = exc.residuals
        return _emit(rep, args, 1)
    return _emit(rep, args, status)


if __name__ == "__main__":
    raise SystemExit(main())
