"""Command-line interface wiring documents to computations.

Exit status: 0 when the requested check passes, 1 when a computation fails
or an axiom is violated, 2 for usage and document-parse errors and for an
``--out`` file that cannot be written.
"""
from __future__ import annotations

import argparse
import itertools
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
    return 0, {"kind": "validate", "labels": list(C.labels), "rank": C.rank,
               **mtc.verify_modular(C), "pass": True}


def _cmd_smatrix(args):
    C = _category(args)
    return 0, {"kind": "smatrix", "labels": list(C.labels),
               "s": mtc.s_matrix(C).entries, **mtc.verify_modular(C)}


def _cmd_algebra_check(args):
    C = _category(args)
    A = _algebra(args, C, normalized=False)
    rep = {"kind": "algebra-check", **F.validate_algebra(C, A)}
    return (0 if rep["pass"] else 1), rep


def _cmd_z(args):
    C = _category(args)
    A = _algebra(args, C)
    z = B.z_matrix(C, A)
    return 0, {"kind": "z", "labels": list(C.labels), "z": z.entries,
               "trace": z.trace, "pair_count": z.pair_count}


def _simples(args) -> tuple:
    """Category, algebra and simple bimodules, loaded in that order."""
    C = _category(args)
    A = _algebra(args, C)
    return C, A, B.simple_bimodules(C, A, seed=args.seed)


def _cmd_simples(args):
    C, _, simples = _simples(args)
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
    rep = {"kind": kind, "unit": table.unit, "table": table.table, **extra,
           "axioms": axioms, "pass": max(axioms.values()) == 0}
    return (0 if rep["pass"] else 1), rep


def _cmd_fusion(args):
    C, A, simples = _simples(args)
    table = FA.fusion_table_direct(C, A, simples)
    return _table_report("fusion", table, {"route": "direct"})


def _cmd_blockdiag(args):
    C, A, simples = _simples(args)
    d = FA.d_matrix(C, A, simples)
    table = FA.fusion_table_blockdiag(C, d)
    return _table_report(
        "blockdiag", table, {"route": "blockdiag", "sigma_min": d.sigma_min}
    )


def _cmd_verify_o(args):
    C = _category(args)
    A = _algebra(args, C)
    report = FA.verify_theorem_o(C, A, seed=args.seed)
    return (0 if report.passed else 1), report.to_dict()


def _cmd_defect_check(args):
    C, A, simples = _simples(args)
    table = FA.fusion_table_direct(C, A, simples)
    k = len(simples)
    exhaustive = list(itertools.product(range(k), range(k), range(C.rank)))
    n = len(exhaustive)
    count = {"all": n, "auto": n if n <= 256 else 20}.get(args.triples, args.triples)
    if count >= n:
        triples = exhaustive
    else:
        # a triple drawn again is replaced by a draw from a further batch
        rng = np.random.default_rng(args.seed)
        drawn: dict = {}
        while len(drawn) < count:
            drawn.update(dict.fromkeys(rng.integers(0, n, size=count - len(drawn)).tolist()))
        triples = [exhaustive[t] for t in drawn]
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

#: option -> its add_argument keywords, in the order ``--help`` lists them;
#: "doc" is validate's positional category document
_OPTIONS = {
    "--tol": dict(type=float, default=mtc.DEFAULT_TOL,
                  help="numerical tolerance, positive and at most 1e-4 (default 1e-9)"),
    "--seed": dict(type=_seed, default=0,
                   help="seed for all randomized steps, a non-negative integer (default 0)"),
    "--format": dict(choices=("table", "json"), default="table",
                     help="output format (default table)"),
    "--cat": dict(help="category document path or catalog:<name>"),
    "--alg": dict(help="algebra document path or 'trivial'"),
    "--out": dict(help="write the report to this file instead of stdout"),
    "--triples": dict(default="auto", type=_triples,
                      help="'all', 'auto', or a sampled count (default auto)"),
    "doc": dict(nargs="?", help="category document (same as --cat)"),
}

#: the options every command reads, those of the commands that solve for
#: an algebra, and those of the commands that also draw random numbers
_REPORT = ("--tol", "--format", "--out")
_ALGEBRA = _REPORT + ("--cat", "--alg")
_SEEDED = _ALGEBRA + ("--seed",)

#: subcommand -> (handler, help line, the options it reads), in the order
#: ``--help`` lists them
_COMMANDS = {
    "validate": (_cmd_validate, "parse a category document and check its axioms",
                 _REPORT + ("--cat", "doc")),
    "smatrix": (_cmd_smatrix, "print the S-matrix and the modularity diagnostic",
                _REPORT + ("--cat",)),
    "algebra-check": (_cmd_algebra_check, "residuals of the Frobenius-algebra axioms", _ALGEBRA),
    "z": (_cmd_z, "the induction multiplicity matrix z", _ALGEBRA),
    "simples": (_cmd_simples, "decompose the bimodule category into simples", _SEEDED),
    "fusion": (_cmd_fusion, "fusion table by direct Hom counting", _SEEDED),
    "blockdiag": (_cmd_blockdiag, "fusion table from the defect-matrix formula", _SEEDED),
    "verify-o": (_cmd_verify_o, "run every check of the ring isomorphism", _SEEDED),
    "defect-check": (_cmd_defect_check, "closed-diagram identity for linked defect loops",
                     _SEEDED + ("--triples",)),
    "catalog": (_cmd_catalog, "list the built-in categories", _REPORT),
}


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="bimodfusion",
        description="Bimodule categories over Frobenius algebras in modular "
                    "tensor categories: z-matrices, simple objects, and "
                    "defect fusion rules.",
    )
    sub = top.add_subparsers(dest="command", metavar="command", required=True)
    for name, (_, text, options) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=text)
        # the positional document and --cat name one input: at most one is given
        category = cmd.add_mutually_exclusive_group() if "doc" in options else cmd
        for option, spec in _OPTIONS.items():
            if option in options:
                (category if option in ("--cat", "doc") else cmd).add_argument(option, **spec)
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
        status, rep = _COMMANDS[args.command][0](args)
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
