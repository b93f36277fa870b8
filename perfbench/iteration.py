"""One benchmark iteration, run in a fresh process so that the engine
caches start cold, as they do for a command-line user.

    python3 perfbench/iteration.py --seed N --trace 0|1 --jobs JSON

``--jobs`` is a JSON list of ``[category, algebra]`` pairs: a built-in
catalog name, and ``trivial`` or the path of an algebra document relative
to the repository root. Each job runs the ``verify-o`` pipeline,
``verify_theorem_o``.

Per job, set-up runs from the documents to a validated ``MtcData`` and a
normalized algebra, ``SETUP_REPEATS`` times; solve runs from there to the
rendered JSON report.
Between the two, the seed draws a ``random_basis_change`` of the algebra;
that is input generation and is not timed. The seed is also the
program's own ``seed``.

Prints one JSON object: per job its times, rendered report and the sector
profiles of its simples; the process's peak resident memory in MB; and
with ``--trace 1`` the per-layer metrics of ``layers.py``.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import bimodfusion  # noqa: E402
from bimodfusion import bimodules as B  # noqa: E402
from bimodfusion import engine as E  # noqa: E402
from bimodfusion import frobenius as F  # noqa: E402
from bimodfusion import fusion_algebra as FA  # noqa: E402
from bimodfusion import mtc, reports  # noqa: E402
from bimodfusion.catalog import catalog_document  # noqa: E402

from layers import PACKAGE, LayerStats  # noqa: E402

def _tracing(stats, on: bool) -> None:
    if stats is not None:
        stats.tracer.enabled = on


#: set-up runs this many times per job, each from the documents to fresh
#: objects with empty caches; its time is the median, and the last run's
#: category and algebra are solved
SETUP_REPEATS = 5


def run_job(cat: str, alg: str, seed: int, index: int,
            stats: LayerStats | None) -> dict:
    doc = catalog_document(cat)
    alg_doc = None if alg == "trivial" else json.loads((ROOT / alg).read_text())

    setups = []
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1
        _tracing(stats, last)
        t0 = time.perf_counter()
        C = mtc.load_mtc(doc)
        A = F.trivial_algebra(C) if alg_doc is None else F.parse_algebra(C, alg_doc)
        t1 = time.perf_counter()
        _tracing(stats, False)
        A = F.random_basis_change(C, A, np.random.default_rng([seed, index]))
        _tracing(stats, last)
        t2 = time.perf_counter()
        A = F.normalize_counit(C, A)
        t3 = time.perf_counter()
        setups.append((t1 - t0) + (t3 - t2))
    text = reports.to_json(FA.verify_theorem_o(C, A, seed=seed).to_dict())
    t4 = time.perf_counter()
    _tracing(stats, False)
    if stats is not None:
        stats.count_cache(C)

    # untimed, for the output checks: the simples come out in the same
    # order at the same seed
    simples = B.simple_bimodules(C, A, seed=seed)
    return {
        "setup_s": statistics.median(setups),
        "solve_s": t4 - t3,
        "report": text,
        "profiles": [[E.obj_dim(C, X.obj, k) for k in range(C.rank)] for X in simples],
    }


def run(jobs: list, seed: int, trace: bool) -> dict:
    stats = None
    if trace:
        stats = LayerStats(E)
        stats.tracer.install(PACKAGE, stats.targets())
    try:
        results = [run_job(cat, alg, seed, t, stats)
                   for t, (cat, alg) in enumerate(jobs)]
    finally:
        if stats is not None:
            stats.tracer.uninstall()
    out = {
        "jobs": results,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if stats is not None:
        out["layers"] = stats.metrics()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", required=True)
    args = ap.parse_args(argv)
    pkg = Path(bimodfusion.__file__).resolve()
    if ROOT / "src" not in pkg.parents:
        sys.stderr.write(f"error: imported bimodfusion from {pkg}, not this checkout\n")
        return 2
    print(json.dumps(run(json.loads(args.jobs), args.seed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
