"""Freeze the reference outputs that run.py checks against.

    python3 perfbench/freeze.py

For every job of every workload, in the algebra's shipped basis and at
seed 0, records z, the sector profiles of the simple bimodules and the
fusion table. A table is written only after the two routes,
direct Hom counting and the defect-operator block diagonalization, agree
on it, and after the number of simples equals tr(zᵀz).
"""
from __future__ import annotations

import json
import sys

from iteration import ROOT, B, E, F, FA, catalog_document, mtc
from run import BENCH, WORKLOADS, job_id


def reference(cat: str, alg: str) -> dict:
    C = mtc.load_mtc(catalog_document(cat))
    A = (F.trivial_algebra(C) if alg == "trivial"
         else F.parse_algebra(C, json.loads((ROOT / alg).read_text())))
    A = F.normalize_counit(C, A)
    simples = B.simple_bimodules(C, A, seed=0)
    direct = FA.fusion_table_direct(C, A, simples)
    blockdiag = FA.fusion_table_blockdiag(C, FA.d_matrix(C, A, simples))
    if (direct.table != blockdiag.table).any():
        raise SystemExit(f"{cat}+{alg}: the two fusion routes disagree")
    z = B.z_matrix(C, A)
    if len(simples) != z.pair_count:
        raise SystemExit(f"{cat}+{alg}: {len(simples)} simples but tr(zᵀz) = {z.pair_count}")
    return {
        "z": z.entries.tolist(),
        "profiles": [[E.obj_dim(C, X.obj, k) for k in range(C.rank)] for X in simples],
        "table": direct.table.tolist(),
    }


def main() -> int:
    refs = {}
    for jobs in WORKLOADS.values():
        for cat, alg in jobs:
            if job_id((cat, alg)) not in refs:
                refs[job_id((cat, alg))] = reference(cat, alg)
                print(f"froze {job_id((cat, alg))}", file=sys.stderr)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(refs.items())]
    (BENCH / "references.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
