"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""
from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import freeze  # noqa: E402
import run  # noqa: E402
from layers import PER_LAYER, TIMED  # noqa: E402
from spans import Span, Tracer, outer_totals, self_times  # noqa: E402

FIBONACCI = [["fibonacci", "trivial"]]
TORIC_ZE = [["toric_code", run.ZE]]
REFS = {run.job_id(job): freeze.reference(job[0], job[1]) for job in FIBONACCI + TORIC_ZE}


def test_smoke_run_fibonacci_trivial_algebra():
    result = run.measure(FIBONACCI, seed=0, seconds=0, trace=False, refs=REFS)
    assert result["attempted"] == run.MIN_ITERATIONS
    assert result["failures"] == []
    metrics = run.metrics_of(result, trace=False)
    assert [name for name, _ in run.END_TO_END] == list(metrics)
    assert all(m["value"] > 0 for m in metrics.values())


def test_self_time_on_hand_built_span_tree():
    spans = [
        Span(0, None, "root", 0, 100),
        Span(1, 0, "a", 10, 40),
        Span(2, 1, "a", 15, 20),   # nested in a span of the same name
        Span(3, 0, "b", 30, 60),   # overlaps span 1: the union 10..60 counts once
        Span(4, 0, "c", 90, 120),  # runs past its parent: only 90..100 counts
    ]
    spans[2].outer = False
    assert self_times(spans) == {0: 100 - 50 - 10, 1: 30 - 5, 2: 5, 3: 30, 4: 30}
    assert outer_totals(spans) == {"root": 100, "a": 30, "b": 30, "c": 30}


def test_tracer_wraps_every_binding_and_records_parents():
    from bimodfusion import bimodules as B
    from bimodfusion import catalog, mtc
    from bimodfusion import frobenius as F
    from bimodfusion import fusion_algebra as FA

    C = catalog("fibonacci").data
    A = F.normalize_counit(C, F.trivial_algebra(C))
    originals = (mtc.s_matrix, B.E.tensor)
    tracer = Tracer()
    tracer.install("bimodfusion", [("mtc", "s_matrix", None),
                                   ("engine", "tensor", None),
                                   ("bimodules", "alpha_induce", None)])
    try:
        # fusion_algebra's own `from .mtc import s_matrix` binding is wrapped too
        assert FA.s_matrix is mtc.s_matrix is not originals[0]
        tracer.enabled = True
        B.alpha_induce(C, A, 1, +1)
    finally:
        tracer.uninstall()
    assert (mtc.s_matrix, B.E.tensor) == originals and FA.s_matrix is originals[0]
    root, *inner = tracer.spans
    assert root.name == "bimodules.alpha_induce" and root.parent is None
    assert inner and all(s.name == "engine.tensor" and s.parent == root.id for s in inner)
    assert all(root.start <= s.start <= s.end <= root.end for s in inner)


def test_traced_counts_repeat_at_one_seed():
    first = run.run_iteration(TORIC_ZE, 5, True, timeout=120)["layers"]
    second = run.run_iteration(TORIC_ZE, 5, True, timeout=120)["layers"]
    counts = {k: v for k, v in first.items() if k not in TIMED}
    assert counts == {k: v for k, v in second.items() if k not in TIMED}
    assert counts["engine.tensor_calls"] > 0 and counts["engine.nullspace_calls"] > 0
    assert counts["fusion_algebra.D_map_calls"] > 0


def test_relabelling_only_within_equal_profiles():
    ref = REFS[run.job_id(TORIC_ZE[0])]
    table = ref["table"]
    swap = [1, 0, 2, 3]  # simples 0 and 1 share a sector profile
    swapped = [[[table[swap[a]][swap[b]][swap[c]] for c in range(4)]
                for b in range(4)] for a in range(4)]
    perm = run.relabel_match(swapped, table, ref["profiles"])
    assert perm is not None
    assert all(swapped[perm[a]][perm[b]][perm[c]] == table[a][b][c]
               for a in range(4) for b in range(4) for c in range(4))
    across = [2, 1, 0, 3]  # simples 0 and 2 do not, and 2 is the unit
    moved = [[[table[across[a]][across[b]][across[c]] for c in range(4)]
              for b in range(4)] for a in range(4)]
    assert run.relabel_match(moved, table, ref["profiles"]) is None


def test_checks_catch_a_wrong_output():
    res = run.run_iteration(FIBONACCI, 0, False, timeout=120)["jobs"][0]
    ref = REFS["fibonacci+trivial"]
    assert run.check_job(FIBONACCI[0], res, ref) == []
    bad = copy.deepcopy(res)
    rep = json.loads(bad["report"])
    rep["fusion_direct"][0][0][0] += 1
    rep["fusion_blockdiag"][0][0][0] += 1
    bad["report"] = json.dumps(rep)
    assert any("beyond relabelling" in p for p in run.check_job(FIBONACCI[0], bad, ref))
    bad_z = copy.deepcopy(ref)
    bad_z["z"] = [[1, 1], [0, 1]]
    assert any("z differs" in p for p in run.check_job(FIBONACCI[0], res, bad_z))


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
