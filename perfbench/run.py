"""The bimodfusion benchmark: named workloads through the package's public
functions, with every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs iterations of the workload one after another, each in a fresh
process (``iteration.py``), while the next one should end within
``--seconds``, and at least three, so that the median rejects one
disturbed iteration and repeat runs at one seed can be compared byte for
byte. Every iteration's outputs are checked against ``references.json``;
an iteration that fails a check counts as failed and the run goes on.

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
run's iterations of ``setup_s``, ``solve_s`` and ``peak_rss_mb``. With
``--trace 1`` the iterations alternate untraced and traced, and the
metrics are the per-layer ones of ``layers.py``, plus ``trace.overhead``,
the traced median ``solve_s`` over the untraced one.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Exit status: 0 after a run, also one with failed iterations;
2 when the package or an input is missing from this checkout.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

from layers import PER_LAYER, TIMED  # noqa: E402

DEVEN = "tests/fixtures/su2_4_deven.alg.json"
ZE = "tests/fixtures/ze.alg.json"

#: the built-in categories as of this benchmark, fixed here so that a
#: category added to the catalog later does not change the workload
SWEEP = ("trivial", "vec_z2", "vec_z3", "vec_z4", "vec_z5", "fibonacci",
         "ising", "toric_code", "su2_1", "su2_2", "su2_3", "su2_4")

#: workload -> jobs of one iteration, as [category, algebra]; each job
#: runs the verify-o pipeline
WORKLOADS = {
    "deven_verify": [["su2_4", DEVEN]],
    "catalog_sweep": [[name, "trivial"] for name in SWEEP] + [["toric_code", ZE]],
}

END_TO_END = [("setup_s", "s"), ("solve_s", "s"), ("peak_rss_mb", "MB")]

#: the median of three rejects one iteration slowed by a burst of load
#: from outside the process, which on a shared host lasts a few seconds
MIN_ITERATIONS = 3

#: a run must end within 180 s; iterations are stopped at this
RUN_LIMIT_S = 170.0


def job_id(job) -> str:
    return f"{job[0]}+{job[1]}"


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def relabel_match(table, ref, profiles) -> list | None:
    """A permutation p with table[p[a]][p[b]][p[c]] == ref[a][b][c] that only
    exchanges simples of equal sector profile, or None."""
    k = len(ref)
    if len(table) != k:
        return None
    perm: list = []

    def extend() -> bool:
        a = len(perm)
        if a == k:
            return True
        for cand in range(k):
            if cand in perm or profiles[cand] != profiles[a]:
                continue
            perm.append(cand)
            if all(table[perm[x]][perm[y]][perm[z]] == ref[x][y][z]
                   for x in range(a + 1) for y in range(a + 1) for z in range(a + 1)
                   if a in (x, y, z)) and extend():
                return True
            perm.pop()
        return False

    return list(perm) if extend() else None


def check_job(job, out: dict, ref: dict) -> list:
    """Problems with one job's outputs; empty when all checks hold."""
    rep = json.loads(out["report"])
    z, table = rep["z"], rep["fusion_direct"]
    problems = []
    if rep.get("pass") is not True:
        problems.append("report pass flag is not true")
    if rep["fusion_blockdiag"] != table:
        problems.append("the two fusion routes disagree")
    if rep["K"] != sum(v * v for row in z for v in row):
        problems.append(f"K = {rep['K']} is not tr(z^T z)")
    if z != ref["z"]:
        problems.append("z differs from its reference")
    if out["profiles"] != ref["profiles"]:
        problems.append("simple sector profiles differ from the reference")
    elif relabel_match(table, ref["table"], ref["profiles"]) is None:
        problems.append("fusion table differs from its reference beyond relabelling")
    return [f"{job_id(job)}: {p}" for p in problems]


# ---------------------------------------------------------------------------
# iterations
# ---------------------------------------------------------------------------

def run_iteration(jobs, seed: int, trace: bool, timeout: float) -> dict:
    """One fresh-process iteration; raises RuntimeError when it fails."""
    cmd = [sys.executable, str(BENCH / "iteration.py"), "--seed", str(seed),
           "--trace", str(int(trace)), "--jobs", json.dumps(jobs)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"iteration did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise RuntimeError(f"iteration exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(jobs, seed: int, seconds: float, trace: bool, refs: dict) -> dict:
    """Run iterations while the next should end within ``seconds`` (at
    least ``MIN_ITERATIONS``) and check each; returns samples, traced layer
    metrics and failures."""
    start = time.perf_counter()
    samples = {"untraced": [], "traced": []}
    layers: list = []
    failures: list = []
    first_reports = None
    attempted = 0
    elapsed = last = 0.0
    # start another iteration only when it should end within `seconds`, or
    # to reach the minimum while the one after it cannot overrun the limit
    while ((attempted < MIN_ITERATIONS or elapsed + last <= seconds)
           and elapsed + 2 * last < RUN_LIMIT_S):
        traced = trace and attempted % 2 == 1
        attempted += 1
        try:
            res = run_iteration(jobs, seed, traced, RUN_LIMIT_S - elapsed)
        except RuntimeError as exc:
            failures.append(f"iteration {attempted}: {exc}")
            continue
        finally:
            last = time.perf_counter() - start - elapsed
            elapsed += last
        problems = [p for job, out in zip(jobs, res["jobs"])
                    for p in check_job(job, out, refs[job_id(job)])]
        reports = [out["report"] for out in res["jobs"]]
        if first_reports is None:
            first_reports = reports
        elif reports != first_reports:
            problems.append("reports are not byte-identical to the run's first at this seed")
        if traced and layers and any(res["layers"][k] != layers[0][k]
                                     for k in res["layers"] if k not in TIMED):
            problems.append("traced counts differ from the run's first traced iteration")
        if problems:
            failures.append(f"iteration {attempted}: " + "; ".join(problems))
            continue
        if traced:
            layers.append(res["layers"])
        samples["traced" if traced else "untraced"].append({
            "setup_s": sum(out["setup_s"] for out in res["jobs"]),
            "solve_s": sum(out["solve_s"] for out in res["jobs"]),
            "peak_rss_mb": res["peak_rss_mb"],
        })
    return {"attempted": attempted, "failures": failures,
            "samples": samples, "layers": layers}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def metrics_of(result: dict, trace: bool) -> dict:
    """The run's metrics: end-to-end ones untraced, per-layer ones traced."""
    if not trace:
        rows = result["samples"]["untraced"]
        return {name: {"value": _median([r[name] for r in rows]), "unit": unit}
                for name, unit in END_TO_END}
    layers = result["layers"]
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead":
            traced = _median([r["solve_s"] for r in result["samples"]["traced"]])
            plain = _median([r["solve_s"] for r in result["samples"]["untraced"]])
            value = traced / plain if plain else 0.0
        elif name in TIMED:
            value = _median([m[name] for m in layers])
        else:
            value = layers[0][name] if layers else 0
        out[name] = {"value": value, "unit": unit}
    return out


def summary_lines(name: str, result: dict) -> list:
    """Median, the highest percentile with ten samples beyond it, and the
    sample count of each end-to-end metric, plus the failure ratio."""
    lines = []
    for kind, rows in result["samples"].items():
        if not rows:
            continue
        n = len(rows)
        for metric, unit in END_TO_END:
            vals = sorted(r[metric] for r in rows)
            tail = (f"p{100 * (n - 10) // n} {vals[n - 11]:.4f} {unit}" if n >= 11
                    else "no tail percentile (needs 11 samples)")
            lines.append(f"{name} {kind:9s} {metric:12s} median "
                         f"{statistics.median(vals):.4f} {unit}, {tail}, n={n}")
    ratio = len(result["failures"]) / result["attempted"]
    lines.append(f"{name} fail_ratio {ratio:.4f} "
                 f"({len(result['failures'])} of {result['attempted']} iterations)")
    lines.extend(f"FAILED {f}" for f in result["failures"])
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    jobs = WORKLOADS[args.workload]
    needed = [ROOT / "src" / "bimodfusion" / "__init__.py", BENCH / "references.json"]
    needed += [ROOT / alg for _, alg in jobs if alg != "trivial"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.stderr.write(f"error: not a bimodfusion checkout, missing {', '.join(missing)}\n")
        return 2
    refs = json.loads((BENCH / "references.json").read_text())
    trace = bool(args.trace)
    result = measure(jobs, args.seed, args.seconds, trace, refs)
    for line in summary_lines(args.workload, result):
        print(line)
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": len(result["failures"]),
        "metrics": metrics_of(result, trace),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
