"""Acceptance gate: one test per advertised guarantee, at its stated tolerance.

Every (category, algebra) pair the package ships is pushed through the full
pipeline once (module-scoped cache below); the criteria then interrogate the
shared results so the gate stays honest *and* affordable.
"""
from __future__ import annotations

import json
import time

import numpy as np
import pytest

from bimodfusion import bimodules as B
from bimodfusion import engine as E
from bimodfusion import frobenius as F
from bimodfusion import fusion_algebra as FA
from bimodfusion.catalog import CATALOG_NAMES
from bimodfusion.cli import main
from bimodfusion.mtc import s_matrix

from conftest import fixture_path, get_catalog, load_fixture

NONTRIVIAL = [
    ("toric_code", "ze.alg.json"),
    ("su2_4", "su2_4_deven.alg.json"),
]


def _run_pair(C, A):
    t0 = time.perf_counter()
    simples = B.simple_bimodules(C, A, seed=0)
    d = FA.d_matrix(C, A, simples)
    bd = FA.fusion_table_blockdiag(C, d)
    t_pipeline = time.perf_counter() - t0
    direct = FA.fusion_table_direct(C, A, simples)
    return {
        "C": C, "A": A, "simples": simples, "d": d,
        "bd": bd, "direct": direct, "t_pipeline": t_pipeline,
    }


@pytest.fixture(scope="module")
def pipelines():
    out = {}
    for name in CATALOG_NAMES:
        C = get_catalog(name).data
        A = F.normalize_counit(C, F.trivial_algebra(C))
        out[(name, "trivial")] = _run_pair(C, A)
    for name, fix in NONTRIVIAL:
        C = get_catalog(name).data
        A = F.normalize_counit(C, F.parse_algebra(C, load_fixture(fix)))
        out[(name, fix)] = _run_pair(C, A)
    return out


def test_criterion_1_verlinde_reduction(pipelines):
    for name in CATALOG_NAMES:
        run = pipelines[(name, "trivial")]
        C, bd = run["C"], run["bd"]
        perm = []
        for S in run["simples"]:
            hits = [i for i in range(C.rank) if E.hom_dim(C, E.obj(i), S.obj)]
            assert len(hits) == 1, name
            perm.append(hits[0])
        assert sorted(perm) == list(range(C.rank)), name
        assert bd.table.dtype == np.int64
        assert np.array_equal(bd.table, C.N[np.ix_(perm, perm, perm)]), name
        assert run["t_pipeline"] < 5.0, (name, run["t_pipeline"])
    print(f"criterion 1 PASS: {len(CATALOG_NAMES)} categories, "
          f"slowest pipeline "
          f"{max(pipelines[(n, 'trivial')]['t_pipeline'] for n in CATALOG_NAMES):.2f}s")


def test_criterion_2_theorem_o_bookkeeping():
    t0 = time.perf_counter()
    for name, fix in NONTRIVIAL:
        C = get_catalog(name).data
        A = F.normalize_counit(C, F.parse_algebra(C, load_fixture(fix)))
        z = B.z_matrix(C, A).entries
        simples = B.simple_bimodules(C, A, seed=0)
        left = B.simple_left_modules(C, A, seed=0)
        assert len(simples) == int(np.trace(z.T @ z)), name
        assert len(left) == int(np.trace(z)), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, elapsed
    print(f"criterion 2 PASS: |K| = tr(z^t z) and #left modules = tr(z) "
          f"on both nontrivial pairs in {elapsed:.1f}s")


def test_criterion_3_two_path_fusion_agreement(pipelines):
    for key, run in pipelines.items():
        direct, bd = run["direct"], run["bd"]
        assert np.array_equal(direct.table, bd.table), key
        assert direct.table.dtype == np.int64 and bd.table.dtype == np.int64
        assert (direct.table >= 0).all(), key
        assert direct.unit == bd.unit, key
    print(f"criterion 3 PASS: direct and block-diagonal tables identical "
          f"on all {len(pipelines)} pairs")


def test_criterion_4_homomorphism_and_unit(pipelines):
    worst_hom, worst_unit = 0.0, 0.0
    for key, run in pipelines.items():
        C, A, d, simples = run["C"], run["A"], run["d"], run["simples"]
        pairs = FA._sampled_pairs(len(simples), seed=0)
        products = FA._relative_products(C, simples)
        with_products = FA.d_matrix(C, A, simples, [products[p] for p in pairs])
        worst_hom = max(worst_hom, FA._lemma2_residual(with_products, pairs))
        reg = B.regular_bimodule(C, A)
        for (i, j), hs in d.h.items():
            for phi in hs:
                res = (FA.D_map(C, A, reg, i, j, phi, check=False) - phi).norm()
                worst_unit = max(worst_unit, res)
    assert worst_hom < 1e-6, worst_hom
    assert worst_unit < 1e-9, worst_unit
    print(f"criterion 4 PASS: homomorphism residual {worst_hom:.2e} < 1e-6, "
          f"unit residual {worst_unit:.2e} < 1e-9")


def test_criterion_5_d_matrix_invertibility(pipelines):
    smallest = min(run["d"].sigma_min for run in pipelines.values())
    for key, run in pipelines.items():
        assert run["d"].sigma_min > 1e-6, key
    print(f"criterion 5 PASS: smallest singular value over all pairs "
          f"{smallest:.3g} > 1e-6")


def test_criterion_6_z_matrix_properties(pipelines):
    worst_s, worst_t = 0.0, 0.0
    for key, run in pipelines.items():
        C, A = run["C"], run["A"]
        z = B.z_matrix(C, A).entries.astype(complex)
        s = s_matrix(C).entries
        t = np.diag(C.twist)
        worst_s = max(worst_s, float(np.max(np.abs(s @ z - z @ s))))
        worst_t = max(worst_t, float(np.max(np.abs(t @ z - z @ t))))
        if key[1] == "trivial":
            assert np.array_equal(z.real.astype(np.int64), np.eye(C.rank, dtype=np.int64)), key
    assert worst_s < 1e-6, worst_s
    assert worst_t < 1e-6, worst_t
    print(f"criterion 6 PASS: [s,z] {worst_s:.2e} and [theta,z] {worst_t:.2e} "
          f"< 1e-6; z = identity for the trivial algebra")


def test_criterion_7_axiom_gate(capsys, tmp_path):
    checks = [
        (["validate", fixture_path("broken_pentagon.cat.json")], "pentagon"),
        (["algebra-check", "--cat", "catalog:toric_code",
          "--alg", fixture_path("broken_assoc.alg.json")], "associativity"),
        (["algebra-check", "--cat", "catalog:toric_code",
          "--alg", fixture_path("broken_frobenius.alg.json")], "frobenius"),
    ]
    for argv, axiom in checks:
        code = main(argv + ["--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code != 0, axiom
        assert doc["pass"] is False, axiom
        assert doc["residuals"][axiom] > 1e-3, (axiom, doc["residuals"])
    print("criterion 7 PASS: injected pentagon/associativity/frobenius "
          "violations all detected above 1e-3 with nonzero exit")


def test_criterion_8_defect_identity(pipelines):
    worst = 0.0
    count = 0
    for name in CATALOG_NAMES:
        run = pipelines[(name, "trivial")]
        C, A, simples, table = run["C"], run["A"], run["simples"], run["direct"]
        k = len(simples)
        for kappa in range(k):
            for kappa_p in range(k):
                for j in range(C.rank):
                    out = FA.defect_identity(
                        C, A, kappa, kappa_p, j, simples, table)
                    worst = max(worst, out["residual"])
                    count += 1
    rng_draws = 0
    for name, fix in NONTRIVIAL:
        run = pipelines[(name, fix)]
        C, A, simples, table = run["C"], run["A"], run["simples"], run["direct"]
        rng = np.random.default_rng(0)
        for _ in range(20):
            kappa, kappa_p = (int(v) for v in rng.integers(0, len(simples), size=2))
            j = int(rng.integers(0, C.rank))
            out = FA.defect_identity(C, A, kappa, kappa_p, j, simples, table)
            worst = max(worst, out["residual"])
            rng_draws += 1
    assert worst < 1e-6, worst
    print(f"criterion 8 PASS: {count} exhaustive trivial-algebra triples and "
          f"{rng_draws} seeded nontrivial triples, worst residual {worst:.2e}")


def test_criterion_9_determinism(capsys, tmp_path):
    outs = []
    for tag in ("a", "b"):
        path = tmp_path / f"{tag}.json"
        code = main(["verify-o", "--cat", "catalog:toric_code",
                     "--alg", fixture_path("ze.alg.json"), "--seed", "5",
                     "--format", "json", "--out", str(path)])
        capsys.readouterr()
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    print("criterion 9 PASS: repeated verify-o runs with one seed are "
          "byte-identical")
