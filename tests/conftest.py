from __future__ import annotations

import json
import os

import numpy as np
import pytest

from bimodfusion.catalog import CATALOG_NAMES, catalog, catalog_document
from bimodfusion.mtc import MtcData

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
GOLDENS = os.path.join(os.path.dirname(__file__), "goldens")

_cache: dict = {}


def get_catalog(name: str):
    """Session-cached catalog entries (MtcData is immutable, safe to share)."""
    if name not in _cache:
        _cache[name] = catalog(name)
    return _cache[name]


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def load_fixture(name: str) -> dict:
    with open(fixture_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_golden(name: str) -> dict:
    with open(os.path.join(GOLDENS, name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def overflowing_fibonacci_doc() -> dict:
    """The fibonacci document with every F value scaled by 1e160: the
    pentagon's products overflow, and its residual is inf."""
    doc = catalog_document("fibonacci")
    for ent in doc["F"]:
        ent["val"] = [v * 1e160 for v in ent["val"]]
    return doc


def rep_a4_fusion() -> MtcData:
    """The fusion rules of Rep(A4): labels 1, 1', 1'' (the Z3 characters) and
    3, with 3 ⊗ 3 = 1 + 1' + 1'' + 2·3.  Only N is set: the F and R tables
    are all zero, and the data is not validated."""
    N = np.zeros((4, 4, 4), dtype=int)
    for a in range(3):
        for b in range(3):
            N[a, b, (a + b) % 3] = 1
        N[a, 3, 3] = N[3, a, 3] = 1
    N[3, 3] = [1, 1, 1, 2]
    return MtcData(labels=("1", "1'", "1''", "3"), dual=np.array([0, 2, 1, 3]), N=N,
                   twist=np.ones(4, dtype=complex), tol=1e-9)


@pytest.fixture(params=CATALOG_NAMES)
def catalog_entry(request):
    return get_catalog(request.param)
