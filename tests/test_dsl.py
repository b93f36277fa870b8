"""Open diagrams written as engine calls: zig-zags, braid round trips, unit
strands, reassociation and boundary mismatches."""
from __future__ import annotations

import numpy as np
import pytest

from bimodfusion import engine as E
from bimodfusion.errors import TypeMismatch

from conftest import get_catalog


def _letter(C, label):
    return E.obj(C.index(label))


def test_evaluation_drops_unit_letters():
    """Words are built without the unit label: a unit strand in an identity,
    a duality map or a braiding leaves the word and the map unchanged."""
    C = get_catalog("ising").data
    one, sigma = C.index("1"), C.index("sigma")
    m = E.identity(C, E.obj(one, sigma))
    assert (m.src, m.tgt) == (((1,),), ((1,),))
    assert (m - E.identity(C, E.obj(sigma))).norm() == 0
    U = E.obj(one)
    for d in (E.cup_obj(C, U), E.cap_obj(C, U), E.cup_tilde_obj(C, U),
              E.cap_tilde_obj(C, U), E.identity(C, E.obj(one, one))):
        assert (d - E.identity(C, E.UNIT)).norm() == 0
    S = E.obj(sigma)
    for m in (E.braid(C, U, S), E.braid(C, S, U, inverse=True)):
        assert (m - E.identity(C, S)).norm() < 1e-12
    f = E.braid(C, S, S)
    assert (E.identity(C, E.obj(one, sigma, sigma)) @ f - f).norm() == 0


def test_evaluate_runtime_type_mismatch():
    """d_ψ ∘ b_σ: the cup's target σσ∨ is not the cap's source ψ∨ψ."""
    C = get_catalog("ising").data
    with pytest.raises(TypeMismatch):
        E.cap_obj(C, _letter(C, "psi")) @ E.cup_obj(C, _letter(C, "sigma"))


def test_zigzag_diagram_is_identity():
    """(id_t ⊗ d_t) ∘ (b_t ⊗ id_t) = id_t in fibonacci."""
    C = get_catalog("fibonacci").data
    T = _letter(C, "t")
    ident = E.identity(C, T)
    m = E.tensor(C, ident, E.cap_obj(C, T)) @ E.tensor(C, E.cup_obj(C, T), ident)
    assert (m - ident).norm() < 1e-12


def test_braid_inverse_roundtrip_diagram():
    """c⁻¹ ∘ c_{σ,ψ} = id_{σψ} in ising."""
    C = get_catalog("ising").data
    S, P = _letter(C, "sigma"), _letter(C, "psi")
    m = E.braid(C, P, S, inverse=True) @ E.braid(C, S, P)
    assert (m - E.identity(C, ((1, 2),))).norm() < 1e-12


def test_evaluation_is_reassociation_stable():
    """Regrouping a composite or a tensor product of a random f on su2_2
    leaves the result unchanged."""
    C = get_catalog("su2_2").data
    rng = np.random.default_rng(1)
    S = ((1,),)
    blocks = {k: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
              for k in range(C.rank) if (d := E.obj_dim(C, S, k))}
    f = E.Morphism(C, S, S, blocks)
    assert ((f @ f) @ f - f @ (f @ f)).norm() < 1e-12
    a = E.tensor(C, E.tensor(C, f, f), f)
    b = E.tensor(C, f, E.tensor(C, f, f))
    assert (a - b).norm() < 1e-10


def test_digit_labels_evaluate():
    """vec_z3 names its simples by digits; c_{1,2} is R^{12}_0 = ω²."""
    C = get_catalog("vec_z3").data
    m = E.braid(C, _letter(C, "1"), _letter(C, "2"))
    assert abs(m.blocks[0][0, 0] - np.exp(2j * np.pi * 2 / 3)) < 1e-12
