"""Diagram DSL: grammar, error locations, and evaluation semantics."""
from __future__ import annotations

import numpy as np
import pytest

from bimodfusion import dsl
from bimodfusion import engine as E
from bimodfusion.dsl import (
    Braid,
    BraidInv,
    Cap,
    CapTilde,
    Compose,
    Cup,
    CupTilde,
    Id,
    Named,
    evaluate,
    parse_diagram,
)
from bimodfusion.errors import DiagramSyntaxError, TypeMismatch, UnboundSymbol
from bimodfusion.mtc import s_matrix

from conftest import get_catalog


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_primitives():
    assert parse_diagram("id(t)") == Id(("t",))
    assert parse_diagram("id()") == Id(())
    assert parse_diagram("id(t, t)") == Id(("t", "t"))
    assert parse_diagram("c(a,b)") == Braid("a", "b")
    assert parse_diagram("cinv(a,b)") == BraidInv("a", "b")
    assert parse_diagram("b(x)") == Cup("x")
    assert parse_diagram("d(x)") == Cap("x")
    assert parse_diagram("bt(x)") == CupTilde("x")
    assert parse_diagram("dt(x)") == CapTilde("x")


def test_parse_precedence_and_grouping():
    ast = parse_diagram("f * g ; h")
    assert ast == Compose(dsl.Tensor(Named("f"), Named("g")), Named("h"))
    ast = parse_diagram("f ; g * h")
    assert ast == Compose(Named("f"), dsl.Tensor(Named("g"), Named("h")))
    ast = parse_diagram("f ; (g ; h)")
    assert ast == Compose(Named("f"), Compose(Named("g"), Named("h")))


def test_primitive_names_are_plain_symbols_without_parens():
    # `b` and `d` are symbols unless immediately applied
    ast = parse_diagram("b ; d")
    assert ast == Compose(Named("b"), Named("d"))


def test_syntax_error_locations():
    with pytest.raises(DiagramSyntaxError) as exc:
        parse_diagram("id(t")
    assert (exc.value.line, exc.value.col) == (1, 5)
    with pytest.raises(DiagramSyntaxError) as exc:
        parse_diagram("id(t) ;")
    assert exc.value.line == 1
    with pytest.raises(DiagramSyntaxError) as exc:
        parse_diagram("id(t) @ id(t)")
    assert (exc.value.line, exc.value.col) == (1, 7)
    with pytest.raises(DiagramSyntaxError) as exc:
        parse_diagram("id(t) ;\n  c(t)")
    assert exc.value.line == 2
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("c(t)")  # braid arity
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("b(t,t)")  # cup arity
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("")


def test_trailing_garbage_rejected():
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("id(t) id(t)")


def test_static_type_mismatch():
    with pytest.raises(TypeMismatch):
        parse_diagram("d(tau) ; c(tau,tau)")
    # unknown boundaries (duals, names) defer checking to evaluation
    parse_diagram("b(tau) ; f")
    parse_diagram("f ; c(a,b)")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_evaluate_identity_and_symbols():
    C = get_catalog("fibonacci").data
    m = evaluate(C, "id(t)")
    assert (m - E.identity(C, ((1,),))).norm() == 0
    rng = np.random.default_rng(0)
    blocks = {k: rng.standard_normal((d, d)) for k in range(C.rank)
              if (d := E.obj_dim(C, ((1, 1),), k))}
    f = E.Morphism(C, ((1, 1),), ((1, 1),), blocks)
    m = evaluate(C, "f ; f", {"f": f})
    assert (m - f @ f).norm() < 1e-12
    with pytest.raises(UnboundSymbol):
        evaluate(C, "g", {"f": f})


def test_evaluation_drops_unit_letters():
    """Words are built without the unit label, as in the engine; the static
    check still compares words as written."""
    C = get_catalog("ising").data
    m = evaluate(C, "id(1,sigma)")
    assert (m.src, m.tgt) == (((1,),), ((1,),))
    assert (m - evaluate(C, "id(sigma)")).norm() == 0
    for text in ("b(1)", "d(1)", "bt(1)", "dt(1)", "id(1,1)"):
        assert (evaluate(C, text) - E.identity(C, E.UNIT)).norm() == 0
    for text in ("c(1,sigma)", "cinv(sigma,1)"):
        assert (evaluate(C, text) - evaluate(C, "id(sigma)")).norm() < 1e-12
    f = evaluate(C, "c(sigma,sigma)")
    assert (evaluate(C, "id(1,sigma,sigma) ; f", {"f": f}) - f).norm() == 0
    with pytest.raises(TypeMismatch):
        parse_diagram("id(1,sigma) ; id(sigma)")


def test_evaluate_unknown_label():
    C = get_catalog("fibonacci").data
    with pytest.raises(TypeMismatch):
        evaluate(C, "id(zzz)")


def test_evaluate_runtime_type_mismatch():
    C = get_catalog("ising").data
    with pytest.raises(TypeMismatch):
        evaluate(C, "b(sigma) ; d(psi)")


def test_zigzag_diagram_is_identity():
    C = get_catalog("fibonacci").data
    m = evaluate(C, "b(t) * id(t) ; id(t) * d(t)")
    assert (m - E.identity(C, ((1,),))).norm() < 1e-12


def test_closed_loop_gives_quantum_dimension():
    C = get_catalog("fibonacci").data
    phi = (1 + np.sqrt(5)) / 2
    assert abs(evaluate(C, "b(t) ; dt(t)").scalar() - phi) < 1e-12
    C = get_catalog("ising").data
    assert abs(evaluate(C, "b(sigma) ; dt(sigma)").scalar() - np.sqrt(2)) < 1e-12


def test_braid_inverse_roundtrip_diagram():
    C = get_catalog("ising").data
    m = evaluate(C, "c(sigma,psi) ; cinv(psi,sigma)")
    assert (m - E.identity(C, ((1, 2),))).norm() < 1e-12


def test_monodromy_trace_diagram_matches_s_matrix():
    C = get_catalog("fibonacci").data
    text = (
        "b(t) ; id(t)*b(t)*id(t) ; (c(t,t) ; c(t,t)) * id(t,t) ; "
        "id(t)*dt(t)*id(t) ; dt(t)"
    )
    val = evaluate(C, text).scalar()
    S = s_matrix(C).entries
    assert abs(val - S[1, 1]) < 1e-10
    assert abs(val - (-1.0)) < 1e-10


def test_evaluation_is_reassociation_stable():
    C = get_catalog("su2_2").data
    rng = np.random.default_rng(1)
    S = ((1,),)
    blocks = {k: rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
              for k in range(C.rank) if (d := E.obj_dim(C, S, k))}
    f = E.Morphism(C, S, S, blocks)
    env = {"f": f}
    a = evaluate(C, "(f ; f) ; f", env)
    b = evaluate(C, "f ; (f ; f)", env)
    assert (a - b).norm() < 1e-12
    a = evaluate(C, "(f * f) * f", env)
    b = evaluate(C, "f * (f * f)", env)
    assert (a - b).norm() < 1e-10


def test_digit_labels_evaluate():
    C = get_catalog("vec_z3").data
    m = evaluate(C, "c(1,2)")
    assert abs(m.blocks[0][0, 0] - np.exp(2j * np.pi * 2 / 3)) < 1e-12
