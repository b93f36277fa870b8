"""A small text language for diagrams.

Grammar (see docs/dsl.md for the EBNF): ``;`` composes left to right in
diagram order (``f ; g`` applies ``f`` first), ``*`` is the tensor product
and binds tighter than ``;``, parentheses group.  Primitives:

=============  ====================================================
``id(w)``      identity on the word ``w`` (comma-separated labels,
               possibly empty: ``id()`` is the tensor unit)
``c(i,j)``     braiding  i ⊗ j -> j ⊗ i
``cinv(i,j)``  inverse braiding (c_{j,i})^{-1} : i ⊗ j -> j ⊗ i
``b(i)``       cup   1 -> i ⊗ ī
``d(i)``       cap   ī ⊗ i -> 1
``bt(i)``      cup   1 -> ī ⊗ i   (left duality)
``dt(i)``      cap   i ⊗ ī -> 1   (left duality)
=============  ====================================================

Any other name is a symbol resolved against the caller's bindings at
evaluation time.  A name is only treated as a primitive when it is
immediately followed by ``(``, so ``b`` alone is a perfectly fine symbol.

``parse_diagram`` is category-independent; it checks the grammar and those
composition boundaries it can determine symbolically (duals and named
symbols are only known once a category and bindings are supplied, so the
remaining checks happen in ``evaluate``).
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from . import engine
from .errors import (
    DiagramSyntaxError,
    ParseError,
    TypeMismatch,
    UnboundSymbol,
)
from .mtc import MtcData

# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Id:
    word: tuple


@dataclass(frozen=True)
class Compose:
    """Diagram-order composition: first runs, then second."""

    first: object
    second: object


@dataclass(frozen=True)
class Tensor:
    left: object
    right: object


@dataclass(frozen=True)
class Braid:
    i: str
    j: str


@dataclass(frozen=True)
class BraidInv:
    i: str
    j: str


@dataclass(frozen=True)
class Cup:
    i: str


@dataclass(frozen=True)
class Cap:
    i: str


@dataclass(frozen=True)
class CupTilde:
    i: str


@dataclass(frozen=True)
class CapTilde:
    i: str


@dataclass(frozen=True)
class Named:
    symbol: str


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z0-9_]+|[;*(),]|\s+|.")


def _tokenize(src: str):
    tokens = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(src):
        text = m.group(0)
        if not text.isspace():
            if re.fullmatch(r"[A-Za-z0-9_]+", text):
                kind = "name"
            elif text in ";*(),":
                kind = text
            else:
                raise DiagramSyntaxError(f"unexpected character {text!r}", line, col)
            tokens.append((kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
    tokens.append(("eof", "", line, col))
    return tokens


_PRIMITIVES = {"id", "c", "cinv", "b", "d", "bt", "dt"}


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise DiagramSyntaxError(
                f"expected {kind!r}, found {tok[1]!r}" if tok[0] != "eof"
                else f"expected {kind!r}, found end of input",
                tok[2], tok[3],
            )
        return tok

    # grammar: diagram := tensor { ";" tensor }
    def diagram(self):
        node = self.tensor()
        while self.peek()[0] == ";":
            self.next()
            node = Compose(node, self.tensor())
        return node

    # tensor := atom { "*" atom }
    def tensor(self):
        node = self.atom()
        while self.peek()[0] == "*":
            self.next()
            node = Tensor(node, self.atom())
        return node

    def atom(self):
        tok = self.peek()
        if tok[0] == "(":
            self.next()
            node = self.diagram()
            self.expect(")")
            return node
        if tok[0] != "name":
            raise DiagramSyntaxError(
                f"expected a diagram, found {tok[1]!r}" if tok[0] != "eof"
                else "unexpected end of input",
                tok[2], tok[3],
            )
        self.next()
        name = tok[1]
        if name in _PRIMITIVES and self.peek()[0] == "(":
            return self.primitive(name, tok)
        return Named(name)

    def primitive(self, name: str, tok):
        self.expect("(")
        args = []
        if self.peek()[0] != ")":
            args.append(self.expect("name")[1])
            while self.peek()[0] == ",":
                self.next()
                args.append(self.expect("name")[1])
        self.expect(")")
        if name == "id":
            return Id(tuple(args))
        if name in ("c", "cinv"):
            if len(args) != 2:
                raise DiagramSyntaxError(
                    f"{name}() takes exactly two labels", tok[2], tok[3]
                )
            return (Braid if name == "c" else BraidInv)(*args)
        if len(args) != 1:
            raise DiagramSyntaxError(
                f"{name}() takes exactly one label", tok[2], tok[3]
            )
        node = {"b": Cup, "d": Cap, "bt": CupTilde, "dt": CapTilde}[name]
        return node(args[0])


def parse_diagram(src: str):
    """Parse DSL text into a DiagramExpr, checking what can be checked."""
    parser = _Parser(src)
    node = parser.diagram()
    tok = parser.peek()
    if tok[0] != "eof":
        raise DiagramSyntaxError(f"unexpected {tok[1]!r} after diagram", tok[2], tok[3])
    _static_bounds(node)
    return node


# ---------------------------------------------------------------------------
# static boundary inference (labels as strings; None = not known yet)
# ---------------------------------------------------------------------------

def _static_bounds(node):
    """(source, target) words where they are symbolically determined."""
    if isinstance(node, Id):
        return node.word, node.word
    if isinstance(node, (Braid, BraidInv)):
        return (node.i, node.j), (node.j, node.i)
    if isinstance(node, (Cup, CupTilde)):
        return (), None  # target involves a dual label
    if isinstance(node, (Cap, CapTilde)):
        return None, ()
    if isinstance(node, Named):
        return None, None
    if isinstance(node, Tensor):
        ls, lt = _static_bounds(node.left)
        rs, rt = _static_bounds(node.right)
        src = ls + rs if (ls is not None and rs is not None) else None
        tgt = lt + rt if (lt is not None and rt is not None) else None
        return src, tgt
    if isinstance(node, Compose):
        fs, ft = _static_bounds(node.first)
        ss, st = _static_bounds(node.second)
        if ft is not None and ss is not None and ft != ss:
            raise TypeMismatch(
                f"cannot compose: {_word_str(ft)} feeds into {_word_str(ss)}"
            )
        return fs, st
    raise TypeMismatch(f"not a diagram node: {node!r}")


def _word_str(word) -> str:
    return "(" + ",".join(word) + ")" if word else "()"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def evaluate(C: MtcData, expr, bindings: dict | None = None) -> engine.Morphism:
    """Evaluate a DiagramExpr (or DSL text) to a Morphism.

    Closed diagrams come back as unit-to-unit morphisms; use ``.scalar()``
    to read the number off.  Words are built by :func:`engine.obj`, which
    drops the unit label: ``id(1,a)`` evaluates to ``id(a)`` and ``b(1)`` to
    the identity of the unit, while the static check of
    :func:`parse_diagram` compares words as written.
    """
    if isinstance(expr, str):
        expr = parse_diagram(expr)
    env = bindings or {}

    def lab(name: str) -> int:
        try:
            return C.index(name)
        except ParseError:
            raise TypeMismatch(f"unknown label {name!r} in diagram") from None

    def obj(*names: str) -> tuple:
        return engine.obj(*(lab(x) for x in names))

    def run(node) -> engine.Morphism:
        if isinstance(node, Id):
            return engine.identity(C, obj(*node.word))
        if isinstance(node, Braid):
            return engine.braid(C, obj(node.i), obj(node.j))
        if isinstance(node, BraidInv):
            return engine.braid(C, obj(node.i), obj(node.j), inverse=True)
        if isinstance(node, Cup):
            return engine.cup(C, obj(node.i)[0])
        if isinstance(node, Cap):
            return engine.cap(C, obj(node.i)[0])
        if isinstance(node, CupTilde):
            return engine.cup_tilde(C, obj(node.i)[0])
        if isinstance(node, CapTilde):
            return engine.cap_tilde(C, obj(node.i)[0])
        if isinstance(node, Named):
            try:
                return env[node.symbol]
            except KeyError:
                raise UnboundSymbol(
                    f"no binding for symbol {node.symbol!r}"
                ) from None
        if isinstance(node, Tensor):
            return engine.tensor(C, run(node.left), run(node.right))
        if isinstance(node, Compose):
            return run(node.second) @ run(node.first)
        raise TypeMismatch(f"not a diagram node: {node!r}")

    return run(expr)
