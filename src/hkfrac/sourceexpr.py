"""Tiny expression language for source terms on the command line.

Grammar (whitespace-insensitive; "^" is right-associative):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := unary ("^" factor)?
    unary  := "-"? base
    base   := number | "x" | "z" | ident "(" expr ")" | "(" expr ")"

Variables: ``x`` is the independent variable; ``z`` is a convenience alias
for the kernel coordinate z(x) and is supplied by the caller at evaluation
time.  Functions: exp, ln, sin, cos, sqrt, abs.  A unicode minus sign is
accepted as "-".  Evaluation is plain elementwise machine arithmetic
(numpy semantics: sqrt of a negative number is NaN, division by zero is
inf/NaN).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "SourceExpr",
    "parse_source",
    "ExprSyntaxError",
    "UnknownIdentifierError",
]


class ExprSyntaxError(ValueError):
    """Malformed expression; ``offset`` is the byte offset of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class UnknownIdentifierError(ValueError):
    """An identifier that is neither a variable nor a known function."""

    def __init__(self, name: str, offset: int):
        super().__init__(f"unknown identifier {name!r} (byte offset {offset})")
        self.name = name
        self.offset = offset


_FUNCTIONS = {
    "exp": np.exp,
    "ln": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_NUMBER_RE = re.compile(r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Node"


Node = Union[Num, Var, Neg, BinOp, Call]


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.src = text.replace("−", "-")  # unicode minus
        self.pos = 0

    def error(self, message: str):
        raise ExprSyntaxError(message, _byte_offset(self.text, self.pos))

    def skip_ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def accept(self, chars: str) -> str:
        c = self.peek()
        if c and c in chars:
            self.pos += 1
            return c
        return ""

    def expect(self, char: str):
        if not self.accept(char):
            self.error(f"expected {char!r}")

    def parse(self) -> Node:
        node = self.expr()
        if self.peek():
            self.error("unexpected trailing input")
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            op = self.accept("+-")
            if not op:
                return node
            node = BinOp(op, node, self.term())

    def term(self) -> Node:
        node = self.factor()
        while True:
            op = self.accept("*/")
            if not op:
                return node
            node = BinOp(op, node, self.factor())

    def factor(self) -> Node:
        node = self.unary()
        if self.accept("^"):
            return BinOp("^", node, self.factor())  # right-associative
        return node

    def unary(self) -> Node:
        if self.accept("-"):
            return Neg(self.base())
        return self.base()

    def base(self) -> Node:
        self.skip_ws()
        if self.pos >= len(self.src):
            self.error("unexpected end of input")
        c = self.src[self.pos]
        if c == "(":
            self.pos += 1
            node = self.expr()
            self.expect(")")
            return node
        m = _NUMBER_RE.match(self.src, self.pos)
        if m:
            self.pos = m.end()
            return Num(float(m.group()))
        m = _IDENT_RE.match(self.src, self.pos)
        if m:
            name = m.group()
            start = self.pos
            self.pos = m.end()
            if self.peek() == "(":
                if name not in _FUNCTIONS:
                    raise UnknownIdentifierError(name, _byte_offset(self.text, start))
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(name, arg)
            if name in ("x", "z"):
                return Var(name)
            raise UnknownIdentifierError(name, _byte_offset(self.text, start))
        self.error(f"unexpected character {c!r}")


def _evaluate(node: Node, x, z):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x if node.name == "x" else z
    if isinstance(node, Neg):
        return -_evaluate(node.operand, x, z)
    if isinstance(node, Call):
        return _FUNCTIONS[node.fn](_evaluate(node.arg, x, z))
    left = _evaluate(node.left, x, z)
    right = _evaluate(node.right, x, z)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        return left / right
    return np.power(left, right)


@dataclass(frozen=True)
class SourceExpr:
    """A parsed expression; evaluate with concrete x (and z) values."""

    ast: Node

    def evaluate(self, x, z=None):
        """Evaluate elementwise; x and z may be floats or ndarrays."""
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = _evaluate(self.ast, x, z)
        if isinstance(x, np.ndarray):
            return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()
        return float(out)


def parse_source(text: str) -> SourceExpr:
    """Parse an expression; raises :class:`ExprSyntaxError` (with byte
    offset) or :class:`UnknownIdentifierError` (with the name)."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return SourceExpr(_Parser(text).parse())
