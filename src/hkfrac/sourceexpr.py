"""Tiny expression language for source terms on the command line.

Grammar (whitespace-insensitive; "^" is right-associative):

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := unary ("^" factor)?
    unary  := "-"? base
    base   := number | "x" | "z" | ident "(" expr ")" | "(" expr ")"

Variables: ``x`` is the independent variable; ``z`` is the kernel
coordinate z(x), supplied by the caller (the solver passes a grid's exact z
to ``SourceExpr.evaluate``); an expression that uses z refuses no z.
Functions: exp, ln, sin, cos, sqrt, abs.  A unicode minus sign is
accepted as "-".  Parsing compiles every subexpression to a closure
(x, z) -> value, so evaluation runs no parse tree.  Evaluation is plain
elementwise machine arithmetic (numpy semantics: sqrt of a negative number
is NaN, division by zero is inf/NaN).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ValidationError

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

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": np.power}


def _binary(op: str, left: Callable, right: Callable) -> Callable:
    fn = _BINARY[op]
    return lambda x, z: fn(left(x, z), right(x, z))


def _byte_offset(text: str, pos: int) -> int:
    return len(text[:pos].encode("utf-8"))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.src = text.replace("−", "-")  # unicode minus
        self.pos = 0
        self.uses_z = False

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

    def parse(self) -> Callable:
        fn = self.expr()
        if self.peek():
            self.error("unexpected trailing input")
        return fn

    def expr(self) -> Callable:
        fn = self.term()
        while op := self.accept("+-"):
            fn = _binary(op, fn, self.term())
        return fn

    def term(self) -> Callable:
        fn = self.factor()
        while op := self.accept("*/"):
            fn = _binary(op, fn, self.factor())
        return fn

    def factor(self) -> Callable:
        fn = self.unary()
        if self.accept("^"):
            return _binary("^", fn, self.factor())  # right-associative
        return fn

    def unary(self) -> Callable:
        if self.accept("-"):
            operand = self.base()
            return lambda x, z: -operand(x, z)
        return self.base()

    def base(self) -> Callable:
        self.skip_ws()
        if self.pos >= len(self.src):
            self.error("unexpected end of input")
        c = self.src[self.pos]
        if c == "(":
            self.pos += 1
            fn = self.expr()
            self.expect(")")
            return fn
        m = _NUMBER_RE.match(self.src, self.pos)
        if m:
            self.pos = m.end()
            value = np.float64(m.group())  # so 1/0 is inf, not a ZeroDivisionError
            return lambda x, z: value
        m = _IDENT_RE.match(self.src, self.pos)
        if m:
            name = m.group()
            start = self.pos
            self.pos = m.end()
            if self.peek() == "(":
                if name not in _FUNCTIONS:
                    raise UnknownIdentifierError(name, _byte_offset(self.text, start))
                self.expect("(")
                fn, arg = _FUNCTIONS[name], self.expr()
                self.expect(")")
                return lambda x, z: fn(arg(x, z))
            if name == "x":
                return lambda x, z: x
            if name == "z":
                self.uses_z = True
                return lambda x, z: z
            raise UnknownIdentifierError(name, _byte_offset(self.text, start))
        self.error(f"unexpected character {c!r}")


@dataclass(frozen=True)
class SourceExpr:
    """A parsed expression; evaluate with concrete x (and z) values."""

    _fn: Callable
    uses_z: bool

    def evaluate(self, x, z=None):
        """Evaluate elementwise; x and z may be floats or ndarrays.

        z may be left out only when the expression does not use it.
        """
        if z is None and self.uses_z:
            raise ValidationError("the expression uses z, so evaluate needs z (got z=None)")
        za = None if z is None else np.asarray(z, dtype=float)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            out = self._fn(np.asarray(x, dtype=float), za)
        if isinstance(x, np.ndarray):
            return np.broadcast_to(np.asarray(out, dtype=float), x.shape).copy()
        return float(out)


def parse_source(text: str) -> SourceExpr:
    """Parse an expression; raises :class:`ExprSyntaxError` (with byte
    offset) or :class:`UnknownIdentifierError` (with the name)."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(text)
    fn = parser.parse()
    return SourceExpr(fn, parser.uses_z)
