"""A small arithmetic expression language for problem data.

Grammar: numbers, the fixed variable set {t, s, y, z, zeta, w, wt, wT,
T1, T}, binary + - * / ^ with ^ binding tightest and right-associative,
unary minus between ^ and * /, and the calls exp, log, sqrt, abs, sin,
cos (one argument) and min, max (two arguments).

Diagnostics carry byte offsets into the source.  Evaluation is plain
IEEE double arithmetic; passing numpy arrays through the environment
evaluates all paths at once, which the solvers rely on, but scalar
in/scalar out is the contract.  Domain faults (log of a nonpositive,
even root of a negative, zero over zero) surface as NaN rather than
raise; the solvers locate them by checking the generator's output.
An AST compiles once into a :class:`Program`, which allocates each
intermediate as numpy does.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Union

import numpy as np

VARIABLES = ("t", "s", "y", "z", "zeta", "w", "wt", "wT", "T1", "T")
FUNCTIONS = {
    "exp": 1, "log": 1, "sqrt": 1, "abs": 1,
    "sin": 1, "cos": 1, "min": 2, "max": 2,
}

_ADD, _MUL, _UNARY, _POW = 10, 20, 30, 40
_BIN_PREC = {"+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL, "^": _POW}


class ExprError(ValueError):
    """Parse or evaluation fault, located by byte offset."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"{message} (byte {offset})")
        self.message = message
        self.offset = offset


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Unary:
    operand: "Node"
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Node"
    right: "Node"
    offset: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Node", ...]
    offset: int = field(default=0, compare=False)


Node = Union[Num, Var, Unary, Bin, Call]

_NUM_HEAD = set("0123456789.")
_IDENT_HEAD = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_BODY = _IDENT_HEAD | set("0123456789")


def _byte_offset(src: str, index: int) -> int:
    return len(src[:index].encode("utf-8"))


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c in " \t\r\n":
            i += 1
            continue
        at = _byte_offset(src, i)
        if c in "+-*/^(),":
            tokens.append((c, c, at))
            i += 1
        elif c in _NUM_HEAD:
            j = i
            seen_dot = False
            while j < n and (src[j].isdigit() or (src[j] == "." and not seen_dot)):
                seen_dot = seen_dot or src[j] == "."
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    while k < n and src[k].isdigit():
                        k += 1
                    j = k
            text = src[i:j]
            if text == ".":
                raise ExprError("stray '.'", at)
            tokens.append(("num", text, at))
            i = j
        elif c in _IDENT_HEAD:
            j = i
            while j < n and src[j] in _IDENT_BODY:
                j += 1
            tokens.append(("ident", src[i:j], at))
            i = j
        else:
            raise ExprError(f"unexpected character {c!r}", at)
    tokens.append(("end", "", _byte_offset(src, n)))
    return tokens


class _Parser:
    def __init__(self, src: str) -> None:
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Node:
        node = self.expression(0)
        kind, text, at = self.peek()
        if kind != "end":
            if kind == ")":
                raise ExprError("unbalanced ')'", at)
            raise ExprError(f"unexpected {text!r}", at)
        return node

    def expression(self, rbp: int) -> Node:
        node = self.prefix()
        while True:
            kind, _, at = self.peek()
            prec = _BIN_PREC.get(kind)
            if prec is None or prec <= rbp:
                return node
            self.advance()
            # ^ is right-associative, everything else left
            right = self.expression(prec - 1 if kind == "^" else prec)
            node = Bin(kind, node, right, offset=at)

    def prefix(self) -> Node:
        kind, text, at = self.advance()
        if kind == "num":
            value = float(text)
            if not np.isfinite(value):
                raise ExprError("number literal out of range", at)
            return Num(value, offset=at)
        if kind == "-":
            return Unary(self.expression(_UNARY), offset=at)
        if kind == "(":
            node = self.expression(0)
            tok = self.advance()
            if tok[0] != ")":
                raise ExprError("unbalanced '('", at)
            return node
        if kind == "ident":
            if self.peek()[0] == "(":
                return self.call(text, at)
            if text not in VARIABLES:
                raise ExprError(f"unknown identifier {text!r}", at)
            return Var(text, offset=at)
        raise ExprError(f"unexpected {text!r}" if text else "unexpected end of input", at)

    def call(self, name: str, at: int) -> Node:
        if name not in FUNCTIONS:
            raise ExprError(f"unknown function {name!r}", at)
        open_tok = self.advance()  # the '('
        args = [self.expression(0)]
        while self.peek()[0] == ",":
            self.advance()
            args.append(self.expression(0))
        tok = self.advance()
        if tok[0] != ")":
            raise ExprError("unbalanced '('", open_tok[2])
        if len(args) != FUNCTIONS[name]:
            raise ExprError(
                f"{name} takes {FUNCTIONS[name]} argument(s), got {len(args)}", at
            )
        return Call(name, tuple(args), offset=at)


def parse(src: str) -> Node:
    """Parse a source string into an AST, or raise :class:`ExprError`."""
    return _Parser(src).parse()


def free_variables(node: Node) -> frozenset[str]:
    """Names of all variables read by the expression."""
    if isinstance(node, Var):
        return frozenset((node.name,))
    if isinstance(node, Unary):
        return free_variables(node.operand)
    if isinstance(node, Bin):
        return free_variables(node.left) | free_variables(node.right)
    if isinstance(node, Call):
        out: frozenset[str] = frozenset()
        for a in node.args:
            out |= free_variables(a)
        return out
    return frozenset()


_CALLS = {
    "exp": np.exp, "log": np.log, "sqrt": np.sqrt, "abs": np.abs,
    "sin": np.sin, "cos": np.cos, "min": np.minimum, "max": np.maximum,
}
_BIN_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
    "^": np.power,
}


def _compile(node: Node):
    """Closure ``run(env) -> value`` evaluating ``node``."""
    if isinstance(node, Num):
        value = np.float64(node.value)
        return lambda env: value
    if isinstance(node, Var):
        name, offset = node.name, node.offset

        def var(env: dict):
            try:
                return env[name]
            except KeyError:
                raise ExprError(f"unbound variable {name!r}", offset) from None

        return var
    if isinstance(node, Unary):
        parts, op = (_compile(node.operand),), operator.neg
    elif isinstance(node, Bin):
        parts, op = (_compile(node.left), _compile(node.right)), _BIN_OPS[node.op]
    else:
        parts, op = tuple(_compile(a) for a in node.args), _CALLS[node.name]

    def apply(env: dict):
        return op(*[part(env) for part in parts])

    return apply


class Program:
    """An expression compiled once into closures, to run as often as needed.

    ``Program(node)(env)`` returns what :func:`eval_expr` returns, and
    allocates every array it produces as numpy does.  The arrays in
    ``env`` are read, never written; a lone variable comes back as the
    ``env`` entry itself.
    """

    def __init__(self, node: Node) -> None:
        self._run = _compile(node)

    def __call__(self, env: dict):
        with np.errstate(all="ignore"):
            return self._run(env)


def eval_expr(node: Node, env: dict):
    """Evaluate an AST in an environment of scalars (or numpy arrays).

    Unknown variables raise; domain faults produce NaN.  Compiles the
    AST on every call; :class:`Program` compiles it once.
    """
    return Program(node)(env)


def _node_prec(node: Node) -> int:
    if isinstance(node, Unary):
        return _UNARY
    if isinstance(node, Bin):
        return _BIN_PREC[node.op]
    return 100  # atoms and calls never need wrapping


def _print(node: Node, ctx: int) -> str:
    if isinstance(node, Num):
        v = node.value
        # exact round-trip: integers print bare, everything else via repr
        text = str(int(v)) if v.is_integer() and abs(v) < 1e16 else repr(v)
    elif isinstance(node, Var):
        text = node.name
    elif isinstance(node, Call):
        text = f"{node.name}({', '.join(_print(a, 0) for a in node.args)})"
    elif isinstance(node, Unary):
        text = f"-{_print(node.operand, _UNARY)}"
    else:
        prec = _BIN_PREC[node.op]
        if node.op == "^":
            text = f"{_print(node.left, prec + 1)}^{_print(node.right, prec)}"
        else:
            text = f"{_print(node.left, prec)}{node.op}{_print(node.right, prec + 1)}"
    return f"({text})" if _node_prec(node) < ctx else text


def format_expr(node: Node) -> str:
    """Render an AST back to source with minimal parentheses.

    ``parse(format_expr(parse(src)))`` equals ``parse(src)`` node for
    node; offsets are not part of node equality.
    """
    return _print(node, 0)
