"""Tiny arithmetic expression language used by configuration files.

Grammar:

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := unary ('^' factor)?
    unary   := '-'? primary
    primary := number | ident | ident '(' args ')' | '(' expr ')'
    args    := expr (',' expr)*

'^' is right associative and shares its semantics with pow().  Unary minus
binds tighter than the base of '^', so -2^2 evaluates to 4.

Tokens are decimal numbers with an optional exponent part (any Unicode
decimal digit, as float() reads it), ASCII identifiers
[A-Za-z_][A-Za-z_0-9]*, and the operators + - * / ^ ( ) ,.  Any whitespace
may stand between tokens; any other character is an ExpressionSyntaxError
at its offset.  The only identifiers are the variables omega, t, s,
lambda, the constant pi, and the builtin functions sin, cos, tan, exp,
log, sqrt, abs, min, max, pow.  Text may nest at most _Parser.MAX_DEPTH
levels deep, and a path through its tree may pass at most that many
operators and calls, so a long flat chain such as x+x+...+x is an
ExpressionSyntaxError too.

Evaluation is element-wise: variables bind to floats or numpy arrays that
broadcast together, and one walk of the tree combines whole arrays with
numpy ufuncs.  Every domain check (division by zero, zero to a negative
power, a negative base with a non-integer exponent, log and sqrt out of
their domain, overflow in exp and pow) runs on every element, except
the checks of '/' and '^' that a constant right operand cannot trip, and
a result that is not finite is a DomainError too.
"""

from __future__ import annotations

import math
import operator
import re
from typing import Union

import numpy as np

from ._record import Record
from .errors import (
    DomainError,
    ExpressionSyntaxError,
    MissingBinding,
    UnknownIdentifier,
)

VARIABLES = ("omega", "t", "s", "lambda")


class _Node(Record):
    """An AST node: equal, hashed and printed by its type and fields, which
    __match_args__ lists in order.  A node can be weakly referenced, so
    calculus.functional_calculus can keep a multiplier while its g lives."""

    __slots__ = ("__weakref__",)

    def _key(self):
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__
        )
        return f"{type(self).__qualname__}({fields})"


class Num(_Node):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: float):
        super().__init__(value)


class Var(_Node):
    __slots__ = __match_args__ = ("name",)

    def __init__(self, name: str):
        super().__init__(name)


class Pi(_Node):
    __slots__ = __match_args__ = ()

    def __init__(self):
        super().__init__()


class Neg(_Node):
    __slots__ = __match_args__ = ("operand",)

    def __init__(self, operand: "Expression"):
        super().__init__(operand)


class BinOp(_Node):
    __slots__ = __match_args__ = ("op", "left", "right")

    def __init__(self, op: str, left: "Expression", right: "Expression"):
        super().__init__(op, left, right)


class Call(_Node):
    __slots__ = __match_args__ = ("func", "args")

    def __init__(self, func: str, args: tuple):
        super().__init__(func, args)


Expression = Union[Num, Var, Pi, Neg, BinOp, Call]


def _require(bad, message):
    if np.any(bad):
        raise DomainError(message)


def _first(x, bad):
    """The first entry of x, in C order, where bad holds."""
    return float(np.broadcast_to(x, np.shape(bad))[bad][0])


def _safe_div(a, b):
    _require(b == 0.0, "division by zero")
    return a / b


def _safe_pow(base, exponent):
    _require((base == 0.0) & (exponent < 0.0), "zero raised to a negative power")
    _require(
        (base < 0.0) & (exponent != np.floor(exponent)),
        "negative base with non-integer exponent",
    )
    out = np.power(base, exponent)
    overflow = np.isinf(out) & np.isfinite(base) & np.isfinite(exponent)
    _require(overflow, "overflow in pow")
    return out


def _safe_log(x):
    bad = x <= 0.0
    if np.any(bad):
        raise DomainError(f"log of non-positive value {_first(x, bad)!r}")
    return np.log(x)


def _safe_sqrt(x):
    bad = x < 0.0
    if np.any(bad):
        raise DomainError(f"sqrt of negative value {_first(x, bad)!r}")
    return np.sqrt(x)


def _safe_exp(x):
    out = np.exp(x)
    _require(np.isinf(out) & np.isfinite(x), "overflow in exp")
    return out


# name -> (arity, element-wise implementation); min and max keep Python's
# min(a, b) and max(a, b): the first argument unless the second compares
# strictly smaller (larger)
FUNCTIONS = {
    "sin": (1, np.sin),
    "cos": (1, np.cos),
    "tan": (1, np.tan),
    "exp": (1, _safe_exp),
    "log": (1, _safe_log),
    "sqrt": (1, _safe_sqrt),
    "abs": (1, np.abs),
    "min": (2, lambda a, b: np.where(b < a, b, a)),
    "max": (2, lambda a, b: np.where(b > a, b, a)),
    "pow": (2, _safe_pow),
}

# one token per match, after optional whitespace: a decimal number, an
# ASCII identifier, an operator, or any other character, which is an error
_TOKEN = re.compile(
    r"\s*(?:(?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^(),])|(?P<bad>\S))"
)
# the left-associative binary operators, loosest first
_LEVELS = (("+", "-"), ("*", "/"))


def _tokenize(text):
    """(kind, text, offset) per token, then ("end", "", len(text))."""
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ExpressionSyntaxError(
                f"unexpected character {m[kind]!r}", m.start(kind)
            )
        yield kind, m[kind], m.start(kind)
    yield "end", "", len(text)


class _Parser:
    """Recursive descent over the token list.  Every parse method returns
    a subtree and its height, the most operators and calls on a path from
    its root to a leaf.  MAX_DEPTH bounds both the nesting the parser
    recurses through (a group, a call's arguments, a unary minus, the
    right side of '^') and the height of the tree it builds, so that
    neither the parser nor a recursive walker of its trees comes near
    Python's recursion limit: past it, the offending token is an
    ExpressionSyntaxError."""

    MAX_DEPTH = 100

    def __init__(self, tokens):
        self.tokens = tokens
        self.index = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.index]

    def last(self):
        """The offset of the token consumed last."""
        return self.tokens[self.index - 1][2]

    def match_op(self, *ops):
        """The next token's text if it is one of ops, which it consumes."""
        kind, text, _ = self.peek()
        if kind == "op" and text in ops:
            self.index += 1
            return text
        return None

    def expect_op(self, op, what):
        if self.match_op(op) is None:
            raise ExpressionSyntaxError(f"expected {what}", self.peek()[2])

    def too_deep(self, pos):
        return ExpressionSyntaxError(
            f"expression nests deeper than {self.MAX_DEPTH} levels", pos
        )

    def deeper(self, pos, parse, *args):
        """parse(*args) one nesting level below the token at offset pos."""
        if self.depth == self.MAX_DEPTH:
            raise self.too_deep(pos)
        self.depth += 1
        out = parse(*args)
        self.depth -= 1
        return out

    def build(self, pos, node, *heights):
        """node, whose children have the given heights, and its own height;
        pos is the offset of the token that makes it."""
        height = 1 + max(heights)
        if height > self.MAX_DEPTH:
            raise self.too_deep(pos)
        return node, height

    def expr(self, level=0):
        """A chain of _LEVELS[level]'s operators over the next level,
        grouped to the left.  Past the last level it parses a factor in
        place, since a method of its own would cost every nested group one
        more stack frame."""
        if level == len(_LEVELS):
            node, height = self.unary()
            if self.match_op("^"):
                pos = self.last()
                right, right_height = self.deeper(pos, self.expr, level)
                return self.build(pos, BinOp("^", node, right), height, right_height)
            return node, height
        node, height = self.expr(level + 1)
        while op := self.match_op(*_LEVELS[level]):
            pos = self.last()
            right, right_height = self.expr(level + 1)
            node, height = self.build(pos, BinOp(op, node, right), height, right_height)
        return node, height

    def unary(self):
        if self.match_op("-"):
            pos = self.last()
            operand, height = self.deeper(pos, self.primary)
            return self.build(pos, Neg(operand), height)
        return self.primary()

    def primary(self):
        kind, name, pos = self.peek()
        self.index += 1
        if kind == "number":
            return Num(float(name)), 0
        if kind == "ident":
            if self.match_op("("):
                if name not in FUNCTIONS:
                    raise UnknownIdentifier(f"unknown function {name!r}", pos)
                opened = self.last()
                args = [self.deeper(opened, self.expr)]
                while self.match_op(","):
                    args.append(self.deeper(opened, self.expr))
                self.expect_op(")", "')' to close the argument list")
                arity = FUNCTIONS[name][0]
                if len(args) != arity:
                    raise ExpressionSyntaxError(
                        f"{name} expects {arity} argument(s), got {len(args)}", pos
                    )
                nodes, heights = zip(*args)
                return self.build(pos, Call(name, nodes), *heights)
            if name == "pi":
                return Pi(), 0
            if name in VARIABLES:
                return Var(name), 0
            if name in FUNCTIONS:
                raise ExpressionSyntaxError(
                    f"builtin {name!r} must be called with arguments", pos
                )
            raise UnknownIdentifier(f"unknown identifier {name!r}", pos)
        if name == "(":
            node = self.deeper(pos, self.expr)
            self.expect_op(")", "')' to close the group")
            return node
        raise ExpressionSyntaxError("expected a number, identifier, or '('", pos)


def parse(text: str) -> Expression:
    """Parse expression text into an AST.

    Raises ExpressionSyntaxError (with the byte offset of the problem) on
    malformed input or input past the depth bound, and UnknownIdentifier
    on identifiers outside the allowed set.
    """
    # scan all of the text first: a bad character anywhere is the error
    parser = _Parser(list(_tokenize(text)))
    node, _ = parser.expr()
    kind, trailing, pos = parser.peek()
    if kind != "end":
        raise ExpressionSyntaxError(f"unexpected trailing input {trailing!r}", pos)
    return node


def evaluate(e: Expression, bindings: dict):
    """Evaluate an AST element-wise over its variable bindings.

    Each binding is a float or a numpy array, and all of them broadcast
    together.  The result has their broadcast shape: a float when every
    binding is a scalar, a new float array otherwise.  Raises
    MissingBinding when a free variable has no bound value and DomainError
    when any element leaves the real domain or the result is not finite.
    """
    with np.errstate(all="ignore"):
        value = _walk(e, bindings)
    finite = np.isfinite(value)
    if not finite.all():
        raise DomainError(f"non-finite value {_first(value, ~finite)!r}")
    shape = np.broadcast(*bindings.values()).shape
    if not shape:
        return float(value)
    # every node but a variable computes a new array of its own
    if np.shape(value) == shape and type(e) is not Var:
        return value
    return np.broadcast_to(value, shape).copy()


def _walk(e, bindings):
    try:
        walker = _WALKERS[type(e)]
    except KeyError:
        raise TypeError(f"not an expression node: {e!r}") from None
    return walker(e, bindings)


def _walk_var(e, bindings):
    try:
        return np.asarray(bindings[e.name], dtype=float)
    except KeyError:
        raise MissingBinding(f"no binding for variable {e.name!r}") from None


def _walk_binop(e, bindings):
    op, right = e.op, e.right
    left = _walk(e.left, bindings)
    if type(right) is Num:
        # a constant right operand is checked once here instead of per
        # element: a nonzero divisor cannot divide by zero, and a finite,
        # non-negative integer exponent can only overflow
        c = right.value
        if op == "/" and c != 0.0:
            return left / c
        if op == "^" and 0.0 <= c < math.inf and c == math.floor(c):
            out = np.power(left, c)
            _require(np.isinf(out) & np.isfinite(left), "overflow in pow")
            return out
        return _BINARY[op](left, c)
    return _BINARY[op](left, _walk(right, bindings))


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": _safe_div,
    "^": _safe_pow,
}

_WALKERS = {
    Num: lambda e, bindings: e.value,
    Pi: lambda e, bindings: math.pi,
    Var: _walk_var,
    Neg: lambda e, bindings: -_walk(e.operand, bindings),
    BinOp: _walk_binop,
    Call: lambda e, bindings: FUNCTIONS[e.func][1](
        *[_walk(a, bindings) for a in e.args]
    ),
}


def free_variables(e: Expression) -> frozenset:
    match e:
        case Num() | Pi():
            return frozenset()
        case Var(name):
            return frozenset((name,))
        case Neg(operand):
            return free_variables(operand)
        case BinOp(_, left, right):
            return free_variables(left) | free_variables(right)
        case Call(_, args):
            out = frozenset()
            for a in args:
                out |= free_variables(a)
            return out
    raise TypeError(f"not an expression node: {e!r}")


def to_source(e: Expression) -> str:
    """Print an AST back to parseable text (fully parenthesized)."""
    match e:
        case Num(value):
            if value < 0 or (value == 0 and math.copysign(1.0, value) < 0):
                return f"(-{abs(value)!r})"
            return repr(value)
        case Pi():
            return "pi"
        case Var(name):
            return name
        case Neg(operand):
            return f"(-{to_source(operand)})"
        case BinOp(op, left, right):
            return f"({to_source(left)}{op}{to_source(right)})"
        case Call(func, args):
            return f"{func}({','.join(to_source(a) for a in args)})"
    raise TypeError(f"not an expression node: {e!r}")
