"""Vector-field expression language: parsing, printing, elaboration.

Grammar (whitespace insignificant, one token of lookahead):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' unary) | unary)*        adjacency multiplies
    unary  := '-' unary | power
    power  := atom ('^' nat)?
    atom   := rational | 'i' | 'x' | '(' expr ')' | func '(' expr ')'
    func   := 'exp' | 'sin' | 'cos'

Rational literals are a single lexeme "p" or "p/q" with no internal
spaces.  Adjacent letters split greedily into the known names, so "ix"
reads as i*x.  The argument of exp/sin/cos must reduce to a scalar
multiple of x; the scalar is folded into the node at parse time.

A parsed expression is a tree of six node classes: Const (a rational or
Gaussian scalar), Var (x), Neg, Pow (a non-negative integer exponent),
BinOp (op "+", "-" or "*", adjacency included) and Func (name "exp",
"sin" or "cos", with the folded scalar as its scale).

An expression nests at most MAX_DEPTH = 100 levels deep.  A number, i
or x is one level, and each operator (a leading minus and adjacency
included) and each pair of parentheses (those of exp/sin/cos included)
adds one level around what it holds: x*x*x is three levels, ((x)) is
three and -(x+1)^2 is five.  Deeper input is a ParseError that names the
bound.  This keeps the parser, and every later walk of the tree, within
Python's default recursion limit.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle
from operator import add, mul, sub

from .errors import DomainRequiredError, ParseError, UnsupportedArgumentError
from .hurwitz import HurwitzSeries, power_truncating
from .scalars import Domain, GaussianRational, format_scalar, power


@dataclass(frozen=True)
class Const:
    value: object


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class BinOp:
    op: str  # "+", "-" or "*"
    left: object
    right: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class Neg:
    child: object


@dataclass(frozen=True)
class Func:
    name: str  # "exp", "sin" or "cos"
    scale: object


MAX_DEPTH = 100
"""The deepest an expression may nest; see the module docstring."""

_NUM_RE = re.compile(r"\d+(?:/\d+)?")
_WORDS = ("exp", "sin", "cos", "i", "x")
_ATOM_EXPECTED = ("number", "'x'", "'i'", "'exp'", "'sin'", "'cos'", "'('")
_OPS = {"+": add, "-": sub, "*": mul}
_SIGNS = {"exp": (1, 1, 1, 1), "sin": (0, 1, 0, -1), "cos": (1, 0, -1, 0)}


@dataclass(frozen=True)
class _Token:
    kind: str
    value: object
    offset: int
    text: str = ""


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    symbols = {"+": "plus", "-": "minus", "*": "star", "^": "caret",
               "(": "lparen", ")": "rparen"}
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdigit():
            m = _NUM_RE.match(text, pos)
            literal = m.group()
            try:
                value = Fraction(literal)
            except ZeroDivisionError:
                raise ParseError("zero denominator in rational literal", pos) from None
            except ValueError:  # raised by text-to-int conversion beyond the interpreter's limit
                raise ParseError(
                    f"rational literal has more than {sys.get_int_max_str_digits()} digits "
                    "in its numerator or denominator", pos,
                ) from None
            tokens.append(_Token("number", value, pos, literal))
            pos = m.end()
            continue
        if ch.isalpha():
            start = pos
            while pos < n and text[pos].isalpha():
                pos += 1
            run = text[start:pos]
            j = 0
            while j < len(run):
                for word in _WORDS:
                    if run.startswith(word, j):
                        tokens.append(_Token("word", word, start + j))
                        j += len(word)
                        break
                else:
                    raise ParseError(
                        f"unknown name {run[j:]!r}", start + j,
                        expected=("x", "i", "exp", "sin", "cos"),
                    )
            continue
        if ch in symbols:
            tokens.append(_Token(symbols[ch], ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(_Token("end", None, n))
    return tokens


class _Parser:
    """Recursive descent; every parse_* method returns (node, depth), depth as in MAX_DEPTH."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.open = 0  # parentheses and minus signs around the current token

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, expected):
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {_describe(tok)}", tok.offset, expected=expected)
        return self.advance()

    @staticmethod
    def deeper(tok, depth):
        """The depth of a level that ``tok`` opens around ``depth`` levels, at most MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise ParseError(f"expression nests deeper than {MAX_DEPTH} levels", tok.offset)
        return depth + 1

    def parse_expr(self):
        node, depth = self.parse_term()
        while self.peek().kind in ("plus", "minus"):
            op = self.advance()
            right, right_depth = self.parse_term()
            node, depth = BinOp(op.value, node, right), self.deeper(op, max(depth, right_depth))
        return node, depth

    def parse_term(self):
        node, depth = self.parse_unary()
        while True:
            tok = self.peek()
            if tok.kind == "star":
                self.advance()
            elif tok.kind not in ("number", "word", "lparen"):
                return node, depth
            right, right_depth = self.parse_unary()
            node, depth = BinOp("*", node, right), self.deeper(tok, max(depth, right_depth))

    def parse_unary(self):
        tok = self.peek()
        if tok.kind != "minus":
            return self.parse_power()
        self.advance()
        self.open = self.deeper(tok, self.open)
        child, depth = self.parse_unary()
        self.open -= 1
        return Neg(child), self.deeper(tok, depth)

    def parse_power(self):
        base, depth = self.parse_atom()
        if self.peek().kind == "caret":
            caret = self.advance()
            tok = self.expect("number", ("non-negative integer exponent",))
            if "/" in tok.text:
                # "p/q" lexes as one literal, so x^2/3 would read as x^(2/3) and x^4/2 as x^2
                p, q = tok.text.split("/")
                raise ParseError(
                    "exponent must be a non-negative integer "
                    f"(write 1/{q}*{format_expr(Pow(base, int(p)))} to divide)", tok.offset,
                    expected=("non-negative integer exponent",),
                )
            return Pow(base, int(tok.value)), self.deeper(caret, depth)
        return base, depth

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Const(tok.value), 1
        if tok.kind == "word":
            self.advance()
            if tok.value == "x":
                return Var(), 1
            if tok.value == "i":
                return Const(GaussianRational(0, 1)), 1
            self.expect("lparen", ("'('",))
        elif tok.kind == "lparen":
            self.advance()
        else:
            raise ParseError(f"unexpected {_describe(tok)}", tok.offset, expected=_ATOM_EXPECTED)
        self.open = self.deeper(tok, self.open)
        inner, depth = self.parse_expr()
        self.expect("rparen", ("')'",))
        self.open -= 1
        depth = self.deeper(tok, depth)
        if tok.kind == "lparen":
            return inner, depth
        scale = _linear_scale(inner, tok.value, tok.offset)
        return Func(tok.value, scale), depth


def _describe(tok):
    if tok.kind == "end":
        return "end of input"
    if tok.kind == "number":
        return f"token {tok.text}"
    return f"token {tok.value!r}"


def parse(text):
    """Parse an expression string into an expression tree."""
    parser = _Parser(_tokenize(text))
    node, _ = parser.parse_expr()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"unexpected {_describe(tok)}", tok.offset, expected=("end of input",))
    return node


def _poly(node):
    """Nonzero ordinary coefficients {k: c_k} of a transcendental-free tree, else None.

    Work is proportional to the number of terms, not to the degree, so
    x^300000 is one term throughout.
    """
    if isinstance(node, Const):
        return {0: node.value} if node.value else {}
    if isinstance(node, Var):
        return {1: Fraction(1)}
    if isinstance(node, Neg):
        inner = _poly(node.child)
        return None if inner is None else {k: -c for k, c in inner.items()}
    if isinstance(node, BinOp):
        left, right = _poly(node.left), _poly(node.right)
        if left is None or right is None:
            return None
        if node.op == "*":
            return _poly_mul(left, right)
        out = dict(left)
        for k, c in right.items():
            total = _OPS[node.op](out.pop(k, 0), c)
            if total:
                out[k] = total
        return out
    if isinstance(node, Pow):
        base = _poly(node.base)
        if base is None:
            return None
        return power(base, node.exponent, {0: Fraction(1)}, _poly_mul)
    return None


def _poly_mul(left, right):
    """Product of sparse ordinary polynomials, one product per pair of terms."""
    out = {}
    for i, a in left.items():
        for j, b in right.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return {k: c for k, c in out.items() if c}


def polynomial_coefficients(node):
    """Nonzero ordinary coefficients {k: c_k}, or None if exp/sin/cos occur."""
    return _poly(node)


def _linear_scale(node, func, offset):
    coeffs = _poly(node)
    if coeffs is None:
        raise UnsupportedArgumentError(
            f"{func} at offset {offset} takes a scalar multiple of x, not a nested function"
        )
    if not coeffs.keys() <= {1}:
        raise UnsupportedArgumentError(
            f"{func} at offset {offset} takes a scalar multiple of x"
        )
    return coeffs.get(1, Fraction(0))


def _scalar_series(value, domain):
    if domain is Domain.RATIONAL and isinstance(value, GaussianRational):
        raise DomainRequiredError("this expression needs --domain gaussian")
    return domain.coerce(value)


def elaborate(node, order, domain=Domain.RATIONAL):
    """Series of an expression at the given truncation order and domain."""
    if isinstance(node, Const):
        return HurwitzSeries.constant(_scalar_series(node.value, domain), order, domain)
    if isinstance(node, Var):
        return HurwitzSeries.x(order, domain)
    if isinstance(node, BinOp):
        left, right = elaborate(node.left, order, domain), elaborate(node.right, order, domain)
        return _OPS[node.op](left, right)
    if isinstance(node, Neg):
        return -elaborate(node.child, order, domain)
    if isinstance(node, Pow):
        return power_truncating(elaborate(node.base, order, domain), node.exponent)
    if isinstance(node, Func):
        # coefficient k of exp, sin or cos(a x) is signs[k % 4] * a**k
        powers = HurwitzSeries.exp(_scalar_series(node.scale, domain), order, domain)
        signs = _SIGNS[node.name]
        parts = [list(map(mul, cycle(signs), part)) for part in powers.parts]
        return HurwitzSeries.from_integers(parts, powers.den, domain)
    raise TypeError(f"not a field expression: {node!r}")


def series_from_text(text, order, domain=Domain.RATIONAL):
    """Parse and elaborate in one step."""
    return elaborate(parse(text), order, domain)


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_NEG = 3
_PREC_POW = 4
_PREC_ATOM = 9


def _const_text(value):
    if isinstance(value, GaussianRational) and value.im != 0:
        if value.re == 0 and value.im == 1:
            return "i", _PREC_ATOM
        # composite scalars are printed as an explicit product expression
        if value.re == 0:
            return f"({format_scalar(Fraction(value.im))}*i)", _PREC_ATOM
        return (
            f"({format_scalar(value.re)}+{format_scalar(Fraction(value.im))}*i)",
            _PREC_ATOM,
        )
    text = format_scalar(value)
    return text, (_PREC_NEG if text.startswith("-") else _PREC_ATOM)


def _scale_text(scale):
    if scale == 1:
        return "x"
    if scale == -1:
        return "-x"
    text, _ = _const_text(scale)
    return f"{text}*x"


def _fmt(node, parent_prec):
    if isinstance(node, Const):
        text, prec = _const_text(node.value)
    elif isinstance(node, Var):
        text, prec = "x", _PREC_ATOM
    elif isinstance(node, BinOp):
        prec = _PREC_MUL if node.op == "*" else _PREC_ADD
        text = f"{_fmt(node.left, prec)}{node.op}{_fmt(node.right, prec + 1)}"
    elif isinstance(node, Neg):
        text = f"-{_fmt(node.child, _PREC_NEG)}"
        prec = _PREC_NEG
    elif isinstance(node, Pow):
        text = f"{_fmt(node.base, _PREC_POW + 1)}^{node.exponent}"
        prec = _PREC_POW
    elif isinstance(node, Func):
        text, prec = f"{node.name}({_scale_text(node.scale)})", _PREC_ATOM
    else:
        raise TypeError(f"not a field expression: {node!r}")
    if prec < parent_prec:
        return f"({text})"
    return text


def format_expr(node):
    """Expression text that reparses to a structurally identical tree."""
    return _fmt(node, 0)
