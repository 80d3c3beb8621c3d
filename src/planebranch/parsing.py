"""Text format for polynomials in x and y.

Grammar, with whitespace free between tokens but never inside a number:

    expr     := '-'? term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := '(' expr ')' | 'x' | 'y' | rational
    rational := uint ('/' uint)?
    uint     := [0-9]+

Multiplication is always explicit: ``2x`` is rejected, ``2*x`` is fine.
``parse_poly`` and ``str(BiPoly)`` round-trip exactly.

A sum costs its terms once: they are collected in one dict, not added to a
copy of the partial sum.  A power or a product of single monomials is one
monomial; products and powers of sums go through BiPoly's ring operations.
"""

import re
import sys
from fractions import Fraction

from .errors import PolyParseError
from .poly import BiPoly, _raw

__all__ = ["parse_poly"]

#: the coefficient of x and y; a product or power with it needs no arithmetic
_ONE = Fraction(1)

# Digits are ASCII only, as the printer writes them: str.isdigit would also
# take '²' or '٣', which Fraction cannot read or reads as another digit.
# Whitespace (space, tab, \r, \n) matches no group, so finditer steps over it.
_TOKEN = re.compile(
    r"(?P<number>[0-9]+(?:/[0-9]+)?)"  # a slash binds only when digits follow directly
    r"|(?P<single>[-+*^()xy])"
    r"|(?P<other>[^ \t\r\n])"
)


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = []  # (kind, value, offset into text)
        for m in _TOKEN.finditer(text):
            kind, value, at = m.lastgroup, m.group(), m.start()
            if kind == "other":
                raise self.error(f"unexpected character {value!r}", at)
            if kind == "number":
                num, _, den = value.partition("/")
                den = self.integer(den or "1", at)
                if den == 0:
                    raise self.error("zero denominator", at)
                self.tokens.append((kind, Fraction(self.integer(num, at), den), at))
            else:
                self.tokens.append((value, value, at))
        self.tokens.append(("end", None, len(text)))
        self.pos = 0

    def integer(self, digits: str, at: int) -> int:
        # int() refuses more digits than the interpreter's limit; the limit
        # stays, and the input is told where its number starts
        try:
            return int(digits)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            raise self.error(f"number has more than {limit} digits", at) from None

    def error(self, message, at=None) -> PolyParseError:
        if at is None:
            at = self.tokens[self.pos][2]
        line = self.text.count("\n", 0, at) + 1
        column = at - (self.text.rfind("\n", 0, at) + 1) + 1
        return PolyParseError(message, line, column)

    def peek(self) -> str:
        return self.tokens[self.pos][0]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expr(self) -> BiPoly:
        op = self.advance()[0] if self.peek() == "-" else "+"
        total = {}
        while True:
            for key, c in self.term()._terms.items():
                total[key] = total.get(key, 0) + (c if op == "+" else -c)
            if self.peek() not in ("+", "-"):
                return _raw({key: c for key, c in total.items() if c})
            op = self.advance()[0]

    def term(self) -> BiPoly:
        result = self.factor()
        while self.peek() == "*":
            self.advance()
            rhs = self.factor()
            if len(result._terms) == len(rhs._terms) == 1:
                ((i, j), c), ((k, l), d) = *result._terms.items(), *rhs._terms.items()
                result = _raw({(i + k, j + l): d if c is _ONE else c if d is _ONE else c * d})
            else:
                result = result * rhs
        return result

    def factor(self) -> BiPoly:
        base = self.base()
        if self.peek() != "^":
            return base
        self.advance()
        kind, value, at = self.advance()
        if kind != "number" or value.denominator != 1:
            raise self.error("exponent must be a nonnegative integer", at)
        n = int(value)
        if len(base._terms) == 1:
            ((i, j), c), = base._terms.items()
            return _raw({(i * n, j * n): c if c is _ONE else c**n})
        return base**n

    def base(self) -> BiPoly:
        kind, value, at = self.advance()
        if kind == "(":
            inner = self.expr()
            if self.peek() != ")":
                raise self.error(f"expected ')', found {self.peek()!r}")
            self.advance()
            return inner
        if kind == "number":
            return _raw({(0, 0): value} if value else {})
        if kind in ("x", "y"):
            return _raw({(1, 0) if kind == "x" else (0, 1): _ONE})
        message = "unexpected end of input" if kind == "end" else f"unexpected {kind!r}"
        raise self.error(message, at)


def parse_poly(text: str) -> BiPoly:
    """Parse the textual polynomial format into a BiPoly.

    Raises PolyParseError, carrying 1-based line and column, on any
    malformed input, including trailing junk after a valid prefix,
    parentheses nested deeper than the interpreter's recursion limit and
    numbers longer than its limit on digits (sys.get_int_max_str_digits).
    """
    parser = _Parser(text)
    if parser.peek() == "end":
        raise parser.error("empty input")
    try:
        result = parser.expr()
    except RecursionError:
        # pos may stand past the end token: point at the last token read
        at = parser.tokens[parser.pos - 1][2]
        raise parser.error("expression is nested too deeply", at) from None
    if parser.peek() != "end":
        raise parser.error(f"unexpected {parser.peek()!r} after expression")
    return result
