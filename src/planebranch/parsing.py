"""Text format for polynomials in x and y.

Grammar, with whitespace free between tokens but never inside a number:

    expr     := '-'? term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := '(' expr ')' | 'x' | 'y' | rational
    rational := uint ('/' uint)?
    uint     := [0-9]+

Multiplication is always explicit: ``2x`` is rejected, ``2*x`` is fine.
An exponent is a uint: ``x^1/2`` and ``x^6/2`` are rejected alike.
``parse_poly`` and ``str(BiPoly)`` round-trip exactly.

A number token carries an int, or a Fraction when it has a slash.  base,
factor and term build a monomial as a tuple (i, j, c), so a product or a
power of monomials is integer arithmetic on the tuple.  Only a
parenthesised sum of more than one term becomes a BiPoly, and products and
powers with it go through BiPoly's ring operations.  expr collects its
terms in one dict, not added to a copy of the partial sum, and parse_poly
makes each coefficient of the whole sum a Fraction once.
"""

import re
import sys
from fractions import Fraction

from .errors import PolyParseError
from .poly import BiPoly, _raw

__all__ = ["parse_poly"]

# Digits are ASCII only, as the printer writes them: str.isdigit would also
# take '²' or '٣', which Fraction cannot read or reads as another digit.  A
# slash binds only when digits follow directly.  split leaves the gaps
# between tokens, where only whitespace (space, tab, \r, \n) may stand.
_TOKEN = re.compile(r"([0-9]+(?:/[0-9]+)?|[-+*^()xy])")
_SPACE = " \t\r\n"
_SINGLE = frozenset("-+*^()xy")


def _poly(value) -> BiPoly:
    """A monomial (i, j, c) or a BiPoly, as a BiPoly for ring operations."""
    return _raw({value[:2]: value[2]}) if type(value) is tuple else value


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokens = []  # (kind, value, offset into text)
        pieces = _TOKEN.split(text)  # gap, token, gap, ..., token, gap
        at = 0
        for k in range(1, len(pieces), 2):
            gap, value = pieces[k - 1], pieces[k]
            if gap:
                self.space(gap, at)
                at += len(gap)
            if value in _SINGLE:
                tokens.append((value, value, at))
            else:
                num, slash, den = value.partition("/")
                if slash:
                    den = self.integer(den, at)
                    if den == 0:
                        raise self.error("zero denominator", at)
                    tokens.append(("number", Fraction(self.integer(num, at), den), at))
                else:
                    tokens.append(("number", self.integer(num, at), at))
            at += len(value)
        self.space(pieces[-1], at)
        tokens.append(("end", None, len(text)))
        self.pos = 0

    def space(self, gap: str, at: int):
        """Raise at the first character of the gap that is not whitespace."""
        if gap.strip(_SPACE):
            at += len(gap) - len(gap.lstrip(_SPACE))
            raise self.error(f"unexpected character {self.text[at]!r}", at)

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

    def expr(self) -> dict:
        """The sum as {(i, j): coefficient}, coefficients int or Fraction,
        zeros kept."""
        tokens = self.tokens
        minus = tokens[self.pos][0] == "-"
        if minus:
            self.pos += 1
        total = {}
        while True:
            term = self.term()
            if type(term) is tuple:
                i, j, c = term
                total[i, j] = total.get((i, j), 0) + (-c if minus else c)
            else:
                for key, c in term._terms.items():
                    total[key] = total.get(key, 0) + (-c if minus else c)
            op = tokens[self.pos][0]
            if op != "+" and op != "-":
                return total
            minus = op == "-"
            self.pos += 1

    def term(self):
        result = self.factor()
        tokens = self.tokens
        while tokens[self.pos][0] == "*":
            self.pos += 1
            rhs = self.factor()
            if type(result) is tuple and type(rhs) is tuple:
                result = (result[0] + rhs[0], result[1] + rhs[1], result[2] * rhs[2])
            else:
                result = _poly(result) * _poly(rhs)
        return result

    def factor(self):
        base = self.base()
        tokens = self.tokens
        if tokens[self.pos][0] != "^":
            return base
        _, n, at = tokens[self.pos + 1]
        if type(n) is not int:  # any token but a uint, x^6/2 included
            raise self.error("exponent must be a nonnegative integer", at)
        self.pos += 2
        if type(base) is tuple:
            i, j, c = base
            return (i * n, j * n, c**n)
        return base**n

    def base(self):
        kind, value, at = self.tokens[self.pos]
        self.pos += 1
        if kind == "number":
            return (0, 0, value)
        if kind == "x":
            return (1, 0, 1)
        if kind == "y":
            return (0, 1, 1)
        if kind == "(":
            inner = self.expr()
            if self.tokens[self.pos][0] != ")":
                raise self.error(f"expected ')', found {self.tokens[self.pos][0]!r}")
            self.pos += 1
            inner = {key: c for key, c in inner.items() if c}
            if len(inner) == 1:
                ((i, j), c), = inner.items()
                return (i, j, c)
            # its int coefficients are read as numerators by BiPoly's * and **
            return _raw(inner)
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
    if parser.tokens[0][0] == "end":
        raise parser.error("empty input")
    try:
        total = parser.expr()
    except RecursionError:
        # pos may stand past the end token: point at the last token read
        at = parser.tokens[parser.pos - 1][2]
        raise parser.error("expression is nested too deeply", at) from None
    kind = parser.tokens[parser.pos][0]
    if kind != "end":
        raise parser.error(f"unexpected {kind!r} after expression")
    return _raw({key: Fraction(c) for key, c in total.items() if c})
