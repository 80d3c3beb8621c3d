"""Expression grammar: parsing, printing, error positions."""

from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from planebranch import BiPoly, PolyParseError, parse_poly

x = BiPoly.x
y = BiPoly.y


def test_reference_inputs():
    f2 = parse_poly("(y^2-x^3)^2-x^5*y")
    assert f2 == y(4) - 2 * x(3) * y(2) - x(5) * y() + x(6)
    assert parse_poly("y") == y()
    f1 = parse_poly("(y^3-6*x^3*y-x^4)^2-9*x^9")
    assert f1.deg_y() == 6 and f1.is_weierstrass()


def test_rationals_and_whitespace():
    assert parse_poly("1/2*x") == BiPoly.monomial(Fraction(1, 2), 1, 0)
    assert parse_poly("  y ^ 2   -  x ^ 3 ") == y(2) - x(3)
    assert parse_poly("3/6") == BiPoly.constant(Fraction(1, 2))
    assert parse_poly("x^12") == x(12)


def test_leading_minus():
    assert parse_poly("-x^3 + y") == y() - x(3)
    assert parse_poly("(-x + y)^2") == (y() - x()) ** 2


def test_association_is_irrelevant():
    assert parse_poly("x*(y+2)") == parse_poly("x*y+2*x")
    assert parse_poly("(x+y)+x") == parse_poly("x+(y+x)")


def test_printer_roundtrip(rng):
    for _ in range(500):
        terms = {}
        for _k in range(rng.randint(0, 7)):
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            terms[(rng.randint(0, 6), rng.randint(0, 6))] = c
        p = BiPoly(terms)
        assert parse_poly(str(p)) == p, str(p)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("2x", "unexpected 'x'"),
        ("x y", "unexpected 'y'"),
        ("x^-2", "exponent"),
        ("x^(2)", "exponent"),
        ("x^1/2", "exponent"),
        ("", "empty input"),
        ("x +", "unexpected end"),
        ("(x", "expected ')'"),
        ("1/0", "zero denominator"),
        ("x $ y", "unexpected character"),
        ("x + * y", "unexpected '*'"),
        ("1 / 2", "unexpected character"),
        ("--x", "unexpected '-'"),
    ],
)
def test_rejects_malformed(text, fragment):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text)
    assert fragment in str(err.value)


def test_error_positions():
    with pytest.raises(PolyParseError) as err:
        parse_poly("x +\n 2y")
    assert (err.value.line, err.value.column) == (2, 3)
    with pytest.raises(PolyParseError) as err:
        parse_poly("x ? y")
    assert (err.value.line, err.value.column) == (1, 3)


# Full message, line and column of each rejection. Tabs and carriage
# returns count as one column; a newline starts the next line.
@pytest.mark.parametrize(
    "text,message,line,column",
    [
        ("x +\n 2y", "unexpected 'y' after expression", 2, 3),
        ("\tx ^ y", "exponent must be a nonnegative integer", 1, 6),
        ("1 / 2", "unexpected character '/'", 1, 3),
        ("2x", "unexpected 'x' after expression", 1, 2),
        ("x^-2", "exponent must be a nonnegative integer", 1, 3),
        ("x^(2)", "exponent must be a nonnegative integer", 1, 3),
        ("x^1/2", "exponent must be a nonnegative integer", 1, 3),
        ("x^", "exponent must be a nonnegative integer", 1, 3),
        ("", "empty input", 1, 1),
        ("   \n\t", "empty input", 2, 2),
        ("x +", "unexpected end of input", 1, 4),
        ("(x", "expected ')', found 'end'", 1, 3),
        ("((x+y)", "expected ')', found 'end'", 1, 7),
        ("x)", "unexpected ')' after expression", 1, 2),
        ("1/0", "zero denominator", 1, 1),
        ("x+3/00", "zero denominator", 1, 3),
        ("x $ y", "unexpected character '$'", 1, 3),
        ("x\f", "unexpected character '\\x0c'", 1, 2),
        ("y^2-x^3\n+\n$", "unexpected character '$'", 3, 1),
        ("x + * y", "unexpected '*'", 1, 5),
        ("--x", "unexpected '-'", 1, 2),
        ("()", "unexpected ')'", 1, 2),
        ("x\r\n  *\r\n  )", "unexpected ')'", 3, 3),
        ("12 34", "unexpected 'number' after expression", 1, 4),
        ("x^2^3", "unexpected '^' after expression", 1, 4),
        ("1/2/3", "unexpected character '/'", 1, 4),
        ("(y^2-x^3)^2-x^5*y)", "unexpected ')' after expression", 1, 18),
        ("x\n\n   + \t+", "unexpected '+'", 3, 7),
        ("x^6/2", "exponent must be a nonnegative integer", 1, 3),
        ("y^4/2 - x^3", "exponent must be a nonnegative integer", 1, 3),
        ("x^0/5", "exponent must be a nonnegative integer", 1, 3),
    ],
)
def test_rejection_golden(text, message, line, column):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.parametrize(
    "text,message,line,column",
    [
        ("x^²", "unexpected character '²'", 1, 3),
        ("y-x^٣", "unexpected character '٣'", 1, 5),
        ("y^2\n-x^³", "unexpected character '³'", 2, 4),
    ],
)
def test_digits_are_ascii(text, message, line, column):
    with pytest.raises(PolyParseError) as err:
        parse_poly(text)
    assert str(err.value) == f"{message} (line {line}, column {column})"


def test_deep_nesting_is_a_parse_error():
    assert parse_poly("(" * 200 + "y" + ")" * 200 + "^2-x^3") == y(2) - x(3)
    with pytest.raises(PolyParseError, match="nested too deeply") as err:
        parse_poly("(" * 250 + "y" + ")" * 250 + "^2-x^3")
    assert err.value.line == 1 and 1 <= err.value.column <= 251


@given(st.text(alphabet="xy0123+-*^()/ \n²٣$", max_size=8))
def test_any_text_parses_or_raises_parse_error(text):
    try:
        result = parse_poly(text)
    except PolyParseError as err:
        assert err.line >= 1 and err.column >= 1
    else:
        assert isinstance(result, BiPoly)


# Random expression trees as (text, value) pairs.  The value is built from
# BiPoly ring operations alone, a power as repeated multiplication, so the
# parser's own sums and monomial powers are checked against it.
_atoms = st.one_of(
    st.sampled_from([("x", x()), ("y", y())]),
    st.tuples(st.integers(0, 12), st.integers(1, 6)).map(
        lambda nd: (f"{nd[0]}/{nd[1]}" if nd[1] > 1 else str(nd[0]),
                    BiPoly.constant(Fraction(*nd)))),
)


def _power(base, n):
    return (f"{base[0]}^{n}", reduce(lambda a, b: a * b, [base[1]] * n, BiPoly.one()))


def _product(factors):
    return ("*".join(t for t, _ in factors), reduce(lambda a, b: a * b, (v for _, v in factors)))


def _sum(minus, terms):
    (_, (text, value)), rest = terms[0], terms[1:]
    if minus:
        text, value = "-" + text, -value
    for op, (t, v) in rest:
        text = f"{text} {op} {t}"
        value = value + v if op == "+" else value - v
    return text, value


_expr = st.deferred(lambda: st.builds(
    _sum, st.booleans(),
    st.lists(st.tuples(st.sampled_from("+-"), _term), min_size=1, max_size=3)))
_base = st.one_of(_atoms, _expr.map(lambda e: (f"({e[0]})", e[1])))
_factor = st.one_of(_base, st.builds(_power, _base, st.integers(0, 4)))
_term = st.lists(_factor, min_size=1, max_size=3).map(_product)


@given(_expr)
def test_expression_trees_parse_to_their_value(tree):
    text, value = tree
    assert parse_poly(text) == value, text


@pytest.mark.parametrize(
    "text,value",
    [
        ("0^0", BiPoly.one()),
        ("x^00", BiPoly.one()),
        ("(x-x)^2", BiPoly.zero()),
        ("0*x^3", BiPoly.zero()),
        ("2^3*x", 8 * x()),
        ("(2*x)^3", 8 * x(3)),
        ("(1/2*x*y^2)^3", BiPoly.monomial(Fraction(1, 8), 3, 6)),
        ("-x^2+x^2", BiPoly.zero()),
    ],
)
def test_pinned_powers_and_sums(text, value):
    assert parse_poly(text) == value


@pytest.mark.parametrize(
    "text",
    ["y^16 - 4*x^7*y^12 + 6*x^14*y^8 - 4*x^21*y^4 - x^30*y + x^28", "1/2*x - 3/4*y^2 + 2",
     "(y^2-x^3)^2-x^5*y", "2^3*x*y", "(1/2*x*y^2)^3 + (x+y)*(x-2*y)", "x*(y+2) - 3/3"],
)
def test_every_coefficient_is_a_fraction(text):
    # the parser sums ints; what it returns keeps BiPoly's Fraction coefficients
    assert all(type(c) is Fraction for _, c in parse_poly(text).terms()), text


def test_numbers_past_the_digit_limit_are_parse_errors(digit_limit):
    many = "1" * (digit_limit + 1)
    for text, column in ((f"{many}*x^2+y^2", 1), (f"x^{many}", 3), (f"y^2\n- 3/{many}", 3)):
        with pytest.raises(PolyParseError) as err:
            parse_poly(text)
        line = text.count("\n") + 1
        assert str(err.value) == (
            f"number has more than {digit_limit} digits (line {line}, column {column})")
    # the zero denominator is still told first
    with pytest.raises(PolyParseError, match="zero denominator"):
        parse_poly(f"{many}/0")
