"""Exact polynomial kernel: arithmetic, derivatives, resultants."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import (
    jacobian_by_fractions,
    power_by_fractions,
    product_by_fractions,
    sylvester_resultant,
)
from planebranch import (
    BiPoly,
    Semigroup,
    ValidationError,
    approximate_root_semigroup,
    build_test_branch,
    characteristic_roots,
    intersection_multiplicity,
    jacobian_det,
    milnor_number,
    poly,
    random_semigroup,
    resultant_y,
    semigroup_of,
)
from planebranch.poly import _resultant_intersection

x = BiPoly.x
y = BiPoly.y

coeffs = st.fractions(min_value=-8, max_value=8, max_denominator=4).filter(bool)
polys = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), coeffs, max_size=6
).map(BiPoly)
# small rationals and ones with 40-digit numerators over 30-digit denominators
rationals = st.one_of(coeffs, st.builds(Fraction, st.integers(-10**40, 10**40),
                                        st.integers(1, 10**30)))
rational_polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), rationals, max_size=6
).map(BiPoly)


def rand_poly(rng, max_deg=4, max_terms=6, min_y_deg=0):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        terms[(rng.randint(0, max_deg), rng.randint(0, max_deg))] = c
    p = BiPoly(terms)
    if p.deg_y() < min_y_deg:
        p = p + y(min_y_deg)
    return p


# -- construction and inspection -------------------------------------------


def test_zero_and_constants():
    assert BiPoly.zero().is_zero()
    assert BiPoly({(0, 0): 0}).is_zero()
    assert BiPoly.one() == BiPoly.constant(1)
    assert str(BiPoly.zero()) == "0"
    assert BiPoly.constant(Fraction(2, 4)) == BiPoly.constant(Fraction(1, 2))


def test_degree_and_order():
    f = x(3) * y(2) + x(5)
    assert (f.deg_x(), f.deg_y()) == (5, 2)
    assert (f.ord_x(), f.ord_y()) == (3, 0)
    assert f.y_coefficient(2) == x(3)
    assert f.y_coefficient(1).is_zero()


def test_content_split():
    f = x(2) * y() + x(3)
    a, g = f.x_content()
    assert a == 2 and g == y() + x()
    b, h = (y(2) * (y() + x())).y_content()
    assert b == 2 and h == y() + x()


def test_weierstrass_predicate():
    assert (y(4) - 2 * x(3) * y(2) - x(5) * y() + x(6)).is_weierstrass()
    assert not (y(2) + y() + x()).is_weierstrass()  # unit coefficient
    assert not (2 * y(2) + x(3)).is_weierstrass()  # not monic
    assert not x(3).is_weierstrass()


def test_pow_rejects_negative():
    with pytest.raises(ValidationError):
        y() ** -1


# a bool is not the integer 1, and a coefficient string that does not
# parse is invalid input like any other
@pytest.mark.parametrize(
    "build",
    [
        lambda: BiPoly({(0, 1): True}),
        lambda: BiPoly({(True, 0): 1}),
        lambda: BiPoly({(0, False): 1}),
        lambda: BiPoly({(0, 0): "abc"}),
        lambda: BiPoly({(0, 0): 0.5}),
        lambda: y() ** True,
        lambda: y() * True,
        lambda: True * y(),
        lambda: y() + True,
        lambda: y().evaluate(True, 1),
    ],
    ids=["bool coefficient", "bool x-exponent", "bool y-exponent", "junk coefficient",
         "float coefficient", "bool power", "times bool", "bool times", "plus bool",
         "evaluate at bool"],
)
def test_bools_and_junk_are_not_numbers(build):
    with pytest.raises(ValidationError):
        build()


def test_exact_numbers_still_build_polynomials():
    assert BiPoly({(0, 0): "3/2", (1, 0): Fraction(1, 2), (0, 1): 2}) == (
        Fraction(3, 2) + Fraction(1, 2) * x() + 2 * y()
    )


def test_evaluate():
    f = (y(2) - x(3)) ** 2 - x(5) * y()
    assert f.evaluate(1, 1) == -1
    assert f.evaluate(0, 0) == 0
    assert f.evaluate(Fraction(1, 2), 2) == (4 - Fraction(1, 8)) ** 2 - Fraction(1, 16)


# -- ring structure ----------------------------------------------------------


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert (p - p).is_zero()


@given(polys, st.integers(0, 5))
def test_pow_matches_repeated_product(p, e):
    expected = BiPoly.one()
    for _ in range(e):
        expected = expected * p
    assert p**e == expected


# -- derivatives -------------------------------------------------------------


def _shift_x(p, a):
    # substitute x -> x + a using only ring operations
    out = BiPoly.zero()
    base = x() + BiPoly.constant(a)
    for (i, j), c in p.terms():
        out = out + BiPoly.monomial(c, 0, j) * base**i
    return out


def test_diff_against_shift_expansion(rng):
    for _ in range(50):
        p = rand_poly(rng)
        a, b = Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))
        shifted = _shift_x(p, a)
        linear = sum(
            (c * b**j for (i, j), c in shifted.terms() if i == 1), Fraction(0)
        )
        assert p.diff_x().evaluate(a, b) == linear


@given(polys, polys)
def test_diff_product_rule(p, q):
    assert (p * q).diff_x() == p.diff_x() * q + p * q.diff_x()
    assert (p * q).diff_y() == p.diff_y() * q + p * q.diff_y()


@given(rational_polys, rational_polys, st.integers(0, 4))
def test_integer_kernel_matches_the_fraction_oracles(p, q, e):
    """Products, powers and jacobians on integer numerators equal the
    term-by-term Fraction loops, zero polynomial and cancellations included."""
    cases = [
        (p * q, product_by_fractions(p, q)),
        (p * BiPoly.zero(), BiPoly.zero()),
        # the cross terms of (p + q)(p - q) cancel
        ((p + q) * (p - q), product_by_fractions(p + q, p - q)),
        (p**e, power_by_fractions(p, e)),
        (jacobian_det(p, q), jacobian_by_fractions(p, q)),
        # J(p, p^e) = e p^(e-1) J(p, p): every coefficient cancels to zero
        (jacobian_det(p, p**e), jacobian_by_fractions(p, p**e)),
        (jacobian_det(p, BiPoly.zero()), BiPoly.zero()),
    ]
    for fast, slow in cases:
        assert fast == slow
        assert all(type(c) is Fraction for c in fast._terms.values())
    assert jacobian_det(p, p**e).is_zero()


def test_jacobian_det_antisymmetry():
    f = y(2) - x(3)
    g = y(3) + x() * y()
    assert jacobian_det(f, g) == -jacobian_det(g, f)
    assert jacobian_det(f, f).is_zero()


# -- resultants ---------------------------------------------------------------


def test_resultant_frozen_cases():
    assert resultant_y(y(2) - x(3), y()) == -x(3)
    assert resultant_y(y() - x(), y() + x()) == 2 * x()
    # swapping arguments flips the sign by (-1)^(deg f * deg h)
    assert resultant_y(y(), y(2) - x(3)) == -x(3)
    assert resultant_y(y() + x(), y() - x()) == -2 * x()


def test_resultant_with_a_y_constant_argument():
    # a y-free argument h gives h^(deg_y of the other), in either order
    half_x_plus_one = BiPoly({(1, 0): Fraction(1, 2), (0, 0): 1})
    quarter = Fraction(1, 4) * x(2) + x() + 1
    assert resultant_y(y(2) - x(3), half_x_plus_one) == quarter
    assert resultant_y(half_x_plus_one, y(2) - x(3)) == quarter
    cubic = 2 * y(3) - x()
    assert resultant_y(cubic, x(2) + 3) == (x(2) + 3) ** 3
    assert resultant_y(x(2) + 3, cubic) == (x(2) + 3) ** 3


def test_resultant_matches_sylvester_oracle(rng):
    for _ in range(60):
        f = rand_poly(rng, max_deg=3, min_y_deg=1)
        h = rand_poly(rng, max_deg=3, min_y_deg=1)
        assert resultant_y(f, h) == sylvester_resultant(f, h), (f, h)


def _sparse_poly(rng):
    # y-degree 1 or 2, at most two terms per y-power, x-exponents scattered over 0..12
    dy = rng.randint(1, 2)
    terms = {}
    for j in range(dy + 1):
        for i in rng.sample(range(13), rng.randint(1 if j == dy else 0, 2)):
            terms[(i, j)] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
    return BiPoly(terms)


def _stretch(p, n):
    # substitute x -> x^n
    return BiPoly({(i * n, j): c for (i, j), c in p.terms()})


def test_resultant_of_gapped_pairs_matches_sylvester_oracle(rng):
    for _ in range(20):
        f, h = _sparse_poly(rng), _sparse_poly(rng)
        res = resultant_y(f, h)
        assert res == sylvester_resultant(f, h), (f, h)
        # the resultant commutes with x -> x^n, and an exponent costs
        # nothing however large it is
        n = 10**12
        assert resultant_y(_stretch(f, n), _stretch(h, n)) == _stretch(res, n), (f, h)


def test_resultant_multiplicative(rng):
    for _ in range(25):
        f = rand_poly(rng, max_deg=2, min_y_deg=1)
        g = rand_poly(rng, max_deg=2, min_y_deg=1)
        h = rand_poly(rng, max_deg=2, min_y_deg=1)
        assert resultant_y(f, g * h) == resultant_y(f, g) * resultant_y(f, h)


def test_resultant_needs_a_y_degree():
    with pytest.raises(ValidationError, match="y-degree >= 1"):
        resultant_y(x(2) + 1, x())


def test_resultant_of_common_factor_is_zero():
    f = (y() - x()) * (y() + x(2))
    h = (y() - x()) * (y(2) + x(3))
    assert resultant_y(f, h).is_zero()


# -- intersection numbers ------------------------------------------------------


def test_intersection_frozen_cases():
    f2 = (y(2) - x(3)) ** 2 - x(5) * y()
    assert intersection_multiplicity(y(2) - x(3), y()) == 3
    assert intersection_multiplicity(y(), y(2) - x(3)) == 3
    assert intersection_multiplicity(f2, y()) == 6
    assert intersection_multiplicity(f2, y(2) - x(3)) == 13
    assert intersection_multiplicity(f2, x()) == 4
    assert intersection_multiplicity(x(), y()) == 1
    assert intersection_multiplicity(x(2), y(3)) == 6
    assert intersection_multiplicity(x() + y(), x() - y()) == 1


def test_intersection_degenerate_inputs():
    with pytest.raises(ValidationError, match="nonzero polynomials"):
        intersection_multiplicity(BiPoly.zero(), y())
    assert intersection_multiplicity(BiPoly.one(), y()) == 0
    assert intersection_multiplicity(y(), BiPoly.constant(3)) == 0
    assert intersection_multiplicity(y(2), y()) == math.inf
    assert intersection_multiplicity(x() * y(), x() * (y() - x())) == math.inf


def test_intersection_symmetric(rng):
    for _ in range(30):
        f = rand_poly(rng, max_deg=3)
        h = rand_poly(rng, max_deg=3)
        assert intersection_multiplicity(f, h) == intersection_multiplicity(h, f)


# -- intersection numbers read off an approximate-root expansion ---------------


def _counted_resultants(monkeypatch):
    calls = []
    resultant = poly.resultant_y

    def counted(f, h):
        calls.append((f, h))
        return resultant(f, h)

    monkeypatch.setattr(poly, "resultant_y", counted)
    return calls


def _scale_x(p, c):
    # substitute x -> c*x
    return BiPoly({(i, j): a * c**i for (i, j), a in p.terms()})


def test_expansion_route_matches_resultant_route(monkeypatch):
    """Seeded certified branches of genus 1-3 and multiplicity <= 12: 48
    built ones, every second with an x^(mu+2)*y tail, then 16 with rational
    coefficients, f(2x/3, y) or f(5x/7, y), so that the common denominator
    of the chain has several primes.  The branch is f or one of its
    approximate roots; the partners cover random polynomials, their
    multiples of f plus a remainder, the jacobians, x powers, a unit and
    the branch itself."""
    rng = random.Random(20261018)
    calls = _counted_resultants(monkeypatch)
    pairs = 0
    for i in range(64):
        s = random_semigroup(rng, max_genus=3, max_generator=10**3, max_multiplicity=12)
        f = build_test_branch(s)
        if i >= 48:
            f = _scale_x(f, Fraction(2, 3) if i % 2 else Fraction(5, 7))
        elif i % 2:
            f = f + BiPoly.monomial(1, s.milnor() + 2, 1)
        chain = (*characteristic_roots(f), f)
        jacobians = [jacobian_det(fk, f) for fk in chain[:-1]]
        for k, branch in enumerate(chain):
            hs = [rand_poly(rng) for _ in range(3)]
            unit = 3 + x() * rand_poly(rng) + y()
            partners = [*hs, *(h * f + rand_poly(rng) for h in hs), *jacobians,
                        x(rng.randint(1, 9)), unit, f, branch]
            for p in filter(None, partners):
                calls.clear()
                fast = intersection_multiplicity(branch, p)
                assert intersection_multiplicity(p, branch) == fast
                assert not calls, "the certified branch must take the expansion route"
                assert fast == _resultant_intersection(branch, p), (s, k, p)
                pairs += 1
            assert intersection_multiplicity(branch, unit) == 0
            assert intersection_multiplicity(branch, branch) == math.inf
        if i >= 48:
            D = poly._certified[2]
            assert D % 3 == 0 if i % 2 else D % 7 == 0
    assert pairs > 1300


def test_jacobian_intersections_of_a_certified_branch_take_no_resultant(monkeypatch):
    s = Semigroup((32, 48, 132, 538, 1077))
    f = build_test_branch(s)
    roots = characteristic_roots(f)
    calls = _counted_resultants(monkeypatch)
    for k, fk in enumerate(roots):
        jac = jacobian_det(fk, f)
        v = s.generators[k + 1]
        assert intersection_multiplicity(fk, jac) == approximate_root_semigroup(s, k).milnor() + v - 1
        assert intersection_multiplicity(jac, f) == s.milnor() + v - 1
    assert calls == []


def test_semigroup_of_takes_no_resultant(monkeypatch, am_runs):
    # each level is read off an expansion in the approximate roots below it,
    # in build_test_branch's run and in a fresh one
    calls = _counted_resultants(monkeypatch)
    for s, tail in ((Semigroup((8, 12, 26, 53)), False), (Semigroup((8, 20, 42, 85)), True)):
        f = build_test_branch(s)
        if tail:
            f = f + BiPoly.monomial(1, s.milnor() + 2, 1)
        monkeypatch.setattr(poly, "_certified", ((), None, 1, []))
        assert semigroup_of(f) == s
        assert len(characteristic_roots(f)) == s.genus == 3
    assert calls == []
    assert am_runs == [8, 4, 2] * 4  # build and rerun, per branch


def test_certifying_a_second_branch_replaces_the_slot(monkeypatch):
    first = build_test_branch(Semigroup((4, 6, 13)))
    second = build_test_branch(Semigroup((6, 8, 27)))
    chain, s, _, _ = poly._certified
    assert chain == (*characteristic_roots(second), second) and s == Semigroup((6, 8, 27))
    assert first not in chain and y(2) - x(3) not in chain
    calls = _counted_resultants(monkeypatch)
    assert intersection_multiplicity(first, y(2) - x(3)) == 13
    assert len(calls) == 1


# -- Milnor numbers -------------------------------------------------------------


def test_milnor_frozen_cases():
    assert milnor_number(y(2) - x(3)) == 2
    assert milnor_number(y(3) - x(4)) == 6
    assert milnor_number((y(2) - x(3)) ** 2 - x(5) * y()) == 16
    assert milnor_number((y(3) - 6 * x(3) * y() - x(4)) ** 2 - 9 * x(9)) == 38
    assert milnor_number(y() - x()) == 0
    # a smooth germ whose other partial vanishes identically
    assert milnor_number(y()) == 0 and milnor_number(x()) == 0


def test_milnor_rejects_nonisolated():
    with pytest.raises(ValidationError):
        milnor_number(y(2))
    # both partials are nonzero and share the component y = 0
    with pytest.raises(ValidationError, match="infinite Milnor number"):
        milnor_number(x() * y(2))


def test_milnor_rejects_a_resultant_that_counts_other_points():
    # a node at the origin, mu 1; f_x and f_y also meet at (0, 1), which
    # ord_x of their resultant would count too
    with pytest.raises(ValidationError, match="cannot isolate the origin"):
        milnor_number(y(2) * (y() - 1) ** 2 + x() * y() * (y() - 1) + x(3))


def test_milnor_rejects_the_zero_polynomial_and_a_unit():
    with pytest.raises(ValidationError, match="zero polynomial"):
        milnor_number(BiPoly.zero())
    with pytest.raises(ValidationError, match=r"f\(0,0\) = 0"):
        milnor_number(1 + y(2) - x(3))
