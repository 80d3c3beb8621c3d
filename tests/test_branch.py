"""Semigroups, characteristic sequences, approximate roots."""

import pytest

from oracles import conductor_by_gaps
from planebranch import (
    BiPoly,
    CharSequence,
    Semigroup,
    ValidationError,
    approximate_root,
    approximate_root_semigroup,
    build_test_branch,
    char_to_semigroup,
    characteristic_roots,
    milnor_from_semigroup,
    parse_poly,
    random_semigroup,
    random_test_branch,
    semigroup_of,
    semigroup_to_char,
)

x = BiPoly.x
y = BiPoly.y

F2 = parse_poly("(y^2-x^3)^2-x^5*y")
F1 = parse_poly("(y^3-6*x^3*y-x^4)^2-9*x^9")


def test_semigroup_basics():
    s = Semigroup((4, 6, 13))
    assert s.multiplicity == 4
    assert s.genus == 2
    assert s.gcds == (4, 2, 1)
    assert s.n_factors == (2, 2)
    assert str(s) == "<4, 6, 13>"
    assert s.milnor() == 16
    assert Semigroup((1,)).genus == 0


def test_semigroup_validation():
    with pytest.raises(ValidationError):
        Semigroup((4, 6))  # gcd chain stalls at 2
    with pytest.raises(ValidationError):
        Semigroup((4, 2, 13))  # generators must increase
    with pytest.raises(ValidationError):
        Semigroup((4, 6, 11))  # 11 < 2*6 breaks the growth condition
    with pytest.raises(ValidationError):
        Semigroup((0, 3))


def test_char_sequence_validation():
    assert str(CharSequence((4, 6, 7))) == "(4; 6, 7)"
    with pytest.raises(ValidationError):
        CharSequence((4, 6, 8))  # gcd chain must reach 1
    with pytest.raises(ValidationError):
        CharSequence((4, 7, 6))


def test_char_semigroup_frozen_pairs():
    assert char_to_semigroup(CharSequence((4, 6, 7))) == Semigroup((4, 6, 13))
    assert char_to_semigroup(CharSequence((6, 8, 11))) == Semigroup((6, 8, 27))
    assert semigroup_to_char(Semigroup((4, 6, 13))) == CharSequence((4, 6, 7))
    assert semigroup_to_char(Semigroup((6, 8, 27))) == CharSequence((6, 8, 11))
    assert char_to_semigroup(CharSequence((1,))) == Semigroup((1,))


def test_char_semigroup_roundtrip(rng):
    for _ in range(500):
        s = random_semigroup(rng)
        assert char_to_semigroup(semigroup_to_char(s)) == s


def test_milnor_matches_gap_counting(rng):
    for _ in range(50):
        s = random_semigroup(rng, max_generator=150)
        conductor, gaps = conductor_by_gaps(s.generators)
        assert milnor_from_semigroup(s) == conductor
        assert 2 * gaps == conductor  # branch semigroups are symmetric
    assert milnor_from_semigroup(Semigroup((4, 6, 13))) == 16
    assert milnor_from_semigroup(Semigroup((6, 8, 27))) == 38


def test_approximate_root_semigroup():
    s = Semigroup((4, 6, 13))
    assert approximate_root_semigroup(s, 0) == Semigroup((1,))
    assert approximate_root_semigroup(s, 1) == Semigroup((2, 3))
    assert approximate_root_semigroup(Semigroup((8, 12, 26, 53)), 2) == Semigroup((4, 6, 13))


def test_approximate_root_defining_property(rng):
    for _ in range(8):
        f, s = random_test_branch(rng, max_degree=8)
        d = f.deg_y()
        for p in {q for q in s.gcds if q > 1}:
            g = approximate_root(f, p)
            assert g.is_monic_in_y() and g.deg_y() == d // p
            assert (f - g**p).deg_y() < d - d // p
    assert approximate_root(F2, 1) == F2


def test_approximate_root_rejects_bad_input():
    with pytest.raises(ValidationError):
        approximate_root(F2, 3)  # 3 does not divide 4
    with pytest.raises(ValidationError):
        approximate_root(2 * y(2) + x(), 2)


def test_characteristic_roots_frozen():
    assert characteristic_roots(F2) == [y(), parse_poly("y^2-x^3")]
    assert characteristic_roots(F1) == [y(), parse_poly("y^3-6*x^3*y-x^4")]
    assert characteristic_roots(parse_poly("(y^3-x^4)^2+x^9-x^7*y^2")) == [
        y(),
        parse_poly("y^3-x^4"),
    ]


def test_semigroup_of_frozen():
    assert semigroup_of(F2) == Semigroup((4, 6, 13))
    assert semigroup_of(F1) == Semigroup((6, 8, 27))
    assert semigroup_of(parse_poly("(y^3-x^4)^2+x^9-x^7*y^2")) == Semigroup((6, 8, 27))
    assert semigroup_of(y(2) - x(3)) == Semigroup((2, 3))
    assert semigroup_of(y()) == Semigroup((1,))


def test_semigroup_of_rejects_reducible():
    with pytest.raises(ValidationError):
        semigroup_of(y(4) - 3 * x(3) * y(2) + 2 * x(6))  # (y^2-x^3)(y^2-2x^3)
    with pytest.raises(ValidationError):
        semigroup_of(y(3) - x(3) * y())  # shares the component y = 0
    with pytest.raises(ValidationError, match="swap"):
        semigroup_of(y(2) - x())  # tangent to y = 0
    with pytest.raises(ValidationError):
        semigroup_of(y(2) + y() + x())  # not Weierstrass


def test_build_test_branch_frozen():
    assert build_test_branch(Semigroup((4, 6, 13))) == F2
    assert build_test_branch(Semigroup((1,))) == y()
    assert semigroup_of(build_test_branch(Semigroup((2, 3)))) == Semigroup((2, 3))
    genus3 = Semigroup((8, 12, 26, 53))
    f = build_test_branch(genus3)
    assert f.deg_y() == 8
    assert semigroup_of(f) == genus3


def test_random_semigroup_contract(rng):
    for _ in range(300):
        s = random_semigroup(rng, max_genus=5, max_generator=10**4)
        assert 0 <= s.genus <= 5
        assert s.generators[-1] <= 10**4
        assert s.gcds[-1] == 1
    forced = random_semigroup(rng, genus=3, max_generator=10**4)
    assert forced.genus == 3


def test_random_test_branch_contract(rng):
    for _ in range(3):
        f, s = random_test_branch(rng, max_degree=12)
        assert f.deg_y() == s.multiplicity <= 12
        assert f.is_weierstrass()
