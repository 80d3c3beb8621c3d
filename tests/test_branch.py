"""Semigroups, characteristic sequences, approximate roots."""

import random
from fractions import Fraction

import pytest

from oracles import (_divmod_y, am_iteration_by_resultants, approximate_root_by_powers,
                     conductor_by_gaps, semigroup_by_criterion)
from planebranch import (
    BiPoly,
    CharSequence,
    PlanebranchError,
    Semigroup,
    ValidationError,
    approximate_root,
    approximate_root_semigroup,
    branch,
    build_test_branch,
    char_to_semigroup,
    characteristic_roots,
    intersection_multiplicity,
    jacobian_det,
    milnor_from_semigroup,
    milnor_number,
    parse_poly,
    poly,
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
    with pytest.raises(ValidationError):
        Semigroup((Fraction(4), Fraction(6), 13))  # generators are ints


@pytest.mark.parametrize("call", [
    lambda: Semigroup((4, 2 * 10**4400 + 2, 13)),
    lambda: Semigroup((-10**4400, 3)),
    lambda: Semigroup((Fraction(10**4400), 3)),
    lambda: Semigroup((10**4400,)),
    lambda: Semigroup((6 * 10**4400, 6 * 10**4400, 1)),
    lambda: Semigroup((2 * 10**4400 + 1, 2)),
    lambda: CharSequence((4, 2 * 10**4400 + 2, 7)),
    lambda: approximate_root_semigroup(Semigroup((4, 6, 13)), 10**4400),
], ids=["generator growth", "negative generator", "generator no int", "gcd chain end",
        "gcd chain stall", "second generator", "exponents increase", "root index"])
def test_refusals_past_the_digit_limit(digit_limit, call):
    with pytest.raises(ValidationError,
                       match=f"^cannot print a number of more than {digit_limit} digits$"):
        call()


def test_char_sequence_validation():
    assert str(CharSequence((4, 6, 7))) == "(4; 6, 7)"
    with pytest.raises(ValidationError):
        CharSequence((4, 6, 8))  # gcd chain must reach 1
    with pytest.raises(ValidationError):
        CharSequence((4, 7, 6))
    with pytest.raises(ValidationError):
        CharSequence((Fraction(4), 6, 7))  # exponents are ints


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


def _variants(f, s, rng):
    """f, f with an x^(mu+2)*y tail, and f(c*x, y) with a rational tail."""
    d, mu = f.deg_y(), s.milnor()
    c = Fraction(rng.randint(1, 9), rng.randint(2, 9))
    scaled = BiPoly({(i, j): a * c**i for (i, j), a in f.terms()})
    tail = BiPoly.monomial(Fraction(rng.randint(-9, 9) or 1, rng.randint(2, 9)), mu + 2, d - 1)
    return f, f + x(mu + 2) * y(), scaled + tail


def test_approximate_root_defining_property(rng):
    branches = [random_test_branch(rng, max_degree=12) for _ in range(12)]
    branches += [(F2, Semigroup((4, 6, 13))), (F1, Semigroup((6, 8, 27)))]
    for f0, s in branches:
        for f in _variants(f0, s, rng):
            d = f.deg_y()
            for p in (q for q in range(1, d + 1) if d % q == 0):
                g = approximate_root(f, p)
                assert g == approximate_root_by_powers(f, p), (str(f), p)
                assert g.is_monic_in_y() and g.deg_y() == d // p
                assert (f - g**p).deg_y() < d - d // p
    assert approximate_root(F2, 1) == F2
    assert approximate_root(F2, 4) == y()


def test_the_digit_below_the_top_of_an_approximate_root_expansion_is_zero(rng):
    """For a monic f, branch or not, and g = approximate_root(f, p), the
    expansion f = sum_(e <= p) c_e g^e has c_p = 1 and c_(p-1) = 0
    (Tschirnhausen), which lets _one_edge skip the check of c_(p-1).  The
    digits come from BiPoly long division, not from the rows that
    _one_edge divides."""
    for _ in range(60):
        d = rng.choice((2, 3, 4, 6, 8, 12))
        f = y(d) + BiPoly({(rng.randint(0, 8), rng.randrange(d)):
                           Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                           for _ in range(rng.randint(1, 8))})
        for p in (q for q in range(1, d + 1) if d % q == 0):
            h, digits = f, []
            while h:
                h, c = _divmod_y(h, approximate_root(f, p))
                digits.append(c)
            assert len(digits) == p + 1 and digits[p] == BiPoly.one(), (str(f), p)
            assert digits[p - 1].is_zero(), (str(f), p)


def test_approximate_root_rejects_bad_input():
    with pytest.raises(ValidationError):
        approximate_root(F2, 3)  # 3 does not divide 4
    with pytest.raises(ValidationError):
        approximate_root(2 * y(2) + x(), 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: approximate_root(F2, True),
        lambda: approximate_root(F2, 2.0),
        lambda: approximate_root_semigroup(Semigroup((4, 6, 13)), True),
        lambda: approximate_root_semigroup(Semigroup((4, 6, 13)), 0.5),
        lambda: approximate_root_semigroup(Semigroup((4, 6, 13)), "1"),
    ],
    ids=["root exponent True", "root exponent 2.0", "root index True", "root index 0.5",
         "root index string"],
)
def test_root_arguments_must_be_ints(call):
    with pytest.raises(ValidationError):
        call()


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
        semigroup_of(y(2) - x())  # tangent to x = 0
    with pytest.raises(ValidationError):
        semigroup_of(y(2) + y() + x())  # not Weierstrass
    # second generator b = n: no branch has it, and swapping x and y would
    # give the same kind of curve back, so these are not told to swap
    for node in ("y^2-x^2", "y*(y-x)", "y^2-x^2-x^3"):
        f = parse_poly(node)
        for _ in range(2):  # a failure is not kept, so a second call raises too
            with pytest.raises(ValidationError, match="does not refine the gcd chain"):
                semigroup_of(f)


def test_a_unit_is_not_a_branch():
    # 1 is monic of y-degree 0, so Weierstrass by the letter of the definition
    for call in (semigroup_of, characteristic_roots):
        with pytest.raises(ValidationError, match="y-degree at least 1"):
            call(BiPoly.one())
    assert approximate_root(BiPoly.one(), 1) == BiPoly.one()


def test_a_rejected_input_keeps_the_record(monkeypatch, am_runs):
    assert semigroup_of(F2) == Semigroup((4, 6, 13))
    with pytest.raises(ValidationError, match="not one Newton edge"):
        semigroup_of(parse_poly("(y^2-x^3)*(y^3-x^4)"))
    resultants, resultant = [], poly.resultant_y
    monkeypatch.setattr(poly, "resultant_y", lambda f, h: resultants.append(1) or resultant(f, h))
    assert intersection_multiplicity(F2, y()) == 6
    assert resultants == []
    assert semigroup_of(F2) == Semigroup((4, 6, 13))
    assert am_runs == [4, 2, 5]  # F2's run and the rejected one's, no third


def test_a_memo_hit_never_hashes_the_branch(monkeypatch):
    s = Semigroup((8, 12, 26, 53))
    f = build_test_branch(s)

    def unhashable(p):
        raise AssertionError("a BiPoly was hashed")

    monkeypatch.setattr(BiPoly, "__hash__", unhashable)
    for g in (f, parse_poly(str(f))):  # by identity, then by equality
        assert semigroup_of(g) == s
        roots = characteristic_roots(g)
        for k, fk in enumerate(roots):
            height = approximate_root_semigroup(s, k).milnor() + s.generators[k + 1] - 1
            assert intersection_multiplicity(fk, jacobian_det(fk, g)) == height


def test_build_test_branch_frozen():
    assert build_test_branch(Semigroup((4, 6, 13))) == F2
    assert build_test_branch(Semigroup((1,))) == y()
    assert semigroup_of(build_test_branch(Semigroup((2, 3)))) == Semigroup((2, 3))
    genus3 = Semigroup((8, 12, 26, 53))
    f = build_test_branch(genus3)
    assert f.deg_y() == 8
    assert semigroup_of(f) == genus3
    # each stage subtracts the one monomial of its weight with exponents
    # below the ramification drops
    assert str(f) == (
        "y^8 - 4*x^3*y^6 - 2*x^5*y^5 + 6*x^6*y^4 + 4*x^8*y^3 - 4*x^9*y^2 - 2*x^11*y "
        "+ x^13 + x^12"
    )
    assert str(build_test_branch(Semigroup((8, 20, 42, 85)))) == (
        "y^8 - 4*x^5*y^6 - 2*x^8*y^5 + 6*x^10*y^4 + 4*x^13*y^3 - 4*x^15*y^2 - 2*x^18*y "
        "+ x^21 + x^20"
    )
    assert str(build_test_branch(Semigroup((9, 12, 40)))) == (
        "y^9 - 3*x^4*y^6 + 3*x^8*y^3 - x^12*y - x^12"
    )


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


def test_one_am_run_serves_the_semigroup_and_the_roots(am_runs):
    assert semigroup_of(F2) == Semigroup((4, 6, 13))
    roots = characteristic_roots(F2)
    assert roots == [y(), y(2) - x(3)]
    # each call gets a list of its own, so a caller cannot change a later answer
    roots.append(F2)
    roots[0] = x()
    assert characteristic_roots(F2) == [y(), y(2) - x(3)]
    assert am_runs == [4, 2]


def test_approximate_roots_are_transitive():
    # the roots of f_k are f_0, ..., f_(k-1): what lets intersection_multiplicity
    # expand in them when f_k is the branch
    rng = random.Random(5)
    cases = [Semigroup((32, 48, 132, 538, 1077))]
    cases += [random_semigroup(rng, max_genus=3, max_multiplicity=12) for _ in range(6)]
    for i, s in enumerate(cases):
        f = build_test_branch(s)
        if i % 2:
            f = f + BiPoly.monomial(1, s.milnor() + 2, 1)
        roots = characteristic_roots(f)
        for k, fk in enumerate(roots):
            assert branch._am_iteration(fk) == (approximate_root_semigroup(s, k), tuple(roots[:k]))


def test_build_test_branch_leaves_its_run_for_the_caller(am_runs):
    f = build_test_branch(Semigroup((6, 8, 27)))
    assert am_runs == [6, 2]
    assert semigroup_of(f) == Semigroup((6, 8, 27))
    assert am_runs == [6, 2]


# -- the expansion route against the resultant route ----------------------------


def _outcome(monkeypatch, am_run, f):
    """(semigroup, roots) of a run on an emptied record, or the name of the
    error it raised."""
    monkeypatch.setattr(poly, "_certified", ((), None, 1, []))
    try:
        return am_run(f)
    except PlanebranchError as exc:
        return type(exc).__name__


def _scale_x(p, c):
    # substitute x -> c*x
    return BiPoly({(i, j): a * c**i for (i, j), a in p.terms()})


def test_am_iteration_matches_the_resultant_oracle_on_branches(monkeypatch):
    """150 seeded certified branches of genus 1-3 and multiplicity <= 16:
    every third carries an x^(mu+2)*y tail, and every third is f(2x/3, y) or
    f(5x/7, y), so that the roots have denominators.  The semigroup and the
    roots equal those of one resultant per level, and the semigroup that of
    Abhyankar's criterion asked at every level."""
    rng = random.Random(20261019)
    for i in range(150):
        s = random_semigroup(rng, max_genus=3, max_generator=10**3, max_multiplicity=16)
        f = build_test_branch(s)
        if i % 3 == 1:
            f = f + BiPoly.monomial(1, s.milnor() + 2, 1)
        elif i % 3 == 2:
            f = _scale_x(f, Fraction(2, 3) if i % 2 else Fraction(5, 7))
        expected = am_iteration_by_resultants(f)
        assert expected[0] == s == semigroup_by_criterion(f)
        assert _outcome(monkeypatch, branch._am_iteration, f) == expected, (i, s)


# the inputs that semigroup_of or a command rejects elsewhere in tier-1, and
# two products of branches
TIER1_NON_BRANCHES = ("y^4-3*x^3*y^2+2*x^6", "y^3-x^3*y", "y^2-x", "y^2-x^2", "y*(y-x)",
                      "y^2-x^2-x^3", "(y^2-x^3)*(y^2-x^3-x^4)", "(y^2-x^3)*(y^4-x^5)",
                      "(y^3-x^5)^2+x^9", "(y^2-x^3)*(y^3-x^4)")


def test_am_iteration_rejects_what_the_resultant_oracle_rejects(monkeypatch):
    """Products of two branches, near-squares f^2 + x^N, a branch times
    y - x^a and a branch plus one monomial below its conductor: 300 seeded
    inputs of multiplicity <= 12, then the non-branches of tier-1.

    The run accepts exactly the inputs that Abhyankar's criterion, asked
    at every level, accepts, with the same semigroup.  Where the resultant
    route rejects, the run raises the same error type; where the run
    accepts, the resultant route gives the same answer, and the Milnor
    number is the conductor, as for a branch.  The resultant
    route also accepts inputs whose expansion in an approximate root is not
    one Newton edge, among them many products of two branches.  None of
    those is a branch: a product is not, and for the rest the Milnor number
    differs from the conductor of the semigroup that route reports."""
    rng = random.Random(20261020)
    pool = []
    for i in range(24):
        s = random_semigroup(rng, max_genus=2, max_generator=60, max_multiplicity=6)
        f = build_test_branch(s)
        pool.append((s, f + BiPoly.monomial(1, s.milnor() + 2, 1) if i % 2 else f))
    cases = [(parse_poly(text), False) for text in TIER1_NON_BRANCHES]
    while len(cases) < 300 + len(TIER1_NON_BRANCHES):
        (s, f), (_, g) = rng.sample(pool, 2)
        kind = len(cases) % 4
        if kind == 0:
            h = f * g
        elif kind == 1:
            h = f * f + x(rng.randint(1, 2 * s.milnor() + 5))
        elif kind == 2:
            h = f * (y() - x(rng.randint(1, 6)))
        else:
            h = f + BiPoly.monomial(rng.choice((1, -1, Fraction(1, 2))),
                                    rng.randint(1, s.milnor()), rng.randrange(f.deg_y()))
        if h.is_weierstrass():
            cases.append((h, kind in (0, 2)))
    counts = {"accepted": 0, "rejected": 0, "rejected, accepted by resultants": 0}
    for h, product in cases:
        expected = _outcome(monkeypatch, am_iteration_by_resultants, h)
        outcome = _outcome(monkeypatch, branch._am_iteration, h)
        assert not product or outcome == "ValidationError", h
        criterion = semigroup_by_criterion(h)
        assert criterion == (None if outcome == "ValidationError" else outcome[0]), h
        if outcome != "ValidationError":
            # a branch's Milnor number is the conductor of its semigroup
            assert outcome == expected and milnor_number(h) == outcome[0].milnor(), h
            counts["accepted"] += 1
        elif expected == "ValidationError":
            counts["rejected"] += 1
        else:
            assert product or milnor_number(h) != expected[0].milnor(), h
            counts["rejected, accepted by resultants"] += 1
    assert min(counts.values()) > 50, counts
