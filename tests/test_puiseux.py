"""Numeric Newton-Puiseux engine and the decomposition cross-checks."""

import random
from collections import Counter
from fractions import Fraction
from math import gcd, inf

import pytest

from planebranch import (
    BiPoly,
    ContactUndecidableError,
    ElementarySegment,
    NewtonDiagram,
    NumericError,
    Semigroup,
    ValidationError,
    VerificationError,
    build_test_branch,
    characteristic_roots,
    contact,
    contact_classes,
    jacobian_det,
    jnd_formula,
    jnd_oracle,
    parse_poly,
    puiseux_expand,
    random_test_branch,
    recover_semigroup,
    root_contacts,
    semigroup_to_char,
    verify_cycle,
    verify_decomposition,
)
from planebranch.fixtures import BRANCH_4_6_13, BRANCH_6_8_27, BRANCH_6_8_27_VARIANT
import planebranch.poly as poly
import planebranch.puiseux as puiseux
from planebranch.puiseux import PuiseuxSeries

from oracles import expand_by_fractions

E = ElementarySegment
D = NewtonDiagram

CUSP = parse_poly("y^2-x^3")


def test_cusp_expansion_is_exact():
    series = puiseux_expand(CUSP, 4)
    assert len(series) == 2
    for s in series:
        assert s.ramification() == 2
        assert s.order() == Fraction(3, 2)
        assert s.support() == (Fraction(3, 2),)
        # the tail terminates, so the series carries no truncation window
        assert s.truncation == inf
        assert abs(abs(s.coefficient(Fraction(3, 2))) - 1) < 1e-9


def test_order_of_an_empty_series():
    # the exact zero series starts at infinity; a series known to nothing
    # below its truncation has no known order
    assert PuiseuxSeries([], inf).order() == inf
    assert PuiseuxSeries([], 2).order() is None


def test_series_exponents_are_read_as_fractions():
    # an exponent is held as a Fraction, so str() can print it
    for bad in (0.5, "a", True, None):
        with pytest.raises(ValidationError, match="^series exponents must be rational, got "):
            PuiseuxSeries([(bad, 1.0)], 2)
    s = PuiseuxSeries([("3/2", 1.0), (1, 2.0)], 2)
    assert [type(e) for e in s.support()] == [Fraction, Fraction]
    assert (s.support(), s.ramification()) == ((1, Fraction(3, 2)), 2)
    assert str(s) == "2*x^1 + 1*x^(3/2) + O(x^2)"


def test_expansion_input_validation():
    with pytest.raises(ValidationError):
        puiseux_expand(CUSP, 0)
    with pytest.raises(ValidationError):
        puiseux_expand(parse_poly("0"), 4)


def test_expansion_ignores_roots_away_from_origin():
    # a pure x power, times a unit or not, has no root y -> 0 at all
    for f in ("y^2-1", "x^3", "x^2*(1+x)"):
        assert puiseux_expand(parse_poly(f), 4) == []


def test_fourfold_edge_root_is_resolved():
    # the first edge polynomial (z - 1)^4 is one cluster, so y = x comes
    # with multiplicity 4 in closed form; the next level splits it
    roots = puiseux_expand(parse_poly("(y-x)^4 - x^7"), 3)
    assert len(roots) == 4
    for s in roots:
        assert s.ramification() == 4
        assert s.order() == 1
        assert s.support()[:2] == (Fraction(1), Fraction(7, 4))


def _shape(series):
    return len(series), [s.support() for s in series]


@pytest.mark.parametrize(
    "f, depth, bits",
    [(CUSP, 4, bits) for bits in (128, 256, 512)]
    + [(parse_poly("y^3-x^7"), 4, bits) for bits in (128, 256, 512)]
    # the edge polynomial (z^2 - 1)^2 of BRANCH_4_6_13 is one cluster
    # (w - 1)^2 in w = z^2, rooted in closed form at every tier
    + [(BRANCH_4_6_13, Fraction(17, 4), bits) for bits in (128, 256, 512)],
)
def test_expansion_starts_at_min_bits(f, depth, bits):
    series = puiseux_expand(f, depth, min_bits=bits)
    assert {s.context.bits for s in series} == {bits}
    assert _shape(series) == _shape(puiseux_expand(f, depth))


@pytest.mark.parametrize("min_bits, tiers", [(53, (53, 128, 256, 512)), (256, (256, 512))])
def test_numeric_error_names_every_tier_tried(min_bits, tiers):
    def worker(ctx):
        raise puiseux._EscalationNeeded(f"reason {ctx.bits}")

    with pytest.raises(NumericError) as info:
        puiseux._with_escalation(worker, min_bits)
    tried = "; ".join(f"{bits} bits: reason {bits}" for bits in tiers)
    assert str(info.value) == f"undecidable at every precision tier: {tried}"


# three distinct roots on one edge: (z - 1)(z - 2)(z - 4) is neither a
# binomial nor one cluster, so only the general root finder can split it
THREE_LINES = parse_poly("(y-x)*(y-2*x)*(y-4*x)")


@pytest.mark.parametrize("bits", [53, 128, 256, 512])
def test_general_root_finder_serves_every_tier(monkeypatch, bits):
    general = puiseux._certified_roots
    tiers = []

    def counted(ctx, derivs):
        tiers.append(ctx.bits)
        return general(ctx, derivs)

    monkeypatch.setattr(puiseux, "_certified_roots", counted)
    series = puiseux_expand(THREE_LINES, 2, min_bits=bits)
    assert tiers == [bits]
    assert {s.context.bits for s in series} == {bits}
    assert _shape(series) == (3, [(Fraction(1),)] * 3)
    assert [s.truncation for s in series] == [inf] * 3
    for s, c in zip(series, (1, 2, 4)):
        assert abs(s.coefficient(Fraction(1)) - c) < 1e-12


def _fails_at_every_tier(reason, min_bits=53):
    """puiseux_expand(THREE_LINES) raises NumericError naming every tier from
    min_bits up, each with reason formatted on its bits."""
    with pytest.raises(NumericError) as info:
        puiseux_expand(THREE_LINES, 2, min_bits=min_bits)
    tried = "; ".join(f"{bits} bits: {reason.format(bits=bits)}"
                      for bits in (53, 128, 256, 512) if bits >= min_bits)
    assert str(info.value) == f"undecidable at every precision tier: {tried}"


def test_a_root_finder_that_does_not_converge_escalates(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    from mpmath.libmp import NoConvergence

    def diverge(*args, **kwargs):
        raise NoConvergence("no convergence")

    monkeypatch.setattr(mpmath, "polyroots", diverge)
    ctx = puiseux.NumericContext(128)
    with pytest.raises(puiseux._EscalationNeeded,
                       match=r"^root finder did not converge at 128 bits$"):
        ctx.poly_roots([2, -3, 1])
    _fails_at_every_tier("root finder did not converge at {bits} bits", min_bits=128)


def test_a_root_finder_that_loses_a_root_escalates(monkeypatch):
    poly_roots = puiseux.NumericContext.poly_roots
    monkeypatch.setattr(puiseux.NumericContext, "poly_roots",
                        lambda self, coeffs: poly_roots(self, coeffs)[1:])
    _fails_at_every_tier("root finder returned 2 of 3 roots")


def test_an_inconsistent_root_cluster_escalates(monkeypatch):
    # three simple roots polished onto one point make a group of three
    # that no single multiplicity explains
    monkeypatch.setattr(puiseux, "_classify_root", lambda ctx, derivs, r, scale: (1.0, 1))
    _fails_at_every_tier("inconsistent root cluster: sizes [1, 1, 1] in one group")


def test_a_wrong_count_of_continuations_escalates(monkeypatch):
    # each simple root of (z - 1)(z - 2)(z - 4) claimed double: the
    # substitution then has one root through the origin, not two
    edge_roots = puiseux._edge_roots
    monkeypatch.setattr(puiseux, "_edge_roots", lambda ctx, coeffs, scale: [
        (z, mu + 1) for z, mu in edge_roots(ctx, coeffs, scale)])
    _fails_at_every_tier("root of multiplicity 2 produced 1 continuations")


def test_a_lost_root_of_an_edge_escalates(monkeypatch):
    # an edge that reports two of its three roots leaves the level one short
    edge_roots = puiseux._edge_roots
    monkeypatch.setattr(puiseux, "_edge_roots",
                        lambda ctx, coeffs, scale: edge_roots(ctx, coeffs, scale)[1:])
    _fails_at_every_tier("expected 3 local roots, assembled 2")


def test_a_substitution_that_keeps_no_term_escalates(monkeypatch):
    # an infinite chop tolerance drops every sum, so each substitution
    # keeps nothing
    init = puiseux.NumericContext.__init__

    def chop_everything(ctx, bits=53):
        init(ctx, bits)
        ctx.chop_tol = inf

    monkeypatch.setattr(puiseux.NumericContext, "__init__", chop_everything)
    _fails_at_every_tier("substitution cancelled to zero")


def test_a_coefficient_in_the_ambiguity_band_escalates(monkeypatch):
    a = PuiseuxSeries([(1, 1.0)], 2)
    b = PuiseuxSeries([(1, 1.0 + 1e-8)], 2)
    with pytest.raises(puiseux._EscalationNeeded,
                       match=r"^coefficient comparison at x\^1 falls in the ambiguity band "
                             r"\(1\.000e-08\)$"):
        puiseux._contacts(puiseux.NumericContext(53), [a], [b], 1)
    # y = x against y = (1 + 10^-8) x: the band at 53 bits, a split at 128
    pair_contact, outcomes = puiseux._pair_contact, []

    def recorded(ctx, *args):
        try:
            result = pair_contact(ctx, *args)
        except puiseux._EscalationNeeded as exc:
            outcomes.append((ctx.bits, str(exc)))
            raise
        outcomes.append((ctx.bits, result))
        return result

    monkeypatch.setattr(puiseux, "_pair_contact", recorded)
    assert contact(parse_poly("y-x"), parse_poly("100000000*y-100000001*x")) == 1
    assert outcomes == [(53, "coefficient comparison at x^1 falls in the ambiguity band "
                             "(1.000e-08)"), (128, 1)]


def _roots(bits, coeffs):
    ctx = puiseux.NumericContext(bits)
    with ctx.guard():
        found = puiseux._edge_roots(ctx, [ctx.number(Fraction(c)) for c in coeffs], 1)
    return sorted(((complex(z), mu) for z, mu in found), key=lambda r: (r[0].real, r[0].imag))


def _refuse_general_finder(monkeypatch):
    def refuse(ctx, derivs):
        raise AssertionError("the general root finder was called")

    monkeypatch.setattr(puiseux, "_certified_roots", refuse)


def test_binomial_edge_roots_in_closed_form(monkeypatch):
    # z^3 - 8: the cube roots of 8, each simple
    _refuse_general_finder(monkeypatch)
    roots = _roots(53, [-8, 0, 0, 1])
    assert [mu for _, mu in roots] == [1, 1, 1]
    for z, _ in roots:
        assert abs(z ** 3 - 8) < 1e-12
    assert abs(roots[-1][0] - 2) < 1e-14


def test_cluster_edge_roots_at_512_bits(monkeypatch):
    # (z^2 - 1)^2 = P(z^2) with P = (w - 1)^2: roots -1 and 1, each double
    _refuse_general_finder(monkeypatch)
    roots = _roots(512, [1, 0, -2, 0, 1])
    assert [mu for _, mu in roots] == [2, 2]
    assert all(abs(z - c) < 1e-100 for (z, _), c in zip(roots, (-1, 1)))


def test_nearby_distinct_roots_are_not_one_cluster():
    # (z - 1)(z - 1 - 1/100): two simple roots, not one double root
    d = Fraction(1, 100)
    roots = _roots(53, [1 + d, -2 - d, 1])
    assert [mu for _, mu in roots] == [1, 1]
    assert abs(roots[0][0] - 1) < 1e-12 and abs(roots[1][0] - (1 + d)) < 1e-12


def test_close_simple_roots_certify_at_a_higher_tier():
    # (z - 10000)(z - 10001): the roots lie 1e-4 apart relative, under the
    # 53-bit multiplicity floor; the floor shrinks with the tier, so 128 bits
    # certifies both as simple
    series = puiseux_expand(parse_poly("(y-10000*x)*(y-10001*x)"), 2)
    assert [str(s) for s in series] == ["10000*x^1", "10001*x^1"]
    assert {s.context.bits for s in series} == {128}


def test_truncated_series_format():
    s = puiseux_expand(parse_poly("y^2-x^3-x^4"), 4)[0]
    assert "O(x^4)" in str(s)
    assert s.truncation == 4
    assert s.support()[0] == Fraction(3, 2)


def test_dropped_terms_keep_the_truncation():
    # x^100 lies far above the window, so the expander drops it; the two
    # roots then look like exact x^(3/2) but are only known below depth 4
    far = parse_poly("y^2-x^3+x^100")
    series = puiseux_expand(far, 4)
    assert len(series) == 2
    assert [s.truncation for s in series] == [4, 4]
    assert [s.support() for s in series] == [(Fraction(3, 2),)] * 2
    # the true contact with the cusp is 197/2, beyond the deepest expansion
    with pytest.raises(ContactUndecidableError) as err:
        contact(far, CUSP)
    assert err.value.bound == 64


def _agree_below(low, high, depth):
    """low, expanded at depth, is high cut below depth: supports equal and
    coefficients within 1e-6 relative; exact series stay exact."""
    if low.truncation == inf:
        if high.truncation != inf:
            return False
    elif low.truncation != depth:
        return False
    cut = [(e, c) for e, c in high.terms if e < depth]
    if [e for e, _ in cut] != list(low.support()):
        return False
    return all(
        abs(ca - cb) <= 1e-6 * max(abs(ca), abs(cb))
        for (_, ca), (_, cb) in zip(low.terms, cut)
    )


def test_expansion_is_consistent_across_depths(rng):
    # each branch with one jacobian per k, at 2 and at the verifier's depth
    cases = [(BRANCH_4_6_13, Fraction(17, 4))]
    for _ in range(20):
        f, s = random_test_branch(rng, max_degree=8)
        depth = Fraction(semigroup_to_char(s).exponents[-1], s.multiplicity) + 1
        cases.append((f, depth))
        if s.genus:
            cases.extend((jacobian_det(fk, f), depth) for fk in characteristic_roots(f))
    for g, verifier_depth in cases:
        for depth in (Fraction(2), verifier_depth):
            low = puiseux_expand(g, depth)
            high = puiseux_expand(g, 2 * depth)
            assert len(low) == len(high)
            unmatched = list(high)
            for a in low:
                match = next((b for b in unmatched if _agree_below(a, b, depth)), None)
                assert match is not None, (str(g), depth, str(a))
                unmatched.remove(match)


def _bits_of(series):
    """Exponents, coefficients, truncation and tier of each series, in order;
    repr tells 1 from Fraction(1, 1) and prints every bit of a float or an
    mpmath number."""
    return [([repr(e) for e, _ in s.terms], [repr(c) for _, c in s.terms], repr(s.truncation),
             s.context.bits) for s in series]


# zero roots that stay exact: nothing above them is dropped, though the
# level that finds them drops the images of x^6, x^9 and x^8
EXACT_AFTER_A_SKIP = {"(y-x)*(y^2-x^3+x^6)": [inf, 4, 4],
                      "(y-x^2)*(y^3-x^7+x^9)": [inf, 4, 4, 4],
                      "(y^2-x^3)*(y^2-x^3+x^8)": [inf, 4, inf, 4]}


def _differential_corpus(rng):
    """Steep tails and zero roots below a drop, three roots on one edge for
    the general finder, exact zero roots beside a factor with a term past
    the depth, an exact root x + x^2 cut by a drop two levels up, then
    branches, their characteristic roots and their jacobians at the
    verifier's depth, then branches times exact roots y - a*x^p - b*x^q,
    half of them times y too."""
    cases = [(parse_poly("y^2-x^3+x^100"), 4), (THREE_LINES, 2),
             (parse_poly("(y-x)*(y-x-x^10)"), 2), (parse_poly("y*(y^2-x^3)+x^100"), 4),
             (parse_poly("(y-x)*(y-2*x+x^5)"), 4), (parse_poly("(y-x)*(y-x-x^2)*(y-2*x+x^7)"), 4)]
    cases += [(parse_poly(f), 4) for f in EXACT_AFTER_A_SKIP]
    for _ in range(30):
        f, s = random_test_branch(rng, max_degree=8, max_genus=2)
        depth = Fraction(semigroup_to_char(s).exponents[-1], s.multiplicity) + 1
        roots = characteristic_roots(f)
        cases += [(g, depth) for g in (f, *roots, *(jacobian_det(fk, f) for fk in roots))]
    for _ in range(20):
        f, _ = random_test_branch(rng, max_degree=6, max_genus=2)
        p = rng.randint(1, 3)
        root = (BiPoly.y() - BiPoly.monomial(rng.choice((-2, -1, 1, 2)), p, 0)
                - BiPoly.monomial(rng.randint(-2, 2), rng.randint(p + 1, 5), 0))
        g = f * root * BiPoly.y(rng.randint(0, 1))
        cases.append((g, rng.choice((2, 3, Fraction(7, 2), 4))))
    return cases


@pytest.mark.parametrize("bits", [53, 128, 256, 512])
def test_expansion_matches_the_fraction_expander(rng, bits):
    # the reference rotates conjugates by its own Fraction exponents, so
    # bit identity shows that the integer exponents change nothing
    for g, depth in _differential_corpus(rng):
        expected = _bits_of(expand_by_fractions(g, depth, bits))
        assert _bits_of(puiseux_expand(g, depth, min_bits=bits)) == expected, (str(g), depth)


def _expand_or_none(expand):
    try:
        return expand()
    except NumericError:
        return None


def _shape_key(series):
    return series.support(), series.truncation, series.context.bits


@pytest.mark.parametrize("bits", [53, 128, 256, 512])
def test_rotated_conjugates_match_every_root_expanded(rng, bits):
    # a conjugate made by rotation has the exponents, truncation and tier
    # of the one expanded on its own, and its coefficients up to rounding
    tol = 2.0 ** -(bits - 16)
    for g, depth in _differential_corpus(rng):
        got = _expand_or_none(lambda: puiseux_expand(g, depth, min_bits=bits))
        full = _expand_or_none(lambda: expand_by_fractions(g, depth, bits, every_root=True))
        assert (got is None) == (full is None), (str(g), depth)
        if got is None:
            continue
        assert Counter(map(_shape_key, got)) == Counter(map(_shape_key, full)), (str(g), depth)
        unmatched = list(full)
        for a in got:
            match = next((b for b in unmatched if _shape_key(b) == _shape_key(a) and all(
                abs(ca - cb) <= tol * max(abs(ca), abs(cb))
                for (_, ca), (_, cb) in zip(a.terms, b.terms))), None)
            assert match is not None, (str(g), depth, str(a))
            unmatched.remove(match)


@pytest.mark.parametrize("bits", [53, 128, 256, 512])
def test_unit_root_is_a_function_of_the_fraction(bits):
    # the reference rotates by its reduced Fraction exponents and the
    # expander by integers over a finer denominator; 2*pi*13/39 and
    # 2*pi*1/3 round apart in floats, so the fraction is reduced first
    ctx = puiseux.NumericContext(bits)
    with ctx.guard():
        assert [repr(ctx.unit_root(n, 7)) for n in (0, 14, -7)] == ["1"] * 3
        third = ctx.unit_root(1, 3)
        assert {repr(ctx.unit_root(n, d)) for n, d in ((13, 39), (17, 51), (4, 3))} == {repr(third)}
        assert abs(third ** 3 - 1) < 2.0 ** -(bits - 4)


def test_every_edge_is_whole_orbits(rng, monkeypatch):
    # the lemma the rotation stands on: each edge polynomial is Q(z^scale)
    # and its slope is prime to scale, so z -> e^(2 pi i slope/scale) z
    # runs over each orbit of its roots
    edges = []
    edge_roots, substitute = puiseux._edge_roots, puiseux._substitute

    def record_edge(ctx, phi, scale):
        edges[-1][1].append([i for i, c in enumerate(phi) if c])
        edges[-1][2].append(scale)
        return edge_roots(ctx, phi, scale)

    def record_slope(ctx, F, scale, slope, *rest):
        edges[-1][3].append((scale, slope))
        return substitute(ctx, F, scale, slope, *rest)

    monkeypatch.setattr(puiseux, "_edge_roots", record_edge)
    monkeypatch.setattr(puiseux, "_substitute", record_slope)
    # the scales above 1 of each hand-built case, the second level of
    # <6,8,27> included
    hand = {str(parse_poly(f)): scales
            for f, scales in (("y^4-x^6", [2]), ("y^3-x^4", [3]), (str(BRANCH_6_8_27), [3, 2]))}
    cases = _differential_corpus(rng) + [(parse_poly(f), 4) for f in hand]
    for g, depth in cases:
        edges.append((str(g), [], [], []))
        puiseux_expand(g, depth)
    for g, supports, scales, slopes in edges:
        for support, scale in zip(supports, scales):
            assert all(i % scale == 0 for i in support), (g, support, scale)
        assert all(gcd(slope, scale) == 1 for scale, slope in slopes), (g, slopes)
    assert {g: [scale for scale in scales if scale > 1]
            for g, _, scales, _ in edges[-3:]} == hand
    # the one edge of y^4 - x^6 is z^4 - 1, whose four roots form two
    # orbits of two, so it is substituted twice, not four times
    assert edges[-3][1:] == ([[0, 4]], [2], [(2, 3)] * 2)


def test_truncation_is_the_depth_or_exact():
    # a steep edge at the top, one below a double root, and a zero root
    # that turns up once x^100 is dropped: each tail stops at the depth
    jac = jacobian_det(characteristic_roots(BRANCH_6_8_27)[0], BRANCH_6_8_27)
    kinds = set()
    for f, depth in ((parse_poly("y*(y-x^10)"), 2), (parse_poly("(y-x)*(y-x-x^10)"), 2),
                     (parse_poly("y^2-x^3+x^100"), 4), (parse_poly("y*(y^2-x^3)+x^100"), 3),
                     (CUSP, 4), (jac, Fraction(31, 6))):
        for s in puiseux_expand(f, depth):
            assert s.truncation in (depth, inf), (str(f), str(s))
            kinds.add(s.truncation == inf)
    assert kinds == {True, False}
    for f, truncations in EXACT_AFTER_A_SKIP.items():
        assert [s.truncation for s in puiseux_expand(parse_poly(f), 4)] == truncations, f


def test_rebuilt_series_equal_expanded_ones(monkeypatch):
    for f in (BRANCH_4_6_13, BRANCH_6_8_27, parse_poly("y^2-x^3+x^100")):
        for s in puiseux_expand(f, 5):
            t = PuiseuxSeries(s.terms, s.truncation)
            assert t == s and hash(t) == hash(s)
            assert t.ramification() == s.ramification()
    pairs = [(BRANCH_4_6_13, CUSP), (BRANCH_6_8_27, parse_poly("y^3-x^4")),
             (CUSP, parse_poly("y^2-x^3-x^4")), (BRANCH_4_6_13, BRANCH_4_6_13 + BiPoly.monomial(1, 20, 0))]
    expected = [(contact(f, h), root_contacts(f, h)) for f, h in pairs]
    expand = puiseux._expand_bipoly

    def rebuilt(ctx, f, depth):
        return [PuiseuxSeries(s.terms, s.truncation, ctx) for s in expand(ctx, f, depth)]

    monkeypatch.setattr(puiseux, "_expand_bipoly", rebuilt)
    assert [(contact(f, h), root_contacts(f, h)) for f, h in pairs] == expected


def test_contact_frozen_values():
    f1 = BRANCH_6_8_27
    assert contact(f1, parse_poly("y")) == Fraction(8, 6)
    assert contact(f1, parse_poly("y^3-6*x^3*y-x^4")) == Fraction(11, 6)
    f2 = BRANCH_4_6_13
    assert contact(f2, parse_poly("y")) == Fraction(3, 2)
    assert contact(f2, parse_poly("y^2-x^3")) == Fraction(7, 4)
    assert contact(f2, f2) == inf


def test_contact_sees_shared_exact_component():
    assert contact(CUSP, CUSP * parse_poly("y-x")) == inf


def test_contact_undecidable_without_enough_depth():
    wavy = parse_poly("y^2-x^3-x^4")
    shared = wavy * parse_poly("y-x")
    # the common root only ever agrees within the expansion window
    with pytest.raises(ContactUndecidableError) as err:
        contact(wavy, shared, depth=4)
    assert err.value.bound == 4


def test_contact_input_validation():
    with pytest.raises(ValidationError):
        contact(parse_poly("0"), CUSP)
    with pytest.raises(ValidationError):
        contact(parse_poly("1+x"), CUSP)  # no root through the origin


@pytest.mark.parametrize("f", ["1+x", "x"])
def test_contact_of_a_curve_with_itself_needs_the_origin(f):
    # neither curve has a Puiseux root through the origin, whether or not
    # it passes through it, so the f == h shortcut must not answer inf
    for call in (contact, root_contacts):
        with pytest.raises(ValidationError, match="^contact needs curves through the origin$"):
            call(parse_poly(f), parse_poly(f))
    assert contact(parse_poly("y"), parse_poly("y")) == inf


def test_root_contacts_frozen():
    f1 = BRANCH_6_8_27
    jac1 = jacobian_det(parse_poly("y^3-6*x^3*y-x^4"), f1)
    assert root_contacts(f1, jac1) == [Fraction(4, 3), Fraction(4, 3)]
    g = BRANCH_6_8_27_VARIANT
    jacg = jacobian_det(parse_poly("y^3-x^4"), g)
    assert root_contacts(g, jacg) == [Fraction(4, 3), Fraction(4, 3), 1, 1]


def test_root_contacts_bound_is_the_deepest_depth(monkeypatch):
    # the root y = x of h is shared exactly (contact inf), and y = x^3 + x^95
    # stays undecided against y = x^3 + x^90 through depth 64; every edge is
    # a binomial or one cluster, so no general root finder runs
    _refuse_general_finder(monkeypatch)
    f = parse_poly("(y-x)*(y-x-x^100)*(y-x^3-x^90)")
    h = parse_poly("(y-x)*(y-x^3-x^95)")
    with pytest.raises(ContactUndecidableError,
                       match=r"^contact undecidable at current depth \(>= 64\)$") as err:
        root_contacts(f, h)
    assert err.value.bound == 64 and isinstance(err.value.bound, Fraction)
    assert contact(f, h) == inf


def test_a_supplied_root_names_the_index_of_every_entry_point():
    f, f1 = BRANCH_4_6_13, parse_poly("y^2-x^3")
    assert jnd_oracle(f, None, fk=f1) == jnd_formula(Semigroup((4, 6, 13)), 1)
    assert contact_classes(f, None, fk=f1) == contact_classes(f, 1)


def test_no_index_and_no_root_is_refused_before_any_jacobian(monkeypatch):
    def refuse(*args):
        raise AssertionError("a jacobian was built or measured")

    monkeypatch.setattr(puiseux, "_measure", refuse)
    monkeypatch.setattr(puiseux, "jacobian_det", refuse)
    for call in (contact_classes, jnd_oracle):
        with pytest.raises(ValidationError, match=r"^diagram index must lie in 0\.\.1, got None$"):
            call(BRANCH_4_6_13, None)


def test_contact_classes_structure():
    classes = contact_classes(BRANCH_4_6_13, 0)
    assert [c.index for c in classes] == [0, 1]
    residual, deep = classes
    assert residual.contact is None
    assert (len(residual.roots), residual.x_power) == (0, 2)
    assert (residual.f_intersection, residual.fk_intersection) == (8, 2)
    assert residual.segment() == E(8, 2)
    assert deep.contact == Fraction(7, 4)
    assert (len(deep.roots), deep.x_power) == (2, 0)
    assert (deep.f_intersection, deep.fk_intersection) == (13, 3)
    (top,) = contact_classes(BRANCH_4_6_13, 1)
    assert top.contact is None
    assert (len(top.roots), top.x_power) == (2, 4)
    assert top.segment() == E(28, 14)


def test_classes_reject_non_maximal_contact_curve():
    with pytest.raises(ValidationError):
        contact_classes(BRANCH_4_6_13, 1, fk=parse_poly("y^2-x^4"))
    with pytest.raises(ValidationError):
        contact_classes(BRANCH_4_6_13, 0, fk=parse_poly("y^2-x^3"))  # wrong degree
    with pytest.raises(ValidationError):
        contact_classes(BRANCH_4_6_13, 2)  # index out of range


@pytest.mark.parametrize("root", ["2*y^2-x^3", "y^2-x^3+1"])
def test_classes_reject_a_supplied_root_that_is_not_weierstrass(root):
    with pytest.raises(ValidationError, match="the supplied root must be a Weierstrass polynomial"):
        contact_classes(BRANCH_4_6_13, 1, fk=parse_poly(root))


def test_oracle_diagram_frozen():
    f2 = BRANCH_4_6_13
    assert jnd_oracle(f2, 0) == D([E(8, 2), E(13, 3)])
    assert jnd_oracle(f2, 1) == D([E(28, 14)])
    assert jnd_oracle(BRANCH_6_8_27, 1) == D([E(64, 32)])
    # the jacobian of (y, y^2 - x^3) is 3x^2, with no roots: the whole
    # diagram is the segment of x^2, {2*2 \ 2*1}
    assert jnd_oracle(CUSP, 0) == D([E(4, 2)])


@pytest.mark.parametrize("gens", [(4, 6, 13), (6, 8, 27), (12, 18, 39, 119), (24, 32, 100, 211)])
def test_measured_family_recovers_the_semigroup(gens):
    # each diagram is summed root by root from measured contacts, reading no
    # semigroup value, so the recovery runs the paper's completeness theorem
    # on the polynomial itself
    s = Semigroup(gens)
    f = build_test_branch(s)
    assert recover_semigroup([jnd_oracle(f, k) for k in range(s.genus)]) == s


def test_oracle_accepts_any_maximal_contact_curve():
    # the diagram must not depend on which curve of maximal contact is used
    alt = parse_poly("y^2-x^3-x^4")
    assert jnd_oracle(BRANCH_4_6_13, 1, fk=alt) == D([E(28, 14)])


def _root_candidates(roots, s, k):
    """Weierstrass polynomials of the degree b_0/l_k of the k-th root: the
    root itself, the root plus x^a y^j, y^d - x^e, and products of roots."""
    d = roots[k].deg_y()
    out = [roots[k]]
    out += [roots[k] + BiPoly.monomial(1, a, j) for a in (1, 2, 3, 5, 8) for j in range(d)]
    out += [BiPoly.y() ** d - BiPoly.x() ** e for e in range(1, 2 * s.multiplicity + 2)]
    if k:
        prev = roots[k - 1]
        n = d // prev.deg_y()
        out.append(prev ** n)
        for a in (1, 4, 9):
            x_a = BiPoly.monomial(1, a, 0)
            out += [prev ** n - x_a, (prev - x_a) * prev ** (n - 1)]
    return out


def test_a_supplied_root_is_accepted_exactly_at_maximal_contact():
    # the set-up accepts fk by the exact I(f, fk) = v_(k+1); the numeric
    # contact must agree: a curve of degree b_0/l_k is accepted exactly
    # when it meets f at b_(k+1)/b_0, and then gives the diagram of f_k
    rng = random.Random(7)
    verdicts = Counter()
    for _ in range(40):
        f, s = random_test_branch(rng, max_degree=8)
        roots = characteristic_roots(f)
        b = semigroup_to_char(s).exponents
        for k in range(s.genus):
            expected = jnd_oracle(f, k)
            for c in _root_candidates(roots, s, k):
                maximal = contact(f, c) == Fraction(b[k + 1], b[0])
                if maximal:
                    assert jnd_oracle(f, k, fk=c) == expected, (s, k, c)
                else:
                    with pytest.raises(ValidationError, match=f"maximal contact of index {k}"):
                        jnd_oracle(f, k, fk=c)
                verdicts[maximal] += 1
    assert verdicts[True] > 50 and verdicts[False] > 50, verdicts


def test_a_root_of_wrong_contact_is_rejected_before_any_expansion(monkeypatch):
    # the supplied root is certified exactly, off its expansion in the roots
    # of the branch: no Newton-Puiseux expansion and no resultant
    def refuse(*args):
        raise AssertionError("the rejection took a numeric or resultant route")

    monkeypatch.setattr(puiseux, "_expand_bipoly", refuse)
    monkeypatch.setattr(poly, "resultant_y", refuse)
    for entry in (contact_classes, jnd_oracle, verify_decomposition):
        with pytest.raises(ValidationError,
                           match=r"intersection number 12 .* v_2 = 13; it is not a curve of "
                                 r"maximal contact of index 1"):
            entry(BRANCH_4_6_13, 1, fk=parse_poly("y^2-x^4"))


_CYCLE_CHECKS = ["root count", "ramification", "conjugate contact profile"]


def test_a_vanishing_jacobian_is_refused_before_any_expansion(monkeypatch):
    def refuse(*args):
        raise AssertionError("a vanishing jacobian reached the numeric route")

    monkeypatch.setattr(puiseux, "jacobian_det", lambda fk, f: BiPoly.zero())
    monkeypatch.setattr(puiseux, "_expand_bipoly", refuse)
    for entry in (contact_classes, jnd_oracle, verify_decomposition):
        with pytest.raises(ValidationError,
                           match=r"^the jacobian determinant vanishes identically$"):
            entry(BRANCH_4_6_13, 0)


def test_verify_cycle():
    report = verify_cycle(BRANCH_4_6_13)
    assert [name for name, _, _ in report] == _CYCLE_CHECKS
    assert all(ok for _, ok, _ in report)
    # reducible input never reaches the cycle checks: the exact semigroup
    # front gate already rejects it
    with pytest.raises(ValidationError):
        verify_cycle(parse_poly("y^2-x^2"))


@pytest.mark.parametrize("gens", [None, (12, 18, 39, 119), (24, 32, 100, 211)],
                         ids=["y-x^2", "<12,18,39,119>", "<24,32,100,211>"])
def test_verify_cycle_measures_the_whole_profile(monkeypatch, gens):
    # the roots are expanded and their conjugate contacts measured in one
    # attempt of verify_cycle's own, at the verifiers' one depth
    f = parse_poly("y-x^2") if gens is None else build_test_branch(Semigroup(gens))

    def refuse(*args):
        raise AssertionError("verify_cycle went through puiseux_expand")

    monkeypatch.setattr(puiseux, "puiseux_expand", refuse)
    report = verify_cycle(f)
    assert [name for name, _, _ in report] == _CYCLE_CHECKS
    assert all(ok for _, ok, _ in report)


def test_verify_cycle_reports_a_failed_check(monkeypatch):
    # the roots of <4, 6, 13> split off at 3/2, 3/2 and 7/4; <4, 6, 15> has
    # characteristic (4; 6, 9), so its profile wants 9/4 where 7/4 is
    # measured, while the count and the ramification 4 still hold
    details = []
    profile = puiseux._conjugate_profile
    monkeypatch.setattr(puiseux, "_conjugate_profile",
                        lambda *args: details.append(profile(*args)) or details[-1])
    monkeypatch.setattr(puiseux, "semigroup_of", lambda f: Semigroup((4, 6, 15)))
    with pytest.raises(VerificationError,
                       match=r"^cycle verification failed: \['conjugate contact profile'\]$"):
        verify_cycle(BRANCH_4_6_13)
    assert details == [(False, "[3/2, 3/2, 7/4] vs [3/2, 3/2, 9/4]")]


def test_undecided_contacts_escalate():
    # two series that agree on all they know, up to x^2 and x^(5/2)
    a = PuiseuxSeries([(Fraction(3, 2), 1.0)], Fraction(2))
    b = PuiseuxSeries([(Fraction(3, 2), 1.0)], Fraction(5, 2))
    with pytest.raises(puiseux._EscalationNeeded, match=r"^twins: contact undecided at bound 2$"):
        puiseux._decided_contacts(puiseux.NumericContext(), [a], [b], 2, "twins")


def test_a_fractional_total_escalates():
    assert puiseux._int_or_escalate(6, 2, "length") == 3
    with pytest.raises(puiseux._EscalationNeeded,
                       match=r"^length summed to the non-integer 5/2$"):
        puiseux._int_or_escalate(5, 2, "length")


def test_verify_decomposition_builds_one_family(monkeypatch):
    calls, family = [], puiseux.jnd_family
    monkeypatch.setattr(puiseux, "jnd_family", lambda s: calls.append(s) or family(s))
    verify_decomposition(BRANCH_6_8_27)
    assert calls == [Semigroup((6, 8, 27))]


def test_verify_decomposition_full():
    report = verify_decomposition(BRANCH_4_6_13)
    assert len(report) == 18
    assert all(ok for _, ok, _ in report)
    assert len(verify_decomposition(BRANCH_4_6_13, k=1)) == 9


def test_verify_decomposition_with_an_eightfold_top_edge():
    # the top edge polynomial of f is (z^2 - c)^8, one cluster (w - c)^8
    # after lattice reduction; through the general root finder alone the
    # verifier ended in NumericError, undecided at every tier
    f = build_test_branch(Semigroup((16, 40, 84, 174, 355)))
    report = verify_decomposition(f)
    assert len(report) == 36
    assert all(ok for _, ok, _ in report)


@pytest.mark.parametrize("gens", [(12, 18, 39, 119), (24, 32, 100, 211)])
def test_verify_decomposition_with_rotated_conjugates(gens):
    # expanded root by root, an edge below some conjugate of f or of a
    # jacobian root failed its multiplicity certificate at 53 bits, the
    # root finder did not converge above, and the verifier ended in
    # NumericError; each orbit is now expanded from one root
    report = verify_decomposition(build_test_branch(Semigroup(gens)))
    assert len(report) == 27
    assert all(ok for _, ok, _ in report)


def test_verify_decomposition_reads_exact_totals_off_the_certified_branch(monkeypatch):
    # I(J_k, f) and I(J_k, f_k) come from the expansion in the roots of the
    # branch just certified, also with an x^(mu+2)*y tail; only a supplied
    # curve that is none of those roots goes through the resultant
    calls, resultant = [], poly.resultant_y
    monkeypatch.setattr(poly, "resultant_y", lambda f, h: calls.append(1) or resultant(f, h))
    s = Semigroup((16, 24, 52, 105))
    tailed = build_test_branch(s) + BiPoly.monomial(1, s.milnor() + 2, 1)
    for f in (BRANCH_4_6_13, tailed):
        report = verify_decomposition(f)
        assert all(ok for _, ok, _ in report)
        assert calls == [], f
    report = verify_decomposition(BRANCH_4_6_13, k=1, fk=parse_poly("y^2-x^3-x^4"))
    assert ("k=1: exact height total", True, "14 vs 14") in report
    assert all(ok for _, ok, _ in report)
    assert calls


@pytest.mark.parametrize("root, k", [("y", 0), ("y^2-x^3", 1), ("y^2-x^3-x^4", 1)])
def test_verify_decomposition_infers_index_of_supplied_root(root, k):
    fk = parse_poly(root)
    report = verify_decomposition(BRANCH_4_6_13, fk=fk)
    assert report == verify_decomposition(BRANCH_4_6_13, k=k, fk=fk)
    assert {name.split(":")[0] for name, _, _ in report} == {f"k={k}"}


def test_verify_decomposition_rejects_root_of_no_index():
    # y-degrees b_0/l_k of <4, 6, 13> are 1 and 2
    with pytest.raises(ValidationError, match=r"y-degree 3.*\[1, 2\]"):
        verify_decomposition(BRANCH_4_6_13, fk=parse_poly("y^3-x^5"))


def test_only_the_verifier_measures_the_conjugate_profile(monkeypatch):
    # every k shares one attempt, so the verifier measures the conjugates
    # of f once per call; the other entry points never measure them
    shapes, decided_contacts = [], puiseux._decided_contacts

    def counted(ctx, rows, cols, den, what):
        matrix = decided_contacts(ctx, rows, cols, den, what)
        if what == "conjugate roots of f":
            shapes.append([len(row) for row in matrix])
        return matrix

    monkeypatch.setattr(puiseux, "_decided_contacts", counted)
    for k in (0, 1):
        contact_classes(BRANCH_4_6_13, k)
        jnd_oracle(BRANCH_4_6_13, k)
    assert shapes == []
    verify_decomposition(BRANCH_4_6_13)
    assert shapes == [[3, 3, 3, 3]]
    verify_decomposition(BRANCH_4_6_13, 1)
    assert shapes == [[3, 3, 3, 3]] * 2


def test_decomposition_runs_the_am_iteration_once(monkeypatch):
    calls = []
    am_iteration = puiseux._am_iteration

    def counted(f):
        calls.append(f)
        return am_iteration(f)

    monkeypatch.setattr(puiseux, "_am_iteration", counted)
    verify_decomposition(BRANCH_4_6_13)
    assert calls == [BRANCH_4_6_13]


def test_verify_decomposition_raises_on_a_failed_check(monkeypatch):
    monkeypatch.setattr(puiseux, "jnd_family", lambda s: [D([E(1, 1)])] * s.genus)
    with pytest.raises(VerificationError,
                       match="decomposition checks failed: k=0: oracle diagram matches formula"):
        verify_decomposition(BRANCH_4_6_13)


def test_verify_decomposition_reports_a_wrong_conjugate_profile(monkeypatch):
    # <4, 6, 13>: each root meets two conjugates at 3/2 and one at 7/4;
    # one contact moved from 7/4 to 2 breaks the profile at both k
    decided_contacts = puiseux._decided_contacts

    def shifted(ctx, rows, cols, den, what):
        matrix = decided_contacts(ctx, rows, cols, den, what)
        if what == "conjugate roots of f":
            row = matrix[0]
            row[row.index(max(row))] += den // 4
        return matrix

    monkeypatch.setattr(puiseux, "_decided_contacts", shifted)
    with pytest.raises(VerificationError) as exc:
        verify_decomposition(BRANCH_4_6_13)
    assert str(exc.value) == (
        "decomposition checks failed: k=0: conjugate contact profile ([2] vs [7/4]); "
        "k=1: conjugate contact profile ([2] vs [])")


def test_verify_decomposition_reports_a_wrong_class_size(monkeypatch):
    # <6, 8, 27> at k=0 has one deep class, of 3 roots; drop one of them
    measure = puiseux._measure

    def dropped(ctx, f, roots, depth):
        sigma, measured = measure(ctx, f, roots, depth)
        classes, jac_counts, diagram = measured[0]
        c = classes[-1]
        short = puiseux.ContactClass(c.index, c.contact, c.roots[1:], c.x_power,
                                     c.f_intersection, c.fk_intersection)
        measured[0] = (classes[:-1] + [short], jac_counts, diagram)
        return sigma, measured

    monkeypatch.setattr(puiseux, "_measure", dropped)
    with pytest.raises(VerificationError,
                       match=r"checks failed: k=0: class sizes \(\[2\] vs \[3\]\)$"):
        verify_decomposition(BRANCH_6_8_27)


def test_verify_decomposition_reports_a_wrong_class_contact(monkeypatch):
    # <6, 8, 27> at k=0 has one deep class, at contact b_2/b_0 = 11/6; move it to 5
    measure = puiseux._measure

    def moved(ctx, f, roots, depth):
        sigma, measured = measure(ctx, f, roots, depth)
        classes, jac_counts, diagram = measured[0]
        c = classes[-1]
        far = puiseux.ContactClass(c.index, Fraction(5), c.roots, c.x_power,
                                   c.f_intersection, c.fk_intersection)
        measured[0] = (classes[:-1] + [far], jac_counts, diagram)
        return sigma, measured

    monkeypatch.setattr(puiseux, "_measure", moved)
    with pytest.raises(VerificationError,
                       match=r"checks failed: k=0: class sizes \(contacts \[5\] vs \[11/6\]\)$"):
        verify_decomposition(BRANCH_6_8_27)


def test_classification_reads_no_semigroup_value():
    # the classes, counts and diagrams of <6, 8, 27> measured on roots and
    # jacobians built by hand, with no semigroup, are those of the set-up's;
    # the depth b_2/b_0 + 1 = 11/6 + 1 is the one number handed over
    f = BRANCH_6_8_27
    depth = Fraction(17, 6)
    s, roots = puiseux._setup(f)
    assert puiseux._verifier_depth(s) == depth

    def measured(roots):
        return puiseux._with_escalation(lambda ctx: puiseux._measure(ctx, f, roots, depth))[1]

    expected = measured(roots)
    by_hand = {k: (fk, jacobian_det(fk, f)) for k, fk in enumerate(characteristic_roots(f))}
    assert measured(by_hand) == expected
    assert [len(classes) for classes, _, _ in expected.values()] == [2, 1]


def test_verify_decomposition_rejects_smooth():
    with pytest.raises(ValidationError):
        verify_decomposition(parse_poly("y"))


def test_decomposition_rejects_boolean_index():
    with pytest.raises(ValidationError, match="got True"):
        verify_decomposition(BRANCH_4_6_13, k=True)
    with pytest.raises(ValidationError, match="got False"):
        contact_classes(BRANCH_4_6_13, False)


# the full verifier report and the contact classes of the two fixture
# branches, names and details byte for byte; every check passes on both
_REPORT_NAMES = [
    "oracle diagram matches formula",
    "conjugate contact profile",
    "jacobian roots at deep contact",
    "class sizes",
    "x factor and zero roots stay residual",
    "height total is mu_k + v_(k+1) - 1",
    "length total is mu + v_(k+1) - 1",
    "exact length total",
    "exact height total",
]
_GOLDEN = [
    (
        BRANCH_4_6_13,
        {
            0: ["{8\\2} + {13\\3} vs {8\\2} + {13\\3}", "", "[2] vs 2", "", "",
                "5 vs 5", "21 vs 21", "21 vs 21", "5 vs 5"],
            1: ["{28\\14} vs {28\\14}", "", "[0] vs 0", "", "",
                "14 vs 14", "28 vs 28", "28 vs 28", "14 vs 14"],
        },
        {
            0: ["ContactClass(residual, roots=0, x_power=2, f=8, fk=2)",
                "ContactClass(contact 7/4, roots=2, x_power=0, f=13, fk=3)"],
            1: ["ContactClass(residual, roots=2, x_power=4, f=28, fk=14)"],
        },
    ),
    (
        BRANCH_6_8_27,
        {
            0: ["{18\\3} + {27\\4} vs {18\\3} + {27\\4}", "", "[3] vs 3", "", "",
                "7 vs 7", "45 vs 45", "45 vs 45", "7 vs 7"],
            1: ["{64\\32} vs {64\\32}", "", "[0] vs 0", "", "",
                "32 vs 32", "64 vs 64", "64 vs 64", "32 vs 32"],
        },
        {
            0: ["ContactClass(residual, roots=1, x_power=2, f=18, fk=3)",
                "ContactClass(contact 11/6, roots=3, x_power=0, f=27, fk=4)"],
            1: ["ContactClass(residual, roots=2, x_power=8, f=64, fk=32)"],
        },
    ),
]


@pytest.mark.parametrize("f, details, classes", _GOLDEN, ids=["4_6_13", "6_8_27"])
def test_decomposition_report_and_classes_golden(f, details, classes):
    expected = [
        (f"k={k}: {name}", True, detail)
        for k in (0, 1)
        for name, detail in zip(_REPORT_NAMES, details[k])
    ]
    assert verify_decomposition(f) == expected
    for k in (0, 1):
        assert [repr(c) for c in contact_classes(f, k)] == classes[k]


# every expansion depth and every scale factor goes through one rule: an
# int, a Fraction or a string such as "3/2", never a float or a bool
_RATIONAL_ARGUMENTS = {
    "puiseux_expand": lambda v: puiseux_expand(CUSP, v),
    "contact": lambda v: contact(CUSP, parse_poly("y"), depth=v),
    "contact of a curve with itself": lambda v: contact(CUSP, CUSP, depth=v),
    "root_contacts": lambda v: root_contacts(CUSP, parse_poly("y"), depth=v),
    "ElementarySegment.scaled": lambda v: E(1, 2).scaled(v),
    "NewtonDiagram.scaled": lambda v: D([E(1, 2)], shift=(1, 0)).scaled(v),
}


@pytest.mark.parametrize(
    "bad", ["abc", float("inf"), float("nan"), 0.1, 2.0, True, [2],
            "1_3", "\u0661\u0663", " 13 ", "1.3e1", "13.0"],
    ids=["abc", "inf", "nan", "0.1", "2.0", "True", "list",
         "underscore", "arabic-indic", "spaces", "exponent", "decimal"],
)
def test_rational_arguments_reject_floats_bools_and_junk(bad):
    for name, call in _RATIONAL_ARGUMENTS.items():
        with pytest.raises(ValidationError):
            call(bad)


def test_rational_arguments_accept_ints_fractions_and_strings():
    assert E(1, 2).scaled("3/2") == E(1, 2).scaled(Fraction(3, 2)) == E(Fraction(3, 2), 3)
    assert D([E(1, 2)]).scaled(2) == D([E(2, 4)])
    for depth in (2, Fraction(5, 2), "7/4"):
        assert len(puiseux_expand(CUSP, depth)) == 2
        assert contact(CUSP, parse_poly("y"), depth=depth) == Fraction(3, 2)
        assert root_contacts(CUSP, parse_poly("y"), depth=depth) == [Fraction(3, 2)]


@pytest.mark.parametrize("bad", ["x", None, True, 128.0], ids=["x", "None", "True", "128.0"])
def test_min_bits_must_be_an_int(bad):
    with pytest.raises(ValidationError, match="min_bits"):
        puiseux_expand(CUSP, 4, min_bits=bad)
