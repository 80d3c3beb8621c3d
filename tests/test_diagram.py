"""Newton diagrams: hulls, Minkowski arithmetic, serialization, rendering."""

import copy
import pickle
import random
import time
from decimal import Decimal
from fractions import Fraction
from math import inf

import numpy
import pytest

from oracles import support_hull
from planebranch import (
    BiPoly,
    ElementarySegment,
    NewtonDiagram,
    Semigroup,
    ValidationError,
    diagram_difference,
    diagram_from_support,
    diagram_of,
    jnd_formula,
    minkowski_sum,
    parse_poly,
)
from planebranch.diagram import lower_hull

E = ElementarySegment


def test_segment_basics():
    s = E(8, 2)
    assert s.inclination == 4
    assert str(s) == "{8\\2}"
    assert E(13, 3).inclination == Fraction(13, 3)
    assert E(inf, 2).inclination == inf
    assert E(3, inf).inclination == 0
    assert E(Fraction(1, 2), 2).scaled(4) == E(2, 8)


def test_segment_validation():
    with pytest.raises(ValidationError):
        E(inf, inf)
    with pytest.raises(ValidationError):
        E(0, 2)
    with pytest.raises(ValidationError):
        E(3, -1)
    with pytest.raises(ValidationError, match="got bool True"):
        E(True, 1)


def test_segment_error_quotes_the_argument_as_given():
    with pytest.raises(ValidationError) as info:
        E("-1/2", 1)
    assert str(info.value) == "segment length must be positive, got '-1/2'"
    with pytest.raises(ValidationError) as info:
        E(1, Fraction(-1, 2))
    assert str(info.value) == "segment height must be positive, got Fraction(-1, 2)"
    with pytest.raises(ValidationError) as info:
        NewtonDiagram([], ("-1/2", 0))
    assert str(info.value) == "diagram shift must be nonnegative, got (-1/2, 0)"


def test_integral_sides_are_stored_as_ints():
    reduced, plain = E("26/2", Fraction(6, 2)), E(13, 3)
    assert reduced == plain and hash(reduced) == hash(plain)
    for seg in (reduced, plain):
        assert type(seg.length) is int and type(seg.height) is int
        assert seg.inclination == Fraction(13, 3) and type(seg.inclination) is Fraction
    assert type(E(8, 2).inclination) is Fraction
    half = E("13/2", 3)
    assert type(half.length) is Fraction and type(half.scaled(2).length) is int
    # a folded shift that sums to an integer is stored as one
    d = NewtonDiagram([E(Fraction(1, 2), inf)], (Fraction(1, 2), "4/2"))
    assert d.shift == (1, 2) and all(type(c) is int for c in d.shift)
    d = diagram_from_support([(2, 3), (5, 1), (9, 0)])
    assert all(type(c) is int for c in d.shift)
    assert all(type(side) is int for seg in d.segments for side in (seg.length, seg.height))


def test_integral_sums_are_stored_as_ints():
    # sums of Fractions that come out integral are stored as ints by every
    # operation that adds or subtracts sides or shift coordinates
    half = NewtonDiagram([(Fraction(1, 2), Fraction(1, 4))], (Fraction(1, 2), 0))
    three_halves = NewtonDiagram([(Fraction(3, 2), Fraction(3, 4))], (Fraction(3, 2), 0))
    sums = {
        "+": half + half,
        "minkowski_sum": minkowski_sum(half, half),
        "-": three_halves - half,
        "scaled": half.scaled(2),
        "constructor merge": NewtonDiagram(
            [(Fraction(1, 2), Fraction(1, 4)), (Fraction(1, 2), Fraction(1, 4)), ("1/2", inf)],
            (Fraction(1, 2), 0)),
        "constructor merge out of order": NewtonDiagram(
            [(Fraction(1, 2), Fraction(1, 4)), (3, 1), (Fraction(1, 2), Fraction(1, 4))],
            (1, 0)),
    }
    for how, d in sums.items():
        seg = d.segments[0]
        assert (seg.length, seg.height) == (1, Fraction(1, 2)), how
        assert type(seg.length) is int and type(seg.height) is Fraction, how
        assert d.shift == (1, 0) and all(type(c) is int for c in d.shift), how


def test_malformed_diagram_arguments_are_typed_errors():
    cases = [
        (lambda: NewtonDiagram([(1, 2, 3)]), "segment entry must be a pair, got (1, 2, 3)"),
        (lambda: NewtonDiagram([5]), "segment entry must be a pair, got 5"),
        (lambda: NewtonDiagram([], (1, 2, 3)), "diagram shift must be a pair"),
        (lambda: NewtonDiagram([], 5), "diagram shift must be a pair"),
        (lambda: NewtonDiagram(None), "diagram segments must be a list"),
        (lambda: NewtonDiagram([], (Decimal("Infinity"), 0)),
         "diagram shift must be rational, got Decimal('Infinity')"),
    ]
    for call, message in cases:
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize(
    "spelling",
    [inf, float("inf"), Decimal("Infinity"), numpy.float64("inf")],
    ids=["math.inf", "float", "Decimal", "numpy.float64"],
)
def test_segment_side_accepts_every_infinite_spelling(spelling):
    # every spelling is stored as the float inf, the one float a side can be
    for seg, twin in ((E(3, spelling), E(3, inf)), (E(spelling, 2), E(inf, 2))):
        assert seg == twin and str(seg) == str(twin)
        assert seg.inclination == twin.inclination
        assert any(type(side) is float for side in (seg.length, seg.height))
    assert NewtonDiagram([E(3, spelling), E(spelling, 2)]) == NewtonDiagram([], (3, 2))


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_infinite_segment_survives_copy_and_pickle(copier):
    # an unpickled inf is a new float object: infinity is told by type,
    # not by identity with math.inf
    x_piece, y_piece = copier(E(3, inf)), copier(E(inf, 2))
    assert x_piece.inclination == 0 and y_piece.inclination == inf
    assert str(x_piece) == "{3\\inf}" and str(y_piece) == "{inf\\2}"
    assert NewtonDiagram([x_piece, E(4, 2)]) == NewtonDiagram([E(4, 2)], shift=(3, 0))
    assert NewtonDiagram([y_piece, E(4, 2)]) == NewtonDiagram([E(4, 2)], shift=(0, 2))
    finite = copier(E(13, 3))
    assert finite.inclination == Fraction(13, 3)


@pytest.mark.parametrize(
    "bad", ["abc", "1/0", float("nan"), 0.5, 0.0, inf, -1, Fraction(-1, 2), -inf]
)
def test_shift_validation(bad):
    # the shift follows the rule of segment values: rational, never a float,
    # but zero is allowed
    with pytest.raises(ValidationError, match="diagram shift"):
        NewtonDiagram([], (bad, 0))
    with pytest.raises(ValidationError, match="diagram shift"):
        NewtonDiagram([], (0, bad))
    assert NewtonDiagram([], (Fraction(1, 2), "3/2")).shift == (Fraction(1, 2), Fraction(3, 2))
    assert NewtonDiagram([], (0, 0)).is_trivial()


def test_lower_hull_matches_support_oracle(rng):
    for _ in range(200):
        pts = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(rng.randint(1, 12))]
        pts = [(Fraction(a), Fraction(b)) for a, b in pts]
        assert list(lower_hull(pts)) == support_hull(pts)
        # duplicates, int list pairs and a one-pass generator give the same vertices
        doubled = pts + pts[::-1]
        assert lower_hull([[int(a), int(b)] for a, b in doubled]) == support_hull(pts)
        assert lower_hull(p for p in doubled) == support_hull(pts)


def test_diagram_of_frozen_examples():
    f2 = parse_poly("(y^2-x^3)^2-x^5*y")
    assert diagram_of(f2) == NewtonDiagram([E(6, 4)])
    f1 = parse_poly("(y^3-6*x^3*y-x^4)^2-9*x^9")
    assert diagram_of(f1) == NewtonDiagram([E(8, 6)])
    cusp = parse_poly("y^2-x^3")
    assert diagram_of(cusp) == NewtonDiagram([E(3, 2)])


def test_shift_folding_and_canonical_decomposition():
    d = NewtonDiagram([E(3, inf), E(4, 2)])
    assert d.shift == (3, 0)
    assert d.segments == (E(4, 2),)
    assert d.canonical_decomposition() == [E(3, inf), E(4, 2)]
    d2 = NewtonDiagram([E(inf, 1)], shift=(0, 2))
    assert d2.shift == (0, 3)
    assert not d2.segments


def test_collinear_segments_merge():
    d = NewtonDiagram([E(3, 2), E(6, 4)])
    assert d.segments == (E(9, 6),)
    d2 = NewtonDiagram([E(4, 2), E(3, 2)])  # sorted by inclination
    assert d2.segments == (E(3, 2), E(4, 2))


def test_minkowski_sum_frozen():
    d = NewtonDiagram([E(8, 2)]) + NewtonDiagram([E(13, 3)])
    assert d.vertices() == ((0, 5), (8, 3), (21, 0))
    assert d.total_length() == 21
    assert d.total_height() == 5
    assert minkowski_sum(NewtonDiagram([E(8, 2)]), NewtonDiagram([E(13, 3)])) == d


def test_difference_identity():
    lhs = NewtonDiagram([E(12, 3), E(26, 6)])
    rhs = NewtonDiagram([E(4, 1), E(13, 3)])
    assert lhs - rhs == NewtonDiagram([E(8, 2), E(13, 3)])


def test_difference_error_messages():
    # the first segment of the subtrahend, by inclination, that fails names the error
    cases = [
        (NewtonDiagram([], (1, 0)), NewtonDiagram([], (2, 0)),
         "difference is not a diagram: negative shift"),
        (NewtonDiagram([E(4, 1), E(13, 3)]), NewtonDiagram([E(1, 1), E(26, 6)]),
         "no face with inclination 1 to subtract {1\\1} from"),
        (NewtonDiagram([E(4, 1)]), NewtonDiagram([E(3, 2)]),
         "no face with inclination 3/2 to subtract {3\\2} from"),
        (NewtonDiagram([E(4, 1)]), NewtonDiagram([E(8, 2), E(13, 3)]),
         "cannot subtract {8\\2} from the shorter face {4\\1}"),
    ]
    for a, b, message in cases:
        with pytest.raises(ValidationError) as info:
            a - b
        assert str(info.value) == message


def test_difference_refusals_past_the_digit_limit(digit_limit):
    big = 10 ** (digit_limit + 100)
    message = f"^cannot print a number of more than {digit_limit} digits$"
    # no face of the right inclination, and a face too short
    for b in (NewtonDiagram([E(1, big)]), NewtonDiagram([E(4 * big, 2)])):
        with pytest.raises(ValidationError, match=message):
            NewtonDiagram([E(2 * big, 1)]) - b


@pytest.mark.parametrize("call", [
    lambda: ElementarySegment(-10**4400, 1),
    lambda: NewtonDiagram([], (-10**4400, 0)),
    lambda: NewtonDiagram([10**4400]),
], ids=["negative side", "negative shift", "entry that is no pair"])
def test_constructor_refusals_past_the_digit_limit(digit_limit, call):
    with pytest.raises(ValidationError,
                       match=f"^cannot print a number of more than {digit_limit} digits$"):
        call()


def test_difference_requires_summand():
    with pytest.raises(ValidationError):
        NewtonDiagram([E(4, 1)]) - NewtonDiagram([E(3, 2)])
    with pytest.raises(ValidationError):
        NewtonDiagram([E(4, 1)]) - NewtonDiagram([E(8, 2), E(13, 3)])


def test_diagram_of_products(rng):
    # with positive coefficients no boundary cancellation can occur, so the
    # diagram of a product is exactly the Minkowski sum
    def positive_poly():
        terms = {}
        for _ in range(rng.randint(1, 6)):
            terms[(rng.randint(0, 6), rng.randint(0, 6))] = Fraction(rng.randint(1, 9))
        return BiPoly(terms)

    for _ in range(200):
        p, q = positive_poly(), positive_poly()
        assert diagram_of(p * q) == diagram_of(p) + diagram_of(q)


def test_diagram_from_support_shift():
    d = diagram_from_support([(2, 3), (5, 1), (9, 0)])
    assert d.shift == (2, 0)
    assert d.vertices()[0] == (2, 3)
    only_monomial = diagram_from_support([(4, 7)])
    assert only_monomial.shift == (4, 7)
    assert not only_monomial.segments


def test_json_roundtrip():
    d = NewtonDiagram([E(8, 2), E(13, 3)], shift=(1, 0))
    data = d.to_json_dict()
    assert data == {"shift": [1, 0], "segments": [[8, 2], [13, 3]]}
    assert NewtonDiagram.from_json_dict(data) == d
    frac = NewtonDiagram([E(Fraction(7, 2), 2)])
    data = frac.to_json_dict()
    assert data["segments"] == [["7/2", 2]]
    assert NewtonDiagram.from_json_dict(data) == frac


def test_json_accepts_inf_segments():
    d = NewtonDiagram.from_json_dict(
        {"shift": [0, 0], "segments": [["inf", 2], [4, 2], [3, "inf"]]}
    )
    assert d.shift == (3, 2)
    assert d.segments == (E(4, 2),)


def test_json_rejects_garbage():
    with pytest.raises(ValidationError):
        NewtonDiagram.from_json_dict({"segments": [[4]]})
    with pytest.raises(ValidationError):
        NewtonDiagram.from_json_dict({"shift": [0, 0], "segments": [["4/0", 2]]})
    with pytest.raises(ValidationError):
        NewtonDiagram.from_json_dict([])
    for value in (4.5, True, None, "abc", [4]):
        with pytest.raises(ValidationError, match="segment height"):
            NewtonDiagram.from_json_dict({"segments": [[4, value]]})
        with pytest.raises(ValidationError, match="diagram shift"):
            NewtonDiagram.from_json_dict({"shift": [value, 0], "segments": []})
    with pytest.raises(ValidationError, match="diagram shift"):
        NewtonDiagram.from_json_dict({"shift": ["inf", 0], "segments": []})
    with pytest.raises(ValidationError, match="segment length"):
        E("1/0", 2)


def test_str_notation():
    assert str(NewtonDiagram([E(8, 2), E(13, 3)])) == "{8\\2} + {13\\3}"
    assert str(NewtonDiagram([], shift=(2, 1))) == "{2\\inf} + {inf\\1}"
    assert str(NewtonDiagram([])) == "{0}"


def test_render_ascii_and_svg():
    d = NewtonDiagram([E(8, 2), E(13, 3)])
    art = d.render_ascii()
    assert art.count("*") == 3
    svg = d.render_svg()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert "polyline" in svg
    assert d.render("ascii") == art
    assert d.render("svg") == svg
    with pytest.raises(ValidationError):
        d.render("bogus")


def test_render_ascii_size_does_not_grow_with_the_generators():
    # a cell per unit made <2, 501> a 1,009,017-character grid; past 100
    # units a side only the vertex chain is printed
    start = time.perf_counter()
    art = jnd_formula(Semigroup((2, 2000000001)), 0).render_ascii()
    assert time.perf_counter() - start < 1 and len(art) < 1000
    assert art.startswith("vertices: (0, 2000000000) -> (4000000000, 0)\n")
    # fractional vertices count after scaling: (1/2, 0) makes the height 400
    art = NewtonDiagram([E("1/2", 200)]).render_ascii()
    assert art.startswith("vertices: (0, 200) -> (1/2, 0)\n")
    # below the limit the grid is drawn at the scale that makes them integral
    art = NewtonDiagram([E("1/2", 1)]).render_ascii()
    assert art.splitlines()[:3] == ["  2 * .", "  1 . .", "  0 . *"]
    assert art.endswith("(coordinates scaled by 2)")


def test_scaled():
    d = NewtonDiagram([E(4, 2)], shift=(1, 1))
    assert d.scaled(3) == NewtonDiagram([E(12, 6)], shift=(3, 3))
    for bare in (d, NewtonDiagram([], (1, 1)), NewtonDiagram([])):
        for factor in (0, -2):
            with pytest.raises(ValidationError, match="scale factor must be positive"):
                bare.scaled(factor)


def test_sum_with_trivial_is_identity(rng):
    d = NewtonDiagram([E(8, 2), E(13, 3)], shift=(2, 0))
    assert d + NewtonDiagram([]) == d
    assert (d - d).is_trivial()


def _random_diagram(rng):
    """A diagram from shuffled pieces: int and Fraction sides, collinear
    copies, infinite pieces and a shift."""
    def side():
        if rng.random() < 0.6:
            return rng.randint(1, 4)
        return Fraction(rng.randint(1, 8), rng.randint(1, 4))

    pieces = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        finite = [p for p in pieces if not any(isinstance(v, float) for v in (p.length, p.height))]
        if roll < 0.15:
            pieces.append(E(side(), inf))
        elif roll < 0.3:
            pieces.append(E(inf, side()))
        elif roll < 0.5 and finite:
            pieces.append(rng.choice(finite).scaled(Fraction(rng.randint(1, 6), rng.randint(1, 3))))
        else:
            pieces.append(E(side(), side()))
    rng.shuffle(pieces)
    return NewtonDiagram(pieces, (rng.choice([0, side()]), rng.choice([0, side()])))


def test_arithmetic_matches_the_public_constructor():
    # +, scaled and - against the constructor applied to the pieces
    rng = random.Random(27)
    for _ in range(600):
        a, b = _random_diagram(rng), _random_diagram(rng)
        factor = Fraction(rng.randint(1, 6), rng.randint(1, 6))
        total = a + b
        assert total == NewtonDiagram([*a.canonical_decomposition(), *b.canonical_decomposition()])
        assert minkowski_sum(a, b) == total
        scaled = a.scaled(factor)
        assert scaled == NewtonDiagram([p.scaled(factor) for p in a.canonical_decomposition()])
        difference = total - b
        assert difference == a
        for d in (a, b, total, scaled, difference):
            segs = d.segments
            assert all(s.inclination < t.inclination for s, t in zip(segs, segs[1:]))
            for v in (*d.shift, *(side for s in segs for side in (s.length, s.height))):
                assert type(v) is (int if v.denominator == 1 else Fraction)
