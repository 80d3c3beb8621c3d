"""Numeric Newton-Puiseux engine and the decomposition cross-checks."""

from fractions import Fraction
from math import inf

import pytest

from planebranch import (
    ContactUndecidableError,
    ElementarySegment,
    NewtonDiagram,
    NumericError,
    ValidationError,
    contact,
    contact_classes,
    jacobian_det,
    jnd_oracle,
    parse_poly,
    puiseux_expand,
    root_contacts,
    verify_cycle,
    verify_decomposition,
)
from planebranch.fixtures import BRANCH_4_6_13, BRANCH_6_8_27, BRANCH_6_8_27_VARIANT

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


def test_expansion_input_validation():
    with pytest.raises(ValidationError):
        puiseux_expand(CUSP, 0)
    with pytest.raises(ValidationError):
        puiseux_expand(parse_poly("0"), 4)


def test_expansion_ignores_roots_away_from_origin():
    assert puiseux_expand(parse_poly("y^2-1"), 4) == []


def test_fourfold_edge_root_is_resolved():
    # the first edge carries y = x with multiplicity 4; splitting it needs
    # the multiple-root certification, not plain clustering
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
    + [(BRANCH_4_6_13, Fraction(17, 4), bits) for bits in (128, 256)]
    + [
        pytest.param(
            BRANCH_4_6_13, Fraction(17, 4), 512,
            # the edge polynomial (z^2 - 1)^2 has double roots, on which
            # mpmath's root finder does not converge; a square-free split
            # of exact edge polynomials is the fix
            marks=pytest.mark.xfail(strict=True, raises=NumericError),
        )
    ],
)
def test_expansion_starts_at_min_bits(f, depth, bits):
    series = puiseux_expand(f, depth, min_bits=bits)
    assert {s.context.bits for s in series} == {bits}
    assert _shape(series) == _shape(puiseux_expand(f, depth))


def test_truncated_series_format():
    s = puiseux_expand(parse_poly("y^2-x^3-x^4"), 4)[0]
    assert "O(x^4)" in str(s)
    assert s.truncation == 4
    assert s.support()[0] == Fraction(3, 2)


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
    assert contact(wavy, shared, partial=True, depth=4) == 4
    with pytest.raises(ContactUndecidableError) as err:
        contact(wavy, shared, depth=4)
    assert err.value.bound == 4


def test_contact_input_validation():
    with pytest.raises(ValidationError):
        contact(parse_poly("0"), CUSP)
    with pytest.raises(ValidationError):
        contact(parse_poly("1+x"), CUSP)  # no root through the origin


def test_root_contacts_frozen():
    f1 = BRANCH_6_8_27
    jac1 = jacobian_det(parse_poly("y^3-6*x^3*y-x^4"), f1)
    assert root_contacts(f1, jac1) == [Fraction(4, 3), Fraction(4, 3)]
    g = BRANCH_6_8_27_VARIANT
    jacg = jacobian_det(parse_poly("y^3-x^4"), g)
    assert root_contacts(g, jacg) == [Fraction(4, 3), Fraction(4, 3), 1, 1]


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


def test_oracle_diagram_frozen():
    f2 = BRANCH_4_6_13
    assert jnd_oracle(f2, 0) == D([E(8, 2), E(13, 3)])
    assert jnd_oracle(f2, 1) == D([E(28, 14)])
    assert jnd_oracle(BRANCH_6_8_27, 1) == D([E(64, 32)])


def test_oracle_accepts_any_maximal_contact_curve():
    # the diagram must not depend on which curve of maximal contact is used
    alt = parse_poly("y^2-x^3-x^4")
    assert jnd_oracle(BRANCH_4_6_13, 1, fk=alt) == D([E(28, 14)])


def test_verify_cycle():
    report = verify_cycle(BRANCH_4_6_13)
    assert [name for name, _, _ in report] == [
        "root count",
        "ramification",
        "common support",
        "conjugate magnitudes",
    ]
    assert all(ok for _, ok, _ in report)
    # reducible input never reaches the cycle checks: the exact semigroup
    # front gate already rejects it
    with pytest.raises(ValidationError):
        verify_cycle(parse_poly("y^2-x^2"))


def test_verify_decomposition_full():
    report = verify_decomposition(BRANCH_4_6_13)
    assert len(report) == 18
    assert all(ok for _, ok, _ in report)
    assert len(verify_decomposition(BRANCH_4_6_13, exact_totals=False)) == 14
    assert len(verify_decomposition(BRANCH_4_6_13, k=1)) == 9


def test_verify_decomposition_rejects_smooth():
    with pytest.raises(ValidationError):
        verify_decomposition(parse_poly("y"))
