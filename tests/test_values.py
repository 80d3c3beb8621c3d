"""The immutable-value idiom shared by every invariant class."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from planebranch import (
    CharSequence,
    ContactClass,
    ElementarySegment,
    JndFamily,
    NewtonDiagram,
    PuiseuxSeries,
    RecoveryData,
    Semigroup,
    jnd_formula,
)

S = Semigroup((4, 6, 13))

#: class -> (build a fixture, build a different value, its str, its repr);
#: None stands for object's default text, which names the class and an address
VALUES = {
    CharSequence: (
        lambda: CharSequence((4, 6, 7)),
        lambda: CharSequence((4, 6, 9)),
        "(4; 6, 7)",
        "CharSequence((4, 6, 7))",
    ),
    Semigroup: (
        lambda: Semigroup((4, 6, 13)),
        lambda: Semigroup((4, 6, 15)),
        "<4, 6, 13>",
        "Semigroup((4, 6, 13))",
    ),
    ElementarySegment: (
        lambda: ElementarySegment(Fraction(13, 2), 3),
        lambda: ElementarySegment(13, 3),
        "{13/2\\3}",
        "ElementarySegment({13/2\\3})",
    ),
    NewtonDiagram: (
        lambda: NewtonDiagram([(8, 2), (13, 3)], (1, 0)),
        lambda: NewtonDiagram([(8, 2), (13, 3)]),
        "{1\\inf} + {8\\2} + {13\\3}",
        "NewtonDiagram({1\\inf} + {8\\2} + {13\\3})",
    ),
    JndFamily: (
        lambda: JndFamily(Semigroup((4, 6, 13)), [jnd_formula(S, 0), jnd_formula(S, 1)]),
        lambda: JndFamily(Semigroup((4, 6, 13)), [jnd_formula(S, 1), jnd_formula(S, 0)]),
        "semigroup <4, 6, 13>\nk=0: {8\\2} + {13\\3}\nk=1: {28\\14}",
        None,
    ),
    RecoveryData: (
        lambda: RecoveryData(Semigroup((4, 6, 13)), ["multiplicity 4", "certified"]),
        lambda: RecoveryData(Semigroup((4, 6, 13)), ["certified"]),
        None,
        None,
    ),
    PuiseuxSeries: (
        lambda: PuiseuxSeries([(Fraction(7, 4), 0.5), (Fraction(3, 2), 1.0)], 3),
        lambda: PuiseuxSeries([(Fraction(3, 2), 1.0)], 3),
        "1*x^(3/2) + 0.5*x^(7/4) + O(x^3)",
        "PuiseuxSeries(1*x^(3/2) + 0.5*x^(7/4) + O(x^3))",
    ),
    ContactClass: (
        lambda: ContactClass(1, Fraction(7, 4), [PuiseuxSeries([], 2)], 0, 13, 3),
        lambda: ContactClass(1, Fraction(7, 4), [], 0, 13, 3),
        "ContactClass(contact 7/4, roots=1, x_power=0, f=13, fk=3)",
        "ContactClass(contact 7/4, roots=1, x_power=0, f=13, fk=3)",
    ),
}

CLASSES = list(VALUES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_values_are_immutable(cls):
    value = VALUES[cls][0]()
    message = f"^{cls.__name__} is immutable$"
    # every class of the MRO, so inherited slots such as gcds are swept too
    slots = [name for base in cls.__mro__ for name in getattr(base, "__slots__", ())]
    for name in (*slots, "anything_new"):
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_values_compare_and_hash_alike(cls):
    make, make_other, _, _ = VALUES[cls]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b, make_other()}) == 2
    assert a != make_other()
    assert a != object() and a != None  # noqa: E711


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_values_copy_and_pickle(cls):
    value = VALUES[cls][0]()
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls
        assert twin == value and hash(twin) == hash(value)
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            setattr(twin, cls.__slots__[0], None)


@pytest.mark.parametrize("cls", [CharSequence, Semigroup], ids=lambda c: c.__name__)
def test_n_factors_survive_copy_and_pickle(cls):
    value = VALUES[cls][0]()
    assert value.n_factors == (2, 2)
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin.n_factors == value.n_factors and twin.gcds == value.gcds
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is immutable$"):
            twin.n_factors = (1,)


@pytest.mark.parametrize(
    "value",
    [
        ElementarySegment(13, 3),
        ElementarySegment(Fraction(13, 2), "3/4"),
        NewtonDiagram([(8, 2), (13, 3)], (1, 0)),
        NewtonDiagram([("7/2", 2), (13, Fraction(1, 3))], (Fraction(1, 2), "2/4")),
    ],
    ids=["int segment", "rational segment", "int diagram", "rational diagram"],
)
def test_sides_keep_their_types_through_copy_and_pickle(value):
    def sides(v):
        segs = v.segments if isinstance(v, NewtonDiagram) else (v,)
        out = [(s.length, s.height, s.inclination) for s in segs]
        return out + [v.shift] if isinstance(v, NewtonDiagram) else out

    def types(v):
        return [tuple(map(type, entry)) for entry in sides(v)]

    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert twin == value and hash(twin) == hash(value)
        assert sides(twin) == sides(value) and types(twin) == types(value)


def test_types_must_match_exactly():
    assert CharSequence((2, 3)) != Semigroup((2, 3))
    assert Semigroup((2, 3)) != CharSequence((2, 3))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_text_is_unchanged(cls):
    make, _, text, rep = VALUES[cls]
    value = make()
    default = rf"<{re.escape(cls.__module__)}\.{cls.__name__} object at 0x[0-9a-f]+>"
    assert re.fullmatch(default, repr(value)) if rep is None else repr(value) == rep
    assert re.fullmatch(default, str(value)) if text is None else str(value) == text
