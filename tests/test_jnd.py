"""Closed formula for the diagram family, invariants, recovery."""

import json
import math
import random
from fractions import Fraction

import pytest

from oracles import jnd_by_fractions, polar_invariants
from planebranch import (
    ElementarySegment,
    JndFamily,
    NewtonDiagram,
    Semigroup,
    ValidationError,
    approximate_root_semigroup,
    family_from_json_dict,
    jacobian_invariants,
    jnd_family,
    jnd_formula,
    milnor_from_semigroup,
    random_semigroup,
    recover_semigroup,
    recovery_data,
)
import planebranch.cli as cli
import planebranch.jacobian as jacobian
from planebranch.fixtures import COLLIDING_PAIRS

E = ElementarySegment
D = NewtonDiagram


def test_formula_frozen_families():
    s = Semigroup((4, 6, 13))
    assert jnd_formula(s, 0) == D([E(8, 2), E(13, 3)])
    assert jnd_formula(s, 1) == D([E(28, 14)])
    t = Semigroup((6, 8, 27))
    assert jnd_formula(t, 0) == D([E(18, 3), E(27, 4)])
    assert jnd_formula(t, 1) == D([E(64, 32)])


def test_formula_collisions():
    assert jnd_formula(Semigroup((4, 14, 31)), 1) == D([E(72, 36)])
    assert jnd_formula(Semigroup((4, 6, 35)), 1) == D([E(72, 36)])
    assert jnd_formula(Semigroup((4, 6, 37)), 1) == D([E(76, 38)])
    assert jnd_formula(Semigroup((6, 10, 31)), 1) == D([E(76, 38)])
    # no member but member 0 is complete: these pairs share member 1, resp. 2
    assert jnd_formula(Semigroup((4, 6, 23)), 1) == jnd_formula(Semigroup((4, 10, 21)), 1)
    assert (jnd_formula(Semigroup((8, 12, 26, 63)), 2)
            == jnd_formula(Semigroup((8, 12, 30, 61)), 2))


def test_formula_rejects_bad_index():
    s = Semigroup((4, 6, 13))
    with pytest.raises(ValidationError):
        jnd_formula(s, 2)
    with pytest.raises(ValidationError):
        jnd_formula(s, -1)
    with pytest.raises(ValidationError):
        jnd_family(Semigroup((1,)))


def test_boolean_index_is_rejected():
    s = Semigroup((4, 6, 13))
    with pytest.raises(ValidationError, match="got True"):
        jnd_formula(s, True)
    with pytest.raises(ValidationError, match="got False"):
        jacobian_invariants(s, False)
    diagrams = jnd_family(s).to_json_dict()["diagrams"]
    payload = {"diagrams": [dict(diagrams[1], k=True), diagrams[0]]}
    with pytest.raises(ValidationError, match="got True"):
        family_from_json_dict(payload)


def test_invariants_frozen():
    assert jacobian_invariants(Semigroup((4, 6, 13)), 0) == (4, Fraction(13, 3))
    assert jacobian_invariants(Semigroup((4, 6, 13)), 1) == (2,)
    assert jacobian_invariants(Semigroup((6, 8, 27)), 0) == (6, Fraction(27, 4))


def test_invariants_are_the_formula_inclinations(rng):
    # the diagram's inclinations against the polar invariants written
    # straight from the generators in tests/oracles.py
    for _ in range(300):
        s = random_semigroup(rng)
        if s.genus == 0:
            continue
        for k in range(s.genus):
            expected = polar_invariants(s.generators, k)
            d = jnd_formula(s, k)
            assert tuple(seg.inclination for seg in d.segments) == expected
            assert jacobian_invariants(s, k) == expected


def test_invariants_strictly_increase(rng):
    for _ in range(300):
        s = random_semigroup(rng)
        for k in range(s.genus):
            values = jacobian_invariants(s, k)
            assert all(a < b for a, b in zip(values, values[1:]))
            assert values[0] == s.gcds[k]


def test_diagram_totals_match_milnor_identities(rng):
    for _ in range(200):
        s = random_semigroup(rng)
        v = s.generators
        mu = milnor_from_semigroup(s)
        for k in range(s.genus):
            d = jnd_formula(s, k)
            mu_k = milnor_from_semigroup(approximate_root_semigroup(s, k))
            assert d.total_height() == mu_k + v[k + 1] - 1
            assert d.total_length() == mu + v[k + 1] - 1


def test_family_json_roundtrip_and_determinism():
    fam = jnd_family(Semigroup((4, 6, 13)))
    data = fam.to_json_dict()
    assert data == {
        "semigroup": [4, 6, 13],
        "diagrams": [
            {"k": 0, "segments": [[8, 2], [13, 3]]},
            {"k": 1, "segments": [[28, 14]]},
        ],
    }
    assert json.dumps(data) == json.dumps(jnd_family(Semigroup((4, 6, 13))).to_json_dict())
    claimed, diagrams = family_from_json_dict(data)
    assert claimed == Semigroup((4, 6, 13))
    assert diagrams == list(fam.diagrams)


def test_family_json_keeps_rational_segments():
    fam = JndFamily(Semigroup((2, 3)), [D([E(Fraction(5, 2), 1)])])
    data = json.loads(json.dumps(fam.to_json_dict()))
    assert data["diagrams"] == [{"k": 0, "segments": [["5/2", 1]]}]
    claimed, diagrams = family_from_json_dict(data)
    assert claimed == fam.semigroup and diagrams == list(fam.diagrams)


def test_family_json_keeps_shift():
    fam = JndFamily(Semigroup((2, 3)), [D([E(1, 1)], (1, 0))])
    data = json.loads(json.dumps(fam.to_json_dict()))
    assert data["diagrams"] == [{"k": 0, "shift": [1, 0], "segments": [[1, 1]]}]
    claimed, diagrams = family_from_json_dict(data)
    assert claimed == fam.semigroup and diagrams == list(fam.diagrams)
    assert str(diagrams[0]) == "{1\\inf} + {1\\1}"
    # the monomial factor survives, so recovery names it instead of the inclination
    with pytest.raises(ValidationError, match="monomial factor"):
        recovery_data(diagrams)


def test_family_json_rejects_partial_or_mismatched():
    fam = jnd_family(Semigroup((4, 6, 13))).to_json_dict()
    with pytest.raises(ValidationError, match="truncat"):
        family_from_json_dict({"semigroup": [4, 6, 13], "diagrams": fam["diagrams"][1:]})
    with pytest.raises(ValidationError):
        family_from_json_dict({"semigroup": [4, 6, 13], "diagrams": []})
    wrong_genus = {"semigroup": [2, 3], "diagrams": fam["diagrams"]}
    with pytest.raises(ValidationError):
        family_from_json_dict(wrong_genus)
    dup = {"diagrams": [fam["diagrams"][0], fam["diagrams"][0]]}
    with pytest.raises(ValidationError):
        family_from_json_dict(dup)


# the errors of reading and recovering a family, as the JSON that `recover`
# reads; None stands for a JndFamily built with too few diagrams
_RECOVERY_ERRORS = [
    ([], "family JSON must be an object"),
    ({"semigroup": "4,6,13", "diagrams": []}, "family semigroup must be a list of generators"),
    ({"diagrams": [{"segments": [[8, 2]]}]}, "each family entry needs a diagram index 'k'"),
    ({"diagrams": [{"k": 0, "segments": [[5, 2]]}]},
     "inclination of diagram k=0 must be an integer, got 5/2"),
    ({"diagrams": [{"k": 0, "segments": []}]}, "diagram k=0 is empty"),
    ({"diagrams": [{"k": 0, "segments": [[8, 2], [13, 3]]}]},
     "diagram k=0 gives genus 2 but the family has 1 diagrams"),
    ({"diagrams": [{"k": 0, "segments": [[1, 1]]}]},
     "recovered values [1, 2] are not a branch semigroup: "
     "gcd chain must decrease strictly, got (1, 1)"),
    ({"diagrams": [{"k": 0, "segments": [[8, 2], [13, 3]]},
                   {"k": 1, "segments": [[28, 14], [1, 1]]}]},
     "diagram k=1 is not the jacobian diagram of <4, 6, 13>: "
     "expected {28\\14}, got {1\\1} + {28\\14}"),
    (None, "family of a genus 2 branch needs 2 diagrams, got 1"),
]


@pytest.mark.parametrize("data, message", _RECOVERY_ERRORS)
def test_recovery_validation_errors(data, message, tmp_path, capsys):
    with pytest.raises(ValidationError) as exc:
        if data is None:
            JndFamily(Semigroup((4, 6, 13)), [D([E(8, 2)])])
        else:
            recovery_data(family_from_json_dict(data)[1])
    assert str(exc.value) == message
    if data is not None:
        path = tmp_path / "family.json"
        path.write_text(json.dumps(data))
        assert cli.main(["recover", "--family", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_recovery_frozen():
    fam = jnd_family(Semigroup((4, 6, 13)))
    assert recover_semigroup(fam) == Semigroup((4, 6, 13))
    data = recovery_data(fam)
    assert data.semigroup == Semigroup((4, 6, 13))
    assert "multiplicity 4" in data.describe()
    assert recover_semigroup(jnd_family(Semigroup((2, 3)))) == Semigroup((2, 3))


def test_recovery_of_bare_top_diagram():
    # a single {72\36} is a complete genus-1 family in its own right
    assert recover_semigroup([D([E(72, 36)])]) == Semigroup((2, 37))


def test_recovery_certifies_against_forward_formula():
    fam = jnd_family(Semigroup((4, 6, 13)))
    tampered = [fam.diagrams[0], D([E(30, 15)])]
    with pytest.raises(ValidationError):
        recover_semigroup(tampered)
    for empty in ([], JndFamily(Semigroup((1,)), ())):
        with pytest.raises(ValidationError):
            recover_semigroup(empty)


def test_recovery_refusals_past_the_digit_limit(digit_limit):
    big = 10 ** (digit_limit + 100)
    message = f"^cannot print a number of more than {digit_limit} digits$"
    # an inclination that is no integer, and a member the formula contradicts
    for family in ([D([E(big + 1, 2)])],
                   [jnd_family(Semigroup((4, 6, 13)))[0], D([E(big, 1)])]):
        with pytest.raises(ValidationError, match=message):
            recovery_data(family)


@pytest.mark.parametrize("call", [
    lambda: jnd_formula(Semigroup((4, 6, 13)), 10**4400),
    lambda: jnd_formula(10**4400, 0),
    lambda: JndFamily(10**4400, []),
    lambda: recovery_data([NewtonDiagram([(6 * 10**4400, 3)])]),
    lambda: family_from_json_dict({"diagrams": [{"k": -10**4400}]}),
    lambda: family_from_json_dict({"diagrams": [
        {**jnd_family(Semigroup((4, 6, 13))).to_json_dict()["diagrams"][0], "k": 10**4400}]}),
], ids=["diagram index", "no semigroup", "family of no semigroup", "recovered values",
        "negative family index", "truncated family"])
def test_formula_and_recovery_refusals_past_the_digit_limit(digit_limit, call):
    with pytest.raises(ValidationError,
                       match=f"^cannot print a number of more than {digit_limit} digits$"):
        call()


def test_a_family_past_the_digit_limit_recovers_and_refuses_only_to_print(digit_limit):
    # the readings quote v_1, one digit past the limit, and are formatted
    # only when described
    s = Semigroup((2, 10**4400 + 1))
    data = recovery_data(jnd_family(s))
    assert data.semigroup == s
    with pytest.raises(ValidationError,
                       match=f"^cannot print a number of more than {digit_limit} digits$"):
        data.describe()


def test_recovery_roundtrip(rng):
    for _ in range(300):
        s = random_semigroup(rng)
        if s.genus == 0:
            continue
        assert recover_semigroup(jnd_family(s)) == s


def _semigroups(max_v0, max_v, max_genus):
    """Every semigroup of genus 1..max_genus with v_0 <= max_v0 and every
    v_i <= max_v: each generator lowers the gcd and clears n_q v_q."""
    def extend(gens, gcds):
        if gcds[-1] == 1:
            yield tuple(gens)
        elif len(gens) <= max_genus:
            n = gcds[-2] // gcds[-1] if len(gcds) > 1 else 1
            for v in range(n * gens[-1] + 1, max_v + 1):
                if math.gcd(gcds[-1], v) < gcds[-1]:
                    yield from extend(gens + [v], gcds + [math.gcd(gcds[-1], v)])

    for v0 in range(2, max_v0 + 1):
        yield from extend([v0], [v0])


def test_member_zero_determines_the_semigroup():
    seen = {}
    for gens in _semigroups(16, 200, 3):
        s = Semigroup(gens)
        fam = jnd_family(s)
        assert seen.setdefault(fam[0], s) == s
        assert recovery_data(fam).semigroup == s
    assert len(seen) == 13583


def test_family_container():
    fam = jnd_family(Semigroup((4, 6, 13)))
    assert len(fam) == 2
    assert fam[0] == jnd_formula(Semigroup((4, 6, 13)), 0)
    assert list(fam) == list(fam.diagrams)
    assert "k=0" in str(fam) and "semigroup <4, 6, 13>" in str(fam)


def _stored(value):
    """A finite side or shift as the diagram layer stores it: an int when
    integral, a Fraction otherwise."""
    return type(value) is (int if value.denominator == 1 else Fraction)


def _json_number(value):
    return value.numerator if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def test_family_matches_the_fraction_reference():
    # text, JSON and recovery of the closed formula against the formula
    # written in Fractions in tests/oracles.py
    rng = random.Random(1)
    for _ in range(1000):
        s = random_semigroup(rng, max_genus=5, max_generator=10**4)
        gens = s.generators
        ref = [jnd_by_fractions(gens, k) for k in range(s.genus)]
        text = [f"semigroup <{', '.join(map(str, gens))}>"]
        text += [f"k={k}: " + " + ".join(f"{{{a}\\{b}}}" for a, b in segs)
                 for k, segs in enumerate(ref)]
        data = {"semigroup": list(gens),
                "diagrams": [{"k": k, "segments": [[_json_number(a), _json_number(b)]
                                                   for a, b in segs]}
                             for k, segs in enumerate(ref)]}
        fam = jnd_family(s)
        assert str(fam) == "\n".join(text)
        assert json.dumps(fam.to_json_dict()) == json.dumps(data)
        _, parsed = family_from_json_dict(json.loads(json.dumps(data)))
        assert recover_semigroup(parsed) == s
        for d in (*fam, *parsed, *(d.scaled(Fraction(1, 3)) for d in fam)):
            assert all(_stored(c) for c in d.shift)
            for seg in d.segments:
                assert _stored(seg.length) and _stored(seg.height)
                assert type(seg.inclination) is Fraction


def test_family_is_one_loop(monkeypatch):
    # the family reads no member through the per-index entry point
    def refused(*args):
        raise AssertionError(f"per-index call {args}")

    monkeypatch.setattr(jacobian, "jnd_formula", refused)
    monkeypatch.setattr(jacobian, "_check_index", refused)
    gens = (32, 48, 132, 538, 1077)
    fam = jnd_family(Semigroup(gens))
    assert [[(seg.length, seg.height) for seg in d.segments] for d in fam] == [
        jnd_by_fractions(gens, k) for k in range(4)]


def test_the_unchecked_family_equals_the_checked_one():
    # jnd_family builds its segments and its family with no check; every
    # member rebuilt through the public constructors is the same value
    rng = random.Random(37)
    semigroups = [random_semigroup(rng, max_genus=5, max_generator=10**4, genus=1 + i % 5)
                  for i in range(1000)]
    semigroups += [s for pair in COLLIDING_PAIRS for s in pair]
    for s in semigroups:
        fam = jnd_family(s)
        for d in fam:
            twin = NewtonDiagram.from_json_dict(d.to_json_dict())
            assert twin == d and hash(twin) == hash(d)
            assert type(d.shift[0]) is int and type(d.shift[1]) is int
            assert all(type(seg.length) is int and type(seg.height) is int
                       for seg in d.segments)
        assert JndFamily(s, fam.diagrams) == fam
        assert hash(JndFamily(s, fam.diagrams)) == hash(fam)


def test_malformed_family_arguments_are_typed_errors():
    cases = [
        (lambda: jnd_formula((2, 3), 0), "expected a Semigroup, got (2, 3)"),
        (lambda: jacobian_invariants([2, 3], 0), "expected a Semigroup, got [2, 3]"),
        (lambda: jnd_family([4, 6, 13]), "expected a Semigroup, got [4, 6, 13]"),
        (lambda: JndFamily((2, 3), []), "expected a Semigroup, got (2, 3)"),
        (lambda: JndFamily(Semigroup((4, 6, 13)), 5),
         "family diagrams must be NewtonDiagram objects"),
        (lambda: JndFamily(Semigroup((2, 3)), [[(1, 1)]]),
         "family diagrams must be NewtonDiagram objects"),
        (lambda: recovery_data(5), "recovery expects NewtonDiagram objects"),
        (lambda: recovery_data([[(28, 14)]]), "recovery expects NewtonDiagram objects"),
    ]
    for call, message in cases:
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == message
