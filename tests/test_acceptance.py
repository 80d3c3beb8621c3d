"""Acceptance gate: one numbered pass/fail line per criterion.

The lines are echoed in the terminal summary after the run (see
conftest).  Every check is exact (integers and rationals); the numeric
engine's internal tolerances never reach the asserted values.
"""

import random
from fractions import Fraction

import conftest

from planebranch import (
    BiPoly,
    CharSequence,
    ElementarySegment,
    NewtonDiagram,
    Semigroup,
    build_test_branch,
    characteristic_roots,
    contact,
    diagram_difference,
    intersection_multiplicity,
    jacobian_det,
    jnd_family,
    jnd_formula,
    jnd_oracle,
    milnor_from_semigroup,
    milnor_number,
    parse_poly,
    random_semigroup,
    random_test_branch,
    recover_semigroup,
    root_contacts,
    semigroup_of,
    semigroup_to_char,
    verify_decomposition,
)
from planebranch.fixtures import BRANCH_4_6_13, BRANCH_6_8_27, BRANCH_6_8_27_VARIANT
from planebranch.poly import _resultant_intersection

E = ElementarySegment
D = NewtonDiagram


def _report(number, text, problems):
    status = "PASS" if not problems else "FAIL"
    line = f"criterion {number}: {status} - {text}"
    if problems:
        line += " (" + "; ".join(problems) + ")"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert not problems, line


def test_end_to_end_4_6_13():
    problems = []
    f = parse_poly("(y^2-x^3)^2-x^5*y")
    s = semigroup_of(f)
    if s != Semigroup((4, 6, 13)):
        problems.append(f"semigroup {s}")
    roots = characteristic_roots(f)
    if roots != [parse_poly("y"), parse_poly("y^2-x^3")]:
        problems.append(f"roots {roots}")
    if jnd_formula(s, 0) != D([E(8, 2), E(13, 3)]):
        problems.append("formula k=0")
    if jnd_formula(s, 1) != D([E(28, 14)]):
        problems.append("formula k=1")
    for k in (0, 1):
        if jnd_oracle(f, k) != jnd_formula(s, k):
            problems.append(f"oracle k={k}")
    _report(1, "end-to-end on (y^2-x^3)^2-x^5*y, formula = oracle exactly", problems)


def test_characteristic_and_contacts_6_8_27():
    problems = []
    f = parse_poly("(y^3-6*x^3*y-x^4)^2-9*x^9")
    s = semigroup_of(f)
    if s != Semigroup((6, 8, 27)):
        problems.append(f"semigroup {s}")
    if semigroup_to_char(s) != CharSequence((6, 8, 11)):
        problems.append(f"characteristic {semigroup_to_char(s)}")
    roots = characteristic_roots(f)
    if roots[1] != parse_poly("y^3-6*x^3*y-x^4"):
        problems.append(f"first root {roots[1]}")
    if contact(f, roots[0]) != Fraction(8, 6):
        problems.append(f"contact with k=0 root: {contact(f, roots[0])}")
    if contact(f, roots[1]) != Fraction(11, 6):
        problems.append(f"contact with k=1 root: {contact(f, roots[1])}")
    _report(2, "characteristic (6,8,11) and exact contacts 8/6, 11/6", problems)


def test_family_collisions():
    problems = []
    groups = [
        ((4, 14, 31), (4, 6, 35), D([E(72, 36)])),
        ((4, 6, 37), (6, 10, 31), D([E(76, 38)])),
    ]
    semigroups = []
    for a, b, shared in groups:
        for gens in (a, b):
            semigroups.append(Semigroup(gens))
            if jnd_formula(Semigroup(gens), 1) != shared:
                problems.append(f"top diagram of {gens}")
    families = [jnd_family(s) for s in semigroups]
    for i in range(len(families)):
        for j in range(i + 1, len(families)):
            if list(families[i].diagrams) == list(families[j].diagrams):
                problems.append(f"families {i} and {j} coincide")
    _report(3, "two top-diagram collisions, four pairwise distinct families", problems)


def test_difference_identity():
    problems = []
    lhs = D([E(12, 3), E(26, 6)])
    rhs = D([E(4, 1), E(13, 3)])
    expected = D([E(8, 2), E(13, 3)])
    if diagram_difference(lhs, rhs) != expected:
        problems.append(f"difference gave {diagram_difference(lhs, rhs)}")
    if lhs - rhs != expected:
        problems.append("operator route disagrees")
    _report(4, "({12\\3}+{26\\6}) - ({4\\1}+{13\\3}) = {8\\2}+{13\\3}", problems)


def test_jacobian_pairing_identity_on_fixtures():
    problems = []
    branch_8_12_26_53 = build_test_branch(Semigroup((8, 12, 26, 53)))
    fixtures = [
        BRANCH_4_6_13,
        BRANCH_6_8_27,
        BRANCH_6_8_27_VARIANT,
        branch_8_12_26_53,
    ]
    # an x^(mu+2)*y tail keeps the semigroup but spreads the resultants'
    # Z[x] coefficients over x-degrees in the hundreds and thousands
    for f in (BRANCH_4_6_13, BRANCH_6_8_27, branch_8_12_26_53):
        mu = milnor_from_semigroup(semigroup_of(f))
        fixtures.append(f + BiPoly.monomial(1, mu + 2, 1))
    for f in fixtures:
        s = semigroup_of(f)
        roots = characteristic_roots(f)
        for k, fk in enumerate(roots):
            # independent routes for each ingredient
            mu_resultant = milnor_number(fk) if fk.deg_y() > 1 else 0
            mu_semigroup = milnor_from_semigroup(semigroup_of(fk))
            if mu_resultant != mu_semigroup:
                problems.append(f"mu mismatch {s} k={k}")
            pairing = intersection_multiplicity(f, fk)
            if pairing != s.generators[k + 1]:
                problems.append(f"(f, root) mismatch {s} k={k}")
            jac = jacobian_det(fk, f)
            lhs = intersection_multiplicity(fk, jac)
            if lhs != mu_semigroup + pairing - 1:
                problems.append(f"identity fails {s} k={k}: {lhs}")
            # the numbers above read a certified branch's expansion; the
            # resultant route is a second, independent exact answer
            if _resultant_intersection(f, fk) != pairing:
                problems.append(f"(f, root) routes disagree {s} k={k}")
            if _resultant_intersection(fk, jac) != lhs:
                problems.append(f"identity routes disagree {s} k={k}")
    _report(5, "jacobian pairing = mu + contact order - 1 on all fixtures, exact", problems)


def test_recovery_roundtrip_bulk():
    problems = []
    rng = random.Random(20260825)
    done = 0
    while done < 1000:
        s = random_semigroup(rng, max_genus=5, max_generator=10**4)
        if s.genus == 0:
            continue
        if recover_semigroup(jnd_family(s)) != s:
            problems.append(f"roundtrip fails for {s}")
            break
        done += 1
    _report(6, "family -> semigroup recovery on 1000 random semigroups", problems)


def test_formula_oracle_bulk():
    problems = []
    rng = random.Random(20260825)
    for trial in range(25):
        f, s = random_test_branch(rng, max_degree=12)
        try:
            report = verify_decomposition(f)
        except Exception as exc:  # any failure is a criterion failure
            problems.append(f"{s}: {exc}")
            continue
        names = [name for name, _, _ in report]
        if not any(name.endswith("class sizes") for name in names):
            problems.append(f"{s}: class size check missing")
        for name, ok, detail in report:
            if not ok:
                problems.append(f"{s}: {name}: {detail}")
    _report(7, "formula = oracle with class counts on 25 generated branches", problems)


def test_residual_contact_report():
    problems = []
    f = BRANCH_6_8_27
    fk = characteristic_roots(f)[1]
    jac = jacobian_det(fk, f)
    if jac != parse_poly("243*x^8*(y^2-2*x^3)"):
        problems.append(f"first jacobian {jac}")
    if root_contacts(f, jac) != [Fraction(4, 3), Fraction(4, 3)]:
        problems.append(f"first contacts {root_contacts(f, jac)}")
    g = BRANCH_6_8_27_VARIANT
    gk = characteristic_roots(g)[1]
    jacg = jacobian_det(gk, g)
    if jacg != parse_poly("x^6*y*(21*y^3-27*x^2*y+8*x^4)"):
        problems.append(f"second jacobian {jacg}")
    if root_contacts(g, jacg) != [Fraction(4, 3), Fraction(4, 3), 1, 1]:
        problems.append(f"second contacts {root_contacts(g, jacg)}")
    # same semigroup, same diagrams, different residual contact pattern
    if semigroup_of(f) != semigroup_of(g):
        problems.append("semigroups differ")
    if jnd_oracle(f, 1) != jnd_oracle(g, 1) or jnd_oracle(f, 1) != D([E(64, 32)]):
        problems.append("oracle diagrams differ")
    _report(8, "residual contacts differ across equisingular pair, diagrams agree", problems)
