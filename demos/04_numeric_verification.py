"""
Numeric cross-check of the closed formula
=========================================

Expand Newton-Puiseux roots with certified multiplicities, measure the
diagram from the jacobian roots by its definition, compare it against the
closed formula, and group the jacobian roots by their contact with the
branch.
"""

from planebranch import (
    contact,
    contact_classes,
    jnd_formula,
    jnd_oracle,
    parse_poly,
    puiseux_expand,
    semigroup_of,
    verify_cycle,
    verify_decomposition,
)

f = parse_poly("(y^2-x^3)^2-x^5*y")
s = semigroup_of(f)

# the Puiseux roots of f, correct below the chosen depth
for series in puiseux_expand(f, 3):
    print("root:", series)

# the whole cycle of conjugates is certified in one call
for name, ok, detail in verify_cycle(f):
    print(f"cycle check {name}: {'ok' if ok else 'FAIL'} ({detail})")

# contact orders with the approximate roots are exact rationals
print("\ncontact with y:        ", contact(f, parse_poly("y")))
print("contact with y^2 - x^3:", contact(f, parse_poly("y^2-x^3")))

# jacobian roots grouped by contact, with each group's intersections
print()
for cls in contact_classes(f, k=0):
    where = "residual" if cls.contact is None else f"contact {cls.contact}"
    print(f"class ({where}): {len(cls.roots)} roots, x power {cls.x_power},"
          f" segment {cls.segment()}")

# each jacobian root gamma adds {I(gamma, f) \ I(gamma, f_k)}, and x^a
# adds {a*deg_y f \ a*deg_y f_k}: the sum is the diagram the formula predicts
print("\noracle k=0: ", jnd_oracle(f, 0))
print("formula k=0:", jnd_formula(s, 0))

# and the full battery: formula vs oracle, class counts, contact
# profiles, and the exact totals read off the certified branch
for name, ok, detail in verify_decomposition(f):
    print(f"{'ok ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
