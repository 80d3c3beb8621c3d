"""
Semigroup and approximate roots of a branch
===========================================

Starting from a Weierstrass polynomial, read off the numerical data that
pins down its topological type, then rebuild an equation with the same
data from scratch.
"""

from planebranch import (
    build_test_branch,
    characteristic_roots,
    milnor_number,
    parse_poly,
    semigroup_of,
    semigroup_to_char,
)

# the running example: a genus 2 branch
f = parse_poly("(y^2-x^3)^2-x^5*y")
print("f =", f)

# the semigroup of intersection multiplicities and the equivalent
# characteristic sequence
s = semigroup_of(f)
print("semigroup:", s)
print("characteristic:", semigroup_to_char(s))
print("gcd levels:", s.gcds, " ramification steps:", s.n_factors)

# the Milnor number two ways: resultant of the partial derivatives,
# and the conductor formula from the semigroup
print("milnor via resultants:", milnor_number(f))
print("milnor via semigroup: ", s.milnor())

# the characteristic approximate roots: one curve of maximal contact
# for every gcd level above 1
for k, root in enumerate(characteristic_roots(f)):
    print(f"approximate root k={k}:", root)

# any valid semigroup can be realised by a staged deformation tower;
# the equation it returns is certified by recomputing its semigroup
target = semigroup_of(parse_poly("(y^3-x^4)^2-x^7*y"))
print("\nrebuilding a branch for", target)
g = build_test_branch(target)
print("g =", g)
print("check:", semigroup_of(g))
