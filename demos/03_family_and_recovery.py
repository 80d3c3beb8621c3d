"""
The diagram family: closed formula, recovery, and why one diagram
=================================================================

The family of approximate jacobian Newton diagrams is computed from the
semigroup alone, and the semigroup can be read back from the family.
Distinct semigroups can share a member, but never member 0: member 0 alone
separates every colliding pair, and recovery certifies the other members.
"""

import json

from planebranch import (
    Semigroup,
    jacobian_invariants,
    jnd_family,
    recover_semigroup,
    recovery_data,
)
from planebranch.fixtures import COLLIDING_PAIRS

s = Semigroup((4, 6, 13))
family = jnd_family(s)
print(family)

# the inclinations of each diagram are the jacobian invariants
for k in range(s.genus):
    values = ", ".join(str(v) for v in jacobian_invariants(s, k))
    print(f"invariants k={k}: {values}")

# families serialise to JSON and back
payload = json.dumps(family.to_json_dict())
print("\njson:", payload)

# recovery reads every generator off member 0; the closed formula, run
# forward again, certifies every member
data = recovery_data(family)
print("\nrecovered:", data.semigroup)
print(data.describe())

# two pairs of semigroups whose top diagrams collide
print()
for a, b in COLLIDING_PAIRS:
    fam_a, fam_b = jnd_family(a), jnd_family(b)
    print(f"{a} vs {b}:")
    print("  shared top diagram:", fam_a[a.genus - 1])
    print("  member 0 equal?", fam_a[0] == fam_b[0])
    assert fam_a[0] != fam_b[0]
    assert recover_semigroup(fam_a) == a and recover_semigroup(fam_b) == b
