"""The family of approximate jacobian Newton diagrams of a branch.

For a branch with semigroup generators (v0, ..., vg) and characteristic
approximate roots f_0, ..., f_{g-1}, the jacobian curve of the pair
(f_k, f) has a Newton diagram in the (intersection with f, intersection
with f_k) coordinates.  That diagram is determined by the semigroup alone,
through a closed formula implemented here, and conversely the family for
k = 0..g-1 determines the semigroup; the inverse map is also implemented
here.  The floating point verification of the formula against actual
jacobian curves lives in the puiseux module.
"""

from __future__ import annotations

from fractions import Fraction

from .branch import Semigroup, approximate_root_semigroup
from .diagram import ElementarySegment, NewtonDiagram
from .errors import ValidationError

__all__ = [
    "JndFamily",
    "RecoveryData",
    "jnd_formula",
    "jacobian_invariants",
    "jnd_family",
    "recovery_data",
    "recover_semigroup",
    "family_from_json_dict",
]


def _check_index(s: Semigroup, k: int):
    if s.genus == 0:
        raise ValidationError("a smooth branch has no approximate jacobian diagrams")
    if not isinstance(k, int) or not 0 <= k <= s.genus - 1:
        raise ValidationError(f"diagram index must lie in 0..{s.genus - 1}, got {k!r}")


def jnd_formula(s: Semigroup, k: int) -> NewtonDiagram:
    """Jacobian Newton diagram of the pair (k-th approximate root, branch).

    Lengths are intersection numbers with the branch, heights with the
    root.  The leading segment collects everything of contact order below
    the next characteristic value; each deeper characteristic value
    contributes one more segment.
    """
    _check_index(s, k)
    v = s.generators
    l = s.gcds
    n = s.n_factors
    g = s.genus
    m_bar = v[k + 1] // l[k + 1]
    mu_k = approximate_root_semigroup(s, k).milnor()
    lead_height = mu_k + m_bar - 1
    segments = [ElementarySegment(l[k] * lead_height, lead_height)]
    cofactor = m_bar
    for i in range(k + 2, g + 1):
        segments.append(ElementarySegment((n[i - 1] - 1) * v[i], cofactor * (n[i - 1] - 1)))
        cofactor *= n[i - 1]
    return NewtonDiagram(segments)


def jacobian_invariants(s: Semigroup, k: int) -> tuple:
    """Inclinations of the diagram of index k, strictly increasing.

    These are the polar invariants of the root pair: l_k first, then
    l_{i-1} v_i / v_{k+1} for each deeper characteristic index i.
    """
    _check_index(s, k)
    v = s.generators
    l = s.gcds
    out = [Fraction(l[k])]
    for i in range(k + 2, s.genus + 1):
        out.append(Fraction(l[i - 1] * v[i], v[k + 1]))
    return tuple(out)


class JndFamily:
    """All approximate jacobian Newton diagrams of one branch, indexed by k."""

    __slots__ = ("semigroup", "diagrams")

    def __init__(self, semigroup: Semigroup, diagrams):
        diagrams = tuple(diagrams)
        if len(diagrams) != semigroup.genus:
            raise ValidationError(
                f"family of a genus {semigroup.genus} branch needs "
                f"{semigroup.genus} diagrams, got {len(diagrams)}"
            )
        object.__setattr__(self, "semigroup", semigroup)
        object.__setattr__(self, "diagrams", diagrams)

    def __setattr__(self, name, value):
        raise AttributeError("JndFamily is immutable")

    def __len__(self):
        return len(self.diagrams)

    def __iter__(self):
        return iter(self.diagrams)

    def __getitem__(self, k):
        return self.diagrams[k]

    def __eq__(self, other):
        if not isinstance(other, JndFamily):
            return NotImplemented
        return self.semigroup == other.semigroup and self.diagrams == other.diagrams

    def __hash__(self):
        return hash((self.semigroup, self.diagrams))

    def __str__(self):
        lines = [f"semigroup {self.semigroup}"]
        for k, d in enumerate(self.diagrams):
            lines.append(f"k={k}: {d}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        diagrams = []
        for k, d in enumerate(self.diagrams):
            segs = [[int(s.length), int(s.height)] for s in d.segments]
            diagrams.append({"k": k, "segments": segs})
        return {"semigroup": list(self.semigroup.generators), "diagrams": diagrams}


def jnd_family(s: Semigroup) -> JndFamily:
    """The full family of approximate jacobian Newton diagrams of a branch."""
    if s.genus == 0:
        raise ValidationError("a smooth branch has no approximate jacobian diagrams")
    return JndFamily(s, (jnd_formula(s, k) for k in range(s.genus)))


def family_from_json_dict(data):
    """Parse a serialized family; returns (claimed semigroup or None, diagrams).

    The diagram list must carry indices k = 0..g-1 with no gaps, since a
    truncated family does not pin down the branch.
    """
    if not isinstance(data, dict):
        raise ValidationError("family JSON must be an object")
    claimed = None
    if "semigroup" in data:
        gens = data["semigroup"]
        if not isinstance(gens, list):
            raise ValidationError("family semigroup must be a list of generators")
        claimed = Semigroup(tuple(gens))
    raw = data.get("diagrams")
    if not isinstance(raw, list) or not raw:
        raise ValidationError("family JSON needs a nonempty 'diagrams' list")
    by_k = {}
    for entry in raw:
        if not isinstance(entry, dict) or "k" not in entry:
            raise ValidationError("each family entry needs a diagram index 'k'")
        k = entry["k"]
        if not isinstance(k, int) or k < 0:
            raise ValidationError(f"diagram index must be a nonnegative integer, got {k!r}")
        if k in by_k:
            raise ValidationError(f"duplicate diagram index k={k}")
        by_k[k] = NewtonDiagram.from_json_dict({"segments": entry.get("segments", [])})
    g = len(by_k)
    missing = [k for k in range(g) if k not in by_k]
    if missing:
        raise ValidationError(
            f"family is truncated: indices 0..{max(by_k)} imply genus {max(by_k) + 1} "
            f"but k={missing} are absent"
        )
    diagrams = [by_k[k] for k in range(g)]
    if claimed is not None and claimed.genus != g:
        raise ValidationError(
            f"semigroup {claimed} has genus {claimed.genus} but the family has {g} diagrams"
        )
    return claimed, diagrams


class RecoveryData:
    """Semigroup recovered from a diagram family, with the geometric readings."""

    __slots__ = ("semigroup", "readings")

    def __init__(self, semigroup: Semigroup, readings):
        object.__setattr__(self, "semigroup", semigroup)
        object.__setattr__(self, "readings", tuple(readings))

    def __setattr__(self, name, value):
        raise AttributeError("RecoveryData is immutable")

    def describe(self) -> str:
        return "\n".join(self.readings)


def _as_diagrams(family):
    if isinstance(family, JndFamily):
        return list(family.diagrams)
    out = []
    for d in family:
        if not isinstance(d, NewtonDiagram):
            raise ValidationError("recovery expects NewtonDiagram objects")
        out.append(d)
    if not out:
        raise ValidationError("recovery needs at least one diagram")
    return out


def _exact_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ValidationError(f"{what} must be an integer, got {value}")
    return int(value)


def recovery_data(family) -> RecoveryData:
    """Reconstruct the semigroup from its diagram family and explain how.

    The last diagram is a single segment whose inclination is the last
    gcd level; heights of the final segments of the earlier diagrams then
    release the generators one by one.  The result is certified by running
    the closed formula forward and comparing every diagram.
    """
    diagrams = _as_diagrams(family)
    g = len(diagrams)
    readings = []
    for k, d in enumerate(diagrams):
        if d.shift != (Fraction(0), Fraction(0)):
            raise ValidationError(f"diagram k={k} has a monomial factor; not a jacobian family")
        if not d.segments:
            raise ValidationError(f"diagram k={k} is empty")
    last = diagrams[g - 1]
    if len(last.segments) != 1:
        raise ValidationError(
            f"diagram k={g - 1} must be a single segment, found {len(last.segments)}"
        )
    iota = last.segments[0].inclination
    iota_int = _exact_int(iota, f"inclination of diagram k={g - 1}")
    if iota_int < 2:
        raise ValidationError(f"inclination of the last diagram must be >= 2, got {iota_int}")
    if g == 1:
        height = last.segments[0].height
        v1 = _exact_int(height + 1, "second generator")
        gens = [iota_int, v1]
        readings.append(f"multiplicity {iota_int} = inclination of the only diagram")
        readings.append(f"generator {v1} = height of the only diagram + 1")
    else:
        v0 = diagrams[0].segments[0].inclination
        v0_int = _exact_int(v0, "lowest inclination of diagram k=0")
        gens = [v0_int]
        readings.append(f"multiplicity {v0_int} = lowest inclination of diagram k=0")
        readings.append(f"last gcd level {iota_int} = inclination of diagram k={g - 1}")
        for r in range(g - 1):
            h = diagrams[r].segments[-1].height
            v = _exact_int(h * iota_int / (iota_int - 1), f"generator read from diagram k={r}")
            gens.append(v)
            readings.append(
                f"generator {v} = {iota_int}/{iota_int - 1} * final height of diagram k={r}"
            )
        tail = diagrams[g - 2].segments[-1].length
        v_g = _exact_int(tail / (iota_int - 1), "last generator")
        gens.append(v_g)
        readings.append(
            f"generator {v_g} = final length of diagram k={g - 2} / {iota_int - 1}"
        )
    try:
        s = Semigroup(tuple(gens))
    except ValidationError as exc:
        raise ValidationError(f"recovered values {gens} are not a branch semigroup: {exc}") from exc
    forward = jnd_family(s)
    for k in range(g):
        if forward.diagrams[k] != diagrams[k]:
            raise ValidationError(
                f"diagram k={k} is not the jacobian diagram of {s}: "
                f"expected {forward.diagrams[k]}, got {diagrams[k]}"
            )
    readings.append(f"certified: closed formula on {s} reproduces all {g} diagrams")
    return RecoveryData(s, readings)


def recover_semigroup(family) -> Semigroup:
    """Inverse of jnd_family; raises ValidationError if no branch fits."""
    return recovery_data(family).semigroup
