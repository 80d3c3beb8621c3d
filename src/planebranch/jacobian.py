"""The family of approximate jacobian Newton diagrams of a branch.

For a branch with semigroup generators (v0, ..., vg) and characteristic
approximate roots f_0, ..., f_{g-1}, the jacobian curve of the pair
(f_k, f) has a Newton diagram in the (intersection with f, intersection
with f_k) coordinates.  That diagram is determined by the semigroup alone,
through a closed formula implemented here.  Conversely member 0 alone
determines the semigroup; the inverse map reads it there and certifies it
by running the formula forward over the whole family k = 0..g-1.  The
floating point verification of the formula against actual jacobian curves
lives in the puiseux module.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value, _fill, _is_int
from .branch import Semigroup
from .diagram import ElementarySegment, NewtonDiagram
from .errors import ValidationError, _digit_limit

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


def _check_semigroup(s):
    if not isinstance(s, Semigroup):
        with _digit_limit():  # a refusal may quote a number past the digit limit
            raise ValidationError(f"expected a Semigroup, got {s!r}")
    if s.genus == 0:
        raise ValidationError("a smooth branch has no approximate jacobian diagrams")


def _check_index(s: Semigroup, k: int):
    _check_semigroup(s)
    if not _is_int(k) or not 0 <= k <= s.genus - 1:
        with _digit_limit():
            raise ValidationError(f"diagram index must lie in 0..{s.genus - 1}, got {k!r}")


def jnd_formula(s: Semigroup, k: int) -> NewtonDiagram:
    """Member k of jnd_family(s), the diagram of (k-th approximate root, branch)."""
    _check_index(s, k)
    return jnd_family(s)[k]


def jacobian_invariants(s: Semigroup, k: int) -> tuple:
    """Inclinations of the diagram of index k, strictly increasing.

    These are the polar invariants of the root pair: l_k first, then
    l_{i-1} v_i / v_{k+1} for each deeper characteristic index i.
    """
    return tuple(seg.inclination for seg in jnd_formula(s, k).segments)


def _diagram_tuple(entries, message: str) -> tuple:
    """entries, any iterable of NewtonDiagram objects, as a tuple; a
    ValidationError with the given message for anything else."""
    try:
        it = iter(entries)
    except TypeError as exc:
        raise ValidationError(message) from exc
    out = tuple(it)
    if not all(isinstance(d, NewtonDiagram) for d in out):
        raise ValidationError(message)
    return out


class JndFamily(Value):
    """All approximate jacobian Newton diagrams of one branch, indexed by k."""

    __slots__ = ("semigroup", "diagrams")

    def __init__(self, semigroup: Semigroup, diagrams):
        if not isinstance(semigroup, Semigroup):
            with _digit_limit():
                raise ValidationError(f"expected a Semigroup, got {semigroup!r}")
        diagrams = _diagram_tuple(diagrams, "family diagrams must be NewtonDiagram objects")
        if len(diagrams) != semigroup.genus:
            raise ValidationError(
                f"family of a genus {semigroup.genus} branch needs "
                f"{semigroup.genus} diagrams, got {len(diagrams)}"
            )
        _fill(self, "semigroup", semigroup)
        _fill(self, "diagrams", diagrams)

    def __len__(self):
        return len(self.diagrams)

    def __iter__(self):
        return iter(self.diagrams)

    def __getitem__(self, k):
        return self.diagrams[k]

    def _key(self):
        return self.semigroup, self.diagrams

    def __str__(self):
        lines = [f"semigroup {self.semigroup}"]
        for k, d in enumerate(self.diagrams):
            lines.append(f"k={k}: {d}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        diagrams = []
        for k, d in enumerate(self.diagrams):
            entry = {"k": k, **d.to_json_dict()}
            if not any(d.shift):
                # the closed formula never makes a shift, so its families omit it
                del entry["shift"]
            diagrams.append(entry)
        return {"semigroup": list(self.semigroup.generators), "diagrams": diagrams}


def jnd_family(s: Semigroup) -> JndFamily:
    """The full family of approximate jacobian Newton diagrams of a branch.

    Member k is the diagram of (k-th approximate root, branch), lengths
    intersection numbers with the branch and heights with the root.  With
    w = (mu_k - 1) l_k = sum_(q<=k) (n_q - 1) v_q - v_0, mu_k the root's
    Milnor number, it leads with {l_k H \\ H}, H = w/l_k + v_(k+1)/l_(k+1),
    all of contact below the next characteristic value; each deeper index
    i = k+2..g adds {(n_i - 1) v_i \\ (n_i - 1) v_(k+1)/l_(i-1)}, integral as
    l_(i-1) divides v_(k+1).  At k = -1 the tail is Merle's polar diagram.

    Each side is a sum or product of a checked Semigroup's positive ints and
    the loop makes s.genus members, so no value built here is checked again.
    """
    _check_semigroup(s)
    v, l, n = s.generators, s.gcds, s.n_factors
    w = -v[0]
    diagrams = []
    for k in range(s.genus):
        lead = w // l[k] + v[k + 1] // l[k + 1]
        diagrams.append(NewtonDiagram._of(
            [ElementarySegment._of(l[k] * lead, lead)]
            + [ElementarySegment._of((n[i - 1] - 1) * v[i], (n[i - 1] - 1) * (v[k + 1] // l[i - 1]))
               for i in range(k + 2, s.genus + 1)], 0, 0))
        w += (n[k] - 1) * v[k + 1]
    family = object.__new__(JndFamily)
    _fill(family, "semigroup", s)
    _fill(family, "diagrams", tuple(diagrams))
    return family


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
        if not _is_int(k) or k < 0:
            with _digit_limit():
                raise ValidationError(f"diagram index must be a nonnegative integer, got {k!r}")
        if k in by_k:
            raise ValidationError(f"duplicate diagram index k={k}")
        by_k[k] = NewtonDiagram.from_json_dict(entry)
    g = len(by_k)
    missing = [k for k in range(g) if k not in by_k]
    if missing:
        with _digit_limit():
            raise ValidationError(f"family is truncated: indices 0..{max(by_k)} imply genus "
                                  f"{max(by_k) + 1} but k={missing} are absent")
    diagrams = [by_k[k] for k in range(g)]
    if claimed is not None and claimed.genus != g:
        raise ValidationError(
            f"semigroup {claimed} has genus {claimed.genus} but the family has {g} diagrams"
        )
    return claimed, diagrams


class RecoveryData(Value):
    """Semigroup recovered from a diagram family, with the geometric readings,
    each a line or a str.format template and its values: describe() formats
    them, since a value may be past the digit limit."""

    __slots__ = ("semigroup", "readings")

    def __init__(self, semigroup: Semigroup, readings):
        _fill(self, "semigroup", semigroup)
        _fill(self, "readings", tuple(readings))

    def _key(self):
        return self.semigroup, self.readings

    def describe(self) -> str:
        with _digit_limit():
            return "\n".join(r if isinstance(r, str) else r[0].format(*r[1:])
                             for r in self.readings)


def _quotient(a, b, what: str) -> int:
    """a / b for sides a, b (int or Fraction) that must divide exactly."""
    q, r = divmod(a, b)
    if r:
        with _digit_limit():  # a refusal may quote a number past the digit limit
            raise ValidationError(f"{what} must be an integer, got {Fraction(a, b)}")
    return q


def recovery_data(family) -> RecoveryData:
    """Reconstruct the semigroup from its diagram family and explain how.

    Member 0 alone determines the semigroup.  Its lowest segment is
    {v_0 H \\ H} with H = v_1/l_1 - 1; each later segment i = 2..g is
    {(n_i - 1) v_i \\ (n_i - 1) v_1/l_(i-1)}, so its height gives n_i and
    then its length v_i, and v_1 = (v_1/l_1) n_2 ... n_g.  The closed
    formula, run forward on the result, certifies every member.
    """
    diagrams = _diagram_tuple(family, "recovery expects NewtonDiagram objects")
    if not diagrams:
        raise ValidationError("recovery needs at least one diagram")
    d = diagrams[0]
    if d.shift != (0, 0):
        raise ValidationError("diagram k=0 has a monomial factor; not a jacobian family")
    if not d.segments:
        raise ValidationError("diagram k=0 is empty")
    first, *later = d.segments
    v0 = _quotient(first.length, first.height, "inclination of diagram k=0")
    top = q = _quotient(first.height, 1, "height of segment 1 of diagram k=0") + 1
    gens, readings = [v0], [("multiplicity {} = lowest inclination of diagram k=0", v0)]
    for i, seg in enumerate(later, start=2):
        n = _quotient(seg.height, q, f"height of segment {i} of diagram k=0 over {q}") + 1
        v = _quotient(seg.length, n - 1, f"generator read from segment {i} of diagram k=0")
        gens.append(v)
        readings.append(("generator {} = length of segment {} of diagram k=0 / {}, "
                         "with n_{} = {} = its height / {} + 1", v, i, n - 1, i, n, q))
        q *= n
    gens.insert(1, q)
    readings.insert(1, ("generator {} = (height of segment 1 of diagram k=0 + 1) * {}",
                        q, q // top))
    g = len(gens) - 1
    if len(diagrams) != g:
        raise ValidationError(
            f"diagram k=0 gives genus {g} but the family has {len(diagrams)} diagrams"
        )
    try:
        s = Semigroup(tuple(gens))
    except ValidationError as exc:
        with _digit_limit():
            raise ValidationError(f"recovered values {gens} are not a branch semigroup: "
                                  f"{exc}") from exc
    forward = jnd_family(s)
    for k in range(g):
        if forward.diagrams[k] != diagrams[k]:
            with _digit_limit():
                raise ValidationError(f"diagram k={k} is not the jacobian diagram of {s}: "
                                      f"expected {forward.diagrams[k]}, got {diagrams[k]}")
    readings.append(("certified: closed formula on {} reproduces all {} diagrams", s, g))
    return RecoveryData(s, readings)


def recover_semigroup(family) -> Semigroup:
    """Inverse of jnd_family; raises ValidationError if no branch fits."""
    return recovery_data(family).semigroup
