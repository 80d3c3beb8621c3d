"""Numerical invariants of an irreducible plane curve germ.

The two coordinate systems for the same data are the characteristic
exponents of a Puiseux parametrization and the minimal generators of the
semigroup of intersection orders.  Both get a validated wrapper here,
together with the conversion in each direction, approximate roots of a
Weierstrass polynomial, and the iteration that reads the semigroup off a
defining equation through its approximate roots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, prod

from .errors import ValidationError
from .poly import BiPoly, intersection_multiplicity

__all__ = [
    "CharSequence",
    "Semigroup",
    "char_to_semigroup",
    "semigroup_to_char",
    "milnor_from_semigroup",
    "approximate_root_semigroup",
    "approximate_root",
    "characteristic_roots",
    "semigroup_of",
    "build_test_branch",
    "random_semigroup",
    "random_test_branch",
]


def _gcd_chain(values) -> tuple:
    chain = [values[0]]
    for v in values[1:]:
        chain.append(gcd(chain[-1], v))
    return tuple(chain)


def _check_positive_ints(values, what: str) -> tuple:
    out = []
    for v in values:
        if isinstance(v, Fraction):
            if v.denominator != 1:
                raise ValidationError(f"{what} must be integers, got {v}")
            v = int(v)
        if not isinstance(v, int) or isinstance(v, bool):
            raise ValidationError(f"{what} must be integers, got {v!r}")
        if v <= 0:
            raise ValidationError(f"{what} must be positive, got {v}")
        out.append(v)
    if not out:
        raise ValidationError(f"{what} must be nonempty")
    return tuple(out)


class CharSequence:
    """Characteristic exponents (b0; b1, ..., bg) of a branch.

    b0 is the multiplicity, the rest are the exponents b/b0 at which the
    ramification of a Puiseux root drops.  The gcd chain must decrease
    strictly and reach 1.
    """

    __slots__ = ("exponents", "gcds")

    def __init__(self, exponents):
        exponents = _check_positive_ints(exponents, "characteristic exponents")
        chain = _gcd_chain(exponents)
        if chain[-1] != 1:
            raise ValidationError(f"gcd chain must end at 1, got {chain}")
        for prev, cur in zip(exponents, exponents[1:]):
            if cur <= prev:
                raise ValidationError(f"exponents must increase strictly: {prev} !< {cur}")
        for prev, cur in zip(chain, chain[1:]):
            if cur >= prev:
                raise ValidationError(f"gcd chain must decrease strictly, got {chain}")
        if len(exponents) == 1 and exponents[0] != 1:
            raise ValidationError("a sequence without further exponents must be (1)")
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "gcds", chain)

    def __setattr__(self, name, value):
        raise AttributeError("CharSequence is immutable")

    @property
    def multiplicity(self) -> int:
        return self.exponents[0]

    @property
    def genus(self) -> int:
        return len(self.exponents) - 1

    @property
    def n_factors(self) -> tuple:
        """Ramification drops n_q = l_{q-1} / l_q, one per exponent past b0."""
        return tuple(a // b for a, b in zip(self.gcds, self.gcds[1:]))

    def __eq__(self, other):
        if not isinstance(other, CharSequence):
            return NotImplemented
        return self.exponents == other.exponents

    def __hash__(self):
        return hash(("char", self.exponents))

    def __str__(self):
        if self.genus == 0:
            return "(1)"
        head, *rest = self.exponents
        return f"({head}; {', '.join(map(str, rest))})"

    def __repr__(self):
        return f"CharSequence({self.exponents})"


class Semigroup:
    """Minimal generators (v0, v1, ..., vg) of the semigroup of a branch.

    Invariants enforced: the gcd chain l_q decreases strictly to 1, each
    n_q = l_{q-1}/l_q is at least 2, v1 > v0, and every later generator
    clears the previous tier: v_{q+1} > n_q v_q.  A smooth branch is (1,).
    """

    __slots__ = ("generators", "gcds")

    def __init__(self, generators):
        generators = _check_positive_ints(generators, "semigroup generators")
        chain = _gcd_chain(generators)
        if chain[-1] != 1:
            raise ValidationError(f"gcd chain must end at 1, got {chain}")
        for prev, cur in zip(chain, chain[1:]):
            if cur >= prev:
                raise ValidationError(f"gcd chain must decrease strictly, got {chain}")
        if len(generators) == 1 and generators[0] != 1:
            raise ValidationError("a semigroup without extra generators must be (1,)")
        if len(generators) > 1 and generators[1] <= generators[0]:
            raise ValidationError(
                f"second generator must exceed the multiplicity, got {generators[:2]}"
            )
        for q in range(1, len(generators) - 1):
            n_q = chain[q - 1] // chain[q]
            if generators[q + 1] <= n_q * generators[q]:
                raise ValidationError(
                    f"generator {generators[q + 1]} must exceed {n_q} * {generators[q]}"
                )
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "gcds", chain)

    def __setattr__(self, name, value):
        raise AttributeError("Semigroup is immutable")

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    @property
    def genus(self) -> int:
        return len(self.generators) - 1

    @property
    def n_factors(self) -> tuple:
        return tuple(a // b for a, b in zip(self.gcds, self.gcds[1:]))

    def milnor(self) -> int:
        """Milnor number, which for a branch equals the conductor."""
        total = 0
        for n_q, b in zip(self.n_factors, self.generators[1:]):
            total += (n_q - 1) * b
        return total - self.generators[0] + 1

    def conductor(self) -> int:
        return self.milnor()

    def __eq__(self, other):
        if not isinstance(other, Semigroup):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self):
        return hash(("semigroup", self.generators))

    def __str__(self):
        return "<" + ", ".join(map(str, self.generators)) + ">"

    def __repr__(self):
        return f"Semigroup({self.generators})"


def char_to_semigroup(char: CharSequence) -> Semigroup:
    """Generators from exponents: v_{q+1} = n_q v_q + b_{q+1} - b_q."""
    b = char.exponents
    if char.genus == 0:
        return Semigroup((1,))
    n = char.n_factors
    gens = [b[0], b[1]]
    for q in range(1, char.genus):
        gens.append(n[q - 1] * gens[q] + b[q + 1] - b[q])
    return Semigroup(gens)


def semigroup_to_char(s: Semigroup) -> CharSequence:
    """Inverse of char_to_semigroup."""
    v = s.generators
    if s.genus == 0:
        return CharSequence((1,))
    n = s.n_factors
    b = [v[0], v[1]]
    for q in range(1, s.genus):
        b.append(v[q + 1] - n[q - 1] * v[q] + b[q])
    return CharSequence(b)


def milnor_from_semigroup(s: Semigroup) -> int:
    return s.milnor()


def approximate_root_semigroup(s: Semigroup, k: int) -> Semigroup:
    """Semigroup of the k-th characteristic approximate root.

    The root of index k has degree v0 / l_k and inherits the first k + 1
    generators scaled down by l_k.
    """
    if not 0 <= k <= s.genus:
        raise ValidationError(f"root index must lie in 0..{s.genus}, got {k}")
    l_k = s.gcds[k]
    return Semigroup(tuple(v // l_k for v in s.generators[: k + 1]))


# ---------------------------------------------------------------------------
# Approximate roots of a Weierstrass polynomial.
# ---------------------------------------------------------------------------


def _require_weierstrass(f: BiPoly, who: str):
    if f.is_zero() or not f.is_monic_in_y():
        raise ValidationError(f"{who} needs a polynomial monic in y")
    if not f.is_weierstrass():
        raise ValidationError(
            f"{who} needs a Weierstrass polynomial: coefficients below the "
            "leading power of y must vanish at x = 0"
        )


def approximate_root(f: BiPoly, p: int) -> BiPoly:
    """The p-th approximate root of f: the unique monic g with deg g = deg f / p
    such that f - g^p has y-degree below deg f - deg g.

    Found by solving for the coefficients of g top down; each step is a
    division by p, so no system needs to be inverted.
    """
    if f.is_zero() or not f.is_monic_in_y():
        raise ValidationError("approximate roots need a polynomial monic in y")
    d = f.deg_y()
    if not isinstance(p, int) or p < 1:
        raise ValidationError(f"root exponent must be a positive integer, got {p!r}")
    if d % p:
        raise ValidationError(f"root exponent {p} must divide the y-degree {d}")
    if p == 1:
        return f
    m = d // p
    g = BiPoly.y(m)
    inv_p = Fraction(1, p)
    for j in range(1, m + 1):
        power = g**p
        target = d - j
        delta = f.y_coefficient(target) - power.y_coefficient(target)
        if delta.is_zero():
            continue
        g = g + (delta * inv_p).shift_y(m - j)
    return g


def _am_iteration(f: BiPoly):
    """Semigroup generators and characteristic approximate roots of f.

    Walks the gcd chain: at each level l the l-th approximate root is a
    curve of maximal contact and its intersection number with f is the next
    generator.  Any failure of the branch axioms along the way certifies
    that f is not an irreducible germ transverse to x = 0.
    """
    _require_weierstrass(f, "semigroup computation")
    n = f.deg_y()
    gens = [n]
    roots = []
    l = n
    while l > 1:
        fk = approximate_root(f, l)
        b = intersection_multiplicity(f, fk)
        if b == inf:
            raise ValidationError(
                "not an irreducible branch: f shares a component with an approximate root"
            )
        if len(gens) == 1 and b <= n:
            raise ValidationError(
                "branch is tangent to y = 0 in these coordinates (second generator "
                f"{b} <= multiplicity {n}); swap x and y and retry"
            )
        new_l = gcd(l, b)
        if new_l == l:
            raise ValidationError(
                "not an irreducible branch: intersection with an approximate root "
                f"does not refine the gcd chain (level {l}, intersection {b})"
            )
        gens.append(b)
        roots.append(fk)
        l = new_l
    try:
        s = Semigroup(tuple(gens))
    except ValidationError as exc:
        raise ValidationError(f"not an irreducible branch: {exc}") from exc
    return s, roots


def semigroup_of(f: BiPoly) -> Semigroup:
    """Semigroup of the branch defined by a Weierstrass polynomial.

    The puiseux module's verify_cycle cross checks it against a floating
    point expansion of the conjugate roots.
    """
    s, _ = _am_iteration(f)
    return s


def characteristic_roots(f: BiPoly) -> list:
    """The approximate roots of maximal contact, ordered by increasing degree.

    Entry k has degree deg(f) / l_k; the list stops before f itself, so a
    branch of genus g yields g polynomials.
    """
    _, roots = _am_iteration(f)
    return roots


# ---------------------------------------------------------------------------
# Test branch construction: a defining equation for a prescribed semigroup.
# ---------------------------------------------------------------------------


def _weight_splits(weight: int, gens, caps):
    """All (a_0, ..., a_q) with sum a_i * gens[i] = weight, a_0 >= 1,
    a_i <= caps[i] for i >= 1, ordered by how few non-x factors they use."""
    out = []

    def rec(i, remaining, chosen):
        if i == 0:
            a0, rem = divmod(remaining, gens[0])
            if rem == 0 and a0 >= 1:
                out.append((a0, *reversed(chosen)))
            return
        for a in range(min(caps[i], remaining // gens[i]) + 1):
            rec(i - 1, remaining - a * gens[i], chosen + [a])

    rec(len(gens) - 1, weight, [])
    out.sort(key=lambda rep: (sum(rep[1:]), rep))
    return out


def build_test_branch(target: Semigroup) -> BiPoly:
    """A Weierstrass polynomial whose branch has exactly the given semigroup.

    Built stage by stage: each stage raises the previous equation to the
    next ramification power and subtracts a monomial of matching weight in
    x and the earlier stages.  Every stage is verified by recomputing its
    semigroup, so the output is certified; raises ValidationError if no
    deformation of this shape works.
    """
    gens = target.generators
    if target.genus == 0:
        return BiPoly.y()
    stages = [BiPoly.y()]
    ns = target.n_factors
    for q in range(1, target.genus + 1):
        l_q = target.gcds[q]
        n_q = ns[q - 1]
        expected = tuple(v // l_q for v in gens[: q + 1])
        weight = n_q * gens[q]
        caps = [0] + [ns[i] - 1 for i in range(q)]
        built = None
        for rep in _weight_splits(weight, gens[: q + 1], caps):
            monomial = BiPoly.x(rep[0])
            for i in range(1, q + 1):
                if rep[i]:
                    monomial = monomial * stages[i - 1] ** rep[i]
            candidate = stages[q - 1] ** n_q - monomial
            try:
                stage = semigroup_of(candidate)
            except ValidationError:
                continue
            if stage.generators == expected:
                built = candidate
                break
        if built is None:
            raise ValidationError(
                f"no normal form deformation realizes {target} at stage {q}"
            )
        stages.append(built)
    return stages[-1]


def random_semigroup(rng, max_genus: int = 5, max_generator: int = 10**4,
                     genus=None, max_multiplicity=None) -> Semigroup:
    """Sample a valid branch semigroup.

    The gcd chain is drawn first; each generator is then the smallest
    admissible tier times a random coprime factor, capped by max_generator.
    """
    for _ in range(10000):
        g = genus if genus is not None else rng.randint(1, max_genus)
        ns = [rng.randint(2, 4) for _ in range(g)]
        b0 = prod(ns)
        if max_multiplicity is not None and b0 > max_multiplicity:
            continue
        gens = [b0]
        l = b0
        ok = True
        for q in range(1, g + 1):
            n_q = ns[q - 1]
            l //= n_q
            floor = gens[0] if q == 1 else ns[q - 2] * gens[-1]
            m_min = floor // l + 1
            pool = [m for m in range(m_min, m_min + 4 * n_q) if gcd(m, n_q) == 1]
            b = l * rng.choice(pool)
            if b > max_generator:
                ok = False
                break
            gens.append(b)
        if ok:
            return Semigroup(tuple(gens))
    raise ValidationError("could not sample a semigroup within the given bounds")


def random_test_branch(rng, max_degree: int = 12, max_genus: int = 3,
                       max_generator: int = 10**4):
    """A random certified branch: (defining polynomial, its semigroup)."""
    for _ in range(200):
        s = random_semigroup(rng, max_genus=max_genus, max_generator=max_generator,
                             max_multiplicity=max_degree)
        try:
            f = build_test_branch(s)
        except ValidationError:
            continue
        return f, s
    raise ValidationError("could not realize a random branch within the given bounds")
