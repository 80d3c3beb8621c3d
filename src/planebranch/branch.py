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

from . import poly
from ._value import Value, _is_int
from .errors import ValidationError, _digit_limit
from .poly import (BiPoly, _clear_denominators, _expansion_intersection, _one_edge, _raw,
                   _y_rows, _z_mul)

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
        # a refusal may quote a number past the digit limit
        if not _is_int(v):
            with _digit_limit():
                raise ValidationError(f"{what} must be integers, got {v!r}")
        if v <= 0:
            with _digit_limit():
                raise ValidationError(f"{what} must be positive, got {v}")
        out.append(v)
    if not out:
        raise ValidationError(f"{what} must be nonempty")
    return tuple(out)


class _GcdChain(Value):
    """Positive integers whose running gcds l_0 > l_1 > ... > l_g = 1
    decrease strictly to 1.

    The first entry is the multiplicity and g the genus; a single entry
    must be 1, the smooth branch.  n_factors holds the ramification drops
    n_q = l_{q-1} / l_q, one per entry past the first.
    """

    __slots__ = ("gcds", "n_factors")

    @staticmethod
    def _validate(values, what: str, smooth: str):
        """The values as a tuple of ints, their gcd chain and its n_factors,
        once all check out."""
        values = _check_positive_ints(values, what)
        chain = _gcd_chain(values)
        if chain[-1] != 1:
            with _digit_limit():
                raise ValidationError(f"gcd chain must end at 1, got {chain}")
        for prev, cur in zip(chain, chain[1:]):
            if cur >= prev:
                with _digit_limit():
                    raise ValidationError(f"gcd chain must decrease strictly, got {chain}")
        if len(values) == 1 and values[0] != 1:
            raise ValidationError(smooth)
        return values, chain, tuple(a // b for a, b in zip(chain, chain[1:]))

    @property
    def multiplicity(self) -> int:
        return self.gcds[0]

    @property
    def genus(self) -> int:
        return len(self.gcds) - 1


class CharSequence(_GcdChain):
    """Characteristic exponents (b0; b1, ..., bg) of a branch.

    b0 is the multiplicity, the rest are the exponents b/b0 at which the
    ramification of a Puiseux root drops.  The exponents increase strictly.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents):
        exponents, chain, n = self._validate(exponents, "characteristic exponents",
                                             "a sequence without further exponents must be (1)")
        for prev, cur in zip(exponents, exponents[1:]):
            if cur <= prev:
                with _digit_limit():
                    raise ValidationError(f"exponents must increase strictly: {prev} !< {cur}")
        self._set(exponents=exponents, gcds=chain, n_factors=n)

    def _key(self):
        return self.exponents

    def __str__(self):
        if self.genus == 0:
            return "(1)"
        head, *rest = self.exponents
        return f"({head}; {', '.join(map(str, rest))})"

    def __repr__(self):
        return f"CharSequence({self.exponents})"


class Semigroup(_GcdChain):
    """Minimal generators (v0, v1, ..., vg) of the semigroup of a branch.

    Beyond the gcd chain: v1 > v0, and every later generator clears the
    previous tier, v_{q+1} > n_q v_q.  A smooth branch is (1,).
    """

    __slots__ = ("generators",)

    def __init__(self, generators):
        generators, chain, n = self._validate(generators, "semigroup generators",
                                              "a semigroup without extra generators must be (1,)")
        if len(generators) > 1 and generators[1] <= generators[0]:
            with _digit_limit():
                raise ValidationError(
                    f"second generator must exceed the multiplicity, got {generators[:2]}"
                )
        for q in range(1, len(generators) - 1):
            if generators[q + 1] <= n[q - 1] * generators[q]:
                with _digit_limit():
                    raise ValidationError(f"generator {generators[q + 1]} must exceed "
                                          f"{n[q - 1]} * {generators[q]}")
        self._set(generators=generators, gcds=chain, n_factors=n)

    def milnor(self) -> int:
        """Milnor number, which for a branch equals the conductor."""
        total = 0
        for n_q, b in zip(self.n_factors, self.generators[1:]):
            total += (n_q - 1) * b
        return total - self.generators[0] + 1

    def _key(self):
        return self.generators

    def __str__(self):
        return "<" + ", ".join(map(str, self.generators)) + ">"

    def __repr__(self):
        return f"Semigroup({self.generators})"


def char_to_semigroup(char: CharSequence) -> Semigroup:
    """Generators from exponents: v_{q+1} = n_q v_q + b_{q+1} - b_q."""
    b = char.exponents
    n = char.n_factors
    gens = list(b[:2])
    for q in range(1, char.genus):
        gens.append(n[q - 1] * gens[q] + b[q + 1] - b[q])
    return Semigroup(gens)


def semigroup_to_char(s: Semigroup) -> CharSequence:
    """Inverse of char_to_semigroup."""
    v = s.generators
    n = s.n_factors
    b = list(v[:2])
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
    if not _is_int(k) or not 0 <= k <= s.genus:
        with _digit_limit():
            raise ValidationError(f"root index must lie in 0..{s.genus}, got {k!r}")
    l_k = s.gcds[k]
    return Semigroup(tuple(v // l_k for v in s.generators[: k + 1]))


# ---------------------------------------------------------------------------
# Approximate roots of a Weierstrass polynomial.
# ---------------------------------------------------------------------------


def _require_weierstrass(f: BiPoly, who: str):
    """The checks of is_monic_in_y, deg_y and is_weierstrass, in one walk
    over f's terms."""
    n, lead, low = -1, 0, inf  # y-degree, terms at it, least y-power without x
    for i, j in f._terms:
        if j >= n:
            lead = lead + 1 if j == n else 1
            n = j
        if not i and j < low:
            low = j
    if lead != 1 or f._terms.get((0, n)) != 1:
        raise ValidationError(f"{who} needs a polynomial monic in y")
    if n < 1:
        raise ValidationError(f"{who} needs a polynomial of y-degree at least 1")
    if low < n:
        raise ValidationError(
            f"{who} needs a Weierstrass polynomial: coefficients below the "
            "leading power of y must vanish at x = 0"
        )


def approximate_root(f: BiPoly, p: int) -> BiPoly:
    """The p-th approximate root of f: the unique monic g with deg g = deg f / p
    such that f - g^p has y-degree below deg f - deg g.

    g is the polynomial part of f^(1/p) expanded in 1/y (Abhyankar,
    Expansion techniques in algebraic geometry, Tata 1977).  With
    V = f / y^d a series in t = 1/y, V_k the x-row of y^(d-k) and V_0 = 1,
    J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7) gives the
    rows of W = V^(1/p) one at a time,

        W_n = (1/n) sum_{k=1..n} ((1/p + 1) k - n) V_k W_(n-k),

    and g = sum_j W_j y^(m-j): m(m+1)/2 products of x-polynomials in
    place of a p-th power of g for each of its m = d/p coefficients.  With
    V_k = U_k / delta over the lcm delta of f's denominators, the products
    run on the integers N_n = p^n n! delta^n W_n, the sum over k of
    (k(p+1) - np) (p delta)^(k-1) (n-1)!/(n-k)! U_k N_(n-k).
    """
    if f.is_zero() or not f.is_monic_in_y():
        raise ValidationError("approximate roots need a polynomial monic in y")
    d = f.deg_y()
    if not _is_int(p) or p < 1:
        raise ValidationError(f"root exponent must be a positive integer, got {p!r}")
    if d % p:
        raise ValidationError(f"root exponent {p} must divide the y-degree {d}")
    m = d // p
    rows, delta = _clear_denominators(f)
    U = rows[::-1]
    pd = p * delta
    N = [{0: 1}]
    for n in range(1, m + 1):
        row = {}
        scale = 1  # (p delta)^(k-1) (n-1)!/(n-k)!
        for k in range(1, n + 1):
            weight = (k * (p + 1) - n * p) * scale
            if weight and U[k] and N[n - k]:
                for i, c in _z_mul(U[k], N[n - k]).items():
                    row[i] = row.get(i, 0) + weight * c
            scale *= pd * (n - k)
        N.append({i: c for i, c in row.items() if c})
    out, den = {}, 1
    for n, row in enumerate(N):
        for i, c in row.items():
            out[(i, m - n)] = Fraction(c, den)
        den *= pd * (n + 1)
    return _raw(out)


@_digit_limit()  # a message may quote a number past the digit limit
def _am_iteration(f: BiPoly):
    """Semigroup and characteristic approximate roots of f, the roots as a tuple.

    Walks the gcd chain: at each level l the l-th approximate root f_k is a
    curve of maximal contact and its intersection number with f is the next
    generator.  Any failure of the branch axioms along the way certifies
    that f is not an irreducible germ transverse to x = 0.  A success is
    kept in poly._certified, so consecutive calls on one polynomial, found
    by identity and then by equality, share one run, and
    intersection_multiplicity reads intersections with f and its roots off
    their expansion.  A failure leaves the record as it was.

    The run takes no resultant.  It certifies f by Abhyankar's
    irreducibility criterion (Adv. Math. 74, 1989), asked at every level
    of f's own expansion.  At the level l it expands f = sum_(e <= l)
    c_e f_k^e in the l-th approximate root f_k, and each digit c_e in x and
    f_0, ..., f_(k-1), valuing x^a f_0^e_0 ... f_(k-1)^e_(k-1) with f's
    generators so far over l.  The next generator b is the least value of
    c_0.  It must be finite, at least deg f at the first level, and refine
    the gcd chain, and every digit must lie on or above the Newton edge
    from (b, 0) to (0, l): l * value(c_e) >= (l - e) b.  The numbers alone
    do not make a branch: (y^2-x^3)(y^3-x^4) meets y with order 7, prime
    to 5, and fails the edge.  When every level passes and the generators
    form a semigroup, f is a branch, and by Abhyankar and Moh (J. reine
    angew. Math. 260, 1973) each f_k is a branch of maximal contact with
    semigroup v_0 / l_k, ..., v_k / l_k, whose intersection with f is
    v_(k+1).  The first level that fails shows that f is not a branch.
    """
    chain, s, _, _ = poly._certified
    if chain and (chain[-1] is f or chain[-1] == f):
        return s, chain[:-1]
    _require_weierstrass(f, "semigroup computation")
    n = f.deg_y()
    f_rows, D = _y_rows(f, 1)
    rows = [f_rows]  # Y-rows under D of f_0, ..., f_k and then f
    gens, roots = [n], []
    l = n
    while l > 1:
        fk = approximate_root(f, l)
        fk_rows, grown = _y_rows(fk, D)
        if grown != D:
            D, rows = grown, [_y_rows(p, grown)[0] for p in (*roots, f)]
        rows.insert(-1, fk_rows)
        weights = [v // l for v in gens]
        b, q = _expansion_intersection(rows[:-1], weights, rows[-1])
        if b == inf:
            raise ValidationError(
                "not an irreducible branch: f shares a component with an approximate root"
            )
        # a branch's second generator is never a multiple of n, so b == n
        # is a reducible curve, which the gcd check below reports
        if len(gens) == 1 and b < n:
            raise ValidationError(
                "branch is tangent to x = 0 in these coordinates (second generator "
                f"{b} < multiplicity {n}); swap x and y and retry"
            )
        new_l = gcd(l, b)
        if new_l == l:
            raise ValidationError(
                "not an irreducible branch: intersection with an approximate root "
                f"does not refine the gcd chain (level {l}, intersection {b})"
            )
        if not _one_edge(rows[:-1], weights, b, q):
            raise ValidationError(
                "not an irreducible branch: its expansion in the approximate root of "
                f"degree {n // l} is not one Newton edge"
            )
        gens.append(b)
        roots.append(fk)
        l = new_l
    try:
        s = Semigroup(tuple(gens))
    except ValidationError as exc:
        raise ValidationError(f"not an irreducible branch: {exc}") from exc
    poly._certified = ((*roots, f), s, D, rows)
    return s, tuple(roots)


def semigroup_of(f: BiPoly) -> Semigroup:
    """Semigroup of the branch defined by a Weierstrass polynomial.

    The puiseux module's verify_cycle cross checks it against a floating
    point expansion of the conjugate roots: their ramification and their
    contacts, one characteristic exponent b_j/b_0 each.
    """
    s, _ = _am_iteration(f)
    return s


def characteristic_roots(f: BiPoly) -> list:
    """The approximate roots of maximal contact, ordered by increasing degree.

    Entry k has degree deg(f) / l_k; the list stops before f itself, so a
    branch of genus g yields g polynomials.
    """
    _, roots = _am_iteration(f)
    return list(roots)


# ---------------------------------------------------------------------------
# Test branch construction: a defining equation for a prescribed semigroup.
# ---------------------------------------------------------------------------


def build_test_branch(target: Semigroup) -> BiPoly:
    """A Weierstrass polynomial whose branch has exactly the given semigroup.

    Built stage by stage: each stage raises the previous equation to the
    next ramification power n_q and subtracts a monomial of the same weight
    n_q * v_q in x and the earlier stages, x weighing v_0 and stage i - 1
    weighing v_i.  The monomial is the one product
    x^a_0 * stage_0^a_1 * ... with 0 <= a_i < n_i for i >= 1.  The
    returned equation is certified by recomputing its semigroup; raises
    ValidationError if that fails.
    """
    gens = target.generators
    stages = [BiPoly.y()]
    ns = target.n_factors
    for q in range(1, target.genus + 1):
        n_q = ns[q - 1]
        # top down: every generator below v_i is a multiple of l_(i-1), so
        # the weight left modulo l_(i-1) fixes a_i modulo n_i, where v_i/l_i
        # is a unit.  What is left for x is a multiple of v_0, and positive
        # since v_(i+1) > n_i v_i bounds sum (n_i - 1) v_i over 0 < i < q
        # by v_q - v_1; so a_0 >= 1
        rest = n_q * gens[q]
        monomial = BiPoly.one()
        for i in range(q, 0, -1):
            l_i, n_i = target.gcds[i], ns[i - 1]
            a_i = rest // l_i * pow(gens[i] // l_i, -1, n_i) % n_i
            if a_i:
                rest -= a_i * gens[i]
                monomial = monomial * stages[i - 1] ** a_i
        stages.append(stages[q - 1] ** n_q - BiPoly.x(rest // gens[0]) * monomial)
    if semigroup_of(stages[-1]) != target:
        raise ValidationError(f"no normal form deformation realizes {target}")
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
    s = random_semigroup(rng, max_genus=max_genus, max_generator=max_generator,
                         max_multiplicity=max_degree)
    return build_test_branch(s), s
