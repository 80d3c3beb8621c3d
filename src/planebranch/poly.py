"""Exact arithmetic for bivariate polynomials over the rationals.

BiPoly is a sparse polynomial in x and y with Fraction coefficients.  On top
of the ring operations this module provides the y-resultant (subresultant
polynomial remainder sequence), local intersection multiplicity at the
origin, and the Milnor number, which are the exact backbone for everything
else in the package.

Coefficients are Fractions, but products and jacobians convolve int
numerators over one lcm of denominators (_numerators) and build one
Fraction per result term; the resultant clears them alike, over Z[x].  Each Z[x]
coefficient is a sparse dict {x-exponent: int}, so its cost follows the
number of terms, not the x-degree: an x^(mu+2)*y tail or an exponent of
10^12 adds a term, not a list of zeros.

An intersection number with a certified branch or one of its roots is
read off an expansion in the roots, in place of a resultant, over integer
rows in the coordinate Y = D*y (see _y_rows); branch._am_iteration
reads every level of f that way to apply Abhyankar's criterion.
The module keeps one record, _certified, of the last branch certified,
with its roots, semigroup, D and rows; branch._am_iteration looks it up
and writes it, and intersection_multiplicity reads it, for the
verifier's exact totals among others.  The resultant serves everything
else: generic pairs, milnor_number, resultant_y itself, and the verifier's
I(J_k, fk) for a supplied fk that is no characteristic root of the branch.
Both routes build their integer rows with _clear_denominators and divide
them with _divmod_monic.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf, lcm

from ._value import _is_int, _rational
from .errors import ValidationError, _digit_limit

_RATIONAL_TYPES = (int, Fraction)


class BiPoly:
    """Polynomial in Q[x, y], stored as a map (x-exponent, y-exponent) -> coefficient.

    Instances are immutable by convention; all operations return new objects.
    Zero coefficients are never stored.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        data = {}
        if terms:
            for (i, j), c in dict(terms).items():
                if not (_is_int(i) and _is_int(j)) or i < 0 or j < 0:
                    raise ValidationError(f"exponents must be nonnegative integers, got ({i}, {j})")
                c = _rational(c, "coefficients", "rational")
                if c:
                    data[(i, j)] = c
        self._terms = data

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls()

    @classmethod
    def one(cls) -> "BiPoly":
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c) -> "BiPoly":
        return cls({(0, 0): c})

    @classmethod
    def x(cls, power: int = 1) -> "BiPoly":
        return cls({(power, 0): 1})

    @classmethod
    def y(cls, power: int = 1) -> "BiPoly":
        return cls({(0, power): 1})

    @classmethod
    def monomial(cls, c, i: int, j: int) -> "BiPoly":
        return cls({(i, j): c})

    # -- inspection ---------------------------------------------------

    def terms(self):
        """Terms in the canonical order: lexicographic by (x-exponent, y-exponent)."""
        return tuple(sorted(self._terms.items()))

    def support(self):
        return set(self._terms)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def deg_x(self) -> int:
        return max((i for i, _ in self._terms), default=-1)

    def deg_y(self) -> int:
        return max((j for _, j in self._terms), default=-1)

    def ord_x(self) -> int:
        """Largest a with x^a dividing the polynomial (error on zero)."""
        if not self._terms:
            raise ValidationError("ord_x of the zero polynomial")
        return min(i for i, _ in self._terms)

    def ord_y(self) -> int:
        if not self._terms:
            raise ValidationError("ord_y of the zero polynomial")
        return min(j for _, j in self._terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "BiPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        data = dict(self._terms)
        for key, c in other._terms.items():
            s = data.get(key, Fraction(0)) + c
            if s:
                data[key] = s
            else:
                data.pop(key, None)
        return _raw(data)

    __radd__ = __add__

    def __neg__(self) -> "BiPoly":
        return _raw({k: -c for k, c in self._terms.items()})

    def __sub__(self, other) -> "BiPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "BiPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "BiPoly":
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        (a, da), (b, db) = _numerators(self._terms), _numerators(other._terms)
        out = {}
        for (i1, j1), c1 in a.items():
            for (i2, j2), c2 in b.items():
                key = (i1 + i2, j1 + j2)
                out[key] = out.get(key, 0) + c1 * c2
        return _over(out, da * db)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BiPoly":
        if not _is_int(n):
            raise ValidationError(f"polynomial power must be an integer, got {n!r}")
        if n < 0:
            raise ValidationError("polynomial power must be nonnegative")
        result = BiPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and evaluation ---------------------------------------

    def diff_x(self) -> "BiPoly":
        return _raw({(i - 1, j): c * i for (i, j), c in self._terms.items() if i})

    def diff_y(self) -> "BiPoly":
        return _raw({(i, j - 1): c * j for (i, j), c in self._terms.items() if j})

    def evaluate(self, xv, yv) -> Fraction:
        xv = _rational(xv, "coefficients", "rational")
        yv = _rational(yv, "coefficients", "rational")
        total = Fraction(0)
        for (i, j), c in self._terms.items():
            total += c * xv**i * yv**j
        return total

    # -- structure ------------------------------------------------------

    def x_content(self):
        """Split off the largest x power: returns (a, f) with self = x^a * f."""
        a = self.ord_x()
        if a == 0:
            return 0, self
        return a, _raw({(i - a, j): c for (i, j), c in self._terms.items()})

    def y_content(self):
        b = self.ord_y()
        if b == 0:
            return 0, self
        return b, _raw({(i, j - b): c for (i, j), c in self._terms.items()})

    def y_coefficient(self, j: int) -> "BiPoly":
        """Coefficient of y^j, as a polynomial in x."""
        return _raw({(i, 0): c for (i, jj), c in self._terms.items() if jj == j})

    def shift_y(self, j: int) -> "BiPoly":
        return _raw({(i, jj + j): c for (i, jj), c in self._terms.items()})

    def is_monic_in_y(self) -> bool:
        n = self.deg_y()
        if n < 0:
            return False
        lead = {key: c for key, c in self._terms.items() if key[1] == n}
        return lead == {(0, n): Fraction(1)}

    def is_weierstrass(self) -> bool:
        """Monic in y with every lower y-coefficient vanishing at x = 0."""
        if not self.is_monic_in_y():
            return False
        n = self.deg_y()
        return all(i > 0 for (i, j) in self._terms if j < n)

    # -- formatting -----------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        pieces = []
        with _digit_limit():
            for (i, j), c in sorted(self._terms.items(), key=lambda t: (-t[0][1], -t[0][0])):
                factors = []
                if i:
                    factors.append("x" if i == 1 else f"x^{i}")
                if j:
                    factors.append("y" if j == 1 else f"y^{j}")
                mag = abs(c)
                if mag != 1 or not factors:
                    factors.insert(0, str(mag))
                body = "*".join(factors)
                if not pieces:
                    pieces.append(body if c > 0 else "-" + body)
                else:
                    pieces.append(("+ " if c > 0 else "- ") + body)
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"BiPoly({str(self)!r})"


def _raw(data: dict) -> BiPoly:
    p = BiPoly.__new__(BiPoly)
    p._terms = data
    return p


def _numerators(terms: dict):
    """(nums, den): the Fraction values of terms as ints over their least
    common denominator den, under the same keys."""
    den = lcm(*[c.denominator for c in terms.values()])
    if den == 1:
        return {k: c.numerator for k, c in terms.items()}, 1
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _over(nums: dict, den: int) -> BiPoly:
    """The BiPoly with values nums[k] / den, zeros dropped."""
    if den == 1:
        return _raw({k: Fraction(c) for k, c in nums.items() if c})
    return _raw({k: Fraction(c, den) for k, c in nums.items() if c})


def _as_poly(value):
    if isinstance(value, BiPoly):
        return value
    if isinstance(value, _RATIONAL_TYPES):
        return BiPoly.constant(value)
    return NotImplemented


def jacobian_det(g: BiPoly, f: BiPoly) -> BiPoly:
    """Jacobian determinant g_x f_y - g_y f_x in one convolution: terms c1 x^i1 y^j1
    of g and c2 x^i2 y^j2 of f give (i1 j2 - j1 i2) c1 c2 x^(i1+i2-1) y^(j1+j2-1)."""
    (a, da), (b, db) = _numerators(g._terms), _numerators(f._terms)
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            w = i1 * j2 - j1 * i2
            if w:
                key = (i1 + i2 - 1, j1 + j2 - 1)
                out[key] = out.get(key, 0) + w * c1 * c2
    return _over(out, da * db)


# ---------------------------------------------------------------------------
# Univariate integer polynomials in x for the resultant, stored sparse as
# {x-exponent: int} with no zero entries.  A y-polynomial over Z[x] is a list
# of them indexed by y-power, with a nonzero last entry; so is the expansion
# below, in Y = D*y.  _z_mul also serves approximate_root's integer rows.
# ---------------------------------------------------------------------------


def _z_submul(r, p, q):
    """r - p*q, without building p*q; r itself when p or q is zero."""
    if not (p and q):
        return r
    out = dict(r)
    for a, ca in p.items():
        for b, cb in q.items():
            k = a + b
            out[k] = out.get(k, 0) - ca * cb
    return {k: c for k, c in out.items() if c}


def _z_mul(p, q):
    if len(p) > len(q):
        p, q = q, p
    out = {}
    for a, ca in p.items():
        for b, cb in q.items():
            k = a + b
            out[k] = out.get(k, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def _z_pow(p, n):
    result = {0: 1}
    base = p
    while n:
        if n & 1:
            result = _z_mul(result, base)
        n >>= 1
        if n:
            base = _z_mul(base, base)
    return result


def _z_div(num, den):
    """Exact division in Z[x] by long division from the top exponent.

    Raises ArithmeticError unless den divides num in Z[x].
    """
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    top = max(den)
    lead = den[top]
    rem = dict(num)
    out = {}
    while rem:
        k = max(rem)
        q, r = divmod(rem[k], lead)
        if r or k < top:
            raise ArithmeticError("inexact division in subresultant sequence")
        shift = k - top
        out[shift] = q
        for i, c in den.items():
            i += shift
            s = rem.get(i, 0) - q * c
            if s:
                rem[i] = s
            else:
                del rem[i]
    return out


def _trim(A):
    while A and not A[-1]:
        A.pop()
    return A


def _divmod_monic(A, B):
    """Quotient and remainder in y of the rows A by the rows B.

    For a B whose leading row is not 1, each step first multiplies the
    remainder by that row, which gives the pseudo-remainder
    lc(B)^(deg A - deg B + 1) A mod B that resultant_y needs, and the
    quotient is None.  An A of lower degree is its own remainder, with an
    empty quotient; the expansions meet that case in about four calls of
    ten, so it returns before B is looked at."""
    d = len(B) - 1
    R = list(A)
    if len(R) <= d:
        return [], _trim(R)
    lead = B[d]
    monic = lead == {0: 1}
    lower = [(t, row) for t, row in enumerate(B[:d]) if row]
    Q = []
    while len(R) > d:
        top = R.pop()
        if monic:
            Q.append(top)
        else:
            R = [_z_mul(lead, c) for c in R]
        s = len(R) - d
        for t, row in lower:
            R[s + t] = _z_submul(R[s + t], top, row)
    Q.reverse()
    return (Q if monic else None), _trim(R)


def _clear_denominators(f: BiPoly, D: int = 1):
    """(rows, den), den the lcm of f's denominators: rows[j] is the Z[x] row
    of Y^j in den * D^d * f(x, Y/D), d = deg_y f; den * f when D = 1."""
    nums, den = _numerators(f._terms)
    d = f.deg_y()
    powers = [D ** (d - j) for j in range(d + 1)] if D > 1 else None
    rows = [{} for _ in range(d + 1)]
    for (i, j), c in nums.items():
        rows[j][i] = c * powers[j] if powers else c
    return rows, den


def resultant_y(f: BiPoly, h: BiPoly) -> BiPoly:
    """Resultant of f and h with respect to y, a polynomial in x.

    Computed with the subresultant polynomial remainder sequence over Z[x]
    after clearing denominators; the rational correction is applied at the
    end, so the value is the actual resultant, sign included.
    """
    if f.is_zero() or h.is_zero():
        return BiPoly.zero()
    df, dh = f.deg_y(), h.deg_y()
    if df < 1 and dh < 1:
        raise ValidationError("resultant_y needs y-degree >= 1 in at least one argument")
    A, dena = _clear_denominators(f)
    B, denb = _clear_denominators(h)
    sign = 1
    if df < dh:
        A, B = B, A
        if df * dh % 2 == 1:
            sign = -sign
    g = {0: 1}
    hpow = {0: 1}
    while len(B) > 1:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            sign = -sign
        R = _divmod_monic(A, B)[1]
        if not R:
            return BiPoly.zero()
        divisor = _z_mul(g, _z_pow(hpow, delta))
        A = B
        B = _trim([_z_div(c, divisor) for c in R])
        g = A[-1]
        if delta > 0:
            hpow = _z_div(_z_pow(g, delta), _z_pow(hpow, delta - 1))
    dA = len(A) - 1
    res = _z_div(_z_pow(B[0], dA), _z_pow(hpow, dA - 1))
    return _over({(i, 0): sign * c for i, c in res.items()}, dena**dh * denb**df)


# ---------------------------------------------------------------------------
# Local intersection numbers at the origin.
# ---------------------------------------------------------------------------


def _ord_at_y_axis(p: BiPoly):
    """Order in y of p(0, y); this is the intersection number (x, p) at 0."""
    candidates = [j for (i, j) in p._terms if i == 0]
    return min(candidates) if candidates else inf


def intersection_multiplicity(f: BiPoly, h: BiPoly):
    """Intersection multiplicity of the curves f = 0 and h = 0 at the origin.

    Returns a nonnegative integer, or math.inf when the curves share a
    component through the origin.  There are two exact routes.

    When either argument is the last branch certified by _am_iteration
    (semigroup_of, characteristic_roots, build_test_branch, the puiseux
    verifier, the CLI), or one of its characteristic approximate roots
    f_0, ..., f_(k-1) (each a branch whose roots are the ones before it,
    with semigroup approximate_root_semigroup(s, k)), the other argument is
    reduced modulo that branch and the remainder expanded as a sum of
    monomials x^a f_0^e_0 ... f_(k-1)^e_(k-1) with 0 <= e_i < n_(i+1).
    Distinct monomials of this expansion have distinct values
    a v_0 + sum e_i v_(i+1), so the intersection number is the least value
    that occurs (Abhyankar and Moh, J. reine angew. Math. 260, 1973).

    Otherwise the x-power content is split off and the y-regular parts go
    through the y-resultant, whose order is the local multiplicity when one
    argument is a Weierstrass polynomial times a unit.  For other pairs
    other points (0, c) of x = 0 count too; milnor_number rejects such f_x, f_y.
    """
    for branch, other in ((f, h), (h, f)):
        value = _certified_intersection(branch, other) if other else None
        if value is not None:
            return value
    return _resultant_intersection(f, h)


def _resultant_intersection(f: BiPoly, h: BiPoly):
    """intersection_multiplicity by the y-resultant route alone."""
    if f.is_zero() or h.is_zero():
        raise ValidationError("intersection multiplicity needs nonzero polynomials")
    if f.coefficient(0, 0) or h.coefficient(0, 0):
        return 0
    a, f1 = f.x_content()
    b, h1 = h.x_content()
    if a > 0 and b > 0:
        return inf
    total = a * _ord_at_y_axis(h1) + b * _ord_at_y_axis(f1)
    if f1.deg_y() == 0 or h1.deg_y() == 0:
        # after removing the x content a y-constant factor is a unit at 0
        return total
    res = resultant_y(f1, h1)
    if res.is_zero():
        return inf
    return total + res.ord_x()


#: the last certified branch f as (the chain f_0, ..., f_(g-1), f, its
#: Semigroup, D, the chain's Y-rows under D); one record, so memory stays
#: bounded.  Only a successful branch._am_iteration writes it
_certified = ((), None, 1, [])


def _y_rows(p: BiPoly, D: int):
    """(rows, D') with D' the lcm of D and p's denominators: the rows of
    _clear_denominators under D' without its den, so row j of
    D'^d p(x, Y/D'), d = deg_y p, is c D'^(d-j), integral and monic in
    Y = D'*y for a monic p.  The change of coordinates is linear, and it
    scales each monomial x^a f_0^e_0 ... of an expansion by a nonzero
    constant, so intersection numbers and _least_value read the same."""
    D = lcm(D, *[c.denominator for c in p._terms.values()])
    rows, den = _clear_denominators(p, D)
    if den > 1:
        rows = [{i: c // den for i, c in row.items()} for row in rows]
    return rows, D


def _certified_intersection(branch: BiPoly, h: BiPoly):
    """I(branch, h) by the expansion route; None when branch is not in the record."""
    chain, s, D, rows = _certified
    for k, p in enumerate(chain):
        if p is branch or p == branch:
            # entry k is a branch with semigroup v_0 / l_k, ..., v_k / l_k
            l_k = s.gcds[k]
            weights = [v // l_k for v in s.generators[: k + 1]]
            return _expansion_intersection(rows[: k + 1], weights,
                                           _clear_denominators(h, D)[0])[0]
    return None


def _expansion_intersection(rows, weights, h):
    """(I(p, h), q) for a branch p with semigroup weights and Y-rows
    rows[-1], whose characteristic approximate roots have Y-rows rows[:-1],
    and h a nonzero constant multiple of a polynomial's Y-rows under the
    same D; h = q p + c_0, and the value is the least one of c_0."""
    q, rem = _divmod_monic(h, rows[-1])
    return (_least_value(rem, rows[:-1], weights) if rem else inf), q


def _one_edge(rows, weights, b, q):
    """Whether every digit c_e of h = sum_{e <= l} c_e p^e, whose
    I(p, h) = b and quotient q come from _expansion_intersection, keeps
    l I(p, c_e) >= (l - e) b, on or above the Newton edge from (b, 0) to
    (0, l), for p the l-th approximate root of h.  A term x^a adds
    monomials of value at least a * weights[0] to the digits it reaches, so
    terms past the edge are dropped first.

    The digits run to e = l - 2 only.  The digit c_(l-1) of h in its l-th
    approximate root is exactly 0 (Tschirnhausen): a nonzero one would give
    h - p^l the y-degree deg h - deg p at least.  What the filter drops
    before that digit lies past the edge of some e <= l - 1, so it adds
    only monomials of value at least b / l to c_(l-1), and the check there,
    l I(p, c_(l-1)) >= b, cannot fail.  A level with l = 2 divides no
    digit at all."""
    l = (len(q) - 1) // (len(rows[-1]) - 1) + 1
    for e in range(1, l - 1):
        q = [{i: c for i, c in row.items() if l * i * weights[0] < (l - e) * b} for row in q]
        q, digit = _divmod_monic(q, rows[-1])
        if digit and l * _least_value(digit, rows[:-1], weights) < (l - e) * b:
            return False
    return True


def _least_value(r, roots, w):
    """Least a w_0 + sum e_i w_(i+1) over the monomials x^a prod roots[i]^e_i
    of the nonzero rows r, whose y-degree is below that of the branch."""
    if not roots:
        return w[0] * min(r[0])
    best, e = inf, 0
    while r:
        r, digit = _divmod_monic(r, roots[-1])
        if digit:
            best = min(best, _least_value(digit, roots[:-1], w) + e * w[len(roots)])
        e += 1
    return best


def milnor_number(f: BiPoly) -> int:
    """Milnor number of an isolated singularity at the origin; ValidationError
    where the resultant it reads may also count other points of x = 0."""
    if f.is_zero():
        raise ValidationError("milnor_number of the zero polynomial")
    if f.coefficient(0, 0):
        raise ValidationError("milnor_number needs f(0,0) = 0")
    fx = f.diff_x()
    fy = f.diff_y()
    if fx.is_zero() or fy.is_zero():
        p = fy if fx.is_zero() else fx
        if p.coefficient(0, 0):
            return 0
        raise ValidationError("non-isolated singularity (infinite Milnor number)")
    (a, p), (b, q) = fx.x_content(), fy.x_content()
    if not (fx.coefficient(0, 0) or fy.coefficient(0, 0) or a and b) and min(p.deg_y(), q.deg_y()):
        # ord_x Res_y(p, q) is the local number when no intersection escapes
        # to infinity over x = 0, as a y-leading coefficient nonzero at x = 0
        # ensures, and p(0, y), q(0, y) share no root but 0
        at0 = [_raw({(0, j): c for (i, j), c in r._terms.items() if not i}).y_content()[1]
               for r in (p, q)]
        if not (p.coefficient(0, p.deg_y()) or q.coefficient(0, q.deg_y())) or (
                min(r.deg_y() for r in at0) and resultant_y(*at0).is_zero()):
            raise ValidationError("milnor_number cannot isolate the origin: f_x and f_y may "
                                  "also meet on x = 0 away from it")
    m = intersection_multiplicity(fx, fy)
    if m is inf:
        raise ValidationError("non-isolated singularity (infinite Milnor number)")
    return m
