"""Floating point Newton-Puiseux expansion and contact-class verification.

Everything exact in this package has an independent check that goes through
actual Puiseux roots: series are expanded at machine precision first, and
every decision that could be corrupted by rounding (coefficient equality,
root multiplicity, class membership) either passes a consistency test or
triggers a retry of the whole computation at a higher precision tier.
Exactness re-enters through the exponents, which are always exact:
integers over one denominator inside the expander, in each series beside
its Fraction terms, and through contact orders and class sums, which
become Fractions only where they leave the module.  Contact orders and
intersection numbers read off the series are therefore exact the moment the
coefficient decisions are trusted.
"""

from __future__ import annotations

from cmath import phase, rect
from contextlib import nullcontext
from fractions import Fraction
from math import comb, factorial, frexp, gcd, inf, lcm, ldexp, pi

from ._value import Value, _fill, _is_int, _rational
from .branch import (
    _am_iteration,
    approximate_root_semigroup,
    semigroup_of,
    semigroup_to_char,
)
from .diagram import ElementarySegment, NewtonDiagram, lower_hull
from .errors import (
    ContactUndecidableError,
    NumericError,
    ValidationError,
    VerificationError,
)
from .jacobian import _check_index, jnd_family
from .poly import BiPoly, intersection_multiplicity, jacobian_det

__all__ = [
    "NumericContext",
    "PuiseuxSeries",
    "puiseux_expand",
    "contact",
    "ContactClass",
    "contact_classes",
    "jnd_oracle",
    "verify_decomposition",
    "verify_cycle",
]

_LADDER = (53, 128, 256, 512)


class _EscalationNeeded(Exception):
    """Internal: the current precision tier cannot certify a decision."""


class NumericContext:
    """One precision tier: root finding, tolerances, and coefficient type."""

    __slots__ = ("bits", "eq_tol", "chop_tol", "sig_tol")

    def __init__(self, bits: int = 53):
        self.bits = bits
        # equality of series coefficients; a three-decade ambiguity band
        # around it forces escalation instead of a guess
        self.eq_tol = 2.0 ** (-(bits - 23))
        self.chop_tol = 2.0 ** (-(bits - 20))
        self.sig_tol = 2.0 ** (-(2 * bits) // 3)

    # numpy and mpmath are imported where a tier first needs them, so the
    # exact pipeline never pays for loading them

    def guard(self):
        if self.bits <= 53:
            return nullcontext()
        import mpmath

        return mpmath.workprec(self.bits + 20)

    def number(self, q: Fraction):
        if self.bits <= 53:
            return complex(q)
        import mpmath

        return mpmath.mpc(mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator))

    def nth_roots(self, a, g):
        """The g roots of z^g = a, for a != 0."""
        if self.bits <= 53:
            return [a ** (1 / g) * rect(1.0, 2 * pi * k / g) for k in range(g)]
        import mpmath

        return [mpmath.root(a, g, k) for k in range(g)]

    def unit_scale(self, top):
        """2^-k for the k with 2^(k-1) <= top < 2^k: a scale by which any
        product is exact."""
        if self.bits <= 53:
            return ldexp(1.0, -frexp(top)[1])
        import mpmath

        return mpmath.ldexp(1, -mpmath.frexp(top)[1])

    def unit_root(self, num, den):
        """exp(2*pi*i*num/den), a function of the fraction alone; exactly 1
        when den divides num."""
        num %= den
        if not num:
            return 1
        k = gcd(num, den)
        num, den = num // k, den // k
        if self.bits <= 53:
            return rect(1.0, 2 * pi * num / den)
        import mpmath

        return mpmath.expjpi(mpmath.mpf(2 * num) / den)

    def poly_roots(self, coeffs):
        """Roots of a dense polynomial, constant term first."""
        if self.bits <= 53:
            import numpy as np

            arr = np.array(list(reversed(coeffs)), dtype=np.complex128)
            return [complex(r) for r in np.roots(arr)]
        import mpmath
        from mpmath.libmp import NoConvergence

        try:
            roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=self.bits)
        except NoConvergence as exc:
            raise _EscalationNeeded(f"root finder did not converge at {self.bits} bits") from exc
        return list(roots)

    def __repr__(self):
        return f"NumericContext(bits={self.bits})"


def _with_escalation(worker, min_bits=53):
    failures = []
    for bits in [b for b in _LADDER if b >= min_bits] or _LADDER[-1:]:
        ctx = NumericContext(bits)
        try:
            with ctx.guard():
                return worker(ctx)
        except _EscalationNeeded as exc:
            failures.append(f"{bits} bits: {exc}")
    raise NumericError("undecidable at every precision tier: " + "; ".join(failures))


class PuiseuxSeries(Value):
    """A truncated fractional power series in x.

    Terms are (exponent, coefficient) pairs with exact Fraction exponents;
    every nonzero term below the truncation is present.  The exact zero series
    has no terms and infinite truncation.  Two series are equal when their
    terms and truncation are; the context that computed them does not count,
    nor does the integer form of the exponents, _nums over _den, that the
    contact walk reads.
    """

    __slots__ = ("terms", "truncation", "context", "_den", "_nums")

    def __init__(self, terms, truncation, context=None):
        terms = tuple(sorted([(_rational(e, "series exponents", "rational"), c) for e, c in terms],
                             key=lambda t: t[0]))
        den = lcm(1, *(e.denominator for e, _ in terms))
        _fill(self, "terms", terms)
        _fill(self, "truncation", truncation)
        _fill(self, "context", context)
        _fill(self, "_den", den)
        _fill(self, "_nums", tuple([e.numerator * (den // e.denominator) for e, _ in terms]))

    @classmethod
    def _of_tail(cls, den, tail, truncation, context):
        """The series c*x^(N/den) for the (N, c) pairs of tail, N ascending."""
        # tuples of lists, not of generators: a tuple grown from a generator
        # is resized into place, and the tuple free lists then keep growing
        terms = tuple([(Fraction(n, den), c) for n, c in tail])
        self = cls.__new__(cls)
        _fill(self, "terms", terms)
        _fill(self, "truncation", truncation)
        _fill(self, "context", context)
        _fill(self, "_den", den)
        _fill(self, "_nums", tuple([n for n, _ in tail]))
        return self

    def _key(self):
        return self.terms, self.truncation

    def support(self):
        return tuple(e for e, _ in self.terms)

    def coefficient(self, e):
        return next((c for x, c in self.terms if x == e), 0)

    def is_exact_zero(self) -> bool:
        return not self.terms and self.truncation == inf

    def order(self):
        """Lowest exponent; inf for the zero series, None if nothing is known."""
        if self.terms:
            return self.terms[0][0]
        return inf if self.truncation == inf else None

    def ramification(self) -> int:
        return self._den

    def __str__(self):
        def fmt_coeff(c):
            c = complex(c)
            if abs(c.imag) < 1e-12 * max(1.0, abs(c.real)):
                return f"{c.real:.6g}"
            return f"({c.real:.6g}{c.imag:+.6g}i)"

        def fmt_exp(e):
            return str(e) if e.denominator == 1 else f"({e})"

        pieces = [f"{fmt_coeff(c)}*x^{fmt_exp(e)}" for e, c in self.terms]
        if self.truncation != inf:
            pieces.append(f"O(x^{fmt_exp(Fraction(self.truncation))})")
        return " + ".join(pieces) if pieces else "0"

    def __repr__(self):
        return f"PuiseuxSeries({self})"


# ---------------------------------------------------------------------------
# Root finding on edge polynomials, multiplicity included.
# ---------------------------------------------------------------------------


def _horner(coeffs, z):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _derive(coeffs):
    return [i * c for i, c in enumerate(coeffs)][1:]


def _newton_polish(psi, dpsi, z):
    for _ in range(8):
        dv = _horner(dpsi, z)
        if dv == 0:
            return None
        step = _horner(psi, z) / dv
        z = z - step
    return z


def _scaled_derivative_profile(derivs, z, rho):
    out = []
    power = 1.0
    for m, dm in enumerate(derivs):
        out.append(abs(_horner(dm, z)) * power / factorial(m))
        power = power * rho
    return out


def _classify_root(ctx, derivs, r_raw, scale):
    """Polish one raw root and certify its multiplicity.

    Tries multiplicities from the top: polishing on the (mu-1)-th
    derivative lands exactly on a mu-fold root if there is one, and the
    scaled derivative profile at the landing point rejects wrong guesses.
    """
    deg = len(derivs[0]) - 1
    rho = max(abs(r_raw), 0.1 * scale, 1e-30)
    for mu in range(deg, 0, -1):
        z = _newton_polish(derivs[mu - 1], derivs[mu], r_raw)
        if z is None:
            continue
        spread = rho * (2.0 ** (-(ctx.bits - 12) / mu)) * 32.0
        if abs(z - r_raw) > spread:
            continue
        profile = _scaled_derivative_profile(derivs, z, rho)
        top = max(profile)
        if top == 0:
            continue
        # the floor shrinks with the tier, as spread and sig_tol do, so
        # closer simple roots certify at higher precision; 1e-3 at 53 bits
        if profile[mu] < 1e-3 * 2.0 ** ((53 - ctx.bits) / 5) * top:
            continue
        if any(profile[m] > ctx.sig_tol * top for m in range(mu)):
            continue
        return z, mu
    raise _EscalationNeeded(f"could not certify multiplicity near root {complex(r_raw)}")


def _edge_roots(ctx, coeffs, scale):
    """Distinct roots of an edge polynomial with certified multiplicities,
    one per orbit of z -> e^(2 pi i/scale) z.

    The edge polynomial is P(z^g), g the gcd of the exponents of its nonzero
    coefficients, so a root w of P of multiplicity mu gives the g roots of
    z^g = w, each of multiplicity mu; w != 0, as P's constant term is a
    hull vertex.  scale divides g, and the first g/scale of those roots
    are one per orbit.  P, of degree m, is first tried as one cluster
    P[m](w - a)^m around the mean a = -P[m-1]/(m P[m]) of its roots.  The
    cluster is accepted when _classify_root's certificate of an m-fold
    root holds at a: every entry of the scaled derivative profile at a,
    with rho = |a|, is at most sig_tol times the m-th.  That is the bound
    which tells an m-fold root from a spread of roots on the general path
    too.  A binomial, m = 1, always passes.  Any other P goes to the
    general root finder.
    """
    g = gcd(*(i for i, c in enumerate(coeffs) if c))
    P = coeffs[::g]
    m = len(P) - 1
    derivs = [P]
    for _ in range(m):
        derivs.append(_derive(derivs[-1]))
    a = -P[m - 1] / (m * P[m])
    profile = _scaled_derivative_profile(derivs, a, abs(a))
    if max(profile[:m]) <= ctx.sig_tol * profile[m]:
        roots = [(a, m)]
    else:
        roots = _certified_roots(ctx, derivs)
    return [(z, mu) for w, mu in roots for z in ctx.nth_roots(w, g)[:g // scale]]


def _certified_roots(ctx, derivs):
    """Distinct roots of derivs[0] from the general root finder, each
    polished and certified by _classify_root; derivs lists the polynomial
    and all its derivatives.  Every group of raw roots holds as many as its
    one multiplicity, so the multiplicities sum to the degree."""
    coeffs = derivs[0]
    deg = len(coeffs) - 1
    raw = ctx.poly_roots(coeffs)
    if len(raw) != deg:
        raise _EscalationNeeded(f"root finder returned {len(raw)} of {deg} roots")
    scale = max(max(abs(r) for r in raw), 1e-30)
    classified = [_classify_root(ctx, derivs, r, scale) for r in raw]
    radius = scale * (2.0 ** (-ctx.bits // 2)) * 64.0
    groups = []
    for z, mu in classified:
        for grp in groups:
            if abs(grp[0][0] - z) <= radius:
                grp.append((z, mu))
                break
        else:
            groups.append([(z, mu)])
    out = []
    for grp in groups:
        mus = {mu for _, mu in grp}
        if len(mus) != 1 or len(grp) != grp[0][1]:
            raise _EscalationNeeded(
                f"inconsistent root cluster: sizes {[m for _, m in grp]} in one group"
            )
        mu = grp[0][1]
        center = sum(z for z, _ in grp) / len(grp)
        out.append((center, mu))
    return out


# ---------------------------------------------------------------------------
# The expansion itself.
# ---------------------------------------------------------------------------


def _poly_data(ctx, f: BiPoly):
    return {(i, j): ctx.number(c) for (i, j), c in f.terms()}


def _expand(ctx, F, den, base, dn, dd, cut=False):
    """All Puiseux tails of F(x, y) = 0 with y -> 0, complete below depth.

    F maps (E, j) to the coefficient of x^(E/den) y^j, with E and den
    integers.  The root is expanded so far up to the exponent base/den, and
    depth is dn/dd, so rest = dn/dd - base/den is the depth still to go.
    Each tail is a (tden, terms, cut) triple: terms are the (N, c) pairs
    of the terms c*x^(N/tden) of the whole root, tden the finest
    denominator on its path, listed from the highest N down, so that each
    level adds its own term by appending.  cut means the tail is known only
    below depth; otherwise it is exact.  Leaf truncations telescope to the
    top depth, so depth and inf are the only truncations a series can have.

    Terms that cannot matter are dropped.  Let m be the j of the hull's
    bottom-right vertex (the one at E = 0), the number of roots expected.
    Once the hull is built, every term with E >= limit goes, where
    limit = ceil(rest*m*den) = ceil((dn*den - base*dd)*m/dd).  Such a term
    lies strictly above every supporting line of slope s < rest, because
    E/den + s*j >= rest*m > s*m >= h_s, so it is on no edge the expansion
    uses and in no edge polynomial.  Substituting y = x^q (c + y) for
    q < rest and dividing by x^(h_q), where h_q <= q*m, sends it to
    exponents E'/den' >= (rest - q)*m + q*j >= (rest - q)*mu, with mu <= m
    the multiplicity of c, which is the next level's root count.  So its
    images are terms the next level drops too, and by induction no dropped
    term ever lands on an edge or an edge polynomial.  The hull is built
    before the drop, so the count of steep tails (q >= rest) is the same
    as without it.  A dropped term may have been all that kept y from
    dividing a later F; once anything was dropped at a level above (the cut
    argument), a zero root is therefore known only below depth, not exactly.

    Each edge expands one root per orbit and rotates it into the others.
    Its lattice points have j - j1 a multiple of w = width/gcd(width,
    e1 - e2), and den' divides w*den, so scale divides w and the edge
    polynomial is phi(z) = Q(z^scale).  Each prime of scale divides the
    denominator of q as often as it divides den', so slope is prime to
    scale.  The map x^(1/tden) -> e^(2 pi i r*den/tden) x^(1/tden), on any
    finer tden, fixes F and sends the root c to c*e^(2 pi i r*slope/scale),
    so r = 0..scale-1 runs over c's orbit, and each tail of c to a tail of
    that image: its terms c*x^(N/tden) times e^(2 pi i r*den*N/tden).  A
    rotation keeps every exponent and magnitude, so every hull, drop and
    cut flag above is the same for each image as for c.
    """
    out = []
    j_min = min(j for _, j in F)
    if j_min > 0:
        out.extend((den, [], cut) for _ in range(j_min))
        F = {(e, j - j_min): c for (e, j), c in F.items()}
    degree = max(j for _, j in F)
    if degree == 0:
        return out
    hull = lower_hull((j, e) for e, j in F)
    expected = hull[-1][0]
    limit = -(-(dn * den - base * dd) * expected // dd)
    kept = {key: c for key, c in F.items() if key[0] < limit}
    cut = cut or len(kept) < len(F)
    F = kept
    for (j1, e1), (j2, e2) in zip(hull, hull[1:]):
        width = j2 - j1
        # the slope q = (e1 - e2)/(width*den) is slope/sub_den, and the
        # root runs to at/sub_den, in the finest denominator so far
        step = width * den
        sub_den = lcm(den, step // gcd(e1 - e2, step))
        scale = sub_den // den
        slope = (e1 - e2) * scale // width
        at = base * scale + slope
        if at * dd >= dn * sub_den:
            out.extend((den, [], True) for _ in range(width))
            continue
        phi = [0] * (width + 1)
        for (e, j), c in F.items():
            if j1 <= j <= j2 and (e - e1) * width == (e2 - e1) * (j - j1):
                phi[j - j1] = c
        for root, mu in _edge_roots(ctx, phi, scale):
            sub = _substitute(ctx, F, scale, slope, root)
            tails = _expand(ctx, sub, sub_den, at, dn, dd, cut)
            if len(tails) != mu:
                raise _EscalationNeeded(
                    f"root of multiplicity {mu} produced {len(tails)} continuations"
                )
            for tden, terms, tail_cut in tails:
                terms.append((at * (tden // sub_den), root))
            out.extend(tails)
            out.extend((tden, [(n, c * ctx.unit_root(r * den * n, tden)) for n, c in terms], tail_cut)
                       for r in range(1, scale) for tden, terms, tail_cut in tails)
    if len(out) != j_min + expected:
        raise _EscalationNeeded(
            f"expected {j_min + expected} local roots, assembled {len(out)}"
        )
    return out


def _substitute(ctx, F, scale, slope, c):
    """F(x, x^q (c + y)) divided by its lowest power of x, chopped.

    Exponents move to the finer denominator den' = scale*den, in which
    q = slope/den': x^(E/den) y^j becomes x^((scale*E + slope*j)/den') (c + y)^j.
    The result is scaled by 2^-k, top < 2^k for its largest coefficient
    top, which rounds nothing.
    """
    # powers[i] = c^i, multiplied up from 1 once and shared by every term
    powers = [1]
    for _ in range(max(j for _, j in F)):
        powers.append(powers[-1] * c)
    sums = {}
    peaks = {}
    for (e, j), a in F.items():
        base = scale * e + slope * j
        for t in range(j, -1, -1):
            term = a * comb(j, t) * powers[j - t]
            key = (base, t)
            sums[key] = sums.get(key, 0) + term
            mag = abs(term)
            if mag > peaks.get(key, 0.0):
                peaks[key] = mag
    new = {}
    top = 0.0
    for key, val in sums.items():
        if abs(val) > ctx.chop_tol * peaks[key]:
            new[key] = val
            if abs(val) > top:
                top = abs(val)
    if not new:
        raise _EscalationNeeded("substitution cancelled to zero")
    shift = min(e for e, _ in new)
    norm = ctx.unit_scale(top)
    return {(e - shift, j): v * norm for (e, j), v in new.items()}


def _sort_key(series: PuiseuxSeries):
    if series.terms:
        e, c = series.terms[0]
        c = complex(c)
        return (float(e), 0, phase(c), abs(c))
    return (float("inf"), 1, 0.0, 0.0)


def _expand_bipoly(ctx, f: BiPoly, depth):
    if f.is_zero():
        raise ValidationError("cannot expand the zero polynomial")
    _, f1 = f.x_content()
    tails = _expand(ctx, _poly_data(ctx, f1), 1, 0, depth.numerator, depth.denominator)
    series = [PuiseuxSeries._of_tail(den, terms[::-1], depth if cut else inf, ctx)
              for den, terms, cut in tails]
    series.sort(key=_sort_key)
    return series


def _positive_depth(depth) -> Fraction:
    depth = _rational(depth, "expansion depth", "rational")
    if depth <= 0:
        raise ValidationError(f"expansion depth must be positive, got {depth}")
    return depth


def puiseux_expand(f: BiPoly, depth, min_bits: int = 53):
    """Puiseux roots of f through the origin, complete below the given depth.

    Only branches through the origin are expanded: a factor x^a is ignored
    and roots that stay away from y = 0 are dropped.  The first attempt runs
    at the lowest tier of the precision ladder (53, 128, 256, 512 bits) that
    is at least min_bits, or at 512 bits if min_bits is higher.  Escalates
    through the rest of the ladder on any ambiguity; raises NumericError
    only when the top tier fails.
    """
    depth = _positive_depth(depth)
    if not _is_int(min_bits):
        raise ValidationError(f"min_bits must be an integer, got {min_bits!r}")
    return _with_escalation(lambda ctx: _expand_bipoly(ctx, f, depth), min_bits)


# ---------------------------------------------------------------------------
# Contact orders.
# ---------------------------------------------------------------------------


def _limit(series: PuiseuxSeries, den: int):
    """The truncation of series as an integer over den, rounded up: the
    first such exponent the series does not know; inf for an exact series."""
    t = series.truncation
    return inf if t == inf else -(-t.numerator * den // t.denominator)


def _pair_contact(ctx, a: PuiseuxSeries, b: PuiseuxSeries, den: int, limit):
    """First exponent where two series differ, as an integer over den, a
    common multiple of a._den and b._den.

    limit is the smaller _limit of the two.  Returns the integer when the
    series genuinely split there, inf when both series are exact and agree
    everywhere, and None when they agree on everything they both know.
    """
    na, nb = a._nums, b._nums
    ka, kb = den // a._den, den // b._den
    ta, tb = a.terms, b.terms
    i = j = 0
    # one merged walk up both sorted term tuples; a missing term is 0
    while True:
        ea = na[i] * ka if i < len(na) else inf
        eb = nb[j] * kb if j < len(nb) else inf
        e = min(ea, eb)
        if e >= limit:
            break
        ca = cb = 0
        if ea == e:
            ca = ta[i][1]
            i += 1
        if eb == e:
            cb = tb[j][1]
            j += 1
        denom = max(abs(ca), abs(cb))
        if denom == 0:
            continue
        ratio = abs(ca - cb) / denom
        if ratio <= ctx.eq_tol / 1e3:
            continue
        if ratio >= ctx.eq_tol * 1e3:
            return e
        raise _EscalationNeeded(
            f"coefficient comparison at x^{Fraction(e, den)} falls in the ambiguity band "
            f"({ratio:.3e})"
        )
    return None if limit != inf else inf


def _ratio(n, den):
    """n/den as a Fraction, inf staying inf."""
    return inf if n == inf else Fraction(n, den)


def _versus(got, want, den=1):
    """Two lists of numbers over den, as "[got] vs [want]" in fractions."""
    return " vs ".join("[" + ", ".join(str(_ratio(v, den)) for v in nums) + "]"
                       for nums in (got, want))


def _contacts(ctx, rows, cols, den):
    """Contact of each series in rows with each other series in cols, row by
    row, as integers over den; None where only a lower bound is known."""
    lim = [_limit(b, den) for b in cols]
    return [[_pair_contact(ctx, a, b, den, min(la, lb)) for b, lb in zip(cols, lim) if b is not a]
            for a, la in zip(rows, [_limit(a, den) for a in rows])]


def _root_contacts_deepening(f: BiPoly, h: BiPoly, depth, settled):
    """Deepen the expansions of f and h until settled(values) holds.

    values has one (best contact, decided) pair per Newton-Puiseux root of
    h: its highest order of coincidence with a root of f, and whether that
    order is exact rather than a lower bound.  Tries the given depth, or
    4, 8, 16, 32 and 64 in turn.  Returns the first settled values; raises
    ContactUndecidableError with the deepest depth tried otherwise.
    """
    if f.is_zero() or h.is_zero():
        raise ValidationError("contact of the zero polynomial is undefined")

    def worker(ctx, d):
        sf = _expand_bipoly(ctx, f, d)
        sh = _expand_bipoly(ctx, h, d)
        if not sf or not sh:
            raise ValidationError("contact needs curves through the origin")
        den = lcm(*[ps._den for ps in sf + sh])
        values = []
        for row in _contacts(ctx, sh, sf, den):
            best = max((v for v in row if v is not None), default=0)
            decided = None not in row
            # an undecided pair stops at the truncation d, above every
            # finite contact
            values.append((_ratio(best, den) if decided or best == inf else d, decided))
        return values

    depths = [_positive_depth(depth)] if depth is not None else (4, 8, 16, 32, 64)
    for d in depths:
        values = _with_escalation(lambda ctx: worker(ctx, Fraction(d)))
        if settled(values):
            return values
    raise ContactUndecidableError(Fraction(d))


def contact(f: BiPoly, h: BiPoly, depth=None):
    """Contact order of two germs: the largest order of coincidence between
    a Puiseux root of f and one of h.

    With no depth given, expansions are deepened until every root pair is
    decided.  When the contact exceeds what the deepest expansion can see,
    raises ContactUndecidableError, whose bound is the deepest depth tried
    and a lower bound for the contact.
    """
    if depth is not None:
        depth = _positive_depth(depth)
    if f == h and not f.is_zero():
        # f/x^a has a root through the origin exactly when it vanishes there
        if f.coefficient(f.ord_x(), 0):
            raise ValidationError("contact needs curves through the origin")
        return inf

    def settled(values):
        return any(v == inf for v, _ in values) or all(decided for _, decided in values)

    return max(v for v, _ in _root_contacts_deepening(f, h, depth, settled))


def root_contacts(f: BiPoly, h: BiPoly, depth=None):
    """Contact with f of each Newton-Puiseux root of h, one value per root.

    The contact of a root is its best order of coincidence over the roots
    of f.  Values come back sorted, largest first.  Deepens and escalates
    like contact(); raises ContactUndecidableError when the deepest
    expansion still leaves some root undecided; its bound is the deepest
    depth tried.
    """
    values = _root_contacts_deepening(
        f, h, depth, lambda values: all(decided or v == inf for v, decided in values)
    )
    return sorted((v for v, _ in values), reverse=True)


# ---------------------------------------------------------------------------
# Contact classes of the jacobian curve and the diagram oracle.
# ---------------------------------------------------------------------------


class ContactClass(Value):
    """One group of jacobian roots sharing their contact with the branch.

    contact is None for the residual class, which also absorbs the pure
    x power of the jacobian; intersection numbers are exact integers.
    """

    __slots__ = (
        "index",
        "contact",
        "roots",
        "x_power",
        "f_intersection",
        "fk_intersection",
        "x_intersection",
    )

    def __init__(self, index, contact_value, roots, x_power, f_int, fk_int):
        _fill(self, "index", index)
        _fill(self, "contact", contact_value)
        _fill(self, "roots", tuple(roots))
        _fill(self, "x_power", x_power)
        _fill(self, "f_intersection", f_int)
        _fill(self, "fk_intersection", fk_int)
        _fill(self, "x_intersection", len(roots))

    def _key(self):
        return (self.index, self.contact, self.roots, self.x_power,
                self.f_intersection, self.fk_intersection)

    def segment(self) -> ElementarySegment:
        return ElementarySegment(self.f_intersection, self.fk_intersection)

    def __repr__(self):
        tag = "residual" if self.contact is None else f"contact {self.contact}"
        return (
            f"ContactClass({tag}, roots={len(self.roots)}, x_power={self.x_power}, "
            f"f={self.f_intersection}, fk={self.fk_intersection})"
        )


def _decided_contacts(ctx, rows, cols, den, what):
    """_contacts, escalating if any is only a lower bound; all the series share
    one depth, their lowest truncation, which the message names as the bound."""
    matrix = _contacts(ctx, rows, cols, den)
    if any(None in row for row in matrix):
        raise _EscalationNeeded(f"{what}: contact undecided at bound "
                                f"{min(ps.truncation for ps in rows + cols)}")
    return matrix


def _int_or_escalate(total: int, den: int, what: str) -> int:
    """total/den, which must be an integer."""
    quotient, rest = divmod(total, den)
    if rest:
        raise _EscalationNeeded(f"{what} summed to the non-integer {Fraction(total, den)}")
    return quotient


def _jacobian_diagram(ord_f, ord_fk, den, alpha, deg_f, deg_fk) -> NewtonDiagram:
    """The jacobian Newton diagram of (f_k, f) by its definition (Teissier
    1977): {I(gamma, f) \\ I(gamma, f_k)} summed by reduced inclination over
    the jacobian's roots gamma, of orders ord_f and ord_fk over den, and its
    factor x^alpha, of orders alpha*deg_f and alpha*deg_fk: I(x, p) = deg_y p."""
    sums = {}
    for a, b in zip([alpha * deg_f * den, *ord_f], [alpha * deg_fk * den, *ord_fk]):
        d = gcd(a, b)
        if d:  # 0 only for x^alpha with alpha = 0
            sa, sb = sums.get((a // d, b // d), (0, 0))
            sums[a // d, b // d] = (sa + a, sb + b)
    return NewtonDiagram([
        ElementarySegment(_int_or_escalate(a, den, f"length at inclination {p}/{q}"),
                          _int_or_escalate(b, den, f"height at inclination {p}/{q}"))
        for (p, q), (a, b) in sums.items()])


def _verifier_depth(s) -> Fraction:
    """b_g/b_0 + 1, the depth of both verifiers, from the semigroup."""
    b = semigroup_to_char(s).exponents
    return Fraction(b[-1], b[0]) + 1


def _conjugate_contacts(ctx, sigma, b0):
    """den, the lcm of b_0 and the denominators of f's roots sigma, and
    the contacts of each root with its conjugates over den."""
    den = lcm(b0, *[ps._den for ps in sigma])
    return den, _decided_contacts(ctx, sigma, sigma, den, "conjugate roots of f")


def _conjugate_profile(b, l, conjugates, den, k):
    """(ok, detail) of the conjugate contacts over den of a branch of
    characteristic b and gcds l: above b_(k+1)/b_0 each root shares b_j/b_0
    with exactly l_(j-1) - l_j conjugates, j = k+2..g; k = -1 is all of them."""
    unit = den // b[0]
    expected = [b[j] * unit for j in range(k + 2, len(b)) for _ in range(l[j - 1] - l[j])]
    profiles = [sorted(v for v in row if v > b[k + 1] * unit) for row in conjugates]
    wrong = next((p for p in profiles if p != expected), None)
    return wrong is None, "" if wrong is None else _versus(wrong, expected, den)


def _setup(f: BiPoly, k=None, fk: BiPoly | None = None):
    """The exact half of Merle's polar decomposition of one branch: its
    semigroup s, from the one Abhyankar-Moh iteration that also gives its
    characteristic roots, and roots, mapping each index k to (f_k, J_k), a
    curve of maximal contact and the jacobian of (f_k, f).  The indices
    are 0..g-1 when k is None, or k, or the index of a supplied fk, which
    is accepted here or never: at the index of its degree b_0/l_k, which
    strictly increases with k, when I(f, fk) = v_(k+1), read off an
    expansion in f's roots."""
    s, char_roots = _am_iteration(f)
    g = s.genus
    if g == 0:
        raise ValidationError("a smooth branch has no jacobian decomposition")
    if k is not None:
        _check_index(s, k)
    if fk is None:
        roots = {i: char_roots[i] for i in (range(g) if k is None else [k])}
    else:
        degrees = [s.multiplicity // s.gcds[i] for i in range(g)]
        if not fk.is_weierstrass():
            raise ValidationError("the supplied root must be a Weierstrass polynomial")
        if k is None:
            if fk.deg_y() not in degrees:
                raise ValidationError(
                    f"the supplied root has y-degree {fk.deg_y()}; a curve of maximal "
                    f"contact of index 0..{g - 1} has y-degree {degrees} respectively"
                )
            k = degrees.index(fk.deg_y())
        if fk.deg_y() != degrees[k]:
            raise ValidationError(
                f"the supplied root has y-degree {fk.deg_y()}, index {k} "
                f"requires {degrees[k]}"
            )
        # I(f, fk) sums a strictly increasing function of the contact
        # with f over the d = b_0/l_k roots of fk.  No root passes
        # b_(k+1)/b_0, which needs ramification b_0/l_(k+1) > d, so
        # I(f, fk) <= I(f, f_k) = v_(k+1), equal exactly when every
        # root attains b_(k+1)/b_0: each then has ramification d, so
        # fk is irreducible, its roots conjugate
        if (meet := intersection_multiplicity(f, fk)) != s.generators[k + 1]:
            raise ValidationError(f"the supplied root has intersection number {meet} with "
                                  f"the branch, not v_{k + 1} = {s.generators[k + 1]}; "
                                  f"it is not a curve of maximal contact of index {k}")
        roots = {k: fk}
    roots = {i: (fk_i, jacobian_det(fk_i, f)) for i, fk_i in roots.items()}
    if any(jac.is_zero() for _, jac in roots.values()):
        raise ValidationError("the jacobian determinant vanishes identically")
    return s, roots


def _measure(ctx, f: BiPoly, roots, depth):
    """The numeric half at one precision tier, the same for every k: f's
    roots sigma, expanded once, and per k of roots the (classes, jac_counts,
    diagram) triple of _classify against them.  The depth is its one input
    from the semigroup.  Each caller runs it under _with_escalation, so an
    escalation at any k reruns every k, with whatever the caller measures
    beside it, at the next tier."""
    sigma = _expand_bipoly(ctx, f, depth)
    return sigma, {k: _classify(ctx, sigma, fk, jac, depth) for k, (fk, jac) in roots.items()}


def _classify(ctx, sigma, fk: BiPoly, jac: BiPoly, depth):
    """Contact classes of the roots of jac, the jacobian of (fk, f), the
    deep roots' counts at their own contact with fk or more with each root
    of f, and the diagram of (fk, f), all from measured contacts and none
    from the semigroup; sigma are the roots of f.  Every root of fk,
    certified in the set-up, meets f at exactly b_(k+1)/b_0 and contact is
    ultrametric, so a root meeting f at tau above its contact tau_k with
    fk meets fk at exactly b_(k+1)/b_0: it is deep, in the class of tau.
    Every other root, tau_k = inf included, meets f and fk alike and is
    residual.  Every contact is compared as an integer over a common
    multiple of the denominators of the series involved."""
    alpha, j1 = jac.x_content()
    # _expand escalates unless it finds every root, so no count of
    # sigma, sigma_k or gamma needs a check here, and the counts of
    # sigma and sigma_k are the y-degrees, I(x, f) and I(x, f_k)
    sigma_k = _expand_bipoly(ctx, fk, depth)
    gamma = _expand_bipoly(ctx, j1, depth)
    # a list: star-arguments from a generator build a resized tuple, which grows RSS
    den = lcm(*[ps._den for ps in sigma + sigma_k + gamma])
    o_f = _decided_contacts(ctx, gamma, sigma, den, "jacobian root against f")
    o_fk = _decided_contacts(ctx, gamma, sigma_k, den,
                             "jacobian root against the approximate root")
    # I(gamma, f) and I(gamma, f_k) of each jacobian root, over den
    ord_f = [sum(row) for row in o_f]
    ord_fk = [sum(row) for row in o_fk]
    keys = [tau if tau > tau_k else None for tau, tau_k in zip(map(max, o_f), map(max, o_fk))]
    # one class per key, roots in gamma order: None for the residual
    # class, present even when empty, then the deep ones by contact
    members = {key: [i for i, ki in enumerate(keys) if ki == key]
               for key in [None, *sorted(set(keys) - {None})]}
    classes = []
    for pos, (key, idxs) in enumerate(members.items()):
        # the residual class also takes the factor x^alpha of the jacobian
        x_power = alpha if key is None else 0
        tau = None if key is None else Fraction(key, den)
        what = "residual class {}" if key is None else f"class {{}} at contact {tau}"
        f_sum = x_power * len(sigma) * den + sum(ord_f[i] for i in idxs)
        fk_sum = x_power * len(sigma_k) * den + sum(ord_fk[i] for i in idxs)
        classes.append(ContactClass(pos, tau, [gamma[i] for i in idxs], x_power,
                                    _int_or_escalate(f_sum, den, what.format("length")),
                                    _int_or_escalate(fk_sum, den, what.format("height"))))
    deep = [(row, max(row_k)) for row, row_k, key in zip(o_f, o_fk, keys) if key is not None]
    jac_counts = [sum(row[s_idx] >= tau_k for row, tau_k in deep)
                  for s_idx in range(len(sigma))]
    diagram = _jacobian_diagram(ord_f, ord_fk, den, alpha, len(sigma), len(sigma_k))
    return classes, jac_counts, diagram


def _one_index(f: BiPoly, k: int | None, fk: BiPoly | None):
    """The _classify triple of the one index _setup measures: k, or the
    index that a supplied fk's degree names.  k = None without fk names
    none, and is refused once f is certified, before any jacobian."""
    if k is None and fk is None:
        _check_index(semigroup_of(f), k)
    s, roots = _setup(f, k, fk)
    depth = _verifier_depth(s)
    (triple,) = _with_escalation(lambda ctx: _measure(ctx, f, roots, depth))[1].values()
    return triple


def contact_classes(f: BiPoly, k: int | None, fk: BiPoly | None = None):
    """Decompose the jacobian of (k-th root, f) by contact with the branch."""
    return _one_index(f, k, fk)[0]


def jnd_oracle(f: BiPoly, k: int | None, fk: BiPoly | None = None) -> NewtonDiagram:
    """Jacobian Newton diagram measured from actual Puiseux roots.

    Independent of the closed formula: the jacobian curve is expanded, and
    each root gamma contributes the segment {I(gamma, f) \\ I(gamma, f_k)}
    of its contacts with the roots of f and of f_k; the factor x^alpha of
    the jacobian contributes {alpha*deg_y f \\ alpha*deg_y f_k}.
    """
    return _one_index(f, k, fk)[2]


def verify_cycle(f: BiPoly):
    """Certify numerically that f defines a single branch.

    Its roots, expanded at b_g/b_0 + 1, must form one conjugacy cycle: the
    full count, ramification b_0 in every root, and the conjugate contact
    profile of the whole cycle, each root sharing b_j/b_0 with exactly
    l_(j-1) - l_j conjugates for j = 1..g.  The expander escalates unless it
    finds every root, so the count holds by construction; the other two
    check the branch, every characteristic exponent included.
    """
    s = semigroup_of(f)
    b0 = s.multiplicity
    depth = _verifier_depth(s)

    def worker(ctx):
        sigma = _expand_bipoly(ctx, f, depth)
        return sigma, *_conjugate_contacts(ctx, sigma, b0)

    series, den, conjugates = _with_escalation(worker)
    rams = sorted({ps.ramification() for ps in series})
    b = semigroup_to_char(s).exponents
    report = [("root count", len(series) == f.deg_y(), f"{len(series)} of {f.deg_y()}"),
              ("ramification", rams == [b0], f"{rams} vs [{b0}]"),
              ("conjugate contact profile", *_conjugate_profile(b, s.gcds, conjugates, den, -1))]
    failures = [name for name, ok, _ in report if not ok]
    if failures:
        raise VerificationError(f"cycle verification failed: {failures}")
    return report


def verify_decomposition(f: BiPoly, k: int | None = None, fk: BiPoly | None = None):
    """Cross-check the closed diagram formula against Puiseux reality.

    Runs, for each index (or the one given): the measured diagram, the
    conjugate-contact profile of f, the jacobian contact counts, the class
    sizes, both diagram totals, and the exact totals I(J_k, f) and
    I(J_k, f_k).  One numeric attempt per tier measures every index and
    the contacts between conjugate roots of f, so an escalation anywhere
    reruns all of it.  The profile is _conjugate_profile's rule at k; the
    deep classes must lie one at each b_j/b_0, j = k+2..g, and hold the
    predicted root counts.
    The exact totals come from intersection_multiplicity, which reads them
    off the expansion in the characteristic roots of the branch just certified;
    only I(J_k, fk) for a supplied fk that is none of them takes the
    resultant.  A supplied fk is accepted exactly, before any numeric work
    (see _setup).  Returns the full report; raises VerificationError on
    any failure.
    """
    s, roots = _setup(f, k, fk)
    depth = _verifier_depth(s)
    b = semigroup_to_char(s).exponents
    b0 = b[0]
    g = s.genus
    l = s.gcds
    n = s.n_factors

    def worker(ctx):
        sigma, measured = _measure(ctx, f, roots, depth)
        return measured, *_conjugate_contacts(ctx, sigma, b0)

    measured, den, conjugates = _with_escalation(worker)
    family = jnd_family(s)
    report = []

    def check(name, ok, detail=""):
        report.append((name, bool(ok), detail))

    def same(name, got, want):
        check(name, got == want, f"{got} vs {want}")

    for kk, (classes, jac_counts, diagram) in measured.items():
        tag = f"k={kk}"
        same(f"{tag}: oracle diagram matches formula", diagram, family[kk])
        check(f"{tag}: conjugate contact profile", *_conjugate_profile(b, l, conjugates, den, kk))

        expected_jac = n[kk] * (l[kk + 1] - 1)
        check(
            f"{tag}: jacobian roots at deep contact",
            all(c == expected_jac for c in jac_counts),
            f"{sorted(set(jac_counts))} vs {expected_jac}",
        )

        contacts = [cls.contact for cls in classes[1:]]
        expected_contacts = [Fraction(b[i], b0) for i in range(kk + 2, g + 1)]
        sizes = [cls.x_intersection for cls in classes[1:]]
        expected_sizes = [(b0 // l[i - 1]) * (n[i - 1] - 1) for i in range(kk + 2, g + 1)]
        detail = (f"contacts {_versus(contacts, expected_contacts)}"
                  if contacts != expected_contacts
                  else f"{sizes} vs {expected_sizes}" if sizes != expected_sizes else "")
        check(f"{tag}: class sizes", not detail, detail)

        zeros_deep = any(
            any(r.is_exact_zero() for r in cls.roots) for cls in classes[1:]
        )
        check(f"{tag}: x factor and zero roots stay residual", not zeros_deep)

        mu_k = approximate_root_semigroup(s, kk).milnor()
        v_next = s.generators[kk + 1]
        height_total = sum(cls.fk_intersection for cls in classes)
        length_total = sum(cls.f_intersection for cls in classes)
        same(f"{tag}: height total is mu_k + v_(k+1) - 1", height_total, mu_k + v_next - 1)
        same(f"{tag}: length total is mu + v_(k+1) - 1", length_total, s.milnor() + v_next - 1)

        fk_k, jac = roots[kk]
        same(f"{tag}: exact length total", intersection_multiplicity(jac, f), length_total)
        same(f"{tag}: exact height total", intersection_multiplicity(jac, fk_k), height_total)

    failures = [(name, detail) for name, ok, detail in report if not ok]
    if failures:
        lines = "; ".join(f"{name} ({detail})" if detail else name for name, detail in failures)
        raise VerificationError(f"decomposition checks failed: {lines}")
    return report
