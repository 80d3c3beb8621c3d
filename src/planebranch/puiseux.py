"""Floating point Newton-Puiseux expansion and contact-class verification.

Everything exact in this package has an independent check that goes through
actual Puiseux roots: series are expanded at machine precision first, and
every decision that could be corrupted by rounding (coefficient equality,
root multiplicity, class membership) either passes a consistency test or
triggers a retry of the whole computation at a higher precision tier.
Exactness re-enters through the exponents, which are always Fractions, so
contact orders and intersection numbers read off the series are exact the
moment the coefficient decisions are trusted.
"""

from __future__ import annotations

from contextlib import nullcontext
from fractions import Fraction
from math import comb, factorial, inf, lcm

import mpmath
import numpy as np
from mpmath.libmp import NoConvergence

from .branch import (
    approximate_root_semigroup,
    characteristic_roots,
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
from .jacobian import jnd_formula
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

    def guard(self):
        if self.bits <= 53:
            return nullcontext()
        return mpmath.workprec(self.bits + 20)

    def number(self, q: Fraction):
        if self.bits <= 53:
            return complex(q)
        return mpmath.mpc(mpmath.mpf(q.numerator) / mpmath.mpf(q.denominator))

    def poly_roots(self, coeffs):
        """Roots of a dense polynomial, constant term first."""
        deg = len(coeffs) - 1
        if deg == 1:
            return [-coeffs[0] / coeffs[1]]
        if self.bits <= 53:
            arr = np.array(list(reversed(coeffs)), dtype=np.complex128)
            return [complex(r) for r in np.roots(arr)]
        try:
            roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=self.bits)
        except NoConvergence as exc:
            raise _EscalationNeeded(f"root finder did not converge at {self.bits} bits") from exc
        return list(roots)

    def __repr__(self):
        return f"NumericContext(bits={self.bits})"


def _ladder_from(min_bits):
    steps = [b for b in _LADDER if b >= min_bits]
    return steps or [_LADDER[-1]]


def _with_escalation(worker, min_bits=53):
    failure = None
    for bits in _ladder_from(min_bits):
        ctx = NumericContext(bits)
        try:
            with ctx.guard():
                return worker(ctx)
        except _EscalationNeeded as exc:
            failure = exc
    raise NumericError(f"undecidable at {_LADDER[-1]} bits: {failure}")


class PuiseuxSeries:
    """A truncated fractional power series in x.

    Terms are (exponent, coefficient) pairs with exact Fraction exponents;
    every exponent below the truncation is present.  The exact zero series
    has no terms and infinite truncation.
    """

    __slots__ = ("terms", "truncation", "context", "_by_exp")

    def __init__(self, terms, truncation, context=None):
        terms = tuple(sorted(terms, key=lambda t: t[0]))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "truncation", truncation)
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "_by_exp", {e: c for e, c in terms})

    def __setattr__(self, name, value):
        raise AttributeError("PuiseuxSeries is immutable")

    def support(self):
        return tuple(e for e, _ in self.terms)

    def coefficient(self, e):
        return self._by_exp.get(e, 0)

    def is_exact_zero(self) -> bool:
        return not self.terms and self.truncation == inf

    def order(self):
        """Lowest exponent; inf for the zero series, None if nothing is known."""
        if self.terms:
            return self.terms[0][0]
        return inf if self.truncation == inf else None

    def ramification(self) -> int:
        return lcm(1, *(e.denominator for e, _ in self.terms))

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


def _newton_polish(psi, dpsi, z, rounds=8):
    for _ in range(rounds):
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
        if profile[mu] < 1e-3 * top:
            continue
        if any(profile[m] > ctx.sig_tol * top for m in range(mu)):
            continue
        return z, mu
    raise _EscalationNeeded(f"could not certify multiplicity near root {complex(r_raw)}")


def _edge_roots(ctx, coeffs):
    """Distinct roots of an edge polynomial with certified multiplicities."""
    deg = len(coeffs) - 1
    derivs = [list(coeffs)]
    for _ in range(deg):
        derivs.append(_derive(derivs[-1]))
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
    total = 0
    for grp in groups:
        mus = {mu for _, mu in grp}
        if len(mus) != 1 or len(grp) != grp[0][1]:
            raise _EscalationNeeded(
                f"inconsistent root cluster: sizes {[m for _, m in grp]} in one group"
            )
        mu = grp[0][1]
        center = sum(z for z, _ in grp) / len(grp)
        out.append((center, mu))
        total += mu
    if total != deg:
        raise _EscalationNeeded(f"multiplicities sum to {total}, expected {deg}")
    return out


# ---------------------------------------------------------------------------
# The expansion itself.
# ---------------------------------------------------------------------------


def _poly_data(ctx, f: BiPoly):
    return {(Fraction(i), j): ctx.number(c) for (i, j), c in f.terms()}


def _expand(ctx, F, depth):
    """All Puiseux tails of F(x, y) = 0 with y -> 0, complete below depth.

    Each tail is a (terms, truncation) pair, as PuiseuxSeries takes them.
    """
    out = []
    j_min = min(j for _, j in F)
    if j_min > 0:
        out.extend(([], inf) for _ in range(j_min))
        F = {(e, j - j_min): c for (e, j), c in F.items()}
    degree = max(j for _, j in F)
    if degree == 0:
        return out
    level = {}
    for (e, j), c in F.items():
        if j not in level or e < level[j]:
            level[j] = e
    hull = lower_hull(sorted(level.items()))
    expected = hull[-1][0]
    for (j1, e1), (j2, e2) in zip(hull, hull[1:]):
        q = (e1 - e2) / (j2 - j1)
        width = j2 - j1
        if q >= depth:
            out.extend(([], depth) for _ in range(width))
            continue
        phi = [0] * (width + 1)
        for (e, j), c in F.items():
            if j1 <= j <= j2 and e == e1 - q * (j - j1):
                phi[j - j1] = c
        for root, mu in _edge_roots(ctx, phi):
            sub = _substitute(ctx, F, q, root)
            tails = _expand(ctx, sub, depth - q)
            if len(tails) != mu:
                raise _EscalationNeeded(
                    f"root of multiplicity {mu} produced {len(tails)} continuations"
                )
            for terms, trunc in tails:
                out.append(([(q, root)] + [(q + e, c) for e, c in terms], q + trunc))
    if len(out) != j_min + expected:
        raise _EscalationNeeded(
            f"expected {j_min + expected} local roots, assembled {len(out)}"
        )
    return out


def _substitute(ctx, F, q, c):
    """F(x, x^q (c + y)) divided by its lowest power of x, chopped."""
    sums = {}
    peaks = {}
    for (e, j), a in F.items():
        base = e + q * j
        cm = 1
        for t in range(j, -1, -1):
            # cm = c^(j-t), built up while t descends
            term = a * comb(j, t) * cm
            key = (base, t)
            sums[key] = sums.get(key, 0) + term
            mag = abs(term)
            if mag > peaks.get(key, 0.0):
                peaks[key] = mag
            cm = cm * c
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
    scale = 1.0 / top
    return {(e - shift, j): v * scale for (e, j), v in new.items()}


def _sort_key(series: PuiseuxSeries):
    if series.terms:
        e, c = series.terms[0]
        c = complex(c)
        return (float(e), 0, np.angle(c), abs(c))
    return (float("inf"), 1, 0.0, 0.0)


def _expand_bipoly(ctx, f: BiPoly, depth):
    if f.is_zero():
        raise ValidationError("cannot expand the zero polynomial")
    _, f1 = f.x_content()
    if f1.deg_y() == 0:
        return []
    tails = _expand(ctx, _poly_data(ctx, f1), depth)
    series = [PuiseuxSeries(terms, trunc, ctx) for terms, trunc in tails]
    series.sort(key=_sort_key)
    return series


def puiseux_expand(f: BiPoly, depth, min_bits: int = 53):
    """Puiseux roots of f through the origin, complete below the given depth.

    Only branches through the origin are expanded: a factor x^a is ignored
    and roots that stay away from y = 0 are dropped.  The first attempt runs
    at the lowest tier of the precision ladder (53, 128, 256, 512 bits) that
    is at least min_bits, or at 512 bits if min_bits is higher.  Escalates
    through the rest of the ladder on any ambiguity; raises NumericError
    only when the top tier fails.
    """
    depth = Fraction(depth)
    if depth <= 0:
        raise ValidationError(f"expansion depth must be positive, got {depth}")
    return _with_escalation(lambda ctx: _expand_bipoly(ctx, f, depth), min_bits)


# ---------------------------------------------------------------------------
# Contact orders.
# ---------------------------------------------------------------------------


def _pair_contact(ctx, a: PuiseuxSeries, b: PuiseuxSeries):
    """First exponent where two series differ.

    Returns (value, decided): decided means the series genuinely split at
    that exponent; otherwise they agree on everything known and the value
    is only a lower bound (inf if both series are exact).
    """
    bound = min(a.truncation, b.truncation)
    exps = sorted(set(a.support()) | set(b.support()))
    for e in exps:
        if e >= bound:
            break
        ca = a.coefficient(e)
        cb = b.coefficient(e)
        denom = max(abs(ca), abs(cb))
        if denom == 0:
            continue
        ratio = abs(ca - cb) / denom
        if ratio <= ctx.eq_tol / 1e3:
            continue
        if ratio >= ctx.eq_tol * 1e3:
            return e, True
        raise _EscalationNeeded(
            f"coefficient comparison at x^{e} falls in the ambiguity band ({ratio:.3e})"
        )
    if bound == inf:
        return inf, True
    return bound, False


def _root_contacts_deepening(f: BiPoly, h: BiPoly, depth, settled):
    """Deepen the expansions of f and h until settled(values) holds.

    values has one (best contact, decided) pair per Newton-Puiseux root of
    h: its highest order of coincidence with a root of f, and whether that
    order is exact rather than a lower bound.  Tries the given depth, or
    4, 8, 16, 32 and 64 in turn.  Returns the first settled values; raises
    ContactUndecidableError with the largest undecided bound otherwise.
    """
    if f.is_zero() or h.is_zero():
        raise ValidationError("contact of the zero polynomial is undefined")

    def worker(ctx, d):
        sf = _expand_bipoly(ctx, f, d)
        sh = _expand_bipoly(ctx, h, d)
        if not sf or not sh:
            raise ValidationError("contact needs curves through the origin")
        values = []
        for b in sh:
            pairs = [_pair_contact(ctx, a, b) for a in sf]
            values.append((max(v for v, _ in pairs), all(decided for _, decided in pairs)))
        return values

    depths = [depth] if depth is not None else (4, 8, 16, 32, 64)
    bound = Fraction(0)
    for d in depths:
        values = _with_escalation(lambda ctx: worker(ctx, Fraction(d)))
        if settled(values):
            return values
        # an undecided value is the expansion depth, and every decided
        # contact lies below it, so this is also the largest value seen
        bound = max(bound, max(v for v, decided in values if not decided))
    raise ContactUndecidableError(bound)


def contact(f: BiPoly, h: BiPoly, partial: bool = False, depth=None):
    """Contact order of two germs: the largest order of coincidence between
    a Puiseux root of f and one of h.

    With no depth given, expansions are deepened until every root pair is
    decided.  When the contact exceeds what the deepest expansion can see,
    returns the best lower bound if partial is set and raises
    ContactUndecidableError otherwise.
    """
    if f == h and not f.is_zero():
        return inf

    def settled(values):
        return any(v == inf for v, _ in values) or all(decided for _, decided in values)

    try:
        values = _root_contacts_deepening(f, h, depth, settled)
    except ContactUndecidableError as exc:
        if partial:
            return exc.bound
        raise
    return max(v for v, _ in values)


def root_contacts(f: BiPoly, h: BiPoly, depth=None):
    """Contact with f of each Newton-Puiseux root of h, one value per root.

    The contact of a root is its best order of coincidence over the roots
    of f.  Values come back sorted, largest first.  Deepens and escalates
    like contact(); raises ContactUndecidableError when the deepest
    expansion still leaves some root undecided.
    """
    values = _root_contacts_deepening(
        f, h, depth, lambda values: all(decided or v == inf for v, decided in values)
    )
    return sorted((v for v, _ in values), reverse=True)


# ---------------------------------------------------------------------------
# Contact classes of the jacobian curve and the diagram oracle.
# ---------------------------------------------------------------------------


class ContactClass:
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
        self.index = index
        self.contact = contact_value
        self.roots = tuple(roots)
        self.x_power = x_power
        self.f_intersection = f_int
        self.fk_intersection = fk_int
        self.x_intersection = len(roots)

    def segment(self) -> ElementarySegment:
        return ElementarySegment(self.f_intersection, self.fk_intersection)

    def __repr__(self):
        tag = "residual" if self.contact is None else f"contact {self.contact}"
        return (
            f"ContactClass({tag}, roots={len(self.roots)}, x_power={self.x_power}, "
            f"f={self.f_intersection}, fk={self.fk_intersection})"
        )


def _decided_contact(ctx, a, b, what):
    v, decided = _pair_contact(ctx, a, b)
    if not decided:
        raise _EscalationNeeded(f"{what}: contact undecided at bound {v}")
    return v


def _int_or_escalate(value: Fraction, what: str) -> int:
    value = Fraction(value)
    if value.denominator != 1:
        raise _EscalationNeeded(f"{what} summed to the non-integer {value}")
    return int(value)


def _local_root_count(j1: BiPoly) -> int:
    """Number of Puiseux roots of j1 through the origin, zero series included."""
    at_zero = [j for (i, j) in j1.support() if i == 0]
    if not at_zero:
        raise ValidationError("polynomial vanishes on x = 0 after content removal")
    return min(at_zero)


class _Decomposition:
    """Merle's polar decomposition of one branch, for each requested index k.

    contact_classes, jnd_oracle and verify_decomposition all read from it.
    The exact set-up runs once: the semigroup of f, its characteristic
    roots (skipped when fk is supplied), the genus, index and fk checks,
    and one jacobian determinant per k.  The numeric work is one worker
    under _with_escalation: it expands f once at the depth b_g/b_0 + 1 that
    every k shares, classifies the jacobian roots of each k against those
    roots, and then measures the contacts of each root of f with its
    conjugates once.  An escalation at any k therefore reruns every k at
    the next tier.

    indices lists the k to decompose, None meaning 0..g-1.  Per k,
    roots[k] is the curve of maximal contact, jacobians[k] the
    jacobian of (roots[k], f), classes[k] its contact classes and
    jac_counts[k], for each root of f, the number of jacobian roots with
    contact at least b_(k+1)/b_0 with it.  self_contacts holds, for each
    root of f, its contacts with the other conjugates.
    """

    def __init__(self, f: BiPoly, indices=None, fk: BiPoly | None = None):
        s = semigroup_of(f)
        if s.genus == 0:
            raise ValidationError("a smooth branch has no jacobian decomposition")
        if indices is None:
            indices = range(s.genus)
        for k in indices:
            if not isinstance(k, int) or not 0 <= k <= s.genus - 1:
                raise ValidationError(f"diagram index must lie in 0..{s.genus - 1}, got {k!r}")
        self.fk_given = fk is not None
        if self.fk_given:
            if not fk.is_monic_in_y() or not fk.is_weierstrass():
                raise ValidationError("the supplied root must be a Weierstrass polynomial")
            for k in indices:
                if fk.deg_y() != s.multiplicity // s.gcds[k]:
                    raise ValidationError(
                        f"the supplied root has y-degree {fk.deg_y()}, index {k} "
                        f"requires {s.multiplicity // s.gcds[k]}"
                    )
            self.roots = dict.fromkeys(indices, fk)
        else:
            char_roots = characteristic_roots(f)
            self.roots = {k: char_roots[k] for k in indices}
        self.jacobians = {k: jacobian_det(fk_k, f) for k, fk_k in self.roots.items()}
        if any(jac.is_zero() for jac in self.jacobians.values()):
            raise ValidationError("the jacobian determinant vanishes identically")
        self.f = f
        self.s = s
        self.exponents = semigroup_to_char(s).exponents
        self.depth = Fraction(self.exponents[-1], self.exponents[0]) + 1
        self.classes, self.jac_counts, self.self_contacts = _with_escalation(self._measure)

    def _measure(self, ctx):
        b0 = self.exponents[0]
        sigma = _expand_bipoly(ctx, self.f, self.depth)
        if len(sigma) != b0:
            raise _EscalationNeeded(f"expected {b0} roots of f, got {len(sigma)}")
        classes, jac_counts = {}, {}
        for k in self.roots:
            classes[k], jac_counts[k] = self._classify(ctx, sigma, k)
        self_contacts = [
            [
                _decided_contact(ctx, sa, sb, "conjugate roots of f")
                for b_idx, sb in enumerate(sigma)
                if b_idx != a_idx
            ]
            for a_idx, sa in enumerate(sigma)
        ]
        return classes, jac_counts, self_contacts

    def _classify(self, ctx, sigma, k):
        """Contact classes of the jacobian roots of index k, and their counts
        at contact b_(k+1)/b_0 or more with each root of f."""
        s, b = self.s, self.exponents
        b0 = b[0]
        g = s.genus
        alpha, j1 = self.jacobians[k].x_content()
        sigma_k = _expand_bipoly(ctx, self.roots[k], self.depth)
        gamma = _expand_bipoly(ctx, j1, self.depth)
        if len(sigma_k) != b0 // s.gcds[k]:
            raise _EscalationNeeded(
                f"expected {b0 // s.gcds[k]} roots of the approximate root"
            )
        expected_local = _local_root_count(j1)
        if len(gamma) != expected_local:
            raise _EscalationNeeded(
                f"expected {expected_local} local jacobian roots, got {len(gamma)}"
            )
        threshold = Fraction(b[k + 1], b0)
        if self.fk_given:
            best = max(
                _decided_contact(ctx, sp, so, "validating the supplied root")
                for sp in sigma_k
                for so in sigma
            )
            if best != threshold:
                raise ValidationError(
                    f"supplied polynomial has contact {best} with the branch, "
                    f"expected {threshold}; it is not a curve of "
                    f"maximal contact of index {k}"
                )
        o_f = [
            [_decided_contact(ctx, gm, so, "jacobian root against f") for so in sigma]
            for gm in gamma
        ]
        o_fk = [
            [_decided_contact(ctx, gm, sp, "jacobian root against the approximate root")
             for sp in sigma_k]
            for gm in gamma
        ]
        char_levels = {Fraction(b[i], b0): i for i in range(k + 2, g + 1)}
        residual_members = []
        deep_members = {i: [] for i in range(k + 2, g + 1)}
        for idx, gm in enumerate(gamma):
            tau = max(o_f[idx])
            if tau < threshold:
                residual_members.append(idx)
            elif tau in char_levels:
                deep_members[char_levels[tau]].append(idx)
            else:
                raise _EscalationNeeded(
                    f"jacobian root has contact {tau} with the branch, which is "
                    f"neither below {threshold} nor a characteristic value"
                )
        classes = []
        l_k = s.gcds[k]
        f_sum = alpha * Fraction(s.generators[0])
        fk_sum = alpha * Fraction(b0, l_k)
        for idx in residual_members:
            f_sum += sum(o_f[idx])
            fk_sum += sum(o_fk[idx])
        classes.append(
            ContactClass(
                0,
                None,
                [gamma[i] for i in residual_members],
                alpha,
                _int_or_escalate(f_sum, "residual class length"),
                _int_or_escalate(fk_sum, "residual class height"),
            )
        )
        for pos, i in enumerate(sorted(deep_members), start=1):
            members = deep_members[i]
            f_sum = sum(sum(o_f[idx]) for idx in members)
            fk_sum = sum(sum(o_fk[idx]) for idx in members)
            classes.append(
                ContactClass(
                    pos,
                    Fraction(b[i], b0),
                    [gamma[idx] for idx in members],
                    0,
                    _int_or_escalate(f_sum, f"class length at contact {b[i]}/{b0}"),
                    _int_or_escalate(fk_sum, f"class height at contact {b[i]}/{b0}"),
                )
            )
        jac_counts = [
            sum(1 for idx in range(len(gamma)) if o_f[idx][s_idx] >= threshold)
            for s_idx in range(len(sigma))
        ]
        return classes, jac_counts


def contact_classes(f: BiPoly, k: int, fk: BiPoly | None = None):
    """Decompose the jacobian of (k-th root, f) by contact with the branch."""
    return _Decomposition(f, [k], fk).classes[k]


def _oracle_diagram(classes) -> NewtonDiagram:
    segments = []
    for cls in classes:
        if cls.f_intersection == 0 and cls.fk_intersection == 0:
            continue
        if cls.f_intersection <= 0 or cls.fk_intersection <= 0:
            raise VerificationError(
                f"degenerate contact class with intersections "
                f"({cls.f_intersection}, {cls.fk_intersection})"
            )
        segments.append(ElementarySegment(cls.f_intersection, cls.fk_intersection))
    for a, b in zip(segments, segments[1:]):
        if a.inclination >= b.inclination:
            raise VerificationError(
                "contact classes are not ordered by strictly increasing inclination"
            )
    return NewtonDiagram(segments)


def jnd_oracle(f: BiPoly, k: int, fk: BiPoly | None = None) -> NewtonDiagram:
    """Jacobian Newton diagram measured from actual Puiseux roots.

    Independent of the closed formula: the jacobian curve is expanded,
    its roots are grouped by contact with the branch, and each group
    contributes one segment of exact intersection numbers.
    """
    return _oracle_diagram(contact_classes(f, k, fk))


def verify_cycle(f: BiPoly, depth=None):
    """Certify numerically that f defines a single branch.

    The roots must form one conjugacy cycle: full count, full ramification
    in every root, a common exponent support, and matching coefficient
    magnitudes across conjugates.
    """
    s = semigroup_of(f)
    char = semigroup_to_char(s)
    b0 = s.multiplicity
    if depth is None:
        depth = Fraction(char.exponents[-1], b0) + 1
    series = puiseux_expand(f, depth)
    report = []
    report.append(("root count", len(series) == f.deg_y(),
                   f"{len(series)} of {f.deg_y()}"))
    rams = sorted({ps.ramification() for ps in series})
    report.append(("ramification", rams == [b0], f"{rams} vs [{b0}]"))
    supports = {ps.support() for ps in series}
    report.append(("common support", len(supports) == 1, f"{len(supports)} support sets"))
    mags_ok = True
    if len(supports) == 1 and series:
        for pos, e in enumerate(series[0].support()):
            mags = [abs(ps.terms[pos][1]) for ps in series]
            top, bottom = max(mags), min(mags)
            if bottom == 0 or top / bottom > 1 + 1e-6:
                mags_ok = False
                break
        report.append(("conjugate magnitudes", mags_ok, "moduli agree across the cycle"))
    failures = [name for name, ok, _ in report if not ok]
    if failures:
        raise VerificationError(f"cycle verification failed: {failures}")
    return report


def verify_decomposition(f: BiPoly, k: int | None = None, fk: BiPoly | None = None,
                         exact_totals: bool = True):
    """Cross-check the closed diagram formula against Puiseux reality.

    Runs, for each index (or the one given): the contact-class oracle, the
    conjugate-contact profile of f, the jacobian contact counts, the class
    sizes, both diagram totals, and optionally the exact resultant totals.
    Returns the full report; raises VerificationError on any failure.
    """
    dec = _Decomposition(f, None if k is None else [k], fk)
    s = dec.s
    b = dec.exponents
    b0 = b[0]
    g = s.genus
    l = s.gcds
    n = s.n_factors
    report = []

    def check(name, ok, detail=""):
        report.append((name, bool(ok), detail))

    for kk, classes in dec.classes.items():
        tag = f"k={kk}"
        predicted = jnd_formula(s, kk)
        measured = _oracle_diagram(classes)
        check(f"{tag}: oracle diagram matches formula", measured == predicted,
              f"{measured} vs {predicted}")

        # conjugate roots of f: past each characteristic value the number of
        # agreeing conjugates is the gcd level, independent of the root
        profile_ok = True
        detail = ""
        samples = []
        for j in range(kk + 1, g + 1):
            low = Fraction(b[j], b0)
            high = Fraction(b[j + 1], b0) if j < g else low + 1
            samples.append(((low + high) / 2, l[j] - 1))
            if j < g:
                samples.append((Fraction(b[j + 1], b0), l[j] - 1))
        for tau, expected in samples:
            for row in dec.self_contacts:
                got = sum(1 for v in row if v >= tau)
                if got != expected:
                    profile_ok = False
                    detail = f"at contact {tau}: {got} conjugates, expected {expected}"
                    break
            if not profile_ok:
                break
        check(f"{tag}: conjugate contact profile", profile_ok, detail)

        expected_jac = n[kk] * (l[kk + 1] - 1)
        check(
            f"{tag}: jacobian roots at deep contact",
            all(c == expected_jac for c in dec.jac_counts[kk]),
            f"{sorted(set(dec.jac_counts[kk]))} vs {expected_jac}",
        )

        sizes_ok = True
        detail = ""
        for cls in classes[1:]:
            i = b.index(cls.contact * b0)
            expected_size = (b0 // l[i - 1]) * (n[i - 1] - 1)
            if cls.x_intersection != expected_size:
                sizes_ok = False
                detail = (
                    f"class at contact {cls.contact}: {cls.x_intersection} roots, "
                    f"expected {expected_size}"
                )
                break
        check(f"{tag}: class sizes", sizes_ok, detail)

        zeros_deep = any(
            any(r.is_exact_zero() for r in cls.roots) for cls in classes[1:]
        )
        check(f"{tag}: x factor and zero roots stay residual", not zeros_deep)

        mu_k = approximate_root_semigroup(s, kk).milnor()
        v_next = s.generators[kk + 1]
        height_total = sum(cls.fk_intersection for cls in classes)
        length_total = sum(cls.f_intersection for cls in classes)
        check(
            f"{tag}: height total is mu_k + v_(k+1) - 1",
            height_total == mu_k + v_next - 1,
            f"{height_total} vs {mu_k + v_next - 1}",
        )
        check(
            f"{tag}: length total is mu + v_(k+1) - 1",
            length_total == s.milnor() + v_next - 1,
            f"{length_total} vs {s.milnor() + v_next - 1}",
        )

        if exact_totals:
            exact_len = intersection_multiplicity(dec.jacobians[kk], f)
            exact_ht = intersection_multiplicity(dec.jacobians[kk], dec.roots[kk])
            check(f"{tag}: resultant length total", exact_len == length_total,
                  f"{exact_len} vs {length_total}")
            check(f"{tag}: resultant height total", exact_ht == height_total,
                  f"{exact_ht} vs {height_total}")

    failures = [(name, detail) for name, ok, detail in report if not ok]
    if failures:
        lines = "; ".join(f"{name} ({detail})" if detail else name for name, detail in failures)
        raise VerificationError(f"decomposition checks failed: {lines}")
    return report
