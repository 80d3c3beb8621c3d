"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: the
resultant goes through evaluated Sylvester determinants plus Lagrange
interpolation, the hull through support-direction minimisation, the
Milnor number through brute-force gap counting in the semigroup, the
polar invariants through their closed formula on the generators, the
approximate jacobian diagrams through their formula in Fractions, the
approximate roots through the p-th power of each partial root,
products, powers and jacobians through one Fraction operation per pair of
terms, where the library works on integer numerators.  The Abhyankar-Moh
iteration goes through one resultant per level, and Abhyankar's
irreducibility criterion through BiPoly long division with a Newton edge
asked at every level, where the library asks the same of an expansion on
integer rows.
The Newton-Puiseux expander adds Fraction exponents level by level, where
the library carries integers over one denominator, and rotates each root's
tails into its conjugates by those Fractions; its every_root mode expands
every conjugate instead.
"""

import math
from fractions import Fraction
from math import ceil, comb, gcd, inf, lcm

from planebranch.branch import Semigroup, approximate_root
from planebranch.diagram import lower_hull
from planebranch.errors import ValidationError
from planebranch.poly import BiPoly, _resultant_intersection
from planebranch.puiseux import (
    PuiseuxSeries,
    _edge_roots,
    _EscalationNeeded,
    _poly_data,
    _sort_key,
    _with_escalation,
)


def det_fraction(matrix):
    """Exact determinant by Gaussian elimination over Fraction."""
    m = [list(row) for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / Fraction(m[col][col])
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def lagrange_coeffs(xs, ys):
    """Ascending coefficient list of the interpolating polynomial."""
    n = len(xs)
    acc = [Fraction(0)] * n
    for i in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            # multiply basis by (X - xs[j])
            shifted = [Fraction(0)] + basis
            basis = [s - xs[j] * b for s, b in zip(shifted, basis + [Fraction(0)])]
            denom *= xs[i] - xs[j]
        scale = ys[i] / denom
        for k, b in enumerate(basis):
            acc[k] += scale * b
    return acc


def sylvester_resultant(f: BiPoly, h: BiPoly) -> BiPoly:
    """Resultant in y via evaluated Sylvester determinants + interpolation.

    Requires both arguments to have positive degree in y.
    """
    m, n = f.deg_y(), h.deg_y()
    if m < 1 or n < 1:
        raise ValueError("oracle needs positive y-degrees")
    bound = f.deg_x() * n + h.deg_x() * m
    xs = [Fraction(i) for i in range(bound + 1)]
    values = []
    fc_polys = [f.y_coefficient(j) for j in range(m, -1, -1)]
    hc_polys = [h.y_coefficient(j) for j in range(n, -1, -1)]
    size = m + n
    for x0 in xs:
        fc = [p.evaluate(x0, 0) for p in fc_polys]
        hc = [p.evaluate(x0, 0) for p in hc_polys]
        rows = []
        for shift in range(n):
            rows.append([Fraction(0)] * shift + fc + [Fraction(0)] * (n - 1 - shift))
        for shift in range(m):
            rows.append([Fraction(0)] * shift + hc + [Fraction(0)] * (m - 1 - shift))
        assert all(len(r) == size for r in rows)
        values.append(det_fraction(rows))
    coeffs = lagrange_coeffs(xs, values)
    return BiPoly({(i, 0): c for i, c in enumerate(coeffs) if c})


def support_hull(points):
    """Lower-left hull vertices by minimising over explicit directions.

    A point is a vertex exactly when it is the unique minimiser of some
    positive linear functional; candidate directions come from all point
    pairs, nudged to either side to separate collinear runs.
    """
    pts = sorted(set((Fraction(a), Fraction(b)) for a, b in points))
    if not pts:
        return []
    if len(pts) == 1:
        return list(pts)
    eps = Fraction(1, 4 * (_spread(pts) + 1) ** 2)
    directions = {(Fraction(1), eps), (eps, Fraction(1)), (Fraction(1), Fraction(1))}
    for p in pts:
        for q in pts:
            du, dv = q[1] - p[1], p[0] - q[0]
            if du > 0 and dv > 0:
                directions.add((du, dv))
                directions.add((du + eps, dv))
                directions.add((du, dv + eps))
    vertices = set()
    for u, v in directions:
        best = min(u * a + v * b for a, b in pts)
        hits = [p for p in pts if u * p[0] + v * p[1] == best]
        if len(hits) == 1:
            vertices.add(hits[0])
    return sorted(vertices)


def _spread(pts):
    xs = [p[0] for p in pts] + [p[1] for p in pts]
    return int(max(xs) - min(xs))


def conductor_by_gaps(generators):
    """Conductor of a numerical semigroup by direct reachability search.

    Also returns the gap count so symmetry (gaps = conductor / 2) can be
    checked separately.  Only sensible for small generators.
    """
    v0 = generators[0]
    bound = generators[0] * generators[-1] + 1
    reachable = [False] * (bound + v0)
    reachable[0] = True
    for value in range(1, len(reachable)):
        for gen in generators:
            if gen <= value and reachable[value - gen]:
                reachable[value] = True
                break
    # smallest c with everything from c on reachable
    c = bound
    while c > 0 and reachable[c - 1]:
        c -= 1
    gaps = sum(1 for value in range(c) if not reachable[value])
    return c, gaps


def polar_invariants(generators, k):
    """Polar invariants of the root pair (f^(k), f) from the generators.

    l_k first, then l_{i-1} v_i / v_{k+1} for each deeper characteristic
    index i, where l_i = gcd(v_0, ..., v_i).  Written from the formula
    alone, not from the diagram segments.
    """
    v = list(generators)
    l = [v[0]]
    for gen in v[1:]:
        l.append(math.gcd(l[-1], gen))
    out = [Fraction(l[k])]
    for i in range(k + 2, len(v)):
        out.append(Fraction(l[i - 1] * v[i], v[k + 1]))
    return tuple(out)


def jnd_by_fractions(generators, k):
    """Segments (length, height) of the k-th approximate jacobian diagram.

    Written from the formula in Fractions, without the library: the leading
    segment has inclination l_k and height mu_k + v_(k+1)/l_(k+1) - 1, where
    mu_k is the conductor of the root semigroup v_0/l_k, ..., v_k/l_k; each
    deeper index i = k+2..g adds a segment of height
    (n_i - 1) v_(k+1) / l_(i-1) and inclination l_(i-1) v_i / v_(k+1), where
    n_i = l_(i-1) / l_i.
    """
    v = list(generators)
    l = [v[0]]
    for gen in v[1:]:
        l.append(math.gcd(l[-1], gen))
    n = [None] + [Fraction(l[q - 1], l[q]) for q in range(1, len(v))]
    mu_k = sum((n[q] - 1) * Fraction(v[q], l[k]) for q in range(1, k + 1))
    mu_k += 1 - Fraction(v[0], l[k])
    height = mu_k + Fraction(v[k + 1], l[k + 1]) - 1
    out = [(l[k] * height, height)]
    for i in range(k + 2, len(v)):
        height = (n[i] - 1) * Fraction(v[k + 1], l[i - 1])
        out.append((Fraction(l[i - 1] * v[i], v[k + 1]) * height, height))
    return out


def approximate_root_by_powers(f: BiPoly, p: int) -> BiPoly:
    """The p-th approximate root of a polynomial f monic in y, top down.

    Step j raises the partial root g to the p-th power and fixes the
    coefficient of y^(m-j) in g, m = deg_y(f) / p, by matching the
    coefficient of y^(d-j) in g^p with that of f.  A term c*y^(m-j) adds
    p*c there and touches only lower powers of y besides, so each step
    divides by p.
    """
    d = f.deg_y()
    m = d // p
    g = BiPoly.y(m)
    for j in range(1, m + 1):
        target = d - j
        delta = f.y_coefficient(target) - (g**p).y_coefficient(target)
        g = g + (delta * Fraction(1, p)).shift_y(m - j)
    return g


def product_by_fractions(p: BiPoly, q: BiPoly) -> BiPoly:
    """p * q term by term, one Fraction product and sum per pair of terms."""
    data = {}
    for (i1, j1), c1 in p.terms():
        for (i2, j2), c2 in q.terms():
            key = (i1 + i2, j1 + j2)
            data[key] = data.get(key, Fraction(0)) + c1 * c2
    return BiPoly(data)


def power_by_fractions(p: BiPoly, n: int) -> BiPoly:
    """p^n as n products by product_by_fractions, starting from 1."""
    result = BiPoly.one()
    for _ in range(n):
        result = product_by_fractions(result, p)
    return result


def jacobian_by_fractions(g: BiPoly, f: BiPoly) -> BiPoly:
    """g_x f_y - g_y f_x from the derivatives, two products and a difference."""
    return (product_by_fractions(g.diff_x(), f.diff_y())
            - product_by_fractions(g.diff_y(), f.diff_x()))


def am_iteration_by_resultants(f: BiPoly):
    """(semigroup, roots) of a Weierstrass polynomial f, each generator
    I(f, f_k) taken from the y-resultant; ValidationError when a level breaks
    the branch axioms, with the messages the library gives for f's levels."""
    n = f.deg_y()
    gens = [n]
    roots = []
    l = n
    while l > 1:
        fk = approximate_root(f, l)
        b = _resultant_intersection(f, fk)
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
        gens.append(b)
        roots.append(fk)
        l = new_l
    try:
        s = Semigroup(tuple(gens))
    except ValidationError as exc:
        raise ValidationError(f"not an irreducible branch: {exc}") from exc
    return s, tuple(roots)


def _divmod_y(h: BiPoly, p: BiPoly):
    """Quotient and remainder of h by p, monic in y, by BiPoly long division."""
    q, r, d = BiPoly.zero(), h, p.deg_y()
    while r and r.deg_y() >= d:
        j = r.deg_y()
        top = r.y_coefficient(j).shift_y(j - d)
        q, r = q + top, r - top * p
    return q, r


def _least_monomial_value(c: BiPoly, roots, weights):
    """Least value of the monomials x^a prod roots[i]^e_i of c, deg_y c below
    that of the next root, x weighing weights[0] and roots[i] weights[i+1]."""
    if not roots:
        return weights[0] * c.ord_x()
    best, e = inf, 0
    while c:
        c, digit = _divmod_y(c, roots[-1])
        if digit:
            best = min(best, _least_monomial_value(digit, roots[:-1], weights)
                       + e * weights[len(roots)])
        e += 1
    return best


def semigroup_by_criterion(f: BiPoly):
    """The semigroup of f by Abhyankar's irreducibility criterion, or None
    when f is not a branch transverse to x = 0.

    One shot, with every level asked: at the level l of the gcd chain the
    whole expansion f = sum_e c_e f_k^e in the l-th approximate root f_k is
    valued with f's generators so far over l, the next generator is the
    value of c_0, and every digit must lie on or above the Newton edge from
    (value of c_0, 0) to (0, l) (Abhyankar, Adv. Math. 74, 1989).
    """
    n = f.deg_y()
    gens, roots, l = [n], [], n
    while l > 1:
        roots.append(approximate_root(f, l))
        weights = [v // l for v in gens]
        values, h = [], f
        while h:
            h, digit = _divmod_y(h, roots[-1])
            values.append(_least_monomial_value(digit, roots[:-1], weights) if digit else inf)
        b = values[0]
        if b == inf or (len(gens) == 1 and b < n) or gcd(l, b) == l:
            return None
        if any(l * v < (l - e) * b for e, v in enumerate(values) if v != inf):
            return None
        gens.append(b)
        l = gcd(l, b)
    try:
        return Semigroup(tuple(gens))
    except ValidationError:
        return None


def _expand_fractions(ctx, F, den, depth, every_root, truncated=False):
    """All Puiseux tails of F(x, y) = 0 with y -> 0, complete below depth,
    as (terms, truncation) pairs: each level adds its slope q to every
    exponent and truncation of the tails below it, in Fractions.  Unless
    every_root is set, one root per orbit of an edge is expanded and the
    other scale - 1 are its tails with each term c*x^e times
    e^(2 pi i r*den*e), e counted from this level."""
    out = []
    j_min = min(j for _, j in F)
    if j_min > 0:
        out.extend(([], depth if truncated else inf) for _ in range(j_min))
        F = {(e, j - j_min): c for (e, j), c in F.items()}
    degree = max(j for _, j in F)
    if degree == 0:
        return out
    hull = lower_hull((j, e) for e, j in F)
    expected = hull[-1][0]
    limit = ceil(depth * expected * den)
    kept = {key: c for key, c in F.items() if key[0] < limit}
    truncated = truncated or len(kept) < len(F)
    F = kept
    for (j1, e1), (j2, e2) in zip(hull, hull[1:]):
        width = j2 - j1
        q = Fraction(e1 - e2, width * den)
        if q >= depth:
            out.extend(([], depth) for _ in range(width))
            continue
        phi = [0] * (width + 1)
        for (e, j), c in F.items():
            if j1 <= j <= j2 and (e - e1) * width == (e2 - e1) * (j - j1):
                phi[j - j1] = c
        sub_den = lcm(den, q.denominator)
        scale, slope = sub_den // den, q.numerator * (sub_den // q.denominator)
        orbit = 1 if every_root else scale
        for root, mu in _edge_roots(ctx, phi, orbit):
            sub = _substitute_term_by_term(ctx, F, scale, slope, root)
            tails = _expand_fractions(ctx, sub, sub_den, depth - q, every_root, truncated)
            if len(tails) != mu:
                raise _EscalationNeeded(
                    f"root of multiplicity {mu} produced {len(tails)} continuations"
                )
            tails = [([(q, root)] + [(q + e, c) for e, c in terms], q + trunc)
                     for terms, trunc in tails]
            out.extend(tails)
            for r in range(1, orbit):
                out.extend(([(e, c * ctx.unit_root(r * den * e.numerator, e.denominator))
                             for e, c in terms], trunc) for terms, trunc in tails)
    if len(out) != j_min + expected:
        raise _EscalationNeeded(
            f"expected {j_min + expected} local roots, assembled {len(out)}"
        )
    return out


def _substitute_term_by_term(ctx, F, scale, slope, c):
    """F(x, x^q (c + y)) divided by its lowest power of x, chopped; the
    powers of c are built again for every term."""
    sums = {}
    peaks = {}
    for (e, j), a in F.items():
        base = scale * e + slope * j
        cm = 1
        for t in range(j, -1, -1):
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
    norm = ctx.unit_scale(top)
    return {(e - shift, j): v * norm for (e, j), v in new.items()}


def expand_by_fractions(f: BiPoly, depth, min_bits: int = 53, every_root: bool = False):
    """puiseux_expand(f, depth, min_bits) with Fraction exponents added
    level by level, climbing the same precision ladder; every_root expands
    each conjugate root on its own."""
    depth = Fraction(depth)

    def worker(ctx):
        _, f1 = f.x_content()
        tails = _expand_fractions(ctx, _poly_data(ctx, f1), 1, depth, every_root)
        series = [PuiseuxSeries(terms, trunc, ctx) for terms, trunc in tails]
        series.sort(key=_sort_key)
        return series

    return _with_escalation(worker, min_bits)
