"""Newton diagrams of plane curve germs and their Minkowski arithmetic.

A diagram is stored in normal form: a monomial shift (the x and y content)
plus a tuple of finite elementary segments with strictly increasing
inclination, made once by _normal_form for the public constructor and the
private NewtonDiagram._of alike.  Infinite elementary pieces appear only in
the canonical decomposition and in serialized input, where they are folded
back into the shift: as a Minkowski summand a segment of horizontal extent a
and infinite height is exactly the diagram of x^a, and symmetrically for y.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm

from ._value import Value, _num_to_json, _rational
from .errors import ValidationError, _digit_limit
from .poly import BiPoly

__all__ = [
    "ElementarySegment",
    "NewtonDiagram",
    "lower_hull",
    "diagram_from_support",
    "diagram_of",
    "minkowski_sum",
    "diagram_difference",
]

#: both renderers draw a grid, one cell or line per unit, only up to this
#: many units a side, so their output does not grow with the diagram
_GRID_UNITS = 100


def _exact(value, what: str = "diagram shift", allowed: str = "rational"):
    """value by the rule of _rational, as an int when it is integral and a
    Fraction otherwise."""
    if type(value) is int:
        return value
    v = _rational(value, what, allowed)
    return v.numerator if v.denominator == 1 else v


def _side(value, what: str):
    """A segment side: positive by the rule of _exact, or the float inf for
    any value equal to inf."""
    v = inf if type(value) is not int and value == inf else _exact(value, what, "rational or inf")
    if v <= 0:
        with _digit_limit():  # a refusal may quote a number past the digit limit
            raise ValidationError(f"{what} must be positive, got {value!r}")
    return v


class ElementarySegment(Value):
    """One elementary Newton diagram, written {length \\ height}.

    The length is the horizontal extent and the height the vertical extent of
    the single compact face.  At most one of the two is infinite.  A side is
    a float exactly when it is infinite (the float inf); a finite side is an
    int when it is integral and a Fraction otherwise, so "26/2" is stored as
    13 and isinstance(side, float) tells an infinite side.  The inclination,
    length over height, is computed from the sides when read: a Fraction for
    a finite segment, Fraction(0) for a pure x shift, inf for a pure y shift.
    """

    __slots__ = ("length", "height")

    def __init__(self, length, height):
        length = _side(length, "segment length")
        height = _side(height, "segment height")
        if isinstance(length, float) and isinstance(height, float):
            raise ValidationError("segment cannot be infinite in both directions")
        self._set(length=length, height=height)

    @property
    def inclination(self):
        if isinstance(self.height, float):
            return Fraction(0)
        return inf if isinstance(self.length, float) else Fraction(self.length, self.height)

    def scaled(self, factor) -> "ElementarySegment":
        factor = _rational(factor, "scale factor", "rational")
        if factor <= 0:
            raise ValidationError("scale factor must be positive")
        # inf times a positive factor stays inf
        return ElementarySegment(self.length * factor, self.height * factor)

    def _key(self):
        return self.length, self.height

    def __str__(self):
        def fmt(v):
            return "inf" if isinstance(v, float) else str(v)

        return "{" + fmt(self.length) + "\\" + fmt(self.height) + "}"

    def __repr__(self):
        return f"ElementarySegment({self})"


def lower_hull(points):
    """Vertices of the lower-left convex hull of a finite point set.

    Input pairs must support exact arithmetic (int or Fraction).  The result
    walks from the top-left vertex to the bottom-right one; interior points
    of faces are dropped, so consecutive slopes are strictly increasing.
    """
    best = {}
    for a, b in points:
        if a not in best or b < best[a]:
            best[a] = b
    if not best:
        raise ValidationError("hull of an empty point set")
    hull = []
    for p in sorted(best.items()):
        # with x ascending, only a point whose y is a new minimum can be a
        # vertex, and the last vertex is always the last new minimum
        if hull and p[1] >= hull[-1][1]:
            continue
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _normal_form(finite) -> tuple:
    """A list of finite segments as a tuple by strictly increasing inclination, equal
    neighbours summed: one linear pass by cross products, sorting only a list out of order."""
    out = []
    for seg in finite:
        order = out[-1].length * seg.height - seg.length * out[-1].height if out else -1
        if order > 0:
            return _normal_form(sorted(finite, key=lambda s: s.inclination))
        if order == 0:  # Fractions can sum to an int, stored by the rule again
            prev = out.pop()
            seg = ElementarySegment(prev.length + seg.length, prev.height + seg.height)
        out.append(seg)
    return tuple(out)


class NewtonDiagram(Value):
    """A Newton diagram: monomial shift plus finite elementary segments.

    Segments are kept sorted by strictly increasing inclination; summands
    with equal inclination are merged componentwise.  Infinite segments
    passed to the constructor are folded into the shift.  Each segment is an
    ElementarySegment or a (length, height) pair, and the shift is an (x, y)
    pair; its coordinates are stored like finite segment sides.
    """

    __slots__ = ("shift", "segments")

    def __init__(self, segments=(), shift=(0, 0)):
        if not (isinstance(shift, (list, tuple)) and len(shift) == 2):
            raise ValidationError("diagram shift must be a pair")
        try:
            entries = iter(segments)
        except TypeError as exc:
            raise ValidationError("diagram segments must be a list") from exc
        segments = tuple(entries)
        for seg in segments:
            if not (isinstance(seg, ElementarySegment)
                    or isinstance(seg, (list, tuple)) and len(seg) == 2):
                with _digit_limit():
                    raise ValidationError(f"segment entry must be a pair, got {seg!r}")
        sx = _exact(shift[0])
        sy = _exact(shift[1])
        if sx < 0 or sy < 0:
            with _digit_limit():
                raise ValidationError(f"diagram shift must be nonnegative, got ({sx}, {sy})")
        finite = []
        for seg in segments:
            if not isinstance(seg, ElementarySegment):
                seg = ElementarySegment(*seg)
            # a sum of Fractions can be integral, so each folded coordinate is
            # stored by the same rule again
            if isinstance(seg.height, float):
                sx = _exact(sx + seg.length)
            elif isinstance(seg.length, float):
                sy = _exact(sy + seg.height)
            else:
                finite.append(seg)
        self._set(shift=(sx, sy), segments=_normal_form(finite))

    @classmethod
    def _of(cls, finite, x, y) -> "NewtonDiagram":
        """The diagram of a list of checked finite segments and a shift (x, y)."""
        diagram = object.__new__(cls)
        diagram._set(shift=(_exact(x), _exact(y)), segments=_normal_form(finite))
        return diagram

    # -- inspection -----------------------------------------------------

    def total_length(self):
        """Horizontal extent of the compact faces (the shift not included)."""
        return sum(s.length for s in self.segments)

    def total_height(self):
        """Vertical extent of the compact faces (the shift not included)."""
        return sum(s.height for s in self.segments)

    def vertices(self):
        """Vertex coordinates from the top-left end down to the bottom-right."""
        x = self.shift[0]
        y = self.shift[1] + self.total_height()
        out = [(x, y)]
        for seg in self.segments:
            x += seg.length
            y -= seg.height
            out.append((x, y))
        return tuple(out)

    def canonical_decomposition(self):
        """Elementary summands, infinite shift pieces included, by inclination."""
        out = []
        if self.shift[0]:
            out.append(ElementarySegment(self.shift[0], inf))
        out.extend(self.segments)
        if self.shift[1]:
            out.append(ElementarySegment(inf, self.shift[1]))
        return out

    def is_trivial(self) -> bool:
        return not self.segments and self.shift == (0, 0)

    def _key(self):
        return self.shift, self.segments

    def __str__(self):
        parts = [str(s) for s in self.canonical_decomposition()]
        return " + ".join(parts) if parts else "{0}"

    def __repr__(self):
        return f"NewtonDiagram({self})"

    # -- Minkowski arithmetic --------------------------------------------

    def __add__(self, other):
        if not isinstance(other, NewtonDiagram):
            return NotImplemented
        # _normal_form sorts the joined tuples and sums equal inclinations
        return NewtonDiagram._of([*self.segments, *other.segments],
                                 self.shift[0] + other.shift[0], self.shift[1] + other.shift[1])

    def __sub__(self, other):
        if not isinstance(other, NewtonDiagram):
            return NotImplemented
        return diagram_difference(self, other)

    def scaled(self, factor) -> "NewtonDiagram":
        factor = _rational(factor, "scale factor", "rational")
        # checked here too: a diagram without segments never reaches the segment check
        if factor <= 0:
            raise ValidationError("scale factor must be positive")
        return NewtonDiagram._of([s.scaled(factor) for s in self.segments],
                                 self.shift[0] * factor, self.shift[1] * factor)

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "shift": [_num_to_json(self.shift[0]), _num_to_json(self.shift[1])],
            "segments": [[_num_to_json(s.length), _num_to_json(s.height)] for s in self.segments],
        }

    @classmethod
    def from_json_dict(cls, data) -> "NewtonDiagram":
        if not isinstance(data, dict):
            raise ValidationError("diagram JSON must be an object")
        raw = data.get("segments", [])
        # JSON spells inf as a string.  The constructor checks the shape and
        # every number; a segments value that is not a list reaches it as
        # None, which it refuses with the same message
        segments = None
        if isinstance(raw, (list, tuple)):
            segments = [[inf if v == "inf" else v for v in entry]
                        if isinstance(entry, (list, tuple)) and len(entry) == 2 else entry
                        for entry in raw]
        return cls(segments, data.get("shift", [0, 0]))

    # -- rendering ----------------------------------------------------------

    def render_ascii(self) -> str:
        verts = self.vertices()
        if any(v[0].denominator != 1 or v[1].denominator != 1 for v in verts):
            scale = lcm(*[c.denominator for v in verts for c in v])
            verts = tuple((v[0] * scale, v[1] * scale) for v in verts)
            note = f"(coordinates scaled by {scale})"
        else:
            note = None
        pts = [(int(a), int(b)) for a, b in verts]
        width = max(a for a, _ in pts) + 1
        height = max(b for _, b in pts) + 1
        if width > _GRID_UNITS or height > _GRID_UNITS:
            chain = " -> ".join(f"({a}, {b})" for a, b in self.vertices())
            return f"vertices: {chain}\n(no grid past {_GRID_UNITS} units a side)"
        grid = [["." for _ in range(width)] for _ in range(height)]
        for (a0, b0), (a1, b1) in zip(pts, pts[1:]):
            steps = gcd(a1 - a0, b0 - b1)
            dx, dy = (a1 - a0) // steps, (b1 - b0) // steps
            for t in range(1, steps):
                grid[b0 + dy * t][a0 + dx * t] = "+"
        for a, b in pts:
            grid[b][a] = "*"
        lines = []
        for j in range(height - 1, -1, -1):
            lines.append(f"{j:>3} " + " ".join(grid[j]))
        lines.append("    " + " ".join("-" * 1 for _ in range(width)))
        labels = "    "
        for i in range(width):
            labels += f"{i % 10} "
        lines.append(labels.rstrip())
        if note:
            lines.append(note)
        return "\n".join(lines)

    def render_svg(self) -> str:
        verts = [(float(a), float(b)) for a, b in self.vertices()]
        max_x = max(a for a, _ in verts) + 1
        max_y = max(b for _, b in verts) + 1
        unit = 40
        pad = 30
        w = int(max_x * unit) + 2 * pad
        h = int(max_y * unit) + 2 * pad

        def sx(a):
            return pad + a * unit

        def sy(b):
            return h - pad - b * unit

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">',
            f'<rect width="{w}" height="{h}" fill="white"/>',
        ]
        if max_x <= _GRID_UNITS and max_y <= _GRID_UNITS:
            for gx in range(int(max_x) + 1):
                parts.append(
                    f'<line x1="{sx(gx):.1f}" y1="{sy(0):.1f}" x2="{sx(gx):.1f}" '
                    f'y2="{sy(max_y):.1f}" stroke="#ddd" stroke-width="1"/>'
                )
            for gy in range(int(max_y) + 1):
                parts.append(
                    f'<line x1="{sx(0):.1f}" y1="{sy(gy):.1f}" x2="{sx(max_x):.1f}" '
                    f'y2="{sy(gy):.1f}" stroke="#ddd" stroke-width="1"/>'
                )
        top = verts[0]
        bottom = verts[-1]
        # boundary rays of the diagram region
        parts.append(
            f'<line x1="{sx(top[0]):.1f}" y1="{sy(top[1]):.1f}" x2="{sx(top[0]):.1f}" '
            f'y2="{sy(max_y):.1f}" stroke="#888" stroke-width="1.5" stroke-dasharray="4 3"/>'
        )
        parts.append(
            f'<line x1="{sx(bottom[0]):.1f}" y1="{sy(bottom[1]):.1f}" x2="{sx(max_x):.1f}" '
            f'y2="{sy(bottom[1]):.1f}" stroke="#888" stroke-width="1.5" stroke-dasharray="4 3"/>'
        )
        if len(verts) > 1:
            path = " ".join(f"{sx(a):.1f},{sy(b):.1f}" for a, b in verts)
            parts.append(
                f'<polyline points="{path}" fill="none" stroke="#1f4e99" stroke-width="2.5"/>'
            )
        for a, b in verts:
            parts.append(f'<circle cx="{sx(a):.1f}" cy="{sy(b):.1f}" r="4" fill="#1f4e99"/>')
        label = str(self)
        parts.append(f'<text x="{pad}" y="18" font-family="monospace" font-size="13">{label}</text>')
        parts.append("</svg>")
        return "\n".join(parts)

    def render(self, fmt: str = "ascii") -> str:
        if fmt == "ascii":
            return self.render_ascii()
        if fmt == "svg":
            return self.render_svg()
        raise ValidationError(f"unknown render format {fmt!r}")


def diagram_from_support(points) -> NewtonDiagram:
    """Diagram of any polynomial with the given support: (int, int) pairs,
    or pairs of Fractions, as lower_hull takes them."""
    hull = lower_hull(points)
    shift = (hull[0][0], hull[-1][1])
    segments = []
    for (a0, b0), (a1, b1) in zip(hull, hull[1:]):
        segments.append(ElementarySegment(a1 - a0, b0 - b1))
    return NewtonDiagram(segments, shift)


def diagram_of(f: BiPoly) -> NewtonDiagram:
    """Newton diagram of a nonzero polynomial."""
    if f.is_zero():
        raise ValidationError("the zero polynomial has no Newton diagram")
    return diagram_from_support(f.support())


def minkowski_sum(*diagrams) -> NewtonDiagram:
    return sum(diagrams, NewtonDiagram())


def diagram_difference(a: NewtonDiagram, b: NewtonDiagram) -> NewtonDiagram:
    """Minkowski difference a - b; raises ValidationError if b is not a summand.

    Segments of equal inclination are proportional, so the difference of two
    segments on the same face is again a valid segment or empty.
    """
    sx = a.shift[0] - b.shift[0]
    sy = a.shift[1] - b.shift[1]
    if sx < 0 or sy < 0:
        raise ValidationError("difference is not a diagram: negative shift")
    # one merge pass over the two normal forms, both by increasing inclination
    faces, remaining = iter(a.segments), []
    for seg in b.segments:
        match = next(faces, None)
        while match is not None and match.length * seg.height < seg.length * match.height:
            remaining.append(match)
            match = next(faces, None)
        # a refusal may quote a number past the digit limit
        if match is None or match.length * seg.height != seg.length * match.height:
            with _digit_limit():
                raise ValidationError(f"no face with inclination {seg.inclination} "
                                      f"to subtract {seg} from")
        ln = match.length - seg.length
        ht = match.height - seg.height
        if ln < 0 or ht < 0:
            with _digit_limit():
                raise ValidationError(f"cannot subtract {seg} from the shorter face {match}")
        if ln:
            remaining.append(ElementarySegment(ln, ht))
    remaining.extend(faces)
    return NewtonDiagram._of(remaining, sx, sy)

