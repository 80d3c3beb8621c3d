"""Newton diagrams of plane curve germs and their Minkowski arithmetic.

A diagram is stored in normal form: a monomial shift (the x and y content)
plus a tuple of finite elementary segments with strictly increasing
inclination.  Infinite elementary pieces appear only in the canonical
decomposition and in serialized input, where they are folded back into the
shift: as a Minkowski summand a segment of horizontal extent a and infinite
height is exactly the diagram of x^a, and symmetrically for y.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm

from .errors import ValidationError
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


def _frac_or_inf(value, what: str):
    if value == inf:
        return inf
    if isinstance(value, float):
        raise ValidationError(f"{what} must be rational or inf, got float {value!r}")
    try:
        v = Fraction(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} must be rational or inf, got {value!r}") from exc
    if v <= 0:
        raise ValidationError(f"{what} must be positive, got {value!r}")
    return v


class ElementarySegment:
    """One elementary Newton diagram, written {length \\ height}.

    The length is the horizontal extent and the height the vertical extent of
    the single compact face.  Exactly one of the two may be inf.
    """

    __slots__ = ("length", "height")

    def __init__(self, length, height):
        length = _frac_or_inf(length, "segment length")
        height = _frac_or_inf(height, "segment height")
        if length == inf and height == inf:
            raise ValidationError("segment cannot be infinite in both directions")
        object.__setattr__(self, "length", length)
        object.__setattr__(self, "height", height)

    def __setattr__(self, name, value):
        raise AttributeError("ElementarySegment is immutable")

    @property
    def inclination(self):
        """Length over height; 0 for a pure x shift, inf for a pure y shift."""
        if self.height == inf:
            return Fraction(0)
        if self.length == inf:
            return inf
        return self.length / self.height

    def is_finite(self) -> bool:
        return self.length != inf and self.height != inf

    def scaled(self, factor) -> "ElementarySegment":
        factor = Fraction(factor)
        if factor <= 0:
            raise ValidationError("scale factor must be positive")
        ln = self.length if self.length == inf else self.length * factor
        ht = self.height if self.height == inf else self.height * factor
        return ElementarySegment(ln, ht)

    def __eq__(self, other):
        if not isinstance(other, ElementarySegment):
            return NotImplemented
        return self.length == other.length and self.height == other.height

    def __hash__(self):
        return hash((self.length, self.height))

    def __str__(self):
        def fmt(v):
            return "inf" if v == inf else str(v)

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
    pts = sorted(best.items())
    if not pts:
        raise ValidationError("hull of an empty point set")
    # Pareto filter: with x ascending, keep points whose y is a new minimum.
    minimal = []
    for p in pts:
        if not minimal or p[1] < minimal[-1][1]:
            minimal.append(p)
    hull = []
    for p in minimal:
        while len(hull) >= 2:
            o, a = hull[-2], hull[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _num_to_json(v):
    if v == inf:
        return "inf"
    v = Fraction(v)
    return int(v) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _num_from_json(v, what: str):
    if v == "inf":
        return inf
    if isinstance(v, bool):
        raise ValidationError(f"{what}: expected a number, got {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{what}: cannot parse {v!r}") from exc
    raise ValidationError(f"{what}: expected int, rational string or 'inf', got {v!r}")


class NewtonDiagram:
    """A Newton diagram: monomial shift plus finite elementary segments.

    Segments are kept sorted by strictly increasing inclination; summands
    with equal inclination are merged componentwise.  Infinite segments
    passed to the constructor are folded into the shift.
    """

    __slots__ = ("shift", "segments")

    def __init__(self, segments=(), shift=(0, 0)):
        sx, sy = shift
        sx, sy = Fraction(sx), Fraction(sy)
        if sx < 0 or sy < 0:
            raise ValidationError(f"diagram shift must be nonnegative, got ({sx}, {sy})")
        finite = []
        for seg in segments:
            if not isinstance(seg, ElementarySegment):
                seg = ElementarySegment(*seg)
            if seg.height == inf:
                sx += seg.length
            elif seg.length == inf:
                sy += seg.height
            else:
                finite.append(seg)
        finite.sort(key=lambda s: s.inclination)
        merged: list[ElementarySegment] = []
        for seg in finite:
            if merged and merged[-1].inclination == seg.inclination:
                prev = merged.pop()
                seg = ElementarySegment(prev.length + seg.length, prev.height + seg.height)
            merged.append(seg)
        object.__setattr__(self, "shift", (sx, sy))
        object.__setattr__(self, "segments", tuple(merged))

    def __setattr__(self, name, value):
        raise AttributeError("NewtonDiagram is immutable")

    # -- inspection -----------------------------------------------------

    def total_length(self) -> Fraction:
        """Horizontal extent of the compact faces (the shift not included)."""
        return sum((s.length for s in self.segments), Fraction(0))

    def total_height(self) -> Fraction:
        """Vertical extent of the compact faces (the shift not included)."""
        return sum((s.height for s in self.segments), Fraction(0))

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

    def __eq__(self, other):
        if not isinstance(other, NewtonDiagram):
            return NotImplemented
        return self.shift == other.shift and self.segments == other.segments

    def __hash__(self):
        return hash((self.shift, self.segments))

    def __str__(self):
        parts = [str(s) for s in self.canonical_decomposition()]
        return " + ".join(parts) if parts else "{0}"

    def __repr__(self):
        return f"NewtonDiagram({self})"

    # -- Minkowski arithmetic --------------------------------------------

    def __add__(self, other):
        if not isinstance(other, NewtonDiagram):
            return NotImplemented
        sx = self.shift[0] + other.shift[0]
        sy = self.shift[1] + other.shift[1]
        return NewtonDiagram(self.segments + other.segments, (sx, sy))

    def __sub__(self, other):
        if not isinstance(other, NewtonDiagram):
            return NotImplemented
        return diagram_difference(self, other)

    def scaled(self, factor) -> "NewtonDiagram":
        factor = Fraction(factor)
        return NewtonDiagram(
            [s.scaled(factor) for s in self.segments],
            (self.shift[0] * factor, self.shift[1] * factor),
        )

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
        shift = data.get("shift", [0, 0])
        if not (isinstance(shift, (list, tuple)) and len(shift) == 2):
            raise ValidationError("diagram shift must be a pair")
        sx = _num_from_json(shift[0], "shift[0]")
        sy = _num_from_json(shift[1], "shift[1]")
        if sx == inf or sy == inf:
            raise ValidationError("diagram shift must be finite")
        raw = data.get("segments", [])
        if not isinstance(raw, (list, tuple)):
            raise ValidationError("diagram segments must be a list")
        segments = []
        for entry in raw:
            if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
                raise ValidationError(f"segment entry must be a pair, got {entry!r}")
            segments.append(
                ElementarySegment(
                    _num_from_json(entry[0], "segment length"),
                    _num_from_json(entry[1], "segment height"),
                )
            )
        return cls(segments, (sx, sy))

    # -- rendering ----------------------------------------------------------

    def render_ascii(self) -> str:
        verts = self.vertices()
        if any(v[0].denominator != 1 or v[1].denominator != 1 for v in verts):
            scale = lcm(*(c.denominator for v in verts for c in v))
            verts = tuple((v[0] * scale, v[1] * scale) for v in verts)
            note = f"(coordinates scaled by {scale})"
        else:
            note = None
        pts = [(int(a), int(b)) for a, b in verts]
        width = max(a for a, _ in pts) + 1
        height = max(b for _, b in pts) + 1
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
        gx = 0
        while gx <= max_x:
            parts.append(
                f'<line x1="{sx(gx):.1f}" y1="{sy(0):.1f}" x2="{sx(gx):.1f}" '
                f'y2="{sy(max_y):.1f}" stroke="#ddd" stroke-width="1"/>'
            )
            gx += 1
        gy = 0
        while gy <= max_y:
            parts.append(
                f'<line x1="{sx(0):.1f}" y1="{sy(gy):.1f}" x2="{sx(max_x):.1f}" '
                f'y2="{sy(gy):.1f}" stroke="#ddd" stroke-width="1"/>'
            )
            gy += 1
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
    """Diagram of any polynomial with the given support."""
    hull = lower_hull([(Fraction(a), Fraction(b)) for a, b in points])
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
    if not diagrams:
        return NewtonDiagram()
    total = diagrams[0]
    for d in diagrams[1:]:
        total = total + d
    return total


def diagram_difference(a: NewtonDiagram, b: NewtonDiagram) -> NewtonDiagram:
    """Minkowski difference a - b; raises ValidationError if b is not a summand.

    Segments of equal inclination are proportional, so the difference of two
    segments on the same face is again a valid segment or empty.
    """
    sx = a.shift[0] - b.shift[0]
    sy = a.shift[1] - b.shift[1]
    if sx < 0 or sy < 0:
        raise ValidationError("difference is not a diagram: negative shift")
    remaining = []
    by_incl = {s.inclination: s for s in a.segments}
    consumed = set()
    for seg in b.segments:
        match = by_incl.get(seg.inclination)
        if match is None:
            raise ValidationError(f"no face with inclination {seg.inclination} to subtract {seg} from")
        consumed.add(seg.inclination)
        ln = match.length - seg.length
        ht = match.height - seg.height
        if ln < 0 or ht < 0:
            raise ValidationError(f"cannot subtract {seg} from the shorter face {match}")
        if (ln == 0) != (ht == 0):
            raise ValidationError(f"subtracting {seg} from {match} leaves a degenerate face")
        if ln:
            remaining.append(ElementarySegment(ln, ht))
    for seg in a.segments:
        if seg.inclination not in consumed:
            remaining.append(seg)
    return NewtonDiagram(remaining, (sx, sy))

