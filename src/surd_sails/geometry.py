"""Sails of lattice cones: integer lengths and angles, vertex sprouts, the
two-term vertex recurrence, the edge-sprout correspondence between adjacent
sails, automorphisms of indefinite quadratic forms, and SVG output.

The vertex chain v_k obeys v_k = v_{k-2} + a_k * v_{k-1}; even and odd
indices alternate between the two adjacent sails, and the letters a_k are
simultaneously edge lengths and angles along the two boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt
from typing import NamedTuple, Optional, Sequence

from .arith import QuadraticSurd, UnimodularMatrix, _inverse, _product
from .cfrac import _expansion_and_cycle, continuant, convergents, expand
from .errors import (
    BadSeed,
    DegenerateAngle,
    DegenerateSegment,
    InternalInvariantError,
    NotAdjacent,
    NotHyperbolic,
    NotUnimodularArms,
    OriginSprout,
    PreconditionViolated,
)


class LatticePoint(NamedTuple):
    x: int
    y: int

    def __add__(self, other):
        return LatticePoint(self.x + other[0], self.y + other[1])

    def __sub__(self, other):
        return LatticePoint(self.x - other[0], self.y - other[1])

    def __neg__(self):
        return LatticePoint(-self.x, -self.y)

    def scaled(self, k: int) -> "LatticePoint":
        return LatticePoint(k * self.x, k * self.y)

    def is_primitive(self) -> bool:
        return gcd(self.x, self.y) == 1


def det2(u: LatticePoint, v: LatticePoint) -> int:
    """Oriented area of the parallelogram on u, v."""
    return u[0] * v[1] - u[1] * v[0]


def integer_length(p: LatticePoint, q: LatticePoint) -> int:
    """Number of empty subsegments of [p, q]: gcd of the coordinate differences."""
    if tuple(p) == tuple(q):
        raise DegenerateSegment(f"segment endpoints coincide: {p}")
    return gcd(q[0] - p[0], q[1] - p[1])


def integer_angle(u: LatticePoint, v: LatticePoint, w: LatticePoint) -> int:
    """Area of the parallelogram spanned by the primitive arm directions at v."""
    e1 = LatticePoint(u[0] - v[0], u[1] - v[1])
    e2 = LatticePoint(w[0] - v[0], w[1] - v[1])
    if e1 == (0, 0) or e2 == (0, 0):
        raise DegenerateAngle("angle arm has zero length")
    g1, g2 = gcd(*e1), gcd(*e2)
    area = abs(det2(e1, e2)) // (g1 * g2)
    if area == 0:
        raise DegenerateAngle(f"arms {e1}, {e2} are parallel")
    return area


def sprout(v: LatticePoint, u: LatticePoint, w: LatticePoint) -> tuple[LatticePoint, LatticePoint]:
    """Diagonal [v, u + w - v] of the parallelogram on the arms at v.

    Requires {v, u} and {v, w} to be oppositely oriented bases of Z^2; then
    every lattice point of the parallelogram other than u and w is a positive
    multiple of v, and the sprout's integer length equals the angle at v.
    """
    v, u, w = LatticePoint(*v), LatticePoint(*u), LatticePoint(*w)
    d1, d2 = det2(v, u), det2(v, w)
    if abs(d1) != 1 or abs(d2) != 1 or d1 == d2:
        raise NotUnimodularArms(
            f"arms must span Z^2 with opposite orientations (dets {d1}, {d2})"
        )
    if det2(u - v, w - v) == 0:
        raise DegenerateAngle(f"arms at {v} are parallel")
    top = u + w - v
    if top == (0, 0):
        raise OriginSprout(f"sprout from {v} would end at the origin")
    return v, top


class Sail:
    """A finite window of the vertex chain of two adjacent sails.

    `vertices` holds (k, point) for consecutive k; `labels` holds (k, a_k).
    `parity` selects the alternating subchain forming this sail's own
    boundary; the companion sail shares the chain with the other parity.
    `cone` optionally records the exact slopes of the two bounding lines.
    """

    __slots__ = ("vertices", "labels", "cone", "parity", "_v", "_a")

    def __init__(self, vertices, labels, cone=None, parity=0):
        self.vertices = tuple((k, LatticePoint(*pt)) for k, pt in vertices)
        self.labels = tuple(labels)
        self.cone = cone
        self.parity = parity % 2
        self._v = {k: pt for k, pt in self.vertices}
        self._a = {k: a for k, a in self.labels}

    @property
    def k_min(self) -> int:
        return self.vertices[0][0]

    @property
    def k_max(self) -> int:
        return self.vertices[-1][0]

    def vertex(self, k: int) -> LatticePoint:
        return self._v[k]

    def label(self, k: int) -> int:
        return self._a[k]

    def has_vertex(self, k: int) -> bool:
        return k in self._v

    def boundary_vertices(self) -> list[tuple[int, LatticePoint]]:
        """Vertices belonging to this sail's own boundary."""
        return [(k, pt) for k, pt in self.vertices if k % 2 == self.parity]

    def boundary_edges(self) -> list[tuple[int, tuple[LatticePoint, LatticePoint]]]:
        """Edges [v_{k-2}, v_k] of this sail, keyed by k (the edge's length label)."""
        out = []
        for k, pt in self.vertices:
            if k % 2 == self.parity and k - 2 in self._v:
                out.append((k, (self._v[k - 2], pt)))
        return out

    def sprout_at(self, k: int) -> tuple[LatticePoint, LatticePoint]:
        """Vertex sprout at v_k, derived from the neighbouring chain vertices."""
        v = self._v[k]
        u = v + self._v[k + 1]
        w = v - self._v[k - 1]
        return sprout(v, u, w)

    def companion(self) -> "Sail":
        """The adjacent sail: same chain, opposite parity."""
        return Sail(self.vertices, self.labels, cone=self.cone, parity=1 - self.parity)

    def to_json(self) -> dict:
        return {
            "vertices": [[k, pt.x, pt.y] for k, pt in self.vertices],
            "labels": [[k, a] for k, a in self.labels],
        }

    def __eq__(self, other):
        if isinstance(other, Sail):
            return (
                self.vertices == other.vertices
                and self.labels == other.labels
                and self.parity == other.parity
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.vertices, self.labels, self.parity))

    def __repr__(self):
        return f"Sail(k={self.k_min}..{self.k_max}, parity={self.parity})"


def _chain(
    seeds: tuple[LatticePoint, LatticePoint],
    letter_at,
    k_min: int,
    k_max: int,
) -> dict[int, LatticePoint]:
    """Vertices v_k over [k_min, k_max] from v_{-2}, v_{-1} and letters a_k."""
    v = {-2: seeds[0], -1: seeds[1]}
    m = (seeds[1][0], seeds[0][0], seeds[1][1], seeds[0][1])  # columns (v_{k-1} | v_{k-2})
    for k in range(k_max + 1):
        m = continuant((letter_at(k),), *m)
        v[k] = LatticePoint(m[0], m[2])
    k = -1
    while k - 2 >= k_min:
        v[k - 2] = v[k] - v[k - 1].scaled(letter_at(k))
        k -= 1
    return {k: v[k] for k in range(k_min, k_max + 1)}


def _check_chain_laws(v: dict[int, LatticePoint], a: dict[int, int]) -> None:
    """Determinant and turning laws every valid chain must satisfy."""
    d = {k: det2(v[k - 1], v[k]) for k in v if k - 1 in v}  # d_k = det(v_{k-1}, v_k)
    e = {k: det2(v[k - 2], v[k]) for k in v if k - 2 in v}  # e_k = det(v_{k-2}, v_k)
    for k in sorted(v):
        if k in d:
            if abs(d[k]) != 1:
                raise InternalInvariantError(f"det(v_{k-1}, v_{k}) = {d[k]}")
            if k - 1 in d and d[k - 1] != -d[k]:
                raise InternalInvariantError("determinant sign fails to alternate")
        if k in e and k in a:
            if e[k] != a[k] * d[k - 1]:
                raise InternalInvariantError(f"edge-length law fails at k = {k}")
        if k in e and k + 2 in v and k in a and k + 2 in a:
            turn = det2(v[k - 2] - v[k], v[k + 2] - v[k])
            if turn != -a[k] * a[k + 2] * e[k + 1]:  # e_{k+1} is the hinge det(v_{k-1}, v_{k+1})
                raise InternalInvariantError(f"turning law fails at k = {k}")


def sail_from_surd(
    alpha: QuadraticSurd, k_range: tuple[int, int]
) -> tuple[Sail, Sail]:
    """The two adjacent sails of the cone of a surd equivalent to alpha.

    alpha is replaced by the first reduced complete quotient omega of its
    expansion (alpha itself when already reduced), so that omega > 1 and the
    conjugate lies in (-1, 0); then the chain is seeded with v_{-2} = (1, 0),
    v_{-1} = (0, 1) and driven by the two-sided periodic letter sequence.
    """
    k_min, k_max = k_range
    if k_min > k_max:
        raise ValueError("empty index window")
    cf, cycle, root = _expansion_and_cycle(alpha)
    P, Q = cycle[0]
    omega = QuadraticSurd._reduce(P, root, Q, alpha.d)
    word = cf.period
    t = len(word)

    def letter_at(k: int) -> int:
        return word[k % t]

    v = _chain((LatticePoint(1, 0), LatticePoint(0, 1)), letter_at, k_min, k_max)
    labels = tuple((k, word[k % t]) for k in range(k_min, k_max + 1))
    vertices = tuple(sorted(v.items()))
    _check_chain_laws(dict(v), dict(labels))
    cone = (omega, omega.conjugate())
    return (
        Sail(vertices, labels, cone=cone, parity=0),
        Sail(vertices, labels, cone=cone, parity=1),
    )


def korkina_construct(
    v_m2: LatticePoint,
    v_0: LatticePoint,
    letters: Sequence[int],
    a0: int,
    back_letters: Sequence[int] = (),
) -> Sail:
    """Unique sail through the seed edge [v_{-2}, v_0] of integer length a0.

    letters are a_1, a_2, ...; back_letters, if given, are a_{-1}, a_{-2}, ...
    and extend the chain through negative indices.  The seed must satisfy the
    construction hypothesis: v_{-1} = (v_0 - v_{-2}) / a0 is a lattice point
    forming a basis with v_{-2}.
    """
    v_m2, v_0 = LatticePoint(*v_m2), LatticePoint(*v_0)
    if a0 < 1 or any(x < 1 for x in letters) or any(x < 1 for x in back_letters):
        raise BadSeed("all letters must be >= 1")
    if integer_length(v_m2, v_0) != a0:
        raise BadSeed(
            f"integer length of seed edge is {integer_length(v_m2, v_0)}, not {a0}"
        )
    diff = v_0 - v_m2
    v_m1 = LatticePoint(diff.x // a0, diff.y // a0)
    if v_m1.scaled(a0) != diff:
        raise BadSeed(f"(v_0 - v_{{-2}}) / {a0} is not a lattice point")
    if abs(det2(v_m2, v_m1)) != 1:
        raise BadSeed("seed vertices do not span the lattice")

    a: dict[int, int] = {0: a0}
    for i, x in enumerate(letters):
        a[i + 1] = x
    for i, x in enumerate(back_letters):
        a[-1 - i] = x
    v = _chain((v_m2, v_m1), a.__getitem__, -2 - len(back_letters), len(letters))
    _check_chain_laws(v, a)
    labels = tuple(sorted(a.items()))
    return Sail(tuple(sorted(v.items())), labels, cone=None, parity=0)


class SproutEdgePair(NamedTuple):
    """A vertex sprout matched with the parallel equal-length edge of the
    adjacent sail; `vertex_index` is the chain index of the sprout's root."""

    vertex_index: int
    sprout: tuple[LatticePoint, LatticePoint]
    edge: tuple[LatticePoint, LatticePoint]
    length: int


def edge_sprout_bijection(sail1: Sail, sail2: Sail) -> list[SproutEdgePair]:
    """Match every sprout of each sail with an edge of the other.

    The sprout at v_k corresponds to the edge [v_{k-1}, v_{k+1}] of the
    adjacent sail: parallel, of the same integer length a_{k+1}, and
    incidence-preserving.
    """
    if (
        sail1.vertices != sail2.vertices
        or sail1.labels != sail2.labels
        or sail1.parity == sail2.parity
    ):
        raise NotAdjacent("sails were not built as an adjacent pair")
    pairs = []
    for k, _pt in sail1.vertices:
        if sail1.has_vertex(k - 1) and sail1.has_vertex(k + 1):
            seg = sail1.sprout_at(k)
            edge = (sail1.vertex(k - 1), sail1.vertex(k + 1))
            pairs.append(SproutEdgePair(k, seg, edge, sail1.label(k + 1)))
    return pairs


@dataclass(frozen=True)
class QuadraticForm:
    """Binary form c*x^2 + 2b*xy + a*y^2 attached to the quadratic a*t^2 + 2b*t + c."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        d = self.discriminant
        if d <= 0:
            raise ValueError("form must be indefinite (positive discriminant)")
        r = isqrt_exact(d)
        if r is not None:
            raise ValueError(f"discriminant {d} = {r}^2 is a perfect square")

    @property
    def discriminant(self) -> int:
        return self.b * self.b - self.a * self.c

    @classmethod
    def from_polynomial(cls, qa: int, qb: int, qc: int) -> "QuadraticForm":
        """Form of qa*t^2 + qb*t + qc, doubled when the middle term is odd."""
        if qb % 2 == 0:
            return cls(qa, qb // 2, qc)
        return cls(2 * qa, qb, 2 * qc)

    @classmethod
    def from_surd(cls, alpha: QuadraticSurd) -> "QuadraticForm":
        """Form of the minimal polynomial."""
        return cls.from_polynomial(*alpha.minimal_polynomial())

    def value(self, x: int, y: int) -> int:
        return self.c * x * x + 2 * self.b * x * y + self.a * y * y

    def transformed(self, m: UnimodularMatrix) -> "QuadraticForm":
        """The composed form f(M (x, y))."""
        p, q, r, s = m.p, m.q, m.r, m.s
        c2 = self.value(p, r)
        a2 = self.value(q, s)
        b2 = self.c * p * q + self.b * (p * s + q * r) + self.a * r * s
        return QuadraticForm(a2, b2, c2)

    def roots(self) -> tuple[QuadraticSurd, QuadraticSurd]:
        """Both roots of a*t^2 + 2b*t + c, the +sqrt branch first."""
        plus = QuadraticSurd(-self.b, 1 if self.a > 0 else -1, self.a, self.discriminant)
        return plus, plus.conjugate()


def isqrt_exact(n: int) -> Optional[int]:
    """The exact integer square root of n, or None if n is not a square."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def lagrange_automorphism(form: QuadraticForm) -> UnimodularMatrix:
    """Nontrivial automorph of an indefinite form with a*c < 0.

    The larger root of a*t^2 + 2b*t + c expands as C(pre) applied to the
    purely periodic tail, and the continuant K of the period (squared when
    the period's length is odd, so that det K = 1) fixes that tail; hence
    N = C(pre) K C(pre)^-1 fixes the root as a Moebius map.  The automorph
    is N read as an action on slopes.  It has determinant 1, nonnegative
    entries, preserves the form, and fixes the lines spanned by (1, root)
    for both roots.  Its cost is one expansion of the root, so the walk
    limit bounds it.
    """
    if form.a * form.c >= 0:
        raise PreconditionViolated(f"need a*c < 0, got a = {form.a}, c = {form.c}")
    cf = expand(form.roots()[0])
    k = continuant(cf.period)
    if len(cf.period) % 2:  # det K = (-1)^t
        k = _product(k, k)
    head = continuant(cf.preperiod)
    p, q, r, s = _product(_product(head, k), _inverse(head))
    return UnimodularMatrix._make(s, r, q, p)


def fixed_line_surds(m: UnimodularMatrix) -> tuple[QuadraticSurd, QuadraticSurd]:
    """Exact slopes of the two fixed lines of a hyperbolic matrix.

    Returns (expanding, contracting): the slope whose eigenvalue exceeds 1 in
    absolute value comes first.  The slopes are conjugate surds.
    """
    # (1, t) is an eigenvector iff  q t^2 + (p - s) t - r = 0
    qa, qb, qc = m.q, m.p - m.s, -m.r
    disc = qb * qb - 4 * qa * qc  # equals trace^2 - 4 det
    if qa == 0 or disc <= 0 or isqrt_exact(disc) is not None:
        raise NotHyperbolic(f"{m} has no pair of irrational fixed slopes")
    plus = QuadraticSurd.from_root(qa, qb, qc, larger=True)
    minus = plus.conjugate()
    eigen = plus * m.q + m.p  # eigenvalue on (1, plus)
    expanding_first = eigen > 1 or eigen < -1
    return (plus, minus) if expanding_first else (minus, plus)


# -- SVG rendering -----------------------------------------------------

_SVG_SCALE = 40
_STYLE = (
    "circle.grid{fill:#c9c9c9}circle.vertex{fill:#1d4ed8}"
    "path.sail{stroke:#1d4ed8;stroke-width:2.5;fill:none}"
    "line.sprout{stroke:#dc2626;stroke-width:1.8;stroke-dasharray:6 4}"
    "line.cone{stroke:#111111;stroke-width:1}"
    "text.label{font:italic 13px serif;fill:#333333}"
)


def _slope_direction(slope: QuadraticSurd, reach: int) -> tuple[int, int]:
    """Integer direction (x, y) along the line y = slope * x, |coords| >= reach."""
    conv = convergents(expand(slope), 12)[-1]
    x, y = conv.q, conv.p
    k = max(1, -(-reach // max(abs(x), abs(y))))  # the least k >= 1 with k max(|x|, |y|) >= reach
    return k * x, k * y


def emit_svg(sails: Sequence[Sail], viewport: Optional[tuple[int, int, int, int]] = None) -> str:
    """Render sails as an SVG 1.1 document.

    Draws the lattice, the cone lines (when the sail records exact slopes),
    each sail's boundary, the vertex sprouts, and the letter labels.
    """
    if viewport is None:
        pts = [pt for s in sails for _k, pt in s.vertices]
        if pts:
            xmin = min(p.x for p in pts) - 1
            xmax = max(p.x for p in pts) + 1
            ymin = min(p.y for p in pts) - 1
            ymax = max(p.y for p in pts) + 1
        else:
            xmin, ymin, xmax, ymax = -5, -5, 5, 5
    else:
        xmin, ymin, xmax, ymax = viewport
    sc = _SVG_SCALE

    def ax(x):
        return (x - xmin) * sc

    def ay(y):
        return (ymax - y) * sc

    width, height = ax(xmax), ay(ymin)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"<style>{_STYLE}</style>",
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    if (xmax - xmin + 1) * (ymax - ymin + 1) <= 20_000:  # keep huge viewports light
        for x in range(xmin, xmax + 1):
            for y in range(ymin, ymax + 1):
                out.append(f'<circle class="grid" cx="{ax(x)}" cy="{ay(y)}" r="2"/>')

    seen_cones = set()
    for s in sails:
        if s.cone is None:
            continue
        key = tuple(sl.key() for sl in s.cone)
        if key in seen_cones:
            continue
        seen_cones.add(key)
        reach = (xmax - xmin + ymax - ymin + 2) * 2
        for slope in s.cone:
            dx, dy = _slope_direction(slope, reach)
            out.append(
                f'<line class="cone" x1="{ax(-dx)}" y1="{ay(-dy)}" '
                f'x2="{ax(dx)}" y2="{ay(dy)}"/>'
            )

    for s in sails:
        boundary = s.boundary_vertices()
        if boundary:
            path = " ".join(
                f"{'M' if i == 0 else 'L'}{ax(pt.x)} {ay(pt.y)}"
                for i, (_k, pt) in enumerate(boundary)
            )
            out.append(f'<path class="sail" d="{path}"/>')
        for k, pt in s.vertices:
            if s.has_vertex(k - 1) and s.has_vertex(k + 1) and k % 2 == s.parity:
                try:
                    root, top = s.sprout_at(k)
                except OriginSprout:
                    continue
                out.append(
                    f'<line class="sprout" x1="{ax(root.x)}" y1="{ay(root.y)}" '
                    f'x2="{ax(top.x)}" y2="{ay(top.y)}"/>'
                )
        for k, pt in boundary:
            out.append(f'<circle class="vertex" cx="{ax(pt.x)}" cy="{ay(pt.y)}" r="4"/>')
        for k, (p1, p2) in s.boundary_edges():
            mx = (ax(p1.x) + ax(p2.x)) // 2
            my = (ay(p1.y) + ay(p2.y)) // 2
            out.append(f'<text class="label" x="{mx + 5}" y="{my - 5}">a{k}={s.label(k)}</text>')
    out.append("</svg>")
    return "\n".join(out)
