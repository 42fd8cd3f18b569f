"""Polygonal mission spaces: containment, feasibility, and line-of-sight.

The mission space is a simple polygon (the outer boundary) minus the open
interiors of simple obstacle polygons.  Agents and event locations live in the
closed feasible region, so polygon boundaries count as inside and obstacle
boundaries stay feasible.  A sight line is blocked only when it passes through
an obstacle interior (or outside the boundary) for a stretch of positive
length; grazing a vertex or sliding along an edge does not block it.

The edges of every ring (the boundary, then each obstacle) are stacked once
per mission space.  ``MissionSpace.feasible_many`` computes the ray-casting
parity of all rings in one pass and runs the EPS on-edge test only at the
(ring, point) pairs where it can change the answer: a point outside the
boundary by parity, or inside an obstacle by parity.  A feasible interior
point, the common case, needs no distance at all.  ``Polygon.contains_many``
and ``strictly_contains_many`` follow the same rule for one ring.

Sight lines from many sources usually share one target set (the quadrature
cell centers).  ``line_of_sight_many`` takes one source or a stack of them
and keeps the target-side work for the last target set on the mission space,
with the decided rows of its recent sources (``_SightMemo``).  So a source
asked for again, as refine's rescue asks for the proposals of a vetoed joint
step, is unpacked, not decided again.  A space with no blocking ring keeps no
rows: there a row is the target mask.
Seen from a source, a convex obstacle hides exactly the targets in its
shadow, bounded by the two sight lines through its tangent vertices and the
chord between them.  So every blocking ring becomes, once and on first use,
the pieces of ``coverplan.shadows``: a convex ring is one piece, any other
ring one piece per edge.  The tangent vertices of every piece are found for
a whole stack of sources at once, and a target then needs three half-plane
tests per piece.  A target within EPS of a shadow's edge, or on a ring the
source lies on, falls back to an exact test, batched per ring for the whole
stack: the contact parameters of every (segment, edge) pair are sorted row
by row and every gap midpoint is probed in one containment call.  The same
exact test decides whether a space is valid: an obstacle edge may not leave
the boundary, nor run inside another obstacle, for a stretch of positive
length.

All predicates use the tolerance ``EPS`` (in length units) and assume inputs
are well separated relative to it: a sight line from a point within a few EPS
of a ring vertex, but not within EPS of it, may be decided either way.  A
ring is simple when no edge is at most EPS long and no two edges touch: no
end of an edge lies within EPS of another edge (the vertex two neighbours
share does not count), and no two edges cross at a point inside both.  Its
area must exceed EPS/2 times its longest edge, as a triangle's does when no
vertex lies within EPS of the opposite edge.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

import numpy as np

from .errors import GeometryError, check

# Geometric tolerance, in length units.
EPS = 1e-9

# Bytes of sight-line rows kept per target set, packed eight targets to a
# byte, the oldest row dropped first: 349 rows at 3000 targets, none above
# 1,048,576 targets.  A refine reuses a vetoed joint step's rows (up to 9
# scales per moving agent) only while they all fit: 11,650 targets for 10
# agents.
_ROW_BYTES = 128 * 1024


def as_xy(p) -> np.ndarray:
    """Coerce a pair or length-2 array to a float ndarray of shape (2,)."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (2,):
        raise GeometryError(f"expected a single (x, y) location, got shape {arr.shape}")
    return arr


def as_points_array(points) -> np.ndarray:
    """Coerce a sequence of locations to a float ndarray of shape (T, 2)."""
    arr = np.asarray(
        [as_xy(p) for p in points] if isinstance(points, (list, tuple)) else points,
        dtype=float,
    )
    if arr.ndim == 1 and arr.shape == (2,):
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GeometryError(f"expected an array of (x, y) locations, got shape {arr.shape}")
    return arr


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _edge_dist2(p: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance from points p to closed edges a-b; broadcasts over leading axes."""
    ab = b - a
    ab2 = np.maximum(ab[..., 0] * ab[..., 0] + ab[..., 1] * ab[..., 1], 1e-300)
    d = p - a
    t = np.clip((d[..., 0] * ab[..., 0] + d[..., 1] * ab[..., 1]) / ab2, 0.0, 1.0)
    r = p - (a + t[..., None] * ab)
    return r[..., 0] * r[..., 0] + r[..., 1] * r[..., 1]


def _near_edge(p, a, b) -> bool:
    """Whether p lies within EPS of the edge a-b, longer than EPS: ``_edge_dist2`` in floats."""
    abx, aby = b[0] - a[0], b[1] - a[1]
    t = ((p[0] - a[0]) * abx + (p[1] - a[1]) * aby) / (abx * abx + aby * aby)
    t = min(max(t, 0.0), 1.0)
    rx, ry = p[0] - (a[0] + t * abx), p[1] - (a[1] + t * aby)
    return rx * rx + ry * ry <= EPS * EPS


def _cross_inside(p1, p2, q1, q2) -> bool:
    """Whether segments p1-p2 and q1-q2 cross at a point inside both."""
    d = _cross(q1, q2, p1), _cross(q1, q2, p2), _cross(p1, p2, q1), _cross(p1, p2, q2)
    return min(d[:2]) < 0 < max(d[:2]) and min(d[2:]) < 0 < max(d[2:])


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u . v over the last axis, rounded exactly as the 1-D ``u @ v`` is."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def closest_point_on_segment(p, a, b) -> np.ndarray:
    """Orthogonal projection of p onto segment a-b, clamped to the endpoints.

    Broadcasts over leading axes, so one point projects onto a stack of edges
    at once.  A segment no longer than EPS projects everything onto a.
    """
    p, a, b = (np.asarray(v, dtype=float) for v in (p, a, b))
    ab = b - a
    denom = _dot(ab, ab)
    short = denom <= EPS * EPS
    t = np.clip(_dot(p - a, ab) / np.where(short, 1.0, denom), 0.0, 1.0)
    return np.where(short[..., None], a, a + t[..., None] * ab)


def _turns(v: np.ndarray) -> np.ndarray:
    """Signed distance of each ring vertex from the line through its neighbours.

    Positive where the ring turns left, so a counter-clockwise ring is convex
    where every turn is positive; a turn within EPS of zero is straight.
    """
    a, c = np.roll(v, 1, axis=0), np.roll(v, -1, axis=0)
    ab, ac = v - a, c - a
    return (ab[:, 0] * ac[:, 1] - ab[:, 1] * ac[:, 0]) / np.hypot(ac[:, 0], ac[:, 1])


def _ray_crossings(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(E, T): edge a-b crosses the ray from each point toward +x (half-open rule)."""
    y = pts[:, 1]
    ax, ay, bx, by = (c[:, None] for c in (a[:, 0], a[:, 1], b[:, 0], b[:, 1]))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        xint = ax + (y - ay) * (bx - ax) / (by - ay)
    return ((ay > y) != (by > y)) & (pts[:, 0] < xint)


class Polygon:
    """A simple (non-self-intersecting) polygon with nonzero area.

    Vertices are an ordered ring; the closing edge back to the first vertex is
    implicit.  Construction validates simplicity and area and raises
    :class:`GeometryError` on violation.
    """

    def __init__(self, vertices):
        verts = as_points_array(vertices)
        check("coordinate", verts, "polygon vertex coordinates", GeometryError)
        if len(verts) >= 2 and np.linalg.norm(verts[0] - verts[-1]) <= EPS:
            verts = verts[:-1]  # tolerate an explicitly closed ring
        if len(verts) < 3:
            raise GeometryError(f"polygon needs at least 3 vertices, got {len(verts)}")
        self.vertices = verts
        self._validate_simple()
        a, b = self.edges
        if abs(self.signed_area) <= 0.5 * EPS * np.hypot(*(b - a).T).max():
            raise GeometryError("polygon has zero area")

    @cached_property
    def signed_area(self) -> float:
        x = self.vertices[:, 0]
        y = self.vertices[:, 1]
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    @property
    def area(self) -> float:
        return abs(self.signed_area)

    @cached_property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(starts, ends) arrays of shape (E, 2) for the closed ring."""
        a = self.vertices
        b = np.roll(self.vertices, -1, axis=0)
        return a, b

    @cached_property
    def bbox(self) -> tuple[float, float, float, float]:
        xs, ys = self.vertices[:, 0], self.vertices[:, 1]
        return float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max())

    @cached_property
    def is_convex(self) -> bool:
        """No turn bends against the others by more than EPS."""
        t = _turns(self.vertices)
        return bool(np.all(t >= -EPS) or np.all(t <= EPS))

    def _validate_simple(self):
        """No edge is at most EPS long, and no two edges touch.

        Two edges touch when an end of one lies within EPS of the other edge
        (an end the two share does not count), or when they cross at a point
        inside both.  Neighbours that touch fold back at the vertex they share.
        """
        v = self.vertices.tolist()
        n = len(v)
        edges = [(v[e], v[(e + 1) % n]) for e in range(n)]
        for (ax, ay), (bx, by) in edges:
            if math.sqrt((bx - ax) * (bx - ax) + (by - ay) * (by - ay)) <= EPS:
                raise GeometryError("polygon has a zero-length edge (repeated vertex)")
        # near[e][k]: vertex k, not an end of edge e, lies within EPS of edge e
        near = [
            [k != e and k != (e + 1) % n and _near_edge(v[k], *edges[e]) for k in range(n)]
            for e in range(n)
        ]
        for i, j in itertools.combinations(range(n), 2):
            i1, j1 = (i + 1) % n, (j + 1) % n
            touch = near[j][i] or near[j][i1] or near[i][j] or near[i][j1]
            if not (touch or _cross_inside(*edges[i], *edges[j])):
                continue
            if shared := {i, i1} & {j, j1}:
                x, y = v[shared.pop()]
                raise GeometryError(f"polygon folds back on itself at vertex ({x:g}, {y:g})")
            raise GeometryError(f"polygon is self-intersecting (edges {i} and {j} touch)")

    # -- containment ---------------------------------------------------------

    def contains_many(self, points) -> np.ndarray:
        """Closed containment test for an array of points (boundary counts as inside)."""
        pts = as_points_array(points)
        inside = self._parity(pts)
        outside = ~inside
        inside[outside] = self.on_boundary_many(pts[outside])
        return inside

    def strictly_contains_many(self, points) -> np.ndarray:
        """True where a point is inside and farther than EPS from the boundary."""
        pts = as_points_array(points)
        inside = self._parity(pts)
        inside[inside] = ~self.on_boundary_many(pts[inside])
        return inside

    def on_boundary_many(self, points, tol: float = EPS) -> np.ndarray:
        pts = as_points_array(points)
        a, b = self.edges
        return np.any(_edge_dist2(pts[None], a[:, None], b[:, None]) <= tol * tol, axis=0)

    def _parity(self, pts: np.ndarray) -> np.ndarray:
        """Ray-casting parity with the half-open edge rule (boundary arbitrary)."""
        return np.logical_xor.reduce(_ray_crossings(pts, *self.edges), axis=0)

    def __repr__(self):
        return f"Polygon({len(self.vertices)} vertices, area={self.area:.6g})"


def _boxes_apart(b1, b2) -> bool:
    """Whether two (xmin, ymin, xmax, ymax) boxes lie more than EPS apart on some axis."""
    return b2[0] - b1[2] > EPS or b1[0] - b2[2] > EPS or b2[1] - b1[3] > EPS or b1[1] - b2[3] > EPS


class _Rings:
    """The edges of several polygons stacked into one array, ring by ring.

    Edge e runs from ``a[e]`` to ``b[e]``; ``starts[k]`` is the first edge
    of ring k.
    """

    def __init__(self, polys: list[Polygon]):
        self.polys = polys
        self.sizes = np.array([len(poly.vertices) for poly in polys])
        self.starts = np.concatenate([[0], np.cumsum(self.sizes)[:-1]])
        self.a = np.concatenate([poly.edges[0] for poly in polys])
        self.b = np.concatenate([poly.edges[1] for poly in polys])

    def touches(self, k: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """Whether ``pts[i]`` lies within EPS of an edge of ring ``k[i]``, for each i."""
        sizes = self.sizes[k]
        first = np.cumsum(sizes) - sizes
        pair = np.repeat(np.arange(len(k)), sizes)
        e = np.arange(len(pair)) + np.repeat(self.starts[k] - first, sizes)
        d2 = _edge_dist2(pts[pair], self.a[e], self.b[e])
        return np.logical_or.reduceat(d2 <= EPS * EPS, first)


class MissionSpace:
    """Outer boundary polygon minus the open interiors of obstacle polygons."""

    def __init__(self, boundary: Polygon, obstacles: list[Polygon] | None = None):
        self.boundary = boundary
        self.obstacles = list(obstacles or [])
        self._validate()
        self._rings = _Rings([boundary] + self.obstacles)
        self._sight = None  # _SightMemo of the last target set sighted

    def _validate(self):
        """Obstacles lie in the closed boundary and have pairwise disjoint interiors.

        Each obstacle's edges are one stack of segments for the exact
        excursion test.  An edge that leaves the boundary for a positive
        length crosses it; a convex boundary needs no such test, since the
        EPS-neighbourhood of a convex set is convex, so an edge whose ends
        pass the vertex check stays inside it.  Two obstacles overlap when
        an edge of either runs strictly inside the other, or when no edge of
        the first leaves the second: their boundaries then coincide.  Two
        obstacles whose bounding boxes lie more than EPS apart on some axis
        share neither interior nor boundary, so they need none of these tests.
        """
        for k, obs in enumerate(self.obstacles):
            inside = self.boundary.contains_many(obs.vertices)
            if not np.all(inside):
                v = obs.vertices[np.argmin(inside)]
                raise GeometryError(
                    f"obstacle {k} has vertex ({v[0]:g}, {v[1]:g}) outside the boundary"
                )
            if self.boundary.is_convex:
                continue
            out = _excursions(*obs.edges, self.boundary, seek_outside=True)
            if out.any():
                raise GeometryError(f"obstacle {k} crosses the boundary (edge {np.argmax(out)})")
        for k, obs in enumerate(self.obstacles):
            for m in range(k + 1, len(self.obstacles)):
                other = self.obstacles[m]
                if _boxes_apart(obs.bbox, other.bbox):
                    continue
                if (
                    _excursions(*obs.edges, other, seek_outside=False).any()
                    or _excursions(*other.edges, obs, seek_outside=False).any()
                    or not _excursions(*obs.edges, other, seek_outside=True).any()
                ):
                    raise GeometryError(f"obstacles {k} and {m} have overlapping interiors")

    @cached_property
    def bbox(self) -> tuple[float, float, float, float]:
        return self.boundary.bbox

    @property
    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(starts, ends) of every ring edge: the boundary's, then each obstacle's."""
        return self._rings.a, self._rings.b

    def feasible_many(self, points) -> np.ndarray:
        """True where a point is in the closed boundary and in no obstacle interior.

        One parity pass decides every ring.  A point within EPS of a ring is on
        that ring, which only matters outside the boundary by parity (it is
        still inside) or inside an obstacle by parity (it is not strictly
        inside), so only those (ring, point) pairs are measured.
        """
        pts = as_points_array(points)
        r = self._rings
        check = np.logical_xor.reduceat(_ray_crossings(pts, r.a, r.b), r.starts, axis=0)
        check[0] = ~check[0]
        ok = np.ones(len(pts), dtype=bool)
        k, t = np.nonzero(check)
        if len(k):
            ok[t[~r.touches(k, pts[t])]] = False
        return ok

    @cached_property
    def _blocking(self) -> list[tuple[Polygon, bool]]:
        """Rings that can block a sight line: a non-convex boundary (True), each obstacle."""
        skip = 1 if self.boundary.is_convex else 0
        return [(poly, k == 0) for k, poly in enumerate(self._rings.polys)][skip:]

    @cached_property
    def _shadows(self):
        """The pieces of the blocking rings, built on first use."""
        # imported on first use, so importing the package, or a run in which
        # no sight line passes an obstacle, never compiles it
        from .shadows import Shadows

        return Shadows(self._rings, len(self._rings.polys) - len(self._blocking))

    def _sight_memo(self, tgt: np.ndarray) -> _SightMemo:
        """Target-side sight-line geometry for ``tgt``, kept for the last target set."""
        key = tgt.tobytes()
        if self._sight is None or self._sight.key != key:
            self._sight = _SightMemo(self, tgt, key)
        return self._sight

    def __repr__(self):
        return f"MissionSpace(boundary={self.boundary!r}, obstacles={len(self.obstacles)})"


def is_feasible(p, ms: MissionSpace) -> bool:
    """True iff p lies in the closed boundary and outside every obstacle interior."""
    return bool(ms.feasible_many(as_xy(p)[None, :])[0])


# -- line of sight -----------------------------------------------------------


def _excursions(p: np.ndarray, q: np.ndarray, poly: Polygon, seek_outside: bool) -> np.ndarray:
    """Exact check per row: does p[i]-q[i] spend positive length outside (or inside) poly?

    Each row is one segment, so a stack of sources is decided in one call.
    Collects the contact parameters of every (segment, edge) pair, padded
    with 0.0, sorts them row by row and probes the midpoint of each gap
    longer than 2 EPS in one containment call; ``seek_outside`` chooses
    whether an excursion means leaving the closed polygon or entering its
    interior.  An edge parallel to the segment adds no contact: where it
    overlaps the segment, the overlap ends at vertices whose non-parallel
    edges cross the segment there, and a gap along the overlap stays on the
    boundary.  Besides the sight-line fallback, ``MissionSpace._validate``
    runs it on obstacle edges to decide whether a space is valid.
    """
    r = q - p  # (N,2)
    rx, ry = r[:, 0][:, None], r[:, 1][:, None]
    lcol = np.hypot(r[:, 0], r[:, 1])[:, None]  # (N,1)
    a, b = poly.edges
    s = b - a  # (M,2)
    slen = np.hypot(s[:, 0], s[:, 1])  # (M,)
    ap = a - p[:, None, :]  # (N,M,2)
    denom = rx * s[:, 1] - ry * s[:, 0]  # (N,M)
    with np.errstate(divide="ignore", invalid="ignore"):
        eps_t = EPS / lcol
        t = (ap[..., 0] * s[:, 1] - ap[..., 1] * s[:, 0]) / denom
        u = (ap[..., 0] * ry - ap[..., 1] * rx) / denom
    eps_u = EPS / slen
    hit = np.abs(denom) > 1e-12 * lcol * slen
    hit &= (-eps_u <= u) & (u <= 1 + eps_u) & (-eps_t <= t) & (t <= 1 + eps_t)
    ts = np.concatenate(
        [np.zeros_like(lcol), np.ones_like(lcol), np.where(hit, np.clip(t, 0.0, 1.0), 0.0)], axis=1
    )
    ts.sort(axis=1)
    t0, t1 = ts[:, :-1], ts[:, 1:]
    row, gap = np.nonzero(((t1 - t0) * lcol > 2 * EPS) & (lcol > EPS))
    mid = p[row] + (0.5 * (t0[row, gap] + t1[row, gap]))[:, None] * r[row]
    if seek_outside:
        found = ~poly.contains_many(mid)
    else:
        found = poly.strictly_contains_many(mid)
    out = np.zeros(len(q), dtype=bool)
    out[row[found]] = True
    return out


class _SightMemo:
    """What line_of_sight_many keeps of one target set: feasibility, on-ring masks, rows.

    Whether the feasible targets lie on each blocking ring is built on first
    use, for sources on that ring.  ``rows`` maps the coordinate bytes of
    recent feasible sources to their decided (T,) masks, packed, oldest
    first, within the ``_ROW_BYTES`` budget.
    """

    def __init__(self, ms: MissionSpace, tgt: np.ndarray, key: bytes):
        self.key = key
        self.feasible = ms.feasible_many(tgt)
        self.idx = np.nonzero(self.feasible)[0]
        self.pts = tgt[self.idx]
        self.xy = np.ascontiguousarray(self.pts.T)  # (2, T) rows for the shadow pass
        self.rings = ms._blocking
        self._on_ring = [None] * len(self.rings)
        self.rows: dict[bytes, np.ndarray] = {}
        self._cap = _ROW_BYTES // ((len(tgt) + 7) // 8)

    def on_ring(self, k: int) -> np.ndarray:
        if self._on_ring[k] is None:
            self._on_ring[k] = self.rings[k][0].on_boundary_many(self.pts)
        return self._on_ring[k]

    def row(self, key: bytes) -> np.ndarray | None:
        """The kept mask of the source whose coordinate bytes are ``key``, if any."""
        packed = self.rows.get(key)
        if packed is None:
            return None
        return np.unpackbits(packed, count=len(self.feasible)).view(bool)

    def keep(self, rows) -> None:
        """Keep new sources' (key, row) pairs, packed, dropping the oldest past the budget."""
        if not self._cap:  # not even one row fits
            return
        for key, row in rows:
            self.rows[key] = np.packbits(row)
        for key in list(itertools.islice(self.rows, max(len(self.rows) - self._cap, 0))):
            del self.rows[key]


def _is_one_location(p) -> bool:
    """A numeric (2,) array-like, as opposed to a stack of locations."""
    try:
        return np.shape(np.asarray(p, dtype=float)) == (2,)
    except (TypeError, ValueError):  # e.g. a ragged list
        return False


def line_of_sight_many(sources, targets, ms: MissionSpace) -> np.ndarray:
    """True where the segment source-target stays inside the feasible region.

    ``sources`` is one location, giving a (T,) mask, or a (k, 2) stack of
    them, giving one row per source: shape (k, T).  Range is not considered
    here; combine with a distance test for full visibility.  Infeasible
    sources see nothing, and targets outside the closed boundary or
    strictly inside an obstacle are never sighted.

    Seen from a source, a convex piece of a blocking ring hides exactly the
    targets in its shadow: past the chord between its two tangent vertices
    and between the sight lines through them.  The lines of every piece
    are found for the whole stack at once, then each source's targets are
    tested against them in one pass: a target is blocked when it lies more
    than EPS inside all three lines of some piece, measured for the tangent
    lines as the tangent vertex's distance from the sight line.  A target
    inside the others but within EPS of one of them falls back to the exact
    excursion test of the piece's ring, and so does a target on a ring the
    source lies on, whatever that ring's own pieces say; the fallback runs
    one batch per ring for the whole stack.  Zero-length segments are never
    blocked.  Target-side work (feasibility, on-ring masks) is kept on
    ``ms`` for later calls with the same targets, and so are the rows of the
    last feasible sources decided against them, keyed by their coordinate
    bytes (``_SightMemo``).  A kept source's row is unpacked into the
    result, and only the other sources reach the shadow pass and the exact
    fallback.  A space with no blocking ring keeps no rows.
    """
    if _is_one_location(sources):
        return line_of_sight_many(as_xy(sources)[None, :], targets, ms)[0]
    src = as_points_array(sources)
    tgt = as_points_array(targets)
    out = np.zeros((len(src), len(tgt)), dtype=bool)
    if len(tgt) == 0:
        return out
    rows = np.flatnonzero(ms.feasible_many(src))
    if len(rows) == 0:
        return out
    memo = ms._sight_memo(tgt)
    out[rows] = memo.feasible
    if not memo.rings or not len(memo.idx):
        return out
    # a source seen before copies its kept row; only the others are decided
    new = []  # (key, row) of each source without a kept row
    for r in rows:
        key = src[r].tobytes()
        if (kept := memo.row(key)) is not None:
            out[r] = kept
        else:
            new.append((key, r))
    if not new:
        return out
    rows = np.array([r for _, r in new], dtype=np.intp)
    shadows = ms._shadows
    src = src[rows]
    pts = memo.pts
    normals, off = shadows.lines(src)
    src_on = shadows.source_on(src)  # (k,R)

    pending = []  # (ring, source, target) triples still clear after the shadow pass
    n_pieces, n_pts = off.shape[1], len(pts)
    for i, p in enumerate(src):
        sv = memo.xy - p[:, None]  # (2,T)
        svn = np.sqrt(sv[0] * sv[0] + sv[1] * sv[1])
        live = svn > EPS  # zero-length segments are never blocked
        # every piece's three lines against every target in one product
        d = (normals[i] @ sv).reshape(3, n_pieces, n_pts)
        chord = d[2]
        chord += off[i, :, None]
        chord *= svn
        # depth inside all three lines, scaled by |t - s| like the tangent rows
        depth = np.minimum(d[0], d[1], out=d[0])
        np.minimum(depth, chord, out=depth)  # (P,T)
        eps = EPS * svn
        blocked = live & (depth.max(axis=0, initial=-np.inf) > eps)
        # a target on a ring the source lies on is decided by that ring's
        # exact test, whatever the ring's own pieces say
        for k in np.flatnonzero(src_on[i]):
            t = np.flatnonzero(memo.on_ring(k) & live)
            blocked[t] = (depth[shadows.owner != k][:, t] > eps[t]).any(axis=0)
            t = t[~blocked[t]]
            pending.append((np.full(len(t), k), np.full(len(t), i), t))
        out[rows[i], memo.idx] = ~blocked
        near = np.abs(depth, out=chord) <= eps
        near &= live & ~blocked
        piece, t = np.divmod(np.flatnonzero(near), n_pts)
        pending.append((shadows.owner[piece], np.full(len(t), i), t))

    # exact fallback, ring by ring: a target blocked by an earlier ring is
    # not tested again
    ring, i, t = (np.concatenate(c) for c in zip(*pending))
    oi, ot = rows[i], memo.idx[t]  # the same pairs, indexing ``out``
    for k in np.unique(ring):
        sel = np.flatnonzero(ring == k)
        sel = sel[out[oi[sel], ot[sel]]]
        if len(sel):
            out[oi[sel], ot[sel]] = ~_excursions(src[i[sel]], pts[t[sel]], *memo.rings[k])
    memo.keep((key, out[r]) for key, r in new)
    return out
