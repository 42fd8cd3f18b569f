"""Convex pieces of the rings that block sight lines, and the shadows they cast.

Seen from a source, a convex piece hides exactly the targets in its shadow:
past the chord between its two tangent vertices and between the sight lines
through them (as in visibility-polygon methods, Asano 1985).  A convex
obstacle is one piece and any other is cut into ears; a non-convex boundary
blocks a sight line where it leaves the boundary, that is, where it crosses
one of the pockets between the boundary and its convex hull, cut the same
way.  ``geometry.line_of_sight_many`` tests targets against the lines built
here and falls back to its exact test near them.
"""

from __future__ import annotations

import numpy as np

from .errors import GeometryError
from .geometry import EPS, Polygon, _cross, _edge_dist2, _Rings, _turns


def _ccw(v: np.ndarray) -> np.ndarray:
    """The ring counter-clockwise, without its straight vertices."""
    x, y = v[:, 0], v[:, 1]
    if np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) < 0:
        v = v[::-1]
    while len(v) >= 3 and np.any(straight := np.abs(_turns(v)) <= EPS):
        v = v[~straight]
    return v


def _hull(v: np.ndarray) -> np.ndarray:
    """Counter-clockwise convex hull of the points (monotone chain), corners only."""
    pts = sorted(map(tuple, v))

    def chain(seq):
        h = []
        for p in seq:
            while len(h) >= 2 and _cross(h[-2], h[-1], p) <= 0:
                h.pop()
            h.append(p)
        return h[:-1]

    return np.array(chain(pts) + chain(pts[::-1]))


def _pockets(v: np.ndarray) -> list[np.ndarray]:
    """Rings of the regions between the counter-clockwise ring v and its hull.

    The ring touches its hull at some vertices; each run of ring vertices
    between two touches, closed by the hull edge across, bounds one pocket.
    """
    hull = _hull(v)
    touch = np.flatnonzero(
        np.any(_edge_dist2(v[:, None], hull, np.roll(hull, -1, axis=0)) <= EPS * EPS, axis=1)
    )
    n = len(v)
    spans = (np.roll(touch, -1) - touch) % n
    return [v[(p + np.arange(span + 1)) % n] for p, span in zip(touch, spans) if span > 1]


def _convex_pieces(v: np.ndarray) -> list[np.ndarray]:
    """Counter-clockwise convex rings whose union is the ring v: v itself, or its ears.

    Ear clipping cuts off a convex vertex whose triangle holds no other
    vertex, not even within EPS, so every cut runs through the interior.
    """
    ring = _ccw(v)
    if len(ring) < 3:
        return []
    if np.all(_turns(ring) > 0):
        return [ring]
    pieces = []
    while len(ring) > 3:
        n = len(ring)
        for j in np.flatnonzero(_turns(ring) > 0):
            corners = [(j - 1) % n, j, (j + 1) % n]
            tri, rest = ring[corners], np.delete(ring, corners, axis=0)
            e = np.roll(tri, -1, axis=0) - tri
            # each other vertex's distance inside each triangle edge, times its length
            rel = rest[:, None, :] - tri
            side = e[:, 0] * rel[..., 1] - e[:, 1] * rel[..., 0]
            if not np.any(np.all(side >= -EPS * np.hypot(e[:, 0], e[:, 1]), axis=1)):
                break
        else:
            raise GeometryError("polygon has no ear to clip")
        pieces.append(tri)
        ring = _ccw(np.delete(ring, j, axis=0))
    if len(ring) == 3:
        pieces.append(ring)
    return pieces


class Shadows:
    """The convex pieces of the blocking rings, padded to one vertex count.

    ``rings`` holds each blocking ring with whether its pockets block (a
    boundary) or its interior does (an obstacle); ``owner`` tags each piece
    with its ring.  A piece is padded by repeating its last edge, so the
    tangent vertices of every piece, seen from every source of a stack, are
    found in one pass.
    """

    def __init__(self, rings: list[tuple[Polygon, bool]]):
        self.edges = _Rings([poly for poly, _ in rings])  # for the source-on-ring test
        pieces, owner = [], []
        for k, (poly, pockets) in enumerate(rings):
            for ring in _pockets(_ccw(poly.vertices)) if pockets else [poly.vertices]:
                for piece in _convex_pieces(ring):
                    pieces.append(piece)
                    owner.append(k)
        self.owner = np.array(owner, dtype=int)
        m = max((len(p) for p in pieces), default=3)
        self.vert = np.array(
            [np.concatenate([p, p[-1:].repeat(m - len(p), 0)]) for p in pieces]
        ).reshape(len(pieces), m, 2)
        e = np.roll(self.vert, -1, axis=1) - self.vert
        for p, pe in zip(pieces, e):
            pe[len(p) - 1 :] = p[0] - p[-1]
        # inward unit normal and offset of each edge line
        el = np.hypot(e[..., 0], e[..., 1])
        self.nx, self.ny = -e[..., 1] / el, e[..., 0] / el
        self.c = self.nx * self.vert[..., 0] + self.ny * self.vert[..., 1] + EPS
        self.before = np.roll(np.arange(m), 1)

    def lines(self, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The three lines bounding each piece's shadow, seen from each source.

        A and B are the first and last vertex of the chain of a piece's edges
        that face the source; an edge line within EPS of the source faces
        it.  Returns normals of shape (k, 3P, 2), to be dotted with ``t - s``,
        and chord offsets of shape (k, P).  The first P rows give
        ``cross(t - s, A - s)``, the next P ``cross(B - s, t - s)``: each is
        positive where A lies left of, or B right of, the sight line, and
        divided by ``|t - s|`` it is that vertex's distance from the line.
        The last P are the unit-normal chord from A to B, positive on the
        far side once the offset is added.  A piece that shows the source no
        chain gets a zero chord normal and offset -1: every target lies a
        unit outside it.
        """
        k, n_pieces = len(src), len(self.vert)
        facing = self.nx * src[:, 0, None, None] + self.ny * src[:, 1, None, None] <= self.c
        before = facing[..., self.before]
        opens = facing & ~before  # (k,P,M)
        first = opens.argmax(axis=2)
        piece = np.arange(n_pieces)
        a = self.vert[piece, first] - src[:, None]  # (k,P,2): A - s
        b = self.vert[piece, (before & ~facing).argmax(axis=2)] - src[:, None]
        u = b - a
        ul = np.hypot(u[..., 0], u[..., 1])
        ok = opens[np.arange(k)[:, None], piece, first] & (ul > 0)
        ul[~ok] = np.inf
        n = np.empty((k, 3, n_pieces, 2))
        n[:, 0, :, 0], n[:, 0, :, 1] = a[..., 1], -a[..., 0]
        n[:, 1, :, 0], n[:, 1, :, 1] = -b[..., 1], b[..., 0]
        n[:, 2, :, 0], n[:, 2, :, 1] = -u[..., 1] / ul, u[..., 0] / ul
        off = np.where(ok, -(n[:, 2, :, 0] * a[..., 0] + n[:, 2, :, 1] * a[..., 1]), -1.0)
        return n.reshape(k, 3 * n_pieces, 2), off

    def source_on(self, src: np.ndarray) -> np.ndarray:
        """(k, R): whether each source lies within EPS of each blocking ring."""
        e = self.edges
        d2 = _edge_dist2(src[:, None, :], e.a, e.b)
        return np.logical_or.reduceat(d2 <= EPS * EPS, e.starts, axis=1)
