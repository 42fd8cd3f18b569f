"""The pieces of the rings that block sight lines, and the shadows they cast.

Seen from a source, a convex piece hides exactly the targets in its shadow:
past the chord between its two tangent vertices and between the sight lines
through them (as in visibility-polygon methods, Asano 1985).  A convex
blocking ring is one piece.  Any other ring, obstacle or boundary, is one
piece per edge: a segment between two feasible points spends positive length
inside an obstacle, or outside a non-convex boundary, exactly when it crosses
one of the ring's edges or passes a vertex, and an edge hides the targets
behind it.  ``geometry.line_of_sight_many`` tests targets against the lines
built here and falls back to its exact test near them.
"""

from __future__ import annotations

import numpy as np

from .geometry import EPS, Polygon, _edge_dist2, _Rings, _turns


def _ccw(poly: Polygon) -> np.ndarray:
    """The ring counter-clockwise, without its straight vertices."""
    v = poly.vertices if poly.signed_area > 0 else poly.vertices[::-1]
    while len(v) >= 3 and np.any(straight := np.abs(_turns(v)) <= EPS):
        v = v[~straight]
    return v


def _pieces(poly: Polygon) -> list[np.ndarray]:
    """The ring itself if it is convex, counter-clockwise; else each edge as a two-vertex piece."""
    ring = _ccw(poly)
    if len(ring) < 3:
        return []
    if np.all(_turns(ring) > 0):
        return [ring]
    return list(np.stack([ring, np.roll(ring, -1, axis=0)], axis=1))


class Shadows:
    """The pieces of the blocking rings, padded to one vertex count.

    The blocking rings are ``rings.polys[first:]``: the boundary blocks only
    when it is not convex.  ``owner`` tags each piece with its blocking ring.
    A piece is padded by repeating its last edge, so the tangent vertices of
    every piece, seen from every source of a stack, are found in one pass.
    A two-vertex piece's padding is its edge run backwards, so from either
    side of its line its ends are the tangent vertices.
    """

    def __init__(self, rings: _Rings, first: int):
        start = rings.sizes[:first].sum()
        self.a, self.b = rings.a[start:], rings.b[start:]  # for the source-on-ring test
        self.starts = rings.starts[first:] - start
        per_ring = [_pieces(poly) for poly in rings.polys[first:]]
        self.owner = np.repeat(np.arange(len(per_ring)), [len(p) for p in per_ring])
        pieces = [piece for ring in per_ring for piece in ring]
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
        d2 = _edge_dist2(src[:, None, :], self.a, self.b)
        return np.logical_or.reduceat(d2 <= EPS * EPS, self.starts, axis=1)
