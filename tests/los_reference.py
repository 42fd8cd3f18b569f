"""Reference geometry: one polygon at a time, decided per call.

These are the per-polygon kernels that ``coverplan.geometry`` replaced:
containment by one parity count and one dense edge distance per polygon,
feasibility as a loop over the obstacles, the scalar excursion test that
probes one gap midpoint at a time, and line of sight with target masks
re-decided on every call.  They are slow, but they are the equivalence
oracles the stacked kernels must match bit for bit, so they take nothing
from ``coverplan`` but the polygon's vertex ring and ``EPS``.

Precondition of the EPS contract: a sight-line source lies on a ring vertex
(within EPS of it) or well away from every ring vertex (1e-6 in the tests).
A source between EPS and a few EPS from a vertex may be decided either way,
and there the reference and ``line_of_sight_many`` can disagree: the
reference's per-edge crossing test may block a target on the source's ring
through a corner of size ~EPS that the library's exact test clears, and a
target exactly on the line of an edge at that vertex may be blocked by the
library's shadow test and cleared here.  Whether one rule both sides agree
on exists for that band is still open.  Until it is settled, the property
tests draw no source in that band; only two pinned cases do, one where the
two sides agree and one strict xfail where they do not.
"""

import numpy as np

from coverplan.geometry import EPS, MissionSpace, Polygon


def _points(points) -> np.ndarray:
    return np.asarray(points, dtype=float).reshape(-1, 2)


def _edge_dist2(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distance from each point to each closed edge a-b: shape (E, T)."""
    ab = b - a  # (E,2)
    ab2 = np.maximum(np.sum(ab * ab, axis=1), 1e-300)  # (E,)
    diff = pts[None, :, :] - a[:, None, :]  # (E,T,2)
    t = np.clip(np.einsum("etk,ek->et", diff, ab) / ab2[:, None], 0.0, 1.0)
    closest = a[:, None, :] + t[:, :, None] * ab[None, :, :].swapaxes(0, 1)
    return np.sum((pts[None, :, :] - closest) ** 2, axis=-1)


def _parity(poly: Polygon, pts: np.ndarray) -> np.ndarray:
    """Ray-casting parity with the half-open edge rule (boundary arbitrary)."""
    x = pts[:, 0]
    y = pts[:, 1]
    a, b = poly.edges
    ay = a[:, 1][:, None]
    by = b[:, 1][:, None]
    ax = a[:, 0][:, None]
    bx = b[:, 0][:, None]
    straddles = (ay > y[None, :]) != (by > y[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = ax + (y[None, :] - ay) * (bx - ax) / (by - ay)
    crossings = straddles & (x[None, :] < xint)
    return (np.sum(crossings, axis=0) % 2).astype(bool)


def on_boundary_many(poly: Polygon, points) -> np.ndarray:
    pts = _points(points)
    return np.any(_edge_dist2(pts, *poly.edges) <= EPS * EPS, axis=0)


def contains_many(poly: Polygon, points) -> np.ndarray:
    """Closed containment: boundary points count as inside."""
    pts = _points(points)
    return _parity(poly, pts) | on_boundary_many(poly, pts)


def strictly_contains_many(poly: Polygon, points) -> np.ndarray:
    """Inside and farther than EPS from the boundary."""
    pts = _points(points)
    return _parity(poly, pts) & ~on_boundary_many(poly, pts)


def reference_feasible_many(ms: MissionSpace, points) -> np.ndarray:
    """In the closed boundary and in no obstacle interior, one obstacle at a time."""
    pts = _points(points)
    ok = contains_many(ms.boundary, pts)
    for obs in ms.obstacles:
        ok &= ~strictly_contains_many(obs, pts)
    return ok


def _segment_excursion(p, q, poly: Polygon, seek_outside: bool) -> bool:
    """Exact check: does p-q spend positive length outside (or inside) poly?

    Collects every contact parameter of the segment with the polygon edges and
    probes the midpoint of each gap; ``seek_outside`` chooses whether an
    excursion means leaving the closed polygon or entering its interior.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    r = q - p
    length = float(np.hypot(r[0], r[1]))
    if length <= EPS:
        return False
    eps_t = EPS / length
    ts = [0.0, 1.0]
    a, b = poly.edges
    for i in range(len(a)):
        s = b[i] - a[i]
        slen = float(np.hypot(s[0], s[1]))
        denom = r[0] * s[1] - r[1] * s[0]
        if abs(denom) > 1e-12 * length * slen:
            ap = a[i] - p
            t = (ap[0] * s[1] - ap[1] * s[0]) / denom
            u = (ap[0] * r[1] - ap[1] * r[0]) / denom
            eps_u = EPS / slen
            if -eps_t <= t <= 1 + eps_t and -eps_u <= u <= 1 + eps_u:
                ts.append(min(1.0, max(0.0, t)))
        else:
            # parallel; collect overlap endpoints when collinear
            off = abs((a[i][0] - p[0]) * r[1] - (a[i][1] - p[1]) * r[0]) / length
            if off <= EPS:
                for v in (a[i], b[i]):
                    t = float((v - p) @ r) / (length * length)
                    if -eps_t <= t <= 1 + eps_t:
                        ts.append(min(1.0, max(0.0, t)))
    ts.sort()
    for t0, t1 in zip(ts[:-1], ts[1:]):
        if (t1 - t0) * length <= 2 * EPS:
            continue
        m = p + (0.5 * (t0 + t1)) * r
        if seek_outside:
            if not contains_many(poly, m)[0]:
                return True
        else:
            if strictly_contains_many(poly, m)[0]:
                return True
    return False


def _blocked_by_polygon(source, targets, poly: Polygon, seek_outside: bool) -> np.ndarray:
    """Vectorized block test for one polygon against many targets.

    Transversal edge crossings are decided in bulk; targets with a degenerate
    contact (segment through a vertex, or both endpoints on the polygon) fall
    back to the exact scalar excursion test.
    """
    src = np.asarray(source, dtype=float)
    tgt = _points(targets)
    a, b = poly.edges
    ab = b - a
    abn = np.maximum(np.linalg.norm(ab, axis=1), 1e-300)  # (E,)

    d1 = ab[:, 0] * (src[1] - a[:, 1]) - ab[:, 1] * (src[0] - a[:, 0])  # (E,)
    s1 = d1 / abn
    d2 = ab[:, 0][:, None] * (tgt[:, 1][None, :] - a[:, 1][:, None]) - ab[:, 1][
        :, None
    ] * (tgt[:, 0][None, :] - a[:, 0][:, None])  # (E,T)
    s2 = d2 / abn[:, None]

    sv = tgt - src[None, :]  # (T,2)
    svn = np.linalg.norm(sv, axis=1)  # (T,)
    svn_safe = np.maximum(svn, 1e-300)
    # cross(sv, vertex - src) for both edge endpoints
    d3 = sv[:, 0][None, :] * (a[:, 1] - src[1])[:, None] - sv[:, 1][None, :] * (
        a[:, 0] - src[0]
    )[:, None]  # (E,T)
    d4 = sv[:, 0][None, :] * (b[:, 1] - src[1])[:, None] - sv[:, 1][None, :] * (
        b[:, 0] - src[0]
    )[:, None]
    s3 = d3 / svn_safe[None, :]
    s4 = d4 / svn_safe[None, :]

    opp_edge = (s1[:, None] * s2 < 0) & (np.abs(s1) > EPS)[:, None] & (np.abs(s2) > EPS)
    opp_seg = (s3 * s4 < 0) & (np.abs(s3) > EPS) & (np.abs(s4) > EPS)
    blocked = np.any(opp_edge & opp_seg, axis=0)

    live = svn > EPS  # zero-length segments are never blocked
    blocked &= live

    # degenerate contacts: vertex on the open segment, or endpoints on the ring
    along = np.einsum("tk,ek->et", sv, a - src[None, :]) / svn_safe[None, :]  # (E,T)
    vtx_touch = (
        (np.abs(s3) <= EPS) & (along > EPS) & (along < (svn - EPS)[None, :])
    ).any(axis=0)
    suspect = vtx_touch & live & ~blocked
    if on_boundary_many(poly, src)[0]:
        tgt_on = on_boundary_many(poly, tgt)
        suspect |= tgt_on & live & ~blocked
    idx = np.nonzero(suspect)[0]
    for t in idx:
        if _segment_excursion(src, tgt[t], poly, seek_outside):
            blocked[t] = True
    return blocked


def reference_line_of_sight_many(source, targets, ms: MissionSpace) -> np.ndarray:
    """True where the segment source-target stays inside the feasible region."""
    src = np.asarray(source, dtype=float)
    tgt = _points(targets)
    if not reference_feasible_many(ms, src)[0]:
        return np.zeros(len(tgt), dtype=bool)
    clear = contains_many(ms.boundary, tgt)
    if not ms.boundary.is_convex:
        clear &= ~_blocked_by_polygon(src, tgt, ms.boundary, seek_outside=True)
    for obs in ms.obstacles:
        if not np.any(clear):
            break
        clear &= ~strictly_contains_many(obs, tgt)
        clear &= ~_blocked_by_polygon(src, tgt, obs, seek_outside=False)
    return clear
