"""Reference line of sight: one polygon at a time, target masks decided per call.

This is the per-polygon kernel that ``coverplan.geometry.line_of_sight_many``
replaced.  It re-decides every target-side fact on each call and loops over
the obstacles in Python, so it is slow, but it is the equivalence oracle the
stacked kernel must match bit for bit.
"""

import numpy as np

from coverplan.geometry import (
    EPS,
    MissionSpace,
    Polygon,
    _segment_excursion,
    as_points_array,
    as_xy,
    is_feasible,
)


def _blocked_by_polygon(source, targets, poly: Polygon, seek_outside: bool) -> np.ndarray:
    """Vectorized block test for one polygon against many targets.

    Transversal edge crossings are decided in bulk; targets with a degenerate
    contact (segment through a vertex, or both endpoints on the polygon) fall
    back to the exact scalar excursion test.
    """
    src = np.asarray(source, dtype=float)
    tgt = as_points_array(targets)
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
    if poly.on_boundary(src):
        tgt_on = poly.on_boundary_many(tgt)
        suspect |= tgt_on & live & ~blocked
    idx = np.nonzero(suspect)[0]
    for t in idx:
        if _segment_excursion(src, tgt[t], poly, seek_outside):
            blocked[t] = True
    return blocked


def reference_line_of_sight_many(source, targets, ms: MissionSpace) -> np.ndarray:
    """True where the segment source-target stays inside the feasible region."""
    src = as_xy(source)
    tgt = as_points_array(targets)
    if not is_feasible(src, ms):
        return np.zeros(len(tgt), dtype=bool)
    clear = ms.boundary.contains_many(tgt)
    if not ms.boundary.is_convex:
        clear &= ~_blocked_by_polygon(src, tgt, ms.boundary, seek_outside=True)
    for obs in ms.obstacles:
        if not np.any(clear):
            break
        clear &= ~obs.strictly_contains_many(tgt)
        clear &= ~_blocked_by_polygon(src, tgt, obs, seek_outside=False)
    return clear
