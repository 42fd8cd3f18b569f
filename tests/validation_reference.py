"""Reference mission-space validation: scalar crossing loops plus interior samples.

This is the check that ``MissionSpace._validate`` replaced.  Obstacle edges
are tested against boundary edges and against each other by a scalar proper
crossing test, one (edge, edge) pair at a time, and nested or coincident
obstacles are caught by up to 16 rejection-sampled interior points per
obstacle, all drawn from one seeded stream.  It decides on sampled points,
so it can miss an obstacle that leaves the boundary without a proper edge
crossing; it is the oracle for every space it rejects and, up to such
misses, for every space it accepts.
"""

import numpy as np

from coverplan.errors import GeometryError
from coverplan.geometry import EPS, _cross


def properly_cross(p1, p2, q1, q2) -> bool:
    """Transversal crossing at points interior to both segments."""
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    lq = np.hypot(q2[0] - q1[0], q2[1] - q1[1])
    lp = np.hypot(p2[0] - p1[0], p2[1] - p1[1])
    if lq <= EPS or lp <= EPS:
        return False
    t1, t2 = d1 / lq, d2 / lq
    t3, t4 = d3 / lp, d4 / lp
    return (t1 * t2 < 0 and abs(t1) > EPS and abs(t2) > EPS) and (
        t3 * t4 < 0 and abs(t3) > EPS and abs(t4) > EPS
    )


def loop_interior_samples(poly, rng, count=16):
    """Rejection sampling one pair at a time, stopping at the count-th acceptance."""
    xmin, ymin, xmax, ymax = poly.bbox
    picked = []
    for _ in range(200 * count):
        p = rng.uniform((xmin, ymin), (xmax, ymax))
        if poly.strictly_contains_many(p[None, :])[0]:
            picked.append(p)
            if len(picked) == count:
                break
    if not picked:
        a, b = poly.edges
        picked = [0.5 * (a[i] + b[i]) for i in range(len(a))]
    return np.asarray(picked)


def validate_reference(boundary, obstacles):
    """Raise GeometryError as the replaced ``MissionSpace._validate`` did."""
    ba, bb = boundary.edges
    for k, obs in enumerate(obstacles):
        inside = boundary.contains_many(obs.vertices)
        if not np.all(inside):
            v = obs.vertices[np.argmin(inside)]
            raise GeometryError(
                f"obstacle {k} has vertex ({v[0]:g}, {v[1]:g}) outside the boundary"
            )
        oa, ob = obs.edges
        for i in range(len(oa)):
            for j in range(len(ba)):
                if properly_cross(oa[i], ob[i], ba[j], bb[j]):
                    raise GeometryError(f"obstacle {k} crosses the boundary (edge {i})")
    rng = np.random.default_rng(0)
    samples = [loop_interior_samples(obs, rng) for obs in obstacles]
    for k in range(len(obstacles)):
        for m in range(k + 1, len(obstacles)):
            ka, kb = obstacles[k].edges
            ma, mb = obstacles[m].edges
            for i in range(len(ka)):
                for j in range(len(ma)):
                    if properly_cross(ka[i], kb[i], ma[j], mb[j]):
                        raise GeometryError(f"obstacles {k} and {m} overlap (crossing edges)")
            if np.any(obstacles[m].strictly_contains_many(samples[k])) or np.any(
                obstacles[k].strictly_contains_many(samples[m])
            ):
                raise GeometryError(f"obstacles {k} and {m} have overlapping interiors")
