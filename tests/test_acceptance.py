"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line
(run with -s to see them as they happen).  The heavy refinement runs are
memoized so overlapping criteria pay for them once.
"""

import numpy as np
import pytest

from coverplan import (
    DetectionCache,
    QuadratureGrid,
    SensorModel,
    UniformDensity,
    bound_from_elemental,
    bound_from_total,
    bound_report,
    brute_force,
    bundled_scenario_path,
    candidate_lattice,
    check_definition_equivalence,
    check_submodular,
    detection_matrix,
    greedy_place,
    objective_gradient,
    parse_scenario,
    refine,
    sweep_bounds,
)

from problems import random_space

BUNDLED = ["empty_60x50", "wall_60x50", "maze_60x50", "random_60x50", "rooms_60x50"]

_scenario_cache = {}
_gga_cache = {}


def _report(number, label, ok, detail=""):
    suffix = f"  [{detail}]" if detail and not ok else ""
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"criterion {number} ({label}) failed {detail}"


def _load(name):
    if name not in _scenario_cache:
        sc = parse_scenario(bundled_scenario_path(name))
        space = sc.build_space()
        _scenario_cache[name] = (sc, space, sc.build_grid(), sc.build_candidates())
    return _scenario_cache[name]


def _gga(name, decay):
    key = (name, decay)
    if key not in _gga_cache:
        sc, space, grid, cand = _load(name)
        sensor = SensorModel(decay=decay, radius=sc.sensor["radius"])
        seed = greedy_place(space, grid, sensor, cand, sc.team_size)
        refined = refine(seed.positions, grid, sensor, **sc.refine)
        _gga_cache[key] = (seed, refined)
    return _gga_cache[key]


def _small_instance(seed):
    """Random small instance: space, grid, sensor, at most 14 candidates."""
    rng = np.random.default_rng(seed)
    space = random_space(rng, with_obstacle=bool(seed % 2))
    grid = QuadratureGrid(space, 1.0, UniformDensity())
    cand = candidate_lattice(space, 6.0)
    if len(cand) > 14:
        cand = cand[rng.choice(len(cand), size=14, replace=False)]
    sensor = SensorModel(decay=float(rng.uniform(0.05, 0.4)), radius=100.0)
    return space, grid, sensor, cand


def test_criterion_1_bound_formulas():
    ok = abs(bound_from_elemental(1.0, 10) - 0.6513) <= 5e-5
    for n in range(1, 51):
        ok &= abs(bound_from_total(1.0, n) - bound_from_elemental(1.0, n)) <= 1e-12
    floor = 1.0 - 1.0 / np.e
    for n in (1, 2, 5, 10, 50):
        for x in np.linspace(0.0, 1.0, 101):
            ok &= bound_from_total(float(x), n) >= floor
    for n in (1, 2, 5, 10, 50):
        ok &= bound_from_elemental(0.0, n) == 1.0
        ok &= bound_from_total(0.0, n) == 1.0
    _report(1, "bound formulas", ok)


def test_criterion_2_submodularity():
    bad = []
    for name, seed in (("empty_60x50", 0), ("wall_60x50", 1), ("maze_60x50", 2)):
        sc, _, grid, cand = _load(name)
        report = check_submodular(cand, grid, sc.build_sensor(), trials=1000, seed=seed)
        if report.violations:
            bad.append(f"{name}: {report.as_text()}")
    _report(2, "monotone submodularity", not bad, "; ".join(bad))


def test_criterion_3_definition_equivalence(one_block):
    cand = candidate_lattice(one_block, 6.0)
    assert len(cand) == 8
    grid = QuadratureGrid(one_block, 1.0, UniformDensity())
    sensor = SensorModel(decay=0.15, radius=30.0)
    report = check_definition_equivalence(cand, grid, sensor, trials=500, seed=0)
    _report(3, "definition equivalence", report.violations == 0, report.as_text())


def test_criterion_4_guarantee_chain():
    floor = 1.0 - 1.0 / np.e
    failures = []
    count = 0
    seed = 0
    while count < 50:
        seed += 1
        space, grid, sensor, cand = _small_instance(seed)
        if len(cand) < 2:
            continue
        team = min(4, len(cand))
        probs = detection_matrix(cand, space, grid.centers, sensor)
        cert = bound_report(probs, grid, team)
        greedy = greedy_place(space, grid, sensor, cand, team)
        exact = brute_force(cand, team, grid, sensor)
        ratio = greedy.value / exact.best_value
        if ratio < cert.certified - 1e-9 or ratio < floor - 1e-9:
            failures.append(f"seed {seed}: ratio {ratio:.6f} < bound {cert.certified:.6f}")
        count += 1
    _report(4, "greedy guarantee chain", not failures, "; ".join(failures[:3]))


def test_criterion_5_near_saturation():
    _, refined = _gga("empty_60x50", 0.02)
    ok = 0.995 * 3000.0 <= refined.value <= 3000.0
    _report(5, "near-saturation coverage", ok, f"final H = {refined.value:.4f}")


def test_criterion_6_refinement_dominance():
    failures = []
    for name in BUNDLED:
        for decay in (0.02, 0.12, 0.4):
            seed, refined = _gga(name, decay)
            if refined.value < seed.value * (1.0 - 1e-9):
                failures.append(f"{name}@{decay}: lost coverage")
            values = np.array([s.value for s in refined.steps])
            if np.any(np.diff(values) < -1e-9):
                failures.append(f"{name}@{decay}: trace decreased")
    seed, refined = _gga("empty_60x50", 0.12)
    gain = (refined.value - seed.value) / seed.value
    if gain < 0.005:
        failures.append(f"empty@0.12 improvement {gain:.4%} < 0.5%")
    _report(6, "refinement dominance", not failures, "; ".join(failures))


def test_criterion_7_complementarity_sweeps():
    sc, space, grid, cand = _load("empty_60x50")
    cache = DetectionCache(cand, space, grid.centers)
    base = sc.build_sensor()
    problems = []

    decays = np.arange(1, 101) * 0.005
    rows = sweep_bounds(cache, grid, sc.team_size, base, "decay", decays)
    t = np.array([r.from_total for _, r in rows])
    e = np.array([r.from_elemental for _, r in rows])
    if np.any(np.diff(t) < -1e-9):
        problems.append("T not nondecreasing in decay")
    if np.any(np.diff(e) > 1e-9):
        problems.append("E not nonincreasing in decay")
    if not e[0] > t[0]:
        problems.append(f"E ({e[0]:.4f}) not above T ({t[0]:.4f}) at decay {decays[0]}")
    if not t[-1] > e[-1]:
        problems.append(f"T ({t[-1]:.4f}) not above E ({e[-1]:.4f}) at decay {decays[-1]}")

    diagonal = float(np.hypot(60.0, 50.0))
    radii = [40.0, 60.0, 80.0, 90.0, 100.0, 120.0]
    lam = SensorModel(decay=0.03, radius=base.radius)
    rows = sweep_bounds(cache, grid, sc.team_size, lam, "radius", radii)
    saturated = [r.from_elemental for v, r in rows if v >= diagonal]
    if max(saturated) - min(saturated) > 1e-12:
        problems.append("E not constant past the space diagonal")
    _report(7, "complementarity sweeps", not problems, "; ".join(problems))


def test_criterion_8_gradient_consistency():
    sc, space, grid, _ = _load("empty_60x50")
    sensor = SensorModel(decay=0.12, radius=80.0)
    rng = np.random.default_rng(80)
    worst = 0.0
    for _ in range(20):
        pos = np.column_stack(
            [rng.uniform(5.0, 55.0, size=3), rng.uniform(5.0, 45.0, size=3)]
        )
        i = int(rng.integers(0, 3))
        g = objective_gradient(pos, i, grid, sensor)
        scale = np.linalg.norm(g)
        for _ in range(8):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            t = 2e-4
            shifted = pos.copy()
            shifted[i] = pos[i] + t * u
            rows_p = detection_matrix(shifted, space, grid.centers, sensor)
            shifted[i] = pos[i] - t * u
            rows_m = detection_matrix(shifted, space, grid.centers, sensor)
            h_p = grid.total_mass() - float(np.dot(np.prod(1 - rows_p, axis=0), grid.weights))
            h_m = grid.total_mass() - float(np.dot(np.prod(1 - rows_m, axis=0), grid.weights))
            secant = (h_p - h_m) / (2 * t)
            denom = max(abs(secant), 0.01 * scale, 1e-12)
            worst = max(worst, abs(float(g @ u) - secant) / denom)
    _report(8, "gradient consistency", worst <= 0.01, f"worst relative gap {worst:.2e}")


def test_criterion_9_empirical_curvature():
    from coverplan.curvature import elemental_curvature, total_curvature

    failures = []
    for seed in range(10):
        space, grid, sensor, cand = _small_instance(100 + seed)
        if len(cand) < 3:
            continue
        rows = detection_matrix(cand, space, grid.centers, sensor)
        w = grid.weights
        q = 1.0 - rows
        alpha = elemental_curvature(rows, grid)
        c = total_curvature(rows, grid)
        alone = rows @ w
        rng = np.random.default_rng(seed)
        n = len(cand)
        for _ in range(200):
            members = rng.random(n) < rng.uniform(0.1, 0.8)
            outside = np.nonzero(~members)[0]
            if len(outside) < 2:
                continue
            i, j = rng.choice(outside, size=2, replace=False)
            miss = np.prod(q[members], axis=0) if members.any() else np.ones(len(w))
            before = float(np.dot(w * miss, rows[j]))
            after = float(np.dot(w * miss * q[i], rows[j]))
            if before > 1e-9 and after / before > alpha + 1e-9:
                failures.append(f"seed {seed}: gain ratio {after / before:.6f} > {alpha:.6f}")
            bracket = 1.0 - float(np.dot(w * miss, rows[j])) / float(alone[j])
            if bracket > c + 1e-9:
                failures.append(f"seed {seed}: discount {bracket:.6f} > {c:.6f}")
    _report(9, "empirical curvature validity", not failures, "; ".join(failures[:3]))
