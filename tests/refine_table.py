"""Refine's outcome on the criterion-6 cases, one JSON line per case.

Runs greedy and then refine on each bundled scenario at decay 0.02, 0.12 and
0.4, one space per scenario as criterion 6 of the acceptance suite runs
them, and on each scenario file given with ``--scenario`` at its own
settings.  Each line holds the case's rows, halvings, rescues, forfeits,
stop reason, iteration count, ``repr`` of the final objective H and the
sha256 of the final positions' bytes.  With ``--compare`` it prints instead
every field that differs from an earlier output, with H's relative change,
and exits 1 when any does.  Run it against the code under test::

    PYTHONPATH=src python tests/refine_table.py > table.json
    PYTHONPATH=src python tests/refine_table.py --compare table.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import numpy as np

from coverplan import SensorModel, bundled_scenario_path, greedy_place, parse_scenario, refine

BUNDLED = ["empty_60x50", "wall_60x50", "maze_60x50", "random_60x50", "rooms_60x50"]
DECAYS = (0.02, 0.12, 0.4)


def _cases(extra):
    """(case name, scenario, sensor) for every case, each scenario's space built once."""
    for name in BUNDLED:
        sc = parse_scenario(bundled_scenario_path(name))
        for decay in DECAYS:
            yield f"{name}@{decay}", sc, SensorModel(decay=decay, radius=sc.sensor["radius"])
    for path in extra:
        sc = parse_scenario(path)
        yield sc.name, sc, sc.build_sensor()


def row(sc, sensor) -> dict:
    """Greedy, then refine at the scenario's own settings: the fields of one table line."""
    grid = sc.build_grid()
    seed = greedy_place(grid.space, grid, sensor, sc.build_candidates(), sc.team_size)
    result = refine(seed.positions, grid, sensor, **sc.refine)
    positions = np.ascontiguousarray(result.positions, dtype=float)
    return {
        "rows": result.rows,
        "halvings": result.halvings,
        "rescues": result.rescues,
        "forfeits": result.forfeits,
        "reason": result.reason,
        "iterations": result.steps[-1].iteration,
        "H": repr(float(result.value)),
        "positions_sha256": hashlib.sha256(positions.tobytes()).hexdigest(),
    }


def compare(old: dict, new: dict) -> list[str]:
    """One line per field that differs between two tables, by case."""
    lines = [f"{case}: only in the old table" for case in old if case not in new]
    for case, fields in new.items():
        if case not in old:
            lines.append(f"{case}: only in the new table")
            continue
        for key, value in fields.items():
            was = old[case].get(key)
            if value == was:
                continue
            line = f"{case}: {key} {was} -> {value}"
            if key == "H":
                line += f" (relative {(float(value) - float(was)) / float(was):.3g})"
            lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scenario", action="append", default=[],
                        help="a scenario file to add as a case, at its own settings")
    parser.add_argument("--compare", metavar="OLD.json",
                        help="list the fields that differ from OLD.json")
    args = parser.parse_args(argv)
    table = {}
    for case, sc, sensor in _cases(args.scenario):
        table[case] = row(sc, sensor)
        if not args.compare:
            print(json.dumps({"case": case, **table[case]}), flush=True)
    if not args.compare:
        return 0
    with open(args.compare) as fh:
        lines = [json.loads(text) for text in fh if text.strip()]
    old = {line.pop("case"): line for line in lines}
    diffs = compare(old, table)
    print("\n".join(diffs) if diffs else f"{len(table)} cases, no field differs")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
