import json
import warnings

import numpy as np
import pytest

from coverplan.cli import main
from coverplan.field import QuadratureGrid
from coverplan.geometry import MissionSpace
from coverplan.oracle import PropertyReport

SMALL = {
    "name": "cli-small",
    "boundary": [[0, 0], [20, 0], [20, 10], [0, 10]],
    "team_size": 3,
    "sensor": {"decay": 0.15, "radius": 30.0},
    "candidate_spacing": 5.0,
    "refine": {"max_iterations": 8},
}


@pytest.fixture()
def small_scenario(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def read_artifact(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# coverplan ")
    return lines[1:]


def test_evaluate_with_positions(tmp_path, small_scenario, capsys):
    pos = tmp_path / "pos.csv"
    pos.write_text("agent,x,y\n0,5.0,5.0\n1,15.0,5.0\n")
    code = main(["evaluate", "--scenario", small_scenario,
                 "--positions-file", str(pos), "--out", str(tmp_path / "o")])
    assert code == 0
    out = capsys.readouterr().out
    assert "agents: 2" in out
    assert "coverage:" in out


def test_greedy_writes_positions(tmp_path, small_scenario, capsys):
    out = tmp_path / "art"
    code = main(["greedy", "--scenario", small_scenario, "--out", str(out)])
    assert code == 0
    lines = read_artifact(out / "greedy_positions.csv")
    assert lines[0] == "agent,x,y"
    assert len(lines) == 1 + SMALL["team_size"]
    printed = capsys.readouterr().out
    assert "coverage:" in printed and "lazy" in printed


def test_greedy_positions_round_trip(tmp_path, small_scenario, capsys):
    out = tmp_path / "art"
    main(["greedy", "--scenario", small_scenario, "--out", str(out)])
    greedy_out = capsys.readouterr().out
    greedy_h = [l for l in greedy_out.splitlines() if l.startswith("coverage:")][0]
    greedy_value = float(greedy_h.split()[1])
    code = main(["evaluate", "--scenario", small_scenario,
                 "--positions-file", str(out / "greedy_positions.csv"),
                 "--out", str(tmp_path / "o2")])
    assert code == 0
    eval_out = capsys.readouterr().out
    eval_value = float(
        [l for l in eval_out.splitlines() if l.startswith("coverage:")][0].split()[1]
    )
    assert eval_value == pytest.approx(greedy_value, rel=1e-10)


def test_gga_writes_positions_and_trace(tmp_path, small_scenario):
    out = tmp_path / "art"
    code = main(["gga", "--scenario", small_scenario, "--out", str(out)])
    assert code == 0
    pos_lines = read_artifact(out / "gga_positions.csv")
    assert pos_lines[0] == "agent,x,y"
    trace = read_artifact(out / "gga_trace.csv")
    assert trace[0] == "iter,agent,x,y,H,grad_norm"
    assert len(trace) > 1 + SMALL["team_size"]


def test_bounds_artifact(tmp_path, small_scenario, capsys):
    out = tmp_path / "art"
    code = main(["bounds", "--scenario", small_scenario, "--out", str(out)])
    assert code == 0
    lines = read_artifact(out / "bounds.csv")
    assert lines[0] == "c,alpha,T,E,L"
    c, alpha, t, e, l = map(float, lines[1].split(","))
    assert 0 <= c <= 1 and 0 <= alpha <= 1
    assert l == max(t, e)
    assert "guarantee" in capsys.readouterr().out


def test_sweep_artifact(tmp_path, small_scenario):
    out = tmp_path / "art"
    code = main(["sweep", "--scenario", small_scenario, "--out", str(out),
                 "--sweep", "lambda:0.05:0.5:4"])
    assert code == 0
    lines = read_artifact(out / "sweep.csv")
    assert lines[0] == "param,c,alpha,T,E,L"
    assert len(lines) == 5
    params = [float(l.split(",")[0]) for l in lines[1:]]
    assert params == pytest.approx(list(np.linspace(0.05, 0.5, 4)))


def test_sweep_rejects_malformed_spec(tmp_path, small_scenario):
    code = main(["sweep", "--scenario", small_scenario,
                 "--out", str(tmp_path / "a"), "--sweep", "lambda:0.5"])
    assert code == 2
    code = main(["sweep", "--scenario", small_scenario,
                 "--out", str(tmp_path / "b"), "--sweep", "mu:0.1:0.5:3"])
    assert code == 2


@pytest.mark.parametrize("spec", ["lambda:0.1:inf:3", "delta:nan:5:3", "lambda:-0.1:0.5:3"])
def test_sweep_values_must_be_finite_and_positive(capsys, small_scenario, spec):
    assert main(["sweep", "--scenario", small_scenario, "--sweep", spec]) == 2
    assert capsys.readouterr().err == "error: sweep values must be finite and positive\n"


def test_oracle_small_instance(tmp_path, small_scenario, capsys):
    out = tmp_path / "art"
    code = main(["oracle", "--scenario", small_scenario, "--out", str(out), "--n", "2"])
    assert code == 0
    assert "optimal subset" in capsys.readouterr().out
    lines = read_artifact(out / "oracle_positions.csv")
    assert lines[0] == "agent,x,y"
    assert len(lines) == 3


def test_oracle_rejects_large_instance(tmp_path, capsys):
    code = main(["oracle", "--scenario", "empty_60x50", "--out", str(tmp_path / "a")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_check_reports_clean(tmp_path, small_scenario, capsys):
    out = tmp_path / "art"
    code = main(["check", "--scenario", small_scenario, "--out", str(out),
                 "--trials", "60"])
    assert code == 0
    lines = read_artifact(out / "checks.csv")
    assert lines[0] == "check,trials,seed,violations,max_violation"
    assert len(lines) == 3
    for line in lines[1:]:
        assert int(line.split(",")[3]) == 0
    assert "violations" in capsys.readouterr().out


@pytest.mark.parametrize("gains, monotonicity, set_form, gain_form, code", [
    (0, 0, 0, 0, 0), (3, 4, 0, 0, 1), (0, 0, 1, 2, 1), (1, 0, 0, 2, 1),
])
def test_check_counts_every_violation(tmp_path, small_scenario, monkeypatch, capsys,
                                      gains, monotonicity, set_form, gain_form, code):
    # each check's violations add up in checks.csv, and any of them fails the command
    monkeypatch.setattr("coverplan.cli.check_submodular", lambda *a, trials, seed:
                        PropertyReport("submodularity", trials, seed,
                                       (("gain", gains), ("monotonicity", monotonicity)), 0.25))
    monkeypatch.setattr("coverplan.cli.check_definition_equivalence", lambda *a, trials, seed:
                        PropertyReport("definition equivalence", trials, seed,
                                       (("set-form", set_form), ("gain-form", gain_form)), 0.5))
    out = tmp_path / "art"
    argv = ["check", "--scenario", small_scenario, "--out", str(out), "--trials", "8"]
    assert main(argv) == code
    assert read_artifact(out / "checks.csv")[1:] == [
        f"submodularity,8,0,{gains + monotonicity},0.25",
        f"definition_equivalence,4,0,{set_form + gain_form},0.5",
    ]
    printed = capsys.readouterr().out
    assert f"{set_form} set-form violations, {gain_form} gain-form violations" in printed


def test_heatmap_artifacts(tmp_path, small_scenario, capsys):
    out = tmp_path / "art"
    code = main(["heatmap", "--scenario", small_scenario, "--out", str(out)])
    assert code == 0
    grid_lines = read_artifact(out / "heatmap.csv")
    assert len(grid_lines) == 10
    assert len(grid_lines[0].split(",")) == 20
    pgm = (out / "heatmap.pgm").read_text().splitlines()
    assert pgm[0] == "P2"
    printed = capsys.readouterr().out
    assert "detection >= 0.97" in printed


def test_bundled_scenario_by_name(tmp_path, capsys):
    code = main(["evaluate", "--scenario", "empty_60x50",
                 "--positions-file", _write_center(tmp_path),
                 "--out", str(tmp_path / "o")])
    assert code == 0
    assert "coverage:" in capsys.readouterr().out


def _write_center(tmp_path):
    p = tmp_path / "center.csv"
    p.write_text("agent,x,y\n0,30.0,25.0\n")
    return str(p)


def test_overrides_change_results(tmp_path, small_scenario, capsys):
    main(["greedy", "--scenario", small_scenario, "--out", str(tmp_path / "a")])
    base = capsys.readouterr().out
    main(["greedy", "--scenario", small_scenario, "--out", str(tmp_path / "b"),
          "--n", "1"])
    fewer = capsys.readouterr().out
    assert base != fewer
    lines = read_artifact(tmp_path / "b" / "greedy_positions.csv")
    assert len(lines) == 2
    main(["bounds", "--scenario", small_scenario, "--out", str(tmp_path / "c")])
    capsys.readouterr()
    main(["bounds", "--scenario", small_scenario, "--out", str(tmp_path / "d"),
          "--lambda", "0.9"])
    hot = read_artifact(tmp_path / "d" / "bounds.csv")
    cold = read_artifact(tmp_path / "c" / "bounds.csv")
    assert hot != cold


def test_artifacts_are_deterministic(tmp_path, small_scenario):
    for d in ("r1", "r2"):
        main(["gga", "--scenario", small_scenario, "--out", str(tmp_path / d)])
        main(["check", "--scenario", small_scenario, "--out", str(tmp_path / d),
              "--trials", "40"])
    for name in ("gga_positions.csv", "gga_trace.csv", "checks.csv"):
        a = read_artifact(tmp_path / "r1" / name)
        b = read_artifact(tmp_path / "r2" / name)
        assert a == b, name


def test_alpha_domain_flag(capsys, small_scenario):
    # the elemental minimum always runs over the feasible cells, so no command takes the flag
    required = {"evaluate": ["--positions-file", "p.csv"], "sweep": ["--sweep", "lambda:0.1:0.2:2"]}
    for command in ("evaluate", "bounds", "sweep"):
        argv = [command, "--scenario", small_scenario, *required.get(command, [])]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--alpha-domain", "feasible"])
        assert exc.value.code == 2, command
        assert "unrecognized arguments: --alpha-domain feasible" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["greedy", "gga", "oracle", "check", "heatmap"])
def test_alpha_domain_is_a_flag_of_bounds_and_sweep_only(capsys, small_scenario, command):
    # bounds and sweep lost the flag too (see test_alpha_domain_flag); these never had it
    with pytest.raises(SystemExit) as exc:
        main([command, "--scenario", small_scenario, "--alpha-domain", "omega"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --alpha-domain omega" in capsys.readouterr().err


def test_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**SMALL, "team_size": -3}))
    code = main(["greedy", "--scenario", str(bad), "--out", str(tmp_path / "a")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    code = main(["greedy", "--scenario", str(tmp_path / "ghost.json"),
                 "--out", str(tmp_path / "b")])
    assert code == 2


def test_obstacle_through_the_notch_exits_2(tmp_path, capsys):
    bad = tmp_path / "notch.json"
    l_shape = [[0, 0], [12, 0], [12, 6], [6, 6], [6, 12], [0, 12]]
    bad.write_text(json.dumps({**SMALL, "boundary": l_shape,
                               "obstacles": [[[5, 6], [7, 6], [6, 7]]]}))
    code = main(["greedy", "--scenario", str(bad), "--out", str(tmp_path / "a")])
    assert code == 2
    assert "obstacle 0 crosses the boundary (edge 1)" in capsys.readouterr().err


def test_removed_refine_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "old.json"
    for key, value in [("schedule", "sequential"), ("step_scale", 0.25), ("fd_epsilon", 1e-4),
                       ("grad_tolerance", 0.5)]:
        bad.write_text(json.dumps({**SMALL, "refine": {"max_iterations": 8, key: value}}))
        code = main(["gga", "--scenario", str(bad), "--out", str(tmp_path / "a")])
        assert code == 2
        assert f"refine.{key}: unknown field" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["greedy", "gga", "heatmap"])
def test_greedy_placing_no_agent_exits_2_naming_the_cause(tmp_path, capsys, command):
    path = tmp_path / "massless.json"
    path.write_text(json.dumps({**SMALL, "density": {"type": "uniform", "value": 0.0}}))
    out = tmp_path / "out"
    assert main([command, "--scenario", str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: greedy placed no agent: no candidate covers event mass\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("bad", ["a", None, float("nan")])
def test_bad_sampled_origin_exits_2(tmp_path, capsys, bad):
    path = tmp_path / "origin.json"
    density = {"type": "sampled", "origin": [bad, 0], "spacing": 10.0, "values": [[1.0]]}
    path.write_text(json.dumps({**SMALL, "density": density}))
    for command in ("greedy", "bounds"):
        assert main([command, "--scenario", str(path), "--out", str(tmp_path / command)]) == 2
        assert "density.origin[0]:" in capsys.readouterr().err


def test_bad_positions_file_exits_2(tmp_path, small_scenario, capsys):
    pos = tmp_path / "pos.csv"
    pos.write_text("agent,x,y\n0,5.0\n")
    code = main(["evaluate", "--scenario", small_scenario,
                 "--positions-file", str(pos), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "pos.csv" in capsys.readouterr().err


DIAMOND = {**SMALL, "boundary": [[10, 0], [20, 10], [10, 20], [0, 10]], "candidate_spacing": 20}
# Each axis of these spaces holds fewer points than numpy can index, but
# their (x, y) pairs take more bytes than it can index.
WIDE = {**SMALL, "boundary": [[0, 0], [2**63, 0], [2**63, 10], [0, 10]]}
VAST = {**SMALL, "boundary": [[0, 0], [2**63, 0], [2**63, 2**62], [0, 2**62]]}
# an obstacle vertex so far out that squaring its edges' lengths would overflow
FAR = {**SMALL, "obstacles": [[[1e300, 3], [8, 3], [8, 7], [5, 7]]]}


@pytest.mark.parametrize(
    "argv, files, code, message",
    [
        pytest.param(["greedy", "--scenario", "{tmp}/diamond.json"],
                     {"diamond.json": json.dumps(DIAMOND)},
                     2, "no feasible candidate at spacing 20.0", id="empty-lattice"),
        pytest.param(["sweep", "--sweep", "lambda:1:2:x"], {}, 2,
                     "bad sweep range 'lambda:1:2:x': invalid literal for int() with base 10: 'x'",
                     id="sweep-steps-not-integer"),
        pytest.param(["sweep", "--sweep", "lambda:1:2:0"], {}, 2,
                     "sweep needs at least 1 step, got 0", id="sweep-no-steps"),
        pytest.param(["evaluate", "--positions-file", "{tmp}"], {}, 2,
                     "cannot read positions file {tmp}: [Errno 21] Is a directory: '{tmp}'",
                     id="positions-unreadable"),
        pytest.param(["evaluate", "--positions-file", "{tmp}/pos.csv"],
                     {"pos.csv": b"agent,x,y\n0,5,\xb55\n"}, 2,
                     "cannot read positions file {tmp}/pos.csv: 'utf-8' codec can't decode "
                     "byte 0xb5 in position 14: invalid start byte", id="positions-not-utf-8"),
        pytest.param(["evaluate", "--positions-file", "{tmp}/pos.csv"],
                     {"pos.csv": "agent,x,y\n0,5.0,five\n"}, 2,
                     "{tmp}/pos.csv:2: could not convert string to float: 'five'",
                     id="positions-not-numeric"),
        pytest.param(["heatmap", "--positions-file", "{tmp}/pos.csv"],
                     {"pos.csv": "agent,x,y\n# none\n"}, 2,
                     "positions file {tmp}/pos.csv holds no positions", id="positions-empty"),
        pytest.param(["bounds", "--scenario", "{tmp}/wide.json", "--grid-h", "2"],
                     {"wide.json": json.dumps(WIDE)}, 2,
                     "grid_cell_size: cell size 2.0 puts 2.30584e+19 points in all, "
                     "more than numpy can index", id="grid-too-big"),
        pytest.param(["bounds", "--scenario", "{tmp}/vast.json", "--grid-h", str(2.0**60),
                      "--candidates-spacing", "2"],
                     {"vast.json": json.dumps(VAST)}, 2,
                     "candidate_spacing: lattice spacing 2.0 puts 1.06338e+37 points in all, "
                     "more than numpy can index", id="lattice-too-big"),
        pytest.param(["greedy", "--scenario", "{tmp}/far.json"], {"far.json": json.dumps(FAR)}, 2,
                     "obstacles[0]: polygon vertex coordinates must be <= 1e+150, got 1e+300",
                     id="obstacle-too-far"),
        pytest.param(["greedy", "--out", "{tmp}/taken"], {"taken": "a file"}, 1,
                     "[Errno 17] File exists: '{tmp}/taken'", id="out-is-a-file"),
    ],
)
def test_bad_input_exits_with_its_code(tmp_path, small_scenario, capsys, argv, files, code,
                                       message):
    for name, content in files.items():
        target = tmp_path / name
        target.write_bytes(content) if isinstance(content, bytes) else target.write_text(content)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    if "--scenario" not in argv:
        argv[1:1] = ["--scenario", small_scenario]
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {message.format(tmp=tmp_path)}\n"


# the 4x4 block in a 20 x 10 box, a team of 3, decay 0.1, radius 15
BLOCK = {**SMALL, "obstacles": [[[8, 3], [12, 3], [12, 7], [8, 7]]],
         "sensor": {"decay": 0.1, "radius": 15.0}}
HUGE = {
    "uniform": {"type": "uniform", "value": 1e308},
    "mixture": {"type": "gaussian_mixture",
                "components": [{"center": [3, 3], "weight": 1e308, "sigma": 2.0}] * 2},
}


@pytest.mark.parametrize("command", ["greedy", "gga", "bounds"])
@pytest.mark.parametrize("density", sorted(HUGE))
def test_event_mass_that_is_not_finite_exits_2(tmp_path, capsys, command, density):
    # it once gave greedy an infinite coverage, gga nan gradients and bounds,
    # from the mixture, a false certificate of 1
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**BLOCK, "density": HUGE[density]}))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        assert main([command, "--scenario", str(path)]) == 2
    assert [str(w.message) for w in seen] == []
    assert capsys.readouterr() == ("", "error: density: event mass on cells of size 1.0 "
                                       "is not finite\n")


def test_decay_times_mass_past_its_bound_exits_2_under_gga(tmp_path, capsys):
    # a finite mass of 7.5e301 at decay 0.15: refine's gradient norm once overflowed, and
    # gga warned and stopped with no_improvement, exit 0
    path = tmp_path / "spike.json"
    spike = {"type": "sampled", "origin": [0, 0], "spacing": 10.0,
             "values": [[1.0, 1e300], [0, 3.0]]}
    path.write_text(json.dumps({**SMALL, "density": spike}))
    assert main(["greedy", "--scenario", str(path)]) == 0
    capsys.readouterr()
    assert main(["gga", "--scenario", str(path)]) == 2
    assert capsys.readouterr() == (
        "", "error: decay times event mass must be <= 1e+150, got 1.1250000000000001e+301\n"
    )


def test_a_swept_decay_past_its_bound_exits_2_before_any_output(capsys, small_scenario):
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        code = main(["sweep", "--scenario", small_scenario, "--sweep", "lambda:0.1:1e308:3"])
    assert code == 2
    assert [str(w.message) for w in seen] == []
    assert capsys.readouterr() == ("", "error: decay must be <= 1e+150, got 5e+307\n")


@pytest.mark.parametrize("command", ["evaluate", "heatmap"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_position_exits_2(tmp_path, small_scenario, capsys, command, value):
    pos = tmp_path / "pos.csv"
    pos.write_text(f"agent,x,y\n0,5.0,5.0\n1,{value},5.0\n")
    code = main([command, "--scenario", small_scenario, "--positions-file", str(pos)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{pos}:3: coordinates must be finite" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("command", ["evaluate", "heatmap"])
def test_a_repeated_agent_exits_2(tmp_path, small_scenario, capsys, command):
    pos = tmp_path / "pos.csv"
    pos.write_text("agent,x,y\n0,5.0,5.0\n1,15.0,5.0\n0,10.0,5.0\n")
    code = main([command, "--scenario", small_scenario, "--positions-file", str(pos),
                 "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{pos}:4: agent 0 already given on line 2" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "heatmap"])
def test_agent_outside_the_feasible_region_exits_2(tmp_path, capsys, command):
    path = tmp_path / "block.json"
    path.write_text(json.dumps(dict(SMALL, obstacles=[[[8, 3], [12, 3], [12, 7], [8, 7]]])))
    pos = tmp_path / "pos.csv"
    for row, where in [("2,10,5", "(10, 5)"), ("2,25,5", "(25, 5)")]:  # the block; outside
        pos.write_text(f"agent,x,y\n0,5,5\n{row}\n1,12,5\n")
        code = main([command, "--scenario", str(path), "--positions-file", str(pos)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{pos}:3: agent 2 at {where} is outside the feasible region" in err
    # on the block's edge is feasible
    pos.write_text("agent,x,y\n0,5,5\n1,12,5\n")
    assert main([command, "--scenario", str(path), "--positions-file", str(pos)]) == 0


# Candidates on the outer boundary where an interior wall meets it see no cell.
ZERO_MASS = {
    "empty_60x50": [],
    "wall_60x50": [],
    "maze_60x50": ["(45, 0)"],
    "random_60x50": [],
    "rooms_60x50": ["(30, 0)", "(0, 25)", "(60, 25)", "(30, 50)"],
}


def _guarantee_rows(path):
    # columns ... T, E, L: each guarantee in [1 - 1/e, 1] and L = max(T, E)
    rows = [list(map(float, line.split(","))) for line in read_artifact(path)[1:]]
    for *_, t, e, l in rows:
        assert 1.0 - 1.0 / np.e - 1e-12 <= min(t, e)
        assert l == max(t, e) <= 1.0 + 1e-12
    return rows


@pytest.mark.parametrize("name", sorted(ZERO_MASS))
def test_bounds_and_sweep_on_bundled_scenarios(tmp_path, capsys, name):
    code = main(["bounds", "--scenario", name, "--out", str(tmp_path / "b")])
    printed = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(_guarantee_rows(tmp_path / "b" / "bounds.csv")) == 1
    dropped = [line for line in printed if line.startswith("dropped")]
    spots = ZERO_MASS[name]
    assert len(dropped) == (1 if spots else 0)
    if spots:
        assert dropped[0].startswith(f"dropped {len(spots)} of ")
        assert dropped[0].endswith(": " + ", ".join(spots))

    code = main(["sweep", "--scenario", name, "--out", str(tmp_path / "s"),
                 "--sweep", "lambda:0.05:0.5:3"])
    assert code == 0
    assert len(_guarantee_rows(tmp_path / "s" / "sweep.csv")) == 3


@pytest.fixture()
def builds(monkeypatch):
    """Counts of the spaces and grids constructed while the test runs."""
    counts = {"space": 0, "grid": 0}
    for cls, key in ((MissionSpace, "space"), (QuadratureGrid, "grid")):
        def counted(self, *args, _init=cls.__init__, _key=key, **kwargs):
            counts[_key] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


@pytest.mark.parametrize(
    "argv", [["greedy"], ["bounds"], ["sweep", "--sweep", "lambda:0.05:0.5:3"], ["gga"]]
)
def test_one_build_per_command(capsys, builds, argv):
    # the space and grid that prove the file constructible serve the command
    assert main([argv[0], "--scenario", "random_60x50", *argv[1:]]) == 0
    assert builds == {"space": 1, "grid": 1}


def test_grid_override_keeps_the_space(capsys, builds):
    # the override reaches the scenario before it is proven constructible
    assert main(["bounds", "--scenario", "random_60x50", "--grid-h", "2"]) == 0
    assert builds == {"space": 1, "grid": 1}


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--grid-h", "-1", "grid_cell_size: must be > 0.0, got -1.0"),
        ("--grid-h", "nan", "grid_cell_size: must be finite, got nan"),
        ("--lambda", "-1", "sensor.decay: must be >= 0.0, got -1.0"),
        ("--delta", "0", "sensor.radius: must be > 0.0, got 0.0"),
        ("--seed", "-1", "seed: must be >= 0, got -1"),
        ("--n", "0", "team_size: must be >= 1, got 0"),
        ("--candidates-spacing", "0", "candidate_spacing: must be > 0.0, got 0.0"),
        ("--grid-h", "1e300", "grid_cell_size: cell size 1e+300 gives an infinite cell area"),
        ("--grid-h", "1e200", "grid_cell_size: cell size 1e+200 gives an infinite cell area"),
        ("--grid-h", "1e-300", "grid_cell_size: cell size 1e-300 puts 6e+301 points on an axis, "
                               "more than numpy can index"),
        ("--candidates-spacing", "1e-300", "candidate_spacing: lattice spacing 1e-300 puts "
                                           "6e+301 points on an axis, more than numpy can index"),
        ("--lambda", "1e308", "sensor.decay: must be <= 1e+150, got 1e+308"),
    ],
)
def test_invalid_override_exits_2(capsys, flag, value, message):
    # a flag is validated as the file's field is, and its error names that field
    assert main(["bounds", "--scenario", "random_60x50", flag, value]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [["bounds"], ["sweep", "--sweep", "lambda:0.1:0.2:2"]])
def test_a_team_past_the_float_range_exits_2(capsys, argv):
    # the curvature bounds take the team size as a float, so its bound is checked up front
    team = str(10**400)
    assert main([argv[0], "--scenario", "random_60x50", "--n", team, *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: team_size: must be <= 2147483647, got {team}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check", "--seed", "-1"], "seed: must be >= 0, got -1"),
        (["greedy", "--seed", "-1"], "seed: must be >= 0, got -1"),
        (["evaluate", "--n", "0"], "team_size: must be >= 1, got 0"),
    ],
)
def test_invalid_override_exits_2_whatever_the_command(
    tmp_path, capsys, small_scenario, argv, message
):
    pos = tmp_path / "pos.csv"
    pos.write_text("agent,x,y\n0,5.0,5.0\n")
    extra = ["--positions-file", str(pos)] if argv[0] == "evaluate" else []
    assert main([argv[0], "--scenario", small_scenario, *argv[1:], *extra]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_commands_do_not_share_builds(capsys, builds):
    for _ in range(2):
        assert main(["bounds", "--scenario", "random_60x50"]) == 0
    assert builds == {"space": 2, "grid": 2}
