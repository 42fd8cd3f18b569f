"""Per-layer spans and counters, recorded from outside the program.

While it is entered, around each traced command, :class:`Tracer` replaces
each public name that one coverplan module imports from the next layer down
(for example ``coverplan.sensing.line_of_sight_many``, through which sensing
calls geometry) with a wrapper that records a span or bumps a counter, and
puts every original back on exit.  Nothing under ``src/`` changes, and
untraced commands execute the unmodified program.

A span is ``[id, parent, op, name, layer, start, end, error]``: ``parent`` is
the span that was open when the call began, ``op`` the CLI command that
caused it, ``error`` the class name of an exception that escaped the call.
Spans stay in memory and are written out once the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (owner, attribute, layer of the callee, record a span?)  "module:Class"
# owners patch a method or attribute on the class.  Count-only entries are
# called too often for a span to be worth its overhead; their time stays in
# the caller's self time.
TARGETS = (
    ("coverplan.cli", "parse_scenario", "scenario", True),
    ("coverplan.scenario:Scenario", "build_space", "scenario", True),
    ("coverplan.scenario:Scenario", "build_grid", "scenario", True),
    ("coverplan.scenario:Scenario", "build_candidates", "scenario", True),
    ("coverplan.scenario", "MissionSpace", "geometry", True),
    ("coverplan.scenario", "QuadratureGrid", "field", True),
    ("coverplan.scenario", "candidate_lattice", "field", True),
    ("coverplan.cli", "greedy_place", "greedy", True),
    ("coverplan.cli", "bound_report", "curvature", True),
    ("coverplan.cli", "sweep_bounds", "curvature", True),
    ("coverplan.curvature", "bound_report", "curvature", True),
    ("coverplan.cli", "refine", "gradient", True),
    ("coverplan.cli", "detection_matrix", "sensing", True),
    ("coverplan.cli", "DetectionCache", "sensing", True),
    ("coverplan.sensing:DetectionCache", "probs", "sensing", True),
    ("coverplan.greedy", "detection_matrix", "sensing", True),
    ("coverplan.greedy", "marginal_gain", "sensing", False),
    ("coverplan.gradient", "detection_matrix", "sensing", True),
    ("coverplan.gradient", "detection_row", "sensing", True),
    ("coverplan.gradient", "coverage_from_rows", "sensing", True),
    ("coverplan.gradient", "project_feasible", "gradient", False),
    ("coverplan.gradient", "is_feasible", "geometry", True),
    ("coverplan.gradient", "closest_point_on_segment", "geometry", False),
    ("coverplan.sensing", "line_of_sight_many", "geometry", True),
)
# Calls whose arguments and results the layer metrics read.
KEEP = frozenset({"coverplan.cli.greedy_place", "coverplan.cli.refine"})
LAYERS = ("cli", "scenario", "field", "geometry", "sensing", "greedy", "curvature", "gradient")

ID, PARENT, OP, NAME, LAYER, START, END, ERROR = range(8)


def target_name(owner: str, attr: str) -> str:
    return f"{owner.replace(':', '.')}.{attr}"


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Install wrappers on entry, restore the originals on exit.

    A tracer may be entered again after it exits; spans and counters
    accumulate over every entry.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.kept: dict[str, list] = {}  # name -> [(span id, args, result)]
        self.missing: list[tuple[str, str]] = []  # (name, layer) not found
        self.op: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._t0 = perf_counter()

    def __enter__(self):
        self.missing = []
        try:
            for owner_path, attr, layer, as_span in self.targets:
                name = target_name(owner_path, attr)
                owner = _resolve(owner_path)
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    # renamed or removed since the benchmark was written
                    self.missing.append((name, layer))
                    continue
                wrapper = self._span_wrapper if as_span else self._count_wrapper
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper(original, name, layer))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _count_wrapper(self, fn, name, layer):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span_wrapper(self, fn, name, layer):
        keep = name in KEEP
        spans, stack = self.spans, self._stack

        # inlined rather than built on span(): this runs once per sight-line call
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            rec = [sid, stack[-1] if stack else None, self.op, name, layer, perf_counter(), 0.0, None]
            spans.append(rec)
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if keep:
                self.kept.setdefault(name, []).append((sid, args, result))
            return result

        return wrapper

    @contextmanager
    def span(self, name: str, layer: str):
        """A span opened by the benchmark itself, such as one CLI command."""
        sid = len(self.spans)
        rec = [sid, self._stack[-1] if self._stack else None, self.op, name, layer,
               perf_counter(), 0.0, None]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        except BaseException as exc:
            rec[ERROR] = type(exc).__name__
            raise
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] is not None:
                covered[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - covered[s[ID]] for s in self.spans]

    def write(self, path: Path, extra: dict):
        """Write spans (times relative to tracer creation) and counters as JSON."""
        keys = ("id", "parent", "op", "name", "layer", "start", "end", "error")
        spans = [
            dict(zip(keys, s[:START] + [s[START] - self._t0, s[END] - self._t0, s[ERROR]]))
            for s in self.spans
        ]
        doc = {"spans": spans, "counts": self.counts,
               "not_measured": [n for n, _ in self.missing], **extra}
        path.write_text(json.dumps(doc) + "\n")


class _Agg:
    """Sums of span totals and self times, selected by name, layer and op."""

    def __init__(self, tracer: Tracer):
        self.spans = tracer.spans
        self.self = tracer.self_times()

    def select(self, names=None, layer=None, op=None):
        for s, own in zip(self.spans, self.self):
            if names is not None and s[NAME] not in names:
                continue
            if layer is not None and s[LAYER] != layer:
                continue
            if op is not None and s[OP] != op:
                continue
            yield s, own

    def calls(self, *names, **kw) -> int:
        return sum(1 for _ in self.select(set(names), **kw))

    def total(self, *names, **kw) -> float:
        return sum(s[END] - s[START] for s, _ in self.select(set(names), **kw))

    def own(self, *names, layer=None, **kw) -> float:
        return sum(o for _, o in self.select(set(names) if names else None, layer=layer, **kw))


def _div(a, b) -> float:
    return a / b if b else 0.0


LOS = "coverplan.sensing.line_of_sight_many"
MATRIX = ("coverplan.cli.detection_matrix", "coverplan.greedy.detection_matrix",
          "coverplan.gradient.detection_matrix")
BOUND = ("coverplan.cli.bound_report", "coverplan.curvature.bound_report")
BUILD = ("coverplan.scenario.Scenario.build_space", "coverplan.scenario.Scenario.build_grid",
         "coverplan.scenario.Scenario.build_candidates")


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict, setup_counts: dict) -> dict:
    """Per-layer metrics of one traced pass, as ``{name: (value, unit)}``.

    ``traced`` and ``untraced`` map command kind (and ``"total"``) to
    seconds, each command's median over the traced or untraced runs;
    ``setup_counts`` holds the grid cells and candidates of the workload.
    A metric whose wrapped name is missing reads 0; :meth:`Tracer.missing`
    says which layers went unmeasured.
    """
    agg = _Agg(tracer)
    counts = tracer.counts
    m = {}

    los_calls = agg.calls(LOS)
    los_s = agg.total(LOS)
    m["geometry.los_calls"] = (los_calls, "count")
    m["geometry.los_s"] = (los_s, "s")
    m["geometry.los_ms_per_source"] = (1e3 * _div(los_s, los_calls), "ms")
    pass_s = sum(s[END] - s[START] for s in tracer.spans if s[PARENT] is None)
    m["geometry.los_share"] = (_div(los_s, pass_s), "frac")

    m["sensing.matrix_calls"] = (agg.calls(*MATRIX), "count")
    m["sensing.matrix_self_s"] = (agg.own(*MATRIX), "s")
    m["sensing.cache_build_s"] = (agg.own("coverplan.cli.DetectionCache"), "s")
    m["sensing.cache_probs_s"] = (agg.total("coverplan.sensing.DetectionCache.probs"), "s")
    rows = agg.calls("coverplan.gradient.detection_row")
    m["sensing.row_calls"] = (rows, "count")
    m["sensing.row_self_s"] = (agg.own("coverplan.gradient.detection_row"), "s")

    greedy_calls = tracer.kept.get("coverplan.cli.greedy_place", [])
    gain_evals = counts.get("coverplan.greedy.marginal_gain", 0)
    # args: space, grid, sensor, candidates, team_size
    full = sum(len(a[3]) * min(int(a[4]), len(a[3])) for _, a, _ in greedy_calls)
    m["greedy.gain_evals"] = (gain_evals, "count")
    m["greedy.lazy_eval_frac"] = (_div(gain_evals, full), "frac")
    m["greedy.picker_self_s"] = (agg.own("coverplan.cli.greedy_place"), "s")

    m["curvature.bound_report_calls"] = (agg.calls(*BOUND), "count")
    m["curvature.bound_report_s"] = (agg.total(*BOUND), "s")

    refines = [r for _, _, r in tracer.kept.get("coverplan.cli.refine", [])]
    iterations = sum(r.steps[-1].iteration for r in refines)
    moves = sum(
        int((a.positions != b.positions).any(axis=1).sum())
        for r in refines
        for a, b in zip(r.steps, r.steps[1:])
    )
    m["gradient.iterations"] = (iterations, "count")
    for reason in ("converged", "max_iterations", "no_improvement"):
        m[f"gradient.stop_{reason}"] = (sum(r.reason == reason for r in refines), "count")
    m["gradient.s_per_iter"] = (_div(agg.total("coverplan.cli.refine"), iterations), "s")
    m["gradient.accepted_moves"] = (moves, "count")
    m["gradient.rows_per_accepted_move"] = (_div(rows, moves), "ratio")
    m["gradient.projections"] = (counts.get("coverplan.gradient.project_feasible", 0), "count")
    m["gradient.value_evals"] = (agg.calls("coverplan.gradient.coverage_from_rows"), "count")
    m["gradient.refine_self_s"] = (agg.own("coverplan.cli.refine"), "s")

    parse_ids = {s[ID] for s, _ in agg.select({"coverplan.cli.parse_scenario"})}
    m["scenario.parse_s"] = (agg.total("coverplan.cli.parse_scenario"), "s")
    m["scenario.build_s"] = (
        sum(s[END] - s[START] for s, _ in agg.select(set(BUILD)) if s[PARENT] not in parse_ids),
        "s",
    )
    m["field.cells"] = (setup_counts["cells"], "count")
    m["field.candidates"] = (setup_counts["candidates"], "count")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (agg.own(layer=layer), "s")
    for kind in ("greedy", "bounds", "sweep", "gga"):
        m[f"cli.{kind}_s"] = (untraced.get(kind, 0.0), "s")

    self_sum = sum(agg.self)
    m["trace.untraced_s"] = (untraced["total"], "s")
    m["trace.traced_s"] = (traced["total"], "s")
    m["trace.overhead_s"] = (traced["total"] - untraced["total"], "s")
    m["trace.overhead_frac"] = (_div(traced["total"] - untraced["total"], untraced["total"]),
                                "frac")
    m["trace.self_sum_s"] = (self_sum, "s")
    m["trace.names_missing"] = (len(tracer.missing), "count")
    return m


def scenario_table(tracer: Tracer, ops) -> list[dict]:
    """Per-scenario seconds by stage, as in the ROADMAP baseline table.

    ``ops`` lists the traced pass's commands in op order, each with ``kind``
    and ``scenario``.  A stage the workload does not run reads None.
    """
    agg = _Agg(tracer)
    reasons = {}
    for sid, _, result in tracer.kept.get("coverplan.cli.refine", []):
        reasons[tracer.spans[sid][OP]] = (result.reason, result.steps[-1].iteration)
    rows: dict[str, dict] = {}
    for i, op in enumerate(ops):
        row = rows.setdefault(op.scenario, {"scenario": op.scenario, "matrix_s": None,
                                            "greedy_s": None, "bounds_s": None,
                                            "refine_s": None, "refine_stop": None})
        if op.kind in ("greedy", "gga"):
            row["matrix_s"] = agg.total("coverplan.greedy.detection_matrix", op=i)
            row["greedy_s"] = agg.total("coverplan.cli.greedy_place", op=i)
        if op.kind == "bounds":
            failed = any(s[ERROR] for s, _ in agg.select({"coverplan.cli.bound_report"}, op=i))
            row["bounds_s"] = "crash" if failed else agg.total("coverplan.cli.bound_report", op=i)
        if op.kind == "gga" and i in reasons:
            row["refine_s"] = agg.total("coverplan.cli.refine", op=i)
            row["refine_stop"] = "{} @{}".format(*reasons[i])
    return list(rows.values())
