"""Coverage planning for sensing agents in polygonal spaces.

Place a team of range- and visibility-limited sensors to maximize the chance
that at least one of them detects an event, with certified a-priori quality
guarantees for the greedy placement and a projected-gradient refinement stage
on top of it.
"""

from .curvature import (
    BoundReport,
    bound_from_elemental,
    bound_from_total,
    bound_report,
    elemental_curvature,
    sweep_bounds,
    total_curvature,
)
from .errors import (
    CoverplanError,
    DegenerateCandidateError,
    EmptyCandidateSetError,
    GeometryError,
    InstanceTooLargeError,
    InvalidParameterError,
    ScenarioError,
)
from .field import (
    GaussianMixtureDensity,
    QuadratureGrid,
    SampledDensity,
    UniformDensity,
    candidate_lattice,
)
from .geometry import (
    MissionSpace,
    Polygon,
    is_feasible,
    line_of_sight_many,
)
from .gradient import (
    RefineResult,
    objective_gradient,
    project_feasible,
    refine,
)
from .greedy import GreedyResult, greedy_place
from .oracle import (
    OracleResult,
    PropertyReport,
    brute_force,
    check_definition_equivalence,
    check_submodular,
)
from .scenario import (
    Scenario,
    bundled_scenario_path,
    parse_scenario,
    scenario_from_dict,
)
from .sensing import (
    DetectionCache,
    SensorModel,
    coverage,
    coverage_from_rows,
    detection_matrix,
    detection_row,
    joint_detection,
    marginal_gain,
    miss_product,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CoverplanError",
    "DegenerateCandidateError",
    "DetectionCache",
    "EmptyCandidateSetError",
    "GaussianMixtureDensity",
    "GeometryError",
    "GreedyResult",
    "InstanceTooLargeError",
    "InvalidParameterError",
    "MissionSpace",
    "OracleResult",
    "Polygon",
    "PropertyReport",
    "QuadratureGrid",
    "RefineResult",
    "SampledDensity",
    "Scenario",
    "ScenarioError",
    "SensorModel",
    "UniformDensity",
    "bound_from_elemental",
    "bound_from_total",
    "bound_report",
    "brute_force",
    "bundled_scenario_path",
    "candidate_lattice",
    "check_definition_equivalence",
    "check_submodular",
    "coverage",
    "coverage_from_rows",
    "detection_matrix",
    "detection_row",
    "elemental_curvature",
    "greedy_place",
    "is_feasible",
    "joint_detection",
    "line_of_sight_many",
    "marginal_gain",
    "miss_product",
    "objective_gradient",
    "parse_scenario",
    "project_feasible",
    "refine",
    "scenario_from_dict",
    "sweep_bounds",
    "total_curvature",
]
