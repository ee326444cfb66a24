"""Compositional conflict-free electric vehicle routing and scheduling.

The solver decomposes the problem into four cooperating sub-problems --
path selection, routing, vehicle assignment, and conflict-free scheduling
-- and iterates with backtracking until a feasible schedule is found or
the search space or iteration budget is exhausted.
"""

from .instance import (
    Edge,
    Fleet,
    Graph,
    Instance,
    InstanceError,
    InstanceSemanticError,
    InstanceSyntaxError,
    Job,
    Task,
    parse_instance,
    serialize_instance,
)
from .paths import Path, PathCombination, PathTable, enumerate_paths, pathfinder
from .routing import Route, RouteSearch, RouteSet, RouterError, router
from .assignment import Assignment, assign
from .scheduling import RouteTrace, Schedule, expand_routes, scheduler
from .pipeline import SolveResult, SolverConfig, solve
from .validation import ValidationReport, Violation, validate
from .oracle import brute_oracle
from .generate import GenParams, generate
from .bench import bench

__all__ = [
    "Assignment",
    "Edge",
    "Fleet",
    "GenParams",
    "Graph",
    "Instance",
    "InstanceError",
    "InstanceSemanticError",
    "InstanceSyntaxError",
    "Job",
    "Path",
    "PathCombination",
    "PathTable",
    "Route",
    "RouteSearch",
    "RouteSet",
    "RouteTrace",
    "RouterError",
    "Schedule",
    "SolveResult",
    "SolverConfig",
    "Task",
    "ValidationReport",
    "Violation",
    "bench",
    "brute_oracle",
    "enumerate_paths",
    "generate",
    "parse_instance",
    "pathfinder",
    "router",
    "scheduler",
    "serialize_instance",
    "expand_routes",
    "solve",
    "validate",
    "assign",
]

def example_instance() -> Instance:
    """The bundled 21-node plant example with four jobs and four vehicles."""
    from importlib import resources

    data = resources.files("comsat.data").joinpath("plant21.json").read_text()
    return parse_instance(data)
