"""Statics of tendon-actuated nested-tube robots.

Describe a robot as an :class:`AssemblySpec` (or load one from a scenario
file), then call :func:`shoot` to get its equilibrium shape::

    from nestrod import preset, shoot

    assembly, options = preset("strategy_ab_demo")
    solution = shoot(assembly, options)
    print(solution.tip_position)
"""

from .assembly import (ArcRest, AssemblySpec, HelicalRouting, HelixRest,
                       PiecewiseAngularRouting, StiffnessPair, StraightRest,
                       StraightRouting, Strategy, TendonSpec, TubeSpec,
                       section_stiffness)
from .errors import (NestrodError, NoConvergence, OutOfDomain, ParseError,
                     UnitError, UnknownPreset, ValidationError)
from .export import solution_payload, write_csv, write_json, write_svg
from .oracles import run_validate
from .scenario import (Scenario, build_scenario, canonical_text,
                       load_scenario, preset, preset_names, preset_scenario,
                       scenario_digest)
from .shooting import (ConvergenceReport, Solution, SolverOptions, shoot,
                       twist_consistency)

__version__ = "0.1.0"

__all__ = [
    "ArcRest", "AssemblySpec", "ConvergenceReport", "HelicalRouting",
    "HelixRest", "NestrodError", "NoConvergence", "OutOfDomain", "ParseError",
    "PiecewiseAngularRouting", "Scenario", "Solution", "SolverOptions",
    "StiffnessPair", "StraightRest", "StraightRouting", "Strategy",
    "TendonSpec", "TubeSpec", "UnitError", "UnknownPreset",
    "ValidationError", "build_scenario", "canonical_text", "load_scenario",
    "preset", "preset_names", "preset_scenario", "run_validate",
    "scenario_digest", "section_stiffness", "shoot", "solution_payload",
    "twist_consistency", "write_csv", "write_json", "write_svg",
    "__version__",
]
