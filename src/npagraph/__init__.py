"""Growing random graphs with degree-weighted attachment.

Solves stationary vertex and edge degree distributions of growth models,
grows graphs by simulation, ingests real network edge lists, and calibrates
one- and two-component models against empirical degree distributions.

Importing the package loads none of its modules: each name below is
resolved on first access (PEP 562), so a command that never grows a graph
never loads the growth module.
"""

import importlib

__version__ = "0.26.0"

_EXPORTS = {
    "errors": ("AllRhoInfeasible", "EmptyGraph", "EmptyInput",
               "InfeasibleComplement", "InputTooLarge", "InsufficientTail",
               "MalformedLine", "NoConvergence", "NoEdges", "NpaGraphError",
               "SolverFailure", "TruncationTooSevere", "ValidationError",
               "WeightsNotConvex", "WindowExceedsMatrix", "ZeroTotalWeight"),
    "models": ("AerModelSpec", "BaTreeSpec", "CompositeSpec",
               "DegreeDistribution", "EdgeDegreeMatrix", "Graph",
               "IncrementDistribution", "NpaModelSpec", "SeedGraphSpec",
               "WeightFunction", "dump_model", "load_model", "model_from_dict",
               "size_violations", "validate_model"),
    "solver": ("VddSolution", "complement_mean", "complement_vdd", "edge_share",
               "mix_edd", "mix_vdd", "solve_arc_dd", "solve_vdd", "symmetrize"),
    "growth": ("AerRunStats", "GrowthTrace", "RngStream", "grow", "grow_aer",
               "grow_aer_unpruned", "grow_composite", "grow_npa",
               "measure_edd", "measure_vdd", "write_edge_list"),
    "datasets": ("DatasetSummary", "ParseStats", "load_edge_list", "smooth_vdd",
                 "summarize"),
    "calibrate": ("CalibrationResult", "CalibrationTarget", "OptimizerTrace",
                  "calibrate_composite", "calibrate_single", "edd_distance",
                  "gowalla_increments", "preset_brightkite", "preset_gowalla",
                  "select_u"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
