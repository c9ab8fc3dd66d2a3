"""Growing random graphs with degree-weighted attachment.

Solves stationary vertex and edge degree distributions of growth models,
grows graphs by simulation, ingests real network edge lists, and calibrates
one- and two-component models against empirical degree distributions.
"""

__version__ = "0.18.0"

from .errors import (AllRhoInfeasible, EmptyGraph, EmptyInput,
                     InfeasibleComplement, InputTooLarge, InsufficientTail,
                     MalformedLine, NoConvergence, NoEdges, NonPositiveResult,
                     NpaGraphError, SolverFailure, TruncationTooSevere,
                     ValidationError, WeightsNotConvex, WindowExceedsMatrix,
                     ZeroTotalWeight)
from .models import (AerModelSpec, BaTreeSpec, CompositeSpec, DegreeDistribution,
                     EdgeDegreeMatrix, Graph, IncrementDistribution, NpaModelSpec,
                     SeedGraphSpec, WeightFunction, dump_model, load_model,
                     model_from_dict, size_violations, validate_model)
from .solver import (VddSolution, complement_mean, complement_vdd, edge_share,
                     mix_edd, mix_vdd, solve_arc_dd, solve_vdd, symmetrize)
from .growth import (AerRunStats, GrowthTrace, RngStream, grow, grow_aer,
                     grow_aer_unpruned, grow_composite, grow_npa,
                     measure_arc_dd, measure_edd, measure_vdd, write_edge_list)
from .datasets import (DatasetSummary, ParseStats, load_edge_list, smooth_vdd,
                       summarize)
from .calibrate import (CalibrationResult, CalibrationTarget, OptimizerTrace,
                        calibrate_composite, calibrate_single, edd_distance,
                        gowalla_increments, preset_brightkite, preset_gowalla,
                        select_u)

__all__ = [name for name in dir() if not name.startswith("_")]
