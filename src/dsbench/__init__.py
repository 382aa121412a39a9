"""Dataset-similarity statistics for two and k samples with a simulation
benchmark harness (data generators, method registry, PESR pipeline)."""

from .core import (DISSIMILARITY, SIMILARITY, DataMatrix, MultiSample,
                   StatValue, distance_matrix, pool)
from .datagen import ScenarioSpec, sample_scenario, scenario_grid
from .harness import (bench, greedy_cover, mean_diff_to_ideal, pesr,
                      pesr_table, run_scenario)
from .methods import REGISTRY, Context, default_methods, evaluate

__all__ = [
    "DISSIMILARITY", "SIMILARITY", "DataMatrix", "MultiSample", "StatValue",
    "distance_matrix", "pool", "ScenarioSpec",
    "sample_scenario", "scenario_grid", "bench", "greedy_cover",
    "mean_diff_to_ideal", "pesr", "pesr_table", "run_scenario", "REGISTRY",
    "Context", "default_methods", "evaluate",
]

__version__ = "0.1.0"
