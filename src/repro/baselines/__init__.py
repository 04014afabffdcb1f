"""Baseline algorithms the paper compares against."""

from repro.baselines.gale_shapley import (
    GSResult,
    gale_shapley,
    parallel_gale_shapley,
    suggested_iterations,
)
from repro.baselines.random_greedy import (
    RandomGreedyResult,
    random_greedy_matching,
)
from repro.baselines.random_dynamics import (
    DynamicsResult,
    better_response_dynamics,
)

__all__ = [
    "DynamicsResult",
    "better_response_dynamics",
    "GSResult",
    "gale_shapley",
    "parallel_gale_shapley",
    "suggested_iterations",
    "RandomGreedyResult",
    "random_greedy_matching",
]
