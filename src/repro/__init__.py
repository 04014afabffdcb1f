"""repro — reproduction of "Fast Distributed Almost Stable Matchings".

Ostrovsky & Rosenbaum, PODC 2015 (DOI 10.1145/2767386.2767424).

The public API re-exports the problem model, the three algorithms of
the paper (``asm``, ``rand_asm``, ``almost_regular_asm``), the
stability metrics, the baselines, and the workload generators:

>>> import repro
>>> prefs = repro.complete_uniform(32, seed=0)
>>> result = repro.asm(prefs, eps=0.2)
>>> repro.instability(prefs, result.matching) <= 0.2
True
"""

from repro.core import (
    ASMEngine,
    ASMObserver,
    ASMResult,
    Matching,
    PreferenceProfile,
    QuantizedList,
    almost_regular_asm,
    asm,
    params_for_eps,
    quantile_index,
    rand_asm,
)
from repro.analysis import (
    count_blocking_pairs,
    find_blocking_pairs,
    find_eps_blocking_pairs,
    instability,
    is_eps_blocking_stable,
    is_one_minus_eps_stable,
    is_stable,
    stability_report,
)
from repro.analysis.welfare import welfare_report
from repro.obs.events import EventLog
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.obs.observer import MetricsObserver
from repro.obs.telemetry import Telemetry
from repro.trace import (
    CausalTrace,
    CausalTracer,
    PhaseProfiler,
    SLOMonitor,
    StabilitySLO,
    derive_trace_id,
)
from repro.baselines import (
    better_response_dynamics,
    gale_shapley,
    parallel_gale_shapley,
    random_greedy_matching,
)
from repro.workloads import (
    GENERATORS,
    adversarial_gale_shapley,
    almost_regular,
    bounded_degree,
    clustered,
    complete_uniform,
    euclidean,
    gnp_incomplete,
    make_instance,
    master_list,
    regular_bipartite,
    zipf_popularity,
)
from repro.errors import (
    InvalidMatchingError,
    InvalidParameterError,
    InvalidPreferencesError,
    ProtocolViolationError,
    ReproError,
    SimulationError,
)

__version__ = "1.0.0"

__all__ = [
    # core
    "ASMEngine",
    "ASMObserver",
    "ASMResult",
    "Matching",
    "PreferenceProfile",
    "QuantizedList",
    "almost_regular_asm",
    "asm",
    "params_for_eps",
    "quantile_index",
    "rand_asm",
    # analysis
    "count_blocking_pairs",
    "find_blocking_pairs",
    "find_eps_blocking_pairs",
    "instability",
    "is_eps_blocking_stable",
    "is_one_minus_eps_stable",
    "is_stable",
    "stability_report",
    # analysis extras
    "welfare_report",
    # observability (repro.obs)
    "EventLog",
    "MetricsObserver",
    "MetricsRegistry",
    "RunManifest",
    "Telemetry",
    # trace & profiling (repro.trace)
    "CausalTrace",
    "CausalTracer",
    "PhaseProfiler",
    "SLOMonitor",
    "StabilitySLO",
    "derive_trace_id",
    # baselines
    "better_response_dynamics",
    "gale_shapley",
    "parallel_gale_shapley",
    "random_greedy_matching",
    # workloads
    "GENERATORS",
    "adversarial_gale_shapley",
    "almost_regular",
    "bounded_degree",
    "clustered",
    "complete_uniform",
    "euclidean",
    "gnp_incomplete",
    "make_instance",
    "master_list",
    "regular_bipartite",
    "zipf_popularity",
    # errors
    "InvalidMatchingError",
    "InvalidParameterError",
    "InvalidPreferencesError",
    "ProtocolViolationError",
    "ReproError",
    "SimulationError",
    "__version__",
]
