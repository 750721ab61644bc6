"""Task-based autotuning of HAN collectives (paper section III-C).

Two-step autotuning, as the paper frames it:

1. *Build a lookup table*: for sampled inputs (Table I: number of nodes
   ``n``, processes per node ``p``, message size ``m``, collective type
   ``t``) find the best configuration (Table II).  Four search methods
   are implemented, matching Fig 8/9:

   - ``exhaustive``       -- time every full collective configuration;
   - ``exhaustive+h``     -- exhaustive pruned by heuristics;
   - ``task``             -- benchmark HAN *tasks* once per (segment size,
     algorithm) and estimate every message size with the cost model
     (eqs. 3 and 4) -- the paper's contribution;
   - ``task+h``           -- the task method pruned by heuristics.

2. *Decide at runtime*: resolve arbitrary inputs to the nearest sampled
   point through the one lookup core
   (:class:`~repro.tuning.lookup.LookupIndex`;
   :class:`~repro.tuning.lookup.LookupTable` plugs into
   :class:`~repro.core.HanModule` as its decision function).
"""

from repro.tuning.space import SearchSpace, TuningInputs
from repro.tuning.cache import MeasurementCache, canonical, digest
from repro.tuning.measure import (
    CollectiveMeasurement,
    measure_collective,
    measurement_from_doc,
    measurement_key,
    measurement_to_doc,
    resolve_traffic,
)
from repro.tuning.taskbench import (
    AllreduceTaskCosts,
    BcastTaskCosts,
    ReduceTaskCosts,
    TaskBench,
    costs_from_doc,
    costs_to_doc,
)
from repro.tuning.bandit import BanditAllocator, BanditResult
from repro.tuning.parallel import MeasurePoint, TaskPoint, parallel_map, run_cached
from repro.tuning.costmodel import (
    estimate_allreduce,
    estimate_bcast,
    estimate_reduce,
)
from repro.tuning.heuristics import prune_configs
from repro.tuning.lookup import LookupTable
from repro.tuning.online import OnlineTuner
from repro.tuning.autotuner import Autotuner, TuningReport

__all__ = [
    "AllreduceTaskCosts",
    "Autotuner",
    "BanditAllocator",
    "BanditResult",
    "BcastTaskCosts",
    "CollectiveMeasurement",
    "LookupTable",
    "MeasurePoint",
    "MeasurementCache",
    "OnlineTuner",
    "ReduceTaskCosts",
    "SearchSpace",
    "TaskBench",
    "TaskPoint",
    "TuningInputs",
    "TuningReport",
    "canonical",
    "costs_from_doc",
    "costs_to_doc",
    "digest",
    "estimate_allreduce",
    "estimate_bcast",
    "estimate_reduce",
    "measure_collective",
    "measurement_from_doc",
    "measurement_key",
    "measurement_to_doc",
    "resolve_traffic",
    "parallel_map",
    "prune_configs",
    "run_cached",
]
