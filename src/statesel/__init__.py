"""State-variable selection and linear surrogate identification toolkit.

Selects a compact, physically meaningful subset of recorded process variables
to serve as the state of a discrete-time linear model, fits the model by
truncated-SVD snapshot regression, and scores selections with a unified
normalized MSE on states and outputs. Two selectors are provided: recursive
feature elimination with cross-subsystem balancing, and a genetic-algorithm
baseline over binary candidate masks.
"""

from .cost import ChannelScales, CostBreakdown, cost, rollout_cost
from .datamodel import (
    ChannelMeta,
    SnapshotSet,
    SplitSpec,
    TimeSeriesDataset,
    assemble_snapshots,
    emit,
    ingest,
    split,
)
from .dmdc import (
    StateSpaceModel,
    TruncationPolicy,
    c2d_zoh,
    fit_dynamics,
    fit_model,
    fit_output_map,
    load_model,
    rollout,
    save_model,
    truncated_svd,
)
from .errors import DatasetError, DegenerateSnapshots, DuplicateChannel, MergedPoolTooLarge
from .ga import GAConfig, ga_select, repair
from .prefilter import PrefilterConfig, PrefilterReport, prefilter
from .rfe import (
    ImportanceMatrix,
    RFEConfig,
    count_subsets,
    cross_influence,
    importance,
    merged_search,
    rfe_rank,
    rfe_select,
    within_subsystem_rfe,
)
from .selection import SelectionResult, SubsetEvaluator

__version__ = "0.1.0"

__all__ = [
    "ChannelMeta",
    "ChannelScales",
    "CostBreakdown",
    "DatasetError",
    "DegenerateSnapshots",
    "DuplicateChannel",
    "GAConfig",
    "ImportanceMatrix",
    "MergedPoolTooLarge",
    "PrefilterConfig",
    "PrefilterReport",
    "RFEConfig",
    "SelectionResult",
    "SnapshotSet",
    "SplitSpec",
    "StateSpaceModel",
    "SubsetEvaluator",
    "TimeSeriesDataset",
    "TruncationPolicy",
    "assemble_snapshots",
    "c2d_zoh",
    "cost",
    "count_subsets",
    "cross_influence",
    "emit",
    "fit_dynamics",
    "fit_model",
    "fit_output_map",
    "ga_select",
    "importance",
    "ingest",
    "load_model",
    "merged_search",
    "prefilter",
    "repair",
    "rfe_rank",
    "rfe_select",
    "rollout",
    "rollout_cost",
    "save_model",
    "split",
    "truncated_svd",
    "within_subsystem_rfe",
]
