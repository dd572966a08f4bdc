"""State-variable selection and linear surrogate identification toolkit.

Selects a compact, physically meaningful subset of recorded process variables
to serve as the state of a discrete-time linear model, fits the model by
truncated-SVD snapshot regression, and scores selections with a unified
normalized MSE on states and outputs. Two selectors are provided: recursive
feature elimination with cross-subsystem balancing, and a genetic-algorithm
baseline over binary candidate masks.

The names in ``__all__`` resolve on first use (PEP 562): ``import statesel``
loads no submodule, and ``statesel.X`` or ``from statesel import X`` loads
only the module that defines ``X``.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# the module that defines each exported name
_EXPORTS = {
    "cost": ("ChannelScales", "CostBreakdown", "cost", "rollout_cost"),
    "datamodel": (
        "ChannelMeta",
        "SnapshotSet",
        "SplitSpec",
        "TimeSeriesDataset",
        "assemble_snapshots",
        "emit",
        "ingest",
        "split",
    ),
    "dmdc": (
        "StateSpaceModel",
        "TruncationPolicy",
        "c2d_zoh",
        "fit_dynamics",
        "fit_model",
        "fit_output_map",
        "load_model",
        "rollout",
        "save_model",
        "truncated_svd",
    ),
    "errors": ("DatasetError", "DegenerateSnapshots", "DuplicateChannel", "MergedPoolTooLarge"),
    "ga": ("GAConfig", "ga_select", "repair"),
    "prefilter": ("PrefilterConfig", "PrefilterReport", "prefilter"),
    "rfe": (
        "ImportanceMatrix",
        "RFEConfig",
        "count_subsets",
        "cross_influence",
        "importance",
        "merged_search",
        "rfe_rank",
        "rfe_select",
        "within_subsystem_rfe",
    ),
    "selection": ("SelectionResult", "SubsetEvaluator"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name: str, value) -> None:
        # Loading a submodule binds it on its package. ``cost`` and
        # ``prefilter`` name both a submodule and the function it defines;
        # the package name stays the function's, as ``__all__`` says.
        if _MODULE_OF.get(name) != name or not isinstance(value, types.ModuleType):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
