"""Gradual transformation planners for graph solutions.

Plans bounded-phase transformations between matchings (cardinality and
weight) and spanning forests, verifies them by replay, wraps dynamic
matching algorithms to bound their worst-case recourse, and generates
adversarial update streams witnessing the matching recourse lower bound.

`import gradmorph` runs no submodule: the first access to an exported name
imports the submodule that owns it (PEP 562), so start-up pays only for
the code a caller uses.
"""

import importlib

# owning submodule -> the names it exports, in __all__ order
_EXPORTS = {
    "graph": "BudgetError ContractError DataError DeltaReport Error Graph "
             "Matching SolutionStats SpanningForest UpdateEvent ValidityReport "
             "solution_stats validate_forest validate_matching",
    "script": "Boundary GuaranteeResult ReplayReport "
              "TransformationScript check_guarantee replay phase_budget "
              "MCM_PHASE_BUDGET MSF_PHASE_BUDGET",
    "mcm": "plan_mcm",
    "mwm": "AlternatingComponent order_components plan_mwm_auto",
    "msf": "plan_msf plan_tree",
    "oracles": "exhaustive_transform_search max_matching_exact "
               "max_weight_matching_exact msf_exact",
    "wrapper": "BatchRecompute GreedyMaximalMatching InnerAlgorithm "
               "OutputDelta WrappedMatching",
    "adversary": "gen_fully_dynamic run_decremental_mirror "
                 "run_incremental_adversary",
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names.split()}

__version__ = "0.1.0"

# perfbench/run.py reads this for the environment in its notes line; it goes
# away with the next change to the benchmark. The link-cut core is pure Python.
HAVE_COMPILED_CORE = False

__all__ = [*_OWNER, "__version__"]


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value     # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
