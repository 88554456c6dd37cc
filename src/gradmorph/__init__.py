"""Gradual transformation planners for graph solutions.

Plans bounded-phase transformations between matchings (cardinality and
weight) and spanning forests, verifies them by replay, wraps dynamic
matching algorithms to bound their worst-case recourse, and generates
adversarial update streams witnessing the matching recourse lower bound.
"""

from .graph import (BudgetError, ContractError, DataError, DeltaReport,
                    Error, Graph, Matching, SolutionStats, SpanningForest,
                    UpdateEvent, ValidityReport, solution_stats,
                    validate_forest, validate_matching)
from .script import (Boundary, ChangeOp, GuaranteeResult, ReplayReport,
                     TransformationScript, check_guarantee, replay)
from .mcm import EdgeClassification, classify, plan_mcm, MCM_PHASE_BUDGET
from .mwm import (AlternatingComponent, decompose, mwm_phase_budget,
                  order_components, plan_mwm_auto)
from .msf import plan_msf, plan_tree, MSF_PHASE_BUDGET
from .oracles import (exhaustive_transform_search, has_augmenting_path,
                      max_matching_exact, max_weight_matching_exact, msf_exact)
from .wrapper import (BatchRecompute, GreedyMaximalMatching, InnerAlgorithm,
                      OutputDelta, WrappedMatching)
from .adversary import (gen_fully_dynamic, run_decremental_mirror,
                        run_incremental_adversary)

__version__ = "0.1.0"

# perfbench/run.py reads this for the environment in its notes line; it goes
# away with the next change to the benchmark. The link-cut core is pure Python.
HAVE_COMPILED_CORE = False

__all__ = [
    "BudgetError", "ContractError", "DataError", "DeltaReport", "Error",
    "Graph", "Matching", "SolutionStats", "SpanningForest", "UpdateEvent",
    "ValidityReport", "solution_stats", "validate_forest",
    "validate_matching", "Boundary", "ChangeOp", "GuaranteeResult",
    "ReplayReport", "TransformationScript", "check_guarantee", "replay",
    "EdgeClassification", "classify", "plan_mcm", "MCM_PHASE_BUDGET",
    "AlternatingComponent", "decompose", "mwm_phase_budget",
    "order_components", "plan_mwm_auto", "plan_msf", "plan_tree",
    "MSF_PHASE_BUDGET", "exhaustive_transform_search", "has_augmenting_path",
    "max_matching_exact", "max_weight_matching_exact", "msf_exact",
    "BatchRecompute", "GreedyMaximalMatching", "InnerAlgorithm",
    "OutputDelta", "WrappedMatching", "gen_fully_dynamic",
    "run_decremental_mirror", "run_incremental_adversary", "__version__",
]
