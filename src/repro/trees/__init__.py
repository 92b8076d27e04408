"""Tree-based learning substrates: CART regression trees, gradient boosting
and the isolation forest, re-implemented from their reference papers to
replace scikit-learn (which is unavailable in this environment).

Every fitted tree is a table of preorder node arrays, scored by the one
vectorised :func:`~repro.trees.nodes.traverse` (see :mod:`repro.trees.nodes`).
"""

from .decision_tree import DecisionTreeRegressor
from .gradient_boosting import GradientBoostingRegressor, MultiOutputGradientBoosting
from .isolation_forest import IsolationForest, average_path_length
from .nodes import traverse

__all__ = [
    "DecisionTreeRegressor",
    "GradientBoostingRegressor",
    "MultiOutputGradientBoosting",
    "IsolationForest",
    "average_path_length",
    "traverse",
]
