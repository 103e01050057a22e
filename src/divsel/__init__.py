"""divsel: diversity-aware subset selection.

Maximize f(S) = g(S) + lam * div(S) subject to |S| <= k, where g is a
(typically monotone submodular) set utility and div(S) is the minimum
pairwise distance within S.
"""

from .algorithms import (
    classic_greedy,
    gist,
    greedy_independent_set,
    random_baseline,
    simple_baseline,
)
from .core import (
    Instance,
    Problem,
    QueryCounter,
    Solution,
    UtilityOracle,
    distance_thresholds,
    div,
    objective,
)
from .errors import DegenerateRatioError, FormatError, InputError, SizeGuardError
from .generators import (
    GeneratedInstance,
    Graph,
    embed_graph,
    gen_clique_reduction,
    gen_cover_reduction,
    gen_gaussian,
    gen_greedy_hard,
    gen_independent_set_reduction,
    gen_nonsubmodular_example,
    random_bounded_degree_graph,
)
from .oracle import ExactResult, brute_force_constrained, brute_force_opt, ratio_report
from .utilities import (
    BudgetAdditiveUtility,
    ConstantZeroUtility,
    CoverageUtility,
    LinearUtility,
    MarginSimilarityUtility,
    MonotonicityWitness,
    PropertyReport,
    SubmodularityWitness,
    TabulatedUtility,
    check_monotone_submodular,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetAdditiveUtility",
    "ConstantZeroUtility",
    "CoverageUtility",
    "DegenerateRatioError",
    "ExactResult",
    "FormatError",
    "GeneratedInstance",
    "Graph",
    "InputError",
    "Instance",
    "LinearUtility",
    "MarginSimilarityUtility",
    "MonotonicityWitness",
    "Problem",
    "PropertyReport",
    "QueryCounter",
    "SizeGuardError",
    "Solution",
    "SubmodularityWitness",
    "TabulatedUtility",
    "UtilityOracle",
    "brute_force_constrained",
    "brute_force_opt",
    "check_monotone_submodular",
    "classic_greedy",
    "distance_thresholds",
    "div",
    "embed_graph",
    "gen_clique_reduction",
    "gen_cover_reduction",
    "gen_gaussian",
    "gen_greedy_hard",
    "gen_independent_set_reduction",
    "gen_nonsubmodular_example",
    "gist",
    "greedy_independent_set",
    "objective",
    "random_baseline",
    "random_bounded_degree_graph",
    "ratio_report",
    "simple_baseline",
]
