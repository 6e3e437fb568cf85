"""Randomized Kakeya-type tube families over finite direction sets.

The pipeline: encode a direction set as an M-adic tree, prune it to 2^N
binary-splitting separated slopes, assign slopes to root cubes by a
seeded sticky random map, and measure the resulting union of tubes --
with exact rational arithmetic wherever a quantity is exact and seeded
Monte Carlo where it is statistical.
"""

__version__ = "0.1.0"  # set before the submodules: harness imports it

from .errors import InfeasibleInstance, InvalidInput, SizeCapExceeded
from .madic import (
    MadicTree,
    PointSetTree,
    DigitRuleTree,
    cantor_tree,
    encode_set,
    full_tree,
    splitting_number,
    splitting_number_bruteforce,
    youngest_common_ancestor,
)
from .pruning import PrunedSlopeTree, find_separated_pair, prune, slope_metrics
from .sticky import (
    BernoulliWarehouse,
    StickyMap,
    classify_roots,
    is_sticky_admissible,
    prob_closed_form,
    prob_enumerate,
    prob_exact,
    sample_assignment,
)
from .tubes import (
    SlabWindow,
    Tube,
    inclusion_check,
    intersects,
    pair_intersection_volume,
    poss,
    reference_trees,
    union_volume,
)
from .percolation import (
    percolate_reference,
    survival_exact,
    survival_monte_carlo,
    survival_upper_bound,
    total_resistance,
)
from .harness import ExperimentConfig, construct_kakeya

__all__ = [name for name in dir() if not name.startswith("_")]
