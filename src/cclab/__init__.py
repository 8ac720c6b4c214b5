"""cclab: a desk-scale laboratory for deterministic communication
complexity over explicit Boolean sign matrices.

The names below are the documented API (README, "Python API").  Helper
types and constants stay in their submodules, e.g. ``cclab.builder``.
"""

from .errors import CapacityError, InvariantError, ParseError, StructureError
from .limits import SearchLimits, SearchResult
from .matrix import (BoolFun, DESK_CELL_CAP, classes, distinct_col_count,
                     distinct_row_count, exact_rank, format_bfn, make_family,
                     parse_bfn, rank, read_bfn, restrict, splitmix64,
                     xor_power)
from .rectangles import (Rectangle, check_monochromatic, cover_number,
                         enumerate_maximal_mono, fooling_set_bound,
                         max_mono_rectangle, validate_cover)
from .entropy import extract_rectangle
from .protocol import (ALICE, BOB, Leaf, Node, ProtocolTree, balance,
                       evaluate, exact_cc, format_tree, tree_from_obj,
                       tree_to_obj, verify)
from .builder import (build_protocol, leaf_budget, rank_step_budget,
                      shrink_step_budget, theorem_report)

__version__ = "0.1.0"
