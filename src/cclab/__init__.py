"""cclab: a desk-scale laboratory for deterministic communication
complexity over explicit Boolean sign matrices."""

from .errors import CapacityError, InvariantError, ParseError, StructureError
from .limits import SearchLimits, SearchResult
from .matrix import (BoolFun, IndexCodec, LiftedFun, classes,
                     distinct_col_count, distinct_row_count, exact_rank,
                     format_bfn, make_family, parse_bfn, rank, read_bfn,
                     restrict, splitmix64, write_bfn, xor_power,
                     DESK_CELL_CAP)
from .rectangles import (EnumerationResult, Rectangle, check_monochromatic,
                         cover_number, enumerate_maximal_mono,
                         fooling_set_bound, max_mono_rectangle,
                         validate_cover)
from .entropy import (ExtractionCertificate, FiniteDist, cond_entropy, entropy,
                      extract_rectangle)
from .protocol import (ALICE, BOB, Leaf, Node, ProtocolTree, balance,
                       evaluate, exact_cc, first_mismatch, tree_from_obj,
                       tree_to_obj, verify)
from .builder import (BuildStep, BuildTrace, SplitDecision, TheoremReport,
                      build_protocol, choose_split, find_big_rectangle,
                      leaf_budget, rank_step_budget, shrink_step_budget,
                      theorem_report, DIRECT_MAX, LIFT_EXTRACT,
                      ALICE_SENDS, BOB_SENDS)

__version__ = "0.1.0"
