"""Exact and heuristic toolkit for limited augmented Zarankiewicz numbers
on the incidence boards of complete graphs."""

from .board import (
    BoardError,
    Cell,
    CountingSummary,
    Mode,
    Row,
    TwoEdge,
    available_cells,
    candidate_family,
    classify,
    counting_summary,
    make_edge,
    rows,
)
from .families import Family, FamilyFormatError, parse_family, serialize_family
from .admissibility import (
    ScratchBoard,
    VerifyResult,
    Violation,
    incremental_check,
    verify,
    witness_set,
)
from .ilp import IlpModel, build_model, export_lp, import_solution
from .exact import ExactResult, solve_exact
from .search import SearchConfig, SearchResult, run_search
from .lifting import LiftReport, embed, lift_extend
from .recognition import (
    BipartiteGraph,
    Isomorphism,
    NotExtremal,
    incidence_graph,
    is_c4_free,
    recognize_incidence,
)
from .fixtures import gap_ratio, k4t_bound, reference_family, reference_table

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph",
    "BoardError",
    "Cell",
    "CountingSummary",
    "ExactResult",
    "Family",
    "FamilyFormatError",
    "IlpModel",
    "Isomorphism",
    "LiftReport",
    "Mode",
    "NotExtremal",
    "Row",
    "ScratchBoard",
    "SearchConfig",
    "SearchResult",
    "TwoEdge",
    "VerifyResult",
    "Violation",
    "available_cells",
    "build_model",
    "candidate_family",
    "classify",
    "counting_summary",
    "embed",
    "export_lp",
    "gap_ratio",
    "import_solution",
    "incidence_graph",
    "incremental_check",
    "is_c4_free",
    "k4t_bound",
    "lift_extend",
    "make_edge",
    "parse_family",
    "recognize_incidence",
    "reference_family",
    "reference_table",
    "rows",
    "run_search",
    "serialize_family",
    "solve_exact",
    "verify",
]
