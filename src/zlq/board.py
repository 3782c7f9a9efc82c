"""Board model for the incidence graph of the complete graph on q+1 vertices.

The board has one row per unordered pair {i, j} of vertices from
{0, ..., q} and one column per vertex.  The cell (row, col) is permanently
occupied by a 1-edge exactly when the column vertex belongs to the row
pair; every other cell is available.  A 2-edge is an unordered pair of
distinct available cells, classified by whether its two halves share a row
or a column.

Rows are listed in lexicographic order (``rows``).  The position of a row
in that list, the dense row index behind the occupancy bitsets, lives only
in ``admissibility.ScratchBoard``; file formats only ever carry explicit
vertex labels.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import comb
from typing import Literal

Row = tuple[int, int]
Cell = tuple[int, int, int]  # (i, j, c): row {i, j} with i < j, column c
TwoEdge = tuple[Cell, Cell]  # halves in canonical (sorted) order

Mode = Literal["full", "nondeg"]
MODES = ("full", "nondeg")

NONDEGENERATE = "nondegenerate"
ROW_DEGENERATE = "row-degenerate"
COLUMN_DEGENERATE = "column-degenerate"


class BoardError(ValueError):
    """A cell or 2-edge does not live on the stated board."""


def check_q(q: int) -> None:
    if q < 2:
        raise ValueError(f"board parameter q must be at least 2, got {q}")


def check_mode(mode: str) -> None:
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def check_budget(name: str, value: float | None) -> None:
    """Reject a negative or NaN node or time budget; None and inf mean no limit."""
    if value is not None and not value >= 0:  # false for NaN
        raise ValueError(f"{name} must be non-negative, got {value}")


def rows(q: int) -> list[Row]:
    """All 2-subsets of {0, ..., q} in lexicographic order."""
    check_q(q)
    return [(i, j) for i in range(q + 1) for j in range(i + 1, q + 1)]


def validate_cell(q: int, cell: Cell) -> None:
    """Reject cells that are off the board or sit on a 1-edge."""
    i, j, c = cell
    if not (0 <= i < j <= q):
        raise BoardError(f"cell {cell}: row pair must satisfy 0 <= i < j <= {q}")
    if not (0 <= c <= q):
        raise BoardError(f"cell {cell}: column must lie in 0..{q}")
    if c == i or c == j:
        raise BoardError(f"cell {cell}: column {c} lies in the row pair (1-edge cell)")


def available_cells(q: int) -> list[Cell]:
    """All available cells in lexicographic order; count is C(q+1,2)*(q-1)."""
    check_q(q)
    return [
        (i, j, c)
        for (i, j) in rows(q)
        for c in range(q + 1)
        if c != i and c != j
    ]


def make_edge(half1: Cell, half2: Cell, q: int | None = None) -> TwoEdge:
    """Canonicalize an unordered pair of cells into a 2-edge.

    Halves are stored sorted by (i, j, c); equal halves are rejected (the
    simplicity rule leaves no room for them).  When q is given both cells
    are validated against that board.
    """
    if q is not None:
        validate_cell(q, half1)
        validate_cell(q, half2)
    if half1 == half2:
        raise BoardError(f"2-edge halves must be distinct cells, got {half1} twice")
    return (half1, half2) if half1 <= half2 else (half2, half1)


def nondegenerate(row1: Row | int, col1: int, row2: Row | int, col2: int) -> bool:
    """Whether two halves differ in both row and column, so the opposite-corner rule applies.

    Rows may be row pairs or row indices: equal pairs have equal indices.
    """
    return row1 != row2 and col1 != col2


def classify(edge: TwoEdge) -> str:
    """Degeneracy class of a 2-edge; invariant under swapping the halves."""
    (i1, j1, c1), (i2, j2, c2) = edge
    if edge[0] == edge[1]:
        raise BoardError(f"equal halves in {edge}")
    if nondegenerate((i1, j1), c1, (i2, j2), c2):
        return NONDEGENERATE
    return ROW_DEGENERATE if c1 != c2 else COLUMN_DEGENERATE


def touches_vertex(edge: TwoEdge, v: int) -> bool:
    """Does vertex v label a row or the column of either half of the edge?"""
    (i1, j1, c1), (i2, j2, c2) = edge
    return v in (i1, j1, c1, i2, j2, c2)


def candidate_family(q: int, mode: Mode = "full") -> list[TwoEdge]:
    """The candidate 2-edges in canonical order.

    "full" lists every unordered pair of distinct available cells,
    "nondeg" only those whose halves differ in both row and column.
    """
    check_q(q)
    check_mode(mode)
    cells = available_cells(q)
    if mode == "full":
        return [(a, b) for k, a in enumerate(cells) for b in cells[k + 1 :]]
    halves = [((i, j), c) for i, j, c in cells]
    return [
        (a, b)
        for k, (a, (ra, ca)) in enumerate(zip(cells, halves))
        for b, (rb, cb) in zip(cells[k + 1 :], halves[k + 1 :])
        if nondegenerate(ra, ca, rb, cb)
    ]


@dataclass(frozen=True)
class CountingSummary:
    """Closed-form census of a q-board and its candidate 2-edges."""

    q: int
    rows: int
    cols: int
    one_edges: int
    available: int
    full: int
    nondeg: int
    row_deg: int
    col_deg: int
    z: int

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


def counting_summary(q: int) -> CountingSummary:
    """Counts of rows, cells and candidate classes for the q-board.

    row_deg counts pairs of available cells sharing a row (C(q-1,2) per
    row), col_deg pairs sharing a column (C(C(q,2),2) per column), and the
    three classes partition the full candidate family.
    """
    check_q(q)
    m = comb(q + 1, 2)
    available = m * (q - 1)
    full = comb(available, 2)
    row_deg = m * comb(q - 1, 2)
    col_deg = (q + 1) * comb(comb(q, 2), 2)
    return CountingSummary(
        q=q,
        rows=m,
        cols=q + 1,
        one_edges=q * (q + 1),
        available=available,
        full=full,
        nondeg=full - row_deg - col_deg,
        row_deg=row_deg,
        col_deg=col_deg,
        z=q * (q + 1),
    )
