"""Exact admissibility checking for 2-edge families.

Three rules govern a family over the fixed 1-edge background:

* simplicity: no cell is claimed twice (by two 2-edges, or by a 2-edge and
  a 1-edge);
* opposite-corner rule: for a nondegenerate 2-edge with halves (r1, c1) and
  (r2, c2), the cells (r1, c2) and (r2, c1) must not both be occupied;
* five-cell rule: no occupied witness cell (x, y) with x outside {r1, r2}
  and y outside {c1, c2} may see (x, c1), (x, c2), (r1, y), (r2, y) all
  occupied as well.

"Occupied" always includes the 1-edge cells, so a rule can fire against the
background alone.  Each rule instance is defined once: simplicity by
``cell_claims``, the other two by ``corner_cells``, ``witness_set`` and
``pattern_cells``; ``verify`` (through ``build_board``, ``check_C2`` and
``check_C3``) and the ILP rows in ``ilp`` derive from these functions.  For
a nondegenerate 2-edge the five pattern cells are automatically pairwise
distinct (``pattern_cells`` asserts this, nothing re-filters); degenerate
2-edges may have coincident pattern cells, and the pattern is a multiset.

The insertion kernel ``ScratchBoard.insertion_ok`` is the fast path used by
search and the exact solver.  It tracks occupancy in two redundant bitset
views, per-row column masks and per-column row masks, so the five-cell scan
reduces to three mask intersections; tests compare it exhaustively with the
definition.  A candidate's own rules never involve its own two cells, so
they are checked before it is placed, and only the re-check of the edges
already on the board needs the new cells.  ``ScratchBoard.first_fit`` is
the batched form of the kernel: greedy first-fit over a candidate order,
shared by the search fills and the exact solver's seed.  Every kernel
board is built one way: ``ScratchBoard.over`` places a base family and
``ScratchBoard.fitting`` keeps the candidates that fit it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .board import (
    BoardError,
    Cell,
    NONDEGENERATE,
    Row,
    TwoEdge,
    check_q,
    classify,
    row_index,
    rows,
    validate_cell,
)
from .families import Family

FREE = -2
ONE_EDGE = -1
# owner values >= 0 are indices into the family's canonical edge order


def _format_cell(cell: Cell) -> str:
    i, j, c = cell
    return f"({i},{j}|{c})"


def cell_claims(edges: Iterable[TwoEdge]) -> dict[Cell, list[int]]:
    """Each cell an edge half sits on, mapped to the indices of all edges on it.

    Indices come in edge order.  A cell with two or more claimants, or a
    claimed 1-edge cell, breaks the simplicity rule.
    """
    claims: dict[Cell, list[int]] = {}
    for k, edge in enumerate(edges):
        for half in edge:
            claims.setdefault(half, []).append(k)
    return claims


def corner_cells(edge: TwoEdge) -> tuple[Cell, Cell]:
    """The opposite corners (r1, c2), (r2, c1) of the opposite-corner rule."""
    (i1, j1, c1), (i2, j2, c2) = edge
    return (i1, j1, c2), (i2, j2, c1)


def witness_set(edge: TwoEdge, q: int) -> list[tuple[Row, int]]:
    """Witness positions (x, y): x outside the edge's rows, y outside its columns.

    Rows x come in ``rows(q)`` order and columns y ascending.  Degenerate
    edges keep witnesses whose patterns contain coincident cells.
    """
    check_q(q)
    (i1, j1, c1), (i2, j2, c2) = edge
    validate_cell(q, (i1, j1, c1))
    validate_cell(q, (i2, j2, c2))
    r1, r2 = (i1, j1), (i2, j2)
    return [
        (x, y)
        for x in rows(q)
        if x != r1 and x != r2
        for y in range(q + 1)
        if y != c1 and y != c2
    ]


def pattern_cells(edge: TwoEdge, witness: tuple[Row, int]) -> tuple[Cell, ...]:
    """The five cells (x,y), (x,c1), (x,c2), (r1,y), (r2,y) of the five-cell rule."""
    (i1, j1, c1), (i2, j2, c2) = edge
    (xi, xj), y = witness
    cells = ((xi, xj, y), (xi, xj, c1), (xi, xj, c2), (i1, j1, y), (i2, j2, y))
    if classify(edge) == NONDEGENERATE:
        assert len(set(cells)) == 5, "nondegenerate pattern cells must be distinct"
    return cells


@dataclass(frozen=True)
class Violation:
    """One broken rule instance; the cells listed reproduce it in isolation."""

    kind: str  # "S" | "C2" | "C3"
    edges: tuple[int, ...]  # canonical indices; -1 marks a proposed edge
    cells: tuple[Cell, ...]
    witness: tuple[Row, int] | None = None  # (x, y) for the five-cell rule

    def format(self) -> str:
        if self.kind == "S":
            edges = ",".join(str(k) for k in self.edges)
            return f"S cell={_format_cell(self.cells[0])} edges=[{edges}]"
        if self.kind == "C2":
            cells = ",".join(_format_cell(c) for c in self.cells)
            return f"C2 edge={self.edges[0]} cells={cells}"
        (x, y) = self.witness  # type: ignore[misc]
        cells = ",".join(_format_cell(c) for c in self.cells)
        return f"C3 edge={self.edges[0]} witness=({x[0]},{x[1]}|{y}) cells={cells}"


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    violations: tuple[Violation, ...]

    def report(self) -> str:
        return "\n".join(v.format() for v in self.violations)


class ScratchBoard:
    """Mutable occupancy state for one q-board.

    Single-owner by design: callers running a search must serialize their
    own mutations.  Cells are addressed as (row index, column); edge
    placement and removal are O(1) mask updates.
    """

    __slots__ = ("q", "n", "m", "rows", "rowidx", "col_masks", "row_masks", "free_cells")

    def __init__(self, q: int):
        self.q = q
        self.n = q + 1
        self.rows = rows(q)
        self.m = len(self.rows)
        self.rowidx = {r: k for k, r in enumerate(self.rows)}
        self.col_masks = [0] * self.m  # row index -> bitmask of occupied columns
        self.row_masks = [0] * self.n  # column -> bitmask of occupied row indices
        for k, (i, j) in enumerate(self.rows):
            self.col_masks[k] = (1 << i) | (1 << j)
            self.row_masks[i] |= 1 << k
            self.row_masks[j] |= 1 << k
        self.free_cells = self.m * (q - 1)

    @classmethod
    def over(
        cls, q: int, edges: Iterable[TwoEdge]
    ) -> tuple[ScratchBoard, list[tuple[int, int, int, int, bool]]]:
        """A board with ``edges`` placed, and the ``placed`` list that describes them."""
        board = cls(q)
        placed = [board.placed_entry(e) for e in edges]
        for entry in placed:
            board.place(*entry[:4])
        return board, placed

    def coords(self, edge: TwoEdge) -> tuple[int, int, int, int]:
        """(row index, column) pairs of the two halves."""
        (i1, j1, c1), (i2, j2, c2) = edge
        return self.rowidx[(i1, j1)], c1, self.rowidx[(i2, j2)], c2

    def placed_entry(self, edge: TwoEdge) -> tuple[int, int, int, int, bool]:
        """The record ``insertion_ok`` expects in ``placed``: coords and nondegeneracy."""
        return (*self.coords(edge), classify(edge) == NONDEGENERATE)

    def occupied(self, ri: int, c: int) -> bool:
        return bool((self.col_masks[ri] >> c) & 1)

    def cells_free(self, r1: int, c1: int, r2: int, c2: int) -> bool:
        return not ((self.col_masks[r1] >> c1) & 1 or (self.col_masks[r2] >> c2) & 1)

    def place(self, r1: int, c1: int, r2: int, c2: int) -> None:
        self.col_masks[r1] |= 1 << c1
        self.row_masks[c1] |= 1 << r1
        self.col_masks[r2] |= 1 << c2
        self.row_masks[c2] |= 1 << r2
        self.free_cells -= 2

    def unplace(self, r1: int, c1: int, r2: int, c2: int) -> None:
        self.col_masks[r1] &= ~(1 << c1)
        self.row_masks[c1] &= ~(1 << r1)
        self.col_masks[r2] &= ~(1 << c2)
        self.row_masks[c2] &= ~(1 << r2)
        self.free_cells += 2

    def c2_hit(self, r1: int, c1: int, r2: int, c2: int) -> bool:
        """Both opposite corners occupied (meaningful for nondegenerate only)."""
        return bool((self.col_masks[r1] >> c2) & 1 and (self.col_masks[r2] >> c1) & 1)

    def c3_hit(self, r1: int, c1: int, r2: int, c2: int) -> bool:
        """Some witness completes the five-cell pattern for this edge.

        base: columns y outside {c1, c2} with (r1, y) and (r2, y) occupied.
        xs:   rows x outside {r1, r2} with (x, c1) and (x, c2) occupied.
        A hit is any x in xs whose occupied columns meet base.
        """
        col_masks = self.col_masks
        colbits = (1 << c1) | (1 << c2)
        base = col_masks[r1] & col_masks[r2] & ~colbits
        if not base:
            return False
        xs = self.row_masks[c1] & self.row_masks[c2] & ~((1 << r1) | (1 << r2))
        while xs:
            x = (xs & -xs).bit_length() - 1
            xs &= xs - 1
            if col_masks[x] & base:
                return True
        return False

    def insertion_ok(
        self,
        coords: tuple[int, int, int, int],
        nondeg: bool,
        placed: list[tuple[int, int, int, int, bool]],
    ) -> bool:
        """Would placing this edge keep the board admissible?

        ``placed`` holds the coords and nondegeneracy flags of the edges
        already on the board, all of which are re-examined because the two
        new cells may complete an opposite-corner or five-cell pattern for
        them.  The edge's own rules are checked first, without placing it:
        its corners are never its own cells, and ``c3_hit`` masks out its
        own rows and columns.  The board is left unchanged.
        """
        r1, c1, r2, c2 = coords
        if not self.cells_free(r1, c1, r2, c2):
            return False
        if (nondeg and self.c2_hit(r1, c1, r2, c2)) or self.c3_hit(r1, c1, r2, c2):
            return False
        if not placed:
            return True
        self.place(r1, c1, r2, c2)
        try:
            for g1, gc1, g2, gc2, gnondeg in placed:
                if (gnondeg and self.c2_hit(g1, gc1, g2, gc2)) or self.c3_hit(g1, gc1, g2, gc2):
                    return False
            return True
        finally:
            self.unplace(r1, c1, r2, c2)

    def fitting(
        self,
        candidates: Iterable[TwoEdge],
        placed: list[tuple[int, int, int, int, bool]],
    ) -> tuple[list[TwoEdge], list[tuple[int, int, int, int]], list[bool]]:
        """The candidates ``insertion_ok`` accepts against ``placed``, in order.

        Returns their edges, coords and nondegeneracy flags.  Each candidate
        is judged alone, so on an empty board this is the static prune.
        """
        edges, coords, nondeg = [], [], []
        for e in candidates:
            ce, nd = self.coords(e), classify(e) == NONDEGENERATE
            if self.insertion_ok(ce, nd, placed):
                edges.append(e)
                coords.append(ce)
                nondeg.append(nd)
        return edges, coords, nondeg

    def first_fit(
        self,
        order: Iterable[int],
        coords: Sequence[tuple[int, int, int, int]],
        nondeg: Sequence[bool],
        placed: list[tuple[int, int, int, int, bool]],
    ) -> list[int]:
        """Greedy first-fit: place every candidate in ``order`` that ``insertion_ok`` accepts.

        ``coords`` and ``nondeg`` are indexed by candidate; ``placed`` must
        describe the edges already on the board and grows by each accepted
        candidate, which stays placed.  Returns the accepted indices in
        order.
        """
        insertion_ok = self.insertion_ok
        accepted = []
        for k in order:
            ck = coords[k]
            if insertion_ok(ck, nondeg[k], placed):
                self.place(*ck)
                placed.append((*ck, nondeg[k]))
                accepted.append(k)
        return accepted


@dataclass(frozen=True)
class Board:
    """Immutable occupancy snapshot of a family on its q-board."""

    q: int
    family: Family
    owners: tuple[int, ...]  # dense cell index -> FREE / ONE_EDGE / edge index
    s_violations: tuple[Violation, ...]

    def owner_of(self, cell: Cell) -> int:
        i, j, c = cell
        return self.owners[row_index(self.q, i, j) * (self.q + 1) + c]

    def counts(self) -> dict[str, int]:
        one = sum(1 for o in self.owners if o == ONE_EDGE)
        free = sum(1 for o in self.owners if o == FREE)
        return {"one_edge": one, "free": free, "used": len(self.owners) - one - free}


def build_board(q: int, family: Family) -> Board:
    """Occupancy of the 1-edge background plus every half of every edge.

    Two edges claiming one cell is a simplicity violation, reported on the
    board rather than raised; an edge half sitting on a 1-edge cell cannot
    occur in a validated Family and is rejected as a structural error.
    """
    if family.q != q:
        raise BoardError(f"family is on the {family.q}-board, expected q={q}")
    board_rows = rows(q)
    n = q + 1
    owners = [FREE] * (len(board_rows) * n)
    for k, (i, j) in enumerate(board_rows):
        owners[k * n + i] = ONE_EDGE
        owners[k * n + j] = ONE_EDGE

    claims = cell_claims(family.edges)
    for cell, claimants in claims.items():
        i, j, c = cell
        dense = row_index(q, i, j) * n + c
        if owners[dense] == ONE_EDGE:
            raise BoardError(f"edge {family.edges[claimants[0]]} claims the 1-edge cell {cell}")
        owners[dense] = claimants[0]

    s_violations = tuple(
        Violation(kind="S", edges=tuple(claims[cell]), cells=(cell,))
        for cell in sorted(claims)
        if len(claims[cell]) > 1
    )
    return Board(q=q, family=family, owners=tuple(owners), s_violations=s_violations)


def _edge_index(board: Board, edge: TwoEdge) -> int:
    try:
        return board.family.edges.index(edge)
    except ValueError:
        return -1  # proposed, not part of the board's family


def _all_occupied(board: Board, cells: tuple[Cell, ...]) -> bool:
    for cell in cells:
        if board.owner_of(cell) == FREE:
            return False
    return True


def check_C2(board: Board, edge: TwoEdge) -> Violation | None:
    """Opposite-corner violation for a nondegenerate edge, else None.

    Degenerate edges never trigger this rule.  1-edge occupancy counts, so
    an edge whose two opposite corners are both 1-edge cells is infeasible
    on any board.
    """
    if classify(edge) != NONDEGENERATE:
        return None
    corners = corner_cells(edge)
    if _all_occupied(board, corners):
        return Violation(kind="C2", edges=(_edge_index(board, edge),), cells=corners)
    return None


def check_C3(board: Board, edge: TwoEdge) -> list[Violation]:
    """All five-cell violations for this edge, one per witness, scan order."""
    eidx = _edge_index(board, edge)
    out = []
    for witness in witness_set(edge, board.q):
        cells = pattern_cells(edge, witness)
        if _all_occupied(board, cells):
            out.append(Violation(kind="C3", edges=(eidx,), cells=cells, witness=witness))
    return out


def verify(family: Family) -> VerifyResult:
    """Full check of every rule over every edge; reports are exhaustive."""
    board = build_board(family.q, family)
    violations: list[Violation] = list(board.s_violations)
    for edge in family.edges:
        v2 = check_C2(board, edge)
        if v2 is not None:
            violations.append(v2)
        violations.extend(check_C3(board, edge))
    return VerifyResult(ok=not violations, violations=tuple(violations))


def incremental_check(board: Board, family: Family, edge: TwoEdge) -> bool:
    """True iff family + edge stays admissible; board must match family.

    Equivalent, by tested contract, to running the full verifier on the
    extended family: the edge's own cells must be free, its own rules must
    hold, and every existing edge is re-examined because the two new cells
    may complete a pattern for it.  The board is not mutated.
    """
    if board.s_violations:
        return False
    scratch, placed = ScratchBoard.over(board.q, family.edges)
    return scratch.insertion_ok(scratch.coords(edge), classify(edge) == NONDEGENERATE, placed)


def static_prune_flags(q: int, candidates: list[TwoEdge]) -> list[bool]:
    """Per-candidate flag: True when the candidate is infeasible on its own.

    A singleton family {edge} already violating a rule against the 1-edge
    background can never appear in an admissible family (admissibility is
    hereditary), so solvers drop such candidates up front.
    """
    kept = set(ScratchBoard(q).fitting(candidates, [])[0])
    return [e not in kept for e in candidates]
