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
``pattern_cells``; ``verify`` and the ILP rows in ``ilp`` derive from these
functions.  For a nondegenerate 2-edge the five pattern cells are
automatically pairwise distinct, because ``witness_set`` keeps x outside
the edge's rows and y outside its columns (a test pins this, nothing
re-filters); degenerate 2-edges may have coincident pattern cells, and the
pattern is a multiset.  ``verify`` is one loop over one occupancy view, the
family's ``cell_claims``: a cell is occupied when it is a 1-edge cell (the
column lies in the row pair) or some edge claims it.

The insertion kernel ``ScratchBoard.insertion_ok`` is the fast path for
one candidate.  It tracks occupancy in two redundant bitset views, per-row
column masks and per-column row masks, so the five-cell scan reduces to
three mask intersections; tests compare it exhaustively with the
definition.  A candidate's own rules never involve its own two cells, so
they are checked before it is placed, and only the re-check of the edges
already on the board (``ScratchBoard.recheck_ok``) needs the new cells.
Every kernel board is built one way, by ``ScratchBoard.over``, which
places a base family.

``CandidateTable`` is the one layout of a candidate list on a board: the
edges, their coords and nondegeneracy flags (worked out from the coords),
and the bit slices, one bitmask over candidate indices per row and per
column, for each half.  ``ScratchBoard.table`` lays a list out on a
board, and ``take`` lays out a sub-table in a given order.
``OwnRuleState`` holds the mask of the candidates whose own rules fail on
a board, and keeps it up to date as edges are placed and undone;
``CandidateTable.own_ok``, its complement on one board, equals
``insertion_ok`` with nothing placed, by tested contract.  It is the one
judge of own rules over a whole table: ``ScratchBoard.fitting`` (the
static prune, or the fit against a frozen base) is one ``own_ok`` mask
plus ``recheck_ok`` on each survivor, and the exact solver forward-checks
its tree and builds its conflict rows with the state.

``OwnRuleState.first_fit`` is the one greedy first fit, shared by the
search fills and the exact solver's seed.  It forward-checks the placed
edges too (after Haralick & Elliott, Artif. Intell. 14, 1980):
``threat_cells`` lists the free cells whose occupation alone would
complete a placed edge's corner pair or five-cell pattern, and
``CandidateTable.on_cells`` maps them to the candidates with a half
there.  A candidate whose own rules fail or that sits on a threat cell
costs one flag lookup; ``recheck_ok`` judges the few left, which still
catches a pattern that both halves of a candidate complete together.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import starmap
from operator import itemgetter
from typing import Iterable, Sequence

from .board import (
    BoardError,
    Cell,
    NONDEGENERATE,
    Row,
    TwoEdge,
    check_q,
    classify,
    make_edge,
    nondegenerate,
    rows,
    validate_cell,
)
from .families import Family

Coords = tuple[int, int, int, int]  # (row index, column) of each half of an edge
Placed = tuple[int, int, int, int, bool]  # a placed edge's coords and nondegeneracy


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
    for half in edge:
        validate_cell(q, half)
    return _witnesses(edge, q, rows(q))


def _witnesses(edge: TwoEdge, q: int, board_rows: list[Row]) -> list[tuple[Row, int]]:
    """``witness_set`` without its checks, for callers that pass one board's ``rows(q)``."""
    (i1, j1, c1), (i2, j2, c2) = edge
    r1, r2 = (i1, j1), (i2, j2)
    ys = [y for y in range(q + 1) if y != c1 and y != c2]
    return [(x, y) for x in board_rows if x != r1 and x != r2 for y in ys]


def pattern_cells(edge: TwoEdge, witness: tuple[Row, int]) -> tuple[Cell, ...]:
    """The five cells (x,y), (x,c1), (x,c2), (r1,y), (r2,y) of the five-cell rule."""
    (i1, j1, c1), (i2, j2, c2) = edge
    (xi, xj), y = witness
    return (xi, xj, y), (xi, xj, c1), (xi, xj, c2), (i1, j1, y), (i2, j2, y)


@dataclass(frozen=True)
class Violation:
    """One broken rule instance; the cells listed reproduce it in isolation."""

    kind: str  # "S" | "C2" | "C3"
    edges: tuple[int, ...]  # positions in the family's edge order
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

    __slots__ = ("rowidx", "col_masks", "row_masks")

    def __init__(self, q: int):
        board_rows = rows(q)
        self.rowidx = {r: k for k, r in enumerate(board_rows)}
        self.col_masks = [0] * len(board_rows)  # row index -> bitmask of occupied columns
        self.row_masks = [0] * (q + 1)  # column -> bitmask of occupied row indices
        for k, (i, j) in enumerate(board_rows):
            self.col_masks[k] = (1 << i) | (1 << j)
            self.row_masks[i] |= 1 << k
            self.row_masks[j] |= 1 << k

    @classmethod
    def over(cls, q: int, edges: Iterable[TwoEdge]) -> tuple[ScratchBoard, list[Placed]]:
        """A board with ``edges`` placed, and the ``placed`` list that describes them."""
        board = cls(q)
        placed = []
        for e in edges:
            coords = board.coords(e)
            board.place(*coords)
            placed.append((*coords, nondegenerate(*coords)))
        return board, placed

    def coords(self, edge: TwoEdge) -> Coords:
        """(row index, column) pairs of the two halves."""
        (i1, j1, c1), (i2, j2, c2) = edge
        return self.rowidx[(i1, j1)], c1, self.rowidx[(i2, j2)], c2

    def table(self, edges: Iterable[TwoEdge]) -> CandidateTable:
        """The table of ``edges``, in order, on this board's rows and columns."""
        edges = list(edges)
        coords = list(map(self.coords, edges))
        return CandidateTable(edges, coords, len(self.col_masks), len(self.row_masks))

    def cells_free(self, r1: int, c1: int, r2: int, c2: int) -> bool:
        return not ((self.col_masks[r1] >> c1) & 1 or (self.col_masks[r2] >> c2) & 1)

    def place(self, r1: int, c1: int, r2: int, c2: int) -> None:
        self.col_masks[r1] |= 1 << c1
        self.row_masks[c1] |= 1 << r1
        self.col_masks[r2] |= 1 << c2
        self.row_masks[c2] |= 1 << r2

    def unplace(self, r1: int, c1: int, r2: int, c2: int) -> None:
        self.col_masks[r1] &= ~(1 << c1)
        self.row_masks[c1] &= ~(1 << r1)
        self.col_masks[r2] &= ~(1 << c2)
        self.row_masks[c2] &= ~(1 << r2)

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

    def insertion_ok(self, coords: Coords, nondeg: bool, placed: list[Placed]) -> bool:
        """Would placing this edge keep the board admissible?

        The edge's own rules are checked first, without placing it: its
        corners are never its own cells, and ``c3_hit`` masks out its own
        rows and columns.  Then ``recheck_ok`` re-examines the edges already
        on the board.  The board is left unchanged.
        """
        r1, c1, r2, c2 = coords
        if not self.cells_free(r1, c1, r2, c2):
            return False
        if (nondeg and self.c2_hit(r1, c1, r2, c2)) or self.c3_hit(r1, c1, r2, c2):
            return False
        return not placed or self.recheck_ok(coords, placed)

    def recheck_ok(self, coords: Coords, placed: list[Placed]) -> bool:
        """Would every edge in ``placed`` keep its rules once this edge is placed?

        ``placed`` holds the coords and nondegeneracy flags of the edges on
        the board; the two new cells may complete an opposite-corner or
        five-cell pattern for any of them.  The second half of
        ``insertion_ok``, for callers that know the edge's own rules hold
        (its cells must be free).  The board is left unchanged.
        """
        r1, c1, r2, c2 = coords
        self.place(r1, c1, r2, c2)
        try:
            for g1, gc1, g2, gc2, gnondeg in placed:
                if (gnondeg and self.c2_hit(g1, gc1, g2, gc2)) or self.c3_hit(g1, gc1, g2, gc2):
                    return False
            return True
        finally:
            self.unplace(r1, c1, r2, c2)

    def fitting(self, candidates: Iterable[TwoEdge], placed: list[Placed]) -> CandidateTable:
        """The candidates that fit against ``placed``, each judged alone, in order.

        One ``own_ok`` mask judges their own rules, then ``recheck_ok`` the
        placed edges for each survivor.  Returns the kept candidates as a
        table; on an empty board, the static prune.
        """
        table = self.table(candidates)
        coords = table.coords
        own = _set_bits(table.own_ok(self))
        return table.take([k for k in own if not placed or self.recheck_ok(coords[k], placed)])

def _set_bits(mask: int) -> list[int]:
    """The indices of the set bits of ``mask``, ascending."""
    return [m.start() for m in re.finditer("1", format(mask, "b")[::-1])]


def _flags(mask: int, size: int) -> bytearray:
    """Byte k is 1 when bit k of ``mask`` is set and 0 otherwise, for k in range(size)."""
    return bytearray(format(mask | 1 << size, "b")[:0:-1], "ascii").translate(_DIGIT_FLAGS)


_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


def threat_cells(board: ScratchBoard, placed: list[Placed]) -> list[int]:
    """Per row index, a column mask of the free cells whose occupation alone breaks a placed edge.

    For a placed edge (r1, c1, r2, c2), let X be the rows outside
    {r1, r2} occupied in columns c1 and c2, and Y the columns outside
    {c1, c2} occupied in rows r1 and r2.  A five-cell pattern misses
    exactly one cell at (x, y) for x in X and y in Y; at (x, c1) or
    (x, c2), for a row x outside {r1, r2} occupied somewhere in Y, when
    the other cell is occupied; and at (r1, y) or (r2, y), for a column y
    outside {c1, c2} occupied somewhere in X, when the other cell is
    occupied, or when free if r1 = r2.  (When c1 = c2, Y is empty on an
    admissible board: row {y, c1} holds both 1-edge cells of a witness.)
    The opposite-corner pair misses one corner when the other is occupied.
    A pattern that misses two cells is not listed, even when one
    candidate would fill both.
    """
    col_masks, row_masks = board.col_masks, board.row_masks
    threats = [0] * len(col_masks)
    all_cols = (1 << len(row_masks)) - 1
    for r1, c1, r2, c2, _ in placed:
        m1, m2 = col_masks[r1], col_masks[r2]
        cols = 1 << c1 | 1 << c2
        rws = 1 << r1 | 1 << r2
        # both cells go in: one is occupied, and a degenerate edge's corners are its own
        if (m1 >> c2 | m2 >> c1) & 1:
            threats[r1] |= 1 << c2
            threats[r2] |= 1 << c1
        xs = row_masks[c1] & row_masks[c2] & ~rws
        if xs:  # (r1, y) or (r2, y)
            ys = (m1 ^ m2 if r1 != r2 else ~m1) & all_cols & ~cols
            while ys:
                low = ys & -ys
                if row_masks[low.bit_length() - 1] & xs:
                    threats[r1] |= low
                    threats[r2] |= low
                ys ^= low
        ys = m1 & m2 & ~cols
        if ys:
            meet = 0  # the rows occupied in some column of Y
            while xs:  # (x, y)
                low = xs & -xs
                threats[low.bit_length() - 1] |= ys
                xs ^= low
            while ys:
                low = ys & -ys
                meet |= row_masks[low.bit_length() - 1]
                ys ^= low
            # (x, c1) or (x, c2)
            meet &= ~rws & (row_masks[c1] ^ row_masks[c2])
            while meet:
                low = meet & -meet
                threats[low.bit_length() - 1] |= cols
                meet ^= low
    return [t & ~m for t, m in zip(threats, col_masks)]


def _slices(coords: Sequence[tuple[int, ...]], part: int, size: int) -> list[int]:
    """Mask v, for v in range(size), has bit k set when ``coords[k][part]`` is v.

    Linear per mask, and in C: the values become one string, one code
    point each, last candidate first, which each mask translates to binary
    digits and parses.
    """
    text = "".join(map(chr, map(itemgetter(part), reversed(coords))))
    zeros = "0" * size
    return [int(text.translate(zeros[:v] + "1" + zeros[v + 1 :]) or "0", 2) for v in range(size)]


def _unions(lines: list[int], first: list[int], second: list[int]) -> tuple[list[int], list[int]]:
    """Per line, the unions of ``first[i]`` and of ``second[i]`` over its set bits i."""
    out_first, out_second = [], []
    for bits in lines:
        u = v = 0
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            bits ^= low
            u |= first[i]
            v |= second[i]
        out_first.append(u)
        out_second.append(v)
    return out_first, out_second


class CandidateTable:
    """A candidate list laid out on one q-board, in list order.

    ``coords[k]`` holds candidate k's (row index, column) pairs and
    ``nondeg[k]`` whether its halves differ in both row and column.  Bit k
    of ``row1[x]`` (``row2[x]``) is set when candidate k's first (second)
    half lies in row index x, and bit k of ``col1[y]`` (``col2[y]``) when
    it lies in column y; ``everything`` has a bit per candidate.
    ``own_ok`` judges every candidate's own rules on one board at once, in
    a few hundred mask operations, and ``on_cells`` finds the candidates
    with a half on given cells, caching each cell's mask in ``cell_masks``.
    """

    __slots__ = (
        "edges", "coords", "nondeg", "row1", "row2", "col1", "col2", "everything", "cell_masks",
    )

    def __init__(self, edges: list[TwoEdge], coords: list[Coords], n_rows: int, n_cols: int):
        """Lay out ``edges`` at ``coords`` on a board of ``n_rows`` x ``n_cols``."""
        self.edges = edges
        self.coords = coords
        self.nondeg = list(starmap(nondegenerate, coords))
        self.row1, self.col1, self.row2, self.col2 = (
            _slices(coords, part, size)
            for part, size in enumerate((n_rows, n_cols, n_rows, n_cols))
        )
        self.everything = (1 << len(coords)) - 1
        self.cell_masks: list[int | None] = [None] * (n_rows * n_cols)  # on_cells' cache

    def take(self, indices: Sequence[int]) -> CandidateTable:
        """The table of the candidates at ``indices``, in that order."""
        return CandidateTable(
            [self.edges[k] for k in indices],
            [self.coords[k] for k in indices],
            len(self.row1),
            len(self.col1),
        )

    def on_cells(self, cells: list[int]) -> int:
        """The mask of the candidates with a half on a cell in ``cells`` (a column mask per row).

        A cell's mask, ``row1[r] & col1[c] | row2[r] & col2[c]``, is worked
        out the first time it is asked for and cached on the table.
        """
        row1, row2, col1, col2, cache = self.row1, self.row2, self.col1, self.col2, self.cell_masks
        n_cols = len(col1)
        mask = 0
        for r, columns in enumerate(cells):
            while columns:
                low = columns & -columns
                c = low.bit_length() - 1
                columns ^= low
                on = cache[r * n_cols + c]
                if on is None:
                    on = cache[r * n_cols + c] = row1[r] & col1[c] | row2[r] & col2[c]
                mask |= on
        return mask

    def own_ok(self, board: ScratchBoard) -> int:
        """The mask of the candidates whose own rules hold on ``board``.

        Equal, by tested contract, to the candidates that
        ``board.insertion_ok`` accepts with nothing placed: the complement
        of an ``OwnRuleState``'s dead mask.
        """
        return self.everything & ~OwnRuleState(self, board).dead


class OwnRuleState:
    """The candidates whose own rules fail on a board, kept up to date edge by edge.

    Built from a ``CandidateTable`` and a board, it keeps per row
    index x the candidates whose first (second) column is occupied in x
    (``in_row1``, ``in_row2``), per column y the candidates whose first
    (second) row is occupied in y (``in_col1``, ``in_col2``), and one mask
    per rule: ``taken`` for (r1, c1) or (r2, c2) occupied (S), ``corner1``
    and ``corner2`` for (r1, c2) and (r2, c1) occupied (C2), and ``five``
    for an occupied (x, y) with c1 and c2 occupied in row x and r1 and r2
    occupied in column y (C3).  Once both own cells are free, such an x
    lies outside {r1, r2} and such a y outside {c1, c2}, as the five-cell
    rule asks; and a degenerate candidate's corners are its own cells, so
    C2 needs no degeneracy test.  ``dead`` is ``taken | corner1 & corner2
    | five``.

    ``place`` puts an edge on the board and updates only the lines of its
    two cells; ``undo`` takes the last placed edge off and restores the
    twelve masks it saved.  While the state is in use, every change to
    the board goes through it.
    """

    __slots__ = (
        "table", "board", "in_row1", "in_row2", "in_col1", "in_col2",
        "taken", "corner1", "corner2", "five", "saved",
    )

    def __init__(self, table: CandidateTable, board: ScratchBoard):
        self.table = table
        self.board = board
        col1, col2 = table.col1, table.col2
        # per row x: candidates whose first / second column is occupied in row x
        self.in_row1, self.in_row2 = _unions(board.col_masks, col1, col2)
        # per column y: candidates whose first / second row is occupied in column y
        self.in_col1, self.in_col2 = _unions(board.row_masks, table.row1, table.row2)
        both_in_row = [a & b for a, b in zip(self.in_row1, self.in_row2)]
        taken = corner1 = corner2 = five = 0
        for y, xs in enumerate(board.row_masks):
            at1, at2 = self.in_col1[y], self.in_col2[y]
            taken |= col1[y] & at1 | col2[y] & at2  # (r1, c1) or (r2, c2) occupied
            corner1 |= col2[y] & at1  # (r1, c2) occupied
            corner2 |= col1[y] & at2  # (r2, c1) occupied
            both_in_col = at1 & at2
            if both_in_col:
                witnesses = 0  # candidates with c1 and c2 occupied in some row x occupied at y
                while xs:
                    low = xs & -xs
                    witnesses |= both_in_row[low.bit_length() - 1]
                    xs ^= low
                five |= both_in_col & witnesses
        self.taken, self.corner1, self.corner2, self.five = taken, corner1, corner2, five
        self.saved: list[tuple[int, ...]] = []

    @property
    def dead(self) -> int:
        """The candidates whose own rules fail on the board as it stands."""
        return self.taken | self.corner1 & self.corner2 | self.five

    def place(self, r1: int, c1: int, r2: int, c2: int) -> None:
        """Place an edge whose cells are free, and update the rule masks."""
        in_row1, in_row2, in_col1, in_col2 = self.in_row1, self.in_row2, self.in_col1, self.in_col2
        self.saved.append((
            r1, c1, r2, c2, self.taken, self.corner1, self.corner2, self.five,
            in_row1[r1], in_row2[r1], in_col1[c1], in_col2[c1],
            in_row1[r2], in_row2[r2], in_col1[c2], in_col2[c2],
        ))
        self.board.place(r1, c1, r2, c2)
        # the five-cell terms are ORs of terms of the final masks at occupied
        # cells, so adding one cell while the other is already on the board
        # adds nothing false, and adding the other completes the update
        self._add(r1, c1)
        self._add(r2, c2)

    def _add(self, r: int, c: int) -> None:
        """Fold the newly occupied cell (r, c) into every mask.

        Only row r and column c change, so the new five-cell kills come
        from the occupied cells of column c (their rows x against column c)
        and of row r (row r against their columns y).
        """
        table = self.table
        in_row1, in_row2, in_col1, in_col2 = self.in_row1, self.in_row2, self.in_col1, self.in_col2
        col1, col2, row1, row2 = table.col1[c], table.col2[c], table.row1[r], table.row2[r]
        in_row1[r] |= col1
        in_row2[r] |= col2
        in_col1[c] |= row1
        in_col2[c] |= row2
        self.taken |= col1 & row1 | col2 & row2
        self.corner1 |= col2 & row1
        self.corner2 |= col1 & row2
        both = in_col1[c] & in_col2[c]
        if both:
            xs, w = self.board.row_masks[c], 0
            while xs:
                low = xs & -xs
                x = low.bit_length() - 1
                w |= in_row1[x] & in_row2[x]
                xs ^= low
            self.five |= both & w
        both = in_row1[r] & in_row2[r]
        if both:
            ys, w = self.board.col_masks[r], 0
            while ys:
                low = ys & -ys
                y = low.bit_length() - 1
                w |= in_col1[y] & in_col2[y]
                ys ^= low
            self.five |= both & w

    def first_fit(self, order: Iterable[int], placed: list[Placed]) -> list[int]:
        """Greedy first fit: place every candidate in ``order`` that keeps the board admissible.

        ``order`` holds indices into the table; ``placed`` must describe
        the edges on the board and grows by each accepted candidate, which
        the state places and which stays placed.  A candidate is skipped by
        one flag lookup when its own rules fail (``dead``) or a half lies on
        a cell of ``threat_cells``.  The board only gains cells, so by
        heredity a killed candidate stays killed: each accept adds the
        candidates it kills to one mask and refreshes the flags from it.
        ``recheck_ok`` judges the rest, so a pattern completed by both
        halves together is still caught, and the accepted list is the one
        ``insertion_ok`` would give, one candidate at a time.  Returns the
        accepted indices in order.
        """
        table, board = self.table, self.board
        coords, nondeg = table.coords, table.nondeg
        recheck_ok = board.recheck_ok
        threats = threat_cells(board, placed)
        killed = self.dead | table.on_cells(threats)
        flags = _flags(killed, len(coords))
        accepted = []
        for k in order:
            if flags[k]:
                continue
            ck = coords[k]
            if placed and not recheck_ok(ck, placed):
                continue
            self.place(*ck)
            placed.append((*ck, nondeg[k]))
            accepted.append(k)
            fresh = threat_cells(board, placed)
            killed |= self.dead | table.on_cells([a & ~b for a, b in zip(fresh, threats)])
            threats = fresh
            flags = _flags(killed, len(coords))
        return accepted

    def undo(self) -> None:
        """Take the last placed edge off the board and restore the masks."""
        (r1, c1, r2, c2, self.taken, self.corner1, self.corner2, self.five,
         a1, a2, b1, b2, d1, d2, e1, e2) = self.saved.pop()
        self.board.unplace(r1, c1, r2, c2)
        # saved before either cell was added, so a shared line restores either way
        self.in_row1[r2], self.in_row2[r2], self.in_col1[c2], self.in_col2[c2] = d1, d2, e1, e2
        self.in_row1[r1], self.in_row2[r1], self.in_col1[c1], self.in_col2[c1] = a1, a2, b1, b2


def _claims(family: Family) -> dict[Cell, list[int]]:
    """The family's ``cell_claims``; a half on a 1-edge cell raises ``BoardError``."""
    claims = cell_claims(family.edges)
    for cell, claimants in claims.items():
        i, j, c = cell
        if c in (i, j):
            raise BoardError(f"edge {family.edges[claimants[0]]} claims the 1-edge cell {cell}")
    return claims


def _all_occupied(claims: dict[Cell, list[int]], cells: tuple[Cell, ...]) -> bool:
    """Every cell is a 1-edge cell or claimed by some edge."""
    for cell in cells:
        i, j, c = cell
        if c != i and c != j and cell not in claims:
            return False
    return True


def verify(family: Family) -> VerifyResult:
    """Full check of every rule over every edge; reports are exhaustive.

    Simplicity violations come first, by cell.  Then, edge by edge in
    family order, the opposite-corner violation comes before the five-cell
    violations in witness order.  Degenerate edges never break the
    opposite-corner rule.  A half off the board raises ``BoardError``.
    """
    claims = _claims(family)
    for cell in claims:
        validate_cell(family.q, cell)
    violations = [
        Violation(kind="S", edges=tuple(claims[cell]), cells=(cell,))
        for cell in sorted(claims)
        if len(claims[cell]) > 1
    ]
    board_rows = rows(family.q)
    for k, edge in enumerate(family.edges):
        if classify(edge) == NONDEGENERATE:
            corners = corner_cells(edge)
            if _all_occupied(claims, corners):
                violations.append(Violation(kind="C2", edges=(k,), cells=corners))
        for witness in _witnesses(edge, family.q, board_rows):
            cells = pattern_cells(edge, witness)
            if _all_occupied(claims, cells):
                violations.append(Violation(kind="C3", edges=(k,), cells=cells, witness=witness))
    return VerifyResult(ok=not violations, violations=tuple(violations))


def incremental_check(family: Family, edge: TwoEdge) -> bool:
    """True iff ``family`` plus ``edge`` stays admissible.

    Equivalent, by tested contract, to running the full verifier on the
    extended family: the edge's own cells must be free, its own rules must
    hold, and every existing edge is re-examined because the two new cells
    may complete a pattern for it.  A family that already shares a cell
    admits nothing.  An edge that is not on the family's board raises
    ``BoardError``.
    """
    claims = _claims(family)
    edge = make_edge(*edge, q=family.q)
    if any(len(claimants) > 1 for claimants in claims.values()):
        return False
    scratch, placed = ScratchBoard.over(family.q, family.edges)
    coords = scratch.coords(edge)
    return scratch.insertion_ok(coords, nondegenerate(*coords), placed)


def static_prune_flags(q: int, candidates: list[TwoEdge]) -> list[bool]:
    """Per-candidate flag: True when the candidate is infeasible on its own.

    A singleton family {edge} already violating a rule against the 1-edge
    background can never appear in an admissible family (admissibility is
    hereditary), so solvers drop such candidates up front.
    """
    kept = set(ScratchBoard(q).fitting(candidates, []).edges)
    return [e not in kept for e in candidates]
