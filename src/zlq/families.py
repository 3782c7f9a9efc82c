"""Family container and the on-disk family file format.

Format (UTF-8, LF line endings)::

    # zlq-family v1
    q 3
    edge 0 1 2 ; 0 3 1

One ``edge`` line per 2-edge with the two halves separated by ``;``.
``#`` starts a comment.  Writers emit halves and edges in canonical order;
parsers accept halves (and the two vertices of a row pair) in either order
and re-canonicalize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .board import BoardError, Cell, TwoEdge, check_q, make_edge, validate_cell

FORMAT_HEADER = "# zlq-family v1"


class FamilyFormatError(ValueError):
    """Malformed family document; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Family:
    """A set of 2-edges on a fixed q-board, stored in canonical sort order."""

    q: int
    edges: tuple[TwoEdge, ...]

    @staticmethod
    def from_edges(q: int, edges: Iterable[TwoEdge]) -> "Family":
        """Validate, canonicalize and sort an edge collection."""
        check_q(q)
        canonical = []
        for e in edges:
            h1, h2 = e
            canonical.append(make_edge(h1, h2, q))
        ordered = sorted(canonical)
        for a, b in zip(ordered, ordered[1:]):
            if a == b:
                raise BoardError(f"duplicate 2-edge {a}")
        return Family(q, tuple(ordered))

    def __len__(self) -> int:
        return len(self.edges)


def _format_half(cell: Cell) -> str:
    i, j, c = cell
    return f"{i} {j} {c}"


def serialize_family(family: Family) -> str:
    """Canonical text form; serializing twice is byte-identical."""
    lines = [FORMAT_HEADER, f"q {family.q}"]
    for h1, h2 in family.edges:
        lines.append(f"edge {_format_half(h1)} ; {_format_half(h2)}")
    return "\n".join(lines) + "\n"


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise FamilyFormatError(f"expected an integer, got {token!r}", lineno) from None


def _parse_half(tokens: list[str], q: int, lineno: int) -> Cell:
    i, j, c = (_parse_int(t, lineno) for t in tokens)
    if i == j:
        raise FamilyFormatError(f"row pair vertices must differ, got {i} {j}", lineno)
    if i > j:
        i, j = j, i
    cell = (i, j, c)
    try:
        validate_cell(q, cell)
    except BoardError as exc:
        raise FamilyFormatError(str(exc), lineno) from None
    return cell


def parse_family(text: str) -> Family:
    """Parse a family document, rejecting malformed or off-board content."""
    q: int | None = None
    edges: list[TwoEdge] = []
    seen: set[TwoEdge] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "q":
            if q is not None:
                raise FamilyFormatError("duplicate q line", lineno)
            if len(tokens) != 2:
                raise FamilyFormatError("q line must be 'q <integer>'", lineno)
            q = _parse_int(tokens[1], lineno)
            if q < 2:
                raise FamilyFormatError(f"q must be at least 2, got {q}", lineno)
        elif tokens[0] == "edge":
            if q is None:
                raise FamilyFormatError("edge line before q line", lineno)
            if len(tokens) != 8 or tokens[4] != ";":
                raise FamilyFormatError(
                    "edge line must be 'edge i1 i2 c1 ; i4 i5 c2'", lineno
                )
            half1 = _parse_half(tokens[1:4], q, lineno)
            half2 = _parse_half(tokens[5:8], q, lineno)
            try:
                edge = make_edge(half1, half2)
            except BoardError as exc:
                raise FamilyFormatError(str(exc), lineno) from None
            if edge in seen:
                raise FamilyFormatError(f"duplicate 2-edge {edge}", lineno)
            seen.add(edge)
            edges.append(edge)
        else:
            raise FamilyFormatError(f"unrecognized directive {tokens[0]!r}", lineno)
    if q is None:
        raise FamilyFormatError("document has no q line")
    return Family.from_edges(q, edges)
