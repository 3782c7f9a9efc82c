import itertools

import pytest

from zlq import (
    BoardError,
    available_cells,
    candidate_family,
    classify,
    counting_summary,
    make_edge,
    rows,
)
from zlq.board import (
    COLUMN_DEGENERATE,
    NONDEGENERATE,
    ROW_DEGENERATE,
    validate_cell,
)


@pytest.mark.parametrize("q,count", [(2, 3), (3, 6), (7, 28)])
def test_row_counts(q, count):
    assert len(rows(q)) == count


def test_rows_lexicographic_and_q2():
    assert rows(2) == [(0, 1), (0, 2), (1, 2)]
    r = rows(5)
    assert r == sorted(r)


def test_rows_rejects_small_q():
    with pytest.raises(ValueError):
        rows(1)


@pytest.mark.parametrize("q,count", [(2, 3), (3, 12), (5, 60)])
def test_available_cell_counts(q, count):
    assert len(available_cells(q)) == count


def test_available_cells_match_direct_enumeration():
    for q in range(2, 9):
        direct = [
            (i, j, c)
            for (i, j) in rows(q)
            for c in range(q + 1)
            if c not in (i, j)
        ]
        cells = available_cells(q)
        assert cells == direct
        assert cells == sorted(cells)
        assert len(cells) == (q + 1) * q // 2 * (q - 1)


@pytest.mark.parametrize(
    "q,mode,count",
    [(3, "full", 66), (4, "full", 435), (5, "nondeg", 1410), (5, "full", 1770)],
)
def test_candidate_counts(q, mode, count):
    assert len(candidate_family(q, mode)) == count


def test_candidates_canonical_and_streamable():
    cands = candidate_family(3, "full")
    assert cands == sorted(cands)
    assert all(a < b for a, b in cands)
    with pytest.raises(ValueError):
        candidate_family(3, "everything")


def test_classify_examples():
    assert classify(make_edge((0, 1, 2), (0, 3, 1))) == NONDEGENERATE
    assert classify(make_edge((0, 1, 2), (0, 1, 3))) == ROW_DEGENERATE
    assert classify(make_edge((0, 1, 2), (3, 4, 2), q=4)) == COLUMN_DEGENERATE


def test_classify_swap_invariant():
    for a, b in candidate_family(3, "full"):
        assert classify((a, b)) == classify((b, a))


def test_make_edge_canonicalizes_and_validates():
    assert make_edge((2, 3, 0), (0, 1, 2)) == ((0, 1, 2), (2, 3, 0))
    with pytest.raises(BoardError):
        make_edge((0, 1, 2), (0, 1, 2))
    with pytest.raises(BoardError):
        make_edge((0, 1, 0), (2, 3, 1), q=3)  # (01,0) is a 1-edge cell
    with pytest.raises(BoardError):
        make_edge((0, 1, 7), (2, 3, 1), q=3)  # column off the board
    with pytest.raises(BoardError):
        validate_cell(3, (1, 0, 2))  # row pair must be sorted


def test_counting_summary_reference_values():
    s5 = counting_summary(5)
    assert (s5.available, s5.full, s5.nondeg) == (60, 1770, 1410)
    assert counting_summary(4).z == 20
    s3 = counting_summary(3)
    assert (s3.row_deg, s3.col_deg, s3.nondeg) == (6, 12, 48)
    assert s3.as_dict()["full"] == 66


def test_counting_summary_matches_enumeration():
    # brute-force classification of the full candidate list
    for q in (2, 3, 4):
        s = counting_summary(q)
        cands = candidate_family(q, "full")
        by_class = {NONDEGENERATE: 0, ROW_DEGENERATE: 0, COLUMN_DEGENERATE: 0}
        for e in cands:
            by_class[classify(e)] += 1
        assert len(cands) == s.full
        assert by_class[NONDEGENERATE] == s.nondeg
        assert by_class[ROW_DEGENERATE] == s.row_deg
        assert by_class[COLUMN_DEGENERATE] == s.col_deg
        assert sum(by_class.values()) == s.full
        assert s.full == len(cands)
        assert s.full == len(list(itertools.combinations(available_cells(q), 2)))
        assert s.z == q * (q + 1) == s.one_edges
