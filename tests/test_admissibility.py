import random

import pytest

from zlq import (
    Family,
    BoardError,
    build_board,
    check_C2,
    check_C3,
    classify,
    incremental_check,
    make_edge,
    verify,
)
from zlq.admissibility import (
    ONE_EDGE,
    ScratchBoard,
    cell_claims,
    corner_cells,
    pattern_cells,
    static_prune_flags,
    witness_set,
)
from zlq.board import NONDEGENERATE, candidate_family
from zlq.fixtures import REFERENCE_QS, reference_family

from conftest import random_edge, random_subfamily

Q3_REFERENCE = Family.from_edges(3, [((0, 1, 2), (0, 3, 1)), ((1, 3, 2), (2, 3, 0))])


def test_build_board_empty_q3():
    board = build_board(3, Family.from_edges(3, []))
    assert board.counts() == {"one_edge": 12, "free": 12, "used": 0}
    assert board.s_violations == ()
    assert board.owner_of((0, 1, 0)) == ONE_EDGE


def test_build_board_reference_q3():
    board = build_board(3, Q3_REFERENCE)
    assert board.counts()["used"] == 4
    assert board.owner_of((0, 1, 2)) == 0
    assert board.owner_of((2, 3, 0)) == 1


def test_build_board_reports_shared_half_as_simplicity_violation():
    fam = Family.from_edges(3, [((0, 1, 2), (0, 3, 1)), ((0, 1, 2), (1, 3, 0))])
    board = build_board(3, fam)
    assert len(board.s_violations) == 1
    v = board.s_violations[0]
    assert v.kind == "S" and v.cells == ((0, 1, 2),) and v.edges == (0, 1)
    assert v.format() == "S cell=(0,1|2) edges=[0,1]"
    assert not verify(fam).ok


def test_build_board_rejects_wrong_q():
    with pytest.raises(BoardError):
        build_board(4, Q3_REFERENCE)


def test_build_board_rejects_a_half_on_a_1_edge_cell():
    # Family() skips the validation that Family.from_edges does
    fam = Family(q=3, edges=(((0, 1, 2), (0, 3, 1)), ((0, 1, 0), (2, 3, 1))))
    with pytest.raises(BoardError, match=r"claims the 1-edge cell \(0, 1, 0\)"):
        build_board(3, fam)


def test_c2_fires_on_background_occupancy():
    # both opposite corners of (01,2;23,0) are 1-edge cells
    fam = Family.from_edges(3, [((0, 1, 2), (2, 3, 0))])
    board = build_board(3, fam)
    v = check_C2(board, fam.edges[0])
    assert v is not None
    assert v.cells == ((0, 1, 0), (2, 3, 2))
    assert v.format() == "C2 edge=0 cells=(0,1|0),(2,3|2)"
    assert not verify(fam).ok


def test_c2_clean_on_reference_board():
    board = build_board(3, Q3_REFERENCE)
    assert check_C2(board, Q3_REFERENCE.edges[0]) is None


def test_c2_never_fires_for_degenerate_edges():
    rng = random.Random(5)
    for _ in range(200):
        q = rng.choice([3, 4])
        fam = random_subfamily(rng, reference_family(q))
        board = build_board(q, fam)
        e = random_edge(rng, q)
        if classify(e) != NONDEGENERATE:
            assert check_C2(board, e) is None


def test_c3_two_edge_interaction_with_hand_checked_witness():
    # second edge occupies (23,0); the other four pattern cells of the
    # witness (x, y) = ({2,3}, 0) for the first edge are 1-edge cells
    fam = Family.from_edges(3, [((0, 1, 2), (0, 2, 3)), ((1, 3, 2), (2, 3, 0))])
    board = build_board(3, fam)
    violations = check_C3(board, fam.edges[0])
    assert violations
    hit = violations[0]
    assert hit.witness == ((2, 3), 0)
    assert set(hit.cells) == {(2, 3, 0), (2, 3, 2), (2, 3, 3), (0, 1, 0), (0, 2, 0)}
    # every listed cell really is occupied
    for cell in hit.cells:
        i, j, c = cell
        assert board.owner_of(cell) != -2 or c in (i, j)
    assert not verify(fam).ok


def test_c3_brute_force_witness_scan_agrees():
    rng = random.Random(17)
    for _ in range(120):
        q = rng.choice([3, 4])
        fam = random_subfamily(rng, reference_family(q))
        board = build_board(q, fam)
        e = random_edge(rng, q)
        got = {(v.witness) for v in check_C3(board, e)}
        # independent scan straight from the rule statement
        (i1, j1, c1), (i2, j2, c2) = e
        r1, r2 = (i1, j1), (i2, j2)
        occupied = set()
        for k, (a, b) in enumerate(board.family.edges[: len(board.family.edges)]):
            occupied.add(a)
            occupied.add(b)
        from zlq.board import rows as all_rows

        def occ(row, col):
            return col in row or (row[0], row[1], col) in occupied

        expected = set()
        for x in all_rows(q):
            if x in (r1, r2):
                continue
            for y in range(q + 1):
                if y in (c1, c2):
                    continue
                if (
                    occ(x, y)
                    and occ(x, c1)
                    and occ(x, c2)
                    and occ(r1, y)
                    and occ(r2, y)
                ):
                    expected.add((x, y))
        assert got == expected


def test_c3_impossible_for_nondegenerate_edge_on_background():
    empty = build_board(3, Family.from_edges(3, []))
    for e in candidate_family(3, "full"):
        if classify(e) == NONDEGENERATE:
            assert check_C3(empty, e) == []


def test_c3_background_violation_for_column_degenerate_edge():
    # rows {0,1} and {0,2} share vertex 0: witness ({0,3}, 0) is all 1-edges
    e = make_edge((0, 1, 3), (0, 2, 3), q=3)
    empty = build_board(3, Family.from_edges(3, []))
    violations = check_C3(empty, e)
    assert violations and violations[0].witness == ((0, 3), 0)
    assert not verify(Family.from_edges(3, [e])).ok


def test_every_reference_family_verifies_and_is_nondegenerate():
    sizes = {3: 2, 4: 6, 5: 13, 6: 22, 7: 32}
    for q in REFERENCE_QS:
        fam = reference_family(q)
        assert len(fam) == sizes[q]
        assert verify(fam).ok
        assert all(classify(e) == NONDEGENERATE for e in fam.edges)


def test_duplicate_edge_fails_with_simplicity_violation():
    fam6 = reference_family(6)
    doubled = Family(q=6, edges=fam6.edges + (fam6.edges[0],))
    result = verify(doubled)
    assert not result.ok
    assert any(v.kind == "S" for v in result.violations)


def test_hereditarity_exhaustive_small():
    for q in (3, 4):
        fam = reference_family(q)
        for mask in range(1 << len(fam)):
            subset = [fam.edges[k] for k in range(len(fam)) if (mask >> k) & 1]
            assert verify(Family.from_edges(q, subset)).ok


def test_hereditarity_random_large():
    rng = random.Random(23)
    for _ in range(1000):
        q = rng.choice([5, 6, 7])
        assert verify(random_subfamily(rng, reference_family(q))).ok


def test_monotone_violation():
    rng = random.Random(31)
    base = Family.from_edges(3, [((0, 1, 2), (2, 3, 0))])  # fails C2
    assert not verify(base).ok
    for _ in range(50):
        e = random_edge(rng, 3)
        if e in base.edges:
            continue
        extended = Family.from_edges(3, list(base.edges) + [e])
        assert not verify(extended).ok


def test_incremental_check_examples():
    fam = Family.from_edges(3, [((0, 1, 2), (0, 3, 1))])
    board = build_board(3, fam)
    assert incremental_check(board, fam, make_edge((1, 3, 2), (2, 3, 0)))
    assert not incremental_check(board, fam, make_edge((0, 1, 2), (1, 3, 0)))


def test_incremental_check_agrees_with_full_verifier():
    rng = random.Random(47)
    for _ in range(400):
        q = rng.choice([3, 4, 5])
        fam = random_subfamily(rng, reference_family(q))
        board = build_board(q, fam)
        e = random_edge(rng, q)
        if e in fam.edges:
            continue
        full = verify(Family.from_edges(q, list(fam.edges) + [e])).ok
        assert incremental_check(board, fam, e) == full


def test_static_prune_flags():
    # all three q=2 candidates die against the background
    assert static_prune_flags(2, candidate_family(2, "full")) == [True, True, True]
    flags3 = static_prune_flags(3, candidate_family(3, "full"))
    assert sum(flags3) == 36
    # flagged candidates are exactly the singleton failures
    for q in (3, 4):
        cands = candidate_family(q, "full")
        for e, bad in zip(cands, static_prune_flags(q, cands)):
            assert bad == (not verify(Family.from_edges(q, [e])).ok)


def test_cell_claims_lists_every_claimant_in_edge_order():
    a, b, c = ((0, 1, 2), (0, 3, 1)), ((0, 1, 2), (1, 3, 0)), ((1, 3, 2), (2, 3, 0))
    assert cell_claims([a, b, c, a]) == {
        (0, 1, 2): [0, 1, 3],
        (0, 3, 1): [0, 3],
        (1, 3, 0): [1],
        (1, 3, 2): [2],
        (2, 3, 0): [2],
    }
    assert cell_claims([]) == {}


def test_s_violations_are_the_shared_claims():
    rng = random.Random(79)
    for _ in range(200):
        q = rng.choice([3, 4, 5])
        edges = [random_edge(rng, q) for _ in range(rng.randint(0, 8))]
        board = build_board(q, Family(q=q, edges=tuple(edges)))
        claims = cell_claims(edges)
        shared = sorted(cell for cell, ks in claims.items() if len(ks) > 1)
        assert [v.cells for v in board.s_violations] == [(cell,) for cell in shared]
        assert [v.edges for v in board.s_violations] == [tuple(claims[cell]) for cell in shared]
        for cell, ks in claims.items():
            assert board.owner_of(cell) == ks[0]


def test_over_and_fitting_keep_what_verifies_with_the_base():
    rng = random.Random(83)
    for q in (3, 4):
        cands = candidate_family(q, "full")
        for base in (Family.from_edges(q, []), random_subfamily(rng, reference_family(q))):
            scratch, placed = ScratchBoard.over(q, base.edges)
            assert placed == [scratch.placed_entry(g) for g in base.edges]
            assert scratch.free_cells == ScratchBoard(q).free_cells - 2 * len(base)
            edges, coords, nondeg = scratch.fitting(cands, placed)
            expected = [
                e for e in cands if verify(Family(q=q, edges=base.edges + (e,))).ok
            ]
            assert edges == expected
            assert coords == [scratch.coords(e) for e in edges]
            assert nondeg == [classify(e) == NONDEGENERATE for e in edges]


def test_scratch_board_roundtrip():
    s = ScratchBoard(3)
    coords = s.coords(((0, 1, 2), (0, 3, 1)))
    before = (list(s.col_masks), list(s.row_masks), s.free_cells)
    s.place(*coords)
    assert s.occupied(coords[0], coords[1])
    s.unplace(*coords)
    assert (list(s.col_masks), list(s.row_masks), s.free_cells) == before


def _rule_hits(q, edges, edge):
    """(opposite-corner hit, five-cell hit) for edge, straight from the rule definition."""
    used = {half for e in edges for half in e}

    def occupied(cell):
        i, j, c = cell
        return c in (i, j) or cell in used

    c2 = all(map(occupied, corner_cells(edge)))
    c3 = any(all(map(occupied, pattern_cells(edge, w))) for w in witness_set(edge, q))
    return c2, c3


def _assert_kernel_matches_definition(q, family, candidates):
    """cells_free, c2_hit and c3_hit agree with the rule definitions.

    The hits are compared before and after placing each candidate.
    """
    scratch, _ = ScratchBoard.over(q, family.edges)
    claims = cell_claims(family.edges)
    for e in candidates:
        coords = scratch.coords(e)
        claimed = any(c in (i, j) or (i, j, c) in claims for (i, j, c) in e)
        assert scratch.cells_free(*coords) == (not claimed), e
        kernel = (scratch.c2_hit(*coords), scratch.c3_hit(*coords))
        assert kernel == _rule_hits(q, family.edges, e), e
        if e not in family.edges and scratch.cells_free(*coords):
            scratch.place(*coords)
            kernel = (scratch.c2_hit(*coords), scratch.c3_hit(*coords))
            scratch.unplace(*coords)
            assert kernel == _rule_hits(q, family.edges + (e,), e), e


def test_kernel_hits_match_rule_definition_exhaustive_small():
    rng = random.Random(59)
    for q in (3, 4):
        cands = candidate_family(q, "full")
        _assert_kernel_matches_definition(q, Family.from_edges(q, []), cands)
        _assert_kernel_matches_definition(q, reference_family(q), cands)
        for _ in range(6):
            _assert_kernel_matches_definition(q, random_subfamily(rng, reference_family(q)), cands)


def test_kernel_hits_match_rule_definition_random_large():
    rng = random.Random(61)
    for q in (5, 6, 7):
        cands = candidate_family(q, "full")
        for _ in range(3):
            family = random_subfamily(rng, reference_family(q))
            _assert_kernel_matches_definition(q, family, rng.sample(cands, 300))


def test_pattern_cells_distinct_for_nondegenerate_edges():
    for q in (2, 3, 4, 5):
        for e in candidate_family(q, "nondeg"):
            for w in witness_set(e, q):
                assert len(set(pattern_cells(e, w))) == 5, (e, w)


def test_rule_cells_examples():
    e = make_edge((0, 1, 2), (2, 3, 0), q=3)
    assert corner_cells(e) == ((0, 1, 0), (2, 3, 2))
    assert pattern_cells(e, ((0, 2), 1)) == ((0, 2, 1), (0, 2, 2), (0, 2, 0), (0, 1, 1), (2, 3, 1))
    # a row-degenerate edge keeps its coincident (r, y) cells twice
    d = make_edge((0, 1, 2), (0, 1, 3), q=3)
    assert pattern_cells(d, ((2, 3), 0)) == ((2, 3, 0), (2, 3, 2), (2, 3, 3), (0, 1, 0), (0, 1, 0))


def _board_state(scratch):
    return list(scratch.col_masks), list(scratch.row_masks), scratch.free_cells


def _first_fit_by_hand(scratch, order, coords, nondeg, placed):
    accepted = []
    for k in order:
        if scratch.insertion_ok(coords[k], nondeg[k], placed):
            scratch.place(*coords[k])
            placed.append((*coords[k], nondeg[k]))
            accepted.append(k)
    return accepted


def _assert_first_fit_matches_loop(q, base, cands, order):
    lookup = ScratchBoard(q)
    coords = [lookup.coords(e) for e in cands]
    nondeg = [classify(e) == NONDEGENERATE for e in cands]
    fast, fast_placed = ScratchBoard.over(q, base.edges)
    slow, slow_placed = ScratchBoard.over(q, base.edges)
    accepted = fast.first_fit(order, coords, nondeg, fast_placed)
    assert accepted == _first_fit_by_hand(slow, order, coords, nondeg, slow_placed)
    assert _board_state(fast) == _board_state(slow)
    assert fast_placed == slow_placed
    # maximal: nothing left over fits any more, and the result verifies
    assert not any(fast.insertion_ok(coords[k], nondeg[k], fast_placed) for k in order)
    assert verify(Family.from_edges(q, list(base.edges) + [cands[k] for k in accepted])).ok


def test_first_fit_matches_insertion_loop_small():
    rng = random.Random(67)
    for q in (3, 4):
        cands = candidate_family(q, "full")
        empty = Family.from_edges(q, [])
        for _ in range(200):
            for base in (empty, random_subfamily(rng, reference_family(q))):
                order = list(range(len(cands)))
                rng.shuffle(order)
                _assert_first_fit_matches_loop(q, base, cands, order)


def test_first_fit_matches_insertion_loop_large():
    rng = random.Random(71)
    for q in (5, 6):
        cands = candidate_family(q, "full")
        empty = Family.from_edges(q, [])
        for k in range(20):
            base = empty if k % 2 else random_subfamily(rng, reference_family(q))
            order = list(range(len(cands)))
            rng.shuffle(order)
            _assert_first_fit_matches_loop(q, base, cands, order)


def test_insertion_ok_leaves_the_board_unchanged():
    rng = random.Random(73)
    for q in (3, 4, 5):
        cands = candidate_family(q, "full")
        verdicts = set()
        for _ in range(4):
            scratch, placed = ScratchBoard.over(q, random_subfamily(rng, reference_family(q)).edges)
            before = _board_state(scratch), list(placed)
            for e in rng.sample(cands, min(len(cands), 300)):
                verdict = scratch.insertion_ok(
                    scratch.coords(e), classify(e) == NONDEGENERATE, placed
                )
                verdicts.add(verdict)
                assert (_board_state(scratch), placed) == before, e
        assert verdicts == {True, False}  # both an accept and a reject were seen
