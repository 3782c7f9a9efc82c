import itertools
import random

import pytest

from zlq import (
    Family,
    BoardError,
    classify,
    incremental_check,
    make_edge,
    solve_exact,
    verify,
)
from zlq.admissibility import (
    OwnRuleState,
    ScratchBoard,
    cell_claims,
    corner_cells,
    pattern_cells,
    static_prune_flags,
    witness_set,
)
from zlq.board import NONDEGENERATE, candidate_family, counting_summary, rows
from zlq.families import parse_family
from zlq.fixtures import REFERENCE_QS, reference_family
from zlq.rng import derive_stream

from conftest import (
    S_C2_C3_FAMILY, S_C2_C3_REPORT, kernel_fitting, random_edge, random_family, random_subfamily,
    table_fields,
)

Q3_REFERENCE = Family.from_edges(3, [((0, 1, 2), (0, 3, 1)), ((1, 3, 2), (2, 3, 0))])


def _rule_violations(family, edge, kind):
    """The ``kind`` violations ``verify`` reports for ``edge`` appended to ``family``.

    An edge's own cells never lie in its own corners or pattern cells, so
    appending it changes nothing about its own rules.
    """
    extended = Family(q=family.q, edges=family.edges + (edge,))
    position = (len(family),)
    return [v for v in verify(extended).violations if v.kind == kind and v.edges == position]


def test_build_board_reports_shared_half_as_simplicity_violation():
    """A half shared by two edges is reported by ``verify`` as one S violation."""
    fam = Family.from_edges(3, [((0, 1, 2), (0, 3, 1)), ((0, 1, 2), (1, 3, 0))])
    result = verify(fam)
    assert not result.ok
    s_violations = [v for v in result.violations if v.kind == "S"]
    assert len(s_violations) == 1
    v = s_violations[0]
    assert v.kind == "S" and v.cells == ((0, 1, 2),) and v.edges == (0, 1)
    assert v.format() == "S cell=(0,1|2) edges=[0,1]"


def test_build_board_rejects_a_half_on_a_1_edge_cell():
    """``verify`` and ``incremental_check`` raise on a half that sits on a 1-edge cell."""
    # Family() skips the validation that Family.from_edges does
    fam = Family(q=3, edges=(((0, 1, 2), (0, 3, 1)), ((0, 1, 0), (2, 3, 1))))
    with pytest.raises(BoardError, match=r"claims the 1-edge cell \(0, 1, 0\)"):
        verify(fam)
    with pytest.raises(BoardError, match=r"claims the 1-edge cell \(0, 1, 0\)"):
        incremental_check(fam, make_edge((1, 2, 0), (2, 3, 1)))


def test_repeated_edge_is_reported_at_each_position():
    # Family() skips the duplicate check that parse_family and Family.from_edges do
    e = ((0, 1, 2), (2, 3, 0))
    assert verify(Family(q=3, edges=(e, e))).report() == (
        "S cell=(0,1|2) edges=[0,1]\n"
        "S cell=(2,3|0) edges=[0,1]\n"
        "C2 edge=0 cells=(0,1|0),(2,3|2)\n"
        "C2 edge=1 cells=(0,1|0),(2,3|2)"
    )


def test_verify_report_lists_s_then_each_edge_in_order():
    # S by cell, then per edge its C2 before its C3 in witness order
    result = verify(parse_family(S_C2_C3_FAMILY))
    assert not result.ok
    assert result.report() == S_C2_C3_REPORT


def test_c2_fires_on_background_occupancy():
    # both opposite corners of (01,2;23,0) are 1-edge cells
    fam = Family.from_edges(3, [((0, 1, 2), (2, 3, 0))])
    result = verify(fam)
    assert not result.ok
    (v,) = [v for v in result.violations if v.kind == "C2"]
    assert v.cells == ((0, 1, 0), (2, 3, 2))
    assert v.format() == "C2 edge=0 cells=(0,1|0),(2,3|2)"


def test_c2_clean_on_reference_board():
    assert not [v for v in verify(Q3_REFERENCE).violations if v.kind == "C2"]


def test_c2_never_fires_for_degenerate_edges():
    rng = random.Random(5)
    for _ in range(200):
        q = rng.choice([3, 4])
        fam = random_subfamily(rng, reference_family(q))
        e = random_edge(rng, q)
        if classify(e) != NONDEGENERATE:
            assert _rule_violations(fam, e, "C2") == []


def test_c3_two_edge_interaction_with_hand_checked_witness():
    # second edge occupies (23,0); the other four pattern cells of the
    # witness (x, y) = ({2,3}, 0) for the first edge are 1-edge cells
    fam = Family.from_edges(3, [((0, 1, 2), (0, 2, 3)), ((1, 3, 2), (2, 3, 0))])
    result = verify(fam)
    assert not result.ok
    violations = [v for v in result.violations if v.kind == "C3" and v.edges == (0,)]
    assert violations
    hit = violations[0]
    assert hit.witness == ((2, 3), 0)
    assert set(hit.cells) == {(2, 3, 0), (2, 3, 2), (2, 3, 3), (0, 1, 0), (0, 2, 0)}
    # every listed cell really is occupied
    claims = cell_claims(fam.edges)
    for cell in hit.cells:
        i, j, c = cell
        assert cell in claims or c in (i, j)


def test_c3_brute_force_witness_scan_agrees():
    rng = random.Random(17)
    for _ in range(120):
        q = rng.choice([3, 4])
        fam = random_subfamily(rng, reference_family(q))
        e = random_edge(rng, q)
        got = {v.witness for v in _rule_violations(fam, e, "C3")}
        # independent scan straight from the rule statement
        (i1, j1, c1), (i2, j2, c2) = e
        r1, r2 = (i1, j1), (i2, j2)
        occupied = {half for edge in fam.edges for half in edge}

        def occ(row, col):
            return col in row or (row[0], row[1], col) in occupied

        expected = set()
        for x in rows(q):
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
    empty = Family.from_edges(3, [])
    for e in candidate_family(3, "full"):
        if classify(e) == NONDEGENERATE:
            assert _rule_violations(empty, e, "C3") == []


def test_c3_background_violation_for_column_degenerate_edge():
    # rows {0,1} and {0,2} share vertex 0: witness ({0,3}, 0) is all 1-edges
    e = make_edge((0, 1, 3), (0, 2, 3), q=3)
    violations = _rule_violations(Family.from_edges(3, []), e, "C3")
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
    assert incremental_check(fam, make_edge((1, 3, 2), (2, 3, 0)))
    assert not incremental_check(fam, make_edge((0, 1, 2), (1, 3, 0)))
    # a family that already shares a cell admits nothing
    shared = Family.from_edges(3, [((0, 1, 2), (0, 3, 1)), ((0, 1, 2), (1, 3, 0))])
    assert not incremental_check(shared, make_edge((1, 3, 2), (2, 3, 0)))


def test_incremental_check_rejects_an_edge_off_the_board():
    fam = reference_family(3)
    edge = make_edge((0, 1, 2), (4, 5, 0))  # fine on q=5, off the q=3 board
    with pytest.raises(BoardError, match="row pair"):
        verify(Family(q=3, edges=fam.edges + (edge,)))
    with pytest.raises(BoardError, match="row pair"):
        incremental_check(fam, edge)
    off_column = make_edge((0, 1, 2), (0, 2, 7))  # column 7 is off the q=3 board
    with pytest.raises(BoardError, match="column must lie"):
        verify(Family(q=3, edges=fam.edges + (off_column,)))


def test_incremental_check_agrees_with_full_verifier():
    rng = random.Random(47)
    for _ in range(400):
        q = rng.choice([3, 4, 5])
        fam = random_subfamily(rng, reference_family(q))
        e = random_edge(rng, q)
        if e in fam.edges:
            continue
        full = verify(Family.from_edges(q, list(fam.edges) + [e])).ok
        assert incremental_check(fam, e) == full


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
        result = verify(Family(q=q, edges=tuple(edges)))
        s_violations = [v for v in result.violations if v.kind == "S"]
        claims = cell_claims(edges)
        shared = sorted(cell for cell, ks in claims.items() if len(ks) > 1)
        assert [v.cells for v in s_violations] == [(cell,) for cell in shared]
        assert [v.edges for v in s_violations] == [tuple(claims[cell]) for cell in shared]
        # S violations come first
        assert result.violations[: len(s_violations)] == tuple(s_violations)


def test_over_and_fitting_keep_what_verifies_with_the_base():
    rng = random.Random(83)
    for q, mode in itertools.product((3, 4), ("full", "nondeg")):
        cands = candidate_family(q, mode)
        for base in (Family.from_edges(q, []), random_subfamily(rng, reference_family(q))):
            scratch, placed = ScratchBoard.over(q, base.edges)
            assert placed == [
                (*scratch.coords(g), classify(g) == NONDEGENERATE) for g in base.edges
            ]
            fit = scratch.fitting(cands, placed)
            expected = [
                e for e in cands if verify(Family(q=q, edges=base.edges + (e,))).ok
            ]
            assert fit.edges == expected
            assert fit.coords == [scratch.coords(e) for e in fit.edges]
            assert fit.nondeg == [classify(e) == NONDEGENERATE for e in fit.edges]
    # the solver's free-cell cap rests on this: each base edge takes two distinct free cells
    for q in (3, 4, 5, 6):
        for _ in range(5):
            base = random_subfamily(rng, reference_family(q))
            scratch, _ = ScratchBoard.over(q, base.edges)
            free = sum(q + 1 - mask.bit_count() for mask in scratch.col_masks)
            assert free == counting_summary(q).available - 2 * len(base)
    # the placed records mark degenerate edges too (the reference families have none)
    for q in (3, 4, 5):
        for _ in range(20):
            edges = random_family(rng, q, 8).edges
            scratch, placed = ScratchBoard.over(q, edges)
            assert placed == [(*scratch.coords(g), classify(g) == NONDEGENERATE) for g in edges]


def test_scratch_board_roundtrip():
    s = ScratchBoard(3)
    coords = s.coords(((0, 1, 2), (0, 3, 1)))
    before = (list(s.col_masks), list(s.row_masks))
    assert s.cells_free(*coords)
    s.place(*coords)
    assert not s.cells_free(*coords)
    s.unplace(*coords)
    assert (list(s.col_masks), list(s.row_masks)) == before


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
    for q in (2, 3, 4, 5, 6):
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
    return list(scratch.col_masks), list(scratch.row_masks)


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
    accepted = fast.first_fit(order, ScratchBoard(q).table(cands), fast_placed)
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


def _first_fit_family(q, base, order):
    """``base`` plus what ``first_fit`` accepts from the 2-edges in ``order``."""
    scratch, placed = ScratchBoard.over(q, base.edges)
    accepted = scratch.first_fit(range(len(order)), ScratchBoard(q).table(order), placed)
    return Family.from_edges(q, list(base.edges) + [order[k] for k in accepted])


def test_first_fit_from_empty_always_inserts():
    empty = Family.from_edges(3, [])
    for seed in range(5):
        order = candidate_family(3, "full")
        derive_stream(seed, 0).shuffle(order)
        filled = _first_fit_family(3, empty, order)
        assert len(filled) >= 1
        assert verify(filled).ok


def test_first_fit_any_order_and_its_reverse_verify():
    empty = Family.from_edges(3, [])
    order = candidate_family(3, "full")
    derive_stream(0, 0).shuffle(order)
    forward = _first_fit_family(3, empty, order)
    backward = _first_fit_family(3, empty, list(reversed(order)))
    assert verify(forward).ok and verify(backward).ok
    assert len(forward) >= 1 and len(backward) >= 1


def test_an_optimal_family_admits_nothing():
    for optimum in (solve_exact(3).certificate, reference_family(4)):
        q = optimum.q
        cands = candidate_family(q, "full")
        scratch, placed = ScratchBoard.over(q, optimum.edges)
        assert table_fields(scratch.fitting(cands, placed)) == table_fields(scratch.table([]))
        assert _first_fit_family(q, optimum, cands) == optimum


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


def _kernel_mask(board, coords, nondeg):
    """The candidates ``insertion_ok`` accepts on ``board`` alone, as a mask."""
    return sum(1 << k for k, ck in enumerate(coords) if board.insertion_ok(ck, nondeg[k], []))


def _random_families(rng, q, rounds):
    """Empty, partial and maximal random admissible families, as edge lists."""
    families = [[]]
    cands = candidate_family(q, "full")
    table = ScratchBoard(q).table(cands)
    for _ in range(rounds):
        order = list(range(len(cands)))
        rng.shuffle(order)
        board, placed = ScratchBoard.over(q, [])
        maximal = [cands[k] for k in board.first_fit(order, table, placed)]
        partial = rng.sample(maximal, rng.randint(1, len(maximal) - 1)) if len(maximal) > 1 else []
        families += [partial, maximal]
    return families


def _random_boards(rng, q, rounds):
    """Empty, partial and maximal boards of random admissible families."""
    return [ScratchBoard.over(q, family)[0] for family in _random_families(rng, q, rounds)]


@pytest.mark.parametrize("mode", ["full", "nondeg"])
@pytest.mark.parametrize("q, rounds", [(2, 1), (3, 30), (4, 30), (5, 5), (6, 3), (7, 2)])
def test_own_ok_is_the_kernel_on_every_candidate(q, mode, rounds):
    # the whole pool, statically infeasible and degenerate candidates included
    rng = random.Random(89 * q + len(mode))
    pool = candidate_family(q, mode)
    lookup = ScratchBoard(q)
    coords = [lookup.coords(e) for e in pool]
    nondeg = [classify(e) == NONDEGENERATE for e in pool]
    table = ScratchBoard(q).table(pool)
    boards = _random_boards(rng, q, rounds)
    for board in boards:
        before = _board_state(board)
        assert table.own_ok(board) == _kernel_mask(board, coords, nondeg)
        assert _board_state(board) == before
    # on the empty board the mask is the static prune, as the kernel loop keeps it
    kept = set(kernel_fitting(ScratchBoard(q), pool, [])[0])
    static = sum(1 << k for k, e in enumerate(pool) if e in kept)
    assert table.own_ok(boards[0]) == static
    if q >= 3:
        assert 0 < static < table.everything == (1 << len(pool)) - 1


@pytest.mark.parametrize("mode", ["full", "nondeg"])
@pytest.mark.parametrize("q", range(2, 8))
def test_table_nondeg_is_classify(q, mode):
    # nondegeneracy comes from the coords alone; coords are the board's
    cands = candidate_family(q, mode)
    table = ScratchBoard(q).table(cands)
    assert table.nondeg == [classify(e) == NONDEGENERATE for e in cands]
    lookup = ScratchBoard(q)
    assert table.coords == [lookup.coords(e) for e in cands]
    assert table.edges == cands and table.everything == (1 << len(cands)) - 1
    if mode == "full" and q >= 3:
        assert set(table.nondeg) == {True, False}


@pytest.mark.parametrize("mode", ["full", "nondeg"])
@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_take_is_a_fresh_table_over_the_taken_edges(q, mode):
    rng = random.Random(107 * q + len(mode))
    cands = candidate_family(q, mode)
    table = ScratchBoard(q).table(cands)
    whole = range(len(cands))
    picks = [[], list(whole), list(reversed(whole))]
    picks += [rng.sample(whole, rng.randint(1, len(cands))) for _ in range(6)]
    picks += [rng.choices(whole, k=rng.randint(1, 40)) for _ in range(2)]  # repeats too
    for indices in picks:
        taken = table.take(indices)
        fresh = ScratchBoard(q).table([cands[k] for k in indices])
        assert table_fields(taken) == table_fields(fresh)
        # a sub-table of a sub-table takes the composed indices
        inner = rng.sample(range(len(indices)), len(indices) // 2)
        composed = table.take([indices[k] for k in inner])
        assert table_fields(taken.take(inner)) == table_fields(composed)
    assert table_fields(table) == table_fields(ScratchBoard(q).table(cands))  # take leaves it alone


def _admissible_families(q, mode):
    """Every admissible family of ``mode`` candidates on the q-board, as edge lists."""
    cands = candidate_family(q, mode)
    families, stack = [], [([], 0)]
    while stack:
        family, start = stack.pop()
        families.append(family)
        for k in range(start, len(cands)):
            if verify(Family.from_edges(q, family + [cands[k]])).ok:
                stack.append((family + [cands[k]], k + 1))
    return families


@pytest.mark.parametrize("mode", ["full", "nondeg"])
@pytest.mark.parametrize("q, rounds", [(3, None), (4, 30), (5, 4), (6, 2)])
def test_fitting_is_the_kernel_loop(q, mode, rounds):
    # the whole candidate table, statically infeasible candidates included,
    # over every admissible base at q=3 and over the empty base and random
    # bases above; a shuffled table keeps its own order
    rng = random.Random(101 * q + len(mode))
    cands = candidate_family(q, mode)
    if rounds is None:
        bases = _admissible_families(q, mode)
    else:
        bases = _random_families(rng, q, rounds) + [
            list(random_subfamily(rng, reference_family(q)).edges) for _ in range(rounds)
        ]
    assert [] in bases and len(bases) > 4
    sizes = set()
    for base in bases:
        board, placed = ScratchBoard.over(q, base)
        before = _board_state(board), list(placed)
        for table in (cands, rng.sample(cands, len(cands))):
            fit = board.fitting(iter(table), placed)
            assert (fit.edges, fit.coords, fit.nondeg) == kernel_fitting(board, table, placed), base
            assert table_fields(fit) == table_fields(ScratchBoard(q).table(fit.edges)), base
            assert (_board_state(board), placed) == before
            sizes.add(len(fit.edges))
    assert 0 in sizes and len(sizes) > 2  # maximal bases keep nothing, others keep some


@pytest.mark.parametrize("mode", ["full", "nondeg"])
@pytest.mark.parametrize("q, steps", [(3, 300), (4, 200), (5, 60), (6, 30)])
def test_own_rule_state_is_own_ok_after_every_place_and_undo(q, mode, steps):
    # random walks of places and undos, from the empty board and from random bases
    rng = random.Random(31 * q + len(mode))
    pool = candidate_family(q, mode)
    lookup = ScratchBoard(q)
    coords = [lookup.coords(e) for e in pool]
    nondeg = [classify(e) == NONDEGENERATE for e in pool]
    table = ScratchBoard(q).table(pool)
    for base in (Family.from_edges(q, []), random_subfamily(rng, reference_family(q))):
        board = ScratchBoard.over(q, base.edges)[0]
        start = _board_state(board)
        state = OwnRuleState(table, board)
        first = state.dead
        chosen = []
        for _ in range(steps):
            alive = [k for k in range(len(pool)) if not (state.dead >> k) & 1]
            if chosen and (not alive or rng.random() < 0.35):
                state.undo()
                chosen.pop()
            elif alive:
                chosen.append(rng.choice(alive))
                state.place(*coords[chosen[-1]])
            assert state.dead == table.everything & ~table.own_ok(board)
            if q <= 4:
                assert state.dead == table.everything & ~_kernel_mask(board, coords, nondeg)
            again = ScratchBoard.over(q, list(base.edges) + [pool[k] for k in chosen])[0]
            assert _board_state(board) == _board_state(again)
        while chosen:
            state.undo()
            chosen.pop()
        assert (_board_state(board), state.dead, state.saved) == (start, first, [])


@pytest.mark.parametrize("mode", ["full", "nondeg"])
@pytest.mark.parametrize("q, rounds, sample", [(3, 30, None), (4, 30, None), (5, 5, 600), (6, 3, 600)])
def test_recheck_is_insertion_ok_on_every_own_ok_candidate(q, mode, rounds, sample):
    # the callers of recheck_ok already know the candidate's own rules hold;
    # exhaustive up to q=4 (nothing fits at q=2), a random sample of each
    # board's candidates above
    rng = random.Random(97 * q + len(mode))
    pool = candidate_family(q, mode)
    lookup = ScratchBoard(q)
    coords = [lookup.coords(e) for e in pool]
    nondeg = [classify(e) == NONDEGENERATE for e in pool]
    table = ScratchBoard(q).table(pool)
    verdicts = set()
    for family in _random_families(rng, q, rounds):
        board, placed = ScratchBoard.over(q, family)
        before = _board_state(board), list(placed)
        own_ok = table.own_ok(board)
        alive = [k for k in range(len(pool)) if (own_ok >> k) & 1]
        for k in alive if sample is None else rng.sample(alive, min(sample, len(alive))):
            verdict = board.recheck_ok(coords[k], placed)
            assert verdict == board.insertion_ok(coords[k], nondeg[k], placed), (family, pool[k])
            verdicts.add(verdict)
        for k in rng.sample(alive, min(20, len(alive))):  # and the definition, on a few
            extended = Family.from_edges(q, family + [pool[k]])
            assert board.recheck_ok(coords[k], placed) == verify(extended).ok, (family, pool[k])
        assert (_board_state(board), placed) == before
    assert verdicts == {True, False}


@pytest.mark.parametrize("mode", ["full", "nondeg"])
@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_insertion_ok_needs_no_nondeg_flag(q, mode):
    # a candidate's own cells are checked free first, and a degenerate
    # candidate's opposite corners are its own cells, so its C2 check never
    # fires: passing True for every candidate gives the same verdicts
    rng = random.Random(101 * q + len(mode))
    pool = candidate_family(q, mode)
    table = ScratchBoard(q).table(pool)
    reference = reference_family(q)
    bases = [[], list(reference.edges)] + [random_subfamily(rng, reference).edges for _ in range(3)]
    verdicts = set()
    for base in bases:
        board, placed = ScratchBoard.over(q, base)
        for k, coords in enumerate(table.coords):
            verdict = board.insertion_ok(coords, table.nondeg[k], placed)
            assert board.insertion_ok(coords, True, placed) == verdict, (base, pool[k])
            verdicts.add(verdict)
    assert verdicts == {True, False}
    assert all(table.nondeg) == (mode == "nondeg")
