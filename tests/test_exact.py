import gc
import hashlib
import itertools
import json
import random
import time

import pytest

from zlq import Family, SearchConfig, lift_extend, run_search, solve_exact, verify
from zlq.admissibility import ScratchBoard
from zlq.board import NONDEGENERATE, BoardError, candidate_family, classify, counting_summary
from zlq.exact import (
    apply_vertex_permutation,
    candidate_orbits,
    clique_cover,
    pairwise_conflicts,
    solve_extension,
)
from zlq.fixtures import reference_family
from zlq.lifting import embed, new_vertex_candidates

from conftest import family_sha256, random_subfamily


def test_q2_matches_exhaustive_enumeration():
    from conftest import brute_force_optimum

    result = solve_exact(2)
    assert result.optimal
    assert result.size == brute_force_optimum(2) == 0
    assert result.z_value == 6
    assert len(result.certificate) == 0


def test_q3_optimum_is_two():
    start = time.monotonic()
    result = solve_exact(3)
    assert time.monotonic() - start < 1.0
    assert result.optimal and result.size == 2 and result.z_value == 14
    assert verify(result.certificate).ok and len(result.certificate) == 2


def test_q3_optimum_independent_of_flags():
    sizes = {
        solve_exact(3, symmetry=False).size,
        solve_exact(3, symmetry=True).size,
        solve_exact(3, mode="full").size,
    }
    assert sizes == {2}


def test_solvers_leave_no_reference_cycles():
    # the search state holds the conflict masks (1,350 of them at q=5); a
    # cycle through it would keep them alive until the cyclic GC runs
    runs = (
        lambda: solve_exact(3),
        lambda: solve_exact(4, symmetry=True, node_limit=2000),
        lambda: solve_extension(Family.from_edges(3, []), candidate_family(3, "full")),
    )
    gc.collect()
    gc.disable()
    try:
        for run in runs:
            run()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_search_and_lift_leave_no_reference_cycles():
    # a restart's nested closures must not reach themselves through a cell
    runs = (
        lambda: run_search(SearchConfig(q=4, seed=1, restarts=2, delete_width=2)),
        lambda: lift_extend(reference_family(3), seed=0, restarts=2),
    )
    gc.collect()
    gc.disable()
    try:
        for run in runs:
            run()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_nondeg_mode_optimum_q3():
    # the q=3 optimum is attained by a nondegenerate family
    result = solve_exact(3, mode="nondeg")
    assert result.optimal and result.size == 2


def test_budget_exhaustion_is_reported_honestly():
    result = solve_exact(4, node_limit=50)
    assert result.status == "incumbent"
    assert not result.optimal
    assert verify(result.certificate).ok
    assert result.size >= 1  # greedy incumbent seeds the search


def test_conflicts_agree_with_pair_verification():
    # all 66 candidates, the statically infeasible ones included
    cands = candidate_family(3, "full")
    board = ScratchBoard(3)
    coords = [board.coords(e) for e in cands]
    nondeg = [classify(e) == NONDEGENERATE for e in cands]
    masks = pairwise_conflicts(board, coords, nondeg, [])
    # the reference family's two edges do not conflict
    i = cands.index(((0, 1, 2), (0, 3, 1)))
    j = cands.index(((1, 3, 2), (2, 3, 0)))
    assert not (masks[i] >> j) & 1
    # a shared cell always conflicts
    k = cands.index(((0, 1, 2), (1, 3, 0)))
    assert (masks[i] >> k) & 1
    pairs = list(itertools.combinations(range(len(cands)), 2))
    assert len(pairs) == 2145
    for a, b in pairs:
        pair_ok = verify(Family.from_edges(3, [cands[a], cands[b]])).ok
        assert ((masks[a] >> b) & 1) == (not pair_ok)
        assert ((masks[b] >> a) & 1) == ((masks[a] >> b) & 1)


def test_conflicts_over_a_base_agree_with_verification():
    rng = random.Random(7)
    for q in (3, 4):
        base = Family.from_edges(q, reference_family(q).edges[:2])
        fits = [
            e for e in candidate_family(q, "full")
            if e not in base.edges and verify(Family.from_edges(q, list(base.edges) + [e])).ok
        ]
        board, placed = ScratchBoard.over(q, base.edges)
        edges, coords, nondeg = board.fitting(fits, placed)
        assert edges == fits
        masks = pairwise_conflicts(board, coords, nondeg, placed)
        pairs = list(itertools.combinations(range(len(fits)), 2))
        for a, b in pairs if q == 3 else rng.sample(pairs, 1500):
            together = verify(Family.from_edges(q, list(base.edges) + [fits[a], fits[b]])).ok
            assert ((masks[a] >> b) & 1) == (not together), (fits[a], fits[b])
            assert ((masks[b] >> a) & 1) == ((masks[a] >> b) & 1)


@pytest.mark.parametrize("base_size", [0, 2])
def test_conflicts_leave_the_board_as_found(base_size):
    board, placed = ScratchBoard.over(4, reference_family(4).edges[:base_size])
    _, coords, nondeg = board.fitting(candidate_family(4, "full"), placed)
    state = (list(board.col_masks), list(board.row_masks), list(placed))
    masks = pairwise_conflicts(board, coords, nondeg, placed)
    assert any(masks)
    assert (board.col_masks, board.row_masks, placed) == state
    # a deadline already past fills no row: the empty relation is sound
    stale = pairwise_conflicts(board, coords, nondeg, placed, time.monotonic() - 1.0)
    assert stale == [0] * len(coords)
    assert (board.col_masks, board.row_masks, placed) == state


def _kernel_pair(board, coords, nondeg, placed, i, j):
    """The kernel's verdict on a pair: the later one inserted with the earlier one placed."""
    lo, hi = min(i, j), max(i, j)
    board.place(*coords[lo])
    ok = board.insertion_ok(coords[hi], nondeg[hi], placed + [(*coords[lo], nondeg[lo])])
    board.unplace(*coords[lo])
    return not ok


def _kernel_conflicts(board, coords, nondeg, placed):
    """The K-squared kernel loop: one ``insertion_ok`` call per pair."""
    masks = [0] * len(coords)
    for i, j in itertools.combinations(range(len(coords)), 2):
        if _kernel_pair(board, coords, nondeg, placed, i, j):
            masks[i] |= 1 << j
            masks[j] |= 1 << i
    return masks


def _bases(rng, q, count):
    """The empty base and ``count`` random subfamilies of the reference family."""
    return [()] + [random_subfamily(rng, reference_family(q)).edges for _ in range(count)]


@pytest.mark.parametrize("mode", ["full", "nondeg"])
@pytest.mark.parametrize("q", [3, 4])
def test_conflicts_are_the_kernel_loop_exhaustively(q, mode):
    rng = random.Random(11 * q + len(mode))
    for base in _bases(rng, q, 3 if q < 4 else 2):
        board, placed = ScratchBoard.over(q, base)
        _, coords, nondeg = board.fitting(candidate_family(q, mode), placed)
        expected = _kernel_conflicts(board, coords, nondeg, placed)
        assert pairwise_conflicts(board, coords, nondeg, placed) == expected, base


@pytest.mark.parametrize("mode", ["full", "nondeg"])
@pytest.mark.parametrize("q", [5, 6])
def test_conflicts_are_the_kernel_loop_on_random_rows(q, mode):
    rng = random.Random(13 * q + len(mode))
    for base in _bases(rng, q, 1):
        board, placed = ScratchBoard.over(q, base)
        _, coords, nondeg = board.fitting(candidate_family(q, mode), placed)
        masks = pairwise_conflicts(board, coords, nondeg, placed)
        for i in rng.sample(range(len(coords)), 3):
            row = sum(
                1 << j for j in range(len(coords))
                if j != i and _kernel_pair(board, coords, nondeg, placed, i, j)
            )
            assert masks[i] == row, (base, i)


def _max_family(q, edges, masks, subset):
    """The largest admissible family inside ``subset``, by trying every independent set."""
    best = 0
    members = [k for k in range(len(edges)) if (subset >> k) & 1]
    for size in range(1, len(members) + 1):
        found = False
        for combo in itertools.combinations(members, size):
            if any((masks[a] >> b) & 1 for a, b in itertools.combinations(combo, 2)):
                continue
            if verify(Family.from_edges(q, [edges[k] for k in combo])).ok:
                found = True
                break
        if not found:
            return best
        best = size
    return best


@pytest.mark.parametrize("q, mode", [(3, "full"), (4, "full"), (4, "nondeg")])
def test_the_clique_cover_never_undercuts_the_best_family(q, mode):
    rng = random.Random(17 * q + len(mode))
    board, placed = ScratchBoard.over(q, [])
    edges, coords, nondeg = board.fitting(candidate_family(q, mode), placed)
    masks = pairwise_conflicts(board, coords, nondeg, placed)
    for _ in range(60):
        subset = sum(1 << k for k in rng.sample(range(len(edges)), rng.randint(1, 14)))
        cover = clique_cover(subset, masks, subset.bit_count())
        assert cover >= _max_family(q, edges, masks, subset)
        # counting stops once it passes the limit
        for limit in range(cover + 1):
            assert clique_cover(subset, masks, limit) == min(cover, limit + 1)


def _budget_runs():
    """Solves with a node budget, by name, each with the budgets to try."""
    pool = new_vertex_candidates(5, candidate_family(5, "full"))
    base = embed(reference_family(4))
    return [
        (lambda limit: solve_exact(3, node_limit=limit), range(0, 13)),
        (lambda limit: solve_exact(3, "nondeg", symmetry=True, node_limit=limit), range(0, 6)),
        (lambda limit: solve_extension(base, pool, node_limit=limit), (0, 1, 100, 4351, 6948, 6949, 6950)),
    ]


def test_optimal_only_when_the_tree_is_exhausted():
    for run, limits in _budget_runs():
        whole = run(None)
        assert whole.optimal
        for limit in limits:
            result = run(limit)
            assert result.optimal == (limit > whole.nodes), limit
            assert result.nodes == min(limit, whole.nodes)
            assert verify(result.certificate).ok
            if result.optimal:
                assert result.certificate == whole.certificate
    # a deadline inside the tree: q=4 without symmetry takes over a million nodes
    result = solve_exact(4, time_limit=0.5)
    assert result.status == "incumbent" and 0 < result.nodes < 1_333_217
    assert verify(result.certificate).ok


def _root_bound(result, candidates, base_size):
    """The root ``bound`` event, and the compatible-count bound under the free-cell cap."""
    cap = counting_summary(result.q).available // 2 - base_size
    assert result.events[0]["event"] == "bound" and result.events[0]["where"] == "root"
    return result.events[0]["value"], min(len(candidates) - result.pruned_static, cap)


def test_root_bound_is_the_usable_count_under_the_free_cell_cap():
    for q, node_limit in ((2, None), (3, None), (4, 2_000), (5, 2_000)):
        result = solve_exact(q, node_limit=node_limit)
        value, expected = _root_bound(result, candidate_family(q), 0)
        assert value == expected, q
        assert value >= result.size
    # q=3: 30 usable candidates, but 12 free cells hold at most 6 edges
    assert solve_exact(3).events[0]["value"] == 6
    base = embed(reference_family(4))
    pool = new_vertex_candidates(5, candidate_family(5, "full"))
    result = solve_extension(base, pool, node_limit=2_000)
    value, expected = _root_bound(result, pool, len(base))
    assert value == expected == 24  # 60 free cells, 6 base edges


def test_a_zero_node_budget_visits_no_node():
    for q in (3, 4):
        result = solve_exact(q, node_limit=0)
        assert result.status == "incumbent" and result.nodes == 0
        assert result.events[-1] == {
            "event": "done", "status": "incumbent", "size": result.size, "nodes": 0,
            "count_cuts": 0, "cover_cuts": 0, "forward_removed": 0,
        }
        assert verify(result.certificate).ok
        assert solve_exact(q, node_limit=1).nodes == 1
    # the root bound proves q=2 before any node is visited
    result = solve_exact(2, node_limit=0)
    assert result.optimal and result.nodes == 0


def test_orbits_partition_the_candidates():
    cands = candidate_family(3, "full")
    orbits = candidate_orbits(3, cands)
    flat = sorted(k for orbit in orbits for k in orbit)
    assert flat == list(range(66))
    assert len(orbits) == 5
    # the action maps orbit members onto the same orbit
    index = {e: k for k, e in enumerate(cands)}
    orbit_of = {}
    for o_id, orbit in enumerate(orbits):
        for k in orbit:
            orbit_of[k] = o_id
    identity = tuple(range(4))
    for k in range(0, 66, 5):
        assert apply_vertex_permutation(identity, cands[k]) == cands[k]
        image = apply_vertex_permutation((1, 0, 3, 2), cands[k])
        assert orbit_of[index[image]] == orbit_of[k]


def _orbits_by_permutation(q, candidates):
    """Definition-level oracle: apply every permutation of {0, ..., q}."""
    index = {e: k for k, e in enumerate(candidates)}
    perms = list(itertools.permutations(range(q + 1)))
    seen = set()
    orbits = []
    for k, edge in enumerate(candidates):
        if k in seen:
            continue
        members = {index[apply_vertex_permutation(perm, edge)] for perm in perms}
        seen |= members
        orbits.append(sorted(members))
    return orbits


@pytest.mark.parametrize("q", [3, 4, 5, 6])
def test_generator_closure_orbits_match_the_full_permutation_action(q):
    for mode in ("full", "nondeg"):
        cands = candidate_family(q, mode)
        usable = ScratchBoard(q).fitting(cands, [])[0]  # the list the solver passes
        for lst in (cands, usable):
            assert candidate_orbits(q, lst) == _orbits_by_permutation(q, lst)
    with pytest.raises(ValueError, match="not closed"):
        candidate_orbits(q, candidate_family(q)[1:])


def test_symmetry_flag_preserves_the_optimum():
    plain = solve_exact(3, symmetry=False)
    reduced = solve_exact(3, symmetry=True)
    assert plain.size == reduced.size == 2
    assert reduced.orbit_count is not None
    assert reduced.nodes <= plain.nodes


def test_extension_solver_q3_to_q4():
    base = embed(reference_family(3))
    pool = new_vertex_candidates(4, candidate_family(4, "full"))
    result = solve_extension(base, pool)
    assert result.optimal
    assert result.size == 4  # frozen two-edge base extends by four new-vertex edges
    assert len(result.certificate) == 6
    assert verify(result.certificate).ok
    assert set(base.edges) <= set(result.certificate.edges)
    assert result.z_value == 20 + 6
    kinds = [e["event"] for e in result.events]
    assert kinds[0] == "bound" and kinds[-1] == "done"


@pytest.mark.parametrize("q,node_limit", [(3, None), (4, 20_000)])
def test_extension_over_empty_base_is_solve_exact(q, node_limit):
    exact = solve_exact(q, node_limit=node_limit)
    ext = solve_extension(Family.from_edges(q, []), candidate_family(q), node_limit=node_limit)
    assert (ext.status, ext.size, ext.nodes, ext.pruned_static) == (
        exact.status, exact.size, exact.nodes, exact.pruned_static
    )
    assert ext.certificate == exact.certificate
    assert ext.z_value == exact.z_value


def _q5_under_budget():
    return solve_exact(5, symmetry=True, node_limit=20_000)


def _q4_family_extended_to_q5():
    pool = new_vertex_candidates(5, candidate_family(5, "full"))
    return solve_extension(embed(reference_family(4)), pool, node_limit=20_000)


@pytest.mark.parametrize("run,pinned,digest,events", [
    (
        _q5_under_budget,
        ("incumbent", 8, 20_000, 420, 6),
        "0925d3482450678603939a2c26158e25679f6a8d004e446f462626d355543339",
        [
            {"event": "bound", "where": "root", "value": 30, "incumbent": 7},
            {"event": "incumbent", "size": 8, "nodes": 2626},
            {"event": "done", "status": "incumbent", "size": 8, "nodes": 20_000,
             "count_cuts": 1188, "cover_cuts": 401, "forward_removed": 11347},
        ],
    ),
    (
        # the bounds now exhaust this tree well inside the budget
        _q4_family_extended_to_q5,
        ("optimal", 6, 6949, 1143, None),
        "e7b9e94900e5417a881db912cf983e42f8ada4beefeecd5d5dd03ed61cf67564",
        [
            {"event": "bound", "where": "root", "value": 24, "incumbent": 3},
            {"event": "incumbent", "size": 4, "nodes": 36},
            {"event": "incumbent", "size": 5, "nodes": 48},
            {"event": "incumbent", "size": 6, "nodes": 4351},
            {"event": "done", "status": "optimal", "size": 6, "nodes": 6949,
             "count_cuts": 984, "cover_cuts": 5026, "forward_removed": 5772},
        ],
    ),
], ids=["_q5_under_budget", "_q4_family_extended_to_q5"])
def test_budgeted_search_paths_are_pinned(run, pinned, digest, events):
    # the q=5 path under symmetry, and a path over a non-empty base
    result = run()
    got = (result.status, result.size, result.nodes, result.pruned_static, result.orbit_count)
    assert got == pinned
    assert family_sha256(result.certificate) == digest
    assert list(result.events) == events


def test_time_limit_covers_preprocessing():
    # the q=6 conflict graph alone takes far longer than the budget
    start = time.monotonic()
    result = solve_exact(6, time_limit=1.0)
    assert time.monotonic() - start < 5.0
    assert result.status == "incumbent"
    assert verify(result.certificate).ok and result.size >= 1
    # the orbits of the 31,626 q=8 candidates are built inside the budget too
    start = time.monotonic()
    result = solve_exact(8, symmetry=True, time_limit=1.0)
    assert time.monotonic() - start < 2.5
    assert result.status == "incumbent" and result.orbit_count is not None
    assert verify(result.certificate).ok and result.size >= 1


def test_negative_budgets_are_rejected():
    for kwargs in (
        {"node_limit": -5},
        {"node_limit": float("nan")},
        {"time_limit": -1.0},
        {"time_limit": float("nan")},
    ):
        with pytest.raises(ValueError, match="must be non-negative"):
            solve_exact(3, **kwargs)
        with pytest.raises(ValueError, match="must be non-negative"):
            solve_extension(Family.from_edges(3, []), candidate_family(3, "full"), **kwargs)
    # a zero budget stays valid
    result = solve_exact(3, node_limit=0)
    assert result.status == "incumbent" and verify(result.certificate).ok
    assert verify(solve_exact(3, time_limit=0.0).certificate).ok
    assert solve_exact(3, time_limit=float("inf")).optimal


def test_extension_solver_rejects_bad_base():
    bad = Family.from_edges(3, [((0, 1, 2), (2, 3, 0))])
    with pytest.raises(ValueError):
        solve_extension(bad, [])


@pytest.mark.parametrize("edge", [
    ((0, 1, 7), (2, 3, 8)),  # column off the board
    ((0, 9, 1), (2, 3, 1)),  # row pair off the board
    ((0, 1, 0), (2, 3, 1)),  # a half on a 1-edge cell
])
def test_extension_solver_rejects_candidates_off_the_board(edge):
    base = reference_family(4)
    with pytest.raises(BoardError):
        solve_extension(base, candidate_family(4, "full")[:3] + [edge])


@pytest.mark.slow
def test_q4_optimum_without_symmetry_agrees():
    with_symmetry = solve_exact(4, symmetry=True)
    assert with_symmetry.optimal and with_symmetry.size == 6
    # the search path itself is pinned
    assert with_symmetry.nodes == 46_993
    digest = family_sha256(with_symmetry.certificate)
    assert digest == "3deed3b83e973865b08a91def13ce8773f8c311461817b341cd2ac8b00fb4102"
    plain = solve_exact(4, symmetry=False)
    assert plain.optimal and plain.size == 6
    assert plain.z_value == with_symmetry.z_value == 26
    kinds = {e["event"] for e in plain.events}
    assert {"bound", "node", "done"} <= kinds


def _battery():
    """Budgeted solves over both modes, symmetry, and random bases at q=4."""
    for q, mode, symmetry in itertools.product((2, 3), ("full", "nondeg"), (False, True)):
        for node_limit in (None, 0, 1, 7, 100, 3_000):
            yield solve_exact(q, mode, symmetry=symmetry, node_limit=node_limit)
    for node_limit in (0, 1, 7, 100, 3_000):
        yield solve_exact(4, symmetry=True, node_limit=node_limit)
    cands = candidate_family(4, "full")
    for seed in range(20):
        rng = random.Random(seed)
        base = random_subfamily(rng, reference_family(4))
        pool = rng.sample(cands, 120)
        for node_limit in (0, 5, 500):
            yield solve_extension(base, pool, node_limit=node_limit)


def test_the_tree_is_pinned_on_a_battery():
    # one digest over every path: budgets cut the tree at many depths, and
    # the extensions start from bases of 0 to 6 edges
    digest = hashlib.sha256()
    for result in _battery():
        record = (result.status, result.size, result.nodes,
                  family_sha256(result.certificate), list(result.events))
        digest.update(json.dumps(record).encode())
    assert digest.hexdigest() == "cf6bc9ac912c4c2d337b8ef6d0a3836db1f8ac474334f9bd45aa57b576e32c07"
