import random
from dataclasses import replace
from itertools import islice, permutations
from types import SimpleNamespace

import pytest

import zlq.rng
import zlq.search
from zlq import (
    Family,
    SearchConfig,
    classify,
    run_search,
    verify,
)
from zlq.admissibility import OwnRuleState, ScratchBoard, _set_bits
from zlq.board import NONDEGENERATE, candidate_family
from zlq.fixtures import reference_family
from zlq.lifting import embed
from zlq.rng import SplitMix64, derive_stream, mix64

from conftest import family_sha256, kernel_fitting

_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _shuffle_by_below(stream, items):
    """Fisher-Yates spelled with one bounded draw per position."""
    for i in range(len(items) - 1, 0, -1):
        j = stream.below(i + 1)
        items[i], items[j] = items[j], items[i]


def test_derive_stream_reproducible():
    a = derive_stream(1234, 0)
    b = derive_stream(1234, 0)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_derive_stream_indices_differ():
    a = derive_stream(1234, 0)
    b = derive_stream(1234, 1)
    assert [a.next_u64() for _ in range(100)] != [b.next_u64() for _ in range(100)]
    # shuffles of a candidate-scale array differ between the two streams
    xs = list(range(1770))
    ys = list(xs)
    derive_stream(99, 0).shuffle(xs)
    derive_stream(99, 1).shuffle(ys)
    assert xs != ys


def test_mix64_is_stable():
    # fixed outputs pin the generator constants
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert SplitMix64(0).next_u64() == mix64(0x9E3779B97F4A7C15)


def test_shuffle_is_uniform_chi_square():
    stream = derive_stream(42, 0)
    counts = {p: 0 for p in permutations(range(4))}
    draws = 100_000
    for _ in range(draws):
        xs = [0, 1, 2, 3]
        stream.shuffle(xs)
        counts[tuple(xs)] += 1
    expected = draws / 24
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # deterministic value ~31.5 for this seed; df=23, far below any alarm line
    assert chi2 < 60.0


def test_shuffle_draws_exactly_as_below():
    for seed in (0, 1, 42, 1 << 63, _MASK64):
        for length in list(range(65)) + [12_180]:
            fast, slow = SplitMix64(seed), SplitMix64(seed)
            xs, ys = list(range(length)), list(range(length))
            fast.shuffle(xs)
            _shuffle_by_below(slow, ys)
            assert xs == ys, (seed, length)
            assert fast._state == slow._state, (seed, length)


def test_shuffle_rejects_exactly_as_below(monkeypatch):
    # 2**64 - 1 is out of range for n = 10 (limit 2**64 - 6) and must be
    # redrawn; 2**64 - 9 for n = 9 fails the cheap test z < 2**64 - n but
    # lies below the exact limit 2**64 - 7, so it must be accepted
    real = zlq.rng.mix64
    overrides = {1: (1 << 64) - 1, 3: (1 << 64) - 9}

    def run(shuffle):
        calls = [0]

        def scripted(z):
            calls[0] += 1
            return overrides.get(calls[0], real(z))

        monkeypatch.setattr(zlq.rng, "mix64", scripted)
        stream, items = SplitMix64(5), list(range(10))
        shuffle(stream, items)
        return items, stream._state, calls[0]

    fast = run(lambda stream, items: stream.shuffle(items))
    slow = run(_shuffle_by_below)
    assert fast == slow
    _, state, draws = fast
    assert draws == 10  # nine positions plus exactly one redraw
    assert state == (5 + draws * _GAMMA) & _MASK64


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix64(z):
    """The state whose ``mix64`` is ``z``: the finalizer is a bijection."""
    z = _unxorshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64
    z = _unxorshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64
    return _unxorshift(z, 30)


def test_shuffle_blocks_draw_exactly_as_below():
    # short lists, lists on either side of 32, 128 and 256 items, and long ones
    lengths = [*range(4), 31, 32, 33, 127, 128, 129, 255, 256, 257, 1_000, 2_257, 12_180]
    for seed in (0, 1, 1 << 63, _MASK64):  # the state wraps past 2**64 at the top seeds
        for length in lengths:
            fast, slow = SplitMix64(seed), SplitMix64(seed)
            xs, ys = list(range(length)), list(range(length))
            fast.shuffle(xs)
            _shuffle_by_below(slow, ys)
            assert xs == ys, (seed, length)
            assert fast._state == slow._state, (seed, length)


@pytest.mark.parametrize("planted, redraws", [
    ((1 << 64) - 1, 1),  # out of range for n = 800, must be redrawn
    ((1 << 64) - 800, 0),  # fails z < 2**64 - n, lies below the exact limit
])
def test_shuffle_block_with_a_near_top_draw_matches_below(monkeypatch, planted, redraws):
    # draw 200 of a 1,000-item list falls at n = 800
    length, k = 1_000, 200
    n = length - k
    assert (1 << 64) % n != 0
    assert (planted >= (1 << 64) - (1 << 64) % n) == (redraws == 1)
    state = _unmix64(planted)
    assert mix64(state) == planted
    seed = (state - (k + 1) * _GAMMA) & _MASK64

    real = zlq.rng.mix64
    calls = [0]

    def counting(z):
        calls[0] += 1
        return real(z)

    monkeypatch.setattr(zlq.rng, "mix64", counting)
    fast, slow = SplitMix64(seed), SplitMix64(seed)
    xs, ys = list(range(length)), list(range(length))
    fast.shuffle(xs)
    # one draw per position, plus the redraw of an out-of-range one
    assert calls[0] == length - 1 + redraws
    calls[0] = 0
    _shuffle_by_below(slow, ys)
    assert calls[0] == length - 1 + redraws
    assert xs == ys
    assert fast._state == slow._state == (seed + calls[0] * _GAMMA) & _MASK64


def test_bounded_draws_reject_bad_input():
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)


def test_run_search_recovers_the_q4_optimum_from_size_five():
    # drop one edge from an optimal q=4 family; a warm-started restart's
    # delete-and-repair must find a sixth
    fam = reference_family(4)
    start = Family.from_edges(4, fam.edges[:-1])
    assert len(start) == 5
    hits = 0
    for seed in range(32):
        result = run_search(SearchConfig(q=4, seed=seed, restarts=1, warm_start=start))
        if result.best_size >= 6:
            hits += 1
    assert hits >= 1


def test_run_search_q3_reaches_the_optimum():
    result = run_search(SearchConfig(q=3, restarts=8))
    assert result.best_size == 2
    assert result.bound == 14
    assert result.verified
    assert len(result.restart_sizes) == 8
    assert result.best_restart == result.restart_sizes.index(2)  # earliest tie wins


def test_run_search_is_bit_stable():
    config = SearchConfig(q=4, seed=99, restarts=6)
    first = run_search(config)
    second = run_search(config)
    assert first == second


def test_run_search_reports_each_restart_as_it_ends(monkeypatch):
    log = []
    one_restart = zlq.search._one_restart

    def logged_restart(config, cands, index, deadline):
        log.append(f"start {index}")
        return one_restart(config, cands, index, deadline)

    monkeypatch.setattr(zlq.search, "_one_restart", logged_restart)
    result = run_search(SearchConfig(q=4, seed=7, restarts=3), progress=log.append)
    assert log == [
        line
        for r, size in enumerate(result.restart_sizes)
        for line in (f"start {r}", f"restart {r}: size {size}")
    ]
    assert len(result.restart_sizes) == 3


def test_run_search_warm_start_never_degrades():
    fam = reference_family(5)
    result = run_search(SearchConfig(q=5, seed=3, restarts=2, warm_start=fam))
    assert result.best_size >= 13
    assert result.bound >= 43
    assert verify(result.best).ok


def test_run_search_nondeg_mode_output_is_nondegenerate():
    result = run_search(SearchConfig(q=4, mode="nondeg", seed=5, restarts=3))
    assert result.best_size >= 1
    assert all(classify(e) == NONDEGENERATE for e in result.best.edges)


def test_run_search_zero_time_limit_returns_empty(monkeypatch):
    def no_table(*args):
        raise AssertionError("candidate table built under a zero budget")

    monkeypatch.setattr(ScratchBoard, "table", no_table)
    result = run_search(SearchConfig(q=3, restarts=8, time_limit=0))
    assert result.best_size == 0
    assert result.verified
    assert result.restart_sizes == ()

    warm = reference_family(4)
    result = run_search(SearchConfig(q=4, restarts=8, time_limit=0, warm_start=warm))
    assert result.best == warm
    assert result.best_size == len(warm)
    assert result.verified
    assert result.restart_sizes == ()
    assert result.best_restart == -1


def test_run_search_raises_when_its_result_fails_verification(monkeypatch):
    class Failing:
        ok = False

    monkeypatch.setattr(zlq.search, "verify", lambda family: Failing())
    with pytest.raises(RuntimeError, match="fails verification"):
        run_search(SearchConfig(q=3, seed=1, restarts=2))


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(q=3, delete_width=3).validate()
    with pytest.raises(ValueError):
        SearchConfig(q=3, restarts=-1).validate()
    with pytest.raises(ValueError):
        SearchConfig(q=4, warm_start=reference_family(3)).validate()
    with pytest.raises(ValueError):
        SearchConfig(
            q=3, warm_start=Family.from_edges(3, [((0, 1, 2), (2, 3, 0))])
        ).validate()
    degenerate = Family.from_edges(4, [((0, 1, 2), (0, 1, 3))])
    assert verify(degenerate).ok
    with pytest.raises(ValueError):
        SearchConfig(q=4, mode="nondeg", warm_start=degenerate).validate()
    for bad in (-1, float("nan")):
        with pytest.raises(ValueError, match="time limit must be non-negative"):
            SearchConfig(q=4, time_limit=bad).validate()
    SearchConfig(q=4, time_limit=0).validate()
    SearchConfig(q=4, time_limit=float("inf")).validate()


def _fill(table, board, placed, stream):
    """One search fill spelled out: first-fit a shuffle of the own-rule survivors."""
    state = OwnRuleState(table, board)
    survivors = _set_bits(table.everything & ~state.dead)
    stream.shuffle(survivors)
    return state.first_fit(survivors, placed)


@pytest.mark.parametrize("q, start", [(4, None), (5, None), (6, None), (6, "lift")])
def test_a_complete_first_fit_pass_leaves_nothing_to_add(q, start):
    # hereditarity: a candidate rejected against part of the family stays
    # rejected, so a second fill on the first one's board adds nothing and
    # a restart needs no repair fill after its first fit
    base = [] if start is None else list(embed(reference_family(q - 1)).edges)
    table = ScratchBoard(q).table(candidate_family(q, "full"))
    for seed in range(3):
        stream = derive_stream(seed, 0)
        board, placed = ScratchBoard.over(q, base)
        assert _fill(table, board, placed, stream)
        assert _fill(table, board, placed, stream) == []
        assert not any(
            board.insertion_ok(table.coords[k], table.nondeg[k], placed)
            for k in range(len(table.edges))
        )


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig(q=4, seed=1, restarts=2, delete_width=2),
        SearchConfig(q=6, seed=2, restarts=1, warm_start=embed(reference_family(5))),
        SearchConfig(q=7, seed=0, restarts=1),
    ],
    ids=["q4-width2", "q6-lift", "q7"],
)
def test_one_fill_builds_one_own_rule_state(config, monkeypatch):
    # a fill reads its survivors from the state it first-fits with, and
    # builds no other: the states built are the states that ran first fits
    built, fitted = [], []
    init, first_fit = OwnRuleState.__init__, OwnRuleState.first_fit

    def counted_init(self, table, board):
        built.append(self)
        init(self, table, board)

    def counted_fit(self, order, placed):
        fitted.append(self)
        return first_fit(self, order, placed)

    monkeypatch.setattr(OwnRuleState, "__init__", counted_init)
    monkeypatch.setattr(OwnRuleState, "first_fit", counted_fit)
    run_search(config)
    assert len(fitted) > config.restarts  # a first fit and repair fills
    assert len(built) == len(fitted)
    assert all(b is f for b, f in zip(built, fitted))


@pytest.mark.parametrize("q", range(2, 8))
def test_the_static_prune_mask_keeps_the_kernel_table(q, monkeypatch):
    # the search's table is the whole candidate family in family order, with
    # no prune of its own; the first own-rule mask on the empty board keeps
    # what the kernel loop keeps, in table order
    lookup = ScratchBoard(q)
    tables = []
    # record the table each run lays out, and run no restart on it
    monkeypatch.setattr(
        zlq.search, "_one_restart", lambda config, table, *_: tables.append(table) or ()
    )
    for mode in ("full", "nondeg"):
        run_search(SearchConfig(q=q, mode=mode, restarts=1))
        cands = tables.pop()
        assert cands.edges == candidate_family(q, mode)
        assert cands.coords == [lookup.coords(e) for e in cands.edges]
        assert cands.nondeg == [classify(e) == NONDEGENERATE for e in cands.edges]
        kept = _set_bits(cands.own_ok(lookup))
        edges, coords, nondeg = kernel_fitting(lookup, cands.edges, [])
        assert [cands.edges[k] for k in kept] == edges
        assert [cands.coords[k] for k in kept] == coords
        assert [cands.nondeg[k] for k in kept] == nondeg


def test_width_two_improvement_runs():
    result = run_search(SearchConfig(q=4, seed=11, restarts=2, delete_width=2))
    assert verify(result.best).ok
    assert result.best_size >= 4


@pytest.mark.parametrize(
    "config, sizes, best_restart, digest",
    [
        (
            SearchConfig(q=5, seed=3, restarts=3, delete_width=2),
            (10, 11, 11),
            1,  # a tie goes to the earliest restart
            "68987026da25dafe3d73aad562fd7930c01d70200a99433adf6e1d18750df06f",
        ),
        (
            SearchConfig(q=6, seed=3, restarts=2),
            (18, 18),
            0,  # a tie goes to the earliest restart
            "01536ecf1a5cd2cf937ba9da3f2b484873891edee7edc25ab54dd1f7ac6c7b8f",
        ),
        (
            SearchConfig(q=7, seed=0, restarts=1),
            (30,),
            0,
            "a649ddbe15671e651ab6b6668126a0020863c6b1dc7b521478cb00c80be16057",
        ),
    ],
    ids=["q5", "q6", "q7"],
)
def test_run_search_path_is_pinned(config, sizes, best_restart, digest):
    result = run_search(config)
    assert result.restart_sizes == sizes
    assert result.best_restart == best_restart
    assert family_sha256(result.best) == digest


def test_time_limit_cuts_improvement_short(monkeypatch):
    # a clock that passes the deadline as soon as the first fill ends
    fills = []
    first_fit = OwnRuleState.first_fit

    def counted_fill(self, order, placed):
        accepted = first_fit(self, order, placed)
        fills.append(len(placed))
        return accepted

    expired_reads = []

    def clock():
        expired_reads.append(bool(fills))
        return 1e9 if fills else 0.0

    monkeypatch.setattr(OwnRuleState, "first_fit", counted_fill)
    monkeypatch.setattr(zlq.search, "time", SimpleNamespace(monotonic=clock))
    result = run_search(SearchConfig(q=7, restarts=2, time_limit=0.5))
    assert len(fills) == 1 and fills[0] > 0  # a first fit, and no repair attempt
    assert True in expired_reads  # the deadline fired, nothing else stopped the run
    assert result.restart_sizes == (fills[0],)  # the cut restart kept its first fit
    assert result.verified and verify(result.best).ok


def test_run_search_on_an_empty_candidate_table():
    # the table holds the three q=2 candidates, but each breaks a rule on
    # its own, so no fill's own-rule mask keeps any of them
    cands = ScratchBoard(2).table(candidate_family(2, "full"))
    assert cands.edges == candidate_family(2, "full") and len(cands.edges) == 3
    assert cands.own_ok(ScratchBoard(2)) == 0
    result = run_search(SearchConfig(q=2, restarts=2))
    assert result.restart_sizes == (0, 0)
    assert result.best_size == 0
    assert result.best_restart == 0
    assert result.verified and verify(result.best).ok


def _interleave(rng, first, second):
    """A random merge of two lists that keeps the order within each."""
    tags = [0] * len(first) + [1] * len(second)
    rng.shuffle(tags)
    sources = (iter(first), iter(second))
    return [next(sources[t]) for t in tags]


@pytest.mark.parametrize(
    "config",
    [
        SearchConfig(q=4, seed=2, restarts=1),
        SearchConfig(q=5, mode="nondeg", seed=3, restarts=1),
        SearchConfig(q=5, seed=4, restarts=1, warm_start=reference_family(5)),
        SearchConfig(q=6, seed=5, restarts=1, warm_start=embed(reference_family(5))),
        SearchConfig(q=7, seed=6, restarts=1),
    ],
    ids=["q4", "q5-nondeg", "q5-warm", "q6-lift", "q7"],
)
def test_a_filtered_fill_accepts_what_the_unfiltered_one_does(config, monkeypatch):
    # a fill first-fits a shuffle of the candidates whose own rules hold on
    # its starting board; by heredity it accepts what a first fit over the
    # whole table does in any order restricting to it.  Checked on fills
    # from random subsets of a search result, and on the run's first fill
    # and a sample of its repair fills.
    fills = []
    state_first_fit = OwnRuleState.first_fit

    def recorded(self, order, placed):
        start = list(placed)
        accepted = state_first_fit(self, order, placed)
        after = list(placed), _board_state(self.board)
        fills.append((start, list(order), self.table, accepted, *after))
        return accepted

    monkeypatch.setattr(OwnRuleState, "first_fit", recorded)
    found = list(run_search(config).best.edges)
    rng = random.Random(config.seed)
    cases = fills[:1] + rng.sample(fills[1:], min(4, len(fills) - 1))
    table = fills[0][2]
    fills.clear()
    stream = derive_stream(config.seed, 1)
    for size in (0, len(found) // 3, len(found) // 2, len(found) - 1, len(found)):
        fast, fast_placed = ScratchBoard.over(config.q, rng.sample(found, size))
        accepted = _fill(table, fast, fast_placed, stream)
        (case,) = fills
        fills.clear()
        cases.append(case)
        if size == len(found):
            assert accepted == []  # a search result is maximal
    monkeypatch.undo()
    for start, order, table, accepted, fast_placed, fast_state in cases:
        whole = range(len(table.edges))
        base = _board_of(config.q, start)
        survivors = [k for k in whole if base.insertion_ok(table.coords[k], table.nondeg[k], [])]
        assert sorted(order) == survivors
        others = sorted(set(whole) - set(survivors))
        for full_order in (others + order, order + others, _interleave(rng, order, others)):
            slow, slow_placed = _board_of(config.q, start), list(start)
            assert _first_fit_by_insertion(slow, full_order, table, slow_placed) == accepted
            assert slow_placed == fast_placed
            assert _board_state(slow) == fast_state


def _first_fit_by_insertion(board, order, table, placed):
    """The unfiltered first fit: ``insertion_ok`` judges every candidate in ``order``."""
    accepted = []
    for k in order:
        if board.insertion_ok(table.coords[k], table.nondeg[k], placed):
            board.place(*table.coords[k])
            placed.append((*table.coords[k], table.nondeg[k]))
            accepted.append(k)
    return accepted


def _board_state(board):
    return list(board.col_masks), list(board.row_masks)


def _board_of(q, placed):
    """A fresh board with the edges that ``placed`` describes on it."""
    board = ScratchBoard(q)
    for entry in placed:
        board.place(*entry[:4])
    return board


def _fill_results(monkeypatch, config):
    """The family on the board after each fill of ``run_search(config)``."""
    scratch = ScratchBoard(config.q)
    edge_at = {}
    for e in candidate_family(config.q, "full"):
        r1, c1, r2, c2 = scratch.coords(e)
        edge_at[frozenset({(r1, c1), (r2, c2)})] = e
    results = []
    first_fit = OwnRuleState.first_fit

    def recorded(self, order, placed):
        accepted = first_fit(self, order, placed)
        results.append([edge_at[frozenset({(r1, c1), (r2, c2)})] for r1, c1, r2, c2, _ in placed])
        return accepted

    monkeypatch.setattr(OwnRuleState, "first_fit", recorded)
    run_search(config)
    return results


@pytest.mark.parametrize(
    "config, sample",
    [
        (SearchConfig(q=3, restarts=2), None),
        (SearchConfig(q=4, restarts=1), None),
        (SearchConfig(q=4, mode="nondeg", restarts=1), None),
        (SearchConfig(q=4, restarts=1, warm_start=reference_family(4)), None),
        (SearchConfig(q=4, restarts=1, warm_start=embed(reference_family(3))), None),
        (SearchConfig(q=5, restarts=1), 24),
        (SearchConfig(q=6, restarts=1, warm_start=embed(reference_family(5))), 8),
    ],
    ids=["q3", "q4", "q4-nondeg", "q4-warm", "q4-lift", "q5-sampled", "q6-lift-sampled"],
)
def test_every_fill_result_is_maximal_under_verify(config, sample, monkeypatch):
    # definition-level: no pool candidate extends a fill's result to a
    # family the verifier accepts; the whole pool at q<=4, a sample above
    pool = candidate_family(config.q, config.mode)
    seeds = range(3) if sample is None else range(2)
    for seed in seeds:
        rng = random.Random(seed)
        fills = _fill_results(monkeypatch, replace(config, seed=seed))
        assert fills
        for family in fills:
            assert verify(Family.from_edges(config.q, family)).ok
            present = set(family)
            outside = [e for e in pool if e not in present]
            if sample is not None:
                outside = rng.sample(outside, sample)
            for e in outside:
                assert not verify(Family.from_edges(config.q, family + [e])).ok, (seed, e)


@pytest.mark.parametrize(
    "config, sample",
    [
        (SearchConfig(q=2, restarts=2), None),
        (SearchConfig(q=3, restarts=2, delete_width=2), None),
        (SearchConfig(q=4, restarts=1), None),
        (SearchConfig(q=4, mode="nondeg", restarts=1), None),
        (SearchConfig(q=4, restarts=1, warm_start=reference_family(4)), None),
        (SearchConfig(q=4, restarts=1, warm_start=embed(reference_family(3))), None),
        (SearchConfig(q=5, restarts=1, delete_width=2), 200),
        (SearchConfig(q=6, restarts=1, warm_start=embed(reference_family(5))), 200),
        (SearchConfig(q=7, restarts=1), 200),
    ],
    ids=["q2", "q3", "q4", "q4-nondeg", "q4-warm", "q4-lift", "q5-sampled", "q6-lift-sampled",
         "q7-sampled"],
)
def test_no_fill_order_holds_a_candidate_that_fails_alone(config, sample, monkeypatch):
    # definition-level: the table keeps the candidates that break a rule on
    # their own, so no order handed to the kernel may hold one; checked
    # against the whole pool at q<=4 and a sample of them above
    lookup = ScratchBoard(config.q)
    edge_at = {lookup.coords(e): e for e in candidate_family(config.q, "full")}
    handed = set()
    state_first_fit = OwnRuleState.first_fit

    def recorded(self, order, placed):
        handed.update(edge_at[self.table.coords[k]] for k in order)
        return state_first_fit(self, order, placed)

    monkeypatch.setattr(OwnRuleState, "first_fit", recorded)
    assert verify(run_search(config).best).ok
    pool = candidate_family(config.q, config.mode)
    if sample is not None:
        random.Random(config.q).shuffle(pool)
    failing = (e for e in pool if not verify(Family.from_edges(config.q, [e])).ok)
    failing = list(islice(failing, sample))  # a sample of None takes them all
    assert failing and handed.isdisjoint(failing)
    if config.q >= 3:
        assert handed  # the fills did hand the kernel candidates
