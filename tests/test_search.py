import random
import time
from itertools import permutations

import pytest

import zlq.rng
import zlq.search
from zlq import (
    Family,
    SearchConfig,
    classify,
    greedy_fill,
    local_improve,
    run_search,
    solve_exact,
    verify,
)
from zlq.board import NONDEGENERATE, candidate_family
from zlq.fixtures import reference_family
from zlq.rng import SplitMix64, derive_stream, mix64

from conftest import family_sha256

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


def test_bounded_draws_reject_bad_input():
    with pytest.raises(ValueError):
        SplitMix64(0).below(0)


def test_greedy_fill_from_empty_always_inserts():
    empty = Family.from_edges(3, [])
    for seed in range(5):
        order = candidate_family(3, "full")
        derive_stream(seed, 0).shuffle(order)
        filled = greedy_fill(empty, order)
        assert len(filled) >= 1
        assert verify(filled).ok


def test_greedy_fill_cannot_extend_an_optimal_family():
    optimum = solve_exact(3).certificate
    filled = greedy_fill(optimum, candidate_family(3, "full"))
    assert len(filled) == len(optimum) == 2


def test_greedy_fill_rejects_bad_start():
    with pytest.raises(ValueError):
        greedy_fill(Family.from_edges(3, [((0, 1, 2), (2, 3, 0))]), [])


def test_greedy_fill_any_order_is_admissible():
    empty = Family.from_edges(3, [])
    order = candidate_family(3, "full")
    derive_stream(0, 0).shuffle(order)
    forward = greedy_fill(empty, order)
    backward = greedy_fill(empty, list(reversed(order)))
    assert verify(forward).ok and verify(backward).ok
    assert len(forward) >= 1 and len(backward) >= 1


def test_local_improve_recovers_the_q4_optimum_from_size_five():
    # drop one edge from an optimal q=4 family; refilling must find a sixth
    fam = reference_family(4)
    start = Family.from_edges(4, fam.edges[:-1])
    assert len(start) == 5
    hits = 0
    for seed in range(32):
        improved = local_improve(start, SearchConfig(q=4, seed=seed, improve_passes=2))
        if len(improved) >= 6:
            hits += 1
    assert hits >= 1


def test_local_improve_never_degrades():
    for q in (3, 4):
        fam = reference_family(q)
        improved = local_improve(fam, SearchConfig(q=q, improve_passes=2))
        assert len(improved) >= len(fam)
        assert verify(improved).ok


def test_local_improve_on_empty_equals_greedy_fill():
    config = SearchConfig(q=3, improve_passes=0)
    stream = derive_stream(config.seed, 7)
    improved = local_improve(Family.from_edges(3, []), config, stream=stream)
    # same stream, same candidate table: the repair pass is exactly a fill
    from zlq.search import _Candidates

    cands = _Candidates(3, "full", None)
    order_stream = derive_stream(config.seed, 7)
    order = [cands.edges[k] for k in cands.shuffled_order(order_stream)]
    assert improved == greedy_fill(Family.from_edges(3, []), order)


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
    assert first.summary_json() == second.summary_json()


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


def test_run_search_zero_time_limit_returns_empty():
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
    with pytest.raises(ValueError, match="width-2 samples"):
        SearchConfig(q=4, delete_width=2, width2_samples=-1).validate()
    SearchConfig(q=4, delete_width=2, width2_samples=0).validate()
    with pytest.raises(ValueError, match="time limit"):
        SearchConfig(q=4, time_limit=-1).validate()
    SearchConfig(q=4, time_limit=0).validate()


def test_local_improve_checks_its_input_like_a_warm_start():
    config = SearchConfig(q=4)
    for family in (reference_family(3), reference_family(5)):
        with pytest.raises(ValueError, match="different board"):
            local_improve(family, config)
    with pytest.raises(ValueError, match="fails verification"):
        local_improve(Family.from_edges(3, [((0, 1, 2), (2, 3, 0))]), SearchConfig(q=3))
    degenerate = Family.from_edges(4, [((0, 1, 2), (0, 1, 3))])
    with pytest.raises(ValueError, match="nondeg mode"):
        local_improve(degenerate, SearchConfig(q=4, mode="nondeg"))


def test_width_two_improvement_runs():
    result = run_search(
        SearchConfig(q=4, seed=11, restarts=2, delete_width=2, width2_samples=16)
    )
    assert verify(result.best).ok
    assert result.best_size >= 4


@pytest.mark.parametrize(
    "config, sizes, digest",
    [
        (
            SearchConfig(q=5, seed=3, restarts=3, delete_width=2),
            (10, 10, 11),
            "f9b4a80eb9f1e71481f9d890711113112a196362ea779b30af44814af1b103b0",
        ),
        (
            SearchConfig(q=6, seed=3, restarts=2),
            (18, 18),
            "5afd2602ddda38ea96d8b53a756cf344472316699f9afdab0af8aa1349e13c5f",
        ),
        (
            SearchConfig(q=7, seed=0, restarts=1),
            (29,),
            "1745333d8add8d34fac36a4b0745151bfb6001a26b2b9558b170e3e9ee43fe92",
        ),
    ],
    ids=["q5", "q6", "q7"],
)
def test_run_search_path_is_pinned(config, sizes, digest):
    result = run_search(config)
    assert result.restart_sizes == sizes
    assert family_sha256(result.best) == digest


def test_time_limit_cuts_improvement_short():
    start = time.monotonic()
    result = run_search(SearchConfig(q=7, restarts=1, time_limit=0.5))
    assert time.monotonic() - start < 1.2
    assert len(result.restart_sizes) == 1
    assert result.verified and verify(result.best).ok
