"""Randomized greedy construction of large admissible families.

One restart shuffles the candidate order, inserts every candidate that
keeps the family admissible, then runs delete-and-repair improvement:
remove one edge (exhaustively) or a sampled pair of edges and refill
greedily with a fresh shuffled order, keeping the result only when it is
strictly larger.  Restarts are independent given (master seed, restart
index), so runs are bit-stable; the winning family is re-checked by the
full verifier before it is returned.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .board import (
    Mode, NONDEGENERATE, TwoEdge, candidate_family, check_mode, check_q, classify, touches_vertex
)
from .families import Family
from .admissibility import ScratchBoard, verify
from .rng import SplitMix64, derive_stream

Progress = Callable[[str], None]


@dataclass(frozen=True)
class SearchConfig:
    """Everything that determines a search run; equal configs give equal results.

    ``time_limit`` is the one exception: it is checked when a restart
    starts and before every delete-and-repair attempt, so a run that hits
    it may complete fewer restarts, or improve its last restart less, than
    an identical run on a faster machine.  A restart cut short keeps its
    current family, which is verified like any other.  Runs that finish
    within the limit are bit-stable.
    """

    q: int
    mode: Mode = "full"
    seed: int = 0
    restarts: int = 8
    time_limit: float | None = None
    improve_passes: int = 2
    delete_width: int = 1
    width2_samples: int = 64
    warm_start: Family | None = None
    priority_vertex: int | None = None

    def validate(self) -> None:
        check_q(self.q)
        check_mode(self.mode)
        if self.restarts < 0:
            raise ValueError("restarts must be non-negative")
        if self.time_limit is not None and self.time_limit < 0:
            raise ValueError("time limit must be non-negative")
        if self.delete_width not in (1, 2):
            raise ValueError("delete width must be 1 or 2")
        if self.improve_passes < 0:
            raise ValueError("improvement passes must be non-negative")
        if self.width2_samples < 0:
            raise ValueError("width-2 samples must be non-negative")
        if self.warm_start is not None:
            if self.warm_start.q != self.q:
                raise ValueError("warm start family lives on a different board")
            if not verify(self.warm_start).ok:
                raise ValueError("warm start family fails verification")
            if self.mode == "nondeg" and any(
                classify(e) != NONDEGENERATE for e in self.warm_start.edges
            ):
                raise ValueError("nondeg mode cannot warm-start from a degenerate family")


@dataclass(frozen=True)
class SearchResult:
    config: SearchConfig
    best: Family
    best_size: int
    bound: int  # q(q+1) + best_size
    restart_sizes: tuple[int, ...]
    best_restart: int  # -1 when no restart ran
    verified: bool

    def summary_json(self) -> str:
        payload = {
            "q": self.config.q,
            "mode": self.config.mode,
            "seed": self.config.seed,
            "restarts": self.config.restarts,
            "best_size": self.best_size,
            "bound": self.bound,
            "verified": self.verified,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class _State:
    """One restart's mutable family + occupancy."""

    __slots__ = ("q", "scratch", "edges", "placed")

    def __init__(self, q: int, base: Family | None):
        self.q = q
        self.edges: list[TwoEdge] = [] if base is None else list(base.edges)
        self.scratch, self.placed = ScratchBoard.over(q, self.edges)

    def put(self, e: TwoEdge) -> None:
        entry = self.scratch.placed_entry(e)
        self.scratch.place(*entry[:4])
        self.edges.append(e)
        self.placed.append(entry)

    def remove(self, e: TwoEdge) -> None:
        idx = self.edges.index(e)
        r1, c1, r2, c2, _ = self.placed[idx]
        self.scratch.unplace(r1, c1, r2, c2)
        del self.edges[idx]
        del self.placed[idx]

    def family(self) -> Family:
        return Family.from_edges(self.q, self.edges)


class _Candidates:
    """Shared immutable candidate table for one search run."""

    __slots__ = ("edges", "coords", "nondeg", "priority_split")

    def __init__(self, q: int, mode: Mode, priority_vertex: int | None):
        pool = candidate_family(q, mode)
        if priority_vertex is not None:
            # stable: candidates touching the vertex first, each block in pool order
            pool.sort(key=lambda e: not touches_vertex(e, priority_vertex))
        # the static prune: keep what fits the empty board
        self.edges, self.coords, self.nondeg = ScratchBoard(q).fitting(pool, [])
        self.priority_split = None
        if priority_vertex is not None:
            self.priority_split = sum(touches_vertex(e, priority_vertex) for e in self.edges)

    def shuffled_order(self, stream: SplitMix64) -> list[int]:
        """Candidate indices, shuffled; the priority block stays in front."""
        if self.priority_split is None:
            order = list(range(len(self.edges)))
            stream.shuffle(order)
            return order
        first = list(range(self.priority_split))
        rest = list(range(self.priority_split, len(self.edges)))
        stream.shuffle(first)
        stream.shuffle(rest)
        return first + rest


def _fill(state: _State, cands: _Candidates, order: Sequence[int]) -> list[TwoEdge]:
    accepted = state.scratch.first_fit(order, cands.coords, cands.nondeg, state.placed)
    added = [cands.edges[k] for k in accepted]
    state.edges.extend(added)
    return added


def greedy_fill(start: Family, order: Sequence[TwoEdge]) -> Family:
    """Insert, in the given order, every candidate that keeps admissibility.

    The start family must verify; the result is admissible and maximal
    with respect to the scanned order.
    """
    if not verify(start).ok:
        raise ValueError("start family fails verification")
    state = _State(start.q, start)
    edges = list(order)
    coords = [state.scratch.coords(e) for e in edges]
    nondeg = [classify(e) == NONDEGENERATE for e in edges]
    accepted = state.scratch.first_fit(range(len(edges)), coords, nondeg, state.placed)
    state.edges.extend(edges[k] for k in accepted)
    return state.family()


def _improve(
    state: _State,
    cands: _Candidates,
    stream: SplitMix64,
    passes: int,
    delete_width: int,
    width2_samples: int,
    deadline: float | None,
) -> None:
    """Delete-and-repair until a pass yields no strictly larger family.

    Once ``deadline`` (a ``time.monotonic`` value, or None for no limit)
    has passed, no further attempt starts and the current family stands.
    """

    def expired() -> bool:
        return deadline is not None and time.monotonic() >= deadline

    def attempt(removals: list[TwoEdge]) -> bool:
        before = len(state.edges)
        for e in removals:
            state.remove(e)
        added = _fill(state, cands, cands.shuffled_order(stream))
        if len(state.edges) > before:
            return True
        for e in added:
            state.remove(e)
        for e in removals:
            state.put(e)
        return False

    # repair pass with nothing deleted: maximality is order-relative, so a
    # fresh order can still add edges (and makes improving an empty family
    # coincide with a greedy fill)
    _fill(state, cands, cands.shuffled_order(stream))
    for _ in range(passes):
        improved = False
        for e in list(state.edges):
            if expired():
                return
            if e in state.edges and attempt([e]):
                improved = True
        if delete_width == 2 and len(state.edges) >= 2:
            snapshot = list(state.edges)
            pairs = [
                (snapshot[a], snapshot[b])
                for a in range(len(snapshot))
                for b in range(a + 1, len(snapshot))
            ]
            stream.shuffle(pairs)
            for e1, e2 in pairs[:width2_samples]:
                if expired():
                    return
                if e1 in state.edges and e2 in state.edges and attempt([e1, e2]):
                    improved = True
        if not improved:
            break


def local_improve(family: Family, config: SearchConfig, stream: SplitMix64 | None = None) -> Family:
    """Delete-and-repair local improvement; never returns a smaller family.

    The family is checked as a warm start of ``config`` would be: same
    board, passes ``verify``, nondegenerate in nondeg mode.  Uses a
    reserved sub-stream of the config seed unless one is supplied.
    """
    replace(config, warm_start=family).validate()
    if stream is None:
        stream = derive_stream(config.seed, 1 << 32)  # reserved improvement lane
    cands = _Candidates(config.q, config.mode, config.priority_vertex)
    state = _State(config.q, family)
    _improve(
        state,
        cands,
        stream,
        config.improve_passes,
        config.delete_width,
        config.width2_samples,
        None,
    )
    return state.family()


def _one_restart(
    config: SearchConfig,
    cands: _Candidates,
    index: int,
    deadline: float | None,
) -> tuple[TwoEdge, ...]:
    stream = derive_stream(config.seed, index)
    state = _State(config.q, config.warm_start)
    _fill(state, cands, cands.shuffled_order(stream))
    _improve(
        state,
        cands,
        stream,
        config.improve_passes,
        config.delete_width,
        config.width2_samples,
        deadline,
    )
    return tuple(state.edges)


def run_search(config: SearchConfig, progress: Progress | None = None) -> SearchResult:
    """Multi-restart greedy search with mandatory final verification.

    Restarts run in index order; no restart starts once the time limit has
    passed, and ``progress`` hears each restart's size as it ends.  The
    largest family wins, ties breaking toward the earliest restart index.
    """
    config.validate()

    def empty_result() -> SearchResult:
        best = config.warm_start or Family.from_edges(config.q, [])
        return SearchResult(
            config=config,
            best=best,
            best_size=len(best),
            bound=config.q * (config.q + 1) + len(best),
            restart_sizes=(),
            best_restart=-1,
            verified=verify(best).ok,
        )

    if config.time_limit == 0:
        return empty_result()

    deadline = None
    if config.time_limit is not None:
        deadline = time.monotonic() + config.time_limit

    cands = _Candidates(config.q, config.mode, config.priority_vertex)
    completed: list[tuple[int, tuple[TwoEdge, ...]]] = []
    for r in range(config.restarts):
        if deadline is not None and time.monotonic() >= deadline:
            break
        edges = _one_restart(config, cands, r, deadline)
        completed.append((r, edges))
        if progress is not None:
            progress(f"restart {r}: size {len(edges)}")
    restart_sizes = tuple(len(edges) for _, edges in completed)

    # rank candidates best-first, verify the winner, discard anything broken
    ranked = sorted(completed, key=lambda item: (-len(item[1]), item[0]))
    for r, edges in ranked:
        family = Family.from_edges(config.q, edges)
        if verify(family).ok:
            return SearchResult(
                config=config,
                best=family,
                best_size=len(edges),
                bound=config.q * (config.q + 1) + len(edges),
                restart_sizes=restart_sizes,
                best_restart=r,
                verified=True,
            )
        if progress is not None:  # pragma: no cover - internal invariant
            progress(f"restart {r}: discarded unverifiable result")
    return empty_result()
