"""Randomized greedy construction of large admissible families.

One restart shuffles the candidate order, inserts every candidate that
keeps the family admissible, then runs delete-and-repair improvement:
remove one edge (exhaustively) or a sampled pair of edges and refill
greedily with a fresh shuffled order, keeping the result only when it is
strictly larger.  Restarts are independent given (master seed, restart
index), so runs are bit-stable.  A run lays out one ``CandidateTable``,
the whole candidate family with no static prune, and each fill first-fits
a shuffle of its own-rule survivors (``fill`` in ``_one_restart`` says
why heredity makes that exact).  ``run_search`` keeps one running best and
returns from one place: the winner is re-checked by the full verifier, and
a failure raises ``RuntimeError``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from typing import Callable

from .board import (
    Mode, NONDEGENERATE, TwoEdge, candidate_family, check_budget, check_mode, check_q, classify,
)
from .families import Family
from .admissibility import CandidateTable, ScratchBoard, _set_bits, verify
from .rng import derive_stream

Progress = Callable[[str], None]

# delete-and-repair passes per restart, and pairs tried per pass when
# ``delete_width`` is 2
_IMPROVE_PASSES = 2
_WIDTH2_SAMPLES = 64


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
    delete_width: int = 1
    warm_start: Family | None = None

    def validate(self) -> None:
        check_q(self.q)
        check_mode(self.mode)
        if self.restarts < 0:
            raise ValueError("restarts must be non-negative")
        check_budget("time limit", self.time_limit)
        if self.delete_width not in (1, 2):
            raise ValueError("delete width must be 1 or 2")
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


def _expired(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() >= deadline


def _one_restart(
    config: SearchConfig,
    table: CandidateTable,
    index: int,
    deadline: float | None,
) -> tuple[TwoEdge, ...]:
    """A shuffled first fit, then up to ``_IMPROVE_PASSES`` delete-and-repair passes.

    The passes stop after one that gains nothing.  Every fill builds its
    own board from the edges it keeps, so a failed attempt needs no undo,
    and shuffles its survivors with the restart's one stream.  No repair
    fill follows the first fit: by heredity it would add nothing.  Once
    ``deadline`` (a ``time.monotonic`` value, or None for no limit) has
    passed, no further attempt starts and the current family stands.
    """
    stream = derive_stream(config.seed, index)

    def fill(kept: list[TwoEdge]) -> list[TwoEdge]:
        """``kept`` plus a first fit over a shuffle of the table's own-rule survivors.

        By heredity this accepts what a first fit over the whole table
        would in any order that restricts to the shuffled one: the board
        only gains cells during the pass, so a candidate whose own rules
        fail on the starting board fails on every later one, the empty
        board included, so the table needs no static prune.  And a uniform
        shuffle of the whole table restricts to a uniform shuffle of the
        survivors, so the fill's result keeps its distribution.
        """
        board, placed = ScratchBoard.over(config.q, kept)
        survivors = _set_bits(table.own_ok(board))
        stream.shuffle(survivors)
        return kept + [table.edges[k] for k in board.first_fit(survivors, table, placed)]

    def attempt(removals: list[TwoEdge]) -> bool:
        nonlocal family
        kept = [e for e in family if e not in removals]
        trial = fill(kept)
        if len(trial) > len(family):
            family = trial
            return True
        # removals go last: later passes and the pair list keep the pinned search paths
        family = kept + removals
        return False

    family = fill([] if config.warm_start is None else list(config.warm_start.edges))
    for _ in range(_IMPROVE_PASSES):
        improved = False
        for e in list(family):
            if _expired(deadline):
                return tuple(family)
            if attempt([e]):
                improved = True
        if config.delete_width == 2:
            pairs = list(combinations(family, 2))
            stream.shuffle(pairs)
            for e1, e2 in pairs[:_WIDTH2_SAMPLES]:
                if _expired(deadline):
                    return tuple(family)
                if e1 in family and e2 in family and attempt([e1, e2]):
                    improved = True
        if not improved:
            break
    return tuple(family)


def run_search(config: SearchConfig, progress: Progress | None = None) -> SearchResult:
    """Multi-restart greedy search with mandatory final verification.

    Restarts run in index order; no restart starts once the time limit has
    passed, and ``progress`` hears each restart's size as it ends.  The
    largest family wins, ties breaking toward the earliest restart index;
    with no restart the warm start (or the empty family) stands.  The one
    result is verified, and a failure raises ``RuntimeError``.
    """
    config.validate()
    deadline = None
    if config.time_limit is not None:
        deadline = time.monotonic() + config.time_limit

    best_edges = () if config.warm_start is None else config.warm_start.edges
    best_restart = -1
    restart_sizes: list[int] = []
    if config.restarts and not _expired(deadline):  # a spent budget builds no table
        table = ScratchBoard(config.q).table(candidate_family(config.q, config.mode))
    for r in range(config.restarts):
        if _expired(deadline):
            break
        edges = _one_restart(config, table, r, deadline)
        restart_sizes.append(len(edges))
        if progress is not None:
            progress(f"restart {r}: size {len(edges)}")
        if best_restart < 0 or len(edges) > len(best_edges):
            best_edges, best_restart = edges, r

    best = Family.from_edges(config.q, best_edges)
    if not verify(best).ok:
        raise RuntimeError("search produced a family that fails verification")
    return SearchResult(
        config=config,
        best=best,
        best_size=len(best),
        bound=config.q * (config.q + 1) + len(best),
        restart_sizes=tuple(restart_sizes),
        best_restart=best_restart,
        verified=True,
    )
