"""Branch-and-bound solver for the maximum admissible 2-edge family.

Admissibility is hereditary (every subset of an admissible family is
admissible), so a depth-first enumeration over candidates in a fixed
static order (most pairwise conflicts first) visits each admissible
family exactly once: the families extending the current choice use only
candidates later in the order that are pairwise compatible with
everything chosen.  Pruning combines

* a compatibility mask per candidate (pairs whose two-element family is
  already inadmissible can never coexist),
* the count of still-compatible later candidates,
* the free-cell cap: each edge takes two distinct free cells, so no
  extension of the base has more than ``available // 2 - len(base)``
  edges (``available`` from ``counting_summary``),
* optionally, vertex-relabeling symmetry: the candidate chosen first can
  be restricted to one representative per orbit of the relabeling action,
  because every family has a relabeled image whose first candidate (in the
  static order) is the orbit minimum.

Pairwise masks are a relaxation (three or more edges can clash through the
five-cell rule even when all pairs coexist), so every extension is still
guarded by the exact incremental check.

One function, ``_solve``, is the whole branch and bound, and it serves
both entry points: ``solve_exact`` runs it over an empty base,
``solve_extension`` over a frozen, verified base family.  The candidate
table is laid out once, on the search's board, and kept in the static
order.  The tree is one loop over an explicit stack of (chosen candidate,
untried candidates) pairs.  A first-fit pass over the static order, on a
second board, seeds the incumbent, and only a strictly larger family
replaces it, so the certificate is the first maximum family the
enumeration meets and the same call always returns it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .board import (
    Mode,
    TwoEdge,
    candidate_family,
    check_budget,
    check_mode,
    check_q,
    counting_summary,
    make_edge,
)
from .families import Family
from .admissibility import ScratchBoard, verify

OPTIMAL = "optimal"
INCUMBENT = "incumbent"


@dataclass(frozen=True)
class ExactResult:
    status: str  # "optimal" iff the search tree was exhausted
    q: int
    mode: Mode
    size: int
    certificate: Family
    z_value: int  # q(q+1) + size
    nodes: int
    elapsed: float
    pruned_static: int
    symmetry: bool
    orbit_count: int | None
    events: tuple[dict, ...]

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL


def apply_vertex_permutation(perm: tuple[int, ...], edge: TwoEdge) -> TwoEdge:
    """Image of a 2-edge under a relabeling of the vertices."""
    (i1, j1, c1), (i2, j2, c2) = edge
    a = (min(perm[i1], perm[j1]), max(perm[i1], perm[j1]), perm[c1])
    b = (min(perm[i2], perm[j2]), max(perm[i2], perm[j2]), perm[c2])
    return make_edge(a, b)


def candidate_orbits(q: int, candidates: list[TwoEdge]) -> list[list[int]]:
    """Partition of candidate indices under the vertex-relabeling action.

    Each orbit is the closure of its smallest index under the transposition
    (0 1) and the cycle (0 1 ... q), which generate S_{q+1}, so the work is
    linear in the number of candidates.  Orbits come in order of their
    smallest index, members ascending.  The list must be closed under
    relabeling (the full and nondegenerate candidate families are, as is
    any statically pruned subset of them).
    """
    n = q + 1
    generators = ((1, 0, *range(2, n)), tuple((v + 1) % n for v in range(n)))
    index = {e: k for k, e in enumerate(candidates)}
    seen = [False] * len(candidates)
    orbits: list[list[int]] = []
    for k in range(len(candidates)):
        if seen[k]:
            continue
        seen[k] = True
        members = [k]
        stack = [k]
        while stack:
            edge = candidates[stack.pop()]
            for perm in generators:
                j = index.get(apply_vertex_permutation(perm, edge))
                if j is None:
                    raise ValueError("candidate list is not closed under vertex relabeling")
                if not seen[j]:
                    seen[j] = True
                    members.append(j)
                    stack.append(j)
        orbits.append(sorted(members))
    return orbits


def pairwise_conflicts(
    board: ScratchBoard,
    coords: list[tuple[int, int, int, int]],
    nondeg: list[bool],
    placed: list[tuple[int, int, int, int, bool]],
    deadline: float | None = None,
) -> list[int]:
    """Bitmask per candidate of the candidates it can never coexist with.

    Candidates are given by ``coords`` and ``nondeg`` on ``board``, whose
    edges ``placed`` describes, and their cells must be free there.
    Conflict means the two candidates on top of ``placed`` already fail: a
    shared cell, an opposite-corner pattern completed between the two, or
    a two-edge five-cell pattern.  The relation is sound but not complete;
    larger clashes surface in the incremental checks of the search itself.
    The board is left as it was found.

    Past ``deadline`` (a ``time.monotonic`` value) no further rows are
    filled; a partial relation is still sound, it only prunes less.
    """
    n = len(coords)
    masks = [0] * n
    for i in range(n):
        if deadline is not None and time.monotonic() > deadline:
            break
        placed_i = placed + [(*coords[i], nondeg[i])]
        board.place(*coords[i])
        bit_i = 1 << i
        for j in range(i + 1, n):
            if not board.insertion_ok(coords[j], nondeg[j], placed_i):
                masks[i] |= 1 << j
                masks[j] |= bit_i
        board.unplace(*coords[i])
    return masks


def _solve(
    base: Family,
    candidates: list[TwoEdge],
    mode: Mode,
    symmetry: bool,
    node_limit: int | None,
    time_limit: float | None,
    start: float,
) -> ExactResult:
    """Maximum number of ``candidates`` that extend the verified ``base``.

    The one branch-and-bound core behind both public solvers.  The search's
    board also serves the conflict pass; the incumbent seed gets a second.
    The tree is one loop.  ``remaining`` holds the current level's untried
    candidates; with ``size`` chosen, the level is cut when ``min(size +
    |remaining|, cap)`` cannot beat the incumbent, ``cap`` being the
    free-cell cap, fixed for the whole solve.  A candidate that fits is
    pushed with ``remaining`` and the loop descends to what is compatible
    with it; an empty or cut level pops back to its parent.
    Symmetry is sound only when the base is empty and the candidate list is
    closed under vertex relabeling.  Budgets count from ``start`` and must be
    non-negative; the reported node count never exceeds the node budget.
    """
    check_budget("node limit", node_limit)
    check_budget("time limit", time_limit)
    q = base.q
    deadline = None if time_limit is None else start + time_limit
    scratch, base_placed = ScratchBoard.over(q, base.edges)
    # a candidate that fails against the base alone never fits (hereditarity);
    # on an empty base this is the static prune
    edges, coords, nondeg = scratch.fitting(candidates, base_placed)
    pruned_static = len(candidates) - len(edges)

    # static order, most conflicts first; only the renumbered table and masks stay
    masks = pairwise_conflicts(scratch, coords, nondeg, base_placed, deadline)
    perm = sorted(range(len(edges)), key=lambda k: -masks[k].bit_count())
    pos_of = sorted(range(len(perm)), key=perm.__getitem__)  # the inverse of perm
    edges = [edges[k] for k in perm]
    coords = [coords[k] for k in perm]
    nondeg = [nondeg[k] for k in perm]
    conflicts = [0] * len(edges)
    for p, k in enumerate(perm):
        mask = masks[k]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            conflicts[p] |= 1 << pos_of[j]
    del masks, perm, pos_of

    every = (1 << len(edges)) - 1
    orbit_count: int | None = None
    level0_mask = every  # the candidates the first level may branch on
    if symmetry and edges:
        orbits = candidate_orbits(q, edges)
        orbit_count = len(orbits)
        level0_mask = 0
        for orbit in orbits:
            level0_mask |= 1 << orbit[0]  # members ascend: the first is the representative

    # incumbent seed: first-fit over the static order, on a board of its own
    seed_board, seed_placed = ScratchBoard.over(q, base.edges)
    best = tuple(seed_board.first_fit(range(len(edges)), coords, nondeg, seed_placed))
    cap = counting_summary(q).available // 2 - len(base)  # each edge takes two free cells
    events: list[dict] = [
        {"event": "bound", "where": "root", "value": min(len(edges), cap), "incumbent": len(best)}
    ]
    nodes = 0
    size = 0  # len(stack)
    cutoff = len(best)
    placed = list(base_placed)
    stack: list[tuple[int, int]] = []  # per chosen candidate: it and its level's untried mask
    remaining = every
    status = OPTIMAL
    while True:
        if not remaining or min(size + remaining.bit_count(), cap) <= cutoff:
            if not stack:
                break
            i, remaining = stack.pop()  # backtrack: unplace this level's choice
            placed.pop()
            scratch.unplace(*coords[i])
            size -= 1
            continue
        i = (remaining & -remaining).bit_length() - 1
        remaining &= remaining - 1
        if size == 0 and not (level0_mask >> i) & 1:
            continue
        nodes += 1
        if nodes % 65536 == 0:
            events.append({"event": "node", "nodes": nodes, "best": cutoff})
        if node_limit is not None and nodes >= node_limit:
            status = INCUMBENT
            nodes = min(nodes, node_limit)  # a zero budget stops on a first node it never visits
            break
        if deadline is not None and nodes % 1024 == 0 and time.monotonic() > deadline:
            status = INCUMBENT
            break
        ci = coords[i]
        if scratch.insertion_ok(ci, nondeg[i], placed):
            scratch.place(*ci)
            placed.append((*ci, nondeg[i]))
            stack.append((i, remaining))  # descend
            remaining &= ~conflicts[i]
            size += 1
            if size > cutoff:
                best = tuple(k for k, _ in stack)
                cutoff = size
                events.append({"event": "incumbent", "size": size, "nodes": nodes})

    certificate = Family.from_edges(q, list(base.edges) + [edges[k] for k in best])
    if not verify(certificate).ok:  # pragma: no cover - internal invariant
        raise RuntimeError("exact solver produced an unverifiable certificate")
    events.append({"event": "done", "status": status, "size": len(best), "nodes": nodes})
    return ExactResult(
        status=status,
        q=q,
        mode=mode,
        size=len(best),
        certificate=certificate,
        z_value=q * (q + 1) + len(certificate),
        nodes=nodes,
        elapsed=time.monotonic() - start,
        pruned_static=pruned_static,
        symmetry=symmetry,
        orbit_count=orbit_count,
        events=tuple(events),
    )


def solve_exact(
    q: int,
    mode: Mode = "full",
    symmetry: bool = False,
    node_limit: int | None = None,
    time_limit: float | None = None,
) -> ExactResult:
    """Exact maximum admissible family size over the candidate family.

    Returns status "optimal" only when the search tree was exhausted;
    exceeding the node or time budget downgrades the result to
    "incumbent".  The time budget covers the whole call, preprocessing
    included.  The certificate always passes the full verifier, and the
    optimal size is independent of the symmetry flag.
    """
    start = time.monotonic()
    check_q(q)
    check_mode(mode)
    return _solve(
        Family.from_edges(q, []),
        candidate_family(q, mode),
        mode=mode,
        symmetry=symmetry,
        node_limit=node_limit,
        time_limit=time_limit,
        start=start,
    )


def solve_extension(
    base: Family,
    candidates: list[TwoEdge],
    node_limit: int | None = None,
    time_limit: float | None = None,
) -> ExactResult:
    """Exact maximum number of extra edges over a frozen base family.

    Only ``candidates`` may be added; the base is never removed.  The
    certificate is the combined family, ``size`` counts the extra edges.
    Budgets behave as in ``solve_exact``.  A candidate that is not on the
    base's board raises ``BoardError``.
    """
    start = time.monotonic()
    for edge in candidates:
        make_edge(*edge, q=base.q)
    if not verify(base).ok:
        raise ValueError("base family fails verification")
    return _solve(
        base,
        candidates,
        mode="full",
        symmetry=False,
        node_limit=node_limit,
        time_limit=time_limit,
        start=start,
    )
