"""Branch-and-bound solver for the maximum admissible 2-edge family.

Admissibility is hereditary (every subset of an admissible family is
admissible), so a depth-first enumeration over candidates in a fixed
static order (most pairwise conflicts first) visits each admissible
family exactly once: the families extending the current choice use only
candidates later in the order that are pairwise compatible with
everything chosen.  Pruning combines

* a compatibility mask per candidate (pairs whose two-element family is
  already inadmissible can never coexist),
* forward checking: after each choice, the untried candidates whose own
  rules now fail on the board are dropped (an ``OwnRuleState`` keeps
  that mask up to date edge by edge, and heredity makes the drop exact),
* the count of still-compatible later candidates, under the free-cell
  cap: each edge takes two distinct free cells, so no extension of the
  base has more than ``available // 2 - len(base)`` edges (``available``
  from ``counting_summary``),
* a greedy clique cover of the untried candidates by the conflict graph
  (after BBMC, San Segundo et al., Comput. Oper. Res. 2011, and MCQ,
  Tomita & Kameda, J. Global Optim. 2007): a family takes at most one
  candidate per clique,
* optionally, vertex-relabeling symmetry: the candidate chosen first can
  be restricted to one representative per orbit of the relabeling action,
  because every family has a relabeled image whose first candidate (in the
  static order) is the orbit minimum.

Pairwise masks are a relaxation (three or more edges can clash through the
five-cell rule even when all pairs coexist), so every extension is still
guarded by a re-check of the placed edges.  The masks come from one
``OwnRuleState`` update per candidate, closed symmetrically by OR-ing in
their transpose; a second transpose renumbers them into the static order.

One function, ``_solve``, is the whole branch and bound, and it serves
both entry points: ``solve_exact`` runs it over an empty base,
``solve_extension`` over a frozen, verified base family.  It lays out
three ``CandidateTable``s, all on the search's one board: the whole list
for the static prune, the kept list for the conflict pass, and the kept
list in the static order for the tree.  The static order depends on the
conflict rows, so the third table cannot be built first.  The tree is one
loop over an explicit stack of (chosen candidate, untried candidates)
pairs.  A first fit over the static order (``OwnRuleState.first_fit``,
the search fills' first fit), on a second board, seeds the incumbent, and
only a strictly larger family replaces it, so the certificate is the first
maximum family the enumeration meets and the same call always returns it.
Every bound cuts only subtrees that cannot beat the incumbent strictly, so
the bounds change node counts but never the certificate of an exhausted
tree.

The seed drops the candidates on the placed edges' threat cells (cells
whose occupation alone breaks a placed edge) by one flag lookup, but the
tree does not yet: it still visits such a candidate and rejects it with
``recheck_ok``.  The first fit only ever adds edges, so its threat mask
only grows; the tree also undoes them, so it needs the mask kept with an
undo stack, and recomputing it at every descent instead cost more than the
nodes it saved on the budgeted q=5 solve.  Dropping those candidates would
also change every node count the tree is pinned to.
"""

from __future__ import annotations

import sys
import time
from array import array
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
from .admissibility import CandidateTable, OwnRuleState, Placed, ScratchBoard, verify

OPTIMAL = "optimal"
INCUMBENT = "incumbent"
_BLOCK = 64  # columns per block of ``_transpose``


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


def clique_cover(remaining: int, conflicts: list[int], limit: int) -> int:
    """Cliques in a greedy cover of ``remaining`` by the conflict graph, counted to ``limit + 1``.

    Each clique starts at the lowest uncovered candidate and grows by the
    lowest one that conflicts with every member so far.  A family takes at
    most one candidate per clique, so the count bounds every family drawn
    from ``remaining``.  Counting stops once it passes ``limit``.  No row
    may hold its own bit, or a clique never stops growing.
    """
    count = 0
    while remaining and count <= limit:
        low = remaining & -remaining
        remaining ^= low
        grow = remaining & conflicts[low.bit_length() - 1]
        while grow:
            low = grow & -grow
            remaining ^= low
            grow &= conflicts[low.bit_length() - 1]
        count += 1
    return count


def _transpose(rows: list[int], deadline: float | None) -> list[int]:
    """The columns of the square bit matrix ``rows``: bit i of column j is bit j of row i.

    Per block of ``_BLOCK`` columns, each row's bits there fill one
    machine word, the words (last row first) are printed as one string of
    binary digits, and each column is parsed from every ``_BLOCK``-th
    digit.  The deadline is checked once per block; past it the columns
    not yet built stay 0, a subset of the true ones.
    """
    n = len(rows)
    columns = [0] * n
    words = array("Q", bytes(8 * n))
    words.append(1)  # a leading 1 keeps the leading zeros of the last row's word
    low = (1 << _BLOCK) - 1
    for b in range(0, n, _BLOCK):
        if deadline is not None and time.monotonic() > deadline:
            break
        for i, row in enumerate(rows):
            words[i] = (row >> b) & low
        text = format(int.from_bytes(words, sys.byteorder), "b")
        width = min(_BLOCK, n - b)
        columns[b : b + width] = [int(text[_BLOCK - j :: _BLOCK], 2) for j in range(width)]
        del text  # freed before the next block's is made
    return columns


def pairwise_conflicts(
    board: ScratchBoard,
    table: CandidateTable,
    placed: list[Placed],
    deadline: float | None = None,
) -> list[int]:
    """Bitmask per candidate of the candidates it can never coexist with.

    Candidates are the rows of ``table`` on ``board``, whose edges
    ``placed`` describes, and their cells must be free there.  Conflict
    means the two candidates on top of ``placed`` already fail: a shared
    cell, an opposite-corner pattern completed between the two, or a
    two-edge five-cell pattern.  The relation is sound but not complete;
    larger clashes surface in the incremental checks of the search itself.
    The board is left as it was found.

    Row i starts as the candidates whose own rules fail once i is placed,
    one ``OwnRuleState`` update each, and the rows are then closed
    symmetrically by OR-ing in their transpose (j breaking i is bit j of
    row i too).  Over a non-empty base two candidates can also complete a
    base edge's pattern together, so the base edges are re-checked for
    every later pair a row still lacks (their own rules hold there).

    The deadline (a ``time.monotonic`` value) is checked once per row of
    the first and last pass and once per block of the transpose.  Past it
    the rows come back as they stand: a partial relation is still sound,
    it only prunes less.
    """
    coords = table.coords
    n = len(coords)
    state = OwnRuleState(table, board)
    masks = [0] * n
    for i in range(n):
        if deadline is not None and time.monotonic() > deadline:
            return masks
        state.place(*coords[i])
        masks[i] = state.dead & ~(1 << i)
        state.undo()
    # close symmetrically: j breaking i is bit j of row i too
    for i, column in enumerate(_transpose(masks, deadline)):
        masks[i] |= column
    if placed:
        every = table.everything
        for i in range(n):
            if deadline is not None and time.monotonic() > deadline:
                break
            board.place(*coords[i])
            unjudged = every & ~masks[i] & ~((2 << i) - 1)  # later candidates not yet in row i
            while unjudged:
                low = unjudged & -unjudged
                j = low.bit_length() - 1
                unjudged ^= low
                if not board.recheck_ok(coords[j], placed):
                    masks[i] |= low
                    masks[j] |= 1 << i
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
    board also serves the prune and the conflict pass; the incumbent seed
    gets a second.  ``fitting`` returns the kept table, the conflict pass
    reads its slices, and ``take`` permutes it into the static order, the
    one table the seed and the tree use, once the renumbering has ended
    inside the budget.  The tree is one loop.
    ``remaining`` holds the current level's untried candidates; with
    ``size`` chosen, the level is cut when ``min(size + |remaining|, cap)``
    cannot beat the incumbent, ``cap`` being the free-cell cap, fixed for
    the whole solve, and otherwise when ``size`` plus a greedy clique cover
    of ``remaining`` cannot.  A candidate that fits is pushed with
    ``remaining`` and the loop descends to what is compatible with it and
    still passes its own rules; an empty or cut level pops back to its
    parent.  The ``done`` event counts the levels each bound cut and the
    candidates forward checking removed.  Symmetry is sound only when the
    base is empty and the candidate list is closed under vertex relabeling.
    Budgets count from ``start`` and must be non-negative; the reported
    node count never exceeds the node budget.  Past the deadline after the
    conflict pass or the renumbering, the table is never permuted and the
    tree never starts: the result is the seed over the kept table, as an
    incumbent.
    """
    check_budget("node limit", node_limit)
    check_budget("time limit", time_limit)
    q = base.q
    deadline = None if time_limit is None else start + time_limit
    scratch, base_placed = ScratchBoard.over(q, base.edges)
    # a candidate that fails against the base alone never fits (hereditarity);
    # on an empty base this is the static prune
    table = scratch.fitting(candidates, base_placed)
    pruned_static = len(candidates) - len(table.edges)

    conflicts = pairwise_conflicts(scratch, table, base_placed, deadline)
    # past the deadline the tree never starts and never reads the relation,
    # so a pass or a renumbering the deadline cut short does no harm
    late = deadline is not None and time.monotonic() > deadline
    if not late:
        # static order, most conflicts first.  The relation C is symmetric, so
        # P C P^T is P (P C)^T.  Only a tree that will run gets the renumbered
        # table and masks, and then only they stay.
        perm = sorted(range(len(table.edges)), key=lambda k: -conflicts[k].bit_count())
        columns = _transpose([conflicts[k] for k in perm], deadline)
        late = deadline is not None and time.monotonic() > deadline
        if not late:
            table = table.take(perm)
            conflicts = [columns[k] for k in perm]
        del perm, columns

    edges, coords, nondeg, every = table.edges, table.coords, table.nondeg, table.everything
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
    best = tuple(OwnRuleState(table, seed_board).first_fit(range(len(edges)), seed_placed))
    cap = counting_summary(q).available // 2 - len(base)  # each edge takes two free cells
    events: list[dict] = [
        {"event": "bound", "where": "root", "value": min(len(edges), cap), "incumbent": len(best)}
    ]
    nodes = count_cuts = cover_cuts = forward_removed = 0
    size = 0  # len(stack)
    cutoff = len(best)
    placed = list(base_placed)
    stack: list[tuple[int, int]] = []  # per chosen candidate: it and its level's untried mask
    remaining, status = (0, INCUMBENT) if late else (every, OPTIMAL)
    rules = OwnRuleState(table, scratch) if remaining else None
    while True:
        if remaining:
            room = cutoff - size  # a better family needs more than this from remaining
            if min(remaining.bit_count(), cap - size) <= room:
                count_cuts += 1
                remaining = 0
            elif clique_cover(remaining, conflicts, room) <= room:
                cover_cuts += 1
                remaining = 0
        if not remaining:
            if not stack:
                break
            i, remaining = stack.pop()  # backtrack: unplace this level's choice
            placed.pop()
            rules.undo()
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
        # forward checking keeps the own rules of everything in remaining
        if not placed or scratch.recheck_ok(ci, placed):
            rules.place(*ci)
            placed.append((*ci, nondeg[i]))
            stack.append((i, remaining))  # descend
            remaining &= ~conflicts[i]
            dead = remaining & rules.dead  # forward checking: their own rules now fail
            forward_removed += dead.bit_count()
            remaining ^= dead
            size += 1
            if size > cutoff:
                best = tuple(k for k, _ in stack)
                cutoff = size
                events.append({"event": "incumbent", "size": size, "nodes": nodes})

    certificate = Family.from_edges(q, list(base.edges) + [edges[k] for k in best])
    if not verify(certificate).ok:  # pragma: no cover - internal invariant
        raise RuntimeError("exact solver produced an unverifiable certificate")
    events.append({
        "event": "done", "status": status, "size": len(best), "nodes": nodes,
        "count_cuts": count_cuts, "cover_cuts": cover_cuts, "forward_removed": forward_removed,
    })
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
