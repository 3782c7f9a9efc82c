"""Branch-and-bound solver for the maximum admissible 2-edge family.

Admissibility is hereditary (every subset of an admissible family is
admissible), so a depth-first enumeration over candidates in a fixed
static order visits each admissible family exactly once: the families
extending the current choice use only candidates later in the order that
are pairwise compatible with everything chosen.  Pruning combines

* a compatibility mask per candidate (pairs whose two-element family is
  already inadmissible can never coexist),
* the count of still-compatible later candidates,
* the free-cell bound: each further edge consumes two free cells,
* optionally, vertex-relabeling symmetry: the candidate chosen first can
  be restricted to one representative per orbit of the relabeling action,
  because every family has a relabeled image whose first candidate (in the
  static order) is the orbit minimum.

Pairwise masks are a relaxation (three or more edges can clash through the
five-cell rule even when all pairs coexist), so every extension is still
guarded by the exact incremental check.

One core serves both entry points: ``solve_exact`` runs it over an empty
base, ``solve_extension`` over a frozen, verified base family.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .board import Mode, NONDEGENERATE, TwoEdge, check_mode, check_q, candidate_family, classify, make_edge
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


def upper_bound(chosen: int, compatible_remaining: int, free_cells: int) -> int:
    """Admissible completion bound: every extra edge needs two free cells."""
    return chosen + min(compatible_remaining, free_cells // 2)


def apply_vertex_permutation(perm: tuple[int, ...], edge: TwoEdge) -> TwoEdge:
    """Image of a 2-edge under a relabeling of the vertices."""
    (i1, j1, c1), (i2, j2, c2) = edge
    a = (min(perm[i1], perm[j1]), max(perm[i1], perm[j1]), perm[c1])
    b = (min(perm[i2], perm[j2]), max(perm[i2], perm[j2]), perm[c2])
    return make_edge(a, b)


def candidate_orbits(q: int, candidates: list[TwoEdge]) -> list[list[int]]:
    """Partition of candidate indices under the vertex-relabeling action.

    The list must be closed under relabeling (the full and nondegenerate
    candidate families are, as is any statically pruned subset of them).
    """
    index = {e: k for k, e in enumerate(candidates)}
    perms = list(itertools.permutations(range(q + 1)))
    seen = [False] * len(candidates)
    orbits: list[list[int]] = []
    for k in range(len(candidates)):
        if seen[k]:
            continue
        members = set()
        for perm in perms:
            image = apply_vertex_permutation(perm, candidates[k])
            j = index.get(image)
            if j is None:
                raise ValueError("candidate list is not closed under vertex relabeling")
            members.add(j)
        for j in members:
            seen[j] = True
        orbits.append(sorted(members))
    return orbits


def pairwise_conflicts(
    q: int,
    candidates: list[TwoEdge],
    base: Family | None = None,
    *,
    _deadline: float | None = None,
) -> list[int]:
    """Bitmask per candidate of the candidates it can never coexist with.

    Conflict means the two-element family (on top of ``base``, when given)
    already fails verification: a shared cell, an opposite-corner pattern
    completed between the two, or a two-edge five-cell pattern.  The
    relation is sound but not complete; larger clashes surface in the
    incremental checks of the search itself.

    The solvers pass their budget as ``_deadline`` (a ``time.monotonic``
    value); once it has passed, no further rows are filled.  A partial
    relation is still sound, it only prunes less.
    """
    scratch, base_placed = ScratchBoard.over(q, () if base is None else base.edges)
    coords = [scratch.coords(e) for e in candidates]
    nondeg = [classify(e) == NONDEGENERATE for e in candidates]
    n = len(candidates)
    masks = [0] * n
    for i in range(n):
        if _deadline is not None and time.monotonic() > _deadline:
            break
        placed_i = base_placed + [(*coords[i], nondeg[i])]
        scratch.place(*coords[i])
        bit_i = 1 << i
        for j in range(i + 1, n):
            if not scratch.insertion_ok(coords[j], nondeg[j], placed_i):
                masks[i] |= 1 << j
                masks[j] |= bit_i
        scratch.unplace(*coords[i])
    return masks


class _BudgetExhausted(Exception):
    pass


class _Search:
    """Depth-first maximizer over a fixed candidate order."""

    def __init__(
        self,
        scratch: ScratchBoard,
        edges: list[TwoEdge],
        coords: list[tuple[int, int, int, int]],
        nondeg: list[bool],
        conflicts: list[int],
        base_placed: list[tuple[int, int, int, int, bool]],
        node_limit: int | None,
        deadline: float | None,
        canonical: bool,
        level0_mask: int | None,
    ):
        self.scratch = scratch
        self.edges = edges
        self.coords = coords
        self.nondeg = nondeg
        self.conflicts = conflicts
        self.node_limit = node_limit
        self.deadline = deadline
        self.canonical = canonical
        self.level0_mask = level0_mask
        self.chosen: list[int] = []
        self.placed: list[tuple[int, int, int, int, bool]] = list(base_placed)
        self.best_size = -1
        self.best_set: tuple[int, ...] = ()
        self.nodes = 0
        self.events: list[dict] = []
        self.exhausted = True
    def seed(self, indices: tuple[int, ...]) -> None:
        self.best_size = len(indices)
        self.best_set = tuple(indices)

    def _certificate_edges(self, indices: tuple[int, ...]) -> tuple[TwoEdge, ...]:
        return tuple(sorted(self.edges[k] for k in indices))

    def _record(self) -> None:
        size = len(self.chosen)
        if size > self.best_size:
            self.best_size = size
            self.best_set = tuple(self.chosen)
            self.events.append(
                {"event": "incumbent", "size": size, "nodes": self.nodes}
            )
        elif self.canonical and size == self.best_size:
            cert = self._certificate_edges(tuple(self.chosen))
            if cert < self._certificate_edges(self.best_set):
                self.best_set = tuple(self.chosen)

    def _budget(self) -> None:
        if self.nodes % 65536 == 0:
            self.events.append(
                {"event": "node", "nodes": self.nodes, "best": self.best_size}
            )
        if self.node_limit is not None and self.nodes >= self.node_limit:
            raise _BudgetExhausted
        if self.deadline is not None and self.nodes % 1024 == 0:
            if time.monotonic() > self.deadline:
                raise _BudgetExhausted

    def run(self, root: int) -> None:
        try:
            self._rec(root, 0)
        except _BudgetExhausted:
            self.exhausted = False

    def _rec(self, remaining: int, depth: int) -> None:
        chosen = len(self.chosen)
        cutoff = self.best_size - 1 if self.canonical else self.best_size
        scratch = self.scratch
        while remaining:
            bound = upper_bound(chosen, remaining.bit_count(), scratch.free_cells)
            if bound <= cutoff:
                return
            i = (remaining & -remaining).bit_length() - 1
            remaining &= remaining - 1
            if depth == 0 and self.level0_mask is not None:
                if not (self.level0_mask >> i) & 1:
                    continue
            self.nodes += 1
            self._budget()
            coords = self.coords[i]
            if scratch.insertion_ok(coords, self.nondeg[i], self.placed):
                scratch.place(*coords)
                self.placed.append((*coords, self.nondeg[i]))
                self.chosen.append(i)
                self._record()
                self._rec(remaining & ~self.conflicts[i], depth + 1)
                self.chosen.pop()
                self.placed.pop()
                scratch.unplace(*coords)
                cutoff = self.best_size - 1 if self.canonical else self.best_size


def _greedy_seed(
    scratch: ScratchBoard,
    coords: list[tuple[int, int, int, int]],
    nondeg: list[bool],
    base_placed: list[tuple[int, int, int, int, bool]],
) -> tuple[int, ...]:
    """Cheap deterministic incumbent: first-fit over the static order."""
    chosen = scratch.first_fit(range(len(coords)), coords, nondeg, list(base_placed))
    for i in reversed(chosen):
        scratch.unplace(*coords[i])
    return tuple(chosen)


def _solve(
    base: Family,
    candidates: list[TwoEdge],
    mode: Mode,
    symmetry: bool,
    order: str,
    canonical_certificate: bool,
    node_limit: int | None,
    time_limit: float | None,
    start: float,
) -> ExactResult:
    """Maximum number of ``candidates`` that extend the verified ``base``.

    The one branch-and-bound core behind both public solvers.  Symmetry
    is sound only when the base is empty and the candidate list is closed
    under vertex relabeling.  Budgets count from ``start`` and must be
    non-negative.
    """
    if node_limit is not None and node_limit < 0:
        raise ValueError(f"node limit must be non-negative, got {node_limit}")
    if time_limit is not None and time_limit < 0:
        raise ValueError(f"time limit must be non-negative, got {time_limit}")
    q = base.q
    deadline = None if time_limit is None else start + time_limit
    scratch, base_placed = ScratchBoard.over(q, base.edges)
    # a candidate that fails against the base alone never fits (hereditarity);
    # on an empty base this is the static prune
    usable, usable_coords, usable_nondeg = scratch.fitting(candidates, base_placed)
    pruned_static = len(candidates) - len(usable)

    conflicts_usable = pairwise_conflicts(q, usable, base, _deadline=deadline)
    perm = list(range(len(usable)))
    if order == "conflicts":
        perm.sort(key=lambda k: -conflicts_usable[k].bit_count())
    edges = [usable[k] for k in perm]
    coords = [usable_coords[k] for k in perm]
    nondeg = [usable_nondeg[k] for k in perm]
    pos_of = {k: p for p, k in enumerate(perm)}
    conflicts = [0] * len(edges)
    for p, k in enumerate(perm):
        mask = conflicts_usable[k]
        while mask:
            j = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            conflicts[p] |= 1 << pos_of[j]

    orbit_count: int | None = None
    level0_mask: int | None = None
    if symmetry and edges:
        orbits = candidate_orbits(q, usable)
        orbit_count = len(orbits)
        level0_mask = 0
        for orbit in orbits:
            level0_mask |= 1 << min(pos_of[k] for k in orbit)

    search = _Search(
        scratch,
        edges,
        coords,
        nondeg,
        conflicts,
        base_placed,
        node_limit,
        deadline,
        canonical_certificate,
        level0_mask,
    )
    seed = _greedy_seed(scratch, coords, nondeg, base_placed)
    search.seed(seed)
    search.events.append(
        {
            "event": "bound",
            "where": "root",
            "value": upper_bound(0, len(edges), scratch.free_cells),
            "incumbent": len(seed),
        }
    )
    search.run((1 << len(edges)) - 1 if edges else 0)

    certificate = Family.from_edges(
        q, list(base.edges) + [edges[k] for k in search.best_set]
    )
    if not verify(certificate).ok:  # pragma: no cover - internal invariant
        raise RuntimeError("exact solver produced an unverifiable certificate")
    status = OPTIMAL if search.exhausted else INCUMBENT
    search.events.append(
        {"event": "done", "status": status, "size": search.best_size, "nodes": search.nodes}
    )
    return ExactResult(
        status=status,
        q=q,
        mode=mode,
        size=search.best_size,
        certificate=certificate,
        z_value=q * (q + 1) + len(certificate),
        nodes=search.nodes,
        elapsed=time.monotonic() - start,
        pruned_static=pruned_static,
        symmetry=symmetry,
        orbit_count=orbit_count,
        events=tuple(search.events),
    )


def solve_exact(
    q: int,
    mode: Mode = "full",
    symmetry: bool = False,
    node_limit: int | None = None,
    time_limit: float | None = None,
    order: str = "conflicts",
    canonical_certificate: bool = False,
) -> ExactResult:
    """Exact maximum admissible family size over the candidate family.

    Returns status "optimal" only when the search tree was exhausted;
    exceeding the node or time budget downgrades the result to
    "incumbent".  The time budget covers the whole call, preprocessing
    included (orbit enumeration under ``symmetry`` excepted).  The
    certificate always passes the full verifier, and the optimal size is
    independent of candidate order and of the symmetry flag.
    """
    start = time.monotonic()
    check_q(q)
    check_mode(mode)
    if order not in ("conflicts", "canonical"):
        raise ValueError(f"order must be 'conflicts' or 'canonical', got {order!r}")
    return _solve(
        Family.from_edges(q, []),
        candidate_family(q, mode),
        mode=mode,
        symmetry=symmetry,
        order=order,
        canonical_certificate=canonical_certificate,
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
    Budgets behave as in ``solve_exact``.
    """
    start = time.monotonic()
    if not verify(base).ok:
        raise ValueError("base family fails verification")
    return _solve(
        base,
        candidates,
        mode="full",
        symmetry=False,
        order="conflicts",
        canonical_certificate=False,
        node_limit=node_limit,
        time_limit=time_limit,
        start=start,
    )
