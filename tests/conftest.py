"""Shared helpers for the test suite: brute-force oracles, samplers and pinned data."""

from __future__ import annotations

import hashlib
import random

from zlq import Family, available_cells, candidate_family, classify, make_edge, verify
from zlq.board import NONDEGENERATE
from zlq.families import serialize_family


def brute_force_optimum(q: int) -> int:
    """Maximum admissible family size by enumerating every candidate subset.

    Only feasible for tiny boards (q=2 has 3 candidates).
    """
    candidates = candidate_family(q, "full")
    best = 0
    for mask in range(1 << len(candidates)):
        subset = [candidates[k] for k in range(len(candidates)) if (mask >> k) & 1]
        if verify(Family.from_edges(q, subset)).ok:
            best = max(best, len(subset))
    return best


def random_edge(rng: random.Random, q: int):
    """Uniform random 2-edge: two distinct available cells."""
    cells = available_cells(q)
    a, b = rng.sample(cells, 2)
    return make_edge(a, b)


def random_subfamily(rng: random.Random, family: Family) -> Family:
    """Uniform random subset of a family's edges."""
    chosen = [e for e in family.edges if rng.random() < 0.5]
    return Family.from_edges(family.q, chosen)


def random_family(rng: random.Random, q: int, max_size: int) -> Family:
    """Random edge set (not necessarily admissible) without duplicate edges."""
    n_cells = len(available_cells(q))
    size = rng.randint(0, min(max_size, n_cells * (n_cells - 1) // 2))
    edges = set()
    while len(edges) < size:
        edges.add(random_edge(rng, q))
    return Family.from_edges(q, edges)


def kernel_fitting(board, candidates, placed):
    """The candidates ``board.insertion_ok`` accepts against ``placed``, each judged alone.

    The per-candidate kernel loop that ``ScratchBoard.fitting`` must equal:
    the kept edges, coords and nondegeneracy flags, in candidate order.
    """
    edges, coords, nondeg = [], [], []
    for e in candidates:
        ce, nd = board.coords(e), classify(e) == NONDEGENERATE
        if board.insertion_ok(ce, nd, placed):
            edges.append(e)
            coords.append(ce)
            nondeg.append(nd)
    return edges, coords, nondeg


def table_fields(table) -> tuple:
    """Every field of a ``CandidateTable``, in slot order, to compare tables whole."""
    return tuple(getattr(table, name) for name in type(table).__slots__)


def family_sha256(family: Family) -> str:
    """SHA-256 of a family's file form; pins a search path in one value."""
    return hashlib.sha256(serialize_family(family).encode()).hexdigest()


# breaks S twice, C2 for edges 0 and 2, and C3 at two witnesses of edge 1
S_C2_C3_FAMILY = "q 3\nedge 0 1 2 ; 0 3 1\nedge 0 1 2 ; 0 3 2\nedge 0 3 2 ; 1 2 3\n"
S_C2_C3_REPORT = """\
S cell=(0,1|2) edges=[0,1]
S cell=(0,3|2) edges=[1,2]
C2 edge=0 cells=(0,1|1),(0,3|2)
C3 edge=1 witness=(0,2|0) cells=(0,2|0),(0,2|2),(0,2|2),(0,1|0),(0,3|0)
C3 edge=1 witness=(1,2|1) cells=(1,2|1),(1,2|2),(1,2|2),(0,1|1),(0,3|1)
C2 edge=2 cells=(0,3|3),(1,2|2)"""
