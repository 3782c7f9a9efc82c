"""Shared helpers for the test suite: brute-force oracles and samplers."""

from __future__ import annotations

import hashlib
import random

from zlq import Family, available_cells, candidate_family, make_edge, verify
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


def family_sha256(family: Family) -> str:
    """SHA-256 of a family's file form; pins a search path in one value."""
    return hashlib.sha256(serialize_family(family).encode()).hexdigest()
