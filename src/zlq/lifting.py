"""Embedding a family into the next-size board and extending it.

A verified family on the q-board remains admissible verbatim on the
(q+1)-board: the new rows carry only their two 1-edge cells, and a row
with fewer than three occupied cells can neither host a witness pattern
nor complete an opposite-corner pair.  The extension step targets
``floor(q/2)`` additional 2-edges; the plain search, warm-started from
the embedded family, usually finds them, and an exact sub-solve restricted
to new-vertex candidates over the frozen base adjudicates when it does
not.  Whether the target was met is always reported explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .board import TwoEdge, candidate_family, check_budget, touches_vertex
from .families import Family
from .admissibility import verify
from .exact import solve_extension
from .search import Progress, SearchConfig, run_search


@dataclass(frozen=True)
class LiftReport:
    from_q: int
    to_q: int
    base_size: int
    target: int  # base_size + floor(from_q / 2)
    achieved: int  # size of the best verified extended family
    met_target: bool
    bound: int  # to_q * (to_q + 1) + achieved
    oracle: str | None  # None, "optimal" or "incumbent" when the sub-solve ran
    family: Family

    def summary_json(self) -> str:
        """Every field but the family, as compact sorted JSON."""
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "family"}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def embed(family: Family) -> Family:
    """Reinterpret a verified q-board family on the (q+1)-board."""
    if not verify(family).ok:
        raise ValueError("input family fails verification")
    lifted = Family.from_edges(family.q + 1, family.edges)
    check = verify(lifted)
    if not check.ok:  # pragma: no cover - structurally impossible
        raise RuntimeError("embedding broke admissibility:\n" + check.report())
    return lifted


def new_vertex_candidates(q: int, candidates: list[TwoEdge]) -> list[TwoEdge]:
    """Candidates with at least one half in a new row or the new column.

    ``q`` is the target board parameter; its largest vertex is the new one.
    """
    return [e for e in candidates if touches_vertex(e, q)]


def lift_extend(
    family: Family,
    seed: int = 0,
    restarts: int = 16,
    delete_width: int = 2,
    oracle_on_shortfall: bool = True,
    oracle_node_limit: int | None = 20_000_000,
    progress: Progress | None = None,
) -> LiftReport:
    """Embed, extend by warm-started search, and report target attainment.

    The extension is ``run_search`` on the (q+1)-board with the embedded
    family as its warm start and no other setting of its own.  When the
    search falls short of the target and ``oracle_on_shortfall``
    is set, an exact branch-and-bound over the new-vertex candidates (base
    frozen) decides whether the restricted extension can reach it.  The
    returned family always passes the full verifier (the search and the
    exact sub-solve each raise on a result that fails it) and is never
    smaller than the input.  A negative or NaN ``oracle_node_limit`` is rejected
    before anything runs.
    """
    check_budget("oracle node limit", oracle_node_limit)
    base = embed(family)
    target = len(family) + family.q // 2
    config = SearchConfig(
        q=base.q,
        mode="full",
        seed=seed,
        restarts=restarts,
        delete_width=delete_width,
        warm_start=base,
    )
    result = run_search(config, progress=progress)
    best_family = result.best
    achieved = result.best_size
    oracle: str | None = None

    if achieved < target and oracle_on_shortfall:
        if progress is not None:
            progress(f"search reached {achieved} < target {target}; running exact sub-solve")
        pool = new_vertex_candidates(base.q, candidate_family(base.q, "full"))
        sub = solve_extension(base, pool, node_limit=oracle_node_limit)
        oracle = sub.status
        if len(sub.certificate) > achieved:
            best_family = sub.certificate
            achieved = len(sub.certificate)

    return LiftReport(
        from_q=family.q,
        to_q=base.q,
        base_size=len(family),
        target=target,
        achieved=achieved,
        met_target=achieved >= target,
        bound=base.q * (base.q + 1) + achieved,
        oracle=oracle,
        family=best_family,
    )
