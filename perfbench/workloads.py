"""The four benchmark workloads: their inputs, their ops and each op's checks.

A workload's *job* is a fixed list of ops built at set-up time; the run's
``--seed`` shuffles their order.  An op is
one call into the library's public API (or, for the ILP round trip and
the lift, a short fixed chain of calls).  Ops look their functions up on
the ``zlq`` modules when they run, so trace hooks installed after set-up
see them; the checks use the ``verify`` captured at set-up, so a check is
never traced or timed.

``smoke=True`` swaps every workload onto the q=3 board, where a job takes
well under a second; the benchmark's own tests use it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# q=4 exact proof: the ROADMAP re-anchor value of the branch-and-bound tree
Q4_NODES = 318_197
Q5_NODE_BUDGET = 100_000

# Op seeds of the seeded workloads.  They are fixed, not drawn from --seed,
# because the cost of one search restart varies by about 18% between seeds;
# --seed only orders the job's ops.
DEFAULT_OP_SEEDS = {"search-q7": (0, 1), "lift-export": (0, 1)}

WORKLOADS = ("exact-q4", "exact-q5-budget", "search-q7", "lift-export")


@dataclass(frozen=True)
class Op:
    key: str  # ops with equal keys do identical work
    run: Callable[[], object]
    # failure messages for a result; empty when every check passes
    check: Callable[[object], list[str]]
    # size of the verified family the op found, or None
    family_size: Callable[[object], int | None]


def op_seeds(workload: str, explicit: list[int] | None) -> list[int]:
    """The op seeds of one job: the explicit ones, or the workload's defaults."""
    if workload not in DEFAULT_OP_SEEDS:
        return []
    return list(explicit) if explicit else list(DEFAULT_OP_SEEDS[workload])


def _no_size(result) -> None:
    return None


def build_job(zlq, workload: str, seeds: list[int], order_seed: int, smoke: bool) -> list[Op]:
    """Build the workload's inputs and return its job, in the order ``order_seed`` gives."""
    job = _ops(zlq, workload, seeds, smoke)
    random.Random(order_seed).shuffle(job)
    return job


def _ops(zlq, workload: str, seeds: list[int], smoke: bool) -> list[Op]:
    verify = zlq.verify

    def verified(family, label: str) -> list[str]:
        return [] if verify(family).ok else [f"{label} fails verify"]

    if workload == "exact-q4":
        q, size = (3, 2) if smoke else (4, 6)

        def check(r) -> list[str]:
            fails = verified(r.certificate, "certificate")
            if r.status != "optimal" or r.size != size or r.z_value != q * (q + 1) + size:
                fails.append(f"expected optimal size {size}, got {r.status} {r.size} z={r.z_value}")
            return fails

        op = Op(
            f"solve_exact q={q}", lambda: zlq.solve_exact(q, symmetry=True), check, lambda r: r.size
        )
        return [op] * 3

    if workload == "exact-q5-budget":
        q, budget = (3, 2) if smoke else (5, Q5_NODE_BUDGET)

        def check(r) -> list[str]:
            fails = verified(r.certificate, "certificate")
            if r.status != "incumbent" or r.nodes != budget:
                fails.append(f"expected incumbent at {budget} nodes, got {r.status} at {r.nodes}")
            return fails

        op = Op(
            f"solve_exact q={q} node_limit={budget}",
            lambda: zlq.solve_exact(q, symmetry=True, node_limit=budget),
            check,
            lambda r: r.size,
        )
        return [op] * 2

    if workload == "search-q7":
        q = 3 if smoke else 7

        def check(r) -> list[str]:
            fails = verified(r.best, "best family")
            if not r.verified or r.best_size != len(r.best) or r.best_size < 1:
                fails.append(f"bad search result: verified={r.verified} size={r.best_size}")
            return fails

        def search_op(config) -> Op:
            key = f"run_search q={q} seed={config.seed}"
            return Op(key, lambda: zlq.run_search(config), check, lambda r: r.best_size)

        return [search_op(zlq.SearchConfig(q=q, seed=s, restarts=1)) for s in seeds]

    if workload == "lift-export":
        return _lift_export_job(zlq, seeds, smoke, verified)

    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def _lift_export_job(zlq, seeds, smoke, verified) -> list[Op]:
    """Per seed: one lift and two ILP round trips, so ILP work is over a third."""
    ilp = zlq.ilp
    lift_base = zlq.reference_family(3 if smoke else 5)
    ilp_q = 3 if smoke else 4
    ilp_family = zlq.reference_family(ilp_q)

    def round_trip():
        out = []
        for prune in (False, True):
            model = zlq.build_model(ilp_q, prune_static=prune)
            lp_text = zlq.export_lp(model)
            values = ilp.family_to_assignment(model, ilp_family)
            solution = "".join(f"{name} {v}\n" for name, v in zip(model.var_names, values))
            imported = zlq.import_solution(model, ilp.parse_solution_file(solution, model))
            out.append((lp_text, imported))
        return out

    def check_round_trip(out) -> list[str]:
        fails = []
        for lp_text, imported in out:
            if not lp_text.endswith("End\n"):
                fails.append("LP text is truncated")
            if imported.violated_rows or not imported.ilp_feasible:
                fails.append(f"ILP import violates {len(imported.violated_rows)} rows")
            if not imported.verifier.ok or not imported.consistent:
                fails.append("ILP import disagrees with the verifier")
            if imported.family != ilp_family:
                fails.append("ILP import changed the family")
        return fails

    def lift(seed: int):
        report = zlq.lift_extend(lift_base, seed=seed, restarts=2, delete_width=1)
        published = zlq.parse_family(zlq.serialize_family(report.family))
        return report, published

    def check_lift(out) -> list[str]:
        report, published = out
        fails = verified(report.family, "lifted family")
        if not report.met_target or report.achieved != len(report.family):
            fails.append(f"lift reached {report.achieved} of target {report.target}")
        if published != report.family:
            fails.append("serialized family does not parse back to itself")
        return fails

    ilp_op = Op(f"ilp_round_trip q={ilp_q}", round_trip, check_round_trip, _no_size)
    job = []
    for s in seeds:
        job.append(ilp_op)
        key = f"lift_extend q={lift_base.q} seed={s}"
        job.append(Op(key, lambda s=s: lift(s), check_lift, lambda out: out[0].achieved))
        job.append(ilp_op)
    return job
