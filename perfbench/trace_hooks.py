"""Trace hooks for the traced benchmark run.

Each hook wraps one public function or method of a ``zlq`` module.  A
function that other modules bind with ``from ... import`` is replaced in
every loaded ``zlq`` module that holds it, so every call site is seen; a
method is replaced on its class.  Nothing under ``src/`` changes.

A hook records calls, total seconds and self seconds (total minus the
time spent in wrapped calls nested inside it), plus the counters its
``observe`` function extracts from the arguments and the result.  A hook
whose target no longer exists is reported as missing, and the metrics fed
only by missing hooks are left out rather than reported as zero.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


def _observe_insertion_ok(stats, args, result):
    # insertion_ok(self, coords, nondeg, placed): every placed edge is re-checked
    stats.counts["rechecked_edges"] += len(args[3])
    if result:
        stats.counts["accepted"] += 1


def _observe_conflicts(stats, args, result):
    stats.counts["conflict_pairs"] += sum(mask.bit_count() for mask in result) // 2


def _observe_nodes(stats, args, result):
    stats.counts["nodes"] += result.nodes


def _observe_restarts(stats, args, result):
    stats.counts["restarts"] += len(result.restart_sizes)


def _observe_shuffle(stats, args, result):
    # shuffle(self, items)
    stats.counts["items"] += len(args[1])


def _observe_rows(stats, args, result):
    stats.counts["rows"] += len(result.rows)


def _observe_bytes(stats, args, result):
    stats.counts["bytes"] += len(result.encode("utf-8"))


# (hook name, module, attribute path, observe)
HOOKS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("admissibility.insertion_ok", "zlq.admissibility", "ScratchBoard.insertion_ok",
     _observe_insertion_ok),
    ("admissibility.static_prune_flags", "zlq.admissibility", "static_prune_flags", None),
    ("admissibility.verify", "zlq.admissibility", "verify", None),
    ("exact.pairwise_conflicts", "zlq.exact", "pairwise_conflicts", _observe_conflicts),
    ("exact.candidate_orbits", "zlq.exact", "candidate_orbits", None),
    ("exact.solve_exact", "zlq.exact", "solve_exact", _observe_nodes),
    ("exact.solve_extension", "zlq.exact", "solve_extension", _observe_nodes),
    ("search.run_search", "zlq.search", "run_search", _observe_restarts),
    ("rng.shuffle", "zlq.rng", "SplitMix64.shuffle", _observe_shuffle),
    ("lifting.embed", "zlq.lifting", "embed", None),
    ("lifting.lift_extend", "zlq.lifting", "lift_extend", None),
    ("ilp.build_model", "zlq.ilp", "build_model", _observe_rows),
    ("ilp.export_lp", "zlq.ilp", "export_lp", _observe_bytes),
    ("ilp.import_solution", "zlq.ilp", "import_solution", None),
    ("families.parse_family", "zlq.families", "parse_family", None),
    ("families.serialize_family", "zlq.families", "serialize_family", None),
    ("board.candidate_family", "zlq.board", "candidate_family", None),
)


@dataclass
class HookStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: _ZeroDict())


class _ZeroDict(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Installs the hooks, accumulates per-hook statistics, and removes them."""

    def __init__(self):
        self.stats = {name: HookStats() for name, *_ in HOOKS}
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        # child-time accumulators of the open spans; the bottom entry is the
        # untraced caller
        self._stack = [0.0]

    def _wrap(self, name: str, fn: Callable, observe: Callable | None) -> Callable:
        stats = self.stats
        stack = self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                s = stats[name]
                s.calls += 1
                s.total_s += dt
                s.self_s += dt - child
            if observe is not None:
                observe(s, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "zlq" or key.startswith("zlq.")]
        for name, module_name, attr_path, observe in HOOKS:
            module = sys.modules.get(module_name)
            owner, attr = module, attr_path
            if module is not None and "." in attr_path:
                cls_name, attr = attr_path.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, observe)
            if owner is not module:  # a method: patch the class
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for m in modules:  # a function: patch every module-level binding
                if getattr(m, attr, None) is original:
                    self._undo.append((m, attr, original))
                    setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def snapshot(self) -> dict[str, dict]:
        """Plain-data copy of every present hook's statistics."""
        return {
            name: {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s, **s.counts}
            for name, s in self.stats.items()
            if name not in self.missing
        }


def _sum(hooks: tuple[str, ...], key: str):
    return lambda snap: sum(snap[h].get(key, 0) for h in hooks if h in snap)


def _ratio(hook: str, num: str, den: str):
    def value(snap):
        d = snap[hook].get(den, 0)
        return snap[hook].get(num, 0) / d if d else 0.0

    return value


def _of(hooks: str | tuple[str, ...], key: str, unit: str = "s"):
    """A metric summing ``key`` over one hook or several; lower is better."""
    hooks = (hooks,) if isinstance(hooks, str) else hooks
    return unit, "lower", hooks, _sum(hooks, key)


_INSERT = "admissibility.insertion_ok"
_TREE = ("exact.solve_exact", "exact.solve_extension")

# metric name -> (unit, better, hooks it reads, value from a snapshot)
LAYER_METRICS: dict[str, tuple[str, str, tuple[str, ...], Callable]] = {
    "admissibility.insertion_ok.calls": _of(_INSERT, "calls", "count"),
    "admissibility.insertion_ok.s": _of(_INSERT, "total_s"),
    "admissibility.insertion_ok.rechecked_edges": _of(_INSERT, "rechecked_edges", "count"),
    "admissibility.insertion_ok.accept_ratio": (
        "ratio", "higher", (_INSERT,), _ratio(_INSERT, "accepted", "calls")
    ),
    "admissibility.static_prune_flags.s": _of("admissibility.static_prune_flags", "total_s"),
    "admissibility.verify.calls": _of("admissibility.verify", "calls", "count"),
    "admissibility.verify.s": _of("admissibility.verify", "total_s"),
    "exact.pairwise_conflicts.s": _of("exact.pairwise_conflicts", "total_s"),
    "exact.conflict_pairs": _of("exact.pairwise_conflicts", "conflict_pairs", "count"),
    "exact.candidate_orbits.s": _of("exact.candidate_orbits", "total_s"),
    "exact.nodes": _of(_TREE, "nodes", "count"),
    # the tree: solver time outside every hooked call (kernel, conflicts, verify, ...)
    "exact.tree.self_s": _of(_TREE, "self_s"),
    "exact.solve_extension.calls": _of("exact.solve_extension", "calls", "count"),
    "search.restarts": _of("search.run_search", "restarts", "count"),
    "search.run_search.self_s": _of("search.run_search", "self_s"),
    "rng.shuffle.calls": _of("rng.shuffle", "calls", "count"),
    "rng.shuffle.items": _of("rng.shuffle", "items", "count"),
    "rng.shuffle.s": _of("rng.shuffle", "total_s"),
    "lifting.embed.s": _of("lifting.embed", "total_s"),
    "lifting.lift_extend.self_s": _of("lifting.lift_extend", "self_s"),
    "ilp.build_model.s": _of("ilp.build_model", "total_s"),
    "ilp.rows": _of("ilp.build_model", "rows", "count"),
    "ilp.export_lp.s": _of("ilp.export_lp", "total_s"),
    "ilp.export_lp.bytes": _of("ilp.export_lp", "bytes", "bytes"),
    "ilp.import_solution.s": _of("ilp.import_solution", "total_s"),
    "families.parse_family.s": _of("families.parse_family", "total_s"),
    "families.serialize_family.s": _of("families.serialize_family", "total_s"),
    "board.candidate_family.s": _of("board.candidate_family", "total_s"),
}

# work counts that must repeat exactly between two runs of the same ops
DETERMINISTIC = (
    "exact.nodes",
    "exact.conflict_pairs",
    "admissibility.insertion_ok.calls",
    "admissibility.insertion_ok.rechecked_edges",
    "rng.shuffle.items",
)


def layer_metrics(snap: dict[str, dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values from a snapshot, and the names left missing."""
    values, missing = {}, []
    for name, (_unit, _better, hooks, value) in LAYER_METRICS.items():
        if any(h in snap for h in hooks):
            values[name] = value(snap)
        else:
            missing.append(name)
    return values, missing
