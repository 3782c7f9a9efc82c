"""Command-line interface.

Data goes to stdout as JSON (or, for failed verification, as the
violation-report text format); human-readable progress goes to stderr and
is silenced by ``--quiet``.  Exit codes: 0 success / verified / optimal,
1 failed verification or unproven optimality, 2 usage and input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .board import MODES, NONDEGENERATE, classify, counting_summary
from .families import FamilyFormatError, parse_family, serialize_family
from .admissibility import verify
from .ilp import (
    SolutionFormatError,
    build_model,
    export_lp,
    import_solution,
    parse_solution_file,
)
from .exact import solve_exact
from .search import SearchConfig, run_search
from .lifting import embed, lift_extend
from .recognition import (
    GraphFormatError,
    Isomorphism,
    parse_graph,
    recognize_incidence,
)
from .fixtures import REFERENCE_QS, gap_ratio, k4t_bound, reference_family, reference_table


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _stderr_json(kind: str, message: str, **extra) -> None:
    payload = {"error": kind, "message": message}
    payload.update(extra)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def _progress(quiet: bool):
    if quiet:
        return None
    return lambda line: print(line, file=sys.stderr)


def _say(quiet: bool, line: str) -> None:
    if not quiet:
        print(line, file=sys.stderr)


def _load(path: str, parse):
    """``parse`` applied to an input file's UTF-8 text; a file that fails either exits 2."""
    try:
        return parse(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise _CliError(2, "io", f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _CliError(2, "parse", f"{path}: not UTF-8 text: {exc}") from None
    except (FamilyFormatError, GraphFormatError, SolutionFormatError) as exc:
        raise _CliError(2, "parse", f"{path}: {exc}") from None


def _check_output_dirs(args) -> None:
    """Fail before any work when an ``--out`` or ``--log`` path has no directory or is one."""
    for path in (getattr(args, "out", None), getattr(args, "log", None)):
        if path and not Path(path).parent.is_dir():
            raise _CliError(2, "io", f"cannot write {path}: no such directory")
        if path and Path(path).is_dir():
            raise _CliError(2, "io", f"cannot write {path}: is a directory")


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _CliError(2, "io", f"cannot write {path}: {exc}") from None


class _CliError(Exception):
    def __init__(self, code: int, kind: str, message: str):
        super().__init__(message)
        self.code = code
        self.kind = kind


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a JSON usage error (exit code 2).

    Subparsers inherit this class; ``--help`` still prints and exits 0.
    """

    def error(self, message: str):
        raise _CliError(2, "usage", message)


def _cmd_verify(args) -> int:
    family = _load(args.file, parse_family)
    result = verify(family)
    if result.ok:
        _say(args.quiet, f"PASS: {len(family)} 2-edges on the q={family.q} board")
        _emit({"ok": True, "q": family.q, "size": len(family)})
        return 0
    _say(args.quiet, f"FAIL: {len(result.violations)} violations")
    print(result.report())
    return 1


def _cmd_solve_exact(args) -> int:
    result = solve_exact(
        args.q,
        mode=args.mode,
        symmetry=args.symmetry,
        node_limit=args.node_limit,
        time_limit=args.time_limit,
    )
    m = result.q * (result.q + 1) // 2
    n = result.q + 1
    _say(
        args.quiet,
        f"{result.status} |E2|={result.size}, z_L({m},{n})={result.z_value}"
        f" [{result.nodes} nodes, {result.elapsed:.2f}s]",
    )
    if args.out:
        _write(args.out, serialize_family(result.certificate))
    if args.log:
        _write(args.log, "".join(json.dumps(e, sort_keys=True) + "\n" for e in result.events))
    _emit(
        {
            "status": result.status,
            "q": result.q,
            "mode": result.mode,
            "size": result.size,
            "z_value": result.z_value,
            "nodes": result.nodes,
            "pruned_static": result.pruned_static,
            "symmetry": result.symmetry,
            "orbit_count": result.orbit_count,
        }
    )
    return 0 if result.optimal else 1


def _cmd_search(args) -> int:
    warm = _load(args.warm_start, parse_family) if args.warm_start else None
    config = SearchConfig(
        q=args.q,
        mode=args.mode,
        seed=args.seed,
        restarts=args.restarts,
        time_limit=args.time_limit,
        delete_width=args.delete_width,
        warm_start=warm,
    )
    result = run_search(config, progress=_progress(args.quiet))
    if args.out:
        _write(args.out, serialize_family(result.best))
    print(result.summary_json())
    return 0


def _cmd_lift(args) -> int:
    family = _load(args.input, parse_family)
    report = lift_extend(
        family,
        seed=args.seed,
        restarts=args.restarts,
        delete_width=args.delete_width,
        oracle_on_shortfall=not args.no_oracle,
        oracle_node_limit=args.node_limit,
        progress=_progress(args.quiet),
    )
    if args.out:
        _write(args.out, serialize_family(report.family))
    print(report.summary_json())
    return 0


def _cmd_export_ilp(args) -> int:
    model = build_model(args.q, mode=args.mode, prune_static=args.prune)
    _write(args.out, export_lp(model))
    counts = model.counts()
    _emit(
        {
            "q": model.q,
            "mode": model.mode,
            "prune": model.prune_static,
            "variables": counts["variables"],
            "rows": {"S": counts["S"], "C2": counts["C2"], "C3": counts["C3"]},
            "fixed_zero": counts["fixed_zero"],
            "path": args.out,
        }
    )
    return 0


def _cmd_import_solution(args) -> int:
    model = build_model(args.model_q, mode=args.mode, prune_static=args.prune)
    values = _load(args.solution, lambda text: parse_solution_file(text, model))
    imported = import_solution(model, values)
    if args.out:
        _write(args.out, serialize_family(imported.family))
    _emit(
        {
            "q": model.q,
            "size": len(imported.family),
            "objective": imported.objective,
            "ilp_feasible": imported.ilp_feasible,
            "violated_rows": list(imported.violated_rows[:20]),
            "verifier_ok": imported.verifier.ok,
            "consistent": imported.consistent,
        }
    )
    return 0 if imported.ilp_feasible and imported.verifier.ok else 1


def _cmd_stats(args) -> int:
    _emit(counting_summary(args.q).as_dict())
    return 0


def _cmd_families(args) -> int:
    qs = [args.q] if args.q is not None else list(REFERENCE_QS)
    for q in qs:
        if q not in REFERENCE_QS:
            raise _CliError(2, "usage", f"no bundled family for q={q}")
    if args.emit:
        if args.q is None:
            raise _CliError(2, "usage", "--emit requires --q")
        print(serialize_family(reference_family(args.q)), end="")
        return 0
    rows = []
    for q in qs:
        family = reference_family(q)
        result = verify(family)
        rows.append(
            {
                "q": q,
                "size": len(family),
                "verified": result.ok,
                "nondegenerate": all(classify(e) == NONDEGENERATE for e in family.edges),
            }
        )
    _emit(rows)
    return 0


def _cmd_ratios(args) -> int:
    gap_rows = []
    for row in reference_table():
        if row.q < 4:
            continue
        gap_rows.append(
            {
                "q": row.q,
                "z": row.z,
                "z_limited": row.z_limited,
                "exact": row.exact,
                "gap_percent": round(gap_ratio(row.q), 1),
            }
        )
    _emit(
        {
            "gap_ratios": gap_rows,
            "block_construction": [{"t": t, "bound": k4t_bound(t)} for t in (1, 2)],
        }
    )
    return 0


def _cmd_recognize(args) -> int:
    graph = _load(args.graph, parse_graph)
    outcome = recognize_incidence(graph)
    if isinstance(outcome, Isomorphism):
        _emit(
            {
                "isomorphic": True,
                "n": graph.right,
                "left_map": [list(pair) for pair in outcome.left_map],
                "right_map": list(outcome.right_map),
            }
        )
        return 0
    _emit({"isomorphic": False, "reason": outcome.reason, "detail": outcome.detail})
    return 1


def _cmd_repro(args) -> int:
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append((name, ok, detail))
        print(json.dumps({"check": name, "ok": ok, "detail": detail}, sort_keys=True))

    for row in reference_table():
        family = reference_family(row.q)
        result = verify(family)
        nondeg = all(classify(e) == NONDEGENERATE for e in family.edges)
        ok = result.ok and len(family) == row.z_limited - row.z and nondeg
        check(
            f"family-q{row.q}",
            ok,
            f"size={len(family)} verified={result.ok} nondegenerate={nondeg}",
        )

    counting = {
        "counting-q3": (counting_summary(3).full, 66),
        "counting-q4": (counting_summary(4).full, 435),
        "counting-q5-available": (counting_summary(5).available, 60),
        "counting-q5-full": (counting_summary(5).full, 1770),
        "counting-q5-nondeg": (counting_summary(5).nondeg, 1410),
    }
    for name, (got, want) in counting.items():
        check(name, got == want, f"got={got} expected={want}")

    exact3 = solve_exact(3)
    check(
        "exact-q3",
        exact3.optimal and exact3.size == 2 and exact3.z_value == 14,
        f"status={exact3.status} size={exact3.size} z={exact3.z_value}",
    )
    if not args.skip_q4:
        exact4 = solve_exact(4, symmetry=True)
        check(
            "exact-q4",
            exact4.optimal and exact4.size == 6 and exact4.z_value == 26,
            f"status={exact4.status} size={exact4.size} z={exact4.z_value}",
        )

    expected_gaps = {4: 30.0, 5: 43.3, 6: 52.4, 7: 57.1}
    for q, want in expected_gaps.items():
        got = round(gap_ratio(q), 1)
        check(f"ratio-q{q}", got == want, f"got={got} expected={want}")
    check("block-t1", k4t_bound(1) == 14, f"got={k4t_bound(1)} expected=14")
    check("block-t2", k4t_bound(2) == 68, f"got={k4t_bound(2)} expected=68")

    for q in REFERENCE_QS:
        lifted = embed(reference_family(q))
        check(f"embed-q{q}", verify(lifted).ok, f"to_q={lifted.q} size={len(lifted)}")

    for q, want_target, want_bound in ((4, 8, 38), (5, 15, 57)):
        report = lift_extend(reference_family(q), seed=0, restarts=2, delete_width=1)
        ok = report.target == want_target and (
            not report.met_target or report.bound >= want_bound
        )
        check(
            f"lift-q{q}",
            ok and report.met_target,
            f"target={report.target} achieved={report.achieved} bound={report.bound}"
            f" met={report.met_target}",
        )

    failed = sum(1 for _, ok, _ in checks if not ok)
    print(
        json.dumps(
            {"event": "summary", "passed": len(checks) - failed, "failed": failed},
            sort_keys=True,
        )
    )
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="zlq",
        description="Exact and heuristic computations of limited augmented "
        "Zarankiewicz numbers on incidence boards of complete graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_quiet(p):
        p.add_argument("--quiet", action="store_true", help="silence stderr progress")

    p = sub.add_parser("verify", help="verify a family file; exit 0 iff admissible")
    p.add_argument("file")
    add_quiet(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("solve-exact", help="exact maximum family via branch and bound")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--symmetry", action="store_true",
                   help="restrict first-level branching to orbit representatives")
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None, help="seconds")
    p.add_argument("--out", help="write the certificate family file here")
    p.add_argument("--log", help="write node/bound/incumbent events as JSON lines")
    add_quiet(p)
    p.set_defaults(func=_cmd_solve_exact)

    p = sub.add_parser("search", help="randomized greedy search with restarts")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--time-limit", type=float, default=None, help="seconds")
    p.add_argument("--delete-width", type=int, choices=[1, 2], default=1)
    p.add_argument("--warm-start", help="family file to start every restart from")
    p.add_argument("--out", help="write the best family file here")
    add_quiet(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("lift", help="embed a family one board up and extend it")
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=16)
    p.add_argument("--delete-width", type=int, choices=[1, 2], default=2)
    p.add_argument("--no-oracle", action="store_true",
                   help="skip the exact sub-solve when the target is missed")
    p.add_argument("--node-limit", type=int, default=20_000_000,
                   help="node budget for the exact sub-solve")
    add_quiet(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("export-ilp", help="write the 0-1 model in LP format")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--prune", action="store_true",
                   help="fix statically infeasible candidates to zero")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export_ilp)

    p = sub.add_parser("import-solution", help="extract and verify a solver assignment")
    p.add_argument("--model-q", type=int, required=True)
    p.add_argument("--mode", choices=MODES, default="full")
    p.add_argument("--prune", action="store_true")
    p.add_argument("--solution", required=True)
    p.add_argument("--out", help="write the extracted family file here")
    p.set_defaults(func=_cmd_import_solution)

    p = sub.add_parser("stats", help="board and candidate counts as JSON")
    p.add_argument("--q", type=int, required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("families", help="list or emit the bundled families")
    p.add_argument("--q", type=int)
    p.add_argument("--emit", action="store_true", help="print the family file text")
    p.set_defaults(func=_cmd_families)

    p = sub.add_parser("ratios", help="gap ratios and block-construction bounds")
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("recognize", help="recognize an incidence graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("repro", help="re-run the bundled value and bound checks")
    p.add_argument("--skip-q4", action="store_true",
                   help="skip the exact q=4 computation")
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_output_dirs(args)
        return args.func(args)
    except _CliError as exc:
        _stderr_json(exc.kind, str(exc))
        return exc.code
    except ValueError as exc:
        _stderr_json("usage", str(exc))
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
