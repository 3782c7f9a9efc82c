import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zlq
from zlq.cli import main
from zlq.families import parse_family, serialize_family
from zlq.fixtures import reference_family
from zlq.ilp import build_model, family_to_assignment
from zlq.recognition import incidence_graph

from conftest import S_C2_C3_FAMILY, S_C2_C3_REPORT


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_family(tmp_path, q, name="fam.zlq"):
    path = tmp_path / name
    path.write_text(serialize_family(reference_family(q)), encoding="utf-8")
    return path


def test_verify_pass(tmp_path, capsys):
    path = write_family(tmp_path, 5)
    code, out, _ = run_cli(capsys, "verify", str(path), "--quiet")
    assert code == 0
    assert json.loads(out) == {"ok": True, "q": 5, "size": 13}


def test_verify_fail_prints_report(tmp_path, capsys):
    bad = tmp_path / "bad.zlq"
    bad.write_text("q 3\nedge 0 1 2 ; 0 3 1\nedge 0 1 2 ; 1 3 0\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(bad), "--quiet")
    assert code == 1
    assert out.splitlines()[0] == "S cell=(0,1|2) edges=[0,1]"


def test_verify_fail_prints_the_whole_report_in_order(tmp_path, capsys):
    bad = tmp_path / "bad.zlq"
    bad.write_text(S_C2_C3_FAMILY, encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", str(bad), "--quiet")
    assert code == 1
    assert out == S_C2_C3_REPORT + "\n"


def test_verify_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.zlq"
    bad.write_text("q 3\nedge 0 1 0 ; 2 3 1\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "verify", str(bad), "--quiet")
    assert code == 2
    assert json.loads(err)["error"] == "parse"


def test_verify_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent.zlq", "--quiet")
    assert code == 2
    assert json.loads(err)["error"] == "io"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{bad}", "--quiet"],
        ["search", "--q", "3", "--restarts", "1", "--quiet", "--warm-start", "{bad}"],
        ["recognize", "--graph", "{bad}"],
        ["import-solution", "--model-q", "3", "--solution", "{bad}"],
    ],
    ids=["verify", "search-warm-start", "recognize", "import-solution"],
)
def test_non_utf8_input_is_a_parse_error_naming_the_file(tmp_path, capsys, argv):
    bad = tmp_path / "bad.zlq"
    bad.write_bytes(b"\xff\xfe q 3\n")
    code, out, err = run_cli(capsys, *(arg.format(bad=bad) for arg in argv))
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "parse"
    assert str(bad) in payload["message"]


def test_usage_error_exits_2(capsys):
    for argv, detail in (
        (["no-such-command"], "invalid choice"),
        (["solve-exact", "--q", "abc"], "invalid int value"),
        (["solve-exact", "--q", "3", "--threads", "2"], "unrecognized arguments"),
        (["search", "--q", "3", "--threads", "2"], "unrecognized arguments"),
        (["lift", "--input", "f", "--threads", "2"], "unrecognized arguments"),
        (["repro", "--threads", "1"], "unrecognized arguments"),
        (["solve-exact", "--q", "3", "--order", "canonical"], "unrecognized arguments"),
        (["solve-exact", "--q", "3", "--canonical-certificate"], "unrecognized arguments"),
        (["search", "--q", "4", "--width2-samples", "8"], "unrecognized arguments"),
        (["search", "--q", "4", "--improve-passes", "1"], "unrecognized arguments"),
        (["lift", "--input", "f", "--improve-passes", "1"], "unrecognized arguments"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "usage"
        assert detail in payload["message"]


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve-exact", "--help"])
    assert exc.value.code == 0
    assert "--node-limit" in capsys.readouterr().out


def test_stats_q5(capsys):
    code, out, _ = run_cli(capsys, "stats", "--q", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["full"] == 1770 and payload["nondeg"] == 1410
    assert payload["available"] == 60


def test_stats_rejects_small_q(capsys):
    code, _, err = run_cli(capsys, "stats", "--q", "1")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_solve_exact_q3(tmp_path, capsys):
    cert = tmp_path / "cert.zlq"
    code, out, err = run_cli(
        capsys, "solve-exact", "--q", "3", "--out", str(cert)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "optimal"
    assert payload["size"] == 2 and payload["z_value"] == 14
    assert "optimal |E2|=2, z_L(6,4)=14" in err
    assert len(parse_family(cert.read_text(encoding="utf-8"))) == 2


def test_solve_exact_budget_exit_code(tmp_path, capsys):
    log = tmp_path / "events.jsonl"
    code, out, _ = run_cli(
        capsys, "solve-exact", "--q", "4", "--node-limit", "20", "--quiet",
        "--log", str(log),
    )
    assert code == 1
    assert json.loads(out)["status"] == "incumbent"
    events = [json.loads(line) for line in log.read_text().splitlines()]
    assert events[-1]["event"] == "done" and events[-1]["status"] == "incumbent"
    assert any(e["event"] == "bound" for e in events)


@pytest.mark.parametrize("argv, code, digest", [
    # 46,993 nodes: bound, incumbent and done, with the cuts per bound in done
    (["--q", "4", "--symmetry"], 0,
     "d7174e1278961cf2a18202bbed433f3b20fe38b81b9969bb41920703e6f9111f"),
    (["--q", "4", "--node-limit", "20000"], 1,
     "60ecebdf0ffeb7e3d1d8fabfffde2ea4b4ece392c27533617681cf22607a131a"),
], ids=["q4-symmetry", "q4-node-limit"])
def test_solve_exact_event_log_is_pinned(tmp_path, capsys, argv, code, digest):
    log = tmp_path / "events.jsonl"
    got, _, _ = run_cli(capsys, "solve-exact", *argv, "--quiet", "--log", str(log))
    assert got == code
    assert hashlib.sha256(log.read_bytes()).hexdigest() == digest


def test_search_is_byte_identical(tmp_path, capsys):
    args = ["search", "--q", "4", "--seed", "21", "--restarts", "4", "--quiet"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["verified"] is True
    assert payload["bound"] == 20 + payload["best_size"]


def test_search_warm_start_and_out(tmp_path, capsys):
    warm = write_family(tmp_path, 5)
    best = tmp_path / "best.zlq"
    code, out, _ = run_cli(
        capsys, "search", "--q", "5", "--restarts", "1", "--warm-start", str(warm),
        "--out", str(best), "--quiet",
    )
    assert code == 0
    assert json.loads(out)["best_size"] >= 13
    assert len(parse_family(best.read_text(encoding="utf-8"))) >= 13


def test_search_rejects_mismatched_warm_start(tmp_path, capsys):
    warm = write_family(tmp_path, 3)
    code, _, err = run_cli(
        capsys, "search", "--q", "5", "--warm-start", str(warm), "--quiet"
    )
    assert code == 2
    assert json.loads(err)["error"] == "usage"


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--q", "4", "--time-limit", "-1"],
        ["solve-exact", "--q", "3", "--node-limit", "-5"],
        ["solve-exact", "--q", "3", "--time-limit", "-1"],
        ["search", "--q", "3", "--time-limit", "nan"],
        ["solve-exact", "--q", "3", "--time-limit", "nan"],
        ["lift", "--node-limit", "-5"],
    ],
)
def test_negative_budgets_exit_2(tmp_path, capsys, argv):
    if argv[0] == "lift":
        argv = argv + ["--input", str(write_family(tmp_path, 4))]
    code, out, err = run_cli(capsys, *argv, "--quiet")
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "usage"
    assert "non-negative" in payload["message"]


def test_zero_budgets_stay_valid(capsys):
    code, out, _ = run_cli(capsys, "search", "--q", "4", "--time-limit", "0", "--quiet")
    assert code == 0 and json.loads(out)["best_size"] == 0
    code, out, _ = run_cli(capsys, "solve-exact", "--q", "3", "--node-limit", "0", "--quiet")
    assert code == 1 and json.loads(out)["status"] == "incumbent"


def test_lift_cli(tmp_path, capsys):
    src = write_family(tmp_path, 4)
    out_path = tmp_path / "lifted.zlq"
    code, out, _ = run_cli(
        capsys, "lift", "--input", str(src), "--restarts", "2", "--delete-width", "1",
        "--out", str(out_path), "--quiet",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["from_q"] == 4 and payload["to_q"] == 5
    assert payload["target"] == 8
    assert payload["met_target"] is True
    assert payload["bound"] >= 38
    lifted = parse_family(out_path.read_text(encoding="utf-8"))
    assert lifted.q == 5 and len(lifted) == payload["achieved"]


def test_export_and_import_round_trip(tmp_path, capsys):
    model_path = tmp_path / "m3.lp"
    code, out, _ = run_cli(
        capsys, "export-ilp", "--q", "3", "--out", str(model_path)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["variables"] == 78
    assert payload["rows"] == {"S": 12, "C2": 48, "C3": 588}
    text = model_path.read_text(encoding="utf-8")
    assert text.splitlines()[1] == "Maximize"

    model = build_model(3, "full")
    values = family_to_assignment(model, reference_family(3))
    sol = tmp_path / "sol.txt"
    sol.write_text(
        "# solver log line\n"
        + "\n".join(f"{n} {v}" for n, v in zip(model.var_names, values))
        + "\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        capsys, "import-solution", "--model-q", "3", "--solution", str(sol)
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["objective"] == 2
    assert payload["consistent"] is True


def test_import_solution_incomplete_exits_2(tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("x_0 1\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "import-solution", "--model-q", "3", "--solution", str(sol)
    )
    assert code == 2
    assert json.loads(err)["error"] == "parse"


def test_import_solution_non_finite_value_exits_2(tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("x_0 inf\n", encoding="utf-8")
    code, _, err = run_cli(
        capsys, "import-solution", "--model-q", "3", "--solution", str(sol)
    )
    assert code == 2
    payload = json.loads(err)
    assert payload["error"] == "parse"
    assert "line 1: value 'inf' is not binary" in payload["message"]


def test_recognize_parse_error_names_the_file(tmp_path, capsys):
    bad = tmp_path / "graph.txt"
    bad.write_text("3 3\n0 1 2\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "recognize", "--graph", str(bad))
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "parse"
    assert payload["message"] == f"{bad}: line 2: expected two integers"


def test_import_solution_parse_error_names_the_file(tmp_path, capsys):
    sol = tmp_path / "sol.txt"
    sol.write_text("x_0 inf\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "import-solution", "--model-q", "3", "--solution", str(sol)
    )
    assert code == 2
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "parse"
    assert payload["message"] == f"{sol}: line 1: value 'inf' is not binary"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-exact", "--q", "3", "--quiet", "--out"],
        ["solve-exact", "--q", "3", "--quiet", "--log"],
        ["search", "--q", "3", "--restarts", "1", "--quiet", "--out"],
        ["lift", "--input", "{family}", "--restarts", "1", "--quiet", "--out"],
        ["export-ilp", "--q", "3", "--out"],
        ["import-solution", "--model-q", "3", "--solution", "{solution}", "--out"],
    ],
    ids=["solve-exact-out", "solve-exact-log", "search", "lift", "export-ilp", "import-solution"],
)
def test_output_file_errors_exit_2_before_any_stdout(tmp_path, capsys, monkeypatch, argv):
    model = build_model(3, "full")
    values = family_to_assignment(model, reference_family(3))
    solution = tmp_path / "sol.txt"
    solution.write_text("".join(f"{n} {v}\n" for n, v in zip(model.var_names, values)))
    paths = {"{family}": str(write_family(tmp_path, 3)), "{solution}": str(solution)}

    def must_not_run(*args, **kwargs):
        raise AssertionError("the computation ran before the output path was checked")

    # the missing directory is reported before any work starts
    for name in ("solve_exact", "run_search", "lift_extend", "build_model"):
        monkeypatch.setattr(f"zlq.cli.{name}", must_not_run)
    missing = tmp_path / "missing" / "dir" / "file"
    code, out, err = run_cli(capsys, *[paths.get(a, a) for a in argv], str(missing))
    assert code == 2
    assert out == ""
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"] == "io" and str(missing) in payload["message"]
    # so is a path that is an existing directory
    code, out, err = run_cli(capsys, *[paths.get(a, a) for a in argv], str(tmp_path))
    assert code == 2
    assert out == ""
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"] == "io" and "is a directory" in payload["message"]


def test_families_listing_and_emit(capsys):
    code, out, _ = run_cli(capsys, "families")
    assert code == 0
    rows = json.loads(out)
    assert [r["q"] for r in rows] == [3, 4, 5, 6, 7]
    assert all(r["verified"] and r["nondegenerate"] for r in rows)

    code, out, _ = run_cli(capsys, "families", "--q", "3", "--emit")
    assert code == 0
    assert parse_family(out) == reference_family(3)

    code, _, err = run_cli(capsys, "families", "--emit")
    assert code == 2

    code, _, err = run_cli(capsys, "families", "--q", "9")
    assert code == 2

    for argv in (["--q", "0"], ["--q", "0", "--emit"]):
        code, out, err = run_cli(capsys, "families", *argv)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "usage", "message": "no bundled family for q=0"}


def test_ratios(capsys):
    code, out, _ = run_cli(capsys, "ratios")
    assert code == 0
    payload = json.loads(out)
    gaps = {row["q"]: row["gap_percent"] for row in payload["gap_ratios"]}
    assert gaps == {4: 30.0, 5: 43.3, 6: 52.4, 7: 57.1}
    assert payload["block_construction"] == [
        {"t": 1, "bound": 14},
        {"t": 2, "bound": 68},
    ]


def test_recognize_cli(tmp_path, capsys):
    g = incidence_graph(5)
    path = tmp_path / "k5.txt"
    lines = [f"{g.left} {g.right}"] + [f"{x} {y}" for x, y in g.edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "recognize", "--graph", str(path))
    assert code == 0
    assert json.loads(out)["isomorphic"] is True

    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0 0\n0 1\n1 0\n1 1\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "recognize", "--graph", str(bad))
    assert code == 1
    assert json.loads(out)["isomorphic"] is False


def test_repro_skipping_q4(capsys):
    code, out, _ = run_cli(capsys, "repro", "--skip-q4")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    summary = lines[-1]
    assert summary["failed"] == 0
    assert all(entry.get("ok", True) for entry in lines[:-1])
    names = {entry["check"] for entry in lines[:-1]}
    assert {f"family-q{q}" for q in (3, 4, 5, 6, 7)} <= names


def test_every_json_line_is_compact_with_sorted_keys(capsys):
    def compact(line):
        return json.dumps(json.loads(line), sort_keys=True, separators=(",", ":"))

    code, out, err = run_cli(capsys, "repro", "--skip-q4")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines and lines == [compact(line) for line in lines]
    code, out, err = run_cli(capsys, "no-such-command")
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines == [compact(line) for line in lines]


@pytest.mark.parametrize(
    "argv, code",
    [(["families", "--q", "3"], 0), (["stats", "--q", "1"], 2)],
    ids=["families", "bad-q"],
)
def test_python_dash_m_runs_the_cli(argv, code):
    # ``python -m zlq`` from a checkout that is not installed
    env = dict(os.environ, PYTHONPATH=str(Path(zlq.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-m", "zlq", *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == code, done.stderr
    if code == 0:
        assert json.loads(done.stdout) == [
            {"nondegenerate": True, "q": 3, "size": 2, "verified": True}
        ]
    else:
        assert done.stdout == ""
        assert json.loads(done.stderr)["error"] == "usage"
