import json

import pytest

import zlq.admissibility
import zlq.exact
import zlq.lifting
import zlq.search
from zlq import Family, SearchConfig, embed, lift_extend, run_search, verify
from zlq.board import candidate_family
from zlq.cli import main
from zlq.families import serialize_family
from zlq.fixtures import REFERENCE_QS, reference_family
from zlq.lifting import new_vertex_candidates

from conftest import family_sha256


def test_embed_preserves_verification_for_all_reference_families():
    for q in REFERENCE_QS:
        fam = reference_family(q)
        lifted = embed(fam)
        assert lifted.q == q + 1
        assert lifted.edges == fam.edges
        assert verify(lifted).ok


def test_embed_empty_family():
    lifted = embed(Family.from_edges(3, []))
    assert lifted.q == 4 and len(lifted) == 0


def test_embed_rejects_inadmissible_input():
    with pytest.raises(ValueError):
        embed(Family.from_edges(3, [((0, 1, 2), (2, 3, 0))]))


def test_lift_rejects_a_negative_oracle_budget(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("search started")

    monkeypatch.setattr("zlq.lifting.run_search", no_search)
    for budget in (-5, float("nan")):
        with pytest.raises(ValueError, match="must be non-negative"):
            lift_extend(reference_family(4), oracle_node_limit=budget)


def test_new_vertex_candidates_q6():
    pool = candidate_family(6, "full")
    new = new_vertex_candidates(6, pool)
    # pairs over 105 cells minus pairs over the 60 cells avoiding vertex 6
    assert len(pool) == 5460
    assert len(new) == 5460 - 1770
    assert all(any(6 in (i, j, c) for (i, j, c) in e) for e in new)


def test_lift_q3_meets_its_target():
    report = lift_extend(reference_family(3), seed=0, restarts=4, delete_width=1)
    assert (report.from_q, report.to_q) == (3, 4)
    assert report.base_size == 2
    assert report.target == 3  # 2 + floor(3/2)
    assert report.met_target and report.achieved >= 3
    assert report.bound == 20 + report.achieved
    assert verify(report.family).ok
    assert len(report.family) == report.achieved >= report.base_size


def test_lift_q4_target_and_bound():
    report = lift_extend(reference_family(4), seed=0, restarts=2, delete_width=1)
    assert report.target == 8  # 6 + floor(4/2)
    assert report.met_target
    assert report.bound >= 38
    assert verify(report.family).ok


def test_lift_q5_target_and_bound():
    # the search path itself is pinned: achieved size and family hash per seed
    pins = {
        0: (22, "26bae4c9a4848d676d648a154777ac5749238e7a2c801800a894c50aa6319005"),
        1: (22, "8bd90d5caca4c4145ed59c6179d68d11dc1b4d598a42642b4ebb6252757b56c7"),
    }
    for seed, (achieved, digest) in pins.items():
        report = lift_extend(reference_family(5), seed=seed, restarts=2, delete_width=1)
        assert report.target == 15  # 13 + floor(5/2)
        assert report.met_target
        assert report.bound >= 57
        assert verify(report.family).ok
        assert report.achieved == achieved
        assert family_sha256(report.family) == digest


def test_lift_extend_does_not_reverify_the_search_result(monkeypatch):
    real = zlq.admissibility.verify
    calls = []

    def counting(family):
        calls.append(len(family))
        return real(family)

    for module in (zlq.lifting, zlq.search, zlq.exact):
        monkeypatch.setattr(module, "verify", counting)
    report = lift_extend(reference_family(4), restarts=1, delete_width=1)
    # embed checks the input and the lifted copy; the search checks its
    # warm start and its result, which lift_extend returns unchecked
    assert calls == [6, 6, 6, report.achieved]
    assert real(report.family).ok


def test_lift_q4_default_width_path_is_pinned():
    # the default delete width 2 on a warm start
    report = lift_extend(reference_family(4), seed=0, restarts=2)
    assert report.target == 8
    assert report.achieved == 12
    assert family_sha256(report.family) == (
        "4ebbe1a2b052c6a1547f29a891f57febf396f0f0670b06ece4abf8af7818b8f5"
    )


@pytest.mark.parametrize("q", [3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1])
def test_the_lift_is_the_plain_warm_started_search(q, seed):
    # no setting of the lift's own: it is run_search from the embedded family
    family = reference_family(q)
    report = lift_extend(family, seed=seed, restarts=2, delete_width=1)
    config = SearchConfig(q=q + 1, seed=seed, restarts=2, delete_width=1, warm_start=embed(family))
    assert report.family == run_search(config).best


def test_lift_oracle_adjudicates_a_forced_shortfall():
    # zero restarts cannot extend anything; the exact sub-solve must decide
    report = lift_extend(
        reference_family(3), seed=0, restarts=0, oracle_on_shortfall=True
    )
    assert report.oracle == "optimal"
    assert report.achieved == 6  # frozen-base extension optimum from the sub-solve
    assert report.met_target
    assert verify(report.family).ok


def test_lift_without_oracle_reports_shortfall_honestly():
    report = lift_extend(
        reference_family(3), seed=0, restarts=0, oracle_on_shortfall=False
    )
    assert report.oracle is None
    assert report.achieved == 2  # warm start only, nothing added
    assert not report.met_target
    assert report.bound == 20 + 2


def test_lift_report_json_shape(tmp_path, capsys):
    # the CLI prints every report field but the family
    path = tmp_path / "q3.zlq"
    path.write_text(serialize_family(reference_family(3)), encoding="utf-8")
    argv = ["lift", "--input", str(path), "--restarts", "2", "--delete-width", "1", "--quiet"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "from_q",
        "to_q",
        "base_size",
        "target",
        "achieved",
        "met_target",
        "bound",
        "oracle",
    }
    report = lift_extend(reference_family(3), seed=0, restarts=2, delete_width=1)
    assert payload == {name: getattr(report, name) for name in payload}
