import pytest

from zlq import Family, embed, lift_extend, verify
from zlq.board import candidate_family
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
    with pytest.raises(ValueError, match="must be non-negative"):
        lift_extend(reference_family(4), oracle_node_limit=-5)


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
        0: (20, "7058f131830dfd67300777a1e7082ffdea89561ad2afc827e3c5368ba5222e9f"),
        1: (22, "9a21992a6fcd9a4ae4c3c8b6ed710518f9a489d8f2e9dc6a3f2d7c733cdf19ff"),
    }
    for seed, (achieved, digest) in pins.items():
        report = lift_extend(reference_family(5), seed=seed, restarts=2, delete_width=1)
        assert report.target == 15  # 13 + floor(5/2)
        assert report.met_target
        assert report.bound >= 57
        assert verify(report.family).ok
        assert report.achieved == achieved
        assert family_sha256(report.family) == digest


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


def test_lift_report_json_shape():
    report = lift_extend(reference_family(3), seed=0, restarts=2, delete_width=1)
    import json

    payload = json.loads(report.summary_json())
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
