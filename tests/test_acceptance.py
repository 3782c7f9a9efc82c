"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS line when its criterion holds; run with
``pytest tests/test_acceptance.py -v -s`` to see the matrix.
"""

import json
import random
import time

from zlq import (
    Family,
    build_board,
    build_model,
    counting_summary,
    embed,
    gap_ratio,
    incidence_graph,
    incremental_check,
    k4t_bound,
    lift_extend,
    reference_family,
    run_search,
    verify,
)
from zlq.board import NONDEGENERATE, classify
from zlq.cli import main
from zlq.fixtures import REFERENCE_QS
from zlq.ilp import evaluate, family_to_assignment
from zlq.recognition import Isomorphism, check_isomorphism, recognize_incidence
from zlq.search import SearchConfig

from conftest import random_edge, random_family, random_subfamily


def _cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_criterion_1_reference_families_verify():
    sizes = {3: 2, 4: 6, 5: 13, 6: 22, 7: 32}
    start = time.monotonic()
    for q in REFERENCE_QS:
        fam = reference_family(q)
        assert len(fam) == sizes[q], f"q={q} size {len(fam)} != {sizes[q]}"
        result = verify(fam)
        assert result.ok, f"q={q} fails verification:\n{result.report()}"
        assert all(classify(e) == NONDEGENERATE for e in fam.edges)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"verification took {elapsed:.2f}s (budget 1s)"
    print(f"\nPASS criterion 1: families q=3..7 verify (sizes 2,6,13,22,32) in {elapsed:.2f}s")


def test_criterion_2_exact_values(capsys):
    start = time.monotonic()
    code, out = _cli(capsys, "solve-exact", "--q", "3", "--quiet")
    q3 = json.loads(out)
    q3_elapsed = time.monotonic() - start
    assert code == 0
    assert q3["status"] == "optimal" and q3["size"] == 2 and q3["z_value"] == 14
    assert q3_elapsed < 1.0, f"q=3 took {q3_elapsed:.2f}s (budget 1s)"

    # desk-scale configuration for q=4 is the symmetry-reduced run
    # (documented budget: ~2s here, 30 minutes allowed; the plain run also
    # finishes, see the slow marker in test_exact)
    start = time.monotonic()
    code, out = _cli(capsys, "solve-exact", "--q", "4", "--symmetry", "--quiet")
    q4 = json.loads(out)
    q4_elapsed = time.monotonic() - start
    assert code == 0
    assert q4["status"] == "optimal" and q4["size"] == 6 and q4["z_value"] == 26
    assert q4_elapsed < 1800.0
    print(
        f"\nPASS criterion 2: z_L(6,4)=14 in {q3_elapsed:.2f}s,"
        f" z_L(10,5)=26 in {q4_elapsed:.2f}s"
    )


def test_criterion_3_counting(capsys):
    checks = {
        3: {"full": 66},
        4: {"full": 435},
        5: {"available": 60, "full": 1770, "nondeg": 1410},
    }
    for q, expected in checks.items():
        code, out = _cli(capsys, "stats", "--q", str(q))
        assert code == 0
        payload = json.loads(out)
        for key, want in expected.items():
            assert payload[key] == want, f"q={q} {key}={payload[key]} != {want}"
        assert payload == counting_summary(q).as_dict()
    print("\nPASS criterion 3: |A_5|=60, full counts 66/435/1770, nondeg 1410")


def test_criterion_4_ilp_matches_verifier():
    for q in (2, 3):
        model = build_model(q, "full")
        rng = random.Random(4000 + q)
        admissible = inadmissible = 0
        for _ in range(200):
            fam = random_family(rng, q, 4)
            feasible = not evaluate(model, family_to_assignment(model, fam))
            ok = verify(fam).ok
            assert feasible == ok, f"q={q}: model and verifier disagree on {fam}"
            admissible += ok
            inadmissible += not ok
        assert admissible and inadmissible
    print("\nPASS criterion 4: ILP feasibility == verifier verdict on 400 random subsets")


def test_criterion_5_lifting():
    for q in REFERENCE_QS:
        assert verify(embed(reference_family(q))).ok
    report4 = lift_extend(reference_family(4), seed=0, restarts=2, delete_width=1)
    assert report4.target == 8
    assert report4.met_target, "q=4 lift fell short; report must say so"
    assert report4.bound >= 38
    report5 = lift_extend(reference_family(5), seed=0, restarts=2, delete_width=1)
    assert report5.target == 15
    # honest reporting: met_target must reflect reality; when met the bound
    # matches the lifting arithmetic, otherwise the oracle must have spoken
    if report5.met_target:
        assert report5.bound >= 57
    else:
        assert report5.oracle is not None
    assert report5.met_target, "expected the q=5 lift to reach its target here"
    print(
        f"\nPASS criterion 5: embeds verify; lift targets 8/15 met,"
        f" bounds {report4.bound}>=38, {report5.bound}>=57"
    )


def test_criterion_6_ratios(capsys):
    code, out = _cli(capsys, "ratios")
    assert code == 0
    payload = json.loads(out)
    gaps = {row["q"]: row["gap_percent"] for row in payload["gap_ratios"]}
    # one-decimal match; rows backed by lower bounds can only improve
    assert gaps == {4: 30.0, 5: 43.3, 6: 52.4, 7: 57.1}
    for q in (4, 5, 6, 7):
        assert round(gap_ratio(q), 1) == gaps[q]
    assert k4t_bound(1) == 14 and k4t_bound(2) == 68
    print("\nPASS criterion 6: gap ratios 30.0/43.3/52.4/57.1, block bounds 14/68")


def test_criterion_7a_hereditarity():
    rng = random.Random(71)
    for _ in range(1000):
        q = rng.choice(REFERENCE_QS)
        assert verify(random_subfamily(rng, reference_family(q))).ok
    print("\nPASS criterion 7a: 1000 random reference-family subsets verify")


def test_criterion_7b_incremental_equals_full():
    rng = random.Random(72)
    checked = 0
    start = time.monotonic()
    while checked < 10_000:
        q = rng.choice(REFERENCE_QS)
        fam = random_subfamily(rng, reference_family(q))
        board = build_board(q, fam)
        e = random_edge(rng, q)
        if e in fam.edges:
            continue
        fast = incremental_check(board, fam, e)
        full = verify(Family.from_edges(q, list(fam.edges) + [e])).ok
        assert fast == full, f"incremental/full mismatch at q={q}: {fam.edges} + {e}"
        checked += 1
    print(
        f"\nPASS criterion 7b: incremental == full verification on 10000 insertions"
        f" ({time.monotonic() - start:.1f}s)"
    )


def test_criterion_7c_search_determinism(capsys):
    args = ["search", "--q", "4", "--seed", "2024", "--restarts", "4", "--quiet"]
    outputs = []
    for _ in range(3):
        code, out = _cli(capsys, *args)
        assert code == 0
        outputs.append(out)
    assert len(set(outputs)) == 1, "search output varies across runs"
    payload = json.loads(outputs[0])
    assert payload["verified"] is True
    assert payload["bound"] == 20 + payload["best_size"]
    print("\nPASS criterion 7c: three identical search runs are byte-identical")


def test_criterion_7d_recognition_of_relabelings():
    rng = random.Random(74)
    for trial in range(500):
        n = rng.randint(4, 8)
        g = incidence_graph(n)
        lperm = list(range(g.left))
        rperm = list(range(g.right))
        rng.shuffle(lperm)
        rng.shuffle(rperm)
        from zlq.recognition import BipartiteGraph

        shuffled = BipartiteGraph.from_edges(
            g.left, g.right, [(lperm[x], rperm[y]) for x, y in g.edges]
        )
        outcome = recognize_incidence(shuffled)
        assert isinstance(outcome, Isomorphism), f"trial {trial} not recognized"
        assert check_isomorphism(shuffled, outcome), f"trial {trial} maps are wrong"
    print("\nPASS criterion 7d: 500 relabeled incidence graphs recognized edge-exactly")


def test_criterion_7e_warm_start_never_degrades():
    # cold-start reproduction of the q=6/7 sizes is out of scope by design;
    # warm-started searches must never lose edges
    for q, passes in ((5, 1), (6, 1), (7, 0)):
        fixture = reference_family(q)
        result = run_search(
            SearchConfig(
                q=q,
                seed=1,
                restarts=1,
                improve_passes=passes,
                warm_start=fixture,
            )
        )
        assert result.best_size >= len(fixture), f"q={q} degraded the fixture"
        assert result.verified
    print("\nPASS criterion 7e: warm-started best >= fixture size for q=5,6,7")
