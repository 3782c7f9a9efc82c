import hashlib
import random

import pytest

from zlq import Family, build_model, counting_summary, export_lp, verify, witness_set
from zlq.admissibility import ScratchBoard, cell_claims, corner_cells, pattern_cells
from zlq.board import NONDEGENERATE, available_cells, candidate_family, classify, make_edge
from zlq.fixtures import reference_family
from zlq.ilp import (
    SolutionFormatError,
    evaluate,
    family_to_assignment,
    import_solution,
    parse_solution_file,
)

from conftest import random_family


def test_witness_counts():
    assert len(witness_set(make_edge((0, 1, 2), (0, 3, 1)), 3)) == 8  # (6-2)(4-2)
    assert len(witness_set(make_edge((0, 1, 2), (0, 1, 3)), 3)) == 10  # (6-1)(4-2)
    assert len(witness_set(make_edge((0, 1, 2), (0, 2, 1)), 2)) == 1


def test_witness_set_matches_enumeration():
    for q in (3, 4):
        all_rows = [(a, b) for a in range(q + 1) for b in range(a + 1, q + 1)]
        for e in candidate_family(q, "full"):
            (i1, j1, c1), (i2, j2, c2) = e
            expected = [
                (x, y)
                for x in all_rows
                if x not in ((i1, j1), (i2, j2))
                for y in range(q + 1)
                if y not in (c1, c2)
            ]
            assert witness_set(e, q) == expected


def test_witness_set_is_shared_with_admissibility():
    from zlq import admissibility, ilp

    assert ilp.witness_set is admissibility.witness_set is witness_set


@pytest.mark.parametrize(
    "q, mode, prune, digest",
    [
        (3, "full", False, "f2ddce0411ab53d9cb56ba6feb5d9ee32a4b11f8d12d40ee69678103b158b4f0"),
        (3, "full", True, "c830e3f2a3f066b079b31489125d61edf00e52c1bded2d9465eeb0c829485c04"),
        (3, "nondeg", True, "33ff8e73f39432d8e929323380d373245c5071177984d50aee6be6ad21a5a9e1"),
        (4, "full", False, "e47bd2ec475a5111dd52f55c90bbf8e6401bd4e1411ce219037990877e3de732"),
        (4, "full", True, "f251cb0ccee4b45ab54551222b26eea36db8ece5eed89bd3aeacdb76324559b5"),
        (4, "nondeg", False, "78324365cfdcb935c18056ca4da9fb7136d11e5661e9070b9c1c213ac731d163"),
        (4, "nondeg", True, "1103e4c0cde7eb13676fdb6bc50261a2140e58579fba32bd4121586d2daffe35"),
        (5, "full", True, "b6b37e31abecb109ebc9f081737dc2b4aad26b7fcd9570a17db7492030d5cac2"),
        (5, "nondeg", True, "42d2380b80c0ccf1ade9102f4fcb3050e50bdc1907d40c1e601d056fbab38748"),
    ],
)
def test_export_lp_pinned_bytes(q, mode, prune, digest):
    text = export_lp(build_model(q, mode, prune_static=prune))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


def _naive_rows(q, mode, prune):
    """(name, terms, sense, rhs, tag) per row, and the fixed-zero indices.

    One dict and one ``sorted`` per row, straight from the rule functions:
    the definition-level oracle of ``build_model``.
    """
    cells = available_cells(q)
    cands = candidate_family(q, mode)
    num_x = len(cands)
    var_of = {cell: num_x + idx for idx, cell in enumerate(cells)}
    claims = cell_claims(cands)
    out, fixed = [], set()
    for idx, cell in enumerate(cells):
        terms = ((1, num_x + idx),) + tuple((-1, k) for k in claims.get(cell, ()))
        out.append((f"s_{idx}", terms, "=", 0, "S"))
    rule_rows = [
        (k, f"c2_{k}", "C2", corner_cells(e))
        for k, e in enumerate(cands)
        if classify(e) == NONDEGENERATE
    ]
    rule_rows += [
        (k, f"c3_{k}_{w}", "C3", pattern_cells(e, witness))
        for k, e in enumerate(cands)
        for w, witness in enumerate(witness_set(e, q))
    ]
    for k, name, tag, rule_cells in rule_rows:
        mult = {}
        for cell in rule_cells:
            if cell in var_of:
                mult[var_of[cell]] = mult.get(var_of[cell], 0) + 1
        rhs = sum(mult.values())
        if rhs == 0 and prune:
            fixed.add(k)
            continue
        terms = ((1, k),) + tuple((mult[v], v) for v in sorted(mult))
        out.append((name, terms, "<=", rhs, tag))
    return out, tuple(sorted(fixed))


def _naive_violations(rows, fixed, values):
    violated = []
    for name, terms, sense, rhs, _ in rows:
        total = sum(coef * values[var] for coef, var in terms)
        if (total != rhs) if sense == "=" else (total > rhs):
            violated.append(name)
    return violated + [f"fixed_x_{k}" for k in fixed if values[k]]


@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("mode", ["full", "nondeg"])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_build_model_rows_match_the_naive_builder(q, mode, prune):
    model = build_model(q, mode, prune_static=prune)
    rows, fixed = _naive_rows(q, mode, prune)
    got = [(r.name, r.terms, r.sense, r.rhs, r.tag) for r in model.rows]
    assert len(got) == len(rows)
    for mine, theirs in zip(got, rows):
        assert mine == theirs
    assert model.fixed_zero == fixed


def test_rows_share_one_unit_term_per_variable():
    model = build_model(3, "full")
    shared = {}
    for row in model.rows:
        assert not hasattr(row, "__dict__")
        for term in row.terms:
            if term[0] == 1:
                assert shared.setdefault(term[1], term) is term
    assert len(shared) == model.num_vars


@pytest.mark.parametrize("mode", ["full", "nondeg"])
@pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
def test_fixed_zero_is_the_static_prune(q, mode):
    # the ILP's collapsed rows drop exactly what the kernel drops on an empty board
    cands = candidate_family(q, mode)
    kept = set(ScratchBoard(q).fitting(cands, []).edges)
    dropped = tuple(k for k, e in enumerate(cands) if e not in kept)
    assert build_model(q, mode, prune_static=True).fixed_zero == dropped


@pytest.mark.parametrize("prune", [False, True])
@pytest.mark.parametrize("mode", ["full", "nondeg"])
@pytest.mark.parametrize("q", [3, 4])
def test_evaluate_matches_a_naive_recomputation_on_random_vectors(q, mode, prune):
    # independent 0/1 draws per variable, so the o-values need not be the
    # cells the selected x claim, unlike family_to_assignment's vectors
    model = build_model(q, mode, prune_static=prune)
    rows, fixed = _naive_rows(q, mode, prune)
    rng = random.Random(1000 * q + 10 * prune + (mode == "full"))
    some_violated = some_clean = False
    for density in (0.01, 0.05, 0.3, 0.9):
        for _ in range(3):
            values = [int(rng.random() < density) for _ in range(model.num_vars)]
            violated = evaluate(model, values)
            assert violated == _naive_violations(rows, fixed, values)
            some_violated |= bool(violated)
            some_clean |= len(violated) < len(model.rows)
    assert some_violated and some_clean


@pytest.mark.parametrize("q", [2, 3, 4])
def test_constraint_counts_match_closed_formulas(q):
    model = build_model(q, "full")
    summary = counting_summary(q)
    counts = model.counts()
    assert model.num_vars == summary.full + summary.available
    assert counts["S"] == summary.available
    assert counts["C2"] == summary.nondeg
    assert counts["C3"] == sum(len(witness_set(e, q)) for e in model.candidates)


def test_q3_variable_breakdown():
    model = build_model(3, "full")
    assert model.num_vars == 78  # 66 + 12
    assert model.counts()["S"] == 12
    assert build_model(2, "full").num_vars - 3 == 3  # 3 o-variables at q=2
    assert build_model(4, "full").num_x == 435


def test_static_constant_substitution():
    model = build_model(3, "full")
    k = model.candidates.index(((0, 1, 2), (2, 3, 0)))
    row = next(r for r in model.rows if r.name == f"c2_{k}")
    assert row.terms == ((1, k),) and row.rhs == 0  # reduces to x_k <= 0
    pruned = build_model(3, "full", prune_static=True)
    assert k in pruned.fixed_zero
    assert len(pruned.fixed_zero) == 36
    assert not any(r.name == f"c2_{k}" for r in pruned.rows)


def test_degenerate_c3_rows_keep_multiplicity():
    model = build_model(3, "full")
    # a row-degenerate candidate doubles its (row, y) occupancy term
    k = next(
        i for i, e in enumerate(model.candidates) if classify(e) == "row-degenerate"
    )
    rows = [r for r in model.rows if r.name.startswith(f"c3_{k}_")]
    assert rows
    assert any(any(coef == 2 for coef, _ in r.terms) or r.rhs < 5 for r in rows)
    for r in rows:
        weight = sum(coef for coef, var in r.terms if var >= model.num_x)
        assert weight + (5 - r.rhs) == 5  # five occupancy slots with multiplicity


def test_export_lp_deterministic_and_reparsable():
    model = build_model(3, "full")
    text = export_lp(model)
    assert text == export_lp(build_model(3, "full"))
    # structural re-parse: section row counts survive the round trip
    lines = text.splitlines()
    assert lines[1] == "Maximize"
    names = [ln.split(":")[0].strip() for ln in lines if ":" in ln and not ln.startswith("\\")]
    s_rows = sum(1 for n in names if n.startswith("s_"))
    c2_rows = sum(1 for n in names if n.startswith("c2_"))
    c3_rows = sum(1 for n in names if n.startswith("c3_"))
    counts = model.counts()
    assert (s_rows, c2_rows, c3_rows) == (counts["S"], counts["C2"], counts["C3"])
    binary_at = lines.index("Binary")
    assert lines[-1] == "End"
    assert len(lines) - binary_at - 2 == model.num_vars


def test_reference_assignment_imports_cleanly():
    model = build_model(3, "full")
    values = family_to_assignment(model, reference_family(3))
    imported = import_solution(model, values)
    assert imported.objective == 2
    assert imported.ilp_feasible and imported.verifier.ok and imported.consistent


def test_all_zero_assignment_is_the_empty_family():
    model = build_model(3, "full")
    imported = import_solution(model, [0] * model.num_vars)
    assert imported.objective == 0
    assert imported.family == Family.from_edges(3, [])
    assert imported.ilp_feasible and imported.verifier.ok


@pytest.mark.parametrize("length", ["0", "num_x", "num_vars + 1"])
def test_import_solution_rejects_a_vector_of_the_wrong_length(length):
    # a short vector fails the same length check as a long one, before any selection
    model = build_model(3)
    size = {"0": 0, "num_x": model.num_x, "num_vars + 1": model.num_vars + 1}[length]
    with pytest.raises(ValueError, match=f"^expected {model.num_vars} values, got {size}$"):
        import_solution(model, [0] * size)


def test_s_equation_violation_is_flagged():
    model = build_model(3, "full")
    values = family_to_assignment(model, reference_family(3))
    # claim an occupied cell is empty: S equation breaks, family still verifies
    used = next(i for i in range(model.num_x, model.num_vars) if values[i] == 1)
    values[used] = 0
    imported = import_solution(model, values)
    assert not imported.ilp_feasible
    assert any(name.startswith("s_") for name in imported.violated_rows)
    assert imported.verifier.ok
    assert not imported.consistent


@pytest.mark.parametrize("q", [2, 3])
def test_feasibility_matches_verifier_on_random_subsets(q):
    model = build_model(q, "full")
    rng = random.Random(100 + q)
    admissible = inadmissible = 0
    for _ in range(200):
        fam = random_family(rng, q, 4)
        values = family_to_assignment(model, fam)
        feasible = not evaluate(model, values)
        ok = verify(fam).ok
        assert feasible == ok
        admissible += ok
        inadmissible += not ok
    assert admissible and inadmissible  # both sides of the oracle exercised


def test_parse_solution_file_tolerances_and_errors():
    model = build_model(2, "full")
    good = "# meta\n" + "\n".join(f"{n} {v}" for n, v in zip(model.var_names, ["0", "1.0000002", "0", "0.0", "0", "1"]))
    values = parse_solution_file(good, model)
    assert values == [0, 1, 0, 0, 0, 1]
    with pytest.raises(SolutionFormatError, match="incomplete"):
        parse_solution_file("x_0 1\n", model)
    with pytest.raises(SolutionFormatError, match="unknown"):
        parse_solution_file("y_9 1\n", model)
    with pytest.raises(SolutionFormatError, match="not binary"):
        parse_solution_file("x_0 0.4\n", model)
    for token in ("inf", "-inf", "nan", "1e400"):
        with pytest.raises(SolutionFormatError, match=f"line 2: value '{token}' is not binary"):
            parse_solution_file(f"x_1 1\nx_0 {token}\n", model)
    with pytest.raises(SolutionFormatError, match="duplicate"):
        parse_solution_file("x_0 1\nx_0 1\n", model)
    with pytest.raises(SolutionFormatError, match="name value"):
        parse_solution_file("x_0 1 2\n", model)
