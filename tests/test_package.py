import dataclasses
import inspect

import zlq


def test_every_exported_name_resolves():
    missing = [name for name in zlq.__all__ if not hasattr(zlq, name)]
    assert missing == []
    assert len(set(zlq.__all__)) == len(zlq.__all__)


def test_retired_verifier_names_are_gone():
    for name in ("Board", "build_board", "check_C2", "check_C3"):
        assert not hasattr(zlq, name), name
        assert name not in zlq.__all__


def test_retired_solver_and_family_names_are_gone():
    assert "canonical_certificate" not in inspect.signature(zlq.solve_exact).parameters
    assert not hasattr(zlq.Family, "size")
    assert not hasattr(zlq, "upper_bound") and not hasattr(zlq.exact, "upper_bound")
    assert "upper_bound" not in zlq.__all__
    assert not hasattr(zlq.ScratchBoard(3), "free_cells")
    assert "priority_vertex" not in {f.name for f in dataclasses.fields(zlq.SearchConfig)}


def test_conflict_kernel_is_not_exported():
    # it takes the solver's board and candidate lists, so it stays in zlq.exact
    assert not hasattr(zlq, "pairwise_conflicts")
    assert "pairwise_conflicts" not in zlq.__all__
    assert callable(zlq.exact.pairwise_conflicts)
