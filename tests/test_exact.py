import itertools
import random
import time

import pytest

from zlq import Family, pairwise_conflicts, solve_exact, upper_bound, verify
from zlq.board import candidate_family
from zlq.exact import (
    apply_vertex_permutation,
    candidate_orbits,
    solve_extension,
)
from zlq.fixtures import reference_family
from zlq.lifting import embed, new_vertex_candidates

from conftest import family_sha256


def test_q2_matches_exhaustive_enumeration():
    from conftest import brute_force_optimum

    result = solve_exact(2)
    assert result.optimal
    assert result.size == brute_force_optimum(2) == 0
    assert result.z_value == 6
    assert len(result.certificate) == 0


def test_q3_optimum_is_two():
    start = time.monotonic()
    result = solve_exact(3)
    assert time.monotonic() - start < 1.0
    assert result.optimal and result.size == 2 and result.z_value == 14
    assert verify(result.certificate).ok and len(result.certificate) == 2


def test_q3_optimum_independent_of_flags():
    sizes = {
        solve_exact(3, symmetry=False).size,
        solve_exact(3, symmetry=True).size,
        solve_exact(3, order="canonical").size,
        solve_exact(3, canonical_certificate=True).size,
        solve_exact(3, mode="full").size,
    }
    assert sizes == {2}


def test_canonical_certificate_is_lex_minimal_among_optima():
    plain = solve_exact(3).certificate
    canonical = solve_exact(3, canonical_certificate=True).certificate
    assert verify(canonical).ok and len(canonical) == 2
    assert canonical.edges <= plain.edges


def test_nondeg_mode_optimum_q3():
    # the q=3 optimum is attained by a nondegenerate family
    result = solve_exact(3, mode="nondeg")
    assert result.optimal and result.size == 2


def test_budget_exhaustion_is_reported_honestly():
    result = solve_exact(4, node_limit=50)
    assert result.status == "incumbent"
    assert not result.optimal
    assert verify(result.certificate).ok
    assert result.size >= 1  # greedy incumbent seeds the search


def test_conflicts_agree_with_pair_verification():
    cands = candidate_family(3, "full")
    masks = pairwise_conflicts(3, cands)
    # the reference family's two edges do not conflict
    i = cands.index(((0, 1, 2), (0, 3, 1)))
    j = cands.index(((1, 3, 2), (2, 3, 0)))
    assert not (masks[i] >> j) & 1
    # a shared cell always conflicts
    k = cands.index(((0, 1, 2), (1, 3, 0)))
    assert (masks[i] >> k) & 1
    pairs = list(itertools.combinations(range(len(cands)), 2))
    assert len(pairs) == 2145
    for a, b in pairs:
        pair_ok = verify(Family.from_edges(3, [cands[a], cands[b]])).ok
        assert ((masks[a] >> b) & 1) == (not pair_ok)
        assert ((masks[b] >> a) & 1) == ((masks[a] >> b) & 1)


def test_conflicts_over_a_base_agree_with_verification():
    rng = random.Random(7)
    for q in (3, 4):
        base = Family.from_edges(q, reference_family(q).edges[:2])
        fits = [
            e for e in candidate_family(q, "full")
            if e not in base.edges and verify(Family.from_edges(q, list(base.edges) + [e])).ok
        ]
        masks = pairwise_conflicts(q, fits, base)
        pairs = list(itertools.combinations(range(len(fits)), 2))
        for a, b in pairs if q == 3 else rng.sample(pairs, 1500):
            together = verify(Family.from_edges(q, list(base.edges) + [fits[a], fits[b]])).ok
            assert ((masks[a] >> b) & 1) == (not together), (fits[a], fits[b])
            assert ((masks[b] >> a) & 1) == ((masks[a] >> b) & 1)


def test_upper_bound_properties():
    assert upper_bound(0, 30, 12) == 6  # q=3 root: the free-cell cap binds
    assert upper_bound(0, 30, 12) >= 2
    assert upper_bound(5, 17, 0) == 5  # all cells used
    assert upper_bound(0, 285, 30) >= 6  # q=4 root dominates the optimum


def test_orbits_partition_the_candidates():
    cands = candidate_family(3, "full")
    orbits = candidate_orbits(3, cands)
    flat = sorted(k for orbit in orbits for k in orbit)
    assert flat == list(range(66))
    assert len(orbits) == 5
    # the action maps orbit members onto the same orbit
    index = {e: k for k, e in enumerate(cands)}
    orbit_of = {}
    for o_id, orbit in enumerate(orbits):
        for k in orbit:
            orbit_of[k] = o_id
    identity = tuple(range(4))
    for k in range(0, 66, 5):
        assert apply_vertex_permutation(identity, cands[k]) == cands[k]
        image = apply_vertex_permutation((1, 0, 3, 2), cands[k])
        assert orbit_of[index[image]] == orbit_of[k]


def test_symmetry_flag_preserves_the_optimum():
    plain = solve_exact(3, symmetry=False)
    reduced = solve_exact(3, symmetry=True)
    assert plain.size == reduced.size == 2
    assert reduced.orbit_count is not None
    assert reduced.nodes <= plain.nodes


def test_extension_solver_q3_to_q4():
    base = embed(reference_family(3))
    pool = new_vertex_candidates(4, candidate_family(4, "full"))
    result = solve_extension(base, pool)
    assert result.optimal
    assert result.size == 4  # frozen two-edge base extends by four new-vertex edges
    assert len(result.certificate) == 6
    assert verify(result.certificate).ok
    assert set(base.edges) <= set(result.certificate.edges)
    assert result.z_value == 20 + 6
    kinds = [e["event"] for e in result.events]
    assert kinds[0] == "bound" and kinds[-1] == "done"


@pytest.mark.parametrize("q,node_limit", [(3, None), (4, 20_000)])
def test_extension_over_empty_base_is_solve_exact(q, node_limit):
    exact = solve_exact(q, node_limit=node_limit)
    ext = solve_extension(Family.from_edges(q, []), candidate_family(q), node_limit=node_limit)
    assert (ext.status, ext.size, ext.nodes, ext.pruned_static) == (
        exact.status, exact.size, exact.nodes, exact.pruned_static
    )
    assert ext.certificate == exact.certificate
    assert ext.z_value == exact.z_value


def test_time_limit_covers_preprocessing():
    # the q=6 conflict graph alone takes far longer than the budget
    start = time.monotonic()
    result = solve_exact(6, time_limit=1.0)
    assert time.monotonic() - start < 5.0
    assert result.status == "incumbent"
    assert verify(result.certificate).ok and result.size >= 1


def test_negative_budgets_are_rejected():
    for kwargs in ({"node_limit": -5}, {"time_limit": -1.0}):
        with pytest.raises(ValueError, match="must be non-negative"):
            solve_exact(3, **kwargs)
        with pytest.raises(ValueError, match="must be non-negative"):
            solve_extension(Family.from_edges(3, []), candidate_family(3, "full"), **kwargs)
    # a zero budget stays valid
    result = solve_exact(3, node_limit=0)
    assert result.status == "incumbent" and verify(result.certificate).ok
    assert verify(solve_exact(3, time_limit=0.0).certificate).ok


def test_extension_solver_rejects_bad_base():
    bad = Family.from_edges(3, [((0, 1, 2), (2, 3, 0))])
    with pytest.raises(ValueError):
        solve_extension(bad, [])


@pytest.mark.slow
def test_q4_optimum_without_symmetry_agrees():
    with_symmetry = solve_exact(4, symmetry=True)
    assert with_symmetry.optimal and with_symmetry.size == 6
    # the search path itself is pinned
    assert with_symmetry.nodes == 318_197
    digest = family_sha256(with_symmetry.certificate)
    assert digest == "3deed3b83e973865b08a91def13ce8773f8c311461817b341cd2ac8b00fb4102"
    plain = solve_exact(4, symmetry=False)
    assert plain.optimal and plain.size == 6
    assert plain.z_value == with_symmetry.z_value == 26
    kinds = {e["event"] for e in plain.events}
    assert {"bound", "node", "done"} <= kinds
