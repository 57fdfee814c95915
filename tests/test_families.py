import pytest

from linext.errors import NotAPartition, SizeBudgetExceeded
from linext.families import (
    all_partitions,
    antichain,
    builtin_corpus,
    chain,
    chain_plus_point,
    grid_ideal,
    random_poset,
    skew_diagram,
    tightness_example_a,
    tripod,
    two_equal_chains,
    young_diagram,
)
from linext.lattice import count_extensions
from linext.poset import comparability_profile
from oracles import brute_count, hook_length_count, looped_chain_plus_point, pairwise_grid_poset


def test_chain_basics():
    p = chain(4)
    assert p.is_chain()
    assert p.labels == ("c1", "c2", "c3", "c4")
    assert count_extensions(p) == 1


def test_antichain_basics():
    p = antichain(3)
    assert p.is_antichain()
    assert count_extensions(p) == 6


def test_chain_plus_point_structure():
    p = chain_plus_point(5)
    assert p.n == 5
    assert p.incomparables("z") == ("c1", "c2", "c3", "c4")
    assert count_extensions(p) == 5


def test_two_equal_chains_structure():
    p = two_equal_chains(3)
    assert comparability_profile(p).width == 2
    assert count_extensions(p) == 20  # C(6, 3)


@pytest.mark.parametrize(
    "partition",
    [lam for k in range(1, 11) for lam in all_partitions(k) if sum(lam) == k],
)
def test_young_diagram_counts_match_hook_formula(partition):
    shape = young_diagram(partition)
    assert count_extensions(shape.poset) == hook_length_count(partition)


def test_young_diagram_rejects_non_partition():
    with pytest.raises(NotAPartition):
        young_diagram((2, 3))
    with pytest.raises(NotAPartition):
        young_diagram((3, 0))


def test_skew_diagram_cells_and_count():
    shape = skew_diagram((2, 2), (1,))
    assert len(shape.cells) == 3
    assert count_extensions(shape.poset) == brute_count(shape.poset)


def test_skew_requires_containment():
    with pytest.raises(NotAPartition):
        skew_diagram((2, 1), (3,))


def test_grid_ideal_generates_downset():
    shape = grid_ideal(2, [(2, 2)])
    assert sorted(shape.cells) == [(1, 1), (1, 2), (2, 1), (2, 2)]


def test_grid_ideal_budget():
    with pytest.raises(SizeBudgetExceeded):
        grid_ideal(3, [(50, 50, 50)], max_cells=1000)


def test_tripod_is_arms_sharing_a_corner():
    shape = tripod(2, 3)
    # d=2: an L whose arms reach coordinate 3 on each axis
    assert len(shape.cells) == 5  # corner + 2 arms of 2 further cells
    assert comparability_profile(shape.poset).width == 2


def test_tripod_dimension_three():
    shape = tripod(3, 2)
    assert len(shape.cells) == 4  # corner + one extra cell per axis
    assert comparability_profile(shape.poset).width == 3


def test_tightness_example_sizes():
    for size in (4, 8, 14):
        shape = tightness_example_a(size)
        assert len(shape.cells) == size
        profile = comparability_profile(shape.poset)
        assert profile.max_count == size // 2 - 1


def test_tightness_example_rejects_odd():
    from linext.errors import DomainError

    with pytest.raises(DomainError):
        tightness_example_a(7)


def test_random_poset_is_reproducible():
    assert random_poset(7, 0.3, seed=5) == random_poset(7, 0.3, seed=5)
    assert random_poset(7, 0.3, seed=5) != random_poset(7, 0.3, seed=6)


def test_random_poset_extreme_probabilities():
    assert random_poset(5, 1.0, seed=1).is_chain()
    assert random_poset(5, 0.0, seed=1).is_antichain()


def test_partition_listing():
    fives = [lam for lam in all_partitions(5) if sum(lam) == 5]
    assert len(fives) == 7
    # partitions arrive in a deterministic order and are weakly decreasing
    for lam in all_partitions(8):
        assert all(a >= b for a, b in zip(lam, lam[1:]))


def test_builtin_corpus_shape():
    members = builtin_corpus()
    names = [name for name, _ in members]
    assert len(names) == len(set(names)), "corpus names must be unique"
    assert all(p.n <= 9 for _, p in members)
    assert any(p.is_chain() for _, p in members)
    assert any(p.is_antichain() for _, p in members)


def test_chain_plus_point_matches_the_row_loop():
    for n in range(2, 13):
        assert chain_plus_point(n) == looped_chain_plus_point(n)


def test_grid_families_match_the_pairwise_order():
    shapes = [young_diagram(lam) for lam in all_partitions(9)]
    shapes.append(young_diagram((8,) * 8))
    for outer in all_partitions(7):
        shapes.append(skew_diagram(outer, ()))
        for inner in all_partitions(sum(outer) - 1):
            if len(inner) <= len(outer) and all(a <= b for a, b in zip(inner, outer)):
                shapes.append(skew_diagram(outer, inner))
    for a in range(1, 5):
        for b in range(a, 5):
            for c in range(b, 5):
                shapes.append(grid_ideal(3, [(a, b, c)]))
    shapes += [tripod(dim, ell) for dim in (1, 2, 3, 4) for ell in (1, 2, 4)]
    assert len(shapes) > 200
    for shape in shapes:
        assert shape.poset == pairwise_grid_poset(shape.cells), shape.cells
