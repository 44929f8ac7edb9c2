import itertools
import random
from fractions import Fraction

import pytest

from starpart.graphs import Graph, balls2
from starpart.generators import (gen_corpus, gen_cycle, gen_complete, gen_g5n,
                                 gen_mad_bounded, gen_path, gen_star,
                                 gen_tree_random)
from starpart.fii import (FiiPartition, boundary_search, count_fii_bruteforce,
                          enumerate_fii, fii_to_star5, find_fii,
                          lemma_forcing_patterns, parse_label, verify_fii)
from starpart.starcolor import is_star_coloring


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def disjoint_union(graphs):
    edges, off = [], 0
    for g in graphs:
        edges += [(u + off, v + off) for u, v in g.edges()]
        off += g.n
    return Graph(off, edges)


# -- verification ---------------------------------------------------------------

def test_all_f_tree_valid():
    t = gen_tree_random(8, 1)
    ok, _ = verify_fii(t, FiiPartition((0,) * 8, 2))
    assert ok


def test_all_f_cycle_invalid():
    ok, witness = verify_fii(gen_cycle(3), FiiPartition((0, 0, 0), 2))
    assert not ok and witness[0] == "cycle"
    assert set(witness[1]) == {0, 1, 2}


def test_c5_mixed_partition():
    # one vertex per independent part, rest a path in F
    c5 = gen_cycle(5)
    ok, _ = verify_fii(c5, FiiPartition((1, 2, 0, 0, 0), 2))
    assert ok


def test_close_pair_witness():
    p3 = gen_path(3)
    ok, witness = verify_fii(p3, FiiPartition((1, 0, 1), 2))
    assert not ok
    assert witness == ("close_pair", (0, 2, 1, 2))
    ok, witness = verify_fii(p3, FiiPartition((1, 1, 0), 2))
    assert not ok and witness[1][3] == 1


def test_partial_labeling_rejected():
    with pytest.raises(ValueError):
        verify_fii(gen_path(3), FiiPartition((0, 1), 2))
    with pytest.raises(ValueError):
        verify_fii(gen_path(3), FiiPartition((0, 1, 3), 2))


def test_two_independence_measured_in_whole_graph():
    # two I1-vertices joined only through F still conflict at distance 2
    g = gen_path(3)
    ok, witness = verify_fii(g, FiiPartition((1, 0, 1), 2))
    assert not ok and witness[0] == "close_pair"


# -- solver vs oracle ------------------------------------------------------------

def test_enumeration_equals_bruteforce():
    rng = random.Random(31)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 6), rng.random() * 0.6)
        for k in (0, 1, 2):
            cnt = sum(1 for _ in enumerate_fii(g, k))
            assert cnt == count_fii_bruteforce(g, k)


def test_solver_agrees_with_oracle_feasibility():
    rng = random.Random(32)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 8), rng.random() * 0.6)
        feasible = any(True for _ in enumerate_fii(g, 2))
        assert find_fii(g, 2).feasible == feasible


def test_nine_vertex_bruteforce_agreement():
    rng = random.Random(36)
    for _ in range(3):
        g = random_graph(rng, 9, 0.3)
        cnt = sum(1 for _ in enumerate_fii(g, 2))
        assert cnt == count_fii_bruteforce(g, 2)
        assert find_fii(g, 2).feasible == (cnt > 0)


def test_forcing_soundness():
    rng = random.Random(33)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 9), rng.random() * 0.5)
        on = find_fii(g, 2, forcing=True)
        off = find_fii(g, 2, forcing=False)
        assert on.feasible == off.feasible
        if on.feasible:
            ok, _ = verify_fii(g, on.partition)
            assert ok


def test_forcing_rules_validated_by_plain_enumeration():
    # the propagation rules restated as facts about *all* partitions of the
    # bare gadgets, checked by forcing-free enumeration
    from starpart.configs import J1, J2, attach_gadget
    seed = Graph(1, [])
    j1 = attach_gadget(seed, 0, J1())     # 0 = attachment point, 1 = apex
    for part in enumerate_fii(j1, 2):
        if part.labels[0] in (1, 2):
            assert part.labels[1] == 3 - part.labels[0]
        if part.labels[1] == 0:
            assert part.labels[0] == 0
    j2 = attach_gadget(seed, 0, J2())     # 0 = attachment point
    count = 0
    for part in enumerate_fii(j2, 2):
        assert part.labels[0] == 0
        count += 1
    assert count > 0


def test_forcing_patterns_on_tightness_family():
    g5 = gen_g5n(1)
    t2h, h2t, forced = lemma_forcing_patterns(g5)
    # apexes 1, 2, 3 carry two disjoint triangles; their cycle neighbors 0 and 4
    # admit a two-step chain and must land in F
    assert set(forced) == {0, 1, 3, 4}
    assert 2 in t2h and all(w in (1, 3) for w in t2h[2])


def test_k0_is_forest_test():
    assert find_fii(gen_tree_random(9, 4), 0).feasible
    res = find_fii(gen_cycle(6), 0)
    assert res.status == "infeasible" and res.exhausted


def test_g5n_infeasible_with_exhaustion():
    for n in (1, 2, 50, 200):
        res = find_fii(gen_g5n(n), 2)
        assert res.status == "infeasible"
        assert res.exhausted
        assert res.nodes == 0  # the forced-F pins already conflict


def test_long_cycle_needs_no_recursion():
    g = gen_cycle(5000)
    res = find_fii(g, 2)
    assert res.feasible
    ok, _ = verify_fii(g, res.partition)
    assert ok


def test_components_searched_separately():
    # each component is easy on its own; their union must stay easy
    corpus = disjoint_union(g for _, g in gen_corpus(10, 14, Fraction(8, 3), 20240601))
    res = find_fii(corpus, 2, node_limit=10_000)
    assert res.feasible
    # the K5 component alone has no partition; the stars must not be re-searched
    res = find_fii(disjoint_union([gen_star(5)] * 6 + [gen_complete(5)]), 2)
    assert res.status == "infeasible" and res.exhausted
    assert res.nodes < 1000


def test_fixed_labels_respected():
    g = gen_path(4)
    res = find_fii(g, 2, fixed={0: 1, 3: 1})
    assert res.feasible
    assert res.partition.labels[0] == 1 and res.partition.labels[3] == 1
    # forcing a distance-2 pair into the same part is infeasible
    res = find_fii(gen_path(3), 2, fixed={0: 1, 2: 1})
    assert res.status == "infeasible"


def test_timeout_returns_unknown():
    res = find_fii(gen_g5n(1), 2, forcing=False, node_limit=50)
    assert res.status == "unknown"
    assert not res.exhausted


def test_mad_bounded_graphs_feasible():
    rng = random.Random(34)
    for i in range(40):
        g = gen_mad_bounded(rng.randint(4, 14), Fraction(8, 3), i)
        res = find_fii(g, 2)
        assert res.feasible
        ok, _ = verify_fii(g, res.partition)
        assert ok


# -- conversion -------------------------------------------------------------------

def test_tree_all_f_three_colors():
    t = gen_tree_random(10, 7)
    col = fii_to_star5(t, FiiPartition((0,) * 10, 2))
    assert set(col.colors) <= {0, 1, 2}
    ok, _ = is_star_coloring(t, col)
    assert ok


def test_star_two_leaves_same_part_rejected():
    star = gen_star(4)
    with pytest.raises(ValueError):
        fii_to_star5(star, FiiPartition((0, 1, 1, 0, 0), 2))


def test_c7_solver_conversion_pipeline():
    c7 = gen_cycle(7)
    res = find_fii(c7, 2)
    assert res.feasible
    col = fii_to_star5(c7, res.partition)
    ok, _ = is_star_coloring(c7, col)
    assert ok and col.palette_size == 5


def test_conversion_random_pipeline():
    rng = random.Random(35)
    for i in range(30):
        g = gen_mad_bounded(rng.randint(3, 12), Fraction(8, 3), 1000 + i)
        res = find_fii(g, 2)
        assert res.feasible
        col = fii_to_star5(g, res.partition)
        ok, _ = is_star_coloring(g, col)
        assert ok


def test_k_must_be_two_for_conversion():
    with pytest.raises(ValueError):
        fii_to_star5(gen_path(2), FiiPartition((0, 0), 3))


# -- labels -----------------------------------------------------------------------

def test_parse_label():
    assert parse_label("F", 2) == 0
    assert parse_label("Ia", 2) == 1
    assert parse_label("I2", 2) == 2
    with pytest.raises(ValueError):
        parse_label("I3", 2)
    with pytest.raises(ValueError):
        parse_label("xyz", 2)


# -- boundary search ---------------------------------------------------------------

def test_boundary_k0():
    corpus = [(f"cycle-{k}", gen_cycle(k)) for k in (3, 5, 8, 12, 20)]
    corpus += [(f"tree-{n}", gen_tree_random(n, n)) for n in (2, 6, 9)]
    report = boundary_search(0, corpus)
    by_name = {e.name: e for e in report.entries}
    for k in (3, 5, 8, 12, 20):
        assert by_name[f"cycle-{k}"].status == "infeasible"
        assert by_name[f"cycle-{k}"].mad == 2
    for n in (2, 6, 9):
        assert by_name[f"tree-{n}"].status == "feasible"
    assert report.min_infeasible_mad == 2


def test_boundary_k2_finds_tightness_witness():
    corpus = [("g5n-1", gen_g5n(1)), ("cycle-9", gen_cycle(9))]
    report = boundary_search(2, corpus)
    assert report.min_infeasible_mad == Fraction(46, 17)
