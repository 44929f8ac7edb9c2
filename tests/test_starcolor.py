import itertools
import random

import pytest

from starpart.graphs import Graph
from starpart.generators import (gen_complete, gen_cycle, gen_path, gen_star,
                                 gen_tree_random, gen_g5n)
from starpart.starcolor import (Coloring, degeneracy_order,
                                greedy_star_coloring, is_star_coloring,
                                star_chromatic_number,
                                star_chromatic_number_oracle)


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def _all_p4s(g):
    """Every 4-vertex path, as tuples, by brute-force sequence enumeration."""
    out = []
    for seq in itertools.permutations(range(g.n), 4):
        a, b, c, d = seq
        if a < d and g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d):
            out.append(seq)
    return out


def _is_star_bruteforce(g, coloring):
    c = coloring.colors
    if any(c[u] == c[v] for u, v in g.edges()):
        return False
    for p4 in _all_p4s(g):
        if len({c[x] for x in p4}) < 3:
            return False
    return True


def test_p4_two_colored_rejected():
    p4 = gen_path(4)
    ok, witness = is_star_coloring(p4, Coloring((0, 1, 0, 1), 2))
    assert not ok and witness[0] == "path"
    assert set(witness[1]) == {0, 1, 2, 3}


def test_monochromatic_edge_witness():
    ok, witness = is_star_coloring(gen_path(2), Coloring((0, 0), 1))
    assert not ok and witness == ("edge", (0, 1))


def test_tree_depth_mod3_is_star():
    tree = gen_tree_random(12, 5)
    dist = tree.bfs_distances(0)
    colors = tuple(int(d) % 3 for d in dist)
    ok, _ = is_star_coloring(tree, Coloring(colors, 3))
    assert ok


def test_c5_coloring_against_bruteforce():
    c5 = gen_cycle(5)
    for colors in ((0, 1, 0, 1, 2), (0, 1, 2, 0, 1), (0, 1, 2, 1, 2)):
        col = Coloring(colors, 3)
        ok, _ = is_star_coloring(c5, col)
        assert ok == _is_star_bruteforce(c5, col)


def test_verifier_matches_bruteforce_randomly():
    rng = random.Random(21)
    for _ in range(150):
        g = random_graph(rng, rng.randint(2, 7), rng.random())
        k = rng.randint(1, 4)
        col = Coloring(tuple(rng.randrange(k) for _ in range(g.n)), k)
        ok, _ = is_star_coloring(g, col)
        assert ok == _is_star_bruteforce(g, col)


def test_partial_coloring_rejected():
    with pytest.raises(ValueError):
        is_star_coloring(gen_path(3), Coloring((0, 1), 2))


def test_chi_s_complete_graphs():
    for n in range(1, 7):
        k, col = star_chromatic_number(gen_complete(n))
        assert k == n
        assert col.used() == n


def test_chi_s_c5_is_4():
    k, _ = star_chromatic_number(gen_cycle(5))
    assert k == 4
    assert star_chromatic_number_oracle(gen_cycle(5)) == 4


def test_chi_s_forests():
    assert star_chromatic_number(gen_path(4))[0] == 3
    assert star_chromatic_number(gen_path(7))[0] == 3
    assert star_chromatic_number(gen_star(4))[0] == 2
    assert star_chromatic_number(gen_path(2))[0] == 2
    assert star_chromatic_number(Graph(1, []))[0] == 1
    assert star_chromatic_number(gen_path(1500), force=True)[0] == 3


def test_chi_s_limit_and_errors():
    assert star_chromatic_number(gen_complete(5), limit=4) is None
    with pytest.raises(ValueError):
        star_chromatic_number(gen_path(3), limit=0)
    with pytest.raises(ValueError):
        star_chromatic_number(Graph(45, []))
    k, _ = star_chromatic_number(Graph(45, []), force=True)
    assert k == 1


def test_chi_s_matches_oracle_small():
    rng = random.Random(22)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6), rng.random() * 0.6)
        k, _ = star_chromatic_number(g)
        assert k == star_chromatic_number_oracle(g)


def test_chi_s_monotone_under_subgraphs():
    rng = random.Random(23)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        k_g, _ = star_chromatic_number(g)
        keep = [v for v in range(g.n) if rng.random() < 0.7]
        if not keep:
            continue
        h, _ = g.induced(keep)
        k_h, _ = star_chromatic_number(h)
        assert k_h <= k_g


def test_chi_s_deterministic():
    g = gen_g5n(1)
    a = star_chromatic_number(g)
    b = star_chromatic_number(g)
    assert a == b


def test_greedy_always_valid():
    rng = random.Random(24)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 12), rng.random() * 0.5)
        col = greedy_star_coloring(g)
        ok, _ = is_star_coloring(g, col)
        assert ok


def test_greedy_examples():
    col = greedy_star_coloring(gen_complete(4))
    assert col.used() == 4
    tree = gen_tree_random(10, 9)
    col = greedy_star_coloring(tree)
    ok, _ = is_star_coloring(tree, col)
    assert ok
    g5 = gen_g5n(1)
    col = greedy_star_coloring(g5, degeneracy_order(g5))
    ok, _ = is_star_coloring(g5, col)
    assert ok
    with pytest.raises(ValueError):
        greedy_star_coloring(gen_path(3), [0, 0, 1])


def test_greedy_output_pinned():
    col = greedy_star_coloring(gen_g5n(3))
    assert col.colors == (
        3, 1, 0, 2, 3, 2, 1, 0, 2, 3, 2, 1, 0, 2, 0, 3, 2, 3, 2, 3, 1, 3, 1, 1, 0, 1,
        0, 3, 2, 3, 2, 3, 1, 3, 1, 1, 0, 1, 0, 3, 2, 3, 2, 3, 1, 3, 1, 1, 0, 1, 0)
    assert col.palette_size == 4
    col = greedy_star_coloring(gen_cycle(7))
    assert col.colors == (2, 1, 0, 2, 0, 1, 0) and col.palette_size == 3
