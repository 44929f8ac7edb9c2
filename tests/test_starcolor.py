import itertools
import random

import pytest

from starpart.graphs import Graph
from starpart.generators import (gen_complete, gen_cycle, gen_path, gen_star,
                                 gen_tree_random, gen_g5n)
from starpart.starcolor import (Coloring, degeneracy_order, is_star_coloring,
                                star_chromatic_number)
import oracles
from oracles import random_graph


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
    depth = [None] * tree.n
    depth[0] = 0
    queue = [0]
    for u in queue:  # grows while it is walked: a BFS from vertex 0
        for w in tree.adj[u]:
            if depth[w] is None:
                depth[w] = depth[u] + 1
                queue.append(w)
    colors = tuple(d % 3 for d in depth)
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


def test_coloring_range_checked_on_every_construction():
    with pytest.raises(ValueError):
        Coloring((0, 2), 2)
    with pytest.raises(ValueError):
        Coloring._make(((0, 2), 2))
    with pytest.raises(ValueError):
        Coloring((0, 1), 2)._replace(colors=(0, 5))
    assert Coloring((0, 1), 2)._replace(palette_size=3) == Coloring((0, 1), 3)


def test_chi_s_complete_graphs():
    for n in range(1, 7):
        k, col = star_chromatic_number(gen_complete(n))
        assert k == n
        assert col.used() == n


def test_chi_s_c5_is_4():
    k, _ = star_chromatic_number(gen_cycle(5))
    assert k == 4
    assert oracles.chi_s(gen_cycle(5)) == 4


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
        assert k == oracles.chi_s(g)


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


def test_degeneracy_order_matches_quadratic_rule():
    def quadratic(g):
        deg = g.degrees()
        alive = list(range(g.n))
        deletion = []
        while alive:
            v = min(alive, key=lambda x: (deg[x], x))
            alive.remove(v)
            deletion.append(v)
            for w in g.adj[v]:
                deg[w] -= 1
        return deletion[::-1]

    rng = random.Random(5)
    graphs = [random_graph(rng, rng.randrange(1, 40), rng.random() * 0.4)
              for _ in range(50)]
    for g in graphs + [gen_cycle(5000)]:
        assert degeneracy_order(g) == quadratic(g)
