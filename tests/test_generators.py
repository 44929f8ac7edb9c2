import hashlib
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from starpart import density, generators, graphs
from starpart.density import mad, mad_le, mad_le_8_3
from starpart.generators import (gen_complete, gen_corpus, gen_cycle, gen_g5n,
                                 gen_mad_bounded, gen_path, gen_star,
                                 gen_tree_random)
from starpart.graphs import (Graph, GraphError, girth, serialize_graph,
                             to_graph6, INFINITY)
import oracles


def _shuffled_pairs(n, seed):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    return pairs


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_g5n_counts():
    for n in (1, 2, 3):
        g = gen_g5n(n)
        assert g.n == 17 * n
        assert g.edge_count == 23 * n
    with pytest.raises(ValueError):
        gen_g5n(0)


def test_g5n_mad():
    assert mad(gen_g5n(1)).value == Fraction(46, 17)
    assert mad(gen_g5n(3)).value == Fraction(46, 17)


def test_g5n_numbering_stable():
    g = gen_g5n(2)
    # cycle edges first: 0..9 on the cycle
    for i in range(10):
        assert g.has_edge(i, (i + 1) % 10)
    # first triangle pair hangs off vertex 1
    assert g.has_edge(1, 10) and g.has_edge(1, 11) and g.has_edge(10, 11)


def test_mad_bounded_respects_bound():
    g = gen_mad_bounded(10, Fraction(8, 3), 7)
    assert mad_le_8_3(g)[0]
    for seed in (1, 2, 3):
        g = gen_mad_bounded(10, Fraction(2), seed)
        assert mad(g).value <= 2


def test_mad_bounded_deterministic():
    a = gen_mad_bounded(12, Fraction(8, 3), 99)
    b = gen_mad_bounded(12, Fraction(8, 3), 99)
    assert a == b
    c = gen_mad_bounded(12, Fraction(8, 3), 100)
    assert a != c or a.edge_count == c.edge_count  # different seed, usually differs


def test_mad_bounded_rejects_bad_bound():
    with pytest.raises(ValueError):
        gen_mad_bounded(5, Fraction(1, 2), 0)


def test_mad_bounded_output_pinned():
    # captured from the per-pair min-cut generator this one replaced
    corpus = gen_corpus(20, 40, "8/3", 11)
    assert _digest(f"{name} {serialize_graph(g, 'graph6')}"
                   for name, g in corpus) == \
        "71e251060997b96db74d558fb5386ce81c3eb51b07842fa191ef051e048bb936"
    pinned = {
        "2": (30, "050622039c84c390316662b6b477957bffad8f331e8018ed878a508b089afb54"),
        "5/2": (35, "2e6d8994020653835bfc13f827d9ffb6fff7eb5abaad6636a81f716b2429f22d"),
        "3": (45, "469c3c020b8c714ebbb08e3ad092463542f03ac35b96e7fded705086cbfe997e"),
        "8/3": (37, "652542230fa1e6c62ff7125c9ab8afb223ff3fb4d54efbe760cbfc7ee81f5151"),
    }
    for bound, (m, digest) in pinned.items():
        g = gen_mad_bounded(30, Fraction(bound), 5)
        assert (g.edge_count, _digest([serialize_graph(g, "graph6")])) == \
            (m, digest), bound


def test_corpus_graph6_pinned():
    # captured before the orientation's path walk was rewritten: every accept
    # decision of the generator runs through density.place_units
    corpus = gen_corpus(40, 20, Fraction(8, 3), 2024)
    assert _digest(to_graph6(g) for _, g in corpus) == \
        "a2739dd2f085c36a8952aba49f9f825d71ee36a855b6525d9a1b72f4d2b687fc"


def test_mad_bounded_replays_against_oracle():
    # each shuffled pair is kept iff mad(G + e) <= bound, by subset enumeration
    for n in (6, 9):
        for bound in map(Fraction, ("2", "5/2", "8/3", "3")):
            for seed in range(12):
                g = gen_mad_bounded(n, bound, seed)
                kept = []
                for u, v in _shuffled_pairs(n, seed):
                    fits = oracles.mad(Graph(n, kept + [(u, v)])) <= bound
                    assert g.has_edge(u, v) == fits, (n, bound, seed, u, v)
                    if fits:
                        kept.append((u, v))


def test_mad_bounded_large_output_pinned():
    # captured before the dead set was kept across candidate pairs
    g = gen_mad_bounded(400, Fraction(8, 3), 0)
    assert (g.edge_count, _digest([to_graph6(g)])) == \
        (514, "56936821f5211345952d70b075473398d96d149091507d8900a3cfdd4446b8d8")


def test_mad_bounded_search_count_pinned(monkeypatch):
    # a pair inside the dead set of an earlier failed search is rejected
    # unsearched; skipping only pairs with both ends dead now took 4274
    calls = []

    def counted(*args):
        calls.append(args)
        return density.place_units(*args)

    monkeypatch.setattr(generators, "density", SimpleNamespace(
        place_units=counted, release=density.release, mad_le=density.mad_le))
    counts = {}
    for n, seed in ((40, 1), (40, 3), (50, 1), (50, 3), (60, 1), (60, 3), (70, 3)):
        calls.clear()
        generators.gen_mad_bounded(n, Fraction(8, 3), seed)
        counts[n, seed] = len(calls)
    assert counts == {(40, 1): 90, (40, 3): 111, (50, 1): 189, (50, 3): 135,
                      (60, 1): 208, (60, 3): 128, (70, 3): 185}
    assert sum(counts.values()) == 1046


def test_corpus_deterministic_and_bounded():
    a = list(gen_corpus(10, 12, "8/3", 5))
    b = list(gen_corpus(10, 12, "8/3", 5))
    assert [n for n, _ in a] == [n for n, _ in b]
    assert all(x == y for (_, x), (_, y) in zip(a, b))
    for _, g in a:
        assert mad_le(g, Fraction(8, 3))
        assert 4 <= g.n <= 12
    for count, n_max in ((-1, 12), (3, 3)):
        with pytest.raises(ValueError):
            next(gen_corpus(count, n_max, "8/3", 5))


def test_families_check_the_vertex_cap_before_building(monkeypatch):
    def built(*_):
        raise AssertionError("built before the vertex count was checked")

    monkeypatch.setattr(graphs, "MAX_VERTICES", 16)
    monkeypatch.setattr(generators, "Graph", built)
    for make in (lambda: gen_cycle(17), lambda: gen_path(17), lambda: gen_g5n(1),
                 lambda: gen_complete(17), lambda: gen_star(16),
                 lambda: gen_tree_random(17, 0)):
        with pytest.raises(GraphError, match="vertex count 17 exceeds the limit of 16"):
            make()


def test_simple_families():
    assert girth(gen_cycle(7)) == 7
    assert girth(gen_path(5)) == INFINITY
    t = gen_tree_random(20, 4)
    assert t.is_forest() and t.edge_count == 19
    assert gen_tree_random(20, 4) == t
