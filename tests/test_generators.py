import hashlib
import random
from fractions import Fraction

import pytest

from starpart.density import mad, mad_le, mad_le_8_3, mad_oracle
from starpart.generators import (gen_corpus, gen_cycle, gen_g5n,
                                 gen_mad_bounded, gen_path, gen_tree_random)
from starpart.graphs import Graph, girth, serialize_graph, INFINITY


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


def test_mad_bounded_replays_against_oracle():
    # each shuffled pair is kept iff mad(G + e) <= bound, by subset enumeration
    for n in (6, 9):
        for bound in map(Fraction, ("2", "5/2", "8/3", "3")):
            for seed in range(12):
                g = gen_mad_bounded(n, bound, seed)
                kept = []
                for u, v in _shuffled_pairs(n, seed):
                    fits = mad_oracle(Graph(n, kept + [(u, v)])).value <= bound
                    assert g.has_edge(u, v) == fits, (n, bound, seed, u, v)
                    if fits:
                        kept.append((u, v))


def test_mad_bounded_honours_tries():
    full = gen_mad_bounded(12, Fraction(8, 3), 7)
    pairs = _shuffled_pairs(12, 7)
    for tries in (0, 1, 10, 30, 66, 1000):
        part = gen_mad_bounded(12, Fraction(8, 3), 7, tries=tries)
        assert part == Graph(12, [e for e in pairs[:tries] if full.has_edge(*e)])


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


def test_simple_families():
    assert girth(gen_cycle(7)) == 7
    assert girth(gen_path(5)) == INFINITY
    t = gen_tree_random(20, 4)
    assert t.is_forest() and t.edge_count == 19
    assert gen_tree_random(20, 4) == t
