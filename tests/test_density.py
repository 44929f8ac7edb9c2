import random
from fractions import Fraction

import pytest

from starpart import density
from starpart.density import (mad, mad_le, mad_le_8_3, place_units, release,
                              rho, rho_star, rho_star_weighted)
from starpart.graphs import Graph, GraphError
from starpart.generators import (gen_complete, gen_corpus, gen_cycle,
                                 gen_g5n, gen_mad_bounded, gen_path,
                                 gen_tree_random)
import oracles
from oracles import random_graph


# -- rho -----------------------------------------------------------------------

def test_rho_formula_examples():
    k4 = gen_complete(4)
    assert rho(k4, range(4)) == 4 * 4 - 3 * 6 == -2
    assert rho(gen_cycle(3), range(3)) == 12 - 9 == 3
    tree = gen_tree_random(7, 1)
    for k in (1, 3, 7):
        sub = list(range(k))
        # any subset of a tree induces a forest: rho = 4k - 3(k - c) >= k + 3
        assert rho(tree, sub) >= k + 3
    assert rho(gen_path(5), range(5)) == 4 * 5 - 3 * 4 == 8


def test_rho_range_check():
    with pytest.raises(ValueError):
        rho(gen_path(3), [5])


# -- mad ------------------------------------------------------------------------

def test_mad_examples():
    assert mad(gen_complete(4)).value == 3
    for n in (2, 5, 9):
        t = gen_tree_random(n, n)
        d = mad(t)
        assert d.value == Fraction(2 * (n - 1), n)
        assert len(d.witness) == n
    assert mad(gen_g5n(1)).value == Fraction(46, 17)
    assert mad(gen_g5n(2)).value == Fraction(46, 17)
    assert mad(Graph(3, [])).value == 0


def test_mad_witness_density_matches():
    rng = random.Random(11)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        d = mad(g)
        vs = set(d.witness)
        m = sum(1 for u, v in g.edges() if u in vs and v in vs)
        assert d.value == Fraction(2 * m, len(vs))


def test_mad_flow_equals_oracle():
    rng = random.Random(12)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 9), rng.random())
        assert mad(g).value == oracles.mad(g)


def _densest_union(g):
    """The union of all densest nonempty subsets, by subset enumeration."""
    counts = oracles.edge_counts(g)
    best_e, best_k = 0, 1
    for mask, e in enumerate(counts):
        if e * best_k > best_e * mask.bit_count():
            best_e, best_k = e, mask.bit_count()
    union = 0
    for mask, e in enumerate(counts):
        if mask and e * best_k == best_e * mask.bit_count():
            union |= mask
    return tuple(v for v in range(g.n) if union >> v & 1)


def _disjoint_union(graphs, rng):
    edges, n = [], 0
    for h in graphs:
        edges += [(u + n, v + n) for u, v in h.edges()]
        n += h.n
    return _relabel(Graph(n, edges), rng)[0]


def test_mad_witness_is_maximal_densest_set():
    rng = random.Random(21)
    graphs = [random_graph(rng, rng.randint(1, 12), rng.random())
              for _ in range(150)]
    graphs += [gen_tree_random(rng.randint(2, 12), s) for s in range(20)]
    graphs += [Graph(n, [(rng.randrange(i), i) for i in range(1, n)
                         if rng.random() < 0.6])
               for n in (rng.randint(3, 12) for _ in range(30))]
    # the whole vertex set is densest: regular and complete graphs
    whole = [gen_cycle(7), gen_complete(5), gen_cycle(12),
             Graph(8, [(i, (i + d) % 8) for i in range(8) for d in (1, 2)])]
    for g in whole:
        assert mad(g).witness == tuple(range(g.n))
    # relabeled unions with a tree first and the denser parts after it
    for _ in range(60):
        parts = [gen_tree_random(rng.randint(1, 4), rng.randrange(99)),
                 random_graph(rng, rng.randint(1, 4), 0.5),
                 random_graph(rng, rng.randint(3, 5), rng.uniform(0.6, 1.0))]
        graphs.append(_disjoint_union(parts, rng))
    graphs += whole
    forests = 0
    for g in graphs:
        if not g.edge_count:  # every single vertex is densest; (0,) is returned
            continue
        forests += g.is_forest()
        assert mad(g).witness == _densest_union(g), g
    assert forests >= 40


def test_mad_on_g5n_makes_almost_no_augmenting_search(monkeypatch):
    # walking the edges from their low-degree ends lets the inline fill place
    # nearly every unit; in g.edges() order mad(g5n(50)) searched 249 times
    calls = []
    place = density.place_units

    def counted(*args):
        calls.append(args[3])
        return place(*args)

    monkeypatch.setattr(density, "place_units", counted)
    assert mad(gen_g5n(50)).value == Fraction(46, 17)
    assert len(calls) <= 2


def test_mad_makes_one_orientation_where_it_starts_at_the_answer(monkeypatch):
    # the 2-core start density is already mad/2 on both graphs, so the first
    # orientation certifies it
    union = _disjoint_union([g for _, g in gen_corpus(60, 14, "8/3", 3)],
                            random.Random(22))
    g5 = gen_g5n(50)
    calls = []
    orient = density._orient

    def counted(*args):
        calls.append(args[2:])
        return orient(*args)

    monkeypatch.setattr(density, "_orient", counted)
    assert mad(union).value == Fraction(8, 3)
    assert calls == [(4, 3)]
    calls.clear()
    assert mad(g5).value == Fraction(46, 17)
    assert calls == [(23, 17)]


# -- rho* -----------------------------------------------------------------------

def test_rho_star_forest_empty_seed():
    t = gen_tree_random(6, 2)
    res = rho_star(t, ())
    assert res.value == 0 and res.minimizer == ()


def test_rho_star_k4():
    res = rho_star(gen_complete(4), ())
    assert res.value == -2 and res.minimizer == (0, 1, 2, 3)
    assert oracles.rho_star(gen_complete(4)) == -2
    for seed in ((4,), (-1,)):
        with pytest.raises(ValueError, match="out of range"):
            rho_star(gen_complete(4), seed)


def test_vertex_arguments_are_checked_in_the_callers_order():
    k4 = gen_complete(4)
    for fn in (rho, rho_star):
        with pytest.raises(GraphError, match=r"^vertex 9 out of range 0\.\.3$"):
            fn(k4, [1, 9, -1])
        # a one-shot iterable is read once, after its check
        assert fn(k4, iter((0, 1))) == fn(k4, (0, 1))


def test_rho_star_g5_seed():
    g5 = gen_g5n(1)
    res = rho_star(g5, (0,))
    assert res.value == oracles.rho_star(g5, (0,))
    assert 0 in res.minimizer
    assert rho(g5, res.minimizer) == res.value


def test_rho_star_seed_contained():
    rng = random.Random(13)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9), rng.random() * 0.7)
        seed = [v for v in range(g.n) if rng.random() < 0.3]
        res = rho_star(g, seed)
        assert set(seed) <= set(res.minimizer)
        assert res.value == oracles.rho_star(g, seed)
        assert res.value == rho(g, res.minimizer)


def test_rho_star_table_matches_pointwise():
    rng = random.Random(14)
    g = random_graph(rng, 8, 0.4)
    table = oracles.rho_star_table(g)
    assert table[-1] == rho(g, range(g.n))
    for mask in range(0, 1 << g.n, 7):
        seed = [v for v in range(g.n) if mask >> v & 1]
        assert table[mask] == rho_star(g, seed).value


# -- the 8/3 threshold ------------------------------------------------------------

def test_mad_le_8_3_examples():
    ok, wit = mad_le_8_3(gen_complete(4))
    assert not ok and wit == (0, 1, 2, 3)
    ok, wit = mad_le_8_3(gen_cycle(5))
    assert ok and wit is None
    # the tightness family sits strictly above the threshold:
    # 46/17 > 8/3 (138 > 136), as it must, having no FII-partition
    ok, wit = mad_le_8_3(gen_g5n(1))
    assert not ok
    assert rho(gen_g5n(1), wit) < 0


def _union_with_pendant_edges(rng):
    """Two or three disjoint random graphs, then 1-4 edges to new leaves."""
    edges, n = [], 0
    for _ in range(rng.randint(2, 3)):
        h = random_graph(rng, rng.randint(1, 7), rng.uniform(0.4, 1.0))
        edges += [(u + n, v + n) for u, v in h.edges()]
        n += h.n
    for _ in range(rng.randint(1, 4)):
        edges.append((rng.randrange(n), n))
        n += 1
    return Graph(n, edges)


def test_violating_set_inside_densest_witness():
    # the least minimizer of rho contains every densest set, so an
    # orientation seeded with mad's witness finds the same violating set
    rng = random.Random(17)
    graphs = [random_graph(rng, rng.randint(1, 17), rng.random())
              for _ in range(5000)]
    graphs += [_union_with_pendant_edges(rng) for _ in range(1000)]
    graphs += [gen_g5n(k) for k in (1, 5, 50, 200)]
    violations = 0
    for g in graphs:
        d = mad(g)
        if d.value > Fraction(8, 3):
            violations += 1
            assert rho_star(g, d.witness).minimizer == mad_le_8_3(g)[1], g
    assert violations > 2000


def test_mad_le_matches_definition():
    rng = random.Random(15)
    for _ in range(80):
        g = random_graph(rng, rng.randint(1, 9), rng.random() * 0.6)
        value = mad(g).value
        for bound in (Fraction(2), Fraction(8, 3), Fraction(3), Fraction(5, 2)):
            assert mad_le(g, bound) == (value <= bound)
        ok, _ = mad_le_8_3(g)
        assert ok == (value <= Fraction(8, 3))


def _weighted_oracle(g, seed, a, b):
    """Brute-force min over K >= seed of a|K| - b|E(K)|, and the intersection
    of all minimizing K."""
    free = [v for v in range(g.n) if v not in seed]
    values = {}
    for mask in range(1 << len(free)):
        k = set(seed) | {free[i] for i in range(len(free)) if mask >> i & 1}
        e = sum(1 for u, v in g.edges() if u in k and v in k)
        values[frozenset(k)] = a * len(k) - b * e
    best = min(values.values())
    least = frozenset(range(g.n)).intersection(
        *(k for k, val in values.items() if val == best))
    return best, tuple(sorted(least))


def test_rho_star_weighted_consistency():
    rng = random.Random(16)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), 0.5)
        seed = [v for v in range(g.n) if rng.random() < 0.25]
        assert rho_star_weighted(g, seed, 4, 3).value == rho_star(g, seed).value
        for a, b in ((4, 3), (8, 3), (46, 17), (5, 2), (1_000_003, 1_000_000)):
            res = rho_star_weighted(g, seed, a, b)
            assert (res.value, res.minimizer) == _weighted_oracle(g, seed, a, b)


def test_rho_star_weighted_with_every_vertex_seeded():
    rng = random.Random(23)
    for g in [gen_g5n(5)] + [random_graph(rng, rng.randint(1, 10), rng.random())
                             for _ in range(20)]:
        for a, b in ((4, 3), (8, 3), (5, 2)):
            assert rho_star_weighted(g, range(g.n), a, b) == \
                (a * g.n - b * g.edge_count, tuple(range(g.n)))


def test_negative_weights_rejected():
    g = Graph(3, [])
    with pytest.raises(ValueError):
        rho_star_weighted(g, (), -1, 3)
    with pytest.raises(ValueError):
        rho_star_weighted(gen_path(3), (), 4, -3)
    with pytest.raises(ValueError):
        mad_le(g, Fraction(-1))
    assert mad_le(g, Fraction(0)) and not mad_le(gen_path(2), Fraction(0))


def test_place_units_keeps_a_valid_orientation():
    rng = random.Random(19)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 9), rng.random())
        cap, want = rng.randint(0, 9), rng.randint(0, 9)
        held = [{} for _ in range(g.n)]
        load = [0] * g.n
        dead = set()
        unplaced = 0
        for u, v in g.edges():
            before = set(dead)
            (at_u, at_v), reached = place_units(held, load, cap, (u, v), want, dead)
            held[u][v], held[v][u] = at_u, at_v
            unplaced += want - at_u - at_v
            assert sorted(reached) == sorted(dead - before)
            assert not reached or at_u + at_v < want
        assert all(load[x] == sum(held[x].values()) <= cap for x in range(g.n))
        # the dead set is closed: no unit on it can shift out of it
        assert all(not k or y in dead for x in dead for y, k in held[x].items())
        assert _weighted_oracle(g, (), cap, want) == (-unplaced, tuple(sorted(dead)))


def test_kept_dead_set_stays_dead_and_decides_as_a_fresh_one():
    # the generator's loop: one dead set for the run, give-backs released
    rng = random.Random(23)
    partial = 0
    for _ in range(150):
        n, cap, want = rng.randint(2, 12), rng.randint(1, 9), rng.randint(1, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        rng.shuffle(pairs)
        held = [{} for _ in range(n)]
        load = [0] * n
        dead = set()
        for u, v in pairs:
            fresh, _ = place_units([dict(h) for h in held], list(load), cap,
                                   (u, v), want, set())
            before = set(dead)
            if u in dead and v in dead:
                at_u = at_v = 0
            else:
                (at_u, at_v), reached = place_units(held, load, cap, (u, v), want, dead)
                assert sorted(reached) == sorted(dead - before)
            assert (at_u + at_v == want) == (sum(fresh) == want)
            if at_u + at_v == want:
                held[u][v], held[v][u] = at_u, at_v
            else:
                partial += at_u + at_v > 0
                load[u] -= at_u
                load[v] -= at_v
                failed = set(dead)
                freed = release(held, [x for x, at in ((u, at_u), (v, at_v)) if at],
                                dead)
                assert sorted(freed) == sorted(failed - dead)
            assert all(load[x] == sum(held[x].values()) <= cap for x in range(n))
            assert all(load[x] == cap for x in dead)
            assert all(not k or y in dead for x in dead for y, k in held[x].items())
    assert partial > 100


def test_release_drops_what_reaches_room():
    # arcs 0 -> 1 -> 2, 3 -> 2 and 1 -> 4; no arc leaves 4
    held = [{1: 1}, {0: 0, 2: 1, 4: 1}, {1: 0, 3: 0}, {2: 1}, {1: 0}]
    trapped = {0, 1, 3, 4}
    assert release(held, [1], trapped) == [1, 0]
    assert trapped == {3, 4}
    assert release(held, [2], trapped) == [2, 3]
    assert trapped == {4}


def _relabel(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]), perm


def test_mad_commutes_with_relabeling():
    rng = random.Random(20)
    graphs = [gen_g5n(50)] + [random_graph(rng, rng.randint(1, 14), rng.random())
                              for _ in range(60)]
    for g in graphs:
        h, perm = _relabel(g, rng)
        d, e = mad(g), mad(h)
        assert e.value == d.value
        if g.edge_count:  # else every single vertex is densest and (0,) is returned
            assert e.witness == tuple(sorted(perm[v] for v in d.witness))


# -- potential inequalities (spot checks; the acceptance suite scales up) ---------

def test_submodularity_spot():
    rng = random.Random(17)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 9), rng.random() * 0.6)
        a = {v for v in range(g.n) if rng.random() < 0.3}
        b = {v for v in range(g.n) if rng.random() < 0.3}
        lhs = rho_star(g, a).value + rho_star(g, b).value
        rhs = rho_star(g, a | b).value + rho_star(g, a & b).value
        assert lhs >= rhs


def test_deletion_bound_spot():
    rng = random.Random(18)
    done = 0
    while done < 60:
        g = gen_mad_bounded(rng.randint(2, 10), Fraction(8, 3),
                            rng.randrange(2**30))
        s = {v for v in range(g.n) if rng.random() < 0.25}
        if not s:
            continue
        t = {u for v in s for u in g.adj[v]} - s
        incident = sum(1 for u, v in g.edges() if u in s or v in s)
        keep = [v for v in range(g.n) if v not in s]
        h, keep_list = g.induced(keep)
        idx = {old: new for new, old in enumerate(keep_list)}
        val = rho_star(h, [idx[v] for v in t]).value
        assert val >= -4 * len(s) + 3 * incident
        done += 1
