import hashlib
import itertools
import json
import random
import re
import time
import tracemalloc
from fractions import Fraction

import pytest

from starpart.graphs import (BudgetExhausted, Graph, GraphError, VertexClass,
                             balls2, classify_vertices, double_triangle_edges,
                             find_pendent_triangles, to_graph6, triangle_split)
from starpart.generators import (gen_cycle, gen_g5n, gen_mad_bounded, gen_path,
                                 gen_star)
from starpart.density import mad, mad_le_8_3, rho_star
from starpart.configs import (ALL_CONFIG_IDS, ConfigMatch, GADGET_BUDGET,
                              attach_gadget, gadget_by_name, reduction_plan,
                              scan_configs, verify_lemma_extension)
from starpart import cli, configs, fii, instances
from oracles import random_graph

_W = VertexClass


# -- naive matchers: direct role enumeration from the class definitions ----------

def _naive_local(g):
    """Re-derive the non-cycle configurations by plain role enumeration."""
    cls = classify_vertices(g)
    tri_at = {}
    for tri in find_pendent_triangles(g):
        tri_at.setdefault(tri[0], []).append(tri)
    found = set()
    w2345 = (_W.W2, _W.W3, _W.W4, _W.W5)
    w235 = (_W.W2, _W.W3, _W.W5)
    for v in range(g.n):
        if g.degree(v) <= 1:
            found.add(("C1", v))
    for u, v in itertools.combinations(range(g.n), 2):
        if g.has_edge(u, v) and cls[u] == _W.W2 and cls[v] == _W.W2:
            found.add(("C2", u, v))
    for v in range(g.n):
        if g.degree(v) == 3 and all(g.degree(u) == 2 for u in g.adj[v]):
            found.add(("C3", v))
        if g.degree(v) == 3:
            for tri in tri_at.get(v, ()):
                found.add(("C4", v, tuple(sorted(tri[1:]))))
    for u, v in itertools.combinations(range(g.n), 2):
        if g.has_edge(u, v) and cls[u] == _W.W3 and cls[v] == _W.W3:
            found.add(("C5", u, v))
    for v in range(g.n):
        if g.degree(v) != 3:
            continue
        for v1, v2 in itertools.permutations(g.adj[v], 2):
            if g.degree(v1) == 2 and cls[v2] == _W.W3:
                found.add(("C6", v, v1, v2))
        for v1, v2 in itertools.combinations(sorted(g.adj[v]), 2):
            if cls[v1] == _W.W3 and cls[v2] == _W.W3:
                found.add(("C7", v, v1, v2))
    for v in range(g.n):
        if cls[v] == _W.W4:
            tri2 = set(tri_at[v][0][1:])
            for v1 in g.adj[v]:
                if v1 not in tri2 and cls[v1] in w2345:
                    found.add(("C8", v, v1))
        if cls[v] == _W.W5:
            tri2 = {t for tri in tri_at[v] for t in tri[1:]}
            v1 = next(u for u in g.adj[v] if u not in tri2)
            if g.degree(v1) == 3 or cls[v1] in (_W.W2, _W.W5):
                found.add(("C9", v, v1))
        if g.degree(v) == 7 and len(tri_at.get(v, ())) == 3:
            tri2 = {t for tri in tri_at[v] for t in tri[1:]}
            v1 = next(u for u in g.adj[v] if u not in tri2)
            if cls[v1] in w235:
                found.add(("C10", v, v1))
        if cls[v] == _W.V4 and all(cls[u] in w235 for u in g.adj[v]):
            n2 = sum(1 for u in g.adj[v] if cls[u] == _W.W2)
            n5 = sum(1 for u in g.adj[v] if cls[u] == _W.W5)
            if n2 >= 2 or n5 >= 2:
                found.add(("Cp3", v))
        if g.degree(v) == 5 and len(tri_at.get(v, ())) == 1:
            tri2 = set(tri_at[v][0][1:])
            rest = [u for u in g.adj[v] if u not in tri2]
            if all(cls[u] in w235 for u in rest) \
                    and sum(1 for u in rest if cls[u] == _W.W2) >= 2:
                found.add(("Cp4", v))
        if g.degree(v) == 6 and len(tri_at.get(v, ())) == 2:
            tri2 = {t for tri in tri_at[v] for t in tri[1:]}
            rest = [u for u in g.adj[v] if u not in tri2]
            for u1, u2 in itertools.permutations(rest, 2):
                if cls[u1] in (_W.W2, _W.W5) and cls[u2] in w235:
                    found.add(("Cp5", v, u1, u2))
    return found


def _matches_as_keys(matches):
    keys = set()
    for m in matches:
        cid = m.config_id
        if cid == "C1":
            keys.add((cid, m.role("v")))
        elif cid in ("C2", "C5"):
            a, b = (m.role("u"), m.role("v")) if cid == "C2" \
                else (m.role("x"), m.role("y"))
            keys.add((cid, min(a, b), max(a, b)))
        elif cid == "C3":
            keys.add((cid, m.role("v")))
        elif cid == "C4":
            keys.add((cid, m.role("v"), (m.role("t1"), m.role("t2"))))
        elif cid == "C6":
            keys.add((cid, m.role("v"), m.role("v1"), m.role("v2")))
        elif cid == "C7":
            keys.add((cid, m.role("v"), m.role("v1"), m.role("v2")))
        elif cid in ("C8", "C9", "C10"):
            keys.add((cid, m.role("v"), m.role("v1")))
        elif cid in ("Cp3", "Cp4"):
            keys.add((cid, m.role("v")))
        elif cid == "Cp5":
            keys.add((cid, m.role("v"), m.role("u1"), m.role("u2")))
        elif cid in ("Cp1", "Cp2"):
            keys.add((cid, m.role("cycle")))
    return keys


def _naive_cycles(g):
    """Cycle configurations by exhaustive path extension."""
    cls = classify_vertices(g)
    found = set()

    def cycles_over(allowed):
        out = set()
        def extend(start, path, seen):
            u = path[-1]
            for w in g.adj[u]:
                if w == start and len(path) >= 3 and path[1] < u:
                    out.add(tuple(path))
                elif w in allowed and w > start and w not in seen:
                    extend(start, path + [w], seen | {w})
        for start in sorted(allowed):
            extend(start, [start], {start})
        return out

    w23 = {v for v in range(g.n) if cls[v] in (_W.W2, _W.W3)}
    for cyc in cycles_over(w23):
        found.add(("Cp1", cyc))
    v3w4 = {v for v in range(g.n) if cls[v] in (_W.V3, _W.W4)}
    for cyc in cycles_over(v3w4):
        if all(any(cls[u] in (_W.W2, _W.W3) for u in g.adj[x])
               for x in cyc if cls[x] == _W.V3):
            found.add(("Cp2", cyc))
    return found


def test_scan_matches_naive_local():
    rng = random.Random(41)
    local_ids = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10",
                 "Cp3", "Cp4", "Cp5")
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 12), rng.random() * 0.45)
        got = _matches_as_keys(scan_configs(g, local_ids))
        assert got == _naive_local(g)
    # structured graphs exercise the triangle-heavy configurations
    for g, _ in (instances.INSTANCES[c]() for c in ALL_CONFIG_IDS):
        got = _matches_as_keys(scan_configs(g, local_ids))
        assert got == _naive_local(g)


def test_scan_matches_naive_cycles():
    rng = random.Random(42)
    for _ in range(50):
        g = random_graph(rng, rng.randint(3, 8), rng.random() * 0.6)
        got = _matches_as_keys(scan_configs(g, ("Cp1", "Cp2")))
        assert got == _naive_cycles(g)


def test_cycle_cover_is_the_union_of_the_listed_cycles():
    rng = random.Random(43)
    on_some_cycle = 0
    for _ in range(300):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.random() * 0.4)
        share = rng.uniform(0.3, 1)
        allowed = {v for v in range(n) if rng.random() < share}
        listed = {v for cyc in configs._all_cycles_within(g, allowed, None)
                  for v in cyc}
        assert configs._on_cycles(g, allowed) == listed
        on_some_cycle += bool(listed)
        covered = {cid: {v for m in scan_configs(g, (cid,))
                         for v in m.role("cycle")} for cid in ("Cp1", "Cp2")}
        assert configs.cycle_cover(g) == covered
    assert on_some_cycle > 50


# -- pin: scan and plan output over a fixed corpus -----------------------------------

def _pin_host():
    """Ten copies of the 15 shipped instances, relabelled by a seeded shuffle."""
    n, edges = 0, []
    for _ in range(10):
        for cid in ALL_CONFIG_IDS:
            g, _ = instances.INSTANCES[cid]()
            edges += [(u + n, v + n) for u, v in g.edges()]
            n += g.n
    perm = list(range(n))
    random.Random(0).shuffle(perm)
    return Graph(n, [(perm[u], perm[v]) for u, v in edges])


def _pin_decorated(rng):
    """A random graph with a quarter of its edges subdivided and up to six
    pendent triangles, J1 and J2 gadgets hung on it."""
    n = rng.randint(4, 12)
    p = rng.uniform(0.15, 0.4)
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        if rng.random() >= p:
            continue
        if rng.random() < 0.25:
            edges += [(u, n), (n, v)]
            n += 1
        else:
            edges.append((u, v))
    g = Graph(n, edges)
    for _ in range(rng.randint(0, 6)):
        gadget = rng.choice((("triangle",), ("triangle",), ("j1",), ("j2",)))
        g = attach_gadget(g, rng.randrange(n), gadget)
    return g


#: match count, then sha256 of the scans and of the plans, over the pin corpus
PIN = (1736, "7108d582899096f5cab7e14973a0fdf6bf4c499c35ca7027b199f668588df912",
       "698d0ed342a71ccaa38f9ab229d9ce6f5e36768b5aecd8f98f87a8a17219f785")


def test_scan_and_plans_pinned():
    # digests of every match (ids, role tuples, order) and of every plan or
    # its refusal, recorded before the scan was rewritten per anchor vertex
    rng = random.Random(15)
    graphs = [_pin_decorated(rng) for _ in range(200)] + [_pin_host()]
    scan, plans = hashlib.sha256(), hashlib.sha256()
    seen, total = set(), 0
    for g in graphs:
        matches = scan_configs(g)
        seen.update(m.config_id for m in matches)
        total += len(matches)
        scan.update(repr(matches).encode())
        for m in matches:
            try:
                text = repr(reduction_plan(g, m))
            except ValueError as exc:
                text = f"ValueError: {exc}"
            plans.update(text.encode())
    assert seen == set(ALL_CONFIG_IDS)
    assert (total, scan.hexdigest(), plans.hexdigest()) == PIN


def test_triangle_split_matches_the_pendent_triangles():
    rng = random.Random(20)
    for g in [_pin_decorated(rng) for _ in range(200)] + [_pin_host()]:
        pairs = {}
        for apex, x, y in find_pendent_triangles(g):
            pairs.setdefault(apex, []).append((min(x, y), max(x, y)))
        split = triangle_split(g)
        assert split.keys() == pairs.keys()
        for apex, (twos, rest) in split.items():
            assert list(zip(twos[0::2], twos[1::2])) == sorted(pairs[apex])
            assert rest == tuple(sorted(set(g.adj[apex]) - set(twos)))


#: sha256 of (n, sorted edges) of the 15 shipped instances, in id order
INSTANCES_PIN = "7894b2e781792102f6d48f188e62fcad5659d1bce38df06d79e2335f53d44e8a"


def test_shipped_instances_pinned():
    graphs = [(g.n, sorted(g.edges()))
              for g, _ in (instances.INSTANCES[cid]() for cid in ALL_CONFIG_IDS)]
    assert hashlib.sha256(repr(graphs).encode()).hexdigest() == INSTANCES_PIN


# -- specific examples -------------------------------------------------------------

def test_isolated_vertex_is_c1():
    g = Graph(3, [(0, 1)])
    ids = [m.config_id for m in scan_configs(g, ("C1",))]
    assert ids.count("C1") == 3  # both endpoints are 1-vertices, 2 is isolated


def test_adjacent_w3_pair_8_vertices():
    # x-y edge, each with two 2-neighbors, outer ends shared pairwise
    g = Graph(8, [(0, 1), (0, 2), (0, 3), (2, 6), (3, 6),
                  (1, 4), (1, 5), (4, 7), (5, 7)])
    matches = scan_configs(g, ("C5",))
    assert len(matches) == 1
    assert matches[0].role("x") == 0 and matches[0].role("y") == 1


def test_c8_cycle_is_cp1():
    matches = scan_configs(gen_cycle(8), ("Cp1",))
    assert len(matches) == 1
    assert matches[0].role("cycle") == tuple(range(8))


def test_g5n_matches_only_c2():
    # the two plain cycle vertices of each block are adjacent W2-vertices;
    # nothing else in the family matches any configuration
    matches = scan_configs(gen_g5n(1))
    assert [(m.config_id, m.role("u"), m.role("v")) for m in matches] \
        == [("C2", 0, 4)]
    matches = scan_configs(gen_g5n(2))
    assert all(m.config_id == "C2" for m in matches)
    assert len(matches) == 2


def test_unknown_id_rejected():
    with pytest.raises(ValueError):
        scan_configs(gen_path(3), ("C99",))


# -- gadgets ------------------------------------------------------------------------

def test_gadget_vertex_counts():
    g = gen_path(6)
    assert attach_gadget(g, 0, ("triangle",)).n == g.n + 2
    assert attach_gadget(g, 0, ("j1",)).n == g.n + 5
    assert attach_gadget(g, 0, ("j2",)).n == g.n + 10
    assert attach_gadget(g, 0, ("path2", 5)).n == g.n + 1
    assert attach_gadget(g, 0, ("edge", 5)).n == g.n


def test_gadget_graft_noninvasive():
    rng = random.Random(43)
    for gadget in (("triangle",), ("j1",), ("j2",), ("path2", 3)):
        g = random_graph(rng, 6, 0.4)
        h = attach_gadget(g, 2, gadget)
        restricted, _ = h.induced(range(g.n))
        assert restricted == g


def test_shipped_j2_chains_are_the_j2_gadget():
    # C9 and C10 pin an outer vertex with the chain at - w - w + 1, each of
    # w and w + 1 the apex of two pendent triangles, spelled out here
    def chain(at, w):
        return [(at, w), (w, w + 1), *double_triangle_edges(w, w + 2),
                *double_triangle_edges(w + 1, w + 6)]

    c9 = Graph(17, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5),
                    (5, 6), *chain(6, 7)])
    c10 = Graph(19, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5),
                     (0, 6), (5, 6), (0, 7), (7, 8), *chain(8, 9)])
    assert instances.instance_c9() == (c9, {"v": 0, "v1": 5})
    assert instances.instance_c10() == (c10, {"v": 0, "v1": 7})


def test_gadget_errors():
    g = gen_path(4)
    with pytest.raises(ValueError):
        attach_gadget(g, 9, ("triangle",))
    with pytest.raises(ValueError):
        attach_gadget(g, 0, ("edge", 1))  # already present
    with pytest.raises(ValueError):
        attach_gadget(g, 0, ("edge", 0))
    with pytest.raises(ValueError):
        attach_gadget(g, 0, ("path2", 4))
    # a gadget back to its own attachment point names that point, not the
    # new middle vertex of path2
    with pytest.raises(ValueError, match=r"^path2 \(2, 2\) joins vertex 2 to itself$"):
        attach_gadget(g, 2, ("path2", 2))
    with pytest.raises(ValueError):
        attach_gadget(g, 0, ("j3",))
    # a gadget holds exactly the fields of its kind
    for gadget in ((), ("edge",), ("path2", 2, 3), ("triangle", 1), ("j1", 1)):
        with pytest.raises(GraphError, match=f"^unknown gadget {re.escape(repr(gadget))}$"):
            attach_gadget(g, 0, gadget)
    # the attachment point is checked before the target, each with the range
    with pytest.raises(ValueError, match=r"^vertex 9 out of range 0\.\.3$"):
        attach_gadget(g, 9, ("edge", 7))
    with pytest.raises(ValueError, match=r"^vertex 7 out of range 0\.\.3$"):
        attach_gadget(g, 0, ("path2", 7))
    with pytest.raises(ValueError, match=r"^deleted vertex 4 out of range 0\.\.3$"):
        verify_lemma_extension(g, scan_configs(g, ["C1"])[0],
                               configs.ReductionPlan((0, 4)))
    with pytest.raises(ValueError):
        gadget_by_name("nope")
    with pytest.raises(ValueError):
        gadget_by_name("edge")
    with pytest.raises(ValueError, match="^unknown gadget 'edge:x'$"):
        gadget_by_name("Edge:x")
    assert gadget_by_name(" J2 ") == ("j2",) and gadget_by_name("j1") == ("j1",)
    for name in ("triangle", "Pendent-Triangle", "PT"):
        assert gadget_by_name(name) == ("triangle",)
    assert gadget_by_name("edge:3") == ("edge", 3)
    assert gadget_by_name("PATH2:3") == ("path2", 3)


def test_gadgets_with_a_target_differ_by_class():
    # the kind tells a gadget with a target from the other kind and from
    # the bare target, and the gadget is an immutable, hashable value
    edge, path2 = gadget_by_name("edge:3"), gadget_by_name("path2:3")
    assert edge != path2 != (3,) and edge != (3,)
    assert edge == ("edge", 3) and edge != gadget_by_name("edge:4")
    assert len({edge, path2, gadget_by_name("edge:3")}) == 2
    with pytest.raises(TypeError):
        edge[1] = 4


def test_gadget_internal_potentials_match_budgets():
    # the attachment-point potential inside each gadget is 4 - budget
    seed = Graph(1, [])
    for gadget, budget in ((("triangle",), 1), (("j1",), 1), (("j2",), 2)):
        lone = attach_gadget(seed, 0, gadget)
        assert rho_star(lone, (0,)).value == 4 - budget
        assert GADGET_BUDGET[gadget[0]] == budget
    assert len(GADGET_BUDGET) == 3


def test_attach_preserves_bound_on_path():
    g = gen_path(10)
    h = attach_gadget(g, 4, ("triangle",))
    ok, _ = mad_le_8_3(h)
    assert ok


def test_attach_two_triangles_at_star_leaf():
    g = gen_star(3)
    before = rho_star(g, (1,)).value
    h = attach_gadget(g, 1, ("triangle",))
    h = attach_gadget(h, 1, ("triangle",))
    assert mad(h).value <= Fraction(8, 3)
    assert rho_star(h, (1,)).value >= before - 2


def test_budget_violation_can_break_bound():
    # three triangles identified at v give rho*(v) = 1; grafting the
    # double-apex chain there (budget 2) pushes the density over 8/3
    g = Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4),
                  (0, 5), (0, 6), (5, 6)])
    assert rho_star(g, (0,)).value == 1
    assert mad_le_8_3(g)[0]
    h = attach_gadget(g, 0, ("j2",))
    ok, witness = mad_le_8_3(h)
    assert not ok and witness is not None


def test_gadget_budget_property():
    rng = random.Random(44)
    checked = 0
    for i in range(40):
        g = gen_mad_bounded(rng.randint(4, 12), Fraction(8, 3), 4000 + i)
        for gadget, budget in ((("triangle",), 1), (("j1",), 1), (("j2",), 2)):
            vs = [v for v in range(g.n)
                  if rho_star(g, (v,)).value >= budget]
            if not vs:
                continue
            v = vs[rng.randrange(len(vs))]
            ok, _ = mad_le_8_3(attach_gadget(g, v, gadget))
            assert ok
            checked += 1
    assert checked > 50


# -- reduction plans and lemma extension ----------------------------------------

def test_all_shipped_instances_pass_nonvacuously():
    for cid in ALL_CONFIG_IDS:
        g, match = instances.shipped_match(cid)
        report = verify_lemma_extension(g, match)
        assert report.passed, (cid, report.failures[:3])
        assert not report.vacuous, cid
        assert report.extended == report.h_partitions
        assert verify_lemma_extension(
            g, match, deadline=time.monotonic() + 60) == report, cid


def test_lemma_extension_builds_balls2_once(monkeypatch):
    g, match = instances.shipped_match("C5")
    tables = []
    init = fii._Solver.__init__

    def recording(self, graph, *rest):
        init(self, graph, *rest)
        if graph is g:
            tables.append(self.b2)

    monkeypatch.setattr(fii._Solver, "__init__", recording)
    report = verify_lemma_extension(g, match)
    assert len(tables) == report.distinct_restrictions > 1
    assert all(b2 is balls2(g) for b2 in tables)


def test_c1_extension_is_f_side():
    g, match = instances.shipped_match("C1")
    plan = reduction_plan(g, match)
    assert plan.deleted == (0,)
    report = verify_lemma_extension(g, match, plan)
    assert report.h_partitions == 3 and report.passed


def test_vacuous_pass_flagged():
    # hang a pendant off the tightness family: H is the family itself,
    # which has no partition, so the check is vacuous and says so
    g5 = gen_g5n(1)
    g = g5.with_additions(1, [(0, 17)])
    match = next(m for m in scan_configs(g, ("C1",)) if m.role("v") == 17)
    report = verify_lemma_extension(g, match)
    assert report.vacuous and report.passed
    assert report.h_partitions == 0


def test_lemma_extension_budgets_raise_budget_exhausted():
    # H, a path less one end, has exponentially many partitions
    g = gen_path(60)
    match = scan_configs(g, ("C1",))[0]
    with pytest.raises(fii.BudgetExhausted, match="more than 1000 partitions"):
        verify_lemma_extension(g, match, max_partitions=1000)
    start = time.monotonic()
    with pytest.raises(fii.BudgetExhausted, match="time budget"):
        verify_lemma_extension(g, match, deadline=time.monotonic() + 0.1)
    assert time.monotonic() - start < 10


def test_lemma_extension_raises_when_an_extension_search_runs_out(monkeypatch):
    # the enumeration answers, but an extension search says "unknown": the
    # verdict cannot be given, so the budget ran out, whichever search spent it
    g, match = instances.shipped_match("C1")
    calls = []

    def unknown(*args, **kwargs):
        calls.append(kwargs["deadline"])
        return fii.FiiResult("unknown", None, 0, 0, False)

    monkeypatch.setattr(fii, "find_fii", unknown)
    with pytest.raises(BudgetExhausted, match="^time budget ran out$"):
        verify_lemma_extension(g, match, deadline=time.monotonic() + 60)
    assert len(calls) == 1


def test_lemma_extension_memory_does_not_grow_with_the_partitions():
    # H, g5n(2) less a W2 pair, has no gadget vertex, so every H-partition
    # is its own restriction and none need be kept
    g = gen_g5n(2)
    match = scan_configs(g, ("C2",))[0]
    assert reduction_plan(g, match).mods == ()
    peaks = []
    for cap in (100, 1000, 6000):  # the first call builds the per-graph tables
        tracemalloc.start()
        try:
            with pytest.raises(fii.BudgetExhausted, match=f"more than {cap} "):
                verify_lemma_extension(g, match, max_partitions=cap)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[2] - peaks[1] < 64 * 1024, peaks


def test_lemma_extension_memory_is_flat_when_a_gadget_hangs_on_h():
    # H, a path less two middle vertices with a triangle hung at vertex 28,
    # has gadget vertices: each restriction's completions come out in one
    # run, so nothing is kept per restriction
    g = gen_path(60)
    match = next(m for m in scan_configs(g, ("C2",)) if m.role("u") == 29)
    assert reduction_plan(g, match).mods == (("triangle", 28),)
    with pytest.raises(fii.BudgetExhausted):  # builds the per-graph tables
        verify_lemma_extension(g, match, max_partitions=100)
    peaks = []
    for cap in (1000, 6000, 20_000):
        tracemalloc.start()
        try:
            with pytest.raises(fii.BudgetExhausted, match=f"more than {cap} "):
                verify_lemma_extension(g, match, max_partitions=cap)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) - min(peaks) < 64 * 1024, peaks


#: every match on every shipped instance, in scan order: (instance, config,
#: h_partitions, distinct_restrictions, extended, passed), none of which
#: depends on the enumeration order.  The two failing rows are the Cp5
#: matches whose u1 is the W2 vertex, so the plan deletes only N[v]; CHANGES.md
#: records them as a FOUND: either the plan reads the wrong role or the scan
#: matches the pair {u1, u2} in an order it should not.
_ALL_SHIPPED_MATCHES = (
    ("C1", "C1", 3, 3, 3, True), ("C1", "C1", 3, 3, 3, True),
    ("C2", "C1", 57, 57, 57, True), ("C2", "C1", 57, 57, 57, True),
    ("C2", "C2", 156, 39, 156, True), ("C2", "C2", 126, 49, 126, True),
    ("C2", "C2", 120, 39, 120, True),
    *[("C3", "C1", 107, 107, 107, True)] * 3, ("C3", "C3", 27, 27, 27, True),
    ("C4", "C1", 12, 12, 12, True), ("C4", "C4", 7, 7, 7, True),
    *[("C5", "C1", 1051, 1051, 1051, True)] * 4, ("C5", "C5", 81, 81, 81, True),
    *[("C5", "C6", 189, 189, 189, True)] * 4,
    ("C6", "C1", 509, 509, 509, True), ("C6", "C1", 469, 469, 469, True),
    *[("C6", "C1", 457, 457, 457, True)] * 2, ("C6", "C6", 81, 81, 81, True),
    ("C7", "C1", 4339, 4339, 4339, True), *[("C7", "C1", 4355, 4355, 4355, True)] * 4,
    ("C7", "C7", 243, 243, 243, True),
    ("C8", "C1", 412, 412, 412, True), *[("C8", "C1", 258, 258, 258, True)] * 2,
    ("C8", "C8", 108, 27, 108, True),
    ("C9", "C2", 924, 660, 924, True), ("C9", "C9", 196, 196, 196, True),
    ("C9", "Cp5", 980, 980, 180, False), ("C9", "Cp5", 20, 20, 20, True),
    ("C10", "C2", 1188, 924, 1188, True), ("C10", "C10", 196, 196, 196, True),
    ("C10", "Cp5", 784, 784, 144, False), ("C10", "Cp5", 16, 16, 16, True),
    *[("Cp1", "C1", 36, 36, 36, True)] * 2, ("Cp1", "Cp1", 9, 9, 9, True),
    *[("Cp2", "C1", 252, 252, 252, True)] * 3, ("Cp2", "Cp2", 27, 27, 27, True),
    *[("Cp3", "C1", 2518, 2518, 2518, True)] * 2, ("Cp3", "Cp3", 27, 27, 27, True),
    *[("Cp4", "C1", 178, 178, 178, True)] * 3, ("Cp4", "Cp4", 27, 27, 27, True),
    *[("Cp5", "C1", 50, 50, 50, True)] * 2, *[("Cp5", "Cp5", 9, 9, 9, True)] * 2,
)


def test_lemma_extension_on_every_shipped_match():
    seen = []
    for cid in ALL_CONFIG_IDS:
        g, _ = instances.INSTANCES[cid]()
        for match in scan_configs(g):
            r = verify_lemma_extension(g, match)
            seen.append((cid, r.config_id, r.h_partitions, r.distinct_restrictions,
                         r.extended, r.passed))
    assert len(seen) == 63
    assert seen == list(_ALL_SHIPPED_MATCHES)


def test_plan_deleted_sets_match_shapes():
    expected_sizes = {"C1": 1, "C2": 2, "C3": 4, "C4": 2, "C5": 6, "C6": 5,
                      "C7": 7, "C8": 6, "C9": 5, "C10": 7, "Cp1": 4,
                      "Cp2": 6, "Cp3": 11, "Cp4": 6, "Cp5": 7}
    for cid, size in expected_sizes.items():
        g, match = instances.shipped_match(cid)
        plan = reduction_plan(g, match)
        assert len(plan.deleted) == size, cid


def test_reduced_graph_numbering():
    # H's vertex i is G's keep[i] for i < len(keep), and the gadget vertices
    # follow: on every shipped match's plan, and on a C2 plan with a triangle.
    # An edge mod joins two of H's own vertices; a triangle adds two new ones
    path = gen_path(60)
    c2 = next(m for m in scan_configs(path, ("C2",)) if m.role("u") == 29)
    cases = [(g, reduction_plan(g, m)) for cid in ALL_CONFIG_IDS
             for g in [instances.INSTANCES[cid]()[0]] for m in scan_configs(g)]
    cases.append((path, reduction_plan(path, c2)))
    assert cases[-1][1].mods == (("triangle", 28),)
    assert {mod[0] for _, plan in cases for mod in plan.mods} == {"triangle", "edge"}
    for g, plan in cases:
        h, keep = configs.reduced_graph(g, plan)
        assert keep == [v for v in range(g.n) if v not in plan.deleted]
        joined = [(keep.index(mod[1]), keep.index(mod[2]))
                  for mod in plan.mods if mod[0] == "edge"]
        own = g.induced(keep)[0].with_additions(0, joined)
        assert h.induced(range(len(keep)))[0] == own
        assert h.n - len(keep) == 2 * sum(mod[0] == "triangle" for mod in plan.mods)


def test_a_mod_on_a_deleted_or_missing_vertex_is_a_graph_error():
    g, match = instances.shipped_match("C2")
    assert (g.n, reduction_plan(g, match).deleted) == (6, (2, 3))
    for mod, detail in ((("triangle", 2), "mod vertex 2 is deleted"),
                        (("triangle", 99), "mod vertex 99 out of range 0..5"),
                        (("edge", 0, 2), "mod vertex 2 is deleted"),
                        (("edge", 3, 0), "mod vertex 3 is deleted"),
                        (("path2", 1, -1), "mod vertex -1 out of range 0..5"),
                        # a mod without the fields of its kind; H's 1 is G's 1
                        (("triangle",), "mod ('triangle',) has no attachment vertex"),
                        (("edge", 0), "unknown gadget ('edge',)"),
                        (("triangle", 0, 1), "unknown gadget ('triangle', 1)")):
        plan = configs.ReductionPlan((2, 3), (mod,))
        with pytest.raises(GraphError, match=f"^{re.escape(detail)}$"):
            configs.reduced_graph(g, plan)
        with pytest.raises(GraphError, match=f"^{re.escape(detail)}$"):
            verify_lemma_extension(g, match, plan)
    # a plan whose mod vertices all survive into H passes the check: G's 5
    # is H's 3
    plan = configs.ReductionPlan((2, 3), (("edge", 0, 5),))
    assert configs.reduced_graph(g, plan)[0].has_edge(0, 3)


def test_a_mod_of_the_wrong_type_is_a_graph_error():
    # a bare kind for the mod tuple, and a kind that cannot be hashed
    g, match = instances.shipped_match("C2")
    for mods, detail in ((("triangle",), "mod vertex 'r' is not an integer"),
                         (((["edge"], 0),), "unknown gadget (['edge'],)")):
        plan = configs.ReductionPlan((2, 3), mods)
        with pytest.raises(GraphError, match=f"^{re.escape(detail)}$"):
            configs.reduced_graph(g, plan)
        with pytest.raises(GraphError, match=f"^{re.escape(detail)}$"):
            verify_lemma_extension(g, match, plan)


def test_c8_plan_uses_triangle_mod():
    g, match = instances.shipped_match("C8")
    plan = reduction_plan(g, match)
    assert plan.mods == (("triangle", 7),)


def test_cp2_plan_deletes_the_two_neighbours_of_a_w3():
    # V3-vertex 2 of the pendent cycle (1, 2, 5) has the W3-vertex 8 as its
    # least W23-neighbour, so the plan deletes 8's 2-neighbours 3 and 7 too;
    # 1 and 5 bring their W2-neighbours 9 and 3
    g = gen_mad_bounded(10, Fraction(5, 2), 21)
    match = ConfigMatch("Cp2", (("cycle", (1, 2, 5)),))
    assert scan_configs(g, ["Cp2"]) == [match]
    cls = classify_vertices(g)
    assert [cls[v] for v in (1, 2, 5, 8)] == [_W.V3, _W.V3, _W.V3, _W.W3]
    assert min(u for u in g.adj[2] if cls[u] in (_W.W2, _W.W3)) == 8
    plan = reduction_plan(g, match)
    assert (plan.deleted, plan.mods) == ((1, 2, 3, 5, 7, 8, 9), ())
    report = verify_lemma_extension(g, match, plan)
    assert (report.h_partitions, report.extended, report.passed) == (13, 13, True)


def test_cp4_plan_keeps_a_w3_u3():
    # a known gap: Cp4 with u3 in W3 is the one plan that deletes a W3's two
    # 2-neighbours (3 and 13 here) but keeps the W3 itself, and on this host
    # (mad 16/7) not every H-partition extends; deleting u3 as well, as the
    # share rule would, passes.  Pinned until the configuration's definition
    # settles which plan the reduction argument takes
    g = Graph(16, [(0, 1), (0, 4), (1, 3), (2, 10), (3, 8), (5, 8), (5, 11),
                   (5, 12), (5, 14), (5, 15), (7, 11), (8, 13), (9, 10), (9, 12),
                   (9, 13), (14, 15)])
    assert mad(g).value == Fraction(16, 7)
    match = ConfigMatch("Cp4", (("v", 5), ("t1", 14), ("t2", 15), ("u1", 8),
                                ("u2", 11), ("u3", 12)))
    assert scan_configs(g, ["Cp4"]) == [match]
    cls = classify_vertices(g)
    assert [cls[u] for u in (8, 11, 12)] == [_W.W3, _W.W2, _W.W2]
    plan = reduction_plan(g, match)
    assert (plan.deleted, plan.mods) == ((3, 5, 11, 12, 13, 14, 15), ())
    report = verify_lemma_extension(g, match, plan)
    assert (report.h_partitions, report.extended, report.passed) == (4563, 3321, False)
    shared = configs.ReductionPlan(tuple(sorted({8, *plan.deleted})))
    assert verify_lemma_extension(g, match, shared).passed


def test_cp3_matches_with_no_plan_are_pinned(tmp_path, capsys):
    # a known gap: the scanner takes a V4 with at least 2 W2 neighbours in
    # W235, and the catalogue has a plan only for >= 2 W5 or four W2.  Either
    # the scan over-matches or a plan is missing; until the configuration's
    # definition settles which, these matches stay unplanned
    detail = "no cataloged reduction for this Cp3 sub-shape at {}"
    for n, seed, v, around in ((60, 3, 8, ["W2", "W2", "W3", "W3"]),
                               (20, 19, 7, ["W2", "W2", "W2", "W3"])):
        g = gen_mad_bounded(n, Fraction(8, 3), seed)
        match = scan_configs(g, ["Cp3"])[0]
        cls = classify_vertices(g)
        assert (match.role("v"), cls[v]) == (v, _W.V4)
        assert sorted(cls[u].value for u in g.adj[v]) == around
        with pytest.raises(ValueError, match=f"^{detail.format(v)}$"):
            reduction_plan(g, match)
    # the CLI reports it as a usage error, not as an internal one
    path = tmp_path / "host.g6"
    path.write_text(to_graph6(g) + "\n")
    code = cli.main(["--json", "lemma-check", str(path), "--config", "Cp3",
                     "--match-index", "0"])
    assert (code, json.loads(capsys.readouterr().out)) == (
        2, {"schema": 1, "error": "usage", "detail": detail.format(7)})


def test_cp3_plan_uses_edge_mod():
    g, match = instances.shipped_match("Cp3")
    plan = reduction_plan(g, match)
    assert plan.mods and plan.mods[0][0] == "edge"
