import json
import random
import sys
from fractions import Fraction

import pytest

from starpart.cli import main
from starpart.graphs import (Graph, GraphError, VertexClass, classify_vertices,
                             find_pendent_cycles, peel_2core, serialize_graph)
from starpart.generators import (gen_cycle, gen_g5n, gen_mad_bounded,
                                 gen_tree_random)
from starpart.discharging import (EIGHT_THIRDS, audit_final_charges,
                                  build_terminal_partition, run_discharging)
from starpart.fii import verify_fii
from starpart.configs import (ALL_CONFIG_IDS, cycle_cover, reduction_plan,
                              scan_configs)
from starpart import fii, instances
from starpart.density import mad, mad_le_8_3
from oracles import random_graph
from test_cli import _subdivided_prism


PETERSEN = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6),
                      (2, 7), (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8),
                      (8, 5)])


# -- charge rules ------------------------------------------------------------------

def test_c6_no_transfers():
    table = run_discharging(gen_cycle(6))
    assert not table.transfers
    assert all(f == 2 for f in table.final)
    assert table.total == 12


def test_bowtie_with_pendant_hand_computed():
    # center degree 5 on two pendent triangles plus one pendant leaf
    g = Graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5)])
    table = run_discharging(g)
    # center sends 2/3 to each of the four triangle 2-vertices and nothing else
    assert table.final[0] == Fraction(7, 3)
    for t in (1, 2, 3, 4):
        assert table.final[t] == Fraction(8, 3)
    assert table.final[5] == 1
    assert table.total == 2 * g.edge_count == 14
    assert len(table.transfers) == 4
    assert all(t.rule == "R1" for t in table.transfers)


def test_g5_conservation_and_recompute():
    g5 = gen_g5n(1)
    table = run_discharging(g5)
    assert table.total == 2 * 23
    final = list(table.initial)
    for t in table.transfers:
        final[t.source] -= t.amount
        final[t.target] += t.amount
    assert final == table.final


def test_conservation_and_locality_random():
    rng = random.Random(51)
    for i in range(40):
        g = random_graph(rng, rng.randint(1, 12), rng.random() * 0.5)
        table = run_discharging(g)
        assert table.total == 2 * g.edge_count
        for t in table.transfers:
            assert g.has_edge(t.source, t.target)
            assert t.amount in (Fraction(1, 3), Fraction(2, 3))


def test_w5_case_exact_charge():
    # W5 with a proper 4+-neighbor lands exactly at 8/3
    edges = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (0, 5),
             (5, 6), (5, 7), (5, 8)]
    g = Graph(9, edges)
    cls = classify_vertices(g)
    assert cls[0] == VertexClass.W5
    table = run_discharging(g)
    assert table.final[0] == EIGHT_THIRDS


# -- audits ------------------------------------------------------------------------

def test_audit_flags_expected_configuration():
    for cid in ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10"):
        g, _ = instances.INSTANCES[cid]()
        report = audit_final_charges(g)
        assert report.deficits, cid
        assert any(cid in d.nearby_configs for d in report.deficits), cid


def test_audit_clean_on_configuration_free_graph():
    report = audit_final_charges(PETERSEN)
    assert report.clean


def test_audit_free_standing_triangle():
    report = audit_final_charges(gen_cycle(3))
    assert len(report.deficits) == 3
    for d in report.deficits:
        assert d.final == 2
        assert "C2" in d.nearby_configs and "Cp1" in d.nearby_configs


def test_audit_c3_vertex_below_threshold():
    g, _ = instances.INSTANCES["C3"]()
    report = audit_final_charges(g)
    center = next(d for d in report.deficits if d.vertex == 0)
    assert center.final == 2
    assert "C3" in center.nearby_configs


def test_audit_identified_triangles_special():
    bow = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    report = audit_final_charges(bow)
    assert len(report.deficits) == 1
    d = report.deficits[0]
    assert d.vertex == 0 and d.special == "identified-triangles"


@pytest.mark.parametrize("graph, run", [
    (gen_g5n(3), audit_final_charges),
    (instances.INSTANCES["C10"]()[0],
     lambda g: [reduction_plan(g, m) for m in scan_configs(g)]),
], ids=["audit", "scan-and-plans"])
def test_pendent_cycles_walked_once(graph, run):
    g = Graph(graph.n, graph.edges())  # a graph no earlier call has seen
    walk = find_pendent_cycles.__wrapped__.__code__
    walked = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is walk:
            walked.append(frame.f_locals["g"])

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        run(g)
    finally:
        sys.setprofile(before)
    assert len(walked) == 1 and walked[0] is g and find_pendent_cycles(g)


def test_audit_equals_one_built_from_every_listed_match():
    # the audit reads Cp1 and Cp2 through their cover; listing every cycle,
    # as scan_configs does, must give the same report
    graphs = [_subdivided_prism(k) for k in range(4, 9)]
    graphs += [instances.INSTANCES[cid]()[0] for cid in ALL_CONFIG_IDS]
    for g in graphs:
        configs_at = {}
        for m in scan_configs(g):
            for _, val in m.vertices:
                for x in val if isinstance(val, tuple) else (val,):
                    configs_at.setdefault(x, set()).add(m.config_id)
        report = audit_final_charges(g)
        assert report.table == run_discharging(g)
        expected = []
        for v in range(g.n):
            if report.table.final[v] < EIGHT_THIRDS:
                near = {v, *g.adj[v], *(w for u in g.adj[v] for w in g.adj[u])}
                expected.append((v, tuple(sorted(set().union(
                    *(configs_at.get(x, ()) for x in near))))))
        assert [(d.vertex, d.nearby_configs) for d in report.deficits] == expected
    assert any("Cp2" in d.nearby_configs for g in graphs
               for d in audit_final_charges(g).deficits)


def test_deficit_vertices_have_explanations_on_corpus():
    rng = random.Random(52)
    for i in range(25):
        g = random_graph(rng, rng.randint(2, 10), rng.random() * 0.4)
        report = audit_final_charges(g)
        for d in report.deficits:
            assert d.nearby_configs or d.special, (i, d)


# -- terminal partition -------------------------------------------------------------

def _x_machine_instance() -> Graph:
    """V6 hub, two W3 arms through a W2 bridge, two X-vertices with their
    W5 pairs; exercises X, W_X and the chosen-triangle split."""
    edges = [(0, 16), (0, 17), (16, 17), (0, 18), (0, 19), (18, 19),
             (0, 1), (0, 2), (1, 4), (1, 3), (2, 5), (2, 3), (4, 6), (5, 7),
             (6, 8), (6, 9), (8, 9), (6, 12), (6, 13),
             (7, 10), (7, 11), (10, 11), (7, 14), (7, 15)]
    for w, base in ((12, 20), (13, 24), (14, 28), (15, 32)):
        for b in (base, base + 2):
            edges += [(w, b), (w, b + 1), (b, b + 1)]
    return Graph(36, edges)


def _y_split_instance() -> Graph:
    """Two V4-vertices sharing an isolated-W2 neighbor; exercises the
    Y'-component split."""
    edges = [(0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 6), (1, 7), (1, 8),
             (3, 14), (3, 9), (4, 9), (4, 10), (5, 10), (5, 11),
             (6, 11), (6, 12), (7, 12), (7, 13), (8, 13), (8, 15),
             (14, 16), (15, 17),
             (16, 18), (16, 19), (18, 19), (16, 22), (16, 23),
             (17, 20), (17, 21), (20, 21), (17, 24), (17, 25)]
    for w, base in ((22, 26), (23, 30), (24, 34), (25, 38)):
        for b in (base, base + 2):
            edges += [(w, b), (w, b + 1), (b, b + 1)]
    return Graph(42, edges)


def test_terminal_partition_x_machinery():
    g = _x_machine_instance()
    assert mad_le_8_3(g)[0]
    res = build_terminal_partition(g)
    assert res.applicable and not res.degenerate
    ok, _ = verify_fii(g, res.partition)
    assert ok
    assert res.sets.X == (6, 7)
    assert res.sets.W_X == (12, 13, 14, 15)
    assert set(res.sets.T_alpha) and set(res.sets.T_beta)
    assert res.sets.Z == ()


def test_terminal_partition_y_split():
    g = _y_split_instance()
    assert mad_le_8_3(g)[0]
    res = build_terminal_partition(g)
    assert res.applicable
    ok, _ = verify_fii(g, res.partition)
    assert ok
    assert res.sets.Z == (2,)
    assert res.sets.Y_alpha == (0,) and res.sets.Y_beta == (1,)


@pytest.mark.parametrize("sub, graph, code, expected", [
    ("terminal-partition", _x_machine_instance(), 0,
     '{"applicable": true, "command": "terminal-partition", "degenerate": [], '
     '"partition": ["I1", "F", "F", "F", "F", "F", "F", "F", "I1", "F", "I1", '
     '"F", "F", "F", "F", "F", "F", "F", "F", "F", "I1", "F", "I2", "F", "I1", '
     '"F", "I2", "F", "I1", "F", "I2", "F", "I1", "F", "I2", "F"], '
     '"schema": 1, "sets": {"F0": [1, 2, 3, 4, 5], "T_X": [9, 11, 16, 17, '
     '18, 19, 21, 23, 25, 27, 29, 31, 33, 35], "T_alpha": [8, 10, 20, 24, 28, '
     '32], "T_beta": [22, 26, 30, 34], "W_X": [12, 13, 14, 15], '
     '"W_alpha": [], "W_beta": [], "X": [6, 7], "Y_alpha": [0], '
     '"Y_beta": [], "Z": []}}\n'),
    ("discharge-audit", instances.INSTANCES["C9"]()[0], 1,
     '{"command": "discharge-audit", "deficits": [{"final": 2, '
     '"nearby_configs": ["C2", "C9", "Cp5"], "special": null, "vertex": 0}, '
     '{"final": "7/3", "nearby_configs": ["C2", "C9", "Cp5"], '
     '"special": null, "vertex": 5}, {"final": "7/3", "nearby_configs": '
     '["C2", "C9", "Cp5"], "special": null, "vertex": 6}], "schema": 1}\n'),
], ids=["terminal-partition", "discharge-audit"])
def test_cli_json_bytes_pinned(capsys, tmp_path, sub, graph, code, expected):
    path = tmp_path / "g.g6"
    path.write_text(serialize_graph(graph, "graph6") + "\n")
    assert main(["--json", sub, str(path)]) == code
    assert capsys.readouterr().out == expected


def test_terminal_partition_two_components():
    x, y = _x_machine_instance(), _y_split_instance()
    g = Graph(x.n + y.n, list(x.edges())
              + [(u + x.n, v + x.n) for u, v in y.edges()])
    res = build_terminal_partition(g)
    assert res.applicable and not res.degenerate
    ok, _ = verify_fii(g, res.partition)
    assert ok
    assert res.sets._asdict() == {
        "X": (6, 7, 52, 53), "Y_alpha": (0, 36), "Y_beta": (37,),
        "W_X": (12, 13, 14, 15, 58, 59, 60, 61), "W_alpha": (), "W_beta": (),
        "T_X": (9, 11, 16, 17, 18, 19, 21, 23, 25, 27, 29, 31, 33, 35, 55, 57,
                63, 65, 67, 69, 71, 73, 75, 77),
        "T_alpha": (8, 10, 20, 24, 28, 32, 54, 56, 62, 66, 70, 74),
        "T_beta": (22, 26, 30, 34, 64, 68, 72, 76),
        "Z": (38,),
        "F0": (1, 2, 3, 4, 5, 39, 40, 41, 42, 43, 44, 45, 46, 47, 48, 49, 50,
               51)}


def test_terminal_partition_forest_degenerate():
    res = build_terminal_partition(gen_tree_random(9, 3))
    assert res.applicable
    assert res.degenerate == ("forest",)
    assert all(l == 0 for l in res.partition.labels)


def test_terminal_partition_forest_beside_constructed_component():
    x = _x_machine_instance()
    alone = build_terminal_partition(x)
    for seed in range(5):
        tree = gen_tree_random(3 + 4 * seed, seed)
        g = Graph(tree.n + x.n, list(tree.edges())
                  + [(u + tree.n, v + tree.n) for u, v in x.edges()])
        res = build_terminal_partition(g)
        assert res.applicable and res.degenerate == ("forest",)
        assert res.partition.labels == (0,) * tree.n + alone.partition.labels
        assert verify_fii(g, res.partition)[0]


def test_a_failed_self_check_is_a_fault_not_a_verdict(capsys, monkeypatch,
                                                     tmp_path):
    # the assembled partition is checked with verify_fii; a partition that
    # fails it is a fault in the construction, which exits 4, never 1
    monkeypatch.setattr(fii, "verify_fii", lambda g, part:
                        (False, ("cycle", (0, 1, 2))))
    path = tmp_path / "tree.g6"
    path.write_text(serialize_graph(gen_tree_random(9, 3), "graph6") + "\n")
    assert main(["--json", "terminal-partition", str(path)]) == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"schema": 1, "error": "internal",
                   "detail": "AssertionError: assembled partition failed: "
                             "('cycle', (0, 1, 2))"}


def test_terminal_partition_identified_triangles():
    bow = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
    res = build_terminal_partition(bow)
    assert res.applicable and res.degenerate == ("identified-triangles",)
    ok, _ = verify_fii(bow, res.partition)
    assert ok
    tri3 = Graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4),
                     (0, 5), (0, 6), (5, 6)])
    res = build_terminal_partition(tri3)
    assert res.applicable
    ok, _ = verify_fii(tri3, res.partition)
    assert ok


def test_terminal_partition_adjacent_v4p_inapplicable():
    g = Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7),
                  (2, 5), (3, 6), (4, 7)])
    res = build_terminal_partition(g)
    assert not res.applicable
    assert "independent" in res.reason


def test_terminal_partition_w23_cycle_inapplicable():
    # C6 is one cycle of W2-vertices: caught by the adjacency check
    res = build_terminal_partition(gen_cycle(6))
    assert not res.applicable
    assert "W2" in res.reason or "W23" in res.reason
    # two 8-cycles alternating W3 and W2, the W3-vertices split between two
    # V4 hubs: only the acyclicity test catches these
    edges = [(c + i, c + (i + 1) % 8) for c in (0, 8) for i in range(8)]
    edges += [(w3, 16 + i % 2) for i, w3 in enumerate(range(0, 16, 2))]
    res = build_terminal_partition(Graph(18, edges))
    assert not res.applicable and res.reason == "cycle inside G[W23]"


def test_terminal_partition_cover_violation():
    res = build_terminal_partition(gen_g5n(1))
    assert not res.applicable  # V6 hubs fail the two-W3-neighbor property
    res = build_terminal_partition(PETERSEN)
    assert not res.applicable  # V3-vertices fall outside the end state
    assert "outside" in res.reason


def _with_gadgets(n: int, edges, tris=(), w5s=()) -> Graph:
    """``Graph(n, edges)`` plus a pendent triangle at each apex in ``tris``
    and a W5-vertex (two pendent triangles) hung from each host in ``w5s``,
    numbered from ``n`` on in that order."""
    edges = list(edges)

    def triangle(apex):
        nonlocal n
        edges.extend([(apex, n), (apex, n + 1), (n, n + 1)])
        n += 2

    for apex in tris:
        triangle(apex)
    for host in w5s:
        w, n = n, n + 1
        edges.append((host, w))
        triangle(w)
        triangle(w)
    return Graph(n, edges)


@pytest.mark.parametrize("n, bound, seed, g6, reason", [
    (8, Fraction(5, 2), 41, "GogRCg", "3-vertex 7 on a pendent triangle"),
    (8, Fraction(8, 3), 9, "FXcj?", "W23-vertex 4 has 3 W23-neighbors"),
    (8, Fraction(8, 3), 7, "EuKW", "V4-vertex 3 with two W2-neighbors"),
])
def test_terminal_partition_refuses_corpus_cores(n, bound, seed, g6, reason):
    g = _two_core(gen_mad_bounded(n, bound, seed))
    assert serialize_graph(g, "graph6") == g6
    res = build_terminal_partition(g)
    assert (res.applicable, res.reason) == (False, reason)


# vertex 0 is the one that breaks the end state; every check before the
# per-vertex loop passes, so its reason is the first one reported
@pytest.mark.parametrize("g, reason", [
    (Graph(8, [(h, i) for h in (0, 7) for i in range(1, 7)]),
     "6-vertex 0 on 0 pendent triangles, need exactly 2"),
    (_with_gadgets(4, [(0, 1), (0, 2), (3, 1), (3, 2)], tris=(0, 0, 3, 3)),
     "6-vertex 0 without two W3-neighbors"),
    (Graph(7, [(h, i) for h in (0, 6) for i in range(1, 6)]),
     "V5-vertex 0 on 0 pendent triangles, need exactly 1"),
    (_with_gadgets(5, [(h, i) for h in (0, 4) for i in (1, 2, 3)], tris=(0, 4)),
     "V5-vertex 0 with two W2-neighbors"),
    (_with_gadgets(1, [], w5s=(0, 0, 0, 0)), "V4-vertex 0 with two W5-neighbors"),
    (_with_gadgets(3, [(0, 1), (1, 2)], tris=(0, 0, 2, 2)),
     "W5-vertex 0 whose fifth neighbor is not in V4+"),
], ids=["v6-triangles", "v6-w3", "v5-triangles", "v5-w2", "v4-w5", "w5-fifth"])
def test_terminal_partition_names_the_failed_neighbourhood(g, reason):
    res = build_terminal_partition(g)
    assert (res.applicable, res.reason) == (False, reason)


def test_terminal_partition_splits_w5_by_their_y_side():
    # V5-vertices 0 and 1 share the Z-vertex 2, so 0 goes to Y_alpha and 1
    # to Y_beta; each holds one W5 (18 at 0, 23 at 1), which lands on the
    # other side.  The W2-path 5-3-6-4-7 of W3s 3 (at 0) and 4 (at 1) ends
    # at the X-vertices 8 and 9, each a V5 with two W5-neighbours.
    g = _with_gadgets(10, [(0, 2), (1, 2), (0, 3), (1, 4), (3, 5), (3, 6),
                           (4, 6), (4, 7), (5, 8), (7, 9)],
                      tris=(0, 1, 8, 9), w5s=(0, 1, 8, 8, 9, 9))
    assert mad(g).value == EIGHT_THIRDS
    res = build_terminal_partition(g)
    assert res.applicable and not res.degenerate
    assert verify_fii(g, res.partition) == (True, None)
    sets = res.sets
    assert (sets.X, sets.Y_alpha, sets.Y_beta, sets.Z) == ((8, 9), (0,), (1,), (2,))
    assert (sets.W_alpha, sets.W_beta) == ((23,), (18,))
    assert sets.W_X == (28, 33, 38, 43) and sets.F0 == (3, 4, 5, 6, 7)


# -- unavoidability on a seeded corpus ---------------------------------------

def _two_core(g: Graph) -> Graph:
    deg, gone = g.degrees(), [False] * g.n
    peel_2core(g, deg, gone, [v for v in range(g.n) if deg[v] <= 1])
    return g.induced(v for v in range(g.n) if not gone[v])[0]


def test_unavoidability_sweep():
    # every non-empty 2-core of the corpus holds a catalogued configuration
    # (Cp1 and Cp2 through cycle_cover) or is an identified-triangles graph
    # that the terminal construction handles; every local match has a plan
    # but the Cp3 gap, pinned by the classes of v's neighbours (a CHANGES.md
    # FOUND; neither the scanner nor a plan is changed here)
    graphs = 0
    identified, gaps = [], {}
    for n in (8, 12, 16, 20, 30):
        for b in (Fraction(8, 3), Fraction(5, 2), Fraction(12, 5)):
            for s in range(30):
                g = _two_core(gen_mad_bounded(n, b, s))
                if g.n == 0:
                    continue
                graphs += 1
                cover = cycle_cover(g)
                local = scan_configs(
                    g, [cid for cid in ALL_CONFIG_IDS if cid not in cover])
                if not (local or any(cover.values())):
                    res = build_terminal_partition(g)
                    assert res.applicable and res.degenerate == (
                        "identified-triangles",)
                    assert {d.special for d in audit_final_charges(g).deficits
                            } == {"identified-triangles"}
                    identified.append((n, b, s))
                cls = classify_vertices(g)
                for match in local:
                    try:
                        reduction_plan(g, match)
                    except GraphError as exc:
                        v = match.role("v")
                        assert (match.config_id, str(exc)) == (
                            "Cp3", f"no cataloged reduction for this Cp3 "
                            f"sub-shape at {v}")
                        around = tuple(sorted(cls[u].value for u in g.adj[v]))
                        gaps[around] = gaps.get(around, 0) + 1
    assert graphs == 450
    assert identified == [(8, Fraction(5, 2), 22)] + [
        (8, Fraction(12, 5), s) for s in (11, 12, 22, 25)]
    assert gaps == {("W2", "W2", "W2", "W3"): 23, ("W2", "W2", "W3", "W3"): 16}
