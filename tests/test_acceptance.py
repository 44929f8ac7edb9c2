"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The shared corpus fixtures are module-scoped so the
expensive generation happens once.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from starpart.graphs import Graph, parse_graph6
from starpart.generators import (gen_complete, gen_corpus, gen_cycle,
                                 gen_g5n, gen_mad_bounded, gen_path,
                                 gen_star, gen_tree_random)
from starpart.density import mad, mad_le_8_3, rho_star
from starpart.starcolor import is_star_coloring, star_chromatic_number
from starpart.fii import boundary_search, fii_to_star5, find_fii
from starpart.configs import (ALL_CONFIG_IDS, attach_gadget,
                              verify_lemma_extension)
from starpart.discharging import (audit_final_charges,
                                  run_discharging)
from starpart import instances
import oracles

PETERSEN = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5), (1, 6),
                      (2, 7), (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8),
                      (8, 5)])


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def bounded_corpus():
    """>= 500 random graphs with mad <= 8/3 and n <= 14, plus any externally
    supplied graph6 corpus filtered to n <= 9 and mad <= 8/3."""
    corpus = list(gen_corpus(500, 14, Fraction(8, 3), 20240601))
    external = Path(__file__).parent / "data" / "external_corpus.g6"
    if external.exists():
        for i, line in enumerate(external.read_text().splitlines()):
            if not line.strip():
                continue
            g = parse_graph6(line)
            if g.n <= 9 and mad_le_8_3(g)[0]:
                corpus.append((f"external-{i:04d}", g))
    return corpus


def test_criterion_1_tightness_family():
    t0 = time.monotonic()
    g1 = gen_g5n(1)
    ok = g1.n == 17 and g1.edge_count == 23
    ok = ok and mad(g1).value == Fraction(46, 17)
    res1 = find_fii(g1, 2)
    ok = ok and res1.status == "infeasible" and res1.exhausted
    t1 = time.monotonic() - t0
    ok = ok and t1 < 10
    t0 = time.monotonic()
    g2 = gen_g5n(2)
    ok = ok and g2.n == 34 and g2.edge_count == 46
    res2 = find_fii(g2, 2, forcing=True)
    ok = ok and res2.status == "infeasible" and res2.exhausted
    t2 = time.monotonic() - t0
    ok = ok and t2 < 60
    _report(1, ok, f"n=1 in {t1:.2f}s, n=2 in {t2:.2f}s, mad=46/17, "
            f"exhaustion nodes {res1.nodes}/{res2.nodes}")


def test_criterion_2_partition_success_rate(bounded_corpus):
    t0 = time.monotonic()
    solved = 0
    for name, g in bounded_corpus:
        res = find_fii(g, 2)
        assert res.feasible, f"no partition found for {name}"
        coloring = fii_to_star5(g, res.partition)
        valid, witness = is_star_coloring(g, coloring)
        assert valid and coloring.palette_size <= 5, (name, witness)
        solved += 1
    elapsed = time.monotonic() - t0
    ok = solved == len(bounded_corpus) >= 500 and elapsed < 600
    _report(2, ok, f"{solved}/{len(bounded_corpus)} partitioned and "
            f"5-colored in {elapsed:.1f}s")


def test_criterion_3_density_oracle_equivalence():
    rng = random.Random(31415)
    t0 = time.monotonic()
    mad_checks = rho_checks = 0
    for _ in range(10_000):
        n = rng.randint(1, 10)
        p = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        assert mad(g).value == oracles.mad(g), g
        mad_checks += 1
        table = oracles.rho_star_table(g)
        for _ in range(100):
            mask = rng.randrange(1 << n)
            seed = [v for v in range(n) if mask >> v & 1]
            assert rho_star(g, seed).value == table[mask], (g, seed)
            rho_checks += 1
    elapsed = time.monotonic() - t0
    _report(3, True, f"{mad_checks} mad + {rho_checks} rho* comparisons, "
            f"0 discrepancies, {elapsed:.0f}s")


def test_criterion_4_potential_inequalities(bounded_corpus):
    rng = random.Random(27182)
    graphs = [g for _, g in bounded_corpus]
    sub_checks = 0
    while sub_checks < 1000:
        g = graphs[rng.randrange(len(graphs))]
        a = {v for v in range(g.n) if rng.random() < 0.3}
        b = {v for v in range(g.n) if rng.random() < 0.3}
        lhs = rho_star(g, a).value + rho_star(g, b).value
        rhs = rho_star(g, a | b).value + rho_star(g, a & b).value
        assert lhs >= rhs, (g, sorted(a), sorted(b))
        sub_checks += 1
    del_checks = 0
    while del_checks < 1000:
        g = graphs[rng.randrange(len(graphs))]
        s = {v for v in range(g.n) if rng.random() < 0.25}
        if not s or len(s) == g.n:
            continue
        t = {u for v in s for u in g.adj[v]} - s
        extra = {v for v in range(g.n)
                 if v not in s and v not in t and rng.random() < 0.2}
        t |= extra
        incident = sum(1 for u, v in g.edges() if u in s or v in s)
        keep = [v for v in range(g.n) if v not in s]
        h, keep_list = g.induced(keep)
        idx = {old: new for new, old in enumerate(keep_list)}
        val = rho_star(h, [idx[v] for v in t]).value
        assert val >= -4 * len(s) + 3 * incident, (g, sorted(s), sorted(t))
        del_checks += 1
    _report(4, True, f"{sub_checks} submodularity + {del_checks} deletion-"
            "bound instances, 0 violations")


def test_criterion_5_gadget_budgets(bounded_corpus):
    rng = random.Random(16180)
    graphs = [g for _, g in bounded_corpus]
    gadgets = ((("triangle",), 1), (("j1",), 1), (("j2",), 2))
    trials = 0
    while trials < 1000:
        g = graphs[rng.randrange(len(graphs))]
        gadget, budget = gadgets[trials % 3]
        v = rng.randrange(g.n)
        if rho_star(g, (v,)).value < budget:
            continue
        h = attach_gadget(g, v, gadget)
        ok, witness = mad_le_8_3(h)
        assert ok, (g, v, gadget, witness)
        trials += 1
    _report(5, True, f"{trials} attachments within budget, all kept "
            "mad <= 8/3")


def test_criterion_6_star_solver():
    for n in range(1, 7):
        k, _ = star_chromatic_number(gen_complete(n))
        assert k == n, (n, k)
    k_c5, _ = star_chromatic_number(gen_cycle(5))
    assert k_c5 == 4
    assert oracles.chi_s(gen_cycle(5)) == 4
    # oracle agreement corpus: named graphs plus sparse random graphs, n <= 7
    corpus = [gen_path(n) for n in range(1, 8)]
    corpus += [gen_cycle(n) for n in range(3, 8)]
    corpus += [gen_star(n) for n in range(1, 7)]
    corpus += [gen_complete(n) for n in range(1, 6)]
    corpus += [gen_tree_random(7, s) for s in range(5)]
    rng = random.Random(606)
    while len(corpus) < 60:
        n = rng.randint(1, 7)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.35])
        corpus.append(g)
    agreed = 0
    for g in corpus:
        k, coloring = star_chromatic_number(g)
        assert k == oracles.chi_s(g), g
        ok, _ = is_star_coloring(g, coloring)
        assert ok
        agreed += 1
    _report(6, True, f"chi_s(K_n)=n for n<=6, chi_s(C5)=4, oracle agreement "
            f"on {agreed} graphs with n<=7")


def test_criterion_7_discharging(bounded_corpus):
    for name, g in bounded_corpus:
        table = run_discharging(g)
        assert table.total == 2 * g.edge_count, name
    flagged = 0
    for cid in ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9", "C10"):
        g, _ = instances.shipped_instance(cid)
        table = run_discharging(g)
        assert table.total == 2 * g.edge_count
        report = audit_final_charges(g)
        assert any(cid in d.nearby_configs for d in report.deficits), cid
        flagged += 1
    clean = audit_final_charges(PETERSEN)
    assert clean.clean
    _report(7, True, f"conservation on {len(bounded_corpus)} corpus graphs, "
            f"{flagged}/10 expected configurations flagged, "
            "configuration-free instance clean")


def test_criterion_8_lemma_mechanization():
    t0 = time.monotonic()
    results = []
    for cid in ALL_CONFIG_IDS:
        g, match = instances.shipped_match(cid)
        report = verify_lemma_extension(g, match)
        assert report.passed, (cid, report.failures[:2])
        assert not report.vacuous, cid
        results.append(f"{cid}:{report.h_partitions}")
    elapsed = time.monotonic() - t0
    ok = elapsed < 300
    _report(8, ok, f"15/15 non-vacuous in {elapsed:.1f}s "
            f"[{' '.join(results)}]")


def test_criterion_9_boundary_experiments():
    # k = 0: exactly the non-forests are infeasible; cycles pin the bound at 2
    corpus0 = [(f"cycle-{k}", gen_cycle(k)) for k in (3, 4, 7, 12, 24, 30)]
    corpus0 += [(f"tree-{n}", gen_tree_random(n, n)) for n in (2, 5, 9, 13)]
    corpus0 += [(f"sparse-{i}", gen_mad_bounded(10, Fraction(8, 3), 900 + i))
                for i in range(10)]
    rep0 = boundary_search(0, corpus0)
    for e in rep0.entries:
        g = dict(corpus0)[e.name]
        assert (e.status == "feasible") == g.is_forest(), e
    assert rep0.min_infeasible_mad == 2

    # k = 1: nothing below mad 5/2 is infeasible
    corpus1 = [(f"bounded-{i}", gen_mad_bounded(4 + i % 9, Fraction(8, 3),
                                                7000 + i)) for i in range(60)]
    corpus1 += [(f"cycle-{k}", gen_cycle(k)) for k in (3, 5, 6, 9)]
    corpus1 += [("k4", gen_complete(4)), ("g5n", gen_g5n(1))]
    rep1 = boundary_search(1, corpus1)
    below = [e for e in rep1.entries
             if e.status == "infeasible" and e.mad < Fraction(5, 2)]
    assert not below, below

    # k = 2: the tightness family is the infeasible witness at mad 46/17
    corpus2 = [("g5n-1", gen_g5n(1)), ("g5n-2", gen_g5n(2))]
    corpus2 += [(f"bounded-{i}", gen_mad_bounded(8, Fraction(8, 3), 100 + i))
                for i in range(10)]
    rep2 = boundary_search(2, corpus2)
    assert rep2.min_infeasible_mad == Fraction(46, 17)
    statuses = {e.name: e.status for e in rep2.entries}
    assert statuses["g5n-1"] == statuses["g5n-2"] == "infeasible"
    _report(9, True,
            f"h(0) behavior reproduced (min infeasible mad = 2), no k=1 "
            f"infeasibility below 5/2 over {len(rep1.entries)} graphs, k=2 "
            "witness at 46/17")
