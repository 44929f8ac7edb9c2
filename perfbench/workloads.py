"""The three workloads: their inputs, the CLI calls of one round, and the
checks applied to every answer.

Inputs are built with starpart's own generators, instances and graph6
writer (so a faster generator or writer shows up in ``setup_s``) and written
in the formats a user would pass; everything that judges an answer lives in ``checkers`` and shares no
code with starpart.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from starpart import generators, graphs, instances

import checkers as ck

BOUND = Fraction(8, 3)
#: corpus seed of the package's acceptance criterion 2
CRITERION2_SEED = 20240601
#: corpus members up to this size are replayed and enumerated exhaustively
REPLAY_MAX = 14
#: generate repeats its three read-back queries, so that 24 of a round's 27
#: calls are read-backs and the median call is steady from run to run
READ_BACKS = 8


@dataclass
class Op:
    """One CLI call: ``starpart --json --timeout-ms B <args>``."""

    sub: str
    label: str
    args: list[str]
    check: Callable[[dict], str | None]
    expect: int = 0
    fault: str | None = None


def frac(x) -> Fraction:
    return Fraction(str(x))


def write_edgelist(path: Path, n: int, edges) -> None:
    """Declare every vertex first, so the CLI's ids are exactly 0..n-1."""
    with open(path, "w") as f:
        f.write("".join(f"{v}\n" for v in range(n)))
        f.write("".join(f"{u} {v}\n" for u, v in edges))


def edges_of(g) -> tuple[int, list[tuple[int, int]]]:
    return g.n, sorted(g.edges())


def relabel(n: int, edges, rng: random.Random) -> tuple[list[int], list[tuple[int, int]]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm, sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def disjoint_union(parts) -> tuple[int, list[tuple[int, int]]]:
    n, edges = 0, []
    for k, part_edges in parts:
        edges += [(u + n, v + n) for u, v in part_edges]
        n += k
    return n, edges


class Workload:
    """Inputs in ``workdir``; ``setup`` (timed) writes them, ``ops`` lists
    one round of calls with their checks."""

    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.graphs: dict[str, tuple[int, list[tuple[int, int]]]] = {}
        self.files: dict[str, str] = {}

    def _write(self, label: str, fname: str, n: int, edges) -> None:
        path = self.dir / fname
        write_edgelist(path, n, edges)
        self.graphs[label] = (n, edges)
        self.files[label] = str(path)

    def input_seeds(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self, rnd: int) -> list[Op]:
        raise NotImplementedError


# -- partition ----------------------------------------------------------------------

class Partition(Workload):
    """FI_2 search, conversion to a star 5-colouring, P4 verification.

    The mad-bounded graphs use fixed generator seeds: on seeded ones the
    solver's node count has a heavy tail (5 of 123 n=40 seeds pass 2M nodes), so
    a seeded input would fail on some seeds only.  Seeds 1 and 3 finish in
    under 50k nodes at n = 40, 50, 60; seed 0 at n=50 needs about 850k nodes,
    which sits at the search budget, so it is left out.  The known-hard
    inputs (tagged F2) lie far beyond the budget.  The bench seed relabels
    the cycles and the g5n graphs, whose search does not depend on labels.
    """

    name = "partition"
    why = ("FI_2 search, star 5-colouring and P4 check under one search budget; "
           "the fii solver does almost all the work")

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, workdir)
        if quick:
            self.mad_bounded = [(20, 1), (24, 3)]
            self.hard = []
            self.unions = [(0, 10, "F2"), (20, 30, None)]
            self.g5 = (1, 10)
        else:
            self.mad_bounded = [(n, s) for n in (40, 50, 60) for s in (1, 3)]
            self.hard = [(70, 3)]
            self.unions = [(0, 10, "F2"), (10, 20, "F2"), (20, 30, None)]
            self.g5 = (1, 50, 200)
        self.cycles = ((500, None), (2000, "F1"))

    def input_seeds(self):
        return {"relabel": self.seed,
                "mad_bounded": [f"n={n} seed={s}" for n, s in self.mad_bounded + self.hard],
                "corpus_unions": f"gen_corpus(30, 14, 8/3, {CRITERION2_SEED}) slices "
                                 + ", ".join(f"[{a}:{b}]" for a, b, _ in self.unions)}

    def setup(self):
        rng = random.Random(self.seed)
        for n, s in self.mad_bounded + self.hard:
            g = generators.gen_mad_bounded(n, BOUND, s)
            self._write(f"mad_bounded({n},seed={s})", f"mb{n}-{s}.el", *edges_of(g))
        corpus = [edges_of(g) for _, g in
                  generators.gen_corpus(30, 14, BOUND, CRITERION2_SEED)]
        for a, b, _ in self.unions:
            self._write(f"corpus[{a}:{b}]", f"union{a}.el", *disjoint_union(corpus[a:b]))
        for k, _ in self.cycles:
            n, edges = edges_of(generators.gen_cycle(k))
            self._write(f"cycle({k})", f"cycle{k}.el", n, relabel(n, edges, rng)[1])
        for k in self.g5:
            n, edges = edges_of(generators.gen_g5n(k))
            self._write(f"g5n({k})", f"g5n{k}.el", n, relabel(n, edges, rng)[1])

    def ops(self, rnd):
        star5 = [(f"mad_bounded({n},seed={s})", None) for n, s in self.mad_bounded]
        star5 += [(f"mad_bounded({n},seed={s})", "F2") for n, s in self.hard]
        star5 += [(f"corpus[{a}:{b}]", fault) for a, b, fault in self.unions]
        star5 += [(f"cycle({k})", fault) for k, fault in self.cycles]
        out = [Op("star5", label, ["star5", self.files[label]],
                  self._star5_check(label), 0, fault) for label, fault in star5]
        out += [Op("fii-find", f"g5n({k})", ["fii-find", self.files[f"g5n({k})"]],
                   _g5n_infeasible, 1) for k in self.g5]
        return out

    def _star5_check(self, label):
        n, edges = self.graphs[label]

        def check(doc):
            if doc.get("status") != "feasible":
                return f"status {doc.get('status')!r}; mad <= 8/3 input must be feasible"
            if doc.get("verified") is not True:
                return "program did not verify its colouring"
            colors = doc["coloring"]
            if any(c not in range(5) for c in colors):
                return "colouring uses a colour outside 0..4"
            return (ck.fi_violation(n, edges, doc["partition"])
                    or ck.star_violation(n, edges, colors))
        return check


def _g5n_infeasible(doc):
    # the paper proves g5n has no FI_2-partition; only here is "infeasible" right
    if doc.get("status") != "infeasible" or doc.get("exhausted") is not True:
        return f"status {doc.get('status')!r}, exhausted {doc.get('exhausted')!r}"
    if doc.get("partition") is not None:
        return "infeasible answer carries a partition"
    return None


# -- generate -------------------------------------------------------------------------

class Generate(Workload):
    """Seeded mad-bounded corpora written by the CLI, then read back through
    ``boundary``, ``mad`` and ``rho-star``."""

    name = "generate"
    why = ("seeded mad-bounded corpora (one min-cut per candidate pair), read back "
           "by boundary, mad and rho-star; generators and density do the work")

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, workdir)
        rng = random.Random(seed)
        # (count, n_max, corpus seed); the small corpus is criterion-2 style
        self.big = (12, 15, rng.randrange(2 ** 31)) if quick else (37, 40, rng.randrange(2 ** 31))
        self.small = (40, 14, rng.randrange(2 ** 31)) if quick else (440, 14, rng.randrange(2 ** 31))
        self.g5 = 20 if quick else 400
        self.state: dict = {}

    def input_seeds(self):
        return {"big_corpus": dict(zip(("count", "n_max", "seed"), self.big)),
                "small_corpus": dict(zip(("count", "n_max", "seed"), self.small)),
                "rho_star_seed": self.seed}

    def setup(self):
        self._write(f"g5n({self.g5})", "g5n.el", *edges_of(generators.gen_g5n(self.g5)))
        # rho-star seed: one vertex in about every eighth member of the union
        rng = random.Random(self.seed)
        self.rho_seed, offset = [], 0
        for _, k, _ in ck.corpus_plan(*self.small):
            if rng.random() < 0.125:
                self.rho_seed.append(offset + rng.randrange(k))
            offset += k

    def ops(self, rnd):
        big_dir = self.dir / f"r{rnd}-big"
        small_dir = self.dir / f"r{rnd}-small"
        union = self.dir / f"r{rnd}-union.el"
        self.state = {}

        def gen(spec, out, small):
            count, n_max, seed = spec
            return Op("gen corpus", f"count={count} n_max={n_max} seed={seed}",
                      ["gen", "corpus", "--count", str(count), "--n-max", str(n_max),
                       "--bound", "8/3", "--seed", str(seed), "--out", str(out)],
                      lambda doc: self._check_corpus(doc, out, spec, union if small else None))

        g5 = f"g5n({self.g5})"
        read_back = [
            Op("mad", "union of small corpus", ["mad", str(union)], self._check_union_mad),
            Op("rho-star", "union of small corpus",
               ["rho-star", str(union), "--seed", ",".join(map(str, self.rho_seed))],
               self._check_union_rho),
            Op("mad", g5, ["mad", self.files[g5]], self._check_g5n_mad),
        ]
        return [
            gen(self.big, big_dir, False),
            gen(self.small, small_dir, True),
            Op("boundary", "small corpus", ["boundary", "-k", "2", "--corpus", str(small_dir)],
               self._check_boundary),
        ] + read_back * READ_BACKS

    def _check_corpus(self, doc, out: Path, spec, union: Path | None):
        plan = ck.corpus_plan(*spec)
        names = [f"{name}.g6" for name, _, _ in plan]
        if doc.get("written") != names:
            return "written file list differs from the documented corpus rule"
        if sorted(p.name for p in out.iterdir()) != sorted(names):
            return "output directory holds other files"
        members, seed_set = [], set(self.rho_seed)
        offset = 0
        for (name, k, gseed), fname in zip(plan, names):
            try:
                n, edges = ck.g6_decode((out / fname).read_text())
                ck.adjacency(n, edges)
            except ValueError as exc:
                return f"{fname}: {exc}"
            if n != k:
                return f"{fname}: {n} vertices, name says {k}"
            if 2 * len(edges) * BOUND.denominator > BOUND.numerator * n:
                return f"{fname}: 2|E|/|V| above 8/3"
            if n <= REPLAY_MAX:
                if ck.replay_mad_bounded(n, BOUND, gseed) != edges:
                    return f"{fname}: edges differ from the replayed generator rule"
                table = ck.edge_count_table(n, edges)
                mad = ck.mad_of_table(table)
                if mad > BOUND:
                    return f"{fname}: mad {mad} above 8/3"
                if union is not None:
                    share = sum(1 << (v - offset) for v in seed_set if offset <= v < offset + n)
                    members.append((name, n, edges, mad, ck.rho_min_of_table(table, share)))
            offset += n
        if union is not None:
            if len(members) != len(plan):
                return "small corpus has members above the replay limit"
            n, edges = disjoint_union((k, e) for _, k, e, _, _ in members)
            write_edgelist(union, n, edges)
            self.state.update(members={m[0]: m for m in members},
                              union_adj=ck.adjacency(n, edges))
        return None

    def _check_boundary(self, doc):
        members = self.state.get("members")
        if members is None:
            return "small corpus missing"
        entries = doc.get("entries", [])
        if sorted(e["name"] for e in entries) != sorted(f"{name}.g6" for name in members):
            return "entries do not cover the corpus files"
        for e in entries:
            _, n, _, mad, _ = members[e["name"][:-3]]
            if e["n"] != n or frac(e["mad"]) != mad:
                return f"{e['name']}: n/mad {e['n']}/{e['mad']}, enumeration gives {n}/{mad}"
            if e["status"] != "feasible":
                return f"{e['name']}: status {e['status']}; mad <= 8/3 must be feasible"
        if doc.get("unknown") != 0 or doc.get("min_infeasible_mad") is not None:
            return "unknown or infeasible entries reported"
        return None

    def _check_union_mad(self, doc):
        members, adj = self.state.get("members"), self.state.get("union_adj")
        if members is None:
            return "small corpus missing"
        want = max(m[3] for m in members.values())
        if frac(doc["value"]) != want:
            return f"mad {doc['value']}, largest component mad is {want}"
        w = doc["witness"]
        if Fraction(2 * ck.edges_inside(adj, w), len(w)) != want:
            return "witness density differs from the value"
        if doc.get("le_8_3") is not True or doc.get("violating_set") is not None:
            return "mad <= 8/3 not reported"
        return None

    def _check_union_rho(self, doc):
        members, adj = self.state.get("members"), self.state.get("union_adj")
        if members is None:
            return "small corpus missing"
        want = sum(m[4] for m in members.values())
        if doc["value"] != want or doc.get("seed") != sorted(self.rho_seed):
            return f"rho* {doc['value']}, per-component enumeration gives {want}"
        w = doc["witness"]
        if not set(self.rho_seed) <= set(w):
            return "witness does not contain the seed"
        if 4 * len(set(w)) - 3 * ck.edges_inside(adj, w) != want:
            return "witness potential differs from the value"
        return None

    def _check_g5n_mad(self, doc):
        n, edges = self.graphs[f"g5n({self.g5})"]
        adj = ck.adjacency(n, edges)
        if frac(doc["value"]) != Fraction(46, 17):
            return f"mad {doc['value']}, expected 46/17"
        w = doc["witness"]
        if Fraction(2 * ck.edges_inside(adj, w), len(w)) != Fraction(46, 17):
            return "witness density differs from 46/17"
        bad = doc.get("violating_set")
        if doc.get("le_8_3") is not False or not bad \
                or 4 * len(set(bad)) - 3 * ck.edges_inside(adj, bad) >= 0:
            return "no valid violating set for mad > 8/3"
        return None


# -- audit ------------------------------------------------------------------------------

def _match_vertices(m: dict) -> list[int]:
    vs = []
    for val in m["vertices"].values():
        vs += val if isinstance(val, list) else [val]
    return vs


def _match_key(m: dict, local: Callable[[int], int]) -> tuple:
    """Configuration id and vertex multiset, so symmetric role swaps compare equal."""
    return m["config"], tuple(sorted(map(local, _match_vertices(m))))


class Audit(Workload):
    """Configuration scan, discharging and its audit, girth, graph6 I/O and
    the lemma-extension checks on large hosts."""

    name = "audit"
    why = ("config scan, discharging audit, graph6 I/O, girth and lemma checks on "
           "large hosts; the solver only enumerates small reduced graphs")

    def __init__(self, seed, quick, workdir):
        super().__init__(seed, workdir)
        self.copies = 2 if quick else 10
        self.g5 = 20 if quick else 200
        self.cycle = 500 if quick else 2000
        self.attach_at = random.Random(seed).randrange(17 * self.g5)
        self.state: dict = {}

    def input_seeds(self):
        return {"relabel": self.seed, "copies": self.copies, "attach_at": self.attach_at}

    def setup(self):
        rng = random.Random(self.seed)
        self.ids = list(instances.INSTANCES)
        parts = []
        for cid in self.ids:
            g, roles = instances.INSTANCES[cid]()
            parts.append(edges_of(g))
            self._write(f"instance {cid}", f"inst-{cid}.el", *edges_of(g))
            (self.dir / f"roles-{cid}.json").write_text(json.dumps(roles))
        one_n, one_edges = disjoint_union(parts)
        self._write("one copy", "one.el", one_n, one_edges)
        n, edges = disjoint_union([(one_n, one_edges)] * self.copies)
        perm, edges = relabel(n, edges, rng)
        self.home = [0] * n
        for old, new in enumerate(perm):
            self.home[new] = old
        self.one_n = one_n
        self._write(f"{self.copies} copies", "host.el", n, edges)
        g = generators.gen_g5n(self.g5)
        path = self.dir / "g5n.g6"
        path.write_text(graphs.to_graph6(g) + "\n")
        self.graphs["g5n"], self.files["g5n"] = edges_of(g), str(path)
        n, edges = edges_of(generators.gen_cycle(self.cycle))
        self._write(f"cycle({self.cycle})", "cycle.el", n, relabel(n, edges, rng)[1])
        self._write("g5n(50)", "g5n50.el", *edges_of(generators.gen_g5n(50)))

    def ops(self, rnd):
        self.state = {}
        host, g5 = f"{self.copies} copies", f"g5n({self.g5}) graph6"
        out = [
            Op("config-scan", "one copy", ["config-scan", self.files["one copy"]],
               self._check_scan_one),
            Op("config-scan", host, ["config-scan", self.files[host]], self._check_scan_host),
            Op("discharge", host, ["discharge", self.files[host]], self._check_discharge),
            Op("discharge-audit", host, ["discharge-audit", self.files[host]],
               self._check_audit_host, 1),
            Op("config-scan", g5, ["config-scan", self.files["g5n"]], self._check_scan_g5n),
            Op("discharge-audit", g5, ["discharge-audit", self.files["g5n"]],
               self._check_audit_g5n, 1),
            Op("classify", g5, ["classify", self.files["g5n"]], self._check_classify),
            Op("attach", f"{g5} at {self.attach_at}",
               ["attach", self.files["g5n"], "--at", str(self.attach_at), "--gadget", "J1"],
               self._check_attach),
            Op("girth", f"cycle({self.cycle})", ["girth", self.files[f"cycle({self.cycle})"]],
               lambda doc: None if doc.get("girth") == self.cycle
               else f"girth {doc.get('girth')}, expected {self.cycle}"),
            Op("girth", "g5n(50)", ["girth", self.files["g5n(50)"]],
               lambda doc: None if doc.get("girth") == 3 else f"girth {doc.get('girth')}, expected 3"),
        ]
        for cid in self.ids:
            out.append(Op("lemma-check", f"instance {cid}",
                          ["lemma-check", self.files[f"instance {cid}"], "--config", cid,
                           "--match", str(self.dir / f"roles-{cid}.json")],
                          self._lemma_check(cid)))
        return out

    def _check_scan_one(self, doc):
        keys = Counter(_match_key(m, int) for m in doc["matches"])
        if not keys:
            return "no matches on the instances"
        self.state["one"] = keys
        return None

    def _check_scan_host(self, doc):
        one = self.state.get("one")
        if one is None:
            return "one-copy scan missing"
        per_copy = [Counter() for _ in range(self.copies)]
        for m in doc["matches"]:
            key = _match_key(m, lambda v: self.home[v] % self.one_n)
            copies = {self.home[v] // self.one_n for v in _match_vertices(m)}
            if len(copies) != 1:
                return f"{m['config']} match spans several copies"
            per_copy[copies.pop()][key] += 1
        if any(c != one for c in per_copy):
            return f"{len(doc['matches'])} matches are not {self.copies} copies of the one-copy scan"
        return None

    def _check_discharge(self, doc):
        n, edges = self.graphs[f"{self.copies} copies"]
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        final = [frac(x) for x in doc["final"]]
        if [frac(x) for x in doc["initial"]] != deg:
            return "initial charges are not the degrees"
        if sum(final) != 2 * len(edges) or frac(doc["total"]) != 2 * len(edges):
            return "total charge is not 2|E|"
        flow = [Fraction(0)] * n
        for t in doc["transfers"]:
            amount = frac(t["amount"])
            if amount <= 0:
                return "non-positive transfer"
            flow[t["from"]] -= amount
            flow[t["to"]] += amount
        if any(final[v] != deg[v] + flow[v] for v in range(n)):
            return "final charges do not follow from the transfer log"
        self.state["final"] = final
        return None

    def _check_audit_host(self, doc):
        final = self.state.get("final")
        if final is None:
            return "discharge result missing"
        deficits = doc["deficits"]
        if sorted(d["vertex"] for d in deficits) != [v for v in range(len(final))
                                                     if final[v] < BOUND]:
            return "deficit list differs from the vertices below 8/3"
        for d in deficits:
            if frac(d["final"]) != final[d["vertex"]]:
                return f"vertex {d['vertex']}: audit and discharge charges differ"
        flagged = {c for d in deficits for c in d["nearby_configs"]}
        missing = [f"C{i}" for i in range(1, 11) if f"C{i}" not in flagged]
        return f"not flagged near a deficit: {missing}" if missing else None

    def _g5n_rotation(self, v: int) -> int:
        """The automorphism of g5n turning the cycle by five positions, by the
        documented numbering (cycle first, then triangles by position)."""
        cyc = 5 * self.g5
        return (v + 5) % cyc if v < cyc else cyc + (v - cyc + 12) % (12 * self.g5)

    def _check_scan_g5n(self, doc):
        keys = Counter(_match_key(m, int) for m in doc["matches"])
        turned = Counter({(c, tuple(sorted(map(self._g5n_rotation, vs)))): k
                          for (c, vs), k in keys.items()})
        if not keys or turned != keys:
            return "match set is not invariant under the rotation of g5n"
        return None

    def _check_audit_g5n(self, doc):
        n = self.graphs["g5n"][0]
        vs = [d["vertex"] for d in doc["deficits"]]
        if not vs or len(set(vs)) != len(vs) or not all(0 <= v < n for v in vs):
            return "deficit vertices missing, repeated or out of range"
        if any(frac(d["final"]) >= BOUND for d in doc["deficits"]):
            return "a listed deficit is not below 8/3"
        return None

    def _check_classify(self, doc):
        n, edges = self.graphs["g5n"]
        adj = ck.adjacency(n, edges)
        if doc["degrees"] != [len(a) for a in adj] or len(doc["classes"]) != n:
            return "degrees or classes do not cover the graph"
        for a, b, c in doc["pendent_triangles"]:
            if not (b in adj[a] and c in adj[a] and c in adj[b]):
                return f"({a}, {b}, {c}) is not a triangle"
        return None

    def _check_attach(self, doc):
        n, edges = self.graphs["g5n"]
        try:
            n2, edges2 = ck.g6_decode(doc["graph"])
        except ValueError as exc:
            return f"output graph: {exc}"
        if (n2, len(edges2), doc["n"], doc["m"]) != (n + 5, len(edges) + 7, n + 5, len(edges) + 7):
            return "gadget did not add 5 vertices and 7 edges"
        if [e for e in edges2 if e[1] < n] != edges:
            return "output restricted to the host differs from the host"
        return None

    def _lemma_check(self, cid):
        def check(doc):
            if doc.get("config") != cid or doc.get("passed") is not True:
                return f"{cid}: check did not pass"
            if doc.get("vacuous") or doc["h_partitions"] < 1 \
                    or doc["extended"] != doc["h_partitions"]:
                return f"{cid}: vacuous or not every partition extends"
            return None
        return check


WORKLOADS = {w.name: w for w in (Partition, Generate, Audit)}
