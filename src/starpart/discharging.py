"""Discharging: initial charge = degree, the four transfer rules, the
final-charge deficit audit, and the terminal partition construction.

Rules (exact thirds):
  R1  a 3+-vertex sends 2/3 to each 2-neighbor lying on a pendent cycle;
  R2  a 3+-vertex sends 1/3 to each W2-neighbor;
  R3  a 3+-vertex sends 1/3 to each W3-neighbor;
  R4  a 4+-vertex sends 1/3 to each W5-neighbor.

The rules only move charge along edges, so the total 2|E| is preserved.
On graphs avoiding the reducible configurations every vertex ends at
exactly 8/3 (apart from whole components formed by identifying triangles
at one vertex); the audit reports each deficit vertex together with the
configurations found within distance two of it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graphs import (V4P, W23, W235, Graph, VertexClass, classify_vertices,
                     find_pendent_cycles, forest_cycle, triangle_split)
from . import configs, fii

_W = VertexClass
EIGHT_THIRDS = Fraction(8, 3)


class Transfer(NamedTuple):
    source: int
    target: int
    amount: Fraction
    rule: str


class ChargeTable(NamedTuple):
    initial: list[Fraction]
    transfers: list[Transfer]
    final: list[Fraction]

    @property
    def total(self) -> Fraction:
        return sum(self.final, Fraction(0))


def run_discharging(g: Graph) -> ChargeTable:
    """Apply R1-R4 and return the full transfer log with final charges."""
    cls = classify_vertices(g)
    on_pendent_cycle = {v for c in find_pendent_cycles(g) for v in c[1:]}
    amounts = {1: Fraction(1, 3), 2: Fraction(2, 3)}
    thirds = [3 * len(a) for a in g.adj]  # each charge, times 3
    transfers: list[Transfer] = []

    def send(source: int, target: int, k: int, rule: str) -> None:
        transfers.append(Transfer(source, target, amounts[k], rule))
        thirds[source] -= k
        thirds[target] += k

    for u in range(g.n):
        d = g.degree(u)
        if d < 3:
            continue
        for w in g.adj[u]:
            if w in on_pendent_cycle:
                send(u, w, 2, "R1")
            if cls[w] == _W.W2:
                send(u, w, 1, "R2")
            if cls[w] == _W.W3:
                send(u, w, 1, "R3")
            if d >= 4 and cls[w] == _W.W5:
                send(u, w, 1, "R4")
    assert sum(thirds) == 6 * g.edge_count
    initial = [Fraction(len(a)) for a in g.adj]
    final = [Fraction(t, 3) for t in thirds]
    return ChargeTable(initial, transfers, final)


def _identified_triangles_center(split, v: int) -> bool:
    """Is v's component two or more triangles identified at v?  It is when
    the triangles' 2-vertices are all of v's neighbors, since a 2-vertex has
    no neighbor but v and its partner."""
    return v in split and len(split[v][0]) >= 4 and not split[v][1]


class DeficitEntry(NamedTuple):
    vertex: int
    final: Fraction
    nearby_configs: tuple[str, ...]
    special: str | None


class AuditReport(NamedTuple):
    table: ChargeTable
    deficits: list[DeficitEntry]

    @property
    def clean(self) -> bool:
        return not self.deficits


def audit_final_charges(g: Graph) -> AuditReport:
    """List vertices with final charge below 8/3, each cross-referenced with
    the configurations matched within distance two.

    On inputs avoiding C1-C10 (and containing no identified-triangles
    component) the deficit list is empty; for arbitrary inputs the report is
    diagnostic and lists every candidate explanation without tie-breaking.
    Cp1 and Cp2 count through ``configs.cycle_cover``, which lists no cycle,
    so the audit needs no budget.
    """
    table = run_discharging(g)
    cover = configs.cycle_cover(g)
    local = configs.scan_configs(
        g, [cid for cid in configs.ALL_CONFIG_IDS if cid not in cover])
    split = triangle_split(g)
    # a local match holds one vertex per role
    covered = [(m.config_id, x) for m in local for _, x in m.vertices]
    covered += [(cid, x) for cid, xs in cover.items() for x in xs]
    configs_at: dict[int, set[str]] = {}
    for cid, x in covered:
        configs_at.setdefault(x, set()).add(cid)
    deficits: list[DeficitEntry] = []
    for v in range(g.n):
        if table.final[v] >= EIGHT_THIRDS:
            continue
        near = {v}
        near.update(g.adj[v])
        for u in g.adj[v]:
            near.update(g.adj[u])
        nearby = sorted(set().union(*(configs_at.get(x, ()) for x in near)))
        special = None
        if _identified_triangles_center(split, v):
            special = "identified-triangles"
        deficits.append(DeficitEntry(v, table.final[v], tuple(nearby), special))
    return AuditReport(table, deficits)


# ---------------------------------------------------------------------------
# Terminal partition construction
# ---------------------------------------------------------------------------

class TerminalSets(NamedTuple):
    X: tuple[int, ...] = ()
    Y_alpha: tuple[int, ...] = ()
    Y_beta: tuple[int, ...] = ()
    W_X: tuple[int, ...] = ()
    W_alpha: tuple[int, ...] = ()
    W_beta: tuple[int, ...] = ()
    T_X: tuple[int, ...] = ()
    T_alpha: tuple[int, ...] = ()
    T_beta: tuple[int, ...] = ()
    Z: tuple[int, ...] = ()
    F0: tuple[int, ...] = ()


class TerminalResult(NamedTuple):
    applicable: bool
    reason: str | None = None
    degenerate: tuple[str, ...] = ()
    sets: TerminalSets | None = None
    partition: fii.FiiPartition | None = None


class _Inapplicable(Exception):
    def __init__(self, reason: str):
        self.reason = reason


#: the classes of the end state: T | W235 | V4+
_END_STATE = W235 | V4P | {_W.T2}


def _check_component(g: Graph, comp: list[int], cls, split) -> None:
    """Raise _Inapplicable naming the first violated end-state property."""
    for v in comp:
        if cls[v] not in _END_STATE:
            raise _Inapplicable(
                f"vertex {v} ({cls[v].value}, degree {g.degree(v)}) outside "
                "T | W235 | V4+")
    for v in comp:
        if cls[v] == _W.W3 and v in split:
            raise _Inapplicable(f"3-vertex {v} on a pendent triangle")
    v4p = [v for v in comp if cls[v] in V4P]
    v4pset = set(v4p)
    for v in v4p:
        for u in g.adj[v]:
            if u in v4pset:
                raise _Inapplicable(f"V4+ not independent: edge ({v}, {u})")
    w23 = [v for v in comp if cls[v] in W23]
    w23set = set(w23)
    for v in w23:
        inside = [u for u in g.adj[v] if u in w23set]
        if len(inside) > 2:
            raise _Inapplicable(f"W23-vertex {v} has {len(inside)} W23-neighbors")
        if cls[v] == _W.W2:
            for u in inside:
                if cls[u] == _W.W2:
                    raise _Inapplicable(
                        f"two adjacent W2-vertices ({v}, {u})")
    if forest_cycle(g, w23) is not None:
        raise _Inapplicable("cycle inside G[W23]")
    for v in comp:
        twos, nontri = split.get(v, ((), g.adj[v]))
        ntri = len(twos) // 2
        if cls[v] == _W.V6:
            if ntri != 2:
                raise _Inapplicable(
                    f"6-vertex {v} on {ntri} pendent triangles, need exactly 2")
            if any(cls[u] != _W.W3 for u in nontri):
                raise _Inapplicable(f"6-vertex {v} without two W3-neighbors")
        elif cls[v] == _W.V5:
            if ntri != 1:
                raise _Inapplicable(
                    f"V5-vertex {v} on {ntri} pendent triangles, need exactly 1")
            if sum(1 for u in nontri if cls[u] == _W.W2) > 1:
                raise _Inapplicable(f"V5-vertex {v} with two W2-neighbors")
        elif cls[v] == _W.V4:
            if sum(1 for u in g.adj[v] if cls[u] == _W.W5) > 1:
                raise _Inapplicable(f"V4-vertex {v} with two W5-neighbors")
            if sum(1 for u in g.adj[v] if cls[u] == _W.W2) > 1:
                raise _Inapplicable(f"V4-vertex {v} with two W2-neighbors")
        elif cls[v] == _W.W5:
            if cls[nontri[0]] not in V4P:
                raise _Inapplicable(
                    f"W5-vertex {v} whose fifth neighbor is not in V4+")


def _construct_component(g: Graph, comp: list[int], cls, split,
                         labels: list[int], sets: dict[str, list[int]]) -> None:
    """Label one component and add its members to the named terminal sets."""
    w23 = sorted(v for v in comp if cls[v] in W23)
    w23set = set(w23)
    z = sorted(v for v in w23 if cls[v] == _W.W2
               and not any(u in w23set for u in g.adj[v]))
    zset = set(z)
    f0 = sorted(set(w23) - zset)
    v4p = sorted(v for v in comp if cls[v] in V4P)
    w5 = sorted(v for v in comp if cls[v] == _W.W5)

    def w5_nbrs(v: int) -> list[int]:
        return [u for u in g.adj[v] if cls[u] == _W.W5]

    x_set = sorted(v for v in v4p if len(w5_nbrs(v)) >= 2)
    xs = set(x_set)
    y_set = [v for v in v4p if v not in xs]
    y_prime = {v for v in y_set if any(u in zset for u in g.adj[v])}

    # split Y' across the path components of G[Y' u Z]
    y_alpha: list[int] = []
    y_beta: list[int] = []
    for yz in g.components(y_prime | zset):
        members = [v for v in yz if v in y_prime]
        y_alpha += members[::2]
        y_beta += members[1::2]
    y_alpha += [v for v in y_set if v not in y_prime]
    y_alpha.sort()
    y_beta.sort()

    # _check_component put every fifth neighbor in V4+ = X | Y_alpha | Y_beta
    w_x: list[int] = []
    w_alpha: list[int] = []
    w_beta: list[int] = []
    yb = set(y_beta)
    for w in w5:
        fifth = split[w][1][0]
        if fifth in xs:
            w_x.append(w)
        elif fifth in yb:
            w_alpha.append(w)
        else:
            w_beta.append(w)

    t_alpha: list[int] = []
    t_beta: list[int] = []
    for w in sorted(w_x):
        t1, t2 = split[w][0][0::2]  # the least 2-vertex of each triangle
        t_alpha.append(t1)
        t_beta.append(t2)
    for x in sorted(x_set):
        if x in split:
            t_alpha.append(split[x][0][0])
    t_all = sorted(v for v in comp if cls[v] == _W.T2)
    t_x = sorted(set(t_all) - set(t_alpha) - set(t_beta))

    for v in w23 + x_set + w_x + t_x:
        labels[v] = 0
    for v in y_alpha + w_alpha + sorted(t_alpha):
        labels[v] = 1
    for v in y_beta + w_beta + sorted(t_beta):
        labels[v] = 2
    assert all(labels[v] != -1 for v in comp)

    for name, vs in (("X", x_set), ("Y_alpha", y_alpha), ("Y_beta", y_beta),
                     ("W_X", w_x), ("W_alpha", w_alpha), ("W_beta", w_beta),
                     ("T_X", t_x), ("T_alpha", t_alpha), ("T_beta", t_beta),
                     ("Z", z), ("F0", f0)):
        sets[name] += vs


def build_terminal_partition(g: Graph) -> TerminalResult:
    """Run the end-state construction: split V4+ into X | Y_alpha | Y_beta,
    the W5-vertices by the part of their fifth neighbor, and the pendent
    triangle 2-vertices into two 2-independent chosen sets plus the rest.

    Preconditions (checked per component, first failure reported): every
    vertex in T | W235 | V4+, no 3-vertex triangle apex, V4+ independent,
    G[W23] a disjoint union of paths with no adjacent W2-pair, the 6-vertex
    / V5 / V4 neighborhood properties, and W5 fifth-neighbors in V4+.
    Forest components and identified-triangles components are handled
    directly and flagged as degenerate.
    """
    split = triangle_split(g)
    cls = classify_vertices(g)
    labels = [-1] * g.n
    sets: dict[str, list[int]] = {name: [] for name in TerminalSets._fields}
    degenerate: list[str] = []
    for comp in g.components():
        if forest_cycle(g, comp) is None:  # a tree
            for v in comp:
                labels[v] = 0
            degenerate.append("forest")
            continue
        center = next((v for v in comp
                       if _identified_triangles_center(split, v)), None)
        if center is not None:
            labels[center] = 1
            for v in comp:
                if v != center:
                    labels[v] = 0
            degenerate.append("identified-triangles")
            continue
        try:
            _check_component(g, comp, cls, split)
            _construct_component(g, comp, cls, split, labels, sets)
        except _Inapplicable as exc:
            return TerminalResult(False, reason=exc.reason)
    partition = fii.FiiPartition(tuple(labels), 2)
    ok, witness = fii.verify_fii(g, partition)
    assert ok, f"assembled partition failed: {witness}"
    return TerminalResult(True, degenerate=tuple(sorted(set(degenerate))),
                          sets=TerminalSets(**{name: tuple(sorted(set(vs)))
                                               for name, vs in sets.items()}),
                          partition=partition)
