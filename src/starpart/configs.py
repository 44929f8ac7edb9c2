"""Reducible-configuration detection, gadget attachment, and instance-level
mechanization of the reduction arguments.

The fifteen configurations C1-C10 and Cp1-Cp5 are local structures scanned
against the vertex taxonomy.  For each configuration a reduction plan names
the deleted set S (and, where the argument needs it, a gadget modification
of H = G - S); ``verify_lemma_extension`` then enumerates every FI_2
partition of the modified H and checks, exhaustively over labelings of S,
that each one extends to the whole graph.
"""

from __future__ import annotations

import time
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple, Sequence

from .graphs import (W23, W25, W235, W2345, Graph, GraphError, VertexClass,
                     check_vertices, classify_vertices, double_triangle_edges,
                     triangle_split)
from . import density, fii

ALL_CONFIG_IDS = (*(f"C{i}" for i in range(1, 11)), *(f"Cp{i}" for i in range(1, 6)))

_W = VertexClass


class ConfigMatch(NamedTuple):
    """One occurrence of a configuration; ``vertices`` maps role names to a
    vertex id (or to a vertex tuple for the cycle-shaped configurations)."""

    config_id: str
    vertices: tuple[tuple[str, int | tuple[int, ...]], ...]

    def role(self, name: str) -> int | tuple[int, ...]:
        for key, val in self.vertices:
            if key == name:
                return val
        raise KeyError(name)


def _match(config_id: str, **roles) -> ConfigMatch:
    return ConfigMatch(config_id, tuple(roles.items()))


def _all_cycles_within(g: Graph, allowed: set[int],
                       deadline: float | None) -> list[tuple[int, ...]]:
    """Every simple cycle of G[allowed], canonically rotated/oriented: it
    starts at its least vertex, and its second vertex is below its last.

    A depth-first search from each start through larger vertices only; the
    stack holds one neighbour iterator per path vertex, so a long path costs
    no recursion.  Past ``deadline`` (a ``time.monotonic()`` instant or
    ``None``, read every 1024 steps) it raises ``fii.BudgetExhausted``."""
    cycles: list[tuple[int, ...]] = []
    steps = 0
    adj = {v: [w for w in g.adj[v] if w in allowed] for v in allowed}
    for start in sorted(allowed):
        # a cycle found from start leaves and returns through two larger
        # neighbours, so a start with fewer (every vertex of a path) is skipped
        if sum(w > start for w in adj[start]) < 2:
            continue
        path, seen, stack = [start], {start}, [iter(adj[start])]
        while stack:
            u = path[-1]
            for w in stack[-1]:
                if w == start:
                    if len(path) >= 3 and path[1] < u:
                        cycles.append(tuple(path))
                elif w > start and w not in seen:
                    steps += 1
                    if not steps % 1024 and deadline is not None \
                            and time.monotonic() > deadline:
                        raise fii.BudgetExhausted("time budget ran out")
                    seen.add(w)
                    path.append(w)
                    stack.append(iter(adj[w]))
                    break
            else:
                stack.pop()
                seen.discard(path.pop())
    cycles.sort()
    return cycles


def _cycle_class_sets(g: Graph) -> tuple[tuple[str, set[int]], ...]:
    """The class sets whose cycles are the Cp1 and the Cp2 matches: W23 for
    Cp1; W4 and V3 for Cp2, less the V3 vertices without a W23 neighbour,
    which no Cp2 cycle can hold."""
    cls = classify_vertices(g)
    w23 = {v for v in range(g.n) if cls[v] in W23}
    inside = {v for v in range(g.n) if cls[v] == _W.W4 or (
        cls[v] == _W.V3 and any(cls[u] in W23 for u in g.adj[v]))}
    return (("Cp1", w23), ("Cp2", inside))


def _on_cycles(g: Graph, allowed: set[int]) -> set[int]:
    """The vertices on a cycle of G[allowed]: the ends of its non-bridge
    edges (Tarjan 1974), from one lowlink pass with an explicit stack.  The
    tree edge p-v is a bridge iff nothing below v reaches p or above it."""
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    out: set[int] = set()
    for root in allowed:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, -1, iter(g.adj[root]))]
        while stack:
            v, parent, nbrs = stack[-1]
            for w in nbrs:
                if w != parent and w in disc:
                    low[v] = min(low[v], disc[w])
                elif w in allowed and w not in disc:
                    disc[w] = low[w] = len(disc)
                    stack.append((w, v, iter(g.adj[w])))
                    break
            else:
                stack.pop()
                if parent != -1:
                    low[parent] = min(low[parent], low[v])
                    if low[v] <= disc[parent]:
                        out.update((v, parent))
    return out


def cycle_cover(g: Graph) -> dict[str, set[int]]:
    """For Cp1 and for Cp2, the vertices their matches cover: those on a
    cycle inside its class set, found in linear time without listing one."""
    return {cid: _on_cycles(g, allowed) for cid, allowed in _cycle_class_sets(g)}


def _two_neighbors(g: Graph, v: int) -> list[int]:
    return sorted(u for u in g.adj[v] if g.degree(u) == 2)


def _local_matches(g: Graph, cls: Sequence[VertexClass],
                   split: Mapping[int, tuple[tuple[int, ...], tuple[int, ...]]],
                   v: int) -> list[ConfigMatch]:
    """The matches of C1-C10 and Cp3-Cp5 anchored at v.

    A class fixes the degree, so one branch on cls[v] picks the
    configurations that can sit at v: C1 and C10 at Other, C2 at W2, C3-C5 at
    W3, C6 and C7 at W3 and V3, C8 at W4, C9 at W5, Cp3 at V4, Cp4 at V5 and
    Cp5 at V6.  An edge configuration (C2, C5) is anchored at its smaller
    end; a T2 vertex anchors nothing.  ``ts`` and ``rest`` are v's
    ``triangle_split``: its triangles' 2-vertices and its other neighbours."""
    c, nbrs = cls[v], g.adj[v]
    ts, rest = split.get(v, ((), nbrs))
    tris = {f"t{i + 1}": t for i, t in enumerate(ts)} if ts else {}
    out: list[ConfigMatch] = []
    if c == _W.OTHER:
        if len(nbrs) <= 1:
            out.append(_match("C1", v=v))
        elif len(nbrs) == 7 and len(ts) == 6 and cls[rest[0]] in W235:
            out.append(_match("C10", v=v, **tris, v1=rest[0]))
    elif c == _W.W2:
        out += [_match("C2", u=v, v=u) for u in nbrs if u > v and cls[u] == _W.W2]
    elif c in (_W.W3, _W.V3):
        if c == _W.W3:
            if all(g.degree(u) == 2 for u in nbrs):
                out.append(_match("C3", v=v, v1=nbrs[0], v2=nbrs[1], v3=nbrs[2]))
            if ts:
                out.append(_match("C4", v=v, **tris))
            for y in nbrs:
                if y > v and cls[y] == _W.W3:
                    x1, x2 = _two_neighbors(g, v)[:2]
                    y3, y4 = _two_neighbors(g, y)[:2]
                    out.append(_match("C5", x=v, y=y, x1=x1, x2=x2, y3=y3, y4=y4))
        # a 2-vertex is never W3, so v1 and v2 always differ
        w3s = [u for u in nbrs if cls[u] == _W.W3]
        out += [_match("C6", v=v, v1=v1, v2=v2)
                for v1 in nbrs if g.degree(v1) == 2 for v2 in w3s]
        out += [_match("C7", v=v, v1=v1, v2=v2) for v1, v2 in combinations(w3s, 2)]
    elif c == _W.W4:
        for v1 in rest:
            if cls[v1] in W2345:
                v2 = next(u for u in rest if u != v1)
                out.append(_match("C8", v=v, **tris, v1=v1, v2=v2))
    elif c == _W.W5:
        if g.degree(rest[0]) == 3 or cls[rest[0]] in W25:
            out.append(_match("C9", v=v, **tris, v1=rest[0]))
    elif c == _W.V4:
        if all(cls[u] in W235 for u in nbrs) and (
                sum(cls[u] == _W.W2 for u in nbrs) >= 2
                or sum(cls[u] == _W.W5 for u in nbrs) >= 2):
            out.append(_match("Cp3", v=v, **{f"u{i + 1}": u for i, u in enumerate(nbrs)}))
    elif c == _W.V5:
        if len(ts) == 2 and all(cls[u] in W235 for u in rest) \
                and sum(cls[u] == _W.W2 for u in rest) >= 2:
            out.append(_match("Cp4", v=v, **tris, u1=rest[0], u2=rest[1], u3=rest[2]))
    elif c == _W.V6 and len(ts) == 4:
        out += [_match("Cp5", v=v, **tris, u1=u1, u2=u2) for u1 in rest for u2 in rest
                if u1 != u2 and cls[u1] in W25 and cls[u2] in W235]
    return out


def scan_configs(g: Graph, ids: Iterable[str] | None = None,
                 deadline: float | None = None) -> list[ConfigMatch]:
    """All occurrences of the requested configurations (default: all 15),
    sorted by id, then by role tuple.

    Every configuration but Cp1 and Cp2 is matched one anchor vertex at a
    time (``_local_matches``), reading only the anchor's neighbours, their
    degrees and their classes.  Cp1 and Cp2, cycles inside a class set, are
    the only whole-graph searches.  They list every simple cycle there,
    exponentially many on some sparse inputs (twice-subdivided cubic graphs:
    4210 Cp1 matches at 96 vertices, 184105 at 144); ``ids`` can leave them
    out, ``cycle_cover`` gives the vertices they cover in linear time, and
    past ``deadline`` (a ``time.monotonic()`` instant or ``None``) they
    raise ``fii.BudgetExhausted``."""
    want = tuple(ids) if ids is not None else ALL_CONFIG_IDS
    for cid in want:
        if cid not in ALL_CONFIG_IDS:
            raise GraphError(f"unknown configuration id {cid!r}")
    cls = classify_vertices(g)
    split = triangle_split(g)
    out = [m for v in range(g.n) for m in _local_matches(g, cls, split, v)
           if m.config_id in want]
    if {"Cp1", "Cp2"} & set(want):  # the class sets cost a pass over g
        for cid, allowed in _cycle_class_sets(g):
            if cid in want:
                out += [_match(cid, cycle=cyc)
                        for cyc in _all_cycles_within(g, allowed, deadline)]
    order = {cid: i for i, cid in enumerate(ALL_CONFIG_IDS)}
    out.sort(key=lambda mch: (order[mch.config_id], mch.vertices))
    return out


# ---------------------------------------------------------------------------
# Gadgets
# ---------------------------------------------------------------------------

#: rho*(attachment point) needed for the attachment to preserve mad <= 8/3
GADGET_BUDGET = {"triangle": 1, "j1": 1, "j2": 2}
#: how many fields each gadget kind holds after its name
_GADGET_FIELDS = {"triangle": 0, "j1": 0, "j2": 0, "edge": 1, "path2": 1}


def attach_gadget(g: Graph, at: int, gadget: tuple) -> Graph:
    """Graft a gadget at vertex ``at``; new vertices get ids n, n+1, ...

    A gadget is a tuple whose first item names its kind:

    - ``("triangle",)``: two new vertices forming a triangle with ``at``;
    - ``("j1",)``: a new degree-5 apex adjacent to ``at`` and carrying two
      pendent triangles (5 new vertices);
    - ``("j2",)``: a path of two double-triangle apexes hung off ``at``
      (10 new vertices); it pins ``at`` to the forest part of any
      FI_2-partition;
    - ``("edge", w)``: an edge from ``at`` to vertex w;
    - ``("path2", w)``: a path of length two to w through one new vertex.

    Any other tuple, one with a field too many or too few included, is an
    unknown gadget (``GraphError``).

    Attaching a triangle or J1 at a vertex with rho*(at) >= 1, or J2 at one
    with rho*(at) >= 2 (``GADGET_BUDGET``), preserves mad <= 8/3.  The
    graft is non-invasive for the vertex-adding gadgets: restricting the
    result to the original vertex set recovers ``g``.
    """
    check_vertices(g, (at,))
    if not gadget or _GADGET_FIELDS.get(gadget[0]) != len(gadget) - 1:
        raise GraphError(f"unknown gadget {gadget!r}")
    n, kind = g.n, gadget[0]
    if kind == "triangle":
        return g.with_additions(2, [(at, n), (at, n + 1), (n, n + 1)])
    if kind == "j1":
        return g.with_additions(5, [(at, n)] + double_triangle_edges(n, n + 1))
    if kind == "j2":
        edges = [(at, n), (n, n + 1)]
        edges += double_triangle_edges(n, n + 2)
        edges += double_triangle_edges(n + 1, n + 6)
        return g.with_additions(10, edges)
    w = gadget[1]
    check_vertices(g, (w,))
    if w == at:
        raise GraphError(f"{kind} ({at}, {w}) joins vertex {at} to itself")
    if kind == "path2":
        return g.with_additions(1, [(at, n), (n, w)])
    if g.has_edge(at, w):
        raise GraphError(f"edge ({at}, {w}) already present")
    return g.with_additions(0, [(at, w)])


def gadget_by_name(name: str) -> tuple:
    """The gadget for a command-line name, in any case: ``triangle`` (or
    ``pendent-triangle``, ``pt``), ``J1``, ``J2``, ``edge:W``, ``path2:W``."""
    name = name.strip().lower()
    kind, colon, target = name.partition(":")
    if name in ("triangle", "pendent-triangle", "pt"):
        return ("triangle",)
    if name in ("j1", "j2"):
        return (name,)
    if colon and kind in ("edge", "path2") and target.isdecimal():
        try:
            return (kind, int(target))
        except ValueError:  # past int()'s digit limit
            pass
    raise GraphError(f"unknown gadget {name!r}")


# ---------------------------------------------------------------------------
# Reduction plans and lemma-extension verification
# ---------------------------------------------------------------------------

class ReductionPlan(NamedTuple):
    """The deleted set S and modifications applied to H = G - S.

    Each ``mods`` entry is a gadget kind, its attachment point, then the
    gadget's own fields: ("triangle"|"j1"|"j2", v) or ("edge"|"path2", v, w),
    with vertices named in G's numbering (they must survive into H).
    """

    deleted: tuple[int, ...]
    mods: tuple[tuple, ...] = ()


def reduced_graph(g: Graph, plan: ReductionPlan) -> tuple[Graph, list[int]]:
    """H = G - S with the plan's gadgets attached, and ``keep``, the vertices
    of G left in H: for i < len(keep), H's vertex i is G's ``keep[i]``, and
    the gadget vertices follow, in the order of ``plan.mods``."""
    s = set(check_vertices(g, plan.deleted, "deleted vertex"))
    h, keep = g.induced(v for v in range(g.n) if v not in s)
    idx = {old: new for new, old in enumerate(keep)}
    for mod in plan.mods:
        if len(mod) < 2:
            raise GraphError(f"mod {mod!r} has no attachment vertex")
        kind, *vs = mod
        gone = [v for v in check_vertices(g, vs, "mod vertex") if v in s]
        if gone:
            raise GraphError(f"mod vertex {gone[0]} is deleted")
        h = attach_gadget(h, idx[vs[0]], (kind, *(idx[w] for w in vs[1:])))
    return h, keep


def _outer_neighbor(g: Graph, v: int, exclude: set[int]) -> int | None:
    outs = [u for u in g.adj[v] if u not in exclude]
    return min(outs) if outs else None


def _share(g: Graph, cls: Sequence[VertexClass], x: int) -> set[int]:
    """x with what a plan deletes along with it: a W3's first two
    2-neighbours, a W5's whole neighbourhood (its two pendent triangles)."""
    if cls[x] == _W.W3:
        return {x, *_two_neighbors(g, x)[:2]}
    if cls[x] == _W.W5:
        return {x, *g.adj[x]}
    return {x}


#: the configurations whose deleted set is the set of their match's vertices
#: less the vertices of the spared roles (a set: C5's x1, x2, y3, y4 may
#: coincide), plus the ``_share`` of each shared role's vertex; a Cp5
#: match's vertices are all of N[v]
_ROLES = {"C1": ((), ()), "C3": ((), ()), "C4": (("v",), ()), "C5": ((), ()),
          "C6": ((), ("v2",)), "C7": ((), ("v1", "v2")), "C9": (("v1",), ()),
          "C10": (("v1",), ()), "Cp1": ((), ()), "Cp5": ((), ("u1",))}


def reduction_plan(g: Graph, match: ConfigMatch) -> ReductionPlan:
    """The cataloged deletion set / modification for a configuration match.

    Follows the reduction arguments configuration by configuration; raises
    for sub-shapes the catalog does not cover.
    """
    cid = match.config_id
    cls = classify_vertices(g)

    if cid in _ROLES:
        spared, shared = _ROLES[cid]
        s = {x for role, val in match.vertices if role not in spared
             for x in (val if isinstance(val, tuple) else (val,))}
        for role in shared:
            s |= _share(g, cls, match.role(role))
        return ReductionPlan(tuple(sorted(s)))
    if cid == "C2":
        u, v = match.role("u"), match.role("v")
        h, keep = reduced_graph(g, ReductionPlan((u, v)))
        for x in (_outer_neighbor(g, u, {u, v}), _outer_neighbor(g, v, {u, v})):
            if x is not None and density.rho_star(h, (keep.index(x),)).value \
                    >= GADGET_BUDGET["triangle"]:
                return ReductionPlan((u, v), (("triangle", x),))
        return ReductionPlan((u, v))
    if cid == "C8":
        v, v1 = match.role("v"), match.role("v1")
        t1, t2 = match.role("t1"), match.role("t2")
        if cls[v1] == _W.W3:
            s = {v, t1, t2, *_share(g, cls, v1)}
            z1 = _outer_neighbor(g, _two_neighbors(g, v1)[0], s)
            mods = (("triangle", z1),) if z1 is not None else ()
            return ReductionPlan(tuple(sorted(s)), mods)
        return ReductionPlan((t1, t2))
    if cid == "Cp2":
        cyc = match.role("cycle")
        s = set(cyc)
        for x in cyc:
            if cls[x] == _W.V3:
                s |= _share(g, cls, min(u for u in g.adj[x] if cls[u] in W23))
            elif cls[x] == _W.W4:
                s.update(triangle_split(g)[x][0])
        return ReductionPlan(tuple(sorted(s)))
    if cid == "Cp3":
        v = match.role("v")
        nbrs = sorted(g.adj[v])
        w5s = [u for u in nbrs if cls[u] == _W.W5]
        if len(w5s) >= 2:
            rest = [u for u in nbrs if u not in w5s[:2]]
            s = {v, *_share(g, cls, w5s[0]), *_share(g, cls, w5s[1])}
            mods = () if g.has_edge(*rest) else (("edge", *rest),)
            return ReductionPlan(tuple(sorted(s)), mods)
        w2s = [u for u in nbrs if cls[u] == _W.W2]
        if len(w2s) >= 3:
            u4 = next(u for u in nbrs if u not in w2s[:3])
            if cls[u4] == _W.W2:
                return ReductionPlan(tuple(sorted({v, *nbrs})))
        raise GraphError(f"no cataloged reduction for this Cp3 sub-shape at {v}")
    if cid == "Cp4":
        v = match.role("v")
        t1, t2 = match.role("t1"), match.role("t2")
        nontri = [match.role("u1"), match.role("u2"), match.role("u3")]
        w2s = sorted(u for u in nontri if cls[u] == _W.W2)
        u3 = next(u for u in nontri if u not in w2s[:2])
        s = {v, t1, t2, *w2s[:2]}
        if cls[u3] == _W.W3:
            # the one exception to the share rule: a W3 u3 stays in H
            s.update(_two_neighbors(g, u3)[:2])
        else:
            s |= _share(g, cls, u3)
        return ReductionPlan(tuple(sorted(s)))
    raise GraphError(f"unknown configuration id {cid!r}")


class LemmaExtensionReport(NamedTuple):
    """Outcome of exhaustively extending every FI_2-partition of H to G;
    ``failures`` holds the first five restrictions that do not extend."""

    config_id: str
    plan: ReductionPlan
    h_partitions: int
    distinct_restrictions: int
    extended: int
    failures: list[tuple[int, ...]]

    @property
    def vacuous(self) -> bool:
        return self.h_partitions == 0

    @property
    def passed(self) -> bool:
        return not self.failures


def verify_lemma_extension(g: Graph, match: ConfigMatch,
                           plan: ReductionPlan | None = None,
                           max_partitions: int = 500_000,
                           deadline: float | None = None) -> LemmaExtensionReport:
    """Check, on this instance, that every FI_2-partition of the (possibly
    modified) reduced graph extends to all of G over labelings of S.

    The enumeration labels gadget vertices last, so the H-partitions that
    restrict identically (differing only on gadget vertices) come out in
    one run, which gets one extension search: the check keeps no table and
    runs in memory bounded by the graph.  When H has no partitions at all
    the report is a vacuous pass, flagged as such.
    Both limits are budgets: more than ``max_partitions`` partitions of H, or
    a search past ``deadline`` (shared by the enumeration and every
    extension search), raise ``fii.BudgetExhausted``.
    """
    if plan is None:
        plan = reduction_plan(g, match)
    h, keep = reduced_graph(g, plan)
    own = len(keep)
    h_partitions = distinct = extended = 0
    failures: list[tuple[int, ...]] = []
    previous, ok = None, False
    for part in fii.enumerate_fii(h, 2, deadline=deadline, own=own):
        h_partitions += 1
        if h_partitions > max_partitions:
            raise fii.BudgetExhausted(f"reduced graph has more than "
                                      f"{max_partitions} partitions")
        # the gadget vertices follow H's own, so the restriction is a prefix
        restricted = part.labels[:own]
        if restricted != previous:
            previous = restricted
            distinct += 1
            res = fii.find_fii(g, 2, forcing=False,
                               fixed=dict(zip(keep, restricted)),
                               deadline=deadline)
            if res.status == "unknown":
                raise fii.BudgetExhausted("time budget ran out")
            ok = res.feasible
            if not ok and len(failures) < 5:
                failures.append(restricted)
        if ok:
            extended += 1
    return LemmaExtensionReport(match.config_id, plan, h_partitions,
                                distinct, extended, failures)
