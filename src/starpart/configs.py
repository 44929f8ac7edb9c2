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

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .graphs import (Graph, PendentCycle, VertexClass, classify_vertices,
                     pendent_triangles_at)
from .fii import FiiPartition, enumerate_fii, find_fii
from . import density

C_IDS = tuple(f"C{i}" for i in range(1, 11))
CP_IDS = tuple(f"Cp{i}" for i in range(1, 6))
ALL_CONFIG_IDS = C_IDS + CP_IDS

_W = VertexClass
_W2345 = {_W.W2, _W.W3, _W.W4, _W.W5}
_W235 = {_W.W2, _W.W3, _W.W5}
_W25 = {_W.W2, _W.W5}
_W23 = {_W.W2, _W.W3}
_V4P = {_W.V4, _W.V5, _W.V6}


@dataclass(frozen=True)
class ConfigMatch:
    """One occurrence of a configuration; ``vertices`` maps role names to a
    vertex id (or to a vertex tuple for the cycle-shaped configurations)."""

    config_id: str
    vertices: tuple[tuple[str, int | tuple[int, ...]], ...]

    def role(self, name: str) -> int | tuple[int, ...]:
        for key, val in self.vertices:
            if key == name:
                return val
        raise KeyError(name)

    def all_vertices(self) -> tuple[int, ...]:
        out: set[int] = set()
        for _, val in self.vertices:
            if isinstance(val, tuple):
                out.update(val)
            else:
                out.add(val)
        return tuple(sorted(out))


def _match(config_id: str, **roles) -> ConfigMatch:
    return ConfigMatch(config_id, tuple(roles.items()))


def _all_cycles_within(g: Graph, allowed: set[int]) -> list[tuple[int, ...]]:
    """Every simple cycle of G[allowed], canonically rotated/oriented."""
    cycles: list[tuple[int, ...]] = []
    adj = {v: [w for w in g.adj[v] if w in allowed] for v in allowed}

    def extend(start: int, path: list[int], seen: set[int]) -> None:
        u = path[-1]
        for w in adj[u]:
            if w == start:
                if len(path) >= 3 and path[1] < u:
                    cycles.append(tuple(path))
            elif w > start and w not in seen:
                seen.add(w)
                path.append(w)
                extend(start, path, seen)
                path.pop()
                seen.remove(w)

    for start in sorted(allowed):
        extend(start, [start], {start})
    cycles.sort()
    return cycles


def _two_neighbors(g: Graph, v: int) -> list[int]:
    return sorted(u for u in g.adj[v] if g.degree(u) == 2)


def _tri_vertices(tri_at: dict[int, list[PendentCycle]], v: int) -> list[int]:
    """The 2-vertices of the pendent triangles at v, triangle by triangle."""
    flat: list[int] = []
    for tri in sorted(tri_at.get(v, ()), key=lambda t: min(t.two_vertices)):
        flat.extend(sorted(tri.two_vertices))
    return flat


def scan_configs(g: Graph, ids: Iterable[str] | None = None) -> list[ConfigMatch]:
    """All occurrences of the requested configurations (default: all 15)."""
    want = tuple(ids) if ids is not None else ALL_CONFIG_IDS
    for cid in want:
        if cid not in ALL_CONFIG_IDS:
            raise ValueError(f"unknown configuration id {cid!r}")
    cls = classify_vertices(g)
    tri_at = pendent_triangles_at(g)
    out: list[ConfigMatch] = []

    if "C1" in want:
        for v in range(g.n):
            if g.degree(v) <= 1:
                out.append(_match("C1", v=v))
    if "C2" in want:
        for u, v in g.edges():
            if cls[u] == _W.W2 and cls[v] == _W.W2:
                out.append(_match("C2", u=u, v=v))
    if "C3" in want:
        for v in range(g.n):
            if g.degree(v) == 3 and all(g.degree(u) == 2 for u in g.adj[v]):
                n1, n2, n3 = sorted(g.adj[v])
                out.append(_match("C3", v=v, v1=n1, v2=n2, v3=n3))
    if "C4" in want:
        for v, tris in sorted(tri_at.items()):
            if g.degree(v) == 3:
                for tri in tris:
                    t1, t2 = sorted(tri.two_vertices)
                    out.append(_match("C4", v=v, t1=t1, t2=t2))
    if "C5" in want:
        for x, y in g.edges():
            if cls[x] == _W.W3 and cls[y] == _W.W3:
                x1, x2 = _two_neighbors(g, x)[:2]
                y3, y4 = _two_neighbors(g, y)[:2]
                out.append(_match("C5", x=x, y=y, x1=x1, x2=x2, y3=y3, y4=y4))
    if "C6" in want:
        for v in range(g.n):
            if g.degree(v) != 3:
                continue
            for v1 in g.adj[v]:
                if g.degree(v1) != 2:
                    continue
                for v2 in g.adj[v]:
                    if v2 != v1 and cls[v2] == _W.W3:
                        out.append(_match("C6", v=v, v1=v1, v2=v2))
    if "C7" in want:
        for v in range(g.n):
            if g.degree(v) != 3:
                continue
            w3s = sorted(u for u in g.adj[v] if cls[u] == _W.W3)
            for i in range(len(w3s)):
                for j in range(i + 1, len(w3s)):
                    out.append(_match("C7", v=v, v1=w3s[i], v2=w3s[j]))
    if "C8" in want:
        for v in range(g.n):
            if cls[v] != _W.W4:
                continue
            t1, t2 = _tri_vertices(tri_at, v)
            nontri = [u for u in g.adj[v] if u not in (t1, t2)]
            for v1 in sorted(nontri):
                if cls[v1] in _W2345:
                    v2 = next(u for u in nontri if u != v1)
                    out.append(_match("C8", v=v, t1=t1, t2=t2, v1=v1, v2=v2))
    if "C9" in want:
        for v in range(g.n):
            if cls[v] != _W.W5:
                continue
            ts = _tri_vertices(tri_at, v)
            v1 = next(u for u in g.adj[v] if u not in ts)
            if g.degree(v1) == 3 or cls[v1] in _W25:
                out.append(_match("C9", v=v, t1=ts[0], t2=ts[1], t3=ts[2],
                                  t4=ts[3], v1=v1))
    if "C10" in want:
        for v in range(g.n):
            if g.degree(v) != 7 or len(tri_at.get(v, ())) != 3:
                continue
            ts = _tri_vertices(tri_at, v)
            v1 = next(u for u in g.adj[v] if u not in ts)
            if cls[v1] in _W235:
                roles = {f"t{i + 1}": t for i, t in enumerate(ts)}
                out.append(_match("C10", v=v, **roles, v1=v1))
    if "Cp1" in want:
        w23 = {v for v in range(g.n) if cls[v] in _W23}
        for cyc in _all_cycles_within(g, w23):
            out.append(_match("Cp1", cycle=cyc))
    if "Cp2" in want:
        v3w4 = {v for v in range(g.n) if cls[v] in (_W.V3, _W.W4)}
        for cyc in _all_cycles_within(g, v3w4):
            ok = all(any(cls[u] in _W23 for u in g.adj[x])
                     for x in cyc if cls[x] == _W.V3)
            if ok:
                out.append(_match("Cp2", cycle=cyc))
    if "Cp3" in want:
        for v in range(g.n):
            if cls[v] != _W.V4:
                continue
            nbrs = sorted(g.adj[v])
            if any(cls[u] not in _W235 for u in nbrs):
                continue
            n_w2 = sum(1 for u in nbrs if cls[u] == _W.W2)
            n_w5 = sum(1 for u in nbrs if cls[u] == _W.W5)
            if n_w2 >= 2 or n_w5 >= 2:
                roles = {f"u{i + 1}": u for i, u in enumerate(nbrs)}
                out.append(_match("Cp3", v=v, **roles))
    if "Cp4" in want:
        for v in range(g.n):
            if g.degree(v) != 5 or len(tri_at.get(v, ())) != 1:
                continue
            ts = _tri_vertices(tri_at, v)
            nontri = sorted(u for u in g.adj[v] if u not in ts)
            if all(cls[u] in _W235 for u in nontri) \
                    and sum(1 for u in nontri if cls[u] == _W.W2) >= 2:
                out.append(_match("Cp4", v=v, t1=ts[0], t2=ts[1],
                                  u1=nontri[0], u2=nontri[1], u3=nontri[2]))
    if "Cp5" in want:
        for v in range(g.n):
            if g.degree(v) != 6 or len(tri_at.get(v, ())) != 2:
                continue
            ts = _tri_vertices(tri_at, v)
            nontri = sorted(u for u in g.adj[v] if u not in ts)
            for u1 in nontri:
                for u2 in nontri:
                    if u1 != u2 and cls[u1] in _W25 and cls[u2] in _W235:
                        out.append(_match("Cp5", v=v, t1=ts[0], t2=ts[1],
                                          t3=ts[2], t4=ts[3], u1=u1, u2=u2))
    order = {cid: i for i, cid in enumerate(ALL_CONFIG_IDS)}
    out.sort(key=lambda mch: (order[mch.config_id], mch.vertices))
    return out


# ---------------------------------------------------------------------------
# Gadgets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PendentTriangle:
    """Two new vertices forming a triangle with the attachment point."""


@dataclass(frozen=True)
class J1:
    """A new degree-5 apex adjacent to the attachment point and carrying two
    pendent triangles (5 new vertices).  Attaching it at v with rho*(v) >= 1
    preserves mad <= 8/3."""


@dataclass(frozen=True)
class J2:
    """A path of two double-triangle apexes hung off the attachment point
    (10 new vertices).  Attaching it at v with rho*(v) >= 2 preserves
    mad <= 8/3, and pins v to the forest part of any FI_2-partition."""


@dataclass(frozen=True)
class AddEdge:
    other: int


@dataclass(frozen=True)
class AddPath2:
    """A path of length two to ``other`` through one new middle vertex."""

    other: int


Gadget = PendentTriangle | J1 | J2 | AddEdge | AddPath2

#: rho*(attachment point) needed for the attachment to preserve mad <= 8/3
GADGET_BUDGET = {PendentTriangle: 1, J1: 1, J2: 2}


def _double_triangle_edges(apex: int, base: int) -> list[tuple[int, int]]:
    a, b, c, d = base, base + 1, base + 2, base + 3
    return [(apex, a), (apex, b), (a, b), (apex, c), (apex, d), (c, d)]


def attach_gadget(g: Graph, at: int, gadget: Gadget) -> Graph:
    """Graft a gadget at vertex ``at``; new vertices get ids n, n+1, ...

    The graft is non-invasive for the vertex-adding gadgets: restricting the
    result to the original vertex set recovers ``g``.
    """
    if not 0 <= at < g.n:
        raise ValueError(f"vertex {at} out of range")
    n = g.n
    if isinstance(gadget, PendentTriangle):
        return g.with_additions(2, [(at, n), (at, n + 1), (n, n + 1)])
    if isinstance(gadget, J1):
        w = n
        edges = [(at, w)] + _double_triangle_edges(w, n + 1)
        return g.with_additions(5, edges)
    if isinstance(gadget, J2):
        w1, w2 = n, n + 1
        edges = [(at, w1), (w1, w2)]
        edges += _double_triangle_edges(w1, n + 2)
        edges += _double_triangle_edges(w2, n + 6)
        return g.with_additions(10, edges)
    if isinstance(gadget, AddEdge):
        if not 0 <= gadget.other < g.n:
            raise ValueError(f"vertex {gadget.other} out of range")
        if gadget.other == at or g.has_edge(at, gadget.other):
            raise ValueError(f"edge ({at}, {gadget.other}) invalid or present")
        return g.with_additions(0, [(at, gadget.other)])
    if isinstance(gadget, AddPath2):
        if not 0 <= gadget.other < g.n:
            raise ValueError(f"vertex {gadget.other} out of range")
        return g.with_additions(1, [(at, n), (n, gadget.other)])
    raise TypeError(f"unknown gadget {gadget!r}")


def gadget_by_name(name: str) -> Gadget:
    name = name.strip().lower()
    if name in ("triangle", "pendent-triangle", "pt"):
        return PendentTriangle()
    if name == "j1":
        return J1()
    if name == "j2":
        return J2()
    if name.startswith("edge:"):
        return AddEdge(int(name.split(":", 1)[1]))
    if name.startswith("path2:"):
        return AddPath2(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown gadget {name!r}")


# ---------------------------------------------------------------------------
# Reduction plans and lemma-extension verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReductionPlan:
    """The deleted set S and modifications applied to H = G - S.

    ``mods`` entries are ("triangle"|"j1"|"j2", v) or ("edge"|"path2", u, v)
    with vertices named in G's numbering (they must survive into H).
    """

    deleted: tuple[int, ...]
    mods: tuple[tuple, ...] = ()


def _outer_neighbor(g: Graph, v: int, exclude: set[int]) -> int | None:
    outs = [u for u in g.adj[v] if u not in exclude]
    return min(outs) if outs else None


def reduction_plan(g: Graph, match: ConfigMatch) -> ReductionPlan:
    """The cataloged deletion set / modification for a configuration match.

    Follows the reduction arguments configuration by configuration; raises
    for sub-shapes the catalog does not cover.
    """
    cid = match.config_id
    cls = classify_vertices(g)
    tri_at = pendent_triangles_at(g)

    if cid == "C1":
        return ReductionPlan((match.role("v"),))
    if cid == "C2":
        u, v = match.role("u"), match.role("v")
        s = {u, v}
        h, keep = g.induced([x for x in range(g.n) if x not in s])
        idx = {old: new for new, old in enumerate(keep)}
        candidates = [x for x in (_outer_neighbor(g, u, s), _outer_neighbor(g, v, s))
                      if x is not None]
        mods: tuple[tuple, ...] = ()
        for cand in candidates:
            if density.rho_star(h, (idx[cand],)).value >= 1:
                mods = (("triangle", cand),)
                break
        return ReductionPlan((u, v), mods)
    if cid == "C3":
        v = match.role("v")
        return ReductionPlan(tuple(sorted({v, *g.adj[v]})))
    if cid == "C4":
        return ReductionPlan((match.role("t1"), match.role("t2")))
    if cid == "C5":
        names = ("x", "y", "x1", "x2", "y3", "y4")
        return ReductionPlan(tuple(sorted({match.role(r) for r in names})))
    if cid == "C6":
        v, v1, v2 = match.role("v"), match.role("v1"), match.role("v2")
        x1, x2 = _two_neighbors(g, v2)[:2]
        return ReductionPlan(tuple(sorted({v, v1, v2, x1, x2})))
    if cid == "C7":
        v, v1, v2 = match.role("v"), match.role("v1"), match.role("v2")
        xs = _two_neighbors(g, v1)[:2] + _two_neighbors(g, v2)[:2]
        return ReductionPlan(tuple(sorted({v, v1, v2, *xs})))
    if cid == "C8":
        v, v1 = match.role("v"), match.role("v1")
        t1, t2 = match.role("t1"), match.role("t2")
        if cls[v1] == _W.W3:
            x1, x2 = [u for u in _two_neighbors(g, v1) if u != v][:2]
            s = {v, v1, t1, t2, x1, x2}
            z1 = _outer_neighbor(g, x1, s)
            mods = (("triangle", z1),) if z1 is not None else ()
            return ReductionPlan(tuple(sorted(s)), mods)
        return ReductionPlan((t1, t2))
    if cid == "C9":
        v = match.role("v")
        return ReductionPlan(tuple(sorted({v, *_tri_vertices(tri_at, v)})))
    if cid == "C10":
        v = match.role("v")
        return ReductionPlan(tuple(sorted({v, *_tri_vertices(tri_at, v)})))
    if cid == "Cp1":
        return ReductionPlan(tuple(sorted(match.role("cycle"))))
    if cid == "Cp2":
        cyc = match.role("cycle")
        s = set(cyc)
        for x in cyc:
            if cls[x] == _W.V3:
                w23 = min(u for u in g.adj[x] if cls[u] in _W23)
                s.add(w23)
                if cls[w23] == _W.W3:
                    s.update(_two_neighbors(g, w23)[:2])
            elif cls[x] == _W.W4:
                s.update(_tri_vertices(tri_at, x))
        return ReductionPlan(tuple(sorted(s)))
    if cid == "Cp3":
        v = match.role("v")
        nbrs = sorted(g.adj[v])
        w5s = [u for u in nbrs if cls[u] == _W.W5]
        if len(w5s) >= 2:
            u1, u2 = w5s[:2]
            rest = [u for u in nbrs if u not in (u1, u2)]
            s = {v, u1, u2, *g.adj[u1], *g.adj[u2]}
            mods: tuple[tuple, ...] = ()
            if not g.has_edge(rest[0], rest[1]):
                mods = (("edge", rest[0], rest[1]),)
            return ReductionPlan(tuple(sorted(s)), mods)
        w2s = [u for u in nbrs if cls[u] == _W.W2]
        if len(w2s) >= 3:
            u4 = next(u for u in nbrs if u not in w2s[:3])
            if cls[u4] == _W.W2:
                return ReductionPlan(tuple(sorted({v, *nbrs})))
        raise ValueError(f"no cataloged reduction for this Cp3 sub-shape at {v}")
    if cid == "Cp4":
        v = match.role("v")
        t1, t2 = match.role("t1"), match.role("t2")
        nontri = [match.role("u1"), match.role("u2"), match.role("u3")]
        w2s = sorted(u for u in nontri if cls[u] == _W.W2)
        u3 = next((u for u in nontri if u not in w2s[:2]), None)
        u1, u2 = w2s[:2]
        if cls[u3] == _W.W5:
            s = {v, t1, t2, u1, u2, u3, *g.adj[u3]}
        elif cls[u3] == _W.W3:
            s = {v, t1, t2, u1, u2, *_two_neighbors(g, u3)[:2]}
        else:
            s = {v, t1, t2, u1, u2, u3}
        return ReductionPlan(tuple(sorted(s)))
    if cid == "Cp5":
        v, u1 = match.role("v"), match.role("u1")
        s = {v, *g.adj[v]}
        if cls[u1] == _W.W5:
            s.update(g.adj[u1])
        return ReductionPlan(tuple(sorted(s)))
    raise ValueError(f"unknown configuration id {cid!r}")


@dataclass
class LemmaExtensionReport:
    """Outcome of exhaustively extending every FI_2-partition of H to G."""

    config_id: str
    plan: ReductionPlan
    h_partitions: int
    distinct_restrictions: int
    extended: int
    failures: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def vacuous(self) -> bool:
        return self.h_partitions == 0

    @property
    def passed(self) -> bool:
        return not self.failures


def _apply_mods(h: Graph, idx: dict[int, int], mods: Sequence[tuple]) -> Graph:
    out = h
    for mod in mods:
        kind = mod[0]
        if kind in ("triangle", "j1", "j2"):
            gadget = {"triangle": PendentTriangle(), "j1": J1(), "j2": J2()}[kind]
            out = attach_gadget(out, idx[mod[1]], gadget)
        elif kind == "edge":
            out = attach_gadget(out, idx[mod[1]], AddEdge(idx[mod[2]]))
        elif kind == "path2":
            out = attach_gadget(out, idx[mod[1]], AddPath2(idx[mod[2]]))
        else:
            raise ValueError(f"unknown modification {mod!r}")
    return out


def verify_lemma_extension(g: Graph, match: ConfigMatch,
                           plan: ReductionPlan | None = None,
                           max_partitions: int = 500_000) -> LemmaExtensionReport:
    """Check, on this instance, that every FI_2-partition of the (possibly
    modified) reduced graph extends to all of G over labelings of S.

    Distinct H-partitions that restrict identically (differing only on
    gadget vertices) are deduplicated before the extension search.  When H
    has no partitions at all the report is a vacuous pass, flagged as such.
    """
    if plan is None:
        plan = reduction_plan(g, match)
    s = set(plan.deleted)
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"deleted vertex {v} out of range")
    keep = [v for v in range(g.n) if v not in s]
    h0, keep_list = g.induced(keep)
    idx = {old: new for new, old in enumerate(keep_list)}
    h = _apply_mods(h0, idx, plan.mods)

    report = LemmaExtensionReport(match.config_id, plan, 0, 0, 0)
    cache: dict[tuple[int, ...], bool] = {}
    for part in enumerate_fii(h, 2):
        report.h_partitions += 1
        if report.h_partitions > max_partitions:
            raise RuntimeError("reduced graph has too many partitions; "
                               "choose a smaller instance")
        restricted = tuple(part.labels[idx[v]] for v in keep_list)
        if restricted in cache:
            ok = cache[restricted]
        else:
            report.distinct_restrictions += 1
            fixed = {v: lab for v, lab in zip(keep_list, restricted)}
            res = find_fii(g, 2, forcing=False, fixed=fixed)
            ok = res.feasible
            cache[restricted] = ok
            if not ok:
                report.failures.append(restricted)
        if ok:
            report.extended += 1
    return report
