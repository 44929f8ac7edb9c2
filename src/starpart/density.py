"""Exact density machinery: maximum average degree, the potential function
rho(A) = 4|A| - 3|E(A)|, and the constrained minimum rho*(I).

Everything is exact: densities are ``fractions.Fraction``, potentials are
ints, and every decision path goes through integer max-flow.  Each fast
algorithm has an exhaustive subset-enumeration oracle next to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .graphs import Graph

_ORACLE_LIMIT = 24


class _Dinic:
    """Integer max-flow on a small network; deterministic BFS/DFS order."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []

    def add_edge(self, u: int, v: int, cap: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def max_flow(self, s: int, t: int) -> int:
        to, cap, head = self.to, self.cap, self.head
        flow = 0
        while True:
            level = [-1] * self.n
            level[s] = 0
            q = [s]
            for u in q:
                for e in head[u]:
                    v = to[e]
                    if cap[e] > 0 and level[v] < 0:
                        level[v] = level[u] + 1
                        q.append(v)
            if level[t] < 0:
                return flow
            # blocking flow: iterative DFS with per-vertex edge pointers
            it = [0] * self.n
            path: list[int] = []
            u = s
            while True:
                if u == t:
                    aug = min(cap[e] for e in path)
                    flow += aug
                    for e in path:
                        cap[e] -= aug
                        cap[e ^ 1] += aug
                    path.clear()
                    u = s
                    continue
                if it[u] < len(head[u]):
                    e = head[u][it[u]]
                    v = to[e]
                    if cap[e] > 0 and level[v] == level[u] + 1:
                        path.append(e)
                        u = v
                    else:
                        it[u] += 1
                    continue
                # dead end: retreat and advance the predecessor's pointer
                if u == s:
                    break
                level[u] = -1
                e = path.pop()
                u = to[e ^ 1]
                it[u] += 1

    def min_cut_source_side(self, s: int) -> set[int]:
        seen = {s}
        q = [s]
        for u in q:
            for e in self.head[u]:
                v = self.to[e]
                if self.cap[e] > 0 and v not in seen:
                    seen.add(v)
                    q.append(v)
        return seen


@dataclass(frozen=True)
class Density:
    """An exact density 2|E(H)|/|V(H)| with a witness vertex set."""

    value: Fraction
    witness: tuple[int, ...]


@dataclass(frozen=True)
class PotentialResult:
    """The minimum of a vertex/edge-weighted potential with its minimizer."""

    value: int
    minimizer: tuple[int, ...]


def _subgraph_edges(g: Graph, vertices: Iterable[int]) -> int:
    vs = set(vertices)
    return sum(1 for u in vs for v in g._adjset[u] if v in vs and u < v)


def rho(g: Graph, a: Iterable[int]) -> int:
    """The potential 4|A| - 3|E(G[A])| of a vertex set."""
    vs = set(a)
    for v in vs:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    return 4 * len(vs) - 3 * _subgraph_edges(g, vs)


def mad(g: Graph) -> Density:
    """Exact maximum average degree via iterated max-flow (Dinkelbach).

    With the current witness density |E(S)|/|S| = p/q, one cut decides
    whether some T has q|E(T)| - p|T| > 0; any such T is strictly denser,
    densities have denominator at most n, so the iteration reaches the
    exact maximum in finitely many cuts.
    """
    if g.n < 1:
        raise ValueError("mad requires at least one vertex")
    if g.edge_count == 0:
        return Density(Fraction(0), (0,))
    witness = tuple(range(g.n))
    dens = Fraction(g.edge_count, g.n)
    while True:
        res = rho_star_weighted(g, (), dens.numerator, dens.denominator)
        if res.value >= 0:
            break
        better = res.minimizer
        cand = Fraction(_subgraph_edges(g, better), len(better))
        if cand <= dens:
            break
        witness, dens = better, cand
    return Density(2 * dens, witness)


def _subset_edge_counts(g: Graph) -> list[int]:
    """|E(G[S])| for every vertex subset S, indexed by bitmask (n <= 24)."""
    if g.n > _ORACLE_LIMIT:
        raise ValueError(f"oracle limited to {_ORACLE_LIMIT} vertices")
    nmask = [0] * g.n
    for u, v in g.edges():
        nmask[u] |= 1 << v
        nmask[v] |= 1 << u
    ecount = [0] * (1 << g.n)
    for mask in range(1, len(ecount)):
        v = (mask & -mask).bit_length() - 1
        prev = mask & (mask - 1)
        ecount[mask] = ecount[prev] + (nmask[v] & prev).bit_count()
    return ecount


def mad_oracle(g: Graph) -> Density:
    """Exhaustive maximum average degree over all nonempty subsets."""
    if g.n < 1:
        raise ValueError("mad requires at least one vertex")
    best_e, best_k, best_mask = 0, 1, 1
    for mask, e in enumerate(_subset_edge_counts(g)):
        k = mask.bit_count()
        if e * best_k > best_e * k:
            best_e, best_k, best_mask = e, k, mask
    witness = tuple(v for v in range(g.n) if best_mask >> v & 1)
    return Density(Fraction(2 * best_e, best_k), witness)


def rho_star_weighted(g: Graph, seed: Iterable[int],
                      vertex_weight: int, edge_weight: int) -> PotentialResult:
    """min over K >= seed of  vw|K| - ew|E(G[K])|, by a single min-cut."""
    seed_set = set(seed)
    for v in seed_set:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    n, m = g.n, g.edge_count
    net = _Dinic(n + m + 2)
    s, t = n + m, n + m + 1
    inf = edge_weight * m + vertex_weight * n + 1
    for i, (u, v) in enumerate(g.edges()):
        net.add_edge(s, n + i, edge_weight)
        if u not in seed_set:
            net.add_edge(n + i, u, inf)
        if v not in seed_set:
            net.add_edge(n + i, v, inf)
    for v in range(n):
        if v not in seed_set:
            net.add_edge(v, t, vertex_weight)
    cut = net.max_flow(s, t)
    value = vertex_weight * len(seed_set) - edge_weight * m + cut
    side = net.min_cut_source_side(s)
    minimizer = tuple(sorted(seed_set | {v for v in range(n) if v in side}))
    return PotentialResult(value, minimizer)


def rho_star(g: Graph, seed: Iterable[int] = ()) -> PotentialResult:
    """min over K >= seed of rho(K); rho is supermodular-free so one cut does it.

    The minimum ranges over *all* supersets including K = seed and, for an
    empty seed, K = {} with rho = 0; hence rho_star(g, ()) <= 0 always.
    """
    result = rho_star_weighted(g, seed, 4, 3)
    assert rho(g, result.minimizer) == result.value
    return result


def rho_star_oracle(g: Graph, seed: Iterable[int] = ()) -> PotentialResult:
    """Exhaustive rho* by enumerating every superset of the seed."""
    seed_set = set(seed)
    free = [v for v in range(g.n) if v not in seed_set]
    if len(free) > _ORACLE_LIMIT:
        raise ValueError(f"oracle limited to {_ORACLE_LIMIT} free vertices")
    base = sorted(seed_set)
    best_val = None
    best = None
    for mask in range(1 << len(free)):
        k = base + [free[i] for i in range(len(free)) if mask >> i & 1]
        val = rho(g, k)
        if best_val is None or val < best_val:
            best_val, best = val, tuple(sorted(k))
    return PotentialResult(best_val, best)


def rho_all_subsets(g: Graph) -> list[int]:
    """rho for every subset, indexed by bitmask (oracle utility, n <= 24)."""
    return [4 * mask.bit_count() - 3 * e
            for mask, e in enumerate(_subset_edge_counts(g))]


def rho_star_table(g: Graph) -> list[int]:
    """min-over-supersets of rho for every seed mask (superset-sum DP)."""
    table = rho_all_subsets(g)
    out = list(table)
    for b in range(g.n):
        bit = 1 << b
        for mask in range(len(out)):
            if not mask & bit:
                if out[mask | bit] < out[mask]:
                    out[mask] = out[mask | bit]
    return out


def mad_le_8_3(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """Decide mad(g) <= 8/3 via rho >= 0 on all nonempty sets.

    Returns (True, None) or (False, violating_set): the equivalence is
    6|E(S)| <= 8|S|  iff  4|S| - 3|E(S)| >= 0 for every nonempty S.
    """
    res = rho_star(g, ())
    if res.value >= 0:
        return True, None
    return False, res.minimizer


def mad_le(g: Graph, bound: Fraction) -> bool:
    """Decide mad(g) <= p/q exactly via the weighted potential p|S| - 2q|E(S)|."""
    bound = Fraction(bound)
    res = rho_star_weighted(g, (), bound.numerator, 2 * bound.denominator)
    return res.value >= 0
