"""Checkers that judge starpart's answers without using starpart.

Everything here is written from the definitions in the README of the
package, not from its code: a graph6 codec, an FI_k-partition verifier, a
star-colouring verifier, subset-enumeration ``mad`` and ``rho*`` for small
graphs, and a replay of the documented rule of the mad-bounded generator.
Each verifier returns ``None`` for a valid witness and a one-line reason
otherwise.
"""

from __future__ import annotations

import math
import random
import re
from collections import deque
from fractions import Fraction
from functools import lru_cache

#: subset enumeration is used for graphs and components up to this size
SUBSET_LIMIT = 16


# -- graph6 -------------------------------------------------------------------

def g6_decode(text: str) -> tuple[int, list[tuple[int, int]]]:
    """(n, sorted edge list) of one graph6 line; raises ValueError if bad."""
    data = text.strip().encode("ascii")
    if not data:
        raise ValueError("empty graph6 text")
    if data[0] != 126:
        n, pos = data[0] - 63, 1
    elif len(data) > 1 and data[1] == 126:
        n, pos = 0, 8
        for c in data[2:8]:
            n = n << 6 | (c - 63)
    else:
        n, pos = 0, 4
        for c in data[1:4]:
            n = n << 6 | (c - 63)
    body = data[pos:]
    if len(body) != (n * (n - 1) // 2 + 5) // 6 or re.search(rb"[^?-~]", body):
        raise ValueError(f"graph6 body does not fit n={n}")
    edges = []
    for hit in re.finditer(rb"[^?]", body):
        i = hit.start()
        x = body[i] - 63
        for j in range(6):
            if x >> (5 - j) & 1:
                k = 6 * i + j
                v = (1 + math.isqrt(1 + 8 * k)) // 2
                u = k - v * (v - 1) // 2
                if v >= n:
                    raise ValueError("graph6 padding bits are set")
                edges.append((u, v))
    edges.sort()
    return n, edges


# -- plain graph helpers ---------------------------------------------------------

def adjacency(n: int, edges) -> list[set[int]]:
    """Adjacency sets; raises ValueError on a loop, repeat or bad vertex."""
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n) or u == v or v in adj[u]:
            raise ValueError(f"edge ({u}, {v}) is not simple in a graph on {n}")
        adj[u].add(v)
        adj[v].add(u)
    return adj


def edges_inside(adj: list[set[int]], vertices) -> int:
    vs = set(vertices)
    return sum(len(adj[v] & vs) for v in vs) // 2


# -- FI_k partitions ---------------------------------------------------------------

def fi_violation(n: int, edges, labels) -> str | None:
    """Check labels "F", "I1", "I2", ...: G[F] a forest, each I_j pairwise at
    distance >= 3 in the whole graph."""
    if len(labels) != n:
        return f"{len(labels)} labels for {n} vertices"
    if any(lab != "F" and not (lab[:1] == "I" and lab[1:].isdigit()) for lab in labels):
        return "unknown label"
    root = list(range(n))

    def find(x: int) -> int:
        while root[x] != x:
            x = root[x]
        return x

    for u, v in edges:
        if labels[u] == "F" and labels[v] == "F":
            ru, rv = find(u), find(v)
            if ru == rv:
                return f"edge ({u}, {v}) closes a cycle inside F"
            root[ru] = rv
    adj = adjacency(n, edges)
    for s in range(n):
        if labels[s] == "F":
            continue
        dist = {s: 0}
        todo = deque([s])
        while todo:
            x = todo.popleft()
            if dist[x] == 2:
                continue
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    todo.append(y)
                    if labels[y] == labels[s]:
                        return (f"{labels[s]} vertices {s} and {y} at distance "
                                f"{dist[y]}")
    return None


# -- star colourings ---------------------------------------------------------------

def star_violation(n: int, edges, colors) -> str | None:
    """Proper, and every two colour classes induce a star forest."""
    if len(colors) != n:
        return f"{len(colors)} colours for {n} vertices"
    adj = adjacency(n, edges)
    for u, v in edges:
        if colors[u] == colors[v]:
            return f"edge ({u}, {v}) is monochromatic"
    palette = sorted(set(colors))
    for i, a in enumerate(palette):
        for b in palette[i + 1:]:
            seen: set[int] = set()
            for s in range(n):
                if colors[s] not in (a, b) or s in seen:
                    continue
                comp = [s]
                seen.add(s)
                for x in comp:
                    for y in adj[x]:
                        if colors[y] in (a, b) and y not in seen:
                            seen.add(y)
                            comp.append(y)
                degs = [sum(1 for y in adj[x] if colors[y] in (a, b)) for x in comp]
                if sum(degs) // 2 != len(comp) - 1 or sum(d > 1 for d in degs) > 1:
                    return f"colours {a} and {b} induce a non-star at vertex {s}"
    return None


# -- density by subset enumeration -------------------------------------------------

def edge_count_table(n: int, edges) -> list[int]:
    """|E(S)| for every vertex subset S, indexed by bitmask."""
    if n > SUBSET_LIMIT:
        raise ValueError(f"subset enumeration limited to {SUBSET_LIMIT} vertices")
    nbr = [0] * n
    for u, v in edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    table = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = mask ^ low
        table[mask] = table[rest] + (nbr[low.bit_length() - 1] & rest).bit_count()
    return table


def mad_of_table(table: list[int]) -> Fraction:
    """max 2|E(S)|/|S| over nonempty S."""
    best_e, best_k = 0, 1
    for mask in range(1, len(table)):
        e, k = table[mask], mask.bit_count()
        if e * best_k > best_e * k:
            best_e, best_k = e, k
    return Fraction(2 * best_e, best_k)


def rho_min_of_table(table: list[int], seed_mask: int) -> int:
    """min of 4|S| - 3|E(S)| over S containing seed_mask (S may equal it)."""
    return min(4 * m.bit_count() - 3 * table[m]
               for m in range(seed_mask, len(table)) if m & seed_mask == seed_mask)


# -- the mad-bounded generator's documented rule ----------------------------------

@lru_cache(maxsize=SUBSET_LIMIT)
def _supersets_of_pairs(n: int) -> dict[tuple[int, int], list[int]]:
    out = {}
    for v in range(n):
        for u in range(v):
            subs = [0]
            for b in range(n):
                if b != u and b != v:
                    subs += [s | 1 << b for s in subs]
            pair = 1 << u | 1 << v
            out[(u, v)] = [s | pair for s in subs]
    return out


def replay_mad_bounded(n: int, bound: Fraction, seed: int) -> list[tuple[int, int]]:
    """The rule the generator documents: shuffle all pairs with
    random.Random(seed), then accept a pair iff mad stays <= bound.  Decided
    here by keeping p|S| - 2q|E(S)| for every subset S."""
    p, q = bound.numerator, bound.denominator
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    random.Random(seed).shuffle(pairs)
    slack = [p * m.bit_count() for m in range(1 << n)]
    supersets = _supersets_of_pairs(n)
    accepted = []
    for pair in pairs:
        sup = supersets[pair]
        if min(map(slack.__getitem__, sup)) >= 2 * q:
            accepted.append(pair)
            for m in sup:
                slack[m] -= 2 * q
    return sorted(accepted)


def corpus_plan(count: int, n_max: int, seed: int) -> list[tuple[str, int, int]]:
    """(name, n, graph seed) of each corpus member, by the documented rule:
    sizes cycle through 4..n_max, graph seeds are drawn from Random(seed)."""
    rng = random.Random(seed)
    plan = []
    for i in range(count):
        n = 4 + i % max(1, n_max - 3)
        plan.append((f"corpus-{i:04d}-n{n}", n, rng.randrange(2 ** 31)))
    return plan
