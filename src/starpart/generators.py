"""Graph family constructors and test corpora.

``gen_g5n`` builds the tightness family: a 5n-cycle with two pendent
triangles attached at three of every five consecutive cycle vertices.  It
has 17n vertices, 23n edges, maximum average degree exactly 46/17, and no
FII-partition.  ``gen_mad_bounded`` produces random graphs under an exact
density cap p/q by rejection sampling: it keeps an orientation of the edges,
each taken 2q times, with every indegree at most p, which by Hakimi's
theorem exists exactly when mad <= p/q, and updates it at each insertion
with ``density.place_units``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator

from .graphs import Graph
from . import density


def gen_cycle(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def gen_path(k: int) -> Graph:
    if k < 1:
        raise ValueError("path needs at least 1 vertex")
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def gen_complete(k: int) -> Graph:
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def gen_star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def gen_tree_random(n: int, seed: int) -> Graph:
    """Random tree: vertex i >= 1 hangs off a uniformly chosen earlier vertex."""
    if n < 1:
        raise ValueError("tree needs at least 1 vertex")
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def gen_g5n(n: int) -> Graph:
    """The tightness family: 5n-cycle, two pendent triangles on v_i whenever
    i mod 5 is 1, 2, or 3.

    Vertex numbering is stable for certificates: cycle vertices 0..5n-1
    first, then triangle vertices in (cycle position, first, second) order.
    """
    if n < 1:
        raise ValueError("n must be positive")
    cyc = 5 * n
    edges = [(i, (i + 1) % cyc) for i in range(cyc)]
    nxt = cyc
    for i in range(cyc):
        if i % 5 in (1, 2, 3):
            for _ in range(2):
                a, b = nxt, nxt + 1
                nxt += 2
                edges += [(i, a), (i, b), (a, b)]
    g = Graph(nxt, edges)
    assert g.n == 17 * n and g.edge_count == 23 * n
    return g


def gen_mad_bounded(n: int, bound: Fraction | str, seed: int,
                    tries: int | None = None) -> Graph:
    """Random graph on n vertices with mad <= bound = p/q, deterministic per
    seed.

    Shuffled candidate edges are kept exactly when mad stays <= p/q, which
    by Hakimi (1965, J. Franklin Inst. 279) holds iff the edges, each taken
    2q times, can be oriented with every indegree <= p.  Such an orientation
    of the kept edges is maintained as in Brodal & Fagerberg (1999):
    ``held[x][y]`` units of edge xy point at x, ``load[x]`` counts them.  A
    candidate (u, v) places its 2q units by ``density.place_units``, which
    is max-flow: all fit iff min over K >= {u,v} of p|K| - 2q|E(K)| >= 2q.
    A rejected edge takes its units back; the paths shifted for it stay
    valid, and its dead set is dropped.
    """
    bound = Fraction(bound)
    if bound < 1:
        raise ValueError("bound must be at least 1")
    p, units = bound.numerator, 2 * bound.denominator
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    if tries is not None:
        pairs = pairs[:tries]
    held: list[dict[int, int]] = [{} for _ in range(n)]
    load = [0] * n
    edges: list[tuple[int, int]] = []
    for u, v in pairs:
        at_u, at_v = density.place_units(held, load, p, (u, v), units, set())
        if at_u + at_v == units:
            held[u][v], held[v][u] = at_u, at_v
            edges.append((u, v))
        else:
            load[u] -= at_u
            load[v] -= at_v
    g = Graph(n, edges)
    assert density.mad_le(g, bound)
    return g


def gen_corpus(count: int, n_max: int, bound: Fraction | str,
               seed: int) -> Iterator[tuple[str, Graph]]:
    """A deterministic corpus of mad-bounded random graphs, sizes cycling
    through 4..n_max.  A negative ``count`` or an ``n_max`` below 4 raises
    ``ValueError`` when the corpus is first iterated."""
    if count < 0:
        raise ValueError(f"corpus count must be non-negative, got {count}")
    if n_max < 4:
        raise ValueError(f"corpus n_max must be at least 4, got {n_max}")
    bound = Fraction(bound)
    rng = random.Random(seed)
    for i in range(count):
        n = 4 + i % (n_max - 3)
        yield f"corpus-{i:04d}-n{n}", gen_mad_bounded(n, bound, rng.randrange(2**31))
